"""Machine facts and the ROADMAP re-anchor quantities, measured directly.

    python3 perfbench/provenance.py

Prints one JSON object: CPU model, core count, Python version, and the
median of three timings of each quantity the ROADMAP quotes (criterion
07, clearing at 6 goods x 6 bidders, the dominance check at 3 bidders x
a 5-value grid).  baseline.json records its output.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import time

from run import import_program

REPEATS = 3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def timed(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    import_program()
    from finrel import auctions, laws, values
    from workloads import _valuations, instance

    full = laws.LawConfig("full", 0)
    goods, bidders = [f"g{k}" for k in range(1, 7)], list(range(1, 7))
    inst = instance(goods, bidders, _valuations("dense", goods, bidders, random.Random(0)))
    grid = values.V([0, 1, 2, 3, 4])
    m = auctions.second_price_single_good(values.V([1, 2, 3]), grid, values.V(1))
    print(
        json.dumps(
            {
                "cpu_model": cpu_model(),
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "criterion_07_s": timed(lambda: laws.run_law("quotient_factorization", full)),
                "clear_6x6_s": timed(lambda: auctions.clear_vickrey(inst)),
                "dominance_3x5_s": timed(
                    lambda: auctions.dominant_strategy_counterexample(m.bidder, m.alloc, m.price)
                ),
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
