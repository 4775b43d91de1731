"""finrel benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) as a closed loop with
one client, in this process, against the finrel sources under ``src/``
next to this directory.  It runs whole rounds of ops, as many as took
``--seconds`` seconds at the commit that defined the benchmark, checks
every op's output
outside the timed region, and prints the metrics; the last line of
standard output is one JSON object.  With ``--trace 0`` the metrics are
the end-to-end ones, with times at reference speed (see speed.py).
With ``--trace 1`` each op is run untraced and then traced, and the
metrics are the per-layer ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"  # instance files, removed at exit
SPANS_DIR = ROOT / ".perfbench_out"  # span records of traced runs

# set-ups measured per run: this process plus fresh processes that only
# set up; setup_s is their median
SETUP_RUNS = 5


class Capture(io.TextIOBase):
    """Standard output of one op: its text and when its first line ended."""

    def __init__(self):
        self.parts: list[str] = []
        self.first_line_at: float | None = None

    def writable(self):
        return True

    def write(self, s):
        if self.first_line_at is None and "\n" in s:
            self.first_line_at = time.perf_counter()
        self.parts.append(s)
        return len(s)

    def text(self) -> str:
        return "".join(self.parts)


@dataclass
class Record:
    start: float  # perf_counter readings
    end: float
    first_line_at: float  # end of the first output line, or `end`
    lines: int
    cap: bool
    ok: bool | None  # None: not checked

    def seconds(self, sampler=None) -> float:
        if sampler is None:
            return self.end - self.start
        return sampler.scaled(self.start, self.end)

    def first_line_s(self, sampler) -> float:
        return sampler.scaled(self.start, self.first_line_at, around=(self.start, self.end))


def import_program():
    """Import finrel from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import finrel
    except ImportError as e:
        raise SystemExit(f"cannot import finrel from {SRC}: {e}") from None
    if not Path(finrel.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"finrel was imported from {finrel.__file__}, not from {SRC}")


def setup(name: str, seed: int, workdir: Path, tiny: bool = False):
    """Import the program, make the first round's inputs and run the
    warm-up op.  Returns the workload, the first round, a speed sampler
    and the set-up's seconds at reference speed."""
    sampler = SpeedSampler()
    for _ in range(5):
        sampler.sample()
    start = time.perf_counter()
    import_program()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir, tiny)
    first = workload.round(0)
    run_op(workload, workload.warmup())
    end = time.perf_counter()
    for _ in range(5):
        sampler.sample()
    return workload, first, sampler, sampler.scaled(start, end)


def run_op(workload, op, tracer=None, op_id: int = 0):
    """Run one op with its output captured.  Returns its record (not yet
    checked), output text, result and error."""
    out, err = Capture(), io.StringIO()
    gc.collect()  # every op starts from the same collector state
    if tracer is not None:
        tracer.install(op_id)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                result, error = workload.execute(op), None
            except (Exception, SystemExit) as e:  # the op failed; the run goes on
                result, error = None, e
            end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    text = out.text()
    record = Record(start, end, out.first_line_at or end, text.count("\n"), op.cap, None)
    return record, text, result, error


def checked(workload, op, text, result, error) -> bool:
    if error is not None:
        return False
    try:
        return workload.check(op, text, result) is True
    except Exception:  # a malformed output is a wrong output
        return False


def rounds_for(workload, seconds: float) -> int:
    """As many rounds as take `seconds` at the defining commit's speed."""
    return max(1, round(seconds / workload.round_s))


def measure(workload, first_round, rounds: int):
    """Run `rounds` whole rounds of ops, each checked after it ran."""
    records = []
    for r in range(rounds):
        for op in first_round if r == 0 else workload.round(r):
            record, text, result, error = run_op(workload, op)
            record.ok = checked(workload, op, text, result, error)
            records.append(record)
    return records


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples); the maximum when there are fewer
    than eleven samples."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def probe_setups(name: str, seed: int, count: int) -> list[float]:
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe"]
            + ["--workload", name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(records: list[Record], setups: list[float], sampler) -> dict:
    seconds = [r.seconds(sampler) for r in records]
    busy = sum(seconds)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_p50_ms": (statistics.median(seconds) * 1000, "ms"),
        "op_tail_ms": (tail(seconds)[0] * 1000, "ms"),
        "ops_per_s": (len(records) / busy, "1/s"),
        "cap_op_s": (statistics.median(s for s, r in zip(seconds, records) if r.cap), "s"),
        "first_line_ms": (statistics.median(r.first_line_s(sampler) for r in records) * 1000, "ms"),
        "lines_per_s": (sum(r.lines for r in records) / busy, "1/s"),
    }


def run_untraced(name, seed, seconds, workdir, tiny=False, probes=SETUP_RUNS - 1):
    workload, first, sampler, setup_s = setup(name, seed, workdir, tiny)
    rounds = rounds_for(workload, seconds)
    with sampler:
        records = measure(workload, first, rounds)
    setups = [setup_s] + probe_setups(name, seed, probes)
    metrics = end_to_end(records, setups, sampler)
    _, pct, n = tail([r.seconds(sampler) for r in records])
    notes = [
        f"{rounds} round(s), {n} ops; times at reference speed ({len(sampler.at)} speed samples)",
        f"op_tail_ms is p{pct:.1f} of {n} samples ({10 if n >= 11 else 0} beyond it)",
        f"setup_s is the median of {len(setups)} set-ups",
    ]
    return records, metrics, notes


def run_traced(name, seed, seconds, workdir, tiny=False):
    """Each op runs untraced, then traced and checked, so that the
    overhead ratio compares runs made under the same machine load."""
    from tracer import Tracer, layer_metrics

    workload, first, _, _ = setup(name, seed, workdir, tiny)
    tracer = Tracer()
    plain, records = [], []
    for r in range(rounds_for(workload, seconds)):
        for op in first if r == 0 else workload.round(r):
            plain.append(run_op(workload, op)[0])
            record, text, result, error = run_op(workload, op, tracer, len(records))
            record.ok = checked(workload, op, text, result, error)
            records.append(record)
    import workloads

    metrics = layer_metrics(tracer, workloads.LAW_IDS)
    overhead = sum(r.seconds() for r in records) / sum(r.seconds() for r in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"{name}-seed{seed}.tsv"
    tracer.write_spans(spans)
    notes = [
        f"{len(records)} ops traced; traced/untraced op time {overhead:.3f} (wall time)",
        f"{len(tracer.span_start)} spans written to {spans}"
        f" ({tracer.spans_dropped} more aggregated only)",
    ]
    return records, metrics, notes


def result_line(records: list[Record], metrics: dict) -> str:
    failed = sum(1 for r in records if not r.ok)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.setup_probe:
            print(repr(setup(args.workload, args.seed, workdir)[3]))
            return 0
        if args.trace:
            records, metrics, notes = run_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            records, metrics, notes = run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    failed = sum(1 for r in records if not r.ok)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  failed_ratio {failed / len(records):.6g} ({failed} of {len(records)} ops)")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(result_line(records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
