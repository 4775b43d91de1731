"""`python -m finrel ARGS` runs the command line, as `finrel ARGS` does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
