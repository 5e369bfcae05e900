"""`python -m pplattice`: the command-line interface of `pplattice.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
