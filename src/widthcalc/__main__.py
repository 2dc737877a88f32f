"""`python -m widthcalc …` runs the command line of `widthcalc.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
