"""``python -m foamcalc ...`` runs the ``foamcalc`` command line, for
checkouts where the console script is not installed."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
