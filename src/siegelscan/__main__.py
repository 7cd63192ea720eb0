"""``python -m siegelscan``: the same front end as the ``siegelscan`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
