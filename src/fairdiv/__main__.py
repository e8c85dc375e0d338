"""``python -m fairdiv``: the ``fairdiv`` command line of :func:`fairdiv.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
