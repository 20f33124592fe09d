"""python -m angiosim <subcommand> ...: the angiosim command, also from
a checkout that is not installed (PYTHONPATH=src)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
