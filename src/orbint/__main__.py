"""`python -m orbint SCENE [options]`: the same as the `orbint` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
