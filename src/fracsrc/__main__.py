"""``python -m fracsrc``: the same command line as the ``fracsrc`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
