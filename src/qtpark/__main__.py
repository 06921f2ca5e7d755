"""``python -m qtpark``: the same command line as ``qtpark.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
