"""``python -m sparsescene``: the same as the ``sparsescene`` console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
