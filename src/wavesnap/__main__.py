"""`python -m wavesnap`: the `wavesnap` command, runnable from a checkout
with `PYTHONPATH=src` and no install."""

from .cli import main

if __name__ == "__main__":
    main()
