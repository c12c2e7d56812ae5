"""``python -m biperiodic``: the command-line interface of :mod:`biperiodic.cli`."""

from .cli import run

if __name__ == "__main__":
    run()
