"""``python -m jameslab``: the command-line interface of :mod:`jameslab.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
