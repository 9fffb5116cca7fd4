"""``python -m pushkit``: the ``pushkit`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
