"""``python -m morseshell``: the command line, runnable from a source tree."""
from .cli import main

if __name__ == "__main__":
    main()
