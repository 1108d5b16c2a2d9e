"""``python -m qtab``: the ``qtab`` command line."""

from qtab.cli import main

# guarded, so that importing every module of the package runs no command
if __name__ == "__main__":
    main()
