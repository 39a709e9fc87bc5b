"""`python -m ials`: the ials command line, also from a checkout that is not installed."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
