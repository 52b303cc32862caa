"""`python -m askeycg`: the same command line as the askeycg console script."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
