"""Starts the amoh command line tool the way its installed `amoh` script
does; run.py puts the checkout's src/ on PYTHONPATH."""

import sys

from amoh.cli import run

if __name__ == "__main__":
    sys.exit(run())
