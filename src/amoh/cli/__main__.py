"""``python -m amoh.cli``: the amoh command line tool.

The tool is a package so that ``import amoh``, which loads it, leaves
runpy nothing to warn about when it runs this module as ``__main__``."""

from amoh.cli import run

run()
