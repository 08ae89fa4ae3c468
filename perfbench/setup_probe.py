"""One set-up as a user pays it on a CLI call: a fresh interpreter imports
hermgrass, builds the towers and the generators of the cells named on the
command line, then prints `ready`.  run.py times it from the spawn to that
line, so this script imports nothing heavier than hermgrass itself.  Run
from the root of a checkout:

    python3 perfbench/setup_probe.py H2q8 H3q3
"""

import os
import sys

import cells
from spans import NullTracer


def setup(cell_names, tracer):
    """The tower for every supported q and the generator of every cell."""
    from hermgrass import codebuild, galois

    for q in sorted(galois.SUPPORTED_Q):
        with tracer.span("galois.tower_build"):
            galois.tower_for_q(q)
    for cell in cell_names:
        family, ell, q, _ = cells.parse(cell)
        with tracer.span("codebuild.build_generator"):
            codebuild.build_generator(family, ell, q)


if __name__ == "__main__":
    sys.path.insert(0, os.path.abspath("src"))
    setup(sys.argv[1:], NullTracer())
    print("ready", flush=True)
