"""Moment-space lattice Boltzmann toolkit.

Each building block has one name, in the module that defines it: velocity
sets and moment matrices in ``lattice``, equilibria in ``equilibrium``,
initial fields in ``fields``, the collide/stream engine and checkpoints in
``scheme``, run configs in ``config``, snapshot analysis in ``analysis``,
refinement and viscometry studies in ``verify`` and the commands in ``cli``.
The package exports only ``__version__`` and imports none of them.
"""

import os

# One OpenBLAS thread unless the user set a count: OpenBLAS's helper threads
# are not pinned, and stall ``run``'s pinned worker.  On a 2-vCPU Xeon,
# ``lbmlab run`` on 256x256 D2Q9 took a median 1.18 s with default threads
# against 0.96 s with one (1.60 against 1.46 s on one process), and ``verify
# --study all`` on N x 8 grids 0.56 against 0.49 s, with the same output
# bytes.  A program that imported numpy before lbmlab keeps its threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
