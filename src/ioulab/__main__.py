"""The ``ioulab`` command's process entry: ``python -m ioulab`` and the installed script.

numpy's bundled OpenBLAS starts one thread per CPU when numpy loads, though
no ioulab code calls BLAS; that start is about half of ``import numpy``.
So this entry defaults ``OPENBLAS_NUM_THREADS`` to 1 before anything loads
numpy, and a value already in the environment wins. It also registers
``gc.freeze`` with ``atexit`` first, so that it runs after every other exit
handler and the interpreter's final collections skip the heap. ``ioulab``
and ``ioulab.cli`` imported as a library change neither. Each command loads
only what it runs: ``ioulab.simlab`` loads when ``sim`` runs, so ``sweep``,
``eval``, ``--version`` and ``--help`` never compile it.
"""

import atexit
import gc
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
atexit.register(gc.freeze)

# batch and losses load before cli, not through it. Where no bytecode cache is
# written (PYTHONDONTWRITEBYTECODE), each module compiles from source as it
# loads, and which compiles first moves the command's peak RSS by about
# 0.7 MiB; this order gives the lower peak. simlab loads only when ``sim``
# runs (cli.cmd_sim imports it), so no other command compiles it.
from . import batch, losses  # noqa: E402,F401
from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
