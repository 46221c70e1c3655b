"""Overlap-based box regression losses, analytic gradients, experiments.

:func:`eval_batch` runs a :class:`LossSpec` on one (x, y, w, h) box pair
or on whole populations of (n, 4) arrays, and checks that every box is in
the supported domain.
:mod:`ioulab.simlab` and :mod:`ioulab.sweep` drive the
regression-convergence and gradient-sweep experiments the ``ioulab`` CLI
exposes.

The public names and the submodules load on first use (PEP 562), so a bare
``import ioulab`` loads no numpy; ``ioulab.__main__``, the CLI's entry,
relies on that to set the environment numpy reads when it loads.
"""

import importlib

__version__ = "0.1.0"

# Each public name, in ``__all__`` order, and the submodule it lives in.
_HOMES = {
    "BASE_NAMES": "losses",
    "LossSpec": "losses",
    "eval_batch": "batch",
    "SCENARIOS": "losses",
    "SimConfig": "simlab",
    "scenario_config": "simlab",
    "run_simulation": "simlab",
    "generate_case_arrays": "simlab",
}
_SUBMODULES = ("batch", "cli", "csvtext", "losses", "simlab", "sweep")

__all__ = ["__version__", *_HOMES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
