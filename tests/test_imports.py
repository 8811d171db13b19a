"""What a fresh process imports, and the lazy package exports.

Every subpackage resolves its public names on first access (PEP 562),
so an entry point loads only the modules its run executes.  Opt-in
features (the strict-mode auditor, failure injection, the neural value
model, the ops surface, trace formats and the campaign pool) are
imported where they are built.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
import types

import pytest

PACKAGES = (
    "repro",
    "repro.baselines",
    "repro.cluster",
    "repro.core",
    "repro.energy",
    "repro.experiments",
    "repro.metrics",
    "repro.obs",
    "repro.parallel",
    "repro.rl",
    "repro.service",
    "repro.sim",
    "repro.validate",
    "repro.workload",
)

#: Modules no entry point below imports until a run asks for them.
OPT_IN = (
    "repro.validate.auditor",
    "repro.cluster.failures",
    "repro.rl.neural",
    "repro.obs.dashboard",
    "repro.obs.exposition",
    "repro.workload.swf",
    "repro.parallel.pool",
)


def _loaded_after(script: str, modules: tuple[str, ...]) -> list[str]:
    """Which of *modules* a fresh interpreter holds after *script*."""
    probe = (
        f"{script}\nimport sys\n"
        f"print(' '.join(m for m in {modules!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "entry, skipped",
    [
        ("repro.experiments.runner", OPT_IN + ("repro.experiments.figures",)),
        ("repro.service.lifecycle", OPT_IN + ("repro.experiments.figures",)),
        ("repro.experiments.cli", OPT_IN),
    ],
)
def test_entry_point_skips_opt_in_modules(entry, skipped):
    assert _loaded_after(f"import {entry}", skipped) == []


def test_run_never_imports_numpy_ma():
    """The response summary sorts once instead of calling
    ``np.percentile``, whose first call imports ``numpy.ma``."""
    script = (
        "from repro.experiments.config import ExperimentConfig\n"
        "from repro.experiments.runner import run_experiment\n"
        "run_experiment(ExperimentConfig(num_tasks=50, seed=3))"
    )
    assert _loaded_after(script, ("numpy.ma",)) == []


def _defined_in(package: str, name: str, value) -> bool:
    """Whether *value* is what the module defining it under *package*
    binds: a class or function in its own module, anything else as
    *name* in a submodule."""
    owner = getattr(value, "__module__", None)
    if isinstance(value, (type, types.FunctionType)) and str(owner).startswith(
        package
    ):
        return vars(sys.modules[owner])[value.__name__] is value
    return any(
        vars(module).get(name) is value
        for key, module in list(sys.modules.items())
        if key.startswith(package + ".")
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_defining_object(package):
    pkg = importlib.import_module(package)
    listed = dir(pkg)
    for name in pkg.__all__:
        assert name in listed, name
        if name != "__version__":
            assert _defined_in(package, name, getattr(pkg, name)), name


def test_unknown_name_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name


def test_function_exports_survive_their_submodule_import():
    """``success_rate`` and ``priority_report`` are each a submodule and
    a function of the same name; importing the submodule must not bind
    the module over the function."""
    import repro.metrics
    import repro.metrics.priority_report
    import repro.metrics.success_rate

    assert isinstance(repro.metrics.success_rate, types.FunctionType)
    assert isinstance(repro.metrics.priority_report, types.FunctionType)
