"""Float sums in the simulation are left folds, never builtin ``sum()``.

From Python 3.12 on, ``sum()`` over exact Python floats is compensated
and can round differently from 3.10 and 3.11, which would move the
pinned digests by Python version.  The simulation therefore sums floats
with :func:`repro.sim.fold.fold_sum`; ``sum()`` is left only for integer
counts, listed below.  This parses the packages the pins run through
and fails on any other ``sum()`` call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.sim.fold import fold_sum

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("cluster", "core", "energy", "metrics", "baselines", "obs")

#: ``(module, summed expression)`` pairs whose terms are integers, so
#: ``sum()`` is exact on every version.  ``sum(1 for …)`` counts are
#: always allowed.
INTEGER_SUMS = {
    ("cluster/site.py", "n.num_processors"),
    ("cluster/system.py", "counts"),
    ("cluster/system.py", "n.num_processors"),
    ("cluster/system.py", "sum(counts)"),
    ("core/adaptive_rl.py", "a.groups_dispatched"),
    ("core/adaptive_rl.py", "len(a.backlog)"),
    ("core/agent.py", "n.queue_slots"),
    ("energy/accounting.py", "n.num_processors"),
}


def builtin_sums(source: str) -> list[tuple[int, str]]:
    """``(line, summed expression)`` for every builtin ``sum()`` call
    in *source* that is not a ``sum(1 for …)`` count.  A call with a
    start value or anything but one argument reports its full text."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
        ):
            continue
        if len(node.args) != 1 or node.keywords:
            found.append((node.lineno, ast.unparse(node)))
            continue
        arg = node.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            arg = arg.elt
        if isinstance(arg, ast.Constant) and arg.value == 1:
            continue
        found.append((node.lineno, ast.unparse(arg)))
    return found


def _modules():
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), path


def test_no_builtin_float_sums():
    offenders = [
        f"{module}:{line}: sum({expr})"
        for module, path in _modules()
        for line, expr in builtin_sums(path.read_text())
        if (module, expr) not in INTEGER_SUMS
    ]
    assert not offenders, (
        "builtin sum() over floats rounds by Python version; use "
        "repro.sim.fold.fold_sum (or list an integer sum in "
        "INTEGER_SUMS):\n" + "\n".join(offenders)
    )


def test_allow_list_has_no_stale_entries():
    present = {
        (module, expr)
        for module, path in _modules()
        for _, expr in builtin_sums(path.read_text())
    }
    assert INTEGER_SUMS <= present, INTEGER_SUMS - present


@pytest.mark.parametrize(
    "source,expected",
    [
        ("x = sum(t.size_mi for t in tasks)", [(1, "t.size_mi")]),
        ("x = sum(self._power_cache)", [(1, "self._power_cache")]),
        ("x = sum([a, b], 0.0)", [(1, "sum([a, b], 0.0)")]),
        ("x = sum(1 for t in tasks if t.done)", []),
        ("x = np.sum(a) + a.sum() + fold_sum(a)", []),
    ],
)
def test_scanner_flags_float_sums(source, expected):
    assert builtin_sums(source) == expected


def test_fold_sum_is_the_uncompensated_left_fold():
    # 3.12's compensated sum() gives 2.0 here; a left fold gives 1.0.
    assert fold_sum([1e16, 1.0, -1e16, 1.0]) == 1.0
    assert fold_sum([]) == 0 and type(fold_sum([])) is int
    assert type(fold_sum([1.5, 2])) is float
