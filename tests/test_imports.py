"""The oracle modules stay apart from the fast routes.

``identities`` and ``matforms`` check and build what the fast routes compute,
so neither imports from ``biperiodic.fastpath``, nor a private (``_``-prefixed)
name of ``core``, where the fast routes' shared helpers live.  The private
``exact._coprime_fraction`` stays importable: it only builds a ``Fraction``.

``oracles`` holds the references themselves and reads every term through
``core.term_naive``, so a stricter rule holds for it: on top of the above, it
imports neither ``TermTable`` nor ``term_range``, no star, and not ``core`` as
a whole module, which would reach those names by attribute.  A runtime test
backs the guard: with core's integer-point helpers and ``TermTable`` made to
raise, every public oracle still returns what it returned before.

``fastpath`` builds its results through core's private helpers, but the scale
a term carries is core's alone: ``fastpath`` imports neither ``_scale`` nor
``core`` as a whole module, and hands ``core._term`` the index instead.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

from biperiodic import core, fastpath, identities, matforms, oracles
from biperiodic.core import Params, SequenceKind
from biperiodic.oracles import delta_weight, negative_term, sum_oracle, v_from_u, w_from_u
from conftest import P_STAR

# imported names that reach a term table, which the oracle side may not import
_TABLE_NAMES = ("TermTable", "term_range", "*")


def breaches(source: str, side: str = "check") -> list[tuple[str, str]]:
    """(module, name) of each forbidden import in a module of the package.

    Relative imports are resolved against ``biperiodic``; ``import x`` gives
    (x, "").  Imports inside functions count too.  ``side`` names the rule:
    "check" for ``identities`` and ``matforms``, "oracle" for the stricter
    rule of ``oracles``, and "fast" for ``fastpath``, which may import core's
    private names except ``_scale``.
    """
    bad = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"biperiodic.{module}" if module else "biperiodic"
            found = [(module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in found:
            full = f"{module}.{name}" if name else module
            if full == "biperiodic.fastpath" or full.startswith("biperiodic.fastpath."):
                bad.append((module, name))
            elif module == "biperiodic.core" and name.startswith("_"):
                if side != "fast" or name == "_scale":
                    bad.append((module, name))
            elif side != "check" and full == "biperiodic.core":
                bad.append((module, name))
            elif side == "oracle" and name in _TABLE_NAMES:
                bad.append((module, name))
    return bad


def _source(module: ModuleType) -> str:
    return Path(module.__file__).read_text(encoding="utf-8")


@pytest.mark.parametrize("module", [identities, matforms], ids=lambda m: m.__name__)
def test_no_fast_route_or_private_core_import(module: ModuleType) -> None:
    assert breaches(_source(module)) == []


def test_the_oracle_side_reads_terms_through_term_naive_only() -> None:
    assert breaches(_source(oracles), side="oracle") == []


def test_the_scale_stays_in_core() -> None:
    assert breaches(_source(fastpath), side="fast") == []


def test_the_guard_sees_each_kind_of_breach() -> None:
    source = (
        "from .fastpath import term_fast\n"
        "from . import fastpath\n"
        "import biperiodic.fastpath\n"
        "from .core import _scale, Params\n"
        "from .exact import _coprime_fraction\n"
        "from .core import TermTable, term_range, term_naive\n"
        "from . import core\n"
        "import biperiodic.core as c\n"
        "from biperiodic.core import *\n"
        "def f():\n"
        "    from biperiodic.core import _term\n"
    )
    either_side = [
        ("biperiodic.fastpath", "term_fast"),
        ("biperiodic", "fastpath"),
        ("biperiodic.fastpath", ""),
        ("biperiodic.core", "_scale"),
    ]
    assert breaches(source) == either_side + [("biperiodic.core", "_term")]
    assert breaches(source, side="fast") == either_side + [
        ("biperiodic", "core"),
        ("biperiodic.core", ""),
    ]
    assert breaches(source, side="oracle") == either_side + [
        ("biperiodic.core", "TermTable"),
        ("biperiodic.core", "term_range"),
        ("biperiodic", "core"),
        ("biperiodic.core", ""),
        ("biperiodic.core", "*"),
        ("biperiodic.core", "_term"),
    ]


RATIONAL = Params(Fraction(1, 2), 3, Fraction(-2, 5), Fraction(1, 3), 2)


def _oracle_values(p: Params) -> list:
    """Every public oracle at p for 1 <= n <= 40, in one fixed order."""
    values = []
    for n in range(1, 41):
        values += [negative_term(p, kind, n) for kind in SequenceKind]
        values += [w_from_u(p, n), v_from_u(p, n), sum_oracle(p, 3, n, 2)]
        values.append(delta_weight(p, 3, n, 1, n // 2))
    return values


@pytest.mark.parametrize("p", [P_STAR, RATIONAL], ids=["P*", "rational"])
def test_the_oracles_run_without_the_integer_point(
    monkeypatch: pytest.MonkeyPatch, p: Params
) -> None:
    expected = _oracle_values(p)

    def reached(name: str):
        def refuse(*args, **kwargs):
            raise AssertionError(f"an oracle reached core.{name}")
        return refuse

    for name in ("_point", "_scale", "_term", "_reflected_point", "TermTable"):
        monkeypatch.setattr(core, name, reached(name))
    assert _oracle_values(p) == expected
