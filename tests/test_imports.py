"""The oracle modules stay apart from the fast routes.

``identities`` and ``matforms`` check and build what the fast routes compute,
so neither imports from ``biperiodic.fastpath``, nor a private (``_``-prefixed)
name of ``core``, where the fast routes' shared helpers live.  The private
``exact._coprime_fraction`` stays importable: it only builds a ``Fraction``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import pytest

from biperiodic import identities, matforms


def breaches(source: str) -> list[tuple[str, str]]:
    """(module, name) of each forbidden import in a module of the package.

    Relative imports are resolved against ``biperiodic``; ``import x`` gives
    (x, "").  Imports inside functions count too.
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
                bad.append((module, name))
    return bad


@pytest.mark.parametrize("module", [identities, matforms], ids=lambda m: m.__name__)
def test_no_fast_route_or_private_core_import(module: ModuleType) -> None:
    assert breaches(Path(module.__file__).read_text(encoding="utf-8")) == []


def test_the_guard_sees_each_kind_of_breach() -> None:
    source = (
        "from .fastpath import term_fast\n"
        "from . import fastpath\n"
        "import biperiodic.fastpath\n"
        "from .core import _scale, Params\n"
        "from .exact import _coprime_fraction\n"
        "def f():\n"
        "    from biperiodic.core import _term\n"
    )
    assert breaches(source) == [
        ("biperiodic.fastpath", "term_fast"),
        ("biperiodic", "fastpath"),
        ("biperiodic.fastpath", ""),
        ("biperiodic.core", "_scale"),
        ("biperiodic.core", "_term"),
    ]
