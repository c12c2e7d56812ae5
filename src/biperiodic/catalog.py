"""Named parameter points: the classical sequences as catalog entries.

Each entry records a defining tuple in the compact notation w(w0,w1;a,b,c).
Entries without arguments are single sequences (``fibonacci``, ``pell``);
entries with arguments are templates instantiated at lookup time with exact
rational literals: ``k-fibonacci(2)``, ``horadam(0,1,2,-1)``.

Two conventions worth knowing:

* ``horadam(w0,w1,p,q)`` maps to w(w0,w1;p,p,q), i.e. the recurrence
  w(n) = p w(n-1) + q w(n-2).  For the subtract-q convention
  w(n) = p w(n-1) - q w(n-2), pass ``-q``.
* ``k-lucas(k)`` is transcribed with initials (0, k), which makes it k times
  the k-Fibonacci sequence.  The conventional initials (2, k) live under the
  extra key ``k-lucas-classical(k)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .core import Params, SequenceKind
from .exact import Rational, parse_rational

__all__ = [
    "CatalogEntry",
    "NamedSequence",
    "UnknownSequenceError",
    "entries",
    "extra_entries",
    "lookup",
]


class UnknownSequenceError(LookupError):
    """Lookup of a name outside the catalog's fixed key set."""


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog row: a key, its argument names, and the slot pattern.

    ``slots`` is the (w0, w1, a, b, c) pattern; each slot is either a
    rational literal or the name of one of ``arg_names``.
    """

    key: str
    display_name: str
    arg_names: tuple[str, ...]
    slots: tuple[str, str, str, str, str]
    kind: SequenceKind = SequenceKind.W

    @property
    def name_pattern(self) -> str:
        """The key with its argument names, as in ``k-fibonacci(k)``."""
        if not self.arg_names:
            return self.key
        return f"{self.key}({','.join(self.arg_names)})"

    @property
    def notation(self) -> str:
        w0, w1, a, b, c = self.slots
        return f"w({w0},{w1};{a},{b},{c})"

    def instantiate(self, args: tuple[Rational, ...]) -> Params:
        if len(args) != len(self.arg_names):
            raise UnknownSequenceError(
                f"'{self.key}' takes {len(self.arg_names)} argument(s) "
                f"({', '.join(self.arg_names) or 'none'}), got {len(args)}"
            )
        values = dict(zip(self.arg_names, args))
        w0, w1, a, b, c = (
            values[slot] if literal is None else literal
            for slot, literal in zip(self.slots, self._literals)
        )
        return Params(a, b, c, w0, w1)

    @cached_property
    def _literals(self) -> tuple[Rational | None, ...]:
        """Each slot's value if it is a literal, else None, parsed on first use."""
        return tuple(
            None if slot in self.arg_names else parse_rational(slot) for slot in self.slots
        )


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "generalized-biperiodic-fibonacci",
        "generalized bi-periodic Fibonacci sequence",
        ("a", "b", "c"),
        ("0", "1", "a", "b", "c"),
    ),
    CatalogEntry(
        "generalized-biperiodic-lucas",
        "generalized bi-periodic Lucas sequence",
        ("a", "b", "c"),
        ("2", "b", "a", "b", "c"),
    ),
    CatalogEntry(
        "biperiodic-fibonacci",
        "bi-periodic Fibonacci sequence",
        ("a", "b"),
        ("0", "1", "a", "b", "1"),
    ),
    CatalogEntry(
        "biperiodic-lucas",
        "bi-periodic Lucas sequence",
        ("a", "b"),
        ("2", "a", "b", "a", "1"),
    ),
    CatalogEntry(
        "biperiodic-horadam",
        "bi-periodic Horadam sequence",
        ("w0", "w1", "a", "b"),
        ("w0", "w1", "a", "b", "1"),
    ),
    CatalogEntry(
        "horadam",
        "Horadam sequence",
        ("w0", "w1", "p", "q"),
        ("w0", "w1", "p", "p", "q"),
    ),
    CatalogEntry("fibonacci", "Fibonacci sequence", (), ("0", "1", "1", "1", "1")),
    CatalogEntry("lucas", "Lucas sequence", (), ("2", "1", "1", "1", "1")),
    CatalogEntry(
        "k-fibonacci", "k-Fibonacci sequence", ("k",), ("0", "1", "k", "k", "1")
    ),
    CatalogEntry("k-lucas", "k-Lucas sequence", ("k",), ("0", "k", "k", "k", "1")),
    CatalogEntry("pell", "Pell sequence", (), ("0", "1", "2", "2", "1")),
    CatalogEntry("pell-lucas", "Pell-Lucas sequence", (), ("2", "2", "2", "2", "1")),
    CatalogEntry("jacobsthal", "Jacobsthal sequence", (), ("0", "1", "1", "1", "2")),
    CatalogEntry(
        "jacobsthal-lucas", "Jacobsthal-Lucas sequence", (), ("2", "1", "1", "1", "2")
    ),
)

_EXTRA_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "k-lucas-classical",
        "k-Lucas sequence (conventional initials)",
        ("k",),
        ("2", "k", "k", "k", "1"),
    ),
)

_INDEX = {entry.key: entry for entry in _ENTRIES + _EXTRA_ENTRIES}

_NAME_SYNTAX = re.compile(r"([a-z0-9-]+)(?:\((.*)\))?\Z")


@dataclass(frozen=True)
class NamedSequence:
    """A catalog entry resolved to a concrete parameter point."""

    name: str
    display_name: str
    params: Params
    kind: SequenceKind


def entries() -> tuple[CatalogEntry, ...]:
    """The catalog rows in their canonical, stable order."""
    return _ENTRIES


def extra_entries() -> tuple[CatalogEntry, ...]:
    """Lookup-only keys that are not canonical rows."""
    return _EXTRA_ENTRIES


def lookup(name: str) -> NamedSequence:
    """Resolve a catalog name, instantiating template arguments exactly.

    The returned name is canonical, so ``lookup(ns.name).name == ns.name``.
    Unknown keys, wrong arities, bad literals, and zero a/b/c all raise
    :class:`UnknownSequenceError` with the valid keys listed.
    """
    match = _NAME_SYNTAX.fullmatch(name.strip())
    if not match:
        raise UnknownSequenceError(
            f"cannot parse sequence name {name!r}; valid keys: {_key_list()}"
        )
    base, arg_text = match.group(1), match.group(2)
    entry = _INDEX.get(base)
    if entry is None:
        raise UnknownSequenceError(f"unknown sequence {base!r}; valid keys: {_key_list()}")
    try:
        args = (
            tuple(parse_rational(piece) for piece in arg_text.split(","))
            if arg_text
            else ()
        )
    except ValueError as exc:
        raise UnknownSequenceError(f"bad argument in {name!r}: {exc}") from None
    try:
        params = entry.instantiate(args)
    except ValueError as exc:
        raise UnknownSequenceError(f"cannot instantiate {name!r}: {exc}") from None
    canonical = base if not args else f"{base}({','.join(str(a) for a in args)})"
    return NamedSequence(canonical, entry.display_name, params, entry.kind)


def _key_list() -> str:
    return ", ".join(e.name_pattern for e in _ENTRIES + _EXTRA_ENTRIES)
