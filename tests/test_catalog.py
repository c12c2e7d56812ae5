from __future__ import annotations

from fractions import Fraction

import pytest

from biperiodic.catalog import (
    CatalogEntry,
    NamedSequence,
    UnknownSequenceError,
    entries,
    extra_entries,
    lookup,
)
from biperiodic.core import Params, SequenceKind, term_range
from biperiodic.exact import parse_rational


def classical(p: int, q: int, x0: int, x1: int, count: int) -> list[Fraction]:
    """Constant-coefficient oracle x(n) = p*x(n-1) + q*x(n-2), independent of the library."""
    out = [Fraction(x0), Fraction(x1)]
    while len(out) < count:
        out.append(p * out[-1] + q * out[-2])
    return out[:count]


FIXTURES = {
    "fibonacci": classical(1, 1, 0, 1, 15),
    "lucas": classical(1, 1, 2, 1, 15),
    "pell": classical(2, 1, 0, 1, 15),
    "pell-lucas": classical(2, 1, 2, 2, 15),
    "jacobsthal": classical(1, 2, 0, 1, 15),
    "jacobsthal-lucas": classical(1, 2, 2, 1, 15),
}


class TestLookup:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_classical_fixtures(self, name: str) -> None:
        seq = lookup(name)
        got = term_range(seq.params, seq.kind, 0, 14)
        assert got == FIXTURES[name]

    def test_fibonacci_spot(self) -> None:
        assert FIXTURES["fibonacci"][-1] == 377  # guards the oracle itself

    def test_parameterized_biperiodic(self) -> None:
        seq = lookup("biperiodic-fibonacci(2,3)")
        assert (seq.params.a, seq.params.b, seq.params.c) == (2, 3, 1)
        assert (seq.params.w0, seq.params.w1) == (0, 1)

    def test_biperiodic_lucas_slot_swap(self) -> None:
        # the table's row stores initials (2, a) with linear coefficients (b, a)
        seq = lookup("biperiodic-lucas(2,3)")
        assert (seq.params.w0, seq.params.w1) == (2, 2)
        assert (seq.params.a, seq.params.b) == (3, 2)

    def test_generalized_rows(self) -> None:
        seq = lookup("generalized-biperiodic-fibonacci(2,3,1)")
        assert term_range(seq.params, seq.kind, 0, 5) == [0, 1, 2, 7, 16, 55]
        seq = lookup("generalized-biperiodic-lucas(2,3,1)")
        assert term_range(seq.params, seq.kind, 0, 4) == [2, 3, 8, 27, 62]

    def test_horadam_template(self) -> None:
        seq = lookup("horadam(1,1,2,3)")
        assert (seq.params.a, seq.params.b, seq.params.c) == (2, 2, 3)
        assert (seq.params.w0, seq.params.w1) == (1, 1)

    def test_k_fibonacci(self) -> None:
        seq = lookup("k-fibonacci(2)")
        assert term_range(seq.params, seq.kind, 0, 6) == FIXTURES["pell"][:7]

    def test_k_lucas_as_printed_is_k_times_k_fibonacci(self) -> None:
        printed = lookup("k-lucas(3)")
        fib_k = lookup("k-fibonacci(3)")
        lhs = term_range(printed.params, printed.kind, 0, 9)
        rhs = [3 * t for t in term_range(fib_k.params, fib_k.kind, 0, 9)]
        assert lhs == rhs

    def test_k_lucas_classical_extra(self) -> None:
        seq = lookup("k-lucas-classical(1)")
        assert term_range(seq.params, seq.kind, 0, 14) == FIXTURES["lucas"]

    def test_rational_argument(self) -> None:
        seq = lookup("biperiodic-fibonacci(1/2,3)")
        assert seq.params.a == Fraction(1, 2)

    def test_unknown_name(self) -> None:
        with pytest.raises(UnknownSequenceError) as exc:
            lookup("tribonacci")
        assert "fibonacci" in str(exc.value)  # error lists valid keys

    def test_wrong_arity(self) -> None:
        with pytest.raises(UnknownSequenceError):
            lookup("k-fibonacci(1,2)")

    def test_missing_args(self) -> None:
        with pytest.raises(UnknownSequenceError):
            lookup("biperiodic-fibonacci")

    def test_args_on_plain_name(self) -> None:
        with pytest.raises(UnknownSequenceError):
            lookup("fibonacci(3)")

    def test_zero_argument_rejected(self) -> None:
        with pytest.raises(UnknownSequenceError):
            lookup("k-fibonacci(0)")

    def test_name_round_trip(self) -> None:
        for name in ("fibonacci", "pell-lucas", "k-fibonacci(4)", "horadam(1,-1,3,2)", "biperiodic-fibonacci(1/2,3)"):
            assert lookup(name).name == name

    def test_horadam_negated_q_is_subtractive_recurrence(self) -> None:
        # x(n) = p x(n-1) - q x(n-2) is the q -> -q instantiation
        seq = lookup("horadam(1,2,3,-2)")
        got = term_range(seq.params, seq.kind, 0, 8)
        expected = [Fraction(1), Fraction(2)]
        while len(expected) < 9:
            expected.append(3 * expected[-1] - 2 * expected[-2])
        assert got == expected


class TestEntries:
    def test_fourteen_rows_in_table_order(self) -> None:
        keys = [e.key for e in entries()]
        assert len(keys) == 14
        assert keys[0] == "generalized-biperiodic-fibonacci"
        assert keys[-1] == "jacobsthal-lucas"

    def test_extra_is_lookup_only(self) -> None:
        extra_keys = {e.key for e in extra_entries()}
        assert extra_keys == {"k-lucas-classical"}
        assert extra_keys.isdisjoint({e.key for e in entries()})

    def test_notation_round_trip(self) -> None:
        by_key = {e.key: e for e in entries()}
        assert by_key["jacobsthal-lucas"].notation == "w(2,1;1,1,2)"
        assert by_key["pell"].notation == "w(0,1;2,2,1)"

    def test_all_plain_rows_instantiate(self) -> None:
        for entry in entries():
            if entry.arg_names:
                continue
            seq = lookup(entry.key)
            assert isinstance(seq, NamedSequence)
            assert seq.kind is SequenceKind.W

    @pytest.mark.parametrize("entry", entries() + extra_entries(), ids=lambda e: e.key)
    def test_lookup_matches_parsed_slots(self, entry: CatalogEntry) -> None:
        # every slot parsed afresh, literal or argument, is the point lookup builds
        samples = ("3", "-2/5", "1/3", "7")
        for args in (samples, samples[::-1]):
            values = dict(zip(entry.arg_names, args))
            name = entry.key if not entry.arg_names else f"{entry.key}({','.join(values.values())})"
            w0, w1, a, b, c = (parse_rational(values.get(slot, slot)) for slot in entry.slots)
            for _ in range(2):  # a first and a repeated lookup
                seq = lookup(name)
                assert seq.params == Params(a, b, c, w0, w1)
                assert (seq.name, seq.display_name, seq.kind) == (name, entry.display_name, entry.kind)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("k-fibonacci(1,2)", "'k-fibonacci' takes 1 argument(s) (k), got 2"),
            ("fibonacci(3)", "'fibonacci' takes 0 argument(s) (none), got 1"),
            ("biperiodic-fibonacci", "'biperiodic-fibonacci' takes 2 argument(s) (a, b), got 0"),
            (
                "k-fibonacci(0.5)",
                "bad argument in 'k-fibonacci(0.5)': not an exact rational literal: '0.5'"
                " (write 'p' or 'p/q', no decimals)",
            ),
            (
                "k-fibonacci(1/0)",
                "bad argument in 'k-fibonacci(1/0)': zero denominator in rational literal '1/0'",
            ),
            (
                "horadam(1,2,3,0)",
                "cannot instantiate 'horadam(1,2,3,0)': parameters a, b, c must all be nonzero",
            ),
        ],
    )
    def test_error_messages(self, name: str, message: str) -> None:
        for _ in range(2):  # before and after the entry's literals are parsed
            with pytest.raises(UnknownSequenceError) as exc:
                lookup(name)
            assert str(exc.value) == message
