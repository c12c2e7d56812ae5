"""Exact arithmetic for bi-periodic Horadam sequences.

The package evaluates the two-periodic recurrence
w(n) = chi(n) w(n-1) + c w(n-2), chi alternating between a and b with index
parity, over exact rationals: a linear-time oracle, two logarithmic-time
evaluators (companion-matrix powers and pair doubling), closed forms for the
structural matrix powers, a catalog of classical named instances, and an
identity verification harness that checks every supported identity family by
exact equality.
"""

from .catalog import CatalogEntry, NamedSequence, UnknownSequenceError, entries, lookup
from .core import (
    DegenerateParametersError,
    Params,
    SequenceKind,
    chi,
    discriminant,
    table_notation,
    term_naive,
    term_range,
    zeta,
)
from .exact import (
    Mat2,
    OpCounter,
    Rational,
    SingularMatrixError,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
    parse_rational,
    rat_pow,
)
from .fastpath import Method, term_doubling, term_fast, term_matrix, uv_doubling
from .identities import (
    Family,
    IdentityId,
    IdentityReport,
    SuiteConfig,
    SuiteSummary,
    run_suite,
)
from .matforms import (
    MatrixTag,
    a_power_closed,
    build,
    k_power_closed,
    k_power_decompose,
    tu_power_closed,
    u_power_closed,
)
from .oracles import SingularSeriesError, negative_term, v_from_u, w_from_u

__version__ = "1.0.0"

__all__ = [
    "Rational",
    "Mat2",
    "OpCounter",
    "SingularMatrixError",
    "rat_pow",
    "mat_mul",
    "mat_pow",
    "mat_det",
    "mat_inv",
    "parse_rational",
    "Params",
    "SequenceKind",
    "DegenerateParametersError",
    "chi",
    "zeta",
    "discriminant",
    "term_naive",
    "term_range",
    "w_from_u",
    "v_from_u",
    "negative_term",
    "table_notation",
    "MatrixTag",
    "build",
    "u_power_closed",
    "k_power_closed",
    "k_power_decompose",
    "tu_power_closed",
    "a_power_closed",
    "Method",
    "term_fast",
    "term_matrix",
    "term_doubling",
    "uv_doubling",
    "Family",
    "IdentityId",
    "IdentityReport",
    "SingularSeriesError",
    "SuiteConfig",
    "SuiteSummary",
    "run_suite",
    "CatalogEntry",
    "NamedSequence",
    "UnknownSequenceError",
    "entries",
    "lookup",
    "__version__",
]
