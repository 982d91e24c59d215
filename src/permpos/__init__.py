"""Positional statistics of 1324-avoiding permutations.

Exact enumeration oracles, the splice product with unique primitive
factorization, the primitive/domino correspondence, marked-tuple codecs,
and exact truncated power series for the associated generating functions,
plus verification suites that pin every identity against brute force.
"""

from .permutations import (
    DomainError,
    InvalidWordError,
    PATTERN_1324,
    Permutation,
    avoids,
    contains_pattern,
    inverse,
    parse_permutation,
    reduce_word,
    reverse_complement,
)
from .enumeration import (
    ClassCountTable,
    PositionalClass,
    classify,
    count_tables,
    generate_avoiders,
    iter_class_members,
)
from .products import (
    MarkedTuple,
    PrimitiveDecomposition,
    contract_one,
    decode_tuple,
    encode_perm,
    expand_with_one,
    factorize,
    is_marked_component,
    is_primitive,
    odot,
    parse_marked_tuple,
)
from .dominoes import GriddedDomino, enumerate_dominoes, from_domino, parse_domino, to_domino
from .series import BivariateSeries, TruncatedSeries
from .genfun import (
    IdentityReport,
    a_nk_recurrence,
    conjecture_check,
    f_series,
    g1_series,
    g2_series,
    g_identity_check,
    primitive_count_closed_form,
    t1k_series,
    t2k_series,
    t_ak_bruteforce,
)
from .verify import SUITES, run_suites

__version__ = "0.1.0"

__all__ = [
    "BivariateSeries",
    "ClassCountTable",
    "DomainError",
    "GriddedDomino",
    "IdentityReport",
    "InvalidWordError",
    "MarkedTuple",
    "PATTERN_1324",
    "Permutation",
    "PositionalClass",
    "PrimitiveDecomposition",
    "SUITES",
    "TruncatedSeries",
    "a_nk_recurrence",
    "avoids",
    "classify",
    "conjecture_check",
    "contains_pattern",
    "contract_one",
    "count_tables",
    "decode_tuple",
    "encode_perm",
    "enumerate_dominoes",
    "expand_with_one",
    "f_series",
    "factorize",
    "from_domino",
    "g1_series",
    "g2_series",
    "g_identity_check",
    "generate_avoiders",
    "inverse",
    "is_marked_component",
    "is_primitive",
    "iter_class_members",
    "odot",
    "parse_domino",
    "parse_marked_tuple",
    "parse_permutation",
    "primitive_count_closed_form",
    "reduce_word",
    "reverse_complement",
    "run_suites",
    "t1k_series",
    "t2k_series",
    "t_ak_bruteforce",
    "to_domino",
]
