"""Exact finite computations around the three-element chain 0 < h < 1.

The library enumerates structure-preserving maps of powers of the chain,
extracts join-irreducible elements of the resulting lattices, builds the
cube-with-hairs posets that classify them, and checks the duality-style
facts (optimality of the relation set, classification of partial
operations, evaluation isomorphisms) by exhaustive search.
"""

from .core import (
    ELEMENTS,
    Element,
    H,
    ONE,
    TritTable,
    ZERO,
    all_tuples,
    bar,
    join,
    meet,
    nu_term,
    semiring_add,
)
from .cube import (
    JIElement,
    PartiallyStoneSpaceFinite,
    chi_lattice,
    eval_polynomial,
    extracted_hairy_cube,
    hairy_cube_recursive,
    polynomial_form,
    polynomial_label,
    pss_homeomorphism,
    verify_hairy_cube,
)
from .duality import (
    LAMBDA1,
    LAMBDA2,
    VARIANTS,
    classify_partial_homs,
    entailment_lambda1,
    evaluation_map_check,
    ftc_check,
    homs_for_variant,
    optimality_witnesses,
    persistence_check,
)
from .homsets import (
    CapExceededError,
    HomSet,
    StructuredSpace,
    clone_closure,
    enumerate_homs_bruteforce,
    lift,
)
from .posets import FinitePoset
from .relations import (
    R1,
    R2,
    R3,
    BinaryRelation,
    PartialOp,
    enumerate_congruences,
    enumerate_subalgebras,
    is_subuniverse,
)
from .verify import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "ELEMENTS",
    "Element",
    "H",
    "ONE",
    "TritTable",
    "ZERO",
    "all_tuples",
    "bar",
    "join",
    "meet",
    "nu_term",
    "semiring_add",
    "JIElement",
    "PartiallyStoneSpaceFinite",
    "chi_lattice",
    "eval_polynomial",
    "extracted_hairy_cube",
    "hairy_cube_recursive",
    "polynomial_form",
    "polynomial_label",
    "pss_homeomorphism",
    "verify_hairy_cube",
    "LAMBDA1",
    "LAMBDA2",
    "VARIANTS",
    "classify_partial_homs",
    "entailment_lambda1",
    "evaluation_map_check",
    "ftc_check",
    "homs_for_variant",
    "optimality_witnesses",
    "persistence_check",
    "CapExceededError",
    "HomSet",
    "StructuredSpace",
    "clone_closure",
    "enumerate_homs_bruteforce",
    "lift",
    "FinitePoset",
    "R1",
    "R2",
    "R3",
    "BinaryRelation",
    "PartialOp",
    "enumerate_congruences",
    "enumerate_subalgebras",
    "is_subuniverse",
    "SUITES",
    "run_suite",
    "__version__",
]
