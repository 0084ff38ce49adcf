"""Acceptance gate: fifteen exact-equality criteria, one printed line each.

Every criterion clears the module-level caches first so the timing budgets
measure real work, then checks frozen expected values with plain equality.
Run with ``pytest tests/test_acceptance.py -v`` or as part of the full suite.
"""

import sys
import time
from itertools import combinations, product

from hairycube import core, cube, duality, homsets, relations
from hairycube.core import (
    ELEMENTS,
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
from hairycube.cube import (
    chi_lattice,
    eval_polynomial,
    extracted_hairy_cube,
    hairy_cube_recursive,
    polynomial_form,
    verify_hairy_cube,
)
from hairycube.duality import (
    LAMBDA1,
    LAMBDA2,
    classify_partial_homs,
    compose_lambda_swap,
    entail2_witness,
    entailment_lambda1,
    evaluation_map_check,
    ftc_check,
    homs_for_variant,
    optimality_witnesses,
    persistence_check,
    total_homs,
)
from hairycube.homsets import (
    StructuredSpace,
    clone_closure,
    enumerate_homs_bruteforce,
)
from hairycube.posets import FinitePoset
from hairycube.relations import (
    canonical_name,
    enumerate_congruences,
    enumerate_subalgebras,
    irreducibility_index,
    is_subuniverse,
)

Z, O = ZERO, ONE


def _clear_caches() -> None:
    core.all_tuples.cache_clear()
    core._point_masks.cache_clear()
    homsets.clone_closure.cache_clear()
    cube.hairy_cube_recursive.cache_clear()
    cube.eta.cache_clear()
    duality._small_power_homs.cache_clear()
    duality._algebra_homs.cache_clear()
    relations.enumerate_subalgebras.cache_clear()
    relations.enumerate_congruences.cache_clear()
    relations._canonical_names.cache_clear()


CRITERION_LINES: list[str] = []


class Criterion:
    """Times a block, prints exactly one pass/fail line, enforces a budget."""

    def __init__(self, number: int, description: str, budget: float | None = None):
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        _clear_caches()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        over = self.budget is not None and elapsed > self.budget
        ok = exc_type is None and not over
        status = "pass" if ok else "FAIL"
        budget = f" (budget {self.budget:g}s)" if self.budget is not None else ""
        line = (
            f"criterion {self.number:2d}: {status}  {elapsed:7.3f}s{budget}"
            f"  {self.description}"
        )
        CRITERION_LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)
        if exc_type is None and over:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget"
                f" ({elapsed:.3f}s)"
            )
        return False


UNARY_TABLES = ["000", "0hh", "0h1", "hhh", "hh1", "11h", "111"]

UNARY_COVERS = {
    ("000", "0hh"), ("0hh", "hhh"), ("0hh", "0h1"), ("hhh", "hh1"),
    ("0h1", "hh1"), ("hhh", "11h"), ("hh1", "111"), ("11h", "111"),
}

UNARY_JI = {"0hh", "hhh", "0h1", "11h"}

UNARY_JI_COVERS = {("0hh", "0h1"), ("0hh", "hhh"), ("hhh", "11h")}

SUBALGEBRA_NAMES = {
    "Δ", "r2∩r1⁻¹∩r3", "(r2∩r1⁻¹∩r3)⁻¹", "r3", "r2∩r2⁻¹",
    "r2∩r1⁻¹", "(r2∩r1⁻¹)⁻¹", "r2", "r1∩r1⁻¹", "r2⁻¹", "r1", "r1⁻¹", "S²",
}

SUBALGEBRA_COVERS = {
    ("Δ", "r2∩r1⁻¹∩r3"), ("Δ", "(r2∩r1⁻¹∩r3)⁻¹"), ("Δ", "r2∩r2⁻¹"),
    ("r2∩r1⁻¹∩r3", "r3"), ("r2∩r1⁻¹∩r3", "r2∩r1⁻¹"),
    ("(r2∩r1⁻¹∩r3)⁻¹", "r3"), ("(r2∩r1⁻¹∩r3)⁻¹", "(r2∩r1⁻¹)⁻¹"),
    ("r2∩r2⁻¹", "r2∩r1⁻¹"), ("r2∩r2⁻¹", "(r2∩r1⁻¹)⁻¹"),
    ("r3", "r1∩r1⁻¹"),
    ("r2∩r1⁻¹", "r2"), ("r2∩r1⁻¹", "r1∩r1⁻¹"),
    ("(r2∩r1⁻¹)⁻¹", "r1∩r1⁻¹"), ("(r2∩r1⁻¹)⁻¹", "r2⁻¹"),
    ("r2", "r1"), ("r1∩r1⁻¹", "r1"), ("r1∩r1⁻¹", "r1⁻¹"), ("r2⁻¹", "r1⁻¹"),
    ("r1", "S²"), ("r1⁻¹", "S²"),
}


def _named_covers(poset: FinitePoset) -> set[tuple[str, str]]:
    return {(str(a), str(b)) for a, b in poset.cover_pairs()}


def test_c01_unary_homset_lattice():
    with Criterion(1, "unary hom-set: 7 tables with the frozen covers", 1.0):
        lat = chi_lattice(1)
        assert sorted(str(t) for t in lat.elements) == sorted(UNARY_TABLES)
        assert _named_covers(lat) == UNARY_COVERS


def test_c02_unary_join_irreducibles():
    with Criterion(2, "unary join-irreducibles: the 4 tables and 3 covers"):
        ji = extracted_hairy_cube(1)
        assert {str(t) for t in ji.elements} == UNARY_JI
        assert _named_covers(ji) == UNARY_JI_COVERS


def test_c03_subalgebras_of_the_square():
    with Criterion(3, "13 subuniverses of S² with the frozen Hasse diagram", 1.0):
        lat = enumerate_subalgebras()
        assert len(lat.elements) == 13
        assert {canonical_name(r) for r in lat.elements} == SUBALGEBRA_NAMES
        assert sorted(len(r) for r in lat.elements) == [
            3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 9,
        ]
        assert {
            (canonical_name(a), canonical_name(b)) for a, b in lat.cover_pairs()
        } == SUBALGEBRA_COVERS


def test_c04_congruence_lattice():
    with Criterion(4, "4 congruences forming 2², irreducibility index 2"):
        cons = enumerate_congruences().elements
        assert [canonical_name(c) for c in cons] == ["Δ", "r3", "r2∩r2⁻¹", "S²"]
        con_poset = FinitePoset.from_leq(list(cons), lambda a, b: a.issubset(b))
        two_square = FinitePoset.from_leq(
            list(product((0, 1), repeat=2)),
            lambda x, y: x[0] <= y[0] and x[1] <= y[1],
        )
        assert con_poset.isomorphism_to(two_square) is not None
        assert irreducibility_index() == 2


def test_c05_clone_equals_bruteforce():
    with Criterion(5, "clone closure = brute force at n=1,2; 35 = downsets", 30.0):
        counts = {}
        for n in (1, 2):
            brute = enumerate_homs_bruteforce(StructuredSpace.power(n))
            clone = clone_closure(n)
            assert set(brute.maps) == set(clone.maps)
            counts[n] = len(brute.maps)
        assert counts == {1: 7, 2: 35}
        assert len(hairy_cube_recursive(2).downset_masks()) == 35


def _figure_labels_and_covers(n: int):
    def base_label(eps):
        return "∧".join(
            f"~p{i}" if e else f"p{i}" for i, e in enumerate(eps, start=1)
        )

    labels = set()
    covers = set()
    for eps in product((0, 1), repeat=n):
        labels.add(base_label(eps) + "∧h")
        labels.add(base_label(eps))
        covers.add((base_label(eps) + "∧h", base_label(eps)))
        for i in range(n):
            if eps[i] == 0:
                raised = eps[:i] + (1,) + eps[i + 1:]
                covers.add((base_label(eps) + "∧h", base_label(raised) + "∧h"))
    return labels, covers


def test_c06_hairy_cube_shape():
    with Criterion(6, "hairy cube shape for n=1,2,3 and the 16-node figure", 60.0):
        for n in (1, 2, 3):
            ji = hairy_cube_recursive(n)
            assert ji.n == 2 ** (n + 1)
            report = verify_hairy_cube(ji, n)
            assert [name for name, _, _ in report.clauses] == [
                "base-is-cube",
                "hairs-incomparable",
                "unique-hair-cover",
                "hair-covers-own-base",
            ]
            assert report.passed, report.clauses
            extracted = extracted_hairy_cube(n)
            assert {t.entries for t in extracted.elements} == {
                e.table.entries for e in ji.elements
            }
        cube3 = hairy_cube_recursive(3)
        labels = {e.label for e in cube3.elements}
        expected_labels, expected_covers = _figure_labels_and_covers(3)
        assert len(labels) == 16
        assert labels == expected_labels
        by_covers = {
            (a.label, b.label) for a, b in cube3.cover_pairs()
        }
        assert by_covers == expected_covers
        assert len(expected_covers) == 8 + 12


def test_c07_polynomial_round_trip():
    with Criterion(7, "polynomial descriptors round-trip on all JIs, n ≤ 3"):
        for n in (1, 2, 3):
            seen = set()
            for e in hairy_cube_recursive(n).elements:
                eps, mh = polynomial_form(e.table)
                assert (eps, mh) == (e.epsilon, e.meet_h)
                assert eval_polynomial(eps, mh) == e.table
                seen.add((eps, mh))
            assert len(seen) == 2 ** (n + 1)


def test_c08_total_homs_are_projections():
    with Criterion(8, "every total operation-preserving map is a projection"):
        assert [str(t) for t in total_homs(1)] == ["0h1"]
        assert {str(t) for t in total_homs(2)} == {
            str(TritTable.projection(2, 1)),
            str(TritTable.projection(2, 2)),
        }


def test_c09_partial_hom_classification():
    with Criterion(9, "all homs from subalgebras classified; λs algebraic"):
        report = classify_partial_homs()
        assert report.unclassified == 0
        assert report.passed
        assert is_subuniverse(LAMBDA1.graph())
        assert is_subuniverse(LAMBDA2.graph())
        assert compose_lambda_swap()


def test_c10_optimality_witnesses():
    with Criterion(10, "each relation is kept by a map breaking the others"):
        witnesses = optimality_witnesses()
        assert len(witnesses) == 3
        assert all(w.ok for w in witnesses)
        assert {(w.preserved, w.violated) for w in witnesses} == {
            (("r1", "r2"), "r3"),
            (("r1", "r3"), "r2"),
            (("r2", "r3"), "r1"),
        }


def test_c11_separation_failure():
    with Criterion(11, "h is not separated over {0,1}: exactly 7 restrictions"):
        res = ftc_check((ZERO, ONE), H)
        assert not res.separated
        assert set(res.restrictions) == {
            (Z, Z), (Z, H), (Z, O), (H, H), (H, O), (O, H), (O, O),
        }
        assert len(res.restrictions) == 7


def test_c12_entailment():
    with Criterion(12, "λ1 entails r1 and r3 exhaustively; (h,0,0) vs r2", 120.0):
        report = entailment_lambda1(2)
        assert report.passed
        assert report.violations == ()
        assert report.substructures == 107
        assert report.maps_checked == 1326
        assert entail2_witness()


def test_c13_evaluation_isomorphisms():
    with Criterion(13, "evaluation maps are isomorphisms for all 15 algebras"):
        carriers = [all_tuples(1), all_tuples(2)]
        carriers += [r.pairs() for r in enumerate_subalgebras().elements]
        assert len(carriers) == 15
        for carrier in carriers:
            rep = evaluation_map_check(carrier, "relational")
            assert rep.passed, carrier
            assert rep.double_dual_size == rep.carrier_size == len(carrier)


def test_c14_persistence():
    with Criterion(14, "optimal strong structure keeps morphisms and geometry"):
        for n in (1, 2):
            assert set(homs_for_variant(n, "optimal-strong").maps) == set(
                clone_closure(n).maps
            )
            assert persistence_check(n)


def test_c15_algebra_laws():
    with Criterion(15, "bar laws, near-unanimity, distributivity, semiring", 1.0):
        for x in ELEMENTS:
            assert join(x, bar(x)) == ONE
            assert meet(x, bar(x)) == meet(x, bar(ONE))
            assert bar(x) == semiring_add(ONE, x)
        for x, y in product(ELEMENTS, repeat=2):
            assert nu_term(x, x, y) == x
            assert nu_term(x, y, x) == x
            assert nu_term(y, x, x) == x
            assert semiring_add(x, y) == semiring_add(y, x)
            assert join(x, y) == semiring_add(semiring_add(x, y), meet(x, y))
        for x, y, z in product(ELEMENTS, repeat=3):
            assert meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
            assert join(x, meet(y, z)) == meet(join(x, y), join(x, z))
            assert semiring_add(semiring_add(x, y), z) == semiring_add(
                x, semiring_add(y, z)
            )
        for u, v in combinations(all_tuples(2), 2):
            assert tuple(map(nu_term, u, u, v)) == u
