"""Relations, the subalgebra lattice of S^2 and the congruences of S."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hairycube.core import ELEMENTS, H, ONE, ZERO, all_tuples, tuple_bar, tuple_join, tuple_meet
from hairycube.posets import FinitePoset
from hairycube.relations import (
    DIAGONAL,
    FULL,
    PAIRS,
    R1,
    R2,
    R3,
    BinaryRelation,
    PartialOp,
    canonical_name,
    enumerate_congruences,
    enumerate_subalgebras,
    intersect,
    inverse,
    irreducibility_index,
    is_subuniverse,
    meet_irreducible_congruences,
    relation,
    subuniverses_of_carrier,
)

from test_posets import greatest_lower_bound, least_upper_bound


def test_generating_relations_pair_sets():
    assert set(R1.pairs()) == set(PAIRS) - {(ONE, ZERO)}
    assert set(R2.pairs()) == set(PAIRS) - {(ONE, ZERO), (H, ZERO)}
    assert set(R3.pairs()) == {
        (ZERO, ZERO), (ZERO, H), (H, ZERO), (H, H), (ONE, ONE)
    }
    assert relation(1) == R1 and relation(2) == R2 and relation(3) == R3
    with pytest.raises(ValueError):
        relation(4)


def test_relation_basics():
    assert len(FULL) == 9 and len(DIAGONAL) == 3
    assert DIAGONAL.issubset(R3) and R3.issubset(R1.inverse().union(R1))
    assert inverse(inverse(R2)) == R2
    assert intersect(R1, R1.inverse()) == R1 & R1.inverse()
    assert (ONE, ZERO) not in set(R1)
    assert str(DIAGONAL) == "{(0,0),(h,h),(1,1)}"
    with pytest.raises(ValueError):
        BinaryRelation(1 << 9)


def test_equivalence_predicate():
    assert DIAGONAL.is_equivalence()
    assert FULL.is_equivalence()
    assert R3.is_equivalence()  # the partition {{0,h},{1}}
    assert not R1.is_equivalence()  # not symmetric
    linked = BinaryRelation.from_pairs(
        [(ZERO, ZERO), (H, H), (ONE, ONE), (ZERO, H), (H, ZERO), (H, ONE), (ONE, H)]
    )
    assert not linked.is_equivalence()  # 0~h~1 without 0~1


def test_subuniverse_requires_bar_closure():
    # meet/join closure alone would also accept r3 u {(h,1)}: the bar of
    # (h,1) is (1,h), which escapes the set.
    fattened = R3.union(BinaryRelation.from_pairs([(H, ONE)]))
    assert is_subuniverse(R3)
    assert not is_subuniverse(fattened)


def test_subuniverse_input_validation():
    # k is the tuples' width: a BinaryRelation is a subset of S^2
    assert is_subuniverse(R1) and is_subuniverse(R1.pairs())
    with pytest.raises(ValueError, match="k must be 1, 2 or 3"):
        is_subuniverse([(ZERO,) * 4])
    with pytest.raises(ValueError, match="k must be 1, 2 or 3"):
        is_subuniverse([(c,) * 4 for c in ELEMENTS])
    with pytest.raises(ValueError, match="shared"):
        is_subuniverse([(ZERO,), (ZERO, ONE)])
    assert is_subuniverse([(e,) for e in ELEMENTS])
    assert not is_subuniverse([(ZERO,), (ONE,)])  # h missing
    assert not is_subuniverse([])  # no constants


def test_thirteen_subalgebras():
    lat = enumerate_subalgebras()
    assert len(lat.elements) == 13
    assert lat.elements[lat.bottom_index()] == DIAGONAL
    assert lat.elements[lat.top_index()] == FULL
    assert {canonical_name(r) for r in lat.elements} == {
        "Δ", "r1", "r1⁻¹", "r2", "r2⁻¹", "r3", "r1∩r1⁻¹", "r2∩r1⁻¹",
        "(r2∩r1⁻¹)⁻¹", "r2∩r2⁻¹", "r2∩r1⁻¹∩r3", "(r2∩r1⁻¹∩r3)⁻¹", "S²",
    }
    # sizes grow along the canonical order
    sizes = [len(r) for r in lat.elements]
    assert sizes == sorted(sizes)
    assert sizes == [3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 8, 8, 9]


EXPECTED_COVERS = {
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


def test_subalgebra_hasse_diagram():
    lat = enumerate_subalgebras()
    names = {(canonical_name(a), canonical_name(b)) for a, b in lat.cover_pairs()}
    assert names == EXPECTED_COVERS
    assert len(lat.cover_index_pairs()) == 20


def test_subalgebra_lattice_operations():
    lat = enumerate_subalgebras()
    n = len(lat.elements)
    for i in range(n):
        for j in range(n):
            met = lat.elements[greatest_lower_bound(lat, i, j)]
            assert met == lat.elements[i] & lat.elements[j]
            joined = lat.elements[least_upper_bound(lat, i, j)]
            assert lat.elements[i].issubset(joined)
            assert lat.elements[j].issubset(joined)

    def join(a, b):
        return lat.elements[least_upper_bound(lat, lat.index(a), lat.index(b))]

    # r2 u r2⁻¹ already exhausts S^2, while the two four-element
    # subalgebras join to r3
    assert canonical_name(join(R2, R2.inverse())) == "S²"
    small = R2 & R1.inverse() & R3
    assert canonical_name(join(small, small.inverse())) == "r3"


def test_family_closed_under_inverse_and_intersection():
    lat = enumerate_subalgebras()
    family = set(lat.elements)
    for r in family:
        assert r.inverse() in family
    for a, b in combinations(family, 2):
        assert (a & b) in family


@given(st.integers(min_value=0, max_value=(1 << 9) - 1))
def test_membership_matches_direct_check(mask):
    rel = BinaryRelation(mask)
    in_lattice = rel in set(enumerate_subalgebras().elements)
    assert in_lattice == (DIAGONAL.issubset(rel) and is_subuniverse(rel))


def _tuple_is_subuniverse(subset) -> bool:
    """The tuple-level closure test: constants, then bar of each tuple and
    the meet and join of each pair, pointwise on entry tuples."""
    tuples = frozenset(map(tuple, subset))
    k = max(map(len, tuples), default=0)
    if any((c,) * k not in tuples for c in ELEMENTS):
        return False
    if any(tuple_bar(x) not in tuples for x in tuples):
        return False
    return all(tuple_meet(x, y) in tuples and tuple_join(x, y) in tuples
               for x, y in combinations(tuples, 2))


def _subset(points, mask):
    return [p for i, p in enumerate(points) if mask >> i & 1]


def test_plane_closure_matches_the_tuple_closure_on_every_subset_of_s1_and_s2():
    for k in (1, 2):
        points = all_tuples(k)
        for mask in range(1 << len(points)):
            subset = _subset(points, mask)
            assert is_subuniverse(subset) == _tuple_is_subuniverse(subset), (k, mask)
    assert all(is_subuniverse(BinaryRelation(m)) == _tuple_is_subuniverse(BinaryRelation(m))
               for m in range(1 << 9))


@given(st.integers(min_value=0, max_value=(1 << 27) - 1))
def test_plane_closure_matches_the_tuple_closure_on_drawn_subsets_of_s3(mask):
    # a drawn subset almost never holds the constants; add them to half the draws
    constants = sum(1 << 13 * c for c in range(3))
    for m in (mask, mask | constants):
        subset = _subset(all_tuples(3), m)
        assert is_subuniverse(subset) == _tuple_is_subuniverse(subset)


def test_plane_closure_matches_the_tuple_closure_on_closed_subsets_of_s3():
    # drawn subsets of S^3 are seldom closed: close two generators with the
    # constants under the tuple operations, then drop one point of each
    generated = []
    for gens in combinations(all_tuples(3)[1:12], 2):
        closed = set(gens) | {(c,) * 3 for c in ELEMENTS}
        while True:
            more = {tuple_bar(x) for x in closed} | {
                f(x, y) for x in closed for y in closed for f in (tuple_meet, tuple_join)}
            if more <= closed:
                break
            closed |= more
        generated.append(closed)
    assert all(is_subuniverse(s) and _tuple_is_subuniverse(s) for s in generated)
    for s in generated[:20]:
        for x in s - {(c,) * 3 for c in ELEMENTS}:
            assert is_subuniverse(s - {x}) == _tuple_is_subuniverse(s - {x})


def test_congruences_equal_the_brute_force_over_all_masks():
    brute = [BinaryRelation(m) for m in range(1 << 9)
             if BinaryRelation(m).is_equivalence() and _tuple_is_subuniverse(BinaryRelation(m))]
    brute.sort(key=lambda r: (len(r), r.mask))
    assert enumerate_congruences().elements == tuple(brute)


def test_congruence_check_compares_two_routes(monkeypatch):
    """`matches-subalgebra-filter` holds, and fails once the enumerated
    congruences lose one: its other side does not read them."""
    from hairycube import verify

    def checks():
        return {c.name: c.passed for c in verify.suite_congruences().checks}

    assert checks()["matches-subalgebra-filter"]
    cons = enumerate_congruences()
    fewer = FinitePoset.from_masks(cons.elements[1:], [r.mask for r in cons.elements[1:]])
    monkeypatch.setattr(verify, "enumerate_congruences", lambda: fewer)
    assert not checks()["matches-subalgebra-filter"]


def test_congruence_lattice():
    cons = enumerate_congruences().elements
    assert [canonical_name(c) for c in cons] == ["Δ", "r3", "r2∩r2⁻¹", "S²"]
    assert R3 & (R2 & R2.inverse()) == DIAGONAL
    assert meet_irreducible_congruences() == (R3, R2 & R2.inverse())


def test_congruence_lattice_is_built_once_by_inclusion():
    lat = enumerate_congruences()
    assert enumerate_congruences() is lat
    assert isinstance(lat, FinitePoset)
    oracle = FinitePoset.from_leq(lat.elements, BinaryRelation.issubset)
    assert lat.cover_index_pairs() == oracle.cover_index_pairs()
    assert all(
        lat.down_mask(i) == oracle.down_mask(i) for i in range(lat.n)
    )


def test_irreducibility_index_is_two():
    assert subuniverses_of_carrier() == (frozenset(ELEMENTS),)
    assert irreducibility_index() == 2
    # neither meet-irreducible reaches the diagonal alone
    for c in meet_irreducible_congruences():
        assert c != DIAGONAL


def test_partial_op_validation():
    op = PartialOp.from_graph(
        "f", DIAGONAL, [(e, e, e) for e in ELEMENTS]
    )
    assert op(H, H) == H
    assert op.defined(ZERO, ZERO) and not op.defined(ZERO, ONE)
    with pytest.raises(ValueError):
        op(ZERO, ONE)
    assert op.graph() == tuple((e, e, e) for e in ELEMENTS)
    with pytest.raises(ValueError):
        PartialOp.from_graph("g", DIAGONAL, [(ZERO, ZERO, ZERO)])  # domain mismatch
    with pytest.raises(ValueError):
        PartialOp.from_graph(
            "g", DIAGONAL,
            [(ZERO, ZERO, ZERO), (ZERO, ZERO, H), (H, H, H), (ONE, ONE, ONE)],
        )  # duplicate cell
