"""Join-irreducible geometry: recursion, extraction, polynomials, topology."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hairycube import homsets, verify
from hairycube.core import ZERO, H, TritTable
from hairycube.cube import (
    JIElement,
    PartiallyStoneSpaceFinite,
    _glue,
    chi_lattice,
    eta,
    eval_polynomial,
    extracted_hairy_cube,
    hairy_cube_recursive,
    ji_meet_formula_check,
    join_irreducibles,
    open_set_order,
    polynomial_form,
    polynomial_label,
    pss_homeomorphism,
    verify_hairy_cube,
)
from hairycube.homsets import CapExceededError
from hairycube.posets import FinitePoset, _bits

UNARY_JI = ("0hh", "0h1", "hhh", "11h")
UNARY_JI_COVERS = {("0hh", "0h1"), ("0hh", "hhh"), ("hhh", "11h")}


def test_unary_join_irreducibles():
    cube = hairy_cube_recursive(1)
    assert tuple(str(e.table) for e in cube.elements) == UNARY_JI
    covers = {
        (str(a.table), str(b.table)) for a, b in cube.cover_pairs()
    }
    assert covers == UNARY_JI_COVERS


def test_recursive_equals_extracted():
    for n in (1, 2, 3):
        rec = hairy_cube_recursive(n)
        ext = extracted_hairy_cube(n)
        assert {e.table.entries for e in rec.elements} == {
            t.entries for t in ext.elements
        }
        relabel = {e.table.entries: e for e in rec.elements}
        mirrored = FinitePoset.from_leq(
            [relabel[t.entries] for t in ext.elements],
            lambda x, y: x.table.leq(y.table),
        )
        assert mirrored == rec
        assert set(ext.cover_pairs()) == {(a.table, b.table) for a, b in rec.cover_pairs()}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_extracted_cube_is_the_join_irreducibles_of_the_lattice(n):
    """Read off the clone's order masks, it equals the join-irreducibles of
    the table lattice: the same tables in the same order, the same rows."""
    ext, ref = extracted_hairy_cube(n), join_irreducibles(chi_lattice(n))
    assert ext.elements == ref.elements
    assert all(type(t) is TritTable for t in ext.elements)
    assert [ext.down_mask(i) for i in range(ext.n)] == [ref.down_mask(i) for i in range(ref.n)]
    assert ext._up == ref._up


def test_verify_builds_no_arity_3_tables():
    homsets.clone_closure.cache_clear()
    verify.run_suite("all")
    assert homsets.clone_closure(3)._tables is None


def test_eta_is_computed_once_per_table():
    t = TritTable.from_string("0hh0hh0hh")
    assert eta(t) is eta(TritTable.from_string("0hh0hh0hh"))


def _mask_order(elements):
    """The reference route: tables ordered by inclusion of their plane masks."""
    elements = sorted(elements)
    return FinitePoset.from_masks(elements, [e.table.order_mask for e in elements])


def _assert_same_order(poset, oracle):
    assert poset.elements == oracle.elements
    assert (poset._down, poset._up) == (oracle._down, oracle._up)
    assert poset.cover_index_pairs() == oracle.cover_index_pairs()


@pytest.mark.parametrize("n", range(1, 8))
def test_glued_order_matches_the_plane_masks(n):
    cube = hairy_cube_recursive(n)
    _assert_same_order(cube, _mask_order(cube.elements))


# Any nonzero binary tables: the slice rule does not assume the hairy shape.
@given(st.sets(st.tuples(*[st.integers(0, 2)] * 9).filter(any), min_size=1, max_size=12))
def test_glue_matches_the_plane_masks_off_the_cube(entries):
    prev = _mask_order(JIElement(TritTable(e), (0, 0), False) for e in entries)
    glued = _glue(prev)
    assert glued.n == 2 * prev.n
    _assert_same_order(glued, _mask_order(glued.elements))


def test_glue_refuses_the_zero_table():
    # (0, 0^h, 0) and (0, 0, 0^h) are both the zero table
    zero = JIElement(TritTable.constant(1, ZERO), (0,), True)
    with pytest.raises(ValueError, match="zero table"):
        _glue(_mask_order([zero, *hairy_cube_recursive(1).elements]))


def _failed_clauses(report):
    """The names of the clauses a hairy-cube report fails, in order."""
    return tuple(name for name, ok, _ in report.clauses if not ok)


def test_shape_clauses_pass():
    for n in (1, 2, 3):
        cube = hairy_cube_recursive(n)
        assert cube.n == 2 ** (n + 1)
        report = verify_hairy_cube(cube, n)
        assert report.passed, _failed_clauses(report)
        assert [name for name, _, _ in report.clauses] == [
            "base-is-cube",
            "hairs-incomparable",
            "unique-hair-cover",
            "hair-covers-own-base",
        ]


def test_shape_clauses_fail_on_wrong_poset():
    cube1 = hairy_cube_recursive(1)
    missing_base = cube1.induced([1, 2, 3])  # 0h1, hhh, 11h
    report = verify_hairy_cube(missing_base, 1)
    assert not report.passed
    assert "base-is-cube" in _failed_clauses(report)
    # a bare cube with no hairs: base clause holds, cover clause cannot
    only_base = cube1.induced([0, 2])  # 0hh, hhh
    report = verify_hairy_cube(only_base, 1)
    assert not report.passed
    assert _failed_clauses(report) == ("unique-hair-cover",)


def _reordered_unary_cube(strict):
    """The four unary join-irreducibles under a hand-written order, given
    as strict pairs of table strings (already transitively closed)."""
    cube1 = hairy_cube_recursive(1)
    pairs = set(strict)
    return FinitePoset.from_leq(
        cube1.elements,
        lambda x, y: x == y or (str(x.table), str(y.table)) in pairs,
    )


TRUE_UNARY_ORDER = {("0hh", "hhh"), ("0hh", "0h1"), ("hhh", "11h"), ("0hh", "11h")}
SWAPPED_UNARY_ORDER = {("0hh", "hhh"), ("0hh", "11h"), ("hhh", "0h1"), ("0hh", "0h1")}


def test_shape_clauses_fail_on_comparable_hairs():
    poset = _reordered_unary_cube(TRUE_UNARY_ORDER | {("0h1", "11h")})
    report = verify_hairy_cube(poset, 1)
    assert _failed_clauses(report) == ("hairs-incomparable", "hair-covers-own-base")


def test_shape_clauses_fail_on_swapped_hairs():
    # each hair sits over the other hair's base: the cover shape is right,
    # but no hair meets h to the base point it covers
    poset = _reordered_unary_cube(SWAPPED_UNARY_ORDER)
    report = verify_hairy_cube(poset, 1)
    assert _failed_clauses(report) == ("unique-hair-cover", "hair-covers-own-base")
    # pss_homeomorphism only asks for the shape, so it accepts a relabelling
    base = frozenset(e for e in poset.elements if e.is_base)
    res = pss_homeomorphism(PartiallyStoneSpaceFinite.from_poset(poset, base), 1)
    assert res.ok is True


def _first_failed(report):
    names = _failed_clauses(report)
    if not names:
        return None
    return "hair-covers-one-base" if names[0] == "hair-covers-own-base" else names[0]


def test_shape_checkers_agree_on_every_induced_subposet():
    cases = 0
    for n in (1, 2):
        cube = hairy_cube_recursive(n)
        for mask in range(1, 1 << cube.n):
            sub = cube.induced(i for i in range(cube.n) if mask >> i & 1)
            base = frozenset(e for e in sub.elements if e.is_base)
            found = pss_homeomorphism(PartiallyStoneSpaceFinite.from_poset(sub, base), n)
            assert _first_failed(verify_hairy_cube(sub, n)) == found.failed_clause, mask
            cases += 1
    assert cases == 15 + 255


def test_eta_is_the_cube_coordinate():
    # The constructors carry each descriptor; reading it back off the
    # table is the independent route.
    for n in range(1, 8):
        cube = hairy_cube_recursive(n)
        for e in cube.elements:
            assert polynomial_form(e.table) == (e.epsilon, e.meet_h)
            if e.is_base:
                assert eta(e.table) == e.epsilon
    with pytest.raises(ValueError):
        eta(TritTable.from_string("0h1"))  # not below h
    with pytest.raises(ValueError):
        eta(TritTable.from_string("000"))  # below h but not a base JI
    # the dimension is the table's own arity
    assert eta(TritTable.from_string("0hh")) == (0,)
    assert eta(TritTable.from_string("0hh0hh0hh")) == (1, 0)


def test_polynomial_roundtrip_all_dimensions():
    for n in range(1, 8):
        for eps in product((0, 1), repeat=n):
            for flag in (False, True):
                table = eval_polynomial(eps, flag)
                assert (table.arity, polynomial_form(table)) == (n, (eps, flag))
        for e in hairy_cube_recursive(n).elements:
            assert eval_polynomial(e.epsilon, e.meet_h) == e.table


def test_polynomial_labels():
    assert polynomial_label((0,), False) == "p1"
    assert polynomial_label((1,), False) == "~p1"
    assert polynomial_label((0,), True) == "p1∧h"
    assert polynomial_label((1, 0, 1), True) == "~p1∧p2∧~p3∧h"


N3_LABELS = {
    f"{a}p1∧{b}p2∧{c}p3{d}"
    for a in ("", "~")
    for b in ("", "~")
    for c in ("", "~")
    for d in ("", "∧h")
}


def test_dimension_three_figure():
    cube = hairy_cube_recursive(3)
    assert cube.n == 16
    by_label = {e.label: e for e in cube.elements}
    assert set(by_label) == N3_LABELS
    hair_edges = 0
    cube_edges = 0
    for a, b in cube.cover_pairs():
        if b.is_base:
            cube_edges += 1
            # covering base differs in exactly one raised coordinate
            diffs = [i for i, (x, y) in enumerate(zip(a.epsilon, b.epsilon)) if x != y]
            assert len(diffs) == 1 and a.epsilon[diffs[0]] == 0
        else:
            hair_edges += 1
            assert a.is_base and a.epsilon == b.epsilon
    assert hair_edges == 8 and cube_edges == 12


def test_ji_meet_formula():
    for n in (1, 2, 3, 4, 5):
        assert ji_meet_formula_check(n)
    # the distinctness hypothesis is necessary: a hair is its own meet
    hair = TritTable.from_string("0h1")
    assert hair.meet(hair) == hair
    assert not hair.leq(TritTable.constant(1, H))
    # the only bound is the cube's own dimension cap
    with pytest.raises(CapExceededError):
        ji_meet_formula_check(8)


def test_join_irreducibles_of_chi():
    for n in (1, 2):
        lat = chi_lattice(n)
        ji = join_irreducibles(lat)
        assert ji.n == 2 ** (n + 1)
        # every lattice member is the join of the irreducibles below it
        for i, t in enumerate(lat.elements):
            below = [
                u for u in ji.elements if u.leq(t)
            ]
            acc = lat.elements[lat.bottom_index()]
            for u in below:
                acc = acc.join(u)
            assert acc == t


def test_alexandrov_roundtrip_on_cubes():
    for n in (1, 2, 3):
        cube = hairy_cube_recursive(n)
        opens = cube.downset_masks()
        assert open_set_order(opens, cube.elements) == cube


@given(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=6))
def test_alexandrov_roundtrip_random_subposets(indices):
    cube = hairy_cube_recursive(3)
    sub = cube.induced(sorted(indices))
    opens = sub.downset_masks()
    assert open_set_order(opens, sub.elements) == sub


@given(st.integers(0, 6).flatmap(
    lambda k: st.lists(st.integers(0, (1 << k) - 1), max_size=8).map(lambda m: (k, m))
))
def test_open_set_order_matches_the_specialisation_order(drawn):
    """Against x <= y iff every open holding y holds x, on drawn families of
    index masks over k points, in sorted and in reversed element order; a
    family that does not cover or does not separate its points must be
    refused."""
    k, opens = drawn
    points = "abcdef"[:k]
    sets = [frozenset(points[i] for i in _bits(m)) for m in opens]

    def leq(x, y):
        return all(x in o for o in sets if y in o)

    for order in (points, points[::-1]):
        masks = [sum(1 << order.index(x) for x in o) for o in sets]
        if set().union(*sets) != set(points):
            with pytest.raises(ValueError, match="do not cover exactly"):
                open_set_order(masks, order)
        elif len({frozenset(o for o in sets if x in o) for x in points}) < k:
            with pytest.raises(ValueError, match="not T0"):
                open_set_order(masks, order)
        else:
            _assert_same_order(open_set_order(masks, order), FinitePoset.from_leq(order, leq))


def test_open_set_order_rejects_non_t0():
    with pytest.raises(ValueError, match="not T0"):
        open_set_order([0b00, 0b11], "ab")
    # b, c and a, d are both inseparable; the first pair in element order
    # is (a, d), which a scan for the first repeated point would miss
    opens = [0b0000, 0b1001, 0b0110, 0b1111]
    with pytest.raises(ValueError, match="not T0: a and d are inseparable"):
        open_set_order(opens, "abcd")
    # index 1 is in no open; index 2 is past the elements; so are all of -1's
    for opens in ([0b01], [0b011, 0b111], [-1]):
        with pytest.raises(ValueError, match="cover exactly the indices of the 2 elements"):
            open_set_order(opens, "ab")


def _cube_space(n):
    """The dimension-n hairy cube as a candidate space, its base the tables
    below h."""
    cube = hairy_cube_recursive(n)
    return PartiallyStoneSpaceFinite.from_poset(cube, (e for e in cube.elements if e.is_base))


def test_pss_accepts_the_real_thing():
    for n in (1, 2):
        cand = _cube_space(n)
        res = pss_homeomorphism(cand, n)
        assert res.ok and res.failed_clause is None
        assert len(res.mapping) == 2 ** (n + 1)


def test_pss_refuses_opens_that_are_not_the_downsets():
    cand = _cube_space(2)
    assert pss_homeomorphism(cand, 2).ok
    # one downset short, one set that is not down-closed, one index past the
    # 8 points (which a permutation of the 8 bits alone would drop)
    for opens in (cand.opens[:-1], cand.opens + (0b10,), cand.opens + (1 << 8,)):
        res = pss_homeomorphism(cand._replace(opens=opens), 2)
        assert (res.ok, res.failed_clause) == (False, "open-sets-correspond")


def test_pss_recognises_the_dimension_four_cube():
    """The 319,107 downsets of the 32-point cube stay index masks (about 2 s)."""
    cand = _cube_space(4)
    assert len(cand.opens) == 319_107
    assert all(type(o) is int for o in cand.opens)
    assert cand.opens == hairy_cube_recursive(4).downset_masks()
    assert pss_homeomorphism(cand, 4).ok


def _space(elements, pairs, base):
    closure = dict()
    order = set(pairs) | {(x, x) for x in elements}
    changed = True
    while changed:
        changed = False
        for a, b in list(order):
            for c, d in list(order):
                if b == c and (a, d) not in order:
                    order.add((a, d))
                    changed = True
    poset = FinitePoset.from_leq(elements, lambda x, y: (x, y) in order)
    return PartiallyStoneSpaceFinite.from_poset(poset, frozenset(base))


def test_pss_accepts_relabeled_candidate():
    # same shape as dimension 1, arbitrary names, reversed insert order
    cand = _space(
        ["top", "mid", "lo", "spike"],
        [("lo", "mid"), ("lo", "spike"), ("mid", "top")],
        base=["lo", "mid"],
    )
    res = pss_homeomorphism(cand, 1)
    assert res.ok
    assert res.mapping["lo"].label == "p1∧h"
    assert res.mapping["spike"].label == "p1"
    assert res.mapping["top"].label == "~p1"


def test_pss_rejects_each_failure_mode():
    chain = _space(["a", "b", "c"], [("a", "b"), ("b", "c")], base=["a", "b", "c"])
    assert pss_homeomorphism(chain, 1).failed_clause == "base-is-cube"

    comparable_hairs = _space(
        ["b0", "b1", "g0", "g1"],
        [("b0", "b1"), ("b0", "g0"), ("b1", "g1"), ("g0", "g1")],
        base=["b0", "b1"],
    )
    assert (
        pss_homeomorphism(comparable_hairs, 1).failed_clause
        == "hairs-incomparable"
    )

    missing_hair = _space(
        ["b0", "b1", "g0"],
        [("b0", "b1"), ("b0", "g0")],
        base=["b0", "b1"],
    )
    assert (
        pss_homeomorphism(missing_hair, 1).failed_clause == "unique-hair-cover"
    )

    two_hairs = _space(
        ["b0", "b1", "g0", "g0'", "g1"],
        [("b0", "b1"), ("b0", "g0"), ("b0", "g0'"), ("b1", "g1")],
        base=["b0", "b1"],
    )
    assert pss_homeomorphism(two_hairs, 1).failed_clause == "unique-hair-cover"

    shared_hair = _space(
        ["00", "01", "10", "11", "g", "h00", "h11"],
        [
            ("00", "01"), ("00", "10"), ("01", "11"), ("10", "11"),
            ("01", "g"), ("10", "g"), ("00", "h00"), ("11", "h11"),
        ],
        base=["00", "01", "10", "11"],
    )
    assert (
        pss_homeomorphism(shared_hair, 2).failed_clause == "hair-covers-one-base"
    )


def test_pss_base_membership_validated():
    poset = FinitePoset.from_leq(["a"], lambda x, y: x == y)
    with pytest.raises(ValueError):
        PartiallyStoneSpaceFinite.from_poset(poset, frozenset({"zz"}))


def test_hairy_cube_suite_peels_the_covers_of_small_posets_only(monkeypatch):
    """A work guard in place of a timing test: the suite reads the
    join-irreducibles of the 775-element hom-set lattice off its down rows,
    never peeling that lattice's covers."""
    sizes = []
    peel = FinitePoset.cover_index_pairs

    def counted(self):
        sizes.append(self.n)
        return peel(self)

    monkeypatch.setattr(FinitePoset, "cover_index_pairs", counted)
    assert verify.suite_hairy_cube().passed
    assert sizes and max(sizes) <= 64
