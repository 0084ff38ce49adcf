"""Hom-set enumeration: brute force vs clone closure vs lift, slices, caps."""

import gc
import hashlib
import json
from itertools import chain, product
from operator import or_
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hairycube.core import (
    ELEMENTS,
    Element,
    H,
    ONE,
    TritTable,
    ZERO,
    all_tuples,
    join,
    meet,
    planes,
    tuple_bar,
    tuple_join,
    tuple_meet,
)
from hairycube import homsets
from hairycube.duality import LAMBDA1, LAMBDA2, PI1, PI2, homs_for_variant
from hairycube.homsets import (
    CapExceededError,
    HomSet,
    StructuredSpace,
    assemble,
    break_flags,
    clone_closure,
    enumerate_homs_bruteforce,
    lift,
    preserves_partial_op,
    preserves_relation,
    slice_first,
)
from hairycube.relations import FULL, R1, R2, R3, BinaryRelation, PartialOp

UNARY = ("000", "0hh", "0h1", "hhh", "hh1", "11h", "111")


def test_unary_homset_is_the_reference_list():
    assert tuple(str(t) for t in clone_closure(1).tables()) == UNARY
    brute = enumerate_homs_bruteforce(StructuredSpace.power(1))
    assert tuple(str(t) for t in brute.tables()) == UNARY


def test_identity_preserves_everything():
    ident = TritTable.projection(1, 1)
    space = StructuredSpace.power(1)
    for rel in (R1, R2, R3):
        assert preserves_relation(ident, rel, space)
    assert preserves_partial_op(
        ident, LAMBDA1, StructuredSpace.power(1, (), (LAMBDA1,))
    )


def test_near_miss_tables_break_one_relation_each():
    space = StructuredSpace.power(1)
    t = TritTable.from_string("1h1")
    assert preserves_relation(t, R1, space) and preserves_relation(t, R2, space)
    assert not preserves_relation(t, R3, space)
    t = TritTable.from_string("00h")
    assert preserves_relation(t, R1, space) and preserves_relation(t, R3, space)
    assert not preserves_relation(t, R2, space)


def test_clone_equals_bruteforce_at_small_arity():
    for n in (1, 2):
        clone = clone_closure(n)
        brute = enumerate_homs_bruteforce(
            StructuredSpace.power(n), carrier_cap=3 ** n
        )
        assert clone.maps == brute.maps  # same canonical order, same sets


def test_clone_counts():
    assert len(clone_closure(1)) == 7
    assert len(clone_closure(2)) == 35
    assert len(clone_closure(3)) == 775


def _tuple_clone(n):
    """The term clone closed on entry tuples with the pointwise tuple
    helpers, independently of the table planes.  Entries are kept as int
    codes, which hash faster than Elements and compare equal to them, and
    each table is read out as the bytes of its codes."""
    elems = [tuple(int(args[i]) for args in all_tuples(n)) for i in range(n)]
    elems += [(int(c),) * 3 ** n for c in ELEMENTS]
    seen = set(elems)
    i = 0
    while i < len(elems):
        a = elems[i]
        fresh = [tuple(map(int, tuple_bar(a)))]
        for b in elems[: i + 1]:
            fresh += [tuple_meet(a, b), tuple_join(a, b)]
        for t in fresh:
            if t not in seen:
                seen.add(t)
                elems.append(t)
        i += 1
    return tuple(sorted(map(bytes, elems)))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_clone_closure_matches_tuple_closure(n):
    assert clone_closure(n).maps == _tuple_clone(n)


def _clone_entries_table_by_table(n):
    """The oracle: the clone closed in the same three stages, the
    irreducible meets found by a nested loop, the joins by `_close`, and
    each table read out through its own `TritTable._codes`."""
    width = 3 ** n
    full = (1 << width) - 1
    gens = [TritTable.projection(n, i) for i in range(1, n + 1)]
    gens += [TritTable.constant(n, c) for c in ELEMENTS]
    barred = homsets._close(list(dict.fromkeys(g.order_mask for g in gens)),
                            lambda a: (full << width | full & ~a,))
    meets = homsets._close(list(barred), lambda a: (a & b for b in barred))
    irreducible = []
    for a in meets:
        below = 0
        for b in meets:
            if not b & ~a and b != a:
                below |= b
        if below != a:
            irreducible.append(a)
    elems = homsets._close(list(meets), lambda a: (a | b for b in irreducible))
    return tuple(sorted(TritTable.from_planes(n, t >> width, t & full)._codes() for t in elems))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_clone_entries_match_the_table_by_table_closure(n):
    assert homsets._clone_entries(n) == _clone_entries_table_by_table(n)


def test_clone_closure_is_built_once_per_arity():
    clone = clone_closure(3)
    assert clone_closure(3) is clone
    assert [t._codes() for t in clone.tables()] == list(clone.maps)
    assert clone == HomSet(clone.source, clone.maps)
    assert hash(clone) == hash(HomSet(clone.source, clone.maps))


def _linear_contains(homs, f):
    """The oracle: a scan of the maps."""
    try:
        return homsets._as_assignment(f, homs.source) in tuple(homs.maps)
    except ValueError:
        return False


@given(st.data())
def test_membership_matches_a_linear_scan(data):
    clone = clone_closure(3)
    for m in clone.maps:
        assert m in clone
    drawn = data.draw(st.lists(st.one_of(
        st.binary(min_size=26, max_size=28),  # wrong lengths too
        st.lists(st.integers(0, 3), min_size=27, max_size=27).map(bytes),  # code 3 too
        st.lists(st.sampled_from(ELEMENTS), min_size=27, max_size=27),
        st.sampled_from(clone.maps).map(TritTable),
        st.builds(TritTable.from_planes, st.just(3), st.integers(0, (1 << 27) - 1),
                  st.just(0)),
        st.sampled_from(clone_closure(2).tables()),  # another arity
    ), max_size=20))
    for f in drawn:
        assert (f in clone) == _linear_contains(clone, f)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_clone_closure_is_closed_under_bar_meet_and_join(n):
    tables = clone_closure(n).tables()
    members = {(t.ge_h, t.ge_1) for t in tables}
    assert {(b.ge_h, b.ge_1) for b in map(TritTable.bar, tables)} <= members
    for a_h, a_1 in members:
        assert {(a_h & b_h, a_1 & b_1) for b_h, b_1 in members} <= members
        assert {(a_h | b_h, a_1 | b_1) for b_h, b_1 in members} <= members


def test_bruteforce_at_arity_three_agrees_with_clone():
    brute = enumerate_homs_bruteforce(StructuredSpace.power(3), carrier_cap=27)
    assert brute.maps == clone_closure(3).maps
    assert lift(clone_closure(2)).maps == brute.maps


def test_search_at_arity_four_agrees_with_the_lifted_clone():
    search = homs_for_variant(4, "relational", carrier_cap=81)
    assert len(search) == 319107
    assert search.maps == lift(clone_closure(3)).maps


def test_carrier_cap_enforced():
    with pytest.raises(CapExceededError):
        enumerate_homs_bruteforce(StructuredSpace.power(3), carrier_cap=12)
    with pytest.raises(CapExceededError):
        clone_closure(4)


def test_homset_membership_and_lattice():
    homs = enumerate_homs_bruteforce(StructuredSpace.power(1))
    assert TritTable.from_string("0hh") in homs
    assert TritTable.from_string("01h") not in homs
    assert len(homs) == 7
    lat = homs.lattice()
    assert lat.n == 7
    bottom = lat.elements[lat.bottom_index()]
    assert bottom == TritTable.constant(1, ZERO)


def test_structured_space_validation():
    with pytest.raises(ValueError):
        StructuredSpace.from_points([])
    with pytest.raises(ValueError):
        StructuredSpace.from_points([(ZERO,), (ZERO, ONE)])
    # carrier must be closed under the componentwise partial operation
    with pytest.raises(ValueError):
        StructuredSpace.from_points(
            [(ZERO,), (ONE,)], partial_ops=(LAMBDA1,)
        )
    ok = StructuredSpace.from_points([(ZERO,), (H,), (ONE,)], (R1,), (LAMBDA1,))
    assert ok.is_full_power()


def test_structured_space_reads_its_arity_off_the_points():
    assert StructuredSpace(((ZERO, H, ONE),)).arity == 3
    assert StructuredSpace.power(0).arity == 0 and StructuredSpace.power(2).arity == 2
    with pytest.raises(ValueError, match="does not have width 1"):
        StructuredSpace(((ZERO,), (ZERO, ONE)))
    with pytest.raises(ValueError, match="nonempty"):
        StructuredSpace(())


def test_proper_carrier_maps_are_not_tables():
    space = StructuredSpace.from_points([(ZERO, ZERO), (H, H), (ONE, ONE)])
    homs = enumerate_homs_bruteforce(space)
    with pytest.raises(ValueError):
        homs.tables()
    assert all(len(m) == 3 for m in homs.maps)


def test_slice_assemble_roundtrip_explicit():
    t = TritTable.from_string("0000hh0h1")
    s0, sh, s1 = (slice_first(t, a) for a in ELEMENTS)
    assert (str(s0), str(sh), str(s1)) == ("000", "0hh", "0h1")
    assert assemble(s0, sh, s1).entries == t.entries
    with pytest.raises(ValueError):
        slice_first(TritTable.projection(1, 1), ZERO).entries  # arity 0 slice is fine
        slice_first(TritTable.constant(0, ZERO), ZERO)


entries2 = st.tuples(*([st.sampled_from(ELEMENTS)] * 9))


@given(entries2)
def test_slice_assemble_roundtrip_random(entries):
    t = TritTable(entries)
    rebuilt = assemble(*(slice_first(t, a) for a in ELEMENTS))
    assert rebuilt.entries == t.entries


def _slice_conditions(entries, unary):
    """The four slice conditions on a binary table, read off its nine
    entries: the slices f(0,.), f(h,.), f(1,.) are unary homs,
    f(h,.) = f(0,.) v (f(1,.) ^ h), f(0,.) ^ h <= f(1,.), and every point
    slice a |-> f(a, x) is a unary hom."""
    s0, sh, s1 = entries[0:3], entries[3:6], entries[6:9]
    return (
        {s0, sh, s1} <= unary
        and sh == tuple(max(a, min(b, H)) for a, b in zip(s0, s1))
        and all(min(a, H) <= b for a, b in zip(s0, s1))
        and all((entries[x], entries[3 + x], entries[6 + x]) in unary for x in range(3))
    )


def test_construct_conditions_hold_on_members():
    unary = {tuple(map(Element.from_char, t)) for t in UNARY}
    for m in clone_closure(2).maps:
        assert _slice_conditions(tuple(m), unary)


def test_construct_conditions_reject_nonmembers_at_arity_two():
    # At arity 2 the slice conditions cut out the hom-set exactly, and lift
    # glues exactly the tables that pass them.
    unary = {tuple(map(Element.from_char, t)) for t in UNARY}
    passing = {bytes(e) for e in product(ELEMENTS, repeat=9) if _slice_conditions(e, unary)}
    assert passing == set(lift(clone_closure(1)).maps) == set(clone_closure(2).maps)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_builds_the_next_hom_set(n):
    assert lift(clone_closure(n - 1)).maps == clone_closure(n).maps


def test_lift_to_arity_four_matches_the_pinned_search(workloads):
    # The benchmark's search-n4 request pins the stdout line of the arity-4
    # search, {"count": ..., "sha256": ...} over the bytes of its maps; the
    # lifted hom-set must print the same line.
    search = workloads.SEARCH_N4
    homs = lift(clone_closure(3))
    digest = hashlib.sha256()
    for m in homs.maps:
        digest.update(bytes(m))
    line = json.dumps({"count": len(homs), "sha256": digest.hexdigest()}) + "\n"
    assert len(homs) == search.count == 319107
    assert hashlib.sha256(line.encode()).hexdigest() == search.sha256


def test_lift_leaves_the_collector_as_it_found_it():
    unary = clone_closure(1)
    gapped = HomSet(unary.source, tuple(m for m in unary.maps if m != bytes((ZERO, H, H))))
    enabled = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            assert lift(unary).maps == clone_closure(2).maps
            assert gc.isenabled() is state
            with pytest.raises(ValueError):
                lift(gapped)
            assert gc.isenabled() is state
    finally:
        (gc.enable if enabled else gc.disable)()


def test_maps_are_untracked_bytes():
    # Maps hold no references, so the cyclic collector never walks them.
    cases = [
        enumerate_homs_bruteforce(StructuredSpace.power(2)),
        enumerate_homs_bruteforce(StructuredSpace.from_points([(ZERO, ZERO), (H, H), (ONE, ONE)])),
        enumerate_homs_bruteforce(StructuredSpace.power(1, (), (LAMBDA1,))),
    ]
    cases += [clone_closure(n) for n in (0, 1, 2, 3)]
    cases += [lift(clone_closure(n)) for n in (0, 1, 2)]
    for homs in cases:
        assert homs.maps
        for m in homs.maps:
            assert type(m) is bytes and len(m) == homs.source.size
            assert not gc.is_tracked(m)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_clone_maps_are_the_codes_of_their_tables(n):
    clone = clone_closure(n)
    tables = clone.tables()
    assert len(tables) == len(clone.maps)
    for i, t in enumerate(tables):
        assert clone.maps[i] == t._codes() == bytes(t.entries)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_order_masks_are_the_tables_order_masks(n):
    clone = clone_closure(n)
    masks = clone.order_masks()
    assert masks == [t.order_mask for t in clone.tables()]
    assert [TritTable.from_order_mask(n, m) for m in masks] == list(clone.tables())


def test_order_masks_of_a_proper_carrier():
    """One plane bit per carrier point, ge_h above ge_1."""
    space = StructuredSpace.from_points([(ZERO, ZERO), (H, H), (ONE, ONE), (ZERO, ONE)])
    homs = enumerate_homs_bruteforce(space)
    assert len(homs) == 3 ** 4
    assert homs.order_masks() == [ge_h << 4 | ge_1 for ge_h, ge_1 in map(planes, homs.maps)]


def test_lift_refuses_what_is_not_a_hom_set():
    diagonal = StructuredSpace.from_points([(ZERO, ZERO), (H, H), (ONE, ONE)])
    with pytest.raises(ValueError):
        lift(enumerate_homs_bruteforce(diagonal))
    # 000 and 0h1 form a slice pair whose middle slice, 0hh, is missing.
    unary = clone_closure(1)
    gapped = HomSet(unary.source, tuple(m for m in unary.maps if m != bytes((ZERO, H, H))))
    with pytest.raises(ValueError, match="middle slice"):
        lift(gapped)


def test_clone_closed_under_operations():
    clone = clone_closure(2)
    members = set(clone.maps)
    tables = clone.tables()
    for t in tables:
        assert bytes(t.bar().entries) in members
        assert bytes(t.meet_h().entries) in members
    for a in tables[:10]:
        for b in tables[:10]:
            assert bytes(a.meet(b).entries) in members
            assert bytes(a.join(b).entries) in members


def _naive_homs(space):
    """Every map carrier -> S, kept when it preserves each relation and
    partial operation as defined pointwise; no index tables involved."""
    points = space.carrier
    kept = []
    for values in product(ELEMENTS, repeat=len(points)):
        f = dict(zip(points, values))
        ok = all(
            rel.contains(f[u], f[v])
            for rel in space.relations
            for u in points
            for v in points
            if all(rel.contains(a, b) for a, b in zip(u, v))
        ) and all(
            op.defined(f[u], f[v])
            and op(f[u], f[v]) == f[tuple(op(a, b) for a, b in zip(u, v))]
            for op in space.partial_ops
            for u in points
            for v in points
            if all(op.defined(a, b) for a, b in zip(u, v))
        )
        if ok:
            kept.append(bytes(values))
    return tuple(kept)


def _subsets(items):
    return st.lists(st.sampled_from(items), unique=True).map(tuple)


small_carriers = st.sampled_from((1, 2)).flatmap(
    lambda n: st.sets(st.sampled_from(all_tuples(n)), min_size=1, max_size=6)
)


@settings(max_examples=200, deadline=None)
@given(small_carriers, _subsets((R1, R2, R3)), _subsets((LAMBDA1, LAMBDA2, PI1, PI2)))
def test_search_matches_naive_filter(points, relations, partial_ops):
    try:
        space = StructuredSpace.from_points(points, relations, partial_ops)
    except ValueError:
        return  # not closed under one of the partial operations
    naive = _naive_homs(space)
    homs = enumerate_homs_bruteforce(space, carrier_cap=space.size)
    assert homs.maps == naive
    # One prefix per batch: every batch is split, and the walk still keeps
    # the canonical order.
    with patch.object(homsets, "_SEARCH_BATCH", 1):
        assert enumerate_homs_bruteforce(space, carrier_cap=space.size).maps == naive
    for values in product(ELEMENTS, repeat=space.size):
        assert (bytes(values) in homs.maps) == (
            all(preserves_relation(values, rel, space) for rel in relations)
            and all(preserves_partial_op(values, op, space) for op in partial_ops)
        )


def _naive_preserves_relation(values, rel, space):
    return all(rel.contains(values[i], values[j]) for i, j in space.related_pairs(rel))


def _naive_preserves_partial_op(values, op, space):
    return all(
        k is not None
        and op.defined(values[i], values[j])
        and op(values[i], values[j]) == values[k]
        for i, j, k in space.op_triples(op)
    )


RELATIONS = (R1, R2, R3)
MEET = PartialOp.from_graph("meet", FULL, ((a, b, meet(a, b)) for a, b in FULL.pairs()))
JOIN = PartialOp.from_graph("join", FULL, ((a, b, join(a, b)) for a, b in FULL.pairs()))
# pi1 and pi2 are total and preserved by every map; meet and join are
# total operations that most maps break.
OPERATIONS = (LAMBDA1, LAMBDA2, PI1, PI2, MEET, JOIN)
POWERS = {n: StructuredSpace.power(n) for n in (1, 2, 3)}


def _near_homs(n, points):
    """Assignments on these points of S^n, in canonical order: a member of
    the n-ary clone restricted to them, with up to two values overwritten,
    or uniformly random ones; so that both verdicts of each check come up."""
    indices = sorted(map(all_tuples(n).index, points))
    size = len(indices)
    member = st.sampled_from(clone_closure(n).maps).map(lambda m: [m[i] for i in indices])
    edits = st.lists(
        st.tuples(st.integers(0, size - 1), st.sampled_from(ELEMENTS)), max_size=2
    )

    def edit(pair):
        values, changes = pair
        for i, v in changes:
            values[i] = v
        return tuple(values)

    random = st.lists(st.sampled_from(ELEMENTS), min_size=size, max_size=size)
    return st.one_of(st.tuples(member, edits).map(edit), random.map(tuple))


def _partial_op(domain_mask, values):
    defined = tuple(v if domain_mask >> x & 1 else None for x, v in enumerate(values))
    return PartialOp("drawn", BinaryRelation(domain_mask), defined)


# Any relation and any partial operation, beyond the paper's: on r1-r3 and
# the named operations over full powers, a check that took an undefined
# pair for one with value 0, or a 1 for an h, would still give the right
# verdicts.
drawn_relations = st.integers(0, 511).map(BinaryRelation)
drawn_ops = st.builds(
    _partial_op,
    st.integers(0, 511),
    st.lists(st.sampled_from(ELEMENTS), min_size=9, max_size=9),
)

# Each case is a batch of one to three maps on the same points; the one-map
# checks run on its first map, the batch check on all of them.
full_power_maps = st.sampled_from((1, 2, 3)).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_near_homs(n, all_tuples(n)), min_size=1, max_size=3))
)


def _check_against_naive(batch, space, relations, operations, table=None):
    """The one-map checks on the batch's first map (and on its table, when
    given), and break_flags on the whole batch, one structure at a time and
    all of them at once, against the naive oracles map by map."""
    maps = [bytes(values) for values in batch]
    cases = [(rel, preserves_relation, _naive_preserves_relation, (rel,), ()) for rel in relations]
    cases += [(op, preserves_partial_op, _naive_preserves_partial_op, (), (op,)) for op in operations]
    broken = bytes(len(maps))
    for structure, check, naive, rels, ops in cases:
        kept = [naive(values, structure, space) for values in batch]
        assert check(batch[0], structure, space) is kept[0]
        if table is not None:
            assert check(table, structure, space) is kept[0]
        flags = break_flags(maps, space, rels, ops)
        assert flags == bytes(not k for k in kept)
        broken = bytes(map(or_, broken, flags))
    assert break_flags(maps, space, relations, operations) == broken


@settings(max_examples=300, deadline=None)
@given(full_power_maps, drawn_relations, drawn_ops)
def test_preserves_checks_match_naive_filter_on_full_powers(case, drawn_rel, drawn_op):
    n, batch = case
    table = TritTable(batch[0])
    _check_against_naive(
        batch, POWERS[n], RELATIONS + (drawn_rel,), OPERATIONS + (drawn_op,), table
    )


proper_carrier_maps = st.sampled_from((1, 2, 3)).flatmap(
    lambda n: st.sets(st.sampled_from(all_tuples(n)), min_size=1).flatmap(
        lambda points: st.tuples(
            st.just(points), st.lists(_near_homs(n, points), min_size=1, max_size=3)
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(proper_carrier_maps, drawn_relations, drawn_ops)
def test_preserves_checks_match_naive_filter_on_proper_carriers(case, drawn_rel, drawn_op):
    points, batch = case
    # The carrier need not be closed under an operation: a result outside
    # it fails the check.
    space = StructuredSpace.from_points(points)
    _check_against_naive(batch, space, RELATIONS + (drawn_rel,), OPERATIONS + (drawn_op,))


def test_batch_check_of_no_maps_and_of_one_map():
    space = POWERS[2]
    assert break_flags((), space, RELATIONS, OPERATIONS) == b""
    assert break_flags([], StructuredSpace.from_points([(ZERO,), (ONE,)]), (), (LAMBDA1,)) == b""
    for m in clone_closure(2).maps[:5] + (bytes(9), bytes((2,) + (0,) * 8)):
        kept = all(_naive_preserves_relation(m, rel, space) for rel in RELATIONS) and all(
            _naive_preserves_partial_op(m, op, space) for op in OPERATIONS
        )
        assert break_flags([m], space, RELATIONS, OPERATIONS) == bytes([not kept])


def test_batch_check_fails_every_map_when_an_operation_leaves_the_carrier():
    # lambda1(0, 1) = h, and h is not in the carrier {0, 1}.
    space = StructuredSpace.from_points([(ZERO,), (ONE,)])
    maps = [bytes(values) for values in product(ELEMENTS, repeat=2)]
    assert break_flags(maps, space, (), (LAMBDA1,)) == b"\1" * 9
    assert break_flags(maps, space, (R1,), (PI1, LAMBDA1)) == b"\1" * 9
    assert break_flags(maps, space, (R1,), (PI1,)) != b"\1" * 9
    assert not any(preserves_partial_op(m, LAMBDA1, space) for m in maps)


def test_checks_refuse_values_that_are_not_codes():
    space = POWERS[1]
    for bad, value in ((b"\x05\x00\x00", 5), (bytes((0, 1, 3)), 3), ((ZERO, 255, H), 255)):
        for check, structure in ((preserves_relation, R1), (preserves_partial_op, LAMBDA1)):
            with pytest.raises(ValueError, match=f"map value {value} is not a code 0, 1 or 2"):
                check(bad, structure, space)
        with pytest.raises(ValueError, match=f"map value {value} is not a code 0, 1 or 2"):
            break_flags([bytes(3), bytes(bad)], space)
        assert bad not in clone_closure(1)
    with pytest.raises(ValueError, match="assignment has 2 values for a carrier of 3"):
        break_flags([bytes(3), bytes(2)], space, (R1,))


def test_preserves_checks_refuse_maps_that_do_not_fit_the_carrier():
    diagonal = StructuredSpace.from_points([(ZERO, ZERO), (H, H), (ONE, ONE)])
    table = TritTable.projection(1, 1)
    for check, structure in ((preserves_relation, R1), (preserves_partial_op, LAMBDA1)):
        with pytest.raises(ValueError, match="table maps do not match this carrier"):
            check(table, structure, diagonal)  # a table on a proper carrier
        with pytest.raises(ValueError, match="table maps do not match this carrier"):
            check(table, structure, POWERS[2])  # a table of another arity
        with pytest.raises(ValueError, match="assignment has 2 values for a carrier of 3"):
            check((ZERO, H), structure, diagonal)


any_carriers = st.sampled_from((0, 1, 2, 3)).flatmap(
    lambda n: st.one_of(
        st.just(all_tuples(n)), st.sets(st.sampled_from(all_tuples(n)), min_size=1)
    )
)


@settings(max_examples=200, deadline=None)
@given(any_carriers, drawn_relations, drawn_ops)
def test_pairs_and_triples_match_their_definitions_in_order(points, rel, op):
    """related_pairs and op_triples list exactly the index pairs and triples
    their definitions give, pointwise, in ascending (i, j) order."""
    space = StructuredSpace.from_points(points)
    carrier = space.carrier
    domain = [
        (i, j, u, v)
        for i, u in enumerate(carrier)
        for j, v in enumerate(carrier)
        if all(op.defined(a, b) for a, b in zip(u, v))
    ]
    assert space.related_pairs(rel) == tuple(
        (i, j)
        for i, u in enumerate(carrier)
        for j, v in enumerate(carrier)
        if all(rel.contains(a, b) for a, b in zip(u, v))
    )
    assert space.op_triples(op) == tuple(
        (i, j, carrier.index(w) if w in carrier else None)
        for i, j, u, v in domain
        for w in [tuple(op(a, b) for a, b in zip(u, v))]
    )


# Partial maps: the code 3 marks a point the map leaves out.
ABSENT = 3


def _naive_columns(blob, size):
    """Column s of index i, by its definition: the maps whose value at i is
    in the value set s (bit v for value v); column 0, the empty set, holds
    the maps that leave i out instead."""
    maps = [blob[m:m + size] for m in range(0, len(blob), size)]
    return [
        tuple(sum(1 << m for m, values in enumerate(maps)
                  if (values[i] == ABSENT if s == 0 else s >> values[i] & 1))
              for s in range(8))
        for i in range(size)
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda size: st.tuples(
    st.just(size),
    st.lists(st.binary(min_size=size, max_size=size), min_size=1, max_size=40),
    st.booleans(),
)))
def test_columns_match_their_definition(case):
    """On total maps the columns are the value sets, column 0 empty and
    column 7 full; on partial maps column 0 is the absent maps and 7 the
    present ones."""
    size, maps, partial = case
    alphabet = 4 if partial else 3
    blob = bytes(c % alphabet for c in b"".join(maps))
    cols = homsets._columns(blob, size)
    assert cols == _naive_columns(blob, size)
    full = (1 << len(maps)) - 1
    if ABSENT not in blob:
        assert all(col[0] == 0 and col[7] == full for col in cols)
    assert all(col[0] | col[7] == full and not col[0] & col[7] for col in cols)


def test_absent_points_constrain_nothing_and_an_absent_result_breaks():
    # Four maps on indices (i, j, k) = (0, 1, 2): all present, then i, j
    # and k left out in turn.  Each present pair is outside the empty
    # relation, and pi1(1, 0) = 1 is not k's value 0.
    maps = [b"\2\0\0", b"\3\0\0", b"\2\3\0", b"\2\0\3"]
    cols = homsets._columns(b"".join(maps), 3)
    empty = BinaryRelation(0)
    assert homsets._broken(cols, [(empty, 0, 1)], ()) == 0b1001
    assert homsets._broken(cols, (), [(PI1, 0, 1, 2)]) == 0b1001
    # A triple whose result is right breaks only the map that leaves it out.
    maps = [b"\2\0\2", b"\3\0\2", b"\2\3\2", b"\2\0\3"]
    cols = homsets._columns(b"".join(maps), 3)
    assert homsets._broken(cols, (), [(PI1, 0, 1, 2)]) == 0b1000


def _naive_partial_breaks(values, space, rel, op):
    """Does a partial map break rel or op on the points it keeps?  A pair
    or triple counts only when its i and j are kept, and then a triple
    needs k kept too."""
    kept = [v != ABSENT for v in values]
    return any(
        kept[i] and kept[j] and not rel.contains(values[i], values[j])
        for i, j in space.related_pairs(rel)
    ) or any(
        kept[i] and kept[j] and not (
            kept[k] and op.defined(values[i], values[j])
            and op(values[i], values[j]) == values[k])
        for i, j, k in space.op_triples(op)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((1, 2)).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(0, 3), min_size=3 ** n, max_size=3 ** n).map(bytes),
        min_size=1, max_size=8))),
    drawn_relations,
    drawn_ops,
)
def test_broken_matches_the_naive_check_on_partial_maps(case, rel, op):
    n, maps = case
    space = POWERS[n]
    pairs = [(rel, i, j) for i, j in space.related_pairs(rel)]
    triples = [(op, *t) for t in space.op_triples(op)]
    bad = homsets._broken(homsets._columns(b"".join(maps), space.size), pairs, triples)
    assert [bool(bad >> m & 1) for m in range(len(maps))] == [
        _naive_partial_breaks(values, space, rel, op) for values in maps
    ]


@pytest.mark.parametrize("n, prefixes, leaves", [(1, 44, 28), (2, 2904, 1300)])
def test_partial_search_work_is_pinned(n, prefixes, leaves, monkeypatch):
    """The partial search on (S^n; lambda1) keeps this many nonempty
    prefixes, leaves and the empty map included.  Every level holds a
    triple (t, t, t), since lambda1(a, a) = a, so each level's survivors
    pass through `_flags`."""
    kept = []
    flags = homsets._flags
    monkeypatch.setattr(homsets, "_flags",
                        lambda bits, count: kept.append(bin(bits).count("1")) or flags(bits, count))
    power = StructuredSpace.power(n, (), (LAMBDA1,))
    found = list(chain.from_iterable(homsets._search(power, homsets._CODES + (homsets._ABSENT,))))
    assert (sum(kept), len(found)) == (prefixes, leaves)
    assert found == sorted(found)
    assert bytes([ABSENT]) * power.size in found
