"""Small finite posets over explicit element tuples.

The package's orders are inclusions of bit masks (table planes, relation
masks, cube coordinates, opens), built by `from_masks`; `from_leq` takes any
relation and serves as the reference.  Order rows are bit masks too: `down[i]`
holds the indices weakly below i and `up[i]` those weakly above.

Costs, for N elements whose masks are `width` bits wide:

- `from_masks` tests all N*N pairs when the masks are wider than N
  (`open_set_order` on the 3-dimensional hairy cube: 16 masks of 775 bits,
  one per open set) or N*N is at most 64 per bit of width (the 7 unary
  tables, the 13 subalgebras of S^2), and transposes the down rows into the
  up rows in C;
- `from_masks` otherwise transposes the masks once (in C) into their D
  distinct bit columns and looks both rows up 4 columns at a time, about
  250 pair tests' worth per 4 columns plus N*D/4 steps in C (D = 16 against
  N = 775 for the 3-ary hom-set lattice);
- `from_leq` calls `leq` N*N times;
- covers peel the maxima off each strict downset, in steps that scale with
  the covers rather than with the comparable pairs;
- join-irreducibles take N lookups in the set of the N down rows and peel
  no covers (16 of the 775 elements of the 3-ary hom-set lattice);
- `induced` on K indices walks at most K*K bits: it masks their rows first;
- `downset_masks` stops once it holds more than `DOWNSET_CAP` downsets;
- `closed_sets` closes at most `size` candidates per set it lists.
"""

from __future__ import annotations

from operator import and_
from typing import Callable, Iterable, Sequence

# Most downsets `downset_masks` builds; an extension step at most doubles
# the list, so it never holds more than twice this many.
DOWNSET_CAP = 1 << 20
_FLAG_BYTES = bytes.maketrans(b"01", b"\0\1")


class CapExceededError(ValueError):
    """Raised when a requested enumeration exceeds its fixed cap."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _flags(bits: int, count: int) -> bytes:
    """One byte per bit of the first count: bit m of bits as 0 or 1."""
    return format(bits, f"0{count}b").encode()[::-1].translate(_FLAG_BYTES)


def _partners(size: int, triples: Iterable[tuple[int, ...]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The triples (i, j, k) on range(size) as `closed_sets` reads them: per
    index i, (bit of j, bit of k) for each triple (i, j, k) or (j, i, k)."""
    found, bit = [[] for _ in range(size)], [1 << i for i in range(size)]  # bits shared, not remade
    for i, j, k in triples:
        found[i].append((bit[j], bit[k]))
        found[j].append((bit[i], bit[k]))
    return tuple(map(tuple, found))  # immutable, as relations._algebra caches it


def closed_sets(partners: Sequence[Sequence[tuple[int, int]]], start: int = 0):
    """Every subset of range(len(partners)) that holds start and is closed
    under the `_partners` triples (i and j in puts k in), as index bit masks in
    ascending order, the closure of start first: NextClosure (Ganter & Wille)."""

    def close(mask: int, stop: int = 0) -> int:  # stopped once it holds a bit of stop
        new = mask  # each round reads only the triples of the indices the last one added
        while not mask & stop and (new := sum({k for i in _bits(new) for j, k in partners[i]
                                               if mask & j}) & ~mask):
            mask |= new
        return mask

    closed = close(start)
    while closed is not None:  # the next turns on the least bit i it can, keeping the bits above i
        yield closed  # a candidate that gains a bit above i outside closed has failed: stop it there
        candidates = ((-2 << i, close(closed & -2 << i | 1 << i | start, -2 << i & ~closed))
                      for i in range(len(partners)) if not closed >> i & 1)
        closed = next((c for above, c in candidates if c & above == closed & above), None)


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Bit-matrix transpose: bit i of column c is bit c of rows[i].

    Done on one binary string of the rows, sliced by column, all in C.
    """
    if not (width and rows):  # int("") fails
        return [0] * width
    step = 8 * -(-width // 8)
    whole = int.from_bytes(b"".join([r.to_bytes(step // 8, "little") for r in rows]), "little")
    bits = format(whole, f"0{len(rows) * step}b")  # row N-1 first, bit c at step - 1 - c
    return [int(bits[step - 1 - c::step], 2) for c in range(width)]


class FinitePoset:
    """Finite poset; `down[i]` and `up[i]` are the bit masks of indices weakly
    below and weakly above i.

    The rows are taken as given: `from_masks` and `induced` give partial
    orders by construction, and `from_leq` checks the relation it is given.
    `up` is the transpose of `down`, computed from it when not given.
    """

    def __init__(self, elements: Sequence, down: Sequence[int],
                 up: Sequence[int] | None = None):
        self._elements = tuple(elements)
        self._down = tuple(down)
        self._index = {e: i for i, e in enumerate(self._elements)}
        if len(self._index) != len(self._elements):
            raise ValueError("duplicate elements")
        if len(self._down) != len(self._elements):
            raise ValueError("order rows do not match the element count")
        self._up = tuple(_transpose(self._down, self.n) if up is None else up)
        self._covers: tuple[tuple[int, int], ...] | None = None

    def _check_partial_order(self) -> None:
        n = len(self._elements)
        for i in range(n):
            if not self._down[i] >> i & 1:
                raise ValueError("order is not reflexive")
            if self._down[i] & self._up[i] != 1 << i:
                raise ValueError("order is not antisymmetric")
            for j in _bits(self._down[i]):
                if self._down[j] & ~self._down[i]:
                    raise ValueError("order is not transitive")

    @classmethod
    def from_leq(cls, elements: Sequence, leq: Callable):
        """The order `leq(x, y)` on `elements`; ValueError unless it is a
        partial order."""
        elements = tuple(elements)
        down, up = [], [0] * len(elements)
        for i, x in enumerate(elements):
            mask = 0
            for j, y in enumerate(elements):
                if leq(y, x):
                    mask |= 1 << j
                    up[j] |= 1 << i
            down.append(mask)
        poset = cls(elements, down, up)
        poset._check_partial_order()
        return poset

    @classmethod
    def from_masks(cls, elements: Sequence, masks: Sequence[int]):
        """x <= y iff masks[x] & ~masks[y] == 0, for nonnegative masks: a
        partial order unless two masks are equal, which raises ValueError.

        The masks are tested pairwise, N*N steps with `up` the transpose of
        `down`, when they are wider than their count N or N*N is at most 64
        per bit of width: a slice of 4 columns below costs about as much as
        250 pair tests.  Otherwise the rows come from the D distinct bit
        columns of the masks (column c holds the elements with bit c):
        `up[i]` is the AND of the columns that hold i, and `down[i]` that of
        the complements of the others, looked up 4 columns at a time.
        """
        masks = tuple(masks)
        n = len(masks)
        if len(set(masks)) != n:
            raise ValueError("equal masks: inclusion is not antisymmetric")
        width = max(masks, default=0).bit_length()
        if width > n or n * n <= 64 * width:
            return cls(elements, [sum(1 << j for j, x in enumerate(masks) if not x & outside)
                                  for outside in [~m for m in masks]])
        columns = list(set(_transpose(masks, width)))
        full = (1 << n) - 1
        up = down = [full] * n
        for lo in range(0, len(columns), 4):
            # Per subset of these 4 columns (8 take 8x the memory), the AND of
            # them and of the others' complements; `held[i]`: the subset with i.
            chunk, ands, nots = columns[lo:lo + 4], [full], [full]
            for column in chunk:
                ands += [x & column for x in ands]
                nots += [x & ~column for x in nots]
            held = sum(int.from_bytes(_flags(c, n), "little") << k
                       for k, c in enumerate(chunk)).to_bytes(n, "little")
            up = map(and_, up, map(ands.__getitem__, held))
            down = map(and_, down, map(nots[::-1].__getitem__, held))
        return cls(elements, list(down), list(up))

    @property
    def n(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple:
        return self._elements

    def index(self, x) -> int:
        return self._index[x]

    def leq_by_index(self, i: int, j: int) -> bool:
        return bool(self._down[j] >> i & 1)

    def leq(self, x, y) -> bool:
        return self.leq_by_index(self._index[x], self._index[y])

    def down_mask(self, i: int) -> int:
        return self._down[i]

    def cover_index_pairs(self) -> tuple[tuple[int, int], ...]:
        if self._covers is None:
            lower, upper = [], [[] for _ in range(self.n)]
            for i in range(self.n):
                # Peel maxima off the strict downset: climb from its highest
                # index to a maximal element, a lower cover of i, then drop
                # that cover's downset, which holds no other cover.
                left, found = self._down[i] & ~(1 << i), []
                while left:
                    j = left.bit_length() - 1
                    above = self._up[j] & left & ~(1 << j)
                    while above:
                        j = above.bit_length() - 1
                        above = self._up[j] & left & ~(1 << j)
                    found.append(j)
                    left &= ~self._down[j]
                lower.append(tuple(sorted(found)))
                for j in lower[i]:
                    upper[j].append(i)
            self._lower_covers, self._upper_covers = tuple(lower), tuple(map(tuple, upper))
            self._covers = tuple(sorted((j, i) for i in range(self.n) for j in lower[i]))
        return self._covers

    def cover_pairs(self) -> tuple[tuple, ...]:
        return tuple(
            (self._elements[i], self._elements[j]) for i, j in self.cover_index_pairs()
        )

    def lower_cover_indices(self, i: int) -> tuple[int, ...]:
        self.cover_index_pairs()
        return self._lower_covers[i]

    def upper_cover_indices(self, i: int) -> tuple[int, ...]:
        self.cover_index_pairs()
        return self._upper_covers[i]

    def join_irreducible_indices(self) -> tuple[int, ...]:
        """The indices with exactly one lower cover: those whose strict
        downset is principal, i.e. `down[i]` without i is some element's
        down row (that element is then the one lower cover)."""
        rows = set(self._down)
        return tuple(i for i, d in enumerate(self._down) if d & ~(1 << i) in rows)

    def comparable(self, x, y) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def bottom_index(self) -> int:
        full = (1 << self.n) - 1
        lows = [i for i in range(self.n) if self._up[i] == full]
        if len(lows) != 1:
            raise ValueError("poset has no unique bottom")
        return lows[0]

    def top_index(self) -> int:
        full = (1 << self.n) - 1
        highs = [i for i in range(self.n) if self._down[i] == full]
        if len(highs) != 1:
            raise ValueError("poset has no unique top")
        return highs[0]

    def induced(self, indices: Iterable[int]) -> "FinitePoset":
        indices = tuple(indices)
        pos = {old: new for new, old in enumerate(indices)}
        kept = sum(1 << i for i in pos)

        def restrict(mask: int) -> int:
            return sum(1 << pos[j] for j in _bits(mask & kept))

        return FinitePoset(
            tuple(self._elements[i] for i in indices),
            [restrict(self._down[i]) for i in indices],
            [restrict(self._up[i]) for i in indices],
        )

    def downset_masks(self) -> tuple[int, ...]:
        """All downsets as bit masks, sorted by (size, mask); CapExceededError
        once there are more than `DOWNSET_CAP` of them."""
        # Along a linear extension, extending each downset of the prefix by
        # the next element where allowed gives the downsets of the longer one.
        masks = [0]
        for i in sorted(range(self.n), key=lambda i: bin(self._down[i]).count("1")):
            strict = self._down[i] & ~(1 << i)
            masks += [m | 1 << i for m in masks if m & strict == strict]
            if len(masks) > DOWNSET_CAP:
                raise CapExceededError(
                    f"more than {DOWNSET_CAP} downsets of a {self.n}-element poset"
                )
        masks.sort(key=lambda m: (bin(m).count("1"), m))
        return tuple(masks)

    def isomorphism_to(self, other: "FinitePoset") -> dict | None:
        """Backtracking order-isomorphism search, or None."""
        if self.n != other.n:
            return None

        def signature(p: "FinitePoset", i: int):
            return (
                bin(p._down[i]).count("1"),
                bin(p._up[i]).count("1"),
                len(p.lower_cover_indices(i)),
                len(p.upper_cover_indices(i)),
            )

        mine = [signature(self, i) for i in range(self.n)]
        theirs = [signature(other, i) for i in range(other.n)]
        if sorted(mine) != sorted(theirs):
            return None
        candidates = [
            tuple(j for j in range(other.n) if theirs[j] == mine[i])
            for i in range(self.n)
        ]
        order = sorted(range(self.n), key=lambda i: len(candidates[i]))
        assignment: dict[int, int] = {}
        used = set()

        def extend(k: int) -> bool:
            if k == self.n:
                return True
            i = order[k]
            for j in candidates[i]:
                if j in used:
                    continue
                ok = True
                for i2, j2 in assignment.items():
                    if self.leq_by_index(i, i2) != other.leq_by_index(j, j2):
                        ok = False
                        break
                    if self.leq_by_index(i2, i) != other.leq_by_index(j2, j):
                        ok = False
                        break
                if not ok:
                    continue
                assignment[i] = j
                used.add(j)
                if extend(k + 1):
                    return True
                del assignment[i]
                used.remove(j)
            return False

        if not extend(0):
            return None
        return {
            self._elements[i]: other._elements[j] for i, j in assignment.items()
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        if set(self._elements) != set(other._elements):
            return False
        return all(
            self.leq(x, y) == other.leq(x, y)
            for x in self._elements
            for y in self._elements
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FinitePoset(n={self.n})"
