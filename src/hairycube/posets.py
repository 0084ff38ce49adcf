"""Small finite posets over explicit element tuples.

The package's orders are inclusions of bit masks (table planes, relation
masks, cube coordinates, opens), built by `from_masks`; `from_leq` takes any
relation and serves as the reference.  Order rows are bit masks too, which
keeps covers and downsets cheap.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinitePoset:
    """Finite poset; `down[i]` is the bit mask of indices weakly below i.

    The rows are taken as given: `from_masks` and `induced` give partial
    orders by construction, and `from_leq` checks the relation it is given.
    """

    def __init__(self, elements: Sequence, down: Sequence[int]):
        self._elements = tuple(elements)
        self._down = tuple(down)
        self._index = {e: i for i, e in enumerate(self._elements)}
        if len(self._index) != len(self._elements):
            raise ValueError("duplicate elements")
        if len(self._down) != len(self._elements):
            raise ValueError("order rows do not match the element count")
        n = len(self._elements)
        self._up = [0] * n
        for i in range(n):
            for j in _bits(self._down[i]):
                self._up[j] |= 1 << i
        self._up = tuple(self._up)
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
        down = []
        for x in elements:
            mask = 0
            for j, y in enumerate(elements):
                if leq(y, x):
                    mask |= 1 << j
            down.append(mask)
        poset = cls(elements, down)
        poset._check_partial_order()
        return poset

    @classmethod
    def from_masks(cls, elements: Sequence, masks: Sequence[int]):
        """x <= y iff masks[x] & ~masks[y] == 0: a partial order unless two
        masks are equal, which raises ValueError."""
        masks = tuple(masks)
        if len(set(masks)) != len(masks):
            raise ValueError("equal masks: inclusion is not antisymmetric")
        down = [
            sum(1 << j for j, x in enumerate(masks) if not x & outside)
            for outside in [~m for m in masks]
        ]
        return cls(elements, down)

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
                strict = self._down[i] & ~(1 << i)
                lower.append(tuple(j for j in _bits(strict) if self._up[j] & ~(1 << j) & strict == 0))
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
        return tuple(
            i for i in range(self.n) if len(self.lower_cover_indices(i)) == 1
        )

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
        down = []
        for i in indices:
            mask = 0
            for j in _bits(self._down[i]):
                if j in pos:
                    mask |= 1 << pos[j]
            down.append(mask)
        return FinitePoset(tuple(self._elements[i] for i in indices), down)

    def downset_masks(self) -> tuple[int, ...]:
        """All downsets as bit masks, sorted by (size, mask)."""
        if self.n > 20:
            raise ValueError("downset enumeration capped at 20 elements")
        # Along a linear extension, extending each downset of the prefix by
        # the next element where allowed gives the downsets of the longer one.
        masks = [0]
        for i in sorted(range(self.n), key=lambda i: bin(self._down[i]).count("1")):
            strict = self._down[i] & ~(1 << i)
            masks += [m | 1 << i for m in masks if m & strict == strict]
        masks.sort(key=lambda m: (bin(m).count("1"), m))
        return tuple(masks)

    def downsets(self) -> tuple[frozenset, ...]:
        return tuple(
            frozenset(self._elements[i] for i in _bits(m))
            for m in self.downset_masks()
        )

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
