"""Deterministic JSON payloads and Graphviz DOT text for the key objects.

Everything here is a pure function of its arguments: no timestamps, no
environment lookups, stable ordering.  Writing the same object twice must
produce identical bytes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterator

from .core import codes_text
from .cube import chi_lattice, hairy_cube_recursive
from .homsets import HomSet
from .posets import FinitePoset
from .relations import (
    canonical_name,
    enumerate_congruences,
    enumerate_subalgebras,
)

SCHEMA = 1


def json_chunks(payload: dict) -> Iterator[str]:
    """`json.dumps(payload, indent=2, ensure_ascii=False) + "\\n"` in pieces of at
    most one string each, escaping each distinct string once (json's indenting
    encoder escapes it at every occurrence).  A string that needs no escape
    goes out as itself between two quote chunks, never copied, so the
    document's table texts are the tables' own `str()` memos.  The pieces are
    made as they are read, in batches of 64 or more, so the document's whole
    list of pieces is never held.  Non-string keys raise TypeError once read.
    `json` is imported here, so text requests do not load it."""
    import json

    out, encode = [], json.encoder.encode_basestring

    @lru_cache(maxsize=None)
    def quoted(text: str) -> tuple[str, ...]:
        escaped = encode(text)
        # each escape lengthens the text, so equal lengths mean none was made
        return ('"', text, '"') if len(escaped) == len(text) + 2 else (escaped,)

    def emit(value, indent: str) -> Iterator[list[str]]:
        """Append value's pieces to out; after an item of a dict or list that
        leaves 64 pieces or more there, yield out and start a new one."""
        nonlocal out
        is_dict = isinstance(value, dict)
        if not (value and (is_dict or isinstance(value, (list, tuple)))):
            out.extend(quoted(value) if isinstance(value, str) else (json.dumps(value),))
            return
        inner, sep = indent + "  ", "{" if is_dict else "["
        for key, item in value.items() if is_dict else enumerate(value):
            out.append(f"{sep}{inner}{''.join(quoted(key))}: " if is_dict else sep + inner)
            if isinstance(item, str):  # inline, not a generator per string
                out.extend(quoted(item))
            else:
                yield from emit(item, inner)
            sep = ","
            if len(out) >= 64:
                yield out
                out = []
        out.append(indent + ("}" if is_dict else "]"))

    def batches() -> Iterator[list[str]]:
        yield from emit(payload, "\n")
        yield [*out, "\n"]

    return chain.from_iterable(batches())


def dumps(payload: dict) -> str:
    """The whole document as one string; the command line writes the chunks."""
    return "".join(json_chunks(payload))


def _quote(label: str) -> str:
    """label as a DOT string: backslashes first, so a quote's escape stays whole."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _poset_dot(name: str, poset: FinitePoset, labels: list[str], filled=()) -> list[str]:
    """The Hasse diagram's lines, bottom up; the indices in `filled` are shaded."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    for i, label in enumerate(labels):
        shade = ', style="filled", fillcolor="lightgrey"' if i in filled else ""
        lines.append(f"  n{i} [label={_quote(label)}{shade}];")
    lines.extend(f"  n{i} -> n{j};" for i, j in poset.cover_index_pairs())
    lines.append("}")
    return lines


def homset_payload(homset: HomSet, variant: str, method: str) -> dict:
    arity = homset.source.arity
    return {
        "schema": SCHEMA,
        "object": "hom-set",
        "arity": arity,
        "variant": variant,
        "method": method,
        "count": len(homset),
        "maps": [codes_text(m) for m in homset.maps],
    }


def homset_text(homset: HomSet, variant: str, method: str) -> list[str]:
    payload = homset_payload(homset, variant, method)
    lines = [
        f"hom-set: arity {payload['arity']}, variant {variant}, "
        f"{payload['count']} maps ({method})"
    ]
    lines.extend(payload["maps"])
    return lines


def _poset_payload(poset: FinitePoset, labels: list[str]) -> dict:
    return {
        "nodes": labels,
        "covers": [
            [labels[i], labels[j]] for i, j in poset.cover_index_pairs()
        ],
    }


def subalgebras_payload() -> dict:
    lat = enumerate_subalgebras()
    return {
        "schema": SCHEMA,
        "object": "subalgebra-lattice",
        "count": len(lat.elements),
        "nodes": [
            {
                "name": canonical_name(r),
                "size": len(r),
                "pairs": [f"({a},{b})" for a, b in r.pairs()],
            }
            for r in lat.elements
        ],
        "covers": [
            [canonical_name(a), canonical_name(b)] for a, b in lat.cover_pairs()
        ],
    }


def subalgebras_dot() -> list[str]:
    lat = enumerate_subalgebras()
    return _poset_dot("subalgebras", lat, [canonical_name(r) for r in lat.elements])


def congruences_payload() -> dict:
    lat = enumerate_congruences()
    labels = [canonical_name(c) for c in lat.elements]
    return {
        "schema": SCHEMA,
        "object": "congruence-lattice",
        "count": lat.n,
        **_poset_payload(lat, labels),
    }


def congruences_dot() -> list[str]:
    lat = enumerate_congruences()
    return _poset_dot("congruences", lat, [canonical_name(c) for c in lat.elements])


def chi_payload(n: int) -> dict:
    lat = chi_lattice(n)
    ji = set(lat.join_irreducible_indices())
    labels = [str(t) for t in lat.elements]
    return {
        "schema": SCHEMA,
        "object": "hom-lattice",
        "arity": n,
        "count": lat.n,
        "join_irreducible": sorted(str(lat.elements[i]) for i in ji),
        **_poset_payload(lat, labels),
    }


def chi_dot(n: int) -> list[str]:
    lat = chi_lattice(n)
    labels = [str(t) for t in lat.elements]
    return _poset_dot(f"hom_lattice_{n}", lat, labels, set(lat.join_irreducible_indices()))


def hairy_cube_payload(n: int) -> dict:
    cube = hairy_cube_recursive(n)
    return {
        "schema": SCHEMA,
        "object": "hairy-cube",
        "dimension": n,
        "count": cube.n,
        "nodes": [
            {
                "table": str(e.table),
                "label": e.label,
                "kind": "base" if e.is_base else "hair",
            }
            for e in cube.elements
        ],
        "covers": [
            [str(a.table), str(b.table)] for a, b in cube.cover_pairs()
        ],
    }


def hairy_cube_dot(n: int) -> list[str]:
    cube = hairy_cube_recursive(n)
    base = {i for i, e in enumerate(cube.elements) if e.is_base}
    return _poset_dot(f"hairy_cube_{n}", cube, [e.label for e in cube.elements], base)


RENDERABLES = {
    "chi": (chi_payload, chi_dot, True),
    "subalgebras": (subalgebras_payload, subalgebras_dot, False),
    "congruences": (congruences_payload, congruences_dot, False),
    "hairy-cube": (hairy_cube_payload, hairy_cube_dot, True),
}
