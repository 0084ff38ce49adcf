"""Deterministic JSON payloads and Graphviz DOT text for the key objects.

Everything here is a pure function of its arguments: no timestamps, no
environment lookups, stable ordering.  Writing the same object twice must
produce identical bytes.
"""

from __future__ import annotations

import json

from .cube import chi_lattice, hairy_cube_recursive
from .homsets import HomSet
from .posets import FinitePoset
from .relations import (
    canonical_name,
    enumerate_congruences,
    enumerate_subalgebras,
)

SCHEMA = 1


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=False) + "\n"


def _quote(label: str) -> str:
    return '"' + label.replace('"', '\\"') + '"'


def _dot_digraph(
    name: str,
    nodes: list[tuple[str, dict[str, str]]],
    edges: list[tuple[str, str]],
) -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    for node_id, attrs in nodes:
        inner = ", ".join(f"{k}={_quote(v)}" for k, v in attrs.items())
        lines.append(f"  {node_id} [{inner}];")
    for lo, hi in edges:
        lines.append(f"  {lo} -> {hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def homset_payload(homset: HomSet, variant: str, method: str) -> dict:
    arity = homset.source.arity
    return {
        "schema": SCHEMA,
        "object": "hom-set",
        "arity": arity,
        "variant": variant,
        "method": method,
        "count": len(homset),
        "maps": [
            "".join(str(v) for v in m) for m in homset.maps
        ],
    }


def homset_text(homset: HomSet, variant: str, method: str) -> str:
    payload = homset_payload(homset, variant, method)
    lines = [
        f"hom-set: arity {payload['arity']}, variant {variant}, "
        f"{payload['count']} maps ({method})"
    ]
    lines.extend(payload["maps"])
    return "\n".join(lines) + "\n"


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


def subalgebras_dot() -> str:
    lat = enumerate_subalgebras()
    nodes = [
        (f"n{i}", {"label": canonical_name(r)}) for i, r in enumerate(lat.elements)
    ]
    edges = [(f"n{i}", f"n{j}") for i, j in lat.cover_index_pairs()]
    return _dot_digraph("subalgebras", nodes, edges)


def congruences_payload() -> dict:
    lat = enumerate_congruences()
    labels = [canonical_name(c) for c in lat.elements]
    return {
        "schema": SCHEMA,
        "object": "congruence-lattice",
        "count": lat.n,
        **_poset_payload(lat, labels),
    }


def congruences_dot() -> str:
    lat = enumerate_congruences()
    nodes = [
        (f"n{i}", {"label": canonical_name(c)}) for i, c in enumerate(lat.elements)
    ]
    edges = [(f"n{i}", f"n{j}") for i, j in lat.cover_index_pairs()]
    return _dot_digraph("congruences", nodes, edges)


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


def chi_dot(n: int) -> str:
    lat = chi_lattice(n)
    ji = set(lat.join_irreducible_indices())
    nodes = []
    for i, t in enumerate(lat.elements):
        attrs = {"label": str(t)}
        if i in ji:
            attrs["style"] = "filled"
            attrs["fillcolor"] = "lightgrey"
        nodes.append((f"n{i}", attrs))
    edges = [(f"n{i}", f"n{j}") for i, j in lat.cover_index_pairs()]
    return _dot_digraph(f"hom_lattice_{n}", nodes, edges)


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


def hairy_cube_dot(n: int) -> str:
    cube = hairy_cube_recursive(n)
    nodes = []
    for i, e in enumerate(cube.elements):
        attrs = {"label": e.label}
        if e.is_base:
            attrs["style"] = "filled"
            attrs["fillcolor"] = "lightgrey"
        nodes.append((f"n{i}", attrs))
    edges = [
        (f"n{i}", f"n{j}") for i, j in cube.cover_index_pairs()
    ]
    return _dot_digraph(f"hairy_cube_{n}", nodes, edges)


RENDERABLES = {
    "chi": (chi_payload, chi_dot, True),
    "subalgebras": (subalgebras_payload, subalgebras_dot, False),
    "congruences": (congruences_payload, congruences_dot, False),
    "hairy-cube": (hairy_cube_payload, hairy_cube_dot, True),
}
