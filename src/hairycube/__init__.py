"""Exact finite computations around the three-element chain 0 < h < 1.

The library enumerates structure-preserving maps of powers of the chain,
extracts join-irreducible elements of the resulting lattices, builds the
cube-with-hairs posets that classify them, and checks the duality-style
facts (optimality of the relation set, classification of partial
operations, evaluation isomorphisms) by exhaustive search.

Each library module is registered in `sys.modules` here but runs only when
first used, so a command compiles only the modules it runs; the exported
names below resolve through the module that defines them.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# Every library module, with the names the package exports from it.  `cli`
# is left out: `python -m hairycube.cli` runs it and must find it unloaded.
_EXPORTS = {
    "core": "ELEMENTS Element H ONE TritTable ZERO all_tuples bar join meet nu_term semiring_add",
    "posets": "CapExceededError FinitePoset",
    "relations": "R1 R2 R3 BinaryRelation PartialOp enumerate_congruences"
                 " enumerate_subalgebras is_subuniverse",
    "homsets": "HomSet StructuredSpace clone_closure enumerate_homs_bruteforce lift",
    "cube": "JIElement PartiallyStoneSpaceFinite chi_lattice eval_polynomial extracted_hairy_cube"
            " hairy_cube_recursive polynomial_form polynomial_label pss_homeomorphism"
            " verify_hairy_cube",
    "duality": "LAMBDA1 LAMBDA2 VARIANTS classify_partial_homs entailment_lambda1"
               " evaluation_map_check ftc_check homs_for_variant optimality_witnesses"
               " persistence_check",
    "render": "",
    "verify": "SUITES run_suite",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_HOME, "__version__"]

for _module in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_module}")
    _spec.loader = LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name: str):
    if name in _HOME:
        return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
