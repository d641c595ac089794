"""Exact finite-order dimension and dichromatic-number toolkit.

Core objects: quasi orders over bit-row relation matrices, their pair
digraphs, acyclic covers, extension families, branching-tree digraphs,
and certificate campaigns tying the solvers to independent checkers.

Exports load lazily (PEP 562): `import orderdim` loads no submodule, and
the first use of an exported name imports only the submodule that
defines it, so a cold `orderdim` command pays only for what it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in (
        ("check", "realizer_oracle"),
        (
            "digraphs",
            "Cycle Digraph HomCheck HomWitness digraph find_homomorphism "
            "is_acyclic is_minimal_cycle minimal_cycles scc_decompose "
            "verify_cycle verify_homomorphism",
        ),
        (
            "errors",
            "BadPair CycleInX IncompleteFamily IndexOutOfRange InvalidCover "
            "LimitExceeded NotADigraph NotAGraph NotExtension NotQuasiOrder "
            "NotStrictOrder OrderdimError SizeMismatch TooLarge",
        ),
        (
            "generate",
            "antichain_order bidirected_clique boolean_order chain_order "
            "crown_order directed_cycle enumerate_posets random_digraph "
            "random_order random_quasi random_symmetric",
        ),
        (
            "reduction",
            "AcyclicCover ExtensionFamily check_cover cover_to_extensions "
            "critical_pair_digraph extend_by_pairs extend_by_separator "
            "extension_pairs extensions_to_cover family_from_separators "
            "pair_digraph prefix_separators two_level_order undecided_pair",
        ),
        (
            "relations",
            "QuasiOrder QuotientPoset StrictOrder down_set_sizes extends "
            "linear_extension quasi_order quotient",
        ),
        ("rng", "SplitMix64"),
        (
            "selectors",
            "canonical_cycles dense_selector density_report level_edge_count "
            "monotone_counterexample nth_sequence prefix_monotone "
            "selector_digraph sequence_index",
        ),
        (
            "solvers",
            "DEFAULT_SEARCH_BUDGET DicrResult DimResult chromatic_number "
            "dichromatic_number order_dimension",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
