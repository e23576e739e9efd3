"""Induced decompositions of dense graphs into complete multipartite patterns.

The package builds, from first principles, the combinatorial toolchain
for decomposing graphs into vertex-disjoint-by-edges induced copies of a
complete multipartite pattern K_{a1,...,ak}:

- finite fields and mutually orthogonal Latin squares (`gf`, `designs`),
- transversal designs and their verification (`designs`),
- the blow-up construction that decomposes K_{m a1,...,m ak} (`blowup`),
- balanced blow-ups carrying an embedded decomposition (`embedded`),
- dense n-vertex host graphs that decompose for every large n in an
  admissible congruence class (`dense`),
- a brute-force oracle for small cases (`oracle`).
"""

from __future__ import annotations

from .blowup import (
    Codeword,
    Decomposition,
    FCopy,
    MultipartiteHost,
    PatternSignature,
    SamePart,
    UnsupportedPattern,
    blowup_decompose,
    decomposition_from_json,
    edge_to_copy,
    make_context,
)
from .dense import (
    DenseCertificate,
    DenseParameters,
    NoFeasibleParameters,
    admissible_period,
    assemble,
    choose_parameters,
    divisibility_check,
)
from .designs import (
    LatinSquare,
    MolsFamily,
    TransversalDesign,
    UnsupportedOrder,
    cyclic_latin,
    macneish,
    mols,
    mols_prime_power,
    mols_product,
    td_from_json,
    td_from_mols,
    verify_td,
)
from .embedded import (
    EmbeddedDecomposition,
    SearchExhausted,
    embedded_decompose,
    star_parameters,
    verify_embedded,
)
from .gf import GaloisField, NotPrimePower, galois_field, is_prime_power
from .oracle import (
    BudgetExceeded,
    NoDecomposition,
    SearchBudget,
    SmallGraph,
    cex_exact,
    complete_graph,
    enumerate_copies,
    exact_cover_decompose,
    multipartite_graph,
    non_neighbor_check,
    verify_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Codeword",
    "Decomposition",
    "DenseCertificate",
    "DenseParameters",
    "EmbeddedDecomposition",
    "FCopy",
    "GaloisField",
    "LatinSquare",
    "MolsFamily",
    "MultipartiteHost",
    "NoDecomposition",
    "NoFeasibleParameters",
    "NotPrimePower",
    "PatternSignature",
    "SamePart",
    "SearchBudget",
    "SearchExhausted",
    "SmallGraph",
    "TransversalDesign",
    "UnsupportedOrder",
    "UnsupportedPattern",
    "admissible_period",
    "assemble",
    "blowup_decompose",
    "cex_exact",
    "choose_parameters",
    "complete_graph",
    "cyclic_latin",
    "decomposition_from_json",
    "divisibility_check",
    "edge_to_copy",
    "embedded_decompose",
    "enumerate_copies",
    "exact_cover_decompose",
    "galois_field",
    "is_prime_power",
    "macneish",
    "make_context",
    "mols",
    "mols_prime_power",
    "mols_product",
    "multipartite_graph",
    "non_neighbor_check",
    "star_parameters",
    "td_from_json",
    "td_from_mols",
    "verify_decomposition",
    "verify_embedded",
    "verify_td",
]
