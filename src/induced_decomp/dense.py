"""Decomposing dense host graphs into induced pattern copies.

For a pattern F = K_{a1,...,ak} the pipeline produces, for a target
vertex count n, a graph G on n vertices that misses only O(n) of the
edges of K_n yet decomposes into induced copies of F:

  1. write n = n'*p + t, where p is the smallest usable multiplier (a
     multiple of a1*...*ak whose designs exist), n' is the largest value
     at or below n/p that meets the two counting conditions for clique
     decomposability and that step 2 certifies (choose_parameters says
     where this fails), and t < p*q is the leftover (q is the period of
     the admissible n' values);
  2. decompose K_{n'} into edge-disjoint, generally non-induced copies
     of F by _step_one: constructions first (K_{a,b} for n' = 1 mod 2ab,
     triangles for n' = 1, 3 mod 6; capped by PAIR_CAP), then exact-cover
     search for the rest, up to oracle.ENUMERATE_CAP vertices, cached per n';
  3. transport every K_{n'} copy with embedded.transport, the one place
     where copies are cut into cells: vertex v stands for the
     independent p-set {(v-1)*p + 1, ..., v*p}, so the p-sets form the
     complete multipartite graph K_{p,...,p} with n' parts; class i of
     the copy is cut into p cells of a_i consecutive vertices, and the
     blocks of one TD(k, p) pick cells to give p**2 induced copies; the
     copies stay one int array (a CopyArray) through verification and
     JSON emit, while Decomposition.copies indexing gives FCopy objects;
  4. append t isolated vertices.

The non-edges of the result are the within-p-set pairs plus everything
at the isolated vertices: n'*C(p,2) + C(t,2) + t*(n-t) of them, always
fewer than (p*q + p/2)*n.  Every certificate is re-verified on its host
descriptor by the independent checker in oracle before it is returned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import designs, oracle
from .blowup import Decomposition, MultipartiteHost, PatternSignature, host_pairs
from .embedded import star_parameters, transport
from .oracle import BudgetExceeded, CapExceeded, NoDecomposition, SearchBudget

__all__ = [
    "DenseCertificate",
    "DenseParameters",
    "InternalInvariant",
    "NON_EDGE_CAP",
    "NoFeasibleParameters",
    "PAIR_CAP",
    "admissible_period",
    "assemble",
    "choose_parameters",
    "divisibility_check",
]

NON_EDGE_CAP = 10**6
PAIR_CAP = 4 * 10**6  # most vertex pairs assemble verifies from a constructed step 1


class NoFeasibleParameters(ValueError):
    """No certified parameter split exists for this n (within budget)."""


class InternalInvariant(RuntimeError):
    """A property the construction guarantees failed to hold; this is a bug."""


@dataclass(frozen=True)
class DenseParameters:
    """The split n = n'*p + t with n' = s*q + r."""

    n: int
    p: int
    q: int
    r: int
    s: int
    t: int
    n_prime: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DenseCertificate:
    params: DenseParameters
    decomposition: Decomposition
    non_edge_count: int
    bound_rhs: float

    def to_json_dict(self, arrays: bool = False) -> dict:
        """The certificate as JSON values: non-edges read off the host and
        listed up to NON_EDGE_CAP, structurally above it; with arrays,
        non-edges and copies stay arrays."""
        host = self.decomposition.host
        if self.non_edge_count <= NON_EDGE_CAP:
            non_edges: object = np.column_stack(host_pairs(host, False))
            non_edges = non_edges if arrays else non_edges.tolist()
        else:
            non_edges = {
                "structural": {
                    "psets": len(host.parts),
                    "p": self.params.p,
                    "isolated": host.isolated,
                    "count": self.non_edge_count,
                }
            }
        return {
            "n": self.params.n,
            "pattern": list(self.decomposition.pattern.parts),
            "params": self.params.to_json_dict(),
            "non_edges": non_edges,
            "copies": self.decomposition.to_json_dict(arrays)["copies"],
            "bound": {"lhs": self.non_edge_count, "rhs": self.bound_rhs},
        }


def _degree_gcd(pattern: PatternSignature) -> int:
    total = pattern.order
    return functools.reduce(math.gcd, (total - a for a in pattern.parts))


def divisibility_check(pattern: PatternSignature, n_prime: int) -> bool:
    """The two counting conditions for K_{n'} to split into pattern copies:
    the edge count of the pattern divides C(n', 2), and every vertex
    degree n'-1 is a multiple of the gcd of the pattern's class degrees."""
    pairs = n_prime * (n_prime - 1) // 2
    return pairs % pattern.edge_count == 0 and (n_prime - 1) % _degree_gcd(pattern) == 0


@functools.lru_cache(maxsize=128)
def admissible_period(pattern: PatternSignature) -> tuple[int, tuple[int, ...]]:
    """Period q and residues r mod q of the n' passing divisibility_check.

    The conditions are periodic in n' with period dividing
    lcm(2*|E(F)|, d); the returned q is the smallest period of the
    admissible set.
    """
    e = pattern.edge_count
    d = _degree_gcd(pattern)
    span = math.lcm(2 * e, d)
    admissible = {x for x in range(span) if divisibility_check(pattern, x)}
    for q in range(1, span + 1):
        if span % q == 0 and all((x + q) % span in admissible for x in admissible):
            return q, tuple(sorted({x % q for x in admissible}))
    raise AssertionError("unreachable: span itself is always a period")


@functools.lru_cache(maxsize=128)
def _clique_search(pattern: PatternSignature, n_prime: int, budget: SearchBudget) -> np.ndarray | str:
    """Edge-disjoint pattern copies tiling K_{n'} (not necessarily induced)
    as the int rows of their CopyArray, or the text of the failure its
    search raised; CapExceeded is raised before K_{n'} is built."""
    oracle.check_caps(n_prime, pattern)
    try:
        found = oracle.exact_cover_decompose(
            oracle.complete_graph(n_prime), pattern, induced=False, budget=budget
        )
    except (NoDecomposition, BudgetExceeded) as exc:
        return str(exc)
    return found.copies.rows


def _step_one(
    pattern: PatternSignature, n_prime: int, budget: SearchBudget, p: int
) -> np.ndarray | tuple[str, bool]:
    """Rows of pattern copies tiling K_{n'}: a construction where one applies,
    search for the rest, else why none did and whether a size cap was why.
    Constructions are not cached; one that assemble would check on more than
    PAIR_CAP vertex pairs is refused, and its refusal stands if search fails."""
    cap, rows, refused = PAIR_CAP // (p * p * math.comb(pattern.order, 2)), None, None
    try:
        if pattern.k == 2:
            rows = designs.alpha_valuation_rows(*pattern.parts, n_prime, cap)
        elif pattern.parts == (1, 1, 1):
            rows = designs.steiner_triple_rows(n_prime, cap)
    except designs.CountExceedsBound as exc:
        refused = str(exc)
    if rows is not None:
        return rows
    try:
        found = _clique_search(pattern, n_prime, budget)
    except CapExceeded as exc:
        return refused or str(exc), True
    if isinstance(found, np.ndarray):
        return found
    return (refused, True) if refused else (found, False)


def choose_parameters(
    pattern: PatternSignature, n: int, budget: SearchBudget = SearchBudget()
) -> DenseParameters:
    """Pick p, q and the largest certified n' with t = n - n'*p below p*q.

    The t-bound confines n' to a window of q consecutive values ending at
    floor(n/p), tried from the top at each n' of admissible residue mod q
    (one always exists once n >= p) through _step_one.  When none is
    certified, CapExceeded naming each n' with its cap is raised when all
    were refused for a size cap (exit 2), else NoFeasibleParameters names
    each n' with its outcome: proven none, out of budget, or over a cap with
    no construction.  Small n often gets the vacuous n' = 1 (see README).
    """
    return _choose(pattern, n, budget)[0]


def _choose(
    pattern: PatternSignature, n: int, budget: SearchBudget
) -> tuple[DenseParameters, np.ndarray]:
    """choose_parameters' split, with the step-1 rows that certify its n'."""
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    p = star_parameters(pattern)
    q, residues = admissible_period(pattern)
    top = n // p
    failures = []
    for n_prime in range(top, max(1, top - q + 1) - 1, -1):
        if n_prime % q not in residues:
            continue
        found = _step_one(pattern, n_prime, budget, p)
        if isinstance(found, tuple):
            failures.append((n_prime, *found))
            continue
        t = n - n_prime * p
        if not 0 <= t <= p * q - 1:
            raise InternalInvariant(
                f"leftover t = {t} escaped [0, {p * q - 1}] for n = {n}, n' = {n_prime}"
            )
        params = DenseParameters(n=n, p=p, q=q, r=n_prime % q, s=n_prime // q, t=t, n_prime=n_prime)
        return params, found
    detail = "; ".join(f"K_{n_prime}: {text}" for n_prime, text, _ in failures)
    if failures and all(capped for *_, capped in failures):
        raise CapExceeded(detail)
    detail = f" ({detail})" if failures else f": n is below the multiplier p = {p}, so no n' >= 1 fits"
    raise NoFeasibleParameters(
        f"no certified clique order for pattern {pattern.parts} and n = {n}{detail}"
    )


def assemble(
    pattern: PatternSignature, n: int, budget: SearchBudget = SearchBudget()
) -> DenseCertificate:
    """Run the full pipeline for n vertices and return a verified certificate.

    The certificate's decomposition lives on the host of n'*p vertices in
    independent p-sets plus t isolated vertices at the top ids; its copy
    list is ordered by (K_{n'} copy, underlying block).  The non-edge count
    is the formula's, checked against the host's edge count.
    """
    params, rows = _choose(pattern, n, budget)
    p, t, n_prime = params.p, params.t, params.n_prime
    copies = transport(pattern, p, rows)
    host = MultipartiteHost(parts=(p,) * n_prime, isolated=t)
    decomposition = Decomposition(host=host, pattern=pattern, copies=copies, induced=True)

    expected_non_edges = (
        n_prime * (p * (p - 1) // 2) + t * (t - 1) // 2 + t * (n - t)
    )
    if (missing := math.comb(n, 2) - host.edge_count) != expected_non_edges:
        raise InternalInvariant(f"host has {missing} non-edges, formula gives {expected_non_edges}")
    bound_rhs_doubled = p * (2 * params.q + 1) * n
    if 2 * expected_non_edges >= bound_rhs_doubled:
        raise InternalInvariant(
            f"{expected_non_edges} non-edges is not below (p*q + p/2)*n = {bound_rhs_doubled / 2}"
        )
    violations = oracle.verify_decomposition(host, pattern, decomposition.copies, induced=True)
    if violations:
        raise InternalInvariant(f"assembled decomposition failed verification: {violations[0]}")
    return DenseCertificate(
        params=params,
        decomposition=decomposition,
        non_edge_count=expected_non_edges,
        bound_rhs=bound_rhs_doubled / 2,
    )