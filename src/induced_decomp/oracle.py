"""Brute-force search and verification for pattern decompositions.

The pattern is a complete multipartite graph K_{a1,...,ak}.  A copy of
the pattern in a host graph G is a k-tuple of disjoint vertex classes
with |class i| = a_i and every cross-class pair adjacent; an induced
copy additionally has every class independent in G.  A decomposition is
a set of copies whose edge sets partition E(G).

Everything here is deliberately independent of the constructive modules
so that their outputs can be checked against plain search:

  * enumerate_copies lists every copy placement once (copies that differ
    only by swapping equal-size classes or reordering inside a class are
    identified).
  * exact_cover_decompose finds a decomposition by backtracking that
    always branches on the lexicographically smallest uncovered edge, with
    candidates in lexicographic class order, so results are reproducible.
    Exhausting the tree is a proof that no decomposition exists.
  * cex_exact computes, for small n, the minimum number of edges that
    must be deleted from K_n to leave a decomposable graph, together
    with a witness graph.

Vertices are 1-based everywhere in the public interface.  The search
reads adjacency only through per-vertex bitmask rows and numbers edge
(u, v), u < v, by the pair bit (u - 1) * n + v - 1.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .blowup import Decomposition, FCopy, MultipartiteHost, PatternSignature

__all__ = [
    "BudgetExceeded",
    "CapExceeded",
    "NoDecomposition",
    "SearchBudget",
    "SmallGraph",
    "canonical_form",
    "cex_exact",
    "complete_graph",
    "edge_list_text",
    "enumerate_copies",
    "exact_cover_decompose",
    "multipartite_graph",
    "non_neighbor_check",
    "verify_decomposition",
]

# Largest graph order for copy enumeration (hence exact cover) and for cex_exact.
ENUMERATE_CAP = 40
CEX_CAP = 8


class CapExceeded(ValueError):
    """Input is beyond the size this exhaustive method is meant for."""


class NoDecomposition(Exception):
    """The search space was exhausted: provably no decomposition exists."""


class BudgetExceeded(Exception):
    """The search gave up before exhausting the space: existence is unknown."""


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 2_000_000
    max_seconds: float = 120.0


@dataclass(frozen=True, eq=False)
class SmallGraph:
    """Simple undirected graph on vertices 1..n with bitmask adjacency rows,
    trusted to be symmetric (from_edges and the constructors build them so)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError(f"row {i + 1} references vertices beyond {self.n}")
            if row >> i & 1:
                raise ValueError(f"vertex {i + 1} has a self-loop")

    @classmethod
    def from_edges(cls, n: int, edges) -> SmallGraph:
        rows = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for {n} vertices")
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
        return cls(n=n, rows=tuple(rows))

    @property
    def order(self) -> int:
        return self.n

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u - 1] >> (v - 1) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v - 1].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(1, self.n + 1):
            row = self.rows[u - 1] >> u
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return out

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def to_edge_list_text(self) -> str:
        return edge_list_text(self)

    @classmethod
    def from_edge_list_text(cls, text: str) -> SmallGraph:
        edges = []
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                # On ASCII without "+" or "_", int() accepts exactly json_int's
                # -?[0-9]+, at a third of the cost of json_int per id.
                if not line.isascii() or "+" in line or "_" in line:
                    raise ValueError
                u, v = line.split()
                edges.append((int(u), int(v)))
            except ValueError:
                raise ValueError(f"line {number}: expected 'u v', got {line!r}") from None
        n = max((max(e) for e in edges), default=0)
        return cls.from_edges(n, edges)


def edge_list_text(g: SmallGraph | MultipartiteHost) -> str:
    """One "u v" line per edge, in lexicographic order."""
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def complete_graph(n: int) -> SmallGraph:
    full = (1 << n) - 1
    return SmallGraph(n=n, rows=tuple(full ^ (1 << i) for i in range(n)))


def multipartite_graph(host: MultipartiteHost) -> SmallGraph:
    """Adjacency realization of a host descriptor (isolated vertices last)."""
    n = host.order
    rows = [0] * n
    for u, v in host.edges():
        rows[u - 1] |= 1 << (v - 1)
        rows[v - 1] |= 1 << (u - 1)
    return SmallGraph(n=n, rows=tuple(rows))


def _graph_host(g: SmallGraph) -> MultipartiteHost:
    """Generic host descriptor for an arbitrary graph: singleton parts plus
    an explicit list of the missing pairs."""
    non_edges = tuple(
        (u, v)
        for u in range(1, g.n + 1)
        for v in range(u + 1, g.n + 1)
        if not g.has_edge(u, v)
    )
    return MultipartiteHost(parts=(1,) * g.n, non_edges=non_edges)


def enumerate_copies(
    g: SmallGraph, pattern: PatternSignature, induced: bool
) -> list[tuple[tuple[int, ...], ...]]:
    """All placements of the pattern in g, each exactly once, in
    lexicographic class order.

    A placement is a k-tuple of sorted vertex tuples.  Classes of equal
    size are interchangeable, so among positions holding the same size
    the class tuples are required to increase lexicographically; this
    picks one representative per placement.
    """
    if g.n > ENUMERATE_CAP:
        raise CapExceeded(f"enumeration capped at {ENUMERATE_CAP} vertices, graph has {g.n}")
    k = pattern.k
    parts = pattern.parts
    rows = g.rows
    # Each class must exceed the class at twin[pos], the last earlier position
    # of the same size; () sorts below every class.
    twin = [max((q for q in range(i) if parts[q] == a), default=None) for i, a in enumerate(parts)]
    results: list[tuple[tuple[int, ...], ...]] = []
    chosen: list[tuple[int, ...]] = []

    def rec(pos: int, used: int, common: int):
        if pos == k:
            results.append(tuple(chosen))
            return
        avail_mask = common & ~used
        avail = [v + 1 for v in range(g.n) if avail_mask >> v & 1]
        floor = () if twin[pos] is None else chosen[twin[pos]]
        for combo in itertools.combinations(avail, parts[pos]):
            if combo <= floor:
                continue
            mask = reach = 0
            new_common = common
            for v in combo:
                mask |= 1 << (v - 1)
                new_common &= rows[v - 1]
                reach |= rows[v - 1]
            if induced and reach & mask:
                continue
            chosen.append(combo)
            rec(pos + 1, used | mask, new_common)
            chosen.pop()

    rec(0, 0, (1 << g.n) - 1)
    return results


def exact_cover_decompose(
    g: SmallGraph,
    pattern: PatternSignature,
    induced: bool,
    budget: SearchBudget = SearchBudget(),
) -> Decomposition:
    """Partition E(g) into pattern copies by deterministic backtracking.

    Branches on the lexicographically smallest uncovered edge, trying
    candidates in lexicographic class order.  Raises NoDecomposition when
    the exhausted tree proves none exists, BudgetExceeded when the budget
    ran out first.
    """
    edges = g.edge_count
    if edges % pattern.edge_count != 0:
        raise NoDecomposition(
            f"{edges} edges is not a multiple of the pattern's {pattern.edge_count}"
        )
    if not edges:
        return Decomposition(host=_graph_host(g), pattern=pattern, copies=(), induced=induced)
    candidates = enumerate_copies(g, pattern, induced)
    # Edge (u, v), u < v, is bit (u - 1) * n + v - 1, so the lowest bit of an
    # edge set is its lexicographically smallest edge.
    n = g.n
    full = sum(row >> (i + 1) << (i * n + i + 1) for i, row in enumerate(g.rows))
    masks = []
    per_edge: list[list[int]] = [[] for _ in range(n * n)]
    for cid, copy in enumerate(candidates):
        mask = 0
        for ci, cj in itertools.combinations(copy, 2):
            for u in ci:
                for v in cj:
                    bit = (u - 1) * n + v - 1 if u < v else (v - 1) * n + u - 1
                    mask |= 1 << bit
                    per_edge[bit].append(cid)
        masks.append(mask)
    nodes = 0
    t0 = time.monotonic()
    chosen: list[int] = []

    def rec(cover: int) -> bool:
        nonlocal nodes
        if cover == full:
            return True
        free = ~cover & full
        for cid in per_edge[(free & -free).bit_length() - 1]:
            if masks[cid] & cover:
                continue
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExceeded(f"node budget {budget.max_nodes} exhausted")
            if nodes % 1024 == 0 and time.monotonic() - t0 > budget.max_seconds:
                raise BudgetExceeded(f"time budget {budget.max_seconds}s exhausted")
            chosen.append(cid)
            if rec(cover | masks[cid]):
                return True
            chosen.pop()
        return False

    if not rec(0):
        raise NoDecomposition("search space exhausted without finding a decomposition")
    copies = tuple(FCopy(classes=candidates[cid]) for cid in chosen)
    return Decomposition(host=_graph_host(g), pattern=pattern, copies=copies, induced=induced)


def verify_decomposition(
    g: SmallGraph | MultipartiteHost, pattern: PatternSignature, copies, induced: bool
) -> list[str]:
    """Check copies for pattern shape, edge-disjointness and exact coverage.

    The host is a SmallGraph or a MultipartiteHost descriptor; both are
    read only through order, has_edge, edge_count and the lexicographic
    edges(), so a descriptor is checked without building its adjacency
    and yields the same messages as its multipartite_graph.  Accepts
    FCopy objects or bare k-tuples of vertex iterables.  Class sizes
    must match the pattern as a multiset (equal-size classes are
    interchangeable).  Returns [] when valid, else a single-entry list
    describing the first violation found.
    """
    n = g.order
    seen_edges: dict[tuple[int, int], int] = {}
    sorted_parts = sorted(pattern.parts)
    for idx, copy in enumerate(copies):
        classes = copy.classes if isinstance(copy, FCopy) else tuple(
            tuple(sorted(c)) for c in copy
        )
        if sorted(len(c) for c in classes) != sorted_parts:
            return [f"copy {idx} class sizes {[len(c) for c in classes]} do not match pattern"]
        flat = [v for c in classes for v in c]
        if len(set(flat)) != len(flat):
            return [f"copy {idx} has overlapping classes"]
        if any(not 1 <= v <= n for v in flat):
            return [f"copy {idx} references a vertex outside 1..{n}"]
        for ci in range(len(classes)):
            for cj in range(ci + 1, len(classes)):
                for u in classes[ci]:
                    for v in classes[cj]:
                        if not g.has_edge(u, v):
                            return [f"copy {idx} cross pair ({u}, {v}) is not an edge"]
                        key = (u, v) if u < v else (v, u)
                        if key in seen_edges:
                            return [
                                f"edge {key} covered by copies {seen_edges[key]} and {idx}"
                            ]
                        seen_edges[key] = idx
        if induced:
            for c in classes:
                for i in range(len(c)):
                    for j in range(i + 1, len(c)):
                        if g.has_edge(c[i], c[j]):
                            return [f"copy {idx} class pair ({c[i]}, {c[j]}) is an edge"]
    if len(seen_edges) != g.edge_count:
        missing = next(e for e in g.edges() if e not in seen_edges)
        return [f"edge {missing} is not covered"]
    return []


def canonical_form(g: SmallGraph) -> tuple[int, ...]:
    """Lexicographically smallest adjacency encoding over all relabelings.

    The encoding lists, for each new label i in turn, the bitmask of
    neighbors among labels 1..i-1.  Branch and bound on that prefix;
    graphs are isomorphic exactly when their forms coincide.  Intended
    for small n only (dedup during exhaustive search).
    """
    n = g.n
    best: list[int] | None = None

    def rec(assigned: list[int], prefix: list[int], tight: bool):
        # tight means prefix == best[:len(prefix)]; pruning on > is then safe.
        # A non-tight branch is strictly below best, so it runs unpruned and
        # competes at the leaves.
        nonlocal best
        pos = len(assigned)
        if pos == n:
            if best is None or prefix < best:
                best = list(prefix)
            return
        options = []
        for v in range(n):
            if v in assigned:
                continue
            back = 0
            for i, u in enumerate(assigned):
                if g.rows[v] >> u & 1:
                    back |= 1 << i
            options.append((back, v))
        options.sort()
        for back, v in options:
            if best is not None and tight:
                if back > best[pos]:
                    break
                rec(assigned + [v], prefix + [back], back == best[pos])
            else:
                rec(assigned + [v], prefix + [back], best is None)

    rec([], [], True)
    assert best is not None
    return tuple(best)


def cex_exact(
    n: int,
    pattern: PatternSignature,
    budget: SearchBudget = SearchBudget(),
) -> tuple[int, SmallGraph]:
    """Minimum edge deletions from K_n leaving an induced-decomposable graph.

    Scans deletion counts upward; at the first count admitting any
    decomposable graph, returns (count, witness) with the witness the
    decomposable graph whose sorted edge list is lexicographically
    least.  For n = 8 labeled graphs are deduplicated by canonical form
    (the witness is then canonical only up to isomorphism); smaller n
    are scanned exhaustively over labeled graphs.  Always terminates:
    the empty graph decomposes vacuously.
    """
    if n > CEX_CAP:
        raise CapExceeded(f"exact computation capped at {CEX_CAP} vertices, requested {n}")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    pairs = tuple(itertools.combinations(range(1, n + 1), 2))
    total = len(pairs)
    dedup = n >= 8
    for c in range(total + 1):
        if (total - c) % pattern.edge_count != 0:
            continue
        seen: set[tuple[int, ...]] = set()
        winners: list[SmallGraph] = []
        for removed in itertools.combinations(pairs, c):
            gone = set(removed)
            graph = SmallGraph.from_edges(n, (e for e in pairs if e not in gone))
            if dedup:
                key = canonical_form(graph)
                if key in seen:
                    continue
                seen.add(key)
            try:
                exact_cover_decompose(graph, pattern, induced=True, budget=budget)
            except NoDecomposition:
                continue
            winners.append(graph)
        if winners:
            witness = min(winners, key=lambda g: tuple(g.edges()))
            return c, witness
    raise AssertionError("unreachable: the empty graph always decomposes")


def non_neighbor_check(obj) -> bool:
    """Does every vertex have at least one non-neighbor?

    Accepts a PatternSignature (checked on its complete multipartite
    realization, where a vertex has a non-neighbor exactly when its class
    has size at least 2) or a SmallGraph.
    """
    if isinstance(obj, PatternSignature):
        return min(obj.parts) >= 2
    g: SmallGraph = obj
    return all(g.degree(v) < g.n - 1 for v in range(1, g.n + 1))
