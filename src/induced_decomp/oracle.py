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
    identified), read off _placements' table of one int row per placement.
  * exact_cover_decompose finds a decomposition by backtracking that
    always branches on the lexicographically smallest uncovered edge, with
    candidates in lexicographic class order, so results are reproducible.
    Exhausting the tree is a proof that no decomposition exists; the copies
    found are one CopyArray.  Its core _search keeps, per pair, a bitset of
    the candidates whose lowest pair it is (the pairs below the branching
    pair are all covered, so a candidate with one of them could only fail)
    and one of the candidates that cover it.  A node ANDs its child's
    branching pair's set with the candidates still disjoint from the cover
    and pushes no frame for a child with no candidate (still a node).
  * cex_exact computes, for n up to CEX_CAP, the minimum number of edges
    that must be deleted from K_n to leave a decomposable graph, by
    _search over one table of K_n placements.  Its witness is the first
    graph that decomposes when deletion counts run upward and, at each
    count, kept edge sets run in lexicographic order, masked CEX_BLOCK
    at a time with the clock still read before each graph.
  * verify_decomposition checks any list of copies against a host, with
    classes read as given.  Per class-size layout, the copies' pairs are
    gathered into 2-D u and v arrays, a row per copy, and tested by one
    call to adjacent, the array adjacency test of SmallGraph and
    MultipartiteHost.  Cross pair ids u * (n + 1) + v, u < v, scattered
    into one (n + 1)^2 bool table show a double cover (fewer set entries
    than ids) and the first uncovered edge.  The table is about the n x n
    matrix a SmallGraph holds, and smaller than a list of the cross pairs
    with copy and position (about 60 bytes each) on a host of edge density
    above about 1/30, as every host built here is.  Only a failed test
    sorts the ids, in copy order, to name the first fault.
  * edge_list_text writes long rows one join each (_lines_text), and a
    text they write back byte for byte is read in one np.fromstring.

Vertices are 1-based everywhere in the public interface.  The search
numbers pair (u, v), u < v, down from C(n, 2) - 1 in lexicographic order
and candidates down from the last table row, so the next edge to cover
and the next candidate to try are each the highest bit of a set, found
by one int.bit_length (isolating a lowest bit negates the whole set).
Bitsets sit in lists indexed by pair number: a dict keyed by 2**k hashes
it like 2**(k % 61), so past 61 pairs lookups walk collision chains.
The search loops over an explicit stack, as a recursion's speed would
depend on the caller's stack depth.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import time
from dataclasses import dataclass

import numpy as np

from .blowup import (
    CopyArray, Decomposition, FCopy, MultipartiteHost, PatternSignature, _int_pair, host_pairs,
)

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
CEX_BLOCK = 256  # kept edge sets whose candidate masks cex_exact builds at once
PLACEMENT_CAP = 10**6  # most K_n placements tabulated; each costs a few hundred bytes


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

    def __post_init__(self):
        if type(self.max_nodes) is not int or self.max_nodes < 0:
            raise ValueError(f"max_nodes must be an int >= 0, got {self.max_nodes!r}")
        if type(self.max_seconds) not in (int, float) or not 0 < self.max_seconds < float("inf"):
            raise ValueError(f"max_seconds must be positive and finite, got {self.max_seconds!r}")


@dataclass(frozen=True, eq=False)
class SmallGraph:
    """Simple undirected graph on vertices 1..n held as its n x n bool matrix
    bits, entry [u - 1, v - 1] the adjacency of u and v.  The graph makes the
    matrix read-only and trusts it to be symmetric, as the builders here are."""

    bits: np.ndarray

    def __post_init__(self):
        bits = self.bits
        if not (isinstance(bits, np.ndarray) and bits.dtype == bool and bits.ndim == 2
                and bits.shape[0] == bits.shape[1]):
            raise ValueError("adjacency must be a square bool matrix")
        if bits.diagonal().any():
            raise ValueError(f"vertex {bits.diagonal().argmax() + 1} has a self-loop")
        bits.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges) -> SmallGraph:
        """The graph on 1..n with the given edges, each a pair of integers
        by blowup's _sizes rule (numpy ints pass, bools, floats and strings
        raise ValueError naming the edge)."""
        return cls._from_ids(n, [_int_pair(e, "edge") for e in edges])

    @classmethod
    def _from_ids(cls, n: int, pairs) -> SmallGraph:
        """The graph on 1..n with the edges (u, v) listed as integer rows,
        built by one scatter into its matrix.  The first row with an id
        outside 1..n, or a self-loop, is a bad edge."""
        try:
            ids = np.array(pairs, np.int64).reshape(-1, 2)
        except OverflowError:  # ids beyond 64 bits, compared as Python ints
            ids = np.array(pairs, object).reshape(-1, 2)
        bad = ((ids < 1) | (ids > n)).any(axis=1) | (ids[:, 0] == ids[:, 1])
        if bad.any():
            u, v = ids[bad.argmax()].tolist()
            raise ValueError(f"bad edge ({u}, {v}) for {n} vertices")
        bits = _no_edges(n)
        u, v = ids.T
        bits[u - 1, v - 1] = bits[v - 1, u - 1] = True
        return cls(bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    order = n

    @functools.cached_property
    def rows(self) -> tuple[int, ...]:
        """The matrix rows packed, bit v - 1 of row u - 1 for the pair uv."""
        packed = np.packbits(self.bits, axis=1, bitorder="little")
        return tuple(int.from_bytes(row, "little") for row in packed)

    _check_vertex = MultipartiteHost._check_vertex  # ValueError unless 1 <= v <= order

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.bits[u - 1, v - 1])

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """has_edge element-wise over equal-shape int arrays of vertices in 1..n, as
        a bool array; one flat index gathers faster than the pair (u - 1, v - 1)."""
        return self.bits.reshape(-1)[u * self.n + v - (self.n + 1)]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(np.count_nonzero(self.bits[v - 1]))

    def edges(self) -> list[tuple[int, int]]:
        u, v = host_pairs(self)
        return list(zip(u.tolist(), v.tolist()))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.bits)) // 2

    def to_edge_list_text(self) -> str:
        return edge_list_text(self)

    @classmethod
    def from_edge_list_text(cls, text: str) -> SmallGraph:
        """The graph of an edge list: lines as str.splitlines() cuts them,
        each stripped; blank lines and lines starting with "#" are skipped,
        every other line is two ASCII decimal ids -?[0-9]+ apart.  n is the
        largest id, repeated edges merge, and a self-loop or an id below 1
        is a bad edge.  _written_ids reads what _lines_text writes in rows,
        _edge_list_ids any other text; its ValueError names the first bad line."""
        ids = _edge_list_ids(text) if (ids := _written_ids(text)) is None else ids
        return cls._from_ids(int(ids.max()) if ids.size else 0, ids)


# Character classes of the bulk edge-list reader, by ASCII code.
_DIGIT, _MINUS, _BLANK, _BREAK, _OTHER = range(5)
_CLASS = np.full(128, _OTHER, np.uint8)
_CLASS[48:58], _CLASS[45] = _DIGIT, _MINUS
_CLASS[[9, 31, 32]] = _BLANK  # the whitespace str.splitlines() does not break at
_CLASS[[10, 11, 12, 13, 28, 29, 30]] = _BREAK
# A comment line's blanks, "#" and the rest of the line.
_COMMENT = re.compile(r"(?:^|(?<=[\n\r\x0b\x0c\x1c-\x1e]))[\t\x1f ]*#[^\n\r\x0b\x0c\x1c-\x1e]*")
_ROW_PAIRS = 6  # rows of fewer pairs on average go pair by pair (the crossover at 2e5 edges)


def _edge_list_ids(text: str) -> np.ndarray:
    """The ids of an edge list as an (edges, 2) array, int64, or Python ints
    when an id has 18 characters or more, checked and read as one array of
    character classes.  Only a text that fails the check is cut into lines,
    by a cumulative count of line breaks, to name its first malformed line."""
    source = text  # for the error: "\r\r\n" is two line breaks here, "\r\n" after the rewrite
    if not text.isascii():  # its other non-ASCII characters become "?"
        text = "\n".join(map(str.strip, text.splitlines()))
    if "#" in text:
        text = _COMMENT.sub(" ", text)  # a blank, so "\r#\n" does not become one "\r\n"
    text = text.replace("\r\n", "\n")  # one character per line break, for the line count
    codes = np.frombuffer(text.encode("ascii", "replace"), np.uint8)
    kind = _CLASS.take(codes)
    step = np.diff((kind <= _MINUS).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts, ends = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    negative = kind[starts] == _MINUS
    stray = (kind == _MINUS) | (kind == _OTHER)  # but a minus sign leading a digit
    stray[starts[negative & (ends - starts > 1)]] = False
    # The largest class in the gap after each token but the last: blanks
    # inside a line's pair of ids, a line break between pairs.
    gaps = np.maximum.reduceat(kind, np.column_stack((starts, ends)).ravel()[:-1])[1::2]
    if stray.any() or len(starts) % 2 or (gaps[0::2] != _BLANK).any() or (gaps[1::2] != _BREAK).any():
        # the first line with a stray character or a token count other than 0 and 2
        line = np.cumsum(kind == _BREAK)  # 0-based, at each character but a break
        count = np.bincount(line[starts])
        first = np.concatenate((line[stray], np.flatnonzero((count != 0) & (count != 2)))).min()
        raise ValueError(f"line {first + 1}: expected 'u v', got {source.splitlines()[first].strip()!r}")
    if (ends - starts).max(initial=0) > 17:  # beyond the int64 digits read below
        return np.array([int(token) for token in text.split()], object).reshape(-1, 2)
    length = ends - starts - negative
    ids = np.zeros(len(starts), np.int64)
    for place in range(length.max(initial=0)):
        # an ASCII digit's low four bits are its value
        ids += np.where(length > place, codes[ends - 1 - place] & 15, 0) * np.int64(10**place)
    ids[negative] *= -1
    return ids.reshape(-1, 2)


def _written_ids(text: str) -> np.ndarray | None:
    """The ids of an edge list as an (edges, 2) int64 array when the text, with one " "
    and no "\\r" a line and ids in 0..2 * count + 16, is _lines_text of them, else None."""
    if "\r" in text or text.count(" ") != (lines := text.count("\n")):
        return None
    try:
        ids = np.fromstring(text, np.int64, sep=" ")
    except (ValueError, DeprecationWarning):  # unmatched data (older numpy warns)
        return None
    small = len(ids) == 2 * lines and (not ids.size or 0 <= ids.min() <= ids.max() <= 2 * len(ids) + 16)
    return ids.reshape(-1, 2) if small and _lines_text(ids[0::2], ids[1::2]) == text else None


def _lines_text(u: np.ndarray, v: np.ndarray) -> str | None:
    """("%d %d\\n" * m) % pairs for int arrays of ids >= 0, one join per row of equal u
    over v's names; None when rows hold fewer than _ROW_PAIRS pairs on average."""
    starts = np.flatnonzero(np.diff(u, prepend=-1))
    if len(starts) * _ROW_PAIRS > len(u):
        return None
    vs = np.array(list(map(str, range(int(v.max(initial=0)) + 1))), object)[v].tolist()
    rows = zip(starts.tolist(), [*starts[1:].tolist(), len(u)], u[starts].tolist())
    return "".join([f"{x} " + f"\n{x} ".join(vs[a:b]) + "\n" for a, b, x in rows])


def edge_list_text(g: SmallGraph | MultipartiteHost) -> str:
    """One "u v" line per edge, in lexicographic order: _lines_text, else one % fill."""
    u, v = host_pairs(g)
    return _lines_text(u, v) or ("%d %d\n" * len(u)) % tuple(np.column_stack((u, v)).ravel().tolist())


def _no_edges(n: int) -> np.ndarray:
    """The adjacency matrix of n isolated vertices, n checked first."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    return np.zeros((n, n), bool)


def complete_graph(n: int) -> SmallGraph:
    return SmallGraph(~_no_edges(n) ^ np.eye(n, dtype=bool))


def multipartite_graph(host: MultipartiteHost) -> SmallGraph:
    """Adjacency realization of a host descriptor (isolated vertices last),
    read off its parts and non_edges rather than its adjacent: two part
    vertices are adjacent when their parts differ, unless listed as a
    non-edge."""
    part = np.repeat(np.arange(len(host.parts)), host.parts)
    bits = _no_edges(host.order)
    bits[:len(part), :len(part)] = part[:, None] != part
    u, v = np.array(host.non_edges, np.int64).reshape(-1, 2).T
    bits[u - 1, v - 1] = bits[v - 1, u - 1] = False
    return SmallGraph(bits)


def _graph_host(g: SmallGraph) -> MultipartiteHost:
    """Generic host descriptor for an arbitrary graph: singleton parts plus
    an explicit list of the missing pairs."""
    u, v = host_pairs(g, False)
    return MultipartiteHost(parts=(1,) * g.n, non_edges=tuple(zip(u.tolist(), v.tolist())))


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
    return _class_tuples(_placements(g, pattern, induced), pattern.parts)


def _placements(g: SmallGraph, pattern: PatternSignature, induced: bool,
                budget: SearchBudget | None = None, deadline: float = math.inf) -> np.ndarray:
    """enumerate_copies as a (placements, order) table of 0-based int8 vertices.

    Position by position, each row is extended by every a-subset, in
    lexicographic order, of the vertices adjacent to all it holds and of
    degree at least order - a; a class must follow the one at the last
    earlier position of its size.  Given a budget, the clock is read
    after each block of rows.  More than PLACEMENT_CAP placements in K_n raise CapExceeded first."""
    check_enumerable(g.n)
    parts = pattern.parts
    symmetries = math.prod(map(math.factorial, (*parts, *map(parts.count, set(parts)))))
    if (bound := math.perm(g.n, pattern.order) // symmetries) > PLACEMENT_CAP:
        raise CapExceeded(f"placements capped at {PLACEMENT_CAP}, K_{g.n} has {bound} of {parts}")
    rows = np.array(g.rows, np.uint64)  # n <= ENUMERATE_CAP fits
    degree = np.count_nonzero(g.bits, axis=1)
    table, floors = np.zeros((1, 0), np.int8), {}  # per size, each row's last subset index
    used, common = np.zeros(1, np.uint64), np.full(1, (1 << g.n) - 1, np.uint64)
    for a in pattern.parts:
        subsets = _combinations(np.flatnonzero(degree >= pattern.order - a), a)
        mask = np.bitwise_or.reduce(np.uint64(1) << subsets.astype(np.uint64), axis=1)
        meet = np.bitwise_and.reduce(rows[subsets], axis=1)
        allowed = (np.bitwise_or.reduce(rows[subsets], axis=1) & mask) == 0 if induced else True
        floor = floors.get(a, np.full(len(table), -1))
        step = max(1, (1 << 20) // max(len(subsets), 1))  # 2**20 row-subset cells a block
        found = []
        for start in range(0, max(len(table), 1), step):
            block = slice(start, start + step)
            fits = (mask & ~(common[block] & ~used[block])[:, None]) == 0
            found.append(fits & allowed & (np.arange(len(subsets)) > floor[block, None]))
            if budget is not None and time.monotonic() > deadline:
                raise _out_of_time(budget)
        r, c = np.nonzero(np.vstack(found))
        table = np.hstack((table[r], subsets[c]))
        used, common = used[r] | mask[c], common[r] & meet[c]
        floors = {size: f[r] for size, f in floors.items()} | {a: c}
    return table


def check_enumerable(n: int) -> None:
    if n > ENUMERATE_CAP:
        raise CapExceeded(f"enumeration capped at {ENUMERATE_CAP} vertices, graph has {n}")


def _combinations(vertices: np.ndarray, a: int) -> np.ndarray:
    """Every a-subset of the sorted vertices as a row, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(vertices.tolist(), a))
    return np.fromiter(flat, np.int8, count=math.comb(len(vertices), a) * a).reshape(-1, a)


def _class_tuples(table: np.ndarray, parts) -> list[tuple[tuple[int, ...], ...]]:
    """Rows of 0-based vertices as tuples of 1-based class tuples."""
    columns = np.split(table + 1, list(itertools.accumulate(parts[:-1])), axis=1)
    return list(zip(*(map(tuple, column.tolist()) for column in columns)))


def _cross_columns(sizes) -> list[tuple[int, int]]:
    """Column pairs (a, b) of the cross pairs of a copy row whose columns
    hold classes of the given sizes: by class ci < cj, then a, then b."""
    starts = list(itertools.accumulate(sizes, initial=0))
    classes = [range(a, b) for a, b in zip(starts, starts[1:])]
    return [(a, b) for ci, cj in itertools.combinations(classes, 2) for a in ci for b in cj]


def _pair_ids(table: np.ndarray, columns, n: int) -> np.ndarray:
    """The int16 number of each row's pair in each column pair: lexicographic
    order down from C(n, 2) - 1, with lo * (2n - lo - 1) / 2 pairs below lo."""
    u, v = (table[:, list(c)] for c in zip(*columns))
    lo, hi = np.minimum(u, v).astype(np.int16), np.maximum(u, v)
    return math.comb(n, 2) - 1 - lo * (2 * n - lo - 1) // 2 - (hi - lo - 1)


def _bitset(flags: np.ndarray) -> int:
    """The int whose bit i is flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little"), "little")


def _bitsets(keys: np.ndarray, count: int) -> list[int]:
    """For each number 0..count - 1, the int whose bit i is set when row i
    of keys holds it; numbers within a row are distinct."""
    packed = np.zeros((count, (len(keys) + 7) // 8), np.uint8)
    for bit in range(8):
        for column in keys[bit::8].T:  # (column[j], j) are distinct, so |= sets every bit
            packed[column, np.arange(len(column))] |= np.uint8(1 << bit)
    return [int.from_bytes(row, "little") for row in packed]


def _index(ids: np.ndarray, pairs: int) -> tuple:
    """ids' rows numbered down from the last; per pair p below pairs, the
    bitsets of the rows whose lowest pair it is, at p + 1 (a bit_length),
    and of those holding it; and a slot per row for _search's masks."""
    ids = ids[::-1]
    groups, holders = _bitsets(ids.max(axis=1, keepdims=True) + 1, pairs + 1), _bitsets(ids, pairs)
    return ids, groups, holders, [None] * len(ids)


def exact_cover_decompose(
    g: SmallGraph,
    pattern: PatternSignature,
    induced: bool,
    budget: SearchBudget = SearchBudget(),
) -> Decomposition:
    """Partition E(g) into pattern copies by deterministic backtracking.

    Branches on the lexicographically smallest uncovered edge, trying
    candidates in lexicographic class order, each listed under its lowest
    edge only (see the module notes).  Raises NoDecomposition when the
    exhausted tree proves none exists, BudgetExceeded when the budget ran
    out first.  The time budget runs from this call: it is checked as the
    placement table is built, once the search index is built and every
    1024 search nodes from the first.
    """
    deadline = time.monotonic() + budget.max_seconds
    edges = g.edge_count
    if edges % pattern.edge_count != 0:
        raise NoDecomposition(
            f"{edges} edges is not a multiple of the pattern's {pattern.edge_count}"
        )
    table, chosen = np.zeros((0, pattern.order), np.int8), []
    if edges:
        table = _placements(g, pattern, induced, budget, deadline)
        index = _index(_pair_ids(table, _cross_columns(pattern.parts), g.n), math.comb(g.n, 2))
        if time.monotonic() > deadline:
            raise _out_of_time(budget)
        full = _bitset(g.bits[np.triu_indices(g.n, 1)][::-1])
        chosen = _search(full, (1 << len(table)) - 1, index, budget, deadline)
        if chosen is None:
            raise NoDecomposition("search space exhausted without finding a decomposition")
    copies = CopyArray(table[chosen].astype(np.int64) + 1, pattern.parts)
    return Decomposition(host=_graph_host(g), pattern=pattern, copies=copies, induced=induced)


def _out_of_time(budget: SearchBudget) -> BudgetExceeded:
    return BudgetExceeded(f"time budget {budget.max_seconds}s exhausted")


def _search(full: int, alive: int, index, budget: SearchBudget, deadline: float) -> list[int] | None:
    """Rows of the candidates, in the order chosen, whose cross pairs
    partition the pairs of full, drawn from alive, numbered as in _index,
    or None when the exhausted tree proves there are none; the time budget
    ends at deadline, a time.monotonic() value.  A child
    with no candidate is counted as a node, budget checks and all, but
    costs no push."""
    ids, groups, holders, made = index  # made: pairs and survivors of a row once chosen
    if not full:
        return []
    stack: list[tuple[int, int, int, int]] = []  # per level above: untried, free, alive, chosen
    untried, free, nodes, due = groups[full.bit_length()] & alive, full, 0, 1
    while True:
        while not untried:
            if not stack:
                return None
            untried, free, alive, _ = stack.pop()
        cid = untried.bit_length() - 1
        untried ^= 1 << cid
        nodes += 1
        if nodes == due:  # the next node that checks the budget
            if nodes > budget.max_nodes:
                raise BudgetExceeded(f"node budget {budget.max_nodes} exhausted")
            if time.monotonic() > deadline:
                raise _out_of_time(budget)
            due = min(nodes + 1024, budget.max_nodes + 1)
        if made[cid] is None:
            pairs = ids[cid].tolist()
            conflicts = functools.reduce(int.__or__, [holders[p] for p in pairs])
            made[cid] = (sum(1 << p for p in pairs), ((1 << len(ids)) - 1) ^ conflicts)
        covers, keeps = made[cid]
        if not (rest := free ^ covers):
            stack.append((untried, free, alive, cid))
            return [len(ids) - 1 - entry[3] for entry in stack]
        if branch := groups[rest.bit_length()] & alive & keeps:
            stack.append((untried, free, alive, cid))
            untried, free, alive = branch, rest, alive & keeps


def _class_tables(copies, parts) -> tuple[dict, float, str]:
    """The copies before the first whose sizes do not match parts or with a
    non-integer vertex, grouped by ordered class sizes into their indices
    and an int table of their classes read as given, a row per copy (a
    CopyArray is one group); and that copy's index and fault, or inf, ""."""
    if isinstance(copies, CopyArray):
        if len(copies) and sorted(copies.sizes) != sorted(parts):
            return {}, 0, f"copy 0 class sizes {list(copies.sizes)} do not match pattern"
        return {copies.sizes: (np.arange(len(copies)), copies.rows)}, math.inf, ""
    lists: dict[tuple[int, ...], tuple[list[int], list]] = {}
    first, fault = math.inf, ""
    for idx, copy in enumerate(copies):
        classes = tuple(map(tuple, copy.classes if isinstance(copy, FCopy) else copy))
        sizes = tuple(map(len, classes))
        if sizes not in lists and sorted(sizes) != sorted(parts):
            first, fault = idx, f"copy {idx} class sizes {list(sizes)} do not match pattern"
            break
        flat = [v for c in classes for v in c]
        # blowup's _sizes rule: numpy ints pass, bools, floats and strings fail
        odd = [v for v in flat if type(v) is not int and (
            type(v) is bool or not hasattr(v, "__index__"))]
        if odd:
            first, fault = idx, f"copy {idx} has non-integer vertex {odd[0]!r}"
            break
        members, vertices = lists.setdefault(sizes, ([], []))
        members.append(idx)
        vertices.extend(flat)
    groups = {}
    for sizes, (members, vertices) in lists.items():
        try:
            rows = np.array(vertices, np.int64)
        except OverflowError:  # ids beyond 64 bits, compared as Python ints
            rows = np.array(vertices, object)
        groups[sizes] = (np.array(members), rows.reshape(len(members), sum(sizes)))
    return groups, first, fault


def verify_decomposition(
    g: SmallGraph | MultipartiteHost, pattern: PatternSignature, copies, induced: bool
) -> list[str]:
    """Check copies for pattern shape, edge-disjointness and exact coverage.

    The host is a SmallGraph or a MultipartiteHost descriptor; both are
    read only through order, edge_count and the array adjacency test
    adjacent (host_pairs included, to name an uncovered edge), so a
    descriptor is checked without building its adjacency and yields the
    same messages as its multipartite_graph.  Accepts FCopy objects, bare
    k-tuples of vertex iterables or one CopyArray; every class is read in
    the order given.  Class sizes must match the pattern as a multiset
    (equal-size classes are interchangeable).  Each layout's pairs are
    tested on 2-D arrays by one adjacent call, and their cross pair ids are
    scattered into an (n + 1)^2 bool table; ids are sorted only to name a
    fault (see the module notes).
    Returns [] when valid, else a single-entry list describing the first
    violation in copy order, and within a copy in the order sizes,
    non-integer vertex, overlap, range, cross pairs, class pairs.
    """
    n = g.order
    groups, first, fault = _class_tables(copies, pattern.parts)
    for members, rows in groups.values():
        overlap = (np.diff(np.sort(rows, axis=1), axis=1) == 0).any(axis=1)
        faulty = np.flatnonzero(overlap | (rows.min(axis=1) < 1) | (rows.max(axis=1) > n))
        if len(faulty) and members[faulty[0]] < first:
            at, first = faulty[0], int(members[faulty[0]])
            fault = f"copy {first} " + (
                "has overlapping classes" if overlap[at] else f"references a vertex outside 1..{n}")
    base, cross = n + 1, pattern.edge_count
    layouts, covered, faulty = [], np.zeros(0, bool), False
    for sizes, (members, rows) in groups.items():
        kept = np.searchsorted(members, first)  # members ascend
        pairs = _cross_columns(sizes)
        if induced:  # then the pairs inside each class, in lexicographic order
            pairs += sorted(set(itertools.combinations(range(sum(sizes)), 2)) - set(pairs))
        u, v = (rows[:kept].astype(np.int64, copy=False)[:, c] for c in np.array(pairs).T)
        adjacent = g.adjacent(u, v)
        layouts.append((members[:kept], u, v, adjacent))
        # a cross pair that is no edge, a class pair that is one
        faulty = faulty or not adjacent[:, :cross].all() or adjacent[:, cross:].any()
        if kept and not faulty:  # the table is allocated once a copy fits the host
            covered = covered if covered.size else np.zeros(base * base, bool)
            uc, vc = u[:, :cross], v[:, :cross]
            covered[np.minimum(uc, vc) * base + np.maximum(uc, vc)] = True
    total = cross * sum(len(members) for members, *_ in layouts)
    if faulty or total != np.count_nonzero(covered):
        return [_pair_fault(layouts, cross, base)]
    if fault:
        return [fault]
    if total != g.edge_count:
        u, v = host_pairs(g)
        at = int(covered[u * base + v].argmin()) if total else 0
        return [f"edge {(int(u[at]), int(v[at]))} is not covered"]
    return []


def _pair_fault(layouts: list, cross: int, base: int) -> str:
    """The first pair fault of copies 0, 1, ..., held as verify_decomposition's
    (members, u, v, adjacent) per class-size layout: in copy order, and within
    a copy its cross pairs, then its class pairs.  A cross pair is faulty when
    it is no edge or an edge an earlier pair covers, a class pair when it is an edge."""
    members, u, v, adjacent = map(np.concatenate, zip(*layouts))
    by_copy = np.argsort(members)  # the layouts' members are 0, 1, ... between them
    u, v, adjacent = u[by_copy], v[by_copy], adjacent[by_copy]
    bad = adjacent != (np.arange(adjacent.shape[1]) < cross)
    uc, vc = u[:, :cross], v[:, :cross]
    ids = (np.minimum(uc, vc) * base + np.maximum(uc, vc)).ravel()
    # A stable sort keeps each edge's first owner ahead of its repeats.
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    bad[np.divmod(order[1:][ranked[1:] == ranked[:-1]], cross)] = True
    idx, at = np.unravel_index(bad.argmax(), bad.shape)
    a, b = int(u[idx, at]), int(v[idx, at])
    if at >= cross:
        return f"copy {idx} class pair ({a}, {b}) is an edge"
    if not adjacent[idx, at]:
        return f"copy {idx} cross pair ({a}, {b}) is not an edge"
    key = (min(a, b), max(a, b))
    owner = order[np.searchsorted(ranked, key[0] * base + key[1])] // cross
    return f"edge {key} covered by copies {owner} and {idx}"


def canonical_form(g: SmallGraph) -> tuple[int, ...]:
    """Lexicographically smallest adjacency encoding over all relabelings.

    The encoding lists, for each new label i in turn, the bitmask of
    neighbors among labels 1..i-1.  Branch and bound on that prefix;
    graphs are isomorphic exactly when their forms coincide.  Intended
    for small n only (comparing graphs up to isomorphism in checks).
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

    Scans deletion counts upward and, at each count, the kept edge sets in
    lexicographic order; returns (count, witness) for the first graph that
    decomposes, which is the decomposable graph with the fewest deletions
    whose sorted edge list is lexicographically least.  Always terminates:
    the empty graph decomposes vacuously.  A graph's candidates are the
    K_n placements whose pairs it meets in exactly their cross pairs (bit
    masks under 64, compared for CEX_BLOCK graphs at once), which is
    enumerate_copies(g, pattern, True) in order.  One time budget, from
    this call, covers every graph's search and is read before each graph.
    """
    if n > CEX_CAP:
        raise CapExceeded(f"exact computation capped at {CEX_CAP} vertices, requested {n}")
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    deadline = time.monotonic() + budget.max_seconds
    pairs = tuple(itertools.combinations(range(1, n + 1), 2))
    total = len(pairs)
    bits = [1 << i for i in reversed(range(total))]
    table = _placements(complete_graph(n), pattern, False)
    ids = _pair_ids(table, _cross_columns(pattern.parts), n)
    inside = _pair_ids(table, list(itertools.combinations(range(pattern.order), 2)), n)
    # rows in _index's order, so a graph's flags are its alive bits
    cross, whole = (np.bitwise_or.reduce(1 << p[::-1].astype(np.uint64), axis=1)
                    for p in (ids, inside))
    index, width = _index(ids, total), (len(table) + 7) // 8
    for c in range(total + 1):
        if (total - c) % pattern.edge_count != 0:
            continue
        kept = map(sum, itertools.combinations(bits, total - c))
        while block := list(itertools.islice(kept, CEX_BLOCK)):
            flags = (whole & np.array(block, np.uint64)[:, None]) == cross
            masks = np.packbits(flags, axis=1, bitorder="little").tobytes()
            for at, edges in enumerate(block):
                if time.monotonic() > deadline:  # a search that visits no node reads no clock
                    raise _out_of_time(budget)
                alive = int.from_bytes(masks[at * width:(at + 1) * width], "little")
                if _search(edges, alive, index, budget, deadline) is None:
                    continue
                return c, SmallGraph.from_edges(n, [e for e, b in zip(pairs, bits) if edges & b])
    raise AssertionError("unreachable: the empty graph always decomposes")


def non_neighbor_check(obj) -> bool:
    """Does every vertex have at least one non-neighbor?

    Accepts a PatternSignature (checked on its complete multipartite
    realization, where a vertex has a non-neighbor exactly when its class
    has size at least 2) or a SmallGraph.
    """
    if isinstance(obj, PatternSignature):
        return min(obj.parts) >= 2
    return bool((np.count_nonzero(obj.bits, axis=1) < obj.n - 1).all())
