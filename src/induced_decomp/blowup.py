"""Decomposing a blown-up pattern into induced copies of the pattern.

The pattern is a complete multipartite graph F = K_{a1,...,ak} and the
host is its m-fold blow-up F* = K_{m*a1,...,m*ak} with m = a1*...*ak.
Part i of the host splits into m cells of a_i consecutive vertices;
cells are addressed by index vectors j = (j_1, ..., j_k) with
j_l in 1..a_l, ranked in mixed-radix order with j_1 most significant.
A copy of F picks one cell per part, so it is described by k index
vectors (j^1, ..., j^k), the cell of part i being j^i.

The m**2 copies of a full decomposition are driven by one transversal
design TD(k, a_i) per part and named by codewords w = (b, c), both
halves cell index vectors.  Coordinate i of every vector in the copy of
w is read off one block of the i-th design: B^i is the block through
point b_i of group i and point c_i of group (i mod k) + 1, and the i-th
coordinate of j^(i') is the index of the point of B^i in group i'.  In
particular j^i_i = b_i and j^(i+1)_i = c_i (cyclically); decoding
checks these identities at runtime rather than assuming them.  Distinct
codewords give edge-disjoint copies and together they cover every edge
of the host exactly once, each copy induced.

Decoding also inverts: an edge determines the cells of its endpoints,
each design block is recoverable from the two coordinates those cells
provide, and the codeword can be read back off the diagonal.  This is
edge_to_copy, the constructive proof that the copies tile the host.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from . import designs
from .designs import TransversalDesign, block_index, json_int, json_ints

__all__ = [
    "BlowupContext",
    "Codeword",
    "CopyArray",
    "Decomposition",
    "FCopy",
    "MultipartiteHost",
    "PatternSignature",
    "SamePart",
    "UnsupportedPattern",
    "blowup_decompose",
    "copies_from_json",
    "copy_array_from_json",
    "decode_codeword",
    "decomposition_from_json",
    "edge_to_copy",
    "host_pairs",
    "json_int",
    "make_context",
]

CellIndex = tuple[int, ...]


class UnsupportedPattern(ValueError):
    """Some part sizes admit no transversal design of the needed width."""

    def __init__(self, message: str, failing_parts: tuple[int, ...] = ()):
        super().__init__(message)
        self.failing_parts = failing_parts


class SamePart(ValueError):
    """Both endpoints lie in the same part, so no edge connects them."""


def _sizes(values, what: str) -> tuple[int, ...]:
    """values as Python ints; bools, floats and other non-integers raise
    ValueError."""
    try:
        items = tuple(values)
        if bool in map(type, items):
            raise TypeError
        return tuple(map(operator.index, items))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def _int_pair(pair, what: str) -> tuple[int, int]:
    """pair as two Python ints by the _sizes rule; other lengths raise
    ValueError naming the pair."""
    try:
        u, v = _sizes(pair, what)
    except ValueError:
        raise ValueError(f"{what} {pair!r} must be a pair of two integers") from None
    return u, v


def host_pairs(host, present: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The pairs u < v of a host with order and adjacent that are edges
    (present) or non-edges (not present), as two int arrays of their u and
    v in lexicographic order, read off one upper-triangle mask with one
    adjacent call."""
    vertices = np.arange(1, host.order + 1)
    u, v = np.nonzero(np.less.outer(vertices, vertices))
    u += 1
    v += 1
    keep = host.adjacent(u, v)
    if not present:
        keep = ~keep
    return u[keep], v[keep]


@dataclass(frozen=True)
class PatternSignature:
    """Part sizes (a1, ..., ak) of a complete multipartite pattern."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", _sizes(self.parts, "part sizes"))
        if len(self.parts) < 2:
            raise ValueError("a pattern needs at least two parts")
        if any(a < 1 for a in self.parts):
            raise ValueError(f"part sizes must be positive, got {self.parts}")

    @classmethod
    def from_text(cls, text: str) -> PatternSignature:
        return cls(parts=tuple(json_int(tok.strip()) for tok in text.split(",")))

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def m(self) -> int:
        out = 1
        for a in self.parts:
            out *= a
        return out

    @property
    def order(self) -> int:
        return sum(self.parts)

    @property
    def edge_count(self) -> int:
        total = sum(self.parts)
        return (total * total - sum(a * a for a in self.parts)) // 2


@dataclass(frozen=True)
class MultipartiteHost:
    """Host graph: complete multipartite parts, optional trailing isolated
    vertices, optionally minus an explicit list of non-edges.

    Vertices are 1-based and consecutive: part 1 first, then part 2, and
    so on, with the isolated vertices taking the highest ids.  With
    singleton parts and an explicit non-edge list this describes an
    arbitrary graph.  The one adjacency of the host is adjacent, read off
    a part array and the sorted non-edge pair ids; has_edge is adjacent
    on two scalars and edges() is host_pairs.
    """

    parts: tuple[int, ...]
    isolated: int = 0
    non_edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", _sizes(self.parts, "part sizes"))
        object.__setattr__(self, "isolated", _sizes((self.isolated,), "isolated count")[0])
        if any(s < 1 for s in self.parts):
            raise ValueError(f"part sizes must be positive, got {self.parts}")
        if self.isolated < 0:
            raise ValueError(f"isolated count must be nonnegative, got {self.isolated}")
        pairs = (_int_pair(pair, "non-edge") for pair in self.non_edges)
        normalized = tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs))
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate entries in non-edge list")
        for u, v in normalized:
            pu, pv = self.part_of(u), self.part_of(v)
            if pu is None or pv is None or pu == pv:
                raise ValueError(f"({u}, {v}) is not a cross-part pair")
        object.__setattr__(self, "non_edges", normalized)

    @property
    def order(self) -> int:
        return self.offsets[-1] + self.isolated

    @functools.cached_property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for s in self.parts:
            out.append(out[-1] + s)
        return tuple(out)

    @functools.cached_property
    def _part_array(self) -> np.ndarray:
        """Entry v is the 1-based part of vertex v, 0 for isolated vertices
        (entry 0 is unused)."""
        k = len(self.parts)
        parts = np.arange(k + 2, dtype=np.min_scalar_type(k + 1)) % (k + 1)  # small, gathers fast
        return np.repeat(parts, (1, *self.parts, self.isolated))

    @functools.cached_property
    def _non_edge_ids(self) -> np.ndarray:
        """Pair ids u * (order + 1) + v of the non-edges, ascending because
        non_edges is sorted with u < v."""
        base = self.order + 1
        return np.array([u * base + v for u, v in self.non_edges], dtype=np.int64)

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.order:
            raise ValueError(f"vertex {v} out of range 1..{self.order}")

    def part_of(self, v: int) -> int | None:
        """1-based part index of vertex v, or None for isolated vertices."""
        self._check_vertex(v)
        return self._part_array.item(v) or None

    def has_edge(self, u: int, v: int) -> bool:
        """adjacent on two vertices, which must lie in 1..order."""
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adjacent(u, v))

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Adjacency element-wise over int arrays (or scalars) of vertices in
        1..order that broadcast together, as a bool array: different parts,
        neither isolated, and not a listed non-edge."""
        table = self._part_array
        pu, pv = table[u], table[v]
        out = (pu != pv) & (pu != 0) & (pv != 0)
        ids = self._non_edge_ids
        if len(ids):
            key = np.minimum(u, v) * (self.order + 1) + np.maximum(u, v)
            out &= ids.take(np.searchsorted(ids, key), mode="clip") != key
        return out

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges in lexicographic order."""
        u, v = host_pairs(self)
        return zip(u.tolist(), v.tolist())

    @property
    def edge_count(self) -> int:
        total = sum(self.parts)
        cross = (total * total - sum(s * s for s in self.parts)) // 2
        return cross - len(self.non_edges)

    def to_json_dict(self) -> dict:
        out: dict = {"parts": list(self.parts)}
        if self.isolated:
            out["isolated"] = self.isolated
        if self.non_edges:
            out["non_edges"] = [list(e) for e in self.non_edges]
        return out


def _host_from_json(data: dict) -> MultipartiteHost:
    return MultipartiteHost(
        parts=json_ints(data["parts"]),
        isolated=json_int(data.get("isolated", 0)),
        non_edges=tuple(json_ints(pair) for pair in data.get("non_edges", ())),
    )


class Codeword(NamedTuple):
    b: CellIndex
    c: CellIndex


@dataclass(frozen=True)
class FCopy:
    """One pattern copy: per-part vertex classes, and, when produced by
    decoding, the codeword behind them."""

    classes: tuple[tuple[int, ...], ...]
    codeword: Codeword | None = None


class CopyArray(Sequence):
    """Copies held as one int array: row r of table lists the classes of
    copy r one after another, class i taking sizes[i] entries, and, when
    the table is 2k columns wider (codewords), then the b and c halves of
    its codeword, k entries each; rows is the class columns.  Indexing and
    iterating give FCopy objects of Python ints, slicing a tuple of them;
    it equals any sequence of the same copies, as a tuple of them would."""

    def __init__(self, table: np.ndarray, sizes: tuple[int, ...]):
        table.setflags(write=False)
        k = len(sizes)
        self.table, self.sizes = table, sizes
        self.codewords = table.shape[1] == sum(sizes) + 2 * k
        ends = tuple(itertools.accumulate((*sizes, *((k, k) if self.codewords else ())), initial=0))
        self.rows = table[:, :ends[k]]
        self.fields = tuple(itertools.pairwise(ends))  # column ranges: classes, then b and c

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._copy, self.table[i].tolist()))
        return self._copy(self.table[i].tolist())

    def _copy(self, row: list[int]) -> FCopy:
        fields = [tuple(row[a:b]) for a, b in self.fields]
        k = len(self.sizes)
        return FCopy(tuple(fields[:k]), Codeword(*fields[k:]) if self.codewords else None)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class Decomposition:
    host: MultipartiteHost
    pattern: PatternSignature
    copies: tuple[FCopy, ...] | CopyArray
    induced: bool

    def to_json_dict(self, arrays: bool = False) -> dict:
        """The decomposition as JSON values; with arrays, CopyArray copies
        stay in place of their list, for cli._json_text to write whole."""
        copies, is_array = self.copies, isinstance(self.copies, CopyArray)
        if is_array and not arrays and not copies.codewords:
            columns = [copies.rows[:, a:b].tolist() for a, b in copies.fields]
            copies = [{"classes": list(classes)} for classes in zip(*columns)]
        elif not (is_array and arrays):
            copies = []
            for copy in self.copies:
                entry: dict = {"classes": [list(c) for c in copy.classes]}
                if copy.codeword is not None:
                    entry["codeword"] = {"b": list(copy.codeword.b), "c": list(copy.codeword.c)}
                copies.append(entry)
        return {
            "host": self.host.to_json_dict(),
            "pattern": list(self.pattern.parts),
            "copies": copies,
            "induced": self.induced,
        }


def copy_array_from_json(entries) -> CopyArray | None:
    """A JSON copy list as one CopyArray, when every class is a list of
    plain ints, each class position has one size, and every entry or none
    has a codeword whose halves are such lists, one entry per class.  None
    for any other list."""
    try:
        columns = list(zip(*[entry["classes"] for entry in entries], strict=True))
        k = len(columns)
        if any("codeword" in entry for entry in entries):
            columns += [[entry["codeword"][half] for entry in entries] for half in "bc"]
        classes = list(itertools.chain(*columns))
        if set(map(type, classes)) != {list} or set(
                map(type, itertools.chain.from_iterable(classes))) != {int}:
            return None
        # one width per column, no empty class, one codeword entry per class
        widths = [set(map(len, column)) for column in columns]
        if any(len(w) != 1 or 0 in w for w in widths) or any(w != {k} for w in widths[k:]):
            return None
        flat = (np.fromiter(itertools.chain.from_iterable(column), np.int64) for column in columns)
        arrays = [a.reshape(len(column), -1) for a, column in zip(flat, columns)]
    except (KeyError, TypeError, ValueError, OverflowError):  # OverflowError: an id beyond int64
        return None
    return CopyArray(np.hstack(arrays), tuple(a.shape[1] for a in arrays[:k]))


def copies_from_json(entries) -> CopyArray | tuple[FCopy, ...]:
    """A JSON copy list as copy_array_from_json's CopyArray, else as FCopy
    objects read entry by entry, naming the first malformed one."""
    copies = copy_array_from_json(entries)
    return tuple(map(_copy_from_json, entries)) if copies is None else copies


def decomposition_from_json(data: dict) -> Decomposition:
    if type(data["induced"]) is not bool:
        raise ValueError(f"induced must be true or false, got {data['induced']!r}")
    copies = copies_from_json(data["copies"])
    return Decomposition(
        host=_host_from_json(data["host"]),
        pattern=PatternSignature(parts=json_ints(data["pattern"])),
        copies=copies,
        induced=data["induced"],
    )


def _copy_from_json(entry: dict) -> FCopy:
    codeword = None
    if "codeword" in entry:
        word = entry["codeword"]
        codeword = Codeword(b=json_ints(word["b"]), c=json_ints(word["c"]))
    return FCopy(classes=tuple(map(json_ints, entry["classes"])), codeword=codeword)


@dataclass(frozen=True)
class BlowupContext:
    """Pattern plus the per-part transversal designs and cell layout."""

    pattern: PatternSignature
    part_designs: tuple[TransversalDesign, ...] = field(repr=False)

    @functools.cached_property
    def host(self) -> MultipartiteHost:
        m = self.pattern.m
        return MultipartiteHost(parts=tuple(m * a for a in self.pattern.parts))

    def cell_rank(self, j: CellIndex) -> int:
        """Mixed-radix rank of a cell index vector, first coordinate most
        significant; ranks run 0..m-1."""
        rank = 0
        for coord, radix in zip(j, self.pattern.parts):
            if not 1 <= coord <= radix:
                raise ValueError(f"cell coordinate {coord} out of range 1..{radix}")
            rank = rank * radix + (coord - 1)
        return rank

    def cell_vertices(self, part: int, j: CellIndex) -> tuple[int, ...]:
        """Global vertex ids of cell j in the given part (1-based part)."""
        a = self.pattern.parts[part - 1]
        offset = self.host.offsets[part - 1]
        start = offset + a * self.cell_rank(j)
        return tuple(range(start + 1, start + a + 1))

    def cell_of(self, v: int) -> tuple[int, CellIndex]:
        """Part and cell index vector of a host vertex."""
        host = self.host
        part = host.part_of(v)
        if part is None:
            raise ValueError(f"vertex {v} is not in any part")
        a = self.pattern.parts[part - 1]
        return part, self._cells[(v - host.offsets[part - 1] - 1) // a]

    def codewords(self) -> Iterator[Codeword]:
        """All m**2 codewords in lexicographic order."""
        for b in self._cells:
            for c in self._cells:
                yield Codeword(b=b, c=c)

    @functools.cached_property
    def _cells(self) -> tuple[CellIndex, ...]:
        """Every cell index vector, in rank order."""
        return tuple(itertools.product(*(range(1, a + 1) for a in self.pattern.parts)))

    @functools.cached_property
    def _cell_classes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per part, the vertex class of each cell by rank, as cell_vertices
        gives it."""
        return tuple(
            tuple(tuple(range(s, s + a)) for s in range(offset + 1, offset + self.pattern.m * a + 1, a))
            for a, offset in zip(self.pattern.parts, self.host.offsets)
        )

    @functools.cached_property
    def _block_points(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], np.ndarray]:
        """points, stray, first and weights for _decode.  Row first[i] + x
        of points is row x of design i + 1's TransversalDesign.points, entry
        g - 1 the index of its point in group g; a last row of 0s stands for
        no block.  stray marks the rows with an index outside 1..a_i (0 for
        a group a damaged block misses); weights are the place values of
        cell ranks."""
        parts, tables = self.pattern.parts, [td.points for td in self.part_designs]
        first = tuple(itertools.accumulate(map(len, tables), initial=0))[:-1]
        stray = [((t < 1) | (t > a)).any(axis=1) for t, a in zip(tables, parts)]
        weights = np.cumprod((1, *parts[:0:-1]))[::-1]
        points = np.concatenate([*tables, np.zeros((1, self.pattern.k), dtype=np.int64)])
        return points, np.concatenate([*stray, [True]]), first, weights

    @functools.cached_property
    def _point_lists(self) -> tuple[list, ...]:
        """points, stray and weights of _block_points as lists, for edge_to_copy."""
        return tuple(self._block_points[i].tolist() for i in (0, 1, 3))

    @functools.cached_property
    def _codeword_rows(self) -> tuple[np.ndarray, ...]:
        """Per design i, entry [b - 1, c - 1] is the row of _block_points
        with the block through point b of group i and point c of the
        cyclically next group, -1 where no block covers both."""
        k, first, tables = self.pattern.k, self._block_points[2], []
        for i, (a, td) in enumerate(zip(self.pattern.parts, self.part_designs), start=1):
            tables.append(np.full((a, a), -1))
            for b, c in itertools.product(range(1, a + 1), repeat=2):
                with contextlib.suppress(LookupError):
                    tables[-1][b - 1, c - 1] = first[i - 1] + block_index(td, b, i, c, i % k + 1)
        return tuple(tables)


def make_context(pattern: PatternSignature) -> BlowupContext:
    """Construct the per-part designs TD(k, a_i), or report which parts fail.

    TD(k, a_i) needs k-2 mutually orthogonal Latin squares of order a_i,
    so a part is unsupported when k - 2 exceeds the reachable bound for
    its size (size 1 is always fine).
    """
    k = pattern.k
    failing = tuple(
        i + 1 for i, a in enumerate(pattern.parts) if k - 2 > designs.macneish(a)
    )
    if failing:
        sizes = [pattern.parts[i - 1] for i in failing]
        raise UnsupportedPattern(
            f"no TD({k}, a) construction for parts {list(failing)} (sizes {sizes})",
            failing_parts=failing,
        )
    cache: dict[int, TransversalDesign] = {}
    part_designs = []
    for a in pattern.parts:
        if a not in cache:
            cache[a] = designs.td_from_mols(designs.mols(a, k - 2), k)
        part_designs.append(cache[a])
    return BlowupContext(pattern=pattern, part_designs=tuple(part_designs))


def _decode(
    ctx: BlowupContext, rows: np.ndarray | None, codewords: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Cell vectors and cell ranks of many copies, each given by one
    block per design: rows[r, i] is the row of ctx._block_points with copy
    r's block of design i + 1, -1 for none.  Given codewords instead, each
    copy's (b, c), the blocks are those the codewords name, and the vectors
    must also satisfy j^i_i = b_i and j^(i+1)_i = c_i (cyclically).

    vectors[r, i, p] is the index of block i's point in group p + 1, which
    is coordinate i + 1 of the cell vector of part p + 1, of rank ranks[r, p].
    The first copy at fault raises its first fault, in the order: no block
    (LookupError), a coordinate outside its part (ValueError), the
    identities (RuntimeError).
    """
    points, stray, _, weights = ctx._block_points
    k, parts = ctx.pattern.k, ctx.pattern.parts
    if codewords is not None:
        b, c = codewords[:, 0], codewords[:, 1]
        rows = np.stack([t[b[:, i] - 1, c[:, i] - 1] for i, t in enumerate(ctx._codeword_rows)], 1)
    vectors = points[rows]
    fault = stray[rows]
    if codewords is not None:
        at = np.arange(k)
        disagree = (vectors[:, at, at] != b) | (vectors[:, at, (at + 1) % k] != c)
        fault = fault | disagree
    if np.count_nonzero(fault):
        r = int(fault.any(axis=1).argmax())
        if rows[r].min() < 0:
            i = int(rows[r].argmin())
            block_index(ctx.part_designs[i], b[r, i], i + 1, c[r, i], (i + 1) % k + 1)
        coords = vectors[r].T  # [part, coordinate], the order cell_rank reads them in
        outside = (coords < 1) | (coords > np.array(parts))
        if outside.any():
            p, i = divmod(int(outside.argmax()), k)
            raise ValueError(f"cell coordinate {coords[p, i]} out of range 1..{parts[i]}")
        w = Codeword(*map(tuple, codewords[r].tolist()))
        raise RuntimeError(
            f"block rule and coordinate rules disagree at position "
            f"{int(disagree[r].argmax()) + 1} for codeword {w}"
        )
    return vectors, weights @ (vectors - 1)


def decode_codeword(ctx: BlowupContext, w: Codeword) -> FCopy:
    """The pattern copy named by codeword w = (b, c).

    Block i is the block of design i through point b_i of group i and
    point c_i of the cyclically next group; the copy's cell vectors are
    read off those blocks coordinatewise.
    """
    for i, a in enumerate(ctx.pattern.parts):
        if not (1 <= w.b[i] <= a and 1 <= w.c[i] <= a):
            raise ValueError(f"codeword coordinate {i + 1} out of range for part size {a}")
    _, (ranks,) = _decode(ctx, None, np.array([[w.b, w.c]]))
    return FCopy(classes=_classes(ctx, ranks.tolist()), codeword=w)


def _classes(ctx: BlowupContext, ranks: list[int]) -> tuple[tuple[int, ...], ...]:
    """The vertex classes of one copy, given the rank of its cell in each part."""
    return tuple(map(tuple.__getitem__, ctx._cell_classes, ranks))


def blowup_decompose(pattern: PatternSignature) -> Decomposition:
    """Decompose the m-fold blow-up of the pattern into m**2 induced copies,
    one per codeword, in lexicographic codeword order, decoded in one pass
    into one CopyArray of their classes and codewords."""
    ctx = make_context(pattern)
    cells, m = np.array(ctx._cells), pattern.m
    codewords = np.stack((np.repeat(cells, m, axis=0), np.tile(cells, (m, 1))), axis=1)
    _, ranks = _decode(ctx, None, codewords)
    columns = [np.array(classes)[r] for classes, r in zip(ctx._cell_classes, ranks.T)]
    copies = CopyArray(np.hstack((*columns, codewords.reshape(m * m, -1))), pattern.parts)
    return Decomposition(host=ctx.host, pattern=pattern, copies=copies, induced=True)


def edge_to_copy(ctx: BlowupContext, u: int, v: int) -> tuple[Codeword, FCopy]:
    """The unique copy covering host edge (u, v), with its codeword.

    The endpoints' cells supply coordinates in two groups of every
    design, which pins down one block per design; the codeword is read
    back off the diagonal (b) and the cyclic superdiagonal (c).
    """
    part_u, ju = ctx.cell_of(u)
    part_v, jv = ctx.cell_of(v)
    if part_u == part_v:
        raise SamePart(f"vertices {u} and {v} both lie in part {part_u}")
    rows = [first + block_index(td, ju[l], part_u, jv[l], part_v) for l, (first, td) in
            enumerate(zip(ctx._block_points[2], ctx.part_designs))]
    points, stray, weights = ctx._point_lists
    if any(map(stray.__getitem__, rows)):
        _decode(ctx, np.array([rows]))  # raises the row's fault
    vectors, k = list(map(points.__getitem__, rows)), ctx.pattern.k
    classes = _classes(ctx, [sum(map(operator.mul, weights, c)) - sum(weights) for c in zip(*vectors)])
    w = Codeword(tuple([row[i] for i, row in enumerate(vectors)]),
                 tuple([row[(i + 1) % k] for i, row in enumerate(vectors)]))
    if u not in classes[part_u - 1] or v not in classes[part_v - 1]:
        raise RuntimeError(f"reconstructed copy for edge ({u}, {v}) does not contain it")
    return w, FCopy(classes=classes, codeword=w)
