"""Cell-aligned decompositions of K_{p*a1,...,p*ak} from one TD(k, p).

transport is the one place where copies are cut into cells.  Its input
is one int array, a row per copy listing its classes of independent
p-sets (p-set v is the vertices (v-1)*p + 1, ..., v*p) one after
another; class i's p-sets, concatenated, are cut into p runs of a_i
vertices, the cells.  Replacing each point (i, x) of a TD(k, p) block by
cell x of class i makes every block an induced copy of K_{a1,...,ak},
and as the p**2 blocks cover each cross-group point pair once, the
copies cover each cross-cell edge bundle once.  The copies are
one int array (a CopyArray) gathered with one fancy index per part.
embedded_decompose transports the pattern's own copy into
K_{p*a1,...,p*ak}, so every class of every copy is a whole cell of a
part.  p and the cells are read off the host and the pattern, not
stored: the vertex at offset o of part i is slot o % a_i of cell o // a_i.
verify_embedded leaves tiling to oracle.verify_decomposition and then
checks that class i of every copy is a cell of part i.

star_parameters searches for the smallest multiplier p* > 1 that is a
multiple of a1*...*ak and keeps TD(k, p*) constructible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import designs, oracle
from .blowup import CopyArray, Decomposition, MultipartiteHost, PatternSignature

__all__ = [
    "EmbeddedDecomposition",
    "SearchExhausted",
    "embedded_decompose",
    "star_parameters",
    "transport",
    "verify_embedded",
]

STAR_CAP = 10_000


class SearchExhausted(RuntimeError):
    """No feasible multiplier found below the search cap."""


@dataclass(frozen=True)
class EmbeddedDecomposition:
    """A decomposition whose copy classes are exactly the part cells."""

    base: Decomposition

    @property
    def p(self) -> int:
        return self.base.host.order // self.base.pattern.order

    @property
    def cells(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per part, its runs of a_i consecutive vertices, in order."""
        host = self.base.host
        return tuple(
            tuple(tuple(range(s, s + a)) for s in range(start + 1, end + 1, a))
            for start, end, a in zip(host.offsets, host.offsets[1:], self.base.pattern.parts)
        )

    def to_json_dict(self) -> dict:
        out = self.base.to_json_dict()
        out["cells"] = [[list(cell) for cell in part_cells] for part_cells in self.cells]
        return out


def transport(pattern: PatternSignature, p: int, psets: np.ndarray) -> CopyArray:
    """The p**2 induced copies of each input copy, in (copy, block) order.

    Row r of psets lists the p-set indices of copy r, class by class.  Block
    ((1, x_1), ..., (k, x_k)) of designs.transversal_design(k, p), in the
    lexicographic order of (x_1, x_2), takes run x_i of class i: entries
    (x_i - 1) * a_i .. x_i * a_i - 1 of its p-sets' vertices, concatenated.
    """
    if p < 1:
        raise ValueError(f"multiplier must be positive, got {p}")
    td = designs.transversal_design(pattern.k, p)
    psets = np.asarray(psets).reshape(-1, pattern.order)
    if psets.size and psets.dtype.kind not in "iu":
        raise ValueError(f"p-set indices must be integers, got {psets.dtype}")
    psets = psets.astype(np.int64, copy=False)
    offsets = itertools.accumulate(pattern.parts, initial=0)
    gathered = []
    for i, (o, a) in enumerate(zip(offsets, pattern.parts)):
        t = (td.points[:, i, None] - 1) * a + np.arange(a)  # [block, slot] entries of class i
        gathered.append((psets[:, o + t // p] - 1) * p + t % p + 1)
    rows = np.concatenate(gathered, axis=2).reshape(-1, pattern.order)
    return CopyArray(rows, pattern.parts)


def embedded_decompose(pattern: PatternSignature, p: int) -> EmbeddedDecomposition:
    """p**2 induced copies of the pattern tiling K_{p*a1,...,p*ak}: the
    transport of the copy whose class i is the p-sets of part i."""
    copies = transport(pattern, p, np.arange(1, pattern.order + 1)[None])
    host = MultipartiteHost(parts=tuple(p * a for a in pattern.parts))
    return EmbeddedDecomposition(Decomposition(host=host, pattern=pattern, copies=copies, induced=True))


def verify_embedded(d: EmbeddedDecomposition) -> list[str]:
    """Check that the host is K_{p*a1,...,p*ak} with all its p**2 * |E(F)|
    edges and that there are p**2 copies; then that
    oracle.verify_decomposition accepts the copies as an induced
    decomposition of the host, and that class i of every copy is a cell of
    part i.  First violation (as a one-entry list) or []."""
    base, pattern, p = d.base, d.base.pattern, d.p
    host, k = base.host, pattern.k
    edges = p * p * pattern.edge_count
    if host.parts != tuple(p * a for a in pattern.parts) or host.edge_count != edges:
        return [f"host {host.parts} with {host.edge_count} edges is not {p} times "
                f"the pattern parts with {edges} edges"]
    copies = base.copies
    if len(copies) != p * p:
        return [f"{len(copies)} copies, expected {p * p}"]
    failure = oracle.verify_decomposition(host, pattern, copies, True)
    if failure:
        return failure
    # rows in the layout of pattern.parts: a copy with its sizes in another order fails
    rows = copies.rows if isinstance(copies, CopyArray) else np.array(
        [[v for c in copy.classes for v in c] for copy in copies], np.int64)
    # column j holds slot j - starts[i] of class i, which must lie in part i
    starts = list(itertools.accumulate(pattern.parts, initial=0))[:-1]
    first, part, size = (np.repeat(x, pattern.parts) for x in (starts, range(k), pattern.parts))
    cell, slot = np.divmod(rows - 1 - np.array(host.offsets)[part], size)
    wrong = (host._part_array[rows] != part + 1) | (slot != np.arange(pattern.order) - first) | (
        cell != cell[:, first])
    bad = np.logical_or.reduceat(wrong, starts, axis=1)
    if bad.any():
        idx, i = divmod(int(bad.argmax()), k)
        return [f"copy {idx} class {i + 1} is not a cell of part {i + 1}"]
    return []


def star_parameters(pattern: PatternSignature) -> int:
    """Smallest p* > 1, multiple of a1*...*ak, with TD(k, p*) constructible;
    SearchExhausted beyond STAR_CAP.  Every TD(k, p* * a_i) exists then too:
    a_i divides p*, so p* * a_i has no smaller MacNeish bound than p*."""
    m = pattern.m
    p = m if m > 1 else 2
    while p <= STAR_CAP:
        if pattern.k - 2 <= designs.macneish(p):
            return p
        p += m
    raise SearchExhausted(f"no feasible multiplier for pattern {pattern.parts} up to {STAR_CAP}")