"""Cell-aligned decompositions of K_{p*a1,...,p*ak} from one TD(k, p).

transport is the one place where copies are cut into cells.  Its input
copies have classes of independent p-sets (p-set v is the vertices
(v-1)*p + 1, ..., v*p); class i's p-sets, concatenated, are cut into p
runs of a_i vertices, the cells.  Replacing each point (i, x) of a
TD(k, p) block by cell x of class i makes every block an induced copy of
K_{a1,...,ak}, and as the p**2 blocks cover each cross-group point pair
once, the copies cover each cross-cell edge bundle once.
embedded_decompose transports the pattern's own copy into
K_{p*a1,...,p*ak}, so every class of every copy is a whole cell of a
part; the copies then tile the host exactly when their cell indices form
a TD(k, p), which verify_embedded checks with designs.verify_td.

star_parameters searches for the smallest multiplier p* > 1 that is a
multiple of a1*...*ak and keeps TD(k, p*) constructible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from . import designs
from .blowup import Decomposition, FCopy, MultipartiteHost, PatternSignature

__all__ = [
    "EmbeddedDecomposition",
    "SearchExhausted",
    "UnsupportedP",
    "embedded_decompose",
    "star_parameters",
    "transport",
    "verify_embedded",
]

STAR_CAP = 10_000


class UnsupportedP(ValueError):
    """No TD(k, p) construction is available for this multiplier."""


class SearchExhausted(RuntimeError):
    """No feasible multiplier found below the search cap."""


@dataclass(frozen=True)
class EmbeddedDecomposition:
    """A decomposition whose copy classes are exactly the part cells."""

    base: Decomposition
    cells: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def p(self) -> int:
        return len(self.cells[0])

    def to_json_dict(self) -> dict:
        out = self.base.to_json_dict()
        out["cells"] = [[list(cell) for cell in part_cells] for part_cells in self.cells]
        return out


def _cut(psets: tuple[int, ...], a: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The p-sets concatenated in order and cut into p runs of a vertices."""
    flat = tuple(u for v in psets for u in range((v - 1) * p + 1, v * p + 1))
    return tuple(flat[j:j + a] for j in range(0, a * p, a))


def transport(
    pattern: PatternSignature, p: int, copies: Iterable[tuple[tuple[int, ...], ...]]
) -> tuple[FCopy, ...]:
    """The p**2 induced copies of each input copy, in (copy, block) order.

    Each input copy is given by its classes of p-set indices.  Block
    ((1, x_1), ..., (k, x_k)) of td_from_mols(mols(p, k-2), k), in the
    lexicographic order of (x_1, x_2), takes run x_i of class i.
    """
    if p < 1:
        raise ValueError(f"multiplier must be positive, got {p}")
    k = pattern.k
    if k - 2 > designs.macneish(p):
        raise UnsupportedP(f"no TD({k}, {p}) construction available")
    td = designs.td_from_mols(designs.mols(p, k - 2), k)
    runs = ([_cut(cls, a, p) for cls, a in zip(classes, pattern.parts)] for classes in copies)
    # td_from_mols lists each block's points in group order
    return tuple(
        FCopy(classes=tuple(r[g - 1][x - 1] for g, x in block)) for r in runs for block in td.blocks
    )


def embedded_decompose(pattern: PatternSignature, p: int) -> EmbeddedDecomposition:
    """p**2 induced copies of the pattern tiling K_{p*a1,...,p*ak}: the
    transport of the copy whose class i is the p-sets of part i."""
    offsets = itertools.accumulate(pattern.parts, initial=0)
    own = tuple(tuple(range(o + 1, o + a + 1)) for o, a in zip(offsets, pattern.parts))
    copies = transport(pattern, p, (own,))
    cells = tuple(_cut(cls, a, p) for cls, a in zip(own, pattern.parts))
    host = MultipartiteHost(parts=tuple(p * a for a in pattern.parts))
    base = Decomposition(host=host, pattern=pattern, copies=copies, induced=True)
    return EmbeddedDecomposition(base=base, cells=cells)


def verify_embedded(d: EmbeddedDecomposition) -> list[str]:
    """Check that the host is K_{p*a1,...,p*ak} with all its p**2 * |E(F)|
    edges, that the cells partition its parts and that each of the p**2
    copies takes its classes from the cells; coverage is then verify_td on
    the copies' cell indices.  First violation (as a one-entry list) or []."""
    base, pattern = d.base, d.base.pattern
    k = pattern.k
    if len(d.cells) != k:
        return [f"expected {k} part cell lists, got {len(d.cells)}"]
    p, host = d.p, base.host
    edges = p * p * pattern.edge_count
    if host.parts != tuple(p * a for a in pattern.parts) or host.edge_count != edges:
        return [f"host {host.parts} with {host.edge_count} edges is not {p} times "
                f"the pattern parts with {edges} edges"]
    for i, (a, part_cells) in enumerate(zip(pattern.parts, d.cells)):
        if len(part_cells) != p:
            return [f"part {i + 1} has {len(part_cells)} cells, expected {p}"]
        flat = [v for cell in part_cells for v in cell]
        expected = list(range(host.offsets[i] + 1, host.offsets[i + 1] + 1))
        if sorted(flat) != expected or any(len(cell) != a for cell in part_cells):
            return [f"cells of part {i + 1} do not partition it into size-{a} chunks"]
    if len(base.copies) != p * p:
        return [f"{len(base.copies)} copies, expected {p * p}"]
    # each class becomes the point (part, cell index) of a block of a TD(k, p)
    index = [
        {cell: (g, j) for j, cell in enumerate(cells, 1)} for g, cells in enumerate(d.cells, 1)
    ]
    blocks = []
    for idx, copy in enumerate(base.copies):
        if len(copy.classes) != k:
            return [f"copy {idx} has {len(copy.classes)} classes, expected {k}"]
        block = tuple(map(dict.get, index, copy.classes))
        if None in block:
            i = block.index(None)
            return [f"copy {idx} class {i + 1} is not a cell of part {i + 1}"]
        blocks.append(block)
    return designs.verify_td(designs.TransversalDesign(k, p, tuple(blocks)))[:1]


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