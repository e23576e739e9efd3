"""Cell-aligned decompositions of K_{p*a1,...,p*ak} from one TD(k, p).

Splitting part i of the host into p consecutive cells of size a_i and
replacing each point of a TD(k, p) block by the matching cell turns
every block into an induced copy of K_{a1,...,ak}: the p**2 blocks
cover each cross-group point pair once, so the blown-up copies cover
each cross-cell edge bundle once.  The distinguishing feature of the
result is that every class of every copy coincides with a whole cell,
which is what lets a later refinement step transport these copies into
graphs whose parts arrive pre-partitioned.

star_parameters searches for the smallest multiplier p* > 1 that is a
multiple of a1*...*ak and keeps TD(k, p*) constructible.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import designs
from .blowup import Decomposition, FCopy, MultipartiteHost, PatternSignature

__all__ = [
    "EmbeddedDecomposition",
    "SearchExhausted",
    "UnsupportedP",
    "embedded_decompose",
    "star_parameters",
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

    def copy_cells(self) -> tuple[tuple[int, ...], ...]:
        """For each copy, the 1-based cell index of its class in every part."""
        index = [
            {cell: j for j, cell in enumerate(part_cells, start=1)}
            for part_cells in self.cells
        ]
        return tuple(
            tuple(index[i][cls] for i, cls in enumerate(copy.classes))
            for copy in self.base.copies
        )

    def to_json_dict(self) -> dict:
        out = self.base.to_json_dict()
        out["cells"] = [[list(cell) for cell in part_cells] for part_cells in self.cells]
        return out


def embedded_decompose(pattern: PatternSignature, p: int) -> EmbeddedDecomposition:
    """p**2 induced copies of the pattern tiling K_{p*a1,...,p*ak}.

    Copies are emitted in the block order of the underlying TD(k, p)
    (lexicographic in the defining coordinate pair).
    """
    if p < 1:
        raise ValueError(f"multiplier must be positive, got {p}")
    k = pattern.k
    if k - 2 > designs.macneish(p):
        raise UnsupportedP(f"no TD({k}, {p}) construction available")
    td = designs.td_from_mols(designs.mols(p, k - 2), k)
    host = MultipartiteHost(parts=tuple(p * a for a in pattern.parts))
    offsets = host.offsets
    cells = tuple(
        tuple(
            tuple(range(offsets[i] + (j - 1) * a + 1, offsets[i] + j * a + 1))
            for j in range(1, p + 1)
        )
        for i, a in enumerate(pattern.parts)
    )
    copies = []
    for block in td.blocks:
        by_group = dict(block)
        copies.append(
            FCopy(classes=tuple(cells[i][by_group[i + 1] - 1] for i in range(k)))
        )
    base = Decomposition(host=host, pattern=pattern, copies=tuple(copies), induced=True)
    return EmbeddedDecomposition(base=base, cells=cells)


def verify_embedded(d: EmbeddedDecomposition) -> list[str]:
    """Check the decomposition axioms plus cell coincidence; first violation
    (as a single-entry list) or []."""
    base = d.base
    pattern = base.pattern
    k = pattern.k
    if len(d.cells) != k:
        return [f"expected {k} part cell lists, got {len(d.cells)}"]
    p = d.p
    offsets = base.host.offsets
    for i, a in enumerate(pattern.parts):
        part_cells = d.cells[i]
        if len(part_cells) != p:
            return [f"part {i + 1} has {len(part_cells)} cells, expected {p}"]
        flat = [v for cell in part_cells for v in cell]
        expected = list(range(offsets[i] + 1, offsets[i] + p * a + 1))
        if sorted(flat) != expected or any(len(cell) != a for cell in part_cells):
            return [f"cells of part {i + 1} do not partition it into size-{a} chunks"]
    if len(base.copies) != p * p:
        return [f"{len(base.copies)} copies, expected {p * p}"]
    cell_sets = [set(part_cells) for part_cells in d.cells]
    covered: set[tuple[int, int]] = set()
    for idx, copy in enumerate(base.copies):
        if len(copy.classes) != k:
            return [f"copy {idx} has {len(copy.classes)} classes, expected {k}"]
        for i, cls in enumerate(copy.classes):
            if cls not in cell_sets[i]:
                return [f"copy {idx} class {i + 1} is not a cell of part {i + 1}"]
        for ci in range(k):
            for cj in range(ci + 1, k):
                for u in copy.classes[ci]:
                    for v in copy.classes[cj]:
                        key = (u, v) if u < v else (v, u)
                        if key in covered:
                            return [f"edge {key} covered twice (second time by copy {idx})"]
                        covered.add(key)
    if len(covered) != base.host.edge_count:
        return [
            f"{len(covered)} edges covered, host has {base.host.edge_count}"
        ]
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