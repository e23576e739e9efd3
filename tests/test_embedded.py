"""Balanced blow-ups whose decomposition classes coincide with fixed cells."""

from __future__ import annotations

import itertools
import math

import pytest

from induced_decomp import designs
from induced_decomp.blowup import PatternSignature
from induced_decomp.embedded import (
    EmbeddedDecomposition,
    SearchExhausted,
    UnsupportedP,
    embedded_decompose,
    star_parameters,
    verify_embedded,
)


@pytest.mark.parametrize("parts,p", [
    ((1, 1), 2), ((1, 1), 3),
    ((1, 2), 2), ((1, 2), 3), ((1, 2), 4), ((1, 2), 5),
    ((2, 2), 3),
    ((2, 2, 2), 6),
    ((1, 2, 3), 4),
])
def test_embedded_verifies(parts, p):
    ed = embedded_decompose(PatternSignature(parts), p)
    assert ed.p == p
    assert len(ed.base.copies) == p * p
    assert verify_embedded(ed) == []


def test_cell_structure():
    ed = embedded_decompose(PatternSignature((1, 2)), 3)
    # part 1 has size 3 split into three 1-cells, part 2 size 6 into three 2-cells
    assert ed.base.host.parts == (3, 6)
    assert ed.cells[0] == ((1,), (2,), (3,))
    assert ed.cells[1] == ((4, 5), (6, 7), (8, 9))


def test_classes_are_cells():
    ed = embedded_decompose(PatternSignature((1, 2)), 2)
    cell_sets = {cell for part in ed.cells for cell in part}
    for copy in ed.base.copies:
        for cls in copy.classes:
            assert cls in cell_sets


def test_copy_cells_indices():
    ed = embedded_decompose(PatternSignature((1, 2)), 2)
    idx = ed.copy_cells()
    assert len(idx) == 4
    for copy, cell_idx in zip(ed.base.copies, idx):
        assert copy.classes == tuple(
            ed.cells[i][x - 1] for i, x in enumerate(cell_idx)
        )


def test_unsupported_p():
    # four parts need two squares of order p; only one exists for p = 6
    with pytest.raises(UnsupportedP):
        embedded_decompose(PatternSignature((1, 1, 1, 1)), 6)
    # three parts only need one, so the same p is fine
    assert verify_embedded(embedded_decompose(PatternSignature((1, 1, 1)), 6)) == []


def test_verify_embedded_catches_tampering():
    ed = embedded_decompose(PatternSignature((1, 2)), 2)
    copies = list(ed.base.copies)
    copies[0], copies[1] = copies[1], copies[0]  # reorder is fine
    reordered = EmbeddedDecomposition(
        base=ed.base.__class__(
            host=ed.base.host, pattern=ed.base.pattern,
            copies=tuple(copies), induced=True,
        ),
        cells=ed.cells,
    )
    assert verify_embedded(reordered) == []

    dropped = EmbeddedDecomposition(
        base=ed.base.__class__(
            host=ed.base.host, pattern=ed.base.pattern,
            copies=ed.base.copies[1:], induced=True,
        ),
        cells=ed.cells,
    )
    violations = verify_embedded(dropped)
    assert violations and "copies" in violations[0]


def test_verify_embedded_catches_non_cell_class():
    ed = embedded_decompose(PatternSignature((1, 2)), 2)
    copies = list(ed.base.copies)
    first = copies[0]
    copies[0] = first.__class__(classes=((1,), (4, 5)))  # not a cell
    bad = EmbeddedDecomposition(
        base=ed.base.__class__(
            host=ed.base.host, pattern=ed.base.pattern,
            copies=tuple(copies), induced=True,
        ),
        cells=ed.cells,
    )
    violations = verify_embedded(bad)
    assert violations


@pytest.mark.parametrize("parts,p_expected", [
    ((1, 2), 2),
    ((1, 1), 2),
    ((2, 3, 6), 36),
])
def test_star_parameters_frozen(parts, p_expected):
    assert star_parameters(PatternSignature(parts)) == p_expected


def star_parameters_reference(pattern: PatternSignature) -> int | None:
    """The earlier rule: also demand TD(k, p * a_i) for every part a_i."""
    k, m = pattern.k, pattern.m
    for p in range(m if m > 1 else 2, 10_001, m):
        if k - 2 <= designs.macneish(p) and all(
            k - 2 <= designs.macneish(p * a) for a in pattern.parts
        ):
            return p
    return None


def test_star_parameters_match_reference():
    """Dropping the TD(k, p * a_i) test changes no multiplier: 2,455 patterns
    with parts 1..8, k = 2..6 and m <= 10_000."""
    checked = 0
    for k in range(2, 7):
        for parts in itertools.combinations_with_replacement(range(1, 9), k):
            if math.prod(parts) > 10_000:
                continue
            pattern = PatternSignature(parts)
            expected = star_parameters_reference(pattern)
            if expected is None:
                with pytest.raises(SearchExhausted):
                    star_parameters(pattern)
            else:
                assert star_parameters(pattern) == expected, parts
            checked += 1
    assert checked == 2455


def test_star_parameters_are_usable():
    """The returned p actually supports both required constructions."""
    pat = PatternSignature((1, 2, 3))
    p = star_parameters(pat)
    assert verify_embedded(embedded_decompose(pat, p)) == []
    assert p % pat.m == 0
    for a in pat.parts:
        td = designs.td_from_mols(designs.mols(p * a, pat.k - 2), pat.k)
        assert designs.verify_td(td) == []


def test_star_parameters_cap():
    # m = 2**14 = 16384 is past the 10_000 cap before any multiplier is tried
    with pytest.raises(SearchExhausted, match="up to 10000"):
        star_parameters(PatternSignature((2,) * 14))
