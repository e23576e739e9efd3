"""Balanced blow-ups whose decomposition classes coincide with fixed cells."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from induced_decomp import dense, designs, oracle
from induced_decomp.blowup import (
    CopyArray,
    Decomposition,
    FCopy,
    MultipartiteHost,
    PatternSignature,
    blowup_decompose,
)
from induced_decomp.embedded import (
    EmbeddedDecomposition,
    SearchExhausted,
    UnsupportedP,
    embedded_decompose,
    star_parameters,
    transport,
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


def rows_of(copies) -> np.ndarray:
    """Copies given as classes of p-set indices, as transport's int rows."""
    return np.array([[v for cls in classes for v in cls] for classes in copies])


@pytest.mark.parametrize("parts,p,copies", [
    ((1, 2), 4, [((1,), (2, 3)), ((3,), (4, 1))]),
    ((1, 1, 2), 4, [((2,), (1,), (3, 4)), ((5,), (4,), (2, 1)), ((3,), (5,), (1, 2))]),
])
def test_transport_cuts_psets_into_runs(parts, p, copies):
    pattern = PatternSignature(parts)
    out = transport(pattern, p, rows_of(copies))
    assert len(out) == len(copies) * p * p
    td = designs.td_from_mols(designs.mols(p, pattern.k - 2), pattern.k)
    for c, classes in enumerate(copies):
        for b, block in enumerate(td.blocks):
            fc = out[c * p * p + b]
            for (g, x), cls, psets, a in zip(block, fc.classes, classes, parts):
                # run x of class g: a consecutive vertices of one of its p-sets
                v = psets[(x - 1) * a // p]
                start = (v - 1) * p + (x - 1) * a % p + 1
                assert cls == tuple(range(start, start + a))



def cut_reference(psets: tuple[int, ...], a: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The p-sets concatenated in order and cut into p runs of a vertices."""
    flat = tuple(u for v in psets for u in range((v - 1) * p + 1, v * p + 1))
    return tuple(flat[j:j + a] for j in range(0, a * p, a))


def transport_reference(pattern: PatternSignature, p: int, copies) -> tuple[FCopy, ...]:
    """transport as one tuple per copy and block: block ((1, x_1), ...,
    (k, x_k)) takes run x_i of class i, cut from the class's p-sets."""
    td = designs.td_from_mols(designs.mols(p, pattern.k - 2), pattern.k)
    runs = ([cut_reference(cls, a, p) for cls, a in zip(classes, pattern.parts)]
            for classes in copies)
    return tuple(
        FCopy(classes=tuple(r[g - 1][x - 1] for g, x in block)) for r in runs for block in td.blocks
    )


@pytest.mark.parametrize("parts,n", [((1, 2), 60), ((1, 2), 71), ((2, 2), 47), ((2, 2), 83)])
def test_transport_matches_reference_on_clique_copies(parts, n):
    """The K_{n'} copies the dense-sweep sizes certify transport to the
    classes the tuple loop gives."""
    pattern = PatternSignature(parts)
    budget = oracle.SearchBudget(100_000, 3600.0)
    params = dense.choose_parameters(pattern, n, budget)
    copies = dense._clique_search(pattern, params.n_prime, budget)
    assert len(copies) > 1
    got = transport(pattern, params.p, copies)
    classes = [copy.classes for copy in CopyArray(copies, pattern.parts)]
    assert got == transport_reference(pattern, params.p, classes)
    assert got[3:7] == tuple(got)[3:7] and got[-1] == tuple(got)[-1]
    assert got == transport(pattern, params.p, copies) and got != got[1:]



@pytest.mark.parametrize("copies", [[[1, 2.5, 3]], [[1, 2.0, 3]], [[1, "2", 3]]])
def test_transport_rejects_non_integer_psets(copies):
    # a float index must not be truncated to the p-set below it
    with pytest.raises(ValueError, match="p-set indices must be integers"):
        transport(PatternSignature((1, 2)), 3, copies)

def test_int_guard():
    """Every vertex of every copy and every block point is exactly int: the
    CLI's joiner keys on type(x) is int, json.dumps refuses np.int64 and
    numpy 2 prints np.int64(3) where the demos print 3."""
    def assert_ints(copies):
        values = [v for copy in copies for cls in copy.classes for v in cls]
        assert values and {type(v) for v in values} == {int}

    pattern = PatternSignature((1, 2))
    assert_ints(transport(pattern, 3, rows_of([((1,), (2, 3)), ((3,), (4, 1))])))
    assert_ints(embedded_decompose(PatternSignature((1, 1, 1)), 5).base.copies)
    assert_ints(blowup_decompose(PatternSignature((2, 3))).copies)
    assert_ints(dense.assemble(pattern, 30).decomposition.copies)
    ed = embedded_decompose(pattern, 4)
    for data in (ed.to_json_dict(), dense.assemble(pattern, 30).to_json_dict()):
        classes = [v for entry in data["copies"] for cls in entry["classes"] for v in cls]
        assert {type(v) for v in classes} == {int}
    td = designs.td_from_mols(designs.mols(7, 3), 5)
    assert {type(x) for block in td.blocks for point in block for x in point} == {int}
    assert {type(x) for cell in ed.cells[1] for x in cell} == {int}


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


def with_copies(ed, copies, host=None):
    base = ed.base
    return EmbeddedDecomposition(
        base=Decomposition(
            host=base.host if host is None else host, pattern=base.pattern,
            copies=tuple(copies), induced=True,
        ),
        cells=ed.cells,
    )


def test_verify_embedded_catches_duplicate_copy():
    ed = embedded_decompose(PatternSignature((1, 2)), 3)
    copies = list(ed.base.copies)
    copies[4] = copies[0]
    damaged = with_copies(ed, copies)
    violations = verify_embedded(damaged)
    assert violations and "covered" in violations[0]
    base = damaged.base
    assert oracle.verify_decomposition(base.host, base.pattern, base.copies, induced=True)


def test_verify_embedded_checks_host_parts():
    # cells that fit a K_{1,4} host: part 2's cells reach back into part 1
    pattern = PatternSignature((1, 1))
    cells = (((1,), (2,)), ((2,), (3,)))
    copies = tuple(FCopy(classes=(a, b)) for a in cells[0] for b in cells[1])
    host = MultipartiteHost(parts=(1, 4))
    d = EmbeddedDecomposition(Decomposition(host, pattern, copies, induced=True), cells)
    assert verify_embedded(d) == [
        "host (1, 4) with 4 edges is not 2 times the pattern parts with 4 edges"
    ]
    assert oracle.verify_decomposition(host, pattern, copies, induced=True)


def test_verify_embedded_checks_host_edges():
    ed = embedded_decompose(PatternSignature((1, 2)), 2)
    host = MultipartiteHost(parts=(2, 4), non_edges=((1, 3),))
    assert verify_embedded(with_copies(ed, ed.base.copies, host)) == [
        "host (2, 4) with 7 edges is not 2 times the pattern parts with 8 edges"
    ]


EMBEDDED_SOURCES = [
    ((1, 1), 2), ((1, 1), 3), ((1, 2), 2), ((1, 2), 3), ((2, 2), 3),
    ((1, 1, 1), 3), ((1, 2, 2), 4), ((1, 1, 1, 1), 4),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_embedded_matches_oracle_on_damaged_copies(data):
    """verify_embedded accepts exactly the decompositions that the independent
    oracle accepts and whose every class i is a cell of part i; with p**2
    copies, an oracle fault is its message word for word."""
    parts, p = data.draw(st.sampled_from(EMBEDDED_SOURCES))
    ed = embedded_decompose(PatternSignature(parts), p)
    host = ed.base.host
    copies = [list(copy.classes) for copy in ed.base.copies]
    for damage in data.draw(st.lists(
        st.sampled_from(["drop", "duplicate", "shuffle", "re-cell", "swap"]), max_size=2
    )):
        a = data.draw(st.integers(0, len(copies) - 1))
        if damage == "drop":
            del copies[a]
        elif damage == "duplicate":
            copies.insert(data.draw(st.integers(0, len(copies))), list(copies[a]))
        elif damage == "shuffle":
            copies = data.draw(st.permutations(copies))
        elif damage == "re-cell":
            i = data.draw(st.integers(0, len(parts) - 1))
            copies[a][i] = data.draw(st.one_of(
                st.sampled_from(ed.cells[i]),
                st.sets(st.integers(1, host.order), min_size=parts[i], max_size=parts[i])
                .map(lambda vs: tuple(sorted(vs))),
            ))
        else:  # swap classes between two distinct copies
            b = data.draw(st.integers(0, len(copies) - 1))
            i = data.draw(st.integers(0, len(parts) - 1))
            j = data.draw(st.integers(0, len(parts) - 1))
            if a != b:
                copies[a][i], copies[b][j] = copies[b][j], copies[a][i]
    damaged = with_copies(ed, [FCopy(classes=tuple(c)) for c in copies])
    expected = oracle.verify_decomposition(
        host, damaged.base.pattern, damaged.base.copies, induced=True
    )
    # class order matters only here: with equal part sizes the oracle takes
    # a copy whose classes trade parts as the same induced copy
    in_place = all(cls in ed.cells[i] for c in copies for i, cls in enumerate(c))
    assert (verify_embedded(damaged) == []) == (expected == [] and in_place)
    if len(copies) == p * p and expected:
        assert verify_embedded(damaged) == expected


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
