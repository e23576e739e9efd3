"""Blown-up pattern decompositions and the codeword coordinate system."""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import pkgutil
import re
import sys

import numpy as np
import pytest

import induced_decomp
from induced_decomp import blowup, oracle
from induced_decomp.blowup import (
    BlowupContext,
    Codeword,
    FCopy,
    MultipartiteHost,
    PatternSignature,
    SamePart,
    UnsupportedPattern,
    blowup_decompose,
    decode_codeword,
    decomposition_from_json,
    edge_to_copy,
    make_context,
)
from induced_decomp.designs import SameGroup, TransversalDesign, block_index


def test_pattern_signature_from_text():
    assert PatternSignature.from_text("1,2").parts == (1, 2)
    assert PatternSignature.from_text(" 2, 3 ,6 ").parts == (2, 3, 6)


# int() would read "1_0" as 10, "+1" as 1 and the Arabic-Indic digit three as 3
@pytest.mark.parametrize("text", ["1,1_0", "+1,2", "1,\u0663", "1,", "1,,2", "1 2"])
def test_pattern_signature_from_text_rejects_non_ascii_decimal(text):
    with pytest.raises(ValueError, match="expected an integer"):
        PatternSignature.from_text(text)


def test_pattern_signature_properties():
    pat = PatternSignature((2, 3, 6))
    assert pat.k == 3
    assert pat.m == 36
    assert pat.order == 11
    assert pat.edge_count == 2 * 3 + 2 * 6 + 3 * 6


@pytest.mark.parametrize("parts", [(), (3,), (0, 2), (-1, 1)])
def test_pattern_signature_rejects(parts):
    with pytest.raises(ValueError):
        PatternSignature(parts)


# non-integral sizes used to be truncated by int(): (1.9, 2) read as (1, 2)
@pytest.mark.parametrize("parts", [(1.9, 2), (2.0, 2), (2, "3"), (2, None), (True, 2), (2, False)])
def test_pattern_signature_rejects_non_integral_parts(parts):
    with pytest.raises(ValueError, match="must be integers"):
        PatternSignature(parts)


@pytest.mark.parametrize("parts,isolated", [
    ((2.5, 3), 0), ((2, 3.0), 0), ((2, 3), 1.5), ((2, 3), "1"), ((2, 3), None),
    ((True, 3), 0), ((2, 3), True), ((2, 3), False),
])
def test_host_rejects_non_integral_sizes(parts, isolated):
    with pytest.raises(ValueError, match="must be integers"):
        MultipartiteHost(parts=parts, isolated=isolated)


def test_sizes_accept_numpy_integers():
    pat = PatternSignature(tuple(np.array([1, 2], dtype=np.int64)))
    host = MultipartiteHost(parts=np.array([2, 4], dtype=np.int32), isolated=np.int16(1))
    assert pat.parts == (1, 2) and host.parts == (2, 4) and host.isolated == 1
    assert all(type(x) is int for x in (*pat.parts, *host.parts, host.isolated))
    assert pat == PatternSignature((1, 2)) and host.order == 7


def test_host_geometry():
    host = MultipartiteHost((2, 4), isolated=1)
    assert host.order == 7
    assert host.offsets == (0, 2, 6)
    assert host.part_of(1) == 1 and host.part_of(3) == 2
    assert host.part_of(7) is None
    assert host.edge_count == 8
    assert list(host.edges())[:3] == [(1, 3), (1, 4), (1, 5)]


def test_host_non_edges_must_cross_parts():
    with pytest.raises(ValueError):
        MultipartiteHost((2, 2), non_edges=((1, 2),))


# non-edge entries used to be stored unchecked ((True, 3)), or to fail with
# errors that did not name the pair (TypeError from part_of, unpacking)
@pytest.mark.parametrize("pair", [(True, 3), (1, False), (1.0, 3), (1, 3, 4), (1,), 13, "13"])
def test_host_rejects_malformed_non_edge(pair):
    with pytest.raises(ValueError, match=rf"non-edge {re.escape(repr(pair))} must be a pair"):
        MultipartiteHost((2, 2), non_edges=(pair,))


def test_host_non_edges_accept_numpy_integers():
    host = MultipartiteHost((2, 2), non_edges=(np.array([3, 1], dtype=np.int32),))
    assert host.non_edges == ((1, 3),)
    assert all(type(x) is int for x in host.non_edges[0])


def test_host_non_edges_normalized():
    host = MultipartiteHost((2, 2), non_edges=((3, 1),))
    assert host.non_edges == ((1, 3),)
    assert (1, 3) not in list(host.edges())
    assert host.edge_count == 3


def test_make_context_small():
    ctx = make_context(PatternSignature((1, 2)))
    assert ctx.host.parts == (2, 4)
    # part 1 splits into cells of size 1, part 2 into cells of size 2
    assert ctx.cell_vertices(1, (1, 1)) == (1,)
    assert ctx.cell_vertices(1, (1, 2)) == (2,)
    assert ctx.cell_vertices(2, (1, 1)) == (3, 4)
    assert ctx.cell_vertices(2, (1, 2)) == (5, 6)
    assert ctx.cell_of(1) == (1, (1, 1))
    assert ctx.cell_of(6) == (2, (1, 2))


def test_cell_rank_mixed_radix():
    ctx = make_context(PatternSignature((2, 3)))
    # 0-based ranks over cell indices (j1, j2), j1 in 1..2, j2 in 1..3,
    # most significant digit first
    ranks = [ctx.cell_rank((j1, j2)) for j1 in (1, 2) for j2 in (1, 2, 3)]
    assert ranks == [0, 1, 2, 3, 4, 5]


def test_codewords_enumeration():
    ctx = make_context(PatternSignature((1, 2)))
    cws = list(ctx.codewords())
    assert len(cws) == 4
    assert cws[0] == Codeword(b=(1, 1), c=(1, 1))
    assert cws[-1] == Codeword(b=(1, 2), c=(1, 2))


def test_decode_frozen_example():
    """The four copies of the doubled (1,2) pattern, spelled out."""
    ctx = make_context(PatternSignature((1, 2)))
    table = {
        Codeword((1, 1), (1, 1)): ((1,), (3, 4)),
        Codeword((1, 1), (1, 2)): ((2,), (3, 4)),
        Codeword((1, 2), (1, 1)): ((1,), (5, 6)),
        Codeword((1, 2), (1, 2)): ((2,), (5, 6)),
    }
    for cw, classes in table.items():
        assert decode_codeword(ctx, cw).classes == classes


def test_decode_rejects_out_of_range():
    ctx = make_context(PatternSignature((1, 2)))
    with pytest.raises(ValueError):
        decode_codeword(ctx, Codeword((1, 3), (1, 1)))


# each used to raise IndexError from the part loop
@pytest.mark.parametrize("w", [Codeword((1,), (1,)), Codeword((1, 1), (1,)), Codeword((1, 1, 1), (1, 1, 1))])
def test_decode_rejects_codewords_of_the_wrong_length(w):
    ctx = make_context(PatternSignature((1, 2)))
    with pytest.raises(ValueError, match=r"needs 2 coordinates in b and in c$"):
        decode_codeword(ctx, w)


# part 0 used to read the last part's offset past the host ((7, 8) on this
# 6-vertex host), and a short vector used to rank as its prefix ((1,) gave 0)
def test_cell_helpers_reject_what_is_not_a_part_or_cell():
    ctx = make_context(PatternSignature((1, 2)))
    for part in (0, 3, -1):
        with pytest.raises(ValueError, match=rf"^part {part} out of range 1\.\.2$"):
            ctx.cell_vertices(part, (1, 1))
    for j in [(1,), (1, 1, 1), (0, 1), (1, 3), (2, 1), ()]:
        with pytest.raises(ValueError, match=r"is not a cell index vector of \(1, 2\)$"):
            ctx.cell_rank(j)
        with pytest.raises(ValueError, match=r"is not a cell index vector of \(1, 2\)$"):
            ctx.cell_vertices(2, j)


@pytest.mark.parametrize("parts", [(1, 2), (2, 2), (1, 1, 2), (2, 2, 2)])
def test_decode_fixes_diagonal_and_successor_coordinates(parts):
    # coordinate i of cell vector i equals b_i, and coordinate i of the
    # next vector (wrapping around) equals c_i, for every codeword
    ctx = make_context(PatternSignature(parts))
    k = len(parts)
    for w in ctx.codewords():
        fc = decode_codeword(ctx, w)
        vectors = [ctx.cell_of(cls[0])[1] for cls in fc.classes]
        for i in range(k):
            assert vectors[i][i] == w.b[i]
            assert vectors[(i + 1) % k][i] == w.c[i]


@pytest.mark.parametrize("parts", [
    (1, 1), (1, 2), (2, 2), (3, 3),
    (1, 1, 1), (1, 2, 3), (2, 2, 2), (2, 3, 3),
])
def test_blowup_counts_and_oracle_agreement(parts):
    pat = PatternSignature(parts)
    d = blowup_decompose(pat)
    assert d.induced is True
    assert d.host.parts == tuple(pat.m * a for a in parts)
    assert len(d.copies) == pat.m ** 2
    g = oracle.multipartite_graph(d.host)
    assert oracle.verify_decomposition(
        g, pat, [c.classes for c in d.copies], induced=True
    ) == []


@pytest.mark.parametrize("parts", [(1, 2), (2, 2), (1, 1, 2)])
def test_edge_to_copy_round_trip(parts):
    pat = PatternSignature(parts)
    ctx = make_context(pat)
    d = blowup_decompose(pat)
    by_codeword = {c.codeword: c.classes for c in d.copies}
    hit = set()
    for u, v in oracle.multipartite_graph(d.host).edges():
        cw, copy = edge_to_copy(ctx, u, v)
        assert copy.classes == by_codeword[cw]
        flat = [x for cl in copy.classes for x in cl]
        assert u in flat and v in flat
        hit.add(cw)
    assert len(hit) == pat.m ** 2


# the patterns of the benchmark's blowup-verify workload
BENCH_PATTERNS = [
    (1, 2), (2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 5), (5, 7),
    (1, 1, 2), (1, 2, 3), (2, 2, 3), (2, 3, 4), (2, 3, 5), (3, 4, 5),
]


@pytest.mark.parametrize("parts", BENCH_PATTERNS)
def test_blowup_decompose_equals_per_codeword_decode(parts):
    pat = PatternSignature(parts)
    ctx = make_context(pat)
    assert blowup_decompose(pat).copies == tuple(decode_codeword(ctx, w) for w in ctx.codewords())


def test_one_context_per_pattern():
    pat = PatternSignature((2, 3))
    assert make_context(pat) is make_context(PatternSignature.from_text("2,3"))
    assert blowup_decompose(pat) is make_context(pat).decomposition
    assert blowup_decompose(PatternSignature.from_text(" 2, 3")) is blowup_decompose(pat)
    # the cache keeps one context: another pattern evicts this one
    held = blowup_decompose(pat)
    make_context(PatternSignature((1, 2)))
    assert make_context.cache_info().currsize == 1
    assert blowup_decompose(pat) is not held


@pytest.mark.parametrize("parts", BENCH_PATTERNS)
def test_cached_decompositions_equal_uncached_decodes(parts):
    """The cached table is, byte for byte, a decode on a context built
    outside the cache."""
    pat = PatternSignature(parts)
    d = blowup_decompose(pat)
    fresh = make_context.__wrapped__(pat)
    assert fresh is not make_context(pat) and d is blowup_decompose(pat)
    table, expected = d.copies.table, fresh.decomposition.copies.table
    assert not table.flags.writeable
    assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
    assert table.tobytes() == expected.tobytes()
    assert (d.host, d.pattern, d.copies.sizes) == (fresh.host, pat, parts)


def test_every_package_cache_is_bounded():
    """Every lru_cache of the package, found as the benchmark's
    cache_clearers finds them, has a finite maxsize."""
    for info in pkgutil.walk_packages(induced_decomp.__path__, "induced_decomp."):
        importlib.import_module(info.name)
    caches = {
        value.__qualname__: value for name, module in list(sys.modules.items())
        if name == "induced_decomp" or name.startswith("induced_decomp.")
        for value in vars(module).values() if callable(getattr(value, "cache_info", None))
    }
    assert {"admissible_period", "_clique_search", "galois_field", "make_context"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name


# TD(2, 2) of the (2, 2) pattern's first part has blocks ((1, x), (2, y)) in
# (x, y) order; each damage below breaks one rule the decoder checks.
_TD22 = (((1, 1), (2, 1)), ((1, 1), (2, 2)), ((1, 2), (2, 1)), ((1, 2), (2, 2)))


@pytest.mark.parametrize("blocks,error,message", [
    # block (2, 1) also lists g1:1, so its group-1 point reads 1 where b_1 = 2
    (_TD22[:2] + (((1, 2), (2, 1), (1, 1)),) + _TD22[3:], RuntimeError,
     "block rule and coordinate rules disagree at position 1 for codeword "
     "Codeword(b=(2, 1), c=(1, 1))"),
    ((((1, 1), (2, 1), (2, 5)),) + _TD22[1:], ValueError, "cell coordinate 5 out of range 1..2"),
    (_TD22[:3], LookupError, "no block covers g1:2 and g2:2"),
])
def test_damaged_design_raises_for_first_codeword(monkeypatch, blocks, error, message):
    pat = PatternSignature((2, 2))
    ctx = make_context(pat)
    assert ctx.part_designs[0].blocks == _TD22
    damaged = BlowupContext(pat, (TransversalDesign(2, 2, blocks), ctx.part_designs[1]))
    monkeypatch.setattr(blowup, "make_context", lambda pattern: damaged)
    with pytest.raises(error) as whole:
        blowup_decompose(pat)
    with pytest.raises(error) as one_by_one:
        for w in damaged.codewords():
            decode_codeword(damaged, w)
    assert str(whole.value) == str(one_by_one.value) == message


def _reference_edge_to_copy(ctx, u, v):
    """edge_to_copy through a one-row _decode, as it was before it read the
    block points as lists."""
    part_u, ju = ctx.cell_of(u)
    part_v, jv = ctx.cell_of(v)
    if part_u == part_v:
        raise SamePart(f"vertices {u} and {v} both lie in part {part_u}")
    rows = [first + block_index(td, ju[l], part_u, jv[l], part_v) for l, (first, td) in
            enumerate(zip(ctx._block_points[2], ctx.part_designs))]
    (vectors,), (ranks,) = blowup._decode(ctx, np.array([rows]))
    classes = tuple(map(tuple.__getitem__, ctx._cell_classes, ranks.tolist()))
    vectors, k = vectors.tolist(), ctx.pattern.k
    w = Codeword(tuple(row[i] for i, row in enumerate(vectors)),
                 tuple(row[(i + 1) % k] for i, row in enumerate(vectors)))
    if u not in classes[part_u - 1] or v not in classes[part_v - 1]:
        raise RuntimeError(f"reconstructed copy for edge ({u}, {v}) does not contain it")
    return w, FCopy(classes=classes, codeword=w)


def _assert_edge_to_copy_matches(ctx, u, v):
    """edge_to_copy(ctx, u, v) gives the reference's codeword and copy, as
    Python ints, or raises its exception type and message."""
    try:
        expected = _reference_edge_to_copy(ctx, u, v)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            edge_to_copy(ctx, u, v)
        assert str(info.value) == str(exc)
        return
    w, copy = edge_to_copy(ctx, u, v)
    assert (w, copy) == expected
    assert {type(x) for x in (*w.b, *w.c, *itertools.chain(*copy.classes))} == {int}


def _assert_edge_to_copy_like_reference(ctx):
    """Every cross-part pair of ctx's host, in both orders, matches the reference."""
    host = ctx.host
    for u, v in itertools.permutations(range(1, host.order + 1), 2):
        if host.part_of(u) != host.part_of(v):
            _assert_edge_to_copy_matches(ctx, u, v)


@pytest.mark.parametrize("parts", [(1, 2), (2, 3), (1, 1, 2), (2, 2, 3), (1, 2, 3)])
def test_edge_to_copy_matches_one_row_decode(parts):
    _assert_edge_to_copy_like_reference(make_context(PatternSignature(parts)))


def test_edge_to_copy_matches_one_row_decode_on_seeded_pairs():
    ctx = make_context(PatternSignature((3, 4, 5)))
    rng = np.random.default_rng(2024)
    pairs = rng.integers(1, ctx.host.order + 1, size=(2000, 2)).tolist()
    for u, v in pairs:
        _assert_edge_to_copy_matches(ctx, u, v)
        _assert_edge_to_copy_matches(ctx, v, u)


# out of range, the same vertex, the same part, a numpy int (answered), a bool (refused)
@pytest.mark.parametrize("u,v", [
    (0, 1), (1, 0), (-1, 1), (1, -1), (7, 1), (1, 7), (0, 7), (4, 4), (4, 5), (2, 1),
    (np.int64(1), 3), (3, np.int32(1)), (True, 3), (3, True),
])
def test_edge_to_copy_outside_the_tables_matches_one_row_decode(u, v):
    ctx = make_context(PatternSignature((1, 2)))
    assert ctx.host.parts == (2, 4)
    _assert_edge_to_copy_matches(ctx, u, v)


def test_edge_to_copy_rejects_vertices_out_of_range():
    ctx = make_context(PatternSignature((1, 2)))
    for bad in (0, -1, 7):
        for u, v in ((bad, 3), (3, bad)):
            with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 1\.\.6$"):
                edge_to_copy(ctx, u, v)


# a copy without the edge (RuntimeError), coordinates 5 and 0 (ValueError), no block (LookupError)
_DAMAGED_TD22 = [
    _TD22[:2] + (((1, 2), (2, 1), (1, 1)),) + _TD22[3:],
    (((1, 1), (2, 1), (2, 5)),) + _TD22[1:],
    (((1, 1), (2, 1), (2, 0)),) + _TD22[1:],
    _TD22[:3],
]


def _damaged_context(blocks):
    pat = PatternSignature((2, 2))
    return BlowupContext(pat, (TransversalDesign(2, 2, blocks), make_context(pat).part_designs[1]))


@pytest.mark.parametrize("blocks", _DAMAGED_TD22)
def test_edge_to_copy_on_damaged_designs_matches_one_row_decode(blocks):
    _assert_edge_to_copy_like_reference(_damaged_context(blocks))


# A stray point in a third group: an edge between parts 1 and 2 meets it in
# no endpoint's cell, so only the stray check can send it to the fault.
@pytest.mark.parametrize("third", [((3, 5),), ((3, 0),), ()])
def test_edge_to_copy_with_a_stray_third_point_matches_one_row_decode(third):
    pat = PatternSignature((2, 2, 2))
    designs = make_context(pat).part_designs
    blocks = (((1, 1), (2, 1), *third),) + designs[0].blocks[1:]
    _assert_edge_to_copy_like_reference(
        BlowupContext(pat, (TransversalDesign(3, 2, blocks), *designs[1:])))


@pytest.mark.parametrize("blocks", [*_DAMAGED_TD22, _TD22])
def test_pair_tables_match_block_index(blocks):
    """_codeword_rows equals the block_index loop it replaced, and every
    entry of _pair_rows equals block_index's row or -1 where it finds none."""
    ctx = _damaged_context(blocks)
    k, first = ctx.pattern.k, ctx._block_points[2]
    for i, (a, td, rows) in enumerate(zip(ctx.pattern.parts, ctx.part_designs, ctx._codeword_rows)):
        expected = np.full((a, a), -1)
        for b, c in itertools.product(range(1, a + 1), repeat=2):
            with contextlib.suppress(LookupError):
                expected[b - 1, c - 1] = first[i] + block_index(td, b, i + 1, c, (i + 1) % k + 1)
        assert np.array_equal(rows, expected)
        for g, x, h, y in itertools.product(range(1, k + 1), range(1, a + 1), repeat=2):
            try:
                expected = first[i] + block_index(td, x, g, y, h)
            except (LookupError, SameGroup):
                expected = -1
            assert ctx._pair_rows[i][g - 1, x - 1, h - 1, y - 1] == expected


def test_edge_to_copy_same_part():
    ctx = make_context(PatternSignature((1, 2)))
    with pytest.raises(SamePart):
        edge_to_copy(ctx, 3, 4)


def test_unsupported_pattern():
    # raised on every call: the context cache keeps no error
    for build in (make_context, make_context, blowup_decompose):
        with pytest.raises(UnsupportedPattern) as info:
            build(PatternSignature((6, 6, 6, 6)))
        assert info.value.failing_parts == (1, 2, 3, 4)


def test_large_pattern_needing_field_mols():
    # four parts force TD(4, a_i), so sizes must admit 2 MOLS
    pat = PatternSignature((1, 3, 4, 5))
    d = blowup_decompose(pat)
    assert len(d.copies) == 60 ** 2


def test_decomposition_json_round_trip():
    d = blowup_decompose(PatternSignature((1, 2)))
    data = json.loads(json.dumps(d.to_json_dict(), sort_keys=True))
    back = decomposition_from_json(data)
    assert back.pattern == d.pattern
    assert back.induced is True
    assert back.host.parts == d.host.parts
    assert [c.classes for c in back.copies] == [c.classes for c in d.copies]


@pytest.mark.parametrize("field,value", [
    ("parts", [2.0, 4]), ("isolated", 1.0), ("isolated", True), ("non_edges", [[1.0, 3]]),
    ("parts", "24"), ("non_edges", ["13"]),
])
def test_decomposition_json_rejects_non_integer_host(field, value):
    data = blowup_decompose(PatternSignature((1, 2))).to_json_dict()
    data["host"][field] = value
    with pytest.raises(ValueError, match="expected an integer"):
        decomposition_from_json(data)


def test_decomposition_json_shape():
    d = blowup_decompose(PatternSignature((1, 2)))
    data = d.to_json_dict()
    assert data["host"] == {"parts": [2, 4]}
    assert data["pattern"] == [1, 2]
    assert data["induced"] is True
    first = data["copies"][0]
    assert first["codeword"] == {"b": [1, 1], "c": [1, 1]}
    assert first["classes"] == [[1], [3, 4]]


def test_copies_are_lexicographic_in_codeword():
    d = blowup_decompose(PatternSignature((2, 2)))
    cws = [c.codeword for c in d.copies]
    assert cws == sorted(cws)
    assert len(set(cws)) == len(cws)


@pytest.mark.parametrize("parts", [(1, 2), (2, 3), (1, 1, 2), (3, 4, 5)])
def test_copy_array_gives_python_ints(parts):
    """Indexing, slicing and iterating blow-up copies, decoded or read back
    from their JSON, give classes and a Codeword of exact Python ints, as
    demos/03_blowup_decomposition.py prints them."""
    d = blowup_decompose(PatternSignature(parts))
    back = decomposition_from_json(json.loads(json.dumps(d.to_json_dict())))
    assert isinstance(back.copies, tuple) and d.copies == back.copies
    for copies in (d.copies, back.copies):
        for copy in (copies[0], copies[-1], *copies[1:3], next(iter(copies))):
            assert type(copy.codeword) is Codeword
            values = [*itertools.chain(*copy.classes), *copy.codeword.b, *copy.codeword.c]
            assert {type(v) for v in values} == {int}
            assert [type(c) for c in (*copy.classes, *copy.codeword)] == [tuple] * (len(parts) + 2)
