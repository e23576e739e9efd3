"""Brute-force oracle tests: enumeration, exact cover, verification, cex."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import re
import signal
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from induced_decomp.blowup import (
    CopyArray,
    FCopy,
    MultipartiteHost,
    PatternSignature,
    blowup_decompose,
    host_pairs,
)
from induced_decomp import oracle
from induced_decomp.dense import assemble
from induced_decomp.oracle import (
    BudgetExceeded,
    CapExceeded,
    NoDecomposition,
    SearchBudget,
    SmallGraph,
    canonical_form,
    cex_exact,
    complete_graph,
    edge_list_text,
    enumerate_copies,
    exact_cover_decompose,
    multipartite_graph,
    non_neighbor_check,
    verify_decomposition,
)

P12 = PatternSignature((1, 2))
P11 = PatternSignature((1, 1))
P22 = PatternSignature((2, 2))

C4 = SmallGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


def relabel(g: SmallGraph, perm: dict[int, int]) -> SmallGraph:
    return SmallGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_small_graph_basics():
    g = SmallGraph.from_edges(5, [(2, 1), (3, 5)])
    assert g.edges() == [(1, 2), (3, 5)]
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    assert g.degree(1) == 1 and g.degree(4) == 0
    assert g.edge_count == 2


def test_small_graph_rejects_loops():
    with pytest.raises(ValueError):
        SmallGraph.from_edges(3, [(1, 1)])


@pytest.mark.parametrize("edges, bad", [
    ([(1, 2), (3, 3)], (3, 3)), ([(2, 4), (0, 1)], (2, 4)), ([(1, 2), (0, 1)], (0, 1)),
    ([(1, 2), (2, -1), (3, 9)], (2, -1)), ([(3, 1), (2, 10**20)], (2, 10**20)),
])
def test_from_edges_names_the_first_bad_edge(edges, bad):
    """An id outside 1..n or a self-loop is a bad edge; the first is named."""
    with pytest.raises(ValueError, match=re.escape(f"bad edge {bad} for 3 vertices")):
        SmallGraph.from_edges(3, edges)


@pytest.mark.parametrize("bits", [
    np.zeros((2, 3), bool), np.zeros(3, bool), np.zeros((1, 1, 1), bool),
    np.zeros((3, 3), np.uint8), [[False]],
])
def test_small_graph_rejects_a_matrix_that_is_not_square_bool(bits):
    with pytest.raises(ValueError, match="^adjacency must be a square bool matrix$"):
        SmallGraph(bits)


def test_small_graph_rejects_a_self_loop_in_its_matrix():
    bits = np.zeros((3, 3), bool)
    bits[1, 1] = True
    with pytest.raises(ValueError, match="^vertex 2 has a self-loop$"):
        SmallGraph(bits)


def test_small_graph_holds_its_matrix_read_only():
    g = SmallGraph.from_edges(3, [(1, 3)])
    assert g.bits.tolist() == [[False, False, True], [False, False, False], [True, False, False]]
    assert (g.n, g.order, g.rows) == (3, 3, (4, 0, 1))
    with pytest.raises(ValueError):
        g.bits[0, 1] = True


def test_small_graph_counts_are_python_ints():
    # counts reach JSON, as in the benchmark's trace counters
    g = SmallGraph.from_edges(3, [(1, 3)])
    assert type(g.edge_count) is int and type(g.degree(1)) is int


@pytest.mark.parametrize("build,n", [
    (lambda: SmallGraph.from_edges(-1, []), -1), (lambda: complete_graph(-2), -2),
])
def test_negative_vertex_count_is_refused_by_name(build, n):
    with pytest.raises(ValueError, match=f"^vertex count must be nonnegative, got {n}$"):
        build()


@pytest.mark.parametrize("edge", [
    (1, 2.0), (1.0, 2), (True, 2), (1, False), ("1", 2), (1, 2, 3), 5,
])
def test_from_edges_rejects_edges_that_are_not_integer_pairs(edge):
    with pytest.raises(ValueError, match=f"^edge {re.escape(repr(edge))} must be a pair of two"):
        SmallGraph.from_edges(3, [(2, 3), edge])


def test_from_edges_reads_numpy_ints_as_ints():
    g = SmallGraph.from_edges(3, [(np.int64(1), np.int32(3))])
    assert g.rows == (4, 0, 1) and set(map(type, g.rows)) == {int}


def test_edge_list_text_round_trip():
    text = C4.to_edge_list_text()
    assert text.splitlines()[0] == "1 2"
    back = SmallGraph.from_edge_list_text("# a comment\n" + text)
    assert back.edges() == C4.edges()


@pytest.mark.parametrize("text,message", [
    ("1 2\n2 3 4\n", "line 2: expected 'u v', got '2 3 4'"),
    ("# header\n\n2 x\n", "line 3: expected 'u v', got '2 x'"),
    ("  7  \n", "line 1: expected 'u v', got '7'"),
    ("1 2.5\n", "line 1: expected 'u v', got '1 2.5'"),
    # int() would read "1_0" as 10, "+2" as 2 and the Arabic-Indic digit three as 3
    ("1 1_0\n", "line 1: expected 'u v', got '1 1_0'"),
    ("1 2\n+2 3\n", "line 2: expected 'u v', got '+2 3'"),
    ("2 \u0663\n", "line 1: expected 'u v', got '2 \u0663'"),
])
def test_edge_list_text_names_malformed_line(text, message):
    with pytest.raises(ValueError) as info:
        SmallGraph.from_edge_list_text(text)
    assert str(info.value) == message


def _reference_from_edge_list_text(text):
    """The per-line reader that from_edge_list_text replaced, with the
    bit-OR row build of the old from_edges: (n, rows), or ValueError."""
    edges = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not line.isascii() or "+" in line or "_" in line:
                raise ValueError
            u, v = line.split()
            edges.append((int(u), int(v)))
        except ValueError:
            raise ValueError(f"line {number}: expected 'u v', got {line!r}") from None
    n = max((max(e) for e in edges), default=0)
    rows = [0] * n
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise ValueError(f"bad edge ({u}, {v}) for {n} vertices")
        rows[u - 1] |= 1 << (v - 1)
        rows[v - 1] |= 1 << (u - 1)
    return n, tuple(rows)


def _assert_reads_like_reference(text):
    """Same accept set, rows and first message as the per-line reader; an
    accepted graph's kept bit matrix matches its rows."""
    try:
        expected = _reference_from_edge_list_text(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            SmallGraph.from_edge_list_text(text)
        assert str(info.value) == str(exc)
        return
    g = SmallGraph.from_edge_list_text(text)
    assert (g.n, g.rows) == expected
    assert g.bits.tolist() == [[bool(r >> j & 1) for j in range(g.n)] for r in g.rows]


@pytest.mark.parametrize("text", [
    "", "\n\n", "# only a comment", "1 2", "1 2\n2 3\n", "2 1\n1 2\n2 1\n",
    "# head\n\n  1\t2  \n\t# indented comment 3 4 +5\n3 4\n",
    "1\x1f2\x0b3 4\r5 6\r\n7 8\x0c9 10\x1c1 9\x1d2 9\x1e3 9",
    "1 2\x85 3 4\u2028# \u0663\u2029\xa05 6\u3000\n", "1\xa02", "1 2 #c", "#1 2\n1#2",
    "1 +2", "1 1_0", "2 \u0663", "7", "1 2 3", "1 2\n3\n", "-0 1", "007 08", "0 1", "1 -2",
    "-1 -2", "-3 -3", "4 4", "1 2\n3 3", "1 0000000000000000000002", "- 1", "1 -", "--1 2",
    "1-2 3", "-99999999999999999999 1", "2 1\n99999999999999999999 x",
    "\r#\n0", "1 2\r#c\n3", "1 2 x", "# c\r\n-99999999999999999999 1", "\r\r\n1 2\n3",
])
def test_edge_list_reader_matches_per_line_reference(text):
    _assert_reads_like_reference(text)


_ID = st.integers(1, 12).map(str) | st.sampled_from(["-0", "0", "-1", "-7", "007", "00", "012"])
_TOKEN = _ID | st.sampled_from(["+1", "1_0", "\u0663", "2.5", "x", "-", "1-2", "--1", "#"])
_INNER = st.sampled_from([" ", "\t", "\x1f", "  ", " \t\x1f", "\xa0"])
_OUTER = st.sampled_from(["", "", " ", "\t", "\x1f", "\xa0", "\u3000"])
_BREAK = st.sampled_from(
    ["\n", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)


@st.composite
def _edge_list_texts(draw):
    clean = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["pair"] * 4 + ["blank", "comment", "other"]))
        if shape == "blank":
            body = ""
        elif shape == "comment":
            body = "#" + draw(st.text(max_size=6))
        else:
            count = 2 if shape == "pair" or clean else draw(st.sampled_from([1, 3]))
            tokens = draw(st.lists(_ID if clean else _TOKEN, min_size=count, max_size=count))
            body = tokens[0]
            for token in tokens[1:]:
                body += draw(_INNER if not clean else st.sampled_from([" ", "\t", "\x1f"])) + token
        lines.append(draw(_OUTER) + body + draw(_OUTER) + draw(_BREAK))
    return "".join(lines)


@settings(max_examples=400, deadline=None)
@given(_edge_list_texts())
def test_edge_list_reader_matches_per_line_reference_on_generated_texts(text):
    _assert_reads_like_reference(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789 -#\t\x1f\n\r\x0b\x0c\x1c\x85\xa0+_\u0663x", max_size=30))
def test_edge_list_reader_matches_per_line_reference_on_any_characters(text):
    # n is the largest id, and the readers hold n rows and an n x n matrix
    assume(all(int(run) <= 999 for run in re.findall("[0-9]+", text)))
    _assert_reads_like_reference(text)


_PAIRS = st.lists(st.tuples(st.integers(0, 30) | st.integers(10**6, 10**12), st.integers(0, 30)))


@settings(max_examples=200, deadline=None)
@given(_PAIRS, st.sampled_from(["as drawn", "sorted", "one row"]))
# v past 10**6 costs a name per id below it, so only these two examples reach it
@example([(10**6 + 1, 10**6 + 3), (10**6 + 1, 10**6 + 2), (0, 10**6)], "sorted")
@example([(5, 10**6 + 9), (5, 10**6 + 9), (2, 0)], "as drawn")
def test_lines_text_matches_percent_fill(pairs, order):
    if order == "sorted":
        pairs = sorted(pairs)
    elif order == "one row":
        pairs = [(7, v) for _, v in pairs]
    u, v = np.array(pairs, np.int64).reshape(-1, 2).T
    fill = ("%d %d\n" * len(pairs)) % tuple(itertools.chain(*pairs))
    rows = len(list(itertools.groupby(u.tolist())))
    assert oracle._lines_text(u, v) == (None if rows * oracle._ROW_PAIRS > len(u) else fill)
    with mock.patch.object(oracle, "_ROW_PAIRS", 0):  # every row joined, however short
        assert oracle._lines_text(u, v) == fill


@st.composite
def _near_written_texts(draw):
    """Texts as edge_list_text writes them, in rows of lines that share u,
    some of them changed once or twice: a token the writer never writes
    (sign, leading zeros, 18 or more digits), a tab or double blank, the
    final newline dropped, a blank line at the end, a comment line or
    every line ended by "\\r\\n"."""
    ids = st.integers(0, 12)
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        u = draw(ids)
        lines += [[str(u), " ", str(draw(ids)), "\n"] for _ in range(draw(st.integers(1, 24)))]
    changes = draw(st.lists(st.sampled_from(
        ["token", "gap", "comment", "no final newline", "blank line", "crlf"]), max_size=2))
    for change in changes:
        pairs = [line for line in lines if len(line) == 4]
        if change in ("token", "gap") and pairs:
            line = draw(st.sampled_from(pairs))
            if change == "gap":
                line[1] = draw(st.sampled_from(["\t", "  ", " \t"]))
            else:
                at, x = draw(st.sampled_from([0, 2])), draw(ids)
                line[at] = draw(st.sampled_from([f"0{x}", f"+{x}", f"-{x}", f"{x:019d}", f"-{x:020d}"]))
        elif change == "comment":
            comment = "# " + draw(st.text("0123 #", max_size=4)) + "\n"
            lines.insert(draw(st.integers(0, len(lines))), [comment])
        elif change == "blank line":
            lines.append(["\n"])
    text = "".join(itertools.chain(*lines))
    text = text.replace("\n", "\r\n") if "crlf" in changes else text
    return text.removesuffix("\n") if "no final newline" in changes else text


@settings(max_examples=400, deadline=None)
@given(_near_written_texts())
@example("")
@example("".join(f"3 {v}\n" for v in range(1, 10)) + "3 000000000000000000010\n")
@example("1 2\n1 3\n2 3\n2 4\n3 4\n3 5\n")  # 3 rows of 2 pairs: read in bulk too
@example("".join(f"5 {v}\n" for v in range(1, 7)))  # one row of 6 pairs: read in bulk
@example("5 1\n-3 2\n" + "".join(f"5 {v}\n" for v in range(3, 31)))  # a sign the writer never writes
@example("1 2\n3 00000000000000004\n")  # 17 digits with leading zeros: read line by line
@example("1 2\n3 4\n5")  # digits after the last line break
def test_bulk_edge_list_read_matches_per_line_reference(text):
    """The bulk path takes exactly the texts laid out as the writer lays
    them out, lines "u v" of JSON ints of at most 17 digits, however long
    their rows, and every text reads as the per-line reader reads it."""
    lines = text.split("\n")
    written = lines[-1] == "" and all(re.fullmatch(r"(0|[1-9][0-9]{0,16}) (0|[1-9][0-9]{0,16})", line)
                                      for line in lines[:-1])
    assert (oracle._template_ids(text.encode("ascii", "replace"), b" \n", (0, 1)) is not None) == written
    _assert_reads_like_reference(text)


@pytest.mark.parametrize("parts", [(1, 1), (1, 2), (1, 1, 1), (2, 2), (1, 3)])
def test_cex_never_exceeds_the_certificate(parts):
    """cex_exact and assemble are independent: the least number of edges to
    delete from K_n for a decomposable graph is at most the non-edges of
    assemble's certificate, at n = 4..CEX_CAP.  Each cex here took at most
    0.41 s; a 20 s budget per call ends a slowed search with BudgetExceeded."""
    pattern = PatternSignature(parts)
    for n in range(4, oracle.CEX_CAP + 1):
        value, _ = cex_exact(n, pattern, budget=SearchBudget(max_seconds=20.0))
        assert value <= assemble(pattern, n).non_edge_count, n


def test_complete_graph():
    k5 = complete_graph(5)
    assert k5.edge_count == 10
    assert all(k5.degree(v) == 4 for v in range(1, 6))


def test_multipartite_graph():
    g = multipartite_graph(MultipartiteHost((2, 3)))
    assert g.n == 5 and g.edge_count == 6
    assert not g.has_edge(1, 2)  # same part
    assert g.has_edge(1, 3)


def test_multipartite_graph_with_non_edges_and_isolated():
    host = MultipartiteHost((2, 2), isolated=1, non_edges=((1, 3),))
    g = multipartite_graph(host)
    assert g.n == 5
    assert not g.has_edge(1, 3)
    assert g.has_edge(1, 4)
    assert g.degree(5) == 0


@st.composite
def hosts(draw):
    """Random descriptors: 1-4 parts of size 1-3, 0-2 isolated vertices and
    any subset of the cross pairs as non-edges, in either orientation."""
    parts = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    isolated = draw(st.integers(0, 2))
    cross = list(MultipartiteHost(parts, isolated).edges())
    chosen = draw(st.lists(st.sampled_from(cross), unique=True)) if cross else []
    non_edges = tuple((v, u) if draw(st.booleans()) else (u, v) for u, v in chosen)
    return MultipartiteHost(parts, isolated, non_edges)


@settings(max_examples=150, deadline=None)
@given(hosts())
def test_host_adjacency_matches_its_graph(host):
    g = multipartite_graph(host)
    offsets = host.offsets

    def part(v):
        return next((i for i in range(len(host.parts)) if v <= offsets[i + 1]), None)

    assert host.order == g.order
    for u in range(1, host.order + 1):
        for v in range(1, host.order + 1):
            direct = (
                part(u) is not None and part(v) is not None and part(u) != part(v)
                and (min(u, v), max(u, v)) not in host.non_edges
            )
            assert host.has_edge(u, v) == g.has_edge(u, v) == direct
    assert host.edge_count == g.edge_count
    assert list(host.edges()) == g.edges()
    assert edge_list_text(host) == g.to_edge_list_text()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_adjacent_matches_has_edge(data):
    """adjacent on arrays of every ordered pair in 1..order equals has_edge,
    for descriptors (isolated vertices, non-edges in either orientation),
    their graphs and random graphs."""
    if data.draw(st.booleans()):
        host = data.draw(hosts())
        graphs = [host, multipartite_graph(host)]
    else:
        n = data.draw(st.integers(0, 9))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        graphs = [SmallGraph.from_edges(n, edges)]
    for g in graphs:
        vertices = range(1, g.order + 1)
        column = np.array(vertices, dtype=np.int64)
        u, v = np.meshgrid(column, column, indexing="ij")
        got = g.adjacent(u, v)
        assert got.dtype == bool and got.shape == u.shape
        assert got.tolist() == [[g.has_edge(a, b) for b in vertices] for a in vertices]


def _reference_host_edges(host):
    """MultipartiteHost.edges() as a loop over the parts, skipping a set of
    the listed non-edges."""
    skip = set(host.non_edges)
    offsets = host.offsets
    total = offsets[-1]
    for i, s in enumerate(host.parts):
        for u in range(offsets[i] + 1, offsets[i] + s + 1):
            for v in range(offsets[i] + s + 1, total + 1):
                if (u, v) not in skip:
                    yield (u, v)


def _reference_multipartite_graph(host):
    """multipartite_graph as one OR per edge endpoint."""
    rows = [0] * host.order
    for u, v in _reference_host_edges(host):
        rows[u - 1] |= 1 << (v - 1)
        rows[v - 1] |= 1 << (u - 1)
    return host.order, tuple(rows)


def _reference_small_graph_edges(g):
    """SmallGraph.edges() as a bit-by-bit walk of each row above u."""
    out = []
    for u in range(1, g.n + 1):
        row = g.rows[u - 1] >> u
        v = u + 1
        while row:
            if row & 1:
                out.append((u, v))
            row >>= 1
            v += 1
    return out


def _reference_graph_non_edges(g):
    """The exact-cover host's non-edge list as a lowest-bit walk of each
    row's complement above u."""
    non_edges = []
    for u, row in enumerate(g.rows, start=1):
        missing = ~row >> u & ((1 << (g.n - u)) - 1)
        while missing:
            low = missing & -missing
            non_edges.append((u, u + low.bit_length()))
            missing ^= low
    return tuple(non_edges)


@settings(max_examples=200, deadline=None)
@given(hosts())
def test_host_views_match_reference_loops(host):
    assert list(host.edges()) == list(_reference_host_edges(host))
    edges = set(host.edges())
    pairs = itertools.combinations(range(1, host.order + 1), 2)
    u, v = host_pairs(host, False)
    assert list(zip(u.tolist(), v.tolist())) == [e for e in pairs if e not in edges]
    g = multipartite_graph(host)
    assert (g.n, g.rows) == _reference_multipartite_graph(host)


def _reference_host_pairs(host, present):
    """host_pairs of a MultipartiteHost as it was before its closed form:
    one upper-triangle mask of all n^2 pairs and one adjacent gather."""
    vertices = np.arange(1, host.order + 1)
    u, v = np.nonzero(np.less.outer(vertices, vertices))
    keep = host.adjacent(u + 1, v + 1)
    if not present:
        keep = ~keep
    return u[keep] + 1, v[keep] + 1


@settings(max_examples=300, deadline=None)
@given(hosts(), st.booleans())
@example(MultipartiteHost((1, 1, 1, 1), 2, ((1, 3), (2, 4), (3, 4))), False)
@example(MultipartiteHost((1, 1, 1, 1), 2, ((1, 3), (2, 4), (3, 4))), True)
@example(MultipartiteHost((3,), 2), False)
@example(MultipartiteHost((2, 1), 0, ((1, 3), (2, 3))), True)
def test_host_pairs_closed_form_matches_the_mask(host, present):
    u, v = host_pairs(host, present)
    ref_u, ref_v = _reference_host_pairs(host, present)
    assert u.tolist() == ref_u.tolist() and v.tolist() == ref_v.tolist()


def test_blowup_host_views_match_reference_loops():
    for parts in ((1, 2), (2, 3), (1, 1, 2)):
        host = blowup_decompose(PatternSignature(parts)).host
        every_7th = tuple(itertools.islice(host.edges(), 0, None, 7))
        cut = MultipartiteHost(host.parts, 2, non_edges=every_7th)
        for h in (host, cut):
            assert list(h.edges()) == list(_reference_host_edges(h))
            assert multipartite_graph(h).rows == _reference_multipartite_graph(h)[1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_small_graph_walks_match_reference_loops(data):
    n = data.draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = SmallGraph.from_edges(n, edges)
    assert g.edges() == _reference_small_graph_edges(g)
    host = exact_cover_decompose(g, P11, induced=False).host
    assert host.non_edges == _reference_graph_non_edges(g)


@functools.lru_cache(maxsize=None)
def _source_decompositions():
    """Valid induced decompositions, as (host, pattern, class tuples)."""
    out = []
    for parts in ((1, 2), (2, 2), (1, 1, 2)):
        d = blowup_decompose(PatternSignature(parts))
        out.append((d.host, d.pattern, [c.classes for c in d.copies]))
    for parts, n in (((1, 2), 9), ((1, 1), 5), ((1, 2), 13)):
        d = assemble(PatternSignature(parts), n).decomposition
        out.append((d.host, d.pattern, [c.classes for c in d.copies]))
    return out


def _reference_verify(g, pattern, copies, induced):
    """verify_decomposition as a plain loop over has_edge: the reference the
    array verifier must match message for message."""
    n = g.order
    seen_edges: dict[tuple[int, int], int] = {}
    sorted_parts = sorted(pattern.parts)
    for idx, copy in enumerate(copies):
        classes = copy.classes if isinstance(copy, FCopy) else tuple(map(tuple, copy))
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


def _assert_verify_matches_reference(host, pattern, copies, as_fcopy):
    """On the descriptor and on its graph, with both induced values, the
    verifier returns the reference's message; returns the descriptor's."""
    if as_fcopy:
        copies = [FCopy(classes=tuple(tuple(c) for c in copy)) for copy in copies]
    g = multipartite_graph(host)
    out = {}
    for induced in (True, False):
        expected = _reference_verify(g, pattern, copies, induced)
        assert verify_decomposition(host, pattern, copies, induced=induced) == expected
        assert verify_decomposition(g, pattern, copies, induced=induced) == expected
        out[induced] = expected
    return out


DAMAGE = ["none", "drop", "duplicate", "move", "out of range", "reverse", "grow", "shrink"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_on_host_matches_graph_on_damaged_copies(data):
    host, pattern, copies = data.draw(st.sampled_from(_source_decompositions()))
    copies = list(copies)
    damage = data.draw(st.sampled_from(DAMAGE))
    i = data.draw(st.integers(0, len(copies) - 1))
    if damage == "drop":
        del copies[i]
    elif damage == "duplicate":
        # twice or three times: "covered by copies X and Y" must name the first owner
        for _ in range(data.draw(st.integers(1, 2))):
            copies.insert(data.draw(st.integers(0, len(copies))), copies[i])
    elif damage == "reverse":
        # a second ordered class-size tuple in the same list
        copies[i] = tuple(reversed(copies[i]))
    elif damage != "none":
        classes = [list(c) for c in copies[i]]
        j = data.draw(st.integers(0, len(classes) - 1))
        x = data.draw(st.integers(0, len(classes[j]) - 1))
        if damage == "move":
            classes[j][x] = data.draw(st.integers(1, host.order))
        elif damage == "out of range":
            classes[j][x] = data.draw(st.sampled_from([0, -1, host.order + 1, host.order + 7]))
        elif damage == "grow":
            classes[j].insert(x, data.draw(st.integers(1, host.order)))
        else:
            del classes[j][x]
        copies[i] = tuple(tuple(c) for c in classes)
    out = _assert_verify_matches_reference(host, pattern, copies, data.draw(st.booleans()))
    for on_host in out.values():
        if damage in ("none", "reverse"):
            assert on_host == []
        if damage in ("drop", "duplicate", "out of range", "grow", "shrink"):
            assert on_host != []


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_on_host_matches_graph_on_random_copies(data):
    host = data.draw(hosts())
    pattern = PatternSignature(tuple(data.draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))))
    vertex = st.integers(0, host.order + 1)
    copy = st.tuples(*(st.lists(vertex, min_size=a, max_size=a) for a in pattern.parts))
    # non-induced placements pass every cross-pair check, so class pairs and
    # double covers get reached too
    placements = enumerate_copies(multipartite_graph(host), pattern, induced=False)
    if placements:
        copy = st.one_of(copy, st.sampled_from(placements))
    copies = data.draw(st.lists(copy, max_size=6))
    # copies with their classes reversed form a second class-size order
    copies = [tuple(reversed(c)) if data.draw(st.booleans()) else c for c in copies]
    _assert_verify_matches_reference(host, pattern, copies, data.draw(st.booleans()))


def test_enumerate_c4_copies():
    copies = enumerate_copies(C4, P12, induced=True)
    assert copies == [
        ((1,), (2, 4)),
        ((2,), (1, 3)),
        ((3,), (2, 4)),
        ((4,), (1, 3)),
    ]


def test_enumerate_k3():
    k3 = complete_graph(3)
    assert enumerate_copies(k3, P12, induced=True) == []
    assert len(enumerate_copies(k3, P12, induced=False)) == 3


def test_enumerate_star():
    star = SmallGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    copies = enumerate_copies(star, P12, induced=True)
    assert len(copies) == 3
    assert all(c[0] == (1,) for c in copies)


def test_enumerate_equal_classes_deduplicated():
    # in K4 the (1,1) copies are unordered pairs, not ordered ones
    assert len(enumerate_copies(complete_graph(4), P11, induced=False)) == 6


def _reference_copies(g, parts, induced):
    """enumerate_copies by brute force: every tuple of disjoint sorted classes
    with all cross pairs adjacent (and, when induced, no pair inside a class
    adjacent), equal-size classes strictly increasing left to right, sorted."""
    vertices = range(1, g.n + 1)
    out = []
    for classes in itertools.product(*(itertools.combinations(vertices, a) for a in parts)):
        flat = [v for c in classes for v in c]
        if len(set(flat)) != len(flat):
            continue
        if any(
            parts[i] == parts[j] and classes[i] >= classes[j]
            for i, j in itertools.combinations(range(len(parts)), 2)
        ):
            continue
        if not all(
            g.has_edge(u, v)
            for ci, cj in itertools.combinations(classes, 2) for u in ci for v in cj
        ):
            continue
        if induced and any(
            g.has_edge(u, v) for c in classes for u, v in itertools.combinations(c, 2)
        ):
            continue
        out.append(classes)
    return sorted(out)


ENUMERATION_PATTERNS = [
    (1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3),
    (1, 1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 2, 1), (1, 1, 1, 1), (6, 1), (1, 6),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_enumerate_copies_matches_brute_force(data):
    n = data.draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = SmallGraph.from_edges(n, edges)
    parts = data.draw(st.sampled_from(ENUMERATION_PATTERNS))
    induced = data.draw(st.booleans())
    assert enumerate_copies(g, PatternSignature(parts), induced) == (
        _reference_copies(g, parts, induced)
    )


def test_exact_cover_c4():
    d = exact_cover_decompose(C4, P12, induced=True)
    assert [c.classes for c in d.copies] == [((1,), (2, 4)), ((3,), (2, 4))]
    assert verify_decomposition(C4, P12, [c.classes for c in d.copies], induced=True) == []


def test_exact_cover_k24():
    g = multipartite_graph(MultipartiteHost((2, 4)))
    d = exact_cover_decompose(g, P12, induced=True)
    assert len(d.copies) == 4
    assert verify_decomposition(g, P12, [c.classes for c in d.copies], induced=True) == []


def test_exact_cover_divisibility_reject():
    k4_minus = SmallGraph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    with pytest.raises(NoDecomposition, match="not a multiple"):
        exact_cover_decompose(k4_minus, P12, induced=True)


def test_exact_cover_proves_absence():
    # K4 has even edge count but no induced (1,2) copy at all
    with pytest.raises(NoDecomposition, match="exhausted"):
        exact_cover_decompose(complete_graph(4), P12, induced=True)


def test_exact_cover_empty_graph():
    g = SmallGraph.from_edges(3, [])
    d = exact_cover_decompose(g, P12, induced=True)
    assert d.copies == ()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exact_cover_host_is_the_graph(data):
    """The decomposition's host lists exactly the graph's non-edges, in
    lexicographic order, over singleton parts."""
    n = data.draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = SmallGraph.from_edges(n, edges)
    host = exact_cover_decompose(g, P11, induced=False).host
    assert host.parts == (1,) * n
    assert host.non_edges == tuple(e for e in pairs if e not in set(g.edges()))
    assert multipartite_graph(host).rows == g.rows


def _root_repeats(g, candidates):
    """The candidates the root rule drops on a complete g: each with 1 and 2
    in two classes whose sizes, unordered, an earlier such candidate has."""
    seen, repeats = set(), set()
    if g.edge_count == g.n * (g.n - 1) // 2:
        for cid, copy in enumerate(candidates):
            ends = tuple(sorted(len(c) for c in copy if 1 in c or 2 in c))
            if len(ends) == 2 and (ends in seen or seen.add(ends)):
                repeats.add(cid)
    return repeats


def _reference_exact_cover(g, pattern, induced, max_nodes, root_rule=True):
    """The per-edge engine exact_cover_decompose ran before its candidates
    were indexed by their lowest edge: every candidate is listed under
    every edge it covers, less _root_repeats unless root_rule is off.
    Returns (outcome, nodes): the chosen classes or the exception the
    search raised, and the nodes it counted."""
    edges = g.edge_count
    if edges % pattern.edge_count != 0:
        return NoDecomposition(
            f"{edges} edges is not a multiple of the pattern's {pattern.edge_count}"
        ), 0
    if not edges:
        return (), 0
    candidates = enumerate_copies(g, pattern, induced)
    repeats = _root_repeats(g, candidates) if root_rule else set()
    n = g.n
    full = sum(row >> (i + 1) << (i * n + i + 1) for i, row in enumerate(g.rows))
    masks = []
    per_edge = [[] for _ in range(n * n)]
    for cid, copy in enumerate(candidates):
        if cid in repeats:
            masks.append(None)
            continue
        mask = 0
        for ci, cj in itertools.combinations(copy, 2):
            for u in ci:
                for v in cj:
                    bit = (u - 1) * n + v - 1 if u < v else (v - 1) * n + u - 1
                    mask |= 1 << bit
                    per_edge[bit].append(cid)
        masks.append(mask)
    nodes = 0
    chosen = []

    def rec(cover):
        nonlocal nodes
        if cover == full:
            return True
        free = ~cover & full
        for cid in per_edge[(free & -free).bit_length() - 1]:
            if masks[cid] & cover:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(f"node budget {max_nodes} exhausted")
            chosen.append(cid)
            if rec(cover | masks[cid]):
                return True
            chosen.pop()
        return False

    try:
        if not rec(0):
            return NoDecomposition("search space exhausted without finding a decomposition"), nodes
    except BudgetExceeded as exc:
        return exc, nodes - 1
    return tuple(candidates[cid] for cid in chosen), nodes


def _recursive_list_search(g, pattern, induced, max_nodes, root_rule=True):
    """The exact-cover engine before its search became a loop over
    candidate bitsets: brute-force candidates, one cross-pair mask each
    (pair (u, v), u < v, as bit (u - 1) * n + v - 1), listed under its
    lowest pair, less _root_repeats unless root_rule is off, and a
    recursive search.  Returns what _reference_exact_cover does."""
    edges, n = g.edge_count, g.n
    if edges % pattern.edge_count != 0 or not edges:
        return _reference_exact_cover(g, pattern, induced, max_nodes)
    candidates = _reference_copies(g, pattern.parts, induced)
    repeats = _root_repeats(g, candidates) if root_rule else set()
    full = sum(row >> (i + 1) << (i * n + i + 1) for i, row in enumerate(g.rows))
    by_low = {}
    for cid, copy in enumerate(candidates):
        if cid in repeats:
            continue
        mask = sum(1 << ((min(u, v) - 1) * n + max(u, v) - 1)
                   for ci, cj in itertools.combinations(copy, 2) for u in ci for v in cj)
        by_low.setdefault(mask & -mask, []).append((cid, mask))
    nodes = 0
    chosen = []

    def rec(cover):
        nonlocal nodes
        if cover == full:
            return True
        free = ~cover & full
        for cid, mask in by_low.get(free & -free, ()):
            if mask & cover:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(f"node budget {max_nodes} exhausted")
            chosen.append(cid)
            if rec(cover | mask):
                return True
            chosen.pop()
        return False

    try:
        if not rec(0):
            return NoDecomposition("search space exhausted without finding a decomposition"), nodes
    except BudgetExceeded as exc:
        return exc, nodes - 1
    return tuple(candidates[cid] for cid in chosen), nodes


REFERENCE_NODES = 20_000


def _assert_same_search(g, pattern, induced, reference):
    """Same copies (or the same exception and text) at the reference's node
    count N, and out of budget at N - 1."""
    expected, nodes = reference(g, pattern, induced, REFERENCE_NODES)

    def run(max_nodes):
        try:
            d = exact_cover_decompose(g, pattern, induced, SearchBudget(max_nodes, 3600.0))
        except (NoDecomposition, BudgetExceeded) as exc:
            return exc
        return tuple(c.classes for c in d.copies)

    got = run(REFERENCE_NODES if isinstance(expected, BudgetExceeded) else nodes)
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert got == expected
    if 0 < nodes < REFERENCE_NODES:
        got = run(nodes - 1)
        assert isinstance(got, BudgetExceeded) and str(got) == f"node budget {nodes - 1} exhausted"


def _random_graph(data, max_n):
    n = data.draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SmallGraph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_cover_matches_per_edge_reference(data):
    g = _random_graph(data, 8)
    pattern = PatternSignature(data.draw(st.sampled_from(ENUMERATION_PATTERNS)))
    _assert_same_search(g, pattern, data.draw(st.booleans()), _reference_exact_cover)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_exact_cover_matches_recursive_list_search(data):
    """The placement table lists the brute-force copies in order, and the
    search finds the recursive list search's first solution at its exact
    node count."""
    g = _random_graph(data, 9)
    pattern = PatternSignature(data.draw(st.sampled_from(ENUMERATION_PATTERNS)))
    induced = data.draw(st.booleans())
    assert enumerate_copies(g, pattern, induced) == _reference_copies(g, pattern.parts, induced)
    _assert_same_search(g, pattern, induced, _recursive_list_search)


@pytest.mark.parametrize("parts", ENUMERATION_PATTERNS)
def test_root_rule_keeps_every_cover_of_k_n(parts):
    """On K_n, n <= 9, the search with one root candidate per orbit finds the
    uncut reference's cover, or proves none exactly where it does, in no more
    nodes (412,872 of them for (2, 3) on K_9); and matches the reference with
    the root rule at its exact node count."""
    pattern = PatternSignature(parts)
    for n, induced in itertools.product(range(10), (False, True)):
        g = complete_graph(n)
        expected, nodes = _recursive_list_search(g, pattern, induced, 10**6, root_rule=False)
        assert not isinstance(expected, BudgetExceeded)
        try:
            d = exact_cover_decompose(g, pattern, induced, SearchBudget(nodes, 3600.0))
            got = tuple(c.classes for c in d.copies)
        except (NoDecomposition, BudgetExceeded) as exc:
            got = exc
        if isinstance(expected, Exception):
            assert type(got) is type(expected) and str(got) == str(expected)
        else:
            assert got == expected
        _assert_same_search(g, pattern, induced, _recursive_list_search)


@pytest.mark.parametrize("parts,n,nodes,outcome", [
    # found at its 313,433rd node; its copies' JSON sha256 starts with the prefix
    ((1, 1, 1), 19, 313_433, "05990305d1374a5b"),
    ((1, 1, 1), 19, 313_432, BudgetExceeded("node budget 313432 exhausted")),
    # proven none at its 989th node, one root candidate per orbit
    ((2, 3), 9, 989, NoDecomposition("search space exhausted without finding a decomposition")),
    ((2, 3), 9, 988, BudgetExceeded("node budget 988 exhausted")),
], ids=["K19-found", "K19-short", "K9-none", "K9-short"])
def test_exact_cover_deep_node_counts_are_pinned(parts, n, nodes, outcome):
    """The trees the benchmark runs, far past REFERENCE_NODES: the same
    first solution or proof at the same node count, one node short of it
    out of budget."""
    budget = SearchBudget(nodes, 3600.0)
    try:
        d = exact_cover_decompose(complete_graph(n), PatternSignature(parts), False, budget)
    except (NoDecomposition, BudgetExceeded) as exc:
        got = exc
    else:
        got = hashlib.sha256(json.dumps(d.to_json_dict(), sort_keys=True).encode()).hexdigest()
    if isinstance(outcome, Exception):
        assert type(got) is type(outcome) and str(got) == str(outcome)
    else:
        assert got.startswith(outcome)


def test_exact_cover_does_not_recurse():
    """STS(13) is 26 triangles deep, so a search with a frame per level
    cannot find it 20 frames above the caller; the loop does."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        d = exact_cover_decompose(complete_graph(13), PatternSignature((1, 1, 1)), False)
    finally:
        sys.setrecursionlimit(limit)
    assert len(d.copies) == 26


def _two_cpus():
    """Patches os.sched_getaffinity to report two usable CPUs, so a search
    splits on a one-CPU machine too."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True)


def _signalled_fork(sig, forks):
    """Patches os.fork to append each helper's pid to forks and, unless sig
    is None, send it sig right after the fork."""
    fork = os.fork

    def forked():
        pid = fork()
        if pid:
            forks.append(pid)
            if sig is not None:
                os.kill(pid, sig)
        return pid

    return mock.patch.object(os, "fork", forked)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="searches split on Linux only")
@pytest.mark.parametrize("split", [1, 2, 7, 64])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_split_search_matches_recursive_list_search(split, data):
    """A search that forks a helper after split nodes finds the recursive
    list search's first solution, or its message, at its node count N, and
    runs out of budget at N - 1, like a search that never splits; also with
    the helper stopped at once, so the parent runs every subtree itself."""
    g = _random_graph(data, 9)
    pattern = PatternSignature(data.draw(st.sampled_from(ENUMERATION_PATTERNS)))
    induced, sig = data.draw(st.booleans()), data.draw(st.sampled_from([None, signal.SIGSTOP]))
    with mock.patch.object(oracle, "SPLIT_NODES", split), _two_cpus(), _signalled_fork(sig, []):
        _assert_same_search(g, pattern, induced, _recursive_list_search)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outcome(g, parts, budget):
    try:
        return tuple(c.classes for c in exact_cover_decompose(g, PatternSignature(parts), False,
                                                               budget).copies)
    except (NoDecomposition, BudgetExceeded) as exc:
        return type(exc), str(exc)


SPLIT_CASES = [  # a cover, a proof of none, and the node budget spent
    (complete_graph(13), (1, 1, 1), SearchBudget()),
    (complete_graph(12), (1, 1, 1), SearchBudget()),
    (complete_graph(19), (1, 1, 1), SearchBudget(3000, 3600.0)),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="searches split on Linux only")
@pytest.mark.parametrize("case", range(len(SPLIT_CASES)), ids=["found", "none", "out-of-nodes"])
@pytest.mark.parametrize("sig", [None, signal.SIGKILL, signal.SIGSTOP], ids=["run", "kill", "stop"])
def test_split_search_leaves_no_process_and_survives_its_helper(monkeypatch, case, sig):
    """Found, proven none or out of nodes, with the helper running, killed or
    stopped right after the fork: the outcome of a search that never splits,
    and no child process left once the search returns."""
    g, parts, budget = SPLIT_CASES[case]
    expected, forks = _outcome(g, parts, budget), []
    monkeypatch.setattr(oracle, "SPLIT_NODES", 64)
    with _two_cpus(), _signalled_fork(sig, forks):
        assert _outcome(g, parts, budget) == expected
    assert len(forks) == 1
    _no_child_left()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="searches split on Linux only")
def test_split_search_runs_a_stopped_helpers_subtree_to_the_budget_left_there(monkeypatch):
    """With the helper stopped the parent runs its first subtree last, to the
    node budget one process has left at that subtree: 15 nodes prove this
    graph has no (1, 3) decomposition, and 14 are too few."""
    g = SmallGraph.from_edges(7, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 6), (4, 7),
                                  (5, 7)])
    forks = []
    monkeypatch.setattr(oracle, "SPLIT_NODES", 7)
    with _two_cpus(), _signalled_fork(signal.SIGSTOP, forks):
        _assert_same_search(g, PatternSignature((1, 3)), False, _recursive_list_search)
    assert len(forks) == 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="searches split on Linux only")
@pytest.mark.parametrize("ending", ["out-of-time", "error"])
def test_split_search_reaps_its_helper_on_time_out_and_error(monkeypatch, clock, ending):
    """The clock passes the deadline at the fork, or fails in the parent
    after it: the search raises that, and no child process is left."""
    parent, fork = os.getpid(), os.fork

    def forked():
        pid = fork()
        clock.now += 10.0
        return pid

    def monotonic():
        if ending == "error" and clock.now > 0 and os.getpid() == parent:
            raise RuntimeError("clock failed")
        return clock.now

    monkeypatch.setattr(oracle, "SPLIT_NODES", 64)
    monkeypatch.setattr(os, "fork", forked)
    monkeypatch.setattr(clock, "monotonic", monotonic)
    expected = (BudgetExceeded, r"^time budget 5\.0s exhausted$") if ending == "out-of-time" else (
        RuntimeError, "^clock failed$")
    with _two_cpus(), pytest.raises(expected[0], match=expected[1]):
        exact_cover_decompose(complete_graph(13), PatternSignature((1, 1, 1)), False,
                              SearchBudget(10**9, 5.0))
    assert clock.now == 10.0
    _no_child_left()


def test_search_index_holds_no_numpy_array():
    """A forked helper reads the index without calling numpy."""
    table = oracle._placements(complete_graph(7), P12, False)
    index = oracle._index(oracle._pair_ids(table, oracle._cross_columns((1, 2)), 7), 21)
    assert not any(isinstance(part, np.ndarray) for part in index)
    assert isinstance(index[0], memoryview) and len(index[0]) == index[1] * len(table)


@pytest.mark.parametrize("max_nodes,max_seconds,field", [
    (2.5, 60.0, "max_nodes"), (True, 60.0, "max_nodes"), (-1, 60.0, "max_nodes"),
    ("5", 60.0, "max_nodes"), (np.int64(5), 60.0, "max_nodes"),
    (5, float("nan"), "max_seconds"), (5, -1.0, "max_seconds"), (5, 0, "max_seconds"),
    (5, float("inf"), "max_seconds"), (5, True, "max_seconds"), (5, "60", "max_seconds"),
])
def test_search_budget_rejects_budgets_it_cannot_honour(max_nodes, max_seconds, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SearchBudget(max_nodes, max_seconds)


def test_search_budget_accepts_zero_nodes_and_int_seconds():
    assert SearchBudget(0, 60) == SearchBudget(max_nodes=0, max_seconds=60)
    with pytest.raises(BudgetExceeded, match="^node budget 0 exhausted$"):
        exact_cover_decompose(C4, P12, induced=True, budget=SearchBudget(0, 60))


def test_exact_cover_budget():
    tiny = SearchBudget(max_nodes=5, max_seconds=60.0)
    with pytest.raises(BudgetExceeded):
        exact_cover_decompose(complete_graph(9), PatternSignature((2, 3)),
                              induced=False, budget=tiny)


class _Clock:
    """Stands in for oracle's time module: monotonic() reads now, which
    only the test moves, and counts its reads."""

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def monotonic(self):
        self.reads += 1
        return self.now


def _advance(monkeypatch, clock, name, seconds):
    """Make every call of oracle.<name> move the clock on by seconds
    first; returns the list of those calls' arguments."""
    calls = []
    real = getattr(oracle, name)

    def late(*args):
        calls.append(args)
        clock.now += seconds
        return real(*args)

    monkeypatch.setattr(oracle, name, late)
    return calls


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(oracle, "time", fake)
    return fake


def test_time_budget_counts_enumeration(monkeypatch, clock):
    _advance(monkeypatch, clock, "_placements", 10.0)
    searches = _advance(monkeypatch, clock, "_search", 0.0)
    with pytest.raises(BudgetExceeded, match=r"^time budget 5\.0s exhausted$"):
        exact_cover_decompose(complete_graph(4), P12, False, SearchBudget(10**9, 5.0))
    assert searches == []


def test_time_budget_is_checked_during_enumeration(monkeypatch, clock):
    # (2, 3) in K_9 fills its 2-class first; the clock passes the deadline
    # as those subsets are listed and is read once they extend the empty
    # placement, so the 3-class is never placed and no index is built
    subsets = _advance(monkeypatch, clock, "_combinations", 10.0)
    bitsets = _advance(monkeypatch, clock, "_bitsets", 0.0)
    with pytest.raises(BudgetExceeded, match=r"^time budget 5\.0s exhausted$") as info:
        exact_cover_decompose(
            complete_graph(9), PatternSignature((2, 3)), False, SearchBudget(10**9, 5.0)
        )
    assert "_placements" in [entry.name for entry in info.traceback]
    assert clock.reads == 2 and len(subsets) == 1 and bitsets == []


def test_enumeration_reads_the_clock_once_per_block(clock):
    # K_10 and (2, 3): one block of 45 subsets extends the empty placement,
    # one block of 45 rows x 120 subsets extends those; only with a budget
    g, pattern = complete_graph(10), PatternSignature((2, 3))
    budgeted = oracle._placements(g, pattern, False, SearchBudget(), 1.0)
    assert clock.reads == 2
    assert oracle._class_tuples(budgeted, pattern.parts) == enumerate_copies(g, pattern, False)
    assert len(budgeted) == 2520 and clock.reads == 2


def test_time_budget_is_checked_while_masks_are_built(monkeypatch, clock):
    # the candidate bitsets, by lowest pair and by pair, take 1 s each; a
    # deadline that passes during the first stops it before the second is
    # built, one that passes during the second stops it before the first
    # search node, each from _bitsets' own clock reads
    bitsets = _advance(monkeypatch, clock, "_bitsets", 1.0)
    searches = _advance(monkeypatch, clock, "_search", 0.0)
    for seconds, built in ((0.5, 1), (1.5, 2)):
        clock.now, bitsets[:] = 0.0, []
        with pytest.raises(BudgetExceeded, match=rf"^time budget {seconds}s exhausted$") as info:
            exact_cover_decompose(
                complete_graph(9), PatternSignature((2, 3)), False, SearchBudget(10**9, seconds)
            )
        assert "_bitsets" in [entry.name for entry in info.traceback]
        assert len(bitsets) == built and searches == []


def test_time_budget_is_checked_at_the_first_search_node(monkeypatch, clock):
    # K_4 splits into three (1, 2) copies in three nodes, far below 1024
    _advance(monkeypatch, clock, "_search", 10.0)
    with pytest.raises(BudgetExceeded, match=r"^time budget 5\.0s exhausted$"):
        exact_cover_decompose(complete_graph(4), P12, False, SearchBudget(10**9, 5.0))
    # the node budget is still checked first
    with pytest.raises(BudgetExceeded, match="^node budget 0 exhausted$"):
        exact_cover_decompose(complete_graph(4), P12, False, SearchBudget(0, 5.0))


def test_cex_keeps_one_deadline_across_its_graphs(monkeypatch, clock):
    # each graph's search moves the clock on by 1 s, far inside a 10.5 s
    # budget, so only a deadline shared by all graphs runs out; (1, 3) at
    # n = 6 searches 1,363 graphs before its witness
    searches = _advance(monkeypatch, clock, "_search", 1.0)
    with pytest.raises(BudgetExceeded, match=r"^time budget 10\.5s exhausted$"):
        cex_exact(6, PatternSignature((1, 3)), SearchBudget(10**9, 10.5))
    assert 11 <= len(searches) < 30


def test_cex_reads_the_clock_before_each_graph_at_n8(monkeypatch, clock):
    # each graph's search ends 1 s after it began, past its own clock reads,
    # so the 3.5 s deadline passes during the fourth graph's search and only
    # the read before the fifth can stop the run; the graphs searched are
    # K_8, then, two pairs short, the kept edge sets in lexicographic order
    searched = []
    search = oracle._search

    def slow(full, *rest):
        searched.append(full)
        try:
            return search(full, *rest)
        finally:
            clock.now += 1.0

    monkeypatch.setattr(oracle, "_search", slow)
    with pytest.raises(BudgetExceeded, match=r"^time budget 3\.5s exhausted$") as info:
        cex_exact(8, P12, SearchBudget(10**9, 3.5))
    full = (1 << 28) - 1
    assert searched == [full, full - 0b11, full - 0b101, full - 0b110]
    assert info.traceback[-1].name == "cex_exact"


def test_verify_reports_class_size_mismatch():
    v = verify_decomposition(C4, P12, [((1,), (2,))], induced=True)
    assert v and "class sizes" in v[0]


def test_verify_class_order_is_free():
    """Equal-multiset classes may come in any order: (2,1) vs pattern (1,2)."""
    v = verify_decomposition(C4, P12, [((2, 4), (1,)), ((2, 4), (3,))], induced=True)
    assert v == []


_GIVEN_ORDER_DAMAGE = {
    "none": lambda copies: copies,
    "cross pair": lambda copies: [((2, 1), (10, 3))] + copies[1:],
    "double cover": lambda copies: copies[:5] + [copies[0]] + copies[6:],
    "class pair": lambda copies: [((1, 9), (2, 10))] + copies[1:],
    "swapped classes": lambda copies: [copies[0][::-1]] + copies[1:],
    "overlap then range": lambda copies: copies[:2] + [((4, 3), (3, 9)), ((99, 1), (9, 10))],
    "uncovered": lambda copies: copies[1:],
}


@pytest.mark.parametrize("damage", _GIVEN_ORDER_DAMAGE)
def test_verify_reads_every_copies_form_in_the_given_order(damage):
    """Bare tuples, FCopy objects and (when every copy has the same class
    sizes) a CopyArray of the same copies get the same verdict, with every
    class read in the order given: the K_{8,8} blow-up of (2, 2) with each
    class listed backwards, then damaged."""
    d = blowup_decompose(P22)
    copies = _GIVEN_ORDER_DAMAGE[damage]([tuple(c[::-1] for c in x.classes) for x in d.copies])
    forms = [copies, [FCopy(classes=c) for c in copies]]
    if len({tuple(map(len, c)) for c in copies}) == 1:
        rows = np.array([[v for c in copy for v in c] for copy in copies], np.int64)
        forms.append(CopyArray(rows, tuple(map(len, copies[0]))))
    for g in (d.host, multipartite_graph(d.host)):
        for induced in (True, False):
            verdicts = [verify_decomposition(g, P22, form, induced) for form in forms]
            assert verdicts == [verdicts[0]] * len(forms)
    if damage == "cross pair":
        # (2, 10) is an edge, (2, 3) the first pair that is not
        assert verdicts[0] == ["copy 0 cross pair (2, 3) is not an edge"]
    assert (verdicts[0] == []) == (damage in ("none", "swapped classes"))


def test_verify_reports_out_of_range():
    v = verify_decomposition(C4, P12, [((9,), (2, 4))], induced=True)
    assert v and "outside" in v[0]


@pytest.mark.parametrize("huge", [2**70, -2**70, 2**63])
def test_verify_reads_ids_past_int64_as_out_of_range(huge):
    """An id no int64 holds is compared as a Python int: out of range, or
    an overlap when it repeats, after the copies before it are checked."""
    d = blowup_decompose(P12)
    copies = [c.classes for c in d.copies]
    for g in (d.host, multipartite_graph(d.host)):
        assert verify_decomposition(g, P12, copies[:1] + [((2,), (huge, 4))], True) == [
            "copy 1 references a vertex outside 1..6"
        ]
        assert verify_decomposition(g, P12, [((huge,), (huge, 4))], True) == [
            "copy 0 has overlapping classes"
        ]
        assert verify_decomposition(g, P12, [copies[0], copies[0], ((huge,), (3, 4))], True) == [
            "edge (1, 3) covered by copies 0 and 1"
        ]


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
def test_verify_reports_non_integer_vertex(bad):
    """The K_{2,4} blow-up with vertex 1 of its first copy replaced; an
    int64 pair table would read 1.5, 1.0 and True as vertex 1."""
    d = blowup_decompose(P12)
    copies = [c.classes for c in d.copies]
    damaged = [((bad,), (3, 4))] + copies[1:]
    expected = [f"copy 0 has non-integer vertex {bad!r}"]
    for g in (d.host, multipartite_graph(d.host)):
        assert verify_decomposition(g, P12, damaged, induced=True) == expected
        assert verify_decomposition(
            g, P12, [FCopy(classes=c) for c in damaged], induced=False
        ) == expected
        # after the size check, before the overlap check (FCopy classes are
        # not sorted, so a string may share a class with ints)
        assert verify_decomposition(g, P12, [((bad,), (3,))], induced=True) == [
            "copy 0 class sizes [1, 1] do not match pattern"
        ]
        overlap = FCopy(classes=((bad,), (bad, 3)))
        assert verify_decomposition(g, P12, copies[:1] + [overlap], induced=True) == [
            f"copy 1 has non-integer vertex {bad!r}"
        ]


@pytest.mark.parametrize("mixed", [("2", 3), (None, 3), (3, 2.5)])
def test_verify_reports_non_integer_vertex_in_mixed_class(mixed):
    """A class mixing types gets the non-integer message: classes are read
    as given, never sorted, so no TypeError can come from comparing them."""
    host = blowup_decompose(P12).host
    for g in (host, multipartite_graph(host)):
        bad = next(v for v in mixed if type(v) is not int)
        assert verify_decomposition(g, P12, [((1,), mixed)], True) == [
            f"copy 0 has non-integer vertex {bad!r}"
        ]


def test_verify_accepts_numpy_int_vertices():
    d = blowup_decompose(P12)
    copies = [tuple(tuple(np.int64(v) for v in c) for c in copy.classes) for copy in d.copies]
    for g in (d.host, multipartite_graph(d.host)):
        assert verify_decomposition(g, P12, copies, induced=True) == []
        assert verify_decomposition(g, P12, copies[1:], induced=True) == [
            "edge (1, 3) is not covered"
        ]


def test_has_edge_rejects_out_of_range_vertices():
    host = blowup_decompose(P12).host
    for g in (host, multipartite_graph(host)):
        for u, v, bad in ((-1, 1, -1), (0, 2, 0), (1, 7, 7), (7, 1, 7), (2, 0, 0)):
            with pytest.raises(ValueError, match=f"^vertex {bad} out of range 1..6$"):
                g.has_edge(u, v)
        assert g.has_edge(1, 3) and not g.has_edge(1, 2)


def test_degree_rejects_out_of_range_vertices():
    g = SmallGraph.from_edges(3, [(2, 3)])
    for bad in (0, -1, 4):
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range 1..3$"):
            g.degree(bad)
    assert [g.degree(v) for v in (1, 2, 3)] == [0, 1, 1]


@pytest.mark.parametrize("kind, method", [
    ("multipartite", "has_edge"), ("multipartite", "part_of"), ("small", "has_edge"), ("small", "degree"),
])
def test_vertex_arguments_follow_the_integer_rule(kind, method):
    """Both host kinds take vertices by blowup._sizes' rule: numpy ints pass;
    bools, floats, strings and numpy bools raise one ValueError naming them."""
    host = blowup_decompose(P12).host
    call = getattr(host if kind == "multipartite" else multipartite_graph(host), method)
    first = (3,) if method == "has_edge" else ()
    for bad in (True, False, 1.5, 1.0, "1", np.True_, np.float64(2.0), None):
        for args in ((bad, *first), (*first, bad)):
            with pytest.raises(ValueError, match=f"^vertex {re.escape(repr(bad))} is not an integer$"):
                call(*args)
    expected = {"has_edge": True, "part_of": 1, "degree": 4}[method]
    assert call(np.int64(1), *first) == call(np.uint8(1), *first) == call(1, *first) == expected


def test_verify_reports_missing_edge():
    v = verify_decomposition(C4, P12, [((1,), (2, 3))], induced=True)
    assert v and "not an edge" in v[0]


def test_verify_reports_double_cover():
    copies = [((1,), (2, 4)), ((3,), (2, 4)), ((1,), (2, 4))]
    v = verify_decomposition(C4, P12, copies, induced=True)
    assert v and "covered by copies" in v[0]


def test_verify_reports_non_induced():
    k3_plus = SmallGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    v = verify_decomposition(k3_plus, P12, [((1,), (2, 3))], induced=False)
    assert v and "not covered" in v[0]  # edge (2,3) never covered
    v = verify_decomposition(k3_plus, P12, [((1,), (2, 3))], induced=True)
    assert v and "is an edge" in v[0]


def test_verify_reports_uncovered():
    v = verify_decomposition(C4, P12, [((1,), (2, 4))], induced=True)
    assert v and "not covered" in v[0]


def test_verify_accepts_overlapping_classes_between_copies():
    assert verify_decomposition(C4, P12, [((1,), (2, 4)), ((3,), (2, 4))],
                                induced=True) == []


# The K_{2,4} blow-up of (1, 2): four copies, each listed in pattern order
# (class sizes (1, 2)) or reversed (class sizes (2, 1)).
_K24 = blowup_decompose(P12)
_A = [c.classes for c in _K24.copies]  # ((1,), (3, 4)), ((2,), (3, 4)), ((1,), (5, 6)), ...
_B = [c[::-1] for c in _A]


def _verdicts(host, pattern, copies):
    """verify_decomposition's verdicts with induced True and False, the
    same on the host and on its graph, for bare tuples and for FCopy
    objects, each checked against the reference loop."""
    out, fcopies = (_assert_verify_matches_reference(host, pattern, copies, as_fcopy)
                    for as_fcopy in (False, True))
    assert out == fcopies
    return out[True], out[False]


def test_verify_two_layouts_first_fault_in_the_second():
    """Copies 1 and 3 are listed in class-size order (2, 1), 0 and 2 in
    (1, 2); the faulty copy 1 of the second layout comes before the
    faulty copy 2 of the first, and inside copy 1 its cross pair (3, 4),
    no edge, comes before its class pair (2, 3), an edge."""
    assert _verdicts(_K24.host, P12, [_A[0], _B[1], _A[2], _B[3]]) == ([], [])
    damaged = [_A[0], ((2, 3), (4,)), ((1,), (2, 5)), _B[3]]
    assert _verdicts(_K24.host, P12, damaged) == (
        ["copy 1 cross pair (3, 4) is not an edge"],
        ["copy 1 cross pair (3, 4) is not an edge"],
    )


def test_verify_double_cover_across_layouts_names_the_owner():
    assert _verdicts(_K24.host, P12, [_A[0], _B[1], _A[2], _B[3], _B[0]]) == (
        ["edge (1, 3) covered by copies 0 and 4"],
        ["edge (1, 3) covered by copies 0 and 4"],
    )
    # the owner in the second layout, the repeat in the first
    assert _verdicts(_K24.host, P12, [_A[0], _B[1], _A[2], _A[3], _A[1]])[0] == [
        "edge (2, 3) covered by copies 1 and 4"
    ]


def test_verify_pair_fault_before_a_shape_fault_wins():
    for shape in [((1,), (5,))], [((1,), (1, 3))], [((9,), (3, 4))], [((1.5,), (3, 4))]:
        assert _verdicts(_K24.host, P12, [_A[0], ((2,), (1, 3))] + shape)[0] == [
            "copy 1 cross pair (2, 1) is not an edge"
        ]
        assert _verdicts(_K24.host, P12, [_A[0], _B[0]] + shape)[0] == [
            "edge (1, 3) covered by copies 0 and 1"
        ]
    # a pair fault after the shape fault is never reached
    assert _verdicts(_K24.host, P12, [_A[0], ((1,), (5,)), ((2,), (1, 3))])[0] == [
        "copy 1 class sizes [1, 1] do not match pattern"
    ]


def test_verify_pair_fault_in_a_layout_holding_an_id_past_int64():
    """The second layout's table holds Python ints because of copy 2; its
    copy 1 is still checked, after copy 0 of the first layout."""
    copies = [_A[0], _B[0], ((2**70, 4), (2,))]
    for g in (_K24.host, multipartite_graph(_K24.host)):
        assert verify_decomposition(g, P12, copies, True) == [
            "edge (1, 3) covered by copies 0 and 1"
        ]
        assert verify_decomposition(g, P12, [_A[0], _B[1], copies[2]], True) == [
            "copy 2 references a vertex outside 1..6"
        ]


def test_verify_no_copies_on_an_edgeless_host():
    """An edgeless host is decomposed by no copies.  The descriptor with a
    million isolated vertices is never expanded into a table of its pairs
    (10**12 entries): with no copies there are no pair ids to scatter, and
    a copy on it fails on its cross pairs before any are scattered."""
    assert verify_decomposition(SmallGraph.from_edges(4, []), P12, [], True) == []
    host = MultipartiteHost(parts=(3,), isolated=10**6)
    assert host.edge_count == 0
    assert verify_decomposition(host, P12, (), True) == []
    assert verify_decomposition(host, P12, [((1,), (2, 5))], False) == [
        "copy 0 cross pair (1, 2) is not an edge"
    ]
    assert _verdicts(MultipartiteHost(parts=(2,), isolated=3), P12, []) == ([], [])


def test_verify_not_induced():
    """K_4 as three copies of the path (1, 2), the second listed in
    class-size order (2, 1): a decomposition, not an induced one."""
    k4 = complete_graph(4)
    copies = [((1,), (2, 3)), ((3, 4), (2,)), ((4,), (1, 3))]
    assert _verdicts(MultipartiteHost(parts=(1, 1, 1, 1)), P12, copies) == (
        ["copy 0 class pair (2, 3) is an edge"], []
    )
    assert verify_decomposition(k4, P12, copies, induced=False) == []
    assert verify_decomposition(k4, P12, copies[:2], induced=False) == [
        "edge (1, 4) is not covered"
    ]


def test_verify_names_the_first_uncovered_edge_on_graph_and_descriptor():
    hosts = (_K24.host, multipartite_graph(_K24.host))
    for copies, edge in (([_A[0], _B[1], _B[3]], (1, 5)), ([], (1, 3)), (_B[:3], (2, 5))):
        expected = [f"edge {edge} is not covered"]
        assert _verdicts(_K24.host, P12, copies) == (expected, expected)
        assert [verify_decomposition(g, P12, copies, True) for g in hosts] == [expected] * 2
    # a descriptor with non-edges: (1, 3) is none, so (1, 4) is the first edge
    host = MultipartiteHost(parts=(2, 4), non_edges=((1, 3),))
    assert _verdicts(host, P11, [((1,), (5,))]) == (["edge (1, 4) is not covered"],) * 2


def test_search_reports_an_exhausted_tree_by_returning_none():
    """K_4 has no triangle decomposition: the search returns None and
    exact_cover_decompose turns that into NoDecomposition."""
    searched = []
    search = oracle._search

    def record(*args):
        searched.append(search(*args))
        return searched[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_search", record)
        with pytest.raises(
            NoDecomposition, match="^search space exhausted without finding a decomposition$"
        ):
            exact_cover_decompose(complete_graph(4), PatternSignature((1, 1, 1)), True)
    assert searched == [None]


def test_canonical_form_invariant_under_relabeling():
    perms = [dict(zip(range(1, 5), p)) for p in itertools.permutations(range(1, 5))]
    forms = {canonical_form(relabel(C4, perm)) for perm in perms}
    assert len(forms) == 1


def test_canonical_form_separates_non_isomorphic():
    p4 = SmallGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    star = SmallGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert canonical_form(p4) != canonical_form(star)


def test_canonical_form_counts_the_isomorphism_classes():
    # graphs on n unlabelled vertices, n = 0..5: OEIS A000088
    counts = []
    for n in range(6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graphs = (itertools.compress(pairs, bits) for bits in itertools.product((0, 1), repeat=len(pairs)))
        counts.append(len({canonical_form(SmallGraph.from_edges(n, list(g))) for g in graphs}))
    assert counts == [1, 1, 2, 4, 11, 34]


def test_enumerate_cap_fits_the_uint64_vertex_masks(monkeypatch):
    # _placements packs each vertex's neighbours into one uint64
    assert oracle.ENUMERATE_CAP <= 64
    monkeypatch.setattr(oracle, "ENUMERATE_CAP", 64)
    found = exact_cover_decompose(complete_graph(64), PatternSignature((1, 1)), False)
    assert len(found.copies) == 64 * 63 // 2
    assert verify_decomposition(complete_graph(64), PatternSignature((1, 1)), found.copies, False) == []


@pytest.mark.parametrize("n,expected", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_cex_frozen_values(n, expected):
    value, witness = cex_exact(n, P12)
    assert value == expected
    assert witness.edge_count == n * (n - 1) // 2 - value
    assert verify_decomposition(
        witness, P12,
        [c.classes for c in exact_cover_decompose(witness, P12, induced=True).copies],
        induced=True,
    ) == []


def test_cex_witness_n4_frozen():
    _, witness = cex_exact(4, P12)
    assert witness.edges() == [(1, 2), (1, 3), (2, 4), (3, 4)]


def test_cex_single_edge_pattern_is_zero():
    value, witness = cex_exact(5, P11)
    assert value == 0
    assert witness.edge_count == 10


def test_cex_cap():
    with pytest.raises(CapExceeded):
        cex_exact(9, P12)


def test_exact_cover_cap():
    # K_41's 820 edges pass the divisibility check for (1, 2), so only the
    # cap stops it (dense step 1 for n = 82..84 relies on this refusal)
    with pytest.raises(CapExceeded, match="^enumeration capped at 40 vertices, graph has 41$"):
        exact_cover_decompose(complete_graph(41), P12, induced=False)


def test_placement_cap_refuses_before_any_subset_is_listed(monkeypatch):
    # K_34 holds 34!/(28! 1! 2! 3!) = 80,694,240 placements of K_{1,2,3};
    # their table would take gigabytes, so no class subset may be listed
    def fail(vertices, a):
        raise AssertionError("_combinations called")

    monkeypatch.setattr(oracle, "_combinations", fail)
    message = r"^placements capped at 1000000, K_34 has 80694240 of \(1, 2, 3\)$"
    with pytest.raises(CapExceeded, match=message):
        exact_cover_decompose(complete_graph(34), PatternSignature((1, 2, 3)), induced=False)
    with pytest.raises(CapExceeded, match=message):
        enumerate_copies(SmallGraph(np.zeros((34, 34), bool)), PatternSignature((1, 2, 3)), True)


@pytest.mark.parametrize(
    "parts", [(1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 2, 3), (1, 1, 1, 1), (2, 2, 3)]
)
def test_placement_cap_counts_the_placements_of_k_n_exactly(monkeypatch, parts):
    """The count the cap is checked against is the K_n table's length, and
    a table of exactly PLACEMENT_CAP rows is still built."""
    pattern = PatternSignature(parts)
    for n in range(1, 10):
        rows = len(oracle._placements(complete_graph(n), pattern, False))
        monkeypatch.setattr(oracle, "PLACEMENT_CAP", rows)
        assert len(oracle._placements(complete_graph(n), pattern, False)) == rows
        if rows:
            monkeypatch.setattr(oracle, "PLACEMENT_CAP", rows - 1)
            with pytest.raises(CapExceeded, match=f"K_{n} has {rows} of"):
                oracle._placements(complete_graph(n), pattern, False)
        monkeypatch.undo()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_cex_searches_the_copies_of_each_graph(data):
    """For every graph cex_exact searches, the candidates it passes to the
    search are those of enumerate_copies(g, pattern, True), in order: the
    K_n placements, numbered down from the last, whose bits alive holds.
    Pairs are numbered down from the last in lexicographic order too."""
    n = data.draw(st.integers(1, 6))
    pattern = PatternSignature(data.draw(st.sampled_from(ENUMERATION_PATTERNS)))
    searched = []
    search = oracle._search

    def record(full, alive, *rest):
        searched.append((full, alive))
        return search(full, alive, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_search", record)
        cex_exact(n, pattern)
    assert searched
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    placements = enumerate_copies(complete_graph(n), pattern, False)
    for full, alive in searched:
        g = SmallGraph.from_edges(n, [e for i, e in enumerate(pairs[::-1]) if full >> i & 1])
        kept = [p for i, p in enumerate(placements[::-1]) if alive >> i & 1]
        assert kept[::-1] == enumerate_copies(g, pattern, True)


@pytest.mark.parametrize("parts,n", [((1, 3), 6), ((1, 2), 7), ((1, 1, 2), 6)], ids=str)
def test_cex_block_split_is_unobservable(monkeypatch, parts, n):
    """One graph a block, 7 a block, or every kept edge set of a deletion
    count in one block (at n <= 7 a count has at most C(21, 10) < 10**6):
    the same value, witness and (full, alive) sequence as _search sees it."""
    search = oracle._search
    runs = []
    for block in (1, 7, 10**6):
        searched = []

        def record(full, alive, *rest):
            searched.append((full, alive))
            return search(full, alive, *rest)

        monkeypatch.setattr(oracle, "_search", record)
        monkeypatch.setattr(oracle, "CEX_BLOCK", block)
        value, witness = cex_exact(n, PatternSignature(parts))
        runs.append((value, witness.edges(), searched))
    assert len(runs[0][2]) > 7
    assert runs[0] == runs[1] == runs[2]


def test_cex_monotone_sanity():
    """Deleting a vertex of a witness shows cex(n) <= cex(n+1) + n."""
    for n in (3, 4, 5):
        a, _ = cex_exact(n, P12)
        b, _ = cex_exact(n + 1, P12)
        assert a <= b + n


def test_non_neighbor_check_pattern():
    assert not non_neighbor_check(P12)
    assert non_neighbor_check(P22)
    assert non_neighbor_check(PatternSignature((2, 3)))


def test_non_neighbor_check_graph():
    assert non_neighbor_check(C4)
    assert not non_neighbor_check(complete_graph(3))
