"""Exit-code contract and artifact behavior of the command-line front end."""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from induced_decomp import blowup, cli, dense, designs, oracle
from induced_decomp.blowup import CopyArray, PatternSignature, blowup_decompose, make_context
from induced_decomp.cli import _json_text, main
from induced_decomp.embedded import embedded_decompose


def run(*argv):
    return main(list(argv))


def test_mols_success(capsys):
    assert run("mols", "--order", "5", "--count", "4") == 0
    out = capsys.readouterr().out
    assert "4 mutually orthogonal" in out
    assert '"order": 5' in out


def test_mols_unsupported(capsys):
    assert run("mols", "--order", "6", "--count", "2") == 2
    assert "bound 1" in capsys.readouterr().err


def test_mols_invalid_order(capsys):
    assert run("mols", "--order", "0", "--count", "1") == 1


def test_missing_subcommand():
    assert run() == 1


def test_unknown_flag():
    assert run("mols", "--order", "5", "--count", "1", "--bogus") == 1


def test_td_success(tmp_path, capsys):
    out = tmp_path / "td.json"
    assert run("td", "--k", "3", "--n", "3", "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["k"] == 3 and data["n"] == 3
    assert len(data["blocks"]) == 9


def test_td_single_block(capsys):
    assert run("td", "--k", "2", "--n", "1") == 0
    assert '"blocks"' in capsys.readouterr().out


def test_td_blocksize_one(capsys):
    assert run("td", "--k", "1", "--n", "5") == 1
    assert capsys.readouterr().err == "error: blocksize must be at least 2, got 1\n"


def test_td_unsupported(capsys):
    assert run("td", "--k", "4", "--n", "6") == 2


def test_blowup_success(capsys):
    assert run("blowup", "--pattern", "1,2") == 0
    out = capsys.readouterr().out
    assert "4 induced copies" in out


def test_blowup_single_edge(capsys):
    assert run("blowup", "--pattern", "1,1") == 0
    data = json.loads(capsys.readouterr().out.split("verified\n", 1)[1])
    assert len(data["copies"]) == 1


def test_blowup_bad_pattern():
    assert run("blowup", "--pattern", "0,2") == 1
    assert run("blowup", "--pattern", "x") == 1


def test_blowup_unsupported():
    assert run("blowup", "--pattern", "6,6,6,6") == 2


def test_dense_success(capsys):
    assert run("dense", "--pattern", "1,2", "--n", "9") == 0
    out = capsys.readouterr().out
    assert "non-edges 12 < bound 81.0" in out


def test_dense_infeasible(capsys):
    assert run("dense", "--pattern", "1,2", "--n", "1") == 3
    assert "infeasible" in capsys.readouterr().err


def test_dense_below_the_multiplier_says_so(capsys):
    # n // p = 0: the window of clique orders is empty, not searched
    assert run("dense", "--pattern", "1,2", "--n", "1") == 3
    assert capsys.readouterr().err == (
        "infeasible: no certified clique order for pattern (1, 2) and n = 1: "
        "n is below the multiplier p = 2, so no n' >= 1 fits\n"
    )


def test_dense_infeasible_lists_candidates_and_budget(capsys):
    # "budget" in the message means some n' ran out of search budget;
    # (1,1,2) has no construction, so search failing is the outcome
    assert run("dense", "--pattern", "1,1,2", "--n", "50", "--budget-nodes", "1000") == 3
    err = capsys.readouterr().err
    assert "(K_25: node budget 1000 exhausted; K_21: node budget 1000 exhausted)" in err
    assert run("dense", "--pattern", "1,3", "--n", "12") == 3
    err = capsys.readouterr().err
    assert "K_4: search space exhausted" in err and "K_3: search space exhausted" in err
    assert "budget" not in err


def test_dense_triangles_past_the_search_budget_take_a_triple_system(capsys):
    # K_25's search runs out of its 1000 nodes; Skolem's STS(25) certifies it
    assert run("dense", "--pattern", "1,1,1", "--n", "50", "--budget-nodes", "1000") == 0
    assert capsys.readouterr().out.startswith(
        "n = 50: n' = 25, p = 2, t = 0; 400 induced copies, verified; non-edges 25 < bound 650.0\n"
    )


def test_cex_value(capsys):
    assert run("cex", "--pattern", "1,2", "--n", "4") == 0
    out = capsys.readouterr().out
    assert "= 2" in out


def test_cex_single_edge(capsys):
    assert run("cex", "--pattern", "1,1", "--n", "5") == 0
    assert "= 0" in capsys.readouterr().out


def test_cex_over_cap(capsys):
    assert run("cex", "--pattern", "1,2", "--n", "9") == 2


def roundtrip_files(tmp_path, *, pattern="1,2", n=None):
    """Emit a JSON artifact and matching edge list, return both paths."""
    art = tmp_path / "artifact.json"
    graph = tmp_path / "graph.txt"
    if n is None:
        base = ("blowup", "--pattern", pattern)
    else:
        base = ("dense", "--pattern", pattern, "--n", str(n))
    assert run(*base, "--out", str(art)) == 0
    assert run(*base, "--format", "edgelist", "--out", str(graph)) == 0
    return graph, art


def test_verify_round_trip_blowup(tmp_path, capsys):
    graph, art = roundtrip_files(tmp_path)
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_round_trip_dense(tmp_path, capsys):
    graph, art = roundtrip_files(tmp_path, n=13)
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 0


def test_verify_tampered(tmp_path, capsys):
    graph, art = roundtrip_files(tmp_path)
    data = json.loads(art.read_text())
    data["copies"][0]["classes"][1][0] = 5
    art.write_text(json.dumps(data))
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 4
    assert "verification failed" in capsys.readouterr().out


def test_verify_malformed_json(tmp_path):
    graph, art = roundtrip_files(tmp_path)
    art.write_text("{not json")
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 1


def test_verify_missing_file(tmp_path):
    graph, _ = roundtrip_files(tmp_path)
    assert run("verify", "--graph", str(graph),
               "--decomposition", str(tmp_path / "absent.json")) == 1


def test_verify_certificate_string_vertex_ids(tmp_path, capsys):
    # certificate classes are read with int(), like decomposition files
    graph, art = roundtrip_files(tmp_path, n=9)
    data = json.loads(art.read_text())
    for copy in data["copies"]:
        copy["classes"] = [[str(v) for v in cls] for cls in copy["classes"]]
    art.write_text(json.dumps(data))
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 0
    assert "ok: 12 copies" in capsys.readouterr().out


# Non-integer ids are rejected, not truncated or coerced (1.9 used to read as
# 1, "1_0" as 10, " 7 " and "+7" as 7, and the Arabic-Indic digit three as 3).
BAD_IDS = ["x", None, [1], 1.9, 2.0, True, "1_0", " 7 ", "+7", "\u0663"]


def assert_malformed(graph, art, capsys):
    capsys.readouterr()
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 1
    assert capsys.readouterr().err.startswith(f"error: malformed decomposition file {art}")


@pytest.mark.parametrize("bad", BAD_IDS)
def test_verify_certificate_bad_vertex_id(tmp_path, capsys, bad):
    graph, art = roundtrip_files(tmp_path, n=9)
    data = json.loads(art.read_text())
    data["copies"][0]["classes"][0][0] = bad
    art.write_text(json.dumps(data))
    assert_malformed(graph, art, capsys)


@pytest.mark.parametrize("bad", BAD_IDS)
def test_verify_decomposition_bad_vertex_id(tmp_path, capsys, bad):
    graph, art = roundtrip_files(tmp_path, pattern="2,4")
    data = json.loads(art.read_text())
    data["copies"][0]["classes"][0][0] = bad
    art.write_text(json.dumps(data))
    assert_malformed(graph, art, capsys)


@pytest.mark.parametrize("n", [None, 9])
def test_verify_float_pattern(tmp_path, capsys, n):
    graph, art = roundtrip_files(tmp_path, n=n)
    data = json.loads(art.read_text())
    data["pattern"] = [float(a) for a in data["pattern"]]
    art.write_text(json.dumps(data))
    assert_malformed(graph, art, capsys)


@pytest.mark.parametrize("n", [None, 9])
@pytest.mark.parametrize("where", ["pattern", "class"])
def test_verify_string_in_place_of_array(tmp_path, capsys, n, where):
    # "12" used to be split into the digits 1 and 2 and verify as [1, 2]
    graph, art = roundtrip_files(tmp_path, n=n)
    data = json.loads(art.read_text())
    if where == "pattern":
        data["pattern"] = "".join(map(str, data["pattern"]))
    else:
        classes = data["copies"][0]["classes"]
        classes[1] = "".join(map(str, classes[1]))
    art.write_text(json.dumps(data))
    assert_malformed(graph, art, capsys)


def k4_exact_cover_files(tmp_path, induced):
    """K_4 and a non-induced exact cover of it by three K_{1,2} copies."""
    graph = tmp_path / "k4.txt"
    graph.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    art = tmp_path / "cover.json"
    art.write_text(json.dumps({
        "host": {"parts": [1, 1, 1, 1]},
        "pattern": [1, 2],
        "copies": [{"classes": c} for c in ([[1], [2, 3]], [[4], [1, 3]], [[2], [3, 4]])],
        "induced": induced,
    }))
    return graph, art


def test_verify_non_induced_cover(tmp_path, capsys):
    graph, art = k4_exact_cover_files(tmp_path, False)
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 0
    graph, art = k4_exact_cover_files(tmp_path, True)
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 4


# "false" used to read as true and fail verification with exit 4
@pytest.mark.parametrize("bad", ["false", "true", None, 0, 1, [], {}])
def test_verify_induced_flag_must_be_boolean(tmp_path, capsys, bad):
    graph, art = k4_exact_cover_files(tmp_path, bad)
    assert_malformed(graph, art, capsys)


def test_verify_induced_override(tmp_path):
    graph, art = roundtrip_files(tmp_path)
    assert run("verify", "--graph", str(graph), "--decomposition", str(art),
               "--induced", "no") == 0
    assert run("verify", "--graph", str(graph), "--decomposition", str(art),
               "--induced", "yes") == 0


@pytest.mark.parametrize("argv", [
    ("mols", "--order", "8", "--count", "7"),
    ("td", "--k", "4", "--n", "5"),
    ("blowup", "--pattern", "2,2"),
    ("blowup", "--pattern", "1,2", "--format", "edgelist"),
    ("dense", "--pattern", "1,2", "--n", "17"),
    ("dense", "--pattern", "1,2", "--n", "17", "--format", "edgelist"),
    ("cex", "--pattern", "1,2", "--n", "5"),
])
def test_artifacts_byte_identical(tmp_path, argv):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(*argv, "--out", str(a)) == 0
    assert run(*argv, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_byte_identical(capsys):
    assert run("dense", "--pattern", "1,2", "--n", "9") == 0
    first = capsys.readouterr().out
    assert run("dense", "--pattern", "1,2", "--n", "9") == 0
    assert capsys.readouterr().out == first


def test_json_artifacts_sorted_and_pretty(tmp_path):
    art = tmp_path / "out.json"
    assert run("blowup", "--pattern", "1,2", "--out", str(art)) == 0
    text = art.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_dense_budget_flag(tmp_path, capsys):
    # a zero-ish node budget forces the degenerate construction, whose
    # summary says vacuous (no copies), not verified
    art = tmp_path / "deg.json"
    assert run("dense", "--pattern", "1,2", "--n", "9",
               "--budget-nodes", "1", "--out", str(art)) == 0
    assert json.loads(art.read_text())["params"]["n_prime"] == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "n = 9: n' = 1, p = 2, t = 7; 0 induced copies, vacuous; non-edges 36 < bound 81.0"
    )


@pytest.mark.parametrize("command", [
    ("dense", "--pattern", "1,2", "--n", "9"),
    ("cex", "--pattern", "1,2", "--n", "4"),
])
@pytest.mark.parametrize("seconds", [
    "nan", "inf", "-1", "0", "-inf", "soon", "\u0661", "1_0", " 2 ", "1e3", "0.0",
])
def test_budget_seconds_must_be_positive_finite(capsys, command, seconds):
    assert run(*command, "--budget-seconds", seconds) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --budget-seconds:")


def test_budget_seconds_accepts_positive_float(capsys):
    assert run("dense", "--pattern", "1,2", "--n", "9", "--budget-seconds", "0.5") == 0
    assert "n' = 4" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (("dense", "--pattern", "1,2", "--n", "1_0"), "argument --n: expected an integer, got '1_0'"),
    (("td", "--k", "3", "--n", "\u0663"), "argument --n: expected an integer, got '\u0663'"),
    (("td", "--k", "+3", "--n", "3"), "argument --k: expected an integer, got '+3'"),
    (("td", "--k", "3", "--n", " 7"), "argument --n: expected an integer, got ' 7'"),
    (("mols", "--order", "5", "--count", "1_0"),
     "argument --count: expected an integer, got '1_0'"),
    (("mols", "--order", "5", "--count", "2.0"),
     "argument --count: expected an integer, got '2.0'"),
    (("cex", "--pattern", "1,2", "--n", "5", "--budget-nodes", "1e3"),
     "argument --budget-nodes: expected an integer, got '1e3'"),
    (("td", "--k", "3", "--n", "0"), "argument --n: expected a positive integer, got 0"),
    (("dense", "--pattern", "1,2", "--n", "-4"),
     "argument --n: expected a positive integer, got -4"),
])
def test_integer_flags_are_ascii_decimal(capsys, argv, message):
    # int() would read "1_0" as 10 and the Arabic-Indic digit three as 3
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command", [("blowup",), ("dense", "--n", "5"), ("cex", "--n", "5")])
@pytest.mark.parametrize("text,token", [("1,1_0", "1_0"), ("+1,2", "+1"), ("1,\u0663", "\u0663")])
def test_pattern_entries_are_ascii_decimal(capsys, command, text, token):
    # int() would run pattern (1, 10) for "1,1_0" and accept "+1" and the
    # Arabic-Indic digit three
    assert run(command[0], "--pattern", text, *command[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: argument --pattern: expected an integer, got {token!r}\n"


def test_dense_failed_self_check_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "verify_decomposition", lambda *args, **kwargs: ["bogus"])
    assert run("dense", "--pattern", "1,2", "--n", "9") == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "self-check failed: assembled decomposition failed verification: bogus\n"
    )


def test_dense_beyond_the_cap_exits_2_before_building_the_clique(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"K_{n} built")

    monkeypatch.setattr(oracle, "complete_graph", refuse)
    assert run("dense", "--pattern", "1,2", "--n", "100000000") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "unsupported: K_50000000: enumeration capped at 40 vertices, graph has 50000000; "
        "K_49999997: construction capped at 333333 copies, K_49999997 needs 624999912500003\n"
    )


# The builders are replaced, so nothing is allocated.
@pytest.mark.parametrize("owner,name,argv", [
    (cli.designs, "mols", ("mols", "--order", "100003", "--count", "1")),
    (cli.designs, "mols", ("td", "--k", "3", "--n", "100003")),
    (cli, "blowup_decompose", ("blowup", "--pattern", "1,100003")),
])
def test_out_of_memory_exits_2_as_unsupported(monkeypatch, capsys, owner, name, argv):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(owner, name, out_of_memory)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unsupported: Unable to allocate 74.5 GiB\n"


def test_blowup_verifies_on_a_context_cache_hit(monkeypatch, capsys, tmp_path):
    """The second call shares the first one's decomposition and still runs the
    verifier, whose second answer here is a fault."""
    verify, seen = oracle.verify_decomposition, []

    def spy(host, pattern, copies, induced):
        seen.append(copies)
        return verify(host, pattern, copies, induced=induced) if len(seen) == 1 else ["injected"]

    monkeypatch.setattr(oracle, "verify_decomposition", spy)
    assert run("blowup", "--pattern", "2,3", "--out", str(tmp_path / "a.json")) == 0
    hits = make_context.cache_info().hits
    assert run("blowup", "--pattern", "2,3", "--out", str(tmp_path / "b.json")) == 4
    assert make_context.cache_info().hits == hits + 1
    assert len(seen) == 2 and seen[0] is seen[1]
    assert capsys.readouterr().err == "decomposition failed verification: injected\n"
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("line", ["2 3 4", "2 x", "1 1_0", "+2 3", "2 \u0663"])
def test_verify_graph_file_names_bad_line(tmp_path, capsys, line):
    graph, art = roundtrip_files(tmp_path)
    graph.write_text(graph.read_text() + line + "\n")
    bad = len(graph.read_text().splitlines())
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 1
    assert capsys.readouterr().err == (
        f"error: cannot read graph file {graph}: line {bad}: expected 'u v', got '{line}'\n"
    )


# Ids that fail at once: one beyond 64 bits, one whose n x n adjacency
# cannot be allocated.  Mid-size ids could really allocate gigabytes.
@pytest.mark.parametrize("line", ["1 99999999999999999999", "1 3000000000"])
def test_verify_graph_file_with_huge_id_exits_1(tmp_path, capsys, line):
    graph, art = roundtrip_files(tmp_path)
    graph.write_text(line + "\n")
    capsys.readouterr()
    assert run("verify", "--graph", str(graph), "--decomposition", str(art)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read graph file {graph}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag,what", [("--graph", "graph"), ("--decomposition", "decomposition")])
def test_verify_names_a_file_that_is_not_utf8(tmp_path, capsys, flag, what):
    graph, art = roundtrip_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    files = {"--graph": str(graph), "--decomposition": str(art), flag: str(bad)}
    capsys.readouterr()
    assert run("verify", *itertools.chain(*files.items())) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read {what} file {bad}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


_ints = st.integers() | st.sampled_from([2**64, -(2**63) - 1, 10**40, -(10**40), 0])
_texts = st.text() | st.sampled_from(
    ['"', "\\", "a\"b\\c", "\x00\x1f\n\t\x7f", "\u00e9\u2713", "\U0001d11e"]
)
_scalars = (
    _ints | _texts | st.booleans() | st.none()
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
)
# Shapes the emitter joins in C, and near misses that must not take that path.
_uniform = (
    st.lists(_ints, min_size=1, max_size=5) | st.lists(_texts, min_size=1, max_size=5)
    | st.lists(st.booleans(), min_size=1, max_size=5)
)
_grids = st.lists(st.lists(_ints, min_size=1, max_size=4), min_size=1, max_size=4) | st.lists(
    st.lists(_texts, min_size=1, max_size=4), min_size=1, max_size=4
)
_odd_rows = st.sampled_from([[], [[]], [["x"]], [[True]], [[1, True]], [(2, 3)], [[1.5]], [None]])
_near_grids = st.tuples(_grids, _odd_rows).map(lambda t: t[0] + t[1])
_mixed = st.lists(_ints | st.booleans(), min_size=2, max_size=5) | st.lists(
    _ints | _texts, min_size=2, max_size=5
)
_json_values = st.recursive(
    _scalars | _uniform | _grids | _near_grids | _mixed,
    lambda children: (
        st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_texts, children, max_size=4)
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example([1, True])
@example([True, False])
@example([[1, 2], [True]])
@example([[1, 2], []])
@example([[1], ["a"]])
@example([["a"], [1, "b"]])
@example({"a": [], "b": {}, "c": [[]], "d": [{}], "\u00e9": (1, 2)})
@example([(1, 2), [3, 4]])
@example({"z": [[1, 2]], "y": {"x": [["g1:2", "g2:3"]]}})
@example([{2: [1, 2], 10: {"a": None}}])
def test_json_text_is_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_main_reuses_its_parser_like_fresh_calls(monkeypatch, capsys):
    """main builds its parser once; a run of calls, each a different
    subcommand, a flag left at its default after it was given, or a usage
    error, prints and returns exactly what fresh calls do."""
    calls = [
        ("blowup", "--pattern", "1,2", "--format", "edgelist"),
        ("cex", "--n", "5"),
        ("blowup", "--pattern", "1,2"),
        ("mols", "--order", "5", "--count", "1", "--bogus"),
        ("mols", "--order", "5", "--count", "1"),
        (),
    ]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append((main(list(argv)), capsys.readouterr()))
    parser = cli._parser
    reused = []
    for argv in calls:
        reused.append((main(list(argv)), capsys.readouterr()))
        assert cli._parser is parser
    assert reused == fresh
    assert [code for code, _ in fresh] == [0, 1, 0, 1, 0, 1]


@functools.cache
def _decompositions(kind: str, parts: tuple[int, ...], size: int):
    """The JSON dict a command writes (with CopyArray copies kept) and
    its host graph, for a blow-up, a dense certificate or an embedded
    decomposition."""
    pattern = PatternSignature(parts)
    if kind == "blowup":
        d = blowup_decompose(pattern)
        return d, oracle.multipartite_graph(d.host)
    if kind == "dense":
        budget = oracle.SearchBudget(1 if size == 9 else 2_000_000, 3600.0)
        cert = dense.assemble(pattern, size, budget)
        return cert, oracle.multipartite_graph(cert.decomposition.host)
    d = embedded_decompose(pattern, size).base
    return d, oracle.multipartite_graph(d.host)


_EMITTED = st.sampled_from([
    ("blowup", (1, 2), 0), ("blowup", (2, 3), 0), ("blowup", (1, 1, 2), 0),
    ("blowup", (1, 2, 3), 0), ("dense", (1, 2), 17), ("dense", (1, 2), 9),
    ("dense", (2, 2), 37), ("dense", (1, 1, 1), 20), ("embedded", (1, 2), 3),
    ("embedded", (2, 3), 4), ("embedded", (1, 1, 1), 5),
])


@settings(max_examples=60, deadline=None)
@given(_EMITTED, st.integers(0, 3), st.booleans())
def test_copy_array_emit_is_json_dumps(case, depth, alone):
    """The template emit of CopyArray copies, at any indent, writes what
    json.dumps writes for the lists to_json_dict makes of them."""
    obj, _ = _decompositions(*case)
    arrays, lists = obj.to_json_dict(arrays=True), obj.to_json_dict()
    if alone:
        arrays, lists = arrays["copies"], lists["copies"]
    for _ in range(depth):
        arrays, lists = {"x": [arrays]}, {"x": [lists]}
    assert _json_text(arrays) == json.dumps(lists, indent=2, sort_keys=True)


@st.composite
def _int_tables(draw):
    """An int table (1 x 1 up to wide), zeros, a narrow value range or a
    sparse one (wider than the table, so it is filled row by row), with
    the cells of its rows: plain ints, "g<j>:%d" labels or a copy entry."""
    rows, cols = draw(st.integers(1, 30)), draw(st.sampled_from([1, 2, 3, 5, 8, 40, 150]))
    kind = draw(st.sampled_from(["zeros", "narrow", "sparse"]))
    if kind == "zeros":
        values = [0] * (rows * cols)
    else:
        lo = draw(st.integers(-10**6, 10**6))
        top = lo + (draw(st.integers(0, 12)) if kind == "narrow" else 10**13)
        values = draw(st.lists(st.integers(lo, top), min_size=rows * cols, max_size=rows * cols))
    cells = draw(st.sampled_from(["ints", "labels", "entry"]))
    if cells == "ints":
        cells = ["%d"] * cols
    elif cells == "labels":
        cells = [f"g{j}:%d" for j in range(1, cols + 1)]
    else:
        cuts = sorted(draw(st.sets(st.integers(1, cols - 1), max_size=4))) if cols > 1 else []
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, cols])]
        cells = {"classes": [["%d"] * a for a in sizes], "n": 7}
    return np.array(values, np.int64).reshape(rows, cols), cells


@settings(max_examples=200, deadline=None)
@given(_int_tables(), st.integers(0, 3))
def test_table_text_is_the_per_row_fill(table_cells, depth):
    table, cells = table_cells
    pad = "  " * depth
    template = _json_text(cells, pad + "  ").replace('"%d"', "%d")
    expected = cli._framed([template % tuple(row) for row in table.tolist()], pad)
    assert cli._table_text(table, template, pad) == expected
    row_json = json.dumps(cells).replace('"%d"', "%d")
    rows = [json.loads(row_json % tuple(row)) for row in table.tolist()]
    assert json.dumps(rows, indent=2).replace("\n", "\n" + pad) == expected
    if cells == ["%d"] * table.shape[1]:
        assert _json_text(table, pad) == expected


def test_table_text_of_no_rows_or_no_ints():
    assert cli._table_text(np.zeros((0, 3), np.int64), "%d%d%d", "") == "[]"
    assert _json_text({"x": np.zeros((2, 0), np.int64)}) == json.dumps({"x": [[], []]}, indent=2)


# MOLS families (count 0 and order 1 included) and TD(k, n) for k = 2..6
_DESIGNS = [designs.mols(n, c) for n, c in ((1, 0), (1, 3), (5, 0), (7, 6), (12, 2), (16, 3))]
_DESIGNS += [
    designs.td_from_mols(designs.mols(n, k - 2), k)
    for n, k in [(n, k) for k in range(2, 7) for n in (1, 5, 9)] + [(12, 4), (2, 2)]
]


@pytest.mark.parametrize("design", _DESIGNS)
def test_design_array_emit_is_json_dumps(design):
    """MOLS grids and TD block rows written whole equal json.dumps of the
    lists to_json_dict makes of them."""
    expected = json.dumps(design.to_json_dict(), indent=2, sort_keys=True)
    assert _json_text(design.to_json_dict(arrays=True)) == expected


@pytest.mark.parametrize("case", [((1, 2), 17), ((1, 2), 9), ((2, 2), 37), ((1, 1, 1), 20)])
def test_certificate_array_emit_is_json_dumps(case):
    cert, _ = _decompositions("dense", *case)
    assert cert.non_edges is not None
    arrays = cert.to_json_dict(arrays=True)
    assert arrays["non_edges"].shape == (len(cert.non_edges), 2)
    assert _json_text(arrays) == json.dumps(cert.to_json_dict(), indent=2, sort_keys=True)


def test_copy_array_emit_of_no_copies_is_an_empty_list():
    for codewords in (False, True):
        empty = CopyArray(np.zeros((0, 3 + 4 * codewords), np.int64), (1, 2))
        assert empty.codewords is codewords
        assert _json_text({"copies": empty}) == '{\n  "copies": []\n}'
    assert _decompositions("dense", (1, 2), 9)[0].to_json_dict(arrays=True)["copies"] == []


_MUTATIONS = ("swap", "range", "overlap", "string", "true", "ragged", "no codeword")


def _mutate(data: dict, kind: str, draw) -> None:
    entries = data["copies"]
    entry = entries[draw(st.integers(0, len(entries) - 1))]
    classes = entry["classes"]
    i = draw(st.integers(0, len(classes) - 1))
    j = draw(st.integers(0, len(classes[i]) - 1))
    if kind == "swap":
        other = entries[draw(st.integers(0, len(entries) - 1))]["classes"]
        oi = draw(st.integers(0, len(other) - 1))
        oj = draw(st.integers(0, len(other[oi]) - 1))
        classes[i][j], other[oi][oj] = other[oi][oj], classes[i][j]
    elif kind == "range":
        classes[i][j] = draw(st.sampled_from([0, -3, 10**6, 2**70]))
    elif kind == "overlap":
        classes[i][j] = draw(st.sampled_from([v for c in classes for v in c]))
    elif kind == "string":
        classes[i][j] = str(classes[i][j])
    elif kind == "true":
        classes[i][j] = True
    elif kind == "ragged":
        if len(classes[i]) > 1:
            del classes[i][j]
        else:
            classes[i].append(1)  # an int even where an earlier mutation left a str
    else:
        entry.pop("codeword", None)


def _load(path: Path, per_entry: bool, text_bulk: bool = True):
    """_load_decomposition_file's (pattern, copies, induced), or its
    error text; per_entry makes both bulk checks fail every file, and
    without text_bulk only the one on the text (cli._read_copies) does."""
    with pytest.MonkeyPatch.context() as mp:
        if per_entry or not text_bulk:
            mp.setattr(cli, "_read_copies", lambda text: None)
        if per_entry:
            mp.setattr(blowup, "copy_array_from_json", lambda *args, **kwargs: None)
        try:
            return cli._load_decomposition_file(str(path))
        except cli.UsageError as exc:
            return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("blowup", (1, 2), 0), ("blowup", (2, 3), 0), ("blowup", (1, 1, 2), 0),
                     ("dense", (1, 2), 17), ("dense", (1, 1, 1), 20)]),
    st.lists(st.sampled_from(_MUTATIONS), max_size=3),
    st.data(),
)
def test_bulk_reload_matches_the_per_entry_reader(case, kinds, data):
    """On mutated blow-up files and certificates the bulk reload gives the
    per-entry reader's pattern, copies, induced flag or error, and verify
    message."""
    obj, graph = _decompositions(*case)
    text = json.dumps(obj.to_json_dict())
    content = json.loads(text)
    for kind in kinds:
        _mutate(content, kind, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decomposition.json"
        path.write_text(json.dumps(content))
        bulk, per_entry = _load(path, False), _load(path, True)
    if isinstance(per_entry, str):
        assert bulk == per_entry
        return
    (pattern, copies, induced), (pattern_1, copies_1, induced_1) = bulk, per_entry
    assert (pattern, induced) == (pattern_1, induced_1)
    # the bulk check: int64 ids, one size per class position, every entry or none with a codeword
    certificate, entries = case[0] == "dense", content["copies"]
    bulk_ready = (
        all(type(v) is int and -2**63 <= v < 2**63
            for entry in entries for c in entry["classes"] for v in c)
        and len({tuple(map(len, entry["classes"])) for entry in entries}) == 1
        and (certificate or len({"codeword" in entry for entry in entries}) == 1)
    )
    assert isinstance(copies, CopyArray) == bulk_ready
    assert copies == copies_1
    assert oracle.verify_decomposition(graph, pattern, copies, induced) == \
        oracle.verify_decomposition(graph, pattern_1, copies_1, induced_1)


_TEXT_MUTATIONS = ("letter", "leading zero", "minus", "NaN", "18 digits", "moved", "no comma",
                   "space", "duplicate", "truncate", "crlf", "shuffle")


def _mutate_text(text: str, kind: str, draw) -> str:
    """text changed once, byte by byte, at a drawn place: a digit changed into
    a letter; a 0 or a minus sign put before an id, or the id changed into NaN
    or into an id of 18 digits; an id moved elsewhere; a comma (a blank in an
    edge list) dropped or a blank put in; the "copies" member written again,
    or an empty one before it (an edge list's line written twice); the text
    cut short; CRLF line ends; or two lines swapped."""
    runs = [m.span() for m in re.finditer("[0-9]+", text)]
    if kind in ("letter", "leading zero", "minus", "NaN", "18 digits", "moved") and runs:
        a, b = draw(st.sampled_from(runs))
        if kind == "letter":
            at = draw(st.integers(a, b - 1))
            return text[:at] + draw(st.sampled_from("xeE")) + text[at + 1:]
        if kind == "moved":
            rest = text[:a] + text[b:]
            at = draw(st.integers(0, len(rest)))
            return rest[:at] + text[a:b] + rest[at:]
        run = {"leading zero": "0" + text[a:b], "minus": "-" + text[a:b], "NaN": "NaN",
               "18 digits": str(10**17 + int(text[a:b]))}[kind]
        return text[:a] + run + text[b:]
    if kind == "no comma" and (seps := [i for i, c in enumerate(text) if c in ", "[("," in text):]]):
        at = draw(st.sampled_from(seps))
        return text[:at] + text[at + 1:]
    if kind == "space":
        at = draw(st.integers(0, len(text)))
        return text[:at] + " " + text[at:]
    lines = text.splitlines(keepends=True)
    member = re.search(r'\n  "copies": \[.*?\n  \]', text, re.DOTALL)  # line break, key, list
    if kind == "duplicate" and member and "\n}" in text[member.end():]:
        again = draw(st.sampled_from([member[0], '\n  "copies": []']))
        if draw(st.booleans()):  # after the last member
            end = text.rindex("\n}")
            return text[:end] + "," + again + text[end:]
        return text[:member.start()] + again + "," + text[member.start():]
    if kind == "duplicate" and lines:
        at = draw(st.integers(0, len(lines) - 1))
        return "".join(lines[:at + 1] + lines[at:])
    if kind == "truncate" and text:
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "shuffle" and len(lines) > 1:
        i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2, unique=True))
        lines[i], lines[j] = lines[j], lines[i]
        return "".join(lines)
    return text


@pytest.mark.parametrize("case", [
    ("blowup", (1, 2), 0), ("blowup", (2, 2), 0), ("blowup", (1, 1, 2), 0), ("blowup", (3, 4, 5), 0),
    ("dense", (1, 2), 17), ("dense", (2, 2), 37), ("dense", (1, 1, 1), 20),
])
def test_written_copies_are_read_in_bulk(case):
    """Every blow-up file and non-vacuous certificate the CLI writes takes the
    bulk path, which reads the document json.loads reads, copies as the
    CopyArray copies_from_json makes of them."""
    obj = _decompositions(*case)[0]
    text = _json_text(obj.to_json_dict(arrays=True)) + "\n"
    data, expected = cli._read_copies(text), json.loads(text)
    copies, expected_copies = data.pop("copies"), blowup.copies_from_json(expected.pop("copies"))
    assert data == expected and copies == expected_copies == getattr(obj, "decomposition", obj).copies
    assert copies.table.dtype == np.int64 and (copies.table == expected_copies.table).all()


def test_bulk_copies_read_turns_down_a_text_with_its_own_constant():
    """The sentinel for the copies is NaN, so a NaN elsewhere sends the whole
    text to json.loads, which reads it as a float."""
    text = _json_text(blowup_decompose(PatternSignature((1, 2))).to_json_dict(arrays=True)) + "\n"
    assert cli._read_copies(text) is not None
    assert cli._read_copies(text.replace('"pattern": [\n    1,', '"pattern": [\n    NaN,')) is None


def _copies_layout(text: str) -> bool:
    """Whether text is JSON, without the NaN and Infinity the CLI never writes,
    whose one "copies" key holds copies as _json_text writes a CopyArray at
    depth 1: at least one copy, every id in 0..10**17 - 1."""
    try:
        data = json.loads(text, parse_constant=int)  # int("NaN") raises ValueError
    except ValueError:
        return False
    copies = blowup.copy_array_from_json(data.get("copies", [])) if isinstance(data, dict) else None
    if copies is None or not len(copies) or not 0 <= copies.table.min() <= copies.table.max() < 10**17:
        return False
    return text.count('"copies"') == 1 and '\n  "copies": ' + _json_text(copies, "  ") in text


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([("blowup", (1, 2), 0), ("blowup", (2, 3), 0), ("blowup", (1, 1, 2), 0),
                     ("dense", (1, 2), 17), ("dense", (1, 1, 1), 20), ("dense", (1, 2), 9)]),
    st.lists(st.sampled_from((*_MUTATIONS, "empty class")), max_size=2),
    st.lists(st.sampled_from(_TEXT_MUTATIONS), max_size=2),
    st.data(),
)
def test_bulk_copies_read_matches_the_present_path(case, kinds, text_kinds, data):
    """Blow-up files and certificates in the CLI's layout, json.dumps(indent=2,
    sort_keys=True), some with copies changed as JSON values (_mutate, or
    class 0 of every copy emptied), then changed byte by byte, read with the
    copies taken from the text in bulk and without: the same pattern, copies,
    induced flag and verify message, or the same error text.  The bulk path
    takes exactly the texts whose copies are in the CLI's layout (CRLF line
    ends too once read from a file, which gives them as line feeds)."""
    obj, graph = _decompositions(*case)
    content = obj.to_json_dict()
    for kind in sorted(kinds if content["copies"] else (), key="empty class".__eq__):
        if kind == "empty class":  # last, as _mutate draws from non-empty classes
            for entry in content["copies"]:
                entry["classes"][0] = []
        else:
            _mutate(content, kind, data.draw)
    text = json.dumps(content, indent=2, sort_keys=True) + "\n"
    for kind in text_kinds:
        text = _mutate_text(text, kind, data.draw)
    assert (cli._read_copies(text) is not None) == _copies_layout(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decomposition.json"
        path.write_bytes(text.encode())
        assert (cli._read_copies(path.read_text()) is not None) == _copies_layout(
            text.replace("\r\n", "\n"))
        bulk, present = _load(path, False), _load(path, False, text_bulk=False)
    if isinstance(present, str):
        assert bulk == present
        return
    (pattern, copies, induced), (pattern_1, copies_1, induced_1) = bulk, present
    assert (pattern, induced) == (pattern_1, induced_1)
    assert type(copies) is type(copies_1) and copies == copies_1
    if isinstance(copies, CopyArray):
        assert copies.table.dtype == copies_1.table.dtype and (copies.table == copies_1.table).all()
    assert oracle.verify_decomposition(graph, pattern, copies, induced) == \
        oracle.verify_decomposition(graph, pattern_1, copies_1, induced_1)


def _graph_or_error(text: str, bulk: bool):
    """SmallGraph.from_edge_list_text's order and matrix, or its error text;
    without bulk every text goes to the line reader."""
    with pytest.MonkeyPatch.context() as mp:
        if not bulk:
            mp.setattr(oracle, "_template_ids", lambda *args: None)
        try:
            g = oracle.SmallGraph.from_edge_list_text(text)
        except (ValueError, MemoryError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return g.n, g.bits.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(1, 2), (2, 3), (1, 1, 2), "random"]),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from(_TEXT_MUTATIONS), max_size=2),
    st.data(),
)
def test_bulk_edge_list_read_matches_the_line_reader(host, rng, kinds, data):
    """Edge lists as edge_list_text writes them, changed byte by byte, read
    with and without the bulk path: the same graph or the same error text.
    The bulk path takes exactly the texts of "u v\\n" lines of JSON ints of
    at most 17 digits, and never calls the line reader."""
    if host == "random":
        n = rng.randint(0, 12)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.5]
        graph = oracle.SmallGraph.from_edges(n, edges)
    else:
        graph = oracle.multipartite_graph(blowup_decompose(PatternSignature(host)).host)
    text = oracle.edge_list_text(graph)
    for kind in kinds:
        text = _mutate_text(text, kind, data.draw)
    layout = re.fullmatch(r"((0|[1-9][0-9]{0,16}) (0|[1-9][0-9]{0,16})\n)*", text) is not None
    with mock.patch.object(oracle, "_edge_list_ids", wraps=oracle._edge_list_ids) as line_reader:
        bulk = _graph_or_error(text, True)
    assert line_reader.called != layout
    assert bulk == _graph_or_error(text, False)


@st.composite
def _digit_run_texts(draw):
    """An edge list and a copies file over the same drawn ids of 1 to at most
    17 digits, some signed: the edge list in the CLI's layout or with tabs,
    double blanks and CRLF line ends, the copies as _json_text writes them."""
    width = draw(st.integers(1, 17))
    magnitude = st.integers(1, width).flatmap(lambda k: st.integers(10**k // 10, 10**k - 1))
    ids = draw(st.lists(st.tuples(st.booleans(), magnitude), min_size=3, max_size=36))
    ids = [-x if signed else x for signed, x in ids[:len(ids) // 3 * 3]]
    separator, end = draw(st.sampled_from([(" ", "\n"), ("\t", "\r\n"), ("  ", "\n")]))
    edges = "".join(f"{u}{separator}{v}{end}" for u, v in zip(ids[0::2], ids[1::2]))
    copies = _json_text({"copies": CopyArray(np.array(ids, np.int64).reshape(-1, 3), (1, 2))})
    return edges, copies + "\n"


def _digit_run_reads(edges: str, copies: str) -> list:
    """The ids both edge-list readers and cli._read_copies give, or their
    errors, and the graph when every id is small enough to build it."""
    reads = []
    for read, args in ((oracle._template_ids, (edges.encode(), b" \n", (0, 1))),
                       (oracle._edge_list_ids, (edges,)), (cli._read_copies, (copies,))):
        try:
            ids = read(*args)
        except ValueError as exc:
            reads.append(str(exc))
            continue
        ids = ids["copies"].table if isinstance(ids, dict) else ids
        reads.append(None if ids is None else (ids.dtype, ids.tolist()))
    if max(map(abs, map(int, re.findall("-?[0-9]+", edges))), default=0) <= 99:
        reads += [_graph_or_error(edges, True), _graph_or_error(edges, False)]
    return reads


@settings(max_examples=200, deadline=None)
@given(_digit_run_texts())
@example(("1 2\n" * 4 + "12 345\n" + "-45 -6\n", _json_text({"copies": []})))  # "-" at 23 and 27
@example(("7 99999999999999999\n", _json_text({"copies": []})))
def test_digit_run_blocks_are_unobservable(texts):
    """_digit_runs scans 4 * _BLOCK bytes at a time and _digit_values reads
    _BLOCK runs at a time; with _BLOCK at 1, 2, 3 or 7, so that block edges
    fall inside a run, just after a minus sign or at the text's first run,
    every reader gives what it gives at the default."""
    expected = _digit_run_reads(*texts)
    for block in (1, 2, 3, 7):
        with mock.patch.object(oracle, "_BLOCK", block):
            assert _digit_run_reads(*texts) == expected, block
