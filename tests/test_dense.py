"""Dense host assembly: parameter choice, clique search, transport, certificates."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from induced_decomp import cli, dense, designs, oracle
from induced_decomp.blowup import CopyArray, PatternSignature
from induced_decomp.dense import (
    NoFeasibleParameters,
    admissible_period,
    assemble,
    choose_parameters,
    divisibility_check,
)
from induced_decomp.embedded import star_parameters
from induced_decomp.oracle import SearchBudget

P12 = PatternSignature((1, 2))
P11 = PatternSignature((1, 1))


def test_divisibility_check_accepts():
    # C(4, 2) = 6 is even and every degree 3 is a multiple of gcd(2, 1) = 1
    assert divisibility_check(P12, 4) is True


def test_divisibility_check_rejects():
    # C(3, 2) = 3 is odd
    assert divisibility_check(P12, 3) is False


FROZEN_PERIODS = [
    ((1, 2), (4, (0, 1))),
    ((1, 1), (1, (0,))),
    ((2, 2), (8, (1,))),
    ((2, 3), (12, (0, 1, 4, 9))),
]


@pytest.mark.parametrize("parts,expected", FROZEN_PERIODS)
def test_admissible_period_frozen(parts, expected):
    assert admissible_period(PatternSignature(parts)) == expected


def test_admissible_period_really_is_periodic():
    # choose_parameters walks n' by residue, so the residues must match
    # divisibility_check exactly
    patterns = [parts for parts, _ in FROZEN_PERIODS] + [(1, 1, 1), (1, 3), (2, 2, 2)]
    for parts in patterns:
        pattern = PatternSignature(parts)
        q, residues = admissible_period(pattern)
        for n_prime in range(120):
            assert divisibility_check(pattern, n_prime) == (n_prime % q in residues), (
                parts, n_prime)


def test_choose_parameters_frozen():
    params = choose_parameters(P12, 9)
    assert (params.p, params.q, params.n_prime, params.t) == (2, 4, 4, 1)
    assert params.r == 0 and params.s == 1

    params = choose_parameters(P12, 11)
    assert (params.n_prime, params.t) == (5, 1)

    params = choose_parameters(P12, 10)
    assert (params.n_prime, params.t) == (5, 0)


def test_choose_parameters_prefers_largest_clique():
    # n = 16 fits n' = 8 exactly; the window must not settle for 5
    assert choose_parameters(P12, 16).n_prime == 8


def test_choose_parameters_infeasible():
    with pytest.raises(NoFeasibleParameters):
        choose_parameters(P12, 1)


def test_choose_parameters_degenerate_fallback():
    # vacuous: with no search nodes allowed, only the edgeless K_1 survives
    params = choose_parameters(P12, 9, budget=SearchBudget(max_nodes=0, max_seconds=60.0))
    assert params.n_prime == 1
    assert params.t == 7


SMALL_BUDGET = SearchBudget(max_nodes=1000, max_seconds=60.0)


def test_choose_parameters_names_every_failed_candidate():
    # q = 5 with residues 0 and 1: the window 21..25 holds K_25 and K_21,
    # lexicographic search splits neither into K_{1,1,2} copies, and no
    # construction covers that pattern
    with pytest.raises(NoFeasibleParameters) as info:
        choose_parameters(PatternSignature((1, 1, 2)), 50, budget=SMALL_BUDGET)
    assert str(info.value) == (
        "no certified clique order for pattern (1, 1, 2) and n = 50 "
        "(K_25: node budget 1000 exhausted; K_21: node budget 1000 exhausted)"
    )


def test_choose_parameters_proven_none_says_so():
    with pytest.raises(NoFeasibleParameters) as info:
        choose_parameters(PatternSignature((1, 3)), 12)
    assert str(info.value) == (
        "no certified clique order for pattern (1, 3) and n = 12 "
        "(K_4: search space exhausted without finding a decomposition; "
        "K_3: search space exhausted without finding a decomposition)"
    )


def test_clique_searches_run_once_per_order(monkeypatch):
    searched = []
    real = oracle.exact_cover_decompose

    def spy(graph, pattern, induced, budget):
        searched.append(graph.n)
        return real(graph, pattern, induced=induced, budget=budget)

    monkeypatch.setattr(oracle, "exact_cover_decompose", spy)
    dense._clique_search.cache_clear()
    pattern = PatternSignature((1, 1, 2))  # no construction: search decides alone
    outcomes = set()
    for n in range(18, 36):
        try:
            outcomes.add(choose_parameters(pattern, n, budget=SMALL_BUDGET).n_prime)
        except NoFeasibleParameters:
            outcomes.add(None)
    # some orders were certified, some failed, and none was searched twice
    assert None in outcomes and len(outcomes) > 1
    assert sorted(searched) == sorted(set(searched))
    # K_11 ran out of budget; its cached outcome is that text, not a new search
    assert 11 in searched
    assert dense._clique_search(pattern, 11, SMALL_BUDGET) == "node budget 1000 exhausted"
    assert searched.count(11) == 1


def test_orders_beyond_the_cap_build_no_clique(monkeypatch):
    # K_500000 as a bool matrix would take about 250 GB
    built = oracle.complete_graph

    def spy(n):
        assert n <= oracle.ENUMERATE_CAP, f"K_{n} built"
        return built(n)

    monkeypatch.setattr(oracle, "complete_graph", spy)
    message = ("^K_500000: enumeration capped at 40 vertices, graph has 500000; "
               "K_499997: construction capped at 333333 copies, K_499997 needs 62499125003$")
    with pytest.raises(oracle.CapExceeded, match=message):
        assemble(PatternSignature((1, 2)), 10**6)


def test_step_one_refuses_placement_tables_over_the_cap(monkeypatch, capsys):
    # n = 240 puts K_34 first in the (1,2,3) window; its 80,694,240
    # placements are refused before a class subset is listed (before the
    # cap, the table build was killed for want of memory)
    def fail(vertices, a):
        raise AssertionError("_combinations called")

    monkeypatch.setattr(oracle, "_combinations", fail)
    dense._clique_search.cache_clear()
    budget = ["--budget-nodes", "1000", "--budget-seconds", "5"]
    assert cli.main(["dense", "--pattern", "1,2,3", "--n", "240", *budget]) == 2
    assert capsys.readouterr().err == (
        "unsupported: K_34: placements capped at 1000000, K_34 has 80694240 of (1, 2, 3); "
        "K_33: placements capped at 1000000, K_33 has 66454080 of (1, 2, 3)\n"
    )


def test_capped_orders_fall_through_to_smaller_ones():
    # (1,1,2) has no construction: K_41 is over the enumeration cap and
    # K_40 out of budget, so the mix is infeasible (exit 3), each n' named
    with pytest.raises(NoFeasibleParameters) as info:
        choose_parameters(PatternSignature((1, 1, 2)), 82, budget=SMALL_BUDGET)
    assert str(info.value) == (
        "no certified clique order for pattern (1, 1, 2) and n = 82 (K_41: enumeration "
        "capped at 40 vertices, graph has 41; K_40: node budget 1000 exhausted)"
    )
    # (1,2) at n = 88: K_44 is capped with no construction, K_41 = 4*10 + 1
    # comes from an alpha-valuation
    assert choose_parameters(P12, 88).n_prime == 41
    outcome = dense._step_one(P12, 44, SearchBudget(), 2)
    assert outcome == ("enumeration capped at 40 vertices, graph has 44", True)
    # a construction that applies but passes its cap says so: 4 * 3 pairs per
    # step-1 copy of (1,2) at p = 2 leave PAIR_CAP // 12 = 333,333 copies
    outcome = dense._step_one(P12, 499_997, SearchBudget(), 2)
    assert outcome == ("construction capped at 333333 copies, K_499997 needs 62499125003", True)


def test_constructed_orders_past_the_pair_cap_exit_2_before_allocating(monkeypatch, capsys):
    # (2,3) at n = 20000 has p = 6 and the window 3322..3333; K_3325 = 12*277 + 1
    # has an alpha-valuation of 921,025 copies, whose 33,156,900 transports
    # would be checked on 331,569,000 vertex pairs (about 5 GB).  Every n' is
    # capped, so each is named with its cap (exit 2); with numpy taken from
    # designs, any construction array built would raise instead
    tried = []
    real = designs.alpha_valuation_rows

    def spy(a, b, v, cap):
        tried.append(v)
        return real(a, b, v, cap)

    def fail(*args):
        raise AssertionError("transport called")

    monkeypatch.setattr(designs, "alpha_valuation_rows", spy)
    monkeypatch.setattr(designs, "np", None)
    monkeypatch.setattr(dense, "transport", fail)
    assert cli.main(["dense", "--pattern", "2,3", "--n", "20000"]) == 2
    assert capsys.readouterr().err == (
        "unsupported: K_3333: enumeration capped at 40 vertices, graph has 3333; "
        "K_3328: enumeration capped at 40 vertices, graph has 3328; "
        "K_3325: construction capped at 11111 copies, K_3325 needs 921025; "
        "K_3324: enumeration capped at 40 vertices, graph has 3324\n"
    )
    assert 3325 in tried


def test_constructed_rows_are_not_cached():
    # (1,2) at n = 100: K_50 is capped and K_49 comes from an alpha-valuation,
    # rebuilt when assemble asks for it; the search cache keeps nothing
    dense._clique_search.cache_clear()
    cert = assemble(P12, 100)
    assert cert.params.n_prime == 49 and len(cert.decomposition.copies) == 49 * 12 * 4
    assert dense._clique_search.cache_info().currsize == 0


SWEEP_BUDGET = SearchBudget(max_nodes=2000, max_seconds=60.0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 2), (1, 3), (2, 3), (1, 1, 1)]), st.integers(1, 300))
def test_assemble_sweep_certifies_the_largest_order_or_names_each(parts, n):
    """Through assemble, each certificate is the largest certified n' of
    the window and meets the bound; each refusal names every n' it tried."""
    pattern = PatternSignature(parts)
    p, (q, residues) = star_parameters(pattern), admissible_period(pattern)
    window = [m for m in range(n // p, max(1, n // p - q + 1) - 1, -1) if m % q in residues]
    try:
        cert = assemble(pattern, n, SWEEP_BUDGET)
    except NoFeasibleParameters as exc:
        assert re.findall(r"K_(\d+): ", str(exc)) == list(map(str, window))
        return
    except oracle.CapExceeded as exc:  # every n' refused for a size cap; each is named
        assert re.findall(r"K_(\d+): ", str(exc)) == list(map(str, window))
        return
    above = window[:window.index(cert.params.n_prime)]
    assert not any(isinstance(dense._step_one(pattern, m, SWEEP_BUDGET, p), np.ndarray)
                   for m in above)
    host = cert.decomposition.host
    assert cert.non_edge_count == n * (n - 1) // 2 - host.edge_count < cert.bound_rhs


def test_clique_search_cache_is_bounded():
    # a run of consecutive n reuses a few entries; 128 bound what a
    # long-lived process keeps
    dense._clique_search.cache_clear()
    pattern = PatternSignature((1, 2))
    for nodes in range(1, 139):  # K_3 has no (1,2) split: each call returns a text
        dense._clique_search(pattern, 3, oracle.SearchBudget(nodes, 1.0))
    info = dense._clique_search.cache_info()
    assert info.maxsize == 128 and info.currsize == 128 and info.misses == 138
    dense._clique_search.cache_clear()


def test_assemble_searches_nothing_of_its_own(monkeypatch):
    searched = []
    real = oracle.exact_cover_decompose

    def spy(graph, pattern, induced, budget):
        searched.append(graph.n)
        return real(graph, pattern, induced=induced, budget=budget)

    monkeypatch.setattr(oracle, "exact_cover_decompose", spy)
    dense._clique_search.cache_clear()
    pattern = PatternSignature((1, 1, 2))  # no construction: search decides alone
    # n = 20: p = 2 and the window 6..10 holds K_10, out of budget, then K_6
    params = choose_parameters(pattern, 20, budget=SMALL_BUDGET)
    assert params.n_prime == 6 and searched == [10, 6]
    cert = assemble(pattern, 20, budget=SMALL_BUDGET)
    assert cert.params == params and searched == [10, 6]
    assert dense._clique_search(pattern, 10, SMALL_BUDGET) == "node budget 1000 exhausted"
    assert searched == [10, 6]


def test_step1_clique_decomposition():
    rows = dense._clique_search(P12, 4, SearchBudget())
    # the cache hands every caller this array, so it must not be writable
    assert rows.shape == (3, 3) and rows.dtype == np.int64 and not rows.flags.writeable
    copies = CopyArray(rows, P12.parts)
    assert oracle.verify_decomposition(oracle.complete_graph(4), P12, copies, induced=False) == []


def test_step1_divisibility_error_carries_reasons():
    # K_3 has 3 edges, so copies of the 2-edge pattern cannot tile it
    assert dense._clique_search(P12, 3, SearchBudget()) == (
        "3 edges is not a multiple of the pattern's 2"
    )


def _pset(v: int, p: int) -> set[int]:
    return set(range((v - 1) * p + 1, v * p + 1))


def test_step2_blow_up_geometry():
    # n = 8 = 4*2: K_4 blown up by p = 2, vertex v of the clique becoming
    # the pair (2v-1, 2v); each K_4 copy turns into p**2 = 4 copies that
    # together use exactly the pairs of its vertices
    cert = assemble(P12, 8)
    d = cert.decomposition
    assert (cert.params.n_prime, cert.params.p, cert.params.t) == (4, 2, 0)
    assert d.host.parts == (2, 2, 2, 2) and d.host.isolated == 0
    clique = dense._clique_search(P12, 4, SearchBudget())
    assert len(d.copies) == 4 * len(clique) == 12
    for i, clique_copy in enumerate(clique.tolist()):
        used = {v for copy in d.copies[4 * i:4 * i + 4] for cls in copy.classes for v in cls}
        assert used == set().union(*(_pset(v, 2) for v in clique_copy))


def test_step2_single_edge_pattern():
    # K_3 blown up by 2 is the complete tripartite host on 2-sets
    cert = assemble(P11, 6)
    host = cert.decomposition.host
    assert host.parts == (2, 2, 2)
    assert len(cert.decomposition.copies) == 3 * 4
    assert host.edge_count == 12


def test_step3_refine_cells():
    # a class of size 1 blown to a 2-set yields two 1-cells; a class of
    # size 2 blown to two 2-sets stays two 2-cells
    cert = assemble(P12, 8)
    for copy in cert.decomposition.copies:
        assert tuple(len(c) for c in copy.classes) == (1, 2)
        assert all(set(c) <= _pset((c[0] + 1) // 2, 2) for c in copy.classes)


def test_step3_cells_with_larger_p():
    # (2, 2) at n = 36: K_9 blown up by p = 4; every cell is a run of two
    # inside one p-set of its K_9 copy's class
    pat = PatternSignature((2, 2))
    cert = assemble(pat, 36)
    p = cert.params.p
    assert (cert.params.n_prime, p) == (9, 4)
    clique = CopyArray(dense._clique_search(pat, 9, SearchBudget()), pat.parts)
    for i, clique_copy in enumerate(clique):
        for copy in cert.decomposition.copies[p * p * i:p * p * (i + 1)]:
            for cls, original in zip(copy.classes, clique_copy.classes):
                assert len(cls) == 2 and cls[1] == cls[0] + 1
                assert any(set(cls) <= _pset(v, p) for v in original)


def test_step4_produces_p_squared_copies():
    for pattern, n in ((P12, 8), (P11, 6), (PatternSignature((2, 2)), 36)):
        cert = assemble(pattern, n)
        p = cert.params.p
        clique = dense._clique_search(pattern, cert.params.n_prime, SearchBudget())
        assert len(cert.decomposition.copies) == p * p * len(clique)


def test_assemble_frozen_n9():
    cert = assemble(P12, 9)
    assert (cert.params.n_prime, cert.params.p, cert.params.t) == (4, 2, 1)
    assert len(cert.decomposition.copies) == 12
    assert cert.non_edge_count == 12
    assert cert.bound_rhs == 81.0
    assert cert.non_edges == (
        (1, 2), (1, 9), (2, 9), (3, 4), (3, 9), (4, 9),
        (5, 6), (5, 9), (6, 9), (7, 8), (7, 9), (8, 9),
    )


def test_assemble_reverifies_independently():
    cert = assemble(P12, 11)
    d = cert.decomposition
    g = oracle.multipartite_graph(d.host)
    assert oracle.verify_decomposition(
        g, d.pattern, [c.classes for c in d.copies], induced=True
    ) == []
    # the explicit non-edge list matches the graph's actual non-edges
    complement = {
        (u, v)
        for u in range(1, g.n + 1)
        for v in range(u + 1, g.n + 1)
        if not g.has_edge(u, v)
    }
    assert set(cert.non_edges) == complement


def _reference_non_edges(cert):
    """The certificate's non-edges as listed by loops over the p-sets and
    the isolated vertices, then sorted."""
    host = cert.decomposition.host
    n, t, n_prime = cert.params.n, cert.params.t, cert.params.n_prime
    listed = []
    offsets = host.offsets
    for i in range(n_prime):
        for u in range(offsets[i] + 1, offsets[i + 1] + 1):
            for v in range(u + 1, offsets[i + 1] + 1):
                listed.append((u, v))
    for u in range(1, n + 1):
        for v in range(max(u + 1, n - t + 1), n + 1):
            listed.append((u, v))
    return tuple(sorted(listed))


# Orders n that reach every leftover t in 0..p*q-1, most with n' >= 2.  The
# (1, 2) pattern reaches t = 6 and 7 only when the search budget rules out
# K_4, so those two run on a one-node budget (and n' = 1).  (1, 1, 2) has no
# construction, so a small budget leaves K_6 for n = 12..21: t = 0..9.
NON_EDGE_CASES = [
    ((1, 2), [8, 9, 12, 13, 14, 15, 6, 7], SearchBudget()),
    ((1, 2), [8, 9], SearchBudget(max_nodes=1)),
    ((1, 3), [18, 19, 20, 24, 25, 26, 9, 10, 11], SearchBudget()),
    ((2, 2), list(range(36, 68)), SearchBudget()),
    ((1, 1, 2), list(range(12, 22)), SMALL_BUDGET),
]


def test_certificate_non_edges_match_reference_listing():
    reached: dict[tuple[int, ...], set[int]] = {}
    for parts, ns, budget in NON_EDGE_CASES:
        for n in ns:
            cert = assemble(PatternSignature(parts), n, budget)
            assert cert.non_edges == _reference_non_edges(cert)
            reached.setdefault(parts, set()).add(cert.params.t)
    for parts, ts in reached.items():
        p, q = star_parameters(PatternSignature(parts)), admissible_period(PatternSignature(parts))[0]
        assert ts == set(range(p * q)), parts


@pytest.mark.parametrize("n", range(9, 34))
def test_assemble_all_small_n(n):
    cert = assemble(P12, n)
    p, t, n_prime = cert.params.p, cert.params.t, cert.params.n_prime
    assert n == n_prime * p + t
    assert cert.non_edge_count == (
        n_prime * p * (p - 1) // 2 + t * (t - 1) // 2 + t * (n - t)
    )
    assert cert.non_edge_count < cert.bound_rhs


def test_assemble_single_edge_pattern():
    cert = assemble(P11, 5)
    assert cert.params.t == 1
    assert len(cert.decomposition.copies) == 4
    assert cert.non_edge_count == 6


def test_assemble_all_parts_doubled():
    cert = assemble(PatternSignature((2, 2)), 36)
    assert cert.params.n_prime == 9
    assert cert.params.t == 0
    assert len(cert.decomposition.copies) == 144
    assert cert.non_edge_count == 54


def test_certificate_json_shape():
    cert = assemble(P12, 9)
    data = json.loads(json.dumps(cert.to_json_dict(), sort_keys=True))
    assert data["n"] == 9
    assert data["pattern"] == [1, 2]
    assert data["params"]["n_prime"] == 4
    assert data["bound"] == {"lhs": 12, "rhs": 81.0}
    assert data["non_edges"][0] == [1, 2]
    assert len(data["copies"]) == 12


def test_certificate_structural_fallback():
    cert = assemble(P12, 9)
    trimmed = cert.__class__(
        params=cert.params,
        decomposition=cert.decomposition,
        non_edge_count=cert.non_edge_count,
        non_edges=None,
        bound_rhs=cert.bound_rhs,
    )
    data = trimmed.to_json_dict()
    assert data["non_edges"]["structural"]["count"] == 12


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_copy_array_matches_tuples(data):
    """verify_decomposition gives an assembled CopyArray, damaged in place,
    the first violation it gives the same copies as FCopy tuples."""
    parts, n = data.draw(st.sampled_from([((1, 2), 13), ((1, 2), 30), ((2, 2), 37), ((1, 1, 1), 20)]))
    pattern = PatternSignature(parts)
    cert = assemble(pattern, n)
    host, copies = cert.decomposition.host, cert.decomposition.copies
    rows = copies.rows.copy()
    for _ in range(data.draw(st.integers(0, 3))):
        r = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(0, rows.shape[1] - 1))
        rows[r, c] = data.draw(st.integers(-1, host.order + 1))
    sizes = data.draw(st.sampled_from([pattern.parts, pattern.parts[::-1], (1,) * pattern.order]))
    damaged = CopyArray(rows, sizes)
    for induced in (True, False):
        assert oracle.verify_decomposition(host, pattern, damaged, induced) == (
            oracle.verify_decomposition(host, pattern, tuple(damaged), induced)
        )
