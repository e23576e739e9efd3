"""Workload definitions, job runners and the independent output checks.

A workload is a list of job groups.  The seed permutes the groups (and
draws the edge_to_copy samples); jobs inside a group keep their order
because later ones read files or caches that earlier ones leave.  The
worker clears the package's caches before every group, so a group costs
the same wherever the seed puts it.  Every run executes whole passes
over the same jobs, so the job mix, and with it every metric, does not
depend on where a deadline falls.

Jobs call the package through module attributes only (``oracle.f(...)``,
never ``from ... import f``), so that the traced run's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from induced_decomp import blowup, cli, designs, embedded, oracle
from induced_decomp.blowup import MultipartiteHost, PatternSignature

OK, VACUOUS, REFUSED, NONE, BUDGET, VERIFY_FAIL, CRASH, WRONG = (
    "ok", "vacuous", "refused", "none", "budget", "verify_fail", "crash", "wrong",
)
OUTCOMES = (OK, VACUOUS, REFUSED, NONE, BUDGET, VERIFY_FAIL, CRASH, WRONG)
# Outcomes that are operation failures rather than honest refusals.
FAILED = (VERIFY_FAIL, CRASH, WRONG)

# Search budgets: node counts fix every search outcome; the seconds
# limit sits far above any job's time so machine load cannot change one.
BUDGET_SECONDS = 3600
DENSE_BUDGET_NODES = 100_000
ORACLE_BUDGET_NODES = 2_000_000

LOOKUPS_PER_PATTERN = 300

BLOWUP_PATTERNS = (
    "1,2", "2,2", "2,3", "3,3", "2,5", "3,4", "4,5", "5,7",
    "1,1,2", "1,2,3", "2,2,3", "2,3,4", "2,3,5", "3,4,5",
)
# Runs of consecutive n share the clique order n', so the step-1 cache
# is hit inside a run.  The last three runs are known-defect inputs.
DENSE_RUNS = (
    ("1,2", range(60, 72)),
    ("1,3", range(60, 68)),
    ("2,2", range(40, 48)),
    ("2,2", range(80, 84)),
    ("1,2", range(82, 85)),
    ("2,3", (60,)),
    ("1,1,1", (50,)),
)
CEX_PATTERNS = ("1,2", "1,3", "2,2", "1,1,1", "1,1,2", "2,3", "1,4", "1,1,1,1")
CEX_LARGE = ("1,2",)
# (pattern, n, node budget) for exact_cover_decompose(complete_graph(n),
# pattern, induced=False): found, then proven none, then out of budget.
EXACT_COVER = (
    ("1,1,1", 19, ORACLE_BUDGET_NODES),
    ("1,1,2", 10, ORACLE_BUDGET_NODES), ("1,1,2", 6, ORACLE_BUDGET_NODES),
    ("1,3", 9, ORACLE_BUDGET_NODES), ("1,3", 12, ORACLE_BUDGET_NODES),
    ("1,3", 13, ORACLE_BUDGET_NODES), ("1,1,1", 9, ORACLE_BUDGET_NODES),
    ("1,1,1", 13, ORACLE_BUDGET_NODES), ("1,4", 9, ORACLE_BUDGET_NODES),
    ("1,1,1,1", 13, ORACLE_BUDGET_NODES), ("2,2", 9, ORACLE_BUDGET_NODES),
    ("3,3", 9, ORACLE_BUDGET_NODES),
    ("1,1,1", 12, ORACLE_BUDGET_NODES), ("1,1,1,1", 12, ORACLE_BUDGET_NODES),
    ("2,2", 8, ORACLE_BUDGET_NODES), ("1,1,2", 5, ORACLE_BUDGET_NODES),
    ("1,1,1", 21, 100_000),
)
# order -> (MOLS count, TD block size or None, patterns embedded at p = order)
DESIGN_ORDERS = {
    32: (31, 4, ("1,2",)),
    49: (8, 5, ("2,3",)),
    64: (7, 4, ("1,1,1",)),
    81: (8, 3, ("1,2",)),
    121: (3, None, ("1,2",)),
    125: (2, None, ("1,1,1",)),
    128: (2, 3, ("1,2",)),
    45: (4, 6, ()),
    63: (6, 5, ()),
    100: (3, 3, ()),
    144: (8, None, ()),
}

EXIT_OUTCOME = {0: OK, 1: CRASH, 2: REFUSED, 4: VERIFY_FAIL}


@dataclass(frozen=True)
class Job:
    kind: str
    key: str  # names the artifact; stable across runs unless it embeds the seed
    args: tuple
    hosted: bool  # contributes to missing_pair_frac


def _pattern(text: str) -> PatternSignature:
    return PatternSignature.from_text(text)


def _tag(text: str) -> str:
    return text.replace(",", "-")


def _sample_pairs(pattern_text: str, seed: int) -> tuple[tuple[int, int], ...]:
    """Uniform cross-part vertex pairs of the pattern's blow-up host."""
    pattern = _pattern(pattern_text)
    offsets = MultipartiteHost(parts=tuple(pattern.m * a for a in pattern.parts)).offsets
    n = offsets[-1]
    rng = random.Random(f"{seed}:{pattern_text}")
    pairs = []
    while len(pairs) < LOOKUPS_PER_PATTERN:
        u, v = rng.randint(1, n), rng.randint(1, n)
        part_u = next(i for i in range(len(offsets) - 1) if u <= offsets[i + 1])
        part_v = next(i for i in range(len(offsets) - 1) if v <= offsets[i + 1])
        if part_u != part_v:
            pairs.append((u, v))
    return tuple(pairs)


def _groups(workload: str, seed: int) -> list[list[Job]]:
    if workload == "blowup-verify":
        return [
            [
                Job("blowup-json", f"blowup-json {p}", (p,), True),
                Job("blowup-edgelist", f"blowup-edgelist {p}", (p,), False),
                Job("blowup-verify", f"blowup-verify {p}", (p,), False),
                Job("lookup", f"lookup {p} seed={seed}", (p, _sample_pairs(p, seed)), False),
            ]
            for p in BLOWUP_PATTERNS
        ]
    if workload == "dense-sweep":
        return [
            [Job("dense", f"dense {p} n={n}", (p, n), True) for n in ns]
            for p, ns in DENSE_RUNS
        ]
    if workload == "oracle-search":
        cex = [(p, n) for n in (5, 6) for p in CEX_PATTERNS] + [(p, 7) for p in CEX_LARGE]
        return [[Job("cex", f"cex {p} n={n}", (p, n), True)] for p, n in cex] + [
            [Job("exact-cover", f"exact-cover {p} K_{n}", (p, n, nodes), True)]
            for p, n, nodes in EXACT_COVER
        ]
    if workload == "designs-large":
        groups = []
        for order, (count, k, patterns) in DESIGN_ORDERS.items():
            group = [Job("mols", f"mols {order} {count}", (order, count), False)]
            if k is not None:
                group.append(Job("td", f"td {k} {order}", (k, order), True))
            group += [
                Job("embedded", f"embedded {p} p={order}", (p, order), True) for p in patterns
            ]
            groups.append(group)
        return groups
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("blowup-verify", "dense-sweep", "oracle-search", "designs-large")


def build(workload: str, seed: int) -> list[list[Job]]:
    """The job groups of one pass, in seeded order."""
    groups = _groups(workload, seed)
    random.Random(seed).shuffle(groups)
    return groups


# --- running -------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[str, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 3:
        return (BUDGET if "budget" in err.getvalue() else NONE), b""
    return EXIT_OUTCOME.get(code, CRASH), out.getvalue().encode()


def _budget_args(nodes: int) -> list[str]:
    return ["--budget-nodes", str(nodes), "--budget-seconds", str(BUDGET_SECONDS)]


def run(job: Job, workdir: Path) -> tuple[str, Path | bytes | None]:
    """Run one job; return its outcome and its artifact (a file or bytes)."""
    kind, args = job.kind, job.args
    if kind in ("blowup-json", "blowup-edgelist"):
        fmt = "json" if kind == "blowup-json" else "edgelist"
        out = workdir / f"blowup-{_tag(args[0])}.{fmt}"
        outcome, _ = _cli(["blowup", "--pattern", args[0], "--format", fmt, "--out", str(out)])
        return outcome, out if outcome == OK else None
    if kind == "blowup-verify":
        stem = workdir / f"blowup-{_tag(args[0])}"
        return _cli(["verify", "--graph", f"{stem}.edgelist", "--decomposition", f"{stem}.json"])
    if kind == "lookup":
        ctx = blowup.make_context(_pattern(args[0]))
        found = []
        for u, v in args[1]:
            w, _ = blowup.edge_to_copy(ctx, u, v)
            found.append([u, v, list(w.b), list(w.c)])
        return OK, json.dumps(found).encode()
    if kind == "dense":
        pattern, n = args
        out = workdir / f"dense-{_tag(pattern)}-{n}.json"
        outcome, _ = _cli(
            ["dense", "--pattern", pattern, "--n", str(n), "--out", str(out)]
            + _budget_args(DENSE_BUDGET_NODES)
        )
        return outcome, out if outcome == OK else None
    if kind == "cex":
        pattern, n = args
        out = workdir / f"cex-{_tag(pattern)}-{n}.json"
        outcome, _ = _cli(
            ["cex", "--pattern", pattern, "--n", str(n), "--out", str(out)]
            + _budget_args(ORACLE_BUDGET_NODES)
        )
        return outcome, out if outcome == OK else None
    if kind == "exact-cover":
        pattern, n, nodes = args
        budget = oracle.SearchBudget(max_nodes=nodes, max_seconds=BUDGET_SECONDS)
        try:
            d = oracle.exact_cover_decompose(
                oracle.complete_graph(n), _pattern(pattern), induced=False, budget=budget
            )
        except oracle.NoDecomposition:
            return NONE, None
        except oracle.BudgetExceeded:
            return BUDGET, None
        return OK, json.dumps(d.to_json_dict(), sort_keys=True).encode()
    if kind == "mols":
        order, count = args
        out = workdir / f"mols-{order}-{count}.json"
        outcome, _ = _cli(["mols", "--order", str(order), "--count", str(count), "--out", str(out)])
        return outcome, out if outcome == OK else None
    if kind == "td":
        k, order = args
        out = workdir / f"td-{k}-{order}.json"
        outcome, _ = _cli(["td", "--k", str(k), "--n", str(order), "--out", str(out)])
        return outcome, out if outcome == OK else None
    if kind == "embedded":
        pattern, p = args
        d = embedded.embedded_decompose(_pattern(pattern), p)
        if embedded.verify_embedded(d):
            return VERIFY_FAIL, None
        return OK, json.dumps(d.to_json_dict(), sort_keys=True).encode()
    raise ValueError(f"unknown job kind {kind!r}")


# --- checking ------------------------------------------------------------


class Wrong(Exception):
    """An artifact failed its independent check."""


def _non_edge_frac(host: MultipartiteHost) -> float:
    pairs = host.order * (host.order - 1) // 2
    return (pairs - host.edge_count) / pairs


def _require(violations: list[str]) -> None:
    if violations:
        raise Wrong(violations[0])


def _copies(data: dict) -> list[tuple[tuple[int, ...], ...]]:
    return [tuple(tuple(c) for c in entry["classes"]) for entry in data["copies"]]


class Checker:
    """Independent re-verification of artifacts, memoised per pattern.

    check() returns (status, missing pair fraction or None) with status
    OK or VACUOUS, and raises Wrong when the artifact is not correct.
    """

    def __init__(self, artifacts: dict[str, Path | bytes]):
        self.artifacts = artifacts
        self._blowup: dict[str, tuple] = {}

    def _load(self, key: str):
        artifact = self.artifacts[key]
        return artifact.read_bytes() if isinstance(artifact, Path) else artifact

    def _blowup_json(self, pattern_text: str):
        """Host graph and codeword map of a verified blowup artifact."""
        if pattern_text not in self._blowup:
            data = json.loads(self._load(f"blowup-json {pattern_text}"))
            pattern = _pattern(pattern_text)
            if tuple(data["pattern"]) != pattern.parts:
                raise Wrong(f"pattern {data['pattern']} is not {pattern.parts}")
            host = MultipartiteHost(parts=tuple(pattern.m * a for a in pattern.parts))
            if tuple(data["host"]["parts"]) != host.parts:
                raise Wrong(f"host parts {data['host']['parts']} are not {host.parts}")
            copies = _copies(data)
            if len(copies) != pattern.m**2:
                raise Wrong(f"{len(copies)} copies, expected {pattern.m**2}")
            graph = oracle.multipartite_graph(host)
            _require(oracle.verify_decomposition(graph, pattern, copies, induced=True))
            by_codeword = {
                (tuple(e["codeword"]["b"]), tuple(e["codeword"]["c"])): classes
                for e, classes in zip(data["copies"], copies)
            }
            self._blowup[pattern_text] = (host, graph, by_codeword)
        return self._blowup[pattern_text]

    def check(self, job: Job) -> tuple[str, float | None]:
        kind, args = job.kind, job.args
        if kind == "blowup-json":
            host, _, _ = self._blowup_json(args[0])
            return OK, _non_edge_frac(host)
        if kind == "blowup-edgelist":
            _, graph, _ = self._blowup_json(args[0])
            if self._load(job.key) != graph.to_edge_list_text().encode():
                raise Wrong("edge list differs from the host's edges")
            return OK, None
        if kind == "blowup-verify":
            self._blowup_json(args[0])  # verify said ok; the decomposition must be valid
            return OK, None
        if kind == "lookup":
            _, _, by_codeword = self._blowup_json(args[0])
            for u, v, b, c in json.loads(self._load(job.key)):
                classes = by_codeword.get((tuple(b), tuple(c)))
                if classes is None:
                    raise Wrong(f"edge ({u}, {v}) mapped to unknown codeword {b}/{c}")
                part_u = next((i for i, cls in enumerate(classes) if u in cls), None)
                part_v = next((i for i, cls in enumerate(classes) if v in cls), None)
                if part_u is None or part_v is None or part_u == part_v:
                    raise Wrong(f"copy {b}/{c} does not cover edge ({u}, {v})")
            return OK, None
        if kind == "dense":
            return self._dense(json.loads(self._load(job.key)), *args)
        if kind == "cex":
            return self._cex(json.loads(self._load(job.key)), *args)
        if kind == "exact-cover":
            pattern, n = _pattern(args[0]), args[1]
            copies = _copies(json.loads(self._load(job.key)))
            if len(copies) * pattern.edge_count != n * (n - 1) // 2:
                raise Wrong(f"{len(copies)} copies cannot tile K_{n}")
            _require(oracle.verify_decomposition(
                oracle.complete_graph(n), pattern, copies, induced=False
            ))
            return OK, 0.0
        if kind == "mols":
            self._mols(json.loads(self._load(job.key)), *args)
            return OK, None
        if kind == "td":
            data = json.loads(self._load(job.key))
            td = designs.td_from_json(data)
            if (td.blocksize, td.groupsize) != args:
                raise Wrong(f"TD({td.blocksize}, {td.groupsize}) is not TD{args}")
            _require(designs.verify_td(td))
            k, n = args
            groups = MultipartiteHost(parts=(n,) * k)  # TD(k, n) tiles K_{n,...,n} by K_k
            return OK, _non_edge_frac(groups)
        if kind == "embedded":
            pattern, p = _pattern(args[0]), args[1]
            data = json.loads(self._load(job.key))
            host = MultipartiteHost(parts=tuple(p * a for a in pattern.parts))
            copies = _copies(data)
            if len(copies) != p * p:
                raise Wrong(f"{len(copies)} copies, expected {p * p}")
            _require(oracle.verify_decomposition(
                oracle.multipartite_graph(host), pattern, copies, induced=True
            ))
            return OK, _non_edge_frac(host)
        raise ValueError(f"unknown job kind {kind!r}")

    def _dense(self, data: dict, pattern_text: str, n: int) -> tuple[str, float]:
        pattern = _pattern(pattern_text)
        params = data["params"]
        host = MultipartiteHost(parts=(params["p"],) * params["n_prime"], isolated=params["t"])
        if data["n"] != n or host.order != n or tuple(data["pattern"]) != pattern.parts:
            raise Wrong(f"certificate is for n = {data['n']}, host has {host.order} vertices")
        copies = _copies(data)
        _require(oracle.verify_decomposition(
            oracle.multipartite_graph(host), pattern, copies, induced=True
        ))
        non_edges = n * (n - 1) // 2 - host.edge_count
        if data["bound"]["lhs"] != non_edges or not non_edges < data["bound"]["rhs"]:
            raise Wrong(f"bound {data['bound']} does not match {non_edges} non-edges")
        return (VACUOUS if not copies else OK), _non_edge_frac(host)

    def _cex(self, data: dict, pattern_text: str, n: int) -> tuple[str, float]:
        pattern = _pattern(pattern_text)
        pairs = n * (n - 1) // 2
        edges = [tuple(e) for e in data["witness_edges"]]
        if data["n"] != n or len(edges) != pairs - data["cex"]:
            raise Wrong(f"witness has {len(edges)} edges, cex {data['cex']} implies otherwise")
        graph = oracle.SmallGraph.from_edges(n, edges)
        budget = oracle.SearchBudget(max_nodes=10**8, max_seconds=BUDGET_SECONDS)
        try:
            d = oracle.exact_cover_decompose(graph, pattern, induced=True, budget=budget)
        except (oracle.NoDecomposition, oracle.BudgetExceeded) as exc:
            raise Wrong(f"witness does not decompose: {exc}") from None
        _require(oracle.verify_decomposition(graph, pattern, d.copies, induced=True))
        return OK, data["cex"] / pairs

    @staticmethod
    def _mols(data: dict, order: int, count: int) -> None:
        if data["order"] != order or len(data["squares"]) != count:
            raise Wrong(f"{len(data['squares'])} squares of order {data['order']}")
        grids = [np.array(sq["grid"]) - 1 for sq in data["squares"]]
        full = np.arange(order)
        for i, g in enumerate(grids):
            if g.shape != (order, order) or not (
                (np.sort(g, axis=0) == full[:, None]).all()
                and (np.sort(g, axis=1) == full[None, :]).all()
            ):
                raise Wrong(f"square {i} is not Latin")
        for i in range(len(grids)):
            for j in range(i + 1, len(grids)):
                if np.unique(grids[i] * order + grids[j]).size != order * order:
                    raise Wrong(f"squares {i} and {j} are not orthogonal")

