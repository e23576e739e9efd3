"""Command-line front end.

Subcommands mirror the library: mols, td, blowup, dense, verify, cex.
Artifacts are JSON or plain edge-list text, written to --out when given
and to stdout otherwise; repeated runs with identical inputs produce
byte-identical output.  A JSON artifact is exactly
json.dumps(obj, indent=2, sort_keys=True) plus a newline, written by
_json_text.  Integer flags and the entries of --pattern take ASCII
decimals only (-?[0-9]+), as the file readers do; --budget-seconds takes
ASCII [0-9]+ with an optional .[0-9]+ fraction.

Exit codes: 0 success, 1 usage or malformed input, 2 unsupported or
out-of-range request, 3 no feasible construction or search budget
exhausted, 4 verification failure (including a failed self-check).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import dense as dense_mod
from . import designs, oracle
from .blowup import (
    CopyArray,
    PatternSignature,
    UnsupportedPattern,
    blowup_decompose,
    copies_from_json,
    decomposition_from_json,
)
from .embedded import SearchExhausted
from .oracle import SearchBudget, SmallGraph


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _integer(text: str) -> int:
    """An ASCII decimal integer (-?[0-9]+), the rule the file readers use."""
    try:
        return designs.json_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _seconds(text: str) -> float:
    if not re.fullmatch(r"[0-9]+(\.[0-9]+)?", text) or not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive decimal number, got {text!r}")
    return float(text)


def _pattern(text: str) -> PatternSignature:
    try:
        return PatternSignature.from_text(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _budget(args) -> SearchBudget:
    # Both flags are validated positive, so `or` only fills in unset ones.
    default = SearchBudget()
    return SearchBudget(
        max_nodes=args.budget_nodes or default.max_nodes,
        max_seconds=args.budget_seconds or default.max_seconds,
    )


# Exact element type -> its JSON text, as json.dumps writes it.  bool is
# not int here: True must print as true, never through int.__repr__.
_JOINABLE = {int: int.__repr__, str: encode_basestring_ascii}


def _framed(texts, pad: str, brackets: str = "[]") -> str:
    """A non-empty JSON array (or object) at indent pad, from the texts
    of its elements (or members)."""
    inner = pad + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(texts) + "\n" + pad + brackets[1]


def _json_text(obj, pad: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for obj
    nested at indent pad.  Lists whose elements are all int or all str are
    joined in C instead of going through json's pure-Python indent encoder
    one element at a time.  Int tables are written whole by _table_text: a
    designs.JsonTable, a 2-d int array, a CopyArray (as its copies' entries)."""
    inner = pad + "  "
    if isinstance(obj, CopyArray):
        obj = designs.JsonTable(obj.table, _copy_cells(obj.sizes, obj.codewords))
    elif isinstance(obj, np.ndarray):
        obj = designs.JsonTable(obj, ["%d"] * obj.shape[1])
    if isinstance(obj, designs.JsonTable):
        return _table_text(obj.table, _json_text(obj.cells, inner).replace('"%d"', "%d"), pad)
    if type(obj) is dict and obj and set(map(type, obj)) == {str}:
        members = (
            f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())
        )
        return _framed(members, pad, "{}")
    if type(obj) in (list, tuple) and obj:
        kinds = set(map(type, obj))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind in _JOINABLE:
            return _framed(map(_JOINABLE[kind], obj), pad)
        return _framed((_json_text(v, inner) for v in obj), pad)
    # Scalars, empty containers and dicts with non-str keys: json itself,
    # re-indented (its output has no raw newline inside a string).
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _copy_cells(sizes, codewords: bool) -> dict:
    """The cells of one copy entry, "%d" for each int."""
    entry: dict = {"classes": [["%d"] * a for a in sizes]}
    if codewords:
        entry["codeword"] = dict.fromkeys("bc", ["%d"] * len(sizes))
    return entry


def _table_text(table: np.ndarray, template: str, pad: str) -> str:
    """_framed([template % tuple(row) for row in table], pad), or "[]" for no
    rows; template is one row's text with %d for each int.  Each int and the
    text before it are one lookup in a table keyed on the distinct leads only,
    unless that table would outgrow the data: then rows are filled one by one."""
    if not table.size:  # no rows, or rows without ints
        return _framed([template] * len(table), pad) if len(table) else "[]"
    *leads, tail = template.split("%d")
    joint = [f"{tail},\n{pad}  {leads[0]}", *leads[1:]]  # column 0 after a row
    keys = list(dict.fromkeys([f"[\n{pad}  {leads[0]}", *joint]))  # key 0: the first int
    lo, hi = int(table.min()), int(table.max())
    span = hi - lo + 1
    if len(keys) * span > table.size:
        return _framed([template % tuple(row) for row in table.tolist()], pad)
    lut = [key + x for key in keys for x in map(str, range(lo, hi + 1))]
    ids = table.astype(np.int64) - lo + np.array([keys.index(key) * span for key in joint])
    ids[0, 0] = table[0, 0] - lo
    return "".join(map(lut.__getitem__, ids.ravel().tolist())) + f"{tail}\n{pad}]"


def _emit(args, summary: str, artifact=None, text: str | None = None) -> None:
    """The summary, then the artifact on stdout or written to --out and named."""
    payload = text if text is not None else _json_text(artifact) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(payload)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from None
    print(summary)
    sys.stdout.write(f"wrote {args.out}\n" if args.out else payload)


def cmd_mols(args) -> int:
    family = designs.mols(args.order, args.count)
    _emit(
        args,
        artifact=family.to_json_dict(arrays=True),
        summary=f"{len(family)} mutually orthogonal Latin squares of order {args.order}",
    )
    return 0


def cmd_td(args) -> int:
    td = designs.transversal_design(args.k, args.n)
    violations = designs.verify_td(td)
    if violations:
        print(f"constructed design failed verification: {violations[0]}", file=sys.stderr)
        return 4
    _emit(
        args,
        artifact=td.to_json_dict(arrays=True),
        summary=f"TD({args.k}, {args.n}): {len(td.points)} blocks, verified",
    )
    return 0


def cmd_blowup(args) -> int:
    d = blowup_decompose(args.pattern)
    violations = oracle.verify_decomposition(d.host, d.pattern, d.copies, induced=True)
    if violations:
        print(f"decomposition failed verification: {violations[0]}", file=sys.stderr)
        return 4
    summary = (
        f"K_{{{','.join(str(s) for s in d.host.parts)}}}: "
        f"{len(d.copies)} induced copies, verified"
    )
    if args.format == "edgelist":
        _emit(args, text=oracle.edge_list_text(d.host), summary=summary)
    else:
        _emit(args, artifact=d.to_json_dict(arrays=True), summary=summary)
    return 0


def cmd_dense(args) -> int:
    cert = dense_mod.assemble(args.pattern, args.n, budget=_budget(args))
    params = cert.params
    copies = len(cert.decomposition.copies)
    summary = (
        f"n = {params.n}: n' = {params.n_prime}, p = {params.p}, t = {params.t}; "
        f"{copies} induced copies, {'verified' if copies else 'vacuous'}; "
        f"non-edges {cert.non_edge_count} < bound {cert.bound_rhs}"
    )
    if args.format == "edgelist":
        _emit(args, text=oracle.edge_list_text(cert.decomposition.host), summary=summary)
    else:
        _emit(args, artifact=cert.to_json_dict(arrays=True), summary=summary)
    return 0


_LIST_END = re.compile(r"\n  \]")  # a depth-1 list's end; SRE finds it sooner than str.find


def _read_copies(text: str) -> dict | None:
    """json.loads(text) with the top-level "copies" read as one CopyArray, when
    _json_text wrote them: without its digits the list is the first entry's
    template repeated, and every id a JSON int of at most 17 digits.  The rest
    is read with the sentinel NaN for the list, which must come back as
    "copies", so a duplicate key is turned down.  None for any other text."""
    key = text.find('\n  "copies": [\n    {\n')
    # the first "copies" in the text, and str offsets as byte offsets
    if key < 0 or text.find('"copies"') != key + 3 or not text.isascii():
        return None
    start = key + 14  # the line break before the first entry
    close, first = _LIST_END.search(text, start), text.find("\n    }", start)  # list, first entry
    if close is None or first < 0:
        return None
    end = close.start()
    try:
        entry = json.loads(text[start + 5:first + 6])
        sizes = tuple(map(len, entry["classes"]))
    except (ValueError, KeyError, TypeError, RecursionError):
        return None
    if min(sizes, default=0) == 0:  # copies with no class or an empty one go entry by entry
        return None
    pieces = ("\n    " + _json_text(_copy_cells(sizes, "codeword" in entry), "    ") + ",").split('"%d"')
    slots = np.cumsum([len(piece) for piece in pieces[:-1]], dtype=int)
    ids = oracle._template_ids((text[start:end] + ",").encode(), "".join(pieces).encode(), slots)
    if ids is None:
        return None
    seen: list = []  # the constants json.loads meets, each read as this list
    try:
        data = json.loads(text[:start - 1] + "NaN" + text[end + 4:],
                          parse_constant=lambda c: seen.append(c) or seen)
    except (ValueError, RecursionError):
        return None
    if not (isinstance(data, dict) and len(seen) == 1 and data.get("copies") is seen):
        return None
    data["copies"] = CopyArray(ids, sizes)
    return data


def _load_decomposition_file(path: str):
    try:
        text = Path(path).read_text()
        data = _read_copies(text) or json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read decomposition file {path}: {exc}") from None
    try:
        if "params" in data:  # a dense certificate, always induced
            pattern = PatternSignature(parts=designs.json_ints(data["pattern"]))
            return pattern, copies_from_json(data["copies"]), True
        d = decomposition_from_json(data)
        return d.pattern, d.copies, d.induced
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed decomposition file {path}: {exc}") from None


def cmd_verify(args) -> int:
    try:
        graph = SmallGraph.from_edge_list_text(Path(args.graph).read_text())
    except (OSError, ValueError, MemoryError) as exc:
        # MemoryError: ids so large that the n x n adjacency cannot be allocated
        raise UsageError(f"cannot read graph file {args.graph}: {exc}") from None
    pattern, copies, induced_from_file = _load_decomposition_file(args.decomposition)
    induced = {"auto": induced_from_file, "yes": True, "no": False}[args.induced]
    violations = oracle.verify_decomposition(graph, pattern, copies, induced=induced)
    if violations:
        print(f"verification failed: {violations[0]}")
        return 4
    print(f"ok: {len(copies)} copies cover all {graph.edge_count} edges")
    return 0


def cmd_cex(args) -> int:
    value, witness = oracle.cex_exact(args.n, args.pattern, budget=_budget(args))
    summary = f"cex({args.n}, {args.pattern.parts}) = {value}"
    artifact = {
        "n": args.n,
        "pattern": list(args.pattern.parts),
        "cex": value,
        "witness_edges": [list(e) for e in witness.edges()],
    }
    _emit(args, artifact=artifact, summary=summary)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="induced-decomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mols", help="construct mutually orthogonal Latin squares")
    p.add_argument("--order", type=_positive, required=True)
    p.add_argument("--count", type=_integer, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mols)

    p = sub.add_parser("td", help="construct and verify a transversal design")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_td)

    p = sub.add_parser("blowup", help="decompose the blown-up pattern")
    p.add_argument("--pattern", type=_pattern, required=True, metavar="A1,A2,...")
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("dense", help="assemble a dense decomposable graph")
    p.add_argument("--pattern", type=_pattern, required=True, metavar="A1,A2,...")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--format", choices=("json", "edgelist"), default="json")
    p.add_argument("--budget-nodes", type=_positive)
    p.add_argument("--budget-seconds", type=_seconds)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dense)

    p = sub.add_parser("verify", help="verify a decomposition against a graph")
    p.add_argument("--graph", required=True, help="edge-list text file")
    p.add_argument("--decomposition", required=True, help="decomposition or certificate JSON")
    p.add_argument("--induced", choices=("auto", "yes", "no"), default="auto")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cex", help="exact minimum deletions from K_n (small n)")
    p.add_argument("--pattern", type=_pattern, required=True, metavar="A1,A2,...")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--budget-nodes", type=_positive)
    p.add_argument("--budget-seconds", type=_seconds)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cex)

    return parser


# Built on the first main call and reused: parsing leaves no state behind in it.
_parser: _Parser | None = None


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        designs.NotPrimePower,
        designs.UnsupportedOrder,
        designs.CountExceedsBound,
        designs.InsufficientSquares,
        UnsupportedPattern,
        SearchExhausted,
        oracle.CapExceeded,
        MemoryError,  # an order too large to allocate
    ) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except (
        dense_mod.NoFeasibleParameters,
        oracle.NoDecomposition,
        oracle.BudgetExceeded,
    ) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except dense_mod.InternalInvariant as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
