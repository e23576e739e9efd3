"""Spans around calls into the package's public functions, and the
per-layer metrics derived from them.

Spans live in the benchmark, not in the package: install() rebinds each
listed function at every module attribute that holds it (the defining
module and every module that imported it by name), so a call made
through any of those names is recorded.  A listed name that no longer
exists is skipped and reported, so a later refactor loses a span but the
run still completes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import stats

# Span name -> (module, attribute path).  The span name's first
# component is the layer.
TARGETS = {
    "gf.GaloisField": ("gf", "GaloisField.__init__"),
    "designs.mols": ("designs", "mols"),
    "designs.mols_prime_power": ("designs", "mols_prime_power"),
    "designs.mols_product": ("designs", "mols_product"),
    "designs.cyclic_latin": ("designs", "cyclic_latin"),
    "designs.td_from_mols": ("designs", "td_from_mols"),
    "designs.verify_td": ("designs", "verify_td"),
    "blowup.make_context": ("blowup", "make_context"),
    "blowup.blowup_decompose": ("blowup", "blowup_decompose"),
    "blowup.decode_codeword": ("blowup", "decode_codeword"),
    "blowup.edge_to_copy": ("blowup", "edge_to_copy"),
    "oracle.multipartite_graph": ("oracle", "multipartite_graph"),
    "oracle.complete_graph": ("oracle", "complete_graph"),
    "oracle.SmallGraph.from_edges": ("oracle", "SmallGraph.from_edges"),
    "oracle.SmallGraph.from_edge_list_text": ("oracle", "SmallGraph.from_edge_list_text"),
    "oracle.verify_decomposition": ("oracle", "verify_decomposition"),
    "oracle.enumerate_copies": ("oracle", "enumerate_copies"),
    "oracle.exact_cover_decompose": ("oracle", "exact_cover_decompose"),
    "oracle.canonical_form": ("oracle", "canonical_form"),
    "oracle.cex_exact": ("oracle", "cex_exact"),
    "embedded.embedded_decompose": ("embedded", "embedded_decompose"),
    "embedded.star_parameters": ("embedded", "star_parameters"),
    "embedded.verify_embedded": ("embedded", "verify_embedded"),
    "dense.choose_parameters": ("dense", "choose_parameters"),
    "dense.assemble": ("dense", "assemble"),
    "cli.main": ("cli", "main"),
}
GRAPH_SPANS = (
    "oracle.multipartite_graph",
    "oracle.complete_graph",
    "oracle.SmallGraph.from_edges",
    "oracle.SmallGraph.from_edge_list_text",
)
# Per-layer time metric -> spans whose self time it sums.
SELF_TIME = {
    "gf.build_s": ("gf.GaloisField",),
    "designs.mols_s": (
        "designs.mols", "designs.mols_prime_power", "designs.mols_product", "designs.cyclic_latin",
    ),
    "designs.td_s": ("designs.td_from_mols",),
    "designs.verify_td_s": ("designs.verify_td",),
    "blowup.context_s": ("blowup.make_context",),
    "blowup.decode_s": ("blowup.blowup_decompose", "blowup.decode_codeword"),
    "blowup.lookup_s": ("blowup.edge_to_copy",),
    "oracle.graph_s": GRAPH_SPANS,
    "oracle.verify_s": ("oracle.verify_decomposition",),
    "oracle.enumerate_s": ("oracle.enumerate_copies",),
    "oracle.search_s": ("oracle.exact_cover_decompose",),
    "oracle.canonical_s": ("oracle.canonical_form",),
    "oracle.cex_s": ("oracle.cex_exact",),
    "embedded.decompose_s": ("embedded.embedded_decompose",),
    "embedded.star_s": ("embedded.star_parameters",),
    "embedded.verify_s": ("embedded.verify_embedded",),
    "dense.choose_s": ("dense.choose_parameters",),
    "dense.transport_s": ("dense.assemble",),
    "cli.emit_s": ("cli.main",),
}
# Per-layer count metric -> span counted once per call.
CALLS = {
    "gf.fields_built": "gf.GaloisField",
    "blowup.copies_decoded": "blowup.decode_codeword",
    "blowup.lookups": "blowup.edge_to_copy",
    "oracle.searches": "oracle.exact_cover_decompose",
    "oracle.canonical_calls": "oracle.canonical_form",
    "embedded.builds": "embedded.embedded_decompose",
}


def _squares(tracer, result, exc, args, parent):
    if exc is None:
        tracer.count["designs.squares_built"] += len(result) if hasattr(result, "squares") else 1


def _graph(tracer, result, exc, args, parent):
    # Nested graph constructors (from_edge_list_text calls from_edges) count once.
    if exc is None and tracer.parent_name(parent) not in GRAPH_SPANS:
        tracer.count["oracle.graph_edges"] += result.edge_count
        if tracer.parent_name(parent) == "oracle.cex_exact":
            tracer.count["oracle.cex_graphs"] += 1


def _verify(tracer, result, exc, args, parent):
    tracer.count["oracle.verify_edges"] += args[0].edge_count


def _enumerate(tracer, result, exc, args, parent):
    if exc is None:
        tracer.count["oracle.candidates"] += len(result)


def _search(tracer, result, exc, args, parent):
    if exc is None or type(exc).__name__ == "NoDecomposition":
        tracer.count["oracle.search_useful"] += 1


def _assemble(tracer, result, exc, args, parent):
    if exc is None:
        tracer.count["dense.certs"] += 1
        tracer.count["dense.vacuous_certs"] += not result.decomposition.copies


HOOKS = {
    "designs.mols_prime_power": _squares,
    "designs.mols_product": _squares,
    "designs.cyclic_latin": _squares,
    "oracle.multipartite_graph": _graph,
    "oracle.complete_graph": _graph,
    "oracle.SmallGraph.from_edges": _graph,
    "oracle.SmallGraph.from_edge_list_text": _graph,
    "oracle.verify_decomposition": _verify,
    "oracle.enumerate_copies": _enumerate,
    "oracle.exact_cover_decompose": _search,
    "dense.assemble": _assemble,
}
COUNTERS = (
    "designs.squares_built", "oracle.graph_edges", "oracle.cex_graphs", "oracle.verify_edges",
    "oracle.candidates", "oracle.search_useful", "dense.certs", "dense.vacuous_certs",
    "cli.artifact_bytes",
)


class Tracer:
    """In-memory span store: name, start, end, parent span and job id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = dict.fromkeys(COUNTERS, 0)
        self.current_job = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def parent_name(self, index: int) -> str | None:
        return self.names[self.name[index]] if index >= 0 else None

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1]
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index)
                if hook:
                    hook(tracer, None, exc, args, parent)
                raise
            tracer._close(index)
            if hook:
                hook(tracer, result, None, args, parent)
            return result

        return traced

    def install(self) -> None:
        for module_name in {module for module, _ in TARGETS.values()}:
            with contextlib.suppress(ImportError):
                importlib.import_module(f"induced_decomp.{module_name}")
        package = {
            name: module for name, module in sys.modules.items()
            if name == "induced_decomp" or name.startswith("induced_decomp.")
        }
        for span_name, (module_name, path) in TARGETS.items():
            owner = package.get(f"induced_decomp.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(span_name)
                continue
            if outer:  # a method: rebind on the class, keeping classmethods classmethods
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__))
                else:
                    wrapped = self._wrap(span_name, raw)
                self._rebind(owner, attr, raw, wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(span_name, fn)
            for module in package.values():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, key, fn, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _self_time_by_name(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        by_name: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name_id, seconds in zip(self.name, stats.self_times(durations, self.parent)):
            name = self.names[name_id]
            by_name[name] = by_name.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + 1
        return by_name, calls

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts, counters and ratios."""
        by_name, calls = self._self_time_by_name()
        out: dict[str, float] = {
            metric: sum(by_name.get(s, 0.0) for s in spans) for metric, spans in SELF_TIME.items()
        }
        out.update({metric: calls.get(span, 0) for metric, span in CALLS.items()})
        for key in ("designs.squares_built", "oracle.graph_edges", "oracle.cex_graphs",
                    "oracle.verify_edges", "oracle.candidates", "dense.vacuous_certs"):
            out[key] = self.count[key]
        searches = calls.get("oracle.exact_cover_decompose", 0)
        out["oracle.search_useful_ratio"] = (
            self.count["oracle.search_useful"] / searches if searches else 0.0
        )
        out["dense.searches_per_cert"] = (
            self._searches_under("dense.assemble") / self.count["dense.certs"]
            if self.count["dense.certs"] else 0.0
        )
        out["cli.artifact_mb"] = self.count["cli.artifact_bytes"] / 1e6
        out["trace.spans"] = len(self.start)
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        out: dict[str, float] = {}
        for name, seconds in self._self_time_by_name()[0].items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def _searches_under(self, ancestor: str) -> int:
        """Search spans with the given span among their ancestors."""
        inside = []
        found = 0
        for i, name_id in enumerate(self.name):
            name = self.names[name_id]
            parent = self.parent[i]
            inside.append(name == ancestor or (parent >= 0 and inside[parent]))
            found += inside[i] and name == "oracle.exact_cover_decompose"
        return found

    def write(self, path: Path) -> None:
        """Dump every span (columnar) for offline inspection."""
        path.write_text(json.dumps({
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }))
