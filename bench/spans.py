"""Spans recorded around the program's public functions, from outside it.

``install`` replaces each listed function with a wrapper that records a span
(name, start, end, parent, counts) in a ``Recorder``.  Nothing in the
program is edited: the wrappers are set on the module (and on every other
``cuelex`` module that imported the same function object), so internal
calls through module globals are traced as well.  Per-token helpers such as
``corpus.match`` are deliberately not wrapped; a wrapper costs about a
microsecond, which would dwarf them.

Worker threads (``expand --threads N`` runs ``top_k`` in a pool) have no
open span of their own, so their spans attach to the span open on the
recording thread at that moment, normally ``expansion.expand``.  A span's
self time is its duration minus the union of its children's intervals, so
overlapping children are not subtracted twice.
"""

from __future__ import annotations

import functools
import resource
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a worker thread: the owner's innermost open span started this work
            owner = self._owner_stack[-1:]
            parent = owner[0] if owner else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, perf_counter(), parent=parent))
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack().pop()


# (module, attribute, counter).  A counter gets (counts, args, kwargs, result)
# after the call and records work counts on the span.  "Class.method" wraps a
# method.
def _load_model(c, args, kw, r):
    c["bytes"] = Path(args[0]).stat().st_size


def _top_k(c, args, kw, r):
    c["rows"] = len(args[0])


def _expand(c, args, kw, r):
    c["pairs"] = len(r.pairs)


def _intersect(c, args, kw, r):
    c["kept"] = len(r)
    pairs = kw.get("pairs", args[3] if len(args) > 3 else None)
    c["retrieved"] = len({p.candidate for p in pairs}) if pairs is not None else len(args[0] | args[1])


def _score(c, args, kw, r):
    c["candidates"] = len(r)
    c["evidence"] = sum(1 for x in r.candidates if not x.no_evidence)


def _load_corpus(c, args, kw, r):
    c["sentences"] = r.n_sentences


def _build(c, args, kw, r):
    c["nodes"], c["edges"] = r.n_nodes, r.n_edges


def _louvain(c, args, kw, r):
    c["levels"] = len(r.modularity_trace)


def _mds(c, args, kw, r):
    c["iterations"] = r.iterations


TRACED = {
    "embeddings": [("load_model", _load_model), ("EmbeddingModel.top_k", _top_k)],
    "expansion": [("expand", _expand), ("intersect", _intersect), ("score_candidates", _score),
                  ("pmi", None), ("tfidf", None), ("write_pairs", None), ("read_pairs", None),
                  ("write_candidate_set", None), ("load_seed_lexicon", None)],
    "corpus": [("load_corpus", _load_corpus), ("split_corpus", None), ("ratio_table", None),
               ("find_sentences", None), ("collection_from_corpus", None),
               ("relative_scores", None), ("load_collections", None), ("uncertainty_rate", None)],
    "graph": [("load_graph_tsv", None), ("build", _build), ("louvain", _louvain),
              ("modularity", None), ("pagerank", None), ("composition", None),
              ("export_node_tsv", None), ("export_edge_tsv", None), ("export_gexf", None)],
    "classify": [("load_annotations", None), ("agreement", None), ("sample_unrelated", None),
                 ("build_dataset", None), ("kfold", None), ("train_eval", None)],
    "reduce": [("load_score_matrix", None), ("pca", None), ("mds", _mds)],
    "cli": [("main", None)],
}


def _span_name(module: str, attr: str, args) -> str:
    name = f"{module}.{attr.split('.')[-1]}"
    if name == "classify.train_eval":  # one layer per classifier kind
        name += "." + args[1].kind
    return name


def _wrap(recorder: Recorder, module: str, attr: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rss = _maxrss_bytes()
        idx = recorder.begin(_span_name(module, attr, args))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(idx)
        counts = recorder.spans[idx].counts
        counts["rss_growth"] = _maxrss_bytes() - rss
        if counter is not None:
            counter(counts, args, kwargs, result)
        return result

    return traced


def install(recorder: Recorder) -> None:
    """Wrap every function in ``TRACED``; the ``cuelex`` modules must be imported."""
    modules = {name: sys.modules[f"cuelex.{name}"] for name in TRACED}
    for module, entries in TRACED.items():
        for attr, counter in entries:
            owner = modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner, attr_name = getattr(owner, cls_name), meth
            else:
                attr_name = attr
            original = getattr(owner, attr_name)
            wrapped = _wrap(recorder, module, attr, original, counter)
            setattr(owner, attr_name, wrapped)
            if owner is modules[module]:  # rebind copies made by "from .x import f"
                for other in modules.values():
                    if getattr(other, attr_name, None) is original:
                        setattr(other, attr_name, wrapped)


# --- analysis -----------------------------------------------------------------


def union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of the children's intervals, per span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - union_length(children.get(i, ())) for i, s in enumerate(spans)]


def check_tree(spans: list[Span], selfs: list[float], tol: float = 1e-6) -> list[str]:
    """The self times must add up to the roots' wall time.

    Checked two independent ways: every child lies inside its parent, and the
    sum of self times equals the integral over time of the number of spans
    that are innermost at that instant, which is the roots' duration plus the
    time worker threads ran side by side.  A sweep over span boundaries
    computes that integral without using ``self_times``.
    """
    problems = []
    for i, s in enumerate(spans):
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start - tol or s.end > p.end + tol:
                problems.append(f"span {i} {s.name} lies outside its parent {p.name}")
    times = sorted({t for s in spans for t in (s.start, s.end)})
    innermost_time = 0.0
    for a, b in zip(times, times[1:]):
        mid = (a + b) / 2
        active = [i for i, s in enumerate(spans) if s.start <= mid < s.end]
        has_child = {spans[i].parent for i in active}
        innermost_time += (b - a) * sum(1 for i in active if i not in has_child)
    if abs(sum(selfs) - innermost_time) > tol * max(1, len(spans)):
        problems.append(f"self times sum to {sum(selfs):.6f} s, innermost-span time is {innermost_time:.6f} s")
    return problems
