"""Per-layer metrics: one layer per ``cuelex`` module, derived from traced passes.

``self_s`` metrics cover every span ``spans.TRACED`` records, so together
with ``cli.import_s`` they account for the whole traced wall time of a pass.
A layer a workload does not use reads 0.
"""

from __future__ import annotations

import spans

MB = 1e6
MIB = 1024 * 1024

SPAN_NAMES = [
    f"{module}.{attr.split('.')[-1]}"
    for module, entries in spans.TRACED.items()
    for attr, _ in entries
    if attr != "train_eval"
] + [f"classify.train_eval.{kind}" for kind in ("knn", "gaussian_nb", "logistic_sgd", "mlp")]

# name -> (unit, better)
METRICS = {f"{name}.self_s": ("s", "lower") for name in SPAN_NAMES}
METRICS.update({
    "cli.import_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "embeddings.load_model.calls": ("count", "lower"),
    "embeddings.load_model.mb_per_s": ("MB/s", "higher"),
    "embeddings.load_model.rss_over_file": ("ratio", "lower"),
    "embeddings.top_k.calls": ("count", "lower"),
    "embeddings.top_k.rows_scanned": ("count", "lower"),
    "expansion.expand.pairs": ("count", "higher"),
    "expansion.intersect.kept_ratio": ("ratio", "higher"),
    "expansion.score_candidates.evidence_ratio": ("ratio", "higher"),
    "expansion.pmi.calls": ("count", "lower"),
    "expansion.pmi.ms_per_call": ("ms", "lower"),
    "expansion.tfidf.calls": ("count", "lower"),
    "corpus.load_corpus.calls": ("count", "lower"),
    "corpus.load_corpus.sentences_per_s": ("1/s", "higher"),
    "corpus.load_corpus.rss_growth_mb": ("MiB", "lower"),
    "graph.louvain.levels": ("count", "lower"),
    "graph.nodes": ("count", "higher"),
    "graph.edges": ("count", "higher"),
    "reduce.mds.iterations": ("count", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.stderr_warnings": ("count", "lower"),
    "proc.tracing_overhead_s": ("s", "lower"),
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_traces(traces: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Layer values of one traced pass (one trace per command), plus tree-check problems."""
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    sums: dict[str, float] = {}
    peaks: dict[str, float] = {}
    problems = []
    import_s = 0.0
    for trace in traces:
        import_s += trace["import_s"]
        recorded = [spans.Span(**s) for s in trace["spans"]]
        selfs = spans.self_times(recorded)
        problems += spans.check_tree(recorded, selfs)
        for span, own in zip(recorded, selfs):
            self_s[span.name] += own
            calls[span.name] += 1
            for key, value in span.counts.items():
                name = f"{span.name}.{key}"
                sums[name] = sums.get(name, 0) + value
                peaks[name] = max(peaks.get(name, 0), value)
            if span.name == "embeddings.load_model":
                growth = span.counts["rss_growth"] / span.counts["bytes"]
                peaks["rss_over_file"] = max(peaks.get("rss_over_file", 0), growth)
    out = {f"{name}.self_s": value for name, value in self_s.items()}
    model_bytes = sums.get("embeddings.load_model.bytes", 0)
    out.update({
        "cli.import_s": import_s,
        "embeddings.load_model.calls": calls["embeddings.load_model"],
        "embeddings.load_model.mb_per_s": _ratio(model_bytes / MB, self_s["embeddings.load_model"]),
        # largest max-RSS growth during one load, per byte of its model file
        "embeddings.load_model.rss_over_file": peaks.get("rss_over_file", 0.0),
        "embeddings.top_k.calls": calls["embeddings.top_k"],
        "embeddings.top_k.rows_scanned": sums.get("embeddings.top_k.rows", 0),
        "expansion.expand.pairs": sums.get("expansion.expand.pairs", 0),
        "expansion.intersect.kept_ratio": _ratio(sums.get("expansion.intersect.kept", 0),
                                                 sums.get("expansion.intersect.retrieved", 0)),
        "expansion.score_candidates.evidence_ratio": _ratio(
            sums.get("expansion.score_candidates.evidence", 0), sums.get("expansion.score_candidates.candidates", 0)),
        "expansion.pmi.calls": calls["expansion.pmi"],
        "expansion.pmi.ms_per_call": _ratio(1000 * self_s["expansion.pmi"], calls["expansion.pmi"]),
        "expansion.tfidf.calls": calls["expansion.tfidf"],
        "corpus.load_corpus.calls": calls["corpus.load_corpus"],
        "corpus.load_corpus.sentences_per_s": _ratio(sums.get("corpus.load_corpus.sentences", 0),
                                                     self_s["corpus.load_corpus"]),
        "corpus.load_corpus.rss_growth_mb": peaks.get("corpus.load_corpus.rss_growth", 0) / MIB,
        "graph.louvain.levels": sums.get("graph.louvain.levels", 0),
        "graph.nodes": sums.get("graph.build.nodes", 0),
        "graph.edges": sums.get("graph.build.edges", 0),
        "reduce.mds.iterations": sums.get("reduce.mds.iterations", 0),
    })
    return out, problems
