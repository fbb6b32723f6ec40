"""Command-line orchestration: one subcommand per pipeline operation.

Every subcommand reads files, calls one module operation, and writes TSV and
JSON artifacts whose headers record the tool version, a digest of the
effective configuration, and the rng seed.  With --reproducible the
timestamp line is suppressed and reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

# Every command is one short process, so OpenBLAS runs in one thread unless the
# user sets OPENBLAS_NUM_THREADS: a second thread adds tens of milliseconds to
# the numpy import, and a GEMM split across two threads stalls for as long as
# the second core is busy elsewhere.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS default above)

from . import __version__, classify, corpus as corpus_mod, expansion, graph as graph_mod, tables
from . import reduce as reduce_mod
from .errors import CuelexError, InputError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors (exit 1)
        raise InputError(message)


def main(argv=None) -> int:
    try:
        return _run(argv if argv is not None else sys.argv[1:])
    except CuelexError as exc:
        print(f"cuelex: error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("cuelex: internal failure", file=sys.stderr)
        traceback.print_exc()
        return 2


def _run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise InputError("missing subcommand (see --help)")
    config = _load_config(args.config)
    ctx = _Context(args, config)
    return _DISPATCH[args.command](ctx)


class _Context:
    """Resolved configuration: CLI flags override config-file values."""

    def __init__(self, args, config):
        self.args = args
        self.config = config
        self.resolved: dict = {"command": args.command}

    def get(self, key, default=None):
        value = getattr(self.args, key, None)
        if value is None:
            value = self.config.get(key, default)
        self.resolved[key] = _jsonable(value)
        return value

    def get_as(self, key, default, cast):
        """The value cast to a number; ``default`` only when neither flag nor config sets it.

        Zero is a value like any other: the operation that receives it decides
        whether it is in range.
        """
        value = self.get(key, default)
        if value is None:
            return default
        try:
            return cast(value)
        except (TypeError, ValueError):
            raise InputError(f"{key}: expected {cast.__name__}, got {value!r}") from None

    def get_list(self, key) -> list:
        """A repeatable flag's values; a config file may give one string instead of a list."""
        value = self.get(key) or []
        return [value] if isinstance(value, str) else value

    @property
    def rng_seed(self) -> int:
        seed = self.get_as("rng_seed", 0, int)
        if seed < 0:
            raise InputError(f"rng_seed must be non-negative, got {seed}")
        return seed

    @property
    def reproducible(self) -> bool:
        return bool(self.get("reproducible", False))

    @property
    def threads(self) -> int:
        threads = self.get_as("threads", 1, int)
        if threads < 1:
            raise InputError(f"threads must be at least 1, got {threads}")
        return threads

    def out_dir(self) -> Path:
        out = self.get("out")
        if not out:
            raise InputError("--out directory is required for this subcommand")
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        return path

    def digest(self) -> str:
        # the output directory is not an input: identical runs into different
        # directories must produce byte-identical artifacts
        resolved = {k: v for k, v in self.resolved.items() if k != "out"}
        blob = json.dumps(resolved, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def header_lines(self) -> list[str]:
        """``meta()`` as the metadata lines above a TSV header."""
        meta = self.meta()
        lines = [
            f"cuelex {meta['version']}",
            f"config: {meta['config_digest']}  rng_seed: {meta['rng_seed']}",
        ]
        if "generated" in meta:
            lines.append(f"generated: {meta['generated']}")
        return lines

    def meta(self) -> dict:
        meta = {
            "version": __version__,
            "config_digest": self.digest(),
            "rng_seed": self.rng_seed,
        }
        if not self.reproducible:
            meta["generated"] = datetime.now(timezone.utc).isoformat()
        return meta


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _load_config(path):
    if not path:
        return {}
    config = tables.read_json(path, "config")
    if not isinstance(config, dict):
        raise InputError(f"{path}: config must be a JSON object")
    return config


def _build_parser() -> _Parser:
    parser = _Parser(prog="cuelex", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cuelex {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output directory")
        p.add_argument("--rng-seed", dest="rng_seed", type=int, help="seed for all randomness")
        p.add_argument("--threads", type=_positive_int, help="accepted for compatibility; no effect")
        p.add_argument(
            "--reproducible", action="store_const", const=True,
            help="omit timestamps so reruns are byte-identical",
        )

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        common(p)
        return p

    p = add("expand", "retrieve top-k neighbors of every seed from each model")
    _model_flags(p)
    p.add_argument("--seeds", help="seed lexicon file (default: bundled list)")
    p.add_argument("--k", type=int, help="neighbors per seed (default 50)")
    p.add_argument("--no-fold-case", dest="no_fold_case", action="store_const", const=True)

    p = add("intersect", "keep candidates retrieved by every pairs file")
    p.add_argument("--pairs", action="append", help="pairs TSV (repeat, two or more)")
    p.add_argument("--seeds", help="seed lexicon file (default: bundled list)")

    p = add("score", "attach PMI and TF-IDF metadata to candidates")
    p.add_argument("--candidates", help="candidate JSON file")
    p.add_argument("--corpus", help="corpus (JSON-lines file or directory of .txt)")
    p.add_argument("--seeds", help="seed lexicon file (default: bundled list)")

    p = add("split", "partition corpus sentences into S+ / S- by indicators")
    p.add_argument("--corpus", help="corpus path")
    p.add_argument("--indicators", help="comma-separated patterns or @file")
    p.add_argument("--balance", action="store_const", const=True)

    p = add("ratios", "per-word S+ vs S- frequency table")
    p.add_argument("--corpus", help="corpus path")
    p.add_argument("--indicators", help="comma-separated patterns or @file")
    p.add_argument("--words", help="words to tabulate (comma-separated or @file)")

    p = add("relscore", "document-hit scores relative to a baseline word")
    p.add_argument("--collection", help="corpus path treated as one collection")
    p.add_argument("--group", help="collection name (default: path stem)")
    p.add_argument("--words", help="words to score (comma-separated or @file)")
    p.add_argument("--baseline", help='baseline word (default "knowledge")')

    p = add("rates", "per-group fraction of items matching the query")
    p.add_argument("--groups", help="JSON manifest mapping group id to corpus path")
    p.add_argument("--query", help="query patterns (default: consensus-failure five)")

    p = add("find", "retrieve sentences containing cue words")
    p.add_argument("--corpus", help="corpus path")
    p.add_argument("--cues", help="cue patterns (comma-separated or @file)")
    p.add_argument("--limit", type=int, help="max sentences per cue (default 10)")

    p = add("graph", "build the cue similarity network from pairs files")
    p.add_argument("--pairs", action="append", help="pairs TSV (repeatable)")
    p.add_argument("--seeds", help="seed lexicon file (default: bundled list)")
    p.add_argument("--statuses", help="annotations CSV used to mark accepted/rejected")

    p = add("cluster", "Louvain-cluster a graph read from node/edge TSVs")
    p.add_argument("--nodes", help="node TSV")
    p.add_argument("--edges", help="edge TSV")
    p.add_argument("--resolution", type=float, help="modularity resolution (default 1.0)")

    p = add("rank", "PageRank scores for a graph read from node/edge TSVs")
    p.add_argument("--nodes", help="node TSV")
    p.add_argument("--edges", help="edge TSV")
    p.add_argument("--damping", type=float, help="damping factor (default 0.85)")

    p = add("export", "write GEXF from node/edge TSVs")
    p.add_argument("--nodes", help="node TSV")
    p.add_argument("--edges", help="edge TSV")

    p = add("agree", "two-judge agreement statistics from an annotations CSV")
    p.add_argument("--annotations", help="CSV with header word,judge1,judge2")

    p = add("dataset", "build a labeled training set from annotations and models")
    _model_flags(p)
    p.add_argument("--annotations", help="CSV with header word,judge1,judge2")
    p.add_argument("--seeds", help="seed lexicon file (default: bundled list)")
    p.add_argument("--include-seeds", dest="include_seeds", action="store_const", const=True)
    p.add_argument("--n-unrelated", dest="n_unrelated", type=int, help="default 100")
    p.add_argument("--max-sim", dest="max_sim", type=float, help="default 0.2")

    p = add("train", "cross-validate classifiers on a built dataset")
    p.add_argument("--dataset", help="dataset TSV written by the dataset subcommand")
    p.add_argument("--classifiers", help='e.g. "knn:k=3,gaussian_nb,logistic_sgd,mlp"')
    p.add_argument("--folds", type=int, help="default 10")

    p = add("pca", "principal components of a word-by-collection score matrix")
    p.add_argument("--matrix", help="score matrix TSV")
    p.add_argument("--components", type=int, help="default 7")
    p.add_argument("--no-standardize", dest="no_standardize", action="store_const", const=True)
    p.add_argument("--top", type=int, help="words per component in the report (default 10)")

    p = add("mds", "metric MDS of the collections in a score matrix")
    p.add_argument("--matrix", help="score matrix TSV")
    p.add_argument("--p", type=float, help="Minkowski exponent (default 2)")
    p.add_argument("--dims", type=int, help="default 2")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="default 500")

    p = add("pipeline", "expand -> intersect -> score, emitting the review file")
    _model_flags(p)
    p.add_argument("--seeds", help="seed lexicon file (default: bundled list)")
    p.add_argument("--k", type=int, help="neighbors per seed (default 50)")
    p.add_argument("--no-fold-case", dest="no_fold_case", action="store_const", const=True)
    p.add_argument("--corpus", help="optional scoring corpus")

    return parser


def _model_flags(p):
    p.add_argument(
        "--model", action="append",
        help='embedding model as "name=path" (repeatable)',
    )
    p.add_argument(
        "--model-format", dest="model_format", action="append",
        help='"binary", "text", or "name=format" per model (default binary)',
    )


# ---------------------------------------------------------------------------
# shared input helpers


def _load_models(ctx) -> list:
    from .embeddings import load_model

    specs = ctx.get_list("model")
    if not specs:
        raise InputError("at least one --model name=path is required")
    default_format = "binary"
    per_name: dict[str, str] = {}
    for f in ctx.get_list("model_format"):
        if "=" in f:
            name, fmt = f.split("=", 1)
            per_name[name] = fmt
        else:
            default_format = f
    models = []
    for spec in specs:
        if "=" not in spec:
            raise InputError(f'--model must look like "name=path", got {spec!r}')
        name, path = spec.split("=", 1)
        models.append(load_model(path, per_name.get(name, default_format), name=name))
    return models


def _load_lexicon(ctx):
    path = ctx.get("seeds")
    if path:
        return expansion.load_seed_lexicon(path)
    return expansion.default_seed_lexicon()


def _patterns_arg(value, what: str) -> list[str]:
    if not value:
        raise InputError(f"missing {what}")
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    value = str(value)
    if value.startswith("@"):
        path = Path(value[1:])
        if not path.is_file():
            raise InputError(f"{what} file not found: {path}")
        out = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = expansion.COMMENT.sub("", line).strip()
            if line:
                out.append(line)
        if not out:
            raise InputError(f"{what} file is empty: {path}")
        return out
    out = [w.strip() for w in value.split(",") if w.strip()]
    if not out:
        raise InputError(f"empty {what}")
    return out


def _require(ctx, key, what):
    value = ctx.get(key)
    if not value:
        raise InputError(f"--{key.replace('_', '-')} is required: {what}")
    return value


def _load(ctx, key="corpus"):
    return corpus_mod.load_corpus(_require(ctx, key, "corpus path"))


# ---------------------------------------------------------------------------
# output helpers


def _write_tsv(ctx, name, header, rows) -> None:
    tables.write_tsv(ctx.out_dir() / name, header, rows, ctx.header_lines())


def _write_json(ctx, name, payload: dict) -> None:
    tables.write_json(ctx.out_dir() / name, {"meta": ctx.meta(), **payload})


def _emit(ctx, stem, columns, rows, decimals=6, **extra) -> None:
    """``stem.tsv`` and its JSON twin ``stem.json`` from the same row dicts."""
    cells = ([tables.cell(row[c], decimals) for c in columns] for row in rows)
    _write_tsv(ctx, f"{stem}.tsv", columns, cells)
    json_rows = [{c: tables.json_value(row[c]) for c in columns} for row in rows]
    _write_json(ctx, f"{stem}.json", {"rows": json_rows, **extra})


# ---------------------------------------------------------------------------
# subcommands


def _expand_each(ctx, models, lexicon):
    """Yield (model, expansion result) per model after writing its pairs and skipped forms."""
    k = ctx.get_as("k", 50, int)
    fold = not bool(ctx.get("no_fold_case", False))
    out = ctx.out_dir()
    _ = ctx.threads  # validated and in the config digest, though search runs in one thread
    for model in models:
        result = expansion.expand(model, lexicon, k=k, fold_case=fold)
        expansion.write_pairs(out / f"pairs_{model.name}.tsv", result.pairs, ctx.header_lines())
        _write_tsv(ctx, f"skipped_{model.name}.tsv", ("seed", "model_form"), result.skipped)
        yield model, result


def _common_candidates(pair_lists, lexicon):
    """Candidates retrieved by every pair list, with provenance from all of them."""
    common = set.intersection(*(expansion.distinct_candidates(pairs) for pairs in pair_lists))
    all_pairs = [p for pairs in pair_lists for p in pairs]
    return expansion.intersect(common, common, lexicon, pairs=all_pairs)


def _cmd_expand(ctx) -> int:
    models = _load_models(ctx)
    for model, result in _expand_each(ctx, models, _load_lexicon(ctx)):
        print(f"{model.name}: {len(result.pairs)} pairs, {len(result.skipped)} seed forms skipped")
    return 0


def _cmd_intersect(ctx) -> int:
    paths = ctx.get_list("pairs")
    if len(paths) < 2:
        raise InputError("intersect needs at least two --pairs files")
    lexicon = _load_lexicon(ctx)
    cset = _common_candidates([expansion.read_pairs(path) for path in paths], lexicon)
    _write_candidates(ctx, cset)
    print(f"{len(cset)} candidates common to {len(paths)} models")
    return 0


def _write_candidates(ctx, cset) -> None:
    expansion.write_candidate_set(ctx.out_dir() / "candidates.json", cset, meta=ctx.meta())
    rows = (
        (
            c.word,
            ";".join(f"{name}:{prov.similarity:.6f}" for name, prov in sorted(c.models.items())),
            ";".join(sorted({s for prov in c.models.values() for s in prov.seeds})),
            tables.cell(c.pmi),
            tables.cell(c.tfidf),
            c.status,
            int(c.no_evidence),
        )
        for c in cset.candidates
    )
    columns = ("word", "model_similarities", "seeds", "pmi", "tfidf", "status", "no_evidence")
    _write_tsv(ctx, "candidates.tsv", columns, rows)


def _cmd_score(ctx) -> int:
    cset = expansion.read_candidate_set(_require(ctx, "candidates", "candidate JSON"))
    corpus = _load(ctx)
    lexicon = _load_lexicon(ctx)
    scored = expansion.score_candidates(cset, corpus, lexicon)
    _write_candidates(ctx, scored)
    n_scored = sum(1 for c in scored.candidates if not c.no_evidence)
    print(f"scored {n_scored}/{len(scored)} candidates against the corpus")
    return 0


def _split_from_ctx(ctx, corpus):
    indicators = _patterns_arg(
        ctx.get("indicators") or ",".join(corpus_mod.DEFAULT_CONSENSUS_QUERY), "indicators"
    )
    return corpus_mod.split_corpus(
        corpus, indicators, balance=bool(ctx.get("balance", False)), rng_seed=ctx.rng_seed
    )


def _cmd_split(ctx) -> int:
    corpus = _load(ctx)
    split = _split_from_ctx(ctx, corpus)
    for name, sentences in (("s_plus", split.s_plus), ("s_minus", split.s_minus)):
        rows = ((s.doc_id, s.index, s.text) for s in sentences)
        _write_tsv(ctx, f"{name}.tsv", ("doc_id", "index", "sentence"), rows)
    _write_json(
        ctx,
        "split_summary.json",
        {
            "n_plus": len(split.s_plus),
            "n_minus": len(split.s_minus),
            "capped": split.capped,
            "indicators": [p.surface for p in split.indicators],
        },
    )
    print(f"S+ {len(split.s_plus)} sentences, S- {len(split.s_minus)} sentences")
    return 0


def _cmd_ratios(ctx) -> int:
    corpus = _load(ctx)
    split = _split_from_ctx(ctx, corpus)
    words = _patterns_arg(ctx.get("words"), "words")
    rows = [asdict(r) for r in corpus_mod.ratio_table(words, split)]
    columns = ("word", "n_plus", "pct_plus", "n_minus", "pct_minus", "ratio")
    _emit(ctx, "ratios", columns, rows, 3)
    return 0


def _cmd_relscore(ctx) -> int:
    path = _require(ctx, "collection", "corpus path")
    group = ctx.get("group") or Path(path).stem
    collection = corpus_mod.collection_from_corpus(group, corpus_mod.load_corpus(path))
    words = _patterns_arg(ctx.get("words"), "words")
    baseline = ctx.get("baseline") or "knowledge"
    scores = corpus_mod.relative_scores(collection, words, baseline)
    rows = ((w, tables.cell(s, 4)) for w, s in scores.items())
    _write_tsv(ctx, "relscore.tsv", ("word", "score"), rows)
    _write_json(ctx, "relscore.json", {"group": group, "baseline": baseline, "scores": scores})
    return 0


def _cmd_rates(ctx) -> int:
    groups = corpus_mod.load_collections(_require(ctx, "groups", "group manifest"))
    query = _patterns_arg(
        ctx.get("query") or ",".join(corpus_mod.DEFAULT_CONSENSUS_QUERY), "query"
    )
    rows = corpus_mod.uncertainty_rate(groups, query)
    columns = ("group", "matched", "total", "rate")
    _emit(ctx, "rates", columns, [asdict(r) for r in rows], query=query)
    for r in rows:
        print(f"{r.group}\t{r.matched}/{r.total}\t{100.0 * r.rate:.1f}%")
    return 0


def _cmd_find(ctx) -> int:
    corpus = _load(ctx)
    cues = _patterns_arg(ctx.get("cues"), "cues")
    limit = ctx.get_as("limit", 10, int)
    matches = corpus_mod.find_sentences(corpus, cues, limit)
    rows = [
        {"doc_id": m.doc_id, "index": m.index, "matched": m.matched, "sentence": m.text}
        for m in matches
    ]
    _emit(ctx, "sentences", ("doc_id", "index", "matched", "sentence"), rows)
    print(f"{len(matches)} sentences matched")
    return 0


def _statuses_from_annotations(path) -> dict[str, str]:
    statuses = {}
    for a in classify.load_annotations(path):
        if a.judge1 == "pos" and a.judge2 == "pos":
            statuses[a.word.lower()] = "accepted"
        elif a.judge1 == "neg" and a.judge2 == "neg":
            statuses[a.word.lower()] = "rejected"
        else:
            statuses[a.word.lower()] = "unrated"
    return statuses


def _cmd_graph(ctx) -> int:
    paths = ctx.get_list("pairs")
    if not paths:
        raise InputError("graph needs at least one --pairs file")
    pairs = [p for path in paths for p in expansion.read_pairs(path)]
    lexicon = _load_lexicon(ctx)
    statuses = {}
    ann_path = ctx.get("statuses")
    if ann_path:
        statuses = _statuses_from_annotations(ann_path)
    g = graph_mod.build(pairs, lexicon, statuses)
    out = ctx.out_dir()
    graph_mod.export_node_tsv(out / "nodes.tsv", g, header_lines=ctx.header_lines())
    graph_mod.export_edge_tsv(out / "edges.tsv", g, header_lines=ctx.header_lines())
    print(f"graph: {g.n_nodes} nodes, {g.n_edges} edges")
    return 0


def _load_graph(ctx):
    nodes = _require(ctx, "nodes", "node TSV")
    edges = _require(ctx, "edges", "edge TSV")
    return graph_mod.load_graph_tsv(nodes, edges)


def _cmd_cluster(ctx) -> int:
    g, _, ranks = _load_graph(ctx)
    resolution = ctx.get_as("resolution", 1.0, float)
    partition = graph_mod.louvain(g, resolution=resolution, rng_seed=ctx.rng_seed)
    q = graph_mod.modularity(g, partition)
    out = ctx.out_dir()
    graph_mod.export_node_tsv(
        out / "nodes_clustered.tsv", g, partition, ranks, header_lines=ctx.header_lines()
    )
    comp = graph_mod.composition(g, partition)
    _write_tsv(
        ctx,
        "composition.tsv",
        ("community", "n_seed", "n_accepted", "n_rejected", "n_unrated"),
        ((r.community, r.n_seed, r.n_accepted, r.n_rejected, r.n_unrated) for r in comp),
    )
    _write_json(
        ctx,
        "cluster_summary.json",
        {
            "modularity": q,
            "n_communities": partition.n_communities(),
            "modularity_trace": partition.modularity_trace,
        },
    )
    print(f"{partition.n_communities()} communities, modularity {q:.4f}")
    return 0


def _cmd_rank(ctx) -> int:
    g, partition, _ = _load_graph(ctx)
    damping = ctx.get_as("damping", 0.85, float)
    ranks = graph_mod.pagerank(g, damping=damping)
    out = ctx.out_dir()
    graph_mod.export_node_tsv(
        out / "nodes_ranked.tsv", g, partition, ranks, header_lines=ctx.header_lines()
    )
    top = sorted(ranks.scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    for word, score in top:
        print(f"{word}\t{score:.6f}")
    return 0


def _cmd_export(ctx) -> int:
    g, partition, ranks = _load_graph(ctx)
    out = ctx.out_dir()
    graph_mod.export_gexf(out / "graph.gexf", g, partition, ranks, meta_lines=ctx.header_lines())
    print(f"wrote {out / 'graph.gexf'}")
    return 0


def _cmd_agree(ctx) -> int:
    annotations = classify.load_annotations(_require(ctx, "annotations", "annotations CSV"))
    report = classify.agreement(annotations)
    print(f"n\t{report.total}")
    print(f"counts\tpp={report.n_pp} pn={report.n_pn} np={report.n_np} nn={report.n_nn}")
    print(f"percent_agreement\t{report.percent_agreement:.4f}")
    print(f"kappa\t{report.kappa:.4f}")
    print(f"band\t{report.band}")
    if ctx.get("out"):
        counts = {"pp": report.n_pp, "pn": report.n_pn, "np": report.n_np, "nn": report.n_nn}
        _write_tsv(
            ctx,
            "agreement.tsv",
            ("n", *counts, "percent_agreement", "kappa", "band"),
            [
                (
                    report.total,
                    *counts.values(),
                    f"{report.percent_agreement:.6f}",
                    f"{report.kappa:.6f}",
                    report.band,
                )
            ],
        )
        _write_json(
            ctx,
            "agreement.json",
            {
                "n": report.total,
                "counts": counts,
                "percent_agreement": report.percent_agreement,
                "kappa": report.kappa,
                "band": report.band,
            },
        )
    return 0


DATASET_COLUMNS = ("word", "label", "oov_flags")


def _cmd_dataset(ctx) -> int:
    models = _load_models(ctx)
    lexicon = _load_lexicon(ctx)
    annotations = classify.load_annotations(_require(ctx, "annotations", "annotations CSV"))
    accepted = [a.word for a in annotations if a.judge1 == "pos" and a.judge2 == "pos"]
    rejected = [a.word for a in annotations if a.judge1 == "neg" and a.judge2 == "neg"]
    n_unrelated = ctx.get_as("n_unrelated", 100, int)
    max_sim = ctx.get_as("max_sim", 0.2, float)
    exclude = [a.word for a in annotations]
    unrelated = classify.sample_unrelated(
        models[0], lexicon, n=n_unrelated, max_sim=max_sim, rng_seed=ctx.rng_seed,
        exclude=exclude,
    )
    seeds = sorted(lexicon.folded_words()) if ctx.get("include_seeds") else ()
    build = classify.build_dataset(
        accepted, rejected, unrelated, models,
        seeds=seeds, include_seeds=bool(ctx.get("include_seeds", False)),
    )
    out = ctx.out_dir()
    features = np.vstack([ex.features for ex in build.examples]).astype(np.float32)
    np.save(out / "dataset_features.npy", features)
    rows = (
        (ex.word, ex.label, "".join("1" if f else "0" for f in ex.oov_flags))
        for ex in build.examples
    )
    _write_tsv(ctx, "dataset.tsv", DATASET_COLUMNS, rows)
    _write_json(
        ctx,
        "dataset_summary.json",
        {
            "n_examples": len(build.examples),
            "n_positive": sum(ex.label for ex in build.examples),
            "feature_length": int(features.shape[1]),
            "models": [m.name for m in models],
            "excluded_oov": build.excluded,
            "n_unrelated": len(unrelated),
        },
    )
    print(f"{len(build.examples)} examples, feature length {features.shape[1]}")
    return 0


def _load_dataset(ctx):
    path = Path(_require(ctx, "dataset", "dataset TSV"))
    features_path = path.parent / "dataset_features.npy"
    if not features_path.is_file():
        raise InputError(f"missing feature matrix next to dataset: {features_path}")
    features = np.load(features_path)
    _, rows = tables.read_tsv(path, DATASET_COLUMNS, "dataset")
    if len(rows) != len(features):
        raise InputError("dataset row count does not match the feature matrix")
    examples = []
    for vector, (lineno, (word, label, flags)) in zip(features, rows):
        if label not in ("0", "1"):
            raise InputError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        examples.append(
            classify.LabeledExample(word, vector, int(label), tuple(c == "1" for c in flags))
        )
    return examples


def _cmd_train(ctx) -> int:
    dataset = _load_dataset(ctx)
    spec_text = ctx.get("classifiers") or "knn:k=3,gaussian_nb,logistic_sgd,mlp"
    spec_parts: list[str] = []
    for chunk in str(spec_text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        # bare key=value chunks are parameters of the previous spec
        if "=" in chunk and ":" not in chunk and spec_parts:
            spec_parts[-1] += "," + chunk
        else:
            spec_parts.append(chunk)
    specs = [classify.parse_classifier_spec(s) for s in spec_parts]
    k = ctx.get_as("folds", 10, int)
    folds = classify.kfold(dataset, k=k, rng_seed=ctx.rng_seed)
    reports = [classify.train_eval(dataset, spec, folds, rng_seed=ctx.rng_seed) for spec in specs]
    _write_tsv(
        ctx,
        "eval.tsv",
        ("classifier", "accuracy", "precision", "recall", "f1", "tp", "fp", "fn", "tn", "fold_digest"),
        (
            (
                r.classifier,
                *(f"{v:.4f}" for v in (r.accuracy, r.precision, r.recall, r.f1)),
                r.tp,
                r.fp,
                r.fn,
                r.tn,
                r.fold_digest,
            )
            for r in reports
        ),
    )
    _write_json(
        ctx,
        "eval.json",
        {
            "folds": k,
            "reports": [
                {
                    "classifier": r.classifier,
                    "accuracy": r.accuracy,
                    "precision": r.precision,
                    "recall": r.recall,
                    "f1": r.f1,
                    "confusion": {"tp": r.tp, "fp": r.fp, "fn": r.fn, "tn": r.tn},
                    "flags": list(r.flags),
                    "fold_digest": r.fold_digest,
                }
                for r in reports
            ],
        },
    )
    for r in reports:
        print(
            f"{r.classifier}\tacc={r.accuracy:.4f} p={r.precision:.4f} "
            f"r={r.recall:.4f} f1={r.f1:.4f}"
        )
    return 0


def _cmd_pca(ctx) -> int:
    matrix = reduce_mod.load_score_matrix(_require(ctx, "matrix", "score matrix TSV"))
    n_components = ctx.get_as("components", 7, int)
    standardize = not bool(ctx.get("no_standardize", False))
    result = reduce_mod.pca(matrix, n_components=n_components, standardize=standardize)
    comp_names = [f"F{i + 1}" for i in range(n_components)]
    _write_tsv(
        ctx,
        "pca_loadings.tsv",
        ("word", *comp_names),
        (
            (label, *(f"{v:.6f}" for v in row))
            for label, row in zip(result.row_labels, result.loadings)
        ),
    )
    top = ctx.get_as("top", 10, int)
    rows = []
    for j in range(n_components):
        for rank, (word, loading) in enumerate(result.top_words(j, top), 1):
            rows.append((comp_names[j], rank, word, f"{loading:.6f}"))
    _write_tsv(ctx, "pca_top_words.tsv", ("component", "rank", "word", "loading"), rows)
    _write_json(
        ctx,
        "pca_summary.json",
        {
            "explained_variance_ratio": result.explained_variance_ratio.tolist(),
            "singular_values": result.singular_values.tolist(),
            "columns": result.col_labels,
            "dropped_columns": result.dropped_columns,
            "standardized": standardize,
        },
    )
    ratios = ", ".join(f"{r:.4f}" for r in result.explained_variance_ratio)
    print(f"explained variance ratios: {ratios}")
    return 0


def _cmd_mds(ctx) -> int:
    matrix = reduce_mod.load_score_matrix(_require(ctx, "matrix", "score matrix TSV"))
    result = reduce_mod.mds(
        matrix,
        p=ctx.get_as("p", 2.0, float),
        dims=ctx.get_as("dims", 2, int),
        max_iter=ctx.get_as("max_iter", 500, int),
    )
    dim_names = [f"dim{i + 1}" for i in range(result.coordinates.shape[1])]
    _write_tsv(
        ctx,
        "mds_coordinates.tsv",
        ("item", *dim_names),
        (
            (label, *(f"{v:.8f}" for v in row))
            for label, row in zip(result.item_labels, result.coordinates)
        ),
    )
    _write_json(
        ctx,
        "mds_summary.json",
        {
            "stress": result.stress,
            "iterations": result.iterations,
            "stress_trace": result.stress_trace,
        },
    )
    print(f"stress {result.stress:.6g} after {result.iterations} iterations")
    return 0


def _cmd_pipeline(ctx) -> int:
    models = _load_models(ctx)
    if len(models) < 2:
        raise InputError("pipeline needs at least two models to intersect")
    lexicon = _load_lexicon(ctx)
    pair_lists = []
    for model, result in _expand_each(ctx, models, lexicon):
        pair_lists.append(result.pairs)
        n_distinct = len(expansion.distinct_candidates(result.pairs))
        print(f"{model.name}: {len(result.pairs)} pairs, {n_distinct} distinct candidates")
    cset = _common_candidates(pair_lists, lexicon)
    corpus_path = ctx.get("corpus")
    if corpus_path:
        cset = expansion.score_candidates(cset, corpus_mod.load_corpus(corpus_path), lexicon)
    _write_candidates(ctx, cset)
    print(f"{len(cset)} candidates ready for review in {ctx.out_dir() / 'candidates.json'}")
    return 0


_DISPATCH = {
    "expand": _cmd_expand,
    "intersect": _cmd_intersect,
    "score": _cmd_score,
    "split": _cmd_split,
    "ratios": _cmd_ratios,
    "relscore": _cmd_relscore,
    "rates": _cmd_rates,
    "find": _cmd_find,
    "graph": _cmd_graph,
    "cluster": _cmd_cluster,
    "rank": _cmd_rank,
    "export": _cmd_export,
    "agree": _cmd_agree,
    "dataset": _cmd_dataset,
    "train": _cmd_train,
    "pca": _cmd_pca,
    "mds": _cmd_mds,
    "pipeline": _cmd_pipeline,
}


if __name__ == "__main__":
    sys.exit(main())
