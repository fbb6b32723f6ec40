"""Command-line orchestration: one subcommand per pipeline operation.

Every subcommand reads files, calls one module operation, and writes TSV and
JSON artifacts whose headers record the tool version, a digest of the
effective configuration, and the rng seed.  With --reproducible the
timestamp line is suppressed and reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import re
import sys
import traceback
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

# Every command is one short process, so OpenBLAS runs in one thread unless the
# user sets OPENBLAS_NUM_THREADS: a second thread adds tens of milliseconds to
# the numpy import, and a GEMM split across two threads stalls for as long as
# the second core is busy elsewhere.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the BLAS default above)

from . import __version__, tables
from .errors import CuelexError, InputError
from .patterns import DEFAULT_CONSENSUS_QUERY


def _lazy(name: str):
    """Module ``cuelex.<name>``, registered at once but executed on its first attribute access.

    So a command runs the imports of only the modules it uses.  The module is
    in ``sys.modules`` as soon as this one is imported, for code that looks it
    up there (the benchmark's tracer wraps every module's functions that way).
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


corpus_mod, embeddings, expansion = _lazy("corpus"), _lazy("embeddings"), _lazy("expansion")
classify, graph_mod, reduce_mod = _lazy("classify"), _lazy("graph"), _lazy("reduce")
workers = _lazy("workers")


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
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise InputError("missing subcommand (see --help)")
    ctx = _Context(args, _load_config(args.config))
    return _COMMANDS[args.command].run(ctx)


class _Flag(NamedTuple):
    """One setting: the ``--flag`` of every command that declares it, and its config-file key."""

    type: type  # str, int, float, bool (a switch) or list (a repeatable flag)
    default: object = None
    help: str = ""
    minimum: int | None = None
    below: float | None = None  # an exclusive upper bound


FLAGS = {
    "config": _Flag(str, None, "JSON config file; flags override its values"),
    "out": _Flag(str, None, "output directory"),
    "rng_seed": _Flag(int, 0, "seed for all randomness", 0),
    "threads": _Flag(int, 1, "accepted for compatibility; no effect (expand and pipeline open "
                     "and expand each model in its own worker, and train fits folds in workers, "
                     "one per CPU the process may use; taskset -c 0 runs them in one process)", 1),
    "reproducible": _Flag(bool, False, "omit timestamps so reruns are byte-identical"),
    "model": _Flag(list, [], 'embedding model as "name=path"'),
    "model_format": _Flag(list, [], '"binary" (the default), "text", or "name=format" per model'),
    "seeds": _Flag(str, None, "seed lexicon file (default: bundled list)"),
    "k": _Flag(int, 50, "neighbors per seed", 1),
    "no_fold_case": _Flag(bool, False, "keep case variants apart in retrieval"),
    "corpus": _Flag(str, None, "corpus (JSON-lines file or directory of .txt)"),
    "pairs": _Flag(list, [], "pairs TSV"),
    "candidates": _Flag(str, None, "candidate JSON file"),
    "indicators": _Flag(list, list(DEFAULT_CONSENSUS_QUERY), "comma-separated patterns or @file"),
    "balance": _Flag(bool, False, "down-sample the larger of S+ / S- to the smaller's size"),
    "words": _Flag(list, [], "words or patterns (comma-separated or @file)"),
    "collection": _Flag(str, None, "corpus path treated as one collection"),
    "group": _Flag(str, None, "collection name (default: path stem)"),
    "baseline": _Flag(str, "knowledge", "baseline word"),
    "groups": _Flag(str, None, "JSON manifest mapping group id to corpus path"),
    "query": _Flag(list, list(DEFAULT_CONSENSUS_QUERY), "query patterns"),
    "cues": _Flag(list, [], "cue patterns (comma-separated or @file)"),
    "limit": _Flag(int, 10, "max sentences per cue", 1),
    "statuses": _Flag(str, None, "annotations CSV used to mark accepted/rejected"),
    "nodes": _Flag(str, None, "node TSV"),
    "edges": _Flag(str, None, "edge TSV"),
    "resolution": _Flag(float, 1.0, "modularity resolution"),
    "damping": _Flag(float, 0.85, "PageRank damping factor", 0, 1),
    "annotations": _Flag(str, None, "CSV with header word,judge1,judge2"),
    "include_seeds": _Flag(bool, False, "add the seed words as positive examples"),
    "n_unrelated": _Flag(int, 100, "unrelated words sampled as negatives", 0),
    "max_sim": _Flag(float, 0.2, "max similarity of an unrelated word to any seed"),
    "dataset": _Flag(str, None, "dataset TSV written by the dataset subcommand"),
    "classifiers": _Flag(str, "knn:k=3,gaussian_nb,logistic_sgd,mlp", "classifier specs"),
    "folds": _Flag(int, 10, "cross-validation folds", 2),
    "matrix": _Flag(str, None, "score matrix TSV"),
    "components": _Flag(int, 7, "principal components", 1),
    "no_standardize": _Flag(bool, False, "keep the columns' own scales"),
    "top": _Flag(int, 10, "words per component in the report", 0),
    "p": _Flag(float, 2.0, "Minkowski exponent", 1),
    "dims": _Flag(int, 2, "output dimensions", 1),
    "max_iter": _Flag(int, 500, "SMACOF iterations", 0),
}
_COMMON = ("config", "out", "rng_seed", "threads", "reproducible")
# how an int flag's minimum reads in an error (a float of at least 1 may be 1.5)
_BOUNDS = {(int, 0): "non-negative", (int, 1): "positive"}
# keys left out of the config digest: identical runs into different output
# directories must produce byte-identical artifacts
_NOT_DIGESTED = ("config", "out")
_MODEL_NAME = re.compile(r"[^=/\\\s\x00-\x1f\x7f-\x9f]+=")  # a --model's "name="


class _Context:
    """One run's configuration, resolved in full before any input is read.

    Every key of the command becomes an attribute: a flag wins over the config
    file, which wins over the default in ``FLAGS``.  Each value is cast, then
    checked against its range, and every required key must be set.  The
    config digest hashes the command and every effective value but ``out`` and
    ``config``.  ``meta`` and ``header_lines`` are built once, so every artifact
    of one run carries the same digest and the same ``generated`` time.
    """

    def __init__(self, args, config):
        command = _COMMANDS[args.command]
        values = {"command": args.command}
        for key in (*_COMMON, *command.keys.split()):
            flag = FLAGS[key]
            value = getattr(args, key)
            value = _cast(key, flag.type, config.get(key, flag.default) if value is None else value)
            _check(key, flag, value)
            values[key] = value
        for key in command.required.split():
            if values[key] in (None, "", []):
                raise InputError(f"--{key.replace('_', '-')} is required: {FLAGS[key].help}")
        self.__dict__.update(values)
        if self.out and Path(self.out).exists() and not Path(self.out).is_dir():
            raise InputError(f"--out is not a directory: {self.out}")
        digested = {k: v for k, v in values.items() if k not in _NOT_DIGESTED}
        blob = json.dumps(digested, sort_keys=True).encode()
        digest = tables.sha256_hex(blob)[:12]
        self.meta = {"version": __version__, "config_digest": digest, "rng_seed": self.rng_seed}
        self.header_lines = [  # the metadata lines above a TSV header
            f"cuelex {__version__}", f"config: {digest}  rng_seed: {self.rng_seed}",
        ]
        if not self.reproducible:
            self.meta["generated"] = datetime.now(timezone.utc).isoformat()
            self.header_lines.append(f"generated: {self.meta['generated']}")

    @functools.cached_property
    def out_dir(self) -> Path:
        """``--out``, made at the first write, so a run that fails on its inputs makes none."""
        path = Path(self.out)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot make output directory {path}: {exc.strerror}") from None
        return path


def _cast(key, kind, value):
    """``value`` as ``kind``; a config file may give one string for a repeatable flag.

    Only a boolean sets a switch, and a boolean is no number.  An int flag
    takes no fraction (2.7 is not 2), and a float flag takes no NaN.
    """
    if value is None or (kind is bool and isinstance(value, bool)):
        return value
    if kind is list and isinstance(value, str):
        return [value]
    if kind in (str, list):
        if isinstance(value, kind) and all(isinstance(v, str) for v in value):
            return value
    elif kind in (int, float) and not isinstance(value, bool):
        try:
            cast = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:  # int(2.7) is 2, and NaN is the one value unequal to itself
            if cast == cast and not (isinstance(value, float) and cast != value):
                return cast
    raise InputError(f"{key}: expected {kind.__name__}, got {value!r}")


def _check(key, flag, value) -> None:
    low, high = flag.minimum, flag.below
    if (low is not None and not value >= low) or (high is not None and not value < high):
        bound = _BOUNDS.get((flag.type, low), f"at least {low}")
        bound = f"in [{low}, {high})" if high is not None else bound
        raise InputError(f"{key} must be {bound}, got {value}")


def _load_config(path):
    if not path:
        return {}
    config = tables.read_json(path, "config")
    if not isinstance(config, dict):
        raise InputError(f"{path}: config must be a JSON object")
    unknown = sorted(set(config) - set(FLAGS))
    if unknown:
        raise InputError(f"{path}: unknown config key {', '.join(map(repr, unknown))}")
    return config


def _build_parser() -> _Parser:
    parser = _Parser(prog="cuelex", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cuelex {__version__}")
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in (*_COMMON, *command.keys.split()):
            flag = FLAGS[key]
            help_text = flag.help + (" (repeatable)" if flag.type is list else "")
            if flag.type is not bool and flag.default not in (None, []):
                shown = ",".join(flag.default) if flag.type is list else flag.default
                help_text += f" (default {shown})"
            kwargs = {"action": "store_const", "const": True} if flag.type is bool else {}
            if flag.type is list:
                kwargs["action"] = "append"
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=help_text, **kwargs)
    return parser


# ---------------------------------------------------------------------------
# shared input helpers


def _model_specs(ctx) -> list[tuple[str, str, str]]:
    """The ``--model``s as (name, path, format); every item and file is checked before any read."""
    # a bare format applies to every model without a "name=format" of its own
    given = [item.split("=", 1) if "=" in item else ("", item) for item in ctx.model_format]
    for _, fmt in given:
        if fmt not in ("binary", "text"):
            raise InputError(f"model_format must be one of binary, text, got {fmt!r}")
    for spec in ctx.model:
        if "=" not in spec:
            raise InputError(f'--model must look like "name=path", got {spec!r}')
        if not _MODEL_NAME.match(spec) or spec.startswith((".=", "..=")):
            raise InputError("a --model name must be non-empty, not . or .., and hold no /, \\, "
                             f"whitespace or control character, got {spec!r}")
    specs = [spec.split("=", 1) for spec in ctx.model]
    names = [name for name, _ in specs]
    for flag, items in (("--model", specs), ("--model-format", given)):
        named = [name for name, _ in items]
        repeated = sorted({name or "(bare format)" for name in named if named.count(name) > 1})
        if repeated:
            raise InputError(f"{flag} names a model more than once: {', '.join(repeated)}")
    formats = dict(given)
    unknown = sorted(set(formats) - {"", *names})
    if unknown:
        raise InputError(f"--model-format names no --model: {', '.join(unknown)}")
    for _, path in specs:
        tables.find_file(path, "model")
    return [(name, path, formats.get(name, formats.get("", "binary"))) for name, path in specs]


def _load_lexicon(ctx):
    if ctx.seeds:
        return expansion.load_seed_lexicon(ctx.seeds)
    return expansion.default_seed_lexicon()


def _patterns_arg(value, what: str) -> list[str]:
    """Patterns from comma-separated lists and ``@file`` word lists (one pattern a line)."""
    out = []
    for chunk in [value] if isinstance(value, str) else value:
        if not chunk.startswith("@"):
            out += [w.strip() for w in chunk.split(",") if w.strip()]
            continue
        path = Path(chunk[1:])
        lines = tables.read_text(path, what).splitlines()
        patterns = [p for p in (tables.COMMENT.sub("", ln).strip() for ln in lines) if p]
        if not patterns:
            raise InputError(f"{what} file is empty: {path}")
        out += patterns
    if not out:
        raise InputError(f"empty {what}")
    return out


# ---------------------------------------------------------------------------
# output helpers


def _write_tsv(ctx, name, header, rows) -> None:
    tables.write_tsv(ctx.out_dir / name, header, rows, ctx.header_lines)


def _write_json(ctx, name, payload: dict) -> None:
    tables.write_json(ctx.out_dir / name, {"meta": ctx.meta, **payload})


def _emit(ctx, stem, columns, rows, decimals=6, **extra) -> None:
    """``stem.tsv`` and its JSON twin ``stem.json`` from the same row objects.

    Each pass reads a column from the row attribute of its name; ``sentence``
    is read from ``text``.
    """
    get = [attrgetter("text" if c == "sentence" else c) for c in columns]
    cells = ([tables.cell(g(row), decimals) for g in get] for row in rows)
    _write_tsv(ctx, f"{stem}.tsv", columns, cells)
    json_rows = ({c: tables.json_value(g(row)) for c, g in zip(columns, get)} for row in rows)
    _write_json(ctx, f"{stem}.json", {"rows": json_rows, **extra})


# ---------------------------------------------------------------------------
# subcommands


def _expand_each(ctx, specs, lexicon):
    """Yield (model name, expansion result) per model after writing its pairs and skipped forms.

    Each model is opened (``embeddings.open_model``) and expanded in its own
    worker process, so this process never reads a model.
    """
    k, fold_case = ctx.k, not ctx.no_fold_case
    # executes both lazily registered modules here, once, not in every worker
    open_model, expand = embeddings.open_model, expansion.expand

    def expand_one(spec):
        name, path, fmt = spec
        return expand(open_model(path, fmt, name=name), lexicon, k=k, fold_case=fold_case)

    for (name, _, _), result in zip(specs, workers.fork_map(expand_one, specs)):
        expansion.write_pairs(ctx.out_dir / f"pairs_{name}.tsv", result.pairs, ctx.header_lines)
        _write_tsv(ctx, f"skipped_{name}.tsv", ("seed", "model_form"), result.skipped)
        yield name, result


def _common_candidates(pair_lists, lexicon):
    """Candidates retrieved by every pair list, with provenance from all of them."""
    common = set.intersection(*(expansion.distinct_candidates(pairs) for pairs in pair_lists))
    all_pairs = (p for pairs in pair_lists for p in pairs)
    return expansion.intersect(common, common, lexicon, pairs=all_pairs)


def _cmd_expand(ctx) -> int:
    specs = _model_specs(ctx)
    for name, result in _expand_each(ctx, specs, _load_lexicon(ctx)):
        print(f"{name}: {len(result.pairs)} pairs, {len(result.skipped)} seed forms skipped")
    return 0


def _cmd_intersect(ctx) -> int:
    if len(ctx.pairs) < 2:
        raise InputError("intersect needs at least two --pairs files")
    lexicon = _load_lexicon(ctx)
    cset = _common_candidates([expansion.read_pairs(path) for path in ctx.pairs], lexicon)
    _write_candidates(ctx, cset)
    print(f"{len(cset)} candidates common to {len(ctx.pairs)} models")
    return 0


def _write_candidates(ctx, cset) -> None:
    expansion.write_candidate_set(ctx.out_dir / "candidates.json", cset, meta=ctx.meta)
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
    cset = expansion.read_candidate_set(ctx.candidates)
    corpus = corpus_mod.load_corpus(ctx.corpus)
    lexicon = _load_lexicon(ctx)
    scored = expansion.score_candidates(cset, corpus, lexicon)
    _write_candidates(ctx, scored)
    n_scored = sum(1 for c in scored.candidates if not c.no_evidence)
    print(f"scored {n_scored}/{len(scored)} candidates against the corpus")
    return 0


def _split_from_ctx(ctx, corpus):
    indicators = _patterns_arg(ctx.indicators, "indicators")
    return corpus_mod.split_corpus(corpus, indicators, balance=ctx.balance, rng_seed=ctx.rng_seed)


def _cmd_split(ctx) -> int:
    split = _split_from_ctx(ctx, corpus_mod.load_corpus(ctx.corpus))
    for name, sentences in (("s_plus", split.s_plus), ("s_minus", split.s_minus)):
        rows = sentences.corpus.rows(sentences.ids)
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
    split = _split_from_ctx(ctx, corpus_mod.load_corpus(ctx.corpus))
    words = _patterns_arg(ctx.words, "words")
    rows = corpus_mod.ratio_table(words, split)
    columns = ("word", "n_plus", "pct_plus", "n_minus", "pct_minus", "ratio")
    _emit(ctx, "ratios", columns, rows, 3)
    return 0


def _cmd_relscore(ctx) -> int:
    group = ctx.group or Path(ctx.collection).stem
    collection = corpus_mod.collection_from_corpus(group, corpus_mod.load_corpus(ctx.collection))
    words = _patterns_arg(ctx.words, "words")
    scores = corpus_mod.relative_scores(collection, words, ctx.baseline)
    rows = ((w, tables.cell(s, 4)) for w, s in scores.items())
    _write_tsv(ctx, "relscore.tsv", ("word", "score"), rows)
    _write_json(ctx, "relscore.json", {"group": group, "baseline": ctx.baseline, "scores": scores})
    return 0


def _cmd_rates(ctx) -> int:
    groups = corpus_mod.load_collections(ctx.groups)
    query = _patterns_arg(ctx.query, "query")
    rows = corpus_mod.uncertainty_rate(groups, query)
    columns = ("group", "matched", "total", "rate")
    _emit(ctx, "rates", columns, rows, query=query)
    for r in rows:
        print(f"{r.group}\t{r.matched}/{r.total}\t{100.0 * r.rate:.1f}%")
    return 0


def _cmd_find(ctx) -> int:
    corpus = corpus_mod.load_corpus(ctx.corpus)
    matches = corpus_mod.find_sentences(corpus, _patterns_arg(ctx.cues, "cues"), ctx.limit)
    _emit(ctx, "sentences", ("doc_id", "index", "matched", "sentence"), matches)
    print(f"{len(matches)} sentences matched")
    return 0


def _cmd_graph(ctx) -> int:
    pairs = [p for path in ctx.pairs for p in expansion.read_pairs(path)]
    lexicon = _load_lexicon(ctx)
    annotations = classify.load_annotations(ctx.statuses) if ctx.statuses else ()
    statuses = {a.word.lower(): a.status for a in annotations}
    g = graph_mod.build(pairs, lexicon, statuses)
    graph_mod.export_node_tsv(ctx.out_dir / "nodes.tsv", g, header_lines=ctx.header_lines)
    graph_mod.export_edge_tsv(ctx.out_dir / "edges.tsv", g, header_lines=ctx.header_lines)
    print(f"graph: {g.n_nodes} nodes, {g.n_edges} edges")
    return 0


def _cmd_cluster(ctx) -> int:
    g, _, ranks = graph_mod.load_graph_tsv(ctx.nodes, ctx.edges)
    partition = graph_mod.louvain(g, resolution=ctx.resolution, rng_seed=ctx.rng_seed)
    q = graph_mod.modularity(g, partition)
    graph_mod.export_node_tsv(
        ctx.out_dir / "nodes_clustered.tsv", g, partition, ranks, header_lines=ctx.header_lines
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
    g, partition, _ = graph_mod.load_graph_tsv(ctx.nodes, ctx.edges)
    ranks = graph_mod.pagerank(g, damping=ctx.damping)
    graph_mod.export_node_tsv(
        ctx.out_dir / "nodes_ranked.tsv", g, partition, ranks, header_lines=ctx.header_lines
    )
    top = sorted(ranks.scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    for word, score in top:
        print(f"{word}\t{score:.6f}")
    return 0


def _cmd_export(ctx) -> int:
    g, partition, ranks = graph_mod.load_graph_tsv(ctx.nodes, ctx.edges)
    path = ctx.out_dir / "graph.gexf"
    graph_mod.export_gexf(path, g, partition, ranks, meta_lines=ctx.header_lines)
    print(f"wrote {path}")
    return 0


def _cmd_agree(ctx) -> int:
    report = classify.agreement(classify.load_annotations(ctx.annotations))
    print(f"n\t{report.total}")
    print(f"counts\tpp={report.n_pp} pn={report.n_pn} np={report.n_np} nn={report.n_nn}")
    print(f"percent_agreement\t{report.percent_agreement:.4f}")
    print(f"kappa\t{report.kappa:.4f}")
    print(f"band\t{report.band}")
    if ctx.out:
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
    """Hold one model at a time: each is freed once the rows of the dataset's words are copied.

    A binary model is streamed and a text model is loaded
    (``embeddings.open_model``).  Each is read through once, so that a
    non-finite row is refused wherever it is.
    """
    specs = _model_specs(ctx)
    lexicon = _load_lexicon(ctx)
    annotations = classify.load_annotations(ctx.annotations)
    accepted = [a.word for a in annotations if a.status == "accepted"]
    rejected = [a.word for a in annotations if a.status == "rejected"]
    seeds = sorted(lexicon.folded_words()) if ctx.include_seeds else []
    # the unrelated words are drawn clear of every list and are exactly n_unrelated
    classify.check_disjoint(accepted=accepted, rejected=rejected, seeds=seeds)
    classify.check_labels(len(accepted) + len(seeds), len(rejected) + ctx.n_unrelated)
    words = [*accepted, *rejected, *seeds]
    models, unrelated = [], []
    for name, path, fmt in specs:
        model = embeddings.open_model(path, fmt, name=name)
        model.check_rows()
        if not models:
            unrelated = classify.draw_unrelated(
                model, lexicon, n=ctx.n_unrelated, max_sim=ctx.max_sim, rng_seed=ctx.rng_seed,
                exclude=[a.word for a in annotations],
            )
        models.append(classify.ModelRows(model, [*words, *unrelated]))
        del model  # before the next read
    build = classify.build_dataset(accepted, rejected, unrelated, models, seeds=seeds)
    features = np.vstack([ex.features for ex in build.examples]).astype(np.float32)
    np.save(ctx.out_dir / "dataset_features.npy", features)
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
    path = Path(ctx.dataset)
    features_path = path.parent / "dataset_features.npy"
    if not features_path.is_file():
        raise InputError(f"missing feature matrix next to dataset: {features_path}")
    with open(features_path, "rb") as fh:
        try:  # an .npy array only: never a pickle
            features = np.lib.format.read_array(fh)
        except ValueError as exc:
            raise InputError(f"{features_path}: not a feature matrix ({exc})") from None
    if features.ndim != 2 or features.dtype.kind not in "biuf":
        raise InputError(f"{features_path}: expected a numeric 2-D matrix, got {features.dtype} "
                         f"of shape {features.shape}")
    _, rows = tables.read_tsv(path, DATASET_COLUMNS, "dataset")
    if len(rows) != len(features):
        raise InputError("dataset row count does not match the feature matrix")
    examples = []
    width = len(rows[0][1][2]) if rows else 0
    for vector, (lineno, (word, label, flags)) in zip(features, rows):
        if label not in ("0", "1"):
            raise InputError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        if not flags or flags.strip("01") or len(flags) != width:
            raise InputError(f"{path}:{lineno}: oov_flags must be one 0 or 1 per model, "
                             f"the same number on every row, got {flags!r}")
        examples.append(
            classify.LabeledExample(word, vector, int(label), tuple(c == "1" for c in flags))
        )
    return examples


def _cmd_train(ctx) -> int:
    specs = classify.parse_classifier_specs(ctx.classifiers)
    dataset = _load_dataset(ctx)
    folds = classify.kfold(dataset, k=ctx.folds, rng_seed=ctx.rng_seed)
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
            "folds": ctx.folds,
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
    matrix = reduce_mod.load_score_matrix(ctx.matrix)
    standardize = not ctx.no_standardize
    result = reduce_mod.pca(matrix, n_components=ctx.components, standardize=standardize)
    comp_names = [f"F{i + 1}" for i in range(ctx.components)]
    _write_tsv(
        ctx,
        "pca_loadings.tsv",
        ("word", *comp_names),
        (
            (label, *(f"{v:.6f}" for v in row))
            for label, row in zip(result.row_labels, result.loadings)
        ),
    )
    rows = (
        (name, rank, word, f"{loading:.6f}")
        for j, name in enumerate(comp_names)
        for rank, (word, loading) in enumerate(result.top_words(j, ctx.top), 1)
    )
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
    matrix = reduce_mod.load_score_matrix(ctx.matrix)
    result = reduce_mod.mds(matrix, p=ctx.p, dims=ctx.dims, max_iter=ctx.max_iter)
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
    if len(ctx.model) < 2:
        raise InputError("pipeline needs at least two models to intersect")
    specs = _model_specs(ctx)
    # the corpus is found now, as load_corpus finds it, but loaded after the expansion:
    # loaded before the fork, it would count in every worker's RSS
    if ctx.corpus and not Path(ctx.corpus).is_dir():
        tables.find_file(ctx.corpus, "corpus")
    lexicon = _load_lexicon(ctx)
    pair_lists = []
    for name, result in _expand_each(ctx, specs, lexicon):
        pair_lists.append(result.pairs)
        n_distinct = len(expansion.distinct_candidates(result.pairs))
        print(f"{name}: {len(result.pairs)} pairs, {n_distinct} distinct candidates")
    cset = _common_candidates(pair_lists, lexicon)
    if ctx.corpus:
        cset = expansion.score_candidates(cset, corpus_mod.load_corpus(ctx.corpus), lexicon)
    _write_candidates(ctx, cset)
    print(f"{len(cset)} candidates ready for review in {ctx.out_dir / 'candidates.json'}")
    return 0


class _Command(NamedTuple):
    help: str
    keys: str  # the command's own flags, beside the ``_COMMON`` ones
    required: str
    run: Callable[[_Context], int]


_MODELS = "model model_format"
_COMMANDS = {
    "expand": _Command("retrieve top-k neighbors of every seed from each model",
                       f"{_MODELS} seeds k no_fold_case", "model out", _cmd_expand),
    "intersect": _Command("keep candidates retrieved by every pairs file",
                          "pairs seeds", "pairs out", _cmd_intersect),
    "score": _Command("attach PMI and TF-IDF metadata to candidates",
                      "candidates corpus seeds", "candidates corpus out", _cmd_score),
    "split": _Command("partition corpus sentences into S+ / S- by indicators",
                      "corpus indicators balance", "corpus out", _cmd_split),
    "ratios": _Command("per-word S+ vs S- frequency table",
                       "corpus indicators balance words", "corpus words out", _cmd_ratios),
    "relscore": _Command("document-hit scores relative to a baseline word",
                         "collection group words baseline", "collection words out", _cmd_relscore),
    "rates": _Command("per-group fraction of items matching the query",
                      "groups query", "groups out", _cmd_rates),
    "find": _Command("retrieve sentences containing cue words",
                     "corpus cues limit", "corpus cues out", _cmd_find),
    "graph": _Command("build the cue similarity network from pairs files",
                      "pairs seeds statuses", "pairs out", _cmd_graph),
    "cluster": _Command("Louvain-cluster a graph read from node/edge TSVs",
                        "nodes edges resolution", "nodes edges out", _cmd_cluster),
    "rank": _Command("PageRank scores for a graph read from node/edge TSVs",
                     "nodes edges damping", "nodes edges out", _cmd_rank),
    "export": _Command("write GEXF from node/edge TSVs",
                       "nodes edges", "nodes edges out", _cmd_export),
    "agree": _Command("two-judge agreement statistics from an annotations CSV",
                      "annotations", "annotations", _cmd_agree),
    "dataset": _Command("build a labeled training set from annotations and models",
                        f"{_MODELS} annotations seeds include_seeds n_unrelated max_sim",
                        "model annotations out", _cmd_dataset),
    "train": _Command("cross-validate classifiers on a built dataset",
                      "dataset classifiers folds", "dataset classifiers out", _cmd_train),
    "pca": _Command("principal components of a word-by-collection score matrix",
                    "matrix components no_standardize top", "matrix out", _cmd_pca),
    "mds": _Command("metric MDS of the collections in a score matrix",
                    "matrix p dims max_iter", "matrix out", _cmd_mds),
    "pipeline": _Command("expand -> intersect -> score, emitting the review file",
                         f"{_MODELS} seeds k no_fold_case corpus", "model out", _cmd_pipeline),
}


if __name__ == "__main__":
    sys.exit(main())
