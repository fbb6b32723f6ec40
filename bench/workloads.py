"""The four workloads: inputs, command sequence, set-up loaders, oracles.

Each workload function writes its inputs under ``work/in`` from the seed
alone and returns a ``Plan``.  Commands run with ``work`` as their
directory, so every path they see is relative and their ``--reproducible``
artifacts do not depend on where the checkout lives.  Sizes are chosen so
that one pass of a workload takes a few seconds on a 2-vCPU machine and
several passes fit in one run; the layers each workload stresses are in
BENCHMARK.json's ``why``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracles

COMMON = ["--reproducible", "--rng-seed", "1"]
MODELS = ["--model", "a=in/model_a.bin", "--model", "b=in/model_b.bin"]
CLASSIFIERS = ("knn", "gaussian_nb", "logistic_sgd", "mlp")
SHARED = 40  # cluster tokens both models hold, per seed form
LEAD = 3  # shared tokens both models rank above their own: k=10 keeps 60 x 3 candidates
SGD_EPOCHS = 200

SIZES = {
    "retrieval": {"vocab": 60_000, "k": 50},
    "scoring": {"vocab": 20_000, "k": 10, "sentences": 3_000},
    "corpus-analytics": {"sentences": 6_000, "groups": 4},
    "judgment": {"vocab": 20_000, "unrelated": 100, "pairs_per_seed": (40, 15), "matrix": (2_000, 12)},
}


@dataclass
class Plan:
    steps: list[tuple[str, list[str]]]  # (step, cuelex arguments); step writes to out/<step>
    loaders: list[tuple[str, str, str]]  # (module, function, path) for the set-up probe
    items: Callable[[Path], int]  # finished work of one pass, given the work dir
    checks: dict[str, Callable[[Path], list[str]]]  # step -> oracle over out/<step>
    sizes: dict


def _step(name: str, *args: str) -> tuple[str, list[str]]:
    return name, [name, *args, "--out", f"out/{name}", *COMMON]


def _models(seed: int, inp: Path, vocab: int, unique: int, lead: int) -> gen.Clusters:
    clusters = gen.plant_clusters(random.Random(f"{seed}:clusters"), SHARED, unique)
    gen.model_pair(seed, inp, vocab, clusters, lead)
    gen.write_seeds(inp / "seeds.txt")
    return clusters


def _expansion_checks(inp: Path, k: int):
    """Brute-force float64 top-k of every seed form against the pipeline's files."""

    def check(out: Path) -> list[str]:
        expected = {}
        problems = []
        for m in "ab":
            tokens, matrix = oracles.read_w2v(inp / f"model_{m}.bin")
            expected[m] = oracles.brute_force_pairs(tokens, matrix, gen.SEEDS, k, m)
            problems += oracles.check_pairs_file(out / f"pairs_{m}.tsv", expected[m])
        return problems + oracles.check_candidates(out / "candidates.json", oracles.expected_candidates(expected))

    return check


def retrieval(seed: int, inp: Path) -> Plan:
    size = SIZES["retrieval"]
    _models(seed, inp, size["vocab"], unique=5, lead=SHARED)
    expansion = _expansion_checks(inp, size["k"])
    return Plan(
        steps=[_step("pipeline", *MODELS, "--seeds", "in/seeds.txt", "--k", str(size["k"]), "--threads", "2")],
        loaders=[("embeddings", "load_model", "in/model_a.bin"), ("embeddings", "load_model", "in/model_b.bin")],
        items=lambda work: sum(len(oracles.tsv_rows(work / f"out/pipeline/pairs_{m}.tsv")) for m in "ab"),
        checks={"pipeline": expansion},
        sizes=size,
    )


def scoring(seed: int, inp: Path) -> Plan:
    size = SIZES["scoring"]
    clusters = _models(seed, inp, size["vocab"], unique=15, lead=LEAD)
    rng = random.Random(f"{seed}:corpus")
    # seed forms, the candidates, and the two together (so PMI sees co-occurrence)
    cues = [[f] for f in gen.SEED_FORMS]
    for f in gen.SEED_FORMS:
        for tok in clusters.tokens[f][:LEAD]:
            cues += [[f, tok], [tok]]
    docs = gen.make_corpus(rng, size["sentences"], gen.filler_words(rng, 3000), cues, 0.5)
    gen.write_jsonl(inp / "corpus.jsonl", docs)
    expansion = _expansion_checks(inp, size["k"])
    recount = oracles.Recount(docs)
    surfaces = [s for s, _ in gen.SEEDS]

    def check(out: Path) -> list[str]:
        return expansion(out) + oracles.check_scores(out / "candidates.json", recount, surfaces)

    return Plan(
        steps=[_step("pipeline", *MODELS, "--seeds", "in/seeds.txt", "--k", str(size["k"]),
                     "--corpus", "in/corpus.jsonl")],
        loaders=[("embeddings", "load_model", "in/model_a.bin"), ("embeddings", "load_model", "in/model_b.bin"),
                 ("corpus", "load_corpus", "in/corpus.jsonl")],
        items=lambda work: len(oracles.load_json(work / "out/pipeline/candidates.json")["candidates"]),
        checks={"pipeline": check},
        sizes=size,
    )


def _analytics_words(rng: random.Random) -> list[str]:
    """36 patterns: 28 seed literals, 4 prefix wildcards, 4 phrases."""
    literals = [s for s, _ in gen.SEEDS if not s.endswith("*")]
    return rng.sample(literals, 28) + ["surpris*", "ambigu*", "myster*", "incon*"] + list(gen.PHRASES)


def corpus_analytics(seed: int, inp: Path) -> Plan:
    size = SIZES["corpus-analytics"]
    rng = random.Random(f"{seed}:analytics")
    fillers = gen.filler_words(rng, 3000)
    cues = [[f] for f in gen.SEED_FORMS] + [p.split() for p in gen.PHRASES]
    groups = {}
    per_group = size["sentences"] // size["groups"]
    first_doc = 0
    for g in range(size["groups"]):  # groups differ in how often cue words occur
        part = gen.make_corpus(rng, per_group, fillers, cues, 0.08 * (g + 1), first_doc)
        first_doc += len(part)
        groups[f"group{g}"] = part
        gen.write_jsonl(inp / f"group{g}.jsonl", part)
    docs = [d for part in groups.values() for d in part]
    gen.write_jsonl(inp / "corpus.jsonl", docs)
    (inp / "groups.json").write_text(json.dumps({g: f"{g}.jsonl" for g in groups}), encoding="utf-8")
    words = _analytics_words(rng)
    (inp / "words.txt").write_text("\n".join(words) + "\n", encoding="utf-8")

    recount = oracles.Recount(docs)
    group_counts = {g: oracles.Recount(part) for g, part in groups.items()}
    corpus = ["--corpus", "in/corpus.jsonl"]
    n = len(recount.sentences)
    return Plan(
        steps=[
            _step("split", *corpus),
            _step("ratios", *corpus, "--words", "@in/words.txt"),
            _step("find", *corpus, "--cues", "@in/words.txt", "--limit", "50"),
            _step("relscore", "--collection", "in/corpus.jsonl", "--words", "@in/words.txt",
                  "--baseline", "knowledge"),
            _step("rates", "--groups", "in/groups.json"),
        ],
        loaders=[("corpus", "load_corpus", "in/corpus.jsonl"), ("corpus", "load_collections", "in/groups.json")],
        items=lambda work: 5 * n,  # every command reads every sentence once
        checks={
            "split": lambda out: oracles.check_split(out, recount, gen.INDICATORS),
            "ratios": lambda out: oracles.check_ratios(out, recount, gen.INDICATORS, words),
            "find": lambda out: oracles.check_find(out, recount, words, 50),
            "relscore": lambda out: oracles.check_relscore(out, recount, words, "knowledge"),
            "rates": lambda out: oracles.check_rates(out, group_counts, gen.INDICATORS),
        },
        sizes=dict(size, sentences=n, words=len(words)),
    )


def judgment(seed: int, inp: Path) -> Plan:
    size = SIZES["judgment"]
    clusters = _models(seed, inp, size["vocab"], unique=15, lead=LEAD)
    rng = random.Random(f"{seed}:judgment")
    gen.write_annotations(inp / "annotations.csv", rng, clusters.all_tokens())
    pair_files = [inp / f"pairs_{m}.tsv" for m in "ab"]
    n_pairs = [gen.write_pairs(p, rng, clusters, m, *size["pairs_per_seed"]) for p, m in zip(pair_files, "ab")]
    rows, cols = size["matrix"]
    gen.write_score_matrix(inp / "scores.tsv", np.random.default_rng([seed, 7]), rows, cols)

    n_pos, n_neg = gen.AGREEMENT_TABLE[0], gen.AGREEMENT_TABLE[3]
    n_examples = n_pos + n_neg + size["unrelated"]
    classifiers = f"knn:k=3,gaussian_nb,logistic_sgd:epochs={SGD_EPOCHS},mlp:epochs={SGD_EPOCHS}"
    surfaces = [s for s, _ in gen.SEEDS]
    edges = ["--edges", "out/graph/edges.tsv"]
    return Plan(
        steps=[
            _step("agree", "--annotations", "in/annotations.csv"),
            _step("dataset", *MODELS, "--annotations", "in/annotations.csv", "--seeds", "in/seeds.txt",
                  "--n-unrelated", str(size["unrelated"])),
            _step("train", "--dataset", "out/dataset/dataset.tsv", "--folds", "10", "--classifiers", classifiers),
            _step("graph", "--pairs", "in/pairs_a.tsv", "--pairs", "in/pairs_b.tsv", "--seeds", "in/seeds.txt",
                  "--statuses", "in/annotations.csv"),
            _step("cluster", "--nodes", "out/graph/nodes.tsv", *edges),
            _step("rank", "--nodes", "out/cluster/nodes_clustered.tsv", *edges),
            _step("export", "--nodes", "out/rank/nodes_ranked.tsv", *edges),
            _step("pca", "--matrix", "in/scores.tsv", "--components", "7"),
            _step("mds", "--matrix", "in/scores.tsv"),
        ],
        loaders=[("classify", "load_annotations", "in/annotations.csv"),
                 ("embeddings", "load_model", "in/model_a.bin"), ("embeddings", "load_model", "in/model_b.bin"),
                 ("reduce", "load_score_matrix", "in/scores.tsv")],
        items=lambda work: n_examples * len(CLASSIFIERS),
        checks={
            "agree": lambda out: oracles.check_agree(out, gen.AGREEMENT_TABLE),
            "dataset": lambda out: oracles.check_dataset(out, n_examples, n_pos),
            "train": lambda out: oracles.check_train(out, n_examples, CLASSIFIERS),
            "graph": lambda out: oracles.check_graph(out, pair_files, surfaces),
            "cluster": oracles.check_cluster,
            "rank": oracles.check_rank,
            "export": lambda out: oracles.check_export(out, len(oracles.tsv_rows(out.parent / "graph/nodes.tsv"))),
            "pca": lambda out: oracles.check_pca(out, cols),
            "mds": lambda out: oracles.check_mds(out, cols),
        },
        sizes=dict(size, pairs=n_pairs, examples=n_examples, sgd_epochs=SGD_EPOCHS),
    )


WORKLOADS = {"retrieval": retrieval, "scoring": scoring, "corpus-analytics": corpus_analytics, "judgment": judgment}
