import argparse
import datetime
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, no_child_left, random_tokens, set_cpus
from test_golden import COMMANDS as GOLDEN_COMMANDS, make_workspace, run_all
from w2v_writer import write_binary

from cuelex import cli
from cuelex.errors import CuelexError, InputError


def run(*argv):
    return cli.main(list(argv))


def make_model_file(path, seed, n=50, dim=6, shared=()):
    """Random model that parks the cand* tokens near their seed's vector."""
    rng = random.Random(seed)
    tokens = list(shared) + random_tokens(rng, n - len(shared))
    anchors = {}
    rows = []
    for token in tokens:
        vec = np.array([rng.uniform(-1, 1) for _ in range(dim)])
        if token.startswith("seed"):
            anchors[token] = vec
        elif token.startswith("cand") and anchors:
            anchor = anchors["seeda" if token < "candc" else "seedb"]
            vec = anchor + 0.1 * vec
        rows.append(vec)
    write_binary(path, tokens, np.array(rows, dtype=np.float32))
    return tokens


@pytest.fixture
def workspace(tmp_path):
    shared = ["seeda", "seedb", "canda", "candb", "candc", "knowledge"]
    make_model_file(tmp_path / "m1.bin", seed=101, shared=shared)
    make_model_file(tmp_path / "m2.bin", seed=202, shared=shared)
    (tmp_path / "seeds.txt").write_text("seeda\tscientific\nseedb\tscientific\n")
    with open(tmp_path / "corpus.jsonl", "w") as fh:
        docs = [
            ("d1", "The seeda result was canda and inconclusive. More knowledge is needed."),
            ("d2", "A conflicting candb claim. Some knowledge exists."),
            ("d3", "Everything seedb looked canda and definite."),
        ]
        for doc_id, text in docs:
            fh.write(json.dumps({"id": doc_id, "text": text}) + "\n")
    return tmp_path


# --- exit codes ----------------------------------------------------------------


def test_unknown_subcommand_is_input_error(capsys):
    assert run("frobnicate") == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand(capsys):
    assert run() == 1


def test_empty_lexicon_names_path(tmp_path, capsys):
    empty = tmp_path / "empty_seeds.txt"
    empty.write_text("# no entries\n")
    make_model_file(tmp_path / "ok.bin", seed=1)
    code = run(
        "expand", "--model", f"m1={tmp_path / 'ok.bin'}", "--seeds", str(empty),
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "empty_seeds.txt" in err


def test_internal_failure_exit_2(workspace, capsys, monkeypatch):
    def boom(ctx):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._COMMANDS, "agree", cli._COMMANDS["agree"]._replace(run=boom))
    code = run("agree", "--annotations", str(workspace / "nope.csv"))
    assert code == 2
    assert "internal failure" in capsys.readouterr().err


def test_missing_model_file(workspace, capsys):
    code = run(
        "expand", "--model", f"m1={workspace / 'missing.bin'}",
        "--seeds", str(workspace / "seeds.txt"), "--out", str(workspace / "o"),
    )
    assert code == 1
    assert "missing.bin" in capsys.readouterr().err


# --- option strings ----------------------------------------------------------------

COMMON_OPTIONS = ("--config", "--out", "--rng-seed", "--threads", "--reproducible", "-h", "--help")
MODEL_OPTIONS = ("--model", "--model-format")
COMMAND_OPTIONS = {
    "expand": (*MODEL_OPTIONS, "--seeds", "--k", "--no-fold-case"),
    "intersect": ("--pairs", "--seeds"),
    "score": ("--candidates", "--corpus", "--seeds"),
    "split": ("--corpus", "--indicators", "--balance"),
    "ratios": ("--corpus", "--indicators", "--balance", "--words"),  # --balance added
    "relscore": ("--collection", "--group", "--words", "--baseline"),
    "rates": ("--groups", "--query"),
    "find": ("--corpus", "--cues", "--limit"),
    "graph": ("--pairs", "--seeds", "--statuses"),
    "cluster": ("--nodes", "--edges", "--resolution"),
    "rank": ("--nodes", "--edges", "--damping"),
    "export": ("--nodes", "--edges"),
    "agree": ("--annotations",),
    "dataset": (*MODEL_OPTIONS, "--annotations", "--seeds", "--include-seeds", "--n-unrelated",
                "--max-sim"),
    "train": ("--dataset", "--classifiers", "--folds"),
    "pca": ("--matrix", "--components", "--no-standardize", "--top"),
    "mds": ("--matrix", "--p", "--dims", "--max-iter"),
    "pipeline": (*MODEL_OPTIONS, "--seeds", "--k", "--no-fold-case", "--corpus"),
}


def test_every_subcommand_keeps_its_option_strings():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: sorted(s for action in p._actions for s in action.option_strings)
        for name, p in sub.choices.items()
    }
    assert got == {name: sorted((*COMMON_OPTIONS, *opts)) for name, opts in COMMAND_OPTIONS.items()}


# --- agree -----------------------------------------------------------------------


def write_table9_csv(path):
    rows = ["word,judge1,judge2"]
    i = 0
    for count, j1, j2 in ((151, "pos", "pos"), (49, "pos", "neg"), (63, "neg", "pos"), (130, "neg", "neg")):
        for _ in range(count):
            rows.append(f"w{i},{j1},{j2}")
            i += 1
    path.write_text("\n".join(rows) + "\n")


def test_agree_prints_published_values(tmp_path, capsys):
    csv_path = tmp_path / "labels.csv"
    write_table9_csv(csv_path)
    assert run("agree", "--annotations", str(csv_path)) == 0
    out = capsys.readouterr().out
    assert "0.7150" in out
    assert "0.4291" in out
    assert "moderate" in out


def test_agree_writes_artifacts(tmp_path):
    csv_path = tmp_path / "labels.csv"
    write_table9_csv(csv_path)
    out = tmp_path / "res"
    assert run("agree", "--annotations", str(csv_path), "--out", str(out)) == 0
    data = json.loads((out / "agreement.json").read_text())
    assert data["counts"] == {"pp": 151, "pn": 49, "np": 63, "nn": 130}
    assert abs(data["kappa"] - 0.4291) < 5e-4
    tsv = (out / "agreement.tsv").read_text()
    assert tsv.startswith("# cuelex")
    assert "moderate" in tsv


# --- expand / pipeline -------------------------------------------------------------


def test_expand_writes_pairs(workspace):
    out = workspace / "exp"
    code = run(
        "expand",
        "--model", f"m1={workspace / 'm1.bin'}",
        "--seeds", str(workspace / "seeds.txt"),
        "--k", "5",
        "--out", str(out),
        "--reproducible",
    )
    assert code == 0
    pairs = (out / "pairs_m1.tsv").read_text().splitlines()
    header_idx = next(i for i, ln in enumerate(pairs) if not ln.startswith("#"))
    assert pairs[header_idx] == "seed\tcandidate\tsimilarity\tmodel"
    assert len(pairs) > header_idx + 1


@pytest.mark.parametrize("command", ["expand", "pipeline"])
def test_seed_form_with_a_zero_vector_is_skipped_not_fatal(tmp_path, command):
    tokens = ["possible", "maybe", "perhaps", "likely", "table", "chair"]
    vecs = np.array([[0, 0], [1, 0], [0.9, 0.1], [0.8, 0.3], [0, 1], [0.1, 1]], dtype=np.float32)
    for name in ("m1", "m2"):
        write_binary(tmp_path / f"{name}.bin", tokens, vecs)
    (tmp_path / "seeds.txt").write_text("possible\tscientific\nmaybe\tscientific\n")
    out = tmp_path / "out"
    code = run(
        command,
        "--model", f"m1={tmp_path / 'm1.bin'}",
        "--model", f"m2={tmp_path / 'm2.bin'}",
        "--seeds", str(tmp_path / "seeds.txt"),
        "--k", "2",
        "--out", str(out),
        "--reproducible",
    )
    assert code == 0
    for name in ("m1", "m2"):
        rows = [ln for ln in (out / f"skipped_{name}.tsv").read_text().splitlines()
                if not ln.startswith("# ")]
        assert rows == ["seed\tmodel_form", "possible\tpossible"]
        pairs = (out / f"pairs_{name}.tsv").read_text()
        assert "maybe\tperhaps" in pairs and "maybe\tlikely" in pairs


def pipeline_args(workspace, out):
    return [
        "pipeline",
        "--model", f"m1={workspace / 'm1.bin'}",
        "--model", f"m2={workspace / 'm2.bin'}",
        "--seeds", str(workspace / "seeds.txt"),
        "--k", "8",
        "--corpus", str(workspace / "corpus.jsonl"),
        "--out", str(out),
        "--reproducible",
        "--rng-seed", "7",
    ]


def test_pipeline_byte_deterministic(workspace):
    out1, out2 = workspace / "p1", workspace / "p2"
    assert run(*pipeline_args(workspace, out1)) == 0
    assert run(*pipeline_args(workspace, out2)) == 0
    files1 = sorted(f.name for f in out1.iterdir())
    files2 = sorted(f.name for f in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # and a rerun into the same directory is idempotent
    assert run(*pipeline_args(workspace, out1)) == 0
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_pipeline_candidates_reviewable(workspace):
    out = workspace / "pipe"
    assert run(*pipeline_args(workspace, out)) == 0
    doc = json.loads((out / "candidates.json").read_text())
    assert doc["candidates"], "expected some intersected candidates"
    for cand in doc["candidates"]:
        assert cand["status"] == "unrated"
        assert len(cand["models"]) >= 2  # provenance from both models


def test_pipeline_needs_two_models(workspace, capsys):
    code = run(
        "pipeline", "--model", f"m1={workspace / 'm1.bin'}",
        "--seeds", str(workspace / "seeds.txt"), "--out", str(workspace / "x"),
    )
    assert code == 1
    assert "two models" in capsys.readouterr().err


def test_intersect_then_score(workspace):
    exp = workspace / "exp2"
    code = run(
        "expand",
        "--model", f"m1={workspace / 'm1.bin'}",
        "--model", f"m2={workspace / 'm2.bin'}",
        "--seeds", str(workspace / "seeds.txt"),
        "--k", "8", "--out", str(exp), "--reproducible",
    )
    assert code == 0
    idir = workspace / "int"
    code = run(
        "intersect",
        "--pairs", str(exp / "pairs_m1.tsv"),
        "--pairs", str(exp / "pairs_m2.tsv"),
        "--seeds", str(workspace / "seeds.txt"),
        "--out", str(idir), "--reproducible",
    )
    assert code == 0
    doc = json.loads((idir / "candidates.json").read_text())
    assert doc["candidates"]
    assert all(c["pmi"] is None for c in doc["candidates"])

    sdir = workspace / "sc"
    code = run(
        "score",
        "--candidates", str(idir / "candidates.json"),
        "--corpus", str(workspace / "corpus.jsonl"),
        "--seeds", str(workspace / "seeds.txt"),
        "--out", str(sdir), "--reproducible",
    )
    assert code == 0
    scored = json.loads((sdir / "candidates.json").read_text())
    by_word = {c["word"]: c for c in scored["candidates"]}
    assert set(by_word) == {c["word"] for c in doc["candidates"]}
    # canda appears in the corpus, so it must carry a tfidf value
    assert by_word["canda"]["tfidf"] is not None
    assert not by_word["canda"]["no_evidence"]


GOOD_CANDIDATE = {"word": "canda", "models": {"m1": {"similarity": 0.5, "seeds": ["seeda"]}}}


def _bad_model(**provenance):
    return {"candidates": [GOOD_CANDIDATE, {"word": "w", "models": {"m1": provenance}}]}


BAD_CANDIDATE_FILES = [
    [1, 2],
    {},
    {"candidates": {"word": "canda"}},
    {"candidates": [GOOD_CANDIDATE, {"models": {}}]},
    {"candidates": [GOOD_CANDIDATE, "canda"]},
    {"candidates": [GOOD_CANDIDATE, {"word": 3}]},
    {"candidates": [GOOD_CANDIDATE, {"word": "w", "models": []}]},
    {"candidates": [GOOD_CANDIDATE, {"word": "w", "models": {"m1": 0.5}}]},
    _bad_model(similarity=0.5),
    _bad_model(similarity=0.5, seeds=[1]),
    _bad_model(similarity="zz", seeds=[]),
    _bad_model(seeds=[]),
    _bad_model(similarity=True, seeds=[]),
    {"candidates": [GOOD_CANDIDATE, {"word": "w", "pmi": "zz"}]},
    {"candidates": [GOOD_CANDIDATE, {"word": "w", "tfidf": [0.5]}]},
    {"candidates": [GOOD_CANDIDATE, {"word": "w", "status": "maybe"}]},
    {"candidates": [GOOD_CANDIDATE, {"word": "w", "no_evidence": "false"}]},
    _bad_model(similarity=float("nan"), seeds=[]),  # json.dumps writes NaN, not JSON
    _bad_model(similarity=7, seeds=[]),
    _bad_model(similarity=-1.001, seeds=[]),
    {"candidates": [GOOD_CANDIDATE, {"word": "w", "pmi": float("nan")}]},
    {"candidates": [GOOD_CANDIDATE, {"word": "w", "pmi": 10**400}]},  # no float holds it
]


@pytest.mark.parametrize("doc", BAD_CANDIDATE_FILES)
def test_a_bad_candidates_file_is_an_input_error(workspace, capsys, doc):
    path = workspace / "cands.json"
    path.write_text(json.dumps(doc))
    code = run(
        "score", "--candidates", str(path), "--corpus", str(workspace / "corpus.jsonl"),
        "--seeds", str(workspace / "seeds.txt"), "--out", str(workspace / "sc"),
    )
    assert code == 1
    err = capsys.readouterr().err
    entries = doc.get("candidates") if isinstance(doc, dict) else None
    where = "candidate 1: " if isinstance(entries, list) else ""
    assert err.startswith(f"cuelex: error: {path}: {where}"), err


def test_config_file_with_flag_override(workspace):
    out = workspace / "cfg_out"
    config = {
        "model": [f"m1={workspace / 'm1.bin'}"],
        "seeds": str(workspace / "seeds.txt"),
        "k": 3,
        "out": str(workspace / "wrong_out"),
        "reproducible": True,
    }
    cfg = workspace / "run.json"
    cfg.write_text(json.dumps(config))
    # --out overrides the config value
    assert run("expand", "--config", str(cfg), "--out", str(out)) == 0
    assert (out / "pairs_m1.tsv").exists()
    assert not (workspace / "wrong_out").exists()


def test_inputs_not_mutated(workspace):
    before = (workspace / "m1.bin").read_bytes()
    corpus_before = (workspace / "corpus.jsonl").read_bytes()
    run(*pipeline_args(workspace, workspace / "mut"))
    assert (workspace / "m1.bin").read_bytes() == before
    assert (workspace / "corpus.jsonl").read_bytes() == corpus_before


# --- corpus commands ----------------------------------------------------------------


def test_split_ratios_rates_find(workspace, tmp_path):
    out = workspace / "sp"
    code = run(
        "split", "--corpus", str(workspace / "corpus.jsonl"),
        "--indicators", "inconclusive,conflicting", "--out", str(out), "--reproducible",
    )
    assert code == 0
    summary = json.loads((out / "split_summary.json").read_text())
    assert summary["n_plus"] == 2

    out2 = workspace / "ra"
    code = run(
        "ratios", "--corpus", str(workspace / "corpus.jsonl"),
        "--indicators", "inconclusive,conflicting",
        "--words", "canda,candb", "--out", str(out2), "--reproducible",
    )
    assert code == 0
    body = (out2 / "ratios.tsv").read_text()
    assert "canda" in body and "candb" in body

    manifest = workspace / "groups.json"
    manifest.write_text(json.dumps({"G1": str(workspace / "corpus.jsonl")}))
    out3 = workspace / "rt"
    code = run(
        "rates", "--groups", str(manifest), "--query", "conflicting",
        "--out", str(out3), "--reproducible",
    )
    assert code == 0
    rows = json.loads((out3 / "rates.json").read_text())["rows"]
    assert rows[0]["matched"] == 1 and rows[0]["total"] == 3

    out4 = workspace / "fi"
    code = run(
        "find", "--corpus", str(workspace / "corpus.jsonl"),
        "--cues", "inconclusive", "--limit", "5", "--out", str(out4), "--reproducible",
    )
    assert code == 0
    found = json.loads((out4 / "sentences.json").read_text())["rows"]
    assert found and found[0]["doc_id"] == "d1"


def test_relscore(workspace):
    out = workspace / "rel"
    code = run(
        "relscore", "--collection", str(workspace / "corpus.jsonl"),
        "--words", "canda,knowledge", "--out", str(out), "--reproducible",
    )
    assert code == 0
    scores = json.loads((out / "relscore.json").read_text())["scores"]
    assert scores["knowledge"] == 1.0
    assert scores["canda"] == pytest.approx(1.0)  # 2 docs canda / 2 docs knowledge


# --- graph commands --------------------------------------------------------------


def graph_inputs(workspace):
    out = workspace / "gexp"
    run(
        "expand",
        "--model", f"m1={workspace / 'm1.bin'}",
        "--model", f"m2={workspace / 'm2.bin'}",
        "--seeds", str(workspace / "seeds.txt"),
        "--k", "6", "--out", str(out), "--reproducible",
    )
    return [str(out / "pairs_m1.tsv"), str(out / "pairs_m2.tsv")]


def test_graph_cluster_rank_export(workspace):
    pairs = graph_inputs(workspace)
    gdir = workspace / "g"
    code = run(
        "graph", "--pairs", pairs[0], "--pairs", pairs[1],
        "--seeds", str(workspace / "seeds.txt"), "--out", str(gdir), "--reproducible",
    )
    assert code == 0
    nodes, edges = gdir / "nodes.tsv", gdir / "edges.tsv"
    assert nodes.exists() and edges.exists()

    cdir = workspace / "c"
    code = run(
        "cluster", "--nodes", str(nodes), "--edges", str(edges),
        "--out", str(cdir), "--rng-seed", "3", "--reproducible",
    )
    assert code == 0
    summary = json.loads((cdir / "cluster_summary.json").read_text())
    assert summary["n_communities"] >= 1
    assert (cdir / "composition.tsv").exists()

    rdir = workspace / "r"
    code = run(
        "rank", "--nodes", str(cdir / "nodes_clustered.tsv"), "--edges", str(edges),
        "--out", str(rdir), "--reproducible",
    )
    assert code == 0
    ranked = (rdir / "nodes_ranked.tsv").read_text().splitlines()
    data_rows = [r for r in ranked if r and not r.startswith("#")][1:]
    ranks = [float(r.split("\t")[4]) for r in data_rows]
    assert abs(sum(ranks) - 1.0) < 1e-6

    edir = workspace / "e"
    code = run(
        "export", "--nodes", str(rdir / "nodes_ranked.tsv"), "--edges", str(edges),
        "--out", str(edir),
    )
    assert code == 0
    gexf = (edir / "graph.gexf").read_text()
    assert "gexf" in gexf and "pagerank" in gexf


# --- dataset / train ----------------------------------------------------------------


def test_dataset_and_train(workspace):
    labels = workspace / "labels.csv"
    rows = ["word,judge1,judge2"]
    # words drawn from the shared vocabulary so featurize succeeds
    rows.append("canda,pos,pos")
    rows.append("candb,pos,pos")
    rows.append("candc,neg,neg")
    labels.write_text("\n".join(rows) + "\n")
    ddir = workspace / "ds"
    code = run(
        "dataset",
        "--model", f"m1={workspace / 'm1.bin'}",
        "--model", f"m2={workspace / 'm2.bin'}",
        "--annotations", str(labels),
        "--seeds", str(workspace / "seeds.txt"),
        "--n-unrelated", "6",
        "--max-sim", "0.95",
        "--out", str(ddir), "--rng-seed", "11", "--reproducible",
    )
    assert code == 0
    summary = json.loads((ddir / "dataset_summary.json").read_text())
    assert summary["n_examples"] == 9  # 2 accepted + 1 rejected + 6 unrelated
    assert summary["feature_length"] == 12  # 6 + 6
    features = np.load(ddir / "dataset_features.npy")
    assert features.shape == (9, 12)

    tdir = workspace / "tr"
    code = run(
        "train", "--dataset", str(ddir / "dataset.tsv"),
        "--classifiers", "knn:k=1,gaussian_nb",
        "--folds", "3", "--out", str(tdir), "--rng-seed", "2", "--reproducible",
    )
    assert code == 0
    reports = json.loads((tdir / "eval.json").read_text())["reports"]
    assert {r["classifier"] for r in reports} == {"knn(k=1)", "gaussian_nb"}
    for r in reports:
        conf = r["confusion"]
        assert conf["tp"] + conf["fp"] + conf["fn"] + conf["tn"] == 9


def write_dataset(root, features, flags=("10", "01", "11", "00", "10", "01")):
    """A ``dataset`` output of one row per flags string; ``features`` is an array or raw bytes."""
    root.mkdir()
    rows = "".join(f"w{i}\t{i % 2}\t{f}\n" for i, f in enumerate(flags))
    (root / "dataset.tsv").write_text("word\tlabel\toov_flags\n" + rows)
    if isinstance(features, bytes):
        (root / "dataset_features.npy").write_bytes(features)
    else:
        np.save(root / "dataset_features.npy", features)
    return ("train", "--dataset", str(root / "dataset.tsv"), "--classifiers", "knn:k=1",
            "--folds", "2", "--out", str(root / "out"))


@pytest.mark.parametrize("features", [
    b"not an array",
    np.array([{"w": 1}] * 6, dtype=object),  # saved as a pickle
    np.lib.format.MAGIC_PREFIX + b"\x01\x00",
], ids=["garbage", "pickle", "cut-header"])
def test_train_rejects_a_feature_file_it_cannot_load(tmp_path, capsys, features):
    assert run(*write_dataset(tmp_path / "ds", features)) == 1
    assert "dataset_features.npy: not a feature matrix" in capsys.readouterr().err


@pytest.mark.parametrize("features", [np.zeros(6), np.zeros((6, 2, 2)), np.array(["a"] * 6)],
                         ids=["1-D", "3-D", "text"])
def test_train_needs_a_numeric_matrix_of_one_row_per_example(tmp_path, capsys, features):
    assert run(*write_dataset(tmp_path / "ds", features)) == 1
    assert "expected a numeric 2-D matrix" in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_train_refuses_a_non_finite_feature_matrix(tmp_path, capsys, value):
    features = np.arange(12, dtype=np.float32).reshape(6, 2)
    features[3, 1] = value
    assert run(*write_dataset(tmp_path / "ds", features)) == 1
    err = capsys.readouterr().err
    assert err.startswith("cuelex: error: ") and err.count("\n") == 1, err
    assert "dataset_features.npy: non-finite value in the feature matrix" in err


@pytest.mark.parametrize("flags, code", [
    (("10", "01", "11", "00", "10", "01"), 0),
    (("10", "zz", "11", "00", "10", "01"), 1),
    (("10", "1", "11", "00", "10", "01"), 1),
    (("", "", "", "", "", ""), 1),
])
def test_train_reads_oov_flags_of_one_0_or_1_per_model(tmp_path, capsys, flags, code):
    features = np.arange(12, dtype=np.float32).reshape(6, 2)
    assert run(*write_dataset(tmp_path / "ds", features, flags)) == code
    assert ("oov_flags must be one 0 or 1 per model" in capsys.readouterr().err) == bool(code)


# --- pca / mds --------------------------------------------------------------------


def test_pca_and_mds_commands(workspace):
    matrix = workspace / "scores.tsv"
    rng = np.random.default_rng(12)
    words = [f"word{i}" for i in range(8)]
    cols = [f"col{j}" for j in range(4)]
    with open(matrix, "w") as fh:
        fh.write("word\t" + "\t".join(cols) + "\n")
        for w in words:
            fh.write(w + "\t" + "\t".join(f"{abs(v):.4f}" for v in rng.normal(size=4)) + "\n")

    pdir = workspace / "pca"
    code = run(
        "pca", "--matrix", str(matrix), "--components", "3",
        "--out", str(pdir), "--reproducible",
    )
    assert code == 0
    summary = json.loads((pdir / "pca_summary.json").read_text())
    ratios = summary["explained_variance_ratio"]
    assert len(ratios) == 3 and ratios == sorted(ratios, reverse=True)
    loadings = (pdir / "pca_loadings.tsv").read_text().splitlines()
    assert any(ln.startswith("word0\t") for ln in loadings)
    assert (pdir / "pca_top_words.tsv").exists()

    for p in ("2", "inf"):  # inf is the Chebyshev distance
        mdir = workspace / f"mds_{p}"
        code = run(
            "mds", "--matrix", str(matrix), "--p", p, "--out", str(mdir), "--reproducible",
        )
        assert code == 0
        coords = (mdir / "mds_coordinates.tsv").read_text().splitlines()
        data = [r for r in coords if r and not r.startswith("#")][1:]
        assert len(data) == 4
        summary = json.loads((mdir / "mds_summary.json").read_text())
        trace = summary["stress_trace"]
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


# --- zero-valued flags -----------------------------------------------------------


def test_find_limit_zero_is_rejected(workspace, capsys):
    code = run(
        "find", "--corpus", str(workspace / "corpus.jsonl"),
        "--cues", "inconclusive", "--limit", "0", "--out", str(workspace / "fi0"),
    )
    assert code == 1
    assert "limit" in capsys.readouterr().err


def test_pipeline_k_zero_is_rejected(workspace, capsys):
    args = pipeline_args(workspace, workspace / "k0")
    args[args.index("--k") + 1] = "0"
    assert run(*args) == 1
    assert "k must be positive" in capsys.readouterr().err


def test_threads_zero_is_rejected(workspace, capsys):
    assert run(*pipeline_args(workspace, workspace / "t0"), "--threads", "0") == 1
    assert "threads" in capsys.readouterr().err
    # also where the command runs single-threaded, and from a config file
    corpus = str(workspace / "corpus.jsonl")
    assert run("split", "--corpus", corpus, "--threads", "0", "--out", str(workspace / "s0")) == 1
    config = workspace / "threads0.json"
    config.write_text(json.dumps({"threads": 0}))
    assert run(*pipeline_args(workspace, workspace / "t1"), "--config", str(config)) == 1
    assert "threads" in capsys.readouterr().err


def test_threads_does_not_change_results(workspace):
    from cuelex import tables

    outs = [workspace / f"th{t}" for t in (1, 4)]
    for out, t in zip(outs, ("1", "4")):
        assert run(*pipeline_args(workspace, out), "--threads", t) == 0
    names = sorted(p.name for p in outs[0].glob("*.tsv"))
    assert names and names == sorted(p.name for p in outs[1].glob("*.tsv"))
    for name in names:  # the config digest above the header records the flag
        assert tables.read_tsv(outs[0] / name)[1] == tables.read_tsv(outs[1] / name)[1]


BLAS_PROBE = """
import ctypes, os
import cuelex.cli
from numpy._core import _multiarray_umath
lib = ctypes.CDLL(_multiarray_umath.__file__)
get = getattr(lib, "scipy_openblas_get_num_threads64_", None) or getattr(lib, "openblas_get_num_threads", None)
print(os.environ["OPENBLAS_NUM_THREADS"], get() if get else "unknown")
"""


@pytest.mark.parametrize("given", [None, "2"])
def test_command_process_runs_blas_in_one_thread_unless_told(given):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given:
        env["OPENBLAS_NUM_THREADS"] = given
    probe = [sys.executable, "-c", BLAS_PROBE]
    proc = subprocess.run(probe, env=child_env(env), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    setting, threads = proc.stdout.split()
    if given:
        assert setting == given
    else:  # set before numpy loads OpenBLAS, so the library really runs one thread
        assert setting == "1" and threads in ("1", "unknown")

MISSING_MODELS = ("--model", "a=missing.bin", "--model", "b=missing.bin")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("pipeline", "--k", "0", *MISSING_MODELS), "k must be positive"),
        (("find", "--limit", "0", "--corpus", "missing.jsonl", "--cues", "x"),
         "limit must be positive"),
        (("dataset", "--n-unrelated", "-1", *MISSING_MODELS, "--annotations", "missing.csv"),
         "n_unrelated must be non-negative"),
        (("train", "--folds", "1", "--dataset", "missing.tsv"), "folds must be at least 2"),
        (("expand", "--threads", "0", *MISSING_MODELS), "threads must be positive"),
        (("cluster", "--rng-seed", "-1", "--nodes", "missing.tsv", "--edges", "missing.tsv"),
         "rng_seed must be non-negative"),
        (("pca", "--matrix", "missing.tsv", "--components", "x"), "components: expected int"),
        (("mds", "--matrix", "missing.tsv", "--p", "0.5"), "p must be at least 1, got 0.5"),
        (("mds", "--matrix", "missing.tsv", "--p", "nan"), "p: expected float, got 'nan'"),
        (("cluster", "--resolution", "nan", "--nodes", "missing.tsv", "--edges", "missing.tsv"),
         "resolution: expected float, got 'nan'"),
        (("dataset", "--max-sim", "nan", *MISSING_MODELS, "--annotations", "missing.csv"),
         "max_sim: expected float, got 'nan'"),
        (("cluster", "--resolution", "-2", "--nodes", "missing.tsv", "--edges", "missing.tsv"),
         "resolution must be at least 0, got -2.0"),
    ],
)
def test_settings_are_checked_before_any_input_is_read(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--out", "o") == 1
    err = capsys.readouterr().err
    assert message in err and "not found" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("split", "--corpus", "missing.jsonl"), {"balance": "false"},
         "balance: expected bool, got 'false'"),
        (("expand", *MISSING_MODELS), {"k": True}, "k: expected int, got True"),
        (("cluster", "--nodes", "missing.tsv", "--edges", "missing.tsv"), {"resolution": True},
         "resolution: expected float, got True"),
        (("expand", *MISSING_MODELS), {"k": 2.7}, "k: expected int, got 2.7"),
        (("expand", *MISSING_MODELS), {"k": float("inf")}, "k: expected int, got inf"),
        (("mds", "--matrix", "missing.tsv"), {"p": float("nan")}, "p: expected float, got nan"),
    ],
)
def test_config_values_are_cast_strictly_before_any_input_is_read(
    tmp_path, monkeypatch, capsys, argv, config, message
):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(config))
    assert run(*argv, "--config", "config.json", "--out", "o") == 1
    err = capsys.readouterr().err
    assert message in err and "not found" not in err
    assert not (tmp_path / "o").exists()


def test_config_takes_an_integral_float_for_an_int_and_a_boolean_for_a_switch(workspace):
    config = workspace / "typed.json"  # and one string for a repeatable flag
    config.write_text(json.dumps({"limit": 2.0, "balance": False, "cues": "knowledge"}))
    find = ("find", "--corpus", str(workspace / "corpus.jsonl"))
    outputs = []
    for extra in (("--config", str(config)), ("--limit", "2", "--cues", "knowledge")):
        out = workspace / f"typed{len(outputs)}"
        assert run(*find, *extra, "--out", str(out), "--reproducible") == 0
        outputs.append((out / "sentences.tsv").read_bytes())
    assert outputs[0] == outputs[1]


def test_missing_out_is_reported_before_any_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("split", "--corpus", "missing.jsonl") == 1
    assert "--out is required" in capsys.readouterr().err


NODE_HEADER = "word\tseed\tstatus\tcommunity\tpagerank\n"


def write_graph(root):
    (root / "n.tsv").write_text(NODE_HEADER + "".join(f"{w}\t0\tunrated\t\t\n" for w in "abcd"))
    (root / "e.tsv").write_text("u\tv\tweight\na\tb\t0.9\nc\td\t0.8\nb\tc\t0.1\n")
    return ("--nodes", str(root / "n.tsv"), "--edges", str(root / "e.tsv"))


def test_one_run_makes_its_out_once_and_stamps_one_time(tmp_path, monkeypatch):
    ticks = iter(range(60))

    class Clock(datetime.datetime):  # a new second at every reading
        @classmethod
        def now(cls, tz=None):
            return datetime.datetime(2026, 1, 1, 0, 0, next(ticks), tzinfo=tz)

    made = []
    mkdir = Path.mkdir

    def spy(path, *args, **kwargs):
        made.append(path)
        mkdir(path, *args, **kwargs)

    monkeypatch.setattr(cli, "datetime", Clock)
    monkeypatch.setattr(Path, "mkdir", spy)
    out = tmp_path / "o"
    assert run("cluster", *write_graph(tmp_path), "--out", str(out)) == 0
    assert made == [out]
    times = {p.name: re.findall(r"generated\W+([\w:+-]+)", p.read_text()) for p in out.iterdir()}
    assert sorted(times) == ["cluster_summary.json", "composition.tsv", "nodes_clustered.tsv"]
    assert set(map(tuple, times.values())) == {("2026-01-01T00:00:00+00:00",)}


@pytest.mark.parametrize("out, message", [
    ("n.tsv", "--out is not a directory: n.tsv"),
    ("n.tsv/sub", "cannot make output directory n.tsv/sub: Not a directory"),
])
def test_an_out_that_cannot_be_a_directory_is_an_input_error(tmp_path, monkeypatch, capsys,
                                                              out, message):
    monkeypatch.chdir(tmp_path)
    write_graph(tmp_path)
    nodes = Path("n.tsv").read_bytes()
    # a file named by --out is refused with the settings, before the missing --nodes is found
    nodes_arg = "missing.tsv" if out == "n.tsv" else "n.tsv"
    assert run("cluster", "--nodes", nodes_arg, "--edges", "e.tsv", "--out", out) == 1
    assert capsys.readouterr().err == f"cuelex: error: {message}\n"
    assert Path("n.tsv").read_bytes() == nodes


def spy_model_reads(monkeypatch) -> list:
    """The arguments of every model load or stream in this process, which reads no model."""
    reads = []
    for reader in ("load_model", "stream_model"):
        monkeypatch.setattr(cli.embeddings, reader, lambda *args, **kw: reads.append(args))
    return reads


def test_pipeline_finds_its_corpus_before_any_model_is_read(workspace, monkeypatch, capsys):
    set_cpus(monkeypatch, 1)  # a read would run in this process, where the spy sees it
    loads = spy_model_reads(monkeypatch)
    argv = pipeline_args(workspace, workspace / "po")
    argv[argv.index("--corpus") + 1] = str(workspace / "missing.jsonl")
    assert run(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"cuelex: error: corpus file not found: {workspace / 'missing.jsonl'}\n"
    assert captured.out == "" and loads == []
    assert not (workspace / "po").exists()


def test_unknown_config_key_is_an_input_error(workspace, capsys):
    find = ("find", "--corpus", str(workspace / "corpus.jsonl"), "--cues", "inconclusive")
    config = workspace / "typo.json"
    config.write_text(json.dumps({"limt": 0}))
    assert run(*find, "--config", str(config), "--out", str(workspace / "typo")) == 1
    assert "'limt'" in capsys.readouterr().err
    # a key of another subcommand is allowed: one config file serves a whole pipeline
    config.write_text(json.dumps({"k": 5, "limit": 2, "model": ["m1=m1.bin"]}))
    assert run(*find, "--config", str(config), "--out", str(workspace / "shared")) == 0


@pytest.mark.parametrize("cue", ["**", "may be*"])
def test_find_refuses_a_wildcard_without_a_one_token_stem(workspace, capsys, cue):
    out = workspace / "wild"
    assert run("find", "--corpus", str(workspace / "corpus.jsonl"), "--cues", cue, "--out", str(out)) == 1
    assert "cuelex: error: wildcard pattern" in capsys.readouterr().err
    assert not (out / "sentences.tsv").exists()


def test_config_digest_hashes_effective_values(workspace):
    find = ("find", "--corpus", str(workspace / "corpus.jsonl"), "--cues", "inconclusive")
    config = workspace / "limit10.json"
    config.write_text(json.dumps({"limit": 10}))
    runs = {
        "default": (),
        "flag": ("--limit", "10"),
        "config": ("--config", str(config)),
        "flag_over_config": ("--config", str(config), "--limit", "9"),
    }
    outputs = {}
    for name, extra in runs.items():
        out = workspace / f"digest_{name}"
        assert run(*find, *extra, "--out", str(out), "--reproducible") == 0
        outputs[name] = (out / "sentences.tsv").read_bytes()
    # the same effective limit gives the same bytes, config digest included,
    # wherever the value came from; another limit gives another digest
    assert outputs["default"] == outputs["flag"] == outputs["config"]
    assert outputs["flag_over_config"] != outputs["default"]


def test_config_zero_is_not_replaced_by_default(workspace, capsys):
    config = workspace / "limit0.json"
    config.write_text(json.dumps({"limit": 0}))
    code = run(
        "find", "--corpus", str(workspace / "corpus.jsonl"), "--cues", "inconclusive",
        "--config", str(config), "--out", str(workspace / "fc0"),
    )
    assert code == 1
    assert "limit" in capsys.readouterr().err


def test_rank_damping_zero_is_used(workspace):
    pairs = graph_inputs(workspace)
    gdir = workspace / "g0"
    assert run(
        "graph", "--pairs", pairs[0], "--pairs", pairs[1],
        "--seeds", str(workspace / "seeds.txt"), "--out", str(gdir), "--reproducible",
    ) == 0
    rdir = workspace / "r0"
    assert run(
        "rank", "--nodes", str(gdir / "nodes.tsv"), "--edges", str(gdir / "edges.tsv"),
        "--damping", "0", "--out", str(rdir), "--reproducible",
    ) == 0
    lines = (rdir / "nodes_ranked.tsv").read_text().splitlines()
    rows = [r for r in lines if r and not r.startswith("#")]
    ranks = [float(r.split("\t")[4]) for r in rows[1:]]
    # no damping: every node gets only the uniform teleport share
    assert ranks == pytest.approx([1 / len(ranks)] * len(ranks))


# --- table rows and seeds -------------------------------------------------------


def build_dataset(workspace, words, out):
    """dataset over models that know ``words``; annotations accept the first and reject the last."""
    shared = ["seeda", "seedb", *words]
    make_model_file(workspace / "h1.bin", seed=31, shared=shared)
    make_model_file(workspace / "h2.bin", seed=32, shared=shared)
    labels = workspace / "hash_labels.csv"
    rows = [f"{w},pos,pos" for w in words[:-1]] + [f"{words[-1]},neg,neg"]
    labels.write_text("word,judge1,judge2\n" + "\n".join(rows) + "\n")
    return run(
        "dataset", "--model", f"h1={workspace / 'h1.bin'}", "--model", f"h2={workspace / 'h2.bin'}",
        "--annotations", str(labels), "--seeds", str(workspace / "seeds.txt"),
        "--n-unrelated", "4", "--max-sim", "0.95", "--out", str(out), "--reproducible",
    )


def train_args(dataset, out, *extra):
    return [
        "train", "--dataset", str(dataset), "--classifiers", "knn:k=1", "--folds", "2",
        "--out", str(out), "--reproducible", *extra,
    ]


def test_dataset_then_train_keeps_words_that_start_with_hash(workspace):
    ddir = workspace / "hash_ds"
    assert build_dataset(workspace, ["##th", "canda", "candc"], ddir) == 0
    assert "##th\t1\t" in (ddir / "dataset.tsv").read_text()
    assert run(*train_args(ddir / "dataset.tsv", workspace / "hash_tr")) == 0


@pytest.mark.parametrize("bad_row", ["canda\t1", "canda\tyes\t00"])
def test_malformed_dataset_row_is_an_input_error_at_its_line(workspace, capsys, bad_row):
    ddir = workspace / "bad_ds"
    assert build_dataset(workspace, ["canda", "candb", "candc"], ddir) == 0
    path = ddir / "dataset.tsv"
    lines = path.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("canda\t"))
    lines[row] = bad_row
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(*train_args(path, workspace / "bad_tr")) == 1
    assert f"dataset.tsv:{row + 1}:" in capsys.readouterr().err


def test_negative_rng_seed_is_rejected(workspace, capsys):
    ddir = workspace / "seed_ds"
    assert build_dataset(workspace, ["canda", "candb", "candc"], ddir) == 0
    dataset = ddir / "dataset.tsv"
    capsys.readouterr()
    args = train_args(dataset, workspace / "neg_tr", "--classifiers", "mlp:epochs=2")
    assert run(*args, "--rng-seed", "-1") == 1
    assert "rng_seed" in capsys.readouterr().err
    assert run(*args, "--rng-seed", "0") == 0

    pairs = graph_inputs(workspace)
    gdir = workspace / "seed_g"
    assert run(
        "graph", "--pairs", pairs[0], "--pairs", pairs[1],
        "--seeds", str(workspace / "seeds.txt"), "--out", str(gdir),
    ) == 0
    graph = ("--nodes", str(gdir / "nodes.tsv"), "--edges", str(gdir / "edges.tsv"))
    capsys.readouterr()
    assert run("cluster", *graph, "--out", str(workspace / "neg_c"), "--rng-seed", "-1") == 1
    assert "rng_seed" in capsys.readouterr().err
    assert run("cluster", *graph, "--out", str(workspace / "zero_c"), "--rng-seed", "0") == 0


def test_sentences_with_tabs_and_line_breaks_stay_one_tsv_row(tmp_path):
    from cuelex import tables

    corpus = tmp_path / "c.jsonl"
    text = "Results were\tinconclusive\rhere. Other text."
    corpus.write_text(json.dumps({"id": "d1", "text": text}) + "\n")
    runs = (("find", "--cues", "sentences"), ("split", "--indicators", "s_plus"))
    for command, flag, stem in runs:
        out = tmp_path / command
        assert run(command, "--corpus", str(corpus), flag, "inconclusive", "--out", str(out)) == 0
        _, rows = tables.read_tsv(out / f"{stem}.tsv")
        assert rows[0][1][-1] == "Results were inconclusive here."
    # the JSON twin keeps the raw text
    rows = json.loads((tmp_path / "find" / "sentences.json").read_text())["rows"]
    assert rows[0]["sentence"] == "Results were\tinconclusive\rhere."


def test_word_files_keep_words_that_start_with_hash(tmp_path):
    words = tmp_path / "w.txt"
    words.write_text("# cue words\n##th\nknowledge  # trailing note\nc#\n#\n")
    assert cli._patterns_arg(f"@{words}", "words") == ["##th", "knowledge", "c#"]


def test_rank_damping_range_is_checked_before_any_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ("rank", "--damping", "1", "--nodes", "missing.tsv", "--edges", "missing.tsv")
    assert run(*argv, "--out", "o") == 1
    err = capsys.readouterr().err
    assert "damping must be in [0, 1), got 1.0" in err and "not found" not in err
    assert not (tmp_path / "o").exists()


def test_model_format_is_checked_before_any_model_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("expand", *MISSING_MODELS, "--model-format", "b=txt", "--out", "o") == 1
    err = capsys.readouterr().err
    assert "model_format must be one of binary, text, got 'txt'" in err and "not found" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--model", "a=m1.bin", "--model", "a=m2.bin"), "--model names a model more than once: a"),
        (
            (*MISSING_MODELS, "--model-format", "a=txt", "--model-format", "a=text"),
            "model_format must be one of binary, text, got 'txt'",
        ),
        (
            (*MISSING_MODELS, "--model-format", "a=text", "--model-format", "a=binary"),
            "--model-format names a model more than once: a",
        ),
        (
            (*MISSING_MODELS, "--model-format", "text", "--model-format", "binary"),
            "--model-format names a model more than once: (bare format)",
        ),
    ],
)
def test_a_repeated_model_or_any_bad_format_is_refused_before_any_model_is_read(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    make_model_file(tmp_path / "m1.bin", 1)
    make_model_file(tmp_path / "m2.bin", 2)
    for command in ("expand", "pipeline"):
        assert run(command, *argv, "--out", "o") == 1
        err = capsys.readouterr().err
        assert message in err and "not found" not in err
        assert not (tmp_path / "o").exists()


def test_model_format_must_name_a_model(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("expand", *MISSING_MODELS, "--model-format", "zz=text", "--out", "o") == 1
    err = capsys.readouterr().err
    assert "--model-format names no --model: zz" in err and "not found" not in err
    assert run("expand", *MISSING_MODELS, "--model-format", "a=text", "--out", "o") == 1
    assert "missing.bin" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("knn:kk=5", "knn has no parameter 'kk'"),
        ("mlp:hidden=2", "mlp has no parameter 'hidden'"),
        ("gaussian_nb:k=3", "gaussian_nb has no parameter 'k'"),
        ("knn:k=2.5", "knn: k must be a positive int (k >= 1), got 2.5"),
        ("logistic_sgd:epochs=-5", "logistic_sgd: epochs must be a positive int"),
        ("logistic_sgd:lr=-1", "logistic_sgd: lr must be a positive float"),
        ("mlp:hidden_width=0", "mlp: hidden_width must be a positive int"),
        ("knn:k=3,logistic_sgd,batch=0", "logistic_sgd: batch must be a positive int"),
        ("boost:depth=2", "unknown classifier kind 'boost'"),
        ("mlp:rng_seed=4", "mlp has no parameter 'rng_seed'"),
        ("knn:k=3,k=4", "knn(k=3,k=4): a parameter is given twice"),
        ("knn:k=3.0", "knn: k must be a positive int (k >= 1), got 3.0"),
        ("logistic_sgd:lr=1e999", "logistic_sgd: lr must be a positive float (0 < lr < inf)"),
        (" , ", "no classifier spec"),
    ],
)
def test_bad_classifier_spec_fails_before_the_dataset_is_read(
    tmp_path, monkeypatch, capsys, spec, message
):
    monkeypatch.chdir(tmp_path)
    assert run("train", "--dataset", "missing.tsv", "--classifiers", spec, "--out", "o") == 1
    err = capsys.readouterr().err
    assert f"cuelex: error: {message}" in err and "missing" not in err


def test_every_model_spec_is_checked_before_any_model_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("expand", "--model", "a=missing.bin", "--model", "b.bin", "--out", "o") == 1
    err = capsys.readouterr().err
    assert "--model must look like \"name=path\", got 'b.bin'" in err and "not found" not in err


# --- text inputs ------------------------------------------------------------------

NODES = b"word\tseed\tstatus\tcommunity\tpagerank\nseeda\t1\tunrated\t\t\n"
FEATURES = io.BytesIO()
np.save(FEATURES, np.zeros((1, 2)))
# each kind of text input: the files to write, the one of them that holds a byte
# that is not UTF-8 (0xff), the name its errors give it, and a command that reads it
TEXT_INPUTS = {
    "seeds": ({"s.txt": b"seeda\nseed\xffb\n"}, "seed lexicon",
              ("expand", "--model", "m1=m1.bin", "--seeds", "s.txt")),
    "jsonl corpus": ({"c.jsonl": b'{"id": "d", "text": "A \xff."}\n'}, "corpus",
                     ("find", "--corpus", "c.jsonl", "--cues", "a")),
    "directory corpus": ({"docs/a.txt": b"Fine.", "docs/b.txt": b"A \xff."}, "corpus",
                         ("find", "--corpus", "docs", "--cues", "a")),
    "annotations": ({"a.csv": b"word,judge1,judge2\n\xff,pos,pos\n"}, "annotations",
                    ("agree", "--annotations", "a.csv")),
    "pairs TSV": ({"p.tsv": b"seed\tcandidate\tsimilarity\tmodel\ns\t\xff\t0.5\tm\n"}, "pairs",
                  ("intersect", "--pairs", "p.tsv", "--pairs", "p.tsv")),
    "node TSV": ({"n.tsv": NODES + b"\xff\t0\t\t\t\n", "e.tsv": b"u\tv\tweight\n"}, "node",
                 ("export", "--nodes", "n.tsv", "--edges", "e.tsv")),
    "edge TSV": ({"n.tsv": NODES, "e.tsv": b"u\tv\tweight\nseeda\t\xff\t1\n"}, "edge",
                 ("export", "--nodes", "n.tsv", "--edges", "e.tsv")),
    "score matrix TSV": ({"m.tsv": b"word\ta\n\xff\t1\n"}, "score matrix",
                         ("pca", "--matrix", "m.tsv")),
    "dataset TSV": ({"d/dataset.tsv": b"word\tlabel\toov_flags\n\xff\t1\t00\n",
                     "d/dataset_features.npy": FEATURES.getvalue()}, "dataset",
                    ("train", "--dataset", "d/dataset.tsv")),
    "@file word list": ({"w.txt": b"seeda\n\xff\n"}, "cues",
                        ("find", "--corpus", "corpus.jsonl", "--cues", "@w.txt")),
    "config": ({"c.json": b'{"limit": 2, "out": "\xff"}'}, "config",
               ("find", "--corpus", "corpus.jsonl", "--cues", "a", "--config", "c.json")),
    "candidates JSON": ({"c.json": b'{"candidates": ["\xff"]}'}, "candidate",
                        ("score", "--candidates", "c.json", "--corpus", "corpus.jsonl")),
    "group manifest": ({"g.json": b'{"g": "\xff.jsonl"}'}, "collection manifest",
                       ("rates", "--groups", "g.json")),
    "text model": ({"t.txt": b"1 2\n\xff 0.5 0.5\n"}, "text model",
                   ("expand", "--model", "t=t.txt", "--model-format", "text")),
}


@pytest.mark.parametrize("kind", TEXT_INPUTS)
def test_a_text_input_that_is_not_utf8_is_an_input_error_naming_it(
    workspace, monkeypatch, capsys, kind
):
    files, what, argv = TEXT_INPUTS[kind]
    monkeypatch.chdir(workspace)
    for name, content in files.items():
        Path(name).parent.mkdir(exist_ok=True)
        Path(name).write_bytes(content)
    bad = next(name for name, content in files.items() if b"\xff" in content)
    assert run(*argv, "--out", "o") == 1
    err = capsys.readouterr().err
    assert err == f"cuelex: error: invalid UTF-8 in {what}: {bad}\n"


# --- input errors -----------------------------------------------------------------

FIND = ("find", "--corpus", "corpus.jsonl", "--cues", "a")
GRAPH = ("export", "--nodes", "n.tsv", "--edges", "e.tsv")
# each: the files to write, a command that reads them, and its one error message
INPUT_ERRORS = {
    "config list": ({"c.json": "[1]"}, (*FIND, "--config", "c.json"),
                    "c.json: config must be a JSON object"),
    "config not JSON": ({"c.json": "{"}, (*FIND, "--config", "c.json"), "c.json: invalid JSON"),
    "one pairs file": ({}, ("intersect", "--pairs", "p.tsv"),
                       "intersect needs at least two --pairs files"),
    "cues of commas": ({}, ("find", "--corpus", "corpus.jsonl", "--cues", ","), "empty cues"),
    "empty cues file": ({"w.txt": "# none\n"}, ("find", "--corpus", "corpus.jsonl", "--cues",
                                                  "@w.txt"), "cues file is empty: w.txt"),
    "corpus line not JSON": ({"c.jsonl": "{oops\n"}, ("find", "--corpus", "c.jsonl", "--cues", "a"),
                             "c.jsonl:1: invalid JSON"),
    "corpus without .txt": ({"docs/a.md": "A."}, ("find", "--corpus", "docs", "--cues", "a"),
                            "no .txt files in docs"),
    "manifest list": ({"g.json": "[]"}, ("rates", "--groups", "g.json"),
                      "g.json: manifest must map group ids to corpus paths"),
    "empty annotations": ({"a.csv": ""}, ("agree", "--annotations", "a.csv"),
                          "empty annotations file: a.csv"),
    "annotations row of 2": ({"a.csv": "word,judge1,judge2\nw,pos\n"},
                             ("agree", "--annotations", "a.csv"), "a.csv:2: expected 3 fields"),
    "classifier param": ({}, ("train", "--dataset", "d.tsv", "--classifiers", "knn:k=x"),
                         "bad classifier parameter value 'x'"),
    "matrix header only": ({"m.tsv": "word\ta\tb\n"}, ("pca", "--matrix", "m.tsv"),
                           "score matrix needs a header and at least one row: m.tsv"),
    "no feature matrix": ({"d/dataset.tsv": "word\tlabel\toov_flags\nw\t1\t0\n"},
                          ("train", "--dataset", "d/dataset.tsv"),
                          "missing feature matrix next to dataset: d/dataset_features.npy"),
    "matrix a row short": ({"d/dataset.tsv": "word\tlabel\toov_flags\nw\t1\t0\nv\t0\t0\n",
                            "d/dataset_features.npy": FEATURES.getvalue()},
                           ("train", "--dataset", "d/dataset.tsv"),
                           "dataset row count does not match the feature matrix"),
    "seed line of a tab": ({"s.txt": "\thedging\n"},
                           ("expand", "--model", "m1=m1.bin", "--seeds", "s.txt"),
                           "s.txt:1: entry without a surface"),
    "model header 0 5": ({"z.bin": "0 5\n"}, ("expand", "--model", "z=z.bin"),
                         "malformed header (non-positive sizes): z.bin"),
    # a path that exists but is not a file
    "corpus subdirectory": ({"docs/a.txt": "A.", "docs/x.txt/b.txt": "B."},
                            ("find", "--corpus", "docs", "--cues", "a"),
                            "corpus is not a file: docs/x.txt"),
    "seeds directory": ({"sd/a.txt": "a"}, ("expand", "--model", "m1=m1.bin", "--seeds", "sd"),
                        "seed lexicon is not a file: sd"),
    "model directory": ({"md/a.txt": "a"}, ("expand", "--model", "a=md"),
                        "model is not a file: md"),
    # graph TSVs are read strictly
    "repeated node": ({"n.tsv": NODE_HEADER + "a\t1\taccepted\t\t\na\t0\trejected\t\t\n",
                       "e.tsv": "u\tv\tweight\n"}, GRAPH, "n.tsv:3: 'a' is already a node"),
    "community on some rows": ({"n.tsv": NODE_HEADER + "a\t1\taccepted\t0\t\nb\t0\tunrated\t\t\n",
                                "e.tsv": "u\tv\tweight\na\tb\t0.5\n"},
                               GRAPH, "n.tsv:3: community is empty here and filled on other rows"),
    "pagerank on some rows": ({"n.tsv": NODE_HEADER + "a\t1\taccepted\t\t\nb\t0\tunrated\t\t0.5\n",
                               "e.tsv": "u\tv\tweight\na\tb\t0.5\n"},
                              GRAPH, "n.tsv:2: pagerank is empty here and filled on other rows"),
    **{f"pagerank {value}": (
        {"n.tsv": NODE_HEADER + f"a\t1\taccepted\t\t0.5\nb\t0\tunrated\t\t{value}\n",
         "e.tsv": "u\tv\tweight\na\tb\t0.5\n"},
        GRAPH, f"n.tsv:3: pagerank must be in [0, 1], got '{value}'",
    ) for value in ("nan", "-3", "1.5", "inf")},
    "edge to no node": ({"n.tsv": NODE_HEADER + "a\t1\taccepted\t\t\n",
                         "e.tsv": "u\tv\tweight\na\tzz\t0.5\n"},
                        GRAPH, "e.tsv:2: edge endpoint 'zz' is not a node"),
    "seed not 0 or 1": ({"n.tsv": NODE_HEADER + "a\t1\taccepted\t\t\nb\tyes\tunrated\t\t\n",
                         "e.tsv": "u\tv\tweight\n"}, GRAPH, "n.tsv:3: seed must be 0 or 1, got 'yes'"),
    # a Partition's k ids are 0 to k - 1
    **{f"communities {a} and {b}": (
        {"n.tsv": NODE_HEADER + f"a\t1\taccepted\t{a}\t\nb\t0\tunrated\t{b}\t\n",
         "e.tsv": "u\tv\tweight\na\tb\t0.5\n"},
        GRAPH, f"n.tsv:{n}: community must be in [0, 2), got '{bad}'",
    ) for a, b, n, bad in (("-5", "7", 2, "-5"), ("0", "2", 3, "2"))},
    "repeated edge": ({"n.tsv": NODE_HEADER + "a\t1\taccepted\t\t\nb\t0\tunrated\t\t\n",
                       "e.tsv": "u\tv\tweight\na\tb\t0.5\nb\ta\t0.7\n"},
                      GRAPH, "e.tsv:3: the edge 'b'-'a' repeats line 2"),
    # score needs every seed the candidates credit
    "seed not in lexicon": ({"c.json": json.dumps({"candidates": [
        {"word": "ghost", "models": {"m1": {"similarity": 0.5, "seeds": ["seedc"]}}}]})},
        ("score", "--candidates", "c.json", "--corpus", "corpus.jsonl", "--seeds", "seeds.txt"),
        "candidate 'ghost': no seed with surface 'seedc' in the seed lexicon"),
}


@pytest.mark.parametrize("case", INPUT_ERRORS)
def test_an_input_error_is_one_line_and_exit_1(workspace, monkeypatch, capsys, case):
    files, argv, message = INPUT_ERRORS[case]
    monkeypatch.chdir(workspace)
    for name, content in files.items():
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        (Path(name).write_bytes if isinstance(content, bytes) else Path(name).write_text)(content)
    assert run(*argv, "--out", "o") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cuelex: error: {message}") and err.count("\n") == 1, err
    assert not Path("o").exists()


# --- one worker per model ---------------------------------------------------------


def model_run_args(command, workspace, models, out):
    args = [command, "--seeds", str(workspace / "seeds.txt"), "--out", str(out)]
    for name, path in models.items():
        args += ["--model", f"{name}={path}"]
    if command in ("expand", "pipeline"):
        args += ["--k", "8"]
    if command == "pipeline":
        args += ["--corpus", str(workspace / "corpus.jsonl")]
    return args + ["--reproducible", "--rng-seed", "7"]


@pytest.mark.parametrize("command", ["expand", "pipeline", "dataset"])
def test_a_missing_model_fails_before_any_model_is_read(workspace, monkeypatch, capsys, command):
    set_cpus(monkeypatch, 1)  # a read would run in this process, where the spy sees it
    loads = spy_model_reads(monkeypatch)
    models = {"a": workspace / "m1.bin", "b": workspace / "missing.bin"}
    extra = ("--annotations", str(workspace / "labels.csv")) if command == "dataset" else ()
    assert run(*model_run_args(command, workspace, models, workspace / "o"), *extra) == 1
    assert f"model file not found: {workspace / 'missing.bin'}" in capsys.readouterr().err
    assert loads == []


@pytest.mark.parametrize("command", ["expand", "pipeline", "dataset"])
@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../x", "a\\b", "a b", "a\tb", "a\x00b", "a\x7f"])
def test_an_empty_or_path_like_model_name_fails_before_any_model_is_read(
        workspace, monkeypatch, capsys, command, name):
    set_cpus(monkeypatch, 1)  # a read would run in this process, where the spy sees it
    loads = spy_model_reads(monkeypatch)
    models = {"a": workspace / "m1.bin", name: workspace / "m2.bin"}
    labels = workspace / "labels.csv"
    labels.write_text("word,judge1,judge2\ncanda,pos,pos\ncandc,neg,neg\n")
    extra = ("--annotations", str(labels)) if command == "dataset" else ()
    assert run(*model_run_args(command, workspace, models, workspace / "o"), *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("cuelex: error: a --model name must be non-empty")
    assert err.endswith(f"got {name + '=' + str(workspace / 'm2.bin')!r}\n")
    assert loads == [] and not (workspace / "o").exists()


def test_expand_opens_each_model_file_once_to_scan_it_and_once_to_read_it(workspace, monkeypatch):
    set_cpus(monkeypatch, 1)  # both expansions run in this process, where the spy sees them
    opened = []

    def spy(path, *args, **kw):
        opened.append(Path(path).name)
        return open(path, *args, **kw)

    monkeypatch.setattr(cli.embeddings, "open", spy, raising=False)
    seeds = workspace / "five.txt"
    seeds.write_text("".join(f"{w}\tscientific\n" for w in ("seeda", "seedb", "canda", "candb", "candc")))
    argv = model_run_args("expand", workspace, {"a": workspace / "m1.bin", "b": workspace / "m2.bin"},
                          workspace / "o")
    argv[argv.index("--seeds") + 1] = str(seeds)
    assert run(*argv) == 0
    assert sorted(opened) == ["m1.bin", "m1.bin", "m2.bin", "m2.bin"]


def dataset_args(workspace, labels, *extra):
    models = {"a": workspace / "m1.bin", "b": workspace / "m2.bin"}
    args = model_run_args("dataset", workspace, models, workspace / "ds")
    return [*args, "--annotations", str(labels), "--n-unrelated", "4", "--max-sim", "0.95", *extra]


@pytest.mark.parametrize(
    "rows, extra, message",
    [
        (None, (), "annotations file not found: {labels}"),
        ("seeda,pos,pos\ncandc,neg,neg\n", ("--include-seeds",),
         "overlapping lists accepted/seeds: ['seeda']"),
        ("canda,pos,pos\nseedb,neg,neg\n", ("--include-seeds",),
         "overlapping lists rejected/seeds: ['seedb']"),
        ("canda,pos,neg\ncandc,neg,neg\n", (), "degenerate dataset: needs both positive and negative"),
        ("canda,pos,pos\ncandc,pos,neg\n", ("--n-unrelated", "0"),
         "degenerate dataset: needs both positive and negative"),
        ("canda,pos,pos\n", ("--seeds", "{empty}"), "empty.txt"),
    ],
    ids=["missing-file", "accepted-seed", "rejected-seed", "no-positives", "no-negatives",
         "empty-seeds"],
)
def test_bad_dataset_lists_fail_before_any_model_is_read(
    workspace, monkeypatch, capsys, rows, extra, message
):
    set_cpus(monkeypatch, 1)
    loads = spy_model_reads(monkeypatch)
    labels, empty = workspace / "labels.csv", workspace / "empty.txt"
    empty.write_text("# no entries\n")
    if rows is not None:
        labels.write_text("word,judge1,judge2\n" + rows)
    extra = [arg.format(empty=empty) for arg in extra]
    assert run(*dataset_args(workspace, labels, *extra)) == 1
    assert message.format(labels=labels) in capsys.readouterr().err
    assert loads == []


@pytest.mark.parametrize("command", ["expand", "pipeline", "dataset"])
def test_a_model_is_freed_before_the_next_one_is_loaded(workspace, monkeypatch, command):
    import weakref

    set_cpus(monkeypatch, 1)  # the reads run in this process, where the spy sees them
    real, held, alive_at_load = cli.embeddings.stream_model, [], []

    def load(*args, **kw):
        alive_at_load.append([ref().name for ref in held if ref() is not None])
        model = real(*args, **kw)
        held.append(weakref.ref(model))
        return model

    monkeypatch.setattr(cli.embeddings, "stream_model", load)
    make_model_file(workspace / "m3.bin", seed=303, shared=["seeda", "seedb", "canda", "candc"])
    models = {f"m{i}": workspace / f"m{i}.bin" for i in (1, 2, 3)}
    labels = workspace / "labels.csv"
    labels.write_text("word,judge1,judge2\ncanda,pos,pos\ncandc,neg,neg\n")
    if command == "dataset":
        args = [*dataset_args(workspace, labels), "--model", f"m3={models['m3']}"]
    else:
        args = model_run_args(command, workspace, models, workspace / "o")
    assert run(*args) == 0
    assert alive_at_load == [[], [], []]


def run_and_read(argv, out, capsys):
    """Exit code, stdout and every file ``argv`` writes into a fresh ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    code = run(*argv)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, capsys.readouterr().out, files


@pytest.mark.parametrize("command", ["expand", "pipeline"])
def test_model_workers_write_the_same_bytes_on_one_or_two_cpus(
    workspace, monkeypatch, capsys, forks, command
):
    shared = ["seeda", "seedb", "canda", "candb", "candc", "knowledge"]
    make_model_file(workspace / "m3.bin", seed=303, shared=shared)
    out = workspace / "cpus"
    for n_models in (2, 3):
        models = {f"m{i}": workspace / f"m{i}.bin" for i in range(1, n_models + 1)}
        runs = []
        for n_cpus in (1, 2):
            set_cpus(monkeypatch, n_cpus)
            runs.append(run_and_read(model_run_args(command, workspace, models, out), out, capsys))
        assert runs[0] == runs[1] and runs[0][0] == 0
        assert {f"pairs_{name}.tsv" for name in models} <= set(runs[0][2])
    assert len(forks) == 2 + 2  # two workers for two models, and two for three
    assert no_child_left()


def duplicate_token_model(workspace):
    from cuelex.embeddings import load_model

    model = load_model(workspace / "m1.bin")
    path = workspace / "dup.bin"
    vectors = np.vstack([model.vectors, model.vectors[-1:]])
    write_binary(path, [*model.vocab, model.vocab[-1]], vectors)
    return path


@pytest.mark.parametrize("action", ["always", "default"])
def test_a_model_worker_warning_shows_once_here_at_load_model(
    workspace, monkeypatch, capsys, action
):
    import inspect

    from cuelex import embeddings

    models = {"a": duplicate_token_model(workspace), "b": workspace / "m2.bin"}
    # the one warning line of both readers, and the worker streams the model
    source, first = inspect.getsourcelines(embeddings._duplicate_rows)
    warn_line = first + next(i for i, ln in enumerate(source) if "warnings.warn(" in ln)
    seen = []
    for n_cpus in (1, 2):
        set_cpus(monkeypatch, n_cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert run(*model_run_args("pipeline", workspace, models, workspace / "w")) == 0
        seen.append([(w.category, w.filename, w.lineno, str(w.message)) for w in caught])
    assert seen[0] == seen[1]
    ((category, filename, lineno, message),) = seen[1]
    assert (category, filename, lineno) == (UserWarning, embeddings.__file__, warn_line)
    assert "dup.bin: dropped 1 duplicate token(s)" in message
    assert no_child_left()


def test_a_model_worker_warning_as_error_raises_here(workspace, monkeypatch, capsys):
    models = {"a": duplicate_token_model(workspace), "b": workspace / "m2.bin"}
    for n_cpus in (1, 2):
        set_cpus(monkeypatch, n_cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*model_run_args("pipeline", workspace, models, workspace / "e")) == 2
        err = capsys.readouterr().err
        assert "internal failure" in err and "UserWarning: " in err and "dropped 1 duplicate" in err
    assert no_child_left()


def test_a_bad_model_fails_in_a_worker_as_in_a_serial_loop(workspace, monkeypatch, capsys):
    bad_a, bad_b = workspace / "bad_a.bin", workspace / "bad_b.bin"
    bad_a.write_bytes(b"abc def\nxx")
    bad_b.write_bytes(b"3 2\nab")
    for a, expected in (
        (workspace / "m1.bin",
         f"header declares 3 records of dimension 2, more than the 2 bytes after it hold: {bad_b}"),
        (bad_a, f"malformed header b'abc def': {bad_a}"),  # both bad: a's error, as a loop gives
    ):
        errors = []
        for n_cpus in (1, 2):
            set_cpus(monkeypatch, n_cpus)
            args = model_run_args("pipeline", workspace, {"a": a, "b": bad_b}, workspace / "bad")
            assert run(*args) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"cuelex: error: {expected}\n"
    assert no_child_left()


def test_a_killed_model_worker_is_an_internal_failure(workspace, monkeypatch, capsys):
    set_cpus(monkeypatch, 2)
    parent, real = os.getpid(), cli.embeddings.stream_model

    def stream(path, name):
        if name == "m2" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(path, name=name)

    monkeypatch.setattr(cli.embeddings, "stream_model", stream)
    assert run(*pipeline_args(workspace, workspace / "killed")) == 2
    err = capsys.readouterr().err
    assert "internal failure" in err and "ended with status -9" in err
    assert no_child_left()


# Runs a command pinned to one CPU, and prints its exit status and its wait4 max RSS in
# KiB.  Linux carries a process's peak RSS across fork and exec into the child, so the
# command is started from this small interpreter, not from the test process.
PEAK_PROBE = """
import os, subprocess, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def wait4_peak(*code) -> int:
    """Bytes of the wait4 max RSS of ``python -c *code`` on one CPU, which must exit 0."""
    cpu = str(min(os.sched_getaffinity(0)))
    proc = subprocess.run([sys.executable, "-c", PEAK_PROBE, cpu, sys.executable, "-c", *code],
                          env=child_env(), capture_output=True, text=True, check=True)
    status, kib = map(int, proc.stdout.split())
    assert status == 0, proc.stderr
    return kib * 1024


def large_model(tmp_path):
    """A 20,000 x 300 binary model (24 MB) and its tokens."""
    tokens = random_tokens(random.Random(23), 20_000)
    vectors = np.random.default_rng(23).standard_normal((len(tokens), 300)).astype(np.float32)
    write_binary(tmp_path / "m.bin", tokens, vectors)
    return tmp_path / "m.bin", tokens


MAIN = "import sys; from cuelex.cli import main; sys.exit(main())"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a child to one CPU")
def test_expand_never_holds_the_matrix_of_a_binary_model(tmp_path):
    # On one CPU the model is expanded in the command process, where wait4 sees it.
    model, tokens = large_model(tmp_path)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("".join(f"{token.lower()}\n" for token in tokens[:20]))
    bare = wait4_peak("import numpy, cuelex.cli, cuelex.embeddings, cuelex.expansion, cuelex.workers")
    command = wait4_peak(MAIN, "expand", "--model", f"m={model}", "--seeds", str(seeds),
                         "--k", "50", "--out", str(tmp_path / "out"))
    from cuelex import tables

    assert tables.read_tsv(tmp_path / "out" / "skipped_m.tsv")[1] == []  # every seed was expanded
    assert (command - bare) / model.stat().st_size <= 0.25


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a child to one CPU")
def test_dataset_never_holds_the_matrix_of_a_binary_model(tmp_path):
    model, tokens = large_model(tmp_path)
    folded = list({token.lower(): None for token in tokens})
    seeds, labels = tmp_path / "seeds.txt", tmp_path / "labels.csv"
    seeds.write_text("".join(f"{word}\n" for word in folded[:20]))
    labels.write_text("word,judge1,judge2\n" + "".join(
        f"{word},{judge},{judge}\n" for word, judge in zip(folded[20:220], ["pos", "neg"] * 100)))
    bare = wait4_peak("import numpy, cuelex.cli, cuelex.classify, cuelex.embeddings, cuelex.expansion")
    out = tmp_path / "out"
    command = wait4_peak(MAIN, "dataset", "--model", f"m={model}", "--seeds", str(seeds),
                         "--annotations", str(labels), "--n-unrelated", "100", "--out", str(out))
    summary = json.loads((out / "dataset_summary.json").read_text())
    assert (summary["n_examples"], summary["n_unrelated"]) == (300, 100)
    assert (command - bare) / model.stat().st_size <= 0.25


# --- dataset streams a binary model ---------------------------------------------------


def streamed_case_models(root, seed, n_models, n_rows, dim):
    """Binary models with case variants, a repeated token, zero rows, and words later models lack.

    Returns the model paths and the first model's tokens.
    """
    rng = random.Random(seed)
    tokens = random_tokens(rng, n_rows)
    tokens += [t.upper() for t in rng.sample(tokens, 3) if t.upper() not in tokens]
    paths, first = [], None
    for i in range(n_models):
        kept = tokens if i == 0 else [t for t in tokens if rng.random() < 0.7]
        kept = [*kept, kept[rng.randrange(len(kept))]]  # a repeat: its later row is dropped
        vectors = np.array([[rng.gauss(0, 1) for _ in range(dim)] for _ in kept], dtype=np.float32)
        vectors[[rng.randrange(len(kept)) for _ in range(3)]] = 0.0
        paths.append(root / f"m{i}.bin")
        write_binary(paths[-1], kept, vectors, record_newlines=rng.random() < 0.5)
        first = first or kept
    return paths, first


def outcome(fn):
    """What ``fn()`` returns, or the type and message of the ``CuelexError`` it raises."""
    try:
        return fn()
    except CuelexError as exc:
        return type(exc), str(exc)


def dataset_run(argv, out, stream: bool):
    """Exit code, stdout, stderr, warnings and artifacts of a ``dataset`` run.

    Unless ``stream``, each binary model is loaded in place of being streamed.
    """
    from contextlib import redirect_stderr, redirect_stdout

    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("always")
        if not stream:
            load = cli.embeddings.load_model
            mp.setattr(cli.embeddings, "stream_model", lambda path, name: load(path, name=name))
        code = run(*argv)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught], files


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_models=st.integers(1, 3),
    n_rows=st.sampled_from([12, 40, 300]),  # 300 rows: a draw of more than one 256-row part
    n_unrelated=st.integers(0, 6),
    max_sim=st.sampled_from([0.05, 0.2, 0.6, 0.95]),
    include_seeds=st.booleans(),
)
def test_dataset_streams_a_binary_model_as_load_model_reads_it(
    tmp_path_factory, seed, n_models, n_rows, n_unrelated, max_sim, include_seeds
):
    from cuelex.classify import sample_unrelated
    from cuelex.embeddings import load_model, stream_model
    from cuelex.expansion import load_seed_lexicon

    root = tmp_path_factory.mktemp("streamed")
    rng = random.Random(seed)
    paths, tokens = streamed_case_models(root, seed, n_models, n_rows, dim=rng.randint(2, 4))
    keys = list({t.lower(): t for t in tokens}.values())
    rng.shuffle(keys)
    seeds, labels = root / "seeds.txt", root / "labels.csv"
    seeds.write_text("".join(f"{t.lower()}\n" for t in keys[:2]))
    words = [rng.choice([t, t.lower(), t.upper()]) for t in keys[2:8]] + ["ghost"]
    labels.write_text("word,judge1,judge2\n" + "".join(
        f"{w},{j},{j}\n" for w, j in zip(words, ["pos", "neg", "pos", "pos", "neg", "neg", "pos"])))

    lexicon = load_seed_lexicon(seeds)
    draws = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the repeated token's warning, checked below
        for model in (stream_model(paths[0], name="a"), load_model(paths[0], name="a")):
            draws.append(outcome(lambda: sample_unrelated(
                model, lexicon, n=n_unrelated, max_sim=max_sim, rng_seed=seed % 97, exclude=words)))
    assert draws[0] == draws[1]

    argv = ["dataset", "--seeds", str(seeds), "--annotations", str(labels), "--out", str(root / "o"),
            "--n-unrelated", str(n_unrelated), "--max-sim", str(max_sim),
            "--rng-seed", str(seed % 97), "--reproducible",
            *(["--include-seeds"] if include_seeds else [])]
    for i, path in enumerate(paths):
        argv += ["--model", f"m{i}={path}"]
    streamed, loaded = (dataset_run(argv, root / "o", stream) for stream in (True, False))
    assert streamed == loaded
    if streamed[0] == 0:
        assert len(streamed[3]) == n_models  # one repeated-token warning per model


def test_dataset_refuses_a_non_finite_row_that_is_none_of_its_words(workspace, capsys):
    from cuelex.embeddings import load_model

    tokens = make_model_file(workspace / "m1.bin", seed=101, shared=["seeda", "seedb", "canda",
                                                                     "candb", "candc", "knowledge"])
    vectors = load_model(workspace / "m1.bin").vectors.copy()
    bad = tokens.index("knowledge")  # neither a seed, an annotated word nor drawn
    vectors[bad, 2] = np.inf
    write_binary(workspace / "m1.bin", tokens, vectors)
    labels = workspace / "labels.csv"
    labels.write_text("word,judge1,judge2\ncanda,pos,pos\ncandc,neg,neg\n")
    assert run(*dataset_args(workspace, labels)) == 1
    assert capsys.readouterr().err == "cuelex: error: non-finite value in vector for token 'knowledge'\n"
    with pytest.raises(InputError, match="^non-finite value in vector for token 'knowledge'$"):
        load_model(workspace / "m1.bin")


@pytest.mark.parametrize("damage", ["truncated-payload", "malformed-header"])
def test_dataset_refuses_a_damaged_model_as_load_model_does(workspace, capsys, damage):
    from cuelex.embeddings import load_model

    path = workspace / "m2.bin"
    data = path.read_bytes()
    path.write_bytes(data[:-5] if damage == "truncated-payload" else b"50 six" + data[data.index(b"\n"):])
    with pytest.raises(InputError) as loaded:
        load_model(path)
    expected = {"truncated-payload": "truncated vector payload for token '",
                "malformed-header": f"malformed header b'50 six': {path}"}[damage]
    assert str(loaded.value).startswith(expected)
    labels = workspace / "labels.csv"
    labels.write_text("word,judge1,judge2\ncanda,pos,pos\ncandc,neg,neg\n")
    assert run(*dataset_args(workspace, labels)) == 1
    assert capsys.readouterr().err == f"cuelex: error: {loaded.value}\n"


def test_dataset_warns_once_of_a_repeated_token_at_the_duplicate_rows_line(workspace, capsys):
    import inspect

    from cuelex import embeddings

    source, first = inspect.getsourcelines(embeddings._duplicate_rows)
    warn_line = first + next(i for i, ln in enumerate(source) if "warnings.warn(" in ln)
    labels = workspace / "labels.csv"
    labels.write_text("word,judge1,judge2\ncanda,pos,pos\ncandc,neg,neg\n")
    argv = dataset_args(workspace, labels)
    argv[argv.index(f"a={workspace / 'm1.bin'}")] = f"a={duplicate_token_model(workspace)}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*argv) == 0
    ((warning,),) = [caught]
    assert (warning.category, warning.filename, warning.lineno) == \
        (UserWarning, embeddings.__file__, warn_line)
    assert str(warning.message).endswith("dup.bin: dropped 1 duplicate token(s), kept first occurrences")


def test_a_later_models_error_comes_after_the_first_models_draw(workspace, capsys):
    (workspace / "bad.bin").write_bytes(b"abc def\nxx")
    labels = workspace / "labels.csv"
    labels.write_text("word,judge1,judge2\ncanda,pos,pos\ncandc,neg,neg\n")
    argv = dataset_args(workspace, labels, "--n-unrelated", "500")
    argv[argv.index(f"b={workspace / 'm2.bin'}")] = f"b={workspace / 'bad.bin'}"
    assert run(*argv) == 1
    assert capsys.readouterr().err == \
        "cuelex: error: only 45 of 500 requested unrelated tokens qualify in model 'a'\n"
    argv[argv.index("500")] = "4"
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"cuelex: error: malformed header b'abc def': {workspace / 'bad.bin'}\n"


@pytest.mark.parametrize("command", ["expand", "pipeline", "dataset"])
def test_a_binary_model_is_never_loaded_and_a_text_model_always_is(workspace, monkeypatch, command):
    from cuelex.embeddings import load_model
    from w2v_writer import write_text

    set_cpus(monkeypatch, 1)  # the reads run in this process, where the spy sees them
    loads = []
    monkeypatch.setattr(cli.embeddings, "load_model",
                        lambda path, *args, **kw: loads.append(Path(path).name) or load_model(path, *args, **kw))
    labels = workspace / "labels.csv"
    labels.write_text("word,judge1,judge2\ncanda,pos,pos\ncandc,neg,neg\n")
    extra = ["--annotations", str(labels), "--n-unrelated", "4", "--max-sim", "0.95"] \
        if command == "dataset" else []
    for fmt in ("binary", "text"):
        models = {}
        for name in ("m1", "m2"):
            models[name] = workspace / f"{name}.bin"
            if fmt == "text":
                model = load_model(models[name])
                models[name] = workspace / f"{name}.txt"
                write_text(models[name], model.vocab, model.vectors)
        argv = model_run_args(command, workspace, models, workspace / fmt)
        assert run(*argv, *extra, "--model-format", fmt) == 0
    assert loads == ["m1.txt", "m2.txt"]


# Each lazily registered module, with a function whose first use executes it.
LAZY = {"corpus": "load_corpus", "embeddings": "load_model", "expansion": "expand",
        "classify": "train_eval", "agreement": "agreement", "graph": "louvain", "reduce": "pca",
        "workers": "fork_map"}
MODULE_PROBE = f"""
import sys, types
from cuelex import cli
code = cli.main(sys.argv[1:])
def executed():
    return {{n[7:] for n, m in sys.modules.items() if n.startswith("cuelex.") and type(m) is types.ModuleType}}
ran = executed()
for name, attr in {LAZY!r}.items():  # registered even when not executed, and loads on first use
    assert callable(getattr(sys.modules["cuelex." + name], attr))
print(code, ",".join(sorted(ran)), ",".join(sorted(executed() - ran)))
"""
EAGER = {"cli", "errors", "patterns", "tables"}
# the cuelex modules each command executes beside the eager ones, on the golden workspace
EXECUTES = {
    "expand": "embeddings expansion workers",
    "intersect": "expansion",
    "score": "corpus expansion",
    "split": "corpus",
    "ratios": "corpus",
    "relscore": "corpus",
    "rates": "corpus",
    "find": "corpus",
    "graph": "agreement expansion graph",  # with --statuses
    "cluster": "graph",
    "rank": "graph",
    "export": "graph",
    "agree": "agreement",
    "dataset": "agreement classify embeddings expansion",
    "train": "agreement classify workers",  # classify re-exports the agreement names
    "pca": "reduce",
    "mds": "reduce",
    "pipeline": "corpus embeddings expansion workers",  # with --corpus
}


def _without(argv, flag):
    """``argv`` without ``flag`` and its value."""
    i = argv.index(flag)
    return (*argv[:i], *argv[i + 2:])


GOLDEN = {argv[0]: argv for argv in GOLDEN_COMMANDS}
MODULE_CASES = [
    *(pytest.param(argv, EXECUTES[argv[0]], id=argv[0]) for argv in GOLDEN_COMMANDS),
    pytest.param(_without(GOLDEN["graph"], "--statuses"), "expansion graph", id="graph-no-statuses"),
    pytest.param(_without(GOLDEN["pipeline"], "--corpus"), "embeddings expansion workers",
                 id="pipeline-no-corpus"),
]


@pytest.fixture(scope="module")
def golden_workspace(tmp_path_factory):
    """The golden workspace after every command has written its artifacts."""
    root = tmp_path_factory.mktemp("golden")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        make_workspace(root)
        run_all(root)
    finally:
        os.chdir(cwd)
    return root


@pytest.mark.parametrize("argv, modules", MODULE_CASES)
def test_each_command_executes_only_its_modules(golden_workspace, argv, modules):
    probe = [sys.executable, "-c", MODULE_PROBE, *argv, "--out", "probe"]
    proc = subprocess.run(
        probe, cwd=golden_workspace, env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    code, ran, loaded_later = proc.stdout.splitlines()[-1].split(" ")
    expected = EAGER | set(modules.split())
    assert (code, ran) == ("0", ",".join(sorted(expected)))
    # every module it did not execute is in sys.modules and loads on first use
    assert loaded_later == ",".join(sorted(set(LAZY) - expected))


@pytest.mark.parametrize("module, typed_only", [
    ("expansion", {"corpus", "embeddings"}),
    ("classify", {"embeddings", "expansion"}),
])
def test_a_module_named_only_in_annotations_is_not_executed(module, typed_only):
    probe = f"import sys, cuelex.{module}; print(*(n[7:] for n in sys.modules if n[:7] == 'cuelex.'))"
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    executed = set(proc.stdout.split())
    assert module in executed and not typed_only & executed


# Runs a command in this interpreter pinned to one CPU, so its workers' calls run here too,
# and prints its exit status and whether the module named first was imported.
IMPORT_PROBE = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from cuelex import cli
code = cli.main(sys.argv[2:])
print(code, sys.argv[1] in sys.modules)
"""


def _with_classifiers(classifiers):
    argv = GOLDEN["train"]
    i = argv.index("--classifiers")
    return (*argv[: i + 1], classifiers, *argv[i + 2:])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a child to one CPU")
@pytest.mark.parametrize("argv, maps_openssl", [
    *(pytest.param(GOLDEN[name], False, id=name)
      for name in ("agree", "split", "graph", "pca", "dataset", "pipeline")),
    pytest.param(_with_classifiers("knn,logistic_sgd"), False, id="train-knn-logistic"),
    # numpy.random, which mlp seeds its weights from, imports secrets and so hashlib
    pytest.param(_with_classifiers("mlp:epochs=5"), True, id="train-mlp"),
])
def test_no_command_maps_openssl_but_train_with_mlp(golden_workspace, argv, maps_openssl):
    # OpenSSL's hash module
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, "_hashlib", *argv, "--out", "openssl-probe"],
                          cwd=golden_workspace, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", str(maps_openssl)]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a child to one CPU")
@pytest.mark.parametrize("argv", [
    *(pytest.param(GOLDEN[name], id=name) for name in ("agree", "graph", "cluster", "export", "intersect")),
    pytest.param(_without(GOLDEN["graph"], "--statuses"), id="graph-no-statuses"),
])
def test_no_command_that_computes_no_array_imports_numpy(golden_workspace, argv):
    # numpy's import took 0.05-0.06 s of their 0.13-0.19 s and 10-13 MiB of their peak (2 vCPU)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, "numpy", *argv, "--out", "numpy-probe"],
                          cwd=golden_workspace, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a child to one CPU")
@pytest.mark.parametrize("argv", [
    pytest.param(GOLDEN[name], id=name)
    for name in ("split", "ratios", "find", "relscore", "rates", "score", "pipeline")
])
def test_no_corpus_command_imports_numpy_ma(golden_workspace, argv):
    # np.unique imports numpy.ma (about 1.3 MiB and 13 ms), so the corpus index counts runs itself
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, "numpy.ma", *argv, "--out", "numpy-ma-probe"],
                          cwd=golden_workspace, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
