import argparse
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_tokens
from w2v_writer import write_binary

from cuelex import cli


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

    monkeypatch.setitem(cli._DISPATCH, "agree", boom)
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

    mdir = workspace / "mds"
    code = run(
        "mds", "--matrix", str(matrix), "--p", "2", "--out", str(mdir), "--reproducible",
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
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env, capture_output=True, text=True)
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


def test_missing_out_is_reported_before_any_input_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("split", "--corpus", "missing.jsonl") == 1
    assert "--out is required" in capsys.readouterr().err


def test_unknown_config_key_is_an_input_error(workspace, capsys):
    find = ("find", "--corpus", str(workspace / "corpus.jsonl"), "--cues", "inconclusive")
    config = workspace / "typo.json"
    config.write_text(json.dumps({"limt": 0}))
    assert run(*find, "--config", str(config), "--out", str(workspace / "typo")) == 1
    assert "'limt'" in capsys.readouterr().err
    # a key of another subcommand is allowed: one config file serves a whole pipeline
    config.write_text(json.dumps({"k": 5, "limit": 2, "model": ["m1=m1.bin"]}))
    assert run(*find, "--config", str(config), "--out", str(workspace / "shared")) == 0


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


def test_every_model_spec_is_checked_before_any_model_is_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("expand", "--model", "a=missing.bin", "--model", "b.bin", "--out", "o") == 1
    err = capsys.readouterr().err
    assert "--model must look like \"name=path\", got 'b.bin'" in err and "not found" not in err


LAZY_PROBE = """
import sys, types
from cuelex import cli
code = cli.main(sys.argv[1:])
names = ("classify", "graph", "reduce", "embeddings", "expansion")
loaded = [n for n in names if type(sys.modules.get("cuelex." + n)) is types.ModuleType]
graph = sys.modules["cuelex.graph"]
print(code, ",".join(loaded) or "-", callable(graph.louvain), type(graph) is types.ModuleType)
"""


def test_corpus_command_runs_no_other_module(workspace):
    argv = ("split", "--corpus", str(workspace / "corpus.jsonl"), "--out", str(workspace / "lazy"))
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # none of the five was executed, yet each is registered and loads on first use
    assert proc.stdout.splitlines()[-1] == "0 - True True"
