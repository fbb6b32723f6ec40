import json
import random

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
