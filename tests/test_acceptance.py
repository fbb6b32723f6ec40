"""Exit criteria for the toolkit, one test per criterion.

Each test enforces its stated tolerance and runtime budget and reports a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import itertools
import json
import os
import random
import time

import numpy as np
import pytest

from conftest import random_tokens
from w2v_writer import write_binary

from cuelex import classify, cli
from cuelex.corpus import RateRow, build_collection, ratio_table, uncertainty_rate
from cuelex.embeddings import load_model, stream_model
from cuelex.expansion import distinct_candidates, expand, intersect, parse_seed_lexicon
from cuelex.graph import Partition, louvain, modularity, pagerank
from cuelex.reduce import ScoreMatrix, mds, pca

from test_corpus import planted_split
from test_embeddings import brute_force_ranking
from test_graph import graph_from_edges, pagerank_oracle_3path


class Budget:
    """Context manager asserting the wrapped block stays under a time budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime {self.elapsed:.2f}s exceeded the {self.seconds}s budget"
            )
        return False


@pytest.mark.acceptance(label="1 agreement arithmetic")
def test_criterion_1_agreement():
    with Budget(1.0):
        report = classify.agreement_from_counts(151, 49, 63, 130)
        assert report.percent_agreement == pytest.approx(0.7150, abs=0.0005)
        assert report.kappa == pytest.approx(0.4291, abs=0.0005)
        assert report.band == "moderate"
        # same numbers through the annotation-list path
        annos = []
        idx = 0
        for count, j1, j2 in (
            (151, "pos", "pos"), (49, "pos", "neg"), (63, "neg", "pos"), (130, "neg", "neg")
        ):
            for _ in range(count):
                annos.append(classify.Annotation(f"w{idx}", j1, j2))
                idx += 1
        report2 = classify.agreement(annos)
        assert report2.kappa == pytest.approx(report.kappa, abs=1e-12)


@pytest.mark.acceptance(label="2 ratio table")
def test_criterion_2_ratio_table():
    split = planted_split(
        35572,
        35527,
        {"inconclusive": 169, "ought to": 73, "uncertain": 243},
        {"inconclusive": 4, "ought to": 5, "uncertain": 21},
    )
    with Budget(1.0):
        rows = {r.word: r for r in ratio_table(["inconclusive", "ought to", "uncertain"], split)}
    expected = {
        "inconclusive": (42.20, 0.475, 0.011),
        "ought to": (14.58, 0.205, 0.014),
        "uncertain": (11.56, 0.683, 0.059),
    }
    for word, (ratio, pct_plus, pct_minus) in expected.items():
        row = rows[word]
        assert row.ratio == pytest.approx(ratio, abs=0.01)
        assert round(row.pct_plus, 3) == pct_plus
        assert round(row.pct_minus, 3) == pct_minus


TABLE7 = [
    ("Psychology", 70096, 220250, 32),
    ("Business, management and accounting", 26717, 97083, 28),
    ("Social sciences", 74835, 283598, 26),
    ("Economics, econometrics and finance", 27920, 113083, 25),
    ("Neuroscience", 99908, 434270, 23),
    ("Medicine and Dentistry", 423391, 2093102, 20),
    ("Veterinary science and veterinary medicine", 24390, 126768, 19),
    ("Pharmacology, toxicology and pharmaceutical science", 56441, 305601, 18),
    ("Nursing and heal professionals", 39692, 218124, 18),
    ("Arts and humanities", 14470, 78844, 18),
    ("Environmental Sciences", 56594, 328192, 17),
    ("Immunology and microbiology", 51184, 310404, 16),
    ("Agricultural and biological sciences", 63010, 400272, 16),
    ("Biochemistry, genetics and molecular biology", 120012, 800766, 15),
    ("Computer science", 32040, 252366, 13),
    ("Decision sciences", 17500, 144119, 12),
    ("Earth and Planetary Sciences", 24393, 225816, 11),
    ("Engineering", 45281, 510624, 9),
    ("Energy", 18253, 235489, 8),
    ("Mathematics", 17737, 239676, 7),
    ("Physics and astronomy", 28507, 498418, 6),
    ("Chemical engineering", 17434, 355512, 5),
    ("Material science", 24038, 608991, 4),
    ("Chemistry", 20585, 522442, 4),
]


@pytest.mark.acceptance(label="3 discipline rates")
def test_criterion_3_discipline_rates():
    # full module path at true scale for the largest-rate row
    docs = [
        (f"d{i}", "conflicting" if i < 70096 else "calm") for i in range(220250)
    ]
    group = build_collection("Psychology", docs)
    with Budget(1.0):
        row = uncertainty_rate([group], query=["conflicting"])[0]
    assert (row.matched, row.total) == (70096, 220250)
    assert 100 * row.rate == pytest.approx(31.8, abs=0.05)
    assert round(100 * row.rate) == 32
    # the whole printed column, rebuilt from its numerator/denominator pairs
    for name, matched, total, printed_pct in TABLE7:
        r = RateRow(name, matched, total, matched / total)
        assert round(100 * r.rate) == printed_pct, name


@pytest.mark.acceptance(label="4 neighbor retrieval")
def test_criterion_4_neighbor_retrieval(tmp_path):
    model_path = os.environ.get("CUELEX_PUBMED_MODEL")
    with Budget(300.0):
        if model_path:
            model = stream_model(model_path, name="pubmed")
            assert model.dim == 200 and len(model) > 1_000_000
            assert model.cosine("inconsistent", "contradicting") == pytest.approx(0.711, abs=0.005)
            assert model.cosine("inconsistent", "consistent") == pytest.approx(0.664, abs=0.005)
            assert model.cosine("inconsistent", "discrepant") == pytest.approx(0.617, abs=0.005)
            return
        # mandatory substitute: exhaustive brute-force equality on 50 synthetic models
        rng = random.Random(2024)
        for model_idx in range(50):
            n = rng.randint(100, 1000)
            dim = rng.randint(8, 64)
            tokens = random_tokens(rng, n)
            vectors = np.array(
                [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)],
                dtype=np.float32,
            )
            # plant a few exact duplicates to exercise the tie rule
            for d in range(3):
                vectors[(7 * d + 1) % n] = vectors[(7 * d) % n]
            path = tmp_path / f"model_{model_idx}.bin"
            write_binary(path, tokens, vectors, record_newlines=bool(model_idx % 2))
            model = load_model(path, "binary")
            queries = rng.sample(tokens, 20)
            for qi, query in enumerate(queries):
                fold = qi % 2 == 0
                oracle = brute_force_ranking(model, query, fold)
                for k in (1, 5, 50):
                    got = model.top_k(query, k, fold_case=fold)
                    want = oracle[:k]
                    assert [r.neighbor for r in got] == [t for t, _ in want]
                    for r, (_, sim) in zip(got, want):
                        assert r.similarity == pytest.approx(sim, abs=1e-12)


@pytest.mark.acceptance(label="5 pipeline properties and determinism")
def test_criterion_5_pipeline(tmp_path):
    rng = random.Random(9)
    shared = ["seedone", "seedtwo", "nearone", "neartwo", "nearthree"]

    def write_model(path, seed):
        r = random.Random(seed)
        tokens = shared + random_tokens(r, 45)
        rows = []
        anchors = {}
        for token in tokens:
            vec = np.array([r.uniform(-1, 1) for _ in range(8)])
            if token.startswith("seed"):
                anchors[token] = vec
            elif token.startswith("near"):
                vec = anchors["seedone"] + 0.1 * vec
            rows.append(vec)
        write_binary(path, tokens, np.array(rows, dtype=np.float32))

    write_model(tmp_path / "m1.bin", 1)
    write_model(tmp_path / "m2.bin", 2)
    lexicon = parse_seed_lexicon(["seedone", "seedtwo"])
    m1 = load_model(tmp_path / "m1.bin", name="m1")
    m2 = load_model(tmp_path / "m2.bin", name="m2")

    k = 10
    res1 = expand(m1, lexicon, k=k)
    res2 = expand(m2, lexicon, k=k)
    # bound: at most one pair per (lookupable seed form, retrieved neighbor)
    assert len(res1.pairs) <= len(lexicon) * k
    assert len(res2.pairs) <= len(lexicon) * k
    d1 = distinct_candidates(res1.pairs)
    d2 = distinct_candidates(res2.pairs)
    assert len(d1) <= len(res1.pairs) and len(d2) <= len(res2.pairs)
    cset = intersect(d1, d2, lexicon, pairs=res1.pairs + res2.pairs)
    words = set(cset.words())
    assert words <= d1 and words <= d2
    assert not words & lexicon.folded_words()

    # end-to-end byte determinism through the CLI
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w") as fh:
        fh.write(json.dumps({"id": "d1", "text": "The seedone case was nearone."}) + "\n")
        fh.write(json.dumps({"id": "d2", "text": "A seedtwo story, quite nearthree."}) + "\n")
    seeds_path = tmp_path / "seeds.txt"
    seeds_path.write_text("seedone\nseedtwo\n")

    def run_into(out):
        code = cli.main(
            [
                "pipeline",
                "--model", f"m1={tmp_path / 'm1.bin'}",
                "--model", f"m2={tmp_path / 'm2.bin'}",
                "--seeds", str(seeds_path),
                "--k", "10",
                "--corpus", str(corpus_path),
                "--out", str(out),
                "--rng-seed", "5",
                "--reproducible",
            ]
        )
        assert code == 0

    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    run_into(out_a)
    run_into(out_b)
    names = sorted(f.name for f in out_a.iterdir())
    assert names == sorted(f.name for f in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


@pytest.mark.acceptance(label="6 graph analytics oracles")
def test_criterion_6_graph_oracles():
    with Budget(10.0):
        # two disconnected unit triangles: exact modularity of the natural split
        g = graph_from_edges(
            [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")]
        )
        part = Partition({n: (0 if n in "abc" else 1) for n in g.nodes})
        assert modularity(g, part) == 0.5

        # louvain never merges disconnected components
        rng = random.Random(77)
        for trial in range(10):
            edges = []
            for prefix in ("p", "q", "r"):
                nodes = [f"{prefix}{i}" for i in range(rng.randint(3, 6))]
                for i in range(len(nodes) - 1):
                    edges.append((nodes[i], nodes[i + 1], rng.uniform(0.2, 1.0)))
                for u, v in itertools.combinations(nodes, 2):
                    if rng.random() < 0.4:
                        edges.append((u, v, rng.uniform(0.2, 1.0)))
            graph = graph_from_edges(edges)
            partition = louvain(graph, rng_seed=trial)
            by_prefix = {}
            for node in graph.nodes:
                by_prefix.setdefault(node[0], set()).add(partition[node])
            seen = [by_prefix[p] for p in sorted(by_prefix)]
            for i, a in enumerate(seen):
                for b in seen[i + 1 :]:
                    assert a.isdisjoint(b)

        # pagerank on the 3-path against the independent dense oracle
        path_graph = graph_from_edges([("a", "b"), ("b", "c")])
        ranks = pagerank(path_graph, damping=0.85)
        oracle = pagerank_oracle_3path(0.85)
        assert ranks["a"] == pytest.approx(oracle[0], abs=1e-6)
        assert ranks["b"] == pytest.approx(oracle[1], abs=1e-6)
        assert ranks["c"] == pytest.approx(oracle[2], abs=1e-6)
        assert ranks["a"] == pytest.approx(0.2568, abs=1e-4)
        assert ranks["b"] == pytest.approx(0.4865, abs=1e-4)
        for graph in (g, path_graph):
            scores = pagerank(graph).scores
            assert abs(sum(scores.values()) - 1.0) < 1e-9


@pytest.mark.acceptance(label="7 classifier protocol")
def test_criterion_7_classifier_protocol():
    with Budget(120.0):
        rng = np.random.default_rng(15)
        dataset = []
        for i in range(120):
            label = i % 2
            center = 2.0 if label else -2.0
            features = (rng.normal(0, 0.3, 2) + center).astype(np.float32)
            dataset.append(classify.LabeledExample(f"w{i}", features, label, (False,)))
        random.Random(3).shuffle(dataset)

        folds = classify.kfold(dataset, k=10, rng_seed=4)
        # stratified partition: every example in exactly one fold, sizes within 1
        assert len(folds) == len(dataset)
        sizes = np.bincount(folds, minlength=10)
        assert sizes.max() - sizes.min() <= 1
        global_frac = sum(ex.label for ex in dataset) / len(dataset)
        for f in range(10):
            members = [dataset[i] for i in range(len(dataset)) if folds[i] == f]
            frac = sum(ex.label for ex in members) / len(members)
            assert abs(frac - global_frac) <= 1.0 / len(members) + 1e-12

        # knn(k=1) memorizes duplicate-free training data
        X = np.vstack([ex.features for ex in dataset]).astype(np.float64)
        y = np.array([ex.label for ex in dataset])
        knn = classify.make_classifier(classify.ClassifierSpec("knn", (("k", 1),)))
        knn.fit(X, y)
        assert (knn.predict(X) == y).all()

        # logistic SGD reaches 0.95 held-out accuracy on the separable set
        report = classify.train_eval(
            dataset, classify.ClassifierSpec("logistic_sgd"), folds, rng_seed=4
        )
        assert report.accuracy >= 0.95

        m = classify.metrics(tp=8, fp=2, fn=1, tn=9)
        assert m.accuracy == pytest.approx(0.85, abs=1e-4)
        assert m.precision == pytest.approx(0.8, abs=1e-4)
        assert m.recall == pytest.approx(0.8889, abs=1e-4)
        assert m.f1 == pytest.approx(0.8421, abs=1e-4)


@pytest.mark.acceptance(label="8 pca and mds")
def test_criterion_8_pca_mds():
    with Budget(30.0):
        base = np.array([2.0, 1.0, 0.5, 3.0])
        rank1 = ScoreMatrix(
            [f"w{i}" for i in range(5)],
            [f"c{j}" for j in range(4)],
            np.outer([1.0, 0.25, 2.0, 0.75, 1.5], base),
        )
        result = pca(rank1, n_components=2, standardize=False)
        assert result.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)

        rng = np.random.default_rng(21)
        values = np.abs(rng.normal(size=(9, 5)))
        full = ScoreMatrix([f"w{i}" for i in range(9)], [f"c{j}" for j in range(5)], values)
        res = pca(full, n_components=5, standardize=True)
        target = (values - values.mean(axis=0)) / res.scale
        assert np.allclose(res.reconstruct(), target, atol=1e-6)

        # exactly embeddable configuration: final stress below 1e-6
        points = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.5], [2.0, 1.5], [1.0, 3.0]])
        embeddable = ScoreMatrix(["x", "y"], [f"i{j}" for j in range(5)], points.T)
        mres = mds(embeddable, p=2, dims=2)
        assert mres.stress < 1e-6
        trace = mres.stress_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

        # three mutually equidistant items land on an equilateral triangle
        tri = ScoreMatrix(
            ["r1", "r2", "r3"],
            ["a", "b", "c"],
            np.eye(3),
        )
        tres = mds(tri, p=2, dims=2)
        dists = [
            np.linalg.norm(tres.coordinates[i] - tres.coordinates[j])
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        assert max(dists) - min(dists) < 1e-6
        trace = tres.stress_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


@pytest.mark.acceptance(label="9 word2vec binary format fidelity")
def test_criterion_9_format_fidelity(tmp_path):
    with Budget(10.0):
        rng = random.Random(555)
        for i in range(100):
            n = rng.randint(5, 60)
            dim = rng.randint(2, 16)
            tokens = random_tokens(rng, n)
            vectors = np.array(
                [[rng.uniform(-10, 10) for _ in range(dim)] for _ in range(n)],
                dtype=np.float32,
            )
            path = tmp_path / f"rt_{i}.bin"
            # half the files terminate records with LF, putting tokens right
            # after 0x0A bytes; the other half pack records back to back
            write_binary(path, tokens, vectors, record_newlines=bool(i % 2))
            model = load_model(path, "binary")
            assert model.vocab == tokens
            assert model.vectors.tobytes() == vectors.tobytes()
