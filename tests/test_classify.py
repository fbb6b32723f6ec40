import multiprocessing
import os
import random
import subprocess
import sys
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, make_model, no_child_left, random_tokens, set_cpus
from w2v_writer import write_binary

from cuelex.classify import (
    Annotation,
    ClassifierSpec,
    GaussianNbClassifier,
    KnnClassifier,
    LabeledExample,
    LogisticSgdClassifier,
    MlpClassifier,
    ModelRows,
    agreement,
    agreement_from_counts,
    build_dataset,
    featurize,
    kfold,
    landis_koch_band,
    load_annotations,
    make_classifier,
    metrics,
    parse_classifier_spec,
    parse_classifier_specs,
    sample_unrelated,
    train_eval,
)
from cuelex.embeddings import EmbeddingModel, StreamedModel, stream_model
from cuelex.errors import CuelexError, InputError
from cuelex.expansion import parse_seed_lexicon


def annotations_from_counts(pp, pn, np_, nn):
    out = []
    i = 0
    for count, j1, j2 in ((pp, "pos", "pos"), (pn, "pos", "neg"), (np_, "neg", "pos"), (nn, "neg", "neg")):
        for _ in range(count):
            out.append(Annotation(f"w{i}", j1, j2))
            i += 1
    return out


# --- agreement ---------------------------------------------------------------


def test_agreement_published_counts():
    report = agreement_from_counts(151, 49, 63, 130)
    assert report.total == 393
    assert report.percent_agreement == pytest.approx(281 / 393, abs=1e-12)
    assert report.percent_agreement == pytest.approx(0.715, abs=5e-4)
    assert report.kappa == pytest.approx(0.4291, abs=5e-4)
    assert report.band == "moderate"


def test_annotation_status_needs_both_judges_to_agree():
    judges = (("pos", "pos"), ("neg", "neg"), ("pos", "neg"), ("neg", "pos"))
    statuses = [Annotation("w", j1, j2).status for j1, j2 in judges]
    assert statuses == ["accepted", "rejected", "unrated", "unrated"]


def test_agreement_from_annotations_matches_counts():
    annos = annotations_from_counts(151, 49, 63, 130)
    random.Random(0).shuffle(annos)
    report = agreement(annos)
    assert (report.n_pp, report.n_pn, report.n_np, report.n_nn) == (151, 49, 63, 130)
    assert report.kappa == pytest.approx(0.4291, abs=5e-4)


def test_agreement_perfect():
    report = agreement_from_counts(50, 0, 0, 50)
    assert report.percent_agreement == 1.0
    assert report.kappa == pytest.approx(1.0)


def test_agreement_independence():
    report = agreement_from_counts(25, 25, 25, 25)
    assert report.percent_agreement == 0.5
    assert report.kappa == pytest.approx(0.0, abs=1e-12)


def test_agreement_degenerate_marginals():
    with pytest.raises(CuelexError, match="kappa undefined"):
        agreement_from_counts(10, 0, 0, 0)


def test_agreement_minimum_size():
    with pytest.raises(InputError):
        agreement_from_counts(1, 0, 0, 0)


def test_kappa_recomputation_invariant():
    rng = random.Random(7)
    for _ in range(25):
        counts = [rng.randint(1, 50) for _ in range(4)]
        report = agreement_from_counts(*counts)
        total = sum(counts)
        p_o = (counts[0] + counts[3]) / total
        p1 = (counts[0] + counts[1]) / total
        p2 = (counts[0] + counts[2]) / total
        p_e = p1 * p2 + (1 - p1) * (1 - p2)
        assert report.kappa == pytest.approx((p_o - p_e) / (1 - p_e), abs=1e-12)


def test_kappa_judge_swap_symmetry():
    a = agreement_from_counts(40, 9, 17, 30)
    b = agreement_from_counts(40, 17, 9, 30)
    assert a.kappa == pytest.approx(b.kappa, abs=1e-12)
    assert a.percent_agreement == pytest.approx(b.percent_agreement, abs=1e-12)


def test_landis_koch_cut_points():
    assert landis_koch_band(-0.2) == "poor"
    assert landis_koch_band(0.0) == "poor"
    assert landis_koch_band(0.15) == "slight"
    assert landis_koch_band(0.35) == "fair"
    assert landis_koch_band(0.41) == "moderate"
    assert landis_koch_band(0.60) == "moderate"
    assert landis_koch_band(0.75) == "substantial"
    assert landis_koch_band(0.95) == "almost perfect"


def test_load_annotations(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("word,judge1,judge2\nalpha,pos,neg\nbeta,neg,neg\n")
    annos = load_annotations(path)
    assert annos == [Annotation("alpha", "pos", "neg"), Annotation("beta", "neg", "neg")]


def test_load_annotations_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("term,j1,j2\nx,pos,pos\n")
    with pytest.raises(InputError, match="header"):
        load_annotations(bad_header)
    bad_value = tmp_path / "v.csv"
    bad_value.write_text("word,judge1,judge2\nx,yes,pos\n")
    with pytest.raises(InputError, match="pos"):
        load_annotations(bad_value)
    dupe = tmp_path / "d.csv"
    dupe.write_text("word,judge1,judge2\nx,pos,pos\nX,neg,neg\n")
    with pytest.raises(InputError, match="duplicate"):
        load_annotations(dupe)


# --- sampling unrelated -------------------------------------------------------


def test_sample_unrelated_recheck_oracle(tmp_path):
    model = make_model(tmp_path, seed=13, n=300, dim=12)
    lex = parse_seed_lexicon([model.vocab[0].lower(), model.vocab[1].lower()])
    got = sample_unrelated(model, lex, n=20, max_sim=0.5, rng_seed=4)
    assert len(got) == len(set(got)) == 20
    for token in got:  # exhaustive recheck against every seed form
        for entry in lex.entries:
            for form in entry.model_forms:
                assert model.cosine(token, form) < 0.5
        assert token.lower() not in lex.folded_words()


def test_sample_unrelated_zero():
    model = EmbeddingModel("m", ["a", "b"], np.eye(2, dtype=np.float32))
    lex = parse_seed_lexicon(["a"])
    assert sample_unrelated(model, lex, n=0) == []


def test_sample_unrelated_deterministic(tmp_path):
    model = make_model(tmp_path, seed=19, n=200, dim=10)
    lex = parse_seed_lexicon([model.vocab[5].lower()])
    a = sample_unrelated(model, lex, n=15, max_sim=0.6, rng_seed=9)
    b = sample_unrelated(model, lex, n=15, max_sim=0.6, rng_seed=9)
    assert a == b


def test_sample_unrelated_respects_exclude(tmp_path):
    model = make_model(tmp_path, seed=23, n=100, dim=8)
    lex = parse_seed_lexicon([model.vocab[0].lower()])
    full = sample_unrelated(model, lex, n=10, max_sim=0.9, rng_seed=1)
    redone = sample_unrelated(model, lex, n=10, max_sim=0.9, rng_seed=1, exclude=full[:3])
    assert not set(w.lower() for w in redone) & set(w.lower() for w in full[:3])


def test_sample_unrelated_exhaustion_error():
    vecs = np.array([[1, 0], [0.99, 0.01], [0.98, 0.02]], dtype=np.float32)
    model = EmbeddingModel("m", ["seedtok", "n1", "n2"], vecs)
    lex = parse_seed_lexicon(["seedtok"])
    with pytest.raises(CuelexError, match="qualify"):
        sample_unrelated(model, lex, n=2, max_sim=0.2)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 5000), seed=st.integers(0, 2**64))
def test_an_int32_array_shuffles_into_the_order_of_a_list(n, seed):
    # sample_unrelated shuffles an array("i"); its sampled words are those of a list shuffle
    rows, order = array("i", range(n)), list(range(n))
    random.Random(seed).shuffle(rows)
    random.Random(seed).shuffle(order)
    assert rows.tolist() == order


def sample_unrelated_from_a_list(model, lexicon, n, max_sim, rng_seed):
    """The sampler as it was with a shuffled list of ints and a token lookup per row."""
    seed_rows = [
        model.lookup(form) for entry in lexicon.entries for form in entry.model_forms
        if model.usable(form, fold_case=True)
    ]
    if not seed_rows:
        raise InputError("no seed form")
    seed_matrix = model.unit_rows(seed_rows)
    indices = list(range(len(model)))
    random.Random(rng_seed).shuffle(indices)
    out = []
    for start in range(0, len(indices), 2048):
        block = indices[start : start + 2048]
        max_sims = (seed_matrix @ model.unit_rows(block).T).max(axis=0)
        for pos, idx in enumerate(block):
            token = model.vocab[idx]
            if not model.usable(token) or token.lower() in lexicon.folded_words():
                continue
            if max_sims[pos] < max_sim:
                out.append(token)
                if len(out) == n:
                    return out
    raise CuelexError("too few")


@settings(max_examples=100, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n_tokens=st.integers(1, 80),
    n=st.integers(1, 20),
    max_sim=st.floats(0.0, 1.0),
    rng_seed=st.integers(0, 2**64),
)
def test_sample_unrelated_matches_the_list_sampler(data_seed, n_tokens, n, max_sim, rng_seed):
    tokens = random_tokens(random.Random(data_seed), n_tokens)
    gen = np.random.default_rng(data_seed)
    vectors = gen.normal(size=(n_tokens, 3)).astype(np.float32)
    vectors[gen.random(n_tokens) < 0.2] = 0.0  # unusable rows are never sampled
    model = EmbeddingModel("m", tokens, vectors)
    lexicon = parse_seed_lexicon([t.lower() for t in tokens[:2]])
    outcomes = []
    for sampler in (sample_unrelated, sample_unrelated_from_a_list):
        try:
            outcomes.append(sampler(model, lexicon, n=n, max_sim=max_sim, rng_seed=rng_seed))
        except CuelexError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=30, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    n_tokens=st.integers(257, 2600),
    dim=st.sampled_from([3, 50]),
    n_seeds=st.integers(1, 3),
    tie=st.booleans(),
    rng_seed=st.integers(0, 2**64),
)
def test_sample_unrelated_decides_a_chunk_in_parts_as_one_product_would(
    data_seed, n_tokens, dim, n_seeds, tie, rng_seed
):
    tokens = random_tokens(random.Random(data_seed), n_tokens)
    vectors = np.random.default_rng(data_seed).normal(size=(n_tokens, dim)).astype(np.float32)
    model = EmbeddingModel("m", tokens, vectors)
    lexicon = parse_seed_lexicon([t.lower() for t in tokens[:n_seeds]])
    forms = [form for entry in lexicon.entries for form in entry.model_forms]
    seed_matrix = model.unit_rows([model.lookup(form) for form in forms])
    order = list(range(n_tokens))
    random.Random(rng_seed).shuffle(order)
    sims = (seed_matrix @ model.unit_rows(order[:2048]).T).max(axis=0)
    # with a tie, one row's best cosine, as the whole first chunk's product gives it, is max_sim
    max_sim = float(sims[data_seed % len(sims)] if tie else np.median(sims))
    outcomes = []
    for sampler in (sample_unrelated, sample_unrelated_from_a_list):
        try:
            outcomes.append(sampler(model, lexicon, n=n_tokens // 3, max_sim=max_sim, rng_seed=rng_seed))
        except CuelexError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 2048),
    dim=st.sampled_from([3, 50, 300]),
    n_seeds=st.integers(1, 3),
    tie=st.sampled_from([None, -1.0, 0.0, 1.0]),
)
def test_far_rows_decide_a_block_as_one_product_over_it_does(seed, n_rows, dim, n_seeds, tie):
    # parts of a block can sum in another order than the whole block, so a row whose best
    # cosine is max_sim, or one ulp from it, is where the two could disagree
    from cuelex.classify import _far_rows

    gen = np.random.default_rng(seed)
    vectors = gen.normal(size=(n_seeds + n_rows, dim)).astype(np.float32)
    vectors[n_seeds:][gen.random(n_rows) < 0.1] = 0.0
    model = EmbeddingModel("m", [f"t{i}" for i in range(len(vectors))], vectors)
    seed_matrix = model.unit_rows(list(range(n_seeds)))
    block = array("i", (gen.permutation(n_rows) + n_seeds).tolist())
    units = model.unit_rows(block)
    sims, usable = (seed_matrix @ units.T).max(axis=0), units.any(axis=1)
    if tie is None:
        max_sim = float(gen.uniform(-1, 1))
    else:
        at = sims[int(gen.integers(n_rows))]
        max_sim = float(np.nextafter(at, at + tie))
    assert _far_rows(model, seed_matrix, block, max_sim).tolist() == ((sims < max_sim) & usable).tolist()


def test_an_exhausted_draw_keeps_no_token_of_a_streamed_model(tmp_path):
    import gc
    import tracemalloc

    tokens = random_tokens(random.Random(3), 20_000)
    write_binary(tmp_path / "m.bin", tokens,
                 np.random.default_rng(3).standard_normal((len(tokens), 8)).astype(np.float32))
    key = tokens[0].lower()
    model = stream_model(tmp_path / "m.bin")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        try:  # every row is far enough, so every token is read
            sample_unrelated(model, parse_seed_lexicon([key]), n=len(tokens), max_sim=2.0)
        except CuelexError as exc:
            message = str(exc)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    drawn = sum(t.lower() != key for t in tokens)
    assert message == f"only {drawn} of {len(tokens)} requested unrelated tokens qualify in model 'm'"
    assert retained <= 8 * len(tokens)


def test_a_draw_reads_only_the_tokens_it_could_keep(tmp_path, monkeypatch):
    tokens = random_tokens(random.Random(5), 6_000)
    vectors = np.random.default_rng(5).standard_normal((len(tokens), 8)).astype(np.float32)
    write_binary(tmp_path / "m.bin", tokens, vectors)
    key, exclude = tokens[0].lower(), tokens[1:600]
    lexicon = parse_seed_lexicon([key])
    loaded = sample_unrelated(EmbeddingModel("m", tokens, vectors), lexicon, n=10, max_sim=2.0,
                              exclude=exclude)
    model = stream_model(tmp_path / "m.bin")
    calls = []
    tokens_of = StreamedModel.tokens_of
    monkeypatch.setattr(StreamedModel, "tokens_of",
                        lambda self, rows: calls.append(list(rows)) or tokens_of(self, rows))
    # every usable row is far enough, so each 2,048-row chunk has far rows >> n
    assert sample_unrelated(model, lexicon, n=10, max_sim=2.0, exclude=exclude) == loaded
    assert calls[0] == [0]  # the seed form's key row, read by rows_of
    read = [tokens[i] for rows in calls[1:] for i in rows]
    blocked = {key} | {w.lower() for w in exclude}
    assert len(read) == len(loaded) + sum(t.lower() in blocked for t in read)
    assert [t for t in read if t.lower() not in blocked] == loaded


# --- featurize / dataset -------------------------------------------------------


def two_toy_models():
    m1 = EmbeddingModel(
        "m1", ["word", "only1", "shared"], np.array([[1, 2], [3, 4], [5, 6]], dtype=np.float32)
    )
    m2 = EmbeddingModel(
        "m2", ["word", "only2", "shared"], np.array([[7, 8], [9, 10], [11, 12]], dtype=np.float32)
    )
    return m1, m2


def test_featurize_concatenates_exactly():
    m1, m2 = two_toy_models()
    vec, flags = featurize("word", [m1, m2])
    assert vec.tolist() == [1, 2, 7, 8]
    assert flags == (False, False)
    # slicing the concatenation recovers each stored vector bit-exactly
    assert vec[:2].tobytes() == m1.vector("word").tobytes()
    assert vec[2:].tobytes() == m2.vector("word").tobytes()


def test_featurize_zero_fills_oov_segment():
    m1, m2 = two_toy_models()
    vec, flags = featurize("only1", [m1, m2])
    assert vec.tolist() == [3, 4, 0, 0]
    assert flags == (False, True)


def test_featurize_all_oov_errors():
    m1, m2 = two_toy_models()
    with pytest.raises(InputError, match="every model"):
        featurize("nowhere", [m1, m2])


def test_build_dataset_paper_shape(tmp_path):
    m1 = make_model(tmp_path, seed=31, n=500, dim=4, name="m1")
    m2 = make_model(tmp_path, seed=37, n=500, dim=3, name="m2")
    seen = set()
    vocab = []  # one token per lowercase key so the list-disjointness check holds
    for t in m1.vocab:
        if t.lower() not in seen:
            seen.add(t.lower())
            vocab.append(t)
    accepted = vocab[:151]
    rejected = vocab[151:281]
    unrelated = vocab[281:381]
    build = build_dataset(accepted, rejected, unrelated, [m1, m2])
    n_pos = sum(ex.label for ex in build.examples)
    assert n_pos == 151
    assert len(build.examples) - n_pos == 230
    for ex in build.examples:
        assert len(ex.features) == 4 + 3  # sum of model dims
    assert len({ex.word for ex in build.examples}) == len(build.examples)


def test_build_dataset_overlap_rejected():
    m1, m2 = two_toy_models()
    with pytest.raises(InputError, match="overlapping"):
        build_dataset(["word"], ["word"], [], [m1, m2])


def test_build_dataset_degenerate():
    m1, m2 = two_toy_models()
    with pytest.raises(InputError, match="degenerate"):
        build_dataset(["word"], [], [], [m1, m2])


def test_build_dataset_reports_oov():
    m1, m2 = two_toy_models()
    build = build_dataset(["word", "ghost"], ["shared"], [], [m1, m2])
    assert build.excluded == ["ghost"]
    assert {ex.word for ex in build.examples} == {"word", "shared"}


def test_build_dataset_shuffle_deterministic():
    m1, m2 = two_toy_models()
    b1 = build_dataset(["word", "only1"], ["shared", "only2"], [], [m1, m2])
    b2 = build_dataset(["word", "only1"], ["shared", "only2"], [], [m1, m2])
    assert [ex.word for ex in b1.examples] == [ex.word for ex in b2.examples]


def test_build_dataset_include_seeds():
    m1, m2 = two_toy_models()
    build = build_dataset(["word"], ["only2"], [], [m1, m2], seeds=["shared"])
    labels = {ex.word: ex.label for ex in build.examples}
    assert labels["shared"] == 1


def test_model_rows_answer_as_the_model_for_their_words(tmp_path):
    import weakref

    model = make_model(tmp_path, seed=5, n=80, dim=4, name="m")
    cased = [t for t in model.vocab if t != t.lower()]
    assert cased  # the case-folding lookup is exercised
    words = [*model.vocab[:10], *(t.lower() for t in cased), *(t.upper() for t in model.vocab[:5]),
             "nowhere"]
    rows = ModelRows(model, words)
    assert (rows.name, rows.dim) == (model.name, model.dim)

    def answer(source, word):
        try:
            return source.vector(word).tobytes()
        except InputError as exc:
            return str(exc)

    assert [answer(rows, w) for w in words] == [answer(model, w) for w in words]
    assert answer(rows, "nowhere") == "token 'nowhere' not in vocabulary of model 'm'"
    ref = weakref.ref(model)
    del model
    assert ref() is None  # the rows keep no reference to the model


def test_build_dataset_on_model_rows_matches_the_models(tmp_path):
    m1 = make_model(tmp_path, seed=31, n=200, dim=4, name="m1")
    m2 = make_model(tmp_path, seed=37, n=200, dim=3, name="m2")
    words = list({t.lower(): t for t in m1.vocab}.values())
    accepted, rejected, unrelated = words[:30], [*words[30:50], "ghost"], words[50:70]
    seeds = [t.lower() for t in m2.vocab[:10] if t.lower() not in {w.lower() for w in words[:70]}]
    wanted = [*accepted, *rejected, *seeds, *unrelated]
    built = [
        build_dataset(accepted, rejected, unrelated, models, seeds=seeds)
        for models in ([m1, m2], [ModelRows(m1, wanted), ModelRows(m2, wanted)])
    ]
    assert [(ex.word, ex.label, ex.oov_flags, ex.features.tobytes()) for ex in built[0].examples] \
        == [(ex.word, ex.label, ex.oov_flags, ex.features.tobytes()) for ex in built[1].examples]
    assert built[0].excluded == built[1].excluded == ["ghost"]


# --- kfold ---------------------------------------------------------------------


def dataset_of(n_pos, n_neg, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_pos):
        out.append(LabeledExample(f"p{i}", rng.normal(size=dim).astype(np.float32), 1, (False,)))
    for i in range(n_neg):
        out.append(LabeledExample(f"n{i}", rng.normal(size=dim).astype(np.float32), 0, (False,)))
    random.Random(99).shuffle(out)
    return out


def test_kfold_singletons():
    ds = dataset_of(5, 5)
    folds = kfold(ds, k=10, rng_seed=0)
    assert sorted(np.bincount(folds).tolist()) == [1] * 10


def test_kfold_paper_shaped_sizes():
    ds = dataset_of(151, 230)
    folds = kfold(ds, k=10, rng_seed=1)
    sizes = np.bincount(folds, minlength=10)
    assert set(sizes.tolist()) <= {38, 39}
    assert sizes.sum() == 381


def test_kfold_partition_contract():
    ds = dataset_of(23, 17)
    folds = kfold(ds, k=7, rng_seed=5)
    assert len(folds) == 40
    assert set(folds.tolist()) == set(range(7))


def test_kfold_stratified():
    ds = dataset_of(60, 40)
    folds = kfold(ds, k=10, rng_seed=3)
    global_frac = 0.6
    for f in range(10):
        members = [ds[i] for i in range(len(ds)) if folds[i] == f]
        frac = sum(ex.label for ex in members) / len(members)
        assert abs(frac - global_frac) <= 1.0 / len(members) + 1e-12


def test_kfold_deterministic():
    ds = dataset_of(30, 30)
    assert kfold(ds, k=5, rng_seed=8).tolist() == kfold(ds, k=5, rng_seed=8).tolist()


def test_kfold_errors():
    ds = dataset_of(3, 3)
    with pytest.raises(InputError):
        kfold(ds, k=7)
    with pytest.raises(InputError):
        kfold(ds, k=1)


# --- classifiers -----------------------------------------------------------------


def separable_dataset(n=200, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n // 2):
        out.append(
            LabeledExample(
                f"p{i}", (rng.normal(0, 0.3, 2) + [2.0, 2.0]).astype(np.float32), 1, (False,)
            )
        )
        out.append(
            LabeledExample(
                f"n{i}", (rng.normal(0, 0.3, 2) + [-2.0, -2.0]).astype(np.float32), 0, (False,)
            )
        )
    random.Random(5).shuffle(out)
    return out


def test_knn_k1_memorizes_training_data():
    ds = dataset_of(20, 20, dim=5, seed=4)
    X = np.vstack([ex.features for ex in ds]).astype(np.float64)
    y = np.array([ex.label for ex in ds])
    clf = make_classifier(ClassifierSpec("knn", (("k", 1),)))
    clf.fit(X, y)
    assert (clf.predict(X) == y).all()


def test_logistic_sgd_separable_holdout():
    ds = separable_dataset()
    folds = kfold(ds, k=5, rng_seed=2)
    report = train_eval(ds, ClassifierSpec("logistic_sgd"), folds, rng_seed=2)
    assert report.accuracy >= 0.95


def test_mlp_separable_holdout():
    ds = separable_dataset(seed=6)
    folds = kfold(ds, k=5, rng_seed=3)
    report = train_eval(ds, ClassifierSpec("mlp"), folds, rng_seed=3)
    assert report.accuracy >= 0.9


def test_gaussian_nb_separable():
    ds = separable_dataset(seed=8)
    folds = kfold(ds, k=5, rng_seed=4)
    report = train_eval(ds, ClassifierSpec("gaussian_nb"), folds, rng_seed=4)
    assert report.accuracy >= 0.95


def test_gaussian_nb_single_class_warns():
    X = np.array([[0.0, 1.0], [0.2, 0.8]])
    y = np.array([1, 1])
    clf = make_classifier(ClassifierSpec("gaussian_nb"))
    with pytest.warns(UserWarning, match="single class"):
        clf.fit(X, y)
    assert clf.predict(np.array([[5.0, 5.0]])).tolist() == [1]


FIT_PROBE = """
import sys
import numpy as np
from cuelex.classify import ClassifierSpec, make_classifier
X, y = np.random.default_rng(0).normal(size=(8, 3)), np.array([0, 1] * 4)
for kind in ("knn", "gaussian_nb", "logistic_sgd", "mlp"):
    make_classifier(ClassifierSpec(kind)).fit(X, y).predict(X)
print("numpy.ma" in sys.modules)
"""


def test_no_classifier_imports_numpy_ma():
    # np.unique imports numpy.ma (some ms), which train would pay in every fold worker
    proc = subprocess.run([sys.executable, "-c", FIT_PROBE], env=child_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_sgd_deterministic_given_seed():
    ds = separable_dataset(seed=11)
    X = np.vstack([ex.features for ex in ds]).astype(np.float64)
    y = np.array([ex.label for ex in ds])
    preds = []
    for _ in range(2):
        clf = make_classifier(ClassifierSpec("logistic_sgd"), rng_seed=21)
        clf.fit(X, y)
        preds.append(clf.predict(X))
    assert (preds[0] == preds[1]).all()
    mlps = []
    for _ in range(2):
        clf = make_classifier(ClassifierSpec("mlp"), rng_seed=22)
        clf.fit(X, y)
        mlps.append(clf.predict(X))
    assert (mlps[0] == mlps[1]).all()


def test_deterministic_classifiers_invariant_to_training_order():
    ds = dataset_of(25, 25, dim=4, seed=14)
    X = np.vstack([ex.features for ex in ds]).astype(np.float64)
    y = np.array([ex.label for ex in ds])
    perm = np.random.default_rng(1).permutation(len(ds))
    probe = np.random.default_rng(2).normal(size=(10, 4))
    for kind in ("knn", "gaussian_nb"):
        a = make_classifier(ClassifierSpec(kind)).fit(X, y).predict(probe)
        b = make_classifier(ClassifierSpec(kind)).fit(X[perm], y[perm]).predict(probe)
        assert (a == b).all()


# --- independent oracles: scipy for knn and gaussian_nb, finite differences for SGD ---


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("seed", range(4))
def test_knn_votes_match_a_cdist_oracle_ties_included(seed, k):
    distance = pytest.importorskip("scipy.spatial.distance")
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(12, 4))
    X = np.vstack([X, X[:6]])  # rows 12-17 repeat rows 0-5: equal distances
    y = rng.integers(0, 2, len(X))
    y[12:] = 1 - y[:6]  # with the other label, so that votes can tie
    queries = np.vstack([rng.normal(size=(20, 4)), X[:3]])
    want = []
    for row in distance.cdist(queries, X, "cosine"):
        others = np.sort(np.delete(row, range(12, 18)))
        assert np.diff(others).min() > 1e-9  # only the repeated rows tie
        nearest = sorted(range(len(X)), key=lambda j: (row[j], j))[:k]  # ties to the earlier row
        votes = np.bincount(y[nearest], minlength=2)
        want.append(y[nearest[0]] if votes[0] == votes[1] else int(np.argmax(votes)))
    assert KnnClassifier(k=k).fit(X, y).predict(queries).tolist() == want


@pytest.mark.parametrize("seed", range(4))
def test_gaussian_nb_predicts_the_class_of_the_larger_logpdf_sum(seed):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(seed)
    y = (rng.random(60) < 0.3).astype(np.int64)  # unequal priors
    X = rng.normal(size=(60, 5)) * [1.0, 2.0, 0.5, 1.0, 1.5] + 0.6 * y[:, None]
    X[:, 4] = 2.5  # no variance in either class: the floor applies
    queries = rng.normal(0.3, 1.5, size=(400, 5))
    queries[:, 4] = 2.5
    scores = np.column_stack([
        stats.norm.logpdf(queries, X[y == c].mean(axis=0),
                          np.sqrt(np.maximum(X[y == c].var(axis=0), 1e-9))).sum(axis=1)
        + np.log(np.mean(y == c))
        for c in (0, 1)
    ])
    margin = np.abs(scores[:, 0] - scores[:, 1])
    assert margin.min() > 1e-6  # no query sits on the boundary
    assert np.sum(margin < 0.3) >= 10  # but many sit near it, where a wrong score shows
    assert GaussianNbClassifier().fit(X, y).predict(queries).tolist() == np.argmax(scores, 1).tolist()


def _mean_log_loss(z, y):
    """Mean binary cross-entropy of logits ``z`` against labels ``y``."""
    return float(np.mean(y * np.logaddexp(0.0, -z) + (1 - y) * np.logaddexp(0.0, z)))


def _central_differences(loss, params, h=1e-6):
    """d loss / d p for every entry of every array in ``params``, by central differences."""
    grads = []
    for p in params:
        g = np.empty_like(p)
        for i in np.ndindex(p.shape):
            saved = p[i]
            p[i] = saved + h
            up = loss()
            p[i] = saved - h
            down = loss()
            p[i] = saved
            g[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def test_the_logistic_sgd_step_follows_the_log_loss_gradient():
    # one full batch per epoch: epoch 2 steps by lr times the gradient at epoch 1's end
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(30, 4)), (rng.random(30) < 0.5).astype(np.float64)
    fits = [LogisticSgdClassifier(lr=0.5, epochs=e, batch=30, rng_seed=1).fit(X, y) for e in (1, 2)]
    w, b = fits[0]._w.copy(), np.array([fits[0]._b])
    numeric = _central_differences(lambda: _mean_log_loss(X @ w + b[0], y), [w, b])
    step = [(fits[0]._w - fits[1]._w) / 0.5, np.array([(fits[0]._b - fits[1]._b) / 0.5])]
    for got, want in zip(step, numeric):
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)


def test_the_mlp_sgd_step_follows_the_log_loss_gradient():
    # no epoch leaves the seeded start; one full-batch epoch steps by lr times its gradient
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(25, 3)), (rng.random(25) < 0.5).astype(np.float64)
    fits = [MlpClassifier(hidden_width=4, lr=0.5, epochs=e, batch=25, rng_seed=2).fit(X, y)
            for e in (0, 1)]
    start = fits[0]
    params = [start._W1.copy(), start._b1.copy(), start._w2.copy(), np.array([start._b2])]
    W1, b1, w2, b2 = params

    def loss():
        return _mean_log_loss(np.tanh(X @ W1 + b1) @ w2 + b2[0], y)

    numeric = _central_differences(loss, params)
    names = ("_W1", "_b1", "_w2", "_b2")
    step = [(np.asarray(getattr(start, n)) - getattr(fits[1], n)) / 0.5 for n in names]
    for got, want in zip(step, numeric):
        np.testing.assert_allclose(np.reshape(got, np.shape(want)), want, rtol=1e-6, atol=1e-9)


def test_metrics_hand_case():
    m = metrics(tp=8, fp=2, fn=1, tn=9)
    assert m.accuracy == pytest.approx(0.85, abs=1e-12)
    assert m.precision == pytest.approx(0.8, abs=1e-12)
    assert m.recall == pytest.approx(0.8889, abs=1e-4)
    assert m.f1 == pytest.approx(0.8421, abs=1e-4)
    assert m.flags == ()


def test_metrics_perfect_and_degenerate():
    m = metrics(tp=10, fp=0, fn=0, tn=10)
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
    z = metrics(tp=0, fp=3, fn=0, tn=7)
    assert z.precision == 0.0 and z.f1 == 0.0
    assert "recall" in z.flags and "f1" in z.flags
    with pytest.raises(InputError):
        metrics(0, 0, 0, 0)


def test_train_eval_confusion_sums_to_dataset_size():
    ds = dataset_of(30, 25, dim=4, seed=17)
    folds = kfold(ds, k=5, rng_seed=6)
    report = train_eval(ds, ClassifierSpec("knn", (("k", 3),)), folds, rng_seed=6)
    assert report.tp + report.fp + report.fn + report.tn == len(ds)
    assert 0.0 <= report.accuracy <= 1.0
    assert len(report.fold_digest) == 12


def test_train_eval_fold_mismatch():
    ds = dataset_of(5, 5)
    with pytest.raises(InputError, match="fold"):
        train_eval(ds, ClassifierSpec("knn"), np.zeros(3, dtype=int))


# --- folds in worker processes ----------------------------------------------


def serial_confusion(dataset, spec, folds, rng_seed=0):
    """The one-process fold loop that train_eval replaced, kept as the reference."""
    X = np.vstack([ex.features for ex in dataset]).astype(np.float64)
    y = np.array([ex.label for ex in dataset], dtype=np.int64)
    tp = fp = fn = tn = 0
    for f in sorted(set(folds.tolist())):
        test = folds == f
        clf = make_classifier(spec, rng_seed=rng_seed).fit(X[~test], y[~test])
        pred, truth = clf.predict(X[test]), y[test]
        tp += int(((pred == 1) & (truth == 1)).sum())
        fp += int(((pred == 1) & (truth == 0)).sum())
        fn += int(((pred == 0) & (truth == 1)).sum())
        tn += int(((pred == 0) & (truth == 0)).sum())
    return tp, fp, fn, tn


FAST_SPECS = [
    ClassifierSpec("knn", (("k", 3),)),
    ClassifierSpec("gaussian_nb"),
    ClassifierSpec("logistic_sgd", (("epochs", 40), ("batch", 16))),
    ClassifierSpec("mlp", (("epochs", 40), ("batch", 16))),
]


@pytest.mark.parametrize("spec", FAST_SPECS, ids=lambda s: s.kind)
def test_train_eval_same_report_on_one_and_two_cpus(monkeypatch, forks, spec):
    ds = dataset_of(38, 34, dim=6, seed=23)
    folds = kfold(ds, k=10, rng_seed=5)
    reports = []
    for n in (1, 2):
        set_cpus(monkeypatch, n)
        reports.append(train_eval(ds, spec, folds, rng_seed=5))
        assert len(forks) == 2 * (n - 1)  # one CPU fits the folds in this process
    assert reports[0] == reports[1]
    r = reports[0]
    assert (r.tp, r.fp, r.fn, r.tn) == serial_confusion(ds, spec, folds, rng_seed=5)


def run_recording_warnings(action, fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        result = fn(*args)
    return result, [(w.category, w.filename, w.lineno, str(w.message)) for w in caught]


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("action", ["always", "default"])
@pytest.mark.parametrize("case", ["two folds", "ten folds"])
def test_train_eval_warns_as_often_as_the_serial_loop(monkeypatch, n_cpus, action, case):
    if case == "two folds":  # fold 0 holds every positive, fold 1 every negative
        ds = dataset_of(6, 7, dim=3, seed=3)
        folds = np.array([1 - ex.label for ex in ds])
    else:  # the fold holding the only positive trains on negatives alone
        ds = dataset_of(1, 29, dim=3, seed=3)
        folds = kfold(ds, k=10, rng_seed=2)
    spec = ClassifierSpec("gaussian_nb")
    counts, expected = run_recording_warnings(action, serial_confusion, ds, spec, folds)
    set_cpus(monkeypatch, n_cpus)
    report, seen = run_recording_warnings(action, train_eval, ds, spec, folds)
    assert seen == expected
    assert len(seen) == (1 if action == "default" or case == "ten folds" else 2)
    assert "single class" in seen[0][3]
    assert (report.tp, report.fp, report.fn, report.tn) == counts


def test_train_eval_warning_as_error_leaves_no_process(monkeypatch):
    ds = dataset_of(6, 7, dim=3, seed=3)
    folds = np.array([1 - ex.label for ex in ds])
    set_cpus(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="single class"):
            train_eval(ds, ClassifierSpec("gaussian_nb"), folds)
    assert multiprocessing.active_children() == []
    assert no_child_left()


def test_train_eval_input_errors_come_before_any_worker(monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    ds = dataset_of(5, 5)
    with pytest.raises(InputError, match="a fold leaves no training data"):
        train_eval(ds, ClassifierSpec("knn"), np.zeros(len(ds), dtype=int))
    with pytest.raises(InputError, match="unknown classifier kind"):
        train_eval(ds, ClassifierSpec("boost"), kfold(ds, k=5))
    with pytest.raises(InputError, match="k >= 1"):
        train_eval(ds, ClassifierSpec("knn", (("k", 0),)), kfold(ds, k=5))
    assert forks == []
    assert multiprocessing.active_children() == []
    assert no_child_left()


def test_train_eval_leaves_no_process_after_return_or_worker_failure(monkeypatch, forks):
    set_cpus(monkeypatch, 2)
    ds = dataset_of(10, 10, dim=3, seed=1)
    folds = kfold(ds, k=5, rng_seed=1)
    train_eval(ds, ClassifierSpec("knn"), folds)
    assert multiprocessing.active_children() == []
    assert no_child_left()

    def failing_fit(self, X, y):
        raise RuntimeError("fit failed in a worker")

    monkeypatch.setattr(KnnClassifier, "fit", failing_fit)
    with pytest.raises(RuntimeError, match="fit failed in a worker"):
        train_eval(ds, ClassifierSpec("knn"), folds)
    assert len(forks) == 2 + 2
    assert multiprocessing.active_children() == []
    assert no_child_left()


def test_parse_classifier_spec():
    spec = parse_classifier_spec("knn:k=5")
    assert spec.kind == "knn" and spec.get("k", None) == 5
    assert spec.name == "knn(k=5)"
    assert parse_classifier_spec("mlp").kind == "mlp"
    with pytest.raises(InputError):
        parse_classifier_spec("knn:k")
    with pytest.raises(InputError):
        make_classifier(ClassifierSpec("boost"))


@pytest.mark.parametrize(
    "text, names",
    [
        ("knn:k=3,gaussian_nb,logistic_sgd,mlp", ["knn(k=3)", "gaussian_nb", "logistic_sgd", "mlp"]),
        ("mlp:epochs=40,batch=16,knn", ["mlp(epochs=40,batch=16)", "knn"]),
        (" knn : k = 5 , , logistic_sgd:lr=1", ["knn(k=5)", "logistic_sgd(lr=1)"]),
        ("gaussian_nb,mlp,epochs=40,batch=16", ["gaussian_nb", "mlp(epochs=40,batch=16)"]),
    ],
)
def test_parse_classifier_specs_joins_bare_parameters_onto_the_spec_before(text, names):
    assert [spec.name for spec in parse_classifier_specs(text)] == names


def test_make_classifier_takes_its_defaults_from_the_class():
    spec = parse_classifier_spec("mlp:lr=1,epochs=40")
    assert make_classifier(spec, rng_seed=7) == MlpClassifier(lr=1, epochs=40, rng_seed=7)
    assert make_classifier(ClassifierSpec("knn")) == KnnClassifier()

