import gc
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model, set_cpus
from corpus_strategies import corpora, make_corpus, outcome, patterns
from w2v_writer import write_binary

from cuelex.corpus import as_pattern, build_corpus, count_matches, match
from cuelex.embeddings import load_model
from cuelex.errors import InputError
from cuelex.expansion import (
    NEG_INF,
    Candidate,
    CandidatePair,
    CandidateSet,
    ModelProvenance,
    SeedEntry,
    SeedLexicon,
    default_seed_lexicon,
    distinct_candidates,
    expand,
    intersect,
    load_seed_lexicon,
    parse_seed_lexicon,
    pmi,
    read_candidate_set,
    read_pairs,
    score_candidates,
    tfidf,
    write_candidate_set,
    write_pairs,
)
from cuelex.patterns import MatchPattern
from cuelex.workers import fork_map


def lexicon_of(*surfaces):
    return parse_seed_lexicon(list(surfaces))


# --- lexicon parsing -------------------------------------------------------


def test_parse_lexicon_basics():
    lex = parse_seed_lexicon(
        [
            "# comment line",
            "unknown\tscientific",
            "surpris*\tscientific\tsurprising,surprise",
            "ought to",
            "",
        ]
    )
    assert len(lex) == 3
    wildcard = lex.entry_for("surpris*")
    assert wildcard.pattern.kind == "prefix_wildcard"
    assert wildcard.model_forms == ("surprising", "surprise")
    phrase = lex.entry_for("ought to")
    assert phrase.pattern.kind == "phrase"
    assert phrase.model_forms == ("ought_to",)
    assert phrase.source_tag == "custom"


def test_parse_lexicon_wildcard_without_forms_rejected():
    with pytest.raises(InputError, match="model forms"):
        parse_seed_lexicon(["surpris*"])


def test_parse_lexicon_duplicate_surface_rejected():
    with pytest.raises(InputError, match="duplicate"):
        parse_seed_lexicon(["unknown", "Unknown"])


def test_parse_lexicon_bad_tag_rejected():
    with pytest.raises(InputError, match="source tag"):
        parse_seed_lexicon(["unknown\tbogus"])


@pytest.mark.parametrize(
    "second, message",
    [
        ("**", "wildcard pattern needs a stem"),
        ("may be*", "wildcard pattern stem holds whitespace: 'may be\\*'"),
        ("surpris*", "wildcard seed 'surpris\\*' needs explicit model forms"),
        ("Maybe", "duplicate seed surface 'Maybe'"),
    ],
    ids=["empty-stem", "spaced-stem", "wildcard-without-forms", "repeated-surface"],
)
def test_every_refusal_of_a_lexicon_line_names_its_place(tmp_path, second, message):
    path = tmp_path / "seeds.txt"
    path.write_text(f"# seeds\nmaybe\n\n{second}\nunknown\n")
    with pytest.raises(InputError, match=f"seeds\\.txt:4: {message}"):
        load_seed_lexicon(path)


def test_empty_lexicon_names_origin(tmp_path):
    path = tmp_path / "empty_seeds.txt"
    path.write_text("# nothing but comments\n")
    with pytest.raises(InputError, match="empty_seeds.txt"):
        load_seed_lexicon(path)
    with pytest.raises(InputError, match="missing.txt"):
        load_seed_lexicon(tmp_path / "missing.txt")
    with pytest.raises(InputError, match="seed lexicon is empty"):
        SeedLexicon([])


def test_default_lexicon_loads():
    lex = default_seed_lexicon()
    assert len(lex) >= 50
    surfaces = {e.surface for e in lex.entries}
    assert {"unknown", "paradox", "inconclusive", "surpris*"} <= surfaces
    for e in lex.entries:
        if e.pattern.kind == "prefix_wildcard":
            assert e.model_forms


def test_folded_words_cover_forms():
    lex = parse_seed_lexicon(["Myster*\tcustom\tMystery,mysterious"])
    assert lex.folded_words() == {"myster*", "mystery", "mysterious"}


# --- expand ----------------------------------------------------------------


def test_expand_all_oov_reports_everything(toy_model):
    lex = lexicon_of("zzzznotintfhere", "qqqqalsonot")
    result = expand(toy_model, lex, k=5)
    assert result.pairs == []
    assert sorted(s for s, _ in result.skipped) == ["qqqqalsonot", "zzzznotintfhere"]


def write_zero_seed_model(path):
    """Six tokens; the seed ``possible`` has an all-zero vector, ``Maybe`` a usable one."""
    tokens = ["possible", "Maybe", "perhaps", "likely", "table", "chair"]
    vecs = [[0, 0], [1, 0], [0.9, 0.1], [0.8, 0.3], [0, 1], [0.1, 1]]
    write_binary(path, tokens, np.array(vecs, dtype=np.float32))


@pytest.mark.parametrize("fold_case", [True, False])
def test_expand_skips_a_seed_form_with_an_unusable_vector(tmp_path, fold_case):
    write_zero_seed_model(tmp_path / "zero.bin")
    model = load_model(tmp_path / "zero.bin", "binary")
    result = expand(model, lexicon_of("possible", "maybe"), k=2, fold_case=fold_case)
    if fold_case:
        assert result.skipped == [("possible", "possible")]
        assert [(p.seed, p.candidate) for p in result.pairs] == [
            ("maybe", "perhaps"), ("maybe", "likely")
        ]
    else:  # ``maybe`` matches only ``Maybe`` when case is folded
        assert result.skipped == [("possible", "possible"), ("maybe", "maybe")]
        assert result.pairs == []


def test_expand_matches_per_seed_brute_force(tmp_path):
    model = make_model(tmp_path, seed=21, n=40, dim=6)
    seeds = model.vocab[:4]
    lex = lexicon_of(*[s.lower() for s in seeds])
    k = 7
    result = expand(model, lex, k=k)
    folded_seeds = lex.folded_words()
    for entry in lex.entries:
        expected = [
            (nb.neighbor.lower(), nb.similarity)
            for nb in model.top_k(entry.model_forms[0], k)
            if nb.neighbor.lower() not in folded_seeds
        ]
        got = [
            (p.candidate, p.similarity) for p in result.pairs if p.seed == entry.surface
        ]
        assert sorted(got, key=lambda t: (-t[1], t[0])) == sorted(
            expected, key=lambda t: (-t[1], t[0])
        )


def test_expand_sorted_and_bounded(toy_model):
    lex = lexicon_of(*[t.lower() for t in toy_model.vocab[:6]])
    k = 5
    result = expand(toy_model, lex, k=k)
    assert len(result.pairs) <= 6 * k
    keys = [(p.seed, -p.similarity, p.candidate) for p in result.pairs]
    assert keys == sorted(keys)
    for p in result.pairs:
        assert p.candidate == p.candidate.lower()
        assert p.candidate not in lex.folded_words()


def test_expand_deterministic_and_thread_merge(toy_model, tmp_path):
    lex = lexicon_of(*[t.lower() for t in toy_model.vocab[:8]])
    a = expand(toy_model, lex, k=4)
    b = expand(toy_model, lex, k=4)
    assert a.pairs == b.pairs and a.skipped == b.skipped
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_pairs(p1, a.pairs)
    write_pairs(p2, b.pairs)
    assert p1.read_bytes() == p2.read_bytes()


def test_expand_similarities_match_direct_cosine(toy_model):
    lex = lexicon_of(*[t.lower() for t in toy_model.vocab[:5]])
    result = expand(toy_model, lex, k=6)
    for p in result.pairs:
        assert p.similarity == pytest.approx(
            toy_model.cosine(p.seed, p.candidate), abs=1e-6
        )


def test_expand_multiword_seed_maps_spaces(tmp_path):
    tokens = ["ought_to", "should", "would", "filler"]
    vecs = np.array([[1, 0], [0.9, 0.1], [0.8, 0.2], [0, 1]], dtype=np.float32)
    path = tmp_path / "phrase.bin"
    write_binary(path, tokens, vecs)
    model = load_model(path, "binary")
    result = expand(model, lexicon_of("ought to"), k=2)
    assert [p.candidate for p in result.pairs] == ["should", "would"]
    assert result.skipped == []


def test_spaced_model_form_is_a_seed_word_in_lookup_and_exclusion(tmp_path):
    tokens = ["in_question", "doubtful", "unclear", "filler"]
    vecs = np.array([[1, 0], [0.95, 0.05], [0.8, 0.2], [0, 1]], dtype=np.float32)
    write_binary(tmp_path / "forms.bin", tokens, vecs)
    model = load_model(tmp_path / "forms.bin", "binary")
    lex = parse_seed_lexicon(["in question\tscientific\tin question", "doubtful"])
    assert lex.entries[0].model_forms == ("in_question",)
    result = expand(model, lex, k=3)
    assert result.skipped == []
    assert sorted((p.seed, p.candidate) for p in result.pairs) == [
        ("doubtful", "filler"), ("doubtful", "unclear"),
        ("in question", "filler"), ("in question", "unclear"),
    ]


def test_expand_k_must_be_positive(toy_model):
    with pytest.raises(InputError):
        expand(toy_model, lexicon_of("anything"), k=0)


# --- distinct / intersect ----------------------------------------------------


def pair(seed, cand, sim=0.5, model="m"):
    return CandidatePair(seed, cand, sim, model)


@pytest.mark.parametrize("seed, cand, sim, message", [
    ("", "x", 0.5, "pair with empty token"),
    ("s", "", 0.5, "pair with empty token"),
    ("s", "x", 1.5, "similarity out of range: 1.5"),
    ("s", "x", -1.5, "similarity out of range: -1.5"),
])
def test_a_pair_refuses_an_empty_token_and_a_similarity_that_is_no_cosine(seed, cand, sim, message):
    with pytest.raises(InputError, match=message):
        pair(seed, cand, sim)


def test_distinct_candidates_dedupes():
    pairs = [pair("s1", "a"), pair("s2", "a"), pair("s1", "b")]
    assert distinct_candidates(pairs) == {"a", "b"}


def test_distinct_matches_sort_unique_oracle():
    rng = random.Random(3)
    pairs = [
        pair(f"s{rng.randint(0, 5)}", f"c{rng.randint(0, 30)}") for _ in range(200)
    ]
    expected = []
    for candidate in sorted(p.candidate for p in pairs):
        if not expected or expected[-1] != candidate:
            expected.append(candidate)
    assert sorted(distinct_candidates(pairs)) == expected


def test_intersect_disjoint_empty():
    cset = intersect({"x"}, {"y"}, lexicon_of("seedword"))
    assert cset.words() == []


def test_intersect_drops_seeds():
    lex = lexicon_of("s")
    cset = intersect({"x", "y", "s"}, {"y", "z", "s"}, lex)
    assert cset.words() == ["y"]


def test_intersect_commutative_and_subset():
    lex = lexicon_of("seedword")
    a = {"m", "n", "o", "seedword"}
    b = {"n", "o", "p"}
    ab = intersect(a, b, lex)
    ba = intersect(b, a, lex)
    assert ab.words() == ba.words() == ["n", "o"]
    assert set(ab.words()) <= a and set(ab.words()) <= b


def test_intersect_provenance_from_pairs():
    lex = lexicon_of("s1", "s2")
    pairs = [
        pair("s1", "shared", 0.7, "alpha"),
        pair("s2", "shared", 0.9, "alpha"),
        pair("s1", "shared", 0.6, "beta"),
        pair("s1", "alphaonly", 0.5, "alpha"),
    ]
    cset = intersect({"shared", "alphaonly"}, {"shared"}, lex, pairs=pairs)
    assert cset.words() == ["shared"]
    cand = cset.candidates[0]
    assert set(cand.models) == {"alpha", "beta"}
    assert cand.models["alpha"].similarity == pytest.approx(0.9)
    assert cand.models["alpha"].seeds == ("s1", "s2")
    assert cand.models["beta"].seeds == ("s1",)
    assert cand.status == "unrated"


def intersect_oracle(a, b, lexicon, pairs):
    """``intersect`` as dicts of sets: each (candidate, model)'s best similarity, the first
    of equal ones, and its set of seeds."""
    words = sorted((a & b) - lexicon.folded_words())
    by_word = {w: Candidate(w) for w in words}
    best, seeds = {}, {}
    for p in pairs:
        if p.candidate not in by_word:
            continue
        key = (p.candidate, p.model_name)
        if key not in best or p.similarity > best[key]:
            best[key] = p.similarity
        seeds.setdefault(key, set()).add(p.seed)
    for (word, model_name), sim in sorted(best.items()):
        seeds_of = tuple(sorted(seeds[(word, model_name)]))
        by_word[word].models[model_name] = ModelProvenance(sim, seeds_of)
    return [by_word[w] for w in words]


SEED_POOL = ["s1", "s2", "s3", "Sx"]
# seed words among the candidates; ties among the similarities, 0.0 and -0.0 included
CANDIDATE_POOL = ["c1", "c2", "c3", "c4", "s1", "sx", "c5"]
SIMILARITIES = [0.5, 0.25, 0.0, -0.0, -0.5, 0.9, 1.0]


@st.composite
def pair_lists(draw):
    models = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    pair = st.builds(CandidatePair, st.sampled_from(SEED_POOL), st.sampled_from(CANDIDATE_POOL),
                     st.sampled_from(SIMILARITIES), st.sampled_from(models))
    return draw(st.lists(pair, max_size=40))  # small pools: repeated (candidate, model, seed)


@settings(max_examples=300, deadline=None)
@given(pair_lists(), st.sets(st.sampled_from(CANDIDATE_POOL)), st.booleans())
def test_intersect_provenance_matches_the_dict_of_sets_oracle(pairs, other, common):
    lexicon = parse_seed_lexicon(SEED_POOL)
    a = distinct_candidates(pairs)
    b = a if common else other  # the pipeline passes the common set twice
    got = intersect(a, b, lexicon, pairs=iter(pairs)).candidates
    # repr tells 0.0 from -0.0, and shows each candidate's models in insertion order
    assert repr(got) == repr(intersect_oracle(a, b, lexicon, pairs))


def test_candidate_records_survive_pickle_and_the_worker_pipe(monkeypatch):
    pairs = [pair("s1", "c\u00e9", -0.0, "m"), pair("s2", "c", 1.0, "n")]
    cand = Candidate("c", {"m": ModelProvenance(0.5, ("s1",))}, pmi=NEG_INF, status="accepted")
    assert pickle.loads(pickle.dumps(pairs)) == pairs
    assert pickle.loads(pickle.dumps(cand)) == cand
    set_cpus(monkeypatch, 2)
    assert fork_map(lambda i: pairs[i:], [0, 1]) == [pairs, pairs[1:]]
    with pytest.raises(AttributeError):  # slotted: no per-instance dict
        pairs[0].__dict__


def retrieval_shaped_pairs() -> tuple[list[str], list[list[CandidatePair]]]:
    """Seeds and two models' pairs shaped like the benchmark's seed-7 ``retrieval`` pairs.

    60 seeds with 50 neighbors each from two models (6,000 pairs): 40 neighbors
    per seed that both models retrieve, 10 of each model's own, 2 of which the
    other model also retrieves (2,402 common candidates), 7-letter words.
    """
    rng = random.Random(7)
    letters = "abcdefghijklmnopqrstuvwxyz"
    pool = sorted({"".join(rng.choices(letters, k=7)) for _ in range(9000)})
    rng.shuffle(pool)
    words = iter(pool)
    seeds = [f"seed{i:02d}" for i in range(60)]
    shared = {s: [next(words) for _ in range(40)] for s in seeds}
    own = [{s: [next(words) for _ in range(10)] for s in seeds} for _ in "ab"]
    own[1][seeds[0]][0], own[1][seeds[1]][0] = own[0][seeds[0]][0], own[0][seeds[1]][0]
    lists = []
    for m, name in enumerate("ab"):
        lists.append([
            CandidatePair(s, w, round(0.9 - 0.009 * r + rng.uniform(0, 0.004), 6), name)
            for s in seeds for r, w in enumerate(shared[s] + own[m][s])
        ])
    return seeds, lists


def test_the_candidate_stage_holds_no_dict_of_sets_and_no_json_tree(tmp_path):
    seeds, lists = retrieval_shaped_pairs()
    lexicon = parse_seed_lexicon(seeds)
    common = set.intersection(*(distinct_candidates(pairs) for pairs in lists))
    assert (sum(map(len, lists)), len(common)) == (6000, 2402)
    meta = {"version": "0.1.0", "config_digest": "0" * 12, "rng_seed": 1}
    gc.collect()
    tracemalloc.start()
    try:
        cset = intersect(common, common, lexicon, pairs=(p for pairs in lists for p in pairs))
        write_candidate_set(tmp_path / "candidates.json", cset, meta=meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read_candidate_set(tmp_path / "candidates.json")) == 2402
    # dicts of sets and the whole JSON tree peaked near 3.8 MiB; one sort and
    # the entries written one at a time peak near 1.3 MiB
    assert peak < 2.54 * 2**20  # halfway between the two


# --- pmi / tfidf -----------------------------------------------------------


def corpus_of(*sentences):
    text = " ".join(s.capitalize() + "." for s in sentences)
    return build_corpus([("doc", text)])


def test_pmi_uninformative_y():
    corpus = corpus_of("xword yword", "other yword", "more yword stuff")
    assert pmi(corpus, "xword", "yword") == pytest.approx(0.0)


def test_pmi_hand_count():
    # sentences {xy, xy, x, y}: ln((2/3)/(3/4)) = ln(8/9)
    corpus = corpus_of("xw yw", "xw yw", "xw alone", "yw alone")
    assert pmi(corpus, "xw", "yw") == pytest.approx(math.log(8 / 9), abs=1e-9)
    assert pmi(corpus, "xw", "yw") == pytest.approx(-0.1178, abs=5e-4)


def test_pmi_independence_converges_to_zero():
    rng = random.Random(99)
    n = 10_000
    sentences = []
    for _ in range(n):
        words = ["base"]
        if rng.random() < 0.5:
            words.append("xind")
        if rng.random() < 0.5:
            words.append("yind")
        sentences.append(" ".join(words))
    corpus = corpus_of(*sentences)
    assert abs(pmi(corpus, "xind", "yind")) < 0.05


def test_pmi_errors_and_sentinel():
    corpus = corpus_of("xw here", "yw there")
    with pytest.raises(InputError, match="missingx"):
        pmi(corpus, "missingx", "yw")
    with pytest.raises(InputError, match="missingy"):
        pmi(corpus, "xw", "missingy")
    assert pmi(corpus, "xw", "yw") == NEG_INF


def test_tfidf_ubiquitous_word_scores_zero():
    corpus = build_corpus([("d1", "Common word here."), ("d2", "Common word there.")])
    assert tfidf(corpus, "common") == pytest.approx(0.0)


def test_tfidf_hand_count():
    # 2 docs x 10 tokens; the word appears twice, only in doc 1
    d1 = "Target target filler3 filler4 filler5 filler6 filler7 filler8 filler9 filler10."
    d2 = "Other2 other3 other4 other5 other6 other7 other8 other9 other10 other11."
    corpus = build_corpus([("d1", d1), ("d2", d2)])
    assert corpus.n_tokens == 20
    assert tfidf(corpus, "target") == pytest.approx((2 / 20) * math.log(2), abs=1e-9)
    assert tfidf(corpus, "target") == pytest.approx(0.0693, abs=5e-4)


def test_tfidf_invariant_under_document_reorder():
    docs = [("a", "Target word mix."), ("b", "Other words."), ("c", "Target again here.")]
    c1 = build_corpus(docs)
    c2 = build_corpus(docs[::-1])
    assert tfidf(c1, "target") == pytest.approx(tfidf(c2, "target"))


def test_tfidf_absent_word_errors():
    corpus = corpus_of("something present")
    with pytest.raises(InputError, match="absent"):
        tfidf(corpus, "missing")


# The plain scans PMI and TF-IDF were first written as: every sentence, match()
# and count_matches(), no index.


def rescan_pmi(corpus, x, y):
    px, py = as_pattern(x), as_pattern(y)
    n = corpus.n_sentences
    if n == 0:
        raise InputError("pmi over an empty corpus")
    n_x = n_y = n_xy = 0
    for sent in corpus.sentences():
        mx, my = match(px, sent), match(py, sent)
        n_x += mx
        n_y += my
        n_xy += mx and my
    if n_x == 0:
        raise InputError(f"insufficient evidence: pattern {px.surface!r} matches no sentence")
    if n_y == 0:
        raise InputError(f"insufficient evidence: pattern {py.surface!r} matches no sentence")
    if n_xy == 0:
        return NEG_INF
    return math.log((n_xy / n_x) / (n_y / n))


def rescan_tfidf(corpus, word):
    p = as_pattern(word)
    cf = df = total_tokens = 0
    for doc in corpus.documents:
        doc_cf = 0
        for sent in doc.sentences:
            doc_cf += count_matches(p, sent)
            total_tokens += len(sent.tokens)
        cf += doc_cf
        df += doc_cf > 0
    if df == 0:
        raise InputError(f"word absent from corpus: {p.surface!r}")
    return (cf / total_tokens) * math.log(len(corpus.documents) / df)


@settings(max_examples=150, deadline=None)
@given(corpora(), patterns, patterns)
def test_pmi_and_tfidf_match_rescan(corpus, x, y):
    assert outcome(pmi, corpus, x, y) == outcome(rescan_pmi, corpus, x, y)
    assert outcome(tfidf, corpus, y) == outcome(rescan_tfidf, corpus, y)


def test_tfidf_counts_overlaps_and_empty_documents():
    # "very very" occurs twice in one sentence; the empty document still counts in N_docs
    corpus = make_corpus([("a", [["very", "very", "very"]]), ("b", [["ought"]]), ("c", [])])
    assert tfidf(corpus, "very very") == (2 / 4) * math.log(3 / 1)
    assert tfidf(corpus, "very very") == rescan_tfidf(corpus, "very very")


# --- score_candidates --------------------------------------------------------


def test_score_retains_absent_candidate_with_marker():
    lex = lexicon_of("seedw")
    cset = intersect({"ghostword"}, {"ghostword"}, lex)
    corpus = corpus_of("seedw appears here")
    scored = score_candidates(cset, corpus, lex)
    assert scored.words() == ["ghostword"]
    cand = scored.candidates[0]
    assert cand.no_evidence and cand.tfidf is None and cand.pmi is None


def test_a_candidate_that_is_no_pattern_has_no_corpus_evidence():
    # a candidate is the literal model token: "**" once matched every word, and
    # "present*" every word that starts with "present"
    lex = lexicon_of("seedw")
    words = {"**", "present", "present*", "may be"}
    cset = intersect(words, words, lex)
    corpus = build_corpus([("a", "seedw present presently presents"), ("b", "other")])
    scored = {c.word: c for c in score_candidates(cset, corpus, lex).candidates}
    assert [w for w, c in scored.items() if c.no_evidence] == ["**", "may be", "present*"]
    assert all(c.pmi is None and c.tfidf is None for w, c in scored.items() if w != "present")
    assert scored["present"].tfidf == pytest.approx(0.1386, abs=5e-5)
    assert scored["present"].pmi == pytest.approx(0.6931, abs=5e-5)


def rescan_scores(corpus, entries, word):
    """(pmi, tfidf) of the literal token ``word`` by the plain scans: the best PMI
    over the seeds that match some sentence, and None for both without evidence."""
    literal = MatchPattern(word, "literal")
    if corpus.n_sentences == 0:
        raise InputError("scoring corpus is empty")
    if outcome(rescan_tfidf, corpus, literal)[0] == "error":
        return None, None
    values = [outcome(rescan_pmi, corpus, e.pattern, literal) for e in entries]
    return max((v for ok, v in values if ok == "ok"), default=None), rescan_tfidf(corpus, literal)


@settings(max_examples=150, deadline=None)
@given(
    corpora(),
    st.lists(patterns, min_size=1, max_size=4, unique_by=lambda p: p.lower()),
    st.lists(st.one_of(patterns, patterns.map(lambda p: p + "*")), min_size=1, max_size=6),
    st.data(),
)
def test_score_candidates_matches_rescans_of_the_literal_token(corpus, seeds, words, data):
    lex = SeedLexicon([SeedEntry(as_pattern(s), ("form",)) for s in seeds])
    candidates = []
    for word in words:
        credited = data.draw(st.lists(st.sampled_from(seeds), unique=True, max_size=len(seeds)))
        models = {"m": ModelProvenance(0.5, tuple(credited))} if credited else {}
        candidates.append(Candidate(word, models))
    scored = outcome(score_candidates, CandidateSet(candidates), corpus, lex)
    expected = []
    for cand in candidates:
        surfaces = {s for prov in cand.models.values() for s in prov.seeds}
        entries = [e for e in lex.entries if not surfaces or e.surface in surfaces]
        expected.append(outcome(rescan_scores, corpus, entries, cand.word))
    if scored[0] == "error":
        assert {scored} == set(expected)
        return
    got = [("ok", (c.pmi, c.tfidf)) for c in scored[1].candidates]
    assert got == expected
    assert [c.no_evidence for c in scored[1].candidates] == [e[1][1] is None for e in expected]


def test_score_single_seed_degenerate_aggregation():
    lex = lexicon_of("seedw")
    pairs = [pair("seedw", "cand", 0.8, "m1"), pair("seedw", "cand", 0.7, "m2")]
    cset = intersect({"cand"}, {"cand"}, lex, pairs=pairs)
    corpus = corpus_of("seedw cand together", "seedw alone", "cand alone", "noise")
    scored = score_candidates(cset, corpus, lex)
    assert scored.candidates[0].pmi == pytest.approx(pmi(corpus, "seedw", "cand"))
    assert scored.candidates[0].tfidf == pytest.approx(tfidf(corpus, "cand"))


def test_score_matches_per_pair_recomputation():
    lex = lexicon_of("alphaseed", "betaseed")
    pairs = [
        pair("alphaseed", "candone", 0.9, "m1"),
        pair("betaseed", "candone", 0.8, "m2"),
        pair("alphaseed", "candtwo", 0.7, "m1"),
        pair("alphaseed", "candtwo", 0.7, "m2"),
        pair("betaseed", "candthree", 0.6, "m1"),
        pair("betaseed", "candthree", 0.6, "m2"),
    ]
    words = {"candone", "candtwo", "candthree"}
    cset = intersect(words, words, lex, pairs=pairs)
    corpus = corpus_of(
        "alphaseed candone same sentence",
        "betaseed candone again",
        "alphaseed candtwo pairup",
        "betaseed candthree mix",
        "candtwo alone",
        "alphaseed alone",
        "betaseed alone",
    )
    scored = score_candidates(cset, corpus, lex)
    for cand in scored.candidates:
        seeds = sorted({s for prov in cand.models.values() for s in prov.seeds})
        expected = max(pmi(corpus, s, cand.word) for s in seeds)
        assert cand.pmi == pytest.approx(expected)
        assert cand.tfidf == pytest.approx(tfidf(corpus, cand.word))
        assert cand.status == "unrated"


def test_score_needs_every_credited_seed_and_skips_a_seed_without_support():
    lex = lexicon_of("seedw", "silent")
    pairs = [pair("seedw", "cand", 0.8, "m1"), pair("silent", "cand", 0.7, "m1")]
    cset = intersect({"cand"}, {"cand"}, lex, pairs=pairs)
    corpus = corpus_of("seedw cand together", "cand alone", "noise")
    scored = score_candidates(cset, corpus, lex)
    assert scored.candidates[0].pmi == pytest.approx(pmi(corpus, "seedw", "cand"))
    # a candidate absent from the corpus is checked too
    ghost = intersect({"ghost"}, {"ghost"}, lex, pairs=[pair("other", "ghost", 0.5, "m1")])
    cset.candidates += ghost.candidates
    with pytest.raises(InputError, match="candidate 'ghost': no seed with surface 'other'"):
        score_candidates(cset, corpus, lex)


def test_score_keeps_set_membership():
    lex = lexicon_of("seedw")
    cset = intersect({"present", "ghost"}, {"present", "ghost"}, lex)
    corpus = corpus_of("seedw present words")
    scored = score_candidates(cset, corpus, lex)
    assert scored.words() == cset.words()


# --- file round-trips --------------------------------------------------------


def test_pairs_tsv_round_trip(tmp_path):
    pairs = [
        pair("seed", "cand", 0.712345, "m1"),
        pair("seed", "other", -0.25, "m2"),
    ]
    path = tmp_path / "pairs.tsv"
    write_pairs(path, pairs, header_lines=["meta line"])
    loaded = read_pairs(path)
    assert [(p.seed, p.candidate, p.model_name) for p in loaded] == [
        ("seed", "cand", "m1"),
        ("seed", "other", "m2"),
    ]
    assert loaded[0].similarity == pytest.approx(0.712345, abs=1e-6)


def test_pairs_tsv_errors(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("wrong\theader\n")
    with pytest.raises(InputError, match="header"):
        read_pairs(path)
    with pytest.raises(InputError, match="not found"):
        read_pairs(tmp_path / "nope.tsv")


def test_candidate_set_json_round_trip(tmp_path):
    lex = lexicon_of("s1")
    pairs = [pair("s1", "word", 0.5, "m1"), pair("s1", "word", 0.4, "m2")]
    cset = intersect({"word"}, {"word"}, lex, pairs=pairs)
    cset.candidates[0].pmi = NEG_INF
    cset.candidates[0].tfidf = 0.125
    cset.candidates[0].status = "accepted"
    path = tmp_path / "cands.json"
    write_candidate_set(path, cset, meta={"note": "test"})
    loaded = read_candidate_set(path)
    cand = loaded.candidates[0]
    assert cand.word == "word"
    assert cand.pmi == NEG_INF
    assert cand.tfidf == 0.125
    assert cand.status == "accepted"
    assert cand.models["m1"].seeds == ("s1",)


def test_candidate_set_rejects_bad_status():
    from cuelex.expansion import Candidate

    with pytest.raises(InputError, match="status"):
        Candidate("w", status="maybe")


def test_hash_words_in_seed_files_are_entries():
    lex = parse_seed_lexicon(["##th\thedging", "maybe  # a comment", "# comment", "#", "c#"])
    assert [e.surface for e in lex.entries] == ["##th", "maybe", "c#"]
    assert lex.entries[0].source_tag == "hedging"


def test_bundled_seed_list_parses_as_under_the_old_comment_rule():
    from importlib import resources

    text = resources.files("cuelex.data").joinpath("seeds_default.txt").read_text("utf-8")
    old_rule = parse_seed_lexicon([line.split("#", 1)[0] for line in text.splitlines()])
    assert default_seed_lexicon().entries == old_rule.entries
