import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import make_model
from corpus_strategies import corpora, make_corpus, outcome, patterns
from w2v_writer import write_binary

from cuelex.corpus import as_pattern, build_corpus, count_matches, match
from cuelex.embeddings import load_model
from cuelex.errors import InputError
from cuelex.expansion import (
    NEG_INF,
    CandidatePair,
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


def test_empty_lexicon_names_origin(tmp_path):
    path = tmp_path / "empty_seeds.txt"
    path.write_text("# nothing but comments\n")
    with pytest.raises(InputError, match="empty_seeds.txt"):
        load_seed_lexicon(path)
    with pytest.raises(InputError, match="missing.txt"):
        load_seed_lexicon(tmp_path / "missing.txt")


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
    a = expand(toy_model, lex, k=4, threads=1)
    b = expand(toy_model, lex, k=4, threads=4)
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


def test_expand_k_must_be_positive(toy_model):
    with pytest.raises(InputError):
        expand(toy_model, lexicon_of("anything"), k=0)


# --- distinct / intersect ----------------------------------------------------


def pair(seed, cand, sim=0.5, model="m"):
    return CandidatePair(seed, cand, sim, model)


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
