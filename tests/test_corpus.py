import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_strategies import corpora, make_corpus, outcome, patterns

from cuelex.corpus import (
    DEFAULT_CONSENSUS_QUERY,
    RatioRow,
    RateRow,
    SentenceMatch,
    SplitResult,
    as_pattern,
    build_collection,
    build_corpus,
    collection_from_corpus,
    count_matches,
    find_sentences,
    load_collections,
    load_corpus,
    load_directory,
    load_jsonl,
    match,
    parse_pattern,
    ratio_table,
    relative_scores,
    segment,
    split_corpus,
    tokenize,
    uncertainty_rate,
)
from cuelex.errors import InputError


# --- segmentation ----------------------------------------------------------


def test_segment_empty():
    assert segment("") == []
    assert segment("   \n ") == []


def test_segment_two_plain_sentences():
    assert segment("A virus. It spreads.") == ["A virus.", "It spreads."]


def test_segment_abbreviation_guard():
    # hand check: the "et al." boundary must not split, the "X." one must
    got = segment("Smith et al. reported X. It held.")
    assert got == ["Smith et al. reported X.", "It held."]


def test_segment_more_guards():
    text = "See Fig. 2 for details. Results differ, e.g. in mice. Next we tested rats."
    got = segment(text)
    assert got == ["See Fig. 2 for details.", "Results differ, e.g. in mice.", "Next we tested rats."]


def test_segment_requires_uppercase():
    assert segment("pH was 7.4 there. and stable.") == ["pH was 7.4 there. and stable."]


def test_segment_covers_text():
    text = "One sentence here. Another one! Really? Yes."
    parts = segment(text)
    assert parts == ["One sentence here.", "Another one!", "Really?", "Yes."]
    # concatenation with single spaces reproduces the source text
    assert " ".join(parts) == text


# --- tokenization ----------------------------------------------------------


def test_tokenize_strips_edge_punctuation():
    assert tokenize('The "cause" is (unknown).') == ["The", "cause", "is", "unknown"]


def test_tokenize_keeps_interior_hyphen():
    assert tokenize("non-A, non-B hepatitis") == ["non-A", "non-B", "hepatitis"]


# --- patterns --------------------------------------------------------------


def test_parse_pattern_kinds():
    assert parse_pattern("unknown").kind == "literal"
    assert parse_pattern("surpris*").kind == "prefix_wildcard"
    assert parse_pattern("ought to").kind == "phrase"
    with pytest.raises(InputError):
        parse_pattern("*")
    with pytest.raises(InputError):
        parse_pattern("  ")


@pytest.mark.parametrize("text, message", [
    ("**", "wildcard pattern needs a stem"),
    ("***", "wildcard pattern needs a stem"),
    ("may be*", "wildcard pattern stem holds whitespace: 'may be*'"),
    ("may\tbe*", "wildcard pattern stem holds whitespace: 'may\\tbe*'"),
    ("may *", "wildcard pattern stem holds whitespace: 'may *'"),
])
def test_a_wildcard_needs_a_one_token_stem(text, message):
    # "**" matched every token and "may be*" none
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_pattern(text)


@pytest.mark.parametrize("text", ["may\tbe", "may\u00a0be", "may \n be"])
def test_any_whitespace_makes_a_phrase(text):
    pattern = parse_pattern(text)
    assert (pattern.kind, pattern.phrase_tokens) == ("phrase", ("may", "be"))
    assert match(pattern, ["it", "May", "be", "so"]) and not match(pattern, ["may", "not", "be"])


def test_match_literal():
    assert match("unknown", ["the", "cause", "is", "unknown"])
    assert match("unknown", ["The", "cause", "is", "Unknown"])
    assert not match("unknown", ["unknowns"])


def test_match_wildcard_prefix():
    assert match("surpris*", ["a", "surprising", "result"])
    assert match("surpris*", ["no", "surprise"])
    assert not match("surpris*", ["sur", "prise"])


def test_match_phrase_requires_adjacency():
    assert match("ought to", ["one", "ought", "to", "go"])
    assert not match("ought to", ["one", "ought", "not", "to"])


def test_count_matches():
    assert count_matches("to", ["to", "be", "or", "to", "be"]) == 2
    assert count_matches("b*", ["be", "or", "be", "bold"]) == 3
    assert count_matches("to be", ["to", "be", "to", "be"]) == 2


# --- corpus building -------------------------------------------------------


def corpus_from(texts):
    return build_corpus((f"d{i}", t) for i, t in enumerate(texts))


def test_build_corpus_drops_empty_sentences():
    corpus = corpus_from(["... . Actual words here."])
    assert [s.text for s in corpus.sentences()] == ["Actual words here."]


def test_duplicate_doc_ids_rejected():
    with pytest.raises(InputError, match="duplicate doc_id"):
        build_corpus([("x", "A."), ("x", "B.")])


def test_load_jsonl_and_directory(tmp_path):
    jl = tmp_path / "docs.jsonl"
    with open(jl, "w") as fh:
        fh.write(json.dumps({"id": "p1", "text": "The result is unknown."}) + "\n")
        fh.write(json.dumps({"id": "p2", "text": "All clear."}) + "\n")
    corpus = load_jsonl(jl)
    assert [d.doc_id for d in corpus.documents] == ["p1", "p2"]

    d = tmp_path / "txts"
    d.mkdir()
    (d / "a.txt").write_text("First doc.")
    (d / "b.txt").write_text("Second doc.")
    corpus2 = load_directory(d)
    assert [doc.doc_id for doc in corpus2.documents] == ["a", "b"]
    assert load_corpus(d).n_sentences == corpus2.n_sentences


def test_load_jsonl_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n')
    with pytest.raises(InputError, match='"id" and "text"'):
        load_jsonl(bad)
    with pytest.raises(InputError, match="not found"):
        load_jsonl(tmp_path / "missing.jsonl")


@pytest.mark.parametrize(
    "line, message", [("5", 'document needs "id"'), ('{"id": "x", "text": 5}', '"text" must be')]
)
def test_a_line_that_is_no_text_document_is_an_error_at_its_line(tmp_path, line, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "ok", "text": "Fine."}\n' + line + "\n")
    with pytest.raises(InputError, match=f"bad.jsonl:2: {message}"):
        load_jsonl(bad)


@pytest.mark.parametrize("doc_id", [None, True, 1.5, [1], {"a": 1}])
def test_a_document_id_is_a_string_or_an_integer(tmp_path, doc_id):
    path = tmp_path / "ids.jsonl"
    lines = [{"id": 7, "text": "Seven."}, {"id": "x", "text": "Ex."}, {"id": doc_id, "text": "Bad."}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines[:2]))
    assert [d.doc_id for d in load_jsonl(path).documents] == ["7", "x"]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(InputError, match='ids.jsonl:3: "id" must be a string or an integer'):
        load_jsonl(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(json_values, json_values)
def test_any_json_text_or_manifest_path_loads_or_is_an_input_error(tmp_path_factory, text, path):
    base = tmp_path_factory.mktemp("json")
    (base / "one.jsonl").write_text(json.dumps({"id": "a", "text": "Conflicting a."}) + "\n")
    (base / "doc.jsonl").write_text(json.dumps({"id": "b", "text": text}) + "\n")
    (base / "groups.json").write_text(json.dumps({"g": "one.jsonl", "h": path}))
    for load, target in ((load_jsonl, "doc.jsonl"), (load_collections, "groups.json")):
        try:
            load(base / target)
        except InputError:
            pass  # the one error allowed; any other exception fails the test


# --- split -----------------------------------------------------------------


def test_split_toy():
    corpus = corpus_from(
        ["Results were conflicting.", "All agreed.", "Nothing to report."]
    )
    split = split_corpus(corpus, ["conflicting"])
    assert len(split.s_plus) == 1 and len(split.s_minus) == 2


def test_split_no_matches():
    corpus = corpus_from(["Quiet day.", "Still quiet."])
    split = split_corpus(corpus, ["conflicting"])
    assert split.s_plus == [] and len(split.s_minus) == 2


def test_split_partition_rescan_oracle():
    rng = random.Random(4)
    vocab = ["alpha", "beta", "conflicting", "unclear", "gamma", "delta"]
    texts = [
        " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 8))) + "."
        for _ in range(200)
    ]
    corpus = corpus_from(texts)
    indicators = ["conflicting", "unclear"]
    split = split_corpus(corpus, indicators)
    assert len(split.s_plus) + len(split.s_minus) == corpus.n_sentences
    for s in split.s_plus:  # independent re-scan
        assert any(w in s.folded for w in indicators)
    for s in split.s_minus:
        assert not any(w in s.folded for w in indicators)


def test_split_balance_deterministic():
    corpus = corpus_from(
        [f"filler number {i}." for i in range(20)] + ["A conflicting result."] * 1
    )
    a = split_corpus(corpus, ["conflicting"], balance=True, rng_seed=5)
    b = split_corpus(corpus, ["conflicting"], balance=True, rng_seed=5)
    assert len(a.s_plus) == len(a.s_minus) == 1
    assert [s.text for s in a.s_minus] == [s.text for s in b.s_minus]
    assert a.capped


def test_split_empty_indicators_rejected():
    with pytest.raises(InputError, match="empty"):
        split_corpus(corpus_from(["A."]), [])


# --- ratio table -----------------------------------------------------------


def planted_split(n_plus, n_minus, plus_hits, minus_hits):
    """Synthetic corpus with exact per-word S+/S- counts (Table-1 style)."""
    sentences = []
    taken = {w: 0 for w in plus_hits}
    for i in range(n_plus):
        words = ["indicatorword"]
        for w, count in plus_hits.items():
            if taken[w] < count:
                words.append(w.replace(" ", "_SPLIT_"))
                taken[w] += 1
                break
        sentences.append(" ".join(words).replace("_SPLIT_", " "))
    taken = {w: 0 for w in minus_hits}
    for i in range(n_minus):
        words = ["plainword"]
        for w, count in minus_hits.items():
            if taken[w] < count:
                words.append(w.replace(" ", "_SPLIT_"))
                taken[w] += 1
                break
        sentences.append(" ".join(words).replace("_SPLIT_", " "))
    text = ". ".join(s.capitalize() for s in sentences) + "."
    corpus = build_corpus([("doc", text)])
    return split_corpus(corpus, ["indicatorword"])


def test_ratio_table_paper_rows():
    # counts from the published S+/S- frequency table
    split = planted_split(
        35572,
        35527,
        {"inconclusive": 169, "ought to": 73, "uncertain": 243},
        {"inconclusive": 4, "ought to": 5, "uncertain": 21},
    )
    assert len(split.s_plus) == 35572 and len(split.s_minus) == 35527
    rows = {r.word: r for r in ratio_table(["inconclusive", "ought to", "uncertain"], split)}

    inc = rows["inconclusive"]
    assert (inc.n_plus, inc.n_minus) == (169, 4)
    assert inc.pct_plus == pytest.approx(0.475, abs=5e-4)
    assert inc.pct_minus == pytest.approx(0.011, abs=5e-4)
    assert inc.ratio == pytest.approx(42.197, abs=0.01)

    ought = rows["ought to"]
    assert ought.ratio == pytest.approx(14.582, abs=0.01)
    assert ought.pct_plus == pytest.approx(0.205, abs=5e-4)

    unc = rows["uncertain"]
    assert unc.ratio == pytest.approx(11.557, abs=0.01)


def test_ratio_table_sorted_and_infinite_first():
    corpus = corpus_from(
        ["A conflicting onlyplus case.", "Another conflicting both case.", "Plain both case."]
    )
    split = split_corpus(corpus, ["conflicting"])
    rows = ratio_table(["onlyplus", "both", "case"], split)
    assert rows[0].word == "onlyplus" and math.isinf(rows[0].ratio)
    ratios = [r.ratio for r in rows[1:]]
    assert ratios == sorted(ratios, reverse=True)


def test_ratio_table_equal_rates_is_one():
    corpus = corpus_from(["Conflicting shared word.", "Plain shared word."])
    split = split_corpus(corpus, ["conflicting"])
    row = ratio_table(["shared"], split)[0]
    assert row.ratio == pytest.approx(1.0)


def test_ratio_table_scale_invariance():
    base = ["Conflicting inconclusive result.", "Fine result.", "Unremarkable data."]
    c1 = corpus_from(base)
    c2 = corpus_from(base * 3)
    r1 = ratio_table(["inconclusive", "result"], split_corpus(c1, ["conflicting"]))
    r2 = ratio_table(["inconclusive", "result"], split_corpus(c2, ["conflicting"]))
    for a, b in zip(r1, r2):
        assert a.word == b.word
        assert a.pct_plus == pytest.approx(b.pct_plus)
        assert a.pct_minus == pytest.approx(b.pct_minus)
        assert a.ratio == pytest.approx(b.ratio) or (math.isinf(a.ratio) and math.isinf(b.ratio))


def test_ratio_table_needs_both_sides():
    corpus = corpus_from(["Conflicting only."])
    split = split_corpus(corpus, ["conflicting"])
    with pytest.raises(InputError):
        ratio_table(["x"], split)


# --- relative scores -------------------------------------------------------


def test_relative_scores_baseline_self():
    coll = build_collection("g", [("a", "knowledge is power"), ("b", "more knowledge")])
    scores = relative_scores(coll, ["knowledge"])
    assert scores["knowledge"] == 1.0


def test_relative_scores_hand_count():
    docs = [("d1", "unknown knowledge"), ("d2", "unknown knowledge"), ("d3", "unknown knowledge"),
            ("d4", "knowledge only")]
    coll = build_collection("g", docs)
    assert relative_scores(coll, ["unknown"])["unknown"] == pytest.approx(0.75)


def test_relative_scores_zero_baseline():
    coll = build_collection("g", [("a", "no baseline here")])
    with pytest.raises(InputError, match="knowledge"):
        relative_scores(coll, ["no"])


# --- uncertainty rate ------------------------------------------------------


def test_uncertainty_rate_planted_fractions():
    rng = random.Random(8)
    groups = []
    expected = {}
    for gi, (n_match, n_total) in enumerate([(3, 10), (7, 20), (0, 5)]):
        docs = []
        for i in range(n_total):
            word = "conflicting" if i < n_match else "calm"
            docs.append((f"g{gi}d{i}", f"a {word} report"))
        rng.shuffle(docs)
        groups.append(build_collection(f"group{gi}", docs))
        expected[f"group{gi}"] = n_match / n_total
    rows = uncertainty_rate(groups, DEFAULT_CONSENSUS_QUERY)
    assert {r.group: r.rate for r in rows} == expected
    rates = [r.rate for r in rows]
    assert rates == sorted(rates, reverse=True)


def test_uncertainty_rate_psychology_row():
    # one published numerator/denominator pair, reproduced with planted counts
    docs = [(f"d{i}", "conflicting data" if i < 70096 else "calm data") for i in range(220250)]
    group = build_collection("Psychology", docs)
    row = uncertainty_rate([group])[0]
    assert (row.matched, row.total) == (70096, 220250)
    assert row.rate == pytest.approx(0.318, abs=5e-4)
    assert round(100 * row.rate) == 32


def test_uncertainty_rate_empty_group():
    with pytest.raises(InputError, match="emptygroup"):
        uncertainty_rate([build_collection("emptygroup", [])])


def test_uncertainty_rate_monotone():
    docs = [("a", "conflicting stuff"), ("b", "plain stuff")]
    g1 = build_collection("g", docs)
    rate1 = uncertainty_rate([g1])[0].rate
    g2 = build_collection("g", docs + [("c", "more conflicting votes")])
    assert uncertainty_rate([g2])[0].rate > rate1
    g3 = build_collection("g", docs + [("c", "nothing here")])
    assert uncertainty_rate([g3])[0].rate < rate1


def test_permutation_invariance():
    docs = [("a", "conflicting one"), ("b", "two knowledge"), ("c", "three unknown knowledge")]
    for perm in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        coll = build_collection("g", [docs[i] for i in perm])
        assert uncertainty_rate([coll])[0].rate == pytest.approx(1 / 3)
        assert relative_scores(coll, ["unknown"])["unknown"] == pytest.approx(0.5)


def test_load_collections_manifest(tmp_path):
    for name, text in (("one", "Conflicting a."), ("two", "Calm b.")):
        with open(tmp_path / f"{name}.jsonl", "w") as fh:
            fh.write(json.dumps({"id": name, "text": text}) + "\n")
    manifest = tmp_path / "groups.json"
    manifest.write_text(json.dumps({"G1": "one.jsonl", "G2": "two.jsonl"}))
    groups = load_collections(manifest)
    assert [g.group_id for g in groups] == ["G1", "G2"]
    rows = uncertainty_rate(groups)
    assert {r.group: r.rate for r in rows} == {"G1": 1.0, "G2": 0.0}


@pytest.mark.parametrize("value", [5, ["one.jsonl"], ""])
def test_a_manifest_path_must_be_a_non_empty_string(tmp_path, value):
    # "" would name the manifest's own directory, whose .txt files would load
    (tmp_path / "one.jsonl").write_text(json.dumps({"id": "a", "text": "Calm."}) + "\n")
    (tmp_path / "three.txt").write_text("A text file beside the manifest.")
    manifest = tmp_path / "groups.json"
    manifest.write_text(json.dumps({"G1": "one.jsonl", "G2": value}))
    with pytest.raises(InputError, match=r"groups.json: group 'G2' needs a corpus path"):
        load_collections(manifest)


# --- find_sentences --------------------------------------------------------


def test_find_sentences_table_style():
    corpus = build_corpus(
        [
            (
                "22432670",
                "We present a suspected but unproven case of MVEV infection to "
                "illustrate some of the challenges in clinical management.",
            ),
            ("999", "A fully proven result."),
        ]
    )
    rows = find_sentences(corpus, ["unproven"], limit=10)
    assert len(rows) == 1
    assert rows[0].doc_id == "22432670"
    assert "unproven" in rows[0].matched


def test_find_sentences_empty():
    corpus = corpus_from(["Nothing here."])
    assert find_sentences(corpus, ["unproven"], limit=5) == []


def test_find_sentences_full_scan_oracle():
    rng = random.Random(12)
    vocab = ["unproven", "unsettled", "plain", "boring", "normal"]
    texts = [
        " ".join(rng.choice(vocab) for _ in range(5)) + "." for _ in range(50)
    ]
    corpus = corpus_from(texts)
    cues = ["unproven", "unsettled"]
    rows = find_sentences(corpus, cues, limit=1000)
    # independent exhaustive filter
    expected = []
    for doc in sorted(corpus.documents, key=lambda d: d.doc_id):
        for s in doc.sentences:
            hit = [c for c in cues if c in s.folded]
            if hit:
                expected.append((s.doc_id, s.index, tuple(hit)))
    assert [(r.doc_id, r.index, r.matched) for r in rows] == expected
    for r in rows:
        assert r.matched


def test_find_sentences_limit_per_cue():
    corpus = corpus_from([f"An unproven claim number {i}." for i in range(10)])
    rows = find_sentences(corpus, ["unproven"], limit=3)
    assert len(rows) == 3


# --- index-backed analytics vs. plain match() rescans -------------------------
#
# The reference functions below are the straightforward scans the analytics
# were first written as: every sentence or document, every pattern, match().


def rescan_split(corpus, indicators, balance=False, rng_seed=0):
    patterns = tuple(as_pattern(p) for p in indicators)
    if not patterns:
        raise InputError("indicator list is empty")
    s_plus, s_minus = [], []
    for sent in corpus.sentences():
        (s_plus if any(match(p, sent) for p in patterns) else s_minus).append(sent)
    capped = False
    if balance and s_plus and s_minus and len(s_plus) != len(s_minus):
        target = min(len(s_plus), len(s_minus))
        big = s_plus if len(s_plus) > len(s_minus) else s_minus
        keep_idx = list(range(len(big)))
        random.Random(rng_seed).shuffle(keep_idx)
        sampled = [big[i] for i in sorted(keep_idx[:target])]
        if big is s_plus:
            s_plus = sampled
        else:
            s_minus = sampled
        capped = True
    return SplitResult(s_plus, s_minus, patterns, capped)


def rescan_ratio_table(words, split):
    if not split.s_plus or not split.s_minus:
        raise InputError("ratio_table needs non-empty S+ and S-")
    n_p, n_m = len(split.s_plus), len(split.s_minus)
    rows = []
    for w in words:
        p = as_pattern(w)
        np_ = sum(1 for s in split.s_plus if match(p, s))
        nm = sum(1 for s in split.s_minus if match(p, s))
        ratio = math.inf if nm == 0 else (np_ / n_p) / (nm / n_m)
        rows.append(RatioRow(p.surface, np_, 100.0 * np_ / n_p, nm, 100.0 * nm / n_m, ratio))
    rows.sort(key=lambda r: (-r.ratio, r.word))
    return rows


def rescan_doc_hits(collection, pattern):
    return sum(1 for item in collection.items if match(pattern, item.folded))


def rescan_relative_scores(collection, words, baseline="knowledge"):
    base = as_pattern(baseline)
    base_hits = rescan_doc_hits(collection, base)
    if base_hits == 0:
        raise InputError(
            f"baseline {base.surface!r} matches no document in group {collection.group_id!r}"
        )
    return {
        as_pattern(w).surface: rescan_doc_hits(collection, as_pattern(w)) / base_hits
        for w in words
    }


def rescan_uncertainty_rate(groups, query):
    patterns = tuple(as_pattern(p) for p in query)
    rows = []
    for group in groups:
        if not group.items:
            raise InputError(f"group {group.group_id!r} is empty")
        matched = sum(1 for item in group.items if any(match(p, item.folded) for p in patterns))
        rows.append(RateRow(group.group_id, matched, len(group.items), matched / len(group.items)))
    rows.sort(key=lambda r: (-r.rate, r.group))
    return rows


def rescan_find(corpus, cues, limit):
    if limit < 1:
        raise InputError("limit must be positive")
    patterns = [as_pattern(c) for c in cues]
    remaining = {p.surface: limit for p in patterns}
    out = []
    for doc in sorted(corpus.documents, key=lambda d: d.doc_id):
        for sent in doc.sentences:
            hits = [p for p in patterns if match(p, sent)]
            if not hits or not any(remaining[p.surface] > 0 for p in hits):
                continue
            for p in hits:
                if remaining[p.surface] > 0:
                    remaining[p.surface] -= 1
            matched = tuple(p.surface for p in hits)
            out.append(SentenceMatch(sent.doc_id, sent.index, sent.text, matched))
    return out


DIFF = settings(max_examples=150, deadline=None)
pattern_lists = st.lists(patterns, max_size=5)


@DIFF
@given(corpora(), pattern_lists, st.booleans(), st.integers(0, 3))
def test_split_matches_rescan(corpus, indicators, balance, seed):
    assert outcome(split_corpus, corpus, indicators, balance, seed) == outcome(
        rescan_split, corpus, indicators, balance, seed
    )


@DIFF
@given(corpora(), st.lists(patterns, min_size=1, max_size=3), pattern_lists, st.booleans())
def test_ratio_table_matches_rescan(corpus, indicators, words, balance):
    split = split_corpus(corpus, indicators, balance=balance)
    assert outcome(ratio_table, words, split) == outcome(rescan_ratio_table, words, split)


@DIFF
@given(corpora(), pattern_lists, patterns)
def test_relative_scores_match_rescan(corpus, words, baseline):
    coll = collection_from_corpus("g", corpus)
    assert outcome(relative_scores, coll, words, baseline) == outcome(
        rescan_relative_scores, coll, words, baseline
    )


@DIFF
@given(st.lists(corpora(max_docs=4), max_size=4), pattern_lists)
def test_uncertainty_rate_matches_rescan(corpora_, query):
    groups = [collection_from_corpus(f"g{i}", c) for i, c in enumerate(corpora_)]
    assert outcome(uncertainty_rate, groups, query) == outcome(
        rescan_uncertainty_rate, groups, query
    )


@DIFF
@given(corpora(), st.lists(patterns, max_size=6), st.integers(0, 4))
def test_find_sentences_matches_rescan(corpus, cues, limit):
    cues = cues + cues[:1]  # a repeated cue shares its surface's budget
    assert outcome(find_sentences, corpus, cues, limit) == outcome(rescan_find, corpus, cues, limit)


def test_overlapping_phrase_and_sentence_boundary():
    # "very very" occurs twice in "very very very"; "very knowledge" only
    # across the sentence boundary, so it hits the document, not a sentence
    corpus = make_corpus([("d", [["Very", "very", "VERY"], ["knowledge", "ought", "to"]])])
    ids, counts = corpus.index.lookup("very very")
    assert ids.tolist() == [0] and counts.tolist() == [2]
    assert split_corpus(corpus, ["very knowledge"]).s_plus == []
    coll = collection_from_corpus("g", corpus)
    assert relative_scores(coll, ["very knowledge"]) == {"very knowledge": 1.0}


def test_wildcard_reaches_tokens_above_the_bmp():
    astral = "\U0001d6fc"
    corpus = make_corpus([("d", [["unc" + astral], ["uncx"], ["un"]])])
    assert corpus.index.lookup("unc*")[0].tolist() == [0, 1]
    assert corpus.index.lookup("unc" + astral + "*")[0].tolist() == [0]


def test_find_limit_runs_out_part_way():
    corpus = make_corpus(
        [("b", [["unc"], ["unc", "very"]]), ("a", [["very"], ["unc", "very"], ["very"]])]
    )
    rows = find_sentences(corpus, ["unc", "very"], limit=2)
    assert [(r.doc_id, r.index, r.matched) for r in rows] == [
        ("a", 0, ("very",)),
        ("a", 1, ("unc", "very")),
        ("b", 0, ("unc",)),
    ]
    assert rows == rescan_find(corpus, ["unc", "very"], 2)


def test_index_keys_wider_than_int32():
    # 50,000 units over 50,001 tokens: (token id, unit id) keys overflow int32
    index = build_collection("g", ((f"d{i}", f"w{i} x") for i in range(50_000))).index
    assert len(index.vocab) * index.n_units >= 2**31
    assert index.postings.dtype == "int32"
    assert index.lookup("w49999")[0].tolist() == [49_999]
    assert index.lookup("x")[0].tolist() == list(range(50_000))
    assert index.lookup("w4999*")[0].tolist() == [4999, *range(49_990, 50_000)]
