"""The column-store corpus against independent oracles.

``segment_by_characters`` is the character loop the segmenter was first
written as; the regex segmenter must agree with it on every text.  A
collection built from raw texts must hold the same folded tokens per
document as one built from a corpus, and as a plain ``tokenize`` of each
document; the fused load must give the vocabulary, ids and texts that
``tokenize`` over ``segment`` gives.  ``MatchIndex.lookup`` must give the
units and counts of ``count_matches`` over each unit's folded tokens, and
``doc_of`` the document a walk of the document offsets gives each sentence.  A
built corpus must stay small: its retained memory and the peaks of its load,
its first index and a document-level phrase lookup are bounded per token.
"""

import gc
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus_strategies import WORDS, corpora, make_corpus, patterns

from cuelex.corpus import (
    DEFAULT_ABBREVIATIONS,
    CollectionItem,
    MatchIndex,
    SplitResult,
    build_collection,
    build_corpus,
    collection_from_corpus,
    ratio_table,
    segment,
    split_corpus,
    tokenize,
)
from cuelex.errors import InputError
from cuelex.patterns import MatchPattern, count_matches


def segment_by_characters(text):
    if not text.strip():
        return []
    abbrevs = tuple(a.lower() for a in DEFAULT_ABBREVIATIONS)
    window = max(len(a) for a in abbrevs)
    out = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in ".!?" and i + 1 < n and text[i + 1].isspace():
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            if j < n and text[j].isupper():
                tail = text[max(0, i + 1 - window) : i + 1].lower()
                if not any(tail.endswith(a) for a in abbrevs):
                    out.append(text[start : i + 1].strip())
                    start = j
                    i = j
                    continue
        i += 1
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return out


PIECES = (
    *".!?",
    " ", "  ", "\n", "\t", "\u00a0", "\u2003", "\x1c",  # isspace() beyond ASCII too
    "a", "b", "A", "B", "é", "É", "ß", "ǅ", "1",
    *DEFAULT_ABBREVIATIONS, "E.G.", "FIG.", "al.",
    '"', "(", ")", "-", "…",
)
texts = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)


@settings(max_examples=500, deadline=None)
@given(texts)
def test_segment_matches_the_character_loop(text):
    assert segment(text) == segment_by_characters(text)


documents = st.lists(texts, max_size=5).map(lambda ts: [(f"d{i}", t) for i, t in enumerate(ts)])


@settings(max_examples=200, deadline=None)
@given(documents)
def test_build_collection_matches_corpus_collection_and_plain_tokenize(docs):
    from_texts = build_collection("g", docs).items
    from_corpus = collection_from_corpus("g", build_corpus(docs)).items
    plain = tuple(CollectionItem(d, tuple(t.lower() for t in tokenize(text))) for d, text in docs)
    assert from_texts == from_corpus == plain


@settings(max_examples=100, deadline=None)
@given(corpora(), st.lists(patterns, min_size=1, max_size=3), st.lists(patterns, max_size=5))
def test_ratio_table_of_a_split_view_matches_sentence_lists(corpus, indicators, words):
    split = split_corpus(corpus, indicators)
    if split.s_plus and split.s_minus:
        lists = SplitResult(list(split.s_plus), list(split.s_minus), split.indicators)
        assert lists == split
        with pytest.raises(InputError, match="views of one corpus"):
            ratio_table(words, lists)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_the_fused_load_matches_tokenize_over_segment(docs):
    vocab, ids, seg_index, texts, tokens = {}, [], [], [], []
    for _, text in docs:
        for i, sentence in enumerate(segment(text)):
            if toks := tokenize(sentence):
                ids += [vocab.setdefault(t, len(vocab)) for t in toks]
                seg_index.append(i)
                texts.append(sentence)
                tokens.append(tuple(toks))
    corpus = build_corpus(docs)
    assert corpus.vocab == list(vocab)
    assert corpus.token_ids.tolist() == ids
    assert corpus.seg_index.tolist() == seg_index
    assert [(s.text, s.tokens) for s in corpus.sentences()] == list(zip(texts, tokens))
    assert [text for _, _, text in corpus.rows(np.arange(corpus.n_sentences))] == texts


@settings(max_examples=200, deadline=None)
@given(corpora(), st.data())
def test_doc_of_matches_a_walk_of_the_document_offsets(corpus, data):
    walk = []
    bounds = corpus.doc_offsets.tolist()
    for d in range(corpus.n_documents):
        walk += [d] * (bounds[d + 1] - bounds[d])
    assert corpus.doc_of(np.arange(corpus.n_sentences)).tolist() == walk
    ids = data.draw(st.lists(st.integers(0, max(corpus.n_sentences - 1, 0)), max_size=8))
    if corpus.n_sentences:
        assert corpus.doc_of(np.array(ids, dtype=np.int64)).tolist() == [walk[s] for s in ids]


def lookup_oracle(corpus, starts, pattern):
    """(unit ids, counts) of ``count_matches`` over each unit's folded tokens."""
    folded = [t.lower() for t in corpus.vocab]
    ids, bounds = corpus.token_ids.tolist(), starts.tolist()
    counts = [
        count_matches(pattern, CollectionItem("u", tuple(folded[i] for i in ids[a:b])))
        for a, b in zip(bounds, bounds[1:])
    ]
    hits = [u for u, c in enumerate(counts) if c]
    return hits, [counts[u] for u in hits]


def corpora_of(words, max_len):
    sentences = st.lists(st.sampled_from(words), min_size=1, max_size=max_len)
    docs = st.lists(st.lists(sentences, max_size=4), max_size=5)
    return docs.map(lambda ds: make_corpus((f"d{i}", d) for i, d in enumerate(ds)))


REPEATS = ("a", "A", "b", "very", "VERY", "ought", "to")
lookup_patterns = st.one_of(
    patterns,
    st.sampled_from(["a", "a*", "a a", "a a a", "very very", "ought to", "to ought", "b a b",
                     "a absent", "absent a", "very absent very", MatchPattern(" ", "phrase")]),
    st.lists(st.sampled_from(REPEATS), min_size=2, max_size=4).map(" ".join),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(corpora(), corpora_of(REPEATS, 6), corpora_of(WORDS, 1)),
    st.lists(lookup_patterns, min_size=1, max_size=6),
    st.sampled_from([1, 3, MatchIndex.BLOCK]),  # tokens a fill block takes
)
@example(make_corpus([("d", [["a"], ["A"], ["a"]]), ("e", [])]), ["a a a", "a a", "a", "a*"], 2)
@example(make_corpus([("d", [["very", "VERY", "very"], ["ought"], ["to", "very"]])]),
         ["very very", "ought to", "very ought", "to very", "very absent"], 2)
def test_lookup_matches_count_matches_at_sentence_and_document_level(corpus, lookups, block):
    with mock.patch.object(MatchIndex, "BLOCK", block):
        levels = [
            (corpus.index, corpus.sent_offsets),
            (collection_from_corpus("g", corpus).index, corpus.sent_offsets[corpus.doc_offsets]),
        ]
    for index, starts in levels:
        for pattern in lookups:
            ids, counts = index.lookup(pattern)
            assert (ids.tolist(), counts.tolist()) == lookup_oracle(corpus, starts, pattern)


def memory_fixture():
    """700 documents of about 72,000 tokens over a 3,004-word vocabulary."""
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(3000)] + ["conflicting", "Knowledge", "may", "be"]
    docs = []
    for d in range(700):
        sentences = (
            " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 20))).capitalize() + "."
            for _ in range(rng.randint(5, 12))
        )
        docs.append((f"doc{d}", " ".join(sentences)))
    return docs


def test_corpus_retains_at_most_40_bytes_per_token():
    docs = memory_fixture()
    gc.collect()
    tracemalloc.start()
    try:
        corpus = build_corpus(docs)
        corpus.index.lookup("knowledge")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert corpus.n_sentences >= 5000
    assert retained / corpus.n_tokens <= 40


def test_a_load_and_its_indexes_peak_at_44_and_48_bytes_per_token():
    # the load and the first sentence index, then a document index and a phrase lookup in it
    docs = memory_fixture()
    gc.collect()
    tracemalloc.start()
    try:
        corpus = build_corpus(docs)
        corpus.index.lookup("knowledge")
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        collection_from_corpus("g", corpus).index.lookup("may be")
        phrase_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_peak / corpus.n_tokens <= 44
    assert phrase_peak / corpus.n_tokens <= 48
