"""The column-store corpus against independent oracles.

``segment_by_characters`` is the character loop the segmenter was first
written as; the regex segmenter must agree with it on every text.  A
collection built from raw texts must hold the same folded tokens per
document as one built from a corpus, and as a plain ``tokenize`` of each
document.  A built corpus must stay small: its retained memory is bounded
per token.
"""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_strategies import corpora, patterns

from cuelex.corpus import (
    DEFAULT_ABBREVIATIONS,
    CollectionItem,
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


def segment_by_characters(text, abbreviations=DEFAULT_ABBREVIATIONS):
    if not text.strip():
        return []
    abbrevs = tuple(a.lower() for a in abbreviations)
    window = max((len(a) for a in abbrevs), default=0)
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
abbreviation_sets = st.sampled_from([DEFAULT_ABBREVIATIONS, (), ("b.", "É.")])


@settings(max_examples=500, deadline=None)
@given(texts, abbreviation_sets)
def test_segment_matches_the_character_loop(text, abbreviations):
    assert segment(text, abbreviations) == segment_by_characters(text, abbreviations)


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


def test_corpus_retains_at_most_40_bytes_per_token():
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(3000)] + ["conflicting", "Knowledge", "may", "be"]
    docs = []
    for d in range(700):
        sentences = (
            " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 20))).capitalize() + "."
            for _ in range(rng.randint(5, 12))
        )
        docs.append((f"doc{d}", " ".join(sentences)))
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
