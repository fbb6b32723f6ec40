"""Hypothesis strategies for differential tests of the index-backed corpus analytics.

Corpora are built from token lists directly, so every sentence boundary and
every empty document is exactly where the strategy put it.  The vocabulary
has stems that are prefixes of other stems, tokens with a character above
U+FFFF right after a stem, case variants (including ones that do not fold
back, like "STRASSE"), and words that repeat into overlapping phrases.
"""

from hypothesis import strategies as st

from cuelex.corpus import Document, Sentence, SentenceCorpus
from cuelex.errors import InputError

ASTRAL = "\U0001d6fc"  # MATHEMATICAL ITALIC SMALL ALPHA: sorts above "\uffff"

WORDS = (
    "un", "unc", "uncert", "uncertain", "uncertainty", "unclear",
    "unc" + ASTRAL, "un" + ASTRAL + "x", "unc\uffff",
    "very", "ver", "veryvery",
    "knowledge", "know",
    "ought", "to",
    "straße", "éclat",
)

# stems of wildcard patterns: every proper prefix of a word, plus stems that
# end in the astral character or match nothing
STEMS = sorted({w[:i] for w in WORDS for i in range(1, len(w))} | {"unc" + ASTRAL, "zz"})


def cased(words):
    return st.sampled_from(words).flatmap(
        lambda w: st.sampled_from(sorted({w, w.upper(), w.capitalize()}))
    )


tokens = cased(WORDS + ("filler",))
sentences = st.lists(tokens, min_size=1, max_size=7)
documents = st.lists(sentences, max_size=4)  # zero sentences allowed


@st.composite
def corpora(draw, min_docs=0, max_docs=6):
    docs = draw(st.lists(documents, min_size=min_docs, max_size=max_docs))
    # doc ids are a shuffle, so doc_id order differs from corpus order
    ids = draw(st.permutations([f"d{i}" for i in range(len(docs))]))
    return make_corpus(zip(ids, docs))


def make_corpus(docs) -> SentenceCorpus:
    """Corpus from (doc_id, [[token, ...], ...]) pairs, one Sentence per token list."""
    return SentenceCorpus(
        [
            Document(
                doc_id,
                tuple(
                    Sentence(doc_id, i, " ".join(toks), tuple(toks), tuple(t.lower() for t in toks))
                    for i, toks in enumerate(sents)
                ),
            )
            for doc_id, sents in docs
        ]
    )


patterns = st.one_of(
    cased(WORDS + ("absent",)),
    cased(tuple(STEMS)).map(lambda s: s + "*"),
    st.lists(cased(WORDS), min_size=2, max_size=3).map(" ".join),
    st.sampled_from(["very very", "VERY very", "ought to", "very very very"]),
)


def outcome(fn, *args, **kwargs):
    """("ok", result) or ("error", message): both sides must agree on either."""
    try:
        return "ok", fn(*args, **kwargs)
    except InputError as exc:
        return "error", str(exc)
