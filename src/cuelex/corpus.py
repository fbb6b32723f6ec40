"""Document ingestion, sentence splitting, cue matching, and corpus analytics.

A corpus is immutable once built: analytics are pure functions over it and
always produce deterministically ordered rows.

A ``SentenceCorpus`` is a column store (one token-id array and offsets);
its ``Document``s and ``Sentence``s, a split's sides and a collection's
items are views built from the columns on demand.

``patterns`` defines what a pattern matches.  The analytics answer their
queries from a ``MatchIndex``, an inverted file over the folded token ids
that a corpus or collection builds on its first query and keeps: it costs
about 4 bytes per token, and a query then costs in proportion to the
pattern's postings instead of to the corpus.
"""

from __future__ import annotations

import json
import math
import random
import re
import string
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import tables
from .errors import InputError
from .patterns import MatchPattern, as_pattern, count_matches, match, parse_pattern  # noqa: F401

DEFAULT_ABBREVIATIONS = ("e.g.", "i.e.", "et al.", "Fig.", "vs.")

# Five consensus-failure words used as the default S+/S- indicator query.
DEFAULT_CONSENSUS_QUERY = (
    "conflicting",
    "contradictory",
    "inconsistent",
    "discrepant",
    "irreconcilable",
)

_STRIP_CHARS = string.punctuation + "“”‘’…«»–—·"

# A sentence boundary candidate: ./!/?, its whitespace run, and the character after it.
_BOUNDARY = re.compile(r"[.!?](\s+)(?=(.))", re.DOTALL)


@dataclass(frozen=True)
class Sentence:
    doc_id: str
    index: int
    text: str
    tokens: tuple[str, ...]
    folded: tuple[str, ...]


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[Sentence, ...]


def _offsets(sizes) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


class SentenceCorpus:
    """Tokenized sentences grouped by document, with unique doc ids, stored as columns.

    ``token_ids[sent_offsets[s]:sent_offsets[s + 1]]`` are sentence ``s``'s
    tokens as ids into ``vocab``, and ``doc_offsets[d]:doc_offsets[d + 1]``
    are document ``d``'s sentence ids.  ``seg_index[s]`` is the sentence's
    position among its document's segments before token-less ones were
    dropped.  The constructor packs ``Document``s, or (doc_id, [(segment
    index, text, tokens), ...]) pairs.  A token's folded form is its
    ``str.lower()``, so a ``Sentence`` is packed by its ``tokens`` alone.
    """

    def __init__(self, documents):
        vocab: dict[str, int] = {}
        ids, seg_index = array("i"), array("i")
        sent_sizes, doc_sizes, doc_ids, texts = array("q"), array("q"), [], []
        for doc in documents:
            if isinstance(doc, Document):
                doc = doc.doc_id, ((s.index, s.text, s.tokens) for s in doc.sentences)
            doc_id, sentences = doc
            n = len(texts)
            for index, text, tokens in sentences:
                ids.extend([vocab.setdefault(t, len(vocab)) for t in tokens])
                sent_sizes.append(len(tokens))
                seg_index.append(index)
                texts.append(text)
            doc_ids.append(doc_id)
            doc_sizes.append(len(texts) - n)
        if len(set(doc_ids)) != len(doc_ids):
            raise InputError("duplicate doc_id in corpus")
        self.doc_ids, self.texts, self.vocab = doc_ids, texts, list(vocab)
        self.token_ids = np.frombuffer(ids, dtype=np.intc)
        self.seg_index = np.frombuffer(seg_index, dtype=np.intc)
        self.sent_offsets = _offsets(np.frombuffer(sent_sizes, dtype=np.int64))
        self.doc_offsets = _offsets(np.frombuffer(doc_sizes, dtype=np.int64))
        self.n_documents, self.n_sentences, self.n_tokens = len(doc_ids), len(texts), len(ids)

    def sentence(self, s: int) -> Sentence:
        start, end = self.sent_offsets[s : s + 2].tolist()
        tokens = tuple(map(self.vocab.__getitem__, self.token_ids[start:end].tolist()))
        doc_id = self.doc_ids[self.doc_offsets.searchsorted(s, side="right") - 1]
        folded = tuple(t.lower() for t in tokens)
        return Sentence(doc_id, int(self.seg_index[s]), self.texts[s], tokens, folded)

    def sentences(self):
        return map(self.sentence, range(self.n_sentences))

    @property
    def documents(self) -> list[Document]:
        bounds = self.doc_offsets.tolist()
        return [
            Document(doc_id, tuple(map(self.sentence, range(bounds[d], bounds[d + 1]))))
            for d, doc_id in enumerate(self.doc_ids)
        ]

    def rows(self, ids: np.ndarray) -> list[tuple[str, int, str]]:
        """(doc_id, segment index, text) of each sentence id, read from the columns."""
        docs = self.doc_offsets.searchsorted(ids, side="right") - 1
        return [
            (self.doc_ids[d], i, self.texts[s])
            for s, d, i in zip(ids.tolist(), docs.tolist(), self.seg_index[ids].tolist())
        ]

    def match_index(self, offsets: np.ndarray, groups=None) -> MatchIndex:
        words = [t.lower() for t in self.vocab]
        return MatchIndex((self.token_ids, offsets), groups, words)

    @cached_property
    def index(self) -> MatchIndex:
        """Sentence-level index; a sentence's group is its document's position."""
        groups = np.repeat(np.arange(self.n_documents, dtype=np.int32), np.diff(self.doc_offsets))
        return self.match_index(self.sent_offsets, groups)


def segment(text: str, abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS) -> list[str]:
    """Split text into sentences at ./!/? followed by whitespace and an uppercase letter.

    Splits are suppressed when the text up to the boundary ends with one of
    the (case-insensitive) abbreviations.
    """
    abbrevs = tuple(a.lower() for a in abbreviations)
    window = max((len(a) for a in abbrevs), default=0)
    starts, ends = [0], []
    for m in _BOUNDARY.finditer(text):
        end = m.start(1)
        if m.group(2).isupper() and not text[max(0, end - window) : end].lower().endswith(abbrevs):
            starts.append(m.end(1))
            ends.append(end)
    parts = (text[a:b].strip() for a, b in zip(starts, ends + [len(text)]))
    return [p for p in parts if p]  # only the tail can be empty


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with leading/trailing punctuation stripped.

    Hyphens and other interior punctuation are retained, so forms like
    "non-A" survive.
    """
    return [tok for tok in (raw.strip(_STRIP_CHARS) for raw in text.split()) if tok]


def build_corpus(
    docs, abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS
) -> SentenceCorpus:
    """Build a corpus from (doc_id, text) pairs; empty sentences are dropped."""

    def segments(text):
        for idx, sent in enumerate(segment(text, abbreviations)):
            tokens = tokenize(sent)
            if tokens:
                yield idx, sent, tokens

    return SentenceCorpus((str(doc_id), segments(text)) for doc_id, text in docs)


def load_jsonl(path: str | Path, **kwargs) -> SentenceCorpus:
    """Corpus from JSON-lines: one object per document, {"id": ..., "text": ...}."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"corpus file not found: {path}")

    def documents():
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{path}:{lineno}: invalid JSON ({exc})") from None
                if "id" not in obj or "text" not in obj:
                    raise InputError(f'{path}:{lineno}: document needs "id" and "text"')
                yield obj["id"], obj["text"]

    return build_corpus(documents(), **kwargs)


def load_directory(path: str | Path, **kwargs) -> SentenceCorpus:
    """Corpus from a directory of UTF-8 .txt files; the filename stem is the doc_id."""
    path = Path(path)
    if not path.is_dir():
        raise InputError(f"corpus directory not found: {path}")
    files = sorted(path.glob("*.txt"))
    if not files:
        raise InputError(f"no .txt files in {path}")
    return build_corpus(((f.stem, f.read_text(encoding="utf-8")) for f in files), **kwargs)


def load_corpus(path: str | Path, **kwargs) -> SentenceCorpus:
    path = Path(path)
    if path.is_dir():
        return load_directory(path, **kwargs)
    return load_jsonl(path, **kwargs)


class MatchIndex:
    """Inverted file over "units": sentences or documents, by their folded tokens.

    A unit is the run ``tokens[starts[u]:starts[u + 1]]`` of token ids, and
    ``fold`` maps a token id to its folded form's id.  The folded vocabulary
    is sorted, so a folded id is its rank and a prefix wildcard covers one
    contiguous id range.  ``postings`` holds one int32 unit id per token
    occurrence, grouped by folded id and ascending within one, and
    ``offsets[t]:offsets[t + 1]`` is folded id ``t``'s slice.  ``groups``,
    when given, maps each unit to a group (its document, for sentences).
    """

    def __init__(self, units, groups=None, words=None):
        """Index over objects with a ``folded`` token tuple, such as collection items.

        Given ``words``, ``units`` are the columns ``(tokens, starts)`` instead,
        and ``words[i]`` is the folded form of token id ``i``.
        """
        if words is None:
            vocab: dict[str, int] = {}
            tokens = [vocab.setdefault(t, len(vocab)) for u in units for t in u.folded]
            units = np.array(tokens, dtype=np.int32), _offsets([len(u.folded) for u in units])
            words = list(vocab)
        tokens, starts = units
        self.vocab = sorted(set(words))
        rank = {w: i for i, w in enumerate(self.vocab)}
        self.fold = np.array([rank[w] for w in words], dtype=np.int32)
        self.tokens, self.starts, self.groups = tokens, starts, groups
        self.n_units, self.n_tokens = len(starts) - 1, len(tokens)
        folded = self.fold[tokens]
        self.offsets = _offsets(np.bincount(folded, minlength=len(self.vocab)))
        # One stable sort by folded id lays out every token's postings, units ascending.
        unit = np.repeat(np.arange(self.n_units, dtype=np.int32), np.diff(starts))
        self.postings = unit[np.argsort(folded, kind="stable")]
        self._cache: dict[MatchPattern, tuple[np.ndarray, np.ndarray]] = {}

    def _token_ids(self, pattern: MatchPattern) -> tuple[int, int]:
        """The [lo, hi) range of vocabulary ids a literal or wildcard pattern matches."""
        if pattern.kind == "literal":
            target = pattern.surface.lower()
            return bisect_left(self.vocab, target), bisect_right(self.vocab, target)
        stem = pattern.stem
        lo = hi = bisect_left(self.vocab, stem)
        while hi < len(self.vocab) and self.vocab[hi].startswith(stem):
            hi += 1
        return lo, hi

    def _resolve(self, pattern: MatchPattern) -> tuple[np.ndarray, np.ndarray]:
        if pattern.kind != "phrase":
            lo, hi = self._token_ids(pattern)
            return np.unique(self.postings[self.offsets[lo] : self.offsets[hi]], return_counts=True)
        # units holding every phrase token, then count in-order occurrences
        phrase = [MatchPattern(t, "literal") for t in pattern.phrase_tokens]
        postings = [self.lookup(p)[0] for p in set(phrase)]
        ids = postings[0] if postings else np.arange(self.n_units, dtype=np.int32)
        for other in postings[1:]:
            ids = np.intersect1d(ids, other, assume_unique=True)
        # every window start inside a candidate unit, and the candidate it belongs to
        first, stop = self.starts[ids], self.starts[ids + 1] - len(phrase) + 1
        n = np.maximum(stop - first, 0)
        owner = np.repeat(np.arange(len(ids)), n)
        pos = np.arange(n.sum()) + np.repeat(first - np.cumsum(n) + n, n)
        hit = np.ones(len(pos), dtype=bool)
        for j, p in enumerate(phrase):
            hit &= self.fold[self.tokens[pos + j]] == self._token_ids(p)[0]
        counts = np.bincount(owner[hit], minlength=len(ids))
        return ids[counts > 0], counts[counts > 0]

    def lookup(self, pattern) -> tuple[np.ndarray, np.ndarray]:
        """Ascending ids of the units the pattern matches, and its occurrence count in each."""
        pattern = as_pattern(pattern)
        if pattern not in self._cache:
            self._cache[pattern] = self._resolve(pattern)
        return self._cache[pattern]

    def matches_any(self, patterns) -> np.ndarray:
        """Boolean mask over units: does the unit match at least one of the patterns?"""
        hit = np.zeros(self.n_units, dtype=bool)
        for p in patterns:
            hit[self.lookup(p)[0]] = True
        return hit


class SentenceView(Sequence):
    """A corpus's sentences picked by ascending sentence id; each item is built on access."""

    def __init__(self, corpus: SentenceCorpus, ids: np.ndarray):
        self.corpus, self.ids = corpus, ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> Sentence:
        return self.corpus.sentence(int(self.ids[i]))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


@dataclass
class SplitResult:
    """S+ / S- partition of a corpus by indicator patterns.

    ``split_corpus`` fills both sides with ``SentenceView``s of its corpus;
    sentence lists work too.
    """

    s_plus: Sequence[Sentence]
    s_minus: Sequence[Sentence]
    indicators: tuple[MatchPattern, ...]
    capped: bool = False


def split_corpus(
    corpus: SentenceCorpus,
    indicators,
    balance: bool = False,
    rng_seed: int = 0,
) -> SplitResult:
    """Partition sentences into S+ (matching >= 1 indicator) and S- (matching none).

    With ``balance``, the larger side is down-sampled to the smaller side's
    size by a seeded shuffle; the kept sentences stay in corpus order.
    """
    patterns = tuple(as_pattern(p) for p in indicators)
    if not patterns:
        raise InputError("indicator list is empty")
    hit = corpus.index.matches_any(patterns)
    sides = [np.flatnonzero(hit), np.flatnonzero(~hit)]
    n_plus, n_minus = map(len, sides)
    capped = bool(balance) and 0 < min(n_plus, n_minus) and n_plus != n_minus
    if capped:
        big = int(n_minus > n_plus)
        keep_idx = list(range(len(sides[big])))
        random.Random(rng_seed).shuffle(keep_idx)
        sides[big] = sides[big][sorted(keep_idx[: min(n_plus, n_minus)])]
    return SplitResult(*(SentenceView(corpus, ids) for ids in sides), patterns, capped)


@dataclass(frozen=True)
class RatioRow:
    word: str
    n_plus: int
    pct_plus: float
    n_minus: int
    pct_minus: float
    ratio: float  # math.inf when n_minus == 0


def _sides(split: SplitResult) -> tuple[MatchIndex, np.ndarray]:
    """The index holding both sides' sentences, and each unit's side: 1 S+, 2 S-, 0 neither."""
    plus, minus = split.s_plus, split.s_minus
    if not all(isinstance(s, SentenceView) and s.corpus is plus.corpus for s in (plus, minus)):
        corpus = SentenceCorpus([Document("", (*plus, *minus))])  # index sentence lists apart
        ids = np.arange(corpus.n_sentences)
        plus, minus = SentenceView(corpus, ids[: len(plus)]), SentenceView(corpus, ids[len(plus) :])
    side = np.zeros(plus.corpus.n_sentences, dtype=np.int8)
    side[plus.ids], side[minus.ids] = 1, 2
    return plus.corpus.index, side


def ratio_table(words, split: SplitResult) -> list[RatioRow]:
    """Per-word S+/S- occurrence table, sorted by ratio descending.

    ratio = (n_plus/|S+|) / (n_minus/|S-|); a zero n_minus yields an infinite
    ratio that sorts above every finite one.
    """
    if not split.s_plus or not split.s_minus:
        raise InputError("ratio_table needs non-empty S+ and S-")
    n_p, n_m = len(split.s_plus), len(split.s_minus)
    index, side = _sides(split)
    rows = []
    for w in words:
        p = as_pattern(w)
        np_, nm = np.bincount(side[index.lookup(p)[0]], minlength=3)[1:].tolist()
        ratio = math.inf if nm == 0 else (np_ / n_p) / (nm / n_m)
        rows.append(RatioRow(p.surface, np_, 100.0 * np_ / n_p, nm, 100.0 * nm / n_m, ratio))
    rows.sort(key=lambda r: (-r.ratio, r.word))
    return rows


@dataclass(frozen=True)
class CollectionItem:
    doc_id: str
    folded: tuple[str, ...]


class DocumentCollection:
    """A named group of documents used for doc-hit analytics: a document-level view of a corpus."""

    def __init__(self, group_id: str, corpus: SentenceCorpus):
        self.group_id, self.corpus = group_id, corpus

    @property
    def items(self) -> tuple[CollectionItem, ...]:
        return tuple(
            CollectionItem(d.doc_id, tuple(t for s in d.sentences for t in s.folded))
            for d in self.corpus.documents
        )

    @cached_property
    def index(self) -> MatchIndex:
        """Document-level index: a phrase may span a sentence boundary."""
        return self.corpus.match_index(self.corpus.sent_offsets[self.corpus.doc_offsets])


def build_collection(group_id: str, docs) -> DocumentCollection:
    return DocumentCollection(group_id, build_corpus(docs))


def collection_from_corpus(group_id: str, corpus: SentenceCorpus) -> DocumentCollection:
    return DocumentCollection(group_id, corpus)


def load_collections(manifest_path: str | Path) -> list[DocumentCollection]:
    """Collections from a JSON manifest mapping group_id -> corpus path."""
    mapping = tables.read_json(manifest_path, "collection manifest")
    if not isinstance(mapping, dict) or not mapping:
        raise InputError(f"{manifest_path}: manifest must map group ids to corpus paths")
    base = Path(manifest_path).parent  # an absolute corpus path replaces it
    return [collection_from_corpus(g, load_corpus(base / mapping[g])) for g in sorted(mapping)]


def relative_scores(
    collection: DocumentCollection, words, baseline="knowledge"
) -> dict[str, float]:
    """Document-hit counts of each word divided by the baseline word's count."""
    base = as_pattern(baseline)
    base_hits = len(collection.index.lookup(base)[0])
    if base_hits == 0:
        raise InputError(
            f"baseline {base.surface!r} matches no document in group {collection.group_id!r}"
        )
    patterns = [as_pattern(w) for w in words]
    return {p.surface: len(collection.index.lookup(p)[0]) / base_hits for p in patterns}


@dataclass(frozen=True)
class RateRow:
    group: str
    matched: int
    total: int
    rate: float


def uncertainty_rate(groups, query=DEFAULT_CONSENSUS_QUERY) -> list[RateRow]:
    """Fraction of each group's items matching any query pattern, sorted descending."""
    patterns = tuple(as_pattern(p) for p in query)
    rows = []
    for group in groups:
        total = group.index.n_units
        if not total:
            raise InputError(f"group {group.group_id!r} is empty")
        matched = int(group.index.matches_any(patterns).sum())
        rows.append(RateRow(group.group_id, matched, total, matched / total))
    rows.sort(key=lambda r: (-r.rate, r.group))
    return rows


@dataclass(frozen=True)
class SentenceMatch:
    doc_id: str
    index: int
    text: str
    matched: tuple[str, ...]


def _distinct(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct ids; plain ``np.unique`` would import ``numpy.ma`` for this."""
    ids = np.sort(ids)
    return ids[np.diff(ids, prepend=-1) != 0]  # ids are non-negative


def find_sentences(corpus: SentenceCorpus, cues, limit: int) -> list[SentenceMatch]:
    """Sentences matching the cue patterns, at most ``limit`` rows per cue.

    Scan order, and hence output order, is (doc_id position, sentence index).
    """
    if limit < 1:
        raise InputError("limit must be positive")
    patterns = [as_pattern(c) for c in cues]
    if not patterns:
        return []
    index = corpus.index
    by_id = sorted(range(corpus.n_documents), key=corpus.doc_ids.__getitem__)
    doc_rank = np.argsort(np.array(by_id, dtype=np.int64))  # the inverse permutation

    def in_scan_order(ids):
        return ids[np.lexsort((ids, doc_rank[index.groups[ids]]))]

    hits = [index.lookup(p)[0] for p in patterns]
    # Each kept row spends one unit of every cue surface it hits, so a surface
    # spends its budget on its first ``limit`` hits: rows can only come from those.
    by_surface: dict[str, list[np.ndarray]] = {}
    for p, ids in zip(patterns, hits):
        by_surface.setdefault(p.surface, []).append(ids)
    firsts = [in_scan_order(_distinct(np.concatenate(g)))[:limit] for g in by_surface.values()]
    candidates = in_scan_order(_distinct(np.concatenate(firsts)))
    member = np.array([np.isin(candidates, ids) for ids in hits]).T
    remaining = {p.surface: limit for p in patterns}
    out = []
    for row, (doc_id, idx, text) in zip(member, corpus.rows(candidates)):
        matched = [patterns[j] for j in np.flatnonzero(row).tolist()]
        if not any(remaining[p.surface] > 0 for p in matched):
            continue
        for p in matched:
            if remaining[p.surface] > 0:
                remaining[p.surface] -= 1
        out.append(SentenceMatch(doc_id, idx, text, tuple(p.surface for p in matched)))
    return out
