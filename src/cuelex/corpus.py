"""Document ingestion, sentence splitting, cue matching, and corpus analytics.

A corpus is immutable once built: analytics are pure functions over it and
always produce deterministically ordered rows.

A ``SentenceCorpus`` is a column store (one token-id array, offsets, and
each document's text once); its ``Document``s and ``Sentence``s, a split's
sides and a collection's items are views built from the columns on demand.
``build_corpus`` segments, tokenizes and interns in one pass, one dict
lookup per whitespace token.

``patterns`` defines what a pattern matches.  The analytics answer their
queries from a ``MatchIndex``, a positional inverted file over the folded
token ids that a corpus or collection builds on its first query and keeps:
it holds postings and offsets only, about 4 bytes per token, its build makes
no other array over the whole corpus, and a query then costs in proportion
to the pattern's postings (a phrase's, to its rarest token's) instead of to
the corpus.  ``SentenceCorpus.doc_of`` maps sentence ids to documents.  A
corpus with its sentence index keeps about 20 bytes per token, and its load
plus that index peaks at about 30 (tracemalloc; README, *Corpus memory
model*).
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
from .patterns import (  # noqa: F401  (re-exported)
    DEFAULT_CONSENSUS_QUERY,
    MatchPattern,
    as_pattern,
    count_matches,
    match,
    parse_pattern,
)

DEFAULT_ABBREVIATIONS = ("e.g.", "i.e.", "et al.", "Fig.", "vs.")
_ABBREVIATIONS = tuple(a.lower() for a in DEFAULT_ABBREVIATIONS)  # matched case-insensitively
_WINDOW = max(len(a) for a in _ABBREVIATIONS)

_STRIP_CHARS = string.punctuation + "“”‘’…«»–—·"

# A sentence boundary candidate: ./!/? and the whitespace run after it, then a character.
_BOUNDARY = re.compile(r"[.!?](\s+)(?=\S)")


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
    are document ``d``'s sentence ids (``doc_of`` maps the other way; other
    modules read no column).  ``seg_index[s]`` is the sentence's
    position among its document's segments before token-less ones were
    dropped, and its text is ``doc_texts[d][spans[s, 0]:spans[s, 1]]``: each
    document's text is kept once.  The constructor packs the (doc_id, text,
    [(segment index, start, end, token ids), ...]) triples that
    ``build_corpus`` makes; ``vocab`` is the dict from token to id that fills
    as ``documents`` is read.  A token's folded form is its ``str.lower()``.
    """

    def __init__(self, documents, vocab: dict[str, int]):
        ids, seg_index, spans = array("i"), array("i"), array("q")
        sent_sizes, doc_sizes, doc_ids, texts = array("q"), array("q"), [], []
        for doc_id, text, sentences in documents:
            n = len(seg_index)
            for index, start, end, tokens in sentences:
                ids.extend(tokens)
                sent_sizes.append(len(tokens))
                seg_index.append(index)
                spans.extend((start, end))
            doc_ids.append(doc_id)
            doc_sizes.append(len(seg_index) - n)
            texts.append(text if len(seg_index) > n else "")
        if len(set(doc_ids)) != len(doc_ids):
            raise InputError("duplicate doc_id in corpus")
        self.doc_ids, self.doc_texts, self.vocab = doc_ids, texts, list(vocab)
        self.token_ids = np.frombuffer(ids, dtype=np.intc)
        self.seg_index = np.frombuffer(seg_index, dtype=np.intc)
        self.spans = np.frombuffer(spans, dtype=np.int64).reshape(-1, 2)
        self.sent_offsets = _offsets(np.frombuffer(sent_sizes, dtype=np.int64))
        self.doc_offsets = _offsets(np.frombuffer(doc_sizes, dtype=np.int64))
        self.n_documents, self.n_sentences, self.n_tokens = len(doc_ids), len(seg_index), len(ids)

    def sentence(self, s: int) -> Sentence:
        ((doc_id, index, text),) = self.rows(np.array([s]))
        start, end = self.sent_offsets[s : s + 2].tolist()
        tokens = tuple(map(self.vocab.__getitem__, self.token_ids[start:end].tolist()))
        return Sentence(doc_id, index, text, tokens, tuple(t.lower() for t in tokens))

    def sentences(self):
        return map(self.sentence, range(self.n_sentences))

    @property
    def documents(self) -> list[Document]:
        bounds = self.doc_offsets.tolist()
        return [
            Document(doc_id, tuple(map(self.sentence, range(bounds[d], bounds[d + 1]))))
            for d, doc_id in enumerate(self.doc_ids)
        ]

    def rows(self, ids: np.ndarray):
        """Yield (doc_id, segment index, text) of each sentence id, read from the columns.

        The ids are read 1,024 at a time, so a caller that writes each row as
        it comes never holds them all.
        """
        for lo in range(0, len(ids), 1024):
            part = ids[lo : lo + 1024]
            docs, segments = self.doc_of(part).tolist(), self.seg_index[part].tolist()
            for d, i, (start, end) in zip(docs, segments, self.spans[part].tolist()):
                yield self.doc_ids[d], i, self.doc_texts[d][start:end]

    def doc_of(self, ids: np.ndarray) -> np.ndarray:
        """The position of each sentence id's document: the one map from sentences to documents."""
        return self.doc_offsets.searchsorted(ids, side="right") - 1

    def match_index(self, offsets: np.ndarray) -> MatchIndex:
        return MatchIndex(self.token_ids, offsets, [t.lower() for t in self.vocab])

    @cached_property
    def index(self) -> MatchIndex:
        """Sentence-level index; ``doc_of`` maps its unit ids to documents."""
        return self.match_index(self.sent_offsets)


def _spans(text: str):
    """(start, end, text[start:end]) of each sentence that ``segment`` returns."""
    start = 0
    for m in (*_BOUNDARY.finditer(text), None):  # None: the end of the text
        end, after = m.span(1) if m else (len(text), None)
        if m and (
            not text[after].isupper()
            or text[max(0, end - _WINDOW) : end].lower().endswith(_ABBREVIATIONS)
        ):
            continue
        part = text[start:end]
        sentence = part.strip()
        if sentence:  # only the tail can be empty
            first = start + part.find(sentence[0])  # after the whitespace stripped
            yield first, first + len(sentence), sentence
        start = after


def segment(text: str) -> list[str]:
    """Split text into sentences at ./!/? followed by whitespace and an uppercase letter.

    Splits are suppressed when the text up to the boundary ends with one of
    ``DEFAULT_ABBREVIATIONS`` (case-insensitively).  Each sentence is stripped.
    """
    return [sentence for _, _, sentence in _spans(text)]


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with leading/trailing punctuation stripped.

    Hyphens and other interior punctuation are retained, so forms like
    "non-A" survive.
    """
    return [tok for tok in (raw.strip(_STRIP_CHARS) for raw in text.split()) if tok]


class _Interner(dict):
    """Raw whitespace token -> the id of its ``tokenize`` form in ``vocab``, or -1 if it has none.

    Only a raw form seen for the first time is stripped; ids are handed out
    in order of first appearance.
    """

    def __init__(self):
        self.vocab: dict[str, int] = {}

    def __missing__(self, raw: str) -> int:
        token = raw.strip(_STRIP_CHARS)
        self[raw] = i = self.vocab.setdefault(token, len(self.vocab)) if token else -1
        return i


def build_corpus(docs) -> SentenceCorpus:
    """Build a corpus from (doc_id, text) pairs; empty sentences are dropped.

    Tokenizing and interning are one dict lookup per whitespace token
    (``_Interner``); the result is that of ``tokenize`` over ``segment``.
    """
    interner = _Interner()

    def sentences(text):
        for index, (start, end, sentence) in enumerate(_spans(text)):
            ids = list(map(interner.__getitem__, sentence.split()))
            if -1 in ids:
                ids = [i for i in ids if i >= 0]
            if ids:
                yield index, start, end, ids

    documents = ((str(doc_id), text, sentences(text)) for doc_id, text in docs)
    return SentenceCorpus(documents, interner.vocab)


def load_jsonl(path: str | Path) -> SentenceCorpus:
    """Corpus from JSON-lines: one object per document, {"id": ..., "text": ...}."""
    path = Path(path)

    def documents():
        with tables.open_text(path, "corpus") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{path}:{lineno}: invalid JSON ({exc})") from None
                if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                    raise InputError(f'{path}:{lineno}: document needs "id" and "text"')
                if not isinstance(obj["text"], str):
                    raise InputError(f'{path}:{lineno}: "text" must be a string')
                if not isinstance(obj["id"], (str, int)) or isinstance(obj["id"], bool):
                    raise InputError(f'{path}:{lineno}: "id" must be a string or an integer')
                yield obj["id"], obj["text"]

    return build_corpus(documents())


def load_directory(path: str | Path) -> SentenceCorpus:
    """Corpus from a directory of UTF-8 .txt files; the filename stem is the doc_id."""
    path = Path(path)
    if not path.is_dir():
        raise InputError(f"corpus directory not found: {path}")
    files = sorted(path.glob("*.txt"))
    if not files:
        raise InputError(f"no .txt files in {path}")
    return build_corpus(((f.stem, tables.read_text(f, "corpus")) for f in files))


def load_corpus(path: str | Path) -> SentenceCorpus:
    path = Path(path)
    if path.is_dir():
        return load_directory(path)
    return load_jsonl(path)


def _runs(ids: np.ndarray):
    """Each run of equal values in ``ids`` (non-negative): its value, first index and length.

    ``MatchIndex`` counts with it, since ``np.unique`` would import ``numpy.ma``.
    """
    first = np.flatnonzero(np.diff(ids, prepend=-1))
    return ids[first], first, np.diff(first, append=len(ids))


class MatchIndex:
    """Positional inverted file over "units": sentences or documents, by their folded tokens.

    A unit is the run ``tokens[starts[u]:starts[u + 1]]`` of token ids, and
    ``fold`` maps a token id to its folded form's id.  The folded vocabulary
    is sorted, so a folded id is its rank and a prefix wildcard covers one
    contiguous id range.  ``postings`` holds the position of every token
    occurrence in ``tokens``, grouped by folded id and ascending within one,
    and ``offsets[t]:offsets[t + 1]`` is folded id ``t``'s slice; a
    position's unit is the last whose start is at or before it.  Positions
    and the unit ids a lookup returns are int32 while the corpus has fewer
    than 2**31 of either, int64 above.  The index holds postings and
    offsets only: which document a sentence is in is ``SentenceCorpus.doc_of``.

    The postings are a counting sort of the positions by folded id, filled
    ``BLOCK`` tokens at a time: each block is sorted on its own and written
    at per-key cursors that start at ``offsets``, so no array over the whole
    corpus is made besides ``postings``.  A phrase is matched from the
    positions of its rarest token alone.
    """

    BLOCK = 4096

    def __init__(self, tokens, starts, words):
        """``words[i]`` is the folded form of token id ``i``."""
        self.vocab = sorted(set(words))
        rank = {w: i for i, w in enumerate(self.vocab)}
        self.fold = np.array([rank[w] for w in words], dtype=np.int32)
        self.tokens, self.starts = tokens, starts
        self.n_units, self.n_tokens = len(starts) - 1, len(tokens)
        # Count each token id a vocabulary's length at a time (bincount copies its input
        # to int64), then fold the counts.
        step, counts = max(self.BLOCK, len(words)), np.zeros(len(words), dtype=np.int64)
        for lo in range(0, self.n_tokens, step):
            counts += np.bincount(tokens[lo : lo + step], minlength=len(words))
        key_counts = np.zeros(len(self.vocab), dtype=np.int64)
        np.add.at(key_counts, self.fold, counts)
        self.offsets = _offsets(key_counts)
        wide = max(self.n_tokens, self.n_units) >= 2**31
        self.postings = np.empty(self.n_tokens, dtype=np.int64 if wide else np.int32)
        cursor = self.offsets[:-1].copy()
        for lo in range(0, self.n_tokens, self.BLOCK):
            folded = self.fold[tokens[lo : lo + self.BLOCK]]
            order = np.argsort(folded, kind="stable")
            key, first, length = _runs(folded[order])
            at = np.repeat(cursor[key] - first, length) + np.arange(len(order))
            self.postings[at] = order + lo
            cursor[key] += length
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

    def _units(self, positions: np.ndarray) -> np.ndarray:
        return (np.searchsorted(self.starts, positions, "right") - 1).astype(self.postings.dtype)

    def _resolve(self, pattern: MatchPattern) -> tuple[np.ndarray, np.ndarray]:
        if pattern.kind != "phrase":
            lo, hi = self._token_ids(pattern)
            units = self._units(self.postings[self.offsets[lo] : self.offsets[hi]])
            if hi - lo > 1:  # each folded id's units ascend, but not their concatenation
                units.sort()
            ids, _, counts = _runs(units)
            return ids, counts
        keys = [self._token_ids(MatchPattern(t, "literal")) for t in pattern.phrase_tokens]
        if not keys:  # the empty phrase fits once more in a unit than it has tokens
            return np.arange(self.n_units, dtype=self.postings.dtype), np.diff(self.starts) + 1
        # Window starts from the positions of the rarest token (none if one is absent), kept
        # where the window lies in one unit and every other token is in its place.
        sizes = [self.offsets[hi] - self.offsets[lo] for lo, hi in keys]
        j = sizes.index(min(sizes))
        lo, hi = keys[j]
        start = self.postings[self.offsets[lo] : self.offsets[hi]].astype(np.int64)
        start = start[start >= j] - j
        unit = self._units(start)
        inside = start + len(keys) <= self.starts[unit + 1]
        start, unit = start[inside], unit[inside]
        for i, (key, _) in enumerate(keys):
            if i != j:
                hit = self.fold[self.tokens[start + i]] == key
                start, unit = start[hit], unit[hit]
        ids, _, counts = _runs(unit)  # the starts ascend, so their units do
        return ids, counts

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
    """S+ / S- partition of a corpus by indicator patterns: two views of one corpus."""

    s_plus: SentenceView
    s_minus: SentenceView
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


def ratio_table(words, split: SplitResult) -> list[RatioRow]:
    """Per-word S+/S- occurrence table, sorted by ratio descending.

    ratio = (n_plus/|S+|) / (n_minus/|S-|); a zero n_minus yields an infinite
    ratio that sorts above every finite one.
    """
    plus, minus = split.s_plus, split.s_minus
    if not all(isinstance(s, SentenceView) and s.corpus is plus.corpus for s in (plus, minus)):
        raise InputError("ratio_table needs a split whose sides are views of one corpus")
    if not plus or not minus:
        raise InputError("ratio_table needs non-empty S+ and S-")
    n_p, n_m, index = len(plus), len(minus), plus.corpus.index
    side = np.zeros(plus.corpus.n_sentences, dtype=np.int8)  # 1 S+, 2 S-, 0 neither
    side[plus.ids], side[minus.ids] = 1, 2
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
    for g, value in mapping.items():
        if not isinstance(value, str) or not value:
            raise InputError(f"{manifest_path}: group {g!r} needs a corpus path, got {value!r}")
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
    sentence: str
    matched: tuple[str, ...]


def _distinct(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct ids; plain ``np.unique`` would import ``numpy.ma`` for this."""
    return _runs(np.sort(ids))[0]


def find_sentences(corpus: SentenceCorpus, cues, limit: int) -> list[SentenceMatch]:
    """Sentences matching the cue patterns, at most ``limit`` rows per cue.

    Scan order, and hence output order, is (doc_id position, sentence index).
    """
    if limit < 1:
        raise InputError("limit must be positive")
    patterns = [as_pattern(c) for c in cues]
    if not patterns:
        return []
    by_id = sorted(range(corpus.n_documents), key=corpus.doc_ids.__getitem__)
    doc_rank = np.argsort(np.array(by_id, dtype=np.int64))  # the inverse permutation

    def in_scan_order(ids):
        return ids[np.lexsort((ids, doc_rank[corpus.doc_of(ids)]))]

    hits = [corpus.index.lookup(p)[0] for p in patterns]
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
