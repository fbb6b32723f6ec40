"""Document ingestion, sentence splitting, cue matching, and corpus analytics.

A corpus is immutable once built: analytics are pure functions over it and
always produce deterministically ordered rows.

``match``/``count_matches`` define what a pattern matches.  The analytics
answer their queries from a ``MatchIndex``, an inverted file over the folded
tokens that a corpus or collection builds on its first query and keeps: it
costs about 4 bytes per token, and a query then costs in proportion to the
pattern's postings instead of to the corpus.
"""

from __future__ import annotations

import json
import math
import random
import string
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InputError

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


@dataclass(frozen=True)
class MatchPattern:
    """A cue pattern: literal token, prefix wildcard ("surpris*"), or phrase."""

    surface: str
    kind: str  # literal | prefix_wildcard | phrase

    def __post_init__(self):
        if self.kind not in ("literal", "prefix_wildcard", "phrase"):
            raise InputError(f"unknown pattern kind {self.kind!r}")

    @property
    def stem(self) -> str:
        return self.surface.lower().rstrip("*")

    @property
    def phrase_tokens(self) -> tuple[str, ...]:
        return tuple(self.surface.lower().split())


def parse_pattern(text: str) -> MatchPattern:
    text = text.strip()
    if not text:
        raise InputError("empty pattern")
    if text.endswith("*"):
        if len(text) == 1:
            raise InputError("wildcard pattern needs a stem")
        return MatchPattern(text, "prefix_wildcard")
    if " " in text:
        return MatchPattern(text, "phrase")
    return MatchPattern(text, "literal")


def as_pattern(p) -> MatchPattern:
    return p if isinstance(p, MatchPattern) else parse_pattern(str(p))


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


class SentenceCorpus:
    """Tokenized sentences grouped by document, with unique doc ids."""

    def __init__(self, documents: list[Document]):
        ids = [d.doc_id for d in documents]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate doc_id in corpus")
        self.documents = list(documents)

    def sentences(self):
        for doc in self.documents:
            yield from doc.sentences

    @property
    def n_sentences(self) -> int:
        return sum(len(d.sentences) for d in self.documents)

    @property
    def n_tokens(self) -> int:
        return sum(len(s.tokens) for s in self.sentences())

    @cached_property
    def index(self) -> MatchIndex:
        """Sentence-level index; a sentence's group is its document's position."""
        sizes = [len(d.sentences) for d in self.documents]
        groups = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        return MatchIndex(list(self.sentences()), groups)


def segment(text: str, abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS) -> list[str]:
    """Split text into sentences at ./!/? followed by whitespace and an uppercase letter.

    Splits are suppressed when the text up to the boundary ends with one of
    the (case-insensitive) abbreviations.
    """
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


def tokenize(text: str) -> list[str]:
    """Whitespace tokens with leading/trailing punctuation stripped.

    Hyphens and other interior punctuation are retained, so forms like
    "non-A" survive.
    """
    out = []
    for raw in text.split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            out.append(tok)
    return out


def build_corpus(
    docs, abbreviations: tuple[str, ...] = DEFAULT_ABBREVIATIONS
) -> SentenceCorpus:
    """Build a corpus from (doc_id, text) pairs; empty sentences are dropped."""
    documents = []
    for doc_id, text in docs:
        sentences = []
        for idx, sent in enumerate(segment(text, abbreviations)):
            toks = tuple(tokenize(sent))
            if not toks:
                continue
            folded = tuple(t.lower() for t in toks)
            sentences.append(Sentence(str(doc_id), idx, sent, toks, folded))
        documents.append(Document(str(doc_id), tuple(sentences)))
    return SentenceCorpus(documents)


def load_jsonl(path: str | Path, **kwargs) -> SentenceCorpus:
    """Corpus from JSON-lines: one object per document, {"id": ..., "text": ...}."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"corpus file not found: {path}")
    pairs = []
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
            pairs.append((obj["id"], obj["text"]))
    return build_corpus(pairs, **kwargs)


def load_directory(path: str | Path, **kwargs) -> SentenceCorpus:
    """Corpus from a directory of UTF-8 .txt files; the filename stem is the doc_id."""
    path = Path(path)
    if not path.is_dir():
        raise InputError(f"corpus directory not found: {path}")
    pairs = []
    for f in sorted(path.glob("*.txt")):
        pairs.append((f.stem, f.read_text(encoding="utf-8")))
    if not pairs:
        raise InputError(f"no .txt files in {path}")
    return build_corpus(pairs, **kwargs)


def load_corpus(path: str | Path, **kwargs) -> SentenceCorpus:
    path = Path(path)
    if path.is_dir():
        return load_directory(path, **kwargs)
    return load_jsonl(path, **kwargs)


def _folded(sentence) -> tuple[str, ...]:
    if isinstance(sentence, (Sentence, CollectionItem)):
        return sentence.folded
    return tuple(t.lower() for t in sentence)


def match(pattern, sentence) -> bool:
    """Does the sentence (Sentence, CollectionItem or token sequence) match the pattern?"""
    pattern = as_pattern(pattern)
    tokens = _folded(sentence)
    if pattern.kind == "literal":
        target = pattern.surface.lower()
        return any(t == target for t in tokens)
    if pattern.kind == "prefix_wildcard":
        stem = pattern.stem
        return any(t.startswith(stem) for t in tokens)
    phrase = pattern.phrase_tokens
    span = len(phrase)
    return any(tokens[i : i + span] == phrase for i in range(len(tokens) - span + 1))


def count_matches(pattern, sentence) -> int:
    """Number of pattern occurrences in the sentence (token-level count)."""
    pattern = as_pattern(pattern)
    tokens = _folded(sentence)
    if pattern.kind == "literal":
        target = pattern.surface.lower()
        return sum(1 for t in tokens if t == target)
    if pattern.kind == "prefix_wildcard":
        stem = pattern.stem
        return sum(1 for t in tokens if t.startswith(stem))
    phrase = pattern.phrase_tokens
    span = len(phrase)
    return sum(1 for i in range(len(tokens) - span + 1) if tokens[i : i + span] == phrase)


class MatchIndex:
    """Inverted file over "units": sentences or collection items, by their folded tokens.

    The folded vocabulary is sorted, so a token's id is its rank and a prefix
    wildcard covers one contiguous id range.  ``postings`` holds one int32 unit
    id per token occurrence, grouped by token id and ascending within a token,
    and ``offsets[t]:offsets[t + 1]`` is token ``t``'s slice.  ``groups``, when
    given, maps each unit to a group (its document, for sentences).
    """

    def __init__(self, units, groups=None):
        self.units = units
        self.groups = groups
        n = len(units)
        ids = Counter(chain.from_iterable(u.folded for u in units))
        self.vocab = sorted(ids)
        sizes = np.fromiter((ids[t] for t in self.vocab), np.int64, len(self.vocab))
        self.n_tokens = int(sizes.sum())
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        for i, t in enumerate(self.vocab):  # the counts are spent: token -> id from here on
            ids[t] = i
        # One in-place sort of (token id, unit id) keys lays out every token's
        # postings, units ascending; the keys then become the postings.
        dtype = np.int32 if len(self.vocab) * n < 2**31 else np.int64
        keys = np.fromiter(
            (ids[t] * n + i for i, u in enumerate(units) for t in u.folded), dtype, self.n_tokens
        )
        keys.sort()
        np.remainder(keys, max(n, 1), out=keys)
        self.postings = keys.astype(np.int32, copy=False)
        self._cache: dict[MatchPattern, tuple[np.ndarray, np.ndarray]] = {}

    def _token_ids(self, pattern: MatchPattern) -> tuple[int, int]:
        """The [lo, hi) range of vocabulary ids a literal or wildcard pattern matches."""
        if pattern.kind == "literal":
            target = pattern.surface.lower()
            lo = bisect_left(self.vocab, target)
            return lo, lo + (lo < len(self.vocab) and self.vocab[lo] == target)
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
        postings = [self.lookup(MatchPattern(t, "literal"))[0] for t in set(pattern.phrase_tokens)]
        ids = postings[0] if postings else np.arange(len(self.units), dtype=np.int32)
        for other in postings[1:]:
            ids = np.intersect1d(ids, other, assume_unique=True)
        counts = np.fromiter(
            (count_matches(pattern, self.units[u]) for u in ids.tolist()), np.int64, len(ids)
        )
        return ids[counts > 0], counts[counts > 0]

    def lookup(self, pattern) -> tuple[np.ndarray, np.ndarray]:
        """Ascending ids of the units the pattern matches, and its occurrence count in each."""
        pattern = as_pattern(pattern)
        if pattern not in self._cache:
            self._cache[pattern] = self._resolve(pattern)
        return self._cache[pattern]

    def matches_any(self, patterns) -> np.ndarray:
        """Boolean mask over units: does the unit match at least one of the patterns?"""
        hit = np.zeros(len(self.units), dtype=bool)
        for p in patterns:
            hit[self.lookup(p)[0]] = True
        return hit


@dataclass
class SplitResult:
    """S+ / S- partition of a corpus by indicator patterns."""

    s_plus: list[Sentence]
    s_minus: list[Sentence]
    indicators: tuple[MatchPattern, ...]
    capped: bool = False

    @cached_property
    def index(self) -> MatchIndex:
        """Index over ``s_plus + s_minus``: ids below ``len(s_plus)`` are S+ sentences."""
        return MatchIndex(self.s_plus + self.s_minus)


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
    s_plus, s_minus = [], []
    for sent, hit in zip(corpus.sentences(), corpus.index.matches_any(patterns).tolist()):
        (s_plus if hit else s_minus).append(sent)
    capped = False
    if balance and s_plus and s_minus and len(s_plus) != len(s_minus):
        target = min(len(s_plus), len(s_minus))
        big = s_plus if len(s_plus) > len(s_minus) else s_minus
        keep_idx = list(range(len(big)))
        random.Random(rng_seed).shuffle(keep_idx)
        keep = sorted(keep_idx[:target])
        sampled = [big[i] for i in keep]
        if big is s_plus:
            s_plus = sampled
        else:
            s_minus = sampled
        capped = True
    return SplitResult(s_plus, s_minus, patterns, capped)


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
    if not split.s_plus or not split.s_minus:
        raise InputError("ratio_table needs non-empty S+ and S-")
    n_p, n_m = len(split.s_plus), len(split.s_minus)
    rows = []
    for w in words:
        p = as_pattern(w)
        ids = split.index.lookup(p)[0]
        np_ = int(np.searchsorted(ids, n_p))
        nm = len(ids) - np_
        ratio = math.inf if nm == 0 else (np_ / n_p) / (nm / n_m)
        rows.append(RatioRow(p.surface, np_, 100.0 * np_ / n_p, nm, 100.0 * nm / n_m, ratio))
    rows.sort(key=lambda r: (-r.ratio, r.word))
    return rows


@dataclass(frozen=True)
class CollectionItem:
    doc_id: str
    folded: tuple[str, ...]


@dataclass(frozen=True)
class DocumentCollection:
    """A named group of documents used for doc-hit analytics."""

    group_id: str
    items: tuple[CollectionItem, ...]

    @cached_property
    def index(self) -> MatchIndex:
        """Document-level index: a phrase may span a sentence boundary."""
        return MatchIndex(self.items)


def build_collection(group_id: str, docs) -> DocumentCollection:
    items = tuple(
        CollectionItem(str(doc_id), tuple(t.lower() for t in tokenize(text))) for doc_id, text in docs
    )
    return DocumentCollection(group_id, items)


def collection_from_corpus(group_id: str, corpus: SentenceCorpus) -> DocumentCollection:
    items = []
    for doc in corpus.documents:
        folded = tuple(t for s in doc.sentences for t in s.folded)
        items.append(CollectionItem(doc.doc_id, folded))
    return DocumentCollection(group_id, tuple(items))


def load_collections(manifest_path: str | Path) -> list[DocumentCollection]:
    """Collections from a JSON manifest mapping group_id -> corpus path."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise InputError(f"collection manifest not found: {manifest_path}")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            mapping = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{manifest_path}: invalid JSON ({exc})") from None
    if not isinstance(mapping, dict) or not mapping:
        raise InputError(f"{manifest_path}: manifest must map group ids to corpus paths")
    base = manifest_path.parent
    out = []
    for group_id in sorted(mapping):
        p = Path(mapping[group_id])
        if not p.is_absolute():
            p = base / p
        out.append(collection_from_corpus(group_id, load_corpus(p)))
    return out


def _doc_hits(collection: DocumentCollection, pattern: MatchPattern) -> int:
    return len(collection.index.lookup(pattern)[0])


def relative_scores(
    collection: DocumentCollection, words, baseline="knowledge"
) -> dict[str, float]:
    """Document-hit counts of each word divided by the baseline word's count."""
    base = as_pattern(baseline)
    base_hits = _doc_hits(collection, base)
    if base_hits == 0:
        raise InputError(
            f"baseline {base.surface!r} matches no document in group {collection.group_id!r}"
        )
    out = {}
    for w in words:
        p = as_pattern(w)
        out[p.surface] = _doc_hits(collection, p) / base_hits
    return out


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
        if not group.items:
            raise InputError(f"group {group.group_id!r} is empty")
        matched = int(group.index.matches_any(patterns).sum())
        rows.append(RateRow(group.group_id, matched, len(group.items), matched / len(group.items)))
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
    docs = corpus.documents
    doc_rank = np.empty(len(docs), dtype=np.int64)
    doc_rank[sorted(range(len(docs)), key=lambda d: docs[d].doc_id)] = np.arange(len(docs))

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
    for row, unit in zip(member, candidates.tolist()):
        matched = [patterns[j] for j in np.flatnonzero(row).tolist()]
        if not any(remaining[p.surface] > 0 for p in matched):
            continue
        for p in matched:
            if remaining[p.surface] > 0:
                remaining[p.surface] -= 1
        sent = index.units[unit]
        out.append(
            SentenceMatch(sent.doc_id, sent.index, sent.text, tuple(p.surface for p in matched))
        )
    return out
