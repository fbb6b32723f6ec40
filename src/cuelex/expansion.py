"""Seed lexicon handling and embedding-based lexicon expansion.

The pipeline: per-model top-k retrieval around each seed, candidate folding,
cross-model intersection, then PMI / TF-IDF scoring over a reference corpus.
Scores are ranking metadata only; they never remove a candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

from . import tables
from .errors import InputError
from .patterns import MatchPattern, as_pattern, parse_pattern
from .tables import COMMENT

if TYPE_CHECKING:
    from .corpus import SentenceCorpus
    from .embeddings import EmbeddingModel, StreamedModel

PAIRS_HEADER = ("seed", "candidate", "similarity", "model")

STATUSES = ("unrated", "accepted", "rejected")
_COSINE_SLACK = 1e-9  # how far rounding may carry a similarity past [-1, 1]


@dataclass(frozen=True)
class SeedEntry:
    """One seed lexicon entry: a match pattern plus explicit embedding lookup forms."""

    pattern: MatchPattern
    model_forms: tuple[str, ...]
    source_tag: str = "custom"

    @property
    def surface(self) -> str:
        return self.pattern.surface


class SeedEntryError(InputError):
    """``SeedLexicon``'s refusal of one entry; ``args`` are the message and its position."""

    def __str__(self) -> str:
        return self.args[0]


class SeedLexicon:
    """Hand-crafted cue-word seeds that the expansion grows."""

    def __init__(self, entries: list[SeedEntry]):
        if not entries:
            raise InputError("seed lexicon is empty")
        self.entries = list(entries)
        self._positions = {}  # lowercased surface -> position in entries
        for position, e in enumerate(self.entries):
            if self._positions.setdefault(e.surface.lower(), position) != position:
                raise SeedEntryError(f"duplicate seed surface {e.surface!r}", position)
            if e.pattern.kind == "prefix_wildcard" and not e.model_forms:
                raise SeedEntryError(
                    f"wildcard seed {e.surface!r} needs explicit model forms "
                    "(wildcards are never sent to a model)",
                    position,
                )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def folded_words(self) -> set[str]:
        """Lowercased surfaces and model forms, used to exclude seed self-hits."""
        return {w.lower() for e in self.entries for w in (e.surface, *e.model_forms)}

    def entry_for(self, surface: str) -> SeedEntry:
        try:
            return self.entries[self._positions[surface.lower()]]
        except KeyError:
            raise InputError(f"no seed with surface {surface!r}") from None


def _default_forms(pattern: MatchPattern) -> tuple[str, ...]:
    if pattern.kind == "prefix_wildcard":
        return ()
    if pattern.kind == "phrase":
        return (pattern.surface.replace(" ", "_"),)
    return (pattern.surface,)


def parse_seed_lexicon(lines, origin: str = "<memory>") -> SeedLexicon:
    """Parse lexicon lines: ``surface[<TAB>source_tag[<TAB>form,form,...]]``.

    '#' starts a ``COMMENT``; a trailing '*' marks a prefix wildcard; embedded
    spaces mark a phrase.  Wildcard entries must carry explicit model forms.
    Every refusal of an entry names its place, ``origin:lineno``.
    """
    entries = {}  # line number -> entry
    for lineno, raw in enumerate(lines, 1):
        line = COMMENT.sub("", raw).rstrip()
        if not line.strip():
            continue
        fields = line.split("\t")
        try:
            surface = fields[0].strip()
            if not surface:
                raise InputError("entry without a surface")
            tag = fields[1].strip() if len(fields) > 1 and fields[1].strip() else "custom"
            if tag not in ("hedging", "scientific", "custom"):
                raise InputError(f"unknown source tag {tag!r}")
            pattern = parse_pattern(surface)
        except InputError as exc:
            raise InputError(f"{origin}:{lineno}: {exc}") from None
        if len(fields) > 2 and fields[2].strip():
            forms = tuple(  # model tokens spell a phrase's spaces as "_"
                f.strip().replace(" ", "_") for f in fields[2].split(",") if f.strip()
            )
        else:
            forms = _default_forms(pattern)
        entries[lineno] = SeedEntry(pattern, forms, tag)
    if not entries:
        raise InputError(f"seed lexicon is empty: {origin}")
    try:
        return SeedLexicon(list(entries.values()))
    except SeedEntryError as exc:
        raise InputError(f"{origin}:{list(entries)[exc.args[1]]}: {exc}") from None


def load_seed_lexicon(path: str | Path) -> SeedLexicon:
    with tables.open_text(path, "seed lexicon") as fh:
        return parse_seed_lexicon(fh, origin=fh.name)


def default_seed_lexicon() -> SeedLexicon:
    """The bundled reconstruction of the uncertainty seed list (incomplete)."""
    text = resources.files("cuelex.data").joinpath("seeds_default.txt").read_text("utf-8")
    return parse_seed_lexicon(text.splitlines(), origin="cuelex.data/seeds_default.txt")


@dataclass(frozen=True, slots=True)
class CandidatePair:
    """A (seed, retrieved candidate) pair from one embedding model."""

    seed: str
    candidate: str
    similarity: float
    model_name: str

    def __post_init__(self):
        if not self.seed or not self.candidate:
            raise InputError("pair with empty token")
        if not -1.0 - _COSINE_SLACK <= self.similarity <= 1.0 + _COSINE_SLACK:
            raise InputError(f"similarity out of range: {self.similarity}")

    def __reduce__(self):
        # Pairs cross the worker pipe. As constructor arguments they pickle and
        # load in under half the time of a frozen slotted dataclass's own state
        # methods (which early 3.10 releases lack), and are checked again on load.
        return CandidatePair, (self.seed, self.candidate, self.similarity, self.model_name)


@dataclass
class ExpansionResult:
    pairs: list[CandidatePair]
    skipped: list[tuple[str, str]]  # (seed surface, model form) not found or unusable


def expand(
    model: EmbeddingModel | StreamedModel,
    lexicon: SeedLexicon,
    k: int = 50,
    fold_case: bool = True,
) -> ExpansionResult:
    """Retrieve each seed's top-k neighbors from one model, loaded or streamed.

    Candidates are lowercase-folded and pairs hitting any folded seed surface
    or model form are dropped.  A seed form that is out of vocabulary, or
    whose vector has a near-zero norm, is reported in ``skipped``, never
    fatal.  Output is sorted by (seed, similarity desc, candidate asc).
    """
    if k < 1:
        raise InputError("k must be positive")
    seed_words = lexicon.folded_words()

    forms = [(entry.surface, form) for entry in lexicon.entries for form in entry.model_forms]
    neighbors = model.top_k_usable([form for _, form in forms], k, fold_case)
    skipped = [sf for sf, results in zip(forms, neighbors) if results is None]
    pairs = [
        CandidatePair(surface, nb.neighbor.lower(), nb.similarity, model.name)
        for (surface, _), results in zip(forms, neighbors)
        for nb in results or ()
        if nb.neighbor.lower() not in seed_words
    ]
    pairs.sort(key=lambda p: (p.seed, -p.similarity, p.candidate))
    return ExpansionResult(pairs, skipped)


def distinct_candidates(pairs) -> set[str]:
    """Unique candidate tokens over a pair list."""
    return {p.candidate for p in pairs}


@dataclass(slots=True)
class ModelProvenance:
    similarity: float
    seeds: tuple[str, ...]


@dataclass(slots=True)
class Candidate:
    word: str
    models: dict[str, ModelProvenance] = field(default_factory=dict)
    pmi: float | None = None
    tfidf: float | None = None
    status: str = "unrated"
    no_evidence: bool = False

    def __post_init__(self):
        if self.status not in STATUSES:
            raise InputError(f"unknown candidate status {self.status!r}")


@dataclass
class CandidateSet:
    candidates: list[Candidate]

    def words(self) -> list[str]:
        return [c.word for c in self.candidates]

    def __len__(self) -> int:
        return len(self.candidates)


def intersect(a: set[str], b: set[str], lexicon: SeedLexicon, pairs=None) -> CandidateSet:
    """Candidates retrieved by both models, minus seed words, sorted lexicographically.

    When the originating ``pairs`` (any iterable) are supplied, each candidate
    records its per-model best similarity and contributing seeds, from one
    stable sort of its pairs by (candidate, model).
    """
    seed_words = lexicon.folded_words()
    words = sorted((a & b) - seed_words)
    by_word = {w: Candidate(w) for w in words}
    if pairs is not None:
        key = attrgetter("candidate", "model_name")
        kept = sorted((p for p in pairs if p.candidate in by_word), key=key)
        for (word, model_name), group in groupby(kept, key):
            group = list(group)  # in the pairs' order, so max keeps the first of equal bests
            by_word[word].models[model_name] = ModelProvenance(
                max(p.similarity for p in group), tuple(sorted({p.seed for p in group}))
            )
    return CandidateSet([by_word[w] for w in words])


NEG_INF = float("-inf")


def pmi(corpus: SentenceCorpus, x, y) -> float:
    """Pointwise mutual information ln(p(y|x)/p(y)) over sentence-level occurrence.

    Natural log.  Zero co-occurrence returns -inf (a sentinel value); a pattern
    with zero support raises an insufficient-evidence error instead.
    """
    px, py = as_pattern(x), as_pattern(y)
    n = corpus.n_sentences
    if n == 0:
        raise InputError("pmi over an empty corpus")
    ids_x, ids_y = corpus.index.lookup(px)[0], corpus.index.lookup(py)[0]
    for p, ids in ((px, ids_x), (py, ids_y)):
        if len(ids) == 0:
            raise InputError(f"insufficient evidence: pattern {p.surface!r} matches no sentence")
    import numpy as np  # here, so that intersect and graph, which score nothing, never load it

    n_xy = len(np.intersect1d(ids_x, ids_y, assume_unique=True))
    if n_xy == 0:
        return NEG_INF
    return math.log((n_xy / len(ids_x)) / (len(ids_y) / n))


def tfidf(corpus: SentenceCorpus, word) -> float:
    """(cf / T) * ln(N_docs / df) with token-level cf and document-level df."""
    p = as_pattern(word)
    ids, counts = corpus.index.lookup(p)
    if len(ids) == 0:
        raise InputError(f"word absent from corpus: {p.surface!r}")
    import numpy as np  # as in pmi

    cf = int(counts.sum())
    df = 1 + np.count_nonzero(np.diff(corpus.doc_of(ids)))  # ids ascend, so their documents do
    return (cf / corpus.n_tokens) * math.log(corpus.n_documents / df)


def score_candidates(
    cset: CandidateSet, corpus: SentenceCorpus, lexicon: SeedLexicon
) -> CandidateSet:
    """Attach TF-IDF and PMI metadata to every candidate.

    PMI is aggregated as the maximum over the candidate's contributing seeds
    (all seeds when no provenance was recorded); a seed that matches no
    sentence adds nothing.  Every contributing seed must be in ``lexicon``,
    checked for every candidate before any is scored.  A candidate is looked
    up as the literal model token it is (``present*`` is no wildcard), and
    one without corpus evidence keeps its place and an explicit marker.
    """
    if corpus.n_sentences == 0:
        raise InputError("scoring corpus is empty")
    contributing = []
    for cand in cset.candidates:
        surfaces = sorted({s for prov in cand.models.values() for s in prov.seeds})
        try:
            contributing.append([lexicon.entry_for(s) for s in surfaces] or lexicon.entries)
        except InputError as exc:
            raise InputError(f"candidate {cand.word!r}: {exc} in the seed lexicon") from None
    index, out = corpus.index, []
    for cand, entries in zip(cset.candidates, contributing):
        word = MatchPattern(cand.word, "literal")
        tf = best = None
        if len(index.lookup(word)[0]):
            tf = tfidf(corpus, word)
            seeds = (e.pattern for e in entries if len(index.lookup(e.pattern)[0]))
            best = max((pmi(corpus, seed, word) for seed in seeds), default=None)
        out.append(replace(cand, pmi=best, tfidf=tf, no_evidence=tf is None))
    return CandidateSet(out)


def write_pairs(path: str | Path, pairs, header_lines=()) -> None:
    """Pairs as TSV with a fixed header; similarity printed with 6 decimals."""
    rows = ((p.seed, p.candidate, f"{p.similarity:.6f}", p.model_name) for p in pairs)
    tables.write_tsv(path, PAIRS_HEADER, rows, header_lines)


def read_pairs(path: str | Path) -> list[CandidatePair]:
    _, rows = tables.read_tsv(path, PAIRS_HEADER, "pairs")
    return [
        CandidatePair(seed, cand, tables.number(float, sim, "similarity", path, n), model)
        for n, (seed, cand, sim, model) in rows
    ]


def write_candidate_set(path: str | Path, cset: CandidateSet, meta: dict | None = None) -> None:
    """The candidates as JSON, each entry built as it is written."""
    doc = {
        "meta": meta or {},
        "candidates": (
            {
                "word": c.word,
                "models": {
                    name: {"similarity": prov.similarity, "seeds": list(prov.seeds)}
                    for name, prov in sorted(c.models.items())
                },
                "pmi": tables.json_value(c.pmi),
                "tfidf": c.tfidf,
                "status": c.status,
                "no_evidence": c.no_evidence,
            }
            for c in cset.candidates
        ),
    }
    tables.write_json(path, doc)


def read_candidate_set(path: str | Path) -> CandidateSet:
    """The candidates of a ``write_candidate_set`` file, which judges may edit by hand.

    Its shape is checked first: a shape this reader cannot use is an input
    error naming the file and the index of the entry.
    """
    doc = tables.read_json(path, "candidate")
    entries = doc.get("candidates") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise InputError(f'{path}: expected an object with a "candidates" list')
    out = []
    for i, obj in enumerate(entries):
        try:
            out.append(_read_candidate(obj))
        except InputError as exc:
            raise InputError(f"{path}: candidate {i}: {exc}") from None
    return CandidateSet(out)


def _read_candidate(obj) -> Candidate:
    if not isinstance(obj, dict) or not isinstance(obj.get("word"), str):
        raise InputError('expected an object with a string "word"')
    models = obj.get("models", {})
    if not isinstance(models, dict):
        raise InputError('"models" must map model names to {"similarity", "seeds"}')
    provenance = {}
    for name, m in models.items():
        seeds = m.get("seeds") if isinstance(m, dict) else None
        if not isinstance(seeds, list) or not all(isinstance(s, str) for s in seeds):
            shape = '{"similarity": number, "seeds": [string]}'
            raise InputError(f"model {name!r}: expected {shape}")
        similarity = _json_number(m.get("similarity"), f"model {name!r} similarity")
        if not -1.0 - _COSINE_SLACK <= similarity <= 1.0 + _COSINE_SLACK:
            raise InputError(f"model {name!r} similarity must be in [-1, 1], got {similarity}")
        provenance[name] = ModelProvenance(similarity, tuple(seeds))
    pmi, tfidf, no_evidence = obj.get("pmi"), obj.get("tfidf"), obj.get("no_evidence", False)
    if not isinstance(no_evidence, bool):
        raise InputError(f'"no_evidence" must be true or false, got {no_evidence!r}')
    return Candidate(
        word=obj["word"],
        models=provenance,
        pmi=None if pmi is None else _json_number(pmi, '"pmi"'),
        tfidf=None if tfidf is None else _json_number(tfidf, '"tfidf"'),
        status=obj.get("status", "unrated"),
        no_evidence=no_evidence,
    )


def _json_number(value, what: str) -> float:
    """A JSON number but NaN, or ``inf``/``-inf`` as ``tables.json_value`` spells them.

    An integer too large for a float is refused by name, without its digits.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if (number and value == value) or value in ("inf", "-inf"):  # NaN is unequal to itself
        try:
            return float(value)
        except OverflowError:
            raise InputError(f"{what} is an integer too large for a float") from None
    raise InputError(f"{what} must be a number, got {value!r}")
