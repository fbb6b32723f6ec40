"""Seed lexicon handling and embedding-based lexicon expansion.

The pipeline: per-model top-k retrieval around each seed, candidate folding,
cross-model intersection, then PMI / TF-IDF scoring over a reference corpus.
Scores are ranking metadata only; they never remove a candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import tables
from .corpus import SentenceCorpus
from .embeddings import EmbeddingModel
from .errors import InputError
from .patterns import MatchPattern, as_pattern, parse_pattern
from .tables import COMMENT

PAIRS_HEADER = ("seed", "candidate", "similarity", "model")

STATUSES = ("unrated", "accepted", "rejected")


@dataclass(frozen=True)
class SeedEntry:
    """One seed lexicon entry: a match pattern plus explicit embedding lookup forms."""

    pattern: MatchPattern
    model_forms: tuple[str, ...]
    source_tag: str = "custom"

    @property
    def surface(self) -> str:
        return self.pattern.surface


class SeedLexicon:
    """Hand-crafted cue-word seeds that the expansion grows."""

    def __init__(self, entries: list[SeedEntry]):
        if not entries:
            raise InputError("seed lexicon is empty")
        seen = set()
        for e in entries:
            key = e.surface.lower()
            if key in seen:
                raise InputError(f"duplicate seed surface {e.surface!r}")
            seen.add(key)
            if e.pattern.kind == "prefix_wildcard" and not e.model_forms:
                raise InputError(
                    f"wildcard seed {e.surface!r} needs explicit model forms "
                    "(wildcards are never sent to a model)"
                )
        self.entries = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def folded_words(self) -> set[str]:
        """Lowercased surfaces and model forms, used to exclude seed self-hits."""
        return {w.lower() for e in self.entries for w in (e.surface, *e.model_forms)}

    def entry_for(self, surface: str) -> SeedEntry:
        key = surface.lower()
        for e in self.entries:
            if e.surface.lower() == key:
                return e
        raise InputError(f"no seed with surface {surface!r}")


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
    """
    entries = []
    for lineno, raw in enumerate(lines, 1):
        line = COMMENT.sub("", raw).rstrip()
        if not line.strip():
            continue
        fields = line.split("\t")
        surface = fields[0].strip()
        if not surface:
            raise InputError(f"{origin}:{lineno}: entry without a surface")
        tag = fields[1].strip() if len(fields) > 1 and fields[1].strip() else "custom"
        if tag not in ("hedging", "scientific", "custom"):
            raise InputError(f"{origin}:{lineno}: unknown source tag {tag!r}")
        pattern = parse_pattern(surface)
        if len(fields) > 2 and fields[2].strip():
            forms = tuple(f.strip() for f in fields[2].split(",") if f.strip())
        else:
            forms = _default_forms(pattern)
        try:
            entries.append(SeedEntry(pattern, forms, tag))
        except InputError as exc:
            raise InputError(f"{origin}:{lineno}: {exc}") from None
    if not entries:
        raise InputError(f"seed lexicon is empty: {origin}")
    return SeedLexicon(entries)


def load_seed_lexicon(path: str | Path) -> SeedLexicon:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"seed lexicon file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        return parse_seed_lexicon(fh, origin=str(path))


def default_seed_lexicon() -> SeedLexicon:
    """The bundled reconstruction of the uncertainty seed list (incomplete)."""
    text = resources.files("cuelex.data").joinpath("seeds_default.txt").read_text("utf-8")
    return parse_seed_lexicon(text.splitlines(), origin="cuelex.data/seeds_default.txt")


@dataclass(frozen=True)
class CandidatePair:
    """A (seed, retrieved candidate) pair from one embedding model."""

    seed: str
    candidate: str
    similarity: float
    model_name: str

    def __post_init__(self):
        if not self.seed or not self.candidate:
            raise InputError("pair with empty token")
        if not -1.0 - 1e-9 <= self.similarity <= 1.0 + 1e-9:
            raise InputError(f"similarity out of range: {self.similarity}")


@dataclass
class ExpansionResult:
    pairs: list[CandidatePair]
    skipped: list[tuple[str, str]]  # (seed surface, model form) not found in the model


def expand(
    model: EmbeddingModel,
    lexicon: SeedLexicon,
    k: int = 50,
    fold_case: bool = True,
) -> ExpansionResult:
    """Retrieve each seed's top-k neighbors from one model.

    Candidates are lowercase-folded and pairs hitting any folded seed surface
    or model form are dropped.  Out-of-vocabulary seed forms are reported,
    never fatal.  Output is sorted by (seed, similarity desc, candidate asc).
    """
    if k < 1:
        raise InputError("k must be positive")
    seed_words = lexicon.folded_words()

    found, skipped = [], []
    for entry in lexicon.entries:
        for form in entry.model_forms:
            form = form.replace(" ", "_")
            try:
                model.lookup(form, fold_case=fold_case)
            except InputError:
                skipped.append((entry.surface, form))
                continue
            found.append((entry.surface, form))
    neighbors = model.top_k_batch([form for _, form in found], k, fold_case)

    pairs = [
        CandidatePair(surface, nb.neighbor.lower(), nb.similarity, model.name)
        for (surface, _), results in zip(found, neighbors)
        for nb in results
        if nb.neighbor.lower() not in seed_words
    ]
    pairs.sort(key=lambda p: (p.seed, -p.similarity, p.candidate))
    return ExpansionResult(pairs, skipped)


def distinct_candidates(pairs) -> set[str]:
    """Unique candidate tokens over a pair list."""
    return {p.candidate for p in pairs}


@dataclass
class ModelProvenance:
    similarity: float
    seeds: tuple[str, ...]


@dataclass
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

    When the originating ``pairs`` are supplied, each candidate records its
    per-model best similarity and contributing seeds.
    """
    seed_words = lexicon.folded_words()
    words = sorted((a & b) - seed_words)
    by_word = {w: Candidate(w) for w in words}
    if pairs is not None:
        best: dict[tuple[str, str], float] = {}
        seeds: dict[tuple[str, str], set[str]] = {}
        for p in pairs:
            if p.candidate not in by_word:
                continue
            key = (p.candidate, p.model_name)
            if key not in best or p.similarity > best[key]:
                best[key] = p.similarity
            seeds.setdefault(key, set()).add(p.seed)
        for (word, model_name), sim in sorted(best.items()):
            by_word[word].models[model_name] = ModelProvenance(
                sim, tuple(sorted(seeds[(word, model_name)]))
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
    n_x, n_y = len(ids_x), len(ids_y)
    if n_x == 0:
        raise InputError(f"insufficient evidence: pattern {px.surface!r} matches no sentence")
    if n_y == 0:
        raise InputError(f"insufficient evidence: pattern {py.surface!r} matches no sentence")
    n_xy = len(np.intersect1d(ids_x, ids_y, assume_unique=True))
    if n_xy == 0:
        return NEG_INF
    return math.log((n_xy / n_x) / (n_y / n))


def tfidf(corpus: SentenceCorpus, word) -> float:
    """(cf / T) * ln(N_docs / df) with token-level cf and document-level df."""
    p = as_pattern(word)
    index = corpus.index
    ids, counts = index.lookup(p)
    if len(ids) == 0:
        raise InputError(f"word absent from corpus: {p.surface!r}")
    cf = int(counts.sum())
    df = 1 + np.count_nonzero(np.diff(index.groups[ids]))  # groups ascend with ids
    return (cf / index.n_tokens) * math.log(corpus.n_documents / df)


def score_candidates(
    cset: CandidateSet, corpus: SentenceCorpus, lexicon: SeedLexicon
) -> CandidateSet:
    """Attach TF-IDF and PMI metadata to every candidate.

    PMI is aggregated as the maximum over the candidate's contributing seeds
    (all seeds when no provenance was recorded).  Candidates without corpus
    evidence keep their place and carry an explicit marker.
    """
    if corpus.n_sentences == 0:
        raise InputError("scoring corpus is empty")
    out = []
    for cand in cset.candidates:
        contributing = sorted({s for prov in cand.models.values() for s in prov.seeds})
        if not contributing:
            contributing = [e.surface for e in lexicon.entries]
        word_pattern = as_pattern(cand.word)
        try:
            tf = tfidf(corpus, word_pattern)
        except InputError:
            tf = None
        best_pmi: float | None = None
        if tf is not None:  # candidate present in the corpus
            for surface in contributing:
                try:
                    entry = lexicon.entry_for(surface)
                    value = pmi(corpus, entry.pattern, word_pattern)
                except InputError:
                    continue
                if best_pmi is None or value > best_pmi:
                    best_pmi = value
        out.append(
            Candidate(
                word=cand.word,
                models=dict(cand.models),
                pmi=best_pmi,
                tfidf=tf,
                status=cand.status,
                no_evidence=tf is None,
            )
        )
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
    doc = {
        "meta": meta or {},
        "candidates": [
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
        ],
    }
    tables.write_json(path, doc)


def read_candidate_set(path: str | Path) -> CandidateSet:
    doc = tables.read_json(path, "candidate")
    return CandidateSet([
        Candidate(
            word=obj["word"],
            models={
                name: ModelProvenance(float(m["similarity"]), tuple(m["seeds"]))
                for name, m in obj.get("models", {}).items()
            },
            pmi=None if obj.get("pmi") is None else float(obj["pmi"]),  # float("-inf") is -inf
            tfidf=obj.get("tfidf"),
            status=obj.get("status", "unrated"),
            no_evidence=bool(obj.get("no_evidence", False)),
        )
        for obj in doc.get("candidates", [])
    ])
