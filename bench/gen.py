"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed gives
byte-identical files.  The program under test only ever sees the files; the
structured values returned alongside them (token lists, planted clusters)
feed the independent oracles in ``oracles.py``.

Vocabularies are pseudo-words built from consonant-vowel syllables.  Each
kind of token has its own length, so fillers, planted cluster tokens and
background model tokens can never collide with each other or with the real
English cue words.  The consonant set has no ``g``, and no token ends in
``vs``, so no sentence can end in one of the segmenter's abbreviations
(``fig.``, ``vs.``) and every generated sentence boundary is a real split.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CONSONANTS = "bcdfhjklmnprstvz"
VOWELS = "aeiou"
DIM = 300

# The bundled starter lexicon, restated so the benchmark owns its inputs:
# (surface, model forms).  Wildcards carry explicit forms, as the format asks.
SEEDS = [(w, (w,)) for w in (
    "unknown incomplete impossible consensus uncertainty unexpected".split())] + [
    ("surpris*", ("surprising", "surprise", "surprised"))] + [(w, (w,)) for w in (
    "uncertain unusual contrary conflicting unclear suspect controversial dispute "
    "inconsistent doubtful".split())] + [
    ("ambigu*", ("ambiguous", "ambiguity")),
    ("myster*", ("mysterious", "mystery", "mysteries"))] + [(w, (w,)) for w in (
    "bizarre undetermined unrecognized misleading fallacy incomprehensive perplexity "
    "contradictory flaw contentious incongruity unconvincing irreconcilable "
    "inconceivable deceptive suspicion improbable skeptic uncharted undiscovered "
    "baffling unreliable incompatible unanticipated unpredictable misconception "
    "paradox paradoxical misbelief implausible inconclusive debatable unexplained "
    "puzzling confusing discrepant".split())]

SEED_FORMS = [f for _, forms in SEEDS for f in forms]

# S+/S- indicators (the program's default consensus-failure query).
INDICATORS = ("conflicting", "contradictory", "inconsistent", "discrepant", "irreconcilable")

# Real function words mixed into the filler stream; phrases are built from them.
FUNCTION_WORDS = ("the", "of", "to", "be", "and", "in", "not", "may", "clear", "ought", "knowledge")
PHRASES = ("ought to", "may be", "not clear", "to be")

# The paper's two-judge table: both pos, pos/neg, neg/pos, both neg.
AGREEMENT_TABLE = (151, 49, 63, 130)


def pseudo_words(rng: random.Random, n: int, syllables: int, closed: bool) -> list[str]:
    """``n`` distinct CV-syllable words; ``closed`` appends a final consonant."""
    base = len(CONSONANTS) * len(VOWELS)
    space = base**syllables * (len(CONSONANTS) if closed else 1)
    out = []
    for code in rng.sample(range(space), n):
        chars = []
        if closed:
            code, last = divmod(code, len(CONSONANTS))
        for _ in range(syllables):
            code, syl = divmod(code, base)
            c, v = divmod(syl, len(VOWELS))
            chars.append(CONSONANTS[c] + VOWELS[v])
        if closed:
            chars.append(CONSONANTS[last])
        out.append("".join(chars))
    return out


def write_w2v_binary(path: Path, tokens: list[str], vectors: np.ndarray) -> None:
    """word2vec binary layout: ASCII header, then token, space, dim LE float32, LF."""
    rows = np.ascontiguousarray(vectors, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(f"{len(tokens)} {rows.shape[1]}\n".encode("ascii"))
        fh.write(b"".join(t.encode("utf-8") + b" " + r.tobytes() + b"\n" for t, r in zip(tokens, rows)))


@dataclass
class Clusters:
    """Planted neighbour clusters, shared by name across the model pair."""

    tokens: dict[str, list[str]]  # seed form -> tokens retrieved by both models
    unique: list[dict[str, list[str]]]  # per model: seed form -> tokens only that model has

    def all_tokens(self) -> list[str]:
        return sorted({t for ts in self.tokens.values() for t in ts})


def plant_clusters(rng: random.Random, shared: int, unique: int) -> Clusters:
    n = len(SEED_FORMS) * (shared + 2 * unique)
    words = iter(pseudo_words(rng, n, 3, closed=True))
    tokens = {f: [next(words) for _ in range(shared)] for f in SEED_FORMS}
    per_model = [{f: [next(words) for _ in range(unique)] for f in SEED_FORMS} for _ in range(2)]
    return Clusters(tokens, per_model)


def model_pair(seed: int, out: Path, vocab: int, clusters: Clusters, lead: int) -> None:
    """Two models over one background vocabulary, each planting every cluster.

    Within a cluster a token's cosine to its seed form falls evenly from 0.9
    to 0.45 with its rank, plus a jitter too small to swap two ranks.  Both
    models rank the first ``lead`` shared tokens highest, then the tokens only
    they have, then the other shared tokens.  So the two top-k lists share a
    known number of tokens at every k, and the size of the intersection does
    not depend on the seed.  Model ``a`` also holds a capitalised variant of
    each cluster's first token, ranked last, which exercises case folding.
    """
    name_rng = random.Random(f"{seed}:background")
    n_forms = len(SEED_FORMS)
    planted = sum(len(ts) + len(clusters.unique[0][f]) for f, ts in clusters.tokens.items())
    n_background = max(vocab - n_forms - planted, 1000)
    background = pseudo_words(name_rng, n_background, 4, closed=False)
    for m in range(2):
        rng = np.random.default_rng([seed, m])
        dirs = rng.standard_normal((n_forms, DIM))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        tokens = list(SEED_FORMS)
        rows = [dirs * rng.uniform(1.0, 3.0, (n_forms, 1))]
        for i, form in enumerate(SEED_FORMS):
            shared = clusters.tokens[form]
            members = shared[:lead] + clusters.unique[m][form] + shared[lead:]
            if m == 0:
                members.append(shared[0].capitalize())
            step = 0.45 / (len(members) - 1)
            cos = np.linspace(0.9, 0.45, len(members)) + rng.uniform(-0.4 * step, 0.4 * step, len(members))
            noise = rng.standard_normal((len(members), DIM))
            noise -= np.outer(noise @ dirs[i], dirs[i])
            noise /= np.linalg.norm(noise, axis=1, keepdims=True)
            vec = cos[:, None] * dirs[i] + np.sqrt(1.0 - cos**2)[:, None] * noise
            rows.append(vec * rng.uniform(1.0, 3.0, (len(members), 1)))
            tokens.extend(members)
        rows.append(rng.standard_normal((n_background, DIM)))
        order = rng.permutation(len(tokens) + n_background)
        all_tokens = tokens + background
        matrix = np.vstack(rows)[order]
        write_w2v_binary(out / f"model_{'ab'[m]}.bin", [all_tokens[i] for i in order], matrix)


def write_seeds(path: Path) -> None:
    lines = ["# benchmark seed lexicon: surface<TAB>tag<TAB>model forms"]
    for surface, forms in SEEDS:
        lines.append(f"{surface}\tscientific\t{','.join(forms)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# The generator's own view of a corpus: (doc id, sentences as folded token lists).
Docs = list[tuple[str, list[list[str]]]]


def make_corpus(rng: random.Random, n_sentences: int, fillers: list[str], cues: list[list[str]],
                cue_rate: float, first_doc: int = 0) -> Docs:
    """Documents of 4-16 sentences; each sentence is 6-17 fillers plus, with
    probability ``cue_rate`` per slot, up to three cue token runs from ``cues``."""
    docs = []
    made = 0
    doc = first_doc
    weights = [1.0 / (r + 1) for r in range(len(fillers))]  # Zipf-like filler mix
    while made < n_sentences:
        sentences = []
        for _ in range(min(rng.randint(4, 16), n_sentences - made)):
            words = rng.choices(fillers, weights, k=rng.randint(6, 17))
            for _ in range(3):
                if rng.random() < cue_rate:
                    pos = rng.randrange(len(words) + 1)
                    words[pos:pos] = rng.choice(cues)
            sentences.append(words)
        docs.append((f"d{doc:06d}", sentences))
        made += len(sentences)
        doc += 1
    return docs


def write_jsonl(path: Path, docs: Docs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc_id, sentences in docs:
            text = " ".join(" ".join(s).capitalize() + "." for s in sentences)
            fh.write(json.dumps({"id": doc_id, "text": text}) + "\n")


def filler_words(rng: random.Random, n: int) -> list[str]:
    return list(FUNCTION_WORDS) + pseudo_words(rng, n, 2, closed=True)


def write_annotations(path: Path, rng: random.Random, words: list[str]) -> None:
    """393 words laid out as the two-judge table, in a seeded order."""
    labels = [(j1, j2) for (j1, j2), n in zip(
        (("pos", "pos"), ("pos", "neg"), ("neg", "pos"), ("neg", "neg")), AGREEMENT_TABLE)
        for _ in range(n)]
    chosen = rng.sample(words, len(labels))
    rng.shuffle(labels)
    rows = [(w, j1, j2) for w, (j1, j2) in zip(chosen, labels)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["word", "judge1", "judge2"])
        writer.writerows(rows)


def write_pairs(path: Path, rng: random.Random, clusters: Clusters, model: str, own: int, shared: int) -> int:
    """Pairs file as the program writes it: per seed, ``own`` tokens of its
    clusters plus ``shared`` tokens of other seeds' clusters, so the graph
    links seeds through common candidates."""
    everyone = clusters.all_tokens()
    rows = []
    for surface, forms in SEEDS:
        members = sorted({t for f in forms for t in clusters.tokens[f]})
        picked = rng.sample(members, min(own, len(members)))
        picked += [t for t in rng.sample(everyone, shared) if t not in picked]
        rows += [(surface, t, round(rng.uniform(0.3, 0.95), 6)) for t in picked]
    rows.sort(key=lambda r: (r[0], -r[2], r[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("seed\tcandidate\tsimilarity\tmodel\n")
        for s, c, sim in rows:
            fh.write(f"{s}\t{c}\t{sim:.6f}\t{model}\n")
    return len(rows)


def write_score_matrix(path: Path, rng: np.random.Generator, rows: int, cols: int) -> None:
    """Non-negative low-rank-plus-noise scores, so PCA has structure to find."""
    factors = rng.gamma(2.0, 1.0, (rows, 3)) @ rng.uniform(0.0, 1.0, (3, cols))
    values = factors + rng.exponential(0.2, (rows, cols))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("word\t" + "\t".join(f"c{j:02d}" for j in range(cols)) + "\n")
        for i, row in enumerate(values):
            fh.write(f"w{i:05d}\t" + "\t".join(f"{v:.9g}" for v in row) + "\n")
