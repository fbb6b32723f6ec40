"""Independent output checks.

Nothing here imports ``cuelex``.  Expected values are recomputed from the
generator's own structured inputs (token lists, model files read with a
separate reader) by plain Python and numpy, then compared with the files the
program wrote.  Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np

# --- reading the program's artifacts ---------------------------------------


def tsv_rows(path: Path) -> list[list[str]]:
    """Data rows of a TSV artifact: '#' header lines and the column row dropped."""
    lines = [ln.rstrip("\n") for ln in open(path, encoding="utf-8") if ln.strip() and not ln.startswith("#")]
    return [ln.split("\t") for ln in lines[1:]]


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- retrieval ----------------------------------------------------------------


def read_w2v(path: Path) -> tuple[list[str], np.ndarray]:
    """word2vec binary reader written from the byte layout alone."""
    data = path.read_bytes()
    nl = data.index(b"\n")
    n, dim = (int(x) for x in data[:nl].split())
    tokens, rows = [], []
    pos = nl + 1
    for _ in range(n):
        sp = data.index(b" ", pos)
        tokens.append(data[pos:sp].decode("utf-8"))
        rows.append(data[sp + 1 : sp + 1 + 4 * dim])
        pos = sp + 1 + 4 * dim + 1  # the generator ends every record with LF
    matrix = np.frombuffer(b"".join(rows), dtype="<f4").reshape(n, dim).astype(np.float64)
    return tokens, matrix


def brute_force_pairs(tokens, matrix, seeds, k: int, model: str) -> list[tuple[str, str, float, str]]:
    """Folded top-k of every seed form by exhaustive float64 cosine.

    Ranked by (similarity desc, token asc); the query's case variants are
    excluded; each lowercase key keeps its best variant; seed words are
    dropped afterwards.  Rows come back in the program's pair order.
    """
    units = matrix / np.sqrt((matrix * matrix).sum(axis=1))[:, None]
    index = {t: i for i, t in enumerate(tokens)}
    folded: dict[str, list[int]] = {}
    for i, t in enumerate(tokens):
        folded.setdefault(t.lower(), []).append(i)
    seed_words = {s.lower() for s, _ in seeds} | {f.lower() for _, forms in seeds for f in forms}
    pairs = []
    for surface, forms in seeds:
        for form in forms:
            qi = index.get(form, (folded.get(form.lower()) or [None])[0])
            if qi is None:
                continue
            sims = units @ units[qi]
            sims[folded[tokens[qi].lower()]] = -np.inf
            m = max(4 * k, 64)
            top = np.argpartition(-sims, m)[:m]
            ranked = sorted(top.tolist(), key=lambda i: (-sims[i], tokens[i]))
            seen: list[str] = []
            for i in ranked:
                key = tokens[i].lower()
                if key in seen:
                    continue
                seen.append(key)
                if key not in seed_words:
                    pairs.append((surface, key, float(sims[i]), model))
                if len(seen) == k:
                    break
    pairs.sort(key=lambda p: (p[0], -p[2], p[1]))
    return pairs


def check_pairs_file(path: Path, expected) -> list[str]:
    rows = tsv_rows(path)
    if len(rows) != len(expected):
        return [f"{path.name}: {len(rows)} pairs, expected {len(expected)}"]
    for n, (row, exp) in enumerate(zip(rows, expected), 2):
        if (row[0], row[1], row[3]) != (exp[0], exp[1], exp[3]) or abs(float(row[2]) - exp[2]) > 5e-7 + 1e-12:
            return [f"{path.name}:{n}: {row} != brute force {exp[:2]} {exp[2]:.12f}"]
    return []


def expected_candidates(pairs_by_model: dict[str, list]) -> dict[str, dict[str, tuple[float, list[str]]]]:
    """word -> model -> (best similarity, sorted contributing seeds), over the intersection."""
    words = set.intersection(*({p[1] for p in pairs} for pairs in pairs_by_model.values()))
    out: dict[str, dict] = {w: {} for w in words}
    for model, pairs in pairs_by_model.items():
        for seed, word, sim, _ in pairs:
            if word in out:
                best, seeds = out[word].get(model, (-math.inf, set()))
                out[word][model] = (max(best, sim), seeds | {seed})
    return {w: {m: (s, sorted(seeds)) for m, (s, seeds) in models.items()} for w, models in out.items()}


def check_candidates(path: Path, expected) -> list[str]:
    got = load_json(path)["candidates"]
    words = [c["word"] for c in got]
    if words != sorted(expected):
        return [f"candidates.json: {len(words)} words, expected the {len(expected)} both models retrieve"]
    for c in got:
        for model, (sim, seeds) in expected[c["word"]].items():
            have = c["models"].get(model)
            if have is None or have["seeds"] != seeds or abs(have["similarity"] - sim) > 1e-12:
                return [f"candidates.json: {c['word']}/{model} = {have}, brute force {sim!r} {seeds}"]
    return []


# --- corpus recounts ----------------------------------------------------------


class Recount:
    """Plain-Python pattern counts over the generator's folded token lists.

    Patterns are literals, ``stem*`` prefix wildcards or space-separated
    phrases (overlapping occurrences count).  Sentence-level counts come from
    a token -> {sentence: count} map; document-level matching runs over the
    document's concatenated tokens, so a phrase may span a sentence boundary.
    """

    def __init__(self, docs):
        self.docs = docs  # [(doc_id, [[token, ...], ...]), ...]
        self.sentences = [s for _, sents in docs for s in sents]
        self.doc_of = [d for d, (_, sents) in enumerate(docs) for _ in sents]
        self.doc_tokens = [[t for s in sents for t in s] for _, sents in docs]
        self.n_tokens = sum(len(s) for s in self.sentences)
        self.postings: dict[str, Counter] = {}
        for i, sent in enumerate(self.sentences):
            for t in sent:
                self.postings.setdefault(t, Counter())[i] += 1

    @staticmethod
    def count(pattern: str, tokens) -> int:
        pattern = pattern.lower()
        if pattern.endswith("*"):
            return sum(t.startswith(pattern[:-1]) for t in tokens)
        words = pattern.split()
        return sum(tokens[i : i + len(words)] == words for i in range(len(tokens) - len(words) + 1))

    def sentence_counts(self, pattern: str) -> Counter:
        pattern = pattern.lower()
        if pattern.endswith("*"):
            out = Counter()
            for t, post in self.postings.items():
                if t.startswith(pattern[:-1]):
                    out.update(post)
            return out
        if " " in pattern:
            first = pattern.split()[0]
            counts = ((i, self.count(pattern, self.sentences[i])) for i in self.postings.get(first, ()))
            return Counter({i: c for i, c in counts if c})
        return self.postings.get(pattern, Counter())

    def sentence_hits(self, pattern: str) -> set[int]:
        return set(self.sentence_counts(pattern))

    def doc_hits(self, pattern: str) -> set[int]:
        if " " in pattern:
            return {d for d, toks in enumerate(self.doc_tokens) if self.count(pattern, toks)}
        return {self.doc_of[i] for i in self.sentence_counts(pattern)}

    def tfidf(self, word: str) -> float | None:
        counts = self.sentence_counts(word)
        df = len({self.doc_of[i] for i in counts})
        if df == 0:
            return None
        return (sum(counts.values()) / self.n_tokens) * math.log(len(self.docs) / df)

    def pmi(self, x: str, y: str) -> float | None:
        sx, sy = self.sentence_hits(x), self.sentence_hits(y)
        if not sx or not sy:
            return None
        both = len(sx & sy)
        if both == 0:
            return -math.inf
        return math.log((both / len(sx)) / (len(sy) / len(self.sentences)))


def check_scores(path: Path, recount: Recount, seed_surfaces: list[str]) -> list[str]:
    problems = []
    for c in load_json(path)["candidates"]:
        word = c["word"]
        tf = recount.tfidf(word)
        if tf is None:
            if not c["no_evidence"] or c["tfidf"] is not None or c["pmi"] is not None:
                problems.append(f"{word}: absent from the corpus but scored {c['tfidf']}/{c['pmi']}")
            continue
        if c["no_evidence"] or c["tfidf"] is None or not close(c["tfidf"], tf):
            problems.append(f"{word}: tfidf {c['tfidf']!r}, recount {tf!r}")
        seeds = sorted({s for m in c["models"].values() for s in m["seeds"]}) or seed_surfaces
        values = [v for v in (recount.pmi(s, word) for s in seeds) if v is not None]
        best = max(values) if values else None
        got = c["pmi"]
        if best is None or best == -math.inf:
            ok = got == (None if best is None else "-inf")
        else:
            ok = isinstance(got, float) and close(got, best)
        if not ok:
            problems.append(f"{word}: pmi {got!r}, recount {best!r}")
    return problems[:5]


def check_split(out: Path, recount: Recount, indicators) -> list[str]:
    plus = set().union(*(recount.sentence_hits(p) for p in indicators))
    summary = load_json(out / "split_summary.json")
    n_minus = len(recount.sentences) - len(plus)
    rows = len(tsv_rows(out / "s_plus.tsv")), len(tsv_rows(out / "s_minus.tsv"))
    if (summary["n_plus"], summary["n_minus"]) != (len(plus), n_minus) or rows != (len(plus), n_minus):
        return [f"split: S+/S- {summary['n_plus']}/{summary['n_minus']} (rows {rows}), recount {len(plus)}/{n_minus}"]
    return []


def check_ratios(out: Path, recount: Recount, indicators, words) -> list[str]:
    plus = set().union(*(recount.sentence_hits(p) for p in indicators))
    minus = set(range(len(recount.sentences))) - plus
    expected = {}
    for w in words:
        hits = recount.sentence_hits(w)
        expected[w] = (len(hits & plus), len(hits & minus))
    rows = load_json(out / "ratios.json")["rows"]
    got = {r["word"]: (r["n_plus"], r["n_minus"]) for r in rows}
    if got != expected:
        bad = sorted(w for w in expected if got.get(w) != expected[w])[:3]
        return [f"ratios: {[(w, got.get(w), expected[w]) for w in bad]}"]
    ratio = {w: math.inf if m == 0 else (p / len(plus)) / (m / len(minus)) for w, (p, m) in expected.items()}
    if [r["word"] for r in rows] != sorted(words, key=lambda w: (-ratio[w], w)):
        return ["ratios: rows not sorted by (ratio desc, word)"]
    return []


def check_find(out: Path, recount: Recount, cues, limit: int) -> list[str]:
    hits_of = {c: recount.sentence_hits(c) for c in cues}
    remaining = dict.fromkeys(cues, limit)
    expected = []
    order = sorted(range(len(recount.sentences)), key=lambda i: recount.docs[recount.doc_of[i]][0])
    first = {}
    for i, d in enumerate(recount.doc_of):
        first.setdefault(d, i)
    for i in order:
        hits = [c for c in cues if i in hits_of[c]]
        if any(remaining[c] > 0 for c in hits):
            for c in hits:
                remaining[c] = max(0, remaining[c] - 1)
            d = recount.doc_of[i]
            expected.append([recount.docs[d][0], i - first[d], hits])
    got = [[r["doc_id"], r["index"], r["matched"]] for r in load_json(out / "sentences.json")["rows"]]
    if got != expected:
        return [f"find: {len(got)} rows, recount {len(expected)}"]
    return []


def check_relscore(out: Path, recount: Recount, words, baseline: str) -> list[str]:
    base = len(recount.doc_hits(baseline))
    scores = load_json(out / "relscore.json")["scores"]
    for w in words:
        exp = len(recount.doc_hits(w)) / base
        if w not in scores or not close(scores[w], exp):
            return [f"relscore: {w} = {scores.get(w)!r}, recount {exp!r}"]
    return []


def check_rates(out: Path, groups: dict[str, Recount], query) -> list[str]:
    got = {r["group"]: (r["matched"], r["total"]) for r in load_json(out / "rates.json")["rows"]}
    expected = {}
    for name, rc in groups.items():
        matched = set().union(*(rc.doc_hits(q) for q in query))
        expected[name] = (len(matched), len(rc.docs))
    if got != expected:
        return [f"rates: {got}, recount {expected}"]
    return []


# --- judgment -----------------------------------------------------------------


def check_agree(out: Path, table) -> list[str]:
    doc = load_json(out / "agreement.json")
    counts = tuple(doc["counts"][k] for k in ("pp", "pn", "np", "nn"))
    n = sum(table)
    p_o = (table[0] + table[3]) / n
    p1, p2 = (table[0] + table[1]) / n, (table[0] + table[2]) / n
    p_e = p1 * p2 + (1 - p1) * (1 - p2)
    kappa = (p_o - p_e) / (1 - p_e)
    # the published figures: kappa 0.4291, 71.50 % agreement
    if counts != tuple(table) or f"{doc['kappa']:.4f}" != "0.4291" or f"{100 * doc['percent_agreement']:.2f}" != "71.50":
        return [f"agree: counts {counts}, kappa {doc['kappa']!r}, agreement {doc['percent_agreement']!r}"]
    if not close(doc["kappa"], kappa):
        return [f"agree: kappa {doc['kappa']!r}, recount {kappa!r}"]
    return []


def check_dataset(out: Path, n_expected: int, n_positive: int) -> list[str]:
    doc = load_json(out / "dataset_summary.json")
    shape = np.load(out / "dataset_features.npy").shape
    if (doc["n_examples"], doc["n_positive"], doc["excluded_oov"]) != (n_expected, n_positive, []) \
            or shape != (n_expected, 600):
        return [f"dataset: {doc['n_examples']} examples ({doc['n_positive']} positive), features {shape}"]
    return []


def check_train(out: Path, n_examples: int, kinds) -> list[str]:
    reports = load_json(out / "eval.json")["reports"]
    if [r["classifier"].split("(")[0] for r in reports] != list(kinds):
        return [f"train: classifiers {[r['classifier'] for r in reports]}"]
    for r in reports:
        if sum(r["confusion"].values()) != n_examples:
            return [f"train: {r['classifier']} pooled {sum(r['confusion'].values())} of {n_examples} predictions"]
    return []


def check_graph(out: Path, pair_files, seed_surfaces) -> list[str]:
    nodes = {s.lower() for s in seed_surfaces}
    edges = set()
    for path in pair_files:
        for seed, cand, sim, _ in tsv_rows(path):
            nodes.add(cand)
            if 0.0 < float(sim) <= 1.0 and seed.lower() != cand:
                edges.add(frozenset((seed.lower(), cand)))
    got_nodes = {r[0] for r in tsv_rows(out / "nodes.tsv")}
    n_edges = len(tsv_rows(out / "edges.tsv"))
    if got_nodes != nodes or n_edges != len(edges):
        return [f"graph: {len(got_nodes)} nodes/{n_edges} edges, recount {len(nodes)}/{len(edges)}"]
    return []


def check_cluster(out: Path) -> list[str]:
    doc = load_json(out / "cluster_summary.json")
    communities = Counter(r[3] for r in tsv_rows(out / "nodes_clustered.tsv"))
    if not -0.5 <= doc["modularity"] <= 1.0 or len(communities) != doc["n_communities"]:
        return [f"cluster: modularity {doc['modularity']}, {doc['n_communities']} communities"]
    return []


def check_rank(out: Path) -> list[str]:
    total = sum(float(r[4]) for r in tsv_rows(out / "nodes_ranked.tsv"))
    return [] if abs(total - 1.0) < 1e-6 else [f"rank: PageRank sums to {total}"]


def check_export(out: Path, n_nodes: int) -> list[str]:
    ns = "{http://www.gexf.net/1.2draft}"
    found = len(ET.parse(out / "graph.gexf").getroot().findall(f"{ns}graph/{ns}nodes/{ns}node"))
    return [] if found == n_nodes else [f"export: {found} GEXF nodes, expected {n_nodes}"]


def check_pca(out: Path, n_cols: int) -> list[str]:
    doc = load_json(out / "pca_summary.json")
    ratios = doc["explained_variance_ratio"]
    if len(doc["columns"]) != n_cols or sum(ratios) > 1 + 1e-9 or ratios != sorted(ratios, reverse=True):
        return [f"pca: columns {len(doc['columns'])}, explained variance {ratios}"]
    return []


def check_mds(out: Path, n_cols: int) -> list[str]:
    doc = load_json(out / "mds_summary.json")
    trace = doc["stress_trace"]
    if len(tsv_rows(out / "mds_coordinates.tsv")) != n_cols or any(b > a for a, b in zip(trace, trace[1:])):
        return [f"mds: stress trace {trace[:3]}... not non-increasing"]
    return []
