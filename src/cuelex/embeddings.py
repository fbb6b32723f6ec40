"""Word-embedding models: word2vec file loading and exact cosine similarity queries.

Models are immutable after loading and safe to share across threads.  A model
holds its float32 vectors exactly as stored plus float64 norms.  Similarities
are float64 dot products of float64 unit rows rebuilt on demand
(``unit_rows``), so cosine(a, b) == cosine(b, a) bit-for-bit and rankings are
reproducible.  Nearest-neighbor search is exact: a float32 GEMM over blocks of
vocabulary rows screens every row, a proven rounding bound widens the cut, and
only the rows that can still rank in the top k are rescored in float64
(``top_k_batch``).  Large models can be loaded through ``vocab_filter``.

Tokens are found through a fold index: an int32 key id per row (case variants
share their lowercase form's id), the rows grouped by key in file order with
int64 offsets, and one dict from lowercase form to key id, whose keys are the
vocabulary's own strings where a token is already lowercase.  It is the only
dict: an exact lookup scans its key's rows, and retrieval compares key ids.
"""

from __future__ import annotations

import mmap
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tables
from .errors import InputError

# Vectors shorter than this are unusable for cosine similarity.
MIN_USABLE_NORM = 1e-12
# Vocabulary rows per block of the screen.
BLOCK_ROWS = 2048
# Rows per block of the passes that copy a block of a loaded matrix: the norm
# computation, whose float64 copy of a block is the largest transient of a model
# load (256 x 300 x 8 B = 0.6 MiB at dim 300), and dropping duplicate rows.
NORM_BLOCK_ROWS = 256
# The binary loader releases the file pages it has read every this many bytes,
# so a load never holds the whole file besides the matrix.
RELEASE_BYTES = 1 << 22
_DROP_PAGES = getattr(mmap, "MADV_DONTNEED", None)


def screen_slack(dim: int) -> float:
    """Bound on |float32 screen score - reported float64 similarity| at dimension ``dim``.

    The screen is fl32(fl32(v . q) * fl32(2^64 / |v|)) with q the query's unit
    row times 2^-64 in float32, a scale at which no float32 vector overflows.
    The dot product errs by at most gamma_d |v| |q| in any summation order,
    gamma_d = d u / (1 - d u), u = 2^-24; rounding q and the scale to float32
    adds ``eps`` each, the product u, and underflow d 2^-85 / MIN_USABLE_NORM.
    The reported value is within 4 (d + 3) 2^-53 of the exact cosine.
    """
    u, u64 = 2.0**-24, 2.0**-53
    gamma = dim * u / (1 - dim * u)
    eps = u + (dim + 4) * u64
    err = eps + gamma * (1 + eps) + dim * 2.0**-85 / MIN_USABLE_NORM
    return err + (1 + err) * (eps + u + eps * u) + 4 * (dim + 3) * u64


@dataclass(frozen=True)
class NeighborResult:
    """One ranked neighbor of a query token."""

    query: str
    neighbor: str
    similarity: float


class EmbeddingModel:
    """Vocabulary plus vector matrix loaded from a word2vec file.

    Attributes:
        name: model identifier (defaults to the file stem).
        dim: vector dimensionality.
        vocab: tokens in file order; the model takes ownership of the list it is
            given, which must not change afterwards.
        vectors: vocab_size x dim float32 matrix, exactly as stored on disk.
        norms: per-token Euclidean norms (float64).
    """

    def __init__(self, name: str, vocab: list[str], vectors: np.ndarray):
        if vectors.ndim != 2 or vectors.shape[0] != len(vocab):
            raise InputError("vector matrix shape does not match vocabulary")
        if len(vocab) < 1:
            raise InputError("empty vocabulary")
        if vectors.shape[1] < 1:
            raise InputError("vector dimension must be positive")
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        # Squares of float32 values cannot overflow float64, so a row holds a
        # non-finite value exactly when its norm is not finite.
        self.norms = np.empty(len(vocab))
        for lo in range(0, len(vocab), NORM_BLOCK_ROWS):
            v64 = self.vectors[lo : lo + NORM_BLOCK_ROWS].astype(np.float64)
            self.norms[lo : lo + NORM_BLOCK_ROWS] = np.sqrt(np.einsum("ij,ij->i", v64, v64))
        if not np.isfinite(self.norms).all():
            bad = int(np.flatnonzero(~np.isfinite(self.norms))[0])
            raise InputError(f"non-finite value in vector for token {vocab[bad]!r}")

        self.name = name
        self.vocab = vocab
        self.dim = int(vectors.shape[1])
        # header-declared token count of the source file, when one was parsed
        # (differs from len(vocab) under vocab_filter or duplicate dropping)
        self.declared_vocab_size: int | None = None

        self._usable = self.norms >= MIN_USABLE_NORM
        self._scale = np.zeros(len(vocab), dtype=np.float32)  # see screen_slack
        np.divide(2.0**64, self.norms, out=self._scale, where=self._usable, casting="same_kind")
        keys: dict[str, int] = {}  # a lowercase token is its own key string
        folded = (tok if (low := tok.lower()) == tok else low for tok in vocab)
        ids = (keys.setdefault(f, len(keys)) for f in folded)
        self._key, self._keys = np.fromiter(ids, np.int32, len(vocab)), keys
        self._rows = np.argsort(self._key, kind="stable").astype(np.int32)
        self._offsets = np.concatenate([[0], np.cumsum(np.bincount(self._key))])
        seen: set[str] = set()  # equal tokens share a key, so check keys with variants
        for i in np.flatnonzero((np.diff(self._offsets) > 1)[self._key]).tolist():
            if vocab[i] in seen:
                raise InputError(f"duplicate tokens in vocabulary: {vocab[i]!r}")
            seen.add(vocab[i])

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return self._row(token, False) is not None

    def usable(self, token: str, fold_case: bool = False) -> bool:
        """Whether ``lookup(token, fold_case)`` finds a row with a usable vector."""
        idx = self._row(token, fold_case)
        return idx is not None and bool(self._usable[idx])

    def lookup(self, token: str, fold_case: bool = True) -> int:
        """Index of ``token``; exact match first, then case variants in file order."""
        idx = self._row(token, fold_case)
        if idx is None:
            raise InputError(f"token {token!r} not in vocabulary of model {self.name!r}")
        return idx

    def _variants(self, kid: int) -> list[int]:
        """Rows of folded key id ``kid``, in file order."""
        return self._rows[self._offsets[kid] : self._offsets[kid + 1]].tolist()

    def _row(self, token: str, fold_case: bool) -> int | None:
        """Row of exactly ``token``, else (with ``fold_case``) of its first case variant."""
        kid = self._keys.get(token.lower())
        rows = [] if kid is None else self._variants(kid)
        exact = next((i for i in rows if self.vocab[i] == token), None)
        return rows[0] if exact is None and fold_case and rows else exact

    def vector(self, token: str, fold_case: bool = True) -> np.ndarray:
        """Stored float32 vector for ``token`` (a copy)."""
        return self.vectors[self.lookup(token, fold_case)].copy()

    def unit_rows(self, rows) -> np.ndarray:
        """Float64 unit vectors of ``rows`` (indices or a slice); unusable rows are zero."""
        unusable = ~self._usable[rows]
        units = self.vectors[rows].astype(np.float64)
        units /= np.where(unusable, 1.0, self.norms[rows])[:, None]
        units[unusable] = 0.0
        return units

    def cosine(self, w1: str, w2: str, fold_case: bool = True) -> float:
        """Exact cosine of the two stored vectors."""
        i = self.lookup(w1, fold_case)
        j = self.lookup(w2, fold_case)
        for tok, idx in ((w1, i), (w2, j)):
            if not self._usable[idx]:
                raise InputError(f"token {tok!r} has near-zero norm and is unusable")
        a, b = self.unit_rows([i, j])
        return float(np.dot(a, b))

    def top_k(self, query: str, k: int, fold_case: bool = True) -> list[NeighborResult]:
        """The ``k`` nearest tokens to ``query`` by cosine over the whole vocabulary.

        Sorted by similarity descending, ties broken by token ascending.  The
        query itself is excluded; with ``fold_case`` its case variants are
        excluded too and the result is deduplicated by lowercase key, keeping
        the maximum-similarity variant.
        """
        return self.top_k_batch([query], k, fold_case)[0]

    def top_k_batch(
        self, queries: list[str], k: int, fold_case: bool = True
    ) -> list[list[NeighborResult]]:
        """``[self.top_k(q, k, fold_case) for q in queries]``, screened together.

        The screen yields rows that hold each query's exact top m in
        descending screen score.  Once a prefix of its top m covers k keys
        (lowercase tokens with ``fold_case``, else rows), a row that scores
        over 2 ``screen_slack`` below the prefix's end ranks below all of the
        prefix, so only the rows above that cut are rescored in float64 and
        ranked.  Otherwise m doubles, up to the number of usable rows.
        """
        if k < 0:
            raise InputError("k must be non-negative")
        rows = [self.lookup(q, fold_case) for q in queries]
        for query, qi in zip(queries, rows):
            if not self._usable[qi]:
                raise InputError(f"token {query!r} has near-zero norm and is unusable")
        results: list[list[NeighborResult]] = [[] for _ in queries]
        slack2 = 2 * screen_slack(self.dim)
        n_usable = int(self._usable.sum())
        m = min(max(4 * k, 64) if fold_case else k, n_usable)
        pending = list(range(len(queries))) if k else []
        while pending:
            qrows = [rows[j] for j in pending]
            excluded = [self._variants(self._key[i]) if fold_case else [i] for i in qrows]
            units = self.unit_rows(qrows)
            widen = []
            survivors = self._screen(units, excluded, m, slack2)
            for j, uq, ex, (cand, score) in zip(pending, units, excluded, survivors):
                firsts = self._first_of_keys(cand[:m].tolist(), k, fold_case)
                if len(firsts) < k and m < n_usable - self._usable[ex].sum():
                    widen.append(j)
                    continue
                cut = score[firsts[-1]] - slack2 if len(firsts) == k else -np.inf
                rerank = cand[score >= cut].tolist()
                sims = [-float(np.dot(u, uq)) for u in self.unit_rows(rerank)]
                ranked = sorted(zip(sims, [self.vocab[i] for i in rerank], rerank))
                firsts = self._first_of_keys([i for _, _, i in ranked], k, fold_case)
                results[j] = [NeighborResult(queries[j], ranked[p][1], -ranked[p][0])
                              for p in firsts]
            pending, m = widen, min(2 * m, n_usable)
        return results

    def _first_of_keys(self, rows: list[int], k: int, fold_case: bool) -> list[int]:
        """Positions of the first row of each key in ``rows``, up to k keys."""
        keys = self._key[rows].tolist() if fold_case else rows
        seen, firsts = set(), []
        for pos, key in enumerate(keys):
            if key not in seen:
                seen.add(key)
                firsts.append(pos)
                if len(firsts) == k:
                    break
        return firsts

    def _screen(self, units, excluded, m: int, slack2: float) -> list:
        """Per query (a row of ``units``): rows holding its exact top ``m``, and their scores.

        One float32 GEMM per row block scores it against every query, with
        -inf for the query's ``excluded`` rows and for unusable rows.  A row
        survives when its score is within ``slack2`` (2 ``screen_slack``) of
        the query's m-th best score, so that its similarity can reach the
        m-th best one.  Rows come in descending score; scores are float64.
        """
        q32 = (units * 2.0**-64).astype(np.float32)
        ex_rows = np.array([i for ex in excluded for i in ex], dtype=np.int64)
        ex_cols = np.repeat(np.arange(len(units)), [len(ex) for ex in excluded])

        def cut(best):  # every real score is >= -1 - slack, so -2 keeps -inf out
            return np.maximum(best.astype(np.float64) - slack2, -2.0)

        n = len(self.vocab)
        best = np.full((len(units), m), -np.inf, dtype=np.float32)
        tiles, found = [], []
        for lo in range(0, n, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, n)
            s = self.vectors[lo:hi] @ q32.T
            s *= self._scale[lo:hi, None]
            s[~self._usable[lo:hi]] = -np.inf
            s = np.ascontiguousarray(s.T)  # one row per query
            hit = (ex_rows >= lo) & (ex_rows < hi)
            s[ex_cols[hit], ex_rows[hit] - lo] = -np.inf
            # Merge tiles into the running top m once they hold m columns, so
            # a large m costs O(n) selection work per query, not O(n m / block).
            tiles.append(s)
            if len(tiles) * BLOCK_ROWS >= m or hi == n:
                best = np.partition(np.concatenate([best, *tiles], axis=1), -m, axis=1)[:, -m:]
                tiles = []
            q, r = np.divmod(np.flatnonzero(s >= cut(best[:, :1])), hi - lo)
            found.append((q, r + lo, s[q, r]))
        q, r, score = (np.concatenate(x) for x in zip(*found))
        keep = score >= cut(best[:, 0])[q]
        q, r, score = q[keep], r[keep], score[keep].astype(np.float64)
        order = np.lexsort((-score, q))  # by query, then descending score
        splits = np.searchsorted(q[order], np.arange(1, len(units)))
        return list(zip(np.split(r[order], splits), np.split(score[order], splits)))


def load_model(
    path: str | Path,
    format: str = "binary",
    vocab_filter: set[str] | None = None,
    name: str | None = None,
) -> EmbeddingModel:
    """Load a word2vec model file.

    ``format`` is "binary" (the classic packed format) or "text".  With
    ``vocab_filter``, only tokens whose exact or lowercased form appears in
    the filter are kept; file order is preserved either way.
    """
    path = tables.find_file(path, "model")
    if format not in ("binary", "text"):
        raise InputError(f"unknown model format {format!r}")
    folded_filter = {t.lower() for t in vocab_filter} if vocab_filter is not None else None

    def keep(token: str) -> bool:
        if vocab_filter is None:
            return True
        return token in vocab_filter or token.lower() in folded_filter

    if format == "binary":
        vocab, matrix, declared = _read_binary(path, keep)
    else:
        vocab, matrix, declared = _read_text(path, keep)

    if not vocab:
        raise InputError(f"empty vocabulary after filtering: {path}")

    # Duplicate tokens: keep the first occurrence, warn with a count.  The set
    # is freed before the model builds its index, so the two never coexist.
    if len(set(vocab)) < len(vocab):
        first: dict[str, int] = {}
        for i, tok in enumerate(vocab):
            first.setdefault(tok, i)
        dupes = len(vocab) - len(first)
        warnings.warn(f"{path}: dropped {dupes} duplicate token(s), kept first occurrences")
        vocab = list(first)
        # Move the kept rows up in place, a block at a time: they ascend, so no
        # block reads a row that an earlier block overwrote.
        kept = np.fromiter(first.values(), dtype=np.int64, count=len(first))
        for lo in range(0, len(kept), NORM_BLOCK_ROWS):
            block = kept[lo : lo + NORM_BLOCK_ROWS]
            matrix[lo : lo + len(block)] = matrix[block]
        matrix = matrix[: len(kept)]
    model = EmbeddingModel(name or path.stem, vocab, matrix)
    model.declared_vocab_size = declared
    return model


def _read_binary(path: Path, keep) -> tuple[list[str], np.ndarray, int]:
    if path.stat().st_size == 0:
        raise InputError(f"empty model file: {path}")
    with open(path, "rb") as fh:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            nl = mm.find(b"\n")
            if nl < 0:
                raise InputError(f"malformed header (no newline): {path}")
            header = mm[:nl].split()
            if len(header) != 2:
                raise InputError(f"malformed header {mm[:nl]!r}: {path}")
            try:
                vocab_size, dim = int(header[0]), int(header[1])
            except ValueError:
                raise InputError(f"malformed header {mm[:nl]!r}: {path}") from None
            if vocab_size < 1 or dim < 1:
                raise InputError(f"malformed header (non-positive sizes): {path}")
            # the smallest record is a one-byte token, a space and the payload
            if vocab_size * (4 * dim + 2) > len(mm) - nl - 1:
                raise InputError(
                    f"header declares {vocab_size} records of dimension {dim}, "
                    f"more than the {len(mm) - nl - 1} bytes after it hold: {path}"
                )

            vocab: list[str] = []
            matrix = np.empty((vocab_size, dim), dtype="<f4")
            out = memoryview(matrix).cast("B")
            payload = 4 * dim
            pos, size, released = nl + 1, len(mm), 0
            for _ in range(vocab_size):
                while pos < size and mm[pos] == 0x0A:
                    pos += 1
                sp = mm.find(b" ", pos)
                if sp < 0:
                    raise InputError(f"truncated token record at byte {pos}: {path}")
                try:
                    token = mm[pos:sp].decode("utf-8")
                except UnicodeDecodeError:
                    raise InputError(f"invalid UTF-8 in token at byte {pos}: {path}") from None
                if not token:
                    raise InputError(f"empty token at byte {pos}: {path}")
                pos = sp + 1 + payload
                if pos > size:
                    raise InputError(f"truncated vector payload for token {token!r}: {path}")
                if keep(token):
                    out[len(vocab) * payload : (len(vocab) + 1) * payload] = mm[sp + 1 : pos]
                    vocab.append(token)
                if _DROP_PAGES is not None and pos - released > RELEASE_BYTES:
                    upto = pos - pos % mmap.PAGESIZE  # the page cache keeps them
                    mm.madvise(_DROP_PAGES, released, upto - released)
                    released = upto
            while pos < size and mm[pos] == 0x0A:
                pos += 1
            if pos < size:
                raise InputError(f"data after the last declared record at byte {pos}: {path}")
            return vocab, matrix[: len(vocab)], vocab_size
        finally:
            mm.close()


def _read_text(path: Path, keep) -> tuple[list[str], np.ndarray, int | None]:
    vocab: list[str] = []
    rows = array("f")  # every kept row, one after another
    dim: int | None = None
    declared: int | None = None
    records = 0
    # a value beyond float32's range casts to inf, which _append_text_row reports
    with tables.open_text(path, "text model") as fh, np.errstate(over="ignore"):
        first = fh.readline()
        if not first:
            raise InputError(f"empty model file: {path}")
        parts = first.rstrip("\n").split(" ")
        if len(parts) == 2 and all(p.removeprefix("-").isdecimal() for p in parts):
            declared, dim = int(parts[0]), int(parts[1])
            if declared < 1 or dim < 1:
                raise InputError(f"malformed header {first!r}: {path}")
        else:
            _append_text_row(parts, path, vocab, rows, keep)
            dim, records = len(parts) - 1, 1
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if parts == [""]:
                continue
            if len(parts) != dim + 1:
                raise InputError(f"truncated vector payload for token {parts[0]!r}: {path}")
            _append_text_row(parts, path, vocab, rows, keep)
            records += 1
    if declared is not None and records != declared:
        raise InputError(f"header declares {declared} records, the file holds {records}: {path}")
    return vocab, np.frombuffer(rows, dtype=np.float32).reshape(-1, dim), declared


def _append_text_row(parts: list[str], path: Path, vocab, rows, keep) -> None:
    if len(parts) < 2:
        raise InputError(f"malformed line (token without values): {path}")
    token = parts[0]
    if not token:
        raise InputError(f"empty token in text model: {path}")
    if not keep(token):
        return
    try:
        row = np.array(parts[1:], dtype=np.float64).astype(np.float32)
    except ValueError:
        raise InputError(f"malformed vector value for token {token!r}: {path}") from None
    if not np.isfinite(row).all():
        raise InputError(f"non-finite value in vector for token {token!r}: {path}")
    vocab.append(token)
    rows.frombytes(row.tobytes())
