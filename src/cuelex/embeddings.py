"""Word-embedding models: word2vec files and exact cosine similarity queries.

Models are immutable after loading and safe to share across threads.  A row's
norm is the float64 norm of its float32 vector exactly as stored.
Similarities are float64 dot products of float64 unit rows rebuilt on demand
(``unit_rows``), so cosine(a, b) == cosine(b, a) bit-for-bit and rankings are
reproducible.  Nearest-neighbor search is exact: a float32 GEMM over blocks of
vocabulary rows screens every row, a proven rounding bound widens the cut, and
only the rows that can still rank in the top k are rescored in float64
(``top_k_batch``).

That kernel, the lookups, the key index and the row methods (``vector``,
``cosine``, ``unit_rows``) are written once, in ``_BlockSource``, over four
primitives of a source of rows: its length, the tokens (``tokens_of``) and
stored float32 vectors (``_vectors``) of given rows, and all its rows in blocks
(``_blocks``); lookups find rows by ``rows_of`` and tell a usable row by its
unit row.  An ``EmbeddingModel`` (``load_model``) holds the whole matrix.  A
``StreamedModel`` (``stream_model``) reads a binary file again for each
screen, a block of rows at a time, and other rows and tokens by offset; it
keeps two file offsets per row, the key index, and no token.  Commands open a
model only by ``open_model``, which streams a binary file and loads a text
one.  Either answers any token.

Both find tokens through one key index (``_index_keys``): the ``hash`` of each
row's lowercase token (its key), sorted, and the rows in that order, 12 B a
row.  ``_key_rows`` finds a key's run of hashes and keeps the rows whose token,
lowered, is the key, so a hash collision changes no answer; an exact lookup
picks among those rows by their tokens.  Retrieval tells keys apart by the
lowercase tokens.

Both readers drop a repeated token's later rows through sorted 64-bit hashes
of the tokens (``_duplicate_rows``), with one warning.
"""

from __future__ import annotations

import mmap
import os
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tables
from .errors import InputError

# Vectors shorter than this are unusable for cosine similarity.
MIN_USABLE_NORM = 1e-12
# Rows per block of the screen of a loaded matrix.
BLOCK_ROWS = 2048
# Rows per block of the passes that copy rows: the norm computation, whose
# float64 copy of a block is the largest transient of a model load (256 x 300 x
# 8 B = 0.6 MiB at dim 300), dropping duplicate rows, and the screen of a
# streamed model, whose block read from the file is all of the matrix it holds.
NORM_BLOCK_ROWS = 256
# The binary reader releases the file pages it has read every this many bytes,
# so a scan never holds more than this of the file.
RELEASE_BYTES = 1 << 20
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


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Float64 norms of float32 rows, each the same bit for bit whatever rows come with it.

    Float64 copies of the rows give the same norms, without a copy of their own.
    """
    norms = np.empty(len(vectors))
    for lo in range(0, len(vectors), NORM_BLOCK_ROWS):
        v64 = vectors[lo : lo + NORM_BLOCK_ROWS].astype(np.float64, copy=False)
        norms[lo : lo + NORM_BLOCK_ROWS] = np.sqrt(np.einsum("ij,ij->i", v64, v64))
    return norms


def _check_finite(norms: np.ndarray, token) -> None:
    """Refuse the first row with a non-finite value; ``token(i)`` names row i.

    Squares of float32 values cannot overflow float64, so a row holds a
    non-finite value exactly when its norm is not finite.
    """
    if not np.isfinite(norms).all():
        bad = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise InputError(f"non-finite value in vector for token {token(bad)!r}")


def _payloads(data, offsets: np.ndarray, dim: int) -> np.ndarray:
    """Copies of the float32 rows whose payloads start at byte ``offsets`` of ``data``.

    One gather over a view of ``data`` with a window of ``4 * dim`` bytes at
    every byte, so each row is one copy, whatever its alignment.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    windows = as_strided(raw, (len(raw) - 4 * dim + 1, 4 * dim), (1, 1), writeable=False)
    return windows[offsets].view("<f4")


def _read_once(read):
    """``read`` (rows -> their values) that reads each row once and keeps what it read."""
    kept: dict[int, object] = {}

    def values(rows) -> list:
        missing = [i for i in rows if i not in kept]
        if missing:
            kept.update(zip(missing, read(missing)))
        return [kept[i] for i in rows]

    return values


def _first_of_keys(rows: list[int], k: int, tokens) -> list[int]:
    """Positions of the first row of each key in ``rows``, up to k keys.

    A key is a row's lowercase token, read by ``tokens`` (rows -> tokens), or
    the row itself when ``tokens`` is false.  The keys are looked up k rows at
    a time, then twice as many rows as keys are still missing, so that a
    source that reads each token from its file reads few past the k-th key.
    """
    seen, firsts, start = set(), [], 0
    while start < len(rows) and len(firsts) < k:
        part = rows[start : start + 2 * (k - len(firsts)) if firsts else start + k]
        for pos, key in enumerate([t.lower() for t in tokens(part)] if tokens else part, start):
            if key not in seen:
                seen.add(key)
                firsts.append(pos)
                if len(firsts) == k:
                    break
        start += len(part)
    return firsts


@dataclass(frozen=True)
class NeighborResult:
    """One ranked neighbor of a query token."""

    query: str
    neighbor: str
    similarity: float


class _BlockSource:
    """Token lookup, the row methods and the exact top-k kernel over a source of rows.

    A source has a ``name`` and a ``dim``, builds its key index once with
    ``_index_keys``, and supplies four primitives:

    - ``__len__()``: the number of rows;
    - ``tokens_of(rows)``: the tokens of ``rows``, in order;
    - ``_vectors(rows)``: the float32 vectors of ``rows`` (indices or a slice), as stored;
    - ``_blocks()``: (first row, float32 vectors, float64 norms) per block of
      rows, in row order; the norms are ``_norms`` of the vectors.  A source
      may check each row as it reads it: ``check_rows`` reads every block
      once, and so does a ``top_k_batch`` that screens no query.
    """

    def __contains__(self, token: str) -> bool:
        return self.rows_of([token], False)[0] is not None

    def usable(self, token: str, fold_case: bool = False) -> bool:
        """Whether ``lookup(token, fold_case)`` finds a row with a usable vector."""
        (row,) = self.rows_of([token], fold_case)
        return row is not None and bool(self.unit_rows([row]).any())

    def lookup(self, token: str, fold_case: bool = True) -> int:
        """Index of ``token``; exact match first, then case variants in file order."""
        (row,) = self.rows_of([token], fold_case)
        if row is None:
            raise InputError(f"token {token!r} not in vocabulary of model {self.name!r}")
        return row

    def rows_of(self, tokens, fold_case: bool = True) -> list[int | None]:
        """Each token's row as ``lookup`` finds it, or None; each row's token is read once."""
        return self._resolve(tokens, fold_case)[0]

    def _resolve(self, tokens, fold_case: bool) -> tuple[list[int | None], list[list[int]]]:
        """``rows_of(tokens, fold_case)``, and the rows of each token's lowercase key."""
        read = _read_once(self.tokens_of)
        read(sorted({i for token in tokens for i in self._hash_run(token.lower())}))  # one read
        key_rows = [self._key_rows(token.lower(), read) for token in tokens]
        rows = [next((i for i, t in zip(rows, read(rows)) if t == token),  # the exact token's row
                     rows[0] if fold_case and rows else None)
                for token, rows in zip(tokens, key_rows)]
        return rows, key_rows

    def _index_keys(self, keys: np.ndarray) -> None:
        """Keep the key index of ``keys``, the int64 ``hash`` of each row's lowercase token.

        ``keys`` is sorted in place; the rows in that order are kept as int32,
        by a stable sort, so the rows of one hash stay in file order.
        """
        self._index_rows = np.argsort(keys, kind="stable").astype(np.int32)
        keys.sort()
        self._index_hashes = keys

    def _hash_run(self, key: str) -> list[int]:
        """The rows whose key has the hash of ``key``, in file order."""
        return self._index_rows[np.searchsorted(self._index_hashes, hash(key)) :
                                np.searchsorted(self._index_hashes, hash(key), "right")].tolist()

    def _key_rows(self, key: str, tokens) -> list[int]:
        """The rows whose lowercase token is ``key``, in file order: the rows of its hash run
        whose token, read by ``tokens`` (rows -> tokens), lowered, is ``key``, so a row of
        another key with the same hash changes no answer."""
        run = self._hash_run(key)
        return [i for i, token in zip(run, tokens(run)) if token.lower() == key]

    def _usable_units(self, tokens, rows) -> np.ndarray:
        """``unit_rows(rows)``, refusing the first of ``tokens`` whose row is None (absent),
        then the first whose row is unusable."""
        for token, row in zip(tokens, rows):
            if row is None:
                raise InputError(f"token {token!r} not in vocabulary of model {self.name!r}")
        units = self.unit_rows(rows)
        for token, unit in zip(tokens, units):
            if not unit.any():
                raise InputError(f"token {token!r} has near-zero norm and is unusable")
        return units

    def vector(self, token: str, fold_case: bool = True) -> np.ndarray:
        """Stored float32 vector for ``token`` (a copy)."""
        return self._vectors([self.lookup(token, fold_case)])[0].copy()

    def vectors_of(self, rows) -> np.ndarray:
        """Stored float32 vectors of ``rows``, in order (a copy)."""
        return np.array(self._vectors(rows))

    def check_rows(self) -> None:
        """Read every row once, so that a source that checks the rows it reads checks them all."""
        for _ in self._blocks():
            pass

    def unit_rows(self, rows) -> np.ndarray:
        """Float64 unit vectors of ``rows`` (indices or a slice): zero exactly on unusable rows."""
        units = self._vectors(rows).astype(np.float64)
        norms = _norms(units)  # as of the float32 rows, and with no copy of its own
        unusable = norms < MIN_USABLE_NORM
        units /= np.where(unusable, 1.0, norms)[:, None]
        units[unusable] = 0.0
        return units

    def cosine(self, w1: str, w2: str, fold_case: bool = True) -> float:
        """Exact cosine of the two stored vectors."""
        a, b = self._usable_units([w1, w2], self.rows_of([w1, w2], fold_case))
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
        ranked.  Otherwise m doubles, up to the number of usable rows, which
        the first screen counts.  When no query is screened (none, or k = 0),
        every row is read once all the same (``check_rows``).  The queries'
        tokens are read at once, and each candidate's token once per query; none
        is kept after it.
        """
        if k < 0:
            raise InputError("k must be non-negative")
        rows, key_rows = self._resolve(queries, fold_case)
        return self._top_k(queries, key_rows if fold_case else [[i] for i in rows],
                           self._usable_units(queries, rows), k, fold_case)

    def top_k_usable(
        self, queries: list[str], k: int, fold_case: bool = True
    ) -> list[list[NeighborResult] | None]:
        """``top_k_batch`` of each query that ``usable`` accepts, and None for the others.

        Each query's tokens and vector are read once.
        """
        if k < 0:
            raise InputError("k must be non-negative")
        rows, key_rows = self._resolve(queries, fold_case)
        found = [j for j, i in enumerate(rows) if i is not None]
        units = self.unit_rows([rows[j] for j in found])
        usable = units.any(axis=1)
        kept = [j for j, ok in zip(found, usable.tolist()) if ok]
        ranked = dict(zip(kept, self._top_k([queries[j] for j in kept],
                                            [key_rows[j] if fold_case else [rows[j]] for j in kept],
                                            units[usable], k, fold_case)))
        return [ranked.get(j) for j in range(len(queries))]

    def _top_k(self, queries, excluded, units, k: int, fold_case: bool) -> list[list[NeighborResult]]:
        """The ``top_k_batch`` kernel over the queries, the rows each excludes (its own row, and
        with ``fold_case`` every row of its key), and their float64 unit rows."""
        results: list[list[NeighborResult]] = [[] for _ in queries]
        slack2 = 2 * screen_slack(self.dim)
        m = min(max(4 * k, 64) if fold_case else k, len(self))
        pending = list(range(len(queries))) if k else []
        if not pending:
            self.check_rows()
        while pending:
            widen = []
            survivors, n_usable = self._screen(units[pending], [excluded[j] for j in pending],
                                               m, slack2)
            for j, (cand, score) in zip(pending, survivors):
                tokens = _read_once(self.tokens_of)
                firsts = _first_of_keys(cand[:m].tolist(), k, tokens if fold_case else None)
                if len(firsts) < k and m < n_usable - self.unit_rows(excluded[j]).any(axis=1).sum():
                    widen.append(j)
                    continue
                cut = score[firsts[-1]] - slack2 if len(firsts) == k else -np.inf
                rerank = cand[score >= cut].tolist()
                sims = [-float(np.dot(u, units[j])) for u in self.unit_rows(rerank)]
                ranked = sorted(zip(sims, tokens(rerank), rerank))
                firsts = _first_of_keys([i for _, _, i in ranked], k, tokens if fold_case else None)
                results[j] = [NeighborResult(queries[j], ranked[p][1], -ranked[p][0])
                              for p in firsts]
            pending, m = widen, min(2 * m, n_usable)
        return results

    def _screen(self, units, excluded, m: int, slack2: float) -> tuple[list, int]:
        """Per query (a row of ``units``): rows holding its exact top ``m``, and their scores.

        One float32 GEMM per row block, each row scaled by fl32(2^64 / norm),
        scores it against every query, with -inf for the query's ``excluded``
        rows and for unusable rows.  A row survives when its score is within
        ``slack2`` (2 ``screen_slack``) of the query's m-th best score, so that
        its similarity can reach the m-th best one.  Rows come in descending
        score; scores are float64.
        Also returns the number of usable rows.
        """
        q32 = (units * 2.0**-64).astype(np.float32)
        ex_rows = np.array([i for ex in excluded for i in ex], dtype=np.int64)
        ex_cols = np.repeat(np.arange(len(units)), [len(ex) for ex in excluded])

        def cut(best):  # every real score is >= -1 - slack, so -2 keeps -inf out
            return np.maximum(best.astype(np.float64) - slack2, -2.0)

        # Rows are merged into the running top m a group at a time, so a large
        # m costs O(n) selection work per query, not O(n m / block).
        n, n_usable, group = len(self), 0, max(BLOCK_ROWS, m)
        best = np.full((len(units), m), -np.inf, dtype=np.float32)
        found, pieces, first = [], [], 0  # the scores of the blocks since row ``first``
        for lo, vectors, norms in self._blocks():
            usable = norms >= MIN_USABLE_NORM
            s = vectors @ q32.T
            s *= (2.0**64 / np.maximum(norms, MIN_USABLE_NORM)).astype(np.float32)[:, None]
            s[~usable] = -np.inf
            n_usable += int(np.count_nonzero(usable))
            pieces.append(s)
            hi = lo + len(vectors)
            if hi - first < group and hi < n:  # the rest runs once per group
                continue
            lo, s = first, pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            pieces, first = [], hi
            s = np.ascontiguousarray(s.T)  # one row per query
            hit = (ex_rows >= lo) & (ex_rows < hi)
            s[ex_cols[hit], ex_rows[hit] - lo] = -np.inf
            best = np.partition(np.concatenate([best, s], axis=1), -m, axis=1)[:, -m:]
            q, r = np.divmod(np.flatnonzero(s >= cut(best[:, :1])), hi - lo)
            found.append((q, r + lo, s[q, r]))
        q, r, score = (np.concatenate(x) for x in zip(*found))
        keep = score >= cut(best[:, 0])[q]
        q, r, score = q[keep], r[keep], score[keep].astype(np.float64)
        order = np.lexsort((-score, q))  # by query, then descending score
        splits = np.searchsorted(q[order], np.arange(1, len(units)))
        return list(zip(np.split(r[order], splits), np.split(score[order], splits))), n_usable


class EmbeddingModel(_BlockSource):
    """Vocabulary plus vector matrix of every row of a word2vec file, held in memory.

    ``load_model`` builds one with the file's repeated tokens dropped.

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
        self.norms = _norms(self.vectors)
        _check_finite(self.norms, vocab.__getitem__)

        self.name = name
        self.vocab = vocab
        self.dim = int(vectors.shape[1])

        self._index_keys(np.fromiter(map(hash, map(str.lower, vocab)), np.int64, len(vocab)))
        # equal tokens have equal key hashes, so only the rows of a shared hash can repeat
        tie = self._index_hashes[1:] == self._index_hashes[:-1]
        shared = self._index_rows[np.concatenate([[False], tie]) | np.concatenate([tie, [False]])]
        first: dict[str, int] = {}
        for i in np.sort(shared).tolist():
            if first.setdefault(vocab[i], i) != i:
                raise InputError(f"duplicate tokens in vocabulary: {vocab[i]!r}")

    def __len__(self) -> int:
        return len(self.vocab)

    def tokens_of(self, rows) -> list[str]:
        return [self.vocab[i] for i in rows]

    def _vectors(self, rows) -> np.ndarray:
        return self.vectors[rows]

    def _blocks(self):
        for lo in range(0, len(self), BLOCK_ROWS):
            yield lo, self.vectors[lo : lo + BLOCK_ROWS], self.norms[lo : lo + BLOCK_ROWS]


class StreamedModel(_BlockSource):
    """A binary word2vec file that answers the queries of a loaded model without loading it.

    The constructor scans the file, checks it as ``load_model`` does and drops
    repeated tokens with the same warning.  It keeps two int64 file offsets and
    a key hash per row, and a 64-bit token hash until the duplicates are found.
    After the scan the model keeps those offsets, the key index, the file's
    (size, mtime) and the open file: no token and no row of the matrix.  Each
    screen reads the file again, ``NORM_BLOCK_ROWS`` rows at a time, and checks
    every row it reads as ``load_model`` does; ``check_rows`` reads every row
    once for that check.  Other rows and tokens are read by offset, and a read
    of rows that meets a non-finite one refuses the file at its first
    non-finite row, as ``load_model`` would.

    It holds the file open, read-only, for its life and reads only at offsets
    (``_read``), never at the file position: threads and forks may share it.
    """

    def __init__(self, path: str | Path, name: str | None = None):
        path = tables.find_file(path, "model")
        st = path.stat()
        with _binary_file(path) as (mm, declared, dim, records):
            starts, ats, hashes, keys = (np.empty(declared, dtype=np.int64) for _ in range(4))
            n = 0
            for chunk, chunk_starts, chunk_ats in records:
                end = n + len(chunk)
                starts[n:end], ats[n:end] = chunk_starts, chunk_ats
                hashes[n:end] = np.fromiter(map(hash, chunk), np.int64, len(chunk))
                keys[n:end] = np.fromiter(map(hash, map(str.lower, chunk)), np.int64, len(chunk))
                n = end
            dropped = _duplicate_rows(
                hashes, lambda i, j: mm[starts[i] : ats[i]] == mm[starts[j] : ats[j]], path
            )
        del hashes
        if len(dropped):
            starts, ats, keys = (np.delete(a, dropped) for a in (starts, ats, keys))
        self._index_keys(keys)
        self.name, self.path, self.dim = name or path.stem, path, dim
        self._starts, self._ats, self._stamp = starts, ats, (st.st_size, st.st_mtime_ns)
        self._file = open(path, "rb", buffering=0)
        weakref.finalize(self, self._file.close)

    def __len__(self) -> int:
        return len(self._ats)

    def _read(self, spans):
        """The bytes at each (offset, length) of ``spans``, in order.

        A file whose (size, mtime) is not the scan's, checked once per call, or
        that ends before a span does, is refused.
        """
        fd = self._file.fileno()
        st = os.fstat(fd)
        if (st.st_size, st.st_mtime_ns) != self._stamp:
            raise InputError(f"model file changed while it was read: {self.path}")
        for at, size in spans:
            data = os.pread(fd, size, at)
            if len(data) != size:
                raise InputError(f"model file changed while it was read: {self.path}")
            yield data

    def tokens_of(self, rows) -> list[str]:
        """The tokens of ``rows``, in order, each read from the file."""
        starts, ats = self._starts[rows].tolist(), self._ats[rows].tolist()
        data = self._read((start, at - 1 - start) for start, at in zip(starts, ats))
        return [token.decode("utf-8") for token in data]

    def _vectors(self, rows) -> np.ndarray:
        data = b"".join(self._read((at, 4 * self.dim) for at in self._ats[rows].tolist()))
        vectors = np.frombuffer(data, dtype="<f4").reshape(-1, self.dim)
        if not np.isfinite(vectors).all():
            self.check_rows()  # refuses the file's first non-finite row
        return vectors

    def _blocks(self):
        payload, los = 4 * self.dim, range(0, len(self), NORM_BLOCK_ROWS)
        blocks = [self._ats[lo : lo + NORM_BLOCK_ROWS] for lo in los]  # views, not copies
        spans = ((int(ats[0]), int(ats[-1]) + payload - int(ats[0])) for ats in blocks)
        for lo, ats, data in zip(los, blocks, self._read(spans)):
            vectors = _payloads(data, ats - ats[0], self.dim)
            norms = _norms(vectors)
            _check_finite(norms, lambda i: self.tokens_of([lo + i])[0])
            yield lo, vectors, norms


def _duplicate_rows(hashes: np.ndarray, same, path) -> np.ndarray:
    """Rows whose token repeats an earlier row's, ascending; warns with their count.

    ``hashes`` holds a 64-bit hash of each row's token, so equal tokens have
    equal hashes: sorting them finds the rows that can repeat, and
    ``same(i, j)`` compares the tokens of two rows whose hashes collide.  No
    set of the vocabulary is built.
    """
    ordered = np.sort(hashes)
    if not (ordered[1:] == ordered[:-1]).any():
        return np.empty(0, dtype=np.int64)
    del ordered
    order = np.argsort(hashes, kind="stable")  # rows of equal hashes in row order
    tie = hashes[order[1:]] == hashes[order[:-1]]
    rows = np.sort(order[np.concatenate([[False], tie]) | np.concatenate([tie, [False]])])
    kept: dict[int, list[int]] = {}  # hash -> the first row of each distinct token
    dropped = []
    for row, h in zip(rows.tolist(), hashes[rows].tolist()):
        firsts = kept.setdefault(h, [])
        if any(same(first, row) for first in firsts):
            dropped.append(row)
        else:
            firsts.append(row)
    if dropped:
        warnings.warn(f"{path}: dropped {len(dropped)} duplicate token(s), kept first occurrences")
    return np.array(dropped, dtype=np.int64)


def load_model(path: str | Path, format: str = "binary", name: str | None = None) -> EmbeddingModel:
    """Load a whole word2vec model file into memory, in file order.

    ``format`` is "binary" (the classic packed format) or "text".  A binary
    file too large to hold is read by ``stream_model``, which keeps about 28
    bytes a row and answers the same queries.
    """
    path = tables.find_file(path, "model")
    if format not in ("binary", "text"):
        raise InputError(f"unknown model format {format!r}")
    vocab, matrix = (_read_binary if format == "binary" else _read_text)(path)

    # Duplicate tokens: keep the first occurrence, warn with a count.
    hashes = np.fromiter(map(hash, vocab), np.int64, len(vocab))
    dropped = _duplicate_rows(hashes, lambda i, j: vocab[i] == vocab[j], path)
    del hashes
    if len(dropped):
        kept = np.delete(np.arange(len(vocab)), dropped)
        vocab = [vocab[i] for i in kept.tolist()]
        # Move the kept rows up in place, a block at a time: they ascend, so no
        # block reads a row that an earlier block overwrote.
        for lo in range(0, len(kept), NORM_BLOCK_ROWS):
            block = kept[lo : lo + NORM_BLOCK_ROWS]
            matrix[lo : lo + len(block)] = matrix[block]
        matrix = matrix[: len(kept)]
    return EmbeddingModel(name or path.stem, vocab, matrix)


stream_model = StreamedModel  # the name open_model calls, and tests replace


def open_model(
    path: str | Path, format: str, name: str | None = None
) -> StreamedModel | EmbeddingModel:
    """A command's model, which answers any token: a binary file streamed, a text one loaded whole."""
    if format == "binary":
        return stream_model(path, name=name)
    return load_model(path, format, name=name)


@contextmanager
def _binary_file(path: Path):
    """A binary model file, mapped, with its header checked: (mmap, declared count, dim, records).

    ``records`` yields the records in file order, a stretch of about
    ``RELEASE_BYTES`` of the file at a time: (tokens, token offsets, payload
    offsets).  It releases the file pages of each stretch once the stretch has
    been used, and every fault of the file's layout is an ``InputError`` at its
    byte, raised before the stretch that holds it is yielded.
    """
    if path.stat().st_size == 0:
        raise InputError(f"empty model file: {path}")
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
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
        yield mm, vocab_size, dim, _records(mm, path, vocab_size, dim, nl + 1)


def _records(mm, path: Path, vocab_size: int, dim: int, pos: int):
    payload = 4 * dim
    size, released = len(mm), 0
    tokens, starts, ats = [], [], []
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
        tokens.append(token)
        starts.append(pos)
        ats.append(sp + 1)
        pos = sp + 1 + payload
        if pos > size:
            raise InputError(f"truncated vector payload for token {token!r}: {path}")
        if pos - released > RELEASE_BYTES:
            yield tokens, starts, ats
            tokens, starts, ats = [], [], []
            upto = pos - pos % mmap.PAGESIZE  # the page cache keeps them
            if _DROP_PAGES is not None:
                mm.madvise(_DROP_PAGES, released, upto - released)
            released = upto
    yield tokens, starts, ats
    while pos < size and mm[pos] == 0x0A:
        pos += 1
    if pos < size:
        raise InputError(f"data after the last declared record at byte {pos}: {path}")


def _read_binary(path: Path) -> tuple[list[str], np.ndarray]:
    with _binary_file(path) as (mm, vocab_size, dim, records):
        vocab: list[str] = []
        matrix = np.empty((vocab_size, dim), dtype="<f4")
        for tokens, _, ats in records:
            matrix[len(vocab) : len(vocab) + len(tokens)] = _payloads(mm, np.array(ats, np.int64), dim)
            vocab += tokens
        return vocab, matrix


def _read_text(path: Path) -> tuple[list[str], np.ndarray]:
    """The tokens and float32 rows of a text model.

    The rows fill a matrix of the declared count, or of at most as many
    records as the file's size can hold; without a header, or past the count,
    its capacity doubles.  It ends shrunk to the rows read.
    """
    vocab: list[str] = []
    declared: int | None = None
    # a value beyond float32's range casts to inf, which _text_row reports
    with tables.open_text(path, "text model") as fh, np.errstate(over="ignore"):
        first = fh.readline()
        if not first:
            raise InputError(f"empty model file: {path}")
        parts = first.rstrip("\n").split(" ")
        header = len(parts) == 2 and all(p.removeprefix("-").isdecimal() for p in parts)
        if header:
            declared, dim = int(parts[0]), int(parts[1])
            if declared < 1 or dim < 1:
                raise InputError(f"malformed header {first!r}: {path}")
        else:
            dim = len(parts) - 1
        # a record is a token and dim values, each after a space: 2 dim + 1 bytes at least
        most = os.fstat(fh.fileno()).st_size // (2 * dim + 1)
        matrix = np.empty((min(declared or 1024, most), dim), dtype=np.float32)

        def add(parts: list[str]) -> None:
            row = _text_row(parts, path)
            if len(vocab) == len(matrix):  # no header, or more records than it declares
                matrix.resize((2 * len(matrix) + 1, dim), refcheck=False)  # no view of it exists
            matrix[len(vocab)] = row
            vocab.append(parts[0])

        if not header:
            add(parts)
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            if parts == [""]:
                continue
            if len(parts) != dim + 1:
                raise InputError(f"truncated vector payload for token {parts[0]!r}: {path}")
            add(parts)
    if declared is not None and len(vocab) != declared:
        raise InputError(f"header declares {declared} records, the file holds {len(vocab)}: {path}")
    matrix.resize((len(vocab), dim), refcheck=False)
    return vocab, matrix


def _text_row(parts: list[str], path: Path) -> np.ndarray:
    """The float32 values of a record's ``parts``."""
    if len(parts) < 2:
        raise InputError(f"malformed line (token without values): {path}")
    token = parts[0]
    if not token:
        raise InputError(f"empty token in text model: {path}")
    try:
        row = np.array(parts[1:], dtype=np.float64).astype(np.float32)
    except ValueError:
        raise InputError(f"malformed vector value for token {token!r}: {path}") from None
    if not np.isfinite(row).all():
        raise InputError(f"non-finite value in vector for token {token!r}: {path}")
    return row
