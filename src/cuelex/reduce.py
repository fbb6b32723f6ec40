"""PCA over word-by-collection score matrices and metric MDS over collections.

Both routines are pure, single-threaded, and deterministic: PCA runs on an
SVD of the centered (optionally standardized) matrix, MDS runs SMACOF stress
majorization from a classical-scaling start.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tables
from .errors import CuelexError, InputError


@dataclass
class ScoreMatrix:
    """Non-negative word x collection score table."""

    row_labels: list[str]
    col_labels: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise InputError("score matrix must be two-dimensional")
        if self.values.shape != (len(self.row_labels), len(self.col_labels)):
            raise InputError("score matrix shape does not match its labels")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise InputError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise InputError("duplicate column labels")
        if not np.isfinite(self.values).all():
            raise InputError("score matrix contains non-finite values")
        if (self.values < 0).any():
            raise InputError("score matrix contains negative values")


def load_score_matrix(path: str | Path) -> ScoreMatrix:
    """TSV with a header row of collection names and a first column of words."""
    header, rows = tables.read_tsv(path, what="score matrix")
    if not rows:
        raise InputError(f"score matrix needs a header and at least one row: {path}")
    values = [
        [tables.number(float, x, "score", path, n) for x in fields[1:]] for n, fields in rows
    ]
    return ScoreMatrix([fields[0] for _, fields in rows], list(header[1:]), np.array(values))


def write_score_matrix(path: str | Path, matrix: ScoreMatrix, header_lines=()) -> None:
    rows = (
        (label, *(f"{v:.12g}" for v in row)) for label, row in zip(matrix.row_labels, matrix.values)
    )
    tables.write_tsv(path, ("word", *matrix.col_labels), rows, header_lines)


@dataclass
class PcaResult:
    """Principal components of the score matrix rows.

    ``loadings`` are the row projections scaled by 1/sqrt(n_rows - 1); with a
    standardized input their magnitudes are comparable across components.
    """

    components: np.ndarray  # n_components x n_cols, orthonormal rows
    loadings: np.ndarray  # n_rows x n_components
    explained_variance_ratio: np.ndarray
    singular_values: np.ndarray
    mean: np.ndarray
    scale: np.ndarray
    row_labels: list[str]
    col_labels: list[str]  # columns kept (zero-variance ones may be dropped)
    dropped_columns: list[str] = field(default_factory=list)

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)

    def reconstruct(self) -> np.ndarray:
        """Centered/standardized matrix rebuilt from loadings and components."""
        return (self.loadings * math.sqrt(self.n_rows - 1)) @ self.components

    def top_words(self, component: int, m: int = 10) -> list[tuple[str, float]]:
        """Words ranked by |loading| on one component, Table-style."""
        col = self.loadings[:, component]
        order = sorted(range(len(col)), key=lambda i: (-abs(col[i]), self.row_labels[i]))
        return [(self.row_labels[i], float(col[i])) for i in order[:m]]


def pca(matrix: ScoreMatrix, n_components: int = 7, standardize: bool = True) -> PcaResult:
    """SVD-based principal component analysis of the matrix rows.

    With ``standardize``, columns are scaled to unit variance (equivalently,
    the correlation matrix is decomposed) and zero-variance columns are
    dropped with a warning.  Each component's sign is chosen so its largest
    magnitude loading is positive.
    """
    X = matrix.values
    row_labels = list(matrix.row_labels)
    col_labels = list(matrix.col_labels)
    if X.shape[0] < 2:
        raise InputError("pca needs at least 2 rows")

    dropped = []
    std = X.std(axis=0, ddof=1)
    if standardize:
        keep = std > 0
        if not keep.all():
            dropped = [c for c, k in zip(col_labels, keep) if not k]
            warnings.warn(f"dropping zero-variance columns: {dropped}")
            X = X[:, keep]
            col_labels = [c for c, k in zip(col_labels, keep) if k]
            std = std[keep]
        if X.shape[1] == 0:
            raise InputError("no columns left after dropping zero-variance columns")
        scale = std
    else:
        scale = np.ones(X.shape[1])

    if n_components < 1 or n_components > min(X.shape):
        raise InputError(
            f"n_components must be in [1, {min(X.shape)}] for a {X.shape} matrix"
        )

    mean = X.mean(axis=0)
    Xc = (X - mean) / scale
    U, S, Vt = np.linalg.svd(Xc, full_matrices=False)
    n = X.shape[0]
    variances = S**2 / (n - 1)
    total = variances.sum()
    if total == 0:
        raise CuelexError("pca of a matrix with zero total variance")

    components = Vt[:n_components].copy()
    loadings = (U[:, :n_components] * S[:n_components]) / math.sqrt(n - 1)
    for j in range(n_components):
        i = int(np.argmax(np.abs(loadings[:, j])))
        if loadings[i, j] < 0:
            loadings[:, j] = -loadings[:, j]
            components[j] = -components[j]
    return PcaResult(
        components=components,
        loadings=loadings,
        explained_variance_ratio=variances[:n_components] / total,
        singular_values=S[:n_components].copy(),
        mean=mean,
        scale=scale,
        row_labels=row_labels,
        col_labels=col_labels,
        dropped_columns=dropped,
    )


def minkowski(a, b, p: float = 2.0) -> float:
    """Minkowski distance (sum |a_i - b_i|^p)^(1/p) for p >= 1."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"length mismatch: {a.shape} vs {b.shape}")
    if p < 1:
        raise InputError("minkowski needs p >= 1")
    diff = np.abs(a - b)
    if diff.size == 0:
        return 0.0
    m = diff.max()
    if m == 0.0:
        return 0.0
    # factor out the max to avoid overflow for large p
    return float(m * (((diff / m) ** p).sum()) ** (1.0 / p))


@dataclass
class MdsResult:
    item_labels: list[str]
    coordinates: np.ndarray  # n_items x dims, centered at the origin
    stress: float
    iterations: int
    stress_trace: list[float]


def mds(
    matrix: ScoreMatrix,
    p: float = 2.0,
    dims: int = 2,
    max_iter: int = 500,
    tol: float = 1e-9,
) -> MdsResult:
    """Metric MDS of the collections (columns) under Minkowski dissimilarity.

    SMACOF majorization of raw stress sum (d_ij - delta_ij)^2, started from
    classical scaling; the stress trace is non-increasing and the routine is
    fully deterministic.
    """
    n = len(matrix.col_labels)
    if n < 3:
        raise InputError("mds needs at least 3 items (columns)")
    if dims < 1:
        raise InputError("dims must be positive")
    profiles = matrix.values.T  # one row per collection
    delta = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            delta[i, j] = delta[j, i] = minkowski(profiles[i], profiles[j], p)
    if delta.max() == 0.0:
        raise InputError("all dissimilarities are zero; nothing to scale")

    X = _classical_scaling(delta, dims)
    stress = _raw_stress(X, delta)
    trace = [stress]
    iterations = 0
    for _ in range(max_iter):
        X_new = _guttman_transform(X, delta)
        new_stress = _raw_stress(X_new, delta)
        if new_stress > stress:  # numerical floor reached
            break
        X = X_new
        iterations += 1
        trace.append(new_stress)
        if stress - new_stress < tol:
            stress = new_stress
            break
        stress = new_stress
    X = X - X.mean(axis=0)
    return MdsResult(list(matrix.col_labels), X, stress, iterations, trace)


def _classical_scaling(delta: np.ndarray, dims: int) -> np.ndarray:
    n = delta.shape[0]
    J = np.eye(n) - np.ones((n, n)) / n
    B = -0.5 * J @ (delta**2) @ J
    evals, evecs = np.linalg.eigh(B)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order][:dims], 0.0, None)
    evecs = evecs[:, order][:, :dims]
    X = evecs * np.sqrt(evals)
    if X.shape[1] < dims:
        X = np.hstack([X, np.zeros((n, dims - X.shape[1]))])
    return X


def _distances(X: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - X[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def _raw_stress(X: np.ndarray, delta: np.ndarray) -> float:
    d = _distances(X)
    iu = np.triu_indices_from(d, k=1)
    return float(((d[iu] - delta[iu]) ** 2).sum())


def _guttman_transform(X: np.ndarray, delta: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    d = _distances(X)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d > 0, delta / d, 0.0)
    B = -ratio
    np.fill_diagonal(B, 0.0)
    np.fill_diagonal(B, -B.sum(axis=1))
    return (B @ X) / n
