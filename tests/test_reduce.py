import itertools
import math
import random

import numpy as np
import pytest

from cuelex.errors import CuelexError, InputError
from cuelex.reduce import (
    ScoreMatrix,
    load_score_matrix,
    mds,
    minkowski,
    pca,
    write_score_matrix,
)


def matrix_of(values, rows=None, cols=None):
    values = np.asarray(values, dtype=float)
    rows = rows or [f"w{i}" for i in range(values.shape[0])]
    cols = cols or [f"c{j}" for j in range(values.shape[1])]
    return ScoreMatrix(rows, cols, values)


# --- ScoreMatrix -------------------------------------------------------------


def test_score_matrix_validation():
    with pytest.raises(InputError, match="labels"):
        ScoreMatrix(["a"], ["x", "y"], np.ones((2, 2)))
    with pytest.raises(InputError, match="duplicate row"):
        ScoreMatrix(["a", "a"], ["x"], np.ones((2, 1)))
    with pytest.raises(InputError, match="non-finite"):
        ScoreMatrix(["a"], ["x"], np.array([[np.nan]]))
    with pytest.raises(InputError, match="negative"):
        ScoreMatrix(["a"], ["x"], np.array([[-1.0]]))
    with pytest.raises(InputError, match="two-dimensional"):
        ScoreMatrix(["a"], ["x"], np.ones(1))
    with pytest.raises(InputError, match="duplicate column"):
        ScoreMatrix(["a"], ["x", "x"], np.ones((1, 2)))


def test_score_matrix_tsv_round_trip(tmp_path):
    m = matrix_of([[0.99, 0.60], [0.75, 0.23], [0.52, 0.31]])
    path = tmp_path / "scores.tsv"
    write_score_matrix(path, m, header_lines=["meta"])
    loaded = load_score_matrix(path)
    assert loaded.row_labels == m.row_labels
    assert loaded.col_labels == m.col_labels
    assert np.allclose(loaded.values, m.values)


def test_load_score_matrix_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("word\tc1\nw1\tnot-a-number\n")
    with pytest.raises(InputError, match="non-numeric"):
        load_score_matrix(bad)
    with pytest.raises(InputError, match="not found"):
        load_score_matrix(tmp_path / "none.tsv")


# --- PCA ---------------------------------------------------------------------


def test_pca_rank_one():
    base = np.array([1.0, 2.0, 3.0, 4.0])
    values = np.outer([1.0, 2.0, 3.0, 0.5, 1.5], base)
    result = pca(matrix_of(values), n_components=2, standardize=False)
    assert result.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)


def test_pca_hand_case_two_by_two_eigen_oracle():
    # rows (1,0), (0,1), (1,1), unstandardized: the 2x2 covariance eigen-solve
    # gives eigenvalues 1/2 (along (1,-1)/sqrt2) and 1/6 (along (1,1)/sqrt2)
    values = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cov = np.cov(values, rowvar=False, ddof=1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    assert evals[0] == pytest.approx(0.5, abs=1e-12)
    assert evals[1] == pytest.approx(1.0 / 6.0, abs=1e-12)

    result = pca(matrix_of(values), n_components=2, standardize=False)
    for j in range(2):
        ratio = result.explained_variance_ratio[j]
        assert ratio == pytest.approx(evals[j] / evals.sum(), abs=1e-9)
        direction = result.components[j]
        oracle = evecs[:, j]
        aligned = abs(float(direction @ oracle))
        assert aligned == pytest.approx(1.0, abs=1e-9)
    assert abs(result.components[0] @ np.array([1, -1]) / math.sqrt(2)) == pytest.approx(
        1.0, abs=1e-9
    )
    # loadings: projections scaled by 1/sqrt(n-1); first column (0.5, -0.5, 0)
    assert result.loadings[:, 0] == pytest.approx([0.5, -0.5, 0.0], abs=1e-9)


def test_pca_reconstruction_full_rank():
    rng = np.random.default_rng(3)
    values = np.abs(rng.normal(size=(8, 5)))
    for standardize in (False, True):
        m = matrix_of(values)
        result = pca(m, n_components=5, standardize=standardize)
        target = (values - values.mean(axis=0)) / result.scale
        assert np.allclose(result.reconstruct(), target, atol=1e-6)


def test_pca_ratios_sum_to_one_at_full_rank():
    rng = np.random.default_rng(4)
    values = np.abs(rng.normal(size=(9, 4)))
    result = pca(matrix_of(values), n_components=4, standardize=True)
    assert result.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-9)
    ratios = result.explained_variance_ratio
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_pca_components_orthonormal():
    rng = np.random.default_rng(5)
    values = np.abs(rng.normal(size=(10, 6)))
    result = pca(matrix_of(values), n_components=4)
    gram = result.components @ result.components.T
    assert np.allclose(gram, np.eye(4), atol=1e-9)


def test_pca_sign_convention():
    rng = np.random.default_rng(6)
    values = np.abs(rng.normal(size=(7, 4)))
    result = pca(matrix_of(values), n_components=3)
    for j in range(3):
        col = result.loadings[:, j]
        assert col[np.argmax(np.abs(col))] >= 0


def test_pca_row_reorder_equivariance():
    rng = np.random.default_rng(7)
    values = np.abs(rng.normal(size=(6, 4)))
    m1 = matrix_of(values)
    perm = [3, 1, 5, 0, 4, 2]
    m2 = ScoreMatrix([m1.row_labels[i] for i in perm], m1.col_labels, values[perm])
    r1 = pca(m1, n_components=2)
    r2 = pca(m2, n_components=2)
    assert np.allclose(r1.loadings[perm], r2.loadings, atol=1e-9)


def test_pca_zero_variance_column_dropped():
    values = np.array([[1.0, 5.0, 2.0], [2.0, 5.0, 1.0], [3.0, 5.0, 4.0]])
    m = matrix_of(values, cols=["a", "flat", "b"])
    with pytest.warns(UserWarning, match="flat"):
        result = pca(m, n_components=2, standardize=True)
    assert result.dropped_columns == ["flat"]
    assert result.col_labels == ["a", "b"]


def test_pca_errors():
    with pytest.raises(InputError, match="2 rows"):
        pca(matrix_of([[1.0, 2.0]]), n_components=1)
    with pytest.raises(InputError, match="n_components"):
        pca(matrix_of([[1.0, 2.0], [2.0, 1.0]]), n_components=3)
    flat = matrix_of([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(CuelexError, match="variance"):
        pca(flat, n_components=1, standardize=False)
    with pytest.warns(UserWarning, match="dropping zero-variance columns"):
        with pytest.raises(InputError, match="no columns left"):
            pca(flat, n_components=1, standardize=True)


def test_pca_top_words():
    values = np.array([[9.0, 0.1], [0.1, 5.0], [4.0, 4.0], [0.2, 0.3]])
    m = matrix_of(values, rows=["big", "tall", "mixed", "tiny"])
    result = pca(m, n_components=2, standardize=False)
    top = result.top_words(0, m=2)
    assert len(top) == 2
    magnitudes = [abs(v) for _, v in top]
    assert magnitudes == sorted(magnitudes, reverse=True)


# --- minkowski -----------------------------------------------------------------


def test_minkowski_identity():
    v = np.array([1.0, -2.0, 3.0])
    assert minkowski(v, v, 1) == 0.0
    assert minkowski(v, v, 7.5) == 0.0


def test_minkowski_hand_values():
    a, b = np.zeros(2), np.ones(2)
    assert minkowski(a, b, 1) == pytest.approx(2.0, abs=1e-12)
    assert minkowski(a, b, 2) == pytest.approx(1.41421, abs=1e-5)


def test_minkowski_p2_equals_euclidean():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert minkowski(a, b, 2) == pytest.approx(np.linalg.norm(a - b), abs=1e-12)


def test_minkowski_metric_axioms_random_triples():
    rng = np.random.default_rng(9)
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(25):
            a, b, c = (rng.normal(size=4) for _ in range(3))
            assert minkowski(a, b, p) == pytest.approx(minkowski(b, a, p), abs=1e-12)
            assert minkowski(a, c, p) <= minkowski(a, b, p) + minkowski(b, c, p) + 1e-12


def test_minkowski_errors():
    with pytest.raises(InputError, match="length"):
        minkowski([1.0], [1.0, 2.0], 2)
    with pytest.raises(InputError, match="p >= 1"):
        minkowski([1.0], [2.0], 0.5)


# --- MDS -----------------------------------------------------------------------


def test_mds_recovers_embeddable_configuration():
    # column profiles that are already 2-dimensional points
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.5]])
    values = points.T  # 2 words x 5 collections
    m = matrix_of(values)
    result = mds(m, p=2, dims=2)
    assert result.stress < 1e-6
    # pairwise distances reproduced
    for i in range(5):
        for j in range(i + 1, 5):
            want = np.linalg.norm(points[i] - points[j])
            got = np.linalg.norm(result.coordinates[i] - result.coordinates[j])
            assert got == pytest.approx(want, abs=1e-6)


def test_mds_equidistant_items_form_equilateral_triangle():
    # three columns pairwise at equal Minkowski distance
    values = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    result = mds(matrix_of(values), p=2, dims=2)
    d01 = np.linalg.norm(result.coordinates[0] - result.coordinates[1])
    d02 = np.linalg.norm(result.coordinates[0] - result.coordinates[2])
    d12 = np.linalg.norm(result.coordinates[1] - result.coordinates[2])
    assert d01 == pytest.approx(d02, abs=1e-6)
    assert d01 == pytest.approx(d12, abs=1e-6)
    assert result.stress < 1e-9


def test_mds_identical_columns_coincide():
    values = np.array([[1.0, 1.0, 3.0], [2.0, 2.0, 0.5], [0.0, 0.0, 1.0]])
    result = mds(matrix_of(values), p=2, dims=2)
    assert np.allclose(result.coordinates[0], result.coordinates[1], atol=1e-8)


def test_mds_stress_trace_monotone_and_centered():
    rng = np.random.default_rng(10)
    values = np.abs(rng.normal(size=(6, 7)))
    result = mds(matrix_of(values), p=1.5, dims=2)
    trace = result.stress_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert np.allclose(result.coordinates.mean(axis=0), 0.0, atol=1e-9)


def test_mds_deterministic():
    rng = np.random.default_rng(11)
    values = np.abs(rng.normal(size=(5, 6)))
    r1 = mds(matrix_of(values), p=2)
    r2 = mds(matrix_of(values), p=2)
    assert np.array_equal(r1.coordinates, r2.coordinates)
    assert r1.stress_trace == r2.stress_trace


def test_mds_errors():
    with pytest.raises(InputError, match="3 items"):
        mds(matrix_of([[1.0, 2.0], [0.5, 1.0]]))
    same = np.ones((3, 4))
    with pytest.raises(InputError, match="zero"):
        mds(matrix_of(same))
    with pytest.raises(InputError, match="dims must be positive"):
        mds(matrix_of(np.eye(3)), dims=0)


# --- scipy as an independent oracle (test-only; skipped when it is absent) ------------


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0])
def test_minkowski_matches_scipy(p):
    distance = pytest.importorskip("scipy.spatial.distance")
    rng = np.random.default_rng(int(10 * p))
    profiles = np.abs(rng.normal(size=(6, 9))) * rng.choice([1e-3, 1.0, 1e3], size=(6, 1))
    want = distance.cdist(profiles, profiles, "minkowski", p=p)
    for i, j in itertools.product(range(len(profiles)), repeat=2):
        got = minkowski(profiles[i], profiles[j], p)
        assert got == pytest.approx(distance.minkowski(profiles[i], profiles[j], p), rel=1e-12)
        assert got == pytest.approx(want[i, j], rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_mds_stress_matches_scipy_distances(p):
    distance = pytest.importorskip("scipy.spatial.distance")
    rng = np.random.default_rng(int(7 * p))
    values = np.abs(rng.normal(size=(5, 6)))
    result = mds(matrix_of(values), p=p, dims=2)
    delta = distance.pdist(values.T, "minkowski", p=p)
    fitted = distance.pdist(result.coordinates, "euclidean")
    assert result.stress == pytest.approx(((fitted - delta) ** 2).sum(), rel=1e-9)
