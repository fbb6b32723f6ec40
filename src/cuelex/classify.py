"""Cross-validated cue-word classifiers and the datasets they train on.

Datasets carry concatenated embedding vectors as features.  All classifiers
are trained from scratch here; every source of randomness flows from an
explicit seed, so a (dataset, spec, folds, seed) tuple fully determines the
evaluation report, whatever the number of processes that fit the folds.
"""

from __future__ import annotations

import random
import warnings
from array import array
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import tables, workers
from .agreement import (  # noqa: F401  (re-exported: the annotation names stay importable here)
    AgreementReport, Annotation, agreement, agreement_from_counts, landis_koch_band,
    load_annotations,
)
from .errors import CuelexError, InputError

if TYPE_CHECKING:
    from .embeddings import EmbeddingModel, StreamedModel
    from .expansion import SeedLexicon

VARIANCE_FLOOR = 1e-9
DATASET_SHUFFLE_SEED = 13  # fixed pre-fold shuffle, part of the dataset contract


def draw_unrelated(
    model: EmbeddingModel | StreamedModel,
    lexicon: SeedLexicon,
    n: int = 100,
    max_sim: float = 0.2,
    rng_seed: int = 0,
    exclude=(),
) -> list[str]:
    """n vocabulary tokens far from every seed (max cosine < max_sim), in draw order.

    ``model`` is either source, loaded or streamed.  The vocabulary is scanned
    in a seeded shuffle order, 2,048 rows at a time; candidate-set words and
    lexicon words are skipped.  Only the tokens of the rows that are far
    enough are read, in draw order and no more at a time than could still be
    kept, and a streamed model keeps none of them.  Raises when the full scan
    cannot supply n qualifying tokens.
    """
    if n < 0:
        raise InputError("n must be non-negative")
    if n == 0:
        return []
    forms = [form for entry in lexicon.entries for form in entry.model_forms]
    units = model.unit_rows([i for i in model.rows_of(forms) if i is not None])
    seed_matrix = units[units.any(axis=1)]  # the usable seed forms' unit rows
    if not len(seed_matrix):
        raise InputError(f"no seed form is present in model {model.name!r}")

    blocked = {w.lower() for w in exclude} | lexicon.folded_words()
    # 4 B per row, where a list takes about 40 B; the shuffle order is the same
    indices = array("i", range(len(model)))
    _shuffle(indices, random.Random(rng_seed))

    out: list[str] = []
    chunk = 2048
    for start in range(0, len(indices), chunk):
        block = indices[start : start + chunk]
        far = _far_rows(model, seed_matrix, block, max_sim)
        rows = [idx for idx, ok in zip(block, far.tolist()) if ok]
        while rows:  # read only as many tokens as could still be kept
            part, rows = rows[: n - len(out)], rows[n - len(out) :]
            out += [token for token in model.tokens_of(part) if token.lower() not in blocked]
            if len(out) == n:
                return out
    raise CuelexError(
        f"only {len(out)} of {n} requested unrelated tokens qualify in model {model.name!r}"
    )


sample_unrelated = draw_unrelated  # the name the tests and the benchmark's layer timing use


def _far_rows(model, seed_matrix: np.ndarray, block, max_sim: float) -> np.ndarray:
    """Whether each row of ``block`` is usable and under ``max_sim`` from every seed.

    Decided as one product of the seeds' and the block's unit rows decides it,
    but computed 256 rows at a time, so the block's float64 rows are not all
    held.  A part's product may sum in another order than the block's, and
    two float64 dot products of unit rows of dimension d summed in any orders
    differ by at most 2 gamma_d (1 + eps)^2 < 4 d 2^-53.  So only when a
    usable row's best cosine is within that of ``max_sim`` is the whole block
    scored at once.
    """
    part, slack = 256, 4 * model.dim * 2.0**-53
    far, near = [], False
    for lo in range(0, len(block), part):
        units = model.unit_rows(block[lo : lo + part])  # zero exactly on the unusable rows
        sims, usable = (seed_matrix @ units.T).max(axis=0), units.any(axis=1)
        near = near or bool((usable & (np.abs(sims - max_sim) <= slack)).any())
        far.append(usable & (sims < max_sim))
    if near and len(block) > part:
        units = model.unit_rows(block)
        return ((seed_matrix @ units.T).max(axis=0) < max_sim) & units.any(axis=1)
    return np.concatenate(far)


class ModelRows:
    """Copies of one model's vectors for chosen words: all that ``featurize`` reads of a model.

    ``model`` is either source, loaded or streamed.  ``vector(word)`` answers
    as the model's ``vector(word)`` would for each word of ``words``: the exact
    token's row, else its first case variant's.  Any other word is absent, an
    ``InputError``.  It keeps no reference to the model, so the model can be
    freed before the next loads.
    """

    def __init__(self, model: EmbeddingModel | StreamedModel, words):
        self.name, self.dim = model.name, model.dim
        rows = {word: i for word, i in zip(words, model.rows_of(words)) if i is not None}
        self._rows = dict(zip(rows, model.vectors_of(list(rows.values()))))

    def vector(self, word: str) -> np.ndarray:
        """Stored float32 vector for ``word`` (a copy)."""
        if word not in self._rows:
            raise InputError(f"token {word!r} not in vocabulary of model {self.name!r}")
        return self._rows[word].copy()


@dataclass
class LabeledExample:
    word: str
    features: np.ndarray  # float32, fixed length per run
    label: int  # 1 = valid cue word, 0 = not
    oov_flags: tuple[bool, ...]  # per model, True when the segment is zero-filled


def featurize(word: str, models):
    """Concatenate the word's stored vectors across models, zero-filling OOV segments."""
    segments = []
    flags = []
    hit = False
    for model in models:
        try:
            vec = model.vector(word)
            segments.append(vec)
            flags.append(False)
            hit = True
        except InputError:
            segments.append(np.zeros(model.dim, dtype=np.float32))
            flags.append(True)
    if not hit:
        raise InputError(f"word {word!r} is out of vocabulary in every model")
    return np.concatenate(segments), tuple(flags)


@dataclass
class DatasetBuild:
    examples: list[LabeledExample]
    excluded: list[str]  # words OOV in every model


def check_disjoint(**groups) -> None:
    """Raise when two of the named word lists share a word, compared case-folded."""
    folded = {name: {w.lower() for w in words} for name, words in groups.items()}
    names = list(folded)
    for i, g1 in enumerate(names):
        for g2 in names[i + 1 :]:
            overlap = folded[g1] & folded[g2]
            if overlap:
                raise InputError(f"overlapping lists {g1}/{g2}: {sorted(overlap)[:5]}")


def check_labels(n_pos: int, n_neg: int) -> None:
    if n_pos == 0 or n_neg == 0:
        raise InputError("degenerate dataset: needs both positive and negative examples")


def build_dataset(accepted, rejected, unrelated, models, seeds=()) -> DatasetBuild:
    """Labeled examples: positives = accepted + seeds, negatives = rejected + unrelated.

    Input lists must be disjoint.  Words missing from every model are excluded
    and reported.  The result is shuffled with a fixed seed before folding.
    """
    seed_words = list(seeds)
    check_disjoint(accepted=accepted, rejected=rejected, unrelated=unrelated, seeds=seed_words)
    labeled = [(w, 1) for w in list(accepted) + seed_words] + [
        (w, 0) for w in list(rejected) + list(unrelated)
    ]
    n_pos = sum(y for _, y in labeled)
    check_labels(n_pos, len(labeled) - n_pos)

    examples = []
    excluded = []
    for word, label in labeled:
        try:
            feats, flags = featurize(word, models)
        except InputError:
            excluded.append(word)
            continue
        examples.append(LabeledExample(word, feats, label, flags))
    if not examples:
        raise InputError("degenerate dataset: every word is out of vocabulary")
    _shuffle(examples, random.Random(DATASET_SHUFFLE_SEED))
    return DatasetBuild(examples, excluded)


def save_features(path: Path, examples) -> np.ndarray:
    """The examples' features as one float32 matrix, written to ``path`` as ``.npy``."""
    features = np.vstack([ex.features for ex in examples]).astype(np.float32)
    np.save(path, features)
    return features


def load_features(path: Path) -> np.ndarray:
    """The matrix of a ``save_features`` file; one not finite, numeric and 2-D is an input error."""
    if not path.is_file():
        raise InputError(f"missing feature matrix next to dataset: {path}")
    with open(path, "rb") as fh:
        try:  # an .npy array only: never a pickle
            features = np.lib.format.read_array(fh)
        except ValueError as exc:
            raise InputError(f"{path}: not a feature matrix ({exc})") from None
    if features.ndim != 2 or features.dtype.kind not in "biuf":
        raise InputError(f"{path}: expected a numeric 2-D matrix, got {features.dtype} "
                         f"of shape {features.shape}")
    if not np.isfinite(features).all():
        raise InputError(f"{path}: non-finite value in the feature matrix")
    return features


def kfold(dataset, k: int = 10, rng_seed: int = 0) -> np.ndarray:
    """Stratified fold assignment: folds[i] is the test fold of example i.

    Fold sizes differ by at most one and per-label counts are spread evenly;
    assignment is deterministic given the seed.
    """
    n = len(dataset)
    if k < 2:
        raise InputError("k must be at least 2")
    if k > n:
        raise InputError(f"k={k} exceeds dataset size {n}")
    rng = random.Random(rng_seed)
    folds = np.full(n, -1, dtype=np.int64)
    fill = [0] * k
    labels = sorted({ex.label for ex in dataset})
    for label in labels:
        idx = [i for i, ex in enumerate(dataset) if ex.label == label]
        _shuffle(idx, rng)
        base, extra = divmod(len(idx), k)
        # folds with the least examples so far absorb this label's remainder
        order = sorted(range(k), key=lambda f: (fill[f], f))
        counts = [base] * k
        for f in order[:extra]:
            counts[f] += 1
        pos = 0
        for f in range(k):
            for i in idx[pos : pos + counts[f]]:
                folds[i] = f
            fill[f] += counts[f]
            pos += counts[f]
    return folds


@dataclass(frozen=True)
class ClassifierSpec:
    """A kind of ``CLASSIFIERS`` and its (name, value) parameters, checked on construction.

    Each parameter names a field of the kind's class other than ``rng_seed``,
    and its value is a positive number of that field's type (an int passes for
    a float field).  The class's defaults fill in the fields left out.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        cls = CLASSIFIERS.get(self.kind)
        if cls is None:
            known = ", ".join(CLASSIFIERS)
            raise InputError(f"unknown classifier kind {self.kind!r} (known: {known})")
        types = {f.name: type(f.default) for f in fields(cls) if f.name != "rng_seed"}
        if len(dict(self.params)) < len(self.params):
            raise InputError(f"{self.name}: a parameter is given twice")
        for key, value in self.params:
            want = types.get(key)
            if want is None:
                known = ", ".join(types) or "none"
                raise InputError(f"{self.kind} has no parameter {key!r} (it takes: {known})")
            if type(value) not in (want, int) or not 0 < value < float("inf"):
                bound = f"{key} >= 1" if want is int else f"0 < {key} < inf"
                raise InputError(
                    f"{self.kind}: {key} must be a positive {want.__name__} ({bound}), "
                    f"got {value!r}"
                )

    @property
    def name(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"

    def get(self, key, default):
        return dict(self.params).get(key, default)


def parse_classifier_spec(text: str) -> ClassifierSpec:
    """Parse one spec such as "knn:k=3" or "mlp:epochs=40,batch=16"."""
    kind, _, rest = text.partition(":")
    params = []
    for part in filter(str.strip, rest.split(",")):
        key, equals, val = part.partition("=")
        if not equals:
            raise InputError(f"bad classifier parameter {part!r}")
        try:
            parsed = float(val) if "." in val or "e" in val.lower() else int(val)
        except ValueError:
            raise InputError(f"bad classifier parameter value {val!r}") from None
        params.append((key.strip(), parsed))
    return ClassifierSpec(kind.strip(), tuple(params))


def parse_classifier_specs(text: str) -> list[ClassifierSpec]:
    """Parse a comma-separated spec list such as "knn:k=3,gaussian_nb,mlp:epochs=40,batch=16".

    A ``key=value`` item without a kind is one more parameter of the spec before it.
    """
    parts: list[str] = []
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        if "=" in chunk and ":" not in chunk and parts:
            parts[-1] += ("," if ":" in parts[-1] else ":") + chunk
        else:
            parts.append(chunk)
    if not parts:
        raise InputError(f"no classifier spec in {text!r}")
    return [parse_classifier_spec(part) for part in parts]


@dataclass
class KnnClassifier:
    """k-nearest neighbors under cosine distance; vote ties go to the nearest."""

    k: int = 3

    def fit(self, X: np.ndarray, y: np.ndarray):
        self._units = _unit_rows(X)
        self._y = y.copy()
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        units = _unit_rows(X)
        sims = units @ self._units.T
        k = min(self.k, sims.shape[1])
        out = np.empty(len(X), dtype=np.int64)
        for i in range(len(X)):
            dist = 1.0 - sims[i]
            order = np.lexsort((np.arange(len(dist)), dist))[:k]
            votes = np.bincount(self._y[order], minlength=2)
            if votes[0] == votes[1]:
                out[i] = self._y[order[0]]
            else:
                out[i] = int(np.argmax(votes))
        return out


@dataclass
class GaussianNbClassifier:
    """Per-feature normal likelihoods with a variance floor."""

    def fit(self, X: np.ndarray, y: np.ndarray):
        self._classes = np.flatnonzero(np.bincount(y))  # np.unique would import numpy.ma
        if len(self._classes) < 2:
            warnings.warn("gaussian fit saw a single class; variance-floor fallback")
        self._priors = {}
        self._means = {}
        self._vars = {}
        for c in self._classes:
            Xc = X[y == c]
            self._priors[c] = len(Xc) / len(X)
            self._means[c] = Xc.mean(axis=0)
            var = Xc.var(axis=0)
            self._vars[c] = np.maximum(var, VARIANCE_FLOOR)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = np.full((len(X), 2), -np.inf)
        for c in self._classes:
            mean, var = self._means[c], self._vars[c]
            ll = -0.5 * (np.log(2.0 * np.pi * var) + (X - mean) ** 2 / var).sum(axis=1)
            scores[:, int(c)] = ll + np.log(self._priors[c])
        return np.argmax(scores, axis=1)


def _shuffle(seq, rng: random.Random) -> None:
    """Shuffle ``seq`` in place into the order ``rng.shuffle(seq)`` gives it.

    The same draws as ``random.Random.shuffle``: for each i from len - 1 down
    to 1, ``getrandbits`` of the bit length of i + 1, drawn again until it is
    at most i, picks the item that trades places with item i.  Inlined, the
    draw costs no call of ``_randbelow`` per item; a list or an ``array``
    shuffles alike.
    """
    getrandbits = rng.getrandbits
    for i in range(len(seq) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        seq[i], seq[j] = seq[j], seq[i]


def _minibatches(X: np.ndarray, y: np.ndarray, epochs: int, batch: int, rng_seed: int):
    """Every epoch's minibatches (rows, labels), each epoch in a new seeded shuffle order."""
    rng = random.Random(rng_seed)
    idx = list(range(len(X)))
    for _ in range(epochs):
        _shuffle(idx, rng)
        order = np.array(idx, dtype=np.intp)
        for start in range(0, len(order), batch):
            sel = order[start : start + batch]
            yield X[sel], y[sel]


@dataclass
class LogisticSgdClassifier:
    """Logistic regression trained with seeded minibatch SGD."""

    lr: float = 0.0005
    epochs: int = 500
    batch: int = 100
    rng_seed: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        self._w = np.zeros(X.shape[1])
        self._b = 0.0
        for Xb, yb in _minibatches(X, y, self.epochs, self.batch, self.rng_seed):
            err = _sigmoid(Xb @ self._w + self._b) - yb
            self._w -= self.lr * (Xb.T @ err) / len(Xb)
            self._b -= self.lr * (err.sum() / len(err))
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = np.asarray(X, dtype=np.float64) @ self._w + self._b
        return (z >= 0.0).astype(np.int64)


@dataclass
class MlpClassifier:
    """One hidden tanh layer trained with seeded minibatch SGD."""

    hidden_width: int = 6
    lr: float = 0.0005
    epochs: int = 500
    batch: int = 100
    rng_seed: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        d, h = X.shape[1], self.hidden_width
        nprng = np.random.default_rng(self.rng_seed)
        self._W1 = nprng.normal(0.0, 1.0 / np.sqrt(d), size=(d, h))
        self._b1 = np.zeros(h)
        self._w2 = nprng.normal(0.0, 1.0 / np.sqrt(h), size=h)
        self._b2 = 0.0
        for Xb, yb in _minibatches(X, y, self.epochs, self.batch, self.rng_seed):
            hidden = np.tanh(Xb @ self._W1 + self._b1)
            err = _sigmoid(hidden @ self._w2 + self._b2) - yb
            grad_w2 = hidden.T @ err / len(Xb)
            grad_b2 = err.sum() / len(err)
            back = err[:, None] * self._w2 * (1.0 - hidden**2)
            grad_W1 = Xb.T @ back / len(Xb)
            grad_b1 = back.sum(axis=0) / len(Xb)
            self._w2 -= self.lr * grad_w2
            self._b2 -= self.lr * grad_b2
            self._W1 -= self.lr * grad_W1
            self._b1 -= self.lr * grad_b1
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        hidden = np.tanh(np.asarray(X, dtype=np.float64) @ self._W1 + self._b1)
        z = hidden @ self._w2 + self._b2
        return (z >= 0.0).astype(np.int64)


# The one registry of classifier kinds: each class's fields and their defaults
# are the kind's spec parameters.
CLASSIFIERS = {
    "knn": KnnClassifier,
    "gaussian_nb": GaussianNbClassifier,
    "logistic_sgd": LogisticSgdClassifier,
    "mlp": MlpClassifier,
}


def make_classifier(spec: ClassifierSpec, rng_seed: int = 0):
    """An unfitted classifier of the spec; a kind with an ``rng_seed`` field gets ``rng_seed``."""
    cls = CLASSIFIERS[spec.kind]
    seeded = {"rng_seed": rng_seed} if hasattr(cls, "rng_seed") else {}
    return cls(**dict(spec.params), **seeded)


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...] = ()  # names of zero-denominator metrics forced to 0


def metrics(tp: int, fp: int, fn: int, tn: int) -> Metrics:
    """Standard confusion-matrix metrics; zero denominators yield 0 with a flag."""
    total = tp + fp + fn + tn
    if total == 0:
        raise InputError("empty confusion matrix")
    flags = []
    accuracy = (tp + tn) / total
    if tp + fp == 0:
        precision = 0.0
        flags.append("precision")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        flags.append("recall")
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        f1 = 0.0
        flags.append("f1")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(accuracy, precision, recall, f1, tuple(flags))


@dataclass(frozen=True)
class EvalReport:
    classifier: str
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...]
    fold_digest: str


def fold_digest(folds: np.ndarray) -> str:
    return tables.sha256_hex(np.asarray(folds, dtype=np.int64).tobytes())[:12]


def train_eval(dataset, spec: ClassifierSpec, folds: np.ndarray, rng_seed: int = 0) -> EvalReport:
    """Cross-validate one classifier spec, pooling a single confusion matrix.

    The folds are fitted in forked worker processes (``workers.fork_map``),
    one per CPU this process may use and at most one per fold.  Their integer
    counts are summed and the warnings of their fits re-issued here in fold
    order, so the report and the warnings do not depend on the number of
    workers.
    """
    folds = np.asarray(folds)
    if len(folds) != len(dataset):
        raise InputError("fold assignment length does not match dataset")
    fold_ids = sorted(set(folds.tolist()))
    if len(fold_ids) == 1:  # that fold holds every example
        raise InputError("a fold leaves no training data")
    X = np.vstack([ex.features for ex in dataset]).astype(np.float64)
    y = np.array([ex.label for ex in dataset], dtype=np.int64)

    def fit_fold(f: int) -> tuple[int, int, int, int]:
        """Confusion counts (tp, fp, fn, tn) of fold ``f``."""
        test = folds == f
        clf = make_classifier(spec, rng_seed=rng_seed).fit(X[~test], y[~test])
        pred, truth = clf.predict(X[test]), y[test]
        return tuple(
            int(((pred == p) & (truth == t)).sum()) for p, t in ((1, 1), (1, 0), (0, 1), (0, 0))
        )

    tp, fp, fn, tn = (sum(c) for c in zip(*workers.fork_map(fit_fold, fold_ids)))
    m = metrics(tp, fp, fn, tn)
    return EvalReport(
        spec.name, tp, fp, fn, tn, m.accuracy, m.precision, m.recall, m.f1, m.flags,
        fold_digest(folds),
    )


def _unit_rows(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    norms = np.sqrt((X * X).sum(axis=1))
    units = np.zeros_like(X)
    np.divide(X, norms[:, None], out=units, where=norms[:, None] > 0)
    return units


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function: 1 / (1 + e^-z) where z >= 0, e^z / (1 + e^z) elsewhere.

    So no exp overflows.  ``np.minimum(z, -z)`` is -|z|, but it returns a NaN
    with its own bits, as the exp of the branch for z < 0 does.
    """
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)
