"""Two-judge annotations and their agreement statistics.

Percent agreement and Cohen's kappa over pos/neg judgments, banded by the
Landis-Koch scale.  Nothing here computes an array, so the commands that
only read annotations (``agree``, ``graph --statuses``) import no numpy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from . import tables
from .errors import CuelexError, InputError


@dataclass(frozen=True)
class Annotation:
    word: str
    judge1: str  # pos | neg
    judge2: str

    @property
    def status(self) -> str:
        """accepted when both judges said pos, rejected when both said neg, else unrated."""
        agreed = {("pos", "pos"): "accepted", ("neg", "neg"): "rejected"}
        return agreed.get((self.judge1, self.judge2), "unrated")


def load_annotations(path: str | Path) -> list[Annotation]:
    """Annotations CSV with header word,judge1,judge2 and pos/neg values."""
    path = Path(path)
    with tables.open_text(path, "annotations", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"empty annotations file: {path}") from None
        if [h.strip() for h in header] != ["word", "judge1", "judge2"]:
            raise InputError(f'{path}: expected header "word,judge1,judge2"')
        out = []
        seen = set()
        for lineno, row in enumerate(reader, 2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise InputError(f"{path}:{lineno}: expected 3 fields")
            word, j1, j2 = (c.strip() for c in row)
            if not word:
                raise InputError(f"{path}:{lineno}: empty word")
            if j1 not in ("pos", "neg") or j2 not in ("pos", "neg"):
                raise InputError(f'{path}:{lineno}: judge values must be "pos" or "neg"')
            if word.lower() in seen:
                raise InputError(f"{path}:{lineno}: duplicate word {word!r}")
            seen.add(word.lower())
            out.append(Annotation(word, j1, j2))
    return out


@dataclass(frozen=True)
class AgreementReport:
    n_pp: int
    n_pn: int
    n_np: int
    n_nn: int
    percent_agreement: float
    kappa: float
    band: str

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pn + self.n_np + self.n_nn


def landis_koch_band(kappa: float) -> str:
    if kappa <= 0.0:
        return "poor"
    if kappa <= 0.2:
        return "slight"
    if kappa <= 0.4:
        return "fair"
    if kappa <= 0.6:
        return "moderate"
    if kappa <= 0.8:
        return "substantial"
    return "almost perfect"


def agreement_from_counts(n_pp: int, n_pn: int, n_np: int, n_nn: int) -> AgreementReport:
    """Percent agreement and Cohen's kappa from the 2x2 judgment counts."""
    total = n_pp + n_pn + n_np + n_nn
    if total < 2:
        raise InputError("agreement needs at least 2 annotations")
    p_o = (n_pp + n_nn) / total
    j1_pos = (n_pp + n_pn) / total
    j2_pos = (n_pp + n_np) / total
    p_e = j1_pos * j2_pos + (1 - j1_pos) * (1 - j2_pos)
    if p_e == 1.0:
        raise CuelexError("kappa undefined: degenerate marginals (p_e = 1)")
    kappa = (p_o - p_e) / (1 - p_e)
    return AgreementReport(n_pp, n_pn, n_np, n_nn, p_o, kappa, landis_koch_band(kappa))


def agreement(annotations) -> AgreementReport:
    counts = {"pp": 0, "pn": 0, "np": 0, "nn": 0}
    for a in annotations:
        key = ("p" if a.judge1 == "pos" else "n") + ("p" if a.judge2 == "pos" else "n")
        counts[key] += 1
    return agreement_from_counts(counts["pp"], counts["pn"], counts["np"], counts["nn"])
