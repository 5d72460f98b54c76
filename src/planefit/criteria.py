"""Ordered-median aggregation of residual vectors.

A criterion is a nonnegative weight vector ``lam`` applied to the residuals
sorted nondecreasing, after raising them to a power p >= 1:

    value = sum_i lam[i] * sorted(residuals)[i] ** p

The named presets cover the classical fitting objectives (sum, max, median,
trimmed and centrum variants, quantiles).  p is kept as an exact ``Fraction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Criterion",
    "evaluate",
    "preset",
    "is_monotone",
    "PRESET_NAMES",
]

PRESET_NAMES = ("SUM", "MAX", "MED", "kC", "AkC", "SOS", "1.5SUM", "LQS", "LMS", "LTS")


@dataclass(frozen=True)
class Criterion:
    lam: np.ndarray
    p: Fraction = Fraction(1)
    name: str | None = None

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "p", Fraction(self.p))
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("lambda must be a nonempty vector")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise ValueError("lambda weights must be finite and nonnegative")
        if not np.any(lam > 0):
            raise ValueError("at least one lambda weight must be positive")
        if self.p < 1:
            raise ValueError("p must be >= 1")

    @property
    def n(self) -> int:
        return self.lam.size

    @property
    def p_float(self) -> float:
        return float(self.p)


def _powered(values: np.ndarray, p: Fraction) -> np.ndarray:
    if p == 1:
        return values
    # 0**p stays 0 for p > 0, so np.power is safe on exact zeros
    return np.power(values, float(p))


def _ordered_median(res: np.ndarray, lam: np.ndarray, p=1) -> np.ndarray:
    """sum_i lam[i] * res_(i)^p along the last axis: one value for a vector,
    one per row for a block of rows.  Every module scores Phi here: one
    sort, then the power, then ``@ lam``."""
    return _powered(np.sort(res, axis=-1), p) @ lam


def _rank_weights(lam: np.ndarray, key: np.ndarray) -> np.ndarray:
    """lam placed on the points in increasing order of ``key`` (stable), so
    that ``_rank_weights(lam, res) @ res**p`` is Phi."""
    weights = np.empty_like(lam)
    weights[np.argsort(key, kind="stable")] = lam
    return weights


def evaluate(criterion: Criterion, residuals) -> float:
    """sum_i lam[i] * residual_(i)^p with residuals sorted nondecreasing."""
    eps = np.asarray(residuals, dtype=float)
    if eps.shape != (criterion.n,):
        raise ValueError(
            f"residual vector has length {eps.size}, criterion expects {criterion.n}"
        )
    if np.any(eps < 0):
        raise ValueError("residuals must be nonnegative")
    return float(_ordered_median(eps, criterion.lam, criterion.p))


def is_monotone(criterion: Criterion) -> bool:
    """True iff 0 <= lam[0] <= lam[1] <= ... <= lam[n-1]."""
    lam = criterion.lam
    return bool(np.all(np.diff(lam) >= 0))


def _indicator(n: int, position: int) -> np.ndarray:
    lam = np.zeros(n)
    lam[position - 1] = 1.0
    return lam


def preset(name: str, n: int, *, K: int | None = None, r: int | None = None,
           alpha: float | None = None) -> Criterion:
    """Build a named criterion for a sample of size n.

    kC(K) sums the n-K largest residuals (K leading zero weights); AkC(K)
    sums the K smallest.  LQS(r) squares the r-th smallest residual, LMS is
    LQS(floor(n/2)), and LTS(alpha) sums the ceil(alpha*n) smallest squared
    residuals.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if name == "SUM":
        return Criterion(np.ones(n), Fraction(1), "SUM")
    if name == "MAX":
        return Criterion(_indicator(n, n), Fraction(1), "MAX")
    if name == "MED":
        return Criterion(_indicator(n, max(1, math.ceil(n / 2))), Fraction(1), "MED")
    if name == "kC":
        K = n // 2 if K is None else K
        if not 0 <= K < n:
            raise ValueError("kC needs 0 <= K < n")
        lam = np.concatenate([np.zeros(K), np.ones(n - K)])
        return Criterion(lam, Fraction(1), "kC")
    if name == "AkC":
        K = n // 2 if K is None else K
        if not 1 <= K <= n:
            raise ValueError("AkC needs 1 <= K <= n")
        lam = np.concatenate([np.ones(K), np.zeros(n - K)])
        return Criterion(lam, Fraction(1), "AkC")
    if name == "SOS":
        return Criterion(np.ones(n), Fraction(2), "SOS")
    if name == "1.5SUM":
        return Criterion(np.ones(n), Fraction(3, 2), "1.5SUM")
    if name == "LQS":
        if r is None or not 1 <= r <= n:
            raise ValueError("LQS needs a quantile position r in 1..n")
        return Criterion(_indicator(n, r), Fraction(2), "LQS")
    if name == "LMS":
        return Criterion(_indicator(n, max(1, n // 2)), Fraction(2), "LMS")
    if name == "LTS":
        if alpha is None or not 0 < alpha <= 1:
            raise ValueError("LTS needs alpha in (0, 1]")
        h = math.ceil(alpha * n)
        lam = np.concatenate([np.ones(h), np.zeros(n - h)])
        return Criterion(lam, Fraction(2), "LTS")
    raise ValueError(f"unknown criterion preset {name!r}")
