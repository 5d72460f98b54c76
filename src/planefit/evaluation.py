"""Fit-quality metrics, cross validation and the synthetic data generator.

Strip coverage asks what fraction of the sample lies within distance eps of
the fitted hyperplane (distance taken in the fitting residual's own metric);
eps90 is the smallest strip half-width covering 90% of the points, i.e. the
ceil(0.9 n)-th order statistic of the residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Dataset, Hyperplane, NormSpec, residual_vector
from .rng import SplitMix64

__all__ = ["StripMetrics", "CvSummary", "strip_metrics", "kfold_cv", "synthetic_generate"]


@dataclass
class StripMetrics:
    sorted_residuals: np.ndarray
    eps90: float

    def coverage_at(self, eps: float) -> float:
        """Fraction of points with residual <= eps."""
        return float(np.searchsorted(self.sorted_residuals, eps, side="right")) / self.sorted_residuals.size


@dataclass
class CvSummary:
    fold_eps90: list[float]

    @property
    def min(self) -> float:
        return float(np.min(self.fold_eps90))

    @property
    def max(self) -> float:
        return float(np.max(self.fold_eps90))

    @property
    def median(self) -> float:
        return float(np.median(self.fold_eps90))

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_eps90))


def eps90_of(residuals: np.ndarray) -> float:
    """The ceil(0.9 n)-th smallest residual: minimal width covering 90%."""
    ordered = np.sort(np.asarray(residuals, dtype=float))
    k = math.ceil(0.9 * ordered.size)
    return float(ordered[k - 1])


def strip_metrics(data: Dataset, plane: Hyperplane, norm: NormSpec) -> StripMetrics:
    """Coverage fractions and eps90 for a fitted hyperplane."""
    res = np.sort(residual_vector(plane, data, norm))
    return StripMetrics(res, eps90_of(res))


def kfold_cv(data: Dataset, k: int, fit_function, norm: NormSpec, seed: int = 0) -> CvSummary:
    """k-fold cross validation of held-out eps90.

    ``fit_function(train: Dataset) -> Hyperplane`` runs the configured
    solver on the training split.  Folds are a seeded shuffle cut into
    ceil/floor-sized blocks; the summary aggregates eps90 of each held-out
    fold under ``norm``.
    """
    n = data.n
    if not 2 <= k <= n:
        raise ValueError("k must satisfy 2 <= k <= n")
    rng = SplitMix64(seed)
    order = rng.shuffle(list(range(n)))
    big = n % k
    size_hi = math.ceil(n / k)
    size_lo = n // k
    folds = []
    pos = 0
    for j in range(k):
        size = size_hi if j < big else size_lo
        folds.append(order[pos: pos + size])
        pos += size
    eps_values = []
    for j in range(k):
        hold = sorted(folds[j])
        train_idx = sorted(i for jj, fold in enumerate(folds) if jj != j for i in fold)
        if len(train_idx) < data.dim + 1:
            raise ValueError("a training fold has fewer than d+1 points")
        train = Dataset(data.matrix[train_idx])
        plane = fit_function(train)
        held = Dataset(data.matrix[hold])
        eps_values.append(eps90_of(residual_vector(plane, held, norm)))
    return CvSummary(eps_values)


def synthetic_generate(n: int, d: int, corruption: str, seed: int) -> Dataset:
    """Gaussian features with a planted hyperplane and 15% corrupted rows.

    Features x_1..x_{d-1} are N(0, 100) i.i.d.; the response is
    x_d = -(x_1 + ... + x_{d-1}) + N(0, 10).  floor(0.15 n) rows, chosen by
    a seeded shuffle, then receive N(0, 500) noise on every feature
    (corruption "X") or on the response (corruption "Y").
    """
    if corruption not in ("X", "Y"):
        raise ValueError("corruption must be 'X' or 'Y'")
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    rng = SplitMix64(seed)
    obs = np.empty((n, d))
    for i in range(n):
        for kcol in range(d - 1):
            obs[i, kcol] = rng.gauss(0.0, 100.0)
    for i in range(n):
        obs[i, d - 1] = -obs[i, : d - 1].sum() + rng.gauss(0.0, 10.0)
    n_bad = int(0.15 * n)
    order = rng.shuffle(list(range(n)))
    bad = order[:n_bad]
    for i in bad:
        if corruption == "X":
            for kcol in range(d - 1):
                obs[i, kcol] += rng.gauss(0.0, 500.0)
        else:
            obs[i, d - 1] += rng.gauss(0.0, 500.0)
    return Dataset.from_observations(obs)
