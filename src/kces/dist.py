"""Score-distribution exports: normalization, Gaussian KDE, histograms.

Produces plot-ready summaries of edge-score populations so that clean,
attacked, and pruned graph variants can be compared side by side.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, KcesWarning
from .graph import format_float, seed_key

KDE_GRID_POINTS = 256
HISTOGRAM_BINS = 50
# Bandwidth floor, as a fraction of the normalized [0, 1] span.  Silverman's
# rule collapses to zero on constant or near-constant samples; a floored
# bandwidth keeps the density well defined and integrable.
MIN_BANDWIDTH = 1.0 / 25.0
# Grid padding in bandwidths on each side; 5 sigma keeps the truncated
# Gaussian tail mass far below the 1e-3 integral tolerance.
GRID_PAD_BANDWIDTHS = 5.0

_SUBSAMPLE_SALT = 0xD157


@dataclass(frozen=True)
class DistributionExport:
    """Distribution summary of one graph variant's edge scores."""

    normalized: np.ndarray
    kde_x: np.ndarray
    kde_y: np.ndarray
    bandwidth: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    sample_size: int

    def kde_integral(self) -> float:
        """Trapezoid-rule mass of the density curve."""
        return float(np.trapezoid(self.kde_y, self.kde_x))


def subsample_scores(scores: np.ndarray, samples: int | None, seed: int) -> np.ndarray:
    """Uniform subsample without replacement, in stable index order.

    Asking for more samples than available falls back to the full set with
    a warning rather than failing.
    """
    values = np.asarray(scores, dtype=np.float64).ravel()
    if values.size == 0:
        raise ConfigError("cannot summarize an empty score set")
    if not np.isfinite(values).all():
        raise ConfigError("scores must be finite")
    if samples is None or samples >= values.size:
        if samples is not None and samples > values.size:
            warnings.warn(
                f"requested {samples} samples but only {values.size} scores exist; using all",
                KcesWarning,
                stacklevel=2,
            )
        return values.copy()
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed_key(seed, _SUBSAMPLE_SALT))
    idx = np.sort(rng.choice(values.size, size=samples, replace=False))
    return values[idx]


def normalize_scores(values: np.ndarray) -> np.ndarray:
    """Min-max map onto [0, 1]; a constant sample maps to all zeros."""
    lo = float(values.min())
    hi = float(values.max())
    span = hi - lo
    if span <= 0.0:
        warnings.warn(
            "all scores identical; normalized distribution collapses to 0",
            KcesWarning,
            stacklevel=2,
        )
        return np.zeros_like(values)
    return (values - lo) / span


def silverman_bandwidth(normalized: np.ndarray) -> float:
    n = normalized.size
    if n < 2:
        return MIN_BANDWIDTH
    sigma = float(np.std(normalized, ddof=1))
    q75, q25 = np.percentile(normalized, [75.0, 25.0])
    iqr = float(q75 - q25)
    h = 0.9 * min(sigma, iqr / 1.34) * n ** (-0.2)
    return max(h, MIN_BANDWIDTH)


def gaussian_kde_curve(
    normalized: np.ndarray, bandwidth: float
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the Gaussian-kernel density on a padded uniform grid."""
    pad = GRID_PAD_BANDWIDTHS * bandwidth
    grid = np.linspace(normalized.min() - pad, normalized.max() + pad, KDE_GRID_POINTS)
    z = (grid[:, None] - normalized[None, :]) / bandwidth
    dens = np.exp(-0.5 * z * z).sum(axis=1)
    dens /= normalized.size * bandwidth * np.sqrt(2.0 * np.pi)
    return grid, dens


def score_distribution(
    scores: np.ndarray, samples: int | None = None, seed: int = 0
) -> DistributionExport:
    raw = subsample_scores(scores, samples, seed)
    normalized = normalize_scores(raw)
    bandwidth = silverman_bandwidth(normalized)
    kde_x, kde_y = gaussian_kde_curve(normalized, bandwidth)
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(normalized, bins=edges)
    return DistributionExport(
        normalized=np.sort(normalized),
        kde_x=kde_x,
        kde_y=kde_y,
        bandwidth=bandwidth,
        histogram_counts=counts.astype(np.int64),
        histogram_edges=edges,
        sample_size=int(raw.size),
    )


def write_distribution_csv(export: DistributionExport, path: str) -> None:
    """Long-format CSV: series in {score, kde, histogram}.

    score rows carry (rank, normalized value); kde rows (x, density);
    histogram rows (bin center, count).
    """
    lines = ["series,x,y"]
    for rank, value in enumerate(export.normalized):
        lines.append(f"score,{rank},{format_float(value)}")
    for x, y in zip(export.kde_x, export.kde_y):
        lines.append(f"kde,{format_float(x)},{format_float(y)}")
    centers = 0.5 * (export.histogram_edges[:-1] + export.histogram_edges[1:])
    for x, count in zip(centers, export.histogram_counts):
        lines.append(f"histogram,{format_float(x)},{int(count)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
