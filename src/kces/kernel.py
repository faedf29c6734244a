"""Infinite-width ReLU kernel Gram matrix and the GKC functional.

The Gram matrix over unit-norm aggregated rows x_i is

    H[i, j] = d * (pi - arccos(d)) / (2 pi),   d = <x_i, x_j>,

so H[i, i] = 0.5 exactly and |H[i, j]| <= 0.5.  GKC is the label-norm
functional 2 y^T H^{-1} y / N, summed over label columns, evaluated
through a cached Cholesky factorization.  This module never forms an
explicit inverse; the fast scoring route's cache does, once per scoring
run, by solving the identity against the cached factor.  When the
factorization fails or its smallest pivot marks the matrix as
numerically rank-deficient, a small ridge proportional to trace(H)/N is
added once and flagged.

The rebuild (Gram product, factorization, solves and the residual
check) runs entirely in scipy's BLAS and LAPACK.  numpy and scipy wheels
each bundle their own OpenBLAS with its own thread pool, and a product
in numpy's runtime leaves that pool spinning while scipy's factors, which
made each factorization several times slower.  The BLAS calls here hand
over the operands numpy's matmul would, so every value is the one numpy
computes, to the bit.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from .errors import IllConditionedError, InputError, KcesWarning, NumericError
from .graph import AggregatedFeatures
from .pseudolabel import LabelMatrix

RIDGE_SCALE = 1e-8
SOLVE_RESIDUAL_TOL = 1e-8
#: A Cholesky pivot below sqrt(N * eps * max_ii h) marks the matrix as
#: numerically rank-deficient even when the factorization routine returns.
PIVOT_RTOL = np.finfo(np.float64).eps
#: Refinement passes allowed before the residual gate gives up.
MAX_REFINEMENTS = 2

GRAM_MAGIC = b"GKGM"
GRAM_HEADER = struct.Struct("<4sII4x")  # magic, u32 N, u32 reserved, padding


def arccos_kernel(dots: np.ndarray) -> np.ndarray:
    """Apply the kernel map entrywise to a matrix of inner products.

    Works in place: a float64 array is overwritten with the result and
    returned, so callers must not rely on their input surviving.  The
    operations run in the order of d * (pi - arccos(d)) / (2 pi), so the
    values are those of that expression to the bit.
    """
    d = np.asarray(dots, dtype=np.float64)
    np.clip(d, -1.0, 1.0, out=d)
    t = np.arccos(d)
    np.subtract(np.pi, t, out=t)
    d *= t
    d /= 2.0 * np.pi
    return d


class GramMatrix:
    """Kernel Gram matrix with its Cholesky factor and ridge bookkeeping.

    ``h`` is the raw (pre-ridge) matrix, C-ordered and exactly
    symmetric; ``ridge`` is 0.0 unless the factorization needed
    regularization; ``chol_lower`` factors h + ridge * I and is kept in
    the Fortran order the LAPACK solves take.  ``lambda_min`` is the
    smallest eigenvalue of the raw matrix, computed on first access.
    The instance takes ownership of both arrays and makes them read-only.
    """

    __slots__ = ("h", "ridge", "chol_lower", "_lambda_min")

    def __init__(self, h: np.ndarray, ridge: float, chol_lower: np.ndarray):
        h.setflags(write=False)
        chol_lower.setflags(write=False)
        self.h = h
        self.ridge = float(ridge)
        self.chol_lower = chol_lower
        self._lambda_min = None

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def lambda_min(self) -> float:
        if self._lambda_min is None:
            self._lambda_min = min_eigenvalue(self)
        return self._lambda_min

    def solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        """Raw triangular solve against the cached factor (no residual check)."""
        return scipy.linalg.cho_solve(
            (self.chol_lower, True), rhs, check_finite=False
        )


def _factor_with_ridge(h: np.ndarray):
    # The factorization routine can return on an exactly singular matrix
    # with a tiny lucky pivot whose factor is useless for solves, so a
    # pivot-quality gate decides rank deficiency deterministically.
    pivot_floor = np.sqrt(
        h.shape[0] * PIVOT_RTOL * max(float(np.max(np.diag(h))), 0.0)
    )
    try:
        chol = scipy.linalg.cholesky(h, lower=True, check_finite=False)
        if float(np.min(np.diag(chol))) > pivot_floor:
            return 0.0, chol
    except scipy.linalg.LinAlgError:
        pass
    # Release the rejected factor before the ridged copy is made.
    chol = None
    ridge = RIDGE_SCALE * float(np.trace(h)) / h.shape[0]
    warnings.warn(
        f"Gram matrix not positive definite; adding ridge {ridge:.3e}",
        KcesWarning,
        stacklevel=3,
    )
    hr = np.array(h, order="F")
    np.fill_diagonal(hr, np.diagonal(h) + ridge)
    try:
        return ridge, scipy.linalg.cholesky(
            hr, lower=True, overwrite_a=True, check_finite=False
        )
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(
            "Gram matrix is not factorizable even with ridge"
        ) from exc


def gram_matrix(xt: AggregatedFeatures) -> GramMatrix:
    """Build the Gram matrix of the aggregated rows and factor it.

    The inner products come from one syrk into the lower triangle,
    mirrored, so they are exactly symmetric and equal to numpy's
    ``rows @ rows.T``; the diagonal is pinned to exact unit dot products,
    so H[i, i] is 0.5 to the last bit.
    """
    rows = xt.matrix
    # LAPACK's factorization returns NaN factors without an error, and the
    # factor and solve calls skip scipy's finiteness scans.
    if not np.isfinite(rows).all():
        raise InputError("aggregated rows must be finite")
    # rows.T is the Fortran-ordered view of the C-ordered rows.
    tri = blas.dsyrk(1.0, rows.T, trans=1, lower=1)
    dots = tri.T + tri
    tri = None  # freed before the kernel map takes its temporary
    np.fill_diagonal(dots, 1.0)
    h = arccos_kernel(dots)
    ridge, chol = _factor_with_ridge(h)
    return GramMatrix(h, ridge, chol)


def gram_from_matrix(h: np.ndarray) -> GramMatrix:
    """Re-wrap a copy of a stored Gram matrix (refactorizes; ridge re-decided)."""
    h = np.array(h, dtype=np.float64, order="C")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InputError("Gram matrix must be square")
    if not np.isfinite(h).all():
        raise InputError("Gram matrix must be finite")
    ridge, chol = _factor_with_ridge(h)
    return GramMatrix(h, ridge, chol)


def min_eigenvalue(gm: GramMatrix) -> float:
    """Smallest eigenvalue of the raw (pre-ridge) Gram matrix."""
    try:
        return float(np.linalg.eigvalsh(gm.h)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericError("eigenvalue computation failed") from exc


def _h_times(h: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``h @ z`` for a C-ordered h, in scipy's BLAS.

    numpy's matmul hands a column right-hand side to gemv and a
    Fortran-ordered matrix to gemm as a transposed operand; the same
    calls here give the same bits.  Another operand order moves the
    residual's rounding noise, and with it the residual gate.
    """
    if z.ndim == 1 or z.shape[1] == 1:
        return blas.dgemv(1.0, h.T, z.ravel(), trans=1).reshape(z.shape)
    # cho_solve returns Fortran order, so this never copies.
    return blas.dgemm(1.0, np.asfortranarray(z), h.T, trans_a=1).T


def solve_spd(gm: GramMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve (h + ridge I) z = rhs via the cached factor, with residual check.

    A marginal first solve gets up to two rounds of iterative refinement;
    the relative residual must come out below 1e-8 or the system is
    reported ill-conditioned.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    rhs_norm = float(np.linalg.norm(rhs))
    z = gm.solve_factored(rhs)
    residual = rhs - (_h_times(gm.h, z) + gm.ridge * z)
    res_norm = float(np.linalg.norm(residual))
    refinements = 0
    while res_norm > SOLVE_RESIDUAL_TOL * rhs_norm and refinements < MAX_REFINEMENTS:
        z = z + gm.solve_factored(residual)
        residual = rhs - (_h_times(gm.h, z) + gm.ridge * z)
        res_norm = float(np.linalg.norm(residual))
        refinements += 1
    if res_norm > SOLVE_RESIDUAL_TOL * rhs_norm:
        raise IllConditionedError(
            f"solve residual {res_norm:.3e} exceeds tolerance "
            f"{SOLVE_RESIDUAL_TOL:.1e} * {rhs_norm:.3e}",
            residual=res_norm,
        )
    return z


@dataclass(frozen=True)
class GkcValue:
    """GKC total, its per-column contributions, and the ridge flag."""

    value: float
    per_column: tuple
    ridge_used: bool


def gkc(gm: GramMatrix, labels: LabelMatrix) -> GkcValue:
    """Label-norm complexity 2 y^T H^{-1} y / N summed over label columns."""
    if labels.columns.shape[0] != gm.n:
        raise InputError(
            f"labels have {labels.columns.shape[0]} rows, Gram matrix has {gm.n}"
        )
    z = solve_spd(gm, labels.columns)
    per_column = tuple(
        float(2.0 * (labels.columns[:, c] @ z[:, c]) / gm.n)
        for c in range(labels.columns.shape[1])
    )
    return GkcValue(
        value=float(sum(per_column)),
        per_column=per_column,
        ridge_used=gm.ridge > 0.0,
    )


def save_gram(gm: GramMatrix, path) -> None:
    """Dump the raw Gram matrix: 16-byte header, then row-major float64."""
    with open(path, "wb") as fh:
        fh.write(GRAM_HEADER.pack(GRAM_MAGIC, gm.n, 0))
        fh.write(np.ascontiguousarray(gm.h, dtype="<f8").tobytes())


def load_gram(path) -> GramMatrix:
    """Load a dumped Gram matrix and refactorize it."""
    with open(path, "rb") as fh:
        header = fh.read(GRAM_HEADER.size)
        if len(header) != GRAM_HEADER.size:
            raise InputError(f"{path}: truncated header")
        magic, n, _reserved = GRAM_HEADER.unpack(header)
        if magic != GRAM_MAGIC:
            raise InputError(f"{path}: bad magic {magic!r}")
        payload = fh.read()
    expected = 8 * n * n
    if len(payload) != expected:
        raise InputError(
            f"{path}: expected {expected} payload bytes, found {len(payload)}"
        )
    h = np.frombuffer(payload, dtype="<f8").reshape(n, n)
    return gram_from_matrix(h)
