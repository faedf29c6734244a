"""Infinite-width ReLU kernel Gram matrix and the GKC functional.

The Gram matrix over unit-norm aggregated rows x_i is

    H[i, j] = d * (pi - arccos(d)) / (2 pi),   d = <x_i, x_j>,

so H[i, i] = 0.5 exactly and |H[i, j]| <= 0.5.  GKC is the label-norm
functional 2 y^T H^{-1} y / N, summed over label columns, evaluated
through a cached Cholesky factorization H = L L^T.  No explicit H^{-1}
is ever formed: this module solves against L, and the fast scoring
route's cache inverts the triangular L once per scoring run, in L's own
memory, so the factor does not outlive the cache's setup.  When the
factorization fails or its smallest pivot marks the matrix as
numerically rank-deficient, a small ridge proportional to trace(H)/N is
added once and flagged.  The ridge is decided once per scoring run, on
the base graph: every edge removal is factored under the base's ridge,
a ridged one in a single factorization with no flag.

An edge removal changes only the aggregated rows of the closed
neighborhoods of its endpoints, so ``GramPatcher`` rebuilds its Gram
matrix from the base's: it maps only the changed columns through the
kernel and copies every other entry, into buffers reused across edges.

Every solve is accepted by its normwise backward error (Rigal and
Gaches; Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
section 7.1): for each label column b with solution z and residual
r = b - (H + ridge I) z,

    |r|_inf / (|H + ridge I|_inf |z|_inf + |b|_inf) <= 1e-12.

A backward-stable Cholesky solve leaves an error near machine epsilon
however large z is, so the gate fails only on a broken factor, and then
``NumericError`` is raised.  A solve is never refined.

The rebuild (Gram product, factorization, solve and the residual
product) runs entirely in scipy's BLAS and LAPACK.  numpy and scipy
wheels each bundle their own OpenBLAS with its own thread pool, and a
product in numpy's runtime leaves that pool spinning while scipy's
factors, which made each factorization several times slower.

OpenBLAS factors a matrix with different blockings on one thread and on
several, so from N of about 128 the two factors differ in their last
bits.  ``gram_matrix`` and ``GramPatcher.gram`` therefore run on one
thread of scipy's OpenBLAS (``_one_blas_thread``), and so does every
scoring run, so that a score's bits do not depend on the thread count.
The count is the runtime's, and so process-wide: while kces holds it at
one, other threads' calls into scipy's BLAS run on one thread too.
Where scipy's OpenBLAS cannot be found, the count is left alone.
"""

from __future__ import annotations

import functools
import os
import threading
import warnings

import numpy as np
import scipy
import scipy.linalg
from scipy.linalg import blas, lapack

from .errors import InputError, KcesWarning, NumericError
from .pseudolabel import LabelMatrix

RIDGE_SCALE = 1e-8
#: The largest normwise backward error a solve may leave.
BACKWARD_ERROR_TOL = 1e-12
#: A Cholesky pivot below sqrt(N * eps * max_ii h) marks the matrix as
#: numerically rank-deficient even when the factorization routine returns.
PIVOT_RTOL = np.finfo(np.float64).eps


@functools.cache
def _openblas_swap():
    """A function that sets the thread count of scipy's bundled OpenBLAS
    and returns the previous count, or None where that runtime cannot be
    found or does not obey.

    The runtime's thread-local setter is taken where it has one; in a
    pthreads build it sets the process's count.
    """
    import ctypes
    import glob

    root = os.path.dirname(scipy.__file__)
    for path in sorted(
        glob.glob(os.path.join(root + ".libs", "libscipy_openblas*"))
        + glob.glob(os.path.join(root, ".dylibs", "libscipy_openblas*"))
    ):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        local = getattr(lib, "openblas_set_num_threads_local", None)
        if local is not None:
            local.restype = ctypes.c_int
            local.argtypes = [ctypes.c_int]
            swap = local
        else:
            setter = lib.scipy_openblas_set_num_threads
            setter.argtypes = [ctypes.c_int]

            def swap(count, get=get, setter=setter):
                old = get()
                setter(count)
                return old

        old = swap(1)
        obeys = get() == 1
        swap(old)
        if obeys:
            return swap
    return None


class _OneBlasThread:
    """Context manager that runs scipy's OpenBLAS on one thread inside it.

    Entries nest, from any thread: the first sets the count to one and
    the last restores it.  Where ``_openblas_swap`` finds no runtime it
    does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        swap = _openblas_swap()
        with self._lock:
            if self._depth == 0 and swap is not None:
                self._saved = swap(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._saved is not None:
                _openblas_swap()(self._saved)
                self._saved = None


_one_blas_thread = _OneBlasThread()


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the host's count where the
    platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
    smallest eigenvalue of the raw matrix and ``norm_inf`` the inf-norm
    every solve's backward error is scaled by, each computed on first
    access and kept.
    The instance takes ownership of both arrays and makes them read-only.
    """

    __slots__ = ("h", "ridge", "chol_lower", "_lambda_min", "_norm_inf")

    def __init__(self, h: np.ndarray, ridge: float, chol_lower: np.ndarray):
        h.setflags(write=False)
        chol_lower.setflags(write=False)
        self.h = h
        self.ridge = float(ridge)
        self.chol_lower = chol_lower
        self._lambda_min = None
        self._norm_inf = None

    @property
    def n(self) -> int:
        return self.h.shape[0]

    @property
    def lambda_min(self) -> float:
        if self._lambda_min is None:
            try:
                self._lambda_min = float(np.linalg.eigvalsh(self.h)[0])
            except np.linalg.LinAlgError as exc:
                raise NumericError("eigenvalue computation failed") from exc
        return self._lambda_min

    @property
    def norm_inf(self) -> float:
        """|h|_inf + ridge, which bounds |h + ridge I|_inf and equals it
        on a non-negative diagonal such as a Gram matrix's 0.5."""
        # h is symmetric, so h.T is h in Fortran order, read in place.
        if self._norm_inf is None:
            self._norm_inf = float(lapack.dlange("I", self.h.T)) + self.ridge
        return self._norm_inf


def _factor_with_ridge(h: np.ndarray, ridge: float = 0.0, work=None):
    """Factor h + ridge I; returns the ridge used and the lower factor.

    A positive ``ridge`` is taken as decided: h is factored once with it,
    and nothing is flagged.  From 0.0, h is factored plain first, and a
    failure or a rank-deficient pivot adds ``RIDGE_SCALE * trace(h) / N``
    with a warning.  h must be C-ordered and exactly symmetric, so that
    h.T is h in Fortran order.  The factor is built in ``work``, an N x N
    Fortran-ordered array, or in a new one.
    """
    if work is None:
        work = np.empty(h.shape, order="F")
    if ridge == 0.0:
        # The factorization routine can return on an exactly singular
        # matrix with a tiny lucky pivot whose factor is useless for
        # solves, so a pivot-quality gate decides rank deficiency
        # deterministically.
        pivot_floor = np.sqrt(
            h.shape[0] * PIVOT_RTOL * max(float(np.max(np.diag(h))), 0.0)
        )
        np.copyto(work, h.T)
        try:
            chol = scipy.linalg.cholesky(
                work, lower=True, overwrite_a=True, check_finite=False
            )
            if float(np.min(np.diag(chol))) > pivot_floor:
                return 0.0, chol
        except scipy.linalg.LinAlgError:
            pass
        ridge = RIDGE_SCALE * float(np.trace(h)) / h.shape[0]
        warnings.warn(
            f"Gram matrix not positive definite; adding ridge {ridge:.3e}",
            KcesWarning,
            stacklevel=3,
        )
    np.copyto(work, h.T)
    np.fill_diagonal(work, np.diagonal(h) + ridge)
    try:
        return ridge, scipy.linalg.cholesky(
            work, lower=True, overwrite_a=True, check_finite=False
        )
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(
            "Gram matrix is not factorizable even with ridge"
        ) from exc


def _lower_dots(rows: np.ndarray, out=None) -> np.ndarray:
    """Inner products of the rows in the lower triangle of ``out``, a
    Fortran-ordered N x N array, or of a new zeroed one.  The upper
    triangle is left as it was."""
    # LAPACK's factorization returns NaN factors without an error, and the
    # factor and solve calls skip scipy's finiteness scans.
    if not np.isfinite(rows).all():
        raise InputError("aggregated rows must be finite")
    # rows.T is the Fortran-ordered view of the C-ordered rows.
    return blas.dsyrk(1.0, rows.T, trans=1, lower=1, c=out, overwrite_c=1)


def gram_matrix(rows: np.ndarray, ridge: float = 0.0) -> GramMatrix:
    """Build the Gram matrix of the unit rows ``rows`` and factor it.

    The inner products come from one syrk into the lower triangle,
    mirrored, so they are exactly symmetric and equal to numpy's
    ``rows @ rows.T``; the diagonal is pinned to exact unit dot products,
    so H[i, i] is 0.5 to the last bit.  ``ridge`` is where the
    factorization starts (see ``_factor_with_ridge``): an edge removal
    is scored under the ridge its base graph got.  It runs on one
    OpenBLAS thread.
    """
    with _one_blas_thread:
        tri = _lower_dots(np.asarray(rows, dtype=np.float64))
        dots = tri.T + tri
        tri = None  # freed before the kernel map takes its temporary
        np.fill_diagonal(dots, 1.0)
        h = arccos_kernel(dots)
        ridge, chol = _factor_with_ridge(h, ridge)
    return GramMatrix(h, ridge, chol)


class GramPatcher:
    """Gram matrices of row sets that differ from a base's at a few rows.

    ``gram(rows, changed)`` equals ``gram_matrix(rows, base.ridge)`` bit
    for bit when ``rows`` equal the base's rows except at the
    sorted indices ``changed``.  The inner products come from the syrk
    ``gram_matrix`` makes, so every entry has the same bits, but only the
    changed columns are taken out of the triangle and mapped through the
    kernel; every other entry is copied from ``base.h``.  (A separate
    product for the changed entries would not do: OpenBLAS rounds a
    product's edge tiles differently.)  The factorization starts from
    the base's ridge, so a removal from a ridged base is factored once.

    The matrix and its factor live in two N x N buffers that every call
    reuses, so a returned GramMatrix holds only until the next call.  The
    syrk writes into the factor's buffer before the factorization does.
    Like ``gram_matrix``, it runs on one OpenBLAS thread.
    """

    def __init__(self, base: GramMatrix):
        # The base's factor is not kept: the scoring cache reuses its memory.
        self.base_h = base.h
        self.ridge = base.ridge
        self._h = None
        self._work = None

    def gram(self, rows: np.ndarray, changed: np.ndarray) -> GramMatrix:
        n = self.base_h.shape[0]
        if self._h is None:
            # Made on first use: a run whose edges all take the fast route
            # never touches them.
            self._h = np.empty((n, n))
            self._work = np.empty((n, n), order="F")
        with _one_blas_thread:
            tri = _lower_dots(rows, self._work)
            # Column c of the mirrored products is tri[i, c] on and below the
            # diagonal and tri[c, i] above it; the syrk does not touch the
            # upper triangle, which holds what the last call left there.
            panel = tri[:, changed]
            above = np.arange(n)[:, None] < changed
            panel[above] = tri[changed].T[above]
            # gram_matrix's mirror adds a zero to every entry, turning -0.0
            # into 0.0; so does this.
            panel += 0.0
            panel[changed, np.arange(changed.size)] = 1.0
            panel = arccos_kernel(panel)
            h = self._h
            np.copyto(h, self.base_h)
            h[:, changed] = panel
            h[changed] = panel.T
            ridge, chol = _factor_with_ridge(h, self.ridge, self._work)
        # Read-only views: the buffers stay writable for the next call.
        return GramMatrix(h.view(), ridge, chol.view())


def solve_spd(gm: GramMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve (h + ridge I) z = rhs with the cached factor, one solve.

    Raises ``NumericError`` when a column's normwise backward
    error exceeds ``BACKWARD_ERROR_TOL`` (see the module docstring).
    ``rhs`` is a vector or an N x C matrix of columns.
    """
    b = np.asarray(rhs, dtype=np.float64).reshape(gm.n, -1)
    z, _ = lapack.dpotrs(gm.chol_lower, b, lower=1)
    # h is symmetric, so h.T is h in Fortran order: the residual product
    # reads it in place, with no N x N temporary.
    r = b - blas.dgemm(1.0, gm.h.T, z) - gm.ridge * z
    worst = np.abs(r).max(axis=0)
    scale = gm.norm_inf * np.abs(z).max(axis=0) + np.abs(b).max(axis=0)
    # Written as a product, so a zero column passes and a NaN fails.
    ok = worst <= BACKWARD_ERROR_TOL * scale
    if not ok.all():
        with np.errstate(divide="ignore", invalid="ignore"):
            err = float(np.max(np.where(ok, 0.0, worst / scale)))
        raise NumericError(
            f"solve backward error {err:.3e} exceeds {BACKWARD_ERROR_TOL:.0e}"
        )
    return z.reshape(np.shape(rhs))


def solve_labels(gm: GramMatrix, labels: LabelMatrix):
    """Return the complexity of ``labels`` and its solve z = H^-1 y."""
    if labels.columns.shape[0] != gm.n:
        raise InputError(
            f"labels have {labels.columns.shape[0]} rows, Gram matrix has {gm.n}"
        )
    z = solve_spd(gm, labels.columns)
    value = sum(
        float(2.0 * (labels.columns[:, c] @ z[:, c]) / gm.n)
        for c in range(labels.columns.shape[1])
    )
    return float(value), z


def gkc(gm: GramMatrix, labels: LabelMatrix) -> float:
    """Label-norm complexity 2 y^T H^{-1} y / N summed over label columns."""
    return solve_labels(gm, labels)[0]
