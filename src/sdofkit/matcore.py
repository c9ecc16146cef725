"""Complex dense matrix primitives.

Tolerance-aware rank, null-space and orthogonal-complement bases, the
dimension arithmetic of channel images, and a generalized singular value
decomposition (GSVD) of two matrices sharing a row space together with the
aligned pairs read from it.

All operations are pure functions of their inputs; returned arrays are
freshly allocated and never alias the arguments.  Matrices are dense
complex ndarrays with vectors as columns; zero-column matrices are valid
inputs everywhere and represent zero-dimensional subspaces.

Every rank cutoff depends only on the call's arguments.  A matrix's own
rank uses ``max(m, n) * eps * sigma_max``; the rank of a channel image
``A @ B`` is decided only by :func:`image_quotient`, which ties its cutoff
to the factor norms.  Aligned precoder pairs are read from a GSVD only by
:func:`aligned_pairs`.  No process-wide setting changes either decision.

SciPy, used only for the cosine-sine step of a GSVD whose two spans share a
block, is imported at the first such step, so importing this module (and
commands that compute no such GSVD) never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput

__all__ = [
    "GsvdResult",
    "rank_tol",
    "null_basis",
    "orth_complement",
    "gsvd",
    "aligned_pairs",
    "image_quotient",
]

_EPS = float(np.finfo(np.float64).eps)

_PRODUCT_MARGIN = 1e4  # see image_quotient


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex ndarray, treating 1-D input as a column."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _cutoff(a: np.ndarray, sv: np.ndarray) -> float:
    return max(a.shape) * _EPS * float(sv[0]) if a.size else 0.0


def _count_above(a: np.ndarray, cutoff: float) -> int:
    if a.size == 0:
        return 0
    return int(np.count_nonzero(np.linalg.svd(a, compute_uv=False) > cutoff))


def rank_tol(a) -> int:
    """Numerical rank: number of singular values above ``max(m, n) * eps * sigma_max``."""
    m = _as_matrix(a)
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(sv > _cutoff(m, sv)))


def null_basis(a) -> np.ndarray:
    """Orthonormal basis N of the null space of ``a``: a @ N == 0.

    The basis has ``cols - rank`` columns; a trivial null space yields a
    zero-column matrix.
    """
    m = _as_matrix(a)
    n = m.shape[1]
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if m.shape[0] == 0:
        return np.eye(n, dtype=np.complex128)
    _, sv, vh = np.linalg.svd(m, full_matrices=True)
    r = int(np.count_nonzero(sv > _cutoff(m, sv)))
    return vh[r:, :].conj().T.copy()


def orth_complement(a) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(``a``).

    Equivalent to the null-space basis of ``a``'s conjugate transpose;
    width is ``rows - rank``.
    """
    m = _as_matrix(a)
    rows = m.shape[0]
    if rows == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if m.shape[1] == 0:
        return np.eye(rows, dtype=np.complex128)
    u, sv, _ = np.linalg.svd(m, full_matrices=True)
    r = int(np.count_nonzero(sv > _cutoff(m, sv)))
    return u[:, r:].copy()


def image_quotient(x, y=None) -> int:
    """Dimension of span(A @ B) outside span(C @ D) for the factor pairs
    ``x = (A, B)`` and ``y = (C, D)``; rank(A @ B) when ``y`` is None.

    A product that is zero in exact arithmetic comes out as noise of size
    ``eps * |A| * |B|``, which a self-relative cutoff would mistake for
    full rank.  Every rank here therefore counts the singular values above
    ``1e4 * dim * eps * max(|A| * |B|, |C| * |D|)`` (Frobenius norms, dim
    the largest factor dimension).  The margin of 1e4 puts the cutoff a few
    orders of magnitude above the round-off that multi-stage assembly
    chains accumulate, and many orders below generic signal directions.
    """
    images = []
    scale = 0.0
    dim = 1
    for a, b in (x,) if y is None else (x, y):
        ma, mb = _as_matrix(a), _as_matrix(b)
        if ma.size and mb.size:
            scale = max(scale, float(np.linalg.norm(ma)) * float(np.linalg.norm(mb)))
            dim = max(dim, ma.shape[0], ma.shape[1], mb.shape[1])
        images.append(ma @ mb)
    cutoff = _PRODUCT_MARGIN * dim * _EPS * scale
    if y is None:
        return _count_above(images[0], cutoff)
    return _count_above(np.hstack(images), cutoff) - _count_above(images[1], cutoff)


@dataclass(frozen=True, eq=False)
class GsvdResult:
    """GSVD of a pair (A: N x M, B: N x K) sharing the row dimension N.

    The factorization satisfies ``A @ psi1 == x @ D1^H`` and
    ``B @ psi2 == x @ D2^H`` where D1 (M x k) carries an identity block on
    its first ``r`` columns, the positive diagonal ``lam1`` on the next
    ``s``, and zeros after; D2 (K x k) is zero on its first ``K - s - p``
    rows, carries ``lam2`` against columns r+1..r+s, and an identity block
    in its lower-right p x p corner.  ``lam1**2 + lam2**2 == 1``
    elementwise, with generalized singular values ``lam1/lam2`` in
    descending order.

    Column-slice views expose the standard block partition: ``psi11``,
    ``psi12``, ``psi13`` split ``psi1`` at r and r+s; ``psi21``, ``psi22``,
    ``psi23`` split ``psi2`` at K-s-p and K-p; ``x1``, ``x2``, ``x3`` split
    ``x`` at r and r+s.  span(x1) = span(A) ∩ span(B)^perp,
    span(x2) = span(A) ∩ span(B), span(x3) = span(A)^perp ∩ span(B).
    """

    psi1: np.ndarray
    psi2: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray
    x: np.ndarray
    k: int
    r: int
    s: int
    p: int

    @property
    def psi11(self) -> np.ndarray:
        return self.psi1[:, : self.r]

    @property
    def psi12(self) -> np.ndarray:
        return self.psi1[:, self.r : self.r + self.s]

    @property
    def psi13(self) -> np.ndarray:
        return self.psi1[:, self.r + self.s :]

    @property
    def psi21(self) -> np.ndarray:
        kk = self.psi2.shape[1]
        return self.psi2[:, : kk - self.s - self.p]

    @property
    def psi22(self) -> np.ndarray:
        kk = self.psi2.shape[1]
        return self.psi2[:, kk - self.s - self.p : kk - self.p]

    @property
    def psi23(self) -> np.ndarray:
        kk = self.psi2.shape[1]
        return self.psi2[:, kk - self.p :]

    @property
    def x1(self) -> np.ndarray:
        return self.x[:, : self.r]

    @property
    def x2(self) -> np.ndarray:
        return self.x[:, self.r : self.r + self.s]

    @property
    def x3(self) -> np.ndarray:
        return self.x[:, self.r + self.s :]


def _quadruple(n: int, m: int, kc: int) -> tuple[int, int, int, int]:
    """(k, r, s, p) for generic full-rank inputs of the given shape."""
    k = min(m + kc, n)
    p = k - min(m, n)
    r = k - min(kc, n)
    s = k - p - r
    return k, r, s, p


def gsvd(a, b) -> GsvdResult:
    """Generalized singular value decomposition of a full-rank pair.

    ``a`` (N x M) and ``b`` (N x K) must share the row count and be full
    rank under the default tolerance; rank deficiency that makes the (k, r, s, p)
    dimension quadruple inconsistent with the full-rank formulas raises
    :class:`DegenerateInput`.

    Computed by orthonormal factorization of the stacked pair followed by
    a cosine-sine decomposition; the common factor ``x`` (N x k, full
    column rank) is returned directly and no inner triangular factor is
    ever inverted.
    """
    ma, mb = _as_matrix(a, "a"), _as_matrix(b, "b")
    if ma.shape[0] != mb.shape[0]:
        raise ValueError(f"row counts differ: {ma.shape[0]} vs {mb.shape[0]}")
    n = ma.shape[0]
    m, kc = ma.shape[1], mb.shape[1]

    k, r, s, p = _quadruple(n, m, kc)
    if rank_tol(ma) != min(m, n) or rank_tol(mb) != min(kc, n):
        raise DegenerateInput(
            "rank-deficient input: (k, r, s, p) inconsistent with full-rank formulas"
        )
    z = np.vstack([ma.conj().T, mb.conj().T])
    if s == 0:
        if rank_tol(z) != k:
            raise DegenerateInput("stacked pair is rank deficient")
        return _gsvd_disjoint(ma, mb, n, m, kc, k, r, p)
    # one full SVD of the stacked pair serves both the rank check and the
    # orthonormal factor the cosine-sine step starts from
    uz, sz, vzh = np.linalg.svd(z, full_matrices=True)
    if np.count_nonzero(sz > _cutoff(z, sz)) != k:
        raise DegenerateInput("stacked pair is rank deficient")
    return _gsvd_cs(uz, sz, vzh, m, kc, k, r, s, p)


def aligned_pairs(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aligned pairs of a full-rank pair: (v, w, x) with ``a @ v == b @ w == x``.

    The columns of ``x`` are a basis of span(a) ∩ span(b), ordered by
    descending generalized singular value; its width is :func:`gsvd`'s
    ``s`` and zero when the spans are disjoint.  ``v`` and ``w`` are the
    GSVD's middle factor columns scaled by the inverse diagonals.  Raises
    :class:`DegenerateInput` as :func:`gsvd` does.
    """
    g = gsvd(a, b)
    return g.psi12 / g.lam1, g.psi22 / g.lam2, g.x2


def _gsvd_disjoint(ma, mb, n, m, kc, k, r, p) -> GsvdResult:
    """Construction for s == 0: the two column spans intersect trivially,
    so independent SVDs of A and B supply all blocks."""
    lam = np.zeros(0)
    if m > 0:
        ua, sa, vah = np.linalg.svd(ma, full_matrices=True)
        psi1 = vah.conj().T
        x1 = ua[:, :r] * sa[:r]
    else:
        psi1 = np.zeros((0, 0), dtype=np.complex128)
        x1 = np.zeros((n, 0), dtype=np.complex128)
    if kc > 0:
        ub, sb, vbh = np.linalg.svd(mb, full_matrices=True)
        vb = vbh.conj().T
        # null-space part first (maps to zero), image part last (maps to x3)
        psi2 = np.hstack([vb[:, p:], vb[:, :p]])
        x3 = ub[:, :p] * sb[:p]
    else:
        psi2 = np.zeros((0, 0), dtype=np.complex128)
        x3 = np.zeros((n, 0), dtype=np.complex128)
    x = np.hstack([x1, x3])
    return GsvdResult(psi1=psi1, psi2=psi2, lam1=lam, lam2=lam.copy(), x=x,
                      k=k, r=r, s=0, p=p)


def cossin(x, p, q, separate):
    """:func:`scipy.linalg.cossin`, with SciPy imported on the first call."""
    from scipy.linalg import cossin as scipy_cossin

    return scipy_cossin(x, p=p, q=q, separate=separate)


def _gsvd_cs(uz, sz, vzh, m, kc, k, r, s, p) -> GsvdResult:
    rfac = sz[:k, None] * vzh[:k, :]
    # uz's trailing columns complete the orthonormal factor to a square
    # unitary, as the CS decomposition requires; s > 0 guarantees k < M+K.
    # Only the diagonal blocks of the unitary factors are used, so they are
    # taken unassembled.
    (psi1, psi2), theta, (v1h, _) = cossin(uz, p=m, q=k, separate=True)
    # With k = N columns of a unitary split at row m, SciPy's identity
    # blocks are exactly r and p wide and theta has exactly
    # min(m, k, kc, m+kc-k) = s entries, so theta alone carries the
    # diagonals of D1 and D2.
    lam1, lam2 = np.cos(theta), np.sin(theta)
    x = rfac.conj().T @ v1h.conj().T
    if np.any(lam1 <= 0) or np.any(lam2 <= 0):
        raise DegenerateInput("cosine-sine angles inconsistent with rank counts")

    order = np.argsort(-lam1, kind="stable")
    if not np.array_equal(order, np.arange(s)):
        lam1 = lam1[order]
        lam2 = lam2[order]
        psi1 = psi1.copy()
        psi2 = psi2.copy()
        x = x.copy()
        psi1[:, r : r + s] = psi1[:, r : r + s][:, order]
        psi2[:, kc - s - p : kc - p] = psi2[:, kc - s - p : kc - p][:, order]
        x[:, r : r + s] = x[:, r : r + s][:, order]

    return GsvdResult(psi1=psi1, psi2=psi2, lam1=lam1, lam2=lam2, x=x,
                      k=k, r=r, s=s, p=p)
