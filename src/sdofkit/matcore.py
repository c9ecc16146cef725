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
to the factor norms (:func:`_image_cutoff`, the one place of that rule).
Each quotient is one SVD call (:func:`_quotient_counts`), and so is each
score of a precoder pair, whose three quotients run as one zero-padded
stack: a zero row or a masked column adds only zero singular values, so
the padding changes no count, and no cutoff changes its bits.  Aligned
precoder pairs are read from a GSVD only by :func:`aligned_pairs`.  No
process-wide setting changes either decision.

The public functions also take (T, m, n) stacks of matrices of one shape
and decide each item as the 2-D call decides it, bitwise; a 2-D input
runs as a plain matrix and gives the same int or matrix as ever.  A basis
of a stack needs one width, and a GSVD of a stack one path, so items
whose ranks or checks differ raise :class:`_StackSplit`; what runs
instead is the caller's choice.

Inputs are checked at the public edge and trusted inside.  Every public
function here coerces its matrix arguments to complex and rejects
non-finite entries with ``ValueError``: NumPy's SVD of such a matrix
raises ``LinAlgError`` for NaN, prints a LAPACK error to stdout for inf,
and in a loop of such calls has failed to return.  The public rank,
basis and quotient functions each have a private body (``_rank``,
``_null_basis``, ``_orth_complement``, ``_image_quotient``) that skips
the check.  The other layers call the bodies only on the matrices of
channel sets and precoder pairs, which check themselves where they are
built (or were drawn by the package), and on products and bases of those.

This module is the one owner of factorizations: every SVD, singular
value and least-squares solve in the package comes from its three
private entries, :func:`_singular_values` (the one place that says an
empty matrix has none), :func:`_svd` and :func:`_lstsq`, so each rank
and basis rule can be read here.  No other module calls an
``np.linalg`` function.

It is also the one owner of magnitudes: the Frobenius norms
(:func:`_frobenius`), column norms (:func:`_column_norms`) and log-dets
of ``I + X X^H`` (:func:`_log2det_gram`) that the other layers take, and
the image cutoffs.  Each is computed as NumPy computes it, so a result
that NumPy gives finite keeps its bits; only one that overflows, or a
norm whose sum of squares underflows, is taken again on a rescaled
input, so a magnitude whose true value lies in the float range comes out
finite, with no overflow warning, and a tiny nonzero norm is not read
as zero.  An image
cutoff multiplies eps into each norm product as it forms it: eps is a
power of two, so that changes no finite cutoff's bits.

The cosine-sine step of a GSVD whose spans share a block is LAPACK's
``zuncsd``, one item at a time, from SciPy's compiled LAPACK module,
which the first such step loads alone: importing this module (and
commands that compute no such GSVD) never loads SciPy, and nothing here
loads ``scipy.linalg``.
"""

from __future__ import annotations

import functools
import math
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

# a norm below this has a sum of squares below the normal float range (2**-1022)
_NORM_FLOOR = 2.0 ** -511


def _as_matrices(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex matrix (1-D input is a column) or a (T, m, n)
    stack of matrices."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim not in (2, 3):
        raise ValueError(f"{name} must be 2-D or a stack of 2-D, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


class _StackSplit(Exception):
    """The items of a stack need different paths."""


def _agreed(keys):
    """The key that every item of a stack shares, one row of ``keys`` per
    item; a key that is not an array is a single matrix's.

    Raises :class:`_StackSplit` when some item's key differs from the first
    item's.
    """
    if not isinstance(keys, np.ndarray):
        return keys
    if (keys != keys[0]).any():
        raise _StackSplit("the items of a stack disagree")
    return keys[0]


def _frobenius(m: np.ndarray):
    """Frobenius norm of a finite matrix or vector (a float), or of each
    item of a stack, bitwise ``np.linalg.norm`` of the matrix wherever that
    is finite.  A matrix or vector with a non-finite entry gives NaN, with
    no warning, so that one call both checks and sizes it.

    That call sums a matrix as one strided BLAS dot over its real parts
    plus one over its imaginary parts, in memory order; a C-contiguous
    stack, as every stack built by ``np.stack``, ``np.concatenate`` or
    ``matmul`` is, makes the same dots as one batched call.  A sum of
    squares that overflows (entries above about 1e154), or that falls
    below the normal range on a nonzero matrix (a norm under 2**-511), is
    taken again, on the matrix scaled by its largest entry modulus.
    """
    if m.ndim < 3:
        # np.linalg.norm's two dots without its dispatch: np.vdot makes ndarray.dot's
        # BLAS ddot without its overflow warning; math.sqrt rounds as np.sqrt does
        flat = m.ravel(order="K")
        re, im = flat.real, flat.imag
        norm = math.sqrt(np.vdot(re, re) + np.vdot(im, im))
        if (norm == math.inf or norm < _NORM_FLOOR) and m.size:
            peak = float(np.abs(m).max())
            if peak > 0:  # a zero matrix keeps its zero norm
                with np.errstate(invalid="ignore"):  # an infinite entry over peak is NaN
                    norm = peak * _frobenius(m / peak)
        return norm
    flat = m.reshape(len(m), 1, -1)
    re, im = flat.real, flat.imag
    with np.errstate(over="ignore"):
        norms = np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0]
    # an empty item's zero norm is exact
    for i in np.flatnonzero((norms == np.inf) | ((norms < _NORM_FLOOR) & bool(m.size))):
        norms[i] = _frobenius(m[i])
    return norms


def _column_norms(m: np.ndarray) -> np.ndarray:
    """2-norm of each column of a finite matrix, or of each item of a stack,
    bitwise ``np.linalg.norm(m, axis=-2)`` wherever that is finite; a column
    whose sum of squares overflows is taken again by :func:`_frobenius`."""
    # np.linalg.norm's own sum for one axis, without its dispatch; a square
    # can overflow, and the imaginary part of its product then be inf - inf
    with np.errstate(all="ignore"):  # cheaper to enter than over= and invalid=
        norms = np.sqrt(np.add.reduce((m.conj() * m).real, axis=-2))
    # a list test: an array comparison costs ~4 us on a few columns
    if math.inf in norms.ravel().tolist():
        for i in np.flatnonzero(norms == np.inf):
            *lead, col = np.unravel_index(i, norms.shape)
            norms[(*lead, col)] = _frobenius(m[(*lead, slice(None), col)])
    return norms


def _log2det_gram(x: np.ndarray) -> np.ndarray:
    """log2 det(I + X X^H) of a matrix, or of each item of a stack, summed
    from the singular values of X.  A term log(1 + sigma^2) whose square
    overflows (sigma above about 1e154) is taken as 2 log(sigma), which
    equals it to rounding there."""
    sv = _singular_values(x)
    with np.errstate(over="ignore"):
        terms = np.log1p(sv * sv)
    over = terms == np.inf
    if over.any():
        terms[over] = 2.0 * np.log(sv[over])
    return np.sum(terms, axis=-1) / math.log(2.0)


def _ranks(m: np.ndarray, sv: np.ndarray):
    """Counts of the singular values above ``max(m, n) * eps * sigma_max``:
    an int for one matrix's values, one count per item for a stack's."""
    # sv.T[0] is each item's sigma_max: a scalar for one matrix, not the
    # 0-d array that sv[..., 0] would give, which costs an array ufunc
    cutoff = max(m.shape[-2:]) * _EPS * sv.T[0] if sv.shape[-1] else 0.0
    if sv.ndim == 1:
        return int(np.count_nonzero(sv > cutoff))
    return np.add.reduce(sv > np.reshape(cutoff, (-1, 1)), axis=-1)


def _singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, descending, or of each item of a stack;
    an empty matrix has none."""
    if m.size == 0:
        return np.zeros(m.shape[:-2] + (0,))
    return np.linalg.svd(m, compute_uv=False)


def _svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD (U, singular values, V) of a matrix or stack, with
    ``m == U[..., :k] * sv @ V[..., :k]^H`` for k = min(m, n): V's columns
    are the right-singular vectors."""
    u, sv, vh = np.linalg.svd(m, full_matrices=True)
    return u, sv, vh.conj().swapaxes(-1, -2)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution X of ``a @ X ~= b``, for a matrix
    or stack, from one thin SVD of ``a``: the singular values at or below
    :func:`_ranks`' cutoff, which ``np.linalg.lstsq(rcond=None)`` also
    uses, are taken as zero."""
    u, sv, vh = np.linalg.svd(a, full_matrices=False)
    c = u.conj().swapaxes(-1, -2) @ b
    # sv[..., :1] is each item's sigma_max, and empty when a has no singular values
    keep = (sv > max(a.shape[-2:]) * _EPS * sv[..., :1])[..., None]
    coords = np.divide(c, sv[..., None], out=np.zeros_like(c), where=keep)
    return vh.conj().swapaxes(-1, -2) @ coords


def _rank(m: np.ndarray):
    """:func:`rank_tol` of a matrix or stack that has passed :func:`_as_matrices`."""
    return _ranks(m, _singular_values(m))


def rank_tol(a):
    """Numerical rank: number of singular values above ``max(m, n) * eps * sigma_max``.

    A (T, m, n) stack gives one rank per item.
    """
    return _rank(_as_matrices(a))


def _identities(lead: tuple, n: int) -> np.ndarray:
    """An n x n identity, or a stack of them when ``lead`` is (T,)."""
    eye = np.eye(n, dtype=np.complex128)
    return np.broadcast_to(eye, lead + (n, n)).copy() if lead else eye


def null_basis(a) -> np.ndarray:
    """Orthonormal basis N of the null space of ``a``: a @ N == 0.

    The basis has ``cols - rank`` columns; a trivial null space yields a
    zero-column matrix.  A (T, m, n) stack gives a stack of bases; its
    items must share their rank (:func:`_agreed`).
    """
    return _null_basis(_as_matrices(a))


def _null_basis(m: np.ndarray) -> np.ndarray:
    """:func:`null_basis` of a matrix or stack that has passed :func:`_as_matrices`."""
    rows, n = m.shape[-2:]
    if n == 0:
        return np.zeros(m.shape[:-2] + (0, 0), dtype=np.complex128)
    if rows == 0:
        return _identities(m.shape[:-2], n)
    _, sv, v = _svd(m)
    return v[..., _agreed(_ranks(m, sv)):].copy()


def orth_complement(a) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(``a``).

    Equivalent to the null-space basis of ``a``'s conjugate transpose;
    width is ``rows - rank``.  Stacks are taken as :func:`null_basis`
    takes them.
    """
    return _orth_complement(_as_matrices(a))


def _orth_complement(m: np.ndarray) -> np.ndarray:
    """:func:`orth_complement` of a matrix or stack that has passed :func:`_as_matrices`."""
    rows, n = m.shape[-2:]
    if rows == 0:
        return np.zeros(m.shape[:-2] + (0, 0), dtype=np.complex128)
    if n == 0:
        return _identities(m.shape[:-2], rows)
    u, sv, _ = _svd(m)
    return u[..., _agreed(_ranks(m, sv)):].copy()


def image_quotient(x, y=None):
    """Dimension of span(A @ B) outside span(C @ D) for the factor pairs
    ``x = (A, B)`` and ``y = (C, D)``; rank(A @ B) when ``y`` is None.

    A product that is zero in exact arithmetic comes out as noise of size
    ``eps * |A| * |B|``, which a self-relative cutoff would mistake for
    full rank.  Every rank here therefore counts the singular values above
    ``1e4 * dim * eps * max(|A| * |B|, |C| * |D|)`` (Frobenius norms, dim
    the largest factor dimension).  The margin of 1e4 puts the cutoff a few
    orders of magnitude above the round-off that multi-stage assembly
    chains accumulate, and many orders below generic signal directions.

    Factors given as (T, m, n) stacks give one dimension per item, each
    with its own cutoff.
    """
    checked = [(_as_matrices(a), _as_matrices(b)) for a, b in ((x,) if y is None else (x, y))]
    return _image_quotient(*checked)


def _image_quotient(x, y=None, norms=None):
    """:func:`image_quotient` of factors that have passed :func:`_as_matrices`.

    ``norms``, when given, holds the factors' :func:`_frobenius` norms in
    the order |A|, |B|, |C|, |D|, so that a caller whose quotients share a
    factor takes its norm once; the result is the same int either way.

    The quotient is :func:`_quotient_counts` of the one item ``[A B | C D]``
    with the columns of ``C D`` marked, under :func:`_image_cutoff`: one SVD
    call, where ``y`` is None too (its marked copy is then zero).
    """
    factors = (x,) if y is None else (x, y)
    cutoff = _image_cutoff(factors, norms)
    xy = np.concatenate([ma @ mb for ma, mb in factors], axis=-1)
    mask = np.arange(xy.shape[-1]) >= x[1].shape[-1]
    counts = _quotient_counts(xy[..., None, :, :], mask,
                              np.reshape(cutoff, np.shape(cutoff) + (1,)))[..., 0]
    return int(counts) if xy.ndim == 2 else counts


def _image_cutoff(factors, norms=None):
    """The cutoff ``1e4 * dim * max(eps * |A| * |B|, eps * |C| * |D|)`` of
    the factor pairs ``factors`` (see :func:`image_quotient`): a float, or
    one per item of stacked factors.  A pair with an empty factor adds
    neither a product nor a dimension; with none left the cutoff is zero.
    ``norms`` is as :func:`_image_quotient` takes it; an empty pair's norms
    are not read, nor taken."""
    scale = None
    dim = 1
    for i, (ma, mb) in enumerate(factors):
        if ma.size and mb.size:
            na, nb = (_frobenius(ma), _frobenius(mb)) if norms is None else norms[2 * i:2 * i + 2]
            # eps, a power of two, scales the product exactly: the bits of a finite
            # cutoff do not change, and one whose norm product overflows stays finite
            product = _EPS * na * nb
            # max() for one matrix's norms: np.maximum on scalars costs ~1 us
            scale = (product if scale is None else max(scale, product)
                     if isinstance(product, float) else np.maximum(scale, product))
            dim = max(dim, ma.shape[-2], ma.shape[-1], mb.shape[-1])
    return _PRODUCT_MARGIN * dim * (0.0 if scale is None else scale)


def _quotient_counts(xy: np.ndarray, mask: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """``count(sv([X | Y])) - count(sv(Y))`` for each item of a (..., Q, R, C)
    stack ``xy`` of images ``[X | Y]``, all zero-padded to one (R, C) shape:
    the dimension of span(X) outside span(Y), one int per item in a
    (..., Q) array.

    ``mask`` is true on each item's Y columns (it broadcasts against
    ``xy``), and ``cutoffs`` (..., Q) holds each item's cutoff, as
    :func:`_image_cutoff` gives it for the unpadded factors, so padding
    changes no cutoff's bits.  Every singular value of every item and of
    its masked copy ``xy * mask`` comes from one :func:`_singular_values`
    call.  A zero row or a masked column adds only singular values that are
    zero in exact arithmetic, which no cutoff counts, so the padding changes
    no count: only the round-off of the other values moves.
    """
    sv = _singular_values(np.concatenate([xy, xy * mask], axis=-3))
    q = xy.shape[-3]
    above = sv.reshape(sv.shape[:-2] + (2, q, sv.shape[-1])) > cutoffs[..., None, :, None]
    counts = np.add.reduce(above, axis=-1)
    return counts[..., 0, :] - counts[..., 1, :]


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

    A GSVD of a stack of pairs holds stacked factors (``lam1`` and ``lam2``
    as (T, s)) and one (k, r, s, p); the views slice the last axis.
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
        return self.psi1[..., : self.r]

    @property
    def psi12(self) -> np.ndarray:
        return self.psi1[..., self.r : self.r + self.s]

    @property
    def psi13(self) -> np.ndarray:
        return self.psi1[..., self.r + self.s :]

    @property
    def psi21(self) -> np.ndarray:
        kk = self.psi2.shape[-1]
        return self.psi2[..., : kk - self.s - self.p]

    @property
    def psi22(self) -> np.ndarray:
        kk = self.psi2.shape[-1]
        return self.psi2[..., kk - self.s - self.p : kk - self.p]

    @property
    def psi23(self) -> np.ndarray:
        kk = self.psi2.shape[-1]
        return self.psi2[..., kk - self.p :]

    @property
    def x1(self) -> np.ndarray:
        return self.x[..., : self.r]

    @property
    def x2(self) -> np.ndarray:
        return self.x[..., self.r : self.r + self.s]

    @property
    def x3(self) -> np.ndarray:
        return self.x[..., self.r + self.s :]


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

    Stacks (T, N, M) and (T, N, K) of pairs run the rank checks and the
    factorization once and the cosine-sine step once per item; items whose
    checks differ from the first item's raise :class:`_StackSplit`.
    """
    ma, mb = _as_matrices(a, "a"), _as_matrices(b, "b")
    if ma.shape[:-1] != mb.shape[:-1]:
        raise ValueError(f"stack sizes or row counts differ: {ma.shape} vs {mb.shape}")
    n, m = ma.shape[-2:]
    kc = mb.shape[-1]

    k, r, s, p = _quadruple(n, m, kc)
    if not (_agreed(_rank(ma) == min(m, n)) and _agreed(_rank(mb) == min(kc, n))):
        raise DegenerateInput(
            "rank-deficient input: (k, r, s, p) inconsistent with full-rank formulas"
        )
    z = np.concatenate([ma.conj().swapaxes(-1, -2), mb.conj().swapaxes(-1, -2)], axis=-2)
    # one full SVD of the stacked pair serves both the rank check and the
    # orthonormal factor the cosine-sine step starts from
    uz, sz, vz = _svd(z)
    if not _agreed(_ranks(z, sz) == k):
        raise DegenerateInput("stacked pair is rank deficient")
    if s == 0:
        return _gsvd_disjoint(ma, mb, k, r, p)
    return _gsvd_cs(uz, sz, vz, m, kc, k, r, s, p)


def aligned_pairs(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aligned pairs of a full-rank pair: (v, w, x) with ``a @ v == b @ w == x``.

    The columns of ``x`` are a basis of span(a) ∩ span(b), ordered by
    descending generalized singular value; its width is :func:`gsvd`'s
    ``s`` and zero when the spans are disjoint.  ``v`` and ``w`` are the
    GSVD's middle factor columns scaled by the inverse diagonals.  Stacks
    of pairs give stacks of (v, w, x).  Raises as :func:`gsvd` does.
    """
    g = gsvd(a, b)
    return g.psi12 / g.lam1[..., None, :], g.psi22 / g.lam2[..., None, :], g.x2


def _gsvd_disjoint(ma, mb, k, r, p) -> GsvdResult:
    """Construction for s == 0: the spans intersect trivially, so SVDs of A
    and B supply all blocks (with empty factors for an empty side)."""
    ua, sa, va = _svd(ma)
    ub, sb, vb = _svd(mb)
    # null-space part first (maps to zero), image part last (maps to x3)
    psi2 = np.concatenate([vb[..., p:], vb[..., :p]], axis=-1)
    x = np.concatenate([ua[..., :r] * sa[..., None, :r], ub[..., :p] * sb[..., None, :p]], axis=-1)
    lam = np.zeros(ma.shape[:-2] + (0,))
    return GsvdResult(psi1=va, psi2=psi2, lam1=lam, lam2=lam.copy(),
                      x=x, k=k, r=r, s=0, p=p)


@functools.cache
def _flapack():
    """SciPy's compiled LAPACK module ``scipy.linalg._flapack``, loaded alone.

    ``import scipy`` runs only the top-level package, whose distributor
    init registers the bundled BLAS where a platform needs it; the
    extension itself is found in the package's ``linalg`` directory and
    executed without ``scipy/linalg/__init__.py``, whose Python layer costs
    a cold process far more than the one routine used here.  The module
    SciPy has already loaded is taken as it is.  A module loaded here is
    not left in ``sys.modules``, where a later ``import scipy.linalg``
    would find it and leave it unbound as the package's ``_flapack``:
    that import loads its own, with the same compiled routines."""
    import os
    import sys
    from importlib import machinery, util

    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]

    import scipy

    finder = machinery.FileFinder(os.path.join(scipy.__path__[0], "linalg"),
                                  (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension under {finder.path}")
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension registers itself as it loads
    sys.modules.pop(name, None)
    return module


@functools.lru_cache(maxsize=64)
def _uncsd(m: int, p: int, q: int):
    """``zuncsd`` and the (lwork, lrwork) SciPy's ``cossin`` passes it for
    (m, p, q): the workspace query's sizes, rounded down as SciPy's
    ``lapack._compute_lwork`` rounds them for complex128."""
    flapack = _flapack()
    *work, info = flapack.zuncsd_lwork(m=m, p=p, q=q)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: {info}")
    return (flapack.zuncsd, *(int(w.real) for w in work))


def cossin(x, p, q):
    """Cosine-sine decomposition of the unitary ``x`` split at row ``p`` and
    column ``q``, bitwise ``scipy.linalg.cossin(x, p=p, q=q, separate=True)``,
    from LAPACK ``zuncsd`` without that wrapper's checks.  The first call
    loads SciPy's compiled LAPACK module (see :func:`_flapack`); nothing
    loads ``scipy.linalg``."""
    csd, lwork, lrwork = _uncsd(x.shape[0], p, q)
    *_, theta, u1, u2, v1h, v2h, info = csd(x[:p, :q], x[:p, q:], x[p:, :q], x[p:, q:],
                                            lwork=lwork, lrwork=lrwork)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal zuncsd")
    if info > 0:
        raise np.linalg.LinAlgError(f"zuncsd did not converge: {info}")
    return (u1, u2), theta, (v1h, v2h)


def _gsvd_cs(uz, sz, vz, m, kc, k, r, s, p) -> GsvdResult:
    rfac = sz[..., :k, None] * vz[..., :k].conj().swapaxes(-1, -2)
    # uz's trailing columns complete the orthonormal factor to a square
    # unitary, as the CS decomposition requires; s > 0 guarantees k < M+K.
    # Only the diagonal blocks of the unitary factors are used, so they are
    # taken unassembled, one item of a stack at a time.
    if uz.ndim == 2:
        (psi1, psi2), theta, (v1h, _) = cossin(uz, p=m, q=k)
    else:
        parts = [cossin(u, p=m, q=k) for u in uz]
        psi1, psi2, theta, v1h = (np.stack(block) for block in zip(
            *[(u1, u2, th, v1) for (u1, u2), th, (v1, _) in parts]))
    # With k = N columns of a unitary split at row m, the identity blocks
    # are exactly r and p wide and theta has exactly
    # min(m, k, kc, m+kc-k) = s entries, so theta alone carries the
    # diagonals of D1 and D2.  LAPACK's zbbcsd returns theta ascending, so
    # lam1 is already in the documented descending order.
    lam1, lam2 = np.cos(theta), np.sin(theta)
    x = rfac.conj().swapaxes(-1, -2) @ v1h.conj().swapaxes(-1, -2)
    if _agreed(np.any(lam1 <= 0, axis=-1) | np.any(lam2 <= 0, axis=-1)):
        raise DegenerateInput("cosine-sine angles inconsistent with rank counts")
    return GsvdResult(psi1=psi1, psi2=psi2, lam1=lam1, lam2=lam2, x=x,
                      k=k, r=r, s=s, p=p)
