"""Verification of achieved secrecy degrees of freedom.

Two independent routes: exact integer subspace-rank arithmetic on the
channel images of a precoder pair, and empirical high-SNR slope
estimation from the finite-power rate formulas.  Also checks membership
of a pair in the power set, the span-aligned set, and the
columnwise-aligned set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .precoder import ChannelSet, PrecoderPair, with_power
from .region import SdofPoint

__all__ = ["RateTriple", "Membership", "sdof_of", "membership", "rates", "slope_estimate"]


@dataclass(frozen=True)
class RateTriple:
    """Achievable rates in bits per channel use, with unit noise power.

    ``rd1``/``rd2`` are the destination rates under co-channel
    interference treated as noise; ``re`` is the eavesdropper rate.  The
    secrecy rate of the confidential link is the clipped difference
    ``rs1``; the public link sends no secrets, so its secrecy rate equals
    its rate.
    """

    rd1: float
    rd2: float
    re: float

    @property
    def rs1(self) -> float:
        return max(self.rd1 - self.re, 0.0)

    @property
    def rs2(self) -> float:
        return self.rd2


@dataclass(frozen=True)
class Membership:
    in_i: bool
    in_ibar: bool
    in_ihat: bool


def sdof_of(ch: ChannelSet, pair: PrecoderPair) -> SdofPoint:
    """Achieved S.D.o.F. pair by exact subspace-rank arithmetic.

    The confidential link scores the dimension its signal occupies at its
    receiver outside the public interference, minus the eavesdropper
    leakage outside the jamming span (clipped at zero).
    The public link scores the part of its signal span outside the
    confidential interference at its receiver.
    """
    leak = matcore.image_quotient((ch.g1, pair.v), (ch.g2, pair.w))
    # rank(H11 V) less its overlap with span(H12 W) is the quotient dimension
    d1 = max(matcore.image_quotient((ch.h11, pair.v), (ch.h12, pair.w)) - leak, 0)
    d2 = matcore.image_quotient((ch.h22, pair.w), (ch.h21, pair.v))
    return SdofPoint(d1, d2)


# relative tolerances of membership: each trace against the power budget,
# and each paired eavesdropper image against its positive multiple
_POWER_RTOL = 1e-6
_ALIGN_RTOL = 1e-8


def membership(ch: ChannelSet, pair: PrecoderPair) -> Membership:
    """Set membership flags for a precoder pair.

    ``in_i``: both traces match the recorded power budget to a relative
    ``1e-6`` (vacuous for a zero-width matrix, which carries no power).
    ``in_ibar``: the eavesdropper image of V lies inside the jamming span
    and the two signals are disjoint at the confidential receiver.  ``in_ihat``:
    additionally, each confidential column's eavesdropper image is
    reproduced by its paired public column up to the positive per-stream
    gain that power normalization applies (exactly aligned pairs have
    gain one), to a relative ``1e-8``.
    """
    in_i = False
    if pair.power is not None:
        pv = float(np.sum(np.abs(pair.v) ** 2))
        pw = float(np.sum(np.abs(pair.w) ** 2))
        ok_v = pair.kv == 0 or abs(pv - pair.power) <= _POWER_RTOL * pair.power
        ok_w = pair.kw == 0 or abs(pw - pair.power) <= _POWER_RTOL * pair.power
        in_i = ok_v and ok_w

    signal, interference = (ch.h11, pair.v), (ch.h12, pair.w)
    in_ibar = (
        matcore.image_quotient((ch.g1, pair.v), (ch.g2, pair.w)) == 0
        # disjoint: no signal dimension lies inside the interference span
        and matcore.image_quotient(signal, interference) == matcore.image_quotient(signal)
    )

    # image columns below this are zero up to round-off of the matrix products
    ztol = _ALIGN_RTOL * max(
        np.linalg.norm(ch.g1) * np.linalg.norm(pair.v),
        np.linalg.norm(ch.g2) * np.linalg.norm(pair.w),
    )
    in_ihat = in_ibar and _columnwise_aligned(
        ch.g1 @ pair.v, ch.g2 @ pair.w, _ALIGN_RTOL, ztol
    )
    return Membership(in_i=in_i, in_ibar=in_ibar, in_ihat=in_ihat)


def _columnwise_aligned(g1v: np.ndarray, g2w: np.ndarray, rtol: float, ztol: float) -> bool:
    """Column i of g1v equals a positive multiple of column i of g2w."""
    for i in range(g1v.shape[1]):
        a = g1v[:, i]
        b = g2w[:, i] if i < g2w.shape[1] else np.zeros_like(a)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na <= ztol and nb <= ztol:
            continue
        if na <= ztol or nb <= ztol:
            return False
        alpha = (b.conj() @ a) / (nb * nb)
        if np.linalg.norm(a - alpha * b) > rtol * na:
            return False
        if alpha.real <= 0 or abs(alpha.imag) > rtol * abs(alpha):
            return False
    return True


def _log2det_gram(x: np.ndarray) -> float:
    """log2 det(I + X X^H), summed from the singular values of X."""
    sv = np.linalg.svd(x, compute_uv=False)
    return float(np.sum(np.log1p(sv * sv)) / math.log(2.0))


def rates(ch: ChannelSet, pair: PrecoderPair) -> RateTriple:
    """Finite-power rate triple for a pair, with identity noise covariance.

    Each rate is log2 det(I + X X^H) for the stacked receiver images
    X = [Hs Ps, Hi Pi] of the signal and interference precoders, less the
    same log-det for the interference images Hi Pi alone.  Each log-det is
    the sum of log2(1 + sigma^2) over the singular values of its X; no
    covariance, Gram matrix or inverse is formed, so the rates stay finite
    and accurate at any power.
    """

    def pairwise(hs: np.ndarray, ps: np.ndarray, hi: np.ndarray, pi: np.ndarray) -> float:
        interf = hi @ pi
        return _log2det_gram(np.hstack([hs @ ps, interf])) - _log2det_gram(interf)

    rd1 = pairwise(ch.h11, pair.v, ch.h12, pair.w)
    rd2 = pairwise(ch.h22, pair.w, ch.h21, pair.v)
    re = pairwise(ch.g1, pair.v, ch.g2, pair.w)
    return RateTriple(rd1=rd1, rd2=rd2, re=re)


def slope_estimate(ch: ChannelSet, pair: PrecoderPair, p_grid) -> tuple[float, float]:
    """Empirical S.D.o.F. from the secrecy-rate growth against log power.

    The pair supplies directions only; at each grid power it is
    renormalized and the rate triple evaluated.  The slope is the finite
    difference over the two largest grid points (the limit regime), in
    bits per doubling over log2(P): rounding the result should match the
    rank-based S.D.o.F.
    """
    grid = sorted(float(p) for p in p_grid)
    if len(grid) < 2 or not all(0 < p < math.inf for p in grid):
        raise ValueError("p_grid must contain at least two positive finite powers")
    if grid[-1] / grid[0] < 100:
        raise ValueError("p_grid must span at least two decades")
    p_lo, p_hi = grid[-2], grid[-1]
    if p_lo == p_hi:
        raise ValueError("the two largest p_grid powers must differ")
    r_lo = rates(ch, with_power(pair, p_lo))
    r_hi = rates(ch, with_power(pair, p_hi))
    dlog = math.log2(p_hi) - math.log2(p_lo)
    return (
        (r_hi.rs1 - r_lo.rs1) / dlog,
        (r_hi.rs2 - r_lo.rs2) / dlog,
    )
