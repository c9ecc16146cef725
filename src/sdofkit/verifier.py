"""Verification of achieved secrecy degrees of freedom.

Two independent routes: exact integer subspace-rank arithmetic on the
channel images of a precoder pair, and empirical high-SNR slope
estimation from the finite-power rate formulas.  Also checks membership
of a pair in the power set, the span-aligned set, and the
columnwise-aligned set.

The channel set and the precoder pair check their own matrices;
``sdof_of``, ``membership`` and ``rates`` (and so ``slope_estimate``)
first check only that V and W have a row per antenna of their source.
Every norm and log-det comes from :mod:`matcore`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .precoder import ChannelSet, PrecoderPair, _quotients, with_power
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


def _check_rows(ch: ChannelSet, pair: PrecoderPair) -> None:
    """Raise ``ValueError`` unless V has a row per antenna of source 1 and W
    one per antenna of source 2."""
    ns1, ns2 = ch.h11.shape[1], ch.h22.shape[1]
    if pair.v.shape[0] != ns1 or pair.w.shape[0] != ns2:
        raise ValueError(f"precoder rows ({pair.v.shape[0]}, {pair.w.shape[0]}) do not match "
                         f"antenna counts ({ns1}, {ns2})")


def sdof_of(ch: ChannelSet, pair: PrecoderPair) -> SdofPoint:
    """Achieved S.D.o.F. pair by exact subspace-rank arithmetic.

    The confidential link scores the dimension its signal occupies at its
    receiver outside the public interference, minus the eavesdropper
    leakage outside the jamming span (clipped at zero).
    The public link scores the part of its signal span outside the
    confidential interference at its receiver.

    The three quotients come from ``precoder._quotients``, the scorer that
    :func:`precoder.construct` and the Monte-Carlo stacks apply to the
    pair they build, so a built pair scores its target here.
    """
    _check_rows(ch, pair)
    return _sdof(_quotients(ch, pair.v, pair.w))


def _sdof(quotients) -> SdofPoint:
    """The S.D.o.F. pair that the scorer's quotients give one pair."""
    leak, signal, public = quotients
    return SdofPoint(max(signal - leak, 0), public)


# relative tolerances of membership: each trace against the power budget,
# and each paired eavesdropper image against its positive multiple
_POWER_RTOL = 1e-6
_ALIGN_RTOL = 1e-8


def membership(ch: ChannelSet, pair: PrecoderPair) -> Membership:
    """Set membership flags for a precoder pair.

    ``in_i``: both traces match the recorded power budget to a relative
    ``1e-6`` (vacuous for a zero-width matrix, which carries no power).
    ``in_ibar``: the eavesdropper image of V lies inside the jamming span
    and the two signals are disjoint at the confidential receiver, read
    from the leak and the confidential quotient of the scorer that
    :func:`sdof_of` uses, against rank(H11 V).  ``in_ihat``:
    additionally, each confidential column's eavesdropper image is
    reproduced by its paired public column up to the positive per-stream
    gain that power normalization applies (exactly aligned pairs have
    gain one), to a relative ``1e-8``.
    """
    return _verdict(ch, pair)[1]


def _verdict(ch: ChannelSet, pair: PrecoderPair) -> tuple[SdofPoint, Membership]:
    """:func:`sdof_of` and :func:`membership` of a pair, from one call of
    the scorer."""
    _check_rows(ch, pair)
    nv, nw = matcore._frobenius(pair.v), matcore._frobenius(pair.w)
    in_i = False
    if pair.power is not None:
        ok_v = pair.kv == 0 or abs(nv * nv - pair.power) <= _POWER_RTOL * pair.power
        ok_w = pair.kw == 0 or abs(nw * nw - pair.power) <= _POWER_RTOL * pair.power
        in_i = ok_v and ok_w

    quotients = _quotients(ch, pair.v, pair.w)
    leak, signal, _ = quotients
    # disjoint: no signal dimension lies inside the interference span; unchecked,
    # since the channels and precoders were checked when their set and pair were built
    in_ibar = leak == 0 and signal == matcore._image_quotient((ch.h11, pair.v))
    in_ihat = in_ibar and _columnwise_aligned(ch, pair, nv, nw)
    return _sdof(quotients), Membership(in_i=in_i, in_ibar=in_ibar, in_ihat=in_ihat)


def _columnwise_aligned(ch: ChannelSet, pair: PrecoderPair, nv: float, nw: float) -> bool:
    """Column i of G1 V equals a positive multiple of column i of G2 W, to a
    relative ``_ALIGN_RTOL``; ``nv`` and ``nw`` are the norms of V and W.

    Image columns below ``_ALIGN_RTOL`` times the larger factor-norm
    product are zero up to round-off of the matrix products.  Both images,
    and that bound, are first divided by the power of two just above the
    larger image norm: the division is exact, so it changes no decision,
    and it keeps every square in the float range.
    """
    norm = matcore._frobenius
    g1v, g2w = ch.g1 @ pair.v, ch.g2 @ pair.w
    scale = math.ldexp(1.0, -math.frexp(max(norm(g1v), norm(g2w)))[1])
    ztol = _ALIGN_RTOL * max(scale * norm(ch.g1) * nv, scale * norm(ch.g2) * nw)
    g1v, g2w = scale * g1v, scale * g2w
    for i in range(g1v.shape[1]):
        a = g1v[:, i]
        b = g2w[:, i] if i < g2w.shape[1] else np.zeros_like(a)
        na, nb = norm(a), norm(b)
        if na <= ztol and nb <= ztol:
            continue
        if na <= ztol or nb <= ztol:
            return False
        alpha = (b.conj() @ a) / (nb * nb)
        if norm(a - alpha * b) > _ALIGN_RTOL * na:
            return False
        if alpha.real <= 0 or abs(alpha.imag) > _ALIGN_RTOL * abs(alpha):
            return False
    return True


def rates(ch: ChannelSet, pair: PrecoderPair) -> RateTriple:
    """Finite-power rate triple for a pair, with identity noise covariance.

    Each rate is log2 det(I + X X^H) for the stacked receiver images
    X = [Hs Ps, Hi Pi] of the signal and interference precoders, less the
    same log-det for the interference images Hi Pi alone.  Each log-det is
    the sum of log2(1 + sigma^2) over the singular values of its X; no
    covariance, Gram matrix or inverse is formed, so the rates stay finite
    and accurate at any power.  The scoring is :func:`_score` on a stack
    of one.
    """
    _check_rows(ch, pair)
    (triple,) = _score(ch, pair.v, pair.w)
    return triple


def _score(ch, v: np.ndarray, w: np.ndarray) -> list[RateTriple]:
    """One stack of :func:`rates`: the six channel stacks of ``ch`` with the
    precoder stacks ``v`` and ``w`` (or one channel set with its two
    matrices), one triple per item.  A received image that overflows the
    float range raises ``LinAlgError`` before any SVD takes it."""
    def pairwise(hs: np.ndarray, ps: np.ndarray, hi: np.ndarray, pi: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            interf = hi @ pi
            both = np.concatenate([hs @ ps, interf], axis=-1)
        if not np.isfinite(both).all():
            raise np.linalg.LinAlgError("a received image H P overflows the float range")
        log2det = matcore._log2det_gram
        return log2det(both) - log2det(interf)

    triples = zip(np.atleast_1d(pairwise(ch.h11, v, ch.h12, w)),
                  np.atleast_1d(pairwise(ch.h22, w, ch.h21, v)),
                  np.atleast_1d(pairwise(ch.g1, v, ch.g2, w)))
    return [RateTriple(rd1=float(a), rd2=float(b), re=float(c)) for a, b, c in triples]


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
    # rates checks the rows, which renormalizing keeps
    r_lo = rates(ch, with_power(pair, p_lo))
    r_hi = rates(ch, with_power(pair, p_hi))
    dlog = math.log2(p_hi) - math.log2(p_lo)
    return (
        (r_hi.rs1 - r_lo.rs1) / dlog,
        (r_hi.rs2 - r_lo.rs2) / dlog,
    )
