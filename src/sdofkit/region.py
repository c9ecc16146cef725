"""Achievable secrecy-degrees-of-freedom region arithmetic.

Everything here is exact integer arithmetic on antenna counts: the six
aligned-subset capacities, single-user points, the strict region boundary
obtained by trading confidential streams for public ones, and the
closed-form boundary endpoints.  No floating point is involved, so
exhaustive sweeps over antenna configurations are bit-exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import OutOfRange

__all__ = [
    "AntennaConfig",
    "SubsetDims",
    "SdofPoint",
    "SdofRegion",
    "subset_dims",
    "su1",
    "su1_closed_form",
    "su2",
    "select_streams",
    "d2_max",
    "boundary",
    "e1",
    "e2",
]

def _pos(x: int) -> int:
    return x if x > 0 else 0


class SdofPoint(NamedTuple):
    """An (confidential, public) secrecy-degrees-of-freedom pair."""

    d1: int
    d2: int


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts at the two sources, two destinations, and eavesdropper."""

    ns1: int
    ns2: int
    nd1: int
    nd2: int
    ne: int

    def __post_init__(self):
        for name in ("ns1", "ns2", "nd1", "nd2", "ne"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"antenna count {name}={v!r} must be a positive integer")

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.ns1, self.ns2, self.nd1, self.nd2, self.ne)


@dataclass(frozen=True)
class SubsetDims:
    """Maximum independent precoding-pair counts for the six aligned subsets."""

    d1: int
    d2: int
    d3: int
    d4: int
    d5: int
    d6: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.d1, self.d2, self.d3, self.d4, self.d5, self.d6)


@dataclass(frozen=True)
class SdofRegion:
    """Region summary: single-user maxima, strict-boundary points, endpoints.

    ``strict`` lists the trade-off segment from ``e1_point`` to
    ``e2_point`` in order of decreasing confidential D.o.F.; the vertical
    and horizontal non-strict segments down to the single-user points are
    implied.  A region with ``su1 == 0`` has an empty strict segment.
    """

    config: AntennaConfig
    su1: int
    su2: int
    e1_point: SdofPoint
    e2_point: SdofPoint
    strict: tuple[SdofPoint, ...]


def subset_dims(cfg: AntennaConfig) -> SubsetDims:
    """Subset capacities for one antenna configuration.

    The counts follow from intersecting the images of the two sources'
    usable subspaces at the eavesdropper, after removing directions already
    claimed by higher-priority subsets.
    """
    return _subset_dims(cfg)


# Memoized on the frozen, hashable config, without a bound, which a sweep
# cycling through many configs needs.  The public names stay plain
# functions that delegate here, so callers and wrappers see a function.
@functools.cache
def _subset_dims(cfg: AntennaConfig) -> SubsetDims:
    ns1h = _pos(cfg.ns1 - cfg.nd2)  # null(S1 -> D2 channel) dimension
    ns2h = _pos(cfg.ns2 - cfg.nd1)  # null(S2 -> D1 channel) dimension
    ne = cfg.ne

    def cap(v: int) -> int:
        return min(v, ne)

    # shared widths: the intersection dimensions of the four
    # eavesdropper-space decompositions the capacities derive from
    s_hat = _pos(cap(ns1h) + cap(ns2h) - ne)
    s_bar = _pos(cap(cfg.ns1) + cap(ns2h) - ne)
    s_breve = _pos(cap(ns1h) + cap(cfg.ns2) - ne)
    s_tilde = _pos(cap(cfg.ns1) + cap(cfg.ns2) - ne)

    d1 = _pos(cfg.ns1 - ne - cfg.nd2)
    d2 = min(cfg.nd2, _pos(cfg.ns1 - ne))
    d3 = s_hat
    d4 = s_bar - s_hat
    d5 = s_breve - s_hat
    d6 = s_tilde - (d3 + d4 + d5)
    return SubsetDims(d1, d2, d3, d4, d5, d6)


def su1(cfg: AntennaConfig) -> int:
    """Maximum confidential-link S.D.o.F. with the public pair silent
    (its source still transmits, acting as a cooperative jammer)."""
    return _su1(cfg)


@functools.cache
def _su1(cfg: AntennaConfig) -> int:
    d = _subset_dims(cfg)
    d_a1 = d.d1 + d.d2 + d.d3 + d.d4
    d_a2 = min(d.d5 + d.d6, _pos(cfg.nd1 - d_a1) // 2)
    return min(d_a1 + d_a2, cfg.nd1)


def su2(cfg: AntennaConfig) -> int:
    """Maximum public-link D.o.F.: a point-to-point MIMO link."""
    return min(cfg.ns2, cfg.nd2)


def su1_closed_form(cfg: AntennaConfig) -> int | None:
    """Closed-form single-user maximum for the antenna regimes it covers.

    Returns ``None`` when no listed inequality regime matches the
    configuration.
    """
    ns1, ns2, nd1, ne = cfg.ns1, cfg.ns2, cfg.nd1, cfg.ne

    if (
        ns1 >= ne + nd1
        or ns2 >= ne + nd1
        or (2 * nd1 + ne - ns2 <= ns1 < ne + nd1 and nd1 < ns2 < ne + nd1)
    ):
        return min(ns1, nd1)

    if nd1 + ne - ns2 < ns1 < 2 * nd1 + ne - ns2 and nd1 < ns2 < ne + nd1:
        s = min(nd1 + ne - ns2, ne) + min(ns2, ne) - ne
        return ns1 + ns2 - (nd1 + ne) + min(s, (2 * nd1 + ne - ns1 - ns2) // 2)

    if ne < ns1 < ne + nd1 and ns2 <= nd1:
        s = min(ns2, ne)
        return ns1 - ne + min(s, (nd1 + ne - ns1) // 2)

    if (ns1 <= nd1 + ne - ns2 and nd1 < ns2 < ne + nd1) or (ns1 <= ne and ns2 <= nd1):
        s = min(ns1, ne) + min(ns2, ne) - min(ns1 + ns2, ne)
        return min(s, nd1 // 2)

    return None


def select_streams(cfg: AntennaConfig, d1: int) -> tuple[int, int, int, int, int, int]:
    """Confidential streams taken from each aligned subset, (n_I .. n_VI),
    for ``d1`` streams in total.

    The subsets that keep the confidential signal out of the public
    receiver (I, then III, then V) are filled first, the interfering ones
    (II, then IV, then VI) take the rest.  V and VI cost two signal
    dimensions at the confidential receiver, so together they supply at
    most ``min(nd1 - d1, d5 + d6, d1)`` streams.  The interfering count
    n_II + n_IV + n_VI is the fewest streams that must interfere at D2.
    """
    if d1 < 0 or d1 > su1(cfg):
        raise OutOfRange(f"d1={d1} outside [0, {su1(cfg)}]")
    d = subset_dims(cfg)
    y_max = min(cfg.nd1 - d1, d.d5 + d.d6, d1)
    quiet = min(d1, min(y_max, d.d5) + d.d1 + d.d3)
    n_i = min(quiet, d.d1)
    n_iii = min(quiet - n_i, d.d3)
    loud = d1 - quiet
    n_ii = min(loud, d.d2)
    n_iv = min(loud - n_ii, d.d4)
    return (n_i, n_ii, n_iii, n_iv, quiet - n_i - n_iii, loud - n_ii - n_iv)


def d2_max(cfg: AntennaConfig, d1: int) -> int:
    """Largest public D.o.F. compatible with ``d1`` confidential streams."""
    z = sum(select_streams(cfg, d1)[1::2])  # streams interfering at D2
    return min(cfg.ns2, _pos(max(cfg.ns2, cfg.nd1) - d1), _pos(cfg.nd2 - z))


def e1(cfg: AntennaConfig) -> SdofPoint:
    """Boundary endpoint with the confidential link at its maximum."""
    top = su1(cfg)
    return SdofPoint(top, d2_max(cfg, top))


def e2(cfg: AntennaConfig) -> SdofPoint:
    """Boundary endpoint with the public link at its maximum.

    The confidential coordinate is the closed form obtained by forcing the
    public link to full D.o.F. and counting how many aligned pairs survive
    the induced interference constraints.
    """
    d = subset_dims(cfg)
    ns2, nd1, nd2 = cfg.ns2, cfg.nd1, cfg.nd2
    eta = max(ns2, nd1)
    if ns2 > nd2:
        beta = min(d.d5, _pos(nd1 - d.d1 - d.d3) // 2)
        val = min(d.d1 + d.d3 + beta, eta - nd2, nd1)
    else:
        dhat2 = min(nd2 - ns2, d.d2)
        xi = min(d.d6, _pos(nd2 - ns2 - d.d2)) + d.d5
        xi_star = min(xi, _pos(nd1 - d.d1 - dhat2) // 2)
        val = min(d.d1 + dhat2 + xi_star, eta - ns2)
    return SdofPoint(val, su2(cfg))


def boundary(cfg: AntennaConfig) -> SdofRegion:
    """Full region summary via the descending-d1 boundary iteration.

    Starting from the confidential maximum, each step records the largest
    compatible public D.o.F. and stops once the public link reaches its
    single-user maximum.  With ``su1 == 0`` there is no trade-off segment
    and the strict list is empty.
    """
    top1, top2 = su1(cfg), su2(cfg)
    points: list[SdofPoint] = []
    if top1 > 0:
        d1 = top1
        while True:
            d2 = d2_max(cfg, d1)
            points.append(SdofPoint(d1, d2))
            if d2 >= top2 or d1 == 0:
                break
            d1 -= 1
    return SdofRegion(
        config=cfg,
        su1=top1,
        su2=top2,
        e1_point=e1(cfg),
        e2_point=e2(cfg),
        strict=tuple(points),
    )
