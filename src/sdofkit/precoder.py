"""Precoding-matrix construction for target secrecy-D.o.F. pairs.

Builds per-subset bases of aligned precoding vector pairs and assembles
full precoding matrices (V, W) that achieve a requested point on the
region boundary: confidential streams whose eavesdropper images are
reproduced by the public transmission, plus extra public beams filling
the remaining interference-free dimensions at the public receiver.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import matcore, region
from .errors import ConstructionDeficit, DegenerateInput, TargetInfeasible
from .region import AntennaConfig, SdofPoint

__all__ = [
    "ChannelSet",
    "PrecoderPair",
    "Subset",
    "SubsetBasis",
    "subset_basis",
    "construct",
    "randomize",
    "right_multiply",
    "with_power",
]


class Subset(enum.IntEnum):
    """The six aligned-pair subsets, ordered by selection priority class.

    Odd members (I, III, V) keep the confidential signal out of the public
    receiver; even members (II, IV, VI) interfere there.  I/II need no
    public transmission at all (the confidential signal already sits in
    the eavesdropper's null space, w = 0); V/VI cost two signal dimensions
    at the confidential receiver instead of one.
    """

    I = 1
    II = 2
    III = 3
    IV = 4
    V = 5
    VI = 6


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """The six channel matrices of the two-user wiretap interference network.

    ``hij`` maps source j to destination i; ``gj`` maps source j to the
    eavesdropper.  Shapes must be mutually consistent with a single
    antenna configuration.
    """

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        mats = {}
        for name in ("h11", "h12", "h21", "h22", "g1", "g2"):
            m = np.asarray(getattr(self, name), dtype=np.complex128)
            if m.ndim != 2 or not np.isfinite(m).all():
                raise ValueError(f"{name} must be a finite 2-D complex matrix")
            mats[name] = m
            object.__setattr__(self, name, m)
        nd1, ns1 = mats["h11"].shape
        nd2, ns2 = mats["h22"].shape
        ne = mats["g1"].shape[0]
        expect = {
            "h12": (nd1, ns2),
            "h21": (nd2, ns1),
            "g1": (ne, ns1),
            "g2": (ne, ns2),
        }
        for name, shape in expect.items():
            if mats[name].shape != shape:
                raise ValueError(f"{name} has shape {mats[name].shape}, expected {shape}")

    @property
    def config(self) -> AntennaConfig:
        return AntennaConfig(
            ns1=self.h11.shape[1],
            ns2=self.h22.shape[1],
            nd1=self.h11.shape[0],
            nd2=self.h22.shape[0],
            ne=self.g1.shape[0],
        )

    def full_rank(self) -> bool:
        """True when all six matrices are full rank under the default tolerance."""
        return all(
            matcore.rank_tol(m) == min(m.shape)
            for m in (self.h11, self.h12, self.h21, self.h22, self.g1, self.g2)
        )


@dataclass(frozen=True, eq=False)
class PrecoderPair:
    """Transmit precoders V (confidential) and W (public/jamming).

    ``power`` is the per-source trace budget once the pair has been
    normalized; ``None`` marks a raw, unnormalized pair.  Power is split
    equally across the nonzero columns of each matrix; structurally zero
    columns (paired with null-space confidential streams) carry none.
    """

    v: np.ndarray
    w: np.ndarray
    power: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=np.complex128))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=np.complex128))

    @property
    def kv(self) -> int:
        return self.v.shape[1]

    @property
    def kw(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True, eq=False)
class SubsetBasis:
    """Basis of independent aligned precoding vector pairs for one subset.

    Column i of ``v_basis`` pairs with column i of ``w_basis``; for
    subsets I and II the w columns are identically zero.  The width equals
    the subset capacity from the antenna-count arithmetic whenever the
    channels are generic.
    """

    subset: Subset
    v_basis: np.ndarray
    w_basis: np.ndarray

    @property
    def width(self) -> int:
        return self.v_basis.shape[1]


def _empty_basis(sub: Subset, cfg: AntennaConfig) -> SubsetBasis:
    return SubsetBasis(
        subset=sub,
        v_basis=np.zeros((cfg.ns1, 0), dtype=np.complex128),
        w_basis=np.zeros((cfg.ns2, 0), dtype=np.complex128),
    )


def _exclusion_coords(x: np.ndarray, claimed: list[np.ndarray]) -> np.ndarray:
    """Coordinates, within the shared image basis ``x``, that complete the
    directions already claimed by higher-priority subsets."""
    if not claimed:
        return np.eye(x.shape[1], dtype=np.complex128)
    coords, *_ = np.linalg.lstsq(x, np.hstack(claimed), rcond=None)
    return matcore.orth_complement(coords)


# The subsets built from matcore.aligned_pairs(G1 N_v, G2 N_w): the subset,
# whether v is confined to null(H21) (N_v a null basis of H21, else
# the identity), whether w is confined to null(H12), and the earlier
# subsets whose eavesdropper images it must avoid.  Rows run in priority
# order, so every subset named in an exclusion list is built first.
_GSVD_SUBSETS = (
    (Subset.III, True, True, ()),
    (Subset.IV, False, True, (Subset.III,)),
    (Subset.V, True, False, (Subset.III,)),
    (Subset.VI, False, False, (Subset.III, Subset.IV, Subset.V)),
)


def _build_bases(ch: ChannelSet, needed: dict[Subset, int]) -> dict[Subset, SubsetBasis]:
    """Construct the requested subset bases, sharing intermediates.

    Subsets I and II come from the null space of G1.  Subsets III..VI are
    built from the ``_GSVD_SUBSETS`` table: a subset is built when its
    capacity is positive and either it is requested or a requested subset
    with positive capacity must avoid its images.  Higher-priority subsets
    claim eavesdropper-image directions first (IV and V avoid III, VI
    avoids III, IV and V); lower ones parametrize only the orthogonal
    remainder of their shared subspace, which keeps any cross-subset
    selection linearly independent.
    """
    cfg = ch.config
    dims = region.subset_dims(cfg)
    counts = dict(zip(Subset, dims.as_tuple()))
    out: dict[Subset, SubsetBasis] = {}

    def want(sub: Subset) -> bool:
        return needed.get(sub, 0) > 0 and counts[sub] > 0

    if want(Subset.I) or want(Subset.II):
        # within null(G1), I spans null(H21) and II its orthogonal complement
        null_g1 = matcore.null_basis(ch.g1)
        inner = matcore.null_basis(ch.h21 @ null_g1)
        for sub in (Subset.I, Subset.II):
            if want(sub):
                v = null_g1 @ (inner if sub is Subset.I else matcore.orth_complement(inner))
                out[sub] = SubsetBasis(sub, v, np.zeros((cfg.ns2, v.shape[1]), dtype=np.complex128))

    built = [
        row for row in _GSVD_SUBSETS
        if counts[row[0]] > 0
        and (want(row[0]) or any(want(o) and row[0] in avoid for o, _, _, avoid in _GSVD_SUBSETS))
    ]
    null_h21 = matcore.null_basis(ch.h21) if any(row[1] for row in built) else None
    null_h12 = matcore.null_basis(ch.h12) if any(row[2] for row in built) else None
    for sub, v_in_null, w_in_null, avoid in built:
        v, w, x = matcore.aligned_pairs(ch.g1 @ null_h21 if v_in_null else ch.g1,
                                        ch.g2 @ null_h12 if w_in_null else ch.g2)
        if v_in_null:
            v = null_h21 @ v
        if w_in_null:
            w = null_h12 @ w
        if avoid:
            z = _exclusion_coords(x, [ch.g1 @ out[o].v_basis for o in avoid if o in out])
            v, w = v @ z, w @ z
        out[sub] = SubsetBasis(sub, v, w)

    for sub in Subset:
        if sub not in out:
            out[sub] = _empty_basis(sub, cfg)
    return out


def subset_basis(ch: ChannelSet, subset: Subset | int) -> SubsetBasis:
    """Basis of aligned precoding vector pairs for one subset.

    The basis width equals the subset's capacity for the channel set's
    antenna configuration (zero-width when that capacity is zero).
    Subsets III..VI follow the ``_GSVD_SUBSETS`` table: III's columns are
    ordered by descending generalized singular value of its GSVD; IV and
    V span only the part of their shared eavesdropper image outside
    III's, and VI only the part outside the images of III, IV and V.
    """
    sub = Subset(subset)
    return _build_bases(ch, {sub: 1})[sub]


# ---------------------------------------------------------------------------
# assembly


def _equal_power_columns(m: np.ndarray, total: float) -> np.ndarray:
    """Scale nonzero columns to share ``total`` trace power equally.

    Structurally zero columns are left in place; a matrix with no nonzero
    columns collapses to zero width since it cannot carry power.
    """
    if m.shape[1] == 0:
        return m.copy()
    norms = np.linalg.norm(m, axis=0)
    nz = norms > 0
    n_active = int(np.count_nonzero(nz))
    if n_active == 0:
        return np.zeros((m.shape[0], 0), dtype=np.complex128)
    out = m.copy()
    out[:, nz] = m[:, nz] * (np.sqrt(total / n_active) / norms[nz])
    return out


def with_power(pair: PrecoderPair, power: float) -> PrecoderPair:
    """Renormalize a pair to a trace budget, equally across nonzero streams."""
    if not 0 < power < math.inf:
        raise ValueError(f"power must be positive and finite, got {power!r}")
    return PrecoderPair(
        v=_equal_power_columns(pair.v, power),
        w=_equal_power_columns(pair.w, power),
        power=power,
    )


def construct(ch: ChannelSet, target: SdofPoint | tuple[int, int], power: float) -> PrecoderPair:
    """Assemble a precoder pair achieving ``target`` on or inside the boundary.

    Confidential streams are drawn subset by subset in the counts
    :func:`region.select_streams` gives.  The public precoder starts from
    the paired columns and is topped up with null-space beams (invisible
    to the confidential receiver) and then leading right-singular
    directions of its own channel until it supports the requested public
    D.o.F.  Finally both matrices are scaled to the trace budget, equally
    across nonzero streams.

    Boundary targets are achieved exactly.  For a dominated interior
    target the jamming columns required by the confidential side may
    already hand the public link more dimensions than asked; the result
    then scores at least the requested public D.o.F.

    Raises :class:`TargetInfeasible` for points outside the region and
    :class:`ConstructionDeficit` when a numerical rank check fails after
    assembly (a degenerate channel draw).
    """
    if not 0 < power < math.inf:
        raise ValueError(f"power must be positive and finite, got {power!r}")
    target = SdofPoint(*target)
    cfg = ch.config
    d1, d2 = target
    if d1 < 0 or d2 < 0 or d1 > region.su1(cfg) or d2 > region.d2_max(cfg, d1):
        raise TargetInfeasible(f"target {tuple(target)} outside the region for {cfg.as_tuple()}")

    ns1, ns2 = cfg.ns1, cfg.ns2
    if d1 == 0:
        # no confidential stream: a plain point-to-point public link served
        # by the strongest right-singular directions of its own channel
        v = np.zeros((ns1, 0), dtype=np.complex128)
        if d2 == 0:
            return PrecoderPair(v=v, w=np.zeros((ns2, 0), dtype=np.complex128), power=power)
        rmat = np.linalg.svd(ch.h22)[2].conj().T
        return with_power(PrecoderPair(v=v, w=rmat[:, :d2]), power)

    wanted = dict(zip(Subset, region.select_streams(cfg, d1)))
    try:
        bases = _build_bases(ch, wanted)
    except DegenerateInput as exc:
        raise ConstructionDeficit(f"subset decomposition failed: {exc}") from exc

    v_cols, w_cols = [], []
    order = (Subset.I, Subset.III, Subset.V, Subset.II, Subset.IV, Subset.VI)
    for sub in order:
        n = wanted[sub]
        if n == 0:
            continue
        basis = bases[sub]
        if basis.width < n:
            raise ConstructionDeficit(
                f"subset {sub.name} supplied {basis.width} pairs, needed {n}"
            )
        v_cols.append(basis.v_basis[:, :n])
        w_cols.append(basis.w_basis[:, :n])
    v = np.hstack(v_cols)
    w1 = np.hstack(w_cols)

    rank_w1 = matcore.rank_tol(w1)
    deficit = d2 - rank_w1
    if deficit > 0:
        # beams invisible to the confidential receiver first; the paired
        # columns from III/IV already sit in that null space, so only its
        # unused dimensions are available
        null_used = wanted[Subset.III] + wanted[Subset.IV]
        extra = min(deficit, max(ns2 - cfg.nd1 - null_used, 0))
        blocks = [w1]
        if extra > 0:
            blocks.append(matcore.null_basis(ch.h12)[:, :extra])
        if deficit - extra > 0:
            rmat = np.linalg.svd(ch.h22)[2].conj().T
            blocks.append(rmat[:, : deficit - extra])
        w = np.hstack(blocks)
    else:
        w = w1

    if matcore.image_quotient((ch.h11, v)) != d1:
        raise ConstructionDeficit("confidential streams lost rank at the receiver")
    if matcore.image_quotient((ch.h22, w), (ch.h21, v)) < d2:
        raise ConstructionDeficit("public streams do not span the target dimensions")

    return with_power(PrecoderPair(v=v, w=w), power)


def right_multiply(pair: PrecoderPair, a: np.ndarray, b: np.ndarray) -> PrecoderPair:
    """Apply invertible right factors to both precoders (span preserving)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != (pair.kv, pair.kv) or b.shape != (pair.kw, pair.kw):
        raise ValueError("right factors must be square and match the column counts")
    return PrecoderPair(v=pair.v @ a, w=pair.w @ b, power=pair.power)


_MAX_CONDITION = 1e6


def _well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random complex square factor, resampled until comfortably invertible."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    while True:
        m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        if np.linalg.cond(m) <= _MAX_CONDITION:
            return m


def randomize(pair: PrecoderPair, rng: np.random.Generator) -> PrecoderPair:
    """Right-multiply both precoders by random invertible factors.

    The spans, and therefore the achieved S.D.o.F. pair, are unchanged;
    power is renormalized to the pair's budget when one is set.
    """
    out = right_multiply(pair, _well_conditioned(rng, pair.kv), _well_conditioned(rng, pair.kw))
    if pair.power is not None:
        out = with_power(out, pair.power)
    return out
