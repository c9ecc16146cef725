"""Precoding-matrix construction for target secrecy-D.o.F. pairs.

Builds per-subset bases of aligned precoding vector pairs and assembles
full precoding matrices (V, W) that achieve a requested point on the
region boundary: confidential streams whose eavesdropper images are
reproduced by the public transmission, plus extra public beams filling
the remaining interference-free dimensions at the public receiver.  The
assembly is written once, over a stack of draws of one configuration
(:func:`_assemble`); :func:`construct` runs it on a stack of one, and
``chansim.run_point`` on the trials of a Monte-Carlo point.  The pair it
returns has been scored by :func:`_quotients`, the package's one
S.D.o.F. scorer, which :func:`verifier.sdof_of` applies too.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

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


# the fields of a ChannelSet, in order
_CHANNELS = ("h11", "h12", "h21", "h22", "g1", "g2")


def _shapes(cfg: AntennaConfig) -> tuple[tuple[int, int], ...]:
    """The shapes of a channel set's matrices, in ``_CHANNELS`` order."""
    return ((cfg.nd1, cfg.ns1), (cfg.nd1, cfg.ns2), (cfg.nd2, cfg.ns1),
            (cfg.nd2, cfg.ns2), (cfg.ne, cfg.ns1), (cfg.ne, cfg.ns2))


def _split(flat: np.ndarray, cfg: AntennaConfig) -> list[np.ndarray]:
    """The six matrices, in ``_CHANNELS`` order, that fill the last axis of
    ``flat`` one after another, each row-major: views of ``flat``, stacked
    over its other axes."""
    mats, start = [], 0
    for rows, cols in _shapes(cfg):
        mats.append(flat[..., start:start + rows * cols].reshape(*flat.shape[:-1], rows, cols))
        start += rows * cols
    return mats


def _check_matrices(obj, names: tuple[str, ...], columns: bool = False) -> None:
    """Set each named field of ``obj`` to a complex matrix (a 1-D value a column
    when ``columns``), or raise ``ValueError`` if it is not 2-D, not finite,
    or has a Frobenius norm beyond the float range, which every cutoff and
    power test takes."""
    for name in names:
        m = np.asarray(getattr(obj, name), dtype=np.complex128)
        m = m.reshape(-1, 1) if columns and m.ndim == 1 else m
        if m.ndim != 2:
            raise ValueError(f"{name} must be a 2-D matrix, got shape {m.shape}")
        # one pass for both tests: NaN when an entry is not finite
        norm = matcore._frobenius(m)
        if math.isnan(norm):
            raise ValueError(f"{name} contains non-finite entries")
        if norm == math.inf:
            raise ValueError(f"{name} has a Frobenius norm beyond the float range")
        object.__setattr__(obj, name, m)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """The six channel matrices of the two-user wiretap interference network.

    ``hij`` maps source j to destination i; ``gj`` maps source j to the
    eavesdropper.  Where the set is built, each must be a finite 2-D
    matrix of the shape ``_shapes`` gives for one antenna configuration,
    or ``ValueError`` names it.
    """

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        _check_matrices(self, _CHANNELS)
        # the configuration refuses an empty dimension before any shape is compared
        for name, shape in zip(_CHANNELS, _shapes(self.config)):
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")

    @property
    def config(self) -> AntennaConfig:
        # the last two axes, so a set of (T, m, n) stacks has its items' config
        (nd1, ns1), (nd2, ns2) = self.h11.shape[-2:], self.h22.shape[-2:]
        return AntennaConfig(ns1, ns2, nd1, nd2, self.g1.shape[-2])

    def full_rank(self):
        """True when all six matrices are full rank under the default
        tolerance; a set of ``(T, m, n)`` stacks gives one bool per item."""
        return _full_rank(*(getattr(self, name) for name in _CHANNELS))


def _trusted(*mats: np.ndarray) -> ChannelSet:
    """A :class:`ChannelSet` of six finite complex128 matrices, or stacks of
    them, of one configuration, in ``_CHANNELS`` order, that the package
    drew or checked itself: built without ``__post_init__``'s coercion and
    checks, which refuse a stack."""
    ch = object.__new__(ChannelSet)
    ch.__dict__.update(zip(_CHANNELS, mats))
    return ch


def _full_rank(*mats: np.ndarray):
    """True, as a NumPy bool, when every matrix has rank ``min(m, n)``
    under :func:`matcore.rank_tol`; stacks of one size give one bool per
    item.  One SVD call per matrix or stack.

    Calls the unchecked :func:`matcore._rank`: every matrix passed here
    was checked when its :class:`ChannelSet` was built, or was drawn by
    the package."""
    return np.all([matcore._rank(m) == min(m.shape[-2:]) for m in mats], axis=0)


@dataclass(frozen=True, eq=False)
class PrecoderPair:
    """Transmit precoders V (confidential) and W (public/jamming).

    ``power`` is the per-source trace budget once the pair has been
    normalized; ``None`` marks a raw, unnormalized pair.  Power is split
    equally across the nonzero columns of each matrix; structurally zero
    columns (paired with null-space confidential streams) carry none.
    Each matrix is checked where the pair is built, as a channel set's
    are, except that a 1-D vector is taken as a column.
    """

    v: np.ndarray
    w: np.ndarray
    power: float | None = None

    def __post_init__(self):
        _check_matrices(self, ("v", "w"), columns=True)

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

    v_basis: np.ndarray
    w_basis: np.ndarray

    @property
    def width(self) -> int:
        return self.v_basis.shape[-1]


# A stack of T > 1 matrices of one shape is a (T, m, n) array; a stack of
# one is the matrix itself, so the T = 1 case runs on plain matrices.


def _exclusion_coords(x: np.ndarray, claimed: list[np.ndarray]) -> np.ndarray:
    """Coordinates, within the shared image basis ``x`` (full column rank),
    that complete the directions already claimed by higher-priority subsets:
    the complement of the claimed ones' least-squares coordinates."""
    return matcore._orth_complement(matcore._lstsq(x, np.concatenate(claimed, axis=-1)))


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


def _build_bases(ch: ChannelSet, cfg: AntennaConfig,
                 needed: Mapping[Subset, int]) -> dict[Subset, SubsetBasis]:
    """Construct the requested subset bases of a channel stack, sharing
    intermediates; each basis is a stack of the same size.

    Subsets I and II come from the null space of G1.  Subsets III..VI are
    built from the ``_GSVD_SUBSETS`` table: a subset is built when its
    capacity is positive and either it is requested or a requested subset
    with positive capacity must avoid its images.  Higher-priority subsets
    claim eavesdropper-image directions first (IV and V avoid III, VI
    avoids III, IV and V); lower ones parametrize only the orthogonal
    remainder of their shared subspace, which keeps any cross-subset
    selection linearly independent.  Only built subsets are returned.
    The channels were checked when their sets were built, so the bases
    come from :mod:`matcore`'s unchecked bodies.
    """
    counts = dict(zip(Subset, region.subset_dims(cfg).as_tuple()))
    out: dict[Subset, SubsetBasis] = {}

    def want(sub: Subset) -> bool:
        return needed.get(sub, 0) > 0 and counts[sub] > 0

    if want(Subset.I) or want(Subset.II):
        # within null(G1), I spans null(H21) and II its orthogonal complement
        null_g1 = matcore._null_basis(ch.g1)
        inner = matcore._null_basis(ch.h21 @ null_g1)
        for sub in (Subset.I, Subset.II):
            if want(sub):
                v = null_g1 @ (inner if sub is Subset.I else matcore._orth_complement(inner))
                w = np.zeros(v.shape[:-2] + (cfg.ns2, v.shape[-1]), dtype=np.complex128)
                out[sub] = SubsetBasis(v, w)

    built = [
        row for row in _GSVD_SUBSETS
        if counts[row[0]] > 0
        and (want(row[0]) or any(want(o) and row[0] in avoid for o, _, _, avoid in _GSVD_SUBSETS))
    ]
    null_h21 = matcore._null_basis(ch.h21) if any(row[1] for row in built) else None
    null_h12 = matcore._null_basis(ch.h12) if any(row[2] for row in built) else None
    for sub, v_in_null, w_in_null, avoid in built:
        v, w, x = matcore.aligned_pairs(ch.g1 @ null_h21 if v_in_null else ch.g1,
                                        ch.g2 @ null_h12 if w_in_null else ch.g2)
        if v_in_null:
            v = null_h21 @ v
        if w_in_null:
            w = null_h12 @ w
        claimed = [ch.g1 @ out[o].v_basis for o in avoid if o in out]
        if claimed:
            z = _exclusion_coords(x, claimed)
            v, w = v @ z, w @ z
        out[sub] = SubsetBasis(v, w)
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
    cfg = ch.config
    empty = SubsetBasis(np.zeros((cfg.ns1, 0), dtype=np.complex128),
                        np.zeros((cfg.ns2, 0), dtype=np.complex128))
    return _build_bases(ch, cfg, {sub: 1}).get(sub, empty)


# ---------------------------------------------------------------------------
# assembly


def _equal_power_columns(m: np.ndarray, total: float) -> np.ndarray:
    """Scale the nonzero columns of each item of a stack to share ``total``
    trace power equally.

    Structurally zero columns are left in place; a matrix with no nonzero
    columns collapses to zero width since it cannot carry power.  The
    items must share their pattern of zero columns.
    """
    if m.shape[-1] == 0:
        return m.copy()
    norms = matcore._column_norms(m)
    nz = norms > 0
    if m.ndim == 3:
        nz = matcore._agreed(nz)
    n_active = int(np.count_nonzero(nz))
    if n_active == 0:
        return np.zeros(m.shape[:-1] + (0,), dtype=np.complex128)
    # a zero column times its gain stays zero
    gain = np.sqrt(total / n_active) / np.where(nz, norms, 1.0)
    return m * gain[..., None, :]


def _check_power(power: float) -> None:
    if not 0 < power < math.inf:
        raise ValueError(f"power must be positive and finite, got {power!r}")


def with_power(pair: PrecoderPair, power: float) -> PrecoderPair:
    """Renormalize a pair to a trace budget, equally across nonzero streams."""
    _check_power(power)
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
    across nonzero streams.  A target with d1 = 0 takes the same path and
    the same check: with no confidential stream to protect it takes no
    null-space beam, so its public beams are the leading right-singular
    directions alone.

    The returned pair is scored as :func:`verifier.sdof_of` scores it: its
    confidential D.o.F. equals the target's, and its public D.o.F. is at
    least the target's.  Boundary targets are achieved exactly.  For a
    dominated interior target the jamming columns required by the
    confidential side may already hand the public link more dimensions
    than asked.

    Raises :class:`TargetInfeasible` for points outside the region and
    :class:`ConstructionDeficit`, naming the cause, when the scored pair
    misses the target (a degenerate channel draw), whatever the target.
    The assembly is :func:`_assemble` on a stack of one.
    """
    target = SdofPoint(*target)
    cfg = ch.config
    v, w = _assemble(ch, cfg, target, _plan(cfg, target, power), power)
    return PrecoderPair(v=v, w=w, power=power)


def _plan(cfg: AntennaConfig, target: SdofPoint, power: float) -> Mapping[Subset, int]:
    """The confidential streams per subset for ``target``, once the power
    and the target's feasibility for ``cfg`` have been checked.

    The power is checked on every call; the rest is :func:`_streams`.
    """
    _check_power(power)
    return _streams(cfg, target)


# unbounded: a key is a config and a target that a caller asked for
@functools.cache
def _streams(cfg: AntennaConfig, target: SdofPoint) -> Mapping[Subset, int]:
    """The read-only stream plan of a feasible target; raises
    :class:`TargetInfeasible` (never cached) on every call for one outside
    the region."""
    d1, d2 = target
    if d1 < 0 or d2 < 0 or d1 > region.su1(cfg) or d2 > region.d2_max(cfg, d1):
        raise TargetInfeasible(f"target {tuple(target)} outside the region for {cfg.as_tuple()}")
    return MappingProxyType(dict(zip(Subset, region.select_streams(cfg, d1))))


def _assemble(ch: ChannelSet, cfg: AntennaConfig, target: SdofPoint,
              wanted: Mapping[Subset, int], power: float) -> tuple[np.ndarray, np.ndarray]:
    """One stack of :func:`construct` on the channels ``ch``, six stacks
    of one configuration, with ``wanted`` the :func:`_plan` of the target:
    the normalized V and W stacks (plain matrices for a stack of one).

    The normalized pair is scored by :func:`_quotients`, the scorer of
    :func:`verifier.sdof_of`, and :class:`ConstructionDeficit` is raised
    unless its confidential D.o.F. equals the target's and its public
    D.o.F. is at least the target's.  A confidential miss names its cause:
    a leak to the eavesdropper when ``dim(G1 V outside G2 W)`` is nonzero,
    else lost rank at the confidential receiver.

    Raises for the whole stack, or :class:`matcore._StackSplit` when its
    items need different paths.  The paired public columns are sized by
    the public :func:`matcore.rank_tol`.
    """
    d1, d2 = target
    lead = ch.g1.shape[:-2]
    try:
        bases = _build_bases(ch, cfg, wanted)
    except DegenerateInput as exc:
        raise ConstructionDeficit(f"subset decomposition failed: {exc}") from exc

    # one zero-width block each, so a target with no confidential stream
    # (d1 = 0) takes the same tail and the same checks
    v_cols = [np.zeros(lead + (cfg.ns1, 0), dtype=np.complex128)]
    w_cols = [np.zeros(lead + (cfg.ns2, 0), dtype=np.complex128)]
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
        v_cols.append(basis.v_basis[..., :n])
        w_cols.append(basis.w_basis[..., :n])
    v = np.concatenate(v_cols, axis=-1)
    w1 = np.concatenate(w_cols, axis=-1)

    deficit = d2 - int(matcore._agreed(matcore.rank_tol(w1)))
    if deficit > 0:
        # beams invisible to the confidential receiver first, when there is
        # one to protect; the paired columns from III/IV already sit in that
        # null space, so only its unused dimensions are available
        null_used = wanted[Subset.III] + wanted[Subset.IV]
        extra = min(deficit, max(cfg.ns2 - cfg.nd1 - null_used, 0)) if d1 else 0
        blocks = [w1]
        if extra > 0:
            blocks.append(matcore._null_basis(ch.h12)[..., :extra])
        if deficit - extra > 0:
            blocks.append(matcore._svd(ch.h22)[2][..., : deficit - extra])
        w = np.concatenate(blocks, axis=-1)
    else:
        w = w1

    # the pair returned is the pair scored
    v, w = _equal_power_columns(v, power), _equal_power_columns(w, power)
    leak, signal, public = _quotients(ch, v, w)
    if not matcore._agreed(np.maximum(signal - leak, 0) == d1):
        if matcore._agreed(leak != 0):
            raise ConstructionDeficit("confidential streams leak to the eavesdropper")
        raise ConstructionDeficit("confidential streams lost rank at the receiver")
    if not matcore._agreed(public >= d2):
        raise ConstructionDeficit("public streams do not span the target dimensions")
    return v, w


def _quotients(ch: ChannelSet, v: np.ndarray, w: np.ndarray):
    """The three image quotients that score a precoder pair on a channel
    set, or each item of a stack: the leak ``dim(G1 V outside G2 W)``,
    ``dim(H11 V outside H12 W)`` and ``dim(H22 W outside H21 V)``; Python
    ints for one pair, one array entry per item for a stack.

    The scored pair is ``(max(signal - leak, 0), public)``
    (:func:`verifier.sdof_of`).  Each of the eight factors is normed once,
    and each quotient equals :func:`matcore.image_quotient` of its
    factors; they run unchecked, since the channels and the precoders
    were checked or built by the package.
    """
    norm = matcore._frobenius
    nv, nw = norm(v), norm(w)
    quotient = matcore._image_quotient
    leak = quotient((ch.g1, v), (ch.g2, w), (norm(ch.g1), nv, norm(ch.g2), nw))
    # rank(H11 V) less its overlap with span(H12 W) is the quotient dimension
    signal = quotient((ch.h11, v), (ch.h12, w), (norm(ch.h11), nv, norm(ch.h12), nw))
    public = quotient((ch.h22, w), (ch.h21, v), (norm(ch.h22), nw, norm(ch.h21), nv))
    return leak, signal, public


def right_multiply(pair: PrecoderPair, a: np.ndarray, b: np.ndarray) -> PrecoderPair:
    """Apply invertible right factors to both precoders (span preserving)."""
    if np.shape(a) != (pair.kv, pair.kv) or np.shape(b) != (pair.kw, pair.kw):
        raise ValueError("right factors must be square and match the column counts")
    return PrecoderPair(v=pair.v @ a, w=pair.w @ b, power=pair.power)


_MAX_CONDITION = 1e6


def _well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random complex square factor, resampled until comfortably invertible."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    while True:
        m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        sv = matcore._singular_values(m)
        if sv[0] / sv[-1] <= _MAX_CONDITION:  # the 2-norm condition number
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
