"""Channel generation and Monte-Carlo secrecy-rate experiments.

Supports plain unit-variance Gaussian channels and a line-of-sight model
with distance path loss and i.i.d. random phases, with the two sources at
fixed planar positions and each receiver dropped on a ring around its own
source.  Eavesdropper channels can carry a mixing-model estimation error,
in which case precoders are designed on the estimate and rates are scored
on the true channel.

Per-trial random streams are derived by hashing (seed, trial index), so
results are reproducible and independent of execution order.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import matcore
from . import precoder as pc
from . import verifier
from .errors import ConstructionDeficit, DegenerateDraw
from .region import AntennaConfig, SdofPoint

__all__ = [
    "Geometry",
    "Scenario",
    "Sweep",
    "CurveRecord",
    "PointStats",
    "TrialChannels",
    "gaussian_channels",
    "draw_trial",
    "run_point",
    "monte_carlo",
    "write_curve_csv",
    "CSV_COLUMNS",
]

SWEEP_VARIABLES = ("s1_s2_distance", "uncertainty_alpha", "power_dbm", "noise_power_dbm")


def _is(value, kind: type) -> bool:
    """Whether ``value`` is a ``kind`` number (say ``numbers.Integral``)
    and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class Geometry:
    """Planar layout: source positions plus the receiver ring radius bound.

    Each destination and the eavesdropper are dropped uniformly on a ring
    (radius uniform in [1, ring_radius], angle uniform) around their own
    source; the eavesdropper rings the confidential source.  Draws are
    rejected while any link distance drops below one meter or a receiver
    lands farther from its source than the source-source spacing, so the
    sources must be at least one meter apart; they must also lie near
    enough that ``(spacing + ring_radius)**2``, which bounds every squared
    link distance, is a finite float.  ``resample_rings`` redraws
    positions every trial; otherwise the trial index 0 positions are
    reused throughout.  Each source position is stored as a pair of
    floats, so a list gives the geometry that its tuple gives.
    """

    s1: tuple[float, float]
    s2: tuple[float, float]
    ring_radius: float = 10.0
    resample_rings: bool = True

    def __post_init__(self):
        for name in ("s1", "s2"):
            point = getattr(self, name)
            point = tuple(point) if np.iterable(point) else ()
            if len(point) != 2 or not all(_is(x, numbers.Real) for x in point):
                raise ValueError(f"{name} must be a pair of real coordinates")
            object.__setattr__(self, name, (float(point[0]), float(point[1])))
        if not _is(self.ring_radius, numbers.Real):
            raise ValueError("ring_radius must be a real number")
        if not isinstance(self.resample_rings, bool):
            raise ValueError("resample_rings must be a bool")
        if not 1.0 <= self.ring_radius <= 10.0:
            raise ValueError("ring radius must lie in [1, 10] meters")
        if not all(math.isfinite(x) for x in (*self.s1, *self.s2)):
            raise ValueError("source coordinates must be finite")
        spacing = math.dist(self.s1, self.s2)
        if spacing < 1.0:
            raise ValueError("sources must be at least one meter apart")
        # bounds every squared link distance, which must stay in the float range
        reach = spacing + self.ring_radius
        if not math.isfinite(reach * reach):
            raise ValueError("sources are so far apart that a squared link distance overflows")


def _db_to_linear(level_db: float) -> float:
    """Linear value of a level in dB (a dBm level gives milliwatts).

    Raises ``ValueError`` unless the result is a positive finite number.
    """
    try:
        value = 10.0 ** (level_db / 10.0)
    except OverflowError:
        value = math.inf
    if not 0 < value < math.inf:
        raise ValueError(f"{level_db!r} dB is not a positive finite linear power")
    return value


@dataclass(frozen=True)
class Scenario:
    """One Monte-Carlo experiment definition.

    ``geometry=None`` selects plain unit-variance Gaussian channels.
    ``uncertainty_alpha`` mixes a Gaussian error into the eavesdropper
    channels actually used for rate scoring, while construction sees only
    the estimate.  Powers are in dBm; the rate formulas run at the
    effective SNR ``power / noise``.
    """

    config: AntennaConfig
    geometry: Geometry | None = None
    pathloss_exponent: float = 3.5
    noise_power_dbm: float = -60.0
    power_dbm: float = 0.0
    uncertainty_alpha: float = 0.0
    trials: int = 1000
    seed: int = 0
    sweep: "Sweep | None" = None

    def __post_init__(self):
        if not isinstance(self.config, AntennaConfig):
            raise ValueError("config must be an AntennaConfig")
        if not isinstance(self.geometry, (Geometry, type(None))):
            raise ValueError("geometry must be a Geometry or None")
        for name in ("trials", "seed"):
            if not _is(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("pathloss_exponent", "noise_power_dbm", "power_dbm", "uncertainty_alpha"):
            if not _is(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a real number")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:  # NumPy's seeding would refuse it at the first draw
            raise ValueError("seed must be non-negative")
        # both reject NaN as well
        if not 0 < self.pathloss_exponent < math.inf:
            raise ValueError("pathloss_exponent must be positive and finite")
        if not 0 <= self.uncertainty_alpha < math.inf:
            raise ValueError("uncertainty_alpha must be non-negative and finite")
        # dataclasses.replace runs this too, so swept values are checked
        _db_to_linear(self.power_dbm - self.noise_power_dbm)

    @property
    def effective_power(self) -> float:
        """Transmit power over noise power, in linear units."""
        return _db_to_linear(self.power_dbm - self.noise_power_dbm)


@dataclass(frozen=True)
class Sweep:
    """One swept scenario field and its values, stored as a tuple of
    floats, so a list gives the sweep that its tuple gives."""

    variable: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        values = tuple(self.values) if np.iterable(self.values) else (None,)
        if not all(_is(x, numbers.Real) for x in values):
            raise ValueError("sweep values must be real numbers")
        if not values:
            raise ValueError("sweep needs at least one value")
        object.__setattr__(self, "values", tuple(map(float, values)))


@dataclass(frozen=True)
class TrialChannels:
    """Channels of one trial: the estimate used for design and the truth.

    From :func:`draw_trial` over several trials, each set is a stack of
    ``(T, m, n)`` arrays: row i holds trial ``trials[i]``, and
    ``streams[i]`` is that trial's generator, left where its draw ended.
    Either way, the true set shares the design set's H matrices, and is
    the design set itself without uncertainty.
    """

    design: pc.ChannelSet
    actual: pc.ChannelSet
    trials: tuple[int, ...] = ()
    streams: tuple[np.random.Generator, ...] = ()


@dataclass(frozen=True)
class PointStats:
    mean_rs1: float
    se_rs1: float
    mean_rs2: float
    se_rs2: float
    failures: int
    trials: int


@dataclass(frozen=True)
class CurveRecord:
    variable: str
    x: float
    stats: PointStats


CSV_COLUMNS = ("x", "mean_rs1", "se_rs1", "mean_rs2", "se_rs2", "failures")


def _curve_fields(rec: CurveRecord) -> dict:
    """A record's ``CSV_COLUMNS`` by name: its x, then its stats' fields."""
    return {name: rec.x if name == "x" else getattr(rec.stats, name) for name in CSV_COLUMNS}


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,)))


def gaussian_channels(cfg: AntennaConfig, rng: np.random.Generator) -> pc.ChannelSet:
    """One unit-variance complex Gaussian channel set.

    The values come from one call, laid out by :func:`_gaussian_layout`,
    which is what drawing each matrix in turn as ``(rng.standard_normal((m,
    n)) + 1j * rng.standard_normal((m, n))) / sqrt(2)`` would draw.
    Their complex values are formed in one pass, and the six matrices are
    views of it.
    """
    re, im = _gaussian_parts(cfg)
    return pc._trusted(*_gaussian_layout(cfg, rng.standard_normal(re.size + im.size)))


@functools.cache  # one entry per configuration drawn
def _gaussian_parts(cfg: AntennaConfig) -> tuple[np.ndarray, np.ndarray]:
    """The positions of each entry's real and imaginary parts among a
    Gaussian set's values: each matrix's real parts, then its imaginary
    parts, row-major, in channel order (callers must not mutate them)."""
    sizes = [rows * cols for rows, cols in pc._shapes(cfg)]
    re = np.arange(sum(sizes)) + np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    return re, re + np.repeat(sizes, sizes)


def _gaussian_layout(cfg: AntennaConfig, z: np.ndarray) -> list[np.ndarray]:
    """The six unit-variance complex Gaussian matrices, in channel order,
    that standard normal values ``z`` give, laid out along their last axis
    (:func:`_gaussian_parts`): one set's from 1-D values, and a ``(T, m,
    n)`` stack of each from ``(T, size)`` values, row i from row i."""
    re, im = _gaussian_parts(cfg)
    # (re + 1j * im) / sqrt(2), element by element
    return pc._split((z.take(re, -1) + 1j * z.take(im, -1)) / np.sqrt(2), cfg)


def _true_eve(g_est: list[np.ndarray], alpha: float, gains: np.ndarray,
              streams: tuple[np.random.Generator, ...]) -> list[np.ndarray]:
    """True eavesdropper channels of a stack, for ``alpha > 0``, given
    their estimates before path loss: ``g_est`` holds ``(T, m, n)``
    stacks (g1's, then g2's), row i drawn by ``streams[i]``, and
    ``gains[i, k]`` is row i's path-loss gain of ``g_est[k]``.

    Each estimate is mixed with an independent standard complex Gaussian
    error at weights ``(1+alpha)**-0.5`` and ``sqrt(alpha/(1+alpha))``,
    then scaled by its gain, in one pass over the stack.  Each stream
    makes one ``standard_normal`` call for all of its row's errors: each
    matrix's real parts, then its imaginary parts, row-major, in ``g_est``
    order, formed as :func:`_gaussian_layout` forms them.
    Unchecked: :class:`Scenario` has checked ``alpha``."""
    sizes = [math.prod(g.shape[1:]) for g in g_est]
    width = 2 * sum(sizes)
    z = np.reshape([rng.standard_normal(width) for rng in streams], (len(streams), width))
    true, start = [], 0
    for g, size, gain in zip(g_est, sizes, gains.T):
        re, im = z[:, start:start + size], z[:, start + size:start + 2 * size]
        err = ((re + 1j * im) / np.sqrt(2)).reshape(g.shape)
        true.append(gain[:, None, None]
                    * (g / np.sqrt(1.0 + alpha) + np.sqrt(alpha / (1.0 + alpha)) * err))
        start += 2 * size
    return true


_MAX_RESAMPLES = 10


def _ring_distances(geo: Geometry, ring: np.ndarray) -> np.ndarray:
    """The six link distances, in ``precoder._CHANNELS`` order, of
    placements given as (radius, angle) pairs ``ring[..., j, :]`` of
    destination 1, destination 2 and the eavesdropper around s1, s2 and
    s1.  Each is the square root of a (1 x 2)(2 x 1) product, as
    ``np.linalg.norm`` takes a vector's, so a stack of placements gives
    bitwise the distances that each gives alone."""
    radius, angle = ring[..., 0], ring[..., 1]
    unit = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    receivers = np.array([geo.s1, geo.s2, geo.s1]) + radius[..., None] * unit
    diff = receivers[..., [0, 0, 1, 1, 2, 2], :] - np.array([geo.s1, geo.s2] * 3)
    return np.sqrt(diff[..., None, :] @ diff[..., None])[..., 0, 0]


def _placed(geo: Geometry, dist: np.ndarray):
    """Whether placements pass, from their link distances (the last axis):
    no link is shorter than a meter, and no receiver lies farther from its
    own source (h11, h22, g1) than the sources lie apart."""
    d12 = matcore._frobenius(np.subtract(geo.s1, geo.s2))
    return (dist >= 1.0).all(axis=-1) & (dist[..., [0, 3, 4]] <= d12).all(axis=-1)


def _link_distances(geo: Geometry, streams: tuple[np.random.Generator, ...]):
    """The link distances of each stream's first receiver placement that
    passes, and whether one did: the streams rejected so far are placed
    again, as one stack, up to 1000 placements each.

    A placement is one ``rng.random(6)`` call ``u`` per stream, mapped over
    the stack as ``low + (high - low) * u``, with ``low = [1, 0] * 3`` and
    ``high = [ring_radius, 2*pi] * 3``: the radius and angle of destination
    1, destination 2 and the eavesdropper.  This is the stream contract.
    It gives bitwise what ``rng.uniform(low, high)`` gives value by value
    wherever NumPy compiles that as ``low + (high - low) * u`` with no
    fused multiply-add, as x86-64 builds do."""
    low = np.array([1.0, 0.0] * 3)
    span = np.array([geo.ring_radius, 2.0 * np.pi] * 3) - low
    dist, placed = np.ones((len(streams), 6)), np.zeros(len(streams), dtype=bool)
    for _ in range(1000):
        rows = np.flatnonzero(~placed)
        if not len(rows):
            break
        ring = low + span * np.array([streams[row].random(6) for row in rows])
        dist[rows] = _ring_distances(geo, ring.reshape(-1, 3, 2))
        placed[rows] = _placed(geo, dist[rows])
    return dist, placed


def draw_trial(scenario: Scenario, trials: int | Iterable[int]) -> TrialChannels:
    """A trial's first channel draw, from its own stream, not yet checked;
    or, for several trial indices such as ``range(a, b)``, the first draws
    of those trials as one stack.

    The same (scenario, trial index) always produces identical matrices.
    Gaussian scenarios draw the design set in one call, laid out as
    :func:`gaussian_channels` lays it out; line-of-sight ones place the
    receivers, one ``rng.random(6)`` call per placement (trial 0's
    placement, once per call, when the rings are not resampled;
    :func:`_link_distances`), then draw the phases of the four links and
    of the two unit-magnitude eavesdropper estimates in one call, in
    ``precoder._CHANNELS`` order and row-major within each matrix, and
    scale each matrix by its link's path-loss gain ``distance**(-c/2)``.
    Without uncertainty the true set is the design set itself; with it,
    only the true eavesdropper channels differ (:func:`_true_eve`), and
    their errors are drawn last, in one ``standard_normal`` call.  The
    channel sets are built without :class:`precoder.ChannelSet`'s checks,
    which the :class:`Scenario` and :class:`Geometry` checks make
    redundant.

    Each trial makes its own generator calls, in the same order: one per
    placement, one for the phases or the Gaussian set, and one for the
    errors.  Everything else runs once over the ``(T, m, n)`` stack, so
    row i equals ``draw_trial(scenario, trials[i])`` bitwise.  One ``int``
    index is a one-row stack whose row is returned as plain matrices
    (:func:`_rows`).  A trial whose receivers cannot be placed raises
    :class:`DegenerateDraw` alone, and has no row in a stack.

    :func:`run_point` checks each stacked draw for full rank and redraws a
    trial that fails (:func:`_checked_draws`).
    """
    single = isinstance(trials, numbers.Integral)
    trials = (trials,) if single else tuple(trials)
    chans = _draws(scenario, trials, tuple(_trial_rng(scenario.seed, t) for t in trials))
    if single and not chans.trials:
        raise DegenerateDraw("could not place receivers within geometric constraints")
    return _rows(chans, 0) if single else chans


def _draws(scenario: Scenario, trials: tuple[int, ...],
           streams: tuple[np.random.Generator, ...]) -> TrialChannels:
    """:func:`draw_trial` of the given trials from their streams, as one
    stack, without the trials whose receivers cannot be placed.  Each
    stream makes one generator call per placement (:func:`_link_distances`),
    one for its phases or its Gaussian set, and, with uncertainty, one for
    its errors (:func:`_true_eve`).  Each link's path-loss gain, a Python
    float because NumPy's array power can differ from it in the last bit,
    is taken once for its design and true channels; a Gaussian set's gain
    is 1.0."""
    cfg, geo, n = scenario.config, scenario.geometry, len(streams)
    size = sum(rows * cols for rows, cols in pc._shapes(cfg))
    if geo is None:
        z = np.reshape([rng.standard_normal(2 * size) for rng in streams], (n, 2 * size))
        est = mats = _gaussian_layout(cfg, z)
        gains = np.ones((n, 6))
    else:
        # without resampling every trial reuses trial 0's placement
        dist, placed = _link_distances(
            geo, streams if geo.resample_rings else (_trial_rng(scenario.seed, 0),))
        if not geo.resample_rings:
            dist, placed = np.repeat(dist, n, axis=0), np.repeat(placed, n)
        trials, streams = tuple(compress(trials, placed)), tuple(compress(streams, placed))
        dist, n = dist[placed], len(streams)
        phases = np.reshape([rng.uniform(0.0, 2.0 * np.pi, size) for rng in streams], (n, size))
        est = pc._split(np.exp(1j * phases), cfg)
        gains = np.reshape([[d ** (-scenario.pathloss_exponent / 2.0) for d in row]
                            for row in dist.tolist()], (n, 6))
        mats = [gain[:, None, None] * m for gain, m in zip(gains.T, est)]
    design = actual = pc._trusted(*mats)
    if scenario.uncertainty_alpha > 0:
        actual = pc._trusted(*mats[:4], *_true_eve(est[4:], scenario.uncertainty_alpha,
                                                   gains[:, 4:], streams))
    return TrialChannels(design, actual, trials, streams)


def _rows(stack: TrialChannels, index) -> TrialChannels:
    """The channels of the rows of a stack that ``index`` picks, as NumPy
    picks them from each stacked array: an ``int`` gives one trial's plain
    matrices, a slice or a bool mask a stack, so ``slice(r, r + 1)`` is
    row r's trial as a lone one-row stack.  Trial indices and streams are
    not kept."""
    design = pc._trusted(*(getattr(stack.design, name)[index] for name in pc._CHANNELS))
    actual = design if stack.actual is stack.design else pc._trusted(
        *(getattr(design, name) for name in pc._CHANNELS[:4]),
        stack.actual.g1[index], stack.actual.g2[index])
    return TrialChannels(design, actual)


def _set_rows(stack: TrialChannels, index, chans: TrialChannels) -> None:
    """Write the stack ``chans`` into the rows of a stack that ``index``
    picks, as NumPy writes into each stacked array."""
    for name in pc._CHANNELS:
        getattr(stack.design, name)[index] = getattr(chans.design, name)
    if stack.actual is not stack.design:  # its H stacks are the design set's
        stack.actual.g1[index], stack.actual.g2[index] = chans.actual.g1, chans.actual.g2


def _joined(stacks: list[TrialChannels]) -> TrialChannels:
    """Stacks of one configuration as one stack, in order."""
    def joined(sets, names):
        return [np.concatenate([getattr(s, name) for s in sets]) for name in names]

    design = actual = pc._trusted(*joined([s.design for s in stacks], pc._CHANNELS))
    if any(s.actual is not s.design for s in stacks):
        actual = pc._trusted(design.h11, design.h12, design.h21, design.h22,
                             *joined([s.actual for s in stacks], ("g1", "g2")))
    return TrialChannels(design, actual)


def _stack_or_rows(fn: Callable[[TrialChannels], Iterable], stack: TrialChannels,
                   errors: tuple[type[Exception], ...]) -> list:
    """One result per row of ``stack``: ``fn``'s on the whole stack, or, if
    that raises one of ``errors``, each row's ``fn`` on it alone, as a
    one-row stack, or the error that this raises.  A stack of one row runs
    alone at once."""
    if len(stack.design.h11) > 1:
        try:
            return list(fn(stack))
        except errors:
            pass
    outcomes = []
    for row in range(len(stack.design.h11)):
        try:
            outcomes.append(fn(_rows(stack, slice(row, row + 1)))[0])
        except errors as exc:
            outcomes.append(exc)
    return outcomes


def _full_rank_draws(scenario: Scenario, chans: TrialChannels) -> np.ndarray:
    """The full-rank check of a stack of a scenario's draws, one bool per
    row: each design set is full rank and, with uncertainty, so are the
    true ``g1`` and ``g2``.  One SVD call per stacked matrix.
    """
    ok = chans.design.full_rank()
    if scenario.uncertainty_alpha > 0:
        ok = ok & pc._full_rank(chans.actual.g1, chans.actual.g2)
    return ok


def _checked_draws(scenario: Scenario, drawn: TrialChannels) -> np.ndarray:
    """The full-rank check of a stacked :func:`draw_trial`, with one bool
    per row, true for the rows that end full rank.

    The check runs in rounds, each on one stack, as :func:`_link_distances`
    places its rejected streams: round 0 checks ``drawn``, and each later
    round the next draws of the rows still failing, which continue their
    own streams as one :func:`_draws` stack and overwrite, in place, the
    rows that pass.  A row ends false when its check raises
    ``LinAlgError``, when its redraw cannot place its receivers, or when
    none of its ``_MAX_RESAMPLES`` draws passes.

    A round's rows are checked as one stack (:func:`_full_rank_draws`):
    six SVD calls on the design sets, and two more on the true
    eavesdropper channels when they differ.  If one of them raises
    ``LinAlgError``, each row is checked alone (:func:`_stack_or_rows`).
    Each trial draws only from its own stream, in order, and the stack
    decides each row as its lone check would, so every row is bitwise
    what its trial's draws give alone.
    """
    check = functools.partial(_full_rank_draws, scenario)
    rows, chans = np.arange(len(drawn.trials)), drawn
    keep = np.zeros(len(rows), dtype=bool)
    for redraw in range(_MAX_RESAMPLES):
        if redraw:  # a row whose redraw cannot be placed has none in the stack
            trials = [drawn.trials[row] for row in rows]
            chans = _draws(scenario, tuple(trials), tuple(drawn.streams[row] for row in rows))
            rows = rows[np.isin(trials, chans.trials)]
        ok = _stack_or_rows(check, chans, (np.linalg.LinAlgError,))
        # True passes and False draws again; a LinAlgError equals neither, and ends the row
        passed, failed = (np.array([v == flag for v in ok], dtype=bool) for flag in (True, False))
        if redraw:
            _set_rows(drawn, rows[passed], _rows(chans, passed))
        keep[rows[passed]] = True
        rows = rows[failed]
        if not len(rows):
            break
    return keep


# trials assembled and scored as one stack, so memory does not grow with
# trials; on 1,000-trial points 256 ran within 3 % of one whole-point
# stack at under half its extra memory (see CHANGES.md)
_STACK_TRIALS = 256


def _stack_rates(chans: TrialChannels, cfg: AntennaConfig, target: SdofPoint,
                 wanted: dict[pc.Subset, int], power: float) -> list[verifier.RateTriple]:
    """The trials of the stack ``chans``, built on their design channels
    and scored on their true ones, which are the design set itself without
    uncertainty: raises for the whole stack, or :class:`matcore._StackSplit`
    when its items need different paths."""
    v, w = pc._assemble(chans.design, cfg, target, wanted, power)
    return verifier._score(chans.actual, v, w)


def _stack_outcomes(chans: TrialChannels, cfg: AntennaConfig, target: SdofPoint,
                    wanted: dict[pc.Subset, int], power: float) -> list:
    """One outcome per row of the stack ``chans``: its rate triple, or the
    :class:`ConstructionDeficit` or ``LinAlgError`` that it raises alone.

    The rows run as one :func:`_stack_rates` stack; if that raises, each
    row runs alone, as a one-row stack (:func:`_stack_or_rows`), which
    gives bitwise what :func:`precoder.construct` and
    :func:`verifier.rates` give its trial.
    """
    return _stack_or_rows(lambda rows: _stack_rates(rows, cfg, target, wanted, power), chans,
                          (matcore._StackSplit, ConstructionDeficit, np.linalg.LinAlgError))


def run_point(scenario: Scenario, target: SdofPoint | tuple[int, int]) -> PointStats:
    """Average secrecy rates over the scenario's trials at one target.

    Per trial: draw channels until they are full rank, up to
    ``_MAX_RESAMPLES`` draws, build the precoder pair for the target on
    the design channels at the effective SNR, and score the rate pair on
    the true channels.  Trials whose draw or construction degenerates, or
    in which a LAPACK routine does not converge, are counted as failures
    and excluded from the averages; :class:`DegenerateDraw` is raised when
    every trial fails.  A target outside the region raises
    :class:`TargetInfeasible`, as :func:`precoder.construct` does, at the
    first trial that draws.

    This is :func:`_run_points` on the one point: the full-rank check runs
    once over each stacked run of the point's first draws and once over
    each round of its redraws, and every trial's outcome is bitwise the
    one that its draws alone, :func:`precoder.construct` and
    :func:`verifier.rates` give it.
    """
    return _run_points([scenario], target)[0]


def _run_points(points: list[Scenario], target: SdofPoint | tuple[int, int]) -> list[PointStats]:
    """:func:`run_point` of each of ``points``, which share their
    configuration, as the points of a sweep do.

    A point's trials are drawn in order, in runs that fill the stack being
    gathered: each run is one stacked :func:`draw_trial`, in which every
    trial draws from its own stream, and is checked for full rank at once
    (:func:`_checked_draws`): a row that fails is overwritten by its
    trial's redraw, drawn and checked in rounds with the other rows still
    failing, or counted as a failure.  The checked rows are then
    built and scored in stacks of up to ``_STACK_TRIALS``
    (:func:`_stack_outcomes`), which join the runs' arrays.  A stack may
    span points, but not a change of effective power, and it is drawn only
    when the one before it has been scored, so memory does not grow with
    the trials.  A stack runs in one pass, or, when its trials need
    different paths, one of them fails, or a LAPACK routine does not
    converge, trial by trial.  Within a stack each GSVD runs once, with
    only its cosine-sine step taken trial by trial.  Each outcome is
    counted at its own point, and the first point whose trials all fail
    raises as :func:`run_point` would.
    """
    target = SdofPoint(*target)
    cfg = points[0].config
    rs1, rs2 = [[] for _ in points], [[] for _ in points]
    failures = [0] * len(points)
    wanted = None
    owners, runs = [], []  # the point index of each checked row; each run's checked rows

    def score(power: float) -> None:
        for i, triple in zip(owners, _stack_outcomes(_joined(runs), cfg, target, wanted, power)):
            if isinstance(triple, Exception):
                failures[i] += 1
            else:
                rs1[i].append(triple.rs1)
                rs2[i].append(triple.rs2)
        owners.clear()
        runs.clear()

    power = None
    for i, scenario in enumerate(points):
        if runs and scenario.effective_power != power:
            score(power)
        power = scenario.effective_power
        start = 0
        while start < scenario.trials:
            stop = min(scenario.trials, start + _STACK_TRIALS - len(owners))
            drawn = draw_trial(scenario, range(start, stop))
            if wanted is None and drawn.trials:
                wanted = pc._plan(cfg, target, power)
            runs.append(_rows(drawn, _checked_draws(scenario, drawn)))
            kept = len(runs[-1].design.h11)
            # a trial that could not be placed, or was lost to the check,
            # leaves room in the stack for the next run
            failures[i] += stop - start - kept
            owners.extend([i] * kept)
            if len(owners) == _STACK_TRIALS:
                score(power)
            start = stop
        # a point whose trials have all failed raises before a later one draws
        if failures[i] == scenario.trials:
            raise DegenerateDraw("every trial failed")
    if runs:
        score(power)
    return [_point_stats(np.array(r1), np.array(r2), lost, scenario.trials)
            for r1, r2, lost, scenario in zip(rs1, rs2, failures, points)]


def _point_stats(r1: np.ndarray, r2: np.ndarray, failures: int, trials: int) -> PointStats:
    """Means and standard errors of a point's trial rates."""
    used = len(r1)
    if used == 0:
        raise DegenerateDraw("every trial failed")
    # numpy's pairwise summation keeps the aggregation order-insensitive
    se1 = float(np.std(r1, ddof=1) / math.sqrt(used)) if used > 1 else 0.0
    se2 = float(np.std(r2, ddof=1) / math.sqrt(used)) if used > 1 else 0.0
    return PointStats(
        mean_rs1=float(np.mean(r1)), se_rs1=se1,
        mean_rs2=float(np.mean(r2)), se_rs2=se2,
        failures=failures, trials=trials,
    )


def _apply_sweep_value(scenario: Scenario, variable: str, value: float) -> Scenario:
    if variable == "s1_s2_distance":
        if scenario.geometry is None:
            raise ValueError("distance sweep requires geometry")
        s2 = scenario.geometry.s2
        geo = dataclasses.replace(scenario.geometry, s1=(s2[0] + float(value), s2[1]))
        return dataclasses.replace(scenario, geometry=geo)
    # every other sweep variable names the Scenario field it sets
    return dataclasses.replace(scenario, **{variable: float(value)})


def monte_carlo(scenario: Scenario, target: SdofPoint | tuple[int, int]) -> list[CurveRecord]:
    """Curve records over the scenario's sweep (a single record without one).

    The sweep's points run as one :func:`_run_points`, so a stack of trials
    spans the points that share an effective power, and each record holds
    the :func:`run_point` of its point.
    """
    if scenario.sweep is None:
        return [CurveRecord(variable="", x=0.0, stats=run_point(scenario, target))]
    variable, values = scenario.sweep.variable, scenario.sweep.values
    # every swept scenario is built, and so checked, before any point runs
    derived = [_apply_sweep_value(scenario, variable, value) for value in values]
    return [
        CurveRecord(variable=variable, x=float(value), stats=stats)
        for value, stats in zip(values, _run_points(derived, target))
    ]


def write_curve_csv(path, records: list[CurveRecord]) -> None:
    """Write curve records as CSV with the fixed documented column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(_curve_fields(rec).values())
