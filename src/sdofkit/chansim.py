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
from dataclasses import dataclass

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
    sources must be at least one meter apart.  ``resample_rings`` redraws
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
        if not 1.0 <= self.ring_radius <= 10.0:
            raise ValueError("ring radius must lie in [1, 10] meters")
        if not all(math.isfinite(x) for x in (*self.s1, *self.s2)):
            raise ValueError("source coordinates must be finite")
        if math.dist(self.s1, self.s2) < 1.0:
            raise ValueError("sources must be at least one meter apart")


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
    variable: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"unknown sweep variable {self.variable!r}")
        if not self.values:
            raise ValueError("sweep needs at least one value")


@dataclass(frozen=True)
class TrialChannels:
    """Channels of one trial: the estimate used for design and the truth."""

    design: pc.ChannelSet
    actual: pc.ChannelSet


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


def _cgauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def gaussian_channels(cfg: AntennaConfig, rng: np.random.Generator) -> pc.ChannelSet:
    """One unit-variance complex Gaussian channel set.

    The values come from one call, in channel order: each matrix's real
    parts, then its imaginary parts, row-major, which is what
    :func:`_cgauss` called matrix by matrix would draw.  Their complex
    values are formed in one pass, and the six matrices are views of it.
    """
    re, im, start = [], [], 0
    for rows, cols in pc._shapes(cfg):
        n = rows * cols
        re.extend(range(start, start + n))
        im.extend(range(start + n, start + 2 * n))
        start += 2 * n
    z = rng.standard_normal(start)
    # _cgauss's arithmetic, element by element
    return pc._trusted(*pc._split((z[re] + 1j * z[im]) / np.sqrt(2), cfg))


def _true_eve(g_est: np.ndarray, alpha: float, gain: float,
              rng: np.random.Generator) -> np.ndarray:
    """True eavesdropper channel given its estimate ``g_est`` before path
    loss, for ``alpha > 0``: the estimate mixed with an independent
    standard complex Gaussian error at weights ``(1+alpha)**-0.5`` and
    ``sqrt(alpha/(1+alpha))``, times the link's path-loss ``gain``.
    Unchecked: :class:`Scenario` has checked ``alpha``."""
    err = _cgauss(rng, *g_est.shape)
    return gain * (g_est / np.sqrt(1.0 + alpha) + np.sqrt(alpha / (1.0 + alpha)) * err)


def _ring_position(center: tuple[float, float], radius_bound: float,
                   rng: np.random.Generator) -> np.ndarray:
    radius = rng.uniform(1.0, radius_bound)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return np.array([center[0] + radius * np.cos(angle), center[1] + radius * np.sin(angle)])


_MAX_RESAMPLES = 10


def _link_distances(geo: Geometry, rng: np.random.Generator) -> dict[str, float]:
    """Distances of the six links for one accepted receiver placement."""
    s1 = np.asarray(geo.s1, dtype=float)
    s2 = np.asarray(geo.s2, dtype=float)
    d12 = float(np.linalg.norm(s1 - s2))
    for _ in range(1000):
        d1 = _ring_position(geo.s1, geo.ring_radius, rng)
        d2 = _ring_position(geo.s2, geo.ring_radius, rng)
        ev = _ring_position(geo.s1, geo.ring_radius, rng)
        links = {
            "h11": float(np.linalg.norm(d1 - s1)), "h12": float(np.linalg.norm(d1 - s2)),
            "h21": float(np.linalg.norm(d2 - s1)), "h22": float(np.linalg.norm(d2 - s2)),
            "g1": float(np.linalg.norm(ev - s1)), "g2": float(np.linalg.norm(ev - s2)),
        }
        own_ok = (
            links["h11"] <= d12 and links["h22"] <= d12 and links["g1"] <= d12
        )
        if own_ok and min(links.values()) >= 1.0:
            return links
    raise DegenerateDraw("could not place receivers within geometric constraints")


@functools.lru_cache(maxsize=16)
def _fixed_link_distances(geo: Geometry, seed: int) -> dict[str, float]:
    """Trial 0's link distances, which every trial reuses when ``geo``
    does not resample its rings (callers must not mutate the result)."""
    return _link_distances(geo, _trial_rng(seed, 0))


def draw_trial(scenario: Scenario, trial_index: int) -> TrialChannels:
    """A trial's first channel draw, from its own stream, not yet checked.

    The same (scenario, trial index) always produces identical matrices.
    Gaussian scenarios draw the design set through
    :func:`gaussian_channels`; line-of-sight ones place the receivers (once
    per geometry and seed when the rings are not resampled), then draw the
    phases of the four links and of the two unit-magnitude eavesdropper
    estimates in one call, in ``precoder._CHANNELS`` order and row-major
    within each matrix, and scale each matrix by its link's path-loss
    gain ``distance**(-c/2)``.  Without uncertainty the true set is the
    design set itself; with it, only the true eavesdropper channels differ
    (:func:`_true_eve`), and their error matrices are drawn last.  The
    channel sets are built without :class:`precoder.ChannelSet`'s checks,
    which the :class:`Scenario` and :class:`Geometry` checks make redundant.

    :func:`run_point` checks the draws of a point for full rank as one
    stack and redraws a trial that fails (:func:`_redraw`).
    """
    return _draw(scenario, _trial_rng(scenario.seed, trial_index))


def _draw(scenario: Scenario, rng: np.random.Generator) -> TrialChannels:
    """One channel draw of :func:`draw_trial` from ``rng``; each link's
    path-loss gain is taken once, for its design and true channels, and a
    Gaussian set's gain is 1.0."""
    cfg = scenario.config
    geo = scenario.geometry
    alpha = scenario.uncertainty_alpha
    if geo is None:
        design = gaussian_channels(cfg, rng)
        g_est, gains = (design.g1, design.g2), (1.0, 1.0)
    else:
        links = (_link_distances(geo, rng) if geo.resample_rings
                 else _fixed_link_distances(geo, scenario.seed))
        size = sum(r * c for r, c in pc._shapes(cfg))
        phases = pc._split(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size)), cfg)
        gains = [links[name] ** (-scenario.pathloss_exponent / 2.0) for name in pc._CHANNELS]
        design = pc._trusted(*(gain * phase for gain, phase in zip(gains, phases)))
        g_est, gains = phases[4:], gains[4:]
    if alpha == 0:
        return TrialChannels(design=design, actual=design)
    actual = pc._trusted(design.h11, design.h12, design.h21, design.h22,
                         *(_true_eve(g, alpha, gain, rng) for g, gain in zip(g_est, gains)))
    return TrialChannels(design=design, actual=actual)


def _full_rank_draws(scenario: Scenario, draws: list[TrialChannels]):
    """The full-rank check of a scenario's draws: each design set is full
    rank and, with uncertainty, so are the true ``g1`` and ``g2``.

    The draws are checked as one stack, with one SVD call per stacked
    matrix, and give one bool per draw; a list of one is checked on its
    plain matrices and gives one bool.
    """
    ok = pc._stacked([chans.design for chans in draws]).full_rank()
    if scenario.uncertainty_alpha > 0:
        actual = pc._stacked([chans.actual for chans in draws])
        ok = ok & pc._full_rank(actual.g1, actual.g2)
    return ok


def _redraw(scenario: Scenario, trial_index: int) -> TrialChannels:
    """A trial's first draw that passes the full-rank check alone
    (:func:`_full_rank_draws`), in draws from its own stream, starting
    over from the first.

    After ``_MAX_RESAMPLES`` failed draws :class:`DegenerateDraw` is raised.
    """
    rng = _trial_rng(scenario.seed, trial_index)
    for _ in range(_MAX_RESAMPLES):
        chans = _draw(scenario, rng)
        if _full_rank_draws(scenario, [chans]):
            return chans
    raise DegenerateDraw(f"trial {trial_index}: full-rank check failed repeatedly")


def _checked_draws(scenario: Scenario, draws: list[tuple[int, TrialChannels]]) -> list:
    """One outcome per (trial index, :func:`draw_trial`) of a scenario:
    the draw if it is full rank, else the trial's :func:`_redraw`, or the
    :class:`DegenerateDraw` or ``LinAlgError`` that that raises.

    The draws are checked as one stack (:func:`_full_rank_draws`): six
    SVD calls on the stacked design sets, and two more on the true
    eavesdropper channels when they differ.  If one of them raises, every
    trial runs :func:`_redraw`, which checks its draws alone.
    """
    try:
        ok = _full_rank_draws(scenario, [chans for _, chans in draws])
    except np.linalg.LinAlgError:
        ok = False
    outcomes = []
    for (trial, chans), passed in zip(draws, np.broadcast_to(ok, len(draws))):
        if not passed:
            try:
                chans = _redraw(scenario, trial)
            except (DegenerateDraw, np.linalg.LinAlgError) as exc:
                chans = exc
        outcomes.append(chans)
    return outcomes


# trials assembled and scored as one stack, so memory does not grow with
# trials; on 1,000-trial points 256 ran within 3 % of one whole-point
# stack at under half its extra memory (see CHANGES.md)
_STACK_TRIALS = 256


def _stack_rates(trials: list[TrialChannels], cfg: AntennaConfig, target: SdofPoint,
                 wanted: dict[pc.Subset, int], power: float) -> list[verifier.RateTriple]:
    """One stack of trials, built on their design channels and scored on
    their true ones: raises for the whole stack, or
    :class:`matcore._StackSplit` when its items need different paths."""
    design = pc._stacked([t.design for t in trials])
    v, w = pc._assemble(design, cfg, target, wanted, power)
    # without uncertainty every trial is scored on its design set, already stacked
    if all(t.actual is t.design for t in trials):
        return verifier._score(design, v, w)
    return verifier._score(pc._stacked([t.actual for t in trials]), v, w)


def _stack_outcomes(trials: list[TrialChannels], cfg: AntennaConfig, target: SdofPoint,
                    wanted: dict[pc.Subset, int], power: float) -> list:
    """One outcome per trial: its rate triple, or the
    :class:`ConstructionDeficit` or ``LinAlgError`` that it raises alone.

    The trials run as one :func:`_stack_rates` stack; if that raises,
    each trial runs alone, as :func:`precoder.construct` and
    :func:`verifier.rates` would run it.
    """
    if len(trials) > 1:
        try:
            return _stack_rates(trials, cfg, target, wanted, power)
        except (matcore._StackSplit, ConstructionDeficit, np.linalg.LinAlgError):
            pass
    outcomes = []
    for trial in trials:
        try:
            outcomes.append(_stack_rates([trial], cfg, target, wanted, power)[0])
        except (ConstructionDeficit, np.linalg.LinAlgError) as exc:
            outcomes.append(exc)
    return outcomes


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
    once over the point's first draws, and every trial's outcome is
    bitwise the one that :func:`_redraw`, :func:`precoder.construct` and
    :func:`verifier.rates` give it alone.
    """
    return _run_points([scenario], target)[0]


def _run_points(points: list[Scenario], target: SdofPoint | tuple[int, int]) -> list[PointStats]:
    """:func:`run_point` of each of ``points``, which share their
    configuration, as the points of a sweep do.

    The (point, trial) pairs are drawn in order, each trial alone from its
    own stream (:func:`draw_trial`).  A point's draws not yet checked for
    full rank are checked as one stack (:func:`_checked_draws`) when the
    point ends and before any stack is scored; a draw that fails is
    replaced by its trial's redraw, or counted as a failure.  The checked
    trials are then built and scored in stacks of up to ``_STACK_TRIALS``
    (:func:`_stack_outcomes`).  A stack may span points, but not a change
    of effective power, and it is drawn only when the one before it has
    been scored, so memory does not grow with the trials.  A stack runs in
    one pass, or, when its trials need different paths, one of them fails,
    or a LAPACK routine does not converge, trial by trial.  Within a stack
    each GSVD runs once, with only its cosine-sine step taken trial by
    trial.  Each outcome is counted at its own point, and the first point
    whose trials all fail raises as :func:`run_point` would.
    """
    target = SdofPoint(*target)
    cfg = points[0].config
    rs1, rs2 = [[] for _ in points], [[] for _ in points]
    failures = [0] * len(points)
    wanted = None
    owners, drawn = [], []  # the point index and channels of each checked trial
    fresh = []  # the trial index and first draw of the point's unchecked trials

    def check(i: int, scenario: Scenario) -> None:
        if fresh:
            for chans in _checked_draws(scenario, fresh):
                if isinstance(chans, Exception):
                    failures[i] += 1
                else:
                    owners.append(i)
                    drawn.append(chans)
            fresh.clear()

    def score(power: float) -> None:
        for i, triple in zip(owners, _stack_outcomes(drawn, cfg, target, wanted, power)):
            if isinstance(triple, Exception):
                failures[i] += 1
            else:
                rs1[i].append(triple.rs1)
                rs2[i].append(triple.rs2)
        owners.clear()
        drawn.clear()

    power = None
    for i, scenario in enumerate(points):
        if drawn and scenario.effective_power != power:
            score(power)
        power = scenario.effective_power
        for trial in range(scenario.trials):
            try:
                fresh.append((trial, draw_trial(scenario, trial)))
            except DegenerateDraw:  # no receiver placement; the draw runs no LAPACK
                failures[i] += 1
                continue
            if wanted is None:
                wanted = pc._plan(cfg, target, power)
            if len(drawn) + len(fresh) == _STACK_TRIALS:
                check(i, scenario)
                # a trial lost to the check leaves room for the next draw
                if len(drawn) == _STACK_TRIALS:
                    score(power)
        check(i, scenario)
        # a point whose trials have all failed raises before a later one draws
        if failures[i] == scenario.trials:
            raise DegenerateDraw("every trial failed")
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
