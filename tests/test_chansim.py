import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sdofkit import chansim, matcore
from sdofkit import precoder as pc
from sdofkit.chansim import Geometry, Scenario, Sweep
from sdofkit.errors import DegenerateDraw, TargetInfeasible
from sdofkit.region import AntennaConfig

CFG_SMALL = AntennaConfig(4, 2, 4, 2, 4)


def small_geometry(d12=50.0):
    return Geometry(s1=(d12, 0.0), s2=(0.0, 0.0), ring_radius=10.0)


def los_channel(rows, cols, distance, c, rng):
    """One line-of-sight matrix drawn alone: every entry has magnitude
    ``distance**(-c/2)`` and an independent phase uniform on [0, 2*pi)."""
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(rows, cols))
    return distance ** (-c / 2.0) * np.exp(1j * phase)


def link_distances(geo, rng):
    """The six link distances of a trial's receiver placement, by name, as
    drawn one ring position and one np.linalg.norm at a time: the first
    placement with no link under a meter and no receiver farther from its
    own source than the sources are apart.  Each value is drawn by the
    stream contract, ``low + (high - low) * rng.random()``."""
    def uniform(low, high):
        return low + (high - low) * rng.random()

    def ring_position(center):
        radius = uniform(1.0, geo.ring_radius)
        angle = uniform(0.0, 2.0 * np.pi)
        return np.array([center[0] + radius * np.cos(angle), center[1] + radius * np.sin(angle)])

    s1, s2 = np.asarray(geo.s1), np.asarray(geo.s2)
    d12 = float(np.linalg.norm(s1 - s2))
    for _ in range(1000):
        d1, d2, ev = ring_position(geo.s1), ring_position(geo.s2), ring_position(geo.s1)
        links = {
            "h11": float(np.linalg.norm(d1 - s1)), "h12": float(np.linalg.norm(d1 - s2)),
            "h21": float(np.linalg.norm(d2 - s1)), "h22": float(np.linalg.norm(d2 - s2)),
            "g1": float(np.linalg.norm(ev - s1)), "g2": float(np.linalg.norm(ev - s2)),
        }
        if max(links["h11"], links["h22"], links["g1"]) <= d12 and min(links.values()) >= 1.0:
            return links
    raise DegenerateDraw("could not place receivers within geometric constraints")


def trial_links(sc, trial, rng=None):
    """A line-of-sight trial's link distances by name, replayed from its
    stream (``rng`` once it has been started), or from trial 0's when the
    rings are fixed."""
    geo = sc.geometry
    if not geo.resample_rings:
        return link_distances(geo, chansim._trial_rng(sc.seed, 0))
    return link_distances(geo, chansim._trial_rng(sc.seed, trial) if rng is None else rng)


class TestLosChannel:
    def test_pathloss_magnitude(self):
        # in both ring modes, every entry of a matrix has its link's path
        # loss distance**(-c/2), here distance**-1.5
        for resample_rings in (True, False):
            geo = dataclasses.replace(small_geometry(), resample_rings=resample_rings)
            sc = Scenario(config=CFG_SMALL, geometry=geo, trials=1, seed=5, pathloss_exponent=3.0)
            for trial in range(5):
                links = trial_links(sc, trial)
                chans = chansim.draw_trial(sc, trial)
                for name in pc._CHANNELS:
                    mags = np.abs(getattr(chans.design, name))
                    assert np.allclose(mags, links[name] ** -1.5, rtol=1e-12, atol=0)

    def test_phase_uniform(self):
        # 17 trials of six 10 x 10 matrices: 10,200 phases
        sc = Scenario(config=AntennaConfig(10, 10, 10, 10, 10), geometry=small_geometry(),
                      trials=1, seed=6)
        phases = np.concatenate([np.angle(getattr(chansim.draw_trial(sc, trial).design, name)).ravel()
                                 for trial in range(17) for name in pc._CHANNELS])
        p = stats.kstest(phases % (2 * np.pi) / (2 * np.pi), "uniform").pvalue
        assert p > 0.01

    # property: the receiver placement is what keeps every path loss at or
    # under 1, in both ring modes: no link of any trial is closer than one
    # meter or infinitely far, or the placement raises DegenerateDraw
    @settings(max_examples=40, deadline=None)
    @given(d12=st.floats(1.0, 400.0), ring_radius=st.floats(1.0, 10.0),
           resample_rings=st.booleans(), seed=st.integers(0, 2**32))
    def test_rejects_close_range(self, d12, ring_radius, resample_rings, seed):
        geo = Geometry(s1=(d12, 0.0), s2=(0.0, 0.0), ring_radius=ring_radius,
                       resample_rings=resample_rings)
        streams = [chansim._trial_rng(seed, trial) for trial in range(10)]
        # without resampling, every trial's placement is trial 0's
        dist, placed = chansim._link_distances(geo, streams if resample_rings else streams[:1])
        assert dist.shape[-1] == len(pc._CHANNELS)
        assert ((1.0 <= dist[placed]) & (dist[placed] < math.inf)).all()

    # a distance reaches the draw only through the geometry, which refuses
    # a non-finite swept source spacing before any trial draws
    @pytest.mark.parametrize("distance", [float("nan"), float("inf")])
    def test_rejects_non_finite_distance(self, monkeypatch, distance):
        drawn = []
        monkeypatch.setattr(chansim, "draw_trial", lambda sc, trial: drawn.append(trial))
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=2,
                      sweep=Sweep("s1_s2_distance", (50.0, distance)))
        with pytest.raises(ValueError, match="source coordinates must be finite"):
            chansim.monte_carlo(sc, (1, 1))
        assert drawn == []


class TestGaussianChannels:
    # differential: one draw of every value equals twelve draws, matrix by
    # matrix, real parts before imaginary ones
    @pytest.mark.parametrize("cfg", [(1, 1, 1, 1, 1), (4, 2, 4, 2, 4), (6, 6, 5, 4, 5),
                                     (2, 7, 3, 1, 10)], ids=lambda cfg: ",".join(map(str, cfg)))
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_equals_matrix_by_matrix_draw(self, cfg, seed):
        cfg = AntennaConfig(*cfg)
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            ch = chansim.gaussian_channels(cfg, rng)
            for name, (rows, cols) in zip(pc._CHANNELS, pc._shapes(cfg)):
                re = replay.standard_normal((rows, cols))
                im = replay.standard_normal((rows, cols))
                expected = (re + 1j * im) / np.sqrt(2)
                got = getattr(ch, name)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        # both streams end at the same place
        assert rng.standard_normal() == replay.standard_normal()


def true_eve(g_est, alpha, gain, rng):
    """``chansim._true_eve`` of one matrix, as a one-row stack."""
    return chansim._true_eve([g_est[None]], alpha, np.array([[gain]]), (rng,))[0][0]


class TestUncertainEve:
    def test_zero_uncertainty_exact(self):
        # without uncertainty the true set is the design set, and a design
        # set does not depend on alpha
        for geo in (None, small_geometry()):
            base = Scenario(config=CFG_SMALL, geometry=geo, trials=1, seed=7)
            exact = chansim.draw_trial(base, 3)
            assert exact.actual is exact.design
            mixed = chansim.draw_trial(dataclasses.replace(base, uncertainty_alpha=0.2), 3)
            for name in pc._CHANNELS:
                assert np.array_equal(getattr(mixed.design, name), getattr(exact.design, name))

    def test_mixture_weights(self, rng):
        # weights (0.9535, 0.3015) at alpha = 0.1, before path loss
        g = true_eve(np.ones((200, 200), dtype=complex), 0.1, 1.0, rng)
        mean = np.mean(g)
        assert abs(mean - 1 / np.sqrt(1.1)) < 5e-3
        var = np.var(g)
        assert abs(var - 0.1 / 1.1) < 5e-3

    def test_large_alpha_limit(self, rng):
        g = true_eve(np.ones((300, 300), dtype=complex), 1e9, 1.0, rng)
        assert abs(np.var(g) - 1.0) < 2e-2  # per-entry variance -> gain**2

    def test_gain_scales_the_mixture(self):
        g_est = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * np.pi, (3, 4)))
        gain = 2.0 ** -1.75
        scaled = true_eve(g_est, 0.3, gain, np.random.default_rng(2))
        unit = true_eve(g_est, 0.3, 1.0, np.random.default_rng(2))
        assert scaled.tobytes() == (gain * unit).tobytes()

    def test_gaussian_true_eve_has_unit_gain(self):
        # differential: a Gaussian trial's true eavesdropper channels mix
        # its design ones, unscaled, with errors drawn after the design set
        sc = Scenario(config=CFG_SMALL, trials=1, seed=8, uncertainty_alpha=0.4)
        chans = chansim.draw_trial(sc, 2)
        rng = chansim._trial_rng(sc.seed, 2)
        design = chansim.gaussian_channels(CFG_SMALL, rng)
        expected = chansim._true_eve([design.g1[None], design.g2[None]], 0.4, np.ones((1, 2)),
                                     (rng,))
        for name, want in zip(("g1", "g2"), expected):
            assert getattr(chans.actual, name).tobytes() == want[0].tobytes()

    # the alpha that reaches _true_eve was checked by Scenario, a swept one too
    @pytest.mark.parametrize("alpha", [-0.5, float("nan")])
    def test_rejects_alpha(self, monkeypatch, alpha):
        drawn = []
        monkeypatch.setattr(chansim, "draw_trial", lambda sc, trial: drawn.append(trial))
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=2,
                      sweep=Sweep("uncertainty_alpha", (0.2, alpha)))
        with pytest.raises(ValueError, match="uncertainty_alpha must be non-negative"):
            chansim.monte_carlo(sc, (1, 1))
        assert drawn == []


class TestScenario:
    @pytest.mark.parametrize("alpha", [-0.5, float("nan"), float("inf")])
    def test_rejects_uncertainty_alpha(self, alpha):
        with pytest.raises(ValueError, match="uncertainty_alpha must be non-negative"):
            Scenario(config=CFG_SMALL, uncertainty_alpha=alpha)

    # each failed mid-sweep before: -400 overflows the path loss of a 50 m
    # link, and the others gave non-finite channel entries
    @pytest.mark.parametrize("exponent", [0.0, -400.0, float("nan"), float("inf"),
                                          float("-inf")])
    def test_rejects_pathloss_exponent(self, exponent):
        with pytest.raises(ValueError, match="pathloss_exponent must be positive and finite"):
            Scenario(config=CFG_SMALL, geometry=small_geometry(), pathloss_exponent=exponent)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_trials_below_one(self, trials):
        with pytest.raises(ValueError, match="trials must be positive"):
            Scenario(config=CFG_SMALL, trials=trials)

    @pytest.mark.parametrize("variable, values, message", [
        ("distance", (50.0,), "unknown sweep variable 'distance'"),
        ("power_dbm", (), "sweep needs at least one value"),
    ], ids=["unknown_variable", "empty"])
    def test_rejects_sweep(self, variable, values, message):
        with pytest.raises(ValueError, match=message):
            Sweep(variable, values)

    # a bare number passed, then raised TypeError in monte_carlo; a bool
    # ran as 1.0 and a string as its number
    @pytest.mark.parametrize("values", [5, (True,), ("7",)],
                             ids=["not_iterable", "bool", "str"])
    def test_rejects_sweep_values_not_real(self, values):
        with pytest.raises(ValueError, match="sweep values must be real numbers"):
            Sweep("power_dbm", values)

    # a list left the Scenario that holds the sweep unhashable
    def test_sweep_values_are_a_tuple_of_floats(self):
        sweep = Sweep("power_dbm", [0, np.float32(10.0), np.int64(-5)])
        assert sweep == Sweep("power_dbm", (0.0, 10.0, -5.0))
        assert [type(x) for x in sweep.values] == [float] * 3
        assert isinstance(hash(Scenario(config=CFG_SMALL, sweep=sweep)), int)

    # 2.5 trials and seed 1.5 passed, then raised TypeError inside run_point
    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("seed", 1.5), ("trials", True), ("seed", False), ("seed", "3"),
    ], ids=["fractional_trials", "fractional_seed", "bool_trials", "bool_seed", "str_seed"])
    def test_rejects_non_integer_trials_and_seed(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Scenario(config=CFG_SMALL, **{field: value})

    # each passed, then raised AttributeError at the first draw
    @pytest.mark.parametrize("field, value, message", [
        ("config", (4, 2, 4, 2, 4), "config must be an AntennaConfig"),
        ("geometry", {"s1": (50.0, 0.0), "s2": (0.0, 0.0)}, "geometry must be a Geometry or None"),
    ], ids=["tuple_config", "dict_geometry"])
    def test_rejects_config_and_geometry_of_another_type(self, field, value, message):
        fields = {"config": CFG_SMALL, field: value}
        with pytest.raises(ValueError, match=message):
            Scenario(**fields)

    # a string raised TypeError at a range check, or in the power
    # arithmetic; a bool was taken as 0 or 1
    @pytest.mark.parametrize("value", ["3", True, None, 1j], ids=["str", "bool", "none", "complex"])
    @pytest.mark.parametrize("field", ["pathloss_exponent", "noise_power_dbm", "power_dbm",
                                       "uncertainty_alpha"])
    def test_rejects_real_field_of_another_type(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            Scenario(config=CFG_SMALL, geometry=small_geometry(), **{field: value})

    def test_accepts_integer_and_numpy_reals(self):
        sc = Scenario(config=CFG_SMALL, pathloss_exponent=3, noise_power_dbm=np.float32(-50),
                      power_dbm=np.int64(2), uncertainty_alpha=np.float64(0.1))
        assert sc.effective_power == chansim._db_to_linear(52.0)

    def test_accepts_numpy_integers(self):
        sc = Scenario(config=CFG_SMALL, trials=np.int64(3), seed=np.uint32(4))
        assert chansim.run_point(sc, (1, 1)).trials == 3

    # NumPy's seeding refused it only at the first draw, naming no field
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            Scenario(config=CFG_SMALL, seed=-3)

    def test_bad_sweep_value_raises_before_any_point_runs(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(chansim, "draw_trial", lambda sc, trial: drawn.append(trial))
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=2,
                      sweep=Sweep("s1_s2_distance", (50.0, 0.5)))
        with pytest.raises(ValueError, match="at least one meter apart"):
            chansim.monte_carlo(sc, (1, 1))
        assert drawn == []


class TestGeometry:
    # no placement passes sources closer than a meter: s1 = s2 spent
    # seconds in rejection loops before every trial failed
    @pytest.mark.parametrize("s1", [(0.0, 0.0), (0.6, 0.8 - 1e-9)],
                             ids=["coincident", "just_under_a_meter"])
    def test_rejects_sources_closer_than_one_meter(self, s1):
        with pytest.raises(ValueError, match="sources must be at least one meter apart"):
            Geometry(s1=s1, s2=(0.0, 0.0))

    # (spacing + ring_radius)**2 bounds every squared link distance; the
    # float range ends at a reach of about 1.34e154 m
    @pytest.mark.parametrize("s1, s2", [((1.35e154, 0.0), (0.0, 0.0)), ((1e200, 0.0), (0.0, 0.0)),
                                        ((1.5e308, 0.0), (-1.5e308, 0.0))],
                             ids=["1.35e+154", "1e+200", "1.5e+308"])
    def test_rejects_sources_whose_squared_reach_overflows(self, s1, s2):
        with pytest.raises(ValueError, match="squared link distance overflows"):
            Geometry(s1=s1, s2=s2)

    def test_widest_spacing_draws_without_warnings(self):
        # 1.34e154 + 10 squares to just under the largest float; Tier-1 turns
        # a RuntimeWarning into an error, so a draw here proves none is raised
        sc = Scenario(config=CFG_SMALL, geometry=Geometry(s1=(1.34e154, 0.0), s2=(0.0, 0.0)),
                      trials=2)
        assert chansim._link_distances(sc.geometry, (chansim._trial_rng(0, 0),))[1].all()
        chansim.draw_trial(sc, range(2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["s1", "s2"])
    def test_rejects_non_finite_coordinates(self, field, bad):
        points = {"s1": (50.0, 0.0), "s2": (0.0, 0.0)}
        points[field] = (points[field][0], bad)
        with pytest.raises(ValueError, match="source coordinates must be finite"):
            Geometry(**points)

    # a list made fixed rings raise TypeError (unhashable) at the first
    # draw, and three coordinates a NumPy broadcast ValueError there
    @pytest.mark.parametrize("s1", [(50.0, 0.0, 0.0), (50.0,), 50.0, "50", (True, 0.0),
                                    ((50.0,), 0.0), (None, 0.0)],
                             ids=["three", "one", "scalar", "str", "bool", "nested", "none"])
    @pytest.mark.parametrize("field", ["s1", "s2"])
    def test_rejects_coordinates_not_a_pair(self, field, s1):
        points = {"s1": (50.0, 0.0), "s2": (0.0, 0.0)}
        points[field] = s1
        with pytest.raises(ValueError, match=f"{field} must be a pair of real coordinates"):
            Geometry(**points)

    @pytest.mark.parametrize("resample_rings", [True, False], ids=["resampled", "fixed"])
    def test_list_coordinates_equal_tuples(self, resample_rings):
        listed = Geometry(s1=[50, 0], s2=np.array([0, 0]), resample_rings=resample_rings)
        tupled = Geometry(s1=(50.0, 0.0), s2=(0.0, 0.0), resample_rings=resample_rings)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert all(type(x) is float for x in (*listed.s1, *listed.s2))
        stats = [chansim.run_point(Scenario(config=CFG_SMALL, geometry=geo, trials=12, seed=3,
                                            uncertainty_alpha=0.1), (1, 1))
                 for geo in (listed, tupled)]
        assert stats[0] == stats[1]

    # "no" was taken as true, so every trial resampled its rings
    @pytest.mark.parametrize("value", ["no", 0, 1.0, None], ids=["str", "int", "float", "none"])
    def test_rejects_resample_rings_not_a_bool(self, value):
        with pytest.raises(ValueError, match="resample_rings must be a bool"):
            Geometry(s1=(50.0, 0.0), s2=(0.0, 0.0), resample_rings=value)

    # a string raised TypeError at the range check, and True passed as 1 m
    @pytest.mark.parametrize("value", ["5", True, None, 5j], ids=["str", "bool", "none", "complex"])
    def test_rejects_ring_radius_not_real(self, value):
        with pytest.raises(ValueError, match="ring_radius must be a real number"):
            Geometry(s1=(50.0, 0.0), s2=(0.0, 0.0), ring_radius=value)

    def test_accepts_sources_one_meter_apart(self):
        Geometry(s1=(0.6, 0.8), s2=(0.0, 0.0))

    @pytest.mark.parametrize("radius", [0.5, 10.5, float("nan")])
    def test_rejects_ring_radius_outside_1_to_10(self, radius):
        with pytest.raises(ValueError, match=r"ring radius must lie in \[1, 10\] meters"):
            Geometry(s1=(50.0, 0.0), s2=(0.0, 0.0), ring_radius=radius)

    def test_unplaceable_receivers_raise(self):
        # sources one meter apart: a receiver lies within the spacing of its
        # own source only at exactly 1 m, so no placement passes
        sc = Scenario(config=CFG_SMALL, geometry=Geometry(s1=(1.0, 0.0), s2=(0.0, 0.0)))
        with pytest.raises(DegenerateDraw, match="could not place receivers"):
            chansim.draw_trial(sc, 0)


def replayed_draw(sc, trial):
    """A line-of-sight trial's (design, actual) sets, drawn one link at a time."""
    cfg, geo, c, alpha = sc.config, sc.geometry, sc.pathloss_exponent, sc.uncertainty_alpha
    rng = chansim._trial_rng(sc.seed, trial)
    for _ in range(chansim._MAX_RESAMPLES):
        links = trial_links(sc, trial, rng)
        h = dict(
            h11=los_channel(cfg.nd1, cfg.ns1, links["h11"], c, rng),
            h12=los_channel(cfg.nd1, cfg.ns2, links["h12"], c, rng),
            h21=los_channel(cfg.nd2, cfg.ns1, links["h21"], c, rng),
            h22=los_channel(cfg.nd2, cfg.ns2, links["h22"], c, rng),
        )
        g1_est = np.exp(1j * rng.uniform(0, 2 * np.pi, (cfg.ne, cfg.ns1)))
        g2_est = np.exp(1j * rng.uniform(0, 2 * np.pi, (cfg.ne, cfg.ns2)))
        design = pc.ChannelSet(**h, g1=links["g1"] ** (-c / 2.0) * g1_est,
                               g2=links["g2"] ** (-c / 2.0) * g2_est)
        actual = design
        if alpha > 0:
            gains = np.array([[links["g1"] ** (-c / 2.0), links["g2"] ** (-c / 2.0)]])
            g1, g2 = chansim._true_eve([g1_est[None], g2_est[None]], alpha, gains, (rng,))
            actual = pc.ChannelSet(**h, g1=g1[0], g2=g2[0])
        if design.full_rank() and actual.full_rank():
            return design, actual
    raise DegenerateDraw(f"trial {trial} never drew full-rank channels")


def checked_draws(sc, trials):
    """run_point's checked draws of the given trials, one per trial: one
    stacked draw and check, then a redraw of each trial that fails it."""
    stack = chansim.draw_trial(sc, trials)
    assert stack.trials == tuple(trials) and chansim._checked_draws(sc, stack).all()
    return [chansim._rows(stack, row) for row in range(len(stack.trials))]


class TestDrawTrial:
    def test_deterministic(self):
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=5, seed=9)
        a = chansim.draw_trial(sc, 3)
        b = chansim.draw_trial(sc, 3)
        assert np.array_equal(a.actual.h11, b.actual.h11)
        assert np.array_equal(a.design.g2, b.design.g2)
        c = chansim.draw_trial(sc, 4)
        assert not np.array_equal(a.actual.h11, c.actual.h11)

    def test_gaussian_mode_moments(self):
        sc = Scenario(config=AntennaConfig(8, 8, 8, 8, 8), geometry=None, trials=1, seed=1)
        h = np.concatenate([chansim.draw_trial(sc, i).actual.h11.ravel() for i in range(40)])
        assert abs(np.mean(h)) < 0.03
        assert abs(np.var(h) - 1.0) < 0.05

    def test_full_rank_always(self):
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=1, seed=2)
        for chans in checked_draws(sc, range(25)):
            assert chans.actual.full_rank() and chans.design.full_rank()

    def test_pathloss_scale_tracks_distance(self):
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(d12=100.0), trials=1, seed=3)
        chans = chansim.draw_trial(sc, 0)
        # cross link S2 -> D1 spans ~100 m, own link D1 <- S1 at most ~10 m
        assert np.abs(chans.actual.h12).mean() < np.abs(chans.actual.h11).mean() / 10
        # entries of one matrix share a single path loss
        mags = np.abs(chans.actual.h12)
        assert np.allclose(mags, mags[0, 0])

    def test_design_equals_actual_without_uncertainty(self):
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=1, seed=4)
        chans = chansim.draw_trial(sc, 0)
        assert np.array_equal(chans.design.g1, chans.actual.g1)

    def test_uncertainty_splits_design_and_actual(self):
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=1, seed=4,
                      uncertainty_alpha=0.3)
        chans = chansim.draw_trial(sc, 0)
        assert not np.allclose(chans.design.g1, chans.actual.g1)
        assert np.array_equal(chans.design.h11, chans.actual.h11)

    def test_fixed_rings_are_placed_once(self, monkeypatch):
        # without resampling every trial reuses trial 0's placement, so a
        # 200-trial point, drawn in one run, places its receivers once; the
        # stats equal, bitwise, those of placing them anew for every trial,
        # with stacks of one trial, so each trial is a stacked draw of its own
        geo = dataclasses.replace(small_geometry(), resample_rings=False)
        sc = Scenario(config=CFG_SMALL, geometry=geo, trials=200, seed=9, uncertainty_alpha=0.1)
        place, calls = chansim._link_distances, []

        def counting(geo, streams):
            calls.append(geo)
            return place(geo, streams)

        monkeypatch.setattr(chansim, "_link_distances", counting)
        point = chansim.run_point(sc, (1, 1))
        assert calls == [geo]

        monkeypatch.setattr(chansim, "_STACK_TRIALS", 1)
        replayed = chansim.run_point(sc, (1, 1))
        assert len(calls) > 200
        assert point.mean_rs1.hex() == replayed.mean_rs1.hex()
        assert point.mean_rs2.hex() == replayed.mean_rs2.hex()
        assert point == replayed

    @pytest.mark.parametrize("resample_rings", [True, False], ids=["resampled", "fixed"])
    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    @pytest.mark.parametrize("cfg", [(4, 2, 4, 2, 4), (6, 6, 5, 4, 5), (1, 1, 2, 2, 1)],
                             ids=lambda cfg: ",".join(map(str, cfg)))
    def test_rng_contract(self, cfg, alpha, resample_rings):
        # differential: the checked draws equal a replay of each trial's
        # stream link by link, through the public draws and checked channel sets
        geo = dataclasses.replace(small_geometry(), resample_rings=resample_rings)
        sc = Scenario(config=AntennaConfig(*cfg), geometry=geo, trials=1, seed=21,
                      uncertainty_alpha=alpha)
        for trial, drawn in enumerate(checked_draws(sc, range(20))):
            design, actual = replayed_draw(sc, trial)
            for name in pc._CHANNELS:
                assert np.array_equal(getattr(drawn.design, name), getattr(design, name))
                assert np.array_equal(getattr(drawn.actual, name), getattr(actual, name))

    def test_rank_deficient_true_eve_channel_is_redrawn(self, monkeypatch):
        # the design channels stay full rank; only the true eavesdropper
        # channels, scored but never designed on, are rank one.  The point's
        # stacked check fails the first draw, and each redraw round
        # continues the trial's stream for the next draw, without replaying it
        calls = []

        def rank_one(g_est, alpha, gains, streams):
            calls.append(alpha)
            return [np.ones(g.shape) * gain[:, None, None] for g, gain in zip(g_est, gains.T)]

        monkeypatch.setattr(chansim, "_true_eve", rank_one)
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=1, seed=4,
                      uncertainty_alpha=0.3)
        with pytest.raises(DegenerateDraw, match="every trial failed"):
            chansim.run_point(sc, (1, 1))
        assert len(calls) == chansim._MAX_RESAMPLES


class CountingStream:
    """A trial's generator that records each call as (name, args)."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        def counted(*args):
            self.calls.append((name, args))
            return getattr(self.rng, name)(*args)
        return counted


class TestStreamContract:
    # seed 29 at 10 m rejects some first placements, so some streams place
    # their receivers more than once
    SCENARIO = Scenario(config=CFG_SMALL, geometry=small_geometry(10.0), seed=29,
                        uncertainty_alpha=0.2)

    def streams(self, count=12):
        return tuple(CountingStream(chansim._trial_rng(self.SCENARIO.seed, t))
                     for t in range(count))

    def test_one_random_call_per_placement(self):
        # each attempt is one random(6) of the stream, mapped as
        # low + (high - low) * u; a rejected attempt is followed by the
        # stream's next six values
        geo = self.SCENARIO.geometry
        low, high = np.array([1.0, 0.0] * 3), np.array([geo.ring_radius, 2.0 * np.pi] * 3)
        streams = self.streams()
        dist, placed = chansim._link_distances(geo, streams)
        assert placed.all()
        attempts = [len(s.calls) for s in streams]
        assert max(attempts) > 1
        for row, stream in enumerate(streams):
            assert stream.calls == [("random", (6,))] * attempts[row]
            replay = chansim._trial_rng(self.SCENARIO.seed, row)
            for attempt in range(attempts[row]):
                ring = (low + (high - low) * replay.random(6)).reshape(3, 2)
                expected = chansim._ring_distances(geo, ring)
                assert chansim._placed(geo, expected) == (attempt == attempts[row] - 1)
            assert dist[row].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    @pytest.mark.parametrize("gaussian", [False, True], ids=["los", "gaussian"])
    def test_generator_calls_per_trial(self, alpha, gaussian):
        # after its placements, a trial draws its phases (or its Gaussian
        # set) in one call and, with uncertainty, its errors in one more
        sc = dataclasses.replace(self.SCENARIO, uncertainty_alpha=alpha,
                                 geometry=None if gaussian else self.SCENARIO.geometry)
        cfg, streams = sc.config, self.streams()
        chansim._draws(sc, tuple(range(len(streams))), streams)
        size = sum(rows * cols for rows, cols in pc._shapes(cfg))
        errors = [("standard_normal", (2 * cfg.ne * (cfg.ns1 + cfg.ns2),))] if alpha else []
        for stream in streams:
            attempts = 0 if gaussian else len(stream.calls) - 1 - len(errors)
            assert gaussian or attempts >= 1
            body = (("standard_normal", (2 * size,)) if gaussian
                    else ("uniform", (0.0, 2.0 * np.pi, size)))
            assert stream.calls == [("random", (6,))] * attempts + [body] + errors

    def test_errors_are_one_call_split_by_matrix(self):
        # the true g1 and g2 of a trial replayed from one standard_normal
        # call: g1's real parts, its imaginary parts, then g2's
        sc, trial = self.SCENARIO, 3
        alpha, cfg = sc.uncertainty_alpha, sc.config
        drawn = chansim.draw_trial(sc, trial)
        # the same trial without uncertainty leaves the stream where the errors start
        rng = chansim._trial_rng(sc.seed, trial)
        exact = chansim._draws(dataclasses.replace(sc, uncertainty_alpha=0.0), (trial,), (rng,))
        z = rng.standard_normal(2 * cfg.ne * (cfg.ns1 + cfg.ns2))
        start = 0
        for name, cols in (("g1", cfg.ns1), ("g2", cfg.ns2)):
            n = cfg.ne * cols
            err = (z[start:start + n] + 1j * z[start + n:start + 2 * n]) / np.sqrt(2)
            est = getattr(exact.design, name)[0]
            gain = np.abs(est[0, 0])
            expected = gain * (est / gain / np.sqrt(1.0 + alpha)
                               + np.sqrt(alpha / (1.0 + alpha)) * err.reshape(cfg.ne, cols))
            assert np.allclose(getattr(drawn.actual, name), expected, rtol=1e-13, atol=0)
            start += 2 * n


def assert_rows_equal_single_draws(sc, trials):
    """Each trial of ``trials`` that has a row in their stacked draw has,
    bitwise, its draw alone there, and its stream is left where that draw
    leaves it; each trial without a row raises DegenerateDraw alone."""
    stack = chansim.draw_trial(sc, trials)
    assert set(stack.trials) <= set(trials) and list(stack.trials) == sorted(stack.trials)
    assert len(stack.streams) == len(stack.trials)
    assert isinstance(hash(stack), int)  # a frozen dataclass, hashable as one trial's is
    for trial in trials:
        if trial not in stack.trials:
            with pytest.raises(DegenerateDraw, match="could not place receivers"):
                chansim.draw_trial(sc, trial)
            continue
        index = stack.trials.index(trial)
        row, rng = chansim._rows(stack, index), chansim._trial_rng(sc.seed, trial)
        single = chansim._rows(chansim._draws(sc, (trial,), (rng,)), 0)
        assert (row.actual is row.design) == (single.actual is single.design)
        assert (row.actual is row.design) == (sc.uncertainty_alpha == 0)
        for name in pc._CHANNELS:
            for got, expected in ((row.design, single.design), (row.actual, single.actual)):
                got, expected = getattr(got, name), getattr(expected, name)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert stack.streams[index].bit_generator.state == rng.bit_generator.state


class TestStackedDraw:
    # differential: each row of a stacked draw is the trial's draw alone,
    # over spacings that reject first placements (under about 20 m), both
    # ring modes, uncertainty and Gaussian channels
    @settings(max_examples=60, deadline=None)
    @given(spacing=st.floats(1.5, 60.0), resample_rings=st.booleans(), gaussian=st.booleans(),
           alpha=st.sampled_from([0.0, 0.25]),
           cfg=st.sampled_from([(4, 2, 4, 2, 4), (6, 6, 5, 4, 5), (1, 1, 2, 2, 1)]),
           seed=st.integers(0, 2**32), start=st.integers(0, 40), count=st.integers(1, 12))
    def test_rows_equal_single_draws(self, spacing, resample_rings, gaussian, alpha, cfg, seed,
                                     start, count):
        geo = None if gaussian else Geometry(s1=(spacing, 0.0), s2=(0.0, 0.0),
                                             resample_rings=resample_rings)
        sc = Scenario(config=AntennaConfig(*cfg), geometry=geo, seed=seed, uncertainty_alpha=alpha)
        assert_rows_equal_single_draws(sc, range(start, start + count))

    # seed 29 at 10 m: trial 4's first placement is rejected, and it is
    # placed in a second round of its own (CI's installed-script step
    # simulates this point)
    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    def test_rejected_first_placement(self, monkeypatch, alpha):
        placed, rounds = chansim._placed, []

        def recording(geo, dist):
            ok = placed(geo, dist)
            rounds.append(ok.tolist())
            return ok

        monkeypatch.setattr(chansim, "_placed", recording)
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(10.0), seed=29,
                      uncertainty_alpha=alpha)
        stack = chansim.draw_trial(sc, range(6))
        assert rounds[0] == [True] * 4 + [False, True] and rounds[1:] == [[True]]
        assert stack.trials == tuple(range(6))
        assert_rows_equal_single_draws(sc, range(6))

    def test_unplaceable_trials_have_no_row(self):
        # sources one meter apart: no placement passes, in either ring mode
        for resample_rings in (True, False):
            geo = Geometry(s1=(1.0, 0.0), s2=(0.0, 0.0), resample_rings=resample_rings)
            stack = chansim.draw_trial(Scenario(config=CFG_SMALL, geometry=geo), range(3))
            assert stack.trials == () and stack.design.h11.shape == (0, 4, 4)


class TestRunPoint:
    def test_infeasible_target(self):
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=2, seed=0)
        with pytest.raises(TargetInfeasible):
            chansim.run_point(sc, (4, 4))

    def test_standard_error_scaling(self):
        base = dict(config=CFG_SMALL, geometry=small_geometry(), seed=0)
        small = chansim.run_point(Scenario(trials=60, **base), (1, 1))
        large = chansim.run_point(Scenario(trials=240, **base), (1, 1))
        ratio = small.se_rs1 / large.se_rs1
        assert 1.2 < ratio < 3.5  # expect about sqrt(4) = 2

    def test_failures_counted(self):
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=30, seed=0)
        out = chansim.run_point(sc, (1, 1))
        assert out.failures == 0
        assert out.trials == 30

    @pytest.mark.parametrize("failing_call", ["first", "gsvd_of_trial_0"])
    def test_lapack_failure_costs_one_trial(self, monkeypatch, failing_call):
        # each case fails an SVD of trial 0's wherever it runs: in a stack,
        # which is then re-run trial by trial, and in trial 0 alone, a
        # one-row stack.  "first" is the first SVD of a one-trial point, the
        # full-rank check of trial 0's H11: the point's stacked check fails,
        # and then trial 0's check alone.  "gsvd_of_trial_0" is the SVD of
        # trial 0's stacked GSVD pair [A^H; B^H]: the stack's GSVD fails,
        # and then trial 0's GSVD alone.
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=6, seed=0)
        svd = np.linalg.svd
        if failing_call == "first":
            inputs = []

            def recording_svd(a, *args, **kwargs):
                inputs.append(a.copy())
                return svd(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "svd", recording_svd)
            chansim.run_point(dataclasses.replace(sc, trials=1), (1, 1))
            monkeypatch.setattr(np.linalg, "svd", svd)
            marked = inputs[0].reshape(inputs[0].shape[-2:])  # a stack of one
        else:
            gsvd, pairs = matcore.gsvd, []

            def recording_gsvd(a, b):
                pairs.append((a, b))
                return gsvd(a, b)

            monkeypatch.setattr(matcore, "gsvd", recording_gsvd)
            chansim.run_point(dataclasses.replace(sc, trials=1), (1, 1))
            monkeypatch.setattr(matcore, "gsvd", gsvd)
            (a,), (b,) = pairs[0]  # a stack of one
            marked = np.vstack([a.conj().T, b.conj().T])
        hits = []

        def failing_svd(a, *args, **kwargs):
            items = a.reshape((-1,) + a.shape[-2:])
            if a.shape[-2:] == marked.shape and any(np.array_equal(x, marked) for x in items):
                hits.append(a.ndim)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        out = chansim.run_point(sc, (1, 1))
        assert hits == [3, 3]
        assert out.failures == 1
        assert out.trials == 6
        assert np.isfinite([out.mean_rs1, out.se_rs1, out.mean_rs2, out.se_rs2]).all()
        # a one-trial point's stack of one fails once, and is not run again alone
        hits.clear()
        with pytest.raises(DegenerateDraw, match="every trial failed"):
            chansim.run_point(dataclasses.replace(sc, trials=1), (1, 1))
        assert hits == [3]

    @pytest.mark.parametrize("geometry, cfg, target", [
        (small_geometry(), CFG_SMALL, (1, 1)),
        (None, AntennaConfig(6, 6, 5, 4, 5), (2, 4)),
    ])
    def test_high_snr_point_completes(self, geometry, cfg, target):
        # 180 dB over the noise: rates stay finite and no trial is lost
        sc = Scenario(config=cfg, geometry=geometry, power_dbm=120.0, trials=20, seed=0)
        out = chansim.run_point(sc, target)
        assert out.failures == 0
        assert np.isfinite([out.mean_rs1, out.se_rs1, out.mean_rs2, out.se_rs2]).all()


class TestMonteCarlo:
    def test_sweep_records(self):
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=25, seed=5,
                      sweep=Sweep("s1_s2_distance", (150.0, 50.0)))
        recs = chansim.monte_carlo(sc, (1, 1))
        assert [r.x for r in recs] == [150.0, 50.0]
        assert all(r.variable == "s1_s2_distance" for r in recs)

    def test_alpha_sweep_degrades_less_with_larger_public_array(self):
        # uncertainty hurts, but the fraction of the secrecy rate lost
        # shrinks as the public arrays grow
        alphas = (0.0, 0.1)
        ge = Geometry(s1=(10.0, 0.0), s2=(0.0, 0.0), ring_radius=10.0)
        rel_drop = {}
        for n2, target in ((2, (1, 1)), (6, (3, 3))):
            cfg = AntennaConfig(4, n2, 4, n2, 4)
            sc = Scenario(config=cfg, geometry=ge, trials=150, seed=11,
                          sweep=Sweep("uncertainty_alpha", alphas))
            recs = chansim.monte_carlo(sc, target)
            clean = recs[0].stats.mean_rs1
            rel_drop[n2] = (clean - recs[1].stats.mean_rs1) / clean
            assert rel_drop[n2] > 0
        assert rel_drop[6] < rel_drop[2]

    # stacks of 3 straddle the points of each sweep
    @pytest.mark.parametrize("variable, stack_trials", [
        pytest.param(v, n, id=v if n is None else f"{v}-stack{n}")
        for n in (None, 3) for v in chansim.SWEEP_VARIABLES
    ])
    def test_sweep_point_equals_scenario_built_directly(self, monkeypatch, variable,
                                                        stack_trials):
        if stack_trials is not None:
            monkeypatch.setattr(chansim, "_STACK_TRIALS", stack_trials)
        values = {
            "s1_s2_distance": (150.0, 50.0),
            "uncertainty_alpha": (0.0, 0.2),
            "power_dbm": (0.0, 10.0),
            "noise_power_dbm": (-60.0, -40.0),
        }[variable]
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=4, seed=9,
                      sweep=Sweep(variable, values))
        recs = chansim.monte_carlo(sc, (1, 1))
        for rec, value in zip(recs, values):
            if variable == "s1_s2_distance":
                direct = Scenario(config=CFG_SMALL, geometry=small_geometry(value), trials=4, seed=9)
            else:
                direct = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=4, seed=9,
                                  **{variable: value})
            assert (rec.variable, rec.x) == (variable, value)
            assert rec.stats == chansim.run_point(direct, (1, 1))

    def test_csv_output(self, tmp_path):
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=10, seed=5,
                      sweep=Sweep("s1_s2_distance", (150.0, 50.0)))
        recs = chansim.monte_carlo(sc, (1, 1))
        path = tmp_path / "curve.csv"
        chansim.write_curve_csv(path, recs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,mean_rs1,se_rs1,mean_rs2,se_rs2,failures"
        assert len(lines) == 3
