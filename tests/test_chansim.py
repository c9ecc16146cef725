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


class TestLosChannel:
    def test_pathloss_magnitude(self):
        # in both ring modes, every entry of a matrix has its link's path
        # loss distance**(-c/2), here distance**-1.5
        for resample_rings in (True, False):
            geo = dataclasses.replace(small_geometry(), resample_rings=resample_rings)
            sc = Scenario(config=CFG_SMALL, geometry=geo, trials=1, seed=5, pathloss_exponent=3.0)
            for trial in range(5):
                links = (chansim._link_distances(geo, chansim._trial_rng(sc.seed, trial))
                         if resample_rings else chansim._fixed_link_distances(geo, sc.seed))
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
        for trial in range(10):
            try:
                links = (chansim._link_distances(geo, chansim._trial_rng(seed, trial))
                         if resample_rings else chansim._fixed_link_distances(geo, seed))
            except DegenerateDraw:
                continue
            assert sorted(links) == sorted(pc._CHANNELS)
            assert all(1.0 <= d < math.inf for d in links.values())

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
    # differential: one draw of every value equals the twelve draws that
    # _cgauss makes matrix by matrix, real parts before imaginary ones
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
        g = chansim._true_eve(np.ones((200, 200), dtype=complex), 0.1, 1.0, rng)
        mean = np.mean(g)
        assert abs(mean - 1 / np.sqrt(1.1)) < 5e-3
        var = np.var(g)
        assert abs(var - 0.1 / 1.1) < 5e-3

    def test_large_alpha_limit(self, rng):
        g = chansim._true_eve(np.ones((300, 300), dtype=complex), 1e9, 1.0, rng)
        assert abs(np.var(g) - 1.0) < 2e-2  # per-entry variance -> gain**2

    def test_gain_scales_the_mixture(self):
        g_est = np.exp(1j * np.random.default_rng(1).uniform(0, 2 * np.pi, (3, 4)))
        gain = 2.0 ** -1.75
        scaled = chansim._true_eve(g_est, 0.3, gain, np.random.default_rng(2))
        unit = chansim._true_eve(g_est, 0.3, 1.0, np.random.default_rng(2))
        assert scaled.tobytes() == (gain * unit).tobytes()

    def test_gaussian_true_eve_has_unit_gain(self):
        # differential: a Gaussian trial's true eavesdropper channels mix
        # its design ones, unscaled, with errors drawn after the design set
        sc = Scenario(config=CFG_SMALL, trials=1, seed=8, uncertainty_alpha=0.4)
        chans = chansim.draw_trial(sc, 2)
        rng = chansim._trial_rng(sc.seed, 2)
        design = chansim.gaussian_channels(CFG_SMALL, rng)
        for name in ("g1", "g2"):
            expected = chansim._true_eve(getattr(design, name), 0.4, 1.0, rng)
            assert getattr(chans.actual, name).tobytes() == expected.tobytes()

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
        links = (chansim._link_distances(geo, rng) if geo.resample_rings
                 else chansim._fixed_link_distances(geo, sc.seed))
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
            actual = pc.ChannelSet(
                **h,
                g1=chansim._true_eve(g1_est, alpha, links["g1"] ** (-c / 2.0), rng),
                g2=chansim._true_eve(g2_est, alpha, links["g2"] ** (-c / 2.0), rng),
            )
        if design.full_rank() and actual.full_rank():
            return design, actual
    raise DegenerateDraw(f"trial {trial} never drew full-rank channels")


def checked_draws(sc, trials):
    """run_point's checked draws of the given trials: one stacked check,
    then a redraw of each trial that fails it."""
    return chansim._checked_draws(sc, [(trial, chansim.draw_trial(sc, trial)) for trial in trials])


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
        # 200-trial point places its receivers once; the stats equal,
        # bitwise, those of placing them anew for every trial and redraw
        geo = dataclasses.replace(small_geometry(), resample_rings=False)
        sc = Scenario(config=CFG_SMALL, geometry=geo, trials=200, seed=9, uncertainty_alpha=0.1)
        place, calls = chansim._link_distances, []

        def counting(geo, rng):
            calls.append(geo)
            return place(geo, rng)

        monkeypatch.setattr(chansim, "_link_distances", counting)
        chansim._fixed_link_distances.cache_clear()
        point = chansim.run_point(sc, (1, 1))
        assert calls == [geo]

        monkeypatch.setattr(chansim, "_fixed_link_distances",
                            lambda geo, seed: counting(geo, chansim._trial_rng(seed, 0)))
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
        # stacked check fails the first draw, and the trial's redraw loop
        # replays that draw before each of its other draws
        calls = []

        def rank_one(g_est, alpha, gain, rng):
            calls.append(alpha)
            return np.full(g_est.shape, gain, dtype=np.complex128)

        monkeypatch.setattr(chansim, "_true_eve", rank_one)
        sc = Scenario(config=CFG_SMALL, geometry=small_geometry(), trials=1, seed=4,
                      uncertainty_alpha=0.3)
        with pytest.raises(DegenerateDraw, match="every trial failed"):
            chansim.run_point(sc, (1, 1))
        assert len(calls) == 2 * (1 + chansim._MAX_RESAMPLES)


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
        # which is then re-run trial by trial, and in trial 0 alone.
        # "first" is the first SVD of a one-trial point, the full-rank check
        # of trial 0's H11: the point's stacked check fails, and trial 0's
        # redraw loop checks the draw alone.  "gsvd_of_trial_0" is the SVD
        # of trial 0's stacked GSVD pair [A^H; B^H]: the stack's GSVD fails,
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
            marked = inputs[0]
        else:
            gsvd, pairs = matcore.gsvd, []

            def recording_gsvd(a, b):
                pairs.append((a, b))
                return gsvd(a, b)

            monkeypatch.setattr(matcore, "gsvd", recording_gsvd)
            chansim.run_point(dataclasses.replace(sc, trials=1), (1, 1))
            monkeypatch.setattr(matcore, "gsvd", gsvd)
            a, b = pairs[0]
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
        assert hits == [3, 2]
        assert out.failures == 1
        assert out.trials == 6
        assert np.isfinite([out.mean_rs1, out.se_rs1, out.mean_rs2, out.se_rs2]).all()

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
