"""Stacked assembly and scoring: every item of a stack gets exactly the
outcome its draw gets alone, and failures are counted per trial."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdofkit import chansim, matcore, precoder, region, verifier
from sdofkit.chansim import Geometry, Scenario
from sdofkit.errors import ConstructionDeficit, DegenerateDraw, DegenerateInput, TargetInfeasible
from sdofkit.region import AntennaConfig

from conftest import channels_for, cstd, low_rank, stacked
from test_chansim import replayed_draw
from test_matcore import gsvd_shapes_with_shared_block

CFG_SMALL = AntennaConfig(4, 2, 4, 2, 4)

# every (config, strict-boundary target) of acceptance criterion 4
CASES = [
    (tup, tuple(target))
    for tup in itertools.product(range(1, 5), repeat=5)
    for target in region.boundary(AntennaConfig(*tup)).strict
]

# the cases among those whose subset build solves for exclusion coordinates
# (IV, V or VI avoiding the images of an earlier subset), found by recording
# the calls of precoder._exclusion_coords over one pass of CASES
EXCLUSION_CASES = [
    ((2, 2, 4, 1, 2), (2, 0)), ((2, 3, 4, 1, 2), (2, 0)), ((2, 3, 4, 1, 3), (2, 0)),
    ((2, 4, 2, 1, 2), (2, 0)), ((2, 4, 3, 2, 2), (2, 0)), ((2, 4, 3, 3, 2), (2, 1)),
    ((2, 4, 3, 4, 2), (2, 2)), ((2, 4, 4, 1, 2), (2, 0)), ((2, 4, 4, 1, 3), (2, 0)),
    ((2, 4, 4, 1, 4), (2, 0)), ((3, 2, 4, 1, 3), (2, 0)), ((3, 3, 4, 1, 4), (2, 0)),
    ((3, 3, 4, 2, 3), (2, 1)), ((3, 4, 2, 1, 3), (2, 0)), ((3, 4, 3, 1, 2), (2, 1)),
    ((3, 4, 3, 3, 3), (2, 1)), ((3, 4, 3, 4, 3), (2, 2)), ((3, 4, 4, 2, 3), (2, 1)),
    ((3, 4, 4, 2, 4), (2, 1)), ((4, 2, 4, 1, 4), (2, 0)), ((4, 3, 4, 2, 4), (2, 1)),
    ((4, 4, 2, 1, 4), (2, 0)), ((4, 4, 3, 1, 3), (2, 1)), ((4, 4, 3, 2, 2), (2, 2)),
    ((4, 4, 3, 4, 4), (2, 2)), ((4, 4, 4, 3, 4), (2, 2)),
]


def recording_exclusion_solves(monkeypatch):
    """The image basis, claimed directions and coordinates of each
    precoder._exclusion_coords call, as they run."""
    solve, calls = precoder._exclusion_coords, []

    def recording(x, claimed):
        z = solve(x, claimed)
        calls.append((x, np.concatenate(claimed, axis=-1), z))
        return z

    monkeypatch.setattr(precoder, "_exclusion_coords", recording)
    return calls


def single_outcome(trial, target, power):
    """What construct on the design channels, then rates on the true ones,
    give or raise for one trial alone."""
    try:
        pair = precoder.construct(trial.design, target, power)
        return verifier.rates(trial.actual, pair)
    except (ConstructionDeficit, np.linalg.LinAlgError) as exc:
        return exc


def stack_of(trials):
    """Trials' plain channels as one stacked TrialChannels, as run_point
    scores them: the true set shares the design set's H stacks, and is the
    design set itself when every trial's is."""
    design = actual = stacked([t.design for t in trials])
    if any(t.actual is not t.design for t in trials):
        true = stacked([t.actual for t in trials])
        actual = precoder._trusted(design.h11, design.h12, design.h21, design.h22, true.g1, true.g2)
    return chansim.TrialChannels(design, actual, tuple(range(len(trials))))


def rows_of(chans):
    """The number of trials in a stacked TrialChannels, which every trial
    run alone is too, as a stack of one."""
    assert chans.design.h11.ndim == chans.actual.g1.ndim == 3
    return len(chans.design.h11)


def rank_one_at_random(true, streams):
    """The true eavesdropper stacks ``true`` of ``chansim._true_eve``, each
    row of each made rank one when its stream's next uniform value, drawn
    row by row after the errors, is below 0.55."""
    for row, rng in enumerate(streams):
        for g in true:
            if rng.uniform() < 0.55:
                g[row] = np.outer(g[row, :, 0], np.ones(g.shape[-1]))
    return true


def stack_outcomes(trials, target, power):
    """run_point's one pass over a stack of trials: built and scored as one
    stack, or else trial by trial."""
    target = region.SdofPoint(*target)
    cfg = trials[0].design.config
    wanted = precoder._plan(cfg, target, power)
    return chansim._stack_outcomes(stack_of(trials), cfg, target, wanted, power)


def assert_same_outcome(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
    else:
        assert isinstance(got, verifier.RateTriple)
        assert [x.hex() for x in dataclasses.astuple(got)] == \
            [x.hex() for x in dataclasses.astuple(expected)]


class TestMatcoreStacks:
    def test_ranks_per_item(self, rng):
        stack = np.stack([cstd(rng, 5, 4), low_rank(rng, 5, 4, 2), np.zeros((5, 4))])
        assert matcore.rank_tol(stack).tolist() == [matcore.rank_tol(m) for m in stack]
        assert matcore.rank_tol(stack).tolist() == [4, 2, 0]
        assert isinstance(matcore.rank_tol(stack[0]), int)

    def test_image_quotient_per_item(self, rng):
        a = np.stack([cstd(rng, 4, 6) for _ in range(3)])
        b = np.stack([cstd(rng, 6, 2), low_rank(rng, 6, 2, 1), cstd(rng, 6, 2)])
        c = np.stack([cstd(rng, 4, 6) for _ in range(3)])
        d = np.stack([cstd(rng, 6, 3) for _ in range(3)])
        got = matcore.image_quotient((a, b), (c, d))
        assert got.tolist() == [matcore.image_quotient((a[i], b[i]), (c[i], d[i]))
                                for i in range(3)]
        assert matcore.image_quotient((a, b)).tolist() == [2, 1, 2]

    def test_bases_bitwise_per_item(self, rng):
        stack = np.stack([cstd(rng, 3, 5) for _ in range(4)])
        for fn in (matcore.null_basis, matcore.orth_complement):
            out = fn(stack)
            for item, m in zip(out, stack):
                assert np.array_equal(item, fn(m))

    def test_disagreeing_ranks_split(self, rng):
        stack = np.stack([cstd(rng, 3, 5), low_rank(rng, 3, 5, 2), cstd(rng, 3, 5)])
        with pytest.raises(matcore._StackSplit):
            matcore.null_basis(stack)

    # every shape with a shared block (s > 0), then shapes with s == 0,
    # including an empty side
    @pytest.mark.parametrize("shape", gsvd_shapes_with_shared_block()
                             + [(6, 3, 3), (6, 0, 4), (5, 2, 0), (4, 1, 2), (8, 3, 4)])
    def test_gsvd_bitwise_per_item(self, shape):
        n, m, kc = shape
        rng = np.random.default_rng(list(shape))
        a = np.stack([cstd(rng, n, m) for _ in range(3)])
        b = np.stack([cstd(rng, n, kc) for _ in range(3)])
        g, pairs = matcore.gsvd(a, b), matcore.aligned_pairs(a, b)
        for i in range(3):
            gi = matcore.gsvd(a[i], b[i])
            assert (g.k, g.r, g.s, g.p) == (gi.k, gi.r, gi.s, gi.p)
            for name in ("psi1", "psi2", "lam1", "lam2", "x"):
                got, ref = getattr(g, name)[i], getattr(gi, name)
                assert got.shape == ref.shape and np.array_equal(got, ref)
            for got, ref in zip(pairs, matcore.aligned_pairs(a[i], b[i])):
                assert got[i].shape == ref.shape and np.array_equal(got[i], ref)

    @pytest.mark.parametrize("shape, deficient, message", [
        # a rank-deficient a; then a full-rank pair whose spans coincide, so
        # the stacked pair is deficient, with and without a shared block
        ((6, 4, 5), "a", "rank-deficient input"),
        ((4, 3, 3), "pair", "stacked pair is rank deficient"),
        ((6, 2, 2), "pair", "stacked pair is rank deficient"),
    ])
    def test_gsvd_deficient_item_splits(self, rng, shape, deficient, message):
        n, m, kc = shape
        a = np.stack([cstd(rng, n, m) for _ in range(3)])
        b = np.stack([cstd(rng, n, kc) for _ in range(3)])
        if deficient == "a":
            a[1] = low_rank(rng, n, m, m - 1)
        else:
            b[1] = a[1] @ cstd(rng, m, kc)
        with pytest.raises(matcore._StackSplit):
            matcore.gsvd(a, b)
        with pytest.raises(DegenerateInput, match=message):
            matcore.gsvd(a[1], b[1])
        with pytest.raises(DegenerateInput, match=message):
            matcore.gsvd(a[1:2], b[1:2])

    def test_gsvd_angle_check_splits(self, rng, monkeypatch):
        # a zero angle planted in the second item's cosine-sine step fails
        # that item's angle check alone
        a = np.stack([cstd(rng, 6, 4) for _ in range(3)])
        b = np.stack([cstd(rng, 6, 5) for _ in range(3)])
        cossin, calls = matcore.cossin, []

        def planted(x, p, q):
            calls.append(len(calls))
            u, theta, vh = cossin(x, p, q)
            if len(calls) == 2:
                theta = np.concatenate([[0.0], theta[1:]])
            return u, theta, vh

        monkeypatch.setattr(matcore, "cossin", planted)
        with pytest.raises(matcore._StackSplit):
            matcore.gsvd(a, b)
        calls.clear()
        matcore.gsvd(a[0], b[0])
        with pytest.raises(DegenerateInput, match="cosine-sine angles"):
            matcore.gsvd(a[1], b[1])


class TestConstructStack:
    @given(case=st.sampled_from(CASES), seed=st.integers(0, 2**32 - 1),
           size=st.integers(1, 4), planted=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_stacked_equals_single(self, case, seed, size, planted, data):
        tup, target = case
        rng = np.random.default_rng(seed)
        designs = [channels_for(tup, rng) for _ in range(size)]
        if planted:
            # one rank-deficient item, so its widths or checks differ from
            # the others' and the split path runs
            index = data.draw(st.integers(0, size - 1))
            name = data.draw(st.sampled_from(precoder._CHANNELS))
            rows, cols = getattr(designs[index], name).shape
            rank = data.draw(st.integers(0, min(rows, cols) - 1))
            designs[index] = dataclasses.replace(designs[index],
                                                 **{name: low_rank(rng, rows, cols, rank)})
        # true eavesdropper channels apart from the design ones, as under
        # channel uncertainty, so scoring on the wrong set shows
        trials = [chansim.TrialChannels(design=ch, actual=dataclasses.replace(
            ch, g1=cstd(rng, *ch.g1.shape), g2=cstd(rng, *ch.g2.shape))) for ch in designs]
        outcomes = stack_outcomes(trials, target, 10.0)
        assert len(outcomes) == size
        for trial, got in zip(trials, outcomes):
            assert_same_outcome(got, single_outcome(trial, target, 10.0))

    @pytest.mark.parametrize("name, rank, target, message", [
        ("g1", 1, (2, 4), "subset decomposition failed: rank-deficient input"),
        ("h22", 2, (2, 4), "public streams do not span the target dimensions"),
        ("h11", 2, (3, 3), "confidential streams lost rank at the receiver"),
    ])
    def test_deficient_item_fails_alone(self, rng, name, rank, target, message):
        chs = [channels_for((6, 6, 5, 4, 5), rng) for _ in range(3)]
        rows, cols = getattr(chs[1], name).shape
        chs[1] = dataclasses.replace(chs[1], **{name: low_rank(rng, rows, cols, rank)})
        trials = [chansim.TrialChannels(design=ch, actual=ch) for ch in chs]
        outcomes = stack_outcomes(trials, target, 1.0)
        assert isinstance(outcomes[1], ConstructionDeficit)
        assert str(outcomes[1]).startswith(message)
        for i in (0, 2):
            assert_same_outcome(outcomes[i], single_outcome(trials[i], target, 1.0))

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_failed_stack_runs_trial_by_trial(self, rng, monkeypatch, position):
        # one stack of three, then each trial alone, wherever the deficient
        # trial sits; never a smaller stack of the trials that agree
        chs = [channels_for((6, 6, 5, 4, 5), rng) for _ in range(3)]
        chs[position] = dataclasses.replace(chs[position], h22=low_rank(rng, 4, 6, 2))
        trials = [chansim.TrialChannels(design=ch, actual=ch) for ch in chs]
        stack_rates, sizes = chansim._stack_rates, []

        def counting(chans, *args):
            sizes.append(rows_of(chans))
            return stack_rates(chans, *args)

        monkeypatch.setattr(chansim, "_stack_rates", counting)
        outcomes = stack_outcomes(trials, (2, 4), 1.0)
        assert sizes == [3, 1, 1, 1]
        assert isinstance(outcomes[position], ConstructionDeficit)
        for trial, got in zip(trials, outcomes):
            assert_same_outcome(got, single_outcome(trial, (2, 4), 1.0))


class TestExclusionStack:
    def test_cases_are_those_that_solve(self, monkeypatch):
        calls = recording_exclusion_solves(monkeypatch)
        rng = np.random.default_rng(0)
        reached = []
        for tup, target in CASES:
            calls.clear()
            precoder.construct(channels_for(tup, rng), target, power=10.0)
            if calls:
                reached.append((tup, target))
        assert reached == EXCLUSION_CASES

    @pytest.mark.parametrize("tup, target", EXCLUSION_CASES)
    def test_stacked_equals_single(self, monkeypatch, tup, target):
        # one solve for the stack of three, then each draw as a stack of one
        rng = np.random.default_rng(list(tup) + list(target))
        chs = [channels_for(tup, rng) for _ in range(3)]
        cfg, target = AntennaConfig(*tup), region.SdofPoint(*target)
        wanted = precoder._plan(cfg, target, 10.0)
        calls = recording_exclusion_solves(monkeypatch)
        v, w = precoder._assemble(stacked(chs), cfg, target, wanted, 10.0)
        assert calls and {x.shape[:-2] for x, _, _ in calls} == {(3,)}
        # each item's coordinates complete the least-squares coordinates of
        # its claimed directions, as np.linalg.lstsq gives them
        for x, rhs, z in calls:
            for xi, ri, zi in zip(x, rhs, z):
                claimed = np.linalg.lstsq(xi, ri, rcond=None)[0]
                assert zi.shape[-1] == xi.shape[-1] - matcore.rank_tol(claimed)
                assert np.linalg.norm(zi.conj().T @ claimed) <= 1e-12 * np.linalg.norm(claimed)
        for i, ch in enumerate(chs):
            pair = precoder.construct(ch, target, power=10.0)
            assert np.array_equal(v[i], pair.v) and np.array_equal(w[i], pair.w)
            assert verifier.sdof_of(ch, pair) == target


    @pytest.mark.parametrize("tup, target", EXCLUSION_CASES)
    def test_solve_is_the_inline_pseudo_inverse(self, monkeypatch, tup, target):
        # the reference is the solve as precoder once wrote it, from its own
        # thin SVD of x; the stack of three and each draw alone must give
        # its bits
        rng = np.random.default_rng(list(tup) + list(target))
        chs = [channels_for(tup, rng) for _ in range(3)]
        cfg, target = AntennaConfig(*tup), region.SdofPoint(*target)
        calls = recording_exclusion_solves(monkeypatch)
        precoder._assemble(stacked(chs), cfg, target, precoder._plan(cfg, target, 10.0), 10.0)
        for ch in chs:
            precoder.construct(ch, target, power=10.0)
        assert {x.ndim for x, _, _ in calls} == {2, 3}
        for x, rhs, z in calls:
            u, sv, vh = np.linalg.svd(x, full_matrices=False)
            coords = vh.conj().swapaxes(-1, -2) @ ((u.conj().swapaxes(-1, -2) @ rhs) / sv[..., None])
            assert z.tobytes() == matcore._orth_complement(coords).tobytes()

def small_scenario(**kwargs):
    geo = Geometry(s1=(50.0, 0.0), s2=(0.0, 0.0), ring_radius=10.0)
    return Scenario(config=CFG_SMALL, geometry=geo, **kwargs)


def stats_without(scenario, target, lost):
    """PointStats from the public per-trial functions, with the trials in
    ``lost`` counted as failures."""
    triples = []
    for trial in range(scenario.trials):
        if trial in lost:
            continue
        chans = chansim.draw_trial(scenario, trial)
        pair = precoder.construct(chans.design, target, power=scenario.effective_power)
        triples.append(verifier.rates(chans.actual, pair))
    return point_stats(triples, len(lost), scenario.trials)


def point_stats(triples, failures, trials):
    """PointStats of the rate triples of a point's scored trials."""
    r1, r2 = np.array([t.rs1 for t in triples]), np.array([t.rs2 for t in triples])
    root = np.sqrt(len(r1))
    return chansim.PointStats(
        mean_rs1=float(np.mean(r1)), se_rs1=float(np.std(r1, ddof=1) / root),
        mean_rs2=float(np.mean(r2)), se_rs2=float(np.std(r2, ddof=1) / root),
        failures=failures, trials=trials,
    )


def flag_draw_checks(monkeypatch):
    """A one-item list that holds True while run_point checks draws for
    full rank."""
    checked, inside = chansim._checked_draws, [False]

    def flagging(*args):
        inside[0] = True
        try:
            return checked(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(chansim, "_checked_draws", flagging)
    return inside


def count_gsvd_calls(monkeypatch):
    """Record the shape of every SVD that :func:`matcore.gsvd` runs and of
    every cosine-sine step, in two lists that fill as the caller runs."""
    svd, gsvd, cossin = np.linalg.svd, matcore.gsvd, matcore.cossin
    inside, svds, steps = [False], [], []

    def counting_svd(a, *args, **kwargs):
        if inside[0]:
            svds.append(a.shape)
        return svd(a, *args, **kwargs)

    def counting_gsvd(a, b):
        inside[0] = True
        try:
            return gsvd(a, b)
        finally:
            inside[0] = False

    def counting_cossin(x, p, q):
        steps.append(x.shape)
        return cossin(x, p, q)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(matcore, "gsvd", counting_gsvd)
    monkeypatch.setattr(matcore, "cossin", counting_cossin)
    return svds, steps


class TestRunPointStacks:
    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_equals_per_trial_functions(self, alpha):
        sc = small_scenario(trials=7, seed=3, uncertainty_alpha=alpha)
        assert chansim.run_point(sc, (1, 1)) == stats_without(sc, (1, 1), ())

    @pytest.mark.parametrize("geometry, cfg, target, alpha", [
        (Geometry(s1=(50.0, 0.0), s2=(0.0, 0.0)), CFG_SMALL, (1, 1), 0.0),
        (None, AntennaConfig(6, 6, 5, 4, 5), (2, 4), 0.2),
    ])
    def test_stack_size_does_not_change_stats(self, monkeypatch, geometry, cfg, target, alpha):
        sc = Scenario(config=cfg, geometry=geometry, trials=10, seed=4, uncertainty_alpha=alpha)
        whole = chansim.run_point(sc, target)
        monkeypatch.setattr(chansim, "_STACK_TRIALS", 3)
        assert chansim.run_point(sc, target) == whole

    def test_successes_score_their_target(self):
        # at a 2 km spacing and a path-loss exponent of 6 some draws build
        # pairs that miss the target; each is a failure of the point, as
        # replaying its trial alone through construct and sdof_of shows
        sc = Scenario(config=AntennaConfig(6, 6, 5, 4, 5),
                      geometry=Geometry(s1=(2000, 0), s2=(0, 0)),
                      pathloss_exponent=6, trials=60, seed=11)
        target = region.SdofPoint(3, 3)
        missed = 0
        for trial in range(sc.trials):
            chans = chansim.draw_trial(sc, trial)
            try:
                pair = precoder.construct(chans.design, target, power=sc.effective_power)
            except ConstructionDeficit:
                missed += 1
                continue
            missed += verifier.sdof_of(chans.design, pair) != target
        assert missed > 0
        assert chansim.run_point(sc, target).failures == missed

    def test_planted_failure_costs_its_trial(self, monkeypatch):
        # the matrix of trial 3 in the first stacked SVD after the draw
        # check fails wherever it goes, so the stack is re-run trial by
        # trial and trial 3 is lost
        sc = small_scenario(trials=8, seed=0)
        svd = np.linalg.svd
        marked = []
        checking = flag_draw_checks(monkeypatch)

        def recording_svd(a, *args, **kwargs):
            if a.ndim == 3 and len(a) > 1 and not checking[0] and not marked:
                marked.append(a[3].copy())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        chansim.run_point(sc, (1, 1))

        def planted_svd(a, *args, **kwargs):
            items = a.reshape((-1,) + a.shape[-2:])
            if a.shape[-2:] == marked[0].shape and any(np.array_equal(x, marked[0]) for x in items):
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", planted_svd)
        out = chansim.run_point(sc, (1, 1))
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert out == stats_without(sc, (1, 1), {3})

    def test_one_shot_stack_failure_costs_no_trial(self, monkeypatch):
        # the first stacked SVD after the draw check fails once
        sc = small_scenario(trials=8, seed=0)
        expected = chansim.run_point(sc, (1, 1))
        svd = np.linalg.svd
        failed = []
        checking = flag_draw_checks(monkeypatch)

        def once_svd(a, *args, **kwargs):
            if a.ndim == 3 and len(a) > 1 and not checking[0] and not failed:
                failed.append(True)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", once_svd)
        assert chansim.run_point(sc, (1, 1)) == expected
        assert failed

    def test_planted_scoring_failure_costs_its_trial(self, monkeypatch):
        # trial 3's [H11 V, H12 W], the image whose rate SVD the scoring
        # takes, fails wherever it runs: first as an item of the scorer's
        # one SVD call on the stack, which is then re-run trial by trial,
        # and once more in trial 3 alone, so only trial 3 is lost
        sc = small_scenario(trials=8, seed=0)
        chans = chansim.draw_trial(sc, 3)
        pair = precoder.construct(chans.design, (1, 1), power=sc.effective_power)
        marked = np.concatenate([chans.actual.h11 @ pair.v, chans.actual.h12 @ pair.w], axis=-1)
        svd = np.linalg.svd
        hits = []

        def planted_svd(a, *args, **kwargs):
            items = a.reshape((-1,) + a.shape[-2:])
            if a.shape[-2:] == marked.shape and any(np.array_equal(x, marked) for x in items):
                hits.append(a.shape[:-2])
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", planted_svd)
        out = chansim.run_point(sc, (1, 1))
        monkeypatch.setattr(np.linalg, "svd", svd)
        # the stack of 8 trials, then trial 3 as a stack of one
        assert [lead[0] for lead in hits] == [8, 1]
        assert out == stats_without(sc, (1, 1), {3})

    def test_one_shot_scoring_failure_costs_no_trial(self, monkeypatch):
        # the first SVD of the first scoring stack fails once; the stack is
        # re-run trial by trial and every trial is scored
        sc = small_scenario(trials=8, seed=0)
        expected = chansim.run_point(sc, (1, 1))
        svd, score = np.linalg.svd, verifier._score
        failed = []

        def once_svd(a, *args, **kwargs):
            if not failed:
                failed.append(a.shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        def scoring(ch, v, w):
            monkeypatch.setattr(np.linalg, "svd", once_svd)
            try:
                return score(ch, v, w)
            finally:
                monkeypatch.setattr(np.linalg, "svd", svd)

        monkeypatch.setattr(verifier, "_score", scoring)
        assert chansim.run_point(sc, (1, 1)) == expected
        assert [shape[0] for shape in failed] == [8]

    def test_planted_cossin_failure_costs_its_trial(self, monkeypatch):
        # the cosine-sine step of trial 3's GSVD fails wherever it runs:
        # once in the stack, which is then re-run trial by trial, and once
        # more alone, so only trial 3 is lost
        sc = small_scenario(trials=8, seed=0)
        cossin, inputs = matcore.cossin, []

        def recording(x, p, q):
            inputs.append(x.copy())
            return cossin(x, p, q)

        monkeypatch.setattr(matcore, "cossin", recording)
        precoder.construct(chansim.draw_trial(sc, 3).design, (1, 1), power=sc.effective_power)
        (marked,) = inputs
        hits = []

        def planted(x, p, q):
            if np.array_equal(x, marked):
                hits.append(True)
                raise np.linalg.LinAlgError("zuncsd did not converge: 1")
            return cossin(x, p, q)

        monkeypatch.setattr(matcore, "cossin", planted)
        out = chansim.run_point(sc, (1, 1))
        monkeypatch.setattr(matcore, "cossin", cossin)
        assert len(hits) == 2
        assert out == stats_without(sc, (1, 1), {3})

    def test_one_shot_cossin_failure_costs_no_trial(self, monkeypatch):
        # the first cosine-sine step, the stack's first item, fails once;
        # the stack is re-run trial by trial and no trial is lost
        sc = small_scenario(trials=8, seed=0)
        expected = chansim.run_point(sc, (1, 1))
        cossin, gsvd, calls = matcore.cossin, matcore.gsvd, []

        def once(x, p, q):
            calls.append(x.shape)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("zuncsd did not converge: 1")
            return cossin(x, p, q)

        def stack_sizes(a, b):
            calls.append(a.shape[:-2])
            return gsvd(a, b)

        monkeypatch.setattr(matcore, "cossin", once)
        monkeypatch.setattr(matcore, "gsvd", stack_sizes)
        assert chansim.run_point(sc, (1, 1)) == expected
        # the stack of 8 fails at its first item, then each trial runs
        # alone, as a stack of one
        assert calls[:2] == [(8,), (6, 6)]
        assert calls[2:] == [(1,), (6, 6)] * 8

    def test_gsvd_runs_once_per_stack(self, monkeypatch):
        # counts that do not depend on the machine: on a 20-trial LoS point
        # the GSVD's two input rank checks and its stacked-pair SVD run once
        # for the stack, and the cosine-sine step once per trial
        svds, steps = count_gsvd_calls(monkeypatch)
        out = chansim.run_point(small_scenario(trials=20, seed=1), (1, 1))
        assert out.failures == 0
        assert len(svds) == 3 and all(shape[0] == 20 for shape in svds)
        assert len(steps) == 20

    def test_infeasible_target_costs_one_draw(self, monkeypatch):
        # the target is planned after the first stacked draw that places a
        # trial: one draw_trial call, over the first stack's trials
        draw, drawn = chansim.draw_trial, []

        def counting_draw(scenario, trials):
            drawn.append(trials)
            return draw(scenario, trials)

        monkeypatch.setattr(chansim, "draw_trial", counting_draw)
        with pytest.raises(TargetInfeasible):
            chansim.run_point(small_scenario(trials=1000, seed=0), (4, 4))
        assert drawn == [range(0, chansim._STACK_TRIALS)]

    def test_every_draw_failing_raises_degenerate_draw(self, monkeypatch):
        # no placement passes, in the stack or in a trial's draw alone, so
        # no trial has a row and the infeasible target is never planned
        monkeypatch.setattr(chansim, "_placed", lambda geo, dist: np.zeros(dist.shape[:-1], bool))
        with pytest.raises(DegenerateDraw, match="every trial failed"):
            chansim.run_point(small_scenario(trials=5, seed=0), (4, 4))


class TestCheckedDraws:
    def test_stacked_full_rank_per_item(self, rng):
        chs = [channels_for(CFG_SMALL.as_tuple(), rng) for _ in range(4)]
        chs[1] = dataclasses.replace(chs[1], h12=low_rank(rng, 4, 2, 1))
        chs[3] = dataclasses.replace(chs[3], g1=low_rank(rng, 4, 4, 3))
        got = stacked(chs).full_rank()
        assert got.tolist() == [ch.full_rank() for ch in chs] == [True, False, True, False]

    def test_planted_redraws_equal_per_trial_replay(self, monkeypatch):
        # differential: a true eavesdropper draw that consumes the stream and
        # comes out rank one at random, so trials are redrawn and some run
        # out of draws; the sweep's stats equal, bitwise, a replay of each
        # trial's draw loop alone, built and scored by the public functions
        real, calls = chansim._true_eve, []

        def sometimes_rank_one(g_est, alpha, gains, streams):
            calls.append(alpha)
            return rank_one_at_random(real(g_est, alpha, gains, streams), streams)

        monkeypatch.setattr(chansim, "_true_eve", sometimes_rank_one)
        sc = small_scenario(trials=20, seed=2, uncertainty_alpha=0.2,
                            sweep=chansim.Sweep("s1_s2_distance", (150.0, 100.0, 50.0)))
        records = chansim.monte_carlo(sc, (1, 1))
        assert len(calls) > 3  # one call per stacked draw: some trials were redrawn
        expected = []
        for point in points_of(sc):
            triples, lost = [], 0
            for trial in range(point.trials):
                try:
                    design, actual = replayed_draw(point, trial)
                except DegenerateDraw:
                    lost += 1
                    continue
                outcome = single_outcome(chansim.TrialChannels(design=design, actual=actual),
                                         (1, 1), point.effective_power)
                assert not isinstance(outcome, Exception)
                triples.append(outcome)
            expected.append(point_stats(triples, lost, point.trials))
        assert all(stats.failures > 0 for stats in expected)
        assert [rec.stats for rec in records] == expected

    def test_redraw_continues_the_stream(self, monkeypatch):
        # the stacked check fails trial 2's first draw; its redraw is the
        # second draw of the trial's own stream, which is not started again
        sc = small_scenario(trials=4, seed=6, uncertainty_alpha=0.2)
        check, trial_rng, started = chansim._full_rank_draws, chansim._trial_rng, []

        def failing_row_2(scenario, chans):
            ok = check(scenario, chans)
            return ok & (np.arange(len(ok)) != 2) if np.ndim(ok) else ok

        def counting_rng(seed, trial):
            started.append(trial)
            return trial_rng(seed, trial)

        monkeypatch.setattr(chansim, "_full_rank_draws", failing_row_2)
        monkeypatch.setattr(chansim, "_trial_rng", counting_rng)
        drawn = chansim.draw_trial(sc, range(4))
        assert chansim._checked_draws(sc, drawn).all()
        assert started == [0, 1, 2, 3]
        rng = trial_rng(sc.seed, 2)
        first, second = (chansim._rows(chansim._draws(sc, (2,), (rng,)), 0) for _ in range(2))
        row = chansim._rows(drawn, 2)
        assert not np.array_equal(row.design.h11, first.design.h11)
        for name in precoder._CHANNELS:
            for got, expected in ((row.design, second.design), (row.actual, second.actual)):
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()

    def test_redraw_round_is_one_stack(self, monkeypatch):
        # the stacked check fails the first draws of trials 1 and 2; their
        # redraws are drawn in one call and checked as one stack of two, and
        # each row is, bitwise, its trial's second draw
        sc = small_scenario(trials=4, seed=6, uncertainty_alpha=0.2)
        check, draws, checked, redrawn = chansim._full_rank_draws, chansim._draws, [], []

        def failing_rows_1_and_2(scenario, chans):
            checked.append(rows_of(chans))
            ok = check(scenario, chans)
            return ok & ~np.isin(np.arange(len(ok)), [1, 2]) if len(checked) == 1 else ok

        def recording_draws(scenario, trials, streams):
            redrawn.append(trials)
            return draws(scenario, trials, streams)

        drawn = chansim.draw_trial(sc, range(4))
        monkeypatch.setattr(chansim, "_full_rank_draws", failing_rows_1_and_2)
        monkeypatch.setattr(chansim, "_draws", recording_draws)
        assert chansim._checked_draws(sc, drawn).all()
        assert checked == [4, 2] and redrawn == [(1, 2)]
        for trial in range(4):
            rng = chansim._trial_rng(sc.seed, trial)
            first, second = (chansim._rows(draws(sc, (trial,), (rng,)), 0) for _ in range(2))
            expected, row = second if trial in (1, 2) else first, chansim._rows(drawn, trial)
            for name in precoder._CHANNELS:
                for got, want in ((row.design, expected.design), (row.actual, expected.actual)):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_unplaceable_redraw_loses_its_trial(self, monkeypatch):
        # the stacked check fails the first draws of trials 1 and 2, and
        # trial 1's redraw cannot place its receivers: that trial is lost at
        # that draw, as a trial drawn alone raises there, and is not drawn
        # again, while trial 2's redraw passes in its own row
        sc = small_scenario(trials=4, seed=6)
        check, place, placements, checked = (chansim._full_rank_draws, chansim._link_distances,
                                             [], [])

        def failing_rows_1_and_2(scenario, chans):
            checked.append(rows_of(chans))
            ok = check(scenario, chans)
            return ok & ~np.isin(np.arange(len(ok)), [1, 2]) if len(checked) == 1 else ok

        def rejecting_trial_1s_redraw(geo, streams):
            placements.append(len(streams))
            dist, placed = place(geo, streams)
            return dist, placed & ((len(placements) == 1) | (np.arange(len(streams)) != 0))

        monkeypatch.setattr(chansim, "_full_rank_draws", failing_rows_1_and_2)
        monkeypatch.setattr(chansim, "_link_distances", rejecting_trial_1s_redraw)
        drawn = chansim.draw_trial(sc, range(4))
        assert chansim._checked_draws(sc, drawn).tolist() == [True, False, True, True]
        assert placements == [4, 2] and checked == [4, 1]

    def test_draws_are_checked_once_per_point(self, monkeypatch):
        # counts that do not depend on the machine: the 9 x 20 distance
        # sweep checks its draws for full rank in six SVD calls per point,
        # each on the point's 20-trial stack
        svd, full_rank = np.linalg.svd, precoder._full_rank
        inside, shapes = [False], []

        def counting_svd(a, *args, **kwargs):
            if inside[0]:
                shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        def counting_full_rank(*mats):
            inside[0] = True
            try:
                return full_rank(*mats)
            finally:
                inside[0] = False

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(precoder, "_full_rank", counting_full_rank)
        records = chansim.monte_carlo(sweep_scenario(20, seed=1), (1, 1))
        assert [rec.stats.failures for rec in records] == [0] * 9
        assert len(shapes) == 6 * 9 and all(shape[0] == 20 for shape in shapes)

    def test_one_shot_check_failure_costs_no_trial(self, monkeypatch):
        # the point's stacked check raises once; each trial then replays its
        # own draw loop, which checks the draw alone, and no trial is lost
        sc = small_scenario(trials=8, seed=0, uncertainty_alpha=0.2)
        expected = chansim.run_point(sc, (1, 1))
        full_rank, calls = precoder._full_rank, []

        def once(*mats):
            calls.append(mats[0].shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return full_rank(*mats)

        monkeypatch.setattr(precoder, "_full_rank", once)
        assert chansim.run_point(sc, (1, 1)) == expected
        # the stack of 8, then each trial's design and true eavesdropper
        # checks, as a stack of one
        assert calls[0] == (8, 4, 4)
        assert calls[1:] == [(1, 4, 4), (1, 4, 4)] * 8


class TestLoneTrials:
    # differential: with the stacked build and check planted to fail, each
    # row runs through the fallback alone, as a one-row stack; it gets
    # bitwise what construct and rates give its trial's draw_trial, and the
    # check that ChannelSet.full_rank gives that draw, with and without a
    # rank-one g1 planted in the first row
    @settings(max_examples=40, deadline=None)
    @given(gaussian=st.booleans(), alpha=st.sampled_from([0.0, 0.2]), planted=st.booleans(),
           seed=st.integers(0, 2**32 - 1), start=st.integers(0, 40), count=st.integers(2, 5))
    def test_fallback_rows_equal_public_functions(self, gaussian, alpha, planted, seed, start,
                                                 count):
        cfg, geometry, target = (
            (AntennaConfig(6, 6, 5, 4, 5), None, (2, 4)) if gaussian
            else (CFG_SMALL, Geometry(s1=(50.0, 0.0), s2=(0.0, 0.0)), (1, 1)))
        sc = Scenario(config=cfg, geometry=geometry, seed=seed, uncertainty_alpha=alpha)
        trials = range(start, start + count)
        stack = chansim.draw_trial(sc, trials)
        assert stack.trials == tuple(trials)
        singles = [chansim.draw_trial(sc, t) for t in trials]
        if planted:
            g1 = stack.design.g1[0]
            stack.design.g1[0] = np.outer(g1[:, 0], np.ones(g1.shape[1]))
            design = dataclasses.replace(singles[0].design, g1=stack.design.g1[0])
            singles[0] = chansim.TrialChannels(design, design if alpha == 0 else singles[0].actual)
        target, power = region.SdofPoint(*target), sc.effective_power
        wanted = precoder._plan(cfg, target, power)
        sizes = []

        def rows_only(fn, error):
            def run(chans, *args):
                sizes.append(rows_of(chans))
                if len(chans.design.h11) > 1:
                    raise error("planted")
                return fn(chans, *args)
            return run

        with pytest.MonkeyPatch.context() as mp:
            build = rows_only(chansim._stack_rates, matcore._StackSplit)
            mp.setattr(chansim, "_stack_rates", build)
            outcomes = chansim._stack_outcomes(stack, cfg, target, wanted, power)
        check = rows_only(lambda chans: chansim._full_rank_draws(sc, chans), np.linalg.LinAlgError)
        checks = chansim._stack_or_rows(check, stack, (np.linalg.LinAlgError,))
        assert sizes == ([count] + [1] * count) * 2
        for single, got, ok in zip(singles, outcomes, checks):
            assert_same_outcome(got, single_outcome(single, target, power))
            assert ok == (single.design.full_rank() and single.actual.full_rank())
        assert checks[0] == (not planted)

    def test_only_stacks_reach_the_check_and_the_build(self, monkeypatch):
        # a sweep that takes every side path: the first stacked check
        # raises, so its rows are checked alone; a true eavesdropper draw
        # comes out rank one at random, so trials are redrawn; and every
        # stacked build raises, so its rows are built alone.  Only stacks
        # reach the check and the build, and the stats are those of the
        # sweep without the planted errors
        real = chansim._true_eve

        def sometimes_rank_one(g_est, alpha, gains, streams):
            return rank_one_at_random(real(g_est, alpha, gains, streams), streams)

        monkeypatch.setattr(chansim, "_true_eve", sometimes_rank_one)
        sc = small_scenario(trials=6, seed=2, uncertainty_alpha=0.2,
                            sweep=chansim.Sweep("s1_s2_distance", (150.0, 50.0)))
        expected = chansim.monte_carlo(sc, (1, 1))
        check, stack_rates, checked, built = chansim._full_rank_draws, chansim._stack_rates, [], []

        def recording_check(scenario, chans):
            checked.append(rows_of(chans))
            if len(checked) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return check(scenario, chans)

        def recording_build(chans, *args):
            built.append(rows_of(chans))
            if len(chans.design.h11) > 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return stack_rates(chans, *args)

        monkeypatch.setattr(chansim, "_full_rank_draws", recording_check)
        monkeypatch.setattr(chansim, "_stack_rates", recording_build)
        assert chansim.monte_carlo(sc, (1, 1)) == expected
        # the first point's stack, its rows alone and its redraw rounds,
        # then the second point's stack and its redraw rounds: a round is
        # one stack of the rows still failing, so no round has more rows
        # than the one before it
        assert checked[:7] == [6] + [1] * 6 and checked.count(6) == 2
        second = checked.index(6, 1)
        for rounds in (checked[:1] + checked[7:second], checked[second:]):
            assert len(rounds) > 1 and all(b <= a for a, b in zip(rounds, rounds[1:]))
        assert built == [12 - sum(rec.stats.failures for rec in expected)] + [1] * built[0]


# the criterion-6 distance sweep of the montecarlo_los benchmark
SWEEP_DISTANCES = (350.0, 300.0, 250.0, 200.0, 150.0, 100.0, 50.0, 20.0, 10.0)


def sweep_scenario(trials, variable="s1_s2_distance", values=SWEEP_DISTANCES, seed=0):
    return small_scenario(trials=trials, seed=seed, sweep=chansim.Sweep(variable, values))


def points_of(scenario):
    sweep = scenario.sweep
    return [chansim._apply_sweep_value(scenario, sweep.variable, x) for x in sweep.values]


class TestSweepStacks:
    def test_sweep_of_one_power_is_one_stack(self, monkeypatch):
        # counts that do not depend on the machine: the 9 x 20 distance
        # sweep runs the GSVD's three SVDs once, on 180-trial stacks, and
        # the cosine-sine step once per trial
        svds, steps = count_gsvd_calls(monkeypatch)
        records = chansim.monte_carlo(sweep_scenario(20, seed=1), (1, 1))
        assert [rec.stats.failures for rec in records] == [0] * 9
        assert len(svds) == 3 and all(shape[0] == 180 for shape in svds)
        assert len(steps) == 180

    @pytest.mark.parametrize("variable, values, stacks", [
        ("power_dbm", (0.0, 0.0, 10.0), [10, 5]),
        ("noise_power_dbm", (-60.0, -40.0, -40.0), [5, 10]),
        ("uncertainty_alpha", (0.0, 0.2, 0.1), [15]),
    ])
    def test_stack_ends_where_power_changes(self, monkeypatch, variable, values, stacks):
        sc = sweep_scenario(5, variable, values)
        expected = [chansim.run_point(point, (1, 1)) for point in points_of(sc)]
        svds, _ = count_gsvd_calls(monkeypatch)
        records = chansim.monte_carlo(sc, (1, 1))
        assert [rec.stats for rec in records] == expected
        assert [shape[0] for shape in svds[::3]] == stacks

    def test_failures_are_counted_at_their_point(self, monkeypatch):
        # one stack of 15 spans the three points; trial 2 of the second
        # point fails to draw, and the cosine-sine step of trial 0 of the
        # third fails wherever it runs, in the stack and alone
        sc = sweep_scenario(5, values=(150.0, 100.0, 50.0))
        points = points_of(sc)
        cossin, inputs = matcore.cossin, []

        def recording(x, p, q):
            inputs.append(x.copy())
            return cossin(x, p, q)

        monkeypatch.setattr(matcore, "cossin", recording)
        precoder.construct(chansim.draw_trial(points[2], 0).design, (1, 1),
                           power=sc.effective_power)
        (marked,) = inputs

        def planted(x, p, q):
            if np.array_equal(x, marked):
                raise np.linalg.LinAlgError("zuncsd did not converge: 1")
            return cossin(x, p, q)

        placed = chansim._placed

        def failing_placement(geo, dist):
            # the second point's trial 2 (row 2 of its stacked draw) has its
            # first placement rejected, and every one after it: the first
            # round places the point's five trials, the later ones trial 2
            ok = placed(geo, dist)
            if geo == points[1].geometry:
                ok = ok & (np.arange(len(dist)) != 2) if len(dist) == 5 else np.zeros_like(ok)
            return ok

        monkeypatch.setattr(matcore, "cossin", planted)
        monkeypatch.setattr(chansim, "_placed", failing_placement)
        records = chansim.monte_carlo(sc, (1, 1))
        monkeypatch.undo()
        assert [rec.stats for rec in records] == [
            stats_without(points[0], (1, 1), set()),
            stats_without(points[1], (1, 1), {2}),
            stats_without(points[2], (1, 1), {0}),
        ]

    @pytest.mark.parametrize("stage", ["draw", "build"])
    def test_point_whose_trials_all_fail_raises(self, monkeypatch, stage):
        # the second of three points loses every trial; when its draws all
        # fail, the third point draws nothing before the sweep raises
        sc = sweep_scenario(4, values=(150.0, 100.0, 50.0))
        points = points_of(sc)
        draw, stack_rates, placed = chansim.draw_trial, chansim._stack_rates, chansim._placed
        drawn, doomed = [], set()

        def marking_draw(scenario, trials):
            # one entry per trial drawn, and the second point's draws marked
            drawn.extend([points.index(scenario)] * len(trials))
            chans = draw(scenario, trials)
            if scenario == points[1]:
                doomed.update(m.tobytes() for m in chans.design.h11)
            return chans

        def failing_placement(geo, dist):
            # in the draw stage no placement of the second point passes
            ok = placed(geo, dist)
            return ok & (geo != points[1].geometry or stage != "draw")

        def failing_stack(chans, *args):
            h11 = chans.design.h11
            if any(m.tobytes() in doomed for m in h11.reshape(-1, *h11.shape[-2:])):
                raise np.linalg.LinAlgError("SVD did not converge")
            return stack_rates(chans, *args)

        monkeypatch.setattr(chansim, "draw_trial", marking_draw)
        monkeypatch.setattr(chansim, "_placed", failing_placement)
        monkeypatch.setattr(chansim, "_stack_rates", failing_stack)
        with pytest.raises(DegenerateDraw, match="every trial failed"):
            chansim.monte_carlo(sc, (1, 1))
        assert drawn == [0] * 4 + [1] * 4 + ([2] * 4 if stage == "build" else [])

    # a stack of 10 joined from an α sweep's two points; without uncertainty
    # every trial is scored on its design set, already stacked for the build
    @pytest.mark.parametrize("values", [(0.0, 0.0), (0.0, 0.2)],
                             ids=["alpha_zero", "alpha_zero_and_positive"])
    def test_true_sets_are_stacked_only_when_they_differ(self, values):
        sc = sweep_scenario(5, "uncertainty_alpha", values)
        runs = [chansim.draw_trial(point, range(5)) for point in points_of(sc)]
        assert [run.actual is run.design for run in runs] == [x == 0.0 for x in values]
        joined = chansim._joined([chansim._rows(run, np.ones(5, bool)) for run in runs])
        assert (joined.actual is joined.design) == (values == (0.0, 0.0))
        assert joined.actual.h11 is joined.design.h11
        trials = [chansim.draw_trial(point, t) for point in points_of(sc) for t in range(5)]
        target, power = region.SdofPoint(1, 1), sc.effective_power
        wanted = precoder._plan(CFG_SMALL, target, power)
        # the true sets stacked apart from the design sets, trial by trial
        v, w = precoder._assemble(stacked([t.design for t in trials]), CFG_SMALL,
                                  target, wanted, power)
        expected = verifier._score(stacked([t.actual for t in trials]), v, w)
        got = chansim._stack_rates(joined, CFG_SMALL, target, wanted, power)

        def hexes(triples):
            return [[x.hex() for x in dataclasses.astuple(t)] for t in triples]

        assert hexes(got) == hexes(expected)
