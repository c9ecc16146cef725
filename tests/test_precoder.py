import dataclasses

import numpy as np
import pytest

from sdofkit import chansim, matcore, precoder, region, verifier
from sdofkit.errors import ConstructionDeficit, TargetInfeasible
from sdofkit.precoder import PrecoderPair, Subset
from sdofkit.region import AntennaConfig

from conftest import channels_for, cstd, low_rank, stacked

EX1 = (6, 6, 3, 6, 6)
EX2 = (6, 6, 5, 4, 5)


class TestChannelSet:
    def test_config_inference(self, rng):
        ch = channels_for(EX2, rng)
        assert ch.config == AntennaConfig(*EX2)
        assert ch.full_rank()

    def test_shape_consistency_enforced(self, rng):
        ch = channels_for(EX2, rng)
        with pytest.raises(ValueError):
            precoder.ChannelSet(h11=ch.h11, h12=ch.h12, h21=ch.h21,
                                h22=ch.h22, g1=ch.g1, g2=cstd(rng, 5, 3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", precoder._CHANNELS)
    def test_rejects_nonfinite_entry(self, rng, name, value):
        ch = channels_for(EX2, rng)
        bad = getattr(ch, name).copy()
        bad[0, -1] = value
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            dataclasses.replace(ch, **{name: bad})

    @pytest.mark.parametrize("name", precoder._CHANNELS)
    def test_rejects_norm_beyond_float_range(self, rng, name):
        # every entry finite, but the sum of their squares is above 1.8e308
        ch = channels_for(EX2, rng)
        bad = np.full(getattr(ch, name).shape, 1e308, dtype=complex)
        with pytest.raises(ValueError, match=f"^{name} has a Frobenius norm beyond the float range$"):
            dataclasses.replace(ch, **{name: bad})

    def test_rejects_matrix_that_is_not_2d(self, rng):
        ch = channels_for(EX2, rng)
        with pytest.raises(ValueError, match=r"^h21 must be a 2-D matrix, got shape \(1, 4, 6\)$"):
            dataclasses.replace(ch, h21=ch.h21[None])

    def test_stack_of_sets_is_a_set(self, rng):
        # the stack a Monte-Carlo point builds on, with its items' config
        chs = [channels_for(EX2, rng) for _ in range(3)]
        stack = stacked(chs)
        assert isinstance(stack, precoder.ChannelSet)
        assert stack.config == AntennaConfig(*EX2) and stack.h21.shape == (3, 4, 6)

    def test_refuses_an_empty_dimension_where_built(self, rng):
        # the configuration's own message, raised by the set and not at its first use
        ch = channels_for(EX2, rng)
        with pytest.raises(ValueError, match=r"^antenna count nd1=0 must be a positive integer$"):
            dataclasses.replace(ch, h11=ch.h11[:0], h12=ch.h12[:0])


class TestPrecoderPair:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["v", "w"])
    def test_rejects_nonfinite_entry(self, rng, name, value):
        pair = PrecoderPair(v=cstd(rng, 6, 2), w=cstd(rng, 6, 3), power=1.0)
        bad = getattr(pair, name).copy()
        bad[0, -1] = value
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            dataclasses.replace(pair, **{name: bad})

    @pytest.mark.parametrize("name", ["v", "w"])
    def test_rejects_norm_beyond_float_range(self, rng, name):
        pair = PrecoderPair(v=cstd(rng, 6, 2), w=cstd(rng, 6, 3), power=1.0)
        bad = getattr(pair, name).copy()
        bad[:2, 0] = 1.5e308
        with pytest.raises(ValueError, match=f"^{name} has a Frobenius norm beyond the float range$"):
            dataclasses.replace(pair, **{name: bad})

    @pytest.mark.parametrize("name", ["v", "w"])
    def test_rejects_matrix_that_is_not_2d(self, rng, name):
        mats = {"v": cstd(rng, 6, 2), "w": cstd(rng, 6, 2)}
        mats[name] = mats[name][None]
        message = rf"^{name} must be a 2-D matrix, got shape \(1, 6, 2\)$"
        with pytest.raises(ValueError, match=message):
            PrecoderPair(**mats)

    def test_vector_is_a_column(self):
        pair = PrecoderPair(v=np.ones(4), w=[1.0, 2.0])
        assert pair.v.shape == (4, 1) and pair.w.shape == (2, 1)
        assert (pair.kv, pair.kw) == (1, 1)
        assert pair.v.dtype == pair.w.dtype == np.complex128


class TestSubsetBasis:
    def test_widths_match_counts(self, rng):
        # (3,3,1,1,3) has III, IV and V together; in (5,5,3,3,5) VI must
        # avoid both IV and V; (8,7,3,4,6) goes past four antennas.  III and
        # VI never coexist for antenna counts up to 10, so these cover every
        # exclusion combination that occurs.
        for tup in [EX1, EX2, (4, 2, 4, 2, 4), (5, 3, 2, 2, 3),
                    (3, 3, 1, 1, 3), (5, 5, 3, 3, 5), (8, 7, 3, 4, 6)]:
            ch = channels_for(tup, rng)
            counts = region.subset_dims(ch.config).as_tuple()
            bases = {sub: precoder.subset_basis(ch, sub) for sub in Subset}
            for sub, expected in zip(Subset, counts):
                assert bases[sub].width == expected, (tup, sub)
            # the GSVD subsets' eavesdropper images are jointly independent
            # and reproduced by their paired public columns
            gsvd_subsets = (Subset.III, Subset.IV, Subset.V, Subset.VI)
            g1v = ch.g1 @ np.hstack([bases[sub].v_basis for sub in gsvd_subsets])
            g2w = ch.g2 @ np.hstack([bases[sub].w_basis for sub in gsvd_subsets])
            assert matcore.rank_tol(g1v) == g1v.shape[1], tup
            assert np.linalg.norm(g1v - g2w) <= 1e-9 * np.linalg.norm(g1v), tup

    def test_example_one_fourth_subset(self, rng):
        ch = channels_for(EX1, rng)
        basis = precoder.subset_basis(ch, Subset.IV)
        assert basis.width == 3
        tol = 1e-10 * (np.linalg.norm(ch.g1) + np.linalg.norm(ch.g2))
        assert np.linalg.norm(ch.h12 @ basis.w_basis) <= tol
        assert np.linalg.norm(ch.g1 @ basis.v_basis - ch.g2 @ basis.w_basis) <= tol
        assert matcore.rank_tol(ch.g1 @ basis.v_basis) == 3  # images nonzero

    def test_zero_width_when_capacity_zero(self, rng):
        ch = channels_for((2, 2, 2, 2, 3), rng)  # ns1 <= ne + nd2
        basis = precoder.subset_basis(ch, Subset.I)
        assert basis.width == 0
        assert basis.v_basis.shape == (2, 0)

    def test_example_two_fifth_subset(self, rng):
        ch = channels_for(EX2, rng)
        basis = precoder.subset_basis(ch, Subset.V)
        assert basis.width == 2
        scale = np.linalg.norm(ch.h21)
        assert np.linalg.norm(ch.h21 @ basis.v_basis) <= 1e-10 * scale
        assert matcore.rank_tol(ch.h12 @ basis.w_basis) == 2  # interferes at D1

    def test_first_two_subsets_have_zero_w(self, rng):
        ch = channels_for((6, 2, 2, 1, 2), rng)  # d1 = 3, d2 = 1
        b1 = precoder.subset_basis(ch, Subset.I)
        b2 = precoder.subset_basis(ch, Subset.II)
        assert b1.width == 3 and b2.width == 1
        assert not b1.w_basis.any() and not b2.w_basis.any()
        tol = 1e-10 * np.linalg.norm(ch.g1)
        assert np.linalg.norm(ch.g1 @ b1.v_basis) <= tol
        assert np.linalg.norm(ch.g1 @ b2.v_basis) <= tol
        assert np.linalg.norm(ch.h21 @ b1.v_basis) <= 1e-10 * np.linalg.norm(ch.h21)
        assert matcore.rank_tol(ch.h21 @ b2.v_basis) == 1

    def test_sub_collections_stay_aligned(self, rng):
        # selections respecting the receiver-dimension cap keep the
        # eavesdropper images equal columnwise and the receiver spans
        # disjoint (each pair from V/VI costs two dimensions at D1)
        ch = channels_for(EX2, rng)
        for take in [(0, 1, 0, 1, 1, 0), (0, 0, 0, 0, 2, 0), (0, 1, 0, 0, 1, 1)]:
            v_cols, w_cols = [], []
            for sub, n in zip(Subset, take):
                if n == 0:
                    continue
                b = precoder.subset_basis(ch, sub)
                v_cols.append(b.v_basis[:, :n])
                w_cols.append(b.w_basis[:, :n])
            v, w = np.hstack(v_cols), np.hstack(w_cols)
            resid = np.linalg.norm(ch.g1 @ v - ch.g2 @ w)
            assert resid <= 1e-9 * (np.linalg.norm(ch.g1) + np.linalg.norm(ch.g2))
            signal = (ch.h11, v)
            assert matcore.image_quotient(signal, (ch.h12, w)) == matcore.image_quotient(signal)


class TestConstruct:
    def test_worked_construction_structure(self, rng):
        # boundary point (2, 4): two aligned pairs, one null-space beam,
        # one strongest-direction beam
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=8.0)
        assert pair.kv == 2 and pair.kw == 4
        tol_h21 = 1e-8 * np.linalg.norm(ch.h21)
        assert np.linalg.norm(ch.h21 @ pair.v) <= tol_h21  # both pairs from Subset V
        h12w = ch.h12 @ pair.w
        assert np.linalg.norm(h12w[:, 2]) <= 1e-8 * np.linalg.norm(ch.h12)  # null beam
        r = np.linalg.svd(ch.h22)[2].conj().T[:, :1]
        cos = np.abs(r.conj().T @ pair.w[:, 3:]) / np.linalg.norm(pair.w[:, 3])
        assert cos > 1 - 1e-8  # top right-singular direction of the public channel

    def test_single_user_public_point(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (0, 4), power=2.0)
        assert pair.kv == 0 and pair.kw == 4
        r = np.linalg.svd(ch.h22)[2].conj().T[:, :4]
        # spans the leading right-singular subspace
        assert matcore.rank_tol(np.hstack([pair.w, r])) == 4

    def test_single_user_public_point_checks_rank(self, rng):
        # d1 = 0 runs the same rank checks as every other target: a rank-2
        # public channel cannot carry four public streams
        ch = dataclasses.replace(channels_for(EX2, rng), h22=low_rank(rng, 4, 6, 2))
        with pytest.raises(ConstructionDeficit, match="public streams do not span"):
            precoder.construct(ch, (0, 4), power=1.0)

    # one rank-deficient channel per failure path of the assembly; in
    # (7,2,5,2,2) subset II's width is rank(H21 N_G1), which a rank-1 H21 cuts
    @pytest.mark.parametrize("name, rank, tup, target, message", [
        ("g1", 1, EX2, (2, 4), "subset decomposition failed: rank-deficient input"),
        ("h21", 1, (7, 2, 5, 2, 2), (5, 0), "subset II supplied 1 pairs, needed 2"),
        ("h11", 2, EX2, (3, 3), "confidential streams lost rank at the receiver"),
        ("h22", 2, EX2, (2, 4), "public streams do not span the target dimensions"),
    ])
    def test_rank_deficient_channel_raises(self, rng, name, rank, tup, target, message):
        ch = channels_for(tup, rng)
        rows, cols = getattr(ch, name).shape
        ch = dataclasses.replace(ch, **{name: low_rank(rng, rows, cols, rank)})
        with pytest.raises(ConstructionDeficit, match=message):
            precoder.construct(ch, target, power=1.0)

    # in (2,4,2,1,2) both targets take a subset III pair; with its public
    # column zeroed, the confidential image at the eavesdropper is jammed no
    # longer, which the scorer sees as a leak
    @pytest.mark.parametrize("target", [(2, 0), (1, 1)])
    def test_planted_leak_raises(self, monkeypatch, rng, target):
        ch = channels_for((2, 4, 2, 1, 2), rng)
        build, score, leaks = precoder._build_bases, precoder._quotients, []

        def unjammed(ch, cfg, needed):
            bases = build(ch, cfg, needed)
            basis = bases[Subset.III]
            w = basis.w_basis.copy()
            w[..., 0] = 0.0
            bases[Subset.III] = precoder.SubsetBasis(basis.v_basis, w)
            return bases

        def recording(ch, v, w):
            quotients = score(ch, v, w)
            leaks.append(quotients[0])
            return quotients

        monkeypatch.setattr(precoder, "_build_bases", unjammed)
        monkeypatch.setattr(precoder, "_quotients", recording)
        message = "confidential streams leak to the eavesdropper"
        with pytest.raises(ConstructionDeficit, match=message):
            precoder.construct(ch, target, power=1.0)
        assert leaks[0] > 0

    def test_recovered_line_of_sight_draw(self):
        # trial 20 of a 2 km, path-loss exponent 6 scenario: its raw columns
        # failed a rank check of their own, but the normalized pair that is
        # returned scores its target
        sc = chansim.Scenario(AntennaConfig(*EX2), chansim.Geometry(s1=(2000, 0), s2=(0, 0)),
                              pathloss_exponent=6, trials=60, seed=11)
        ch = chansim.draw_trial(sc, 20).design
        pair = precoder.construct(ch, (3, 3), power=sc.effective_power)
        assert tuple(verifier.sdof_of(ch, pair)) == (3, 3)

    def test_infeasible_target(self, rng):
        ch = channels_for(EX2, rng)
        with pytest.raises(TargetInfeasible):
            precoder.construct(ch, (9, 9), power=1.0)
        with pytest.raises(TargetInfeasible):
            precoder.construct(ch, (3, 4), power=1.0)  # above the boundary

    def test_power_split(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (3, 3), power=5.0)
        assert pair.power == 5.0
        assert abs(np.sum(np.abs(pair.v) ** 2) - 5.0) <= 1e-9 * 5.0
        assert abs(np.sum(np.abs(pair.w) ** 2) - 5.0) <= 1e-9 * 5.0
        norms = np.linalg.norm(pair.v, axis=0)
        assert np.allclose(norms, norms[0])  # equal per stream

    def test_interference_accounting(self, rng):
        # number of confidential streams visible at the public receiver
        # equals the boundary minimum
        for tup in [EX2, (4, 2, 4, 2, 4), (3, 4, 4, 2, 3)]:
            cfg = AntennaConfig(*tup)
            ch = channels_for(tup, rng)
            for target in region.boundary(cfg).strict:
                pair = precoder.construct(ch, target, power=1.0)
                z = matcore.image_quotient((ch.h21, pair.v))
                y = min(cfg.nd1 - target.d1, region.subset_dims(cfg).d5
                        + region.subset_dims(cfg).d6, target.d1)
                zmin = max(target.d1 - (min(y, region.subset_dims(cfg).d5)
                           + region.subset_dims(cfg).d1 + region.subset_dims(cfg).d3), 0)
                assert z == zmin, (tup, tuple(target))

    def test_round_trip_boundary(self, rng):
        for tup in [(2, 3, 2, 2, 2), (4, 4, 3, 3, 4), (1, 2, 2, 2, 1)]:
            cfg = AntennaConfig(*tup)
            ch = channels_for(tup, rng)
            for target in region.boundary(cfg).strict:
                pair = precoder.construct(ch, target, power=1.0)
                assert tuple(verifier.sdof_of(ch, pair)) == tuple(target)

    def test_receiver_dimension_budget(self, rng):
        # confidential stream count plus public interference span never
        # exceeds the confidential receiver's antennas
        for tup in [EX2, (4, 2, 4, 2, 4), (2, 4, 3, 3, 2)]:
            cfg = AntennaConfig(*tup)
            ch = channels_for(tup, rng)
            for target in region.boundary(cfg).strict:
                pair = precoder.construct(ch, target, power=1.0)
                used = matcore.image_quotient((ch.h11, pair.v)) + matcore.image_quotient(
                    (ch.h12, pair.w)
                )
                assert used <= cfg.nd1, (tup, tuple(target))


def public_quotients(ch, v, w):
    """The scorer's three quotients from three public image_quotient calls."""
    q = matcore.image_quotient
    return q((ch.g1, v), (ch.g2, w)), q((ch.h11, v), (ch.h12, w)), q((ch.h22, w), (ch.h21, v))


def scaled_channels(cfg, rng):
    """A Gaussian channel set whose six links are scaled by 10^U(-12, 0) each."""
    ch = chansim.gaussian_channels(cfg, rng)
    scales = 10.0 ** rng.uniform(-12, 0, size=6)
    return precoder.ChannelSet(*(s * getattr(ch, name)
                                 for s, name in zip(scales, precoder._CHANNELS)))


def scored_pairs(cfg, rng, count):
    """(channels, V, W) on scaled channels: the pairs that construct builds
    at each strict target, and random pairs of every width from zero up,
    with W zero, tiny or generic."""
    out = []
    while len(out) < count:
        ch = scaled_channels(cfg, rng)
        for target in region.boundary(cfg).strict:
            try:
                pair = precoder.construct(ch, target, power=1.0)
            except ConstructionDeficit:
                continue
            out.append((ch, pair.v, pair.w))
        kv, kw = rng.integers(0, cfg.ns1 + 1), rng.integers(0, cfg.ns2 + 1)
        w = cstd(rng, cfg.ns2, kw) * rng.choice([0.0, 1e-9, 1.0])
        out.append((ch, cstd(rng, cfg.ns1, kv), w))
    return out


def count_svd_calls(monkeypatch):
    """The shape of every np.linalg.svd input, in a list that fills as the
    caller runs."""
    svd, shapes = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


class TestQuotients:
    """The scorer takes one SVD call over its three [X | Y] items, zero-padded
    to the most receiver rows, and counts as three image_quotient calls do."""

    # ne, nd1 and nd2 all differ, each of them the largest once; and all equal
    @pytest.mark.parametrize("tup", [(4, 3, 2, 3, 4), (3, 4, 4, 2, 3), (4, 4, 3, 4, 2),
                                     (2, 3, 1, 2, 3), (3, 3, 3, 3, 3)])
    def test_equals_three_public_quotients(self, tup):
        rng = np.random.default_rng(list(tup))
        for ch, v, w in scored_pairs(AntennaConfig(*tup), rng, 60):
            got = precoder._quotients(ch, v, w)
            assert got == public_quotients(ch, v, w)
            assert all(type(n) is int for n in got)

    @pytest.mark.parametrize("tup, target", [((4, 3, 2, 3, 4), (1, 2)), ((3, 4, 4, 2, 3), (2, 1)),
                                             ((6, 6, 5, 4, 5), (2, 4))])
    def test_stack_equals_its_items(self, tup, target):
        # each item's links have their own scales, so each has its own cutoffs
        cfg, rng = AntennaConfig(*tup), np.random.default_rng(list(tup))
        items = []
        for _ in range(8):
            ch = scaled_channels(cfg, rng)
            try:
                pair = precoder.construct(ch, target, power=1.0)
            except ConstructionDeficit:
                continue
            items.append((ch, pair.v, pair.w))
        assert len(items) >= 6
        # a random pair on the same channels as well, with W zero in some items
        items += [(ch, cstd(rng, cfg.ns1, v.shape[1]), cstd(rng, cfg.ns2, w.shape[1]) * (i % 2))
                  for i, (ch, v, w) in enumerate(items)]
        st = stacked([ch for ch, _, _ in items])
        vs, ws = np.stack([v for _, v, _ in items]), np.stack([w for _, _, w in items])
        cutoffs = matcore._image_cutoff(((st.g1, vs), (st.g2, ws)))
        assert len(set(cutoffs.tolist())) == len(items)
        got = precoder._quotients(st, vs, ws)
        assert [list(q) for q in got] == [list(q) for q in public_quotients(st, vs, ws)]
        assert np.transpose(got).tolist() == [list(public_quotients(*item)) for item in items]

    @pytest.mark.parametrize("kv, kw", [(0, 3), (2, 0), (0, 0)])
    def test_zero_width_precoders(self, rng, kv, kw):
        chs = [scaled_channels(AntennaConfig(*EX2), rng) for _ in range(2)]
        v, w = cstd(rng, 6, kv), cstd(rng, 6, kw)
        expected = [list(public_quotients(ch, v, w)) for ch in chs]
        assert list(precoder._quotients(chs[0], v, w)) == expected[0]
        got = precoder._quotients(stacked(chs), np.stack([v, v]), np.stack([w, w]))
        assert np.transpose(got).tolist() == expected

    def test_one_svd_call_per_score(self, monkeypatch, rng):
        cfg = AntennaConfig(*EX2)
        chs = [channels_for(EX2, rng) for _ in range(3)]
        pairs = [precoder.construct(ch, (2, 4), power=1.0) for ch in chs]
        st = stacked(chs)
        vs, ws = np.stack([p.v for p in pairs]), np.stack([p.w for p in pairs])
        shapes = count_svd_calls(monkeypatch)
        precoder._quotients(chs[0], pairs[0].v, pairs[0].w)
        precoder._quotients(st, vs, ws)
        verifier.sdof_of(chs[0], pairs[0])
        # three [X | Y] items and their masked copies, max(ne, nd1, nd2) rows each
        rows = max(cfg.ne, cfg.nd1, cfg.nd2)
        assert [shape[:-1] for shape in shapes] == [(6, rows), (3, 6, rows), (6, rows)]


class TestPlanCache:
    CFG = AntennaConfig(*EX2)

    def test_checks_run_on_every_call(self):
        # functools.cache stores no exception, and the power is checked outside it
        target = region.SdofPoint(2, 4)
        assert precoder._plan(self.CFG, target, 1.0) == precoder._plan(self.CFG, target, 1.0)
        hits = precoder._streams.cache_info().hits
        assert precoder._plan(self.CFG, target, 2.0)[Subset.III] >= 0
        assert precoder._streams.cache_info().hits == hits + 1
        for power in (0.0, float("nan")):
            with pytest.raises(ValueError, match="power must be positive and finite"):
                precoder._plan(self.CFG, target, power)
        for _ in range(2):
            with pytest.raises(TargetInfeasible):
                precoder._plan(self.CFG, region.SdofPoint(3, 4), 1.0)

    def test_plan_is_read_only(self):
        target = region.SdofPoint(3, 3)
        plan = precoder._plan(self.CFG, target, 1.0)
        expected = dict(zip(Subset, region.select_streams(self.CFG, 3)))
        with pytest.raises(TypeError):
            plan[Subset.I] = 9
        with pytest.raises(AttributeError):
            plan.clear()
        assert dict(precoder._plan(self.CFG, target, 1.0)) == expected


class TestRandomize:
    def test_identity_factors_are_noop(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=1.0)
        out = precoder.right_multiply(pair, np.eye(2), np.eye(4))
        assert np.array_equal(out.v, pair.v)
        assert np.array_equal(out.w, pair.w)

    def test_sdof_invariant(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (3, 3), power=1.0)
        for _ in range(10):
            out = precoder.randomize(pair, rng)
            assert tuple(verifier.sdof_of(ch, out)) == (3, 3)
            assert abs(np.sum(np.abs(out.v) ** 2) - 1.0) <= 1e-9

    def test_factor_conditioning_policy(self, rng):
        for n in (1, 3, 6):
            f = precoder._well_conditioned(rng, n)
            assert np.linalg.cond(f) <= 1e6

    def test_rejects_wrong_shapes(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=1.0)
        with pytest.raises(ValueError):
            precoder.right_multiply(pair, np.eye(3), np.eye(4))


class TestWithPower:
    def test_zero_columns_stay_zero(self):
        v = np.eye(3, dtype=complex)
        w = np.zeros((2, 2), dtype=complex)
        w[:, 0] = [1.0, 1.0]
        pair = precoder.with_power(PrecoderPair(v=v, w=w), 4.0)
        assert np.sum(np.abs(pair.w[:, 1])) == 0
        assert abs(np.sum(np.abs(pair.w) ** 2) - 4.0) <= 1e-12

    def test_all_zero_collapses(self):
        pair = precoder.with_power(PrecoderPair(v=np.eye(2, dtype=complex),
                                                w=np.zeros((2, 3), dtype=complex)), 1.0)
        assert pair.kw == 0

    def test_huge_entries(self):
        # the columns' squares overflow; each nonzero column still gets sqrt(P / n)
        w = np.zeros((4, 3), dtype=complex)
        w[:, 0], w[:, 2] = 1e160, [3e200, 1e200, 0, 1]
        pair = precoder.with_power(PrecoderPair(v=1e160 * np.ones((4, 2)), w=w), 8.0)
        np.testing.assert_allclose(np.linalg.norm(pair.v, axis=0), 2.0, rtol=1e-14, atol=0)
        np.testing.assert_allclose(np.linalg.norm(pair.w, axis=0), [2.0, 0.0, 2.0],
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("power", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_unusable_power(self, rng, power):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=1.0)
        with pytest.raises(ValueError):
            precoder.with_power(pair, power)
        with pytest.raises(ValueError):
            precoder.construct(ch, (2, 4), power=power)
