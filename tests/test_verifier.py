import dataclasses

import numpy as np
import pytest

from sdofkit import matcore, precoder, verifier
from sdofkit.chansim import gaussian_channels
from sdofkit.precoder import PrecoderPair
from sdofkit.region import AntennaConfig, boundary

from conftest import channels_for, cstd

EX2 = (6, 6, 5, 4, 5)


class TestSdofOf:
    def test_empty_confidential_side(self, rng):
        ch = channels_for(EX2, rng)
        w = cstd(rng, 6, 3)
        pair = PrecoderPair(v=np.zeros((6, 0)), w=w)
        point = verifier.sdof_of(ch, pair)
        assert tuple(point) == (0, matcore.rank_tol(ch.h22 @ w))

    def test_constructed_boundary_point(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (3, 3), power=1.0)
        assert tuple(verifier.sdof_of(ch, pair)) == (3, 3)

    def test_unjammed_leakage_clipped(self, rng):
        # no public transmission: leakage subtracts the full eavesdropper
        # image, clipped at zero
        ch = channels_for(EX2, rng)
        v = cstd(rng, 6, 2)
        pair = PrecoderPair(v=v, w=np.zeros((6, 0)))
        expected = max(
            matcore.rank_tol(ch.h11 @ v) - matcore.rank_tol(ch.g1 @ v), 0
        )
        assert verifier.sdof_of(ch, pair).d1 == expected

    def test_span_aligned_pair_scores_full_rank(self, rng):
        # once the eavesdropper image is jammed and the receiver spans are
        # disjoint, the confidential score is exactly rank(H11 V)
        for tup in [EX2, (4, 2, 4, 2, 4), (3, 4, 4, 2, 3)]:
            cfg = AntennaConfig(*tup)
            ch = channels_for(tup, rng)
            for target in boundary(cfg).strict:
                pair = precoder.construct(ch, target, power=1.0)
                assert verifier.membership(ch, pair).in_ibar
                assert verifier.sdof_of(ch, pair).d1 == matcore.image_quotient((ch.h11, pair.v))

    @pytest.mark.xfail(
        strict=True,
        reason="rank cutoffs take one max over links of mixed scale, so a weak H21 V "
        "falls under the cutoff that H22 W sets and target (2, 0) scores as (2, 2)",
    )
    def test_weak_cross_and_eavesdropper_links(self):
        # h12, h21, g1 and g2 at 1e-12 of the direct links; construct succeeds
        cfg = AntennaConfig(4, 2, 4, 2, 4)
        rng = np.random.default_rng(0)
        misses = []
        for _ in range(30):
            ch = gaussian_channels(cfg, rng)
            ch = dataclasses.replace(
                ch, **{name: 1e-12 * getattr(ch, name) for name in ("h12", "h21", "g1", "g2")}
            )
            for target in boundary(cfg).strict:
                achieved = verifier.sdof_of(ch, precoder.construct(ch, target, power=1.0))
                if achieved != target:
                    misses.append((tuple(target), tuple(achieved)))
        assert misses == []


class TestMembership:
    def test_construct_output_in_all_sets(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=3.0)
        mem = verifier.membership(ch, pair)
        assert mem.in_i and mem.in_ibar and mem.in_ihat

    def test_unjammed_pair_not_in_ibar(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.with_power(
            PrecoderPair(v=cstd(rng, 6, 2), w=np.zeros((6, 0))), 1.0
        )
        mem = verifier.membership(ch, pair)
        assert not mem.in_ibar and not mem.in_ihat

    def test_receiver_overlap_not_in_ibar(self, rng):
        # an extra public beam that lands on H11 v_0 at the confidential
        # receiver keeps the eavesdropper image jammed but breaks disjointness
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=3.0)
        beam = np.linalg.lstsq(ch.h12, ch.h11 @ pair.v[:, :1], rcond=None)[0]
        overlap = PrecoderPair(v=pair.v, w=np.hstack([pair.w, beam]))
        assert matcore.image_quotient((ch.g1, overlap.v), (ch.g2, overlap.w)) == 0
        mem = verifier.membership(ch, overlap)
        assert not mem.in_ibar and not mem.in_ihat

    def test_randomized_member_leaves_ihat(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=3.0)
        stayed = 0
        for _ in range(5):
            mem = verifier.membership(ch, precoder.randomize(pair, rng))
            assert mem.in_ibar
            stayed += mem.in_ihat
        assert stayed == 0  # columnwise pairing generically destroyed

    def test_unnormalized_pair_not_in_i(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=3.0)
        raw = PrecoderPair(v=pair.v, w=pair.w, power=None)
        assert not verifier.membership(ch, raw).in_i


class TestRates:
    def test_no_confidential_signal(self, rng):
        ch = channels_for(EX2, rng)
        w = cstd(rng, 6, 2)
        triple = verifier.rates(ch, PrecoderPair(v=np.zeros((6, 0)), w=w))
        assert triple.rs1 == 0.0
        qw = w @ w.conj().T
        expected = np.log2(np.real(np.linalg.det(np.eye(4) + ch.h22 @ qw @ ch.h22.conj().T)))
        assert triple.rd2 == pytest.approx(expected, rel=1e-9)

    def test_no_public_signal(self, rng):
        ch = channels_for(EX2, rng)
        v = cstd(rng, 6, 2)
        triple = verifier.rates(ch, PrecoderPair(v=v, w=np.zeros((6, 0))))
        qv = v @ v.conj().T
        expected = np.log2(np.real(np.linalg.det(np.eye(5) + ch.g1 @ qv @ ch.g1.conj().T)))
        assert triple.re == pytest.approx(expected, rel=1e-9)

    def test_secrecy_rates_derived_fields(self):
        t = verifier.RateTriple(rd1=3.0, rd2=2.5, re=4.0)
        assert t.rs1 == 0.0
        assert t.rs2 == 2.5

    def test_monotone_in_power(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (3, 3), power=1.0)
        values = []
        for p in (1.0, 10.0, 100.0, 1000.0):
            t = verifier.rates(ch, precoder.with_power(pair, p))
            values.append((t.rd1, t.rd2, t.re))
        for a, b in zip(values, values[1:]):
            assert all(x <= y + 1e-9 for x, y in zip(a, b))

    def test_doubling_power_adds_d1_bits(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (3, 3), power=1.0)
        r1 = verifier.rates(ch, precoder.with_power(pair, 2**40)).rd1
        r2 = verifier.rates(ch, precoder.with_power(pair, 2**41)).rd1
        assert r2 - r1 == pytest.approx(3.0, abs=1e-3)

    @pytest.mark.parametrize("power", [1e6, 1e12])
    def test_matches_high_precision_reference(self, rng, power):
        # 60-digit log-dets of the noise-plus-signal covariances built from
        # the same float64 images; a Cholesky log-det of those covariances
        # in float64 is off by about 1e-10 bits at 1e6 and 1e-4 at 1e12,
        # the top of the slope grid
        import mpmath

        def log2det_cov(*images):
            cov = mpmath.eye(images[0].shape[0])
            for x in images:
                m = mpmath.matrix([[mpmath.mpc(complex(e)) for e in row] for row in x])
                cov += m * m.H
            return mpmath.log(mpmath.re(mpmath.det(cov)), 2)

        def pairwise(hs, ps, hi, pi):
            return log2det_cov(hs @ ps, hi @ pi) - log2det_cov(hi @ pi)

        ch = channels_for(EX2, rng)
        pair = precoder.with_power(precoder.construct(ch, (2, 4), power=1.0), power)
        got = verifier.rates(ch, pair)
        with mpmath.workdps(60):
            expected = (
                float(pairwise(ch.h11, pair.v, ch.h12, pair.w)),
                float(pairwise(ch.h22, pair.w, ch.h21, pair.v)),
                float(pairwise(ch.g1, pair.v, ch.g2, pair.w)),
            )
        for value, ref in zip((got.rd1, got.rd2, got.re), expected):
            assert abs(value - ref) <= 1e-11


class TestSlopeEstimate:
    GRID = (1e6, 1e8, 1e10, 1e12)

    def test_constructed_pair(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=1.0)
        s1, s2 = verifier.slope_estimate(ch, pair, self.GRID)
        assert abs(s1 - 2) <= 0.1 and abs(s2 - 4) <= 0.1

    def test_point_to_point_public_link(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (0, 4), power=1.0)
        s1, s2 = verifier.slope_estimate(ch, pair, self.GRID)
        assert abs(s2 - min(6, 4)) <= 0.1
        assert abs(s1) <= 0.01

    def test_leaky_pair_loses_slope(self, rng):
        ch = channels_for(EX2, rng)
        v = cstd(rng, 6, 2)
        pair = precoder.with_power(PrecoderPair(v=v, w=np.zeros((6, 0))), 1.0)
        s1, _ = verifier.slope_estimate(ch, pair, self.GRID)
        assert s1 < matcore.rank_tol(ch.h11 @ v) - 0.5

    def test_matches_rank_route(self, rng):
        tup = (3, 4, 4, 2, 3)
        ch = channels_for(tup, rng)
        for target in boundary(AntennaConfig(*tup)).strict:
            pair = precoder.construct(ch, target, power=1.0)
            slopes = verifier.slope_estimate(ch, pair, self.GRID)
            point = verifier.sdof_of(ch, pair)
            assert round(slopes[0]) == point.d1 and round(slopes[1]) == point.d2

    def test_grid_validation(self, rng):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=1.0)
        with pytest.raises(ValueError):
            verifier.slope_estimate(ch, pair, [1e6])
        with pytest.raises(ValueError):
            verifier.slope_estimate(ch, pair, [1e6, 2e6])
