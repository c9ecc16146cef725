import numpy as np
import pytest

from sdofkit import matcore, precoder, region, verifier
from sdofkit.errors import TargetInfeasible
from sdofkit.precoder import PrecoderPair, Subset
from sdofkit.region import AntennaConfig

from conftest import channels_for, cstd

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

    @pytest.mark.parametrize("power", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_unusable_power(self, rng, power):
        ch = channels_for(EX2, rng)
        pair = precoder.construct(ch, (2, 4), power=1.0)
        with pytest.raises(ValueError):
            precoder.with_power(pair, power)
        with pytest.raises(ValueError):
            precoder.construct(ch, (2, 4), power=power)
