import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdofkit import region
from sdofkit.errors import OutOfRange
from sdofkit.region import AntennaConfig, SdofPoint

EX1 = AntennaConfig(6, 6, 3, 6, 6)
EX2 = AntennaConfig(6, 6, 5, 4, 5)

antenna_counts = st.integers(1, 8)
configs = st.builds(AntennaConfig, antenna_counts, antenna_counts,
                    antenna_counts, antenna_counts, antenna_counts)


class TestSubsetDims:
    def test_worked_example_one(self):
        assert region.subset_dims(EX1).as_tuple() == (0, 0, 0, 3, 0, 3)

    def test_worked_example_two(self):
        assert region.subset_dims(EX2).as_tuple() == (0, 1, 0, 1, 2, 2)

    def test_all_ones(self):
        assert region.subset_dims(AntennaConfig(1, 1, 1, 1, 1)).as_tuple() == (0, 0, 0, 0, 0, 1)

    @given(configs)
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, cfg):
        assert all(x >= 0 for x in region.subset_dims(cfg).as_tuple())

    @given(configs, antenna_counts, antenna_counts)
    @settings(max_examples=100, deadline=None)
    def test_first_subset_ignores_public_side(self, cfg, ns2, nd1):
        other = AntennaConfig(cfg.ns1, ns2, nd1, cfg.nd2, cfg.ne)
        assert region.subset_dims(cfg).d1 == region.subset_dims(other).d1

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AntennaConfig(0, 1, 1, 1, 1)


class TestSingleUser:
    def test_su1_examples(self):
        assert region.su1(EX1) == 3
        assert region.su1(EX2) == 3
        assert region.su1(AntennaConfig(4, 8, 4, 8, 4)) == 4

    def test_su2(self):
        assert region.su2(AntennaConfig(2, 6, 2, 4, 2)) == 4
        assert region.su2(AntennaConfig(2, 1, 2, 9, 2)) == 1
        assert region.su2(AntennaConfig(2, 3, 2, 3, 2)) == 3

    def test_closed_form_rows(self):
        assert region.su1_closed_form(AntennaConfig(9, 2, 3, 2, 4)) == 3  # ns1 >= ne+nd1
        assert region.su1_closed_form(AntennaConfig(4, 8, 4, 8, 4)) == 4  # ns2 >= ne+nd1
        assert region.su1_closed_form(AntennaConfig(1, 1, 1, 1, 1)) == 0  # small-array row

    def test_closed_form_matches_direct_everywhere(self):
        covered = 0
        for tup in itertools.product(range(1, 7), repeat=5):
            cfg = AntennaConfig(*tup)
            cf = region.su1_closed_form(cfg)
            if cf is not None:
                covered += 1
                assert cf == region.su1(cfg), tup
        assert covered > 0


class TestBoundary:
    def test_d2max_examples(self):
        assert region.d2_max(EX2, 3) == 3
        assert region.d2_max(EX2, 2) == 4
        assert region.d2_max(EX2, 0) == region.su2(EX2)

    def test_d2max_out_of_range(self):
        with pytest.raises(OutOfRange):
            region.d2_max(EX2, region.su1(EX2) + 1)

    def test_stream_selection_fits_capacities_exhaustively(self):
        for tup in itertools.product(range(1, 11), repeat=5):
            cfg = AntennaConfig(*tup)
            d = region.subset_dims(cfg)
            caps = d.as_tuple()
            for d1 in range(region.su1(cfg) + 1):
                counts = region.select_streams(cfg, d1)
                assert sum(counts) == d1, (tup, d1)
                assert all(0 <= n <= cap for n, cap in zip(counts, caps)), (tup, d1)
                assert counts[4] + counts[5] <= min(cfg.nd1 - d1, d.d5 + d.d6, d1), (tup, d1)

    def test_strict_boundary_example(self):
        reg = region.boundary(EX2)
        assert [tuple(p) for p in reg.strict] == [(3, 3), (2, 4)]
        assert tuple(reg.e1_point) == (3, 3)
        assert tuple(reg.e2_point) == (2, 4)

    def test_contains_balanced_point(self):
        reg = region.boundary(AntennaConfig(4, 2, 4, 2, 4))
        assert (1, 1) in [tuple(p) for p in reg.strict]

    def test_degenerate_region(self):
        cfg = AntennaConfig(1, 1, 1, 1, 1)  # su1 == 0
        reg = region.boundary(cfg)
        assert reg.su1 == 0
        assert reg.strict == ()
        assert tuple(reg.e1_point) == (0, reg.su2) == tuple(reg.e2_point)

    def test_e2_su2_branch(self):
        # public side at least as large as both receivers: trade-off collapses
        cfg = AntennaConfig(3, 5, 4, 6, 3)  # ns2 >= nd1 and ns2 <= nd2
        assert tuple(region.e2(cfg)) == (0, region.su2(cfg))

    @given(configs)
    @settings(max_examples=200, deadline=None)
    def test_d2max_non_increasing(self, cfg):
        values = [region.d2_max(cfg, d1) for d1 in range(region.su1(cfg) + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(configs)
    @settings(max_examples=200, deadline=None)
    def test_boundary_points_consistent(self, cfg):
        reg = region.boundary(cfg)
        for pt in reg.strict:
            assert pt.d2 == region.d2_max(cfg, pt.d1)
        for a, b in zip(reg.strict, reg.strict[1:]):
            assert a.d1 == b.d1 + 1
            assert a.d2 <= b.d2

    def test_endpoints_match_iteration_exhaustively(self):
        for tup in itertools.product(range(1, 7), repeat=5):
            cfg = AntennaConfig(*tup)
            reg = region.boundary(cfg)
            if reg.strict:
                assert tuple(reg.strict[0]) == tuple(reg.e1_point), tup
                assert tuple(reg.strict[-1]) == tuple(reg.e2_point), tup
            else:
                assert reg.su1 == 0
                assert tuple(reg.e1_point) == (0, reg.su2), tup
                assert tuple(reg.e2_point) == (0, reg.su2), tup


class TestSdofPoint:
    def test_tuple_behavior(self):
        p = SdofPoint(2, 4)
        assert p == (2, 4)
        assert p.d1 == 2 and p.d2 == 4
