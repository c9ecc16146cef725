import numpy as np

from sdofkit import alignment, matcore

from conftest import cstd


def alignment_residual(a, b, space, rng, draws=10):
    """Worst |A v - B w| over random coordinate draws, relative to inputs."""
    scale = np.linalg.norm(a) + np.linalg.norm(b)
    worst = 0.0
    for _ in range(draws):
        ys = cstd(rng, space.shared_width, 1)
        y1 = cstd(rng, space.phi1.shape[1] - space.shared_width, 1)
        y2 = cstd(rng, space.phi2.shape[1] - space.shared_width, 1)
        v, w = space.pair(ys, y1, y2)
        worst = max(worst, np.linalg.norm(a @ v - b @ w))
    return worst / scale


class TestAlignedSpace:
    def test_full_square_pair(self, rng):
        a, b = cstd(rng, 4, 4), cstd(rng, 4, 4)
        sp = alignment.aligned_space(a, b)
        assert sp.shared_width == 4
        assert sp.independent_count == 4

    def test_generic_disjoint(self, rng):
        sp = alignment.aligned_space(cstd(rng, 6, 3), cstd(rng, 6, 3))
        assert sp.shared_width == 0
        assert sp.independent_count == 0
        assert sp.phi1.shape == (3, 0) and sp.phi2.shape == (3, 0)

    def test_partial_overlap_with_residual(self, rng):
        a, b = cstd(rng, 5, 3), cstd(rng, 5, 4)
        sp = alignment.aligned_space(a, b)
        assert sp.shared_width == 2
        assert sp.independent_count == 2
        assert alignment_residual(a, b, sp, rng) <= 1e-10

    def test_null_space_part_counts(self, rng):
        a, b = cstd(rng, 3, 5), cstd(rng, 3, 4)  # null(a) has dim 2
        sp = alignment.aligned_space(a, b)
        assert sp.shared_width == 3
        assert sp.independent_count == 3 + 2
        assert alignment_residual(a, b, sp, rng) <= 1e-10

    def test_shared_image_lands_in_intersection(self, rng):
        a, b = cstd(rng, 6, 4), cstd(rng, 6, 5)
        g = matcore.gsvd(a, b)
        sp = alignment.aligned_space(a, b)
        shared = sp.phi1[:, : sp.shared_width]
        assert matcore.image_quotient((a, shared), (g.x2, np.eye(g.s))) == 0

