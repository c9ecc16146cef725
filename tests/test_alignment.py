import numpy as np
import pytest

from sdofkit import alignment, matcore, verifier
from sdofkit.errors import NotAligned
from sdofkit.precoder import PrecoderPair, construct

from conftest import channels_for, cstd


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


class TestCanonicalize:
    def build_aligned(self, rng, tup, kv, kw):
        ch = channels_for(tup, rng)
        sp = alignment.aligned_space(ch.g1, ch.g2)
        ys = cstd(rng, sp.shared_width, kw)
        pad1 = np.zeros((sp.phi1.shape[1] - sp.shared_width, kw))
        pad2 = np.zeros((sp.phi2.shape[1] - sp.shared_width, kw))
        v = (sp.phi1 @ np.vstack([ys, pad1]))[:, :kv]
        w = sp.phi2 @ np.vstack([ys, pad2])
        return ch, v, w

    def test_exact_pair_maps_to_invertible_right_factor(self, rng):
        ch, v, w = self.build_aligned(rng, (6, 6, 5, 4, 5), 3, 3)
        out = alignment.canonicalize(v, w, ch.g1, ch.g2)
        # same span, and the leading block reproduces the image exactly
        assert matcore.rank_tol(np.hstack([out.w, w])) == matcore.rank_tol(w)
        resid = np.linalg.norm(ch.g1 @ out.v - (ch.g2 @ out.w)[:, :3])
        assert resid <= 1e-10 * np.linalg.norm(ch.g1 @ v)

    def test_narrow_w_branch(self, rng):
        ch, v, w = self.build_aligned(rng, (6, 6, 5, 4, 5), 2, 3)  # kw=3 < ne=5
        out = alignment.canonicalize(v, w, ch.g1, ch.g2)
        scale = np.linalg.norm(ch.g1 @ v) + np.linalg.norm(ch.g2 @ w)
        assert np.linalg.norm(ch.g1 @ out.v - (ch.g2 @ out.w)[:, :2]) <= 1e-10 * scale

    def test_wide_w_branch(self, rng):
        ch, v, w = self.build_aligned(rng, (6, 6, 5, 4, 3), 2, 5)  # kw=5 >= ne=3
        out = alignment.canonicalize(v, w, ch.g1, ch.g2)
        scale = np.linalg.norm(ch.g1 @ v) + np.linalg.norm(ch.g2 @ w)
        assert np.linalg.norm(ch.g1 @ out.v - (ch.g2 @ out.w)[:, :2]) <= 1e-10 * scale

    def test_preserves_w_span(self, rng):
        ch, v, w = self.build_aligned(rng, (6, 6, 5, 4, 4), 3, 4)
        out = alignment.canonicalize(v, w, ch.g1, ch.g2)
        stacked = np.hstack([out.w, w])
        assert matcore.rank_tol(stacked) == matcore.rank_tol(w) == matcore.rank_tol(out.w)

    def test_preserves_sdof(self, rng):
        ch, v, w = self.build_aligned(rng, (6, 6, 5, 4, 4), 3, 4)
        before = verifier.sdof_of(ch, PrecoderPair(v=v, w=w))
        after = verifier.sdof_of(ch, alignment.canonicalize(v, w, ch.g1, ch.g2))
        assert tuple(before) == tuple(after)

    def test_constructed_pair_with_zero_w_column(self, rng):
        # subset II pairs its confidential column with a zero public one,
        # so g2 @ w is rank deficient
        ch = channels_for((6, 6, 5, 4, 5), rng)
        pair = construct(ch, (3, 3), power=1.0)
        assert np.any(np.linalg.norm(pair.w, axis=0) == 0)
        out = alignment.canonicalize(pair.v, pair.w, ch.g1, ch.g2)
        scale = np.linalg.norm(ch.g1 @ pair.v) + np.linalg.norm(ch.g2 @ pair.w)
        assert np.linalg.norm(ch.g1 @ out.v - (ch.g2 @ out.w)[:, :3]) <= 1e-10 * scale
        assert tuple(verifier.sdof_of(ch, out)) == (3, 3)

    def test_rejects_unaligned(self, rng):
        ch = channels_for((6, 6, 5, 4, 5), rng)
        v = cstd(rng, 6, 2)  # generic: image escapes span(g2 w)
        w = cstd(rng, 6, 2)
        with pytest.raises(NotAligned):
            alignment.canonicalize(v, w, ch.g1, ch.g2)

    # the squares of images above about 1e154 overflow: at every scale an
    # aligned pair passes the residual test, and a pair whose images lie in
    # the null spaces but for a relative 1e-7, with an unaligned part a
    # relative 1e-13 that falls under the rank cutoff, fails it
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e300])
    def test_residual_test_at_any_scale(self, rng, scale):
        ch, v, w = self.build_aligned(rng, (6, 6, 5, 4, 5), 3, 3)
        g1, g2 = scale * ch.g1, scale * ch.g2
        out = alignment.canonicalize(v, w, g1, g2)
        resid = (g1 @ out.v - (g2 @ out.w)[:, :3]) / scale
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(ch.g1 @ v)
        near_v = matcore.null_basis(ch.g1) + 1e-7 * v[:, :1] + 1e-13 * cstd(rng, 6, 1)
        near_w = matcore.null_basis(ch.g2) + 1e-7 * w[:, :1]
        with pytest.raises(NotAligned, match="residual"):
            alignment.canonicalize(near_v, near_w, g1, g2)
