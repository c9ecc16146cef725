import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import cossin

from sdofkit import matcore
from sdofkit.errors import DegenerateInput

from conftest import cstd


def relative_residual(a, b, g):
    """Largest block-identity residual of a GSVD, relative to the inputs."""
    scale = np.linalg.norm(a) + np.linalg.norm(b)
    residuals = [
        np.linalg.norm(a @ g.psi11 - g.x1),
        np.linalg.norm(a @ g.psi12 - g.x2 * g.lam1),
        np.linalg.norm(a @ g.psi13),
        np.linalg.norm(b @ g.psi21),
        np.linalg.norm(b @ g.psi22 - g.x2 * g.lam2),
        np.linalg.norm(b @ g.psi23 - g.x3),
    ]
    return max(residuals) / scale


def check_gsvd_invariants(a, b, g, rtol=1e-10):
    n, m = a.shape
    k = b.shape[1]
    assert (g.k, g.p, g.r) == (min(m + k, n), g.k - min(m, n), g.k - min(k, n))
    assert g.s == g.k - g.p - g.r
    assert relative_residual(a, b, g) <= rtol
    assert np.linalg.norm(g.psi1.conj().T @ g.psi1 - np.eye(m)) <= 1e-10
    assert np.linalg.norm(g.psi2.conj().T @ g.psi2 - np.eye(k)) <= 1e-10
    if g.s:
        assert np.allclose(g.lam1**2 + g.lam2**2, 1.0, atol=1e-10)
        assert np.all(np.diff(g.lam1) <= 1e-12)  # descending generalized values
    assert matcore.rank_tol(g.x) == g.k


class TestRank:
    def test_identity(self):
        assert matcore.rank_tol(np.eye(3)) == 3

    def test_zero(self):
        assert matcore.rank_tol(np.zeros((2, 3))) == 0

    def test_forced_by_product(self, rng):
        assert matcore.rank_tol(cstd(rng, 4, 2) @ cstd(rng, 2, 5)) == 2

    def test_empty(self):
        assert matcore.rank_tol(np.zeros((4, 0))) == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matcore.rank_tol(np.array([[np.nan, 1.0]]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_well_conditioned_factor(self, seed):
        r = np.random.default_rng(seed)
        a = cstd(r, 5, 4)
        while True:
            f = cstd(r, 4, 4)
            if np.linalg.cond(f) < 1e6:
                break
        assert matcore.rank_tol(a @ f) == matcore.rank_tol(a)

    def test_default_cutoff(self):
        assert matcore.rank_tol(np.diag([1.0, 1e-5, 1e-16])) == 2


class TestNullAndComplement:
    def test_null_of_zero_matrix(self):
        n = matcore.null_basis(np.zeros((2, 3)))
        assert n.shape == (3, 3)
        assert np.allclose(n.conj().T @ n, np.eye(3))

    def test_null_trivial(self, rng):
        assert matcore.null_basis(cstd(rng, 5, 3)).shape == (3, 0)

    def test_null_residual_and_orthonormality(self, rng):
        a = cstd(rng, 4, 6)
        n = matcore.null_basis(a)
        assert n.shape == (6, 2)
        assert np.linalg.norm(a @ n) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(n.conj().T @ n - np.eye(2)) <= 1e-10

    def test_complement_of_identity(self):
        assert matcore.orth_complement(np.eye(3)).shape == (3, 0)

    def test_complement_of_unit_column(self):
        c = matcore.orth_complement(np.eye(3)[:, :1])
        assert c.shape == (3, 2)
        assert np.linalg.norm(c[0, :]) <= 1e-14

    def test_complement_annihilates(self, rng):
        a = cstd(rng, 6, 4)
        c = matcore.orth_complement(a)
        assert c.shape == (6, 2)
        assert np.linalg.norm(a.conj().T @ c) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(c.conj().T @ c - np.eye(2)) <= 1e-10


def span(a):
    """The factor pair whose image is span(``a``)."""
    return a, np.eye(a.shape[1])


class TestDimArithmetic:
    def test_quotient_containment(self, rng):
        b = cstd(rng, 6, 2)
        assert matcore.image_quotient((b, cstd(rng, 2, 3)), span(b)) == 0

    def test_quotient_empty_reference(self, rng):
        assert matcore.image_quotient(span(cstd(rng, 6, 3)), span(np.zeros((6, 0)))) == 3

    def test_quotient_generic(self, rng):
        assert matcore.image_quotient(span(cstd(rng, 6, 3)), span(cstd(rng, 6, 2))) == 3

    def test_intersection_self(self, rng):
        x = span(cstd(rng, 6, 3))
        assert matcore.image_quotient(x) - matcore.image_quotient(x, x) == 3

    def test_intersection_generic_disjoint(self, rng):
        x = span(cstd(rng, 6, 2))
        assert matcore.image_quotient(x, span(cstd(rng, 6, 3))) == matcore.image_quotient(x)

    def test_intersection_matches_gsvd(self, rng):
        a, b = cstd(rng, 6, 4), cstd(rng, 6, 5)
        intersection = matcore.image_quotient(span(a)) - matcore.image_quotient(span(a), span(b))
        assert intersection == 3 == matcore.gsvd(a, b).s

    def test_row_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            matcore.image_quotient(span(cstd(rng, 3, 2)), span(cstd(rng, 4, 2)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_quotient_plus_intersection_is_rank(self, seed, rows, ca, cb):
        r = np.random.default_rng(seed)
        a, b = cstd(r, rows, ca), cstd(r, rows, cb)
        quotient = matcore.image_quotient(span(a), span(b))
        assert quotient + matcore.gsvd(a, b).s == matcore.rank_tol(a)


class TestProductCutoff:
    def test_zero_product_judged_zero(self, rng):
        h = cstd(rng, 2, 5)
        assert matcore.image_quotient((h, matcore.null_basis(h))) == 0

    def test_real_signal_unaffected(self, rng):
        assert matcore.image_quotient((cstd(rng, 4, 5), cstd(rng, 5, 3))) == 3

    @given(st.integers(0, 2**32 - 1), st.floats(-12.0, 0.0))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_common_scale(self, seed, k):
        # x = (A, B) and y = (A, D) with rank(B) = 3, rank(D) = 3 and one
        # shared direction of span(B) and span(D): the quotient is 2, and
        # the product of B with the 2 x 5 null basis of A is zero
        r = np.random.default_rng(seed)
        a = cstd(r, 7, 5)
        u = cstd(r, 5, 5)
        b = u[:, :3] @ cstd(r, 3, 4)
        d = u[:, 2:5] @ cstd(r, 3, 3)
        h = cstd(r, 2, 5)
        c = 10.0**k
        cases = [((a, b), (a, d), 2), ((a, b), None, 3), ((h, matcore.null_basis(h)), None, 0)]
        for x, y, expected in cases:
            scaled_y = None if y is None else (c * y[0], c * y[1])
            assert matcore.image_quotient(x, y) == expected
            assert matcore.image_quotient((c * x[0], c * x[1]), scaled_y) == expected


class TestAlignedPairs:
    @pytest.mark.parametrize("shape", [(6, 4, 5), (4, 4, 4), (3, 5, 4), (10, 3, 8), (5, 1, 5)])
    def test_shared_image(self, rng, shape):
        n, m, k = shape
        a, b = cstd(rng, n, m), cstd(rng, n, k)
        v, w, x = matcore.aligned_pairs(a, b)
        assert v.shape[1] == w.shape[1] == x.shape[1] == matcore.gsvd(a, b).s > 0
        scale = np.linalg.norm(a) + np.linalg.norm(b)
        assert np.linalg.norm(a @ v - x) <= 1e-10 * scale * np.linalg.norm(v)
        assert np.linalg.norm(b @ w - x) <= 1e-10 * scale * np.linalg.norm(w)
        assert matcore.rank_tol(x) == x.shape[1]

    @pytest.mark.parametrize("shape", [(6, 3, 3), (6, 0, 4), (5, 2, 0)])
    def test_disjoint_spans_give_zero_width(self, rng, shape):
        n, m, k = shape
        v, w, x = matcore.aligned_pairs(cstd(rng, n, m), cstd(rng, n, k))
        assert v.shape == (m, 0) and w.shape == (k, 0) and x.shape == (n, 0)


class TestGsvd:
    def test_dimension_quadruple_6_4_5(self, rng):
        g = matcore.gsvd(cstd(rng, 6, 4), cstd(rng, 6, 5))
        assert (g.k, g.r, g.s, g.p) == (6, 1, 3, 2)

    def test_identity_and_random(self, rng):
        g = matcore.gsvd(np.eye(3), cstd(rng, 3, 2))
        assert (g.k, g.r, g.s, g.p) == (3, 1, 2, 0)

    def test_aligned_block_identity(self, rng):
        a, b = cstd(rng, 6, 4), cstd(rng, 6, 5)
        g = matcore.gsvd(a, b)
        lhs = a @ g.psi12 / g.lam1
        rhs = b @ g.psi22 / g.lam2
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (np.linalg.norm(a) + np.linalg.norm(b))

    @pytest.mark.parametrize(
        "shape",
        [(6, 4, 5), (12, 12, 12), (4, 8, 8), (8, 8, 1), (1, 1, 1), (10, 3, 4),
         (5, 1, 1), (2, 12, 3), (7, 9, 2), (3, 3, 3)],
    )
    def test_invariants_across_shapes(self, rng, shape):
        n, m, k = shape
        a, b = cstd(rng, n, m), cstd(rng, n, k)
        check_gsvd_invariants(a, b, matcore.gsvd(a, b))

    def test_empty_a(self, rng):
        g = matcore.gsvd(np.zeros((4, 0)), cstd(rng, 4, 3))
        assert (g.k, g.r, g.s, g.p) == (3, 0, 0, 3)
        assert g.psi1.shape == (0, 0) and g.x.shape == (4, 3)

    def test_empty_b(self, rng):
        g = matcore.gsvd(cstd(rng, 4, 3), np.zeros((4, 0)))
        assert (g.k, g.r, g.s, g.p) == (3, 3, 0, 0)

    def test_degenerate_raises(self, rng):
        col = cstd(rng, 5, 1)
        with pytest.raises(DegenerateInput):
            matcore.gsvd(cstd(rng, 5, 3), np.hstack([col, col]))

    def test_row_mismatch(self, rng):
        with pytest.raises(ValueError):
            matcore.gsvd(cstd(rng, 3, 2), cstd(rng, 4, 2))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_invariants_random_dims(self, seed, n, m, k):
        r = np.random.default_rng(seed)
        a, b = cstd(r, n, m), cstd(r, n, k)
        g = matcore.gsvd(a, b)
        check_gsvd_invariants(a, b, g)
        assert matcore.image_quotient(span(a)) - matcore.image_quotient(span(a), span(b)) == g.s


def assembled_cs_reference(a, b):
    """(lam1, lam2, psi12, psi22, x2) of the GSVD of a full-rank pair with
    s > 0, sliced from the assembled ``cossin`` output: the unitary factors
    as block-diagonal matrices and the full (M+K)-square CS factor."""
    n, m = a.shape
    kc = b.shape[1]
    k = min(m + kc, n)
    p = k - min(m, n)
    r = k - min(kc, n)
    s = k - p - r
    z = np.vstack([a.conj().T, b.conj().T])
    uz, sz, vzh = np.linalg.svd(z, full_matrices=True)
    u, cs, vdh = cossin(uz, p=m, q=k)
    lam1 = np.real(np.diag(cs[:m, :k][r : r + s, r : r + s]))
    lam2 = np.real(np.diag(cs[m:, :k][kc - p - s : kc - p, r : r + s]))
    x = (sz[:k, None] * vzh[:k, :]).conj().T @ vdh[:k, :k].conj().T
    order = np.argsort(-lam1, kind="stable")
    return (lam1[order], lam2[order], u[:m, :m][:, r : r + s][:, order],
            u[m:, m:][:, kc - s - p : kc - p][:, order], x[:, r : r + s][:, order])


def assert_equal_up_to_column_phase(got, ref, atol):
    phase = np.sum(ref.conj() * got, axis=0)
    phase = phase / np.abs(phase)
    assert np.max(np.abs(got - ref * phase), initial=0.0) <= atol


def gsvd_shapes_with_shared_block():
    """Acceptance criterion 3's random shapes that have s > 0, plus shapes
    with both identity blocks present (r > 0 and p > 0)."""
    rng = np.random.default_rng(300)
    shapes = [tuple(int(d) for d in rng.integers(1, 13, size=3)) for _ in range(200)]
    # (k, r, s, p) = (5, 1, 2, 2), (6, 1, 3, 2), (9, 2, 3, 4), (4, 1, 2, 1)
    shapes += [(5, 3, 4), (6, 4, 5), (9, 5, 7), (4, 3, 3)]
    return [sh for sh in dict.fromkeys(shapes) if matcore._quadruple(*sh)[2] > 0]


class TestGsvdMatchesAssembledCosineSine:
    """The GSVD takes the CS factors unassembled; its blocks must equal the
    ones sliced from SciPy's assembled decomposition."""

    @pytest.mark.parametrize("shape", gsvd_shapes_with_shared_block())
    def test_blocks_match(self, shape):
        n, m, kc = shape
        rng = np.random.default_rng(list(shape))
        a, b = cstd(rng, n, m), cstd(rng, n, kc)
        g = matcore.gsvd(a, b)
        lam1, lam2, psi12, psi22, x2 = assembled_cs_reference(a, b)
        assert g.s == lam1.size > 0
        assert np.max(np.abs(g.lam1 - lam1)) <= 1e-14
        assert np.max(np.abs(g.lam2 - lam2)) <= 1e-14
        assert_equal_up_to_column_phase(g.psi12, psi12, 1e-14)
        assert_equal_up_to_column_phase(g.psi22, psi22, 1e-14)
        assert_equal_up_to_column_phase(g.x2, x2, 1e-14 * max(1.0, np.linalg.norm(x2)))


class TestDeferredCossin:
    @pytest.mark.parametrize("n, p, q", [(2, 1, 1), (5, 2, 3), (7, 4, 2), (9, 3, 5)])
    def test_bitwise_equal_to_scipy(self, n, p, q):
        rng = np.random.default_rng([n, p, q])
        u = np.linalg.qr(cstd(rng, n, n))[0]
        got = matcore.cossin(u, p, q, separate=True)
        ref = cossin(u, p=p, q=q, separate=True)
        assert np.array_equal(got[1], ref[1])
        for got_pair, ref_pair in ((got[0], ref[0]), (got[2], ref[2])):
            for g, r in zip(got_pair, ref_pair):
                assert g.dtype == r.dtype and np.array_equal(g, r)
