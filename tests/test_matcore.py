import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import cossin, lapack

from sdofkit import matcore
from sdofkit.errors import DegenerateInput

from conftest import cstd, low_rank, run_python, split_unitary


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

    def test_vector_is_a_column(self):
        assert matcore.rank_tol([0.0, 1j, 0.0]) == 1
        assert matcore.null_basis(np.ones(3)).shape == (1, 0)
        assert matcore.orth_complement(np.ones(3)).shape == (3, 2)

    @pytest.mark.parametrize("shape", [(), (1, 2, 3, 4)], ids=["0-d", "4-d"])
    @pytest.mark.parametrize("call", [matcore.rank_tol, matcore.null_basis,
                                      matcore.orth_complement],
                             ids=["rank_tol", "null_basis", "orth_complement"])
    def test_rejects_input_that_is_neither_2d_nor_a_stack(self, call, shape):
        with pytest.raises(ValueError, match="must be 2-D or a stack of 2-D"):
            call(np.zeros(shape))

    # every public entry, with the bad matrix in each of its matrix slots;
    # without the check an SVD of such a matrix raises LinAlgError (a
    # ValueError too) for NaN and prints a LAPACK error to stdout for inf
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("call", [
        lambda bad, ok: matcore.rank_tol(bad),
        lambda bad, ok: matcore.null_basis(bad),
        lambda bad, ok: matcore.orth_complement(bad),
        lambda bad, ok: matcore.image_quotient((bad, ok), (ok, ok)),
        lambda bad, ok: matcore.image_quotient((ok, bad), (ok, ok)),
        lambda bad, ok: matcore.image_quotient((ok, ok), (bad, ok)),
        lambda bad, ok: matcore.image_quotient((ok, ok), (ok, bad)),
        lambda bad, ok: matcore.gsvd(bad, ok),
        lambda bad, ok: matcore.gsvd(ok, bad),
        lambda bad, ok: matcore.aligned_pairs(bad, ok),
    ], ids=["rank_tol", "null_basis", "orth_complement", "image_quotient-a", "image_quotient-b",
            "image_quotient-c", "image_quotient-d", "gsvd-a", "gsvd-b", "aligned_pairs"])
    def test_rejects_nonfinite(self, rng, call, value):
        ok = cstd(rng, 3, 3)
        bad = cstd(rng, 3, 3)
        bad[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            call(bad, ok)

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


def gauss(rng, shape):
    """Standard complex Gaussian array of any shape."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestFactorizationEntries:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 0, 3), (2, 3, 0), (0, 3, 3)])
    def test_empty_matrix_has_no_singular_values(self, shape):
        sv = matcore._singular_values(np.zeros(shape, dtype=np.complex128))
        assert sv.shape == shape[:-2] + (0,) and sv.dtype == np.float64
        assert np.array_equal(matcore._rank(np.zeros(shape, dtype=np.complex128)),
                              np.zeros(shape[:-2], dtype=int))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_singular_values_are_numpy_svds(self, rng, lead):
        m = gauss(rng, lead + (5, 3))
        assert (matcore._singular_values(m).tobytes()
                == np.linalg.svd(m, compute_uv=False).tobytes())

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("shape", [(6, 4), (3, 5), (4, 4)])
    def test_svd_returns_v_as_columns(self, rng, lead, shape):
        m = gauss(rng, lead + shape)
        u, sv, v = matcore._svd(m)
        k = min(shape)
        assert u.shape == lead + (shape[0],) * 2 and v.shape == lead + (shape[1],) * 2
        rebuilt = (u[..., :k] * sv[..., None, :]) @ v[..., :k].conj().swapaxes(-1, -2)
        assert np.max(np.abs(rebuilt - m)) <= 1e-13

    # (rows, cols, columns of a set to zero): tall full rank, tall and wide
    # rank deficient, wide full rank, and zero-width or zero-height
    LSTSQ_CASES = [(6, 3, ()), (6, 4, (1, 3)), (3, 5, ()), (3, 5, (0, 4)), (5, 5, (2,)),
                   (4, 0, ()), (0, 3, ())]

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("rows, cols, zeros", LSTSQ_CASES)
    def test_lstsq_is_numpy_lstsq(self, rng, lead, rows, cols, zeros):
        a = gauss(rng, lead + (rows, cols))
        a[..., list(zeros)] = 0
        b = gauss(rng, lead + (rows, 2))
        got = matcore._lstsq(a, b)
        assert got.shape == lead + (cols, 2)
        items = zip(a, b, got) if lead else [(a, b, got)]
        for ai, bi, gi in items:
            ref = np.linalg.lstsq(ai, bi, rcond=None)[0]
            assert np.linalg.norm(gi - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_lstsq_cutoff_is_numpy_lstsqs(self, rng):
        # 1e-14 lies above the cutoff 3 eps (about 6.7e-16), 1e-17 below it
        a = np.diag([1.0, 1e-14, 1e-17]).astype(np.complex128)
        b = gauss(rng, (3, 2))
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        got = matcore._lstsq(a, b)
        assert not ref[2].any() and np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_lstsq_of_a_zero_matrix_is_zero(self, rng):
        got = matcore._lstsq(np.zeros((4, 3), dtype=np.complex128), gauss(rng, (4, 2)))
        assert got.shape == (3, 2) and not got.any()


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

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "stack"])
    @pytest.mark.parametrize("call, shape, expected", [
        (matcore.null_basis, (3, 0), (0, 0)),  # no columns: nothing to annihilate
        (matcore.null_basis, (0, 3), (3, 3)),  # no rows: the whole space
        (matcore.orth_complement, (0, 2), (0, 0)),  # no rows: no space to complete
        (matcore.orth_complement, (3, 0), (3, 3)),  # no columns: the whole space
    ], ids=["null_no_columns", "null_no_rows", "complement_no_rows", "complement_no_columns"])
    def test_empty_sides(self, call, shape, expected, lead):
        basis = call(np.zeros(lead + shape))
        assert basis.shape == lead + expected
        assert np.array_equal(basis, np.broadcast_to(np.eye(*expected), lead + expected))

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


class TestQuotientCounts:
    """Every image quotient is one SVD call, whatever the padding."""

    def test_one_svd_call_per_quotient(self, monkeypatch, rng):
        a, b, c, d = cstd(rng, 5, 4), cstd(rng, 4, 2), cstd(rng, 5, 3), cstd(rng, 3, 2)
        svd, shapes = np.linalg.svd, []

        def counting(m, *args, **kwargs):
            shapes.append(m.shape)
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert matcore.image_quotient((a, b), (c, d)) == 2
        pair_stacks = [np.stack([m, m, m]) for m in (a, b, c, d)]
        assert matcore.image_quotient(pair_stacks[:2], pair_stacks[2:]).tolist() == [2, 2, 2]
        assert matcore.image_quotient((a, b)) == 2
        assert len(shapes) == 3

    def test_cutoff_rule(self, rng):
        # 1e4 * dim * max(eps |A||B|, eps |C||D|), bitwise, dim the largest
        # factor dimension (here A's columns); a pair with an empty factor
        # adds neither
        a, b, c, d = cstd(rng, 3, 7), cstd(rng, 7, 2), cstd(rng, 3, 4), cstd(rng, 4, 2)
        eps, norm, empty = np.finfo(float).eps, np.linalg.norm, np.zeros((7, 0))
        expected = 1e4 * 7 * max(eps * norm(a) * norm(b), eps * norm(c) * norm(d))
        assert matcore._image_cutoff(((a, b), (c, d))).hex() == expected.hex()
        expected = 1e4 * 4 * (eps * norm(c) * norm(d))
        assert matcore._image_cutoff(((c, d), (a, empty))).hex() == expected.hex()
        assert matcore._image_cutoff(((a, empty),)) == 0.0

    def test_padding_changes_no_count(self, rng):
        # three quotients of different shapes, zero-padded to 6 rows and 5
        # columns: each item counts as image_quotient counts it alone
        quotients = [((cstd(rng, 4, 3), cstd(rng, 3, 2)), (cstd(rng, 4, 2), cstd(rng, 2, 2))),
                     ((low_rank(rng, 6, 3, 1), cstd(rng, 3, 2)), (cstd(rng, 6, 1), cstd(rng, 1, 1))),
                     ((cstd(rng, 2, 3), cstd(rng, 3, 1)), (cstd(rng, 2, 4), cstd(rng, 4, 4)))]
        xy = np.zeros((3, 6, 5), dtype=complex)
        mask = np.zeros((3, 1, 5), dtype=bool)
        for item, (x, y) in enumerate(quotients):
            image = np.concatenate([x[0] @ x[1], y[0] @ y[1]], axis=-1)
            xy[item, :image.shape[0], :image.shape[1]] = image
            mask[item, 0, x[1].shape[1]:image.shape[1]] = True
        cutoffs = np.array([matcore._image_cutoff(q) for q in quotients])
        counts = matcore._quotient_counts(xy, mask, cutoffs)
        assert counts.tolist() == [matcore.image_quotient(*q) for q in quotients] == [2, 1, 0]


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


class TestUncheckedBodies:
    """The private bodies skip only the public checks: with the factors'
    norms supplied or not, they give the public entry's dimensions."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (3,)]), st.integers(0, 6),
           st.lists(st.integers(0, 4), min_size=4, max_size=4), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_quotient_with_norms_matches_public(self, seed, lead, rows, widths, shared):
        # (A, B) and (C, D) with zero-width factors among them, B of low
        # rank, and D sharing up to ``shared`` columns with B so that the
        # images overlap
        r = np.random.default_rng(seed)
        ka, cb, kc, cd = widths

        def gauss(m, n):
            return (r.standard_normal(lead + (m, n))
                    + 1j * r.standard_normal(lead + (m, n))) / np.sqrt(2)

        a = gauss(rows, ka)
        b = gauss(ka, 1) @ gauss(1, cb) if ka and cb else gauss(ka, cb)
        c = a if kc == ka else gauss(rows, kc)
        d = gauss(kc, cd)
        if c is a:
            d = np.concatenate([b[..., :shared], d], axis=-1)
        norms = tuple(matcore._frobenius(m) for m in (a, b, c, d))
        for x, y, given_norms in (((a, b), (c, d), norms), ((a, b), None, norms[:2]),
                                  ((c, d), None, norms[2:])):
            public = matcore.image_quotient(x, y)
            assert np.array_equal(matcore._image_quotient(x, y), public)
            assert np.array_equal(matcore._image_quotient(x, y, given_norms), public)

    @pytest.mark.parametrize("view", ["c", "fortran", "strided", "stack item", "column"])
    def test_frobenius_is_numpy_norm_bitwise(self, rng, view):
        m = cstd(rng, 7, 5)
        m = {"c": m, "fortran": np.asfortranarray(m), "strided": m[::2, 1:],
             "stack item": np.stack([m, 2 * m])[1], "column": m[:, 1]}[view]
        assert matcore._frobenius(m).hex() == np.linalg.norm(m).hex()

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e306])
    def test_frobenius_of_an_overflowing_sum_of_squares(self, rng, scale):
        # the squares overflow; the norm itself is finite, and a stack item
        # whose squares do not overflow keeps the bitwise np.linalg.norm
        m = cstd(rng, 6, 5)
        big = scale * m
        got = matcore._frobenius(big)
        assert abs(got / scale - np.linalg.norm(m)) <= 1e-14 * np.linalg.norm(m)
        norms = matcore._frobenius(np.stack([big, m]))
        assert norms[0] == got and norms[1].hex() == np.linalg.norm(m).hex()

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    def test_frobenius_of_an_underflowing_sum_of_squares(self, rng, scale):
        # the squares fall below the normal range (np.linalg.norm reads
        # 1e-170 as 0.0); a zero matrix keeps its zero norm, and a stack
        # item whose squares are normal keeps the bitwise np.linalg.norm
        m = cstd(rng, 6, 5)
        tiny = scale * m
        got = matcore._frobenius(tiny)
        assert abs(got / scale - np.linalg.norm(m)) <= 1e-14 * np.linalg.norm(m)
        zero = np.zeros_like(m)
        assert matcore._frobenius(zero) == 0.0 and matcore._frobenius(zero[:, :0]) == 0.0
        norms = matcore._frobenius(np.stack([tiny, m, zero]))
        assert norms[0] == got and norms[1].hex() == np.linalg.norm(m).hex() and norms[2] == 0.0

    @pytest.mark.parametrize("view", ["c", "fortran", "strided", "stack"])
    def test_column_norms_are_numpy_norms_bitwise(self, rng, view):
        m = cstd(rng, 7, 5)
        m = {"c": m, "fortran": np.asfortranarray(m), "strided": m[::2, 1:],
             "stack": np.stack([m, 2 * m, m[::-1]])}[view]
        assert matcore._column_norms(m).tobytes() == np.linalg.norm(m, axis=-2).tobytes()

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e306])
    def test_column_norms_of_overflowing_columns(self, rng, scale):
        # one column's squares overflow; the other columns, and the other
        # item of a stack, keep np.linalg.norm's bits
        m = cstd(rng, 6, 3)
        big = m.copy()
        big[:, 1] *= scale
        exact = np.linalg.norm(m, axis=0)
        got = matcore._column_norms(big)
        assert abs(got[1] / scale - exact[1]) <= 1e-14 * exact[1]
        assert got[[0, 2]].tobytes() == exact[[0, 2]].tobytes()
        stacked = matcore._column_norms(np.stack([m, big]))
        assert stacked[0].tobytes() == exact.tobytes() and stacked[1].tobytes() == got.tobytes()

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_log2det_gram_of_overflowing_squares(self, rng, scale):
        # log2(1 + sigma^2) of an overflowing square is 2 log2(sigma) to
        # rounding; the other terms, and an item whose squares are finite,
        # keep the sum of log1p's bits
        x = cstd(rng, 4, 3)
        sv = np.linalg.svd(x, compute_uv=False)
        exact = np.sum(np.log1p(sv * sv)) / np.log(2.0)
        assert matcore._log2det_gram(x).hex() == exact.hex()
        big = np.diag([scale, 1.0, 2.0])
        expected = 2 * np.log2(scale) + np.log2(2.0) + np.log2(5.0)
        assert abs(matcore._log2det_gram(big) - expected) <= 1e-13 * expected
        both = matcore._log2det_gram(np.stack([x[:3], big]))
        assert np.isfinite(both).all() and both[1] == matcore._log2det_gram(big)

    def test_quotient_cutoff_of_an_overflowing_norm_product(self, rng):
        # |A| * |B| overflows while the image A @ B is finite: eps inside
        # the product keeps the cutoff finite, for a matrix and for one
        # item of a stack
        big = cstd(rng, 4, 5)
        big *= 1e308 / np.linalg.norm(big)
        b = cstd(rng, 5, 3)
        b *= 2 / np.linalg.norm(b)
        null = 4 * matcore.null_basis(big[:2])
        assert matcore._frobenius(big) * matcore._frobenius(b) == np.inf
        assert np.isfinite(big @ b).all() and np.isfinite(big[:2] @ null).all()
        assert matcore.image_quotient((big, b)) == 3
        assert matcore.image_quotient((big[:2], null)) == 0
        assert matcore.image_quotient((big, b), (big, b[:, :1])) == 2
        small = cstd(rng, 4, 5)
        assert list(matcore.image_quotient((np.stack([big, small]), np.stack([b, b])))) == [3, 3]
        assert list(matcore.image_quotient(
            (np.stack([big[:2], small[:2]]), np.stack([null, null])))) == [0, 2]


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


def assert_cossin_matches_scipy(n, p, q):
    u = split_unitary(n, p, q)
    got = matcore.cossin(u, p, q)
    ref = cossin(u, p=p, q=q, separate=True)
    assert np.array_equal(got[1], ref[1])
    for got_pair, ref_pair in ((got[0], ref[0]), (got[2], ref[2])):
        for g, r in zip(got_pair, ref_pair):
            assert g.dtype == r.dtype and np.array_equal(g, r)


# (6, 4, 4) is the LoS scenario's split; (3, 2, 2), (3, 1, 2) and
# (4, 2, 3) are among the commonest of acceptance criterion 4's
SPLITS = [(2, 1, 1), (5, 2, 3), (7, 4, 2), (9, 3, 5), (6, 4, 4), (3, 2, 2), (3, 1, 2), (4, 2, 3)]
# the workspace is cached per (m, p, q).  (6, 4, 4) needs a larger lrwork
# than the three splits before it, and (8, 4, 4) a larger one than
# (6, 4, 4), so a cache keyed on any part of (m, p, q) alone hands one of
# them too small a workspace, which zuncsd rejects
ALTERNATING_SPLITS = [(6, 1, 1), (6, 4, 1), (6, 1, 4), (6, 4, 4), (8, 4, 4), (3, 1, 2),
                      (4, 2, 3), (6, 1, 1)]

# In a fresh interpreter, runs matcore.cossin on SPLITS before anything
# loads scipy.linalg, then scipy.linalg.cossin on the same unitaries, and
# prints whether scipy.linalg was loaded before the comparison and the
# splits whose blocks differ in dtype or bits.
_FRESH_COSSIN = """
import json, sys
sys.path.insert(0, TESTS)
import numpy as np
from conftest import split_unitary
from sdofkit import matcore
got = [matcore.cossin(split_unitary(*s), s[1], s[2]) for s in SPLITS]
early = "scipy.linalg" in sys.modules
from scipy.linalg import cossin
differ = []
for s, g in zip(SPLITS, got):
    r = cossin(split_unitary(*s), p=s[1], q=s[2], separate=True)
    blocks = [(g[1], r[1]), *zip(g[0], r[0]), *zip(g[2], r[2])]
    if not all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in blocks):
        differ.append(s)
print(json.dumps({"early": early, "differ": differ}))
"""


# In a fresh interpreter, loads SciPy's LAPACK module by importing
# scipy.linalg, before or after matcore.cossin first runs, and prints
# whether scipy.linalg then has the module bound and whether the two
# cossins agree bitwise on (6, 4, 4).
_LOAD_ORDER = """
import json, sys
sys.path.insert(0, TESTS)
import numpy as np
from conftest import split_unitary
from sdofkit import matcore
if SCIPY_FIRST:
    import scipy.linalg
u = split_unitary(6, 4, 4)
got = matcore.cossin(u, 4, 4)
import scipy.linalg
ref = scipy.linalg.cossin(u, p=4, q=4, separate=True)
blocks = [(got[1], ref[1]), *zip(got[0], ref[0]), *zip(got[2], ref[2])]
print(json.dumps({
    "bound": getattr(scipy.linalg, "_flapack", None) is sys.modules["scipy.linalg._flapack"],
    "equal": all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in blocks),
}))
"""

class TestDeferredCossin:
    @pytest.mark.parametrize("n, p, q", SPLITS)
    def test_bitwise_equal_to_scipy(self, n, p, q):
        assert_cossin_matches_scipy(n, p, q)

    def test_alternating_splits(self):
        matcore._uncsd.cache_clear()
        for n, p, q in ALTERNATING_SPLITS:
            assert_cossin_matches_scipy(n, p, q)

    def test_bitwise_equal_to_scipy_before_scipy_linalg_loads(self):
        # this process loaded scipy.linalg at collection, so only a fresh
        # one sees cossin load SciPy's LAPACK module on its own
        splits = SPLITS + ALTERNATING_SPLITS
        code = (_FRESH_COSSIN.replace("TESTS", repr(str(Path(__file__).parent)))
                .replace("SPLITS", repr(splits)))
        proc = run_python(code, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"early": False, "differ": []}

    @pytest.mark.parametrize("scipy_first", [False, True], ids=["matcore-first", "scipy-first"])
    def test_either_load_order_binds_scipy_linalg_flapack(self, scipy_first):
        # whichever loads SciPy's LAPACK module first, a later import of
        # scipy.linalg has it bound, and the two cossins agree bitwise
        code = _LOAD_ORDER.replace("TESTS", repr(str(Path(__file__).parent))).replace(
            "SCIPY_FIRST", repr(scipy_first))
        proc = run_python(code, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"bound": True, "equal": True}

    def test_workspace_matches_scipy(self):
        # every split of n <= 12, edges included, sized as SciPy sizes it
        _, csd_lwork = lapack.get_lapack_funcs(("uncsd", "uncsd_lwork"), dtype=np.complex128)
        for n in range(13):
            for p in range(n + 1):
                for q in range(n + 1):
                    assert (matcore._uncsd(n, p, q)[1:]
                            == lapack._compute_lwork(csd_lwork, m=n, p=p, q=q)), (n, p, q)
