import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crnlap import exact
from crnlap.errors import FloatRangeError, SemanticError

from oracles import column_space, det, fraction_rref, primitive, rank, solve


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return np.array(
        [
            [Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ],
        dtype=object,
    )


def fractions(rows, dens, shape) -> np.ndarray:
    """The matrix whose row i is the ints rows[i] over dens[i]."""
    out = [[Fraction(v, d) for v in row] for row, d in zip(rows, dens)]
    return np.array(out, dtype=object).reshape(shape)


class TestRrefRank:
    def test_identity_fixed_point(self):
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        rows, dens, pivots = exact.rref(exact.matrix(eye))
        assert rows == eye and dens == [1] * 4
        assert pivots == [0, 1, 2, 3]

    def test_rank_matches_numpy(self):
        rng = random.Random(61)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert rank(m) == np.linalg.matrix_rank(
                np.asarray(m, dtype=float)
            )

    def test_rank_of_outer_product_is_one(self):
        u = exact.vector([1, 2, 3])
        v = exact.vector([Fraction(1, 2), 5])
        m = np.outer(u, v)
        assert rank(m) == 1


@st.composite
def rational_matrices(draw):
    """Up to 5 x 5 matrices, 0 x n and n x 0 included, of int and Fraction
    entries, with some rows and columns set to zero."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=nrows))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    for i, row in enumerate(rows):
        for j in range(ncols):
            if i in zero_rows or j in zero_cols:
                row[j] = 0
    return np.array(rows, dtype=object).reshape(nrows, ncols)


class TestRrefProperties:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rational_matrices())
    def test_rref_nullspace_column_space(self, m):
        rows, dens, pivots = exact.rref(m)
        assert len(rows) == len(dens) == m.shape[0] and all(d > 0 for d in dens)
        r = fractions(rows, dens, m.shape)
        # reduced row echelon form: each pivot row leads with a 1 in its own
        # pivot column, which is zero in every other row; the rest are zero
        assert pivots == sorted(set(pivots))
        for i, pc in enumerate(pivots):
            assert all(v == 0 for v in r[i, :pc]) and r[i, pc] == 1
            assert all(r[j, pc] == 0 for j in range(m.shape[0]) if j != i)
        assert all(v == 0 for v in r[len(pivots):].flat)
        # the pivot rows span the row space: every row of m is the
        # combination of them read off its pivot entries, and the ranks agree
        zero = exact.vector([0] * m.shape[1])
        for row in m:
            combo = sum((row[pc] * r[i] for i, pc in enumerate(pivots)), zero)
            assert all(a == b for a, b in zip(combo, row))
        fm = np.asarray(m, dtype=float)
        assert len(pivots) == (np.linalg.matrix_rank(fm) if m.size else 0)
        ns = exact.nullspace(m)
        assert ns.shape == (m.shape[1], m.shape[1] - len(pivots))
        assert all(v == 0 for v in (m @ ns).flat)
        cs = column_space(m)
        assert cs.shape == (m.shape[0], len(pivots))
        if cs.size:
            assert np.linalg.matrix_rank(np.asarray(cs, dtype=float)) == len(pivots)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rational_matrices())
    def test_rref_equals_fraction_gauss_jordan(self, m):
        # the int-row pivot takes the Fraction oracle's steps: the same
        # pivot columns and the same matrix, entry by entry, as ints over
        # one positive int denominator per row
        rows, dens, pivots = exact.rref(m)
        want, want_pivots = fraction_rref(m)
        assert pivots == want_pivots
        assert all(type(v) is int for row in rows for v in row)
        assert all(type(d) is int and d > 0 for d in dens)
        r = fractions(rows, dens, m.shape)
        assert all(a == b for a, b in zip(r.flat, want.flat))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rational_matrices())
    def test_nullspace_equals_fraction_rref_basis(self, m):
        # one basis vector per free column: 1 there, minus the reduced
        # rows' entries in that column at the pivots, 0 elsewhere
        want, pivots = fraction_rref(m)
        free = [c for c in range(m.shape[1]) if c not in pivots]
        ns = exact.nullspace(m)
        assert ns.shape == (m.shape[1], len(free)) and ns.dtype == object
        for j, fc in enumerate(free):
            col = [Fraction(c == fc) for c in range(m.shape[1])]
            for i, pc in enumerate(pivots):
                col[pc] = -want[i, fc]
            assert all(type(a) is Fraction and a == b for a, b in zip(ns[:, j], col))


class TestNullspaceSolve:
    def test_nullspace_annihilates(self):
        rng = random.Random(62)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            ns = exact.nullspace(m)
            assert ns.shape[1] == m.shape[1] - rank(m)
            if ns.size:
                assert all(v == 0 for v in (m @ ns).flat)

    def test_solve_consistent_and_inconsistent(self):
        a = exact.matrix([[1, 2], [2, 4]])
        assert solve(a, exact.vector([1, 2])) is not None
        assert solve(a, exact.vector([1, 3])) is None

    def test_solve_residual_zero(self):
        rng = random.Random(63)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x_true = exact.vector([rng.randint(-3, 3) for _ in range(a.shape[1])])
            b = a @ x_true
            x = solve(a, b)
            assert x is not None
            assert all(v == 0 for v in (a @ x - b))


class TestDetInverse:
    def test_det_matches_numpy_sign_and_value(self):
        rng = random.Random(64)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            d = det(m)
            nd = np.linalg.det(np.asarray(m, dtype=float))
            assert abs(float(d) - nd) <= 1e-8 * max(1.0, abs(nd))

    def test_empty_matrix_det_is_one(self):
        assert det(exact.zeros(0, 0)) == 1

    def test_integer_bareiss_agrees_with_det(self):
        # some matrices are products through a narrower middle, so
        # singular; n = 0 and n = 1 included
        rng = random.Random(65)
        for trial in range(120):
            n, k = trial % 6, rng.randint(1, 4)
            if n == 0:
                m = exact.zeros(0, 0)
            elif k < n and rng.random() < 0.4:
                m = random_matrix(rng, n, k) @ random_matrix(rng, k, n)
            else:
                m = random_matrix(rng, n, n)
            rows, _ = exact.integer_rows(m)
            assert all(type(v) is int for row in rows for v in row)
            want = det(exact.matrix(rows).reshape(n, n))
            got = exact.bareiss(rows)
            assert type(got) is int and got == want
        # scaled permutation matrices: every zero pivot forces a row swap,
        # and the determinant is the product of the scales times the parity
        scales = [2, -3, 5, 7]
        for perm in itertools.permutations(range(4)):
            rows = [[scales[i] * (j == perm[i]) for j in range(4)] for i in range(4)]
            odd = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)) % 2
            want = -210 if odd == 0 else 210
            assert det(exact.matrix(rows)) == want
            assert exact.bareiss(rows) == want

    def test_integer_row_one_positive_denominator(self):
        row = [Fraction(1, 6), -2, 0.375, Fraction(-3, 4)]
        assert exact.integer_row(row) == ([4, -48, 9, -18], 24)
        assert exact.integer_row([]) == ([], 1)
        assert exact.integer_row([np.int64(3), np.float64(0.5)]) == ([6, 1], 2)

    def test_pivot_normalises_sign_and_lowest_terms(self):
        # rows (0, -2/3, 4/3) and (1, 1/2, 1), each times 6, over 1:
        # pivoting on -4 negates its row and returns the denominator 4, over
        # which the rows are (0, 1, -2) and 6 (1, 0, 2)
        rows = [[0, -4, 8], [6, 3, 6]]
        assert exact.pivot(rows, 1, 0, 1) == 4
        assert rows == [[0, 4, -8], [24, 0, 48]]
        # the next step divides by that denominator, exactly
        assert exact.pivot(rows, 4, 1, 0) == 24
        assert rows == [[0, 24, -48], [24, 0, 48]]
        # rref reduces each row to lowest terms once, at the end
        m = exact.matrix([[0, Fraction(-2, 3), Fraction(4, 3)], [1, Fraction(1, 2), 1]])
        assert exact.rref(m) == ([[1, 0, 2], [0, 1, -2]], [1, 1], [0, 1])

    def test_integer_rows_one_positive_multiplier(self):
        m = exact.matrix([[Fraction(1, 6), Fraction(-3, 4)], [0, Fraction(5, 9)]])
        assert exact.integer_rows(m) == ([[6, -27], [0, 20]], 36)
        assert exact.integer_rows(exact.zeros(0, 0)) == ([], 1)


class TestPrimitive:
    def test_scales_to_coprime_integers(self):
        v = primitive(exact.vector([Fraction(2, 3), Fraction(4, 3), 2]))
        assert v.tolist() == [1, 2, 3]

    def test_preserves_direction(self):
        v = primitive(exact.vector([Fraction(-1, 2), Fraction(1, 4)]))
        assert v.tolist() == [-2, 1]


class TestColumnSpace:
    """The oracle's basis of im(m), which tests take for S = im N."""

    def test_pivot_columns_span(self):
        rng = random.Random(66)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            basis = column_space(m)
            assert basis.shape[1] == rank(m)
            if basis.size and m.size:
                stacked = np.hstack([basis, m])
                assert rank(stacked) == basis.shape[1]


class TestNumberRules:
    def test_common_keeps_exact_and_floats_mixed(self):
        q, f = exact.vector([1, Fraction(1, 3)]), np.array([0.5, 2.0])
        assert exact.common(q, q)[1] is q
        out = exact.common(q, f)
        assert all(m.dtype == float for m in out)
        assert out[0].tolist() == [1.0, 1 / 3]

    def test_tolerance_is_zero_on_exact_values(self):
        q, f = exact.vector([1]), np.array([1.0])

        def unused():
            raise AssertionError("exact checks need no scale")

        assert exact.tolerance(q, 1e-12, unused, tol=1e-3) == 0
        assert exact.tolerance(f, 1e-12, lambda: 4.0) == 4e-12
        assert exact.tolerance(f, 1e-12, lambda: 4.0, tol=0.5) == 2.0
        assert exact.tolerance(f, 1e-12, lambda: 4.0, tol=0.0) == 0.0

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_tolerance_rejects_bad_tol(self, tol):
        for values in (exact.vector([1]), np.array([1.0])):
            with pytest.raises(SemanticError):
                exact.tolerance(values, 1e-12, lambda: 1.0, tol=tol)

    @pytest.mark.parametrize(
        "value", [10**400, -(10**400), Fraction(1, 10**400), float("inf"), float("nan")],
        ids=["1e400", "-1e400", "1e-400", "inf", "nan"],
    )
    def test_to_float_refuses_what_float64_cannot_hold(self, value):
        with pytest.raises(FloatRangeError, match="x is outside the float64 range"):
            exact.to_float(value, "x")

    def test_to_float_keeps_what_float64_holds(self):
        assert exact.to_float(Fraction(1, 3), "x") == 1 / 3
        assert exact.to_float(0, "x") == 0.0
        assert exact.to_float(Fraction(10**300), "x") == 1e300

    def test_floats_keeps_values_and_layout_of_asarray(self):
        # a matrix product's rounding depends on the layout: the copy of a
        # column-major object array is column-major, as np.asarray makes it
        m = exact.matrix([[1, Fraction(1, 3)], [Fraction(2, 7), 5], [0, 1]])[:, [1, 0]]
        out = exact.floats(m, "x")
        ref = np.asarray(m, dtype=float)
        assert np.array_equal(out, ref) and out.strides == ref.strides
        assert not out.flags.writeable
        f = np.array([0.5, 2.0])
        assert exact.floats(f, "x") is not f and np.array_equal(exact.floats(f, "x"), f)

    def test_floats_refuses_one_entry(self):
        m = exact.matrix([[1, 2], [Fraction(1, 10**400), 3]])
        with pytest.raises(FloatRangeError, match="an entry is outside"):
            exact.floats(m, "an entry")
