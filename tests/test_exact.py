import random
from fractions import Fraction

import numpy as np
import pytest

from crnlap import exact
from crnlap.errors import SemanticError

from oracles import primitive


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return np.array(
        [
            [Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ],
        dtype=object,
    )


class TestRrefRank:
    def test_identity_fixed_point(self):
        eye = exact.identity(4)
        r, pivots = exact.rref(eye)
        assert np.array_equal(r, eye)
        assert pivots == [0, 1, 2, 3]

    def test_rank_matches_numpy(self):
        rng = random.Random(61)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert exact.rank(m) == np.linalg.matrix_rank(
                np.asarray(m, dtype=float)
            )

    def test_rank_of_outer_product_is_one(self):
        u = exact.vector([1, 2, 3])
        v = exact.vector([Fraction(1, 2), 5])
        m = np.outer(u, v)
        assert exact.rank(m) == 1


class TestNullspaceSolve:
    def test_nullspace_annihilates(self):
        rng = random.Random(62)
        for _ in range(30):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            ns = exact.nullspace(m)
            assert ns.shape[1] == m.shape[1] - exact.rank(m)
            if ns.size:
                assert all(v == 0 for v in (m @ ns).flat)

    def test_solve_consistent_and_inconsistent(self):
        a = exact.matrix([[1, 2], [2, 4]])
        assert exact.solve(a, exact.vector([1, 2])) is not None
        assert exact.solve(a, exact.vector([1, 3])) is None

    def test_solve_residual_zero(self):
        rng = random.Random(63)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x_true = exact.vector([rng.randint(-3, 3) for _ in range(a.shape[1])])
            b = a @ x_true
            x = exact.solve(a, b)
            assert x is not None
            assert all(v == 0 for v in (a @ x - b))


class TestDetInverse:
    def test_det_matches_numpy_sign_and_value(self):
        rng = random.Random(64)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = random_matrix(rng, n, n)
            d = exact.det(m)
            nd = np.linalg.det(np.asarray(m, dtype=float))
            assert abs(float(d) - nd) <= 1e-8 * max(1.0, abs(nd))

    def test_empty_matrix_det_is_one(self):
        assert exact.det(exact.zeros(0, 0)) == 1


class TestPrimitive:
    def test_scales_to_coprime_integers(self):
        v = primitive(exact.vector([Fraction(2, 3), Fraction(4, 3), 2]))
        assert v.tolist() == [1, 2, 3]

    def test_preserves_direction(self):
        v = primitive(exact.vector([Fraction(-1, 2), Fraction(1, 4)]))
        assert v.tolist() == [-2, 1]


class TestColumnSpace:
    def test_pivot_columns_span(self):
        rng = random.Random(66)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            basis = exact.column_space(m)
            assert basis.shape[1] == exact.rank(m)
            if basis.size and m.size:
                stacked = np.hstack([basis, m])
                assert exact.rank(stacked) == basis.shape[1]


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
