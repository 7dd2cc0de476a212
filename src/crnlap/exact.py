"""Exact rational linear algebra on small dense matrices, and the two rules
that decide between exact and float arithmetic.

Matrices are numpy arrays with ``dtype=object`` holding ``fractions.Fraction``
(or plain ``int``) entries.  Everything here is meant for the desk scale of
this package (dimensions ~10), where exact Gaussian elimination is cheap and
the identities being verified are exact.  Elimination runs on Python ints:
a rational row is a list of ints over one positive int denominator
(`integer_row` forms it from ints, Fractions or floats, each at its exact
value).  `pivot` is the one Gauss-Jordan step on such rows: `rref` (so
`nullspace` and `column_space`), which converts to Fractions once when it
returns, and `geometry`'s simplex share it.  Determinants are taken on
integers: `integer_rows` clears a matrix's denominators with one positive
multiplier, and `bareiss`, Bareiss fraction-free elimination, gives the
determinant of an integer matrix.
`laplacian` uses it to decide the invertibility of core blocks built
elsewhere and to take the off-cycle minors of cycle coefficients.

A result is exact iff all its inputs are: `common` passes a call's operands
on unchanged when every one is an object array, and otherwise converts all
of them to float64, so one expression serves both modes.  Comparisons take
their tolerance from `tolerance`: 0 on exact values, so exact checks test
equality, and otherwise the caller's `tol` or the site's named float
constant, relative to a scale.  A `tol` that is not finite and >= 0 is
refused (`check_tol`), and exact values that must become positive finite
float64 values and do not are refused (`positive_floats`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import FloatRangeError, SemanticError

ZERO = Fraction(0)
ONE = Fraction(1)


def is_exact(m: np.ndarray) -> bool:
    """True when `m` is an object-dtype (rational) matrix."""
    return m.dtype == object


def matrix(rows) -> np.ndarray:
    """Build an object matrix of Fractions from nested sequences."""
    return np.array([[Fraction(v) for v in row] for row in rows], dtype=object)


def vector(entries) -> np.ndarray:
    return np.array([Fraction(v) for v in entries], dtype=object)


def zeros(nrows: int, ncols: int) -> np.ndarray:
    m = np.empty((nrows, ncols), dtype=object)
    m[:] = ZERO
    return m


def common(*operands: np.ndarray) -> tuple[np.ndarray, ...]:
    """The operands unchanged when all are exact, otherwise all as float64."""
    if all(is_exact(m) for m in operands):
        return operands
    return tuple(np.asarray(m, dtype=float) for m in operands)


def check_tol(tol: float | None) -> None:
    """Refuse a relative tolerance that is not None or finite and >= 0."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise SemanticError(f"tol must be finite and >= 0, got {tol!r}")


def tolerance(values: np.ndarray, default: float, scale, tol: float | None = None):
    """Absolute tolerance for comparing `values`: 0 when they are exact,
    otherwise the relative tolerance `tol` (the site's `default` when None)
    times `scale()`.  The scale is computed only for float values, so an
    exact check never pays for one."""
    check_tol(tol)
    if is_exact(values):
        return 0
    return (default if tol is None else tol) * scale()


def positive_floats(values, what: str) -> np.ndarray:
    """`values` as float64, refused (FloatRangeError) unless each becomes a
    positive finite float64 value; `what` names them in the message."""
    try:
        out = [float(v) for v in values]
    except OverflowError:  # an exact value beyond float64
        out = [math.inf]
    if not all(0 < v < math.inf for v in out):
        raise FloatRangeError(f"{what} leave the float64 range")
    return np.array(out, dtype=float)


def integer_row(values) -> tuple[list[int], int]:
    """A row of ints, Fractions or floats, each taken at its exact value, as
    ints over one positive denominator, the lcm of the entries' own."""
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except AttributeError:  # numpy integer scalars, which object arrays may hold
        ratios = [Fraction(v).as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def pivot(rows: list[list[int]], dens: list[int], i: int, k: int) -> None:
    """One Gauss-Jordan step on rational rows, row r being the ints rows[r]
    over the positive denominator dens[r]: scale row i so that its entry in
    column k equals its denominator (a unit entry) and clear column k from
    every other row, r becoming d_i T_r - T_r[k] T_i over d_r d_i.  Each
    row changed is divided by the gcd of its ints and its denominator."""
    top = rows[i]
    if top[k] < 0:
        top[:] = [-v for v in top]
    dens[i] = top[k]
    _lowest_terms(rows, dens, i)
    d = dens[i]
    for r, row in enumerate(rows):
        f = row[k]
        if f and r != i:
            row[:] = [d * v - f * u for v, u in zip(row, top)]
            dens[r] *= d
            _lowest_terms(rows, dens, r)


def _lowest_terms(rows: list[list[int]], dens: list[int], r: int) -> None:
    g = math.gcd(dens[r], *rows[r])
    if g > 1:
        rows[r][:] = [v // g for v in rows[r]]
        dens[r] //= g


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    rows, dens = [], []
    for values in m.tolist():
        row, den = integer_row(values)
        rows.append(row)
        dens.append(den)
    pivots: list[int] = []
    for col in range(m.shape[1]):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is not None:
            rows[r], rows[i] = rows[i], rows[r]
            dens[r], dens[i] = dens[i], dens[r]
            pivot(rows, dens, r, col)
            pivots.append(col)
    out = [[Fraction(v, d) if v else ZERO for v in row] for row, d in zip(rows, dens)]
    return np.array(out, dtype=object).reshape(m.shape), pivots


def nullspace(m: np.ndarray) -> np.ndarray:
    """Basis of ker(m) as columns of an ncols x dim matrix."""
    ncols = m.shape[1]
    r, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros(ncols, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = ONE
        for i, pc in enumerate(pivots):
            basis[pc, j] = -r[i, fc]
    return basis


def column_space(m: np.ndarray) -> np.ndarray:
    """Basis of im(m): the pivot columns of m."""
    _, pivots = rref(m)
    return m[:, pivots].astype(object, copy=True)


def integer_rows(m: np.ndarray) -> tuple[list[list[int]], int]:
    """The rows of a rational matrix times one positive integer, the lcm of
    its denominators, as lists of ints, and that integer; signs, zero
    pattern and singularity are those of `m`."""
    values = m.tolist()
    scale = math.lcm(*(v.denominator for row in values for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row] for row in values], scale


def bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss (1968)
    fraction-free elimination: each step divides by the previous pivot,
    which is exact, so every entry stays an integer (a minor of the input)
    and the last pivot is the determinant, up to the sign that each row
    swap flips.  `rows` is overwritten."""
    sign, prev = 1, 1
    for k in range(len(rows)):
        i = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if i is None:
            return 0
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for row in rows[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [
                (p * v - f * u) // prev for v, u in zip(row[k + 1 :], top[k + 1 :])
            ]
        prev = p
    return sign * prev
