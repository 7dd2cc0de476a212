"""Exact rational linear algebra on small dense matrices, and the two rules
that decide between exact and float arithmetic.

Matrices are numpy arrays with ``dtype=object`` holding ``fractions.Fraction``
(or plain ``int``) entries.  Everything here is meant for the desk scale of
this package (dimensions ~10), where exact Gaussian elimination is cheap and
the identities being verified are exact.

A result is exact iff all its inputs are: `common` passes a call's operands
on unchanged when every one is an object array, and otherwise converts all
of them to float64, so one expression serves both modes.  Comparisons take
their tolerance from `tolerance`: 0 on exact values, so exact checks test
equality, and otherwise the caller's `tol` or the site's named float
constant, relative to a scale.  A `tol` that is not finite and >= 0 is
refused (`check_tol`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import SemanticError

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


def identity(n: int) -> np.ndarray:
    m = zeros(n, n)
    for i in range(n):
        m[i, i] = ONE
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


def rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    r = m.astype(object, copy=True)
    nrows, ncols = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = None
        for i in range(row, nrows):
            if r[i, col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        r[row] = r[row] * (ONE / Fraction(r[row, col]))
        for i in range(nrows):
            if i != row and r[i, col] != 0:
                r[i] = r[i] - r[i, col] * r[row]
        pivots.append(col)
        row += 1
    return r, pivots


def rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    return len(rref(m)[1])


def nullspace(m: np.ndarray) -> np.ndarray:
    """Basis of ker(m) as columns of an ncols x dim matrix."""
    nrows, ncols = m.shape
    if ncols == 0:
        return zeros(0, 0)
    if nrows == 0:
        return identity(ncols)
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
    if m.size == 0:
        return zeros(m.shape[0], 0)
    _, pivots = rref(m)
    return m[:, pivots].astype(object, copy=True)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One particular solution of a x = b, or None if inconsistent."""
    nrows, ncols = a.shape
    aug = zeros(nrows, ncols + 1)
    aug[:, :ncols] = a
    aug[:, ncols] = [Fraction(v) for v in b]
    r, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = vector([0] * ncols)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols]
    return x


def det(m: np.ndarray) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination with row swaps."""
    n = m.shape[0]
    if n != m.shape[1]:
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return ONE
    a = m.astype(object, copy=True)
    sign = 1
    result = ONE
    for col in range(n):
        pivot = None
        for i in range(col, n):
            if a[i, col] != 0:
                pivot = i
                break
        if pivot is None:
            return ZERO
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            sign = -sign
        p = Fraction(a[col, col])
        result *= p
        for i in range(col + 1, n):
            if a[i, col] != 0:
                a[i, col:] = a[i, col:] - (a[i, col] / p) * a[col, col:]
    return sign * result
