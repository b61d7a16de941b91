"""Closed-form integral over the ordered inverse-temperature simplex.

For difference coefficients d_1..d_m and level coefficients c_k = d_1 + ... + d_k,

    I = int_{beta >= b_1 >= ... >= b_m >= 0} exp(-sum_k b_k d_k) db
      = beta^m * exp[x_0, x_1, ..., x_m],   x = (0, -beta c_1, ..., -beta c_m),

the divided difference of exp at the nodes x (Hermite-Genocchi formula).  That
divided difference is entry (0, m) of exp(J), where J is the bidiagonal matrix
with x on its diagonal and ones above it (McCurdy, Ng & Parlett 1984), so
coincident nodes need no special case.  exp(J) is evaluated by scaling and
squaring (Higham 2005): shift J by its largest node, so every diagonal entry
is <= 0, scale by 2^-s until its 1-norm is <= 1, sum the Taylor series to
degree 18 (truncation below 1/19! ~ 8e-18), and square s times.

The scaling s is chosen per row, so a batched call returns bit for bit what
row-by-row calls return.
"""

from __future__ import annotations

import math

import numpy as np

from .combinatorics import SizeLimitError

__all__ = ["MAX_LEVELS", "simplex_integral_from_diffs"]

# Deepest simplex the accuracy test against mpmath covers (6 nodes).
MAX_LEVELS = 5
_TAYLOR_DEGREE = 18
# Rows per batched evaluation: keeps the working set near 1 MB at no cost in
# speed (4096-row chunks are no faster and hold 2.5 MB more at n = 5).
_CHUNK_ROWS = 512


def simplex_integral_from_diffs(diffs, beta: float):
    """Simplex integral for each row of `diffs` (shape (..., m)) at inverse
    temperature beta: a float for 1-D input, an array of shape diffs.shape[:-1]
    otherwise."""
    d = np.asarray(diffs, dtype=float)
    if d.ndim == 0 or d.shape[-1] == 0:
        raise ValueError("at least one difference coefficient required")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and non-negative, got {beta!r}")
    if not np.all(np.isfinite(d)):
        raise ValueError("difference coefficients must be finite")
    m = d.shape[-1]
    if m > MAX_LEVELS:
        raise SizeLimitError(f"simplex integral supports at most {MAX_LEVELS} levels, got {m}")

    rows = d.reshape(-1, m)
    with np.errstate(over="raise"):  # FloatingPointError beyond the double range
        nodes = np.zeros((rows.shape[0], m + 1))
        nodes[:, 1:] = -beta * np.cumsum(rows, axis=1)
        top = nodes.max(axis=1)
        entry = np.empty(rows.shape[0])
        for lo in range(0, rows.shape[0], _CHUNK_ROWS):
            sl = slice(lo, lo + _CHUNK_ROWS)
            entry[sl] = _exp_corner(nodes[sl] - top[sl, None])
        values = (np.exp(top) * beta**m * entry).reshape(d.shape[:-1])
    return float(values) if d.ndim == 1 else values


def _exp_corner(nodes: np.ndarray) -> np.ndarray:
    """Entry (0, m) of exp(J) per row, for nodes <= 0 of shape (rows, m + 1)."""
    rows, size = nodes.shape
    squarings = np.ceil(np.log2(1.0 - nodes.min(axis=1, initial=0.0))).astype(int)
    scale = np.ldexp(1.0, -squarings)
    diag = np.arange(size)
    a = np.zeros((rows, size, size))
    a[:, diag, diag] = nodes * scale[:, None]
    a[:, diag[:-1], diag[1:]] = scale[:, None]
    e = a / _TAYLOR_DEGREE
    e[:, diag, diag] += 1.0
    term = np.empty_like(e)
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):  # Horner: e <- I + a e / k
        np.matmul(a, e, out=term)
        term *= 1.0 / k
        term[:, diag, diag] += 1.0
        e, term = term, e
    for step in range(squarings.max(initial=0)):
        idx = np.nonzero(squarings > step)[0]
        part = e[idx]
        e[idx] = np.matmul(part, part)
    return e[:, 0, -1]
