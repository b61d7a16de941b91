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

The degree-18 polynomial p(A) = sum_k A^k / k! is evaluated by
Paterson-Stockmeyer (SIAM J. Comput. 2, 1973) with blocks of four terms:

    p(A) = B_0 + A^4 (B_1 + A^4 (B_2 + A^4 (B_3 + A^4 B_4))),
    B_j  = sum_{i<4} A^i / (4j + i)!   (B_4 stops at A^2 / 18!).

A^2, A^3 and A^4 take three batched matmuls, one matmul of the 5 x 4
coefficient table against each row's stacked I, A, A^2, A^3 forms all five
blocks, and Horner in A^4 takes four more: eight against the seventeen of
Horner in A.

The scaling s is chosen per row, and every step acts on each row alone, so a
batched call returns bit for bit what row-by-row calls return.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .combinatorics import SizeLimitError

__all__ = ["MAX_LEVELS", "simplex_integral_from_diffs"]

# Deepest simplex the accuracy test against mpmath covers (6 nodes).
MAX_LEVELS = 5
_TAYLOR_DEGREE = 18
# Paterson-Stockmeyer block coefficients: 1/(4j + i)! at row j, column i,
# zero past degree 18.
_PS_BLOCK = 4
_PS_COEFFS = np.array(
    [
        [1.0 / math.factorial(k) if k <= _TAYLOR_DEGREE else 0.0 for k in range(lo, lo + _PS_BLOCK)]
        for lo in range(0, _TAYLOR_DEGREE + 1, _PS_BLOCK)
    ]
)
# Rows per chunk.  One set of buffers, 11 (m + 1)^2 doubles a row, serves
# every chunk of a call: 0.55 MB at 256 rows and m = 4, small enough that
# later calls reuse it with no new page faults (512 rows fault ~250 times a
# call).  At n = 5 (3,000 tree rows), 256 and 512 rows run at one speed
# within noise, and 4096 rows 1.5-2x slower.
_CHUNK_ROWS = 256


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
        top = _rowwise(np.maximum, nodes)
        nodes -= top[:, None]
        values = (np.exp(top) * beta**m * _exp_corner(nodes)).reshape(d.shape[:-1])
    return float(values) if d.ndim == 1 else values


def _exp_corner(nodes: np.ndarray) -> np.ndarray:
    """Entry (0, m) of exp(J) per row, for nodes <= 0 of shape (rows, m + 1),
    in chunks of _CHUNK_ROWS rows that reuse one set of buffers."""
    rows, size = nodes.shape
    chunk = min(rows, _CHUNK_ROWS)
    powers = np.zeros((chunk, _PS_BLOCK, size, size))  # I, A, A^2, A^3 per row
    powers[:, 0] = np.eye(size)
    a4 = np.empty((chunk, size, size))
    blocks = np.empty((chunk, len(_PS_COEFFS), size, size))
    spare = np.empty_like(a4)
    corner = np.empty(rows)
    for lo in range(0, rows, _CHUNK_ROWS):
        x = nodes[lo : lo + _CHUNK_ROWS]
        k = len(x)
        squarings = np.ceil(np.log2(1.0 - _rowwise(np.minimum, x))).astype(int)
        scale = np.ldexp(1.0, -squarings)
        p, b = powers[:k], blocks[:k]
        a = p[:, 1]
        _flat(a)[:, :: size + 1] = x * scale[:, None]
        _flat(a)[:, 1 :: size + 1] = scale[:, None]
        np.matmul(a, a, out=p[:, 2])
        np.matmul(p[:, 2], a, out=p[:, 3])
        np.matmul(p[:, 2], p[:, 2], out=a4[:k])
        # b[:, j] = sum_i c_{4j+i} A^i, then Horner in A^4 down to b[:, 0]
        flat_b = b.reshape(k, len(_PS_COEFFS), -1)
        np.matmul(_PS_COEFFS, p.reshape(k, _PS_BLOCK, -1), out=flat_b)
        for j in range(len(_PS_COEFFS) - 2, -1, -1):
            b[:, j] += np.matmul(a4[:k], b[:, j + 1], out=spare[:k])
        e, free = b[:, 0], spare[:k]
        for step in range(squarings.max()):
            live = squarings > step
            if live.all():  # most steps: square in place, without gather and scatter
                e, free = np.matmul(e, e, out=free), e
            else:
                idx = np.nonzero(live)[0]
                part = e[idx]
                e[idx] = np.matmul(part, part)
        corner[lo : lo + k] = e[:, 0, -1]
    return corner


def _rowwise(op, nodes: np.ndarray) -> np.ndarray:
    """op reduced over each row, column by column: on rows of at most 6 nodes
    this is ~15x faster than the axis-1 reduction."""
    return functools.reduce(op, nodes.T)


def _flat(a: np.ndarray) -> np.ndarray:
    """View of a (rows, size, size) stack as (rows, size * size): from offset 0
    (1), step size + 1 walks each matrix's (super)diagonal."""
    return a.reshape(len(a), -1)
