"""Minimal reverse-mode automatic differentiation over dense matrices.

Everything is a 2-D float64 array: vectors are (n, 1) columns, scalars are
(1, 1). Operations record themselves on a :class:`Tape` in execution order,
which is automatically a topological order, so a backward pass is a single
reverse sweep. Gradients accumulate (sum) across fan-out; a fresh tape is
used per training step, so there is nothing to reset.

Gradients are materialised lazily: a value holds no gradient array until
the sweep reaches it. The sweep releases each node once its adjoint is
applied, so after :meth:`Tape.backward` the tape keeps no activations or
closures, and reference counting frees a step's intermediates as soon as
the caller drops them, without waiting for the cyclic garbage collector.

A whole dense layer, ``act(w @ x + b)``, records as one operation,
:func:`dense`. Its forward allocates one array, the product, and adds the
bias and applies the activation to it in place; its adjoint derives the
activation's slope from that output. The values and gradients are the
same float operations in the same order as the chain
:func:`matmul` -> :func:`add_bias` -> :func:`elementwise`, which remain
available as separate operations.

Only the operations needed to train small fully-connected networks and to
differentiate through products like ``inv(S) @ K @ S`` are provided. There
is no broadcasting beyond the explicit column-bias cases in
:func:`add_bias` and :func:`dense`, and no higher-order derivatives.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, SingularMatrixError

ACTIVATIONS = ("tanh", "relu", "identity")

COND_CAP = 1e8


def _as_matrix(value) -> np.ndarray:
    arr = np.array(value, dtype=np.float64, copy=True, order="C")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    elif arr.ndim != 2:
        raise DimensionError(f"expected at most 2 dimensions, got shape {arr.shape}")
    return arr


class DiffValue:
    """A matrix participating in reverse-mode differentiation.

    ``grad`` has the same shape as ``value`` and holds d(loss)/d(value)
    after a backward pass from a scalar loss. No gradient array exists
    until the pass reaches the value; an unreached value reads as zeros.
    The array may be shared with other values' gradients, so treat it as
    read-only.
    """

    __slots__ = ("value", "_grad", "_tape", "__weakref__")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self._grad = None
        self._tape = tape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            return np.zeros_like(self.value)
        return self._grad

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"DiffValue(shape={self.value.shape})"


class _Node:
    __slots__ = ("out", "parents", "backward_fn")

    def __init__(self, out, parents, backward_fn):
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations; replay in reverse to get gradients."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._released = 0
        self._backward_done = False

    def leaf(self, value) -> DiffValue:
        """Register an input (parameter or data constant) on this tape."""
        arr = _as_matrix(value)
        if not np.all(np.isfinite(arr)):
            raise ContractError("leaf values must be finite")
        return DiffValue(arr, self)

    def _record(self, out: DiffValue, parents: Sequence[DiffValue],
                backward_fn: Callable[[np.ndarray], tuple]) -> DiffValue:
        self._nodes.append(_Node(out, tuple(parents), backward_fn))
        return out

    def backward(self, loss: DiffValue) -> None:
        """Accumulate d(loss)/d(x) into ``x.grad`` for every reachable x.

        ``loss`` must be a (1, 1) scalar produced on this tape. The sweep
        releases each recorded operation once its adjoint is applied, so a
        tape supports exactly one backward pass.
        """
        if loss._tape is not self:
            raise ContractError("loss was not computed on this tape")
        if loss.value.shape != (1, 1):
            raise ContractError(f"loss must be 1x1, got {loss.value.shape}")
        if self._backward_done:
            raise ContractError("tape already differentiated; build a new tape")
        self._backward_done = True

        nodes, self._nodes = self._nodes, []
        self._released = len(nodes)
        loss._grad = np.ones((1, 1))
        while nodes:
            node = nodes.pop()
            g = node.out._grad
            if g is None or not g.any():
                continue
            for parent, pg in zip(node.parents, node.backward_fn(g)):
                # out of place: adjoints may hand the same array to two parents
                parent._grad = pg if parent._grad is None else parent._grad + pg

    def __len__(self):
        """Number of operations recorded, including those already released."""
        return self._released + len(self._nodes)


def _same_tape(*vals: DiffValue) -> Tape:
    tape = vals[0]._tape
    for v in vals[1:]:
        if v._tape is not tape:
            raise ContractError("operands live on different tapes")
    return tape


def matmul(a: DiffValue, b: DiffValue) -> DiffValue:
    """Matrix product a @ b."""
    tape = _same_tape(a, b)
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions differ, {a.value.shape} @ {b.value.shape}")
    out = DiffValue(a.value @ b.value, tape)
    av, bv = a.value, b.value

    def backward_fn(g):
        return g @ bv.T, av.T @ g

    return tape._record(out, (a, b), backward_fn)


def checked_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a plain square array via LAPACK LU, with a condition guard.

    Raises :class:`SingularMatrixError` (carrying the infinity-norm
    condition estimate) when ``a`` is singular, holds NaN or Inf, or its
    estimated condition number exceeds ``COND_CAP``.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix is {a.shape}, not square")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular matrix: {exc}") from exc
    cond = float(np.linalg.norm(a, np.inf) * np.linalg.norm(inv, np.inf))
    if not np.isfinite(cond) or cond > COND_CAP:
        raise SingularMatrixError(
            f"condition estimate {cond:.3e} exceeds cap {COND_CAP:.3e}", cond)
    return inv


def matinv(a: DiffValue) -> DiffValue:
    """Matrix inverse on the tape; see :func:`checked_inverse` for the guard."""
    tape = _same_tape(a)
    inv = checked_inverse(a.value)
    out = DiffValue(inv, tape)

    def backward_fn(g):
        # d(inv(A)) = -inv(A) dA inv(A)  =>  grad_A = -inv^T g inv^T
        return (-inv.T @ g @ inv.T,)

    return tape._record(out, (a,), backward_fn)


def _activate(h: np.ndarray, fn: str) -> np.ndarray:
    """Apply activation ``fn`` to ``h`` in place and return ``h``."""
    if fn == "tanh":
        np.tanh(h, out=h)
    elif fn == "relu":
        np.maximum(h, 0.0, out=h)
    elif fn != "identity":
        raise ContractError(f"unknown activation {fn!r}, expected one of {ACTIVATIONS}")
    return h


def _activation_adjoint(g: np.ndarray, out: np.ndarray, fn: str) -> np.ndarray:
    """``g`` times the activation's slope, read from its output ``out``.

    relu's output is positive exactly where its input is, so the mask
    taken from the output equals the one taken from the input.
    """
    if fn == "tanh":
        return g * (1.0 - out * out)
    if fn == "relu":
        return g * (out > 0.0)
    return g


def elementwise(a: DiffValue, fn: str) -> DiffValue:
    """Apply an activation entrywise; ``fn`` is one of tanh/relu/identity."""
    tape = _same_tape(a)
    out_val = _activate(a.value.copy(), fn)
    out = DiffValue(out_val, tape)
    return tape._record(out, (a,),
                        lambda g: (_activation_adjoint(g, out_val, fn),))


def dense(w: DiffValue, x: DiffValue, b: DiffValue, fn: str) -> DiffValue:
    """One MLP layer ``fn(w @ x + b)`` as a single tape operation.

    ``b`` is a (rows of w, 1) bias column added to every column. Only the
    product is a new array: the bias and the activation are applied to it
    in place, and ``w``, ``x`` and ``b`` are never written.
    """
    tape = _same_tape(w, x, b)
    if w.value.shape[1] != x.value.shape[0]:
        raise DimensionError(
            f"dense: inner dimensions differ, {w.value.shape} @ {x.value.shape}")
    if b.value.shape != (w.value.shape[0], 1):
        raise DimensionError(
            f"dense: bias must be ({w.value.shape[0]}, 1), got {b.value.shape}")
    wv, xv = w.value, x.value
    h = wv @ xv
    h += b.value
    _activate(h, fn)
    out = DiffValue(h, tape)

    def backward_fn(g):
        gz = _activation_adjoint(g, h, fn)
        return gz @ xv.T, wv.T @ gz, gz.sum(axis=1, keepdims=True)

    return tape._record(out, (w, x, b), backward_fn)


def _check_same_shape(a: DiffValue, b: DiffValue, opname: str):
    if a.value.shape != b.value.shape:
        raise DimensionError(
            f"{opname}: shapes differ, {a.value.shape} vs {b.value.shape}")


def add(a: DiffValue, b: DiffValue) -> DiffValue:
    tape = _same_tape(a, b)
    _check_same_shape(a, b, "add")
    out = DiffValue(a.value + b.value, tape)
    return tape._record(out, (a, b), lambda g: (g, g))


def sub(a: DiffValue, b: DiffValue) -> DiffValue:
    tape = _same_tape(a, b)
    _check_same_shape(a, b, "sub")
    out = DiffValue(a.value - b.value, tape)
    return tape._record(out, (a, b), lambda g: (g, -g))


def add_bias(a: DiffValue, b: DiffValue) -> DiffValue:
    """Add a (r, 1) bias column to every column of a (r, c) matrix."""
    tape = _same_tape(a, b)
    if b.value.shape != (a.value.shape[0], 1):
        raise DimensionError(
            f"add_bias: bias must be ({a.value.shape[0]}, 1), got {b.value.shape}")
    out = DiffValue(a.value + b.value, tape)
    return tape._record(out, (a, b),
                        lambda g: (g, g.sum(axis=1, keepdims=True)))


def scale(a: DiffValue, c: float) -> DiffValue:
    """Multiply by a (non-differentiated) scalar constant."""
    tape = _same_tape(a)
    c = float(c)
    out = DiffValue(c * a.value, tape)
    return tape._record(out, (a,), lambda g: (c * g,))


def sum_sq_norm(a: DiffValue) -> DiffValue:
    """Squared Frobenius/L2 norm as a (1, 1) scalar."""
    tape = _same_tape(a)
    out = DiffValue(np.array([[np.sum(a.value * a.value)]]), tape)
    av = a.value
    return tape._record(out, (a,), lambda g: (2.0 * g[0, 0] * av,))


def gather_cols(a: DiffValue, indices) -> DiffValue:
    """Select columns ``a[:, indices]``; the adjoint scatter-adds back."""
    tape = _same_tape(a)
    idx = np.asarray(indices, dtype=np.intp).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[1]):
        raise DimensionError(
            f"gather_cols: index out of range for {a.value.shape[1]} columns")
    out = DiffValue(a.value[:, idx].copy(), tape)
    rows, cols = a.value.shape

    def backward_fn(g):
        # one bincount over all rows; each entry sums its columns in index order
        flat = (idx + cols * np.arange(rows)[:, None]).ravel()
        buf = np.bincount(flat, weights=g.ravel(), minlength=rows * cols)
        return (buf.reshape(rows, cols),)

    return tape._record(out, (a,), backward_fn)
