"""Minimal reverse-mode automatic differentiation over dense matrices.

Everything is a 2-D float array: vectors are (n, 1) columns, scalars are
(1, 1), and :meth:`Tape.leaf` and :meth:`Tape.constant` refuse any other
rank. A value is float32 or float64, and each gradient has its value's
dtype. An operation computes in its operands' dtype, so a model can run
its MLP layers in float32 while the matrices it differentiates through an
inverse stay float64:
:func:`similarity` forms ``inv(S) @ K @ S`` from float64 ``S`` and ``K``,
hands it over in another precision and returns float64 gradients, and
:func:`gather_sq_dist` sums in float64 whatever its operands' dtype, so a
loss built from its terms is float64. Operations record
themselves on a :class:`Tape` in execution order, which is automatically a
topological order, so a backward pass is a single reverse sweep. Gradients
accumulate (sum) across fan-out; a fresh tape is used per training step, so
there is nothing to reset.

Gradients are materialised lazily: a value holds no gradient array until
the sweep reaches it. An adjoint returns arrays it allocated, one to each
parent, so a value's first contribution becomes its gradient and later
ones are added into that array in place. An adjoint may instead subtract
its contribution into an operand's existing gradient itself and return
``None`` for that operand, as :func:`gather_sq_dist`'s does for ``b``.
The sweep drops each contribution once it is added and releases each node
once its adjoint is applied, so no contribution lives into the next
adjoint, after :meth:`Tape.backward` the tape keeps no activations or
closures, and reference counting frees a step's intermediates as soon as
the caller drops them, without waiting for the cyclic garbage collector.
A value refers to its tape weakly, so a tape dropped before its backward
pass, with whatever it recorded, is freed the same way.

A whole dense layer, ``act(w @ x + b)``, records as one operation,
:func:`dense`. Its forward, :func:`dense_forward`, which the untaped
``MlpParams.forward`` calls too, allocates one array, the product, and adds
the bias and applies the activation to it in place; its adjoint derives the
activation's slope from that output. The values and gradients are the
same float operations in the same order as the chain
:func:`matmul` -> :func:`add_bias` -> :func:`elementwise`, which remain
available as separate operations.

A squared distance to gathered columns, ``||a[:, idx] - b||^2``, records
as one operation too, :func:`gather_sq_dist`. It keeps no array of its
own: the forward squares the residual in place, sums it and drops it, and
the adjoint gathers the residual again, a bounded chunk of columns at a
time, instead of holding it on the tape until the backward pass. Its
value and gradients are those of :func:`gather_cols` -> :func:`sub` ->
:func:`sum_sq_norm`, bit for bit.

A squared distance to a whole MLP's output, ``||target[:, idx] - mlp(z)||^2``,
records as one operation, :func:`mlp_sq_dist`, which may count each
column's squares a given number of times. The distance's gradient at the
MLP's output is local to each column, so its forward runs the layers and
their adjoint block of columns by block of columns, and the tape keeps
none of the MLP's activations and recomputes none: only the parameter
gradients and the gradient at the first layer.

The lifted dynamics record as two operations: :func:`similarity`, whose
value is that of :func:`matinv` -> :func:`matmul` -> :func:`matmul` bit for
bit, and :func:`rollout`, whose ``steps`` blocks are the chained
:func:`matmul` values bit for bit, side by side in one array.

A training step records only :func:`dense`, :func:`similarity`,
:func:`gather_cols`, :func:`rollout`, :func:`gather_sq_dist` (the lin term),
:func:`mlp_sq_dist` (the pred and rec terms), :func:`add` and :func:`scale`.

Data enters a tape as a constant (:meth:`Tape.constant`): the caller's
array itself, neither copied nor scanned, that never receives a gradient.
The sweep drops every contribution to a constant, and the adjoint of
:func:`dense` does not form the product that would make one.

Only the operations needed to train small fully-connected networks and to
differentiate through products like ``inv(S) @ K @ S`` are provided. There
is no broadcasting beyond the explicit column-bias cases in
:func:`add_bias` and :func:`dense`, and no higher-order derivatives.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, SingularMatrixError

ACTIVATIONS = ("tanh", "relu", "identity")

# the precisions a value may have; a leaf of any other dtype becomes float64
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

COND_CAP = 1e8


class DiffValue:
    """A matrix participating in reverse-mode differentiation.

    ``grad`` has the same shape as ``value`` and holds d(loss)/d(value)
    after a backward pass from a scalar loss. No gradient array exists
    until the pass reaches the value; an unreached value, like a constant
    (:meth:`Tape.constant`), reads as zeros.
    The array belongs to this value alone: no other value's gradient shares
    its memory, and the adjoints of :func:`dense` and :func:`rollout` use
    their output's array as workspace, so after the pass it holds their
    intermediate sums instead. The value refers to its tape weakly, so a
    tape and its values form no reference cycle.
    """

    __slots__ = ("value", "_grad", "_tape", "__weakref__")

    # False for a constant, which the backward sweep gives no gradient
    needs_grad = True

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self._grad = None
        self._tape = tape._ref

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            return np.zeros_like(self.value)
        return self._grad


class _Constant(DiffValue):
    """A data operand: the caller's array, which no gradient reaches."""

    __slots__ = ()
    needs_grad = False


class _Node:
    __slots__ = ("out", "parents", "backward_fn")

    def __init__(self, out, parents, backward_fn):
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of operations; replay in reverse to get gradients."""

    def __init__(self):
        self._ref = weakref.ref(self)
        self._nodes: list[_Node] = []
        self._released = 0
        self._backward_done = False

    def leaf(self, value) -> DiffValue:
        """Register a copy of a 2-D input to differentiate, such as a parameter.

        A float32 or float64 input keeps its dtype; any other becomes float64.
        """
        arr = np.asarray(value)
        dtype = arr.dtype if arr.dtype in FLOAT_DTYPES else np.float64
        arr = np.array(arr, dtype=dtype, copy=True, order="C")
        if arr.ndim != 2:
            raise DimensionError(f"a leaf must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractError("leaf values must be finite")
        return DiffValue(arr, self)

    def constant(self, value: np.ndarray) -> DiffValue:
        """Register a 2-D float array as data: not copied, not scanned, no gradient.

        No operation writes its operands, so the tape reads ``value`` itself,
        and the caller answers for its values being finite.
        """
        if value.ndim != 2 or value.dtype not in FLOAT_DTYPES:
            raise DimensionError(
                f"a constant must be a 2-D float array, got {value.dtype} {value.shape}")
        return _Constant(value, self)

    def _record(self, out: DiffValue, parents: Sequence[DiffValue],
                backward_fn: Callable[[np.ndarray], tuple]) -> DiffValue:
        self._nodes.append(_Node(out, tuple(parents), backward_fn))
        return out

    def backward(self, loss: DiffValue) -> None:
        """Accumulate d(loss)/d(x) into ``x.grad`` for every reachable x.

        ``loss`` must be a (1, 1) scalar produced on this tape. The sweep skips
        an operation only when no loss reaches it (its gradient is ``None``),
        drops what an adjoint returns for a constant, and skips a ``None``,
        which an adjoint returns for a constant or for an operand whose
        existing gradient it subtracted its contribution into itself. It
        releases each operation once its adjoint is applied: one backward
        per tape. A contribution added into an existing gradient is freed
        before the next adjoint runs.
        """
        if loss._tape is not self._ref:
            raise ContractError("loss was not computed on this tape")
        if loss.value.shape != (1, 1):
            raise ContractError(f"loss must be 1x1, got {loss.value.shape}")
        if self._backward_done:
            raise ContractError("tape already differentiated; build a new tape")
        self._backward_done = True

        nodes, self._nodes = self._nodes, []
        self._released = len(nodes)
        loss._grad = np.ones((1, 1), loss.value.dtype)
        while nodes:
            node = nodes.pop()
            if node.out._grad is not None:
                _apply_adjoint(node)

    def __len__(self):
        """Number of operations recorded, including those already released."""
        return self._released + len(self._nodes)


def _apply_adjoint(node: _Node) -> None:
    """Run ``node``'s adjoint and add what it returns into its parents'
    gradients, skipping a ``None`` and a constant's contribution.

    The contributions are this frame's alone, so each one that was added
    into an existing gradient is freed on return, before the sweep runs the
    next adjoint.
    """
    for parent, pg in zip(node.parents, node.backward_fn(node.out._grad)):
        if pg is None or not parent.needs_grad:
            continue
        if parent._grad is None:
            parent._grad = pg
        else:
            parent._grad += pg


def _same_tape(*vals: DiffValue) -> Tape:
    ref = vals[0]._tape
    for v in vals[1:]:
        if v._tape is not ref:
            raise ContractError("operands live on different tapes")
    tape = ref()
    if tape is None:
        raise ContractError("the operands' tape no longer exists")
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
    """Read-only inverse of a plain square array via LAPACK LU, with a condition guard.

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
    inv.flags.writeable = False
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


def similarity(s: DiffValue, k: DiffValue, dtype) -> DiffValue:
    """``inv(s) @ k @ s`` in ``s`` and ``k``'s precision, handed over in ``dtype``.

    The inverse has :func:`checked_inverse`'s guard, and the products are
    ``(inv(s) @ k) @ s``, the float operations of ``matmul(matmul(matinv(s),
    k), s)``. The gradients return in the precision of ``s`` and ``k``.
    """
    tape = _same_tape(s, k)
    if k.value.shape != s.value.shape:
        raise DimensionError(
            f"similarity: k is {k.value.shape}, s is {s.value.shape}")
    sv, kv = s.value, k.value
    inv = checked_inverse(sv)
    eff = inv @ kv @ sv
    out = DiffValue(eff.astype(dtype, copy=False), tape)

    def backward_fn(g):
        # d(eff) = -inv ds eff + inv dk s + inv k ds
        m = inv.T @ g.astype(eff.dtype, copy=False)
        gs = kv.T @ m
        gs -= m @ eff.T
        return gs, m @ sv.T

    return tape._record(out, (s, k), backward_fn)


def rollout(a: DiffValue, z0: DiffValue, steps: int) -> DiffValue:
    """``[a z0, a^2 z0, ..., a^steps z0]``, side by side, as one value.

    Block k (columns ``k m`` to ``(k + 1) m`` for an ``m``-column ``z0``)
    is ``a`` times block k - 1, written in place: the values of ``steps``
    chained :func:`matmul` calls, bit for bit. The adjoint runs the
    recursion ``G_k += a.T @ G_{k+1}`` in the output's gradient array, so
    after the backward pass that array holds the recursion's sums.
    """
    tape = _same_tape(a, z0)
    av, z0v = a.value, z0.value
    if av.shape[0] != av.shape[1] or av.shape[1] != z0v.shape[0]:
        raise DimensionError(f"rollout: {av.shape} cannot advance {z0v.shape}")
    if steps < 1:
        raise ContractError(f"rollout: steps must be >= 1, got {steps}")
    m = z0v.shape[1]
    Z = np.empty((av.shape[0], steps * m), np.result_type(av, z0v))
    z = z0v
    for k in range(steps):
        z = np.matmul(av, z, out=Z[:, k * m:(k + 1) * m])
    out = DiffValue(Z, tape)

    def backward_fn(g):
        for k in range(steps - 1, 0, -1):
            g[:, (k - 1) * m:k * m] += av.T @ g[:, k * m:(k + 1) * m]
        ga = g[:, :m] @ z0v.T
        ga += g[:, m:] @ Z[:, :-m].T
        return ga, av.T @ g[:, :m]

    return tape._record(out, (a, z0), backward_fn)


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
    """``g`` times the activation's slope, read from its output ``out``, written
    into ``g``, which is returned.

    relu's output is positive exactly where its input is, so the mask
    taken from the output equals the one taken from the input.
    """
    if fn == "tanh":
        slope = np.multiply(out, out)
        np.subtract(1.0, slope, out=slope)
        g *= slope
    elif fn == "relu":
        g *= out > 0.0
    return g


def elementwise(a: DiffValue, fn: str) -> DiffValue:
    """Apply an activation entrywise; ``fn`` is one of tanh/relu/identity."""
    tape = _same_tape(a)
    out_val = _activate(a.value.copy(), fn)
    out = DiffValue(out_val, tape)
    return tape._record(out, (a,),
                        lambda g: (_activation_adjoint(g.copy(), out_val, fn),))


def dense_forward(w: np.ndarray, x: np.ndarray, b: np.ndarray, fn: str) -> np.ndarray:
    """``fn(w @ x + b)`` on plain arrays; the product is the only new array."""
    h = w @ x
    h += b
    return _activate(h, fn)


def dense(w: DiffValue, x: DiffValue, b: DiffValue, fn: str) -> DiffValue:
    """One MLP layer ``fn(w @ x + b)`` as a single tape operation.

    ``b`` is a (rows of w, 1) bias column added to every column. Only the
    product is a new array: the bias and the activation are applied to it
    in place, and ``w``, ``x`` and ``b`` are never written. The adjoint
    applies the activation's slope in place in the output's gradient array,
    and forms no gradient for an ``x`` that is a constant.
    """
    tape = _same_tape(w, x, b)
    if w.value.shape[1] != x.value.shape[0]:
        raise DimensionError(
            f"dense: inner dimensions differ, {w.value.shape} @ {x.value.shape}")
    if b.value.shape != (w.value.shape[0], 1):
        raise DimensionError(
            f"dense: bias must be ({w.value.shape[0]}, 1), got {b.value.shape}")
    wv, xv = w.value, x.value
    h = dense_forward(wv, xv, b.value, fn)
    out = DiffValue(h, tape)
    need_x = x.needs_grad

    def backward_fn(g):
        gz = _activation_adjoint(g, h, fn)
        return gz @ xv.T, wv.T @ gz if need_x else None, gz.sum(axis=1, keepdims=True)

    return tape._record(out, (w, x, b), backward_fn)


def _check_same_shape(a: DiffValue, b: DiffValue, opname: str):
    if a.value.shape != b.value.shape:
        raise DimensionError(
            f"{opname}: shapes differ, {a.value.shape} vs {b.value.shape}")


def add(a: DiffValue, b: DiffValue) -> DiffValue:
    tape = _same_tape(a, b)
    _check_same_shape(a, b, "add")
    out = DiffValue(a.value + b.value, tape)
    return tape._record(out, (a, b), lambda g: (g.copy(), g.copy()))


def sub(a: DiffValue, b: DiffValue) -> DiffValue:
    tape = _same_tape(a, b)
    _check_same_shape(a, b, "sub")
    out = DiffValue(a.value - b.value, tape)
    return tape._record(out, (a, b), lambda g: (g.copy(), -g))


def add_bias(a: DiffValue, b: DiffValue) -> DiffValue:
    """Add a (r, 1) bias column to every column of a (r, c) matrix."""
    tape = _same_tape(a, b)
    if b.value.shape != (a.value.shape[0], 1):
        raise DimensionError(
            f"add_bias: bias must be ({a.value.shape[0]}, 1), got {b.value.shape}")
    out = DiffValue(a.value + b.value, tape)
    return tape._record(out, (a, b),
                        lambda g: (g.copy(), g.sum(axis=1, keepdims=True)))


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


def _column_indices(a: DiffValue, indices, opname: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[1]):
        raise DimensionError(
            f"{opname}: index out of range for {a.value.shape[1]} columns")
    return idx


def _scatter_cols(g: np.ndarray, idx: np.ndarray, cols: int) -> np.ndarray:
    """The adjoint of ``a[:, idx]`` for an ``a`` with ``cols`` columns: g's scatter-add.

    Each run of consecutive indices adds its columns of ``g`` with one
    slice-add, run after run in index order, into zeros of g's dtype. So
    every entry sums its columns in index order starting from 0.0, and a
    -0.0 in ``g`` scatters as +0.0.
    """
    out = np.zeros((g.shape[0], cols), g.dtype)
    for j0, j1, c in _column_runs(idx):
        out[:, c:c + j1 - j0] += g[:, j0:j1]
    return out


def _column_runs(idx: np.ndarray) -> list[tuple[int, int, int]]:
    """The runs of consecutive indices in ``idx``, in order: ``(j0, j1, c)``
    for each maximal ``idx[j0:j1] == range(c, c + j1 - j0)``."""
    # where a run starts: its index is not one more than the one before
    firsts = np.flatnonzero(np.diff(idx, prepend=-2) != 1).tolist()
    return [(j0, j1, int(idx[j0])) for j0, j1 in zip(firsts, firsts[1:] + [idx.size])]


def _run_chunks(idx: np.ndarray, width: int) -> list[list[tuple[int, int, int]]]:
    """``idx``'s runs (:func:`_column_runs`) in order, in chunks of consecutive
    runs that span at most ``width`` positions of ``idx``; a longer run takes
    a chunk of its own."""
    chunks = []
    for run in _column_runs(idx):
        if chunks and run[1] - chunks[-1][0][0] <= width:
            chunks[-1].append(run)
        else:
            chunks.append([run])
    return chunks


def gather_cols(a: DiffValue, indices) -> DiffValue:
    """Select columns ``a[:, indices]``; the adjoint scatter-adds back."""
    tape = _same_tape(a)
    idx = _column_indices(a, indices, "gather_cols")
    out = DiffValue(np.take(a.value, idx, axis=1), tape)
    cols = a.value.shape[1]
    return tape._record(out, (a,), lambda g: (_scatter_cols(g, idx, cols),))


def _residual(a: np.ndarray, idx: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[:, idx] - b`` as a new array; ``a`` and ``b`` are not written."""
    r = np.take(a, idx, axis=1)
    r -= b
    return r


def _sq_sum(r: np.ndarray, counts: np.ndarray | None = None) -> float:
    """The float64 sum of ``r``'s squares, column j counted ``counts[j]`` times
    when ``counts`` is given; ``r`` is squared in place."""
    r *= r
    if counts is None:
        return np.sum(r, dtype=np.float64)
    return np.sum(r, axis=0, dtype=np.float64) @ counts


# entries of the buffer in which gather_sq_dist's adjoint forms its residual,
# a chunk of index runs at a time; the bits do not depend on it
RUN_BUFFER_ENTRIES = 1 << 16


def gather_sq_dist(a: DiffValue, indices, b: DiffValue) -> DiffValue:
    """Squared distance ``||a[:, indices] - b||^2`` as a (1, 1) float64 scalar.

    No array of its own outlives the call: the forward squares the residual
    in place, and the adjoint forms it again from ``a`` and ``b``, which are
    never written, a chunk of consecutive index runs at a time in one buffer
    of ``RUN_BUFFER_ENTRIES`` entries (or of one longer run). Each chunk's
    scaled residual is added run by run into a scatter for ``a``'s gradient
    and subtracted from ``b``'s existing gradient, for which the adjoint
    returns ``None``; a ``b`` without one gets the negated residual as a new
    array. So no array the size of ``b`` is formed while ``b`` has a
    gradient. The residual and its squares are in the operands' dtype, their
    sum is accumulated in float64, and the gradients have the operands'
    dtype. For float64 operands the value and both gradients are the float
    operations of ``sum_sq_norm(sub(gather_cols(a, indices), b))`` in the
    same order: subtracting from ``b``'s gradient gives the bits of adding
    the negation.
    """
    tape = _same_tape(a, b)
    idx = _column_indices(a, indices, "gather_sq_dist")
    if b.value.shape != (a.value.shape[0], idx.size):
        raise DimensionError(
            f"gather_sq_dist: {idx.size} columns of {a.value.shape} vs {b.value.shape}")
    av, bv = a.value, b.value
    out = DiffValue(np.array([[_sq_sum(_residual(av, idx, bv))]]), tape)

    def backward_fn(g):
        # a Python float keeps a float32 residual's loop in float32
        c2 = float(2.0 * g[0, 0])
        # b's part goes into its existing gradient, or else into a new array
        gb = b._grad
        into = gb is not None
        if not into and b.needs_grad:
            gb = np.empty(bv.shape, av.dtype)
        ga = np.zeros(av.shape, av.dtype)
        rows = av.shape[0]
        chunks = _run_chunks(idx, max(RUN_BUFFER_ENTRIES // max(rows, 1), 1))
        buf = np.empty(rows * max((runs[-1][1] - runs[0][0] for runs in chunks), default=0),
                       av.dtype)
        for runs in chunks:
            j0, j1 = runs[0][0], runs[-1][1]
            r = buf[:rows * (j1 - j0)].reshape(rows, j1 - j0)
            # in range already; mode "raise" would copy through a buffer of its own
            np.take(av, idx[j0:j1], axis=1, out=r, mode="clip")
            r -= bv[:, j0:j1]
            r *= c2
            for k0, k1, c in runs:
                ga[:, c:c + k1 - k0] += r[:, k0 - j0:k1 - j0]
            if into:
                gb[:, j0:j1] -= r
            elif gb is not None:
                np.negative(r, out=gb[:, j0:j1])
        return ga, None if into else gb

    return tape._record(out, (a, b), backward_fn)


# columns per block of mlp_sq_dist's forward; a fixed width, so a value's
# bits do not depend on anything but its operands
BLOCK_COLS = 1024


def mlp_sq_dist(target: DiffValue, indices, z: DiffValue, weights: Sequence[DiffValue],
                biases: Sequence[DiffValue], fn: str, counts=None) -> DiffValue:
    """``||target[:, indices] - mlp(z)||^2`` as a (1, 1) float64 scalar, where
    ``mlp`` is the chain of :func:`dense` layers ``weights[k]``, ``biases[k]``
    with activation ``fn`` on every layer but the last; given ``counts``, one
    non-negative count per column, column j's squares count ``counts[j]`` times.

    ``target`` is a constant. The forward runs the columns of ``z`` in
    blocks of ``BLOCK_COLS``: it passes each block through the layers with
    :func:`dense_forward`, adds its residual's squares in float64, and runs
    the adjoint of a unit loss down to the first layer straight away, adding
    each block's parameter gradients in block order. So the tape keeps no
    activation, only the parameter gradients and the first layer's
    pre-activation gradient ``g0`` (first layer width x columns). The adjoint
    scales those by the incoming gradient and forms ``z``'s gradient as
    ``weights[0].T @ g0`` in one product. Values and gradients are those of
    the :func:`dense` chain followed by :func:`gather_sq_dist` of column j
    gathered ``counts[j]`` times, summed block by block in another order.
    """
    tape = _same_tape(target, z, *weights, *biases)
    if target.needs_grad:
        raise ContractError("mlp_sq_dist: the target must be a constant")
    idx = _column_indices(target, indices, "mlp_sq_dist")
    if counts is not None and np.shape(counts) != (idx.size,):
        raise DimensionError(f"mlp_sq_dist: {np.shape(counts)} counts for {idx.size} columns")
    ws = [w.value for w in weights]
    bs = [b.value for b in biases]
    rows = z.value.shape[0]
    for w, b in zip(ws, bs):
        if w.shape[1] != rows or b.shape != (w.shape[0], 1):
            raise DimensionError(
                f"mlp_sq_dist: layer {w.shape} with bias {b.shape} after {rows} rows")
        rows = w.shape[0]
    if (not ws or len(ws) != len(bs)
            or (rows, idx.size) != (target.value.shape[0], z.value.shape[1])):
        raise DimensionError(
            f"mlp_sq_dist: {len(ws)} layers and {len(bs)} biases map {z.value.shape} "
            f"to {rows} rows, against {idx.size} columns of {target.value.shape}")
    fns = [fn] * (len(ws) - 1) + ["identity"]
    zv, tv = z.value, target.value
    gws = [np.zeros_like(w) for w in ws]
    gbs = [np.zeros_like(b) for b in bs]
    g0 = np.empty((ws[0].shape[0], idx.size), np.result_type(ws[0], zv))
    total = 0.0
    for c0 in range(0, idx.size, BLOCK_COLS):
        cols = slice(c0, c0 + BLOCK_COLS)
        hs = [zv[:, cols]]
        for w, b, f in zip(ws, bs, fns):
            hs.append(dense_forward(w, hs[-1], b, f))
        r = _residual(tv, idx[cols], hs[-1])
        n_j = None if counts is None else counts[cols]
        g = np.multiply(r, -2.0 if n_j is None else (-2.0 * n_j).astype(r.dtype))
        total += _sq_sum(r, n_j)
        for k in range(len(ws) - 1, -1, -1):
            g = _activation_adjoint(g, hs[k + 1], fns[k])
            gws[k] += g @ hs[k].T
            gbs[k] += g.sum(axis=1, keepdims=True)
            if k:
                g = ws[k].T @ g
        g0[:, cols] = g
    out = DiffValue(np.array([[total]]), tape)
    kept = (*gws, *gbs)

    def backward_fn(g):
        c = float(g[0, 0])
        for a in (*kept, g0):
            a *= c
        return (ws[0].T @ g0, *kept)

    return tape._record(out, (z, *weights, *biases), backward_fn)
