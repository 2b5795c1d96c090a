"""Dense N-dimensional arrays with reverse-mode automatic differentiation.

The graph is a DAG of ``_Node``s, kept apart from the values: a ``Tensor``
holds its array and its node, and every operation that sees at least one
``requires_grad`` input gives its result a node over its inputs' nodes with
a backward rule. A node holds no values, so an intermediate array lives only
while its ``Tensor`` does or a backward rule saved it, and each rule saves
exactly the arrays it reads (batch norm its normalized input, a product the
other factor only when this one needs a gradient, a reduction or a reshape
only shapes). ``Tensor.backward()`` walks the nodes once in reverse
topological order and accumulates gradients additively across fan-out,
which is what makes the layer-edge and time-edge contributions of an
unrolled spiking network fall out of the chain rule instead of hand-coded
update formulas. A leaf's node points back to its tensor, which receives
``.grad``; the tensors the graph does not track share one constant node.

Backward rules do no work for a parent that does not require a gradient:
they return None in its place rather than computing a gradient that would
be thrown away (the constant scalars and zero states of the LIF update, the
raw input frames of the first convolution).

Spike nonlinearities come in two flavors: ``spike`` is the exact Heaviside
step with a surrogate (arctan-shaped) backward, and ``smooth_spike`` is the
sigmoid-like arctan primitive itself with its exact derivative, used when a
network must be end-to-end finite-difference checkable.

``conv2d`` is an im2col matrix product. The patch matrix, a [n, cin, k, k,
L] buffer, is gathered in two stages, per chunk of (sample, channel)
planes whose column slab fits ``_CONV_SLAB_BYTES``. First each kernel
column copies the input columns it reads, over every row a window
reaches, into the slab, whose padding stays zero. Then each kernel row
copies its rows of the slab into the patches: for stride 1, one contiguous
h_out x w_out block per plane and kernel column. So the copies run over
whole blocks, not one output row of 8-32 elements at a time, and the
chunk's slab is still in cache for the second stage. The product lands
directly in [n, cout, L]. The backward folds the patch gradients back onto
the input (col2im) by the exact transpose: each kernel row adds its patch
gradients into the zeroed slab, then each kernel column adds its span of
the slab into the input gradient. So a pixel's gradient is summed over
kernel rows per column, in the patch gradients' type, then over columns,
in the input's, whatever the chunk. The batch goes through in blocks of
samples whose patch matrix fits ``_CONV_BLOCK_BYTES``. Every sample's
product is the same call whatever the block, and the weight gradient is
the sum of the samples' in sample order, so the block size does not
change any result.

The blocks of one call run side by side: on the calling thread and on a
process-wide pool of ``conv_workers - 1`` threads (``Settings``), made at
the first call that splits. numpy and BLAS release the GIL, so the threads
overlap, and BLAS itself keeps whatever thread count the environment gives
it. A call splits over ``_threads(blocks // _CONV_BLOCKS_PER_WORKER)``
threads; a call with fewer blocks stays on its caller, since handing a
block of about a millisecond to another thread does not pay. That gate and
the timings behind it were measured with two threads and BLAS pinned to
one thread; with more CPUs, or with BLAS starting its own threads inside
each part, they are unmeasured. Each thread claims the next block when it
is free, so a thread the host deschedules holds up at most the block it is
on. Each thread has its own patch buffer and gather and col2im slabs,
allocated per call on the calling thread (a buffer a pool thread allocated
would stay in that thread's malloc arena); in the backward a block's patch
gradients overwrite its patches once the weight gradient has read them.
The runner, ``_run_blocks``, only hands out independent blocks, and
ordered sums run on the caller, as in the layer node: the backward goes in
rounds of one block a thread, and after each round the caller adds the
round's per-sample weight-gradient products in sample order. Each block
also takes its samples' sums of the output gradient over L, and the caller
adds them in sample order for the bias gradient, numpy's order for the
whole array. So which thread computes a block, and how many threads there
are, changes no bit. A call returns, or raises the first error, only once
none of its pool tasks is running. A call on one thread runs its blocks on
the caller directly, with no queue. The layer node in ``neuron`` runs the
sample ranges of its time steps through the same runner, so the node
starts no thread of its own and its one-range calls take the same direct
path; ``training`` fills a batch of event frames through it, one stream
per block.

``avgpool2d`` sums k*k strided slices into one buffer and scales it once.
``batchnorm`` is one graph node with a closed-form backward. ``transpose``
permutes axes into a contiguous copy.

The network's conv layers do not call ``batchnorm`` or ``avgpool2d``: their
layer node in ``neuron`` normalizes, fires and pools one time step at a
time. Both ops stay for pools that follow no conv layer and as that node's
reference. The numpy forms they share with it take output and scratch
buffers, and the elementwise ones act on any range of samples, so the
node runs the same arithmetic without full-map temporaries: per-frame
sums over a map ``_frame_sums`` and their per-channel totals in frame
order ``_sum_frames`` / ``_mean_of_frames`` (for C > 1 bitwise numpy's
whole-array sum and mean over (0, 2, 3), so every range or block can take
its frames' share), batch norm's squared deviations ``_bn_square``,
running-statistic fold ``_bn_fold``, normalize step ``_bn_normalize``,
eval coefficients ``_bn_eval_coeffs`` and closed-form input gradients
``_bn_train_dx`` / ``_bn_eval_backward``,
the slice-sum pool ``_avgpool`` and its gradient ``_avgpool_backward``,
the logistic function and the spike nonlinearities (``_sigmoid``, ``_fire``,
``_surrogate_backward``): each formula is written once.

Set the environment variable ``SPIKEFUSE_DEBUG_NAN=1`` to assert that every
operation output is finite (the fused LIF node also checks its membrane, its
gate and its gradients). It is read at the first call that needs it, never
at import.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import math
import os
import threading

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, StateError

DEFAULT_DTYPE = np.float32
SURROGATE_ALPHA = 2.0

# conv2d works through the batch in blocks of samples whose patch matrix
# fits in this many bytes, about half the L2 cache of a core; a fixed number,
# so a run's block sizes do not depend on the machine.
_CONV_BLOCK_BYTES = 1 << 20
# im2col and col2im go through their column slab in chunks of planes whose
# slab fits in this many bytes, so that the second stage reads it from
# cache: a whole-block slab of 128-channel maps does not fit. Fixed like the
# block size.
_CONV_SLAB_BYTES = 1 << 18
# A call splits only with at least this many blocks per thread; fewer do not
# pay for the handoff (see the per-layer table in CHANGES.md, measured with
# two threads and BLAS pinned to one thread).
_CONV_BLOCKS_PER_WORKER = 2

# Graph recording is per-thread: independent graphs may run on separate
# threads, and one thread's no_grad must not leak into another's training.
_tls = threading.local()


@dataclasses.dataclass(frozen=True)
class Settings:
    """What the engine reads from its process: ``conv_workers``, one per CPU
    it may run on, and ``debug_nan``, whether ``SPIKEFUSE_DEBUG_NAN`` is 1."""

    conv_workers: int
    debug_nan: bool

    @classmethod
    def from_process(cls) -> Settings:
        """A bad ``SPIKEFUSE_DEBUG_NAN`` raises ParameterError naming it and its value."""
        value = os.environ.get("SPIKEFUSE_DEBUG_NAN", "")
        if value not in ("", "0", "1"):
            raise ParameterError(f"SPIKEFUSE_DEBUG_NAN must be unset, empty, 0 or 1, got {value!r}")
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        return cls(workers, value == "1")


# Filled in place, never rebound, so running the engine leaves every module
# attribute as import made it.
_settings: list[Settings] = []  # the settings, added at the first call that needs them
_pools: dict = {}  # conv_workers -> its pool, made at the first call that splits


def settings() -> Settings:
    """The settings in effect, read from the process at the first call."""
    if not _settings:  # threads that race here add the same values; the first is used
        _settings.append(Settings.from_process())
    return _settings[0]


def _threads(cap: int) -> int:
    """The threads for a call with work for ``cap``: at most the workers."""
    return max(1, min(settings().conv_workers, cap))


def _grad_enabled() -> bool:
    return getattr(_tls, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    prev = _grad_enabled()
    _tls.grad_enabled = False
    try:
        yield
    finally:
        _tls.grad_enabled = prev


def _coerce(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(DEFAULT_DTYPE)


class _Node:
    """A vertex of the autodiff graph. It holds no values: the nodes of its
    parents, its backward rule (whose closure keeps exactly the arrays the
    rule reads) and, on a leaf, the tensor that receives ``.grad``."""

    __slots__ = ("_parents", "_backward_fn", "requires_grad", "tensor")

    def __init__(self, parents=(), backward_fn=None, requires_grad=True, tensor=None):
        self._parents = parents
        self._backward_fn = backward_fn
        self.requires_grad = requires_grad
        self.tensor = tensor


# the node of every tensor the graph does not track: constants and results
# computed without a requires_grad input or under no_grad
_CONSTANT = _Node(requires_grad=False)


class Tensor:
    """A numpy-backed array value, optionally tracked by the autodiff graph
    through its node (``_node``)."""

    __slots__ = ("data", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        self.grad = None
        self._node = _Node(tensor=self) if requires_grad else _CONSTANT

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def _parents(self):
        """The nodes of the inputs this tensor was computed from."""
        return self._node._parents

    @property
    def _backward_fn(self):
        return self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node._backward_fn = fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            _raise_scalar(self)
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``grad`` on every reachable ``requires_grad`` leaf.

        The seed gradient is 1; repeated calls accumulate additively, use
        ``zero_grad`` between passes. The loss must be a scalar.
        """
        if self.data.size != 1:
            _raise_scalar(self)
        order = _topo_order(self._node)
        grads = {id(self._node): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward_fn is None:
                leaf = node.tensor
                if leaf is not None:
                    leaf.grad = g if leaf.grad is None else leaf.grad + g
                continue
            parent_grads = node._backward_fn(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                if pid in grads:
                    grads[pid] = grads[pid] + pg
                else:
                    grads[pid] = pg

    # Operator sugar; every rule lives in the module-level functions below.
    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    def __radd__(self, other):
        return add(_wrap(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _wrap(other, self.dtype))

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    def __rmul__(self, other):
        return mul(_wrap(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, _wrap(other, self.dtype))

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_scalar(self, exponent)

    def __getitem__(self, index):
        return getitem(self, index)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def _raise_scalar(t):
    raise ShapeError(f"expected a scalar tensor, got shape {t.shape}")


def _wrap(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _topo_order(root: _Node):
    """Reverse topological order over requires_grad nodes, iterative so deep
    time-unrolled graphs never hit the recursion limit."""
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if parent.requires_grad and id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                break
        else:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def _check_finite(data: np.ndarray, what: str = "an operation") -> None:
    """With the debug flag on, raise NumericError if ``data`` is not finite."""
    if (_settings[0] if _settings else settings()).debug_nan and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite value produced by {what}")


def _result(data: np.ndarray, parents, backward_fn) -> Tensor:
    _check_finite(data)
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out._node = _Node(tuple(p._node for p in parents), backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not broadcast-compatible")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _grad_shape(t: Tensor):
    """The shape of ``t`` if it needs a gradient, else None."""
    return t.shape if t.requires_grad else None


def _data_for(t: Tensor, partner: Tensor):
    """The array of ``t`` if ``partner``'s gradient reads it, else None."""
    return t.data if partner.requires_grad else None


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    a_shape, b_shape = _grad_shape(a), _grad_shape(b)
    return _result(
        a.data + b.data,
        (a, b),
        lambda g: (
            None if a_shape is None else _unbroadcast(g, a_shape),
            None if b_shape is None else _unbroadcast(g, b_shape),
        ),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    a_shape, b_shape = _grad_shape(a), _grad_shape(b)
    return _result(
        a.data - b.data,
        (a, b),
        lambda g: (
            None if a_shape is None else _unbroadcast(g, a_shape),
            None if b_shape is None else _unbroadcast(-g, b_shape),
        ),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    a_shape, b_shape = _grad_shape(a), _grad_shape(b)
    ad, bd = _data_for(a, b), _data_for(b, a)
    return _result(
        a.data * b.data,
        (a, b),
        lambda g: (
            None if a_shape is None else _unbroadcast(g * bd, a_shape),
            None if b_shape is None else _unbroadcast(g * ad, b_shape),
        ),
    )


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting elementwise product (alias of ``mul``)."""
    return mul(a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "div")
    a_shape, b_shape = _grad_shape(a), _grad_shape(b)
    ad, bd = _data_for(a, b), b.data
    return _result(
        a.data / bd,
        (a, b),
        lambda g: (
            None if a_shape is None else _unbroadcast(g / bd, a_shape),
            None if b_shape is None else _unbroadcast(-g * ad / (bd * bd), b_shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), lambda g: (-g,))


def pow_scalar(a: Tensor, exponent: float) -> Tensor:
    e = float(exponent)
    ad = a.data
    return _result(
        ad**e,
        (a,),
        lambda g: (g * e * ad ** (e - 1.0),),
    )


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _result(out_data, (a,), lambda g: (g * 0.5 / out_data,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in the dtype of ``x``, split by sign so that no
    exponential overflows at float32."""
    e = np.exp(-np.abs(x))
    return (np.where(x >= 0, 1, e) / (1.0 + e)).astype(x.dtype, copy=False)


def _sigmoid_backward(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``g`` through a logistic function whose output was ``out``."""
    return g * out * (1.0 - out)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)
    return _result(out_data, (a,), lambda g: (_sigmoid_backward(g, out_data),))


def relu(a: Tensor) -> Tensor:
    ad = a.data
    return _result(
        np.maximum(ad, 0.0).astype(ad.dtype, copy=False),
        (a,),
        lambda g: (g * (ad > 0),),
    )


# ---------------------------------------------------------------------------
# spike nonlinearities


def _surrogate_z(v: np.ndarray, v_th: float, alpha: float, out=None) -> np.ndarray:
    z = np.subtract(v, v_th, out=out)
    z *= (math.pi / 2.0) * alpha
    return z


def _fire(v: np.ndarray, v_th: float, alpha: float, smooth: bool, out=None) -> np.ndarray:
    """Spikes of membrane ``v``, into ``out`` if given: the exact 0/1
    Heaviside step, or with ``smooth`` the arctan curve ``atan(z)/pi + 1/2``
    in (0, 1)."""
    if smooth:
        a = _surrogate_z(v, v_th, alpha, out=out)
        np.arctan(a, out=a)
        a /= math.pi
        a += 0.5
        return a
    return np.greater_equal(v, v_th, out=np.empty_like(v) if out is None else out)


def _surrogate_backward(g, v, v_th: float, alpha: float, out=None, scratch=None) -> np.ndarray:
    """``g`` times the arctan surrogate slope ``(alpha/2) / (1 + z**2)`` at
    ``v``, with ``z = (pi/2) * alpha * (v - v_th)``: the exact derivative of
    the smooth curve and the stand-in derivative of the step. The result
    goes into ``out`` and ``z`` into ``scratch`` when they are given."""
    z = _surrogate_z(v, v_th, alpha, out=scratch)
    z *= z
    z += 1.0
    out = np.multiply(g, alpha / 2.0, out=out)
    out /= z
    return out


def spike(v: Tensor, v_th: float, alpha: float = SURROGATE_ALPHA) -> Tensor:
    """Heaviside threshold producing exact 0/1 values; backward uses the
    arctan surrogate slope."""
    vd = v.data
    return _result(
        _fire(vd, v_th, alpha, smooth=False),
        (v,),
        lambda g: (_surrogate_backward(g, vd, v_th, alpha),),
    )


def smooth_spike(v: Tensor, v_th: float, alpha: float = SURROGATE_ALPHA) -> Tensor:
    """Smooth surrogate activation in (0, 1); forward is the arctan curve the
    ``spike`` backward is derived from, so analytic and finite-difference
    gradients of a network built on this op agree."""
    vd = v.data
    return _result(
        _fire(vd, v_th, alpha, smooth=True),
        (v,),
        lambda g: (_surrogate_backward(g, vd, v_th, alpha),),
    )


def dropout(x: Tensor, rate: float, mask: np.ndarray) -> Tensor:
    """Multiply by a caller-supplied 0/1 mask scaled by 1/(1-rate).

    The mask is provided explicitly so a layer can hold it fixed across
    timesteps.
    """
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    mask = np.asarray(mask)
    try:
        broadcast = np.broadcast_shapes(mask.shape, x.shape)
    except ValueError:
        broadcast = None
    if broadcast != x.shape:
        raise ShapeError(f"dropout mask shape {mask.shape} does not broadcast to input {x.shape}")
    scaled = (mask / (1.0 - rate)).astype(x.dtype)
    return mul(x, Tensor(scaled))


# ---------------------------------------------------------------------------
# reductions and shape ops


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    out_data = a.data.sum(axis=axes, keepdims=keepdims)
    shape, dtype = a.shape, a.dtype

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

    return _result(out_data, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    out_data = a.data.mean(axis=axes, keepdims=keepdims)
    shape, dtype = a.shape, a.dtype

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, shape).astype(dtype, copy=False),)

    return _result(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape, a_shape = tuple(shape), a.shape
    return _result(a.data.reshape(shape), (a,), lambda g: (g.reshape(a_shape),))


def getitem(a: Tensor, index) -> Tensor:
    out_data = a.data[index]
    shape, dtype = a.shape, a.dtype

    def backward(g):
        buf = np.zeros(shape, dtype=dtype)
        np.add.at(buf, index, g)
        return (buf,)

    return _result(out_data, (a,), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("stack of zero tensors")
    first = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != first:
            raise ShapeError(f"stack: mismatched shapes {first} vs {t.shape}")
    out_data = np.stack([t.data for t in tensors], axis=axis)
    return _result(out_data, tuple(tensors), lambda g: tuple(np.moveaxis(g, axis, 0)))


def transpose(a: Tensor, axes) -> Tensor:
    """Permute the axes of ``a`` into a contiguous copy (so reductions over
    the result run in the order they would on a freshly built array)."""
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of the {a.ndim} axes of {a.shape}")
    inverse = tuple(np.argsort(axes))
    return _result(
        np.ascontiguousarray(a.data.transpose(axes)),
        (a,),
        lambda g: (g.transpose(inverse),),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    ad, bd = _data_for(a, b), _data_for(b, a)
    return _result(
        a.data @ b.data,
        (a, b),
        lambda g: (None if bd is None else g @ bd.T, None if ad is None else ad.T @ g),
    )


# ---------------------------------------------------------------------------
# neural-network kernels


def _row_matmul(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x [n, F] @ m [F, O]`` as n one-row products. A row gets the same
    bits whatever rows come with it, which one product of all the rows,
    blocked by BLAS by their number, does not promise."""
    return np.matmul(x[:, None, :], m)[:, 0]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map: ``x [B,F] @ weight[O,F].T + bias[O]``."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {weight.shape}")
    out_data = x.data @ weight.data.T
    if bias is not None:
        if bias.shape != (weight.shape[0],):
            raise ShapeError(f"linear: bias {bias.shape} incompatible with weight {weight.shape}")
        out_data = out_data + bias.data
    wd, xd = _data_for(weight, x), _data_for(x, weight)
    bias_grad = bias is not None and bias.requires_grad

    def backward(g):
        return (
            None if wd is None else g @ wd,
            None if xd is None else g.T @ xd,
            g.sum(axis=0) if bias_grad else None,
        )

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out_data, parents, backward)


def _conv_out_size(n, k, stride, padding):
    return (n + 2 * padding - k) // stride + 1


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation with square kernels.

    ``x`` is [B, Cin, H, W], ``weight`` [Cout, Cin, k, k], ``bias`` [Cout].
    Output spatial size is ``floor((n + 2p - k)/stride) + 1`` per axis.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: need 4-D input/weight, got {x.shape}, {weight.shape}")
    b, cin, h, w = x.shape
    cout, cin_w, k, k2 = weight.shape
    if k != k2:
        raise ShapeError(f"conv2d: non-square kernel {k}x{k2}")
    if cin != cin_w:
        raise ShapeError(f"conv2d: input has {cin} channels, weight expects {cin_w}")
    if stride < 1:
        raise ParameterError(f"conv2d: stride must be positive, got {stride}")
    if padding < 0:
        raise ParameterError(f"conv2d: padding must be non-negative, got {padding}")
    if k > h + 2 * padding or k > w + 2 * padding:
        raise ShapeError(f"conv2d: kernel {k} exceeds padded extent ({h + 2 * padding}, {w + 2 * padding})")

    h_out = _conv_out_size(h, k, stride, padding)
    w_out = _conv_out_size(w, k, stride, padding)
    l, kk = h_out * w_out, k * k
    w_flat = weight.data.reshape(cout, cin * kk)
    blk = max(1, min(b, _CONV_BLOCK_BYTES // max(1, l * cin * kk * x.data.itemsize)))
    n_blocks = -(-b // blk)
    # the input is read again only for the weight gradient, the weight only
    # for the input gradient
    xd, w_t = _data_for(x, weight), w_flat.T if x.requires_grad else None
    x_shape, x_dtype, w_shape, w_dtype = x.shape, x.dtype, weight.shape, weight.dtype
    bias_grad = bias is not None and bias.requires_grad
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias {bias.shape} incompatible with weight {weight.shape}")

    out_data = np.empty((b, cout, h_out, w_out), dtype=x.dtype)
    out3 = out_data.reshape(b, cout, l)
    parts = _threads(n_blocks // _CONV_BLOCKS_PER_WORKER)
    gathers = [_im2col(x.data, k, stride, padding, h_out, w_out, blk) for _ in range(parts)]

    def forward_block(part, block):
        lo, hi = block * blk, min(block * blk + blk, b)
        np.matmul(w_flat, gathers[part](lo, hi), out=out3[lo:hi])
        if bias is not None:
            out3[lo:hi] += bias.data[:, None]

    _run_blocks(parts, n_blocks, forward_block)

    def backward(g):
        g3 = g.reshape(b, cout, l)
        dw = dx = None
        if xd is not None:
            dw = np.zeros((cout, cin * kk), dtype=w_dtype)
            # block i's per-sample products, in slot i % parts of its round
            dw_parts = np.empty((parts, blk, cout, cin * kk), dtype=np.result_type(g, xd))
            dw_samples = dw_parts.reshape(parts * blk, cout, cin * kk)
            gathers = [_im2col(xd, k, stride, padding, h_out, w_out, blk) for _ in range(parts)]
        if w_t is not None:
            dx = np.zeros(x_shape, dtype=x_dtype)
            dtype = np.result_type(w_t, g)
            # a block reads its patches before it writes their gradients,
            # so the gradients go into the patch buffer when the types agree
            shared = xd is not None and xd.dtype == dtype
            dcols = None if shared else np.empty((parts, blk, cin * kk, l), dtype=dtype)
            scatters = [_col2im(dx, dtype, k, stride, padding, h_out, w_out, blk) for _ in range(parts)]
        # the bias gradient from each frame's sums over L, taken in the
        # blocks; numpy sums a one-channel gradient pairwise as one run
        bias_sums = np.empty((b, cout), dtype=g.dtype) if bias_grad and cout > 1 else None

        def backward_block(part, block):
            lo, hi = block * blk, min(block * blk + blk, b)
            n, gl = hi - lo, g3[lo:hi]
            if bias_sums is not None:
                _frame_sums(g[lo:hi], out=bias_sums[lo:hi])
            if dw is not None:
                patches = gathers[part](lo, hi)
                np.matmul(gl, patches.transpose(0, 2, 1), out=dw_parts[block % parts, :n])
            if dx is not None:
                scatters[part](lo, hi, np.matmul(w_t, gl, out=patches if dcols is None else dcols[part, :n]))

        # rounds of one block a thread; the caller then adds the round's
        # per-sample products in sample order, whatever the block
        for first in range(0, n_blocks, parts):
            m = min(parts, n_blocks - first)
            _run_blocks(m, m, lambda part, i: backward_block(part, first + i))
            if dw is not None:
                for sample in dw_samples[: min(b, (first + m) * blk) - first * blk]:
                    np.add(dw, sample, out=dw)
        db = None
        if bias_grad:
            db = g.sum(axis=(0, 2, 3)) if bias_sums is None else _sum_frames(bias_sums)
        return dx, None if dw is None else dw.reshape(w_shape), db

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _result(out_data, parents, backward)


def _column_slab(h, w, k, stride, padding, h_out, w_out, planes, dtype):
    """The column slab [m, k, hs, w_out] that ``_im2col`` and ``_col2im``
    share, for chunks of m <= ``planes`` [h, w] input planes whose slab fits
    ``_CONV_SLAB_BYTES``. Its [:, j] holds the padded planes' columns j,
    j + stride, ... over their first hs rows, every row a window reaches, so
    kernel row i's patches are its rows i, i + stride, .... Returns the
    zeroed slab, the count of input rows it holds (from slab row
    ``padding``), and (j, slab columns, input columns) for each kernel
    column j that reaches the input; no other cell maps to the input."""
    hs = k + stride * (h_out - 1)
    m = max(1, min(planes, _CONV_SLAB_BYTES // (k * hs * w_out * np.dtype(dtype).itemsize)))
    spans = []
    for j in range(k):
        # slab column q holds input column j + stride * q - padding
        q0, q1 = max(0, -((j - padding) // stride)), min(w_out, -((j - padding - w) // stride))
        if q0 < q1:
            c0 = j + stride * q0 - padding
            spans.append((j, slice(q0, q1), slice(c0, c0 + stride * (q1 - q0 - 1) + 1, stride)))
    return np.zeros((m, k, hs, w_out), dtype=dtype), max(0, min(h, hs - padding)), spans


def _im2col(xd, k, stride, padding, h_out, w_out, blk):
    """A function (lo, hi) -> the patch matrix [hi - lo, cin*k*k, L] of
    samples lo:hi of ``xd`` (at most ``blk`` of them). Per chunk of planes,
    each kernel column copies the input columns it reads into the slab
    (``_column_slab``), then each kernel row copies its rows of the slab
    into the patches. The slab and patch buffers are made once here; nothing
    writes the slab's padding, so it stays zero."""
    _, cin, h, w = xd.shape
    slab, rows, spans = _column_slab(h, w, k, stride, padding, h_out, w_out, blk * cin, xd.dtype)
    reach = stride * (h_out - 1) + 1
    cols = np.empty((blk * cin, k, k, h_out, w_out), dtype=xd.dtype)

    def gather(lo, hi):
        n = hi - lo
        planes = xd[lo:hi].reshape(n * cin, h, w)
        for p in range(0, n * cin, len(slab)):
            m = min(len(slab), n * cin - p)
            for j, slab_cols, x_cols in spans:
                slab[:m, j, padding : padding + rows, slab_cols] = planes[p : p + m, :rows, x_cols]
            for i in range(k):
                cols[p : p + m, i] = slab[:m, :, i : i + reach : stride]
        return cols[: n * cin].reshape(n, cin * k * k, h_out * w_out)

    return gather


def _col2im(dx, dtype, k, stride, padding, h_out, w_out, blk):
    """The transpose of ``_im2col``: a function (lo, hi, dpatches) that adds
    the patch gradients [hi - lo, cin*k*k, L] of samples lo:hi into the
    contiguous ``dx`` [B, cin, h, w]. Per chunk of planes, each kernel row
    adds its patch gradients into the zeroed slab, summed in ``dtype``, then
    each kernel column adds its span of the slab into ``dx``."""
    _, cin, h, w = dx.shape
    slab, rows, spans = _column_slab(h, w, k, stride, padding, h_out, w_out, blk * cin, dtype)
    reach = stride * (h_out - 1) + 1
    planes = dx.reshape(-1, h, w)

    def scatter(lo, hi, dpatches):
        dcols, block = dpatches.reshape(-1, k, k, h_out, w_out), planes[lo * cin : hi * cin]
        for p in range(0, len(block), len(slab)):
            m = min(len(slab), len(block) - p)
            acc = slab[:m]
            acc.fill(0)
            for i in range(k):
                acc[:, :, i : i + reach : stride] += dcols[p : p + m, i]
            for j, slab_cols, x_cols in spans:
                block[p : p + m, :rows, x_cols] += acc[:, j, padding : padding + rows, slab_cols]

    return scatter


def _run_blocks(parts: int, n: int, work) -> None:
    """Run ``work(part, i)`` for every block i < n on ``parts`` threads: the
    caller and ``parts - 1`` pool tasks, each with its own buffers (``part``).
    Each thread claims the next block when it is free and stops once any
    thread has failed; with one part the caller runs the blocks directly.
    Returns or raises only when no task is still running."""
    if parts == 1:
        for block in range(n):
            work(0, block)
        return
    blocks, lock, failed = iter(range(n)), threading.Lock(), threading.Event()

    def run(part):
        try:
            while True:
                with lock:
                    block = None if failed.is_set() else next(blocks, None)
                if block is None:
                    return
                work(part, block)
        except BaseException:
            failed.set()
            raise

    workers = settings().conv_workers
    # two threads may both make a pool; setdefault keeps the first
    pool = _pools.get(workers) or _pools.setdefault(
        workers, concurrent.futures.ThreadPoolExecutor(max(1, workers - 1), "spikefuse-conv"))
    tasks = [pool.submit(run, part) for part in range(1, parts)]
    try:
        run(0)
    finally:
        # a task that has not started would find no block left
        for task in tasks:
            task.cancel()
        concurrent.futures.wait(tasks)
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            raise task.exception()


def _avgpool(x: np.ndarray, k: int, out=None) -> np.ndarray:
    """Non-overlapping k*k means over the last two axes of ``x``, into
    ``out`` if given: k*k strided-slice sums into one buffer, in row-major
    window order, scaled once."""
    windows = [x[..., i::k, j::k] for i in range(k) for j in range(k)]
    out = np.add(windows[0], windows[1], out=out) if k > 1 else np.positive(x, out=out)
    for window in windows[2:]:
        out += window
    out /= k * k
    return out


def _avgpool_backward(g: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
    """The gradient of ``_avgpool`` for output gradient ``g``, into ``out``:
    every element of a window gets its g / (k*k), divided straight into the
    forward's k*k strided slices."""
    for i in range(k):
        for j in range(k):
            np.divide(g, k * k, out=out[..., i::k, j::k])
    return out


def avgpool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k*k mean pooling; extents must be divisible by k."""
    if x.ndim != 4:
        raise ShapeError(f"avgpool2d: need 4-D input, got {x.shape}")
    _check_pool(x.shape, k, "avgpool2d")
    shape, dtype = x.shape, x.dtype
    return _result(
        _avgpool(x.data, k), (x,),
        lambda g: (_avgpool_backward(g, k, np.empty(shape, dtype=dtype)),),
    )


def _check_pool(shape, k: int, op: str) -> None:
    if k < 1:
        raise ParameterError(f"{op}: k must be positive, got {k}")
    if shape[-2] % k or shape[-1] % k:
        raise ShapeError(f"{op}: extents {tuple(shape[-2:])} not divisible by {k}")


class BatchNormState:
    """Running statistics for one batch-norm site."""

    __slots__ = ("mean", "var", "initialized")

    def __init__(self, channels: int, dtype=DEFAULT_DTYPE):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.initialized = False


# Batch norm reduces [N, C, H, W] over every axis but the channel's.
_BN_AXES = (0, 2, 3)
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


def _bn_square(x: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The squared deviations ``(x - m)**2`` of any range of ``x`` from the
    batch mean ``m`` [1, C, 1, 1], into ``out`` (shaped like ``x``)."""
    np.subtract(x, m, out=out)
    return np.multiply(out, out, out=out)


def _frame_sums(x: np.ndarray, out=None) -> np.ndarray:
    """The sums over the last two axes of every frame and channel of any
    range ``x`` [..., C, H, W], into ``out`` [..., C] if given: the first
    stage of numpy's sum of a C-contiguous [N, C, H, W] array over (0, 2,
    3), a pairwise sum over H*W for each frame and channel."""
    return np.sum(x, axis=(-2, -1), out=out)


def _sum_frames(sums: np.ndarray) -> np.ndarray:
    """The per-channel total of per-frame sums ``sums`` [..., C], the rows
    added in frame order: numpy's second stage. With C > 1 this is bitwise
    the whole-array sum over (0, 2, 3); one channel numpy sums pairwise as
    one run."""
    return np.add.reduce(sums.reshape(-1, sums.shape[-1]), axis=0)


def _mean_of_frames(sums: np.ndarray, n: int) -> np.ndarray:
    """The per-channel mean of ``n`` values a channel from their per-frame
    sums, divided as ``ndarray.mean`` divides: in float64 by an ``intp``
    count, cast back."""
    total = _sum_frames(sums)
    return np.true_divide(total, np.intp(n), out=total, casting="unsafe")


def _bn_fold(state: BatchNormState, m: np.ndarray, var: np.ndarray, n: int) -> np.ndarray:
    """From the batch mean ``m`` and variance ``var`` of ``n`` values a
    channel: returns ``std`` [1, C, 1, 1] and folds the batch statistics
    into ``state`` as ``BN_MOMENTUM * old + (1 - BN_MOMENTUM) * batch`` (the
    running variance takes the unbiased estimate)."""
    c = var.size
    unbias = n / (n - 1) if n > 1 else 1.0
    # in-place so captured references (checkpointing) stay valid
    state.mean[...] = BN_MOMENTUM * state.mean + (1.0 - BN_MOMENTUM) * m.reshape(c)
    state.var[...] = BN_MOMENTUM * state.var + (1.0 - BN_MOMENTUM) * unbias * var.reshape(c)
    state.initialized = True
    return np.sqrt(var.reshape(1, c, 1, 1) + var.dtype.type(BN_EPS))


def _bn_normalize(x: np.ndarray, m: np.ndarray, std: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``xhat = (x - m) / std`` of any range of ``x``, into ``out``."""
    np.subtract(x, m, out=out)
    return np.divide(out, std, out=out)


def _bn_eval_coeffs(state: BatchNormState, gamma4: np.ndarray, beta4: np.ndarray, dtype):
    """Eval-mode batch norm as ``x * scale + shift`` from the running
    statistics: returns (mean, std, scale, shift), each [1, C, 1, 1]."""
    if not state.initialized:
        raise StateError("batchnorm: eval mode requested before any statistics exist")
    c = gamma4.shape[1]
    m = state.mean.reshape(1, c, 1, 1).astype(dtype)
    std = np.sqrt(state.var.reshape(1, c, 1, 1).astype(dtype) + dtype.type(BN_EPS))
    scale = gamma4 / std
    return m, std, scale, beta4 - m * scale


def _bn_train_dx(g, xhat, dbeta, dgamma, gamma4, std, n: int, out, scratch) -> np.ndarray:
    """Training-mode batch norm's input gradient on any range of the output
    gradient ``g``, in closed form through the batch mean and variance:
    ``dx = ((g - dbeta/n) - xhat * (dgamma/n)) * (gamma/std)``, where
    ``dbeta`` and ``dgamma`` are the sums over the whole batch of ``g`` and
    ``g * xhat`` and ``n`` the count per channel. ``dx`` goes into ``out``,
    which may be ``g`` itself; the products into ``scratch``."""
    c = gamma4.shape[1]
    dx = np.subtract(g, (dbeta / n).reshape(1, c, 1, 1), out=out)
    dx -= np.multiply(xhat, (dgamma / n).reshape(1, c, 1, 1), out=scratch)
    dx *= gamma4 / std
    return dx


def _bn_eval_backward(g, x, m, std, scale, x_grad: bool, gamma_grad: bool, out=None):
    """(dx, dgamma, dbeta) of eval-mode batch norm of ``x`` for output
    gradient ``g``; ``x`` is read only for dgamma. ``dx`` goes into ``out``,
    which may be ``g`` itself, so it is computed last."""
    dgamma = (g * ((x - m) / std)).sum(axis=_BN_AXES) if gamma_grad else None
    dbeta = g.sum(axis=_BN_AXES)
    dx = np.multiply(g, scale, out=out) if x_grad else None
    return dx, dgamma, dbeta


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Per-channel normalization of a [B, C, H, W] tensor.

    Training mode normalizes with batch statistics over (B, H, W) and folds
    them into ``state`` as ``BN_MOMENTUM * old + (1 - BN_MOMENTUM) * batch``
    (the running variance uses the unbiased estimate). Eval mode normalizes
    with the stored statistics, as a per-channel ``x * scale + shift``, and
    raises if none were ever computed. Either way the result is one graph
    node over (x, gamma, beta). The numpy helpers it runs are shared with
    the fused layer node in ``neuron``.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm: need 4-D input, got {x.shape}")
    _check_norm_params(x.shape[1], gamma, beta, "batchnorm")
    c = x.shape[1]
    x_grad, gamma_grad, beta_grad = x.requires_grad, gamma.requires_grad, beta.requires_grad
    gamma4 = gamma.data.reshape(1, c, 1, 1)
    beta4 = beta.data.reshape(1, c, 1, 1)
    if training:
        # every per-channel sum from per-frame sums, as the layer node takes them
        n = x.size // c
        m = _mean_of_frames(_frame_sums(x.data), n).reshape(1, c, 1, 1)
        xhat = _bn_square(x.data, m, np.empty_like(x.data))
        std = _bn_fold(state, m, _mean_of_frames(_frame_sums(xhat), n), n)
        xhat = _bn_normalize(x.data, m, std, out=xhat)
        out_data = gamma4 * xhat
        out_data += beta4

        def grads(g):
            dbeta = _sum_frames(_frame_sums(g))
            product = g * xhat
            dgamma = _sum_frames(_frame_sums(product))
            dx = _bn_train_dx(g, xhat, dbeta, dgamma, gamma4, std, n, None, product) if x_grad else None
            return dx, dgamma, dbeta

    else:
        m, std, scale, shift = _bn_eval_coeffs(state, gamma4, beta4, x.dtype)
        out_data = x.data * scale
        out_data += shift
        xd = _data_for(x, gamma)

        def grads(g):
            return _bn_eval_backward(g, xd, m, std, scale, x_grad, gamma_grad)

    def backward(g):
        dx, dgamma, dbeta = grads(g)
        return dx, dgamma if gamma_grad else None, dbeta if beta_grad else None

    return _result(out_data, (x, gamma, beta), backward)


def _check_norm_params(c: int, gamma: Tensor, beta: Tensor, op: str) -> None:
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"{op}: gamma/beta must be shape ({c},)")


# ---------------------------------------------------------------------------
# parameter initialization


def kaiming_uniform(shape, fan_in: int, rng, dtype=DEFAULT_DTYPE) -> Tensor:
    """ReLU-gain Kaiming-uniform draw: U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    bound = math.sqrt(6.0 / fan_in)
    data = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return Tensor(data, requires_grad=True)


def zeros_param(shape, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def ones_param(shape, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
