"""Leaky integrate-and-fire layer dynamics.

The membrane update is the hard-reset iterative form

    v' = kappa * v * (1 - s) + input_current

with an optional gating tensor ``u`` multiplying the decayed history term:

    v' = kappa * v * u * (1 - s) + input_current

``u`` is the per-neuron attention value from the previous timestep; with
``u`` identically one the gated update degenerates to the plain one bitwise
(the factor ordering below is chosen to guarantee that), so a gate branch
whose parameters make it exactly one, a spatial branch with weight 0 and
bias 40 say, reproduces the variant without that branch.

``lif_sequence`` is what the network layers run: the whole tail of one
layer after its synapse as a single graph node. For a conv layer that is
batch norm, the T-step LIF and attention-gate recurrence and the k*k
average pool of each step's spikes; dense and voting layers use it without
norm or pool. Its forward is plain numpy and runs the same operations in
the same order as the composition ``tensor.batchnorm`` -> per-step
``lif_step`` / ``lif_step_attended`` with ``attention.compute_attention``
-> ``tensor.avgpool2d``, so its outputs, membrane and running statistics
are bitwise those of the composition; the batch-norm and pool arithmetic
is the same numpy helpers those ops run. It works one time step at a time:
the batch statistics are full-array reductions, but each step's normalized
current, spikes and pooled spikes go through step buffers allocated once
per call, so no normalized or float spike map of all steps exists. Without
a graph to record (``no_grad``, or no parent needs a gradient) two
membrane steps roll, unless the caller asks for the trace.

Its backward walks the steps in reverse time through pool, v, s and the
gate, backpropagation through time with the surrogate spike slope, again
in step buffers; each step's current gradient goes straight into the
gradient it returns, and batch norm's closed-form input gradient is then
computed in place in it. The node saves the membrane, the gate's per-step
values, batch norm's normalized input and the spikes; Heaviside spikes are
exactly 0/1, so they are saved as bits (``bool``) and recast per step.
Smooth spikes are real-valued and saved as they are. The per-step
functions stay as the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .attention import AttentionParams
from .errors import ParameterError, ShapeError
from .tensor import (
    BN_EPS,
    BN_MOMENTUM,
    SURROGATE_ALPHA,
    BatchNormState,
    Tensor,
    _avgpool,
    _avgpool_backward,
    _bn_batch_stats,
    _bn_eval_backward,
    _bn_eval_coeffs,
    _bn_train_backward,
    _check_finite,
    _check_norm_params,
    _check_pool,
    _fire,
    _grad_enabled,
    _result,
    _sigmoid,
    _sigmoid_backward,
    _surrogate_backward,
    _unbroadcast,
    smooth_spike,
    spike,
)


@dataclass(frozen=True)
class LifConfig:
    """Threshold and decay of one LIF population (resting potential is 0)."""

    v_th: float
    kappa: float

    def __post_init__(self):
        if self.v_th <= 0:
            raise ParameterError(f"v_th must be positive, got {self.v_th}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ParameterError(f"kappa must be in [0, 1], got {self.kappa}")


@dataclass
class LayerState:
    """Carried across timesteps: membrane potential and previous spikes."""

    v: Tensor
    s: Tensor


def initial_state(shape, dtype=np.float32) -> LayerState:
    zeros = np.zeros(shape, dtype=dtype)
    return LayerState(v=Tensor(zeros), s=Tensor(zeros.copy()))


def lif_step(state: LayerState, input_current: Tensor, cfg: LifConfig, smooth: bool = False):
    """One plain membrane update; returns (new_state, spikes).

    ``smooth`` swaps the Heaviside spike for its smooth surrogate so that the
    whole trajectory is finite-difference checkable.
    """
    if state.v.shape != input_current.shape:
        raise ShapeError(
            f"lif_step: state {state.v.shape} vs input {input_current.shape}"
        )
    v_new = (cfg.kappa * state.v) * (1.0 - state.s) + input_current
    s_new = smooth_spike(v_new, cfg.v_th) if smooth else spike(v_new, cfg.v_th)
    return LayerState(v=v_new, s=s_new), s_new


def lif_step_attended(
    state: LayerState,
    input_current: Tensor,
    u: Tensor,
    cfg: LifConfig,
    smooth: bool = False,
):
    """Gated membrane update: the decayed history is scaled elementwise by u.

    u must broadcast to the membrane shape; gradient flows into u through
    the saved kappa * v * (1 - s) factor.
    """
    if u is None:
        raise ParameterError("lif_step_attended requires a gating tensor; use lif_step")
    if state.v.shape != input_current.shape:
        raise ShapeError(
            f"lif_step_attended: state {state.v.shape} vs input {input_current.shape}"
        )
    try:
        np.broadcast_shapes(u.shape, state.v.shape)
    except ValueError:
        raise ShapeError(f"gate shape {u.shape} does not broadcast to {state.v.shape}")
    v_new = ((cfg.kappa * state.v) * u) * (1.0 - state.s) + input_current
    s_new = smooth_spike(v_new, cfg.v_th) if smooth else spike(v_new, cfg.v_th)
    return LayerState(v=v_new, s=s_new), s_new


# ---------------------------------------------------------------------------
# the fused T-step node


class _Gate:
    """The attention gate of one layer in numpy: the same operations as
    ``attention.compute_attention`` (the 1x1 ``conv2d`` is its contraction
    over channels plus the bias) and a backward for them. It computes the
    branches whose parameters ``params`` holds, and holds their arrays in
    ``AttentionParams.named`` order, not their tensors."""

    def __init__(self, params: AttentionParams):
        self.spatial = params.spatial_weight is not None
        self.channel = params.reduce_weight is not None
        self.weights = [p.data for _, p in params.named()]

    def forward(self, s: np.ndarray):
        """Gate u (broadcastable to s) from the spike map s [B, C, H, W], and
        what backward needs: (spatial sigmoid, channel sigmoid, post-ReLU
        hidden, channel mean)."""
        b, c, h, w = s.shape
        us = uc = hidden = mean = None
        if self.spatial:
            weight, bias = self.weights[0], self.weights[1]
            z = np.matmul(weight.reshape(1, c), s.reshape(b, c, h * w)).reshape(b, 1, h, w)
            z += bias[None, :, None, None]
            us = _sigmoid(z)
        if self.channel:
            reduce_w, expand_w = self.weights[-2], self.weights[-1]
            mean = s.mean(axis=(2, 3))
            hidden = np.maximum(mean @ reduce_w.T, 0.0).astype(s.dtype, copy=False)
            uc = _sigmoid(hidden @ expand_w.T)
        return self.combine(us, uc), (us, uc, hidden, mean)

    @staticmethod
    def combine(us, uc):
        """The gate from its spatial [B, 1, H, W] and channel [B, C] parts."""
        if us is None:
            return uc[:, :, None, None]  # broadcasts over space
        if uc is None:
            return us  # broadcasts over channels
        return us * uc[:, :, None, None]

    def backward(self, du: np.ndarray, s: np.ndarray, saved, grads, ds: np.ndarray) -> None:
        """Backward of the gate built from spike map s, for gate gradient
        ``du`` (shaped like the gate): add the parameter gradients to
        ``grads`` (one array per entry of ``weights``) and the gradient of s
        to ``ds``."""
        us, uc, hidden, mean = saved
        b, c, h, w = s.shape
        grads = iter(grads)
        if self.spatial:
            # the sum over channels of du * u_channel, as a product
            dus = du if uc is None else np.matmul(uc[:, None, :], du.reshape(b, c, h * w))
            dz = _sigmoid_backward(dus.reshape(b, 1, h * w), us.reshape(b, 1, h * w))
            dw = np.matmul(s.reshape(b, c, h * w), dz.transpose(0, 2, 1)).sum(axis=0)
            next(grads)[...] += dw.reshape(1, c, 1, 1)
            next(grads)[...] += dz.sum()
            ds += self.weights[0].reshape(1, c, 1, 1) * dz.reshape(b, 1, h, w)
        if self.channel:
            # the sum over space of du * u_spatial, as a product
            duc = du if us is None else np.matmul(du.reshape(b, c, h * w), us.reshape(b, h * w, 1))
            reduce_w, expand_w = self.weights[-2], self.weights[-1]
            dy = _sigmoid_backward(duc.reshape(b, c), uc)
            dhidden = (dy @ expand_w) * (hidden > 0)
            next(grads)[...] += dhidden.T @ mean
            next(grads)[...] += dy.T @ hidden
            ds += ((dhidden @ reduce_w) / (h * w)).reshape(b, c, 1, 1)


class BatchNorm(NamedTuple):
    """The batch norm a layer node applies to its currents: scale and shift
    parameters, running statistics, and whether batch statistics (training)
    or the running ones (eval) normalize."""

    gamma: Tensor
    beta: Tensor
    state: BatchNormState
    training: bool


def lif_sequence(
    currents: Tensor,
    cfg: LifConfig,
    attention: Optional[AttentionParams] = None,
    smooth: bool = False,
    *,
    timesteps: int,
    norm: Optional[BatchNorm] = None,
    pool: int = 1,
    keep_membrane: bool = False,
) -> Tuple[Tensor, Optional[np.ndarray]]:
    """Run one layer's T LIF steps on its input currents as a single graph
    node; returns (spikes, membrane [T, B, ...] or None).

    ``currents`` is the step-major [T*B, ...] a synapse produces, with
    ``timesteps`` = T; the spikes come back in the same layout.
    With ``norm`` the currents (then [.., C, H, W]) are batch-normalized
    first, and with ``pool`` = k each step's spikes are k*k average-pooled.
    With ``attention`` every step from the second on gates the decayed
    history with the gate built from the previous step's spikes; its
    branches are those whose parameters ``attention`` holds.

    The membrane of all T steps is kept when a graph is recorded (backward
    reads it) or ``keep_membrane`` asks for it; otherwise two steps roll and
    the membrane returned is None. The membrane array is what the backward
    reads: do not write it.
    """
    x = currents.data
    if timesteps < 1 or x.ndim < 2 or x.shape[0] % timesteps:
        raise ShapeError(f"lif_sequence: currents {x.shape} do not split into {timesteps} steps")
    t_steps = timesteps
    xs = x.reshape((t_steps, x.shape[0] // t_steps) + x.shape[1:])
    step_shape = xs.shape[1:]
    if (attention is not None or norm is not None or pool != 1) and len(step_shape) != 4:
        raise ShapeError(f"lif_sequence: a gated, normalized or pooled layer needs [B, C, H, W] steps, got {x.shape}")
    pooled = pool != 1
    if pooled:
        _check_pool(step_shape, pool, "lif_sequence")
    parents = [currents]
    if norm is not None:
        _check_norm_params(step_shape[1], norm.gamma, norm.beta, "lif_sequence")
        parents += [norm.gamma, norm.beta]
    gate = None
    if attention is not None:
        gate = _Gate(attention)
        parents += [p for _, p in attention.named()]
    record = _grad_enabled() and any(p.requires_grad for p in parents)
    needs_grad = [p.requires_grad for p in parents]
    dtype = x.dtype
    kappa = dtype.type(cfg.kappa)
    v_th, alpha = cfg.v_th, SURROGATE_ALPHA

    # the membrane: every step when backward reads it or the caller asks,
    # else two that roll. Float spikes: the output itself without a pool,
    # with one the smooth spikes backward reads, or two rolling steps
    rolling = not (record or keep_membrane)
    v = np.empty(((2,) if rolling else (t_steps,)) + step_shape, dtype=dtype)
    s = np.empty((t_steps if not pooled or record and smooth else 2,) + step_shape, dtype=dtype)
    # backward reads the spikes only as the reset factor and the gate's
    # input: Heaviside spikes are exactly 0/1 and are kept as bits
    s_saved = None if not record else s if smooth else np.empty(xs.shape, dtype=bool)
    out = s
    if pooled:
        b, c, h, w = step_shape
        out = np.empty((t_steps, b, c, h // pool, w // pool), dtype=dtype)
    # step buffers: the step's normalized current and its 1 - s_{t-1}
    cur = np.empty(step_shape, dtype=dtype) if norm is not None else None
    keep = np.empty(step_shape, dtype=dtype)
    if norm is not None:
        c = step_shape[1]
        x4 = x.reshape((-1,) + step_shape[1:])
        gamma4, beta4 = norm.gamma.data.reshape(1, c, 1, 1), norm.beta.data.reshape(1, c, 1, 1)
        if norm.training:
            # the squared deviations go into the membrane buffer before its first step
            square = None if rolling else v.reshape(x4.shape)
            xhat, std = _bn_batch_stats(x4, norm.state, BN_MOMENTUM, BN_EPS, square=square)
            xhat_s = xhat.reshape(xs.shape)
        else:
            m, std, scale, shift = _bn_eval_coeffs(norm.state, gamma4, beta4, dtype, BN_EPS)
            x_read = x4 if needs_grad[1] else None  # for the gamma gradient

    saved = [None] * t_steps  # gate internals of each gated step
    for t in range(t_steps):
        v_t, s_t = v[t % len(v)], s[t % len(s)]
        if norm is None:
            i_t = xs[t]
        elif norm.training:
            i_t = np.multiply(gamma4, xhat_s[t], out=cur)
            i_t += beta4
        else:
            i_t = np.multiply(xs[t], scale, out=cur)
            i_t += shift
        if t == 0:
            # v_{-1} = s_{-1} = 0: the history term is +0, as the full update makes it
            np.add(i_t, 0.0, out=v_t)
        else:
            s_prev = s[(t - 1) % len(s)]
            np.multiply(v[(t - 1) % len(v)], kappa, out=v_t)
            if gate is not None:
                u, internals = gate.forward(s_prev)
                _check_finite(u, "lif_sequence (attention gate)")
                v_t *= u
                if record:
                    saved[t] = internals
            v_t *= np.subtract(1.0, s_prev, out=keep)
            v_t += i_t
        if rolling:
            _check_finite(v_t, "lif_sequence (membrane)")
        _fire(v_t, v_th, alpha, smooth, out=s_t)
        if s_saved is not None and not smooth:
            s_saved[t] = s_t
        if pooled:
            _avgpool(s_t, pool, out=out[t])
    if not rolling:
        _check_finite(v, "lif_sequence (membrane)")
    out_step, x_shape, seq_shape = out.shape[1:], x.shape, xs.shape
    out = out.reshape((-1,) + out.shape[2:])

    def backward(g):
        g = g.reshape((t_steps,) + out_step)
        # the gradient of the (normalized) currents, of every step when a
        # parent reads it, else of one step at a time
        full = needs_grad[0] or norm is not None and (needs_grad[1] or needs_grad[2])
        gcur = np.empty(seq_shape, dtype=dtype) if full else None
        # step buffers: z of the surrogate slope, the carries into step t-1,
        # the expanded pool gradient, gv (when gcur does not hold it), the
        # spikes recast from bits and the decayed history of a gated layer;
        # training batch norm's products reuse their block afterwards
        rows = 3 + pooled + (not full) + (not smooth) + (gate is not None)
        bn_products = full and norm is not None and norm.training
        work = np.empty((max(rows, t_steps) if bn_products else rows,) + step_shape, dtype=dtype)
        take = iter(work)
        z, ghist, carry_s = next(take), next(take), next(take)
        g_step = next(take) if pooled else None
        gv_step = None if full else next(take)
        s_step = None if smooth else next(take)
        hist = None if gate is None else next(take)
        gate_grads = [np.zeros_like(w) for w in gate.weights] if gate is not None else []
        for t in reversed(range(t_steps)):
            g_t = _avgpool_backward(g[t], pool, g_step) if pooled else g[t]
            if t < t_steps - 1:  # s_t also fed step t+1
                carry_s += g_t
                g_t = carry_s
            gv = _surrogate_backward(g_t, v[t], v_th, alpha, out=gcur[t] if full else gv_step, scratch=z)
            if t < t_steps - 1:
                gv += ghist  # the gradient of v_t through step t+1
            if t == 0:
                break
            # v_t = (kappa * v_{t-1}) [* u_t] * (1 - s_{t-1}) + i_t, in place:
            # hist is the decayed history, ghist the gradient of the gated one
            if smooth:
                s_prev = s_saved[t - 1]
            else:
                s_prev = s_step
                s_prev[...] = s_saved[t - 1]
            np.subtract(1.0, s_prev, out=ghist)
            ghist *= gv
            if gate is not None:
                us, uc, _, _ = saved[t]
                u = gate.combine(us, uc)
                np.multiply(v[t - 1], kappa, out=hist)
                np.multiply(hist, u, out=carry_s)
                hist *= ghist  # the gate's gradient, before the sum over broadcast axes
                ghist *= u
            else:
                np.multiply(v[t - 1], kappa, out=carry_s)
            carry_s *= gv
            np.negative(carry_s, out=carry_s)  # the reset term: d/ds of (.) * (1 - s)
            if gate is not None:
                gate.backward(_unbroadcast(hist, u.shape), s_prev, saved[t], gate_grads, carry_s)
            ghist *= kappa
        grads = [gcur] if norm is None else [gcur, None, None]
        if norm is not None and full:
            g4 = gcur.reshape((-1,) + step_shape[1:])
            if bn_products:
                scratch = work[:t_steps].reshape(g4.shape)
                grads = list(_bn_train_backward(g4, xhat, gamma4, std, needs_grad[0], out=g4, scratch=scratch))
            else:
                grads = list(_bn_eval_backward(g4, x_read, m, std, scale, needs_grad[0], needs_grad[1], out=g4))
        if grads[0] is not None:
            grads[0] = grads[0].reshape(x_shape)
        grads += gate_grads
        for grad in grads:
            if grad is not None:
                _check_finite(grad, "lif_sequence (gradient)")
        return tuple(grad if needed else None for grad, needed in zip(grads, needs_grad))

    return _result(out, parents, backward), None if rolling else v
