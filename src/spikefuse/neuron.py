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

Its steps run over ranges of samples through ``tensor._run_blocks``, the
runner conv2d uses, one range per thread when a step holds at least
``_SPLIT_STEP_BYTES`` per range; a smaller call has one range, the whole
batch, which the runner runs on the caller. A range computes what is per
sample: the normalized current, the gated membrane update, the spikes and
their bits, the pool, and the next step's spatial gate and channel means;
in the backward the pool gradient, the carries, the surrogate slope, the
reset term, the spatial branch's per-sample gradients and the gradient of
the channel gate's input. Every reduction over samples stays on the
caller, on the whole batch, in the serial order: batch norm's statistics
and closed-form gradient, the channel branch's matrix products (BLAS may
block a product of fewer rows differently) and the sums over samples of
the spatial weight and bias gradients. An elementwise operation or a
per-sample product gives a sample the same bits in any range, so every
output, membrane, running statistic and gradient is bitwise the same for
any number of threads. The channel branch needs every sample's mean of
step t for the gate of step t+1, so a layer with one makes one runner
call per step, on one range or many, and the caller runs the branch's
products between the calls; a call carries step t's update and step
t+1's per-sample gate work (in the backward, the rest of step t+1 and
step t). A layer without one runs all T steps in one runner call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import tensor
from .attention import AttentionParams
from .errors import ParameterError, ShapeError
from .tensor import (
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
    ``AttentionParams.named`` order, not their tensors.

    The work is split the way the node splits a step: ``sample_forward``
    and ``sample_backward`` act on any range of samples, and
    ``channel_forward`` and ``channel_backward`` run the channel branch's
    matrix products on all B rows at once."""

    def __init__(self, params: AttentionParams):
        self.spatial = params.spatial_weight is not None
        self.channel = params.reduce_weight is not None
        self.weights = [p.data for _, p in params.named()]

    def sample_forward(self, s: np.ndarray, us, mean) -> None:
        """From the spike map s [n, C, H, W] of a sample range: the spatial
        sigmoid into ``us`` [n, 1, H, W] and the channel mean into ``mean``
        [n, C], for the branches there are."""
        n, c, h, w = s.shape
        if self.spatial:
            weight, bias = self.weights[0], self.weights[1]
            z = np.matmul(weight.reshape(1, c), s.reshape(n, c, h * w)).reshape(n, 1, h, w)
            z += bias[None, :, None, None]
            us[...] = _sigmoid(z)
        if self.channel:
            s.mean(axis=(2, 3), out=mean)

    def channel_forward(self, mean: np.ndarray):
        """(post-ReLU hidden, channel sigmoid [B, C]) from the channel means."""
        reduce_w, expand_w = self.weights[-2], self.weights[-1]
        hidden = np.maximum(mean @ reduce_w.T, 0.0).astype(mean.dtype, copy=False)
        return hidden, _sigmoid(hidden @ expand_w.T)

    @staticmethod
    def combine(us, uc, out):
        """The gate from its spatial [n, 1, H, W] and channel [n, C] parts;
        a product of both goes into ``out``."""
        if us is None:
            return uc[:, :, None, None]  # broadcasts over space
        if uc is None:
            return us  # broadcasts over channels
        return np.multiply(us, uc[:, :, None, None], out=out)

    def sample_backward(self, du, s, us, uc, ds, dz, dw, duc, scratch) -> None:
        """Backward of a sample range's gate, built from spike map s, for
        gate gradient ``du`` (shaped like the gate): the spatial branch's
        sigmoid gradient into ``dz`` [n, 1, H*W], its per-sample weight
        gradients into ``dw`` [n, C, 1] and its share of the gradient of s
        added to ``ds`` (through ``scratch``, shaped like s); the gradient
        of the channel sigmoid's input sum into ``duc`` [n, C]."""
        n, c, h, w = s.shape
        if self.spatial:
            # the sum over channels of du * u_channel, as a product
            dus = du if uc is None else np.matmul(uc[:, None, :], du.reshape(n, c, h * w))
            dz[...] = _sigmoid_backward(dus.reshape(n, 1, h * w), us.reshape(n, 1, h * w))
            np.matmul(s.reshape(n, c, h * w), dz.transpose(0, 2, 1), out=dw)
            ds += np.multiply(self.weights[0].reshape(1, c, 1, 1), dz.reshape(n, 1, h, w), out=scratch)
        if self.channel:
            # the sum over space of du * u_spatial, as a product
            duc_r = du if us is None else np.matmul(du.reshape(n, c, h * w), us.reshape(n, h * w, 1))
            duc[...] = duc_r.reshape(n, c)

    def channel_backward(self, duc, uc, hidden, mean, grads, hw: int) -> np.ndarray:
        """The channel branch's products on all B rows: add the gradients
        of its two weights to the last two of ``grads`` and return its
        share of the gradient of the spike map, [B, C, 1, 1]."""
        reduce_w, expand_w = self.weights[-2], self.weights[-1]
        dy = _sigmoid_backward(duc, uc)
        dhidden = (dy @ expand_w) * (hidden > 0)
        grads[-2][...] += dhidden.T @ mean
        grads[-1][...] += dy.T @ hidden
        return ((dhidden @ reduce_w) / hw)[:, :, None, None]


class BatchNorm(NamedTuple):
    """The batch norm a layer node applies to its currents: scale and shift
    parameters, running statistics, and whether batch statistics (training)
    or the running ones (eval) normalize."""

    gamma: Tensor
    beta: Tensor
    state: BatchNormState
    training: bool


# A call splits its steps over sample ranges, one per thread, only when one
# step of its currents holds at least this many bytes per range; smaller
# steps do not pay for the handoffs (measured with two threads and BLAS
# pinned to one thread).
_SPLIT_STEP_BYTES = 1 << 19


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
    b = step_shape[0]
    # the bounds of the call's sample ranges: [0, b] below the split gate
    parts = max(1, min(tensor.CONV_WORKERS, b, xs[0].nbytes // _SPLIT_STEP_BYTES))
    bounds = [b * i // parts for i in range(parts + 1)]

    def run_ranges(steps, t0, t1):
        """``steps(lo, hi, t0, t1)`` for every sample range, one range a thread."""
        tensor._run_blocks(parts, parts, lambda _, i: steps(bounds[i], bounds[i + 1], t0, t1))

    spatial, channel = gate is not None and gate.spatial, gate is not None and gate.channel
    # the channel MLP needs every sample's mean of step t for the gate of
    # step t+1, so a layer with one runs its steps one runner call at a time
    # and the MLP on the caller between them; any other runs all T in one
    seg = 1 if channel else t_steps

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
        _, c, h, w = step_shape
        out = np.empty((t_steps, b, c, h // pool, w // pool), dtype=dtype)
    # step buffers: the step's normalized current and its 1 - s_{t-1} (first
    # the gate, when both branches make it)
    cur = np.empty(step_shape, dtype=dtype) if norm is not None else None
    keep = np.empty(step_shape, dtype=dtype)
    # the steps' currents, batch-normalized as src * scale + shift: in
    # training src is the normalized input and (scale, shift) = (gamma, beta)
    src = xs
    if norm is not None:
        c = step_shape[1]
        x4 = x.reshape((-1,) + step_shape[1:])
        gamma4, beta4 = norm.gamma.data.reshape(1, c, 1, 1), norm.beta.data.reshape(1, c, 1, 1)
        if norm.training:
            # the squared deviations go into the membrane buffer before its first step
            square = None if rolling else v.reshape(x4.shape)
            xhat, std = _bn_batch_stats(x4, norm.state, square=square)
            src, scale, shift = xhat.reshape(xs.shape), gamma4, beta4
        else:
            m, std, scale, shift = _bn_eval_coeffs(norm.state, gamma4, beta4, dtype)
            x_read = x4 if needs_grad[1] else None  # for the gamma gradient
    # the gate of each step t >= 1, built from s_{t-1}: its spatial sigmoid
    # and channel mean per sample, then the channel MLP's hidden layer and
    # sigmoid; every step's when backward reads them, else two that roll
    if gate is not None:
        _, c, h, w = step_shape
        slots = 2 if rolling else t_steps
        us_all = np.empty((slots, b, 1, h, w), dtype=dtype) if spatial else None
        mean_all = np.empty((slots, b, c), dtype=dtype) if channel else None
        hidden_all, uc_all = [None] * t_steps, [None] * t_steps

    def forward_steps(lo, hi, t0, t1):
        """Steps t0..t1-1 of samples lo:hi."""
        v_r, s_r, keep_r, out_r = v[:, lo:hi], s[:, lo:hi], keep[lo:hi], out[:, lo:hi]
        x_r = src[:, lo:hi]
        cur_r = None if norm is None else cur[lo:hi]
        bits_r = None if s_saved is None or smooth else s_saved[:, lo:hi]
        us_r = us_all[:, lo:hi] if spatial else None
        mean_r = mean_all[:, lo:hi] if channel else None
        for t in range(t0, t1):
            v_t, s_t = v_r[t % len(v)], s_r[t % len(s)]
            i_t = x_r[t]
            if norm is not None:
                i_t = np.multiply(i_t, scale, out=cur_r)
                i_t += shift
            if t == 0:
                # v_{-1} = s_{-1} = 0: the history term is +0, as the full update makes it
                np.add(i_t, 0.0, out=v_t)
            else:
                s_prev = s_r[(t - 1) % len(s)]
                np.multiply(v_r[(t - 1) % len(v)], kappa, out=v_t)
                if gate is not None:
                    u = gate.combine(us_r[t % slots] if spatial else None,
                                     uc_all[t][lo:hi] if channel else None, out=keep_r)
                    _check_finite(u, "lif_sequence (attention gate)")
                    v_t *= u
                v_t *= np.subtract(1.0, s_prev, out=keep_r)
                v_t += i_t
            if rolling:
                _check_finite(v_t, "lif_sequence (membrane)")
            _fire(v_t, v_th, alpha, smooth, out=s_t)
            if bits_r is not None:
                bits_r[t] = s_t
            if pooled:
                _avgpool(s_t, pool, out=out_r[t])
            if gate is not None and t + 1 < t_steps:
                gate.sample_forward(s_t, us_r[(t + 1) % slots] if spatial else None,
                                    mean_r[(t + 1) % slots] if channel else None)

    for t in range(0, t_steps, seg):
        run_ranges(forward_steps, t, t + seg)
        if channel and t + 1 < t_steps:
            hidden_all[t + 1], uc_all[t + 1] = gate.channel_forward(mean_all[(t + 1) % slots])
    if not rolling:
        _check_finite(v, "lif_sequence (membrane)")
    out_step, x_shape, seq_shape = out.shape[1:], x.shape, xs.shape
    out = out.reshape((-1,) + out.shape[2:])

    def backward(g):
        g = g.reshape((t_steps,) + out_step)
        # the gradient of the (normalized) currents of every step: a conv or
        # linear synapse with a trainable weight reads it
        gcur = np.empty(seq_shape, dtype=dtype)
        # step buffers: z of the surrogate slope (then the gate of both
        # branches, then the gate's share of the reset term), the carries
        # into step t-1, the expanded pool gradient, the spikes recast from
        # bits and the decayed history of a gated layer; training batch
        # norm's products reuse their block afterwards
        rows = 3 + pooled + (not smooth) + (gate is not None)
        bn_products = norm is not None and norm.training
        work = np.empty((max(rows, t_steps) if bn_products else rows,) + step_shape, dtype=dtype)
        take = iter(work)
        z, ghist, carry_s = next(take), next(take), next(take)
        g_step = next(take) if pooled else None
        s_step = None if smooth else next(take)
        hist = None if gate is None else next(take)
        gate_grads = [np.zeros_like(w) for w in gate.weights] if gate is not None else []
        if gate is not None:
            # per-sample gate gradients: the spatial ones of every step,
            # summed over samples after the last, the channel sigmoid's of one
            _, c, h, w = step_shape
            dz_all = np.empty((t_steps, b, 1, h * w), dtype=dtype) if spatial else None
            dw_all = np.empty((t_steps, b, c, 1), dtype=dtype) if spatial else None
            duc = np.empty((b, c), dtype=dtype) if channel else None
        ds_channel = None  # the channel branch's share of the gradient of s_{t-1}

        def backward_steps(lo, hi, t0, t1):
            """Steps t1-1 down to t0 of samples lo:hi; first the rest of
            step t1 when there is one."""
            z_r, ghist_r, carry_r = z[lo:hi], ghist[lo:hi], carry_s[lo:hi]
            g_r, v_r, s_r = g[:, lo:hi], v[:, lo:hi], s_saved[:, lo:hi]
            gv_r = gcur[:, lo:hi]
            g_step_r = g_step[lo:hi] if pooled else None
            s_step_r = None if smooth else s_step[lo:hi]
            if gate is not None:
                hist_r = hist[lo:hi]
                us_r = us_all[:, lo:hi] if spatial else None
                dz_r, dw_r = (dz_all[:, lo:hi], dw_all[:, lo:hi]) if spatial else (None, None)
                duc_r = duc[lo:hi] if channel else None
            for t in reversed(range(t0, t1)):
                if t + 1 < t_steps:  # the rest of step t+1
                    if channel:
                        carry_r += ds_channel[lo:hi]
                    ghist_r *= kappa
                g_t = _avgpool_backward(g_r[t], pool, g_step_r) if pooled else g_r[t]
                if t < t_steps - 1:  # s_t also fed step t+1
                    carry_r += g_t
                    g_t = carry_r
                gv = _surrogate_backward(g_t, v_r[t], v_th, alpha, out=gv_r[t], scratch=z_r)
                if t < t_steps - 1:
                    gv += ghist_r  # the gradient of v_t through step t+1
                if t == 0:
                    return
                # v_t = (kappa * v_{t-1}) [* u_t] * (1 - s_{t-1}) + i_t, in place:
                # hist is the decayed history, ghist the gradient of the gated one
                if smooth:
                    s_prev = s_r[t - 1]
                else:
                    s_prev = s_step_r
                    s_prev[...] = s_r[t - 1]
                np.subtract(1.0, s_prev, out=ghist_r)
                ghist_r *= gv
                if gate is not None:
                    us = us_r[t] if spatial else None
                    uc = uc_all[t][lo:hi] if channel else None
                    u = gate.combine(us, uc, out=z_r)
                    np.multiply(v_r[t - 1], kappa, out=hist_r)
                    np.multiply(hist_r, u, out=carry_r)
                    hist_r *= ghist_r  # the gate's gradient, before the sum over broadcast axes
                    ghist_r *= u
                else:
                    np.multiply(v_r[t - 1], kappa, out=carry_r)
                carry_r *= gv
                np.negative(carry_r, out=carry_r)  # the reset term: d/ds of (.) * (1 - s)
                if gate is not None:
                    gate.sample_backward(_unbroadcast(hist_r, u.shape), s_prev, us, uc, carry_r,
                                         dz_r[t] if spatial else None, dw_r[t] if spatial else None, duc_r, z_r)

        for t in reversed(range(0, t_steps, seg)):
            run_ranges(backward_steps, t, t + seg)
            if channel and t > 0:
                ds_channel = gate.channel_backward(duc, uc_all[t], hidden_all[t], mean_all[t], gate_grads, h * w)
        if spatial:  # the spatial weight and bias gradients, summed over samples
            for t in reversed(range(1, t_steps)):
                gate_grads[0][...] += dw_all[t].sum(axis=0).reshape(1, c, 1, 1)
                gate_grads[1][...] += dz_all[t].sum()
        grads = [gcur] if norm is None else [gcur, None, None]
        if norm is not None:
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
