"""Leaky integrate-and-fire layer dynamics.

The membrane update is the hard-reset iterative form

    v' = kappa * v * u * (1 - s) + input_current

where the gate ``u`` is the per-neuron attention value built from the
layer's spikes of the previous timestep; a layer without a gate has no
``u`` factor. The factors multiply in that order (``lif_step``), so a gate
of exactly one gives the ungated update bitwise, and a gate branch whose
parameters make it exactly one, a spatial branch with weight 0 and bias 40
say, reproduces the variant without that branch.

``lif_sequence`` is what the network layers run: the whole tail of one
layer after its synapse as a single graph node. For a conv layer that is
batch norm, the T-step LIF and attention-gate recurrence and the k*k
average pool of each step's spikes; dense and voting layers use it without
norm or pool. Its forward is plain numpy and runs the same operations in
the same order as the composition ``tensor.batchnorm`` -> per-step
``lif_step`` gated by ``attention.compute_attention`` ->
``tensor.avgpool2d``, so its outputs, membrane and running statistics are
bitwise those of the composition; the batch-norm and pool arithmetic is
the same numpy helpers those ops run. It works one time step at a time:
each step's current, spikes and pooled spikes go through step buffers
allocated once per call, so no normalized current or float spike map of
all steps exists. Training batch norm takes its mean and variance from
per-frame sums before its first step, each step's squared deviations
passing through the current's step buffer, and each step's normalized
input ``xhat`` goes into an array of all steps that backward reads.
Without a graph to record (``no_grad``, or no parent needs a gradient) two
membrane steps roll, unless the caller asks for the trace, and no ``xhat``
is kept.

Its backward walks the steps in reverse time through pool, v, s and the
gate, backpropagation through time with the surrogate spike slope, again
in step buffers; each step's current gradient goes straight into the
gradient it returns, training batch norm takes the per-frame sums of it
and of its product with ``xhat`` while the step is in cache, and batch
norm's closed-form input gradient is then computed in place in it, step
by step. The node saves the membrane, the gate's per-step
values, batch norm's ``xhat`` and the spikes; Heaviside spikes are
exactly 0/1, so they are saved as bits (``bool``) and recast per step.
Smooth spikes are real-valued and saved as they are. ``lif_step`` stays
as the per-step reference it is tested against.

Its steps run over ranges of samples through ``tensor._run_blocks``, the
runner conv2d uses, one range per thread (``tensor._threads``) when a
step holds at least ``_SPLIT_STEP_BYTES`` per range; a smaller call has
one range, the whole batch, run on the caller. A range computes what is
per sample: batch norm's per-frame sums, squared deviations, ``xhat`` and
affine current, the gated membrane update, the spikes and their bits, the
pool, and the next step's gate, the channel MLP included; in the backward
the pool gradient, the carries, the surrogate slope, the reset term, the
gate's per-sample gradients and its share of the spikes' gradient, and
batch norm's per-frame sums of ``g`` and ``g * xhat`` and closed-form
input gradient. The channel MLP's products are one-row products
(``tensor._row_matmul``), since BLAS may block a product of all rows
differently for another number of rows. Every sum over samples ends on
the caller. Batch norm's four per-channel sums (of the currents, of their
squared deviations, of ``g`` and of ``g * xhat``) are taken per frame in
the ranges, a pairwise sum over H*W into a [T, B, C] array the caller
allocated, and the caller adds the T*B rows in frame order
(``tensor._frame_sums``, ``_sum_frames``): that is numpy's own order for
a C-contiguous array's sum over (0, 2, 3) when C > 1, so the statistics,
the running statistics they fold into and the gradients keep the bits of
whole-array reductions (a one-channel map numpy sums pairwise as one run,
so its bits differ). The gate's weight gradients are summed after the
backward's steps from the per-step values the ranges stored (the spatial
ones over samples, the channel ones as the products ``dhidden.T @ mean``
and ``dy.T @ hidden``). An elementwise operation, a per-frame sum or a
per-sample product gives a sample the same bits in any range, so every
output, membrane, running statistic and gradient is bitwise the same for
any number of threads. A call runs all T steps in one runner call each
way; training batch norm adds two calls before the steps (the sums of the
currents, then the squares and their sums) and one after the backward's
(the input gradient).

The pass budget: numpy calls that read or write a whole step map
[n, C, H, W] in a range, for a step t >= 1 of a training conv layer with
Heaviside spikes and a pool but no gate. Forward, 15: 1 for the sums of
the currents, 2 for batch norm's squares and 1 for their sums, 2 for
``xhat``, 2 for gamma and beta, 4 for the membrane update, 1 to fire, 1
for the bits, 1 for the pool. Backward, 22: 1 pool gradient, 1 carry, 6
for the surrogate slope, 1 for the gradient through step t+1 and 1 to
decay it, 1 to recast the bits, 2 for the history's gradient and 2 for
the reset term, whose minus sign rides in ``-kappa``; 1 for the sums of
the current gradient, 1 for its product with ``xhat`` and 1 for their
sums; then 4 for batch norm's input gradient. The caller only adds two
[T*B, C] arrays of per-frame sums each way. A gate adds, forward, the
product with u, the two branches' product when both exist, and the
spatial branch's contraction and the channel mean of the spikes;
backward, the decayed history and its products with u and the history's
gradient, the gradient times u, and the branches' per-sample products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import tensor
from .attention import AttentionParams
from .errors import ConfigError, ParameterError, ShapeError, check_fields
from .tensor import (
    SURROGATE_ALPHA,
    BatchNormState,
    Tensor,
    _avgpool,
    _avgpool_backward,
    _bn_eval_backward,
    _bn_eval_coeffs,
    _bn_fold,
    _bn_normalize,
    _bn_square,
    _bn_train_dx,
    _check_finite,
    _check_norm_params,
    _check_pool,
    _fire,
    _frame_sums,
    _grad_enabled,
    _mean_of_frames,
    _result,
    _row_matmul,
    _sigmoid,
    _sigmoid_backward,
    _sum_frames,
    _surrogate_backward,
    _unbroadcast,
    smooth_spike,
    spike,
)


@dataclass(frozen=True)
class LifConfig:
    """Threshold and decay of one LIF population (resting potential is 0).
    A bad field raises ConfigError, a ParameterError, naming it."""

    v_th: float
    kappa: float

    def __post_init__(self):
        check_fields(self)
        if self.v_th <= 0.0:
            raise ConfigError(f"v_th must be positive, got {self.v_th}", field="v_th")
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError(f"kappa must be in [0, 1], got {self.kappa}", field="kappa")


def lif_step(v: Tensor, s: Tensor, input_current: Tensor, cfg: LifConfig, smooth: bool = False,
             u: Optional[Tensor] = None) -> Tuple[Tensor, Tensor]:
    """One membrane update from the last step's membrane ``v`` and spikes
    ``s``; returns (v', s').

    A gate ``u``, which must broadcast to the membrane, scales the decayed
    history, and its gradient is the history's. ``smooth`` swaps the
    Heaviside spike for its smooth surrogate so that the whole trajectory
    is finite-difference checkable.
    """
    if v.shape != input_current.shape:
        raise ShapeError(f"lif_step: membrane {v.shape} vs input {input_current.shape}")
    history = cfg.kappa * v
    if u is not None:
        history = history * u
    v_new = history * (1.0 - s) + input_current
    return v_new, smooth_spike(v_new, cfg.v_th) if smooth else spike(v_new, cfg.v_th)


def lif_step_attended(v: Tensor, s: Tensor, input_current: Tensor, u: Tensor, cfg: LifConfig, smooth: bool = False):
    """``lif_step`` with its gate ``u`` required."""
    if u is None:
        raise ParameterError("lif_step_attended requires a gating tensor; use lif_step")
    return lif_step(v, s, input_current, cfg, smooth, u)


# ---------------------------------------------------------------------------
# the fused T-step node


class _Gate:
    """The attention gate of one layer node in numpy: the same operations as
    ``attention.compute_attention`` (the 1x1 ``conv2d`` is its contraction
    over channels plus the bias; the channel MLP's products are one-row
    products there too) and a backward for them. It computes the branches
    whose parameters ``params`` holds, and holds their arrays in
    ``AttentionParams.named`` order, not their tensors.

    The gate of step t >= 1, built from s_{t-1}, is kept in slot t % slots
    of [slots, B, ...] arrays: the spatial sigmoid ``us`` [B, 1, H, W], and
    the channel mean, hidden layer and sigmoid ``mean``, ``hidden`` and
    ``uc`` ([B, C], [B, C/r], [B, C]). ``sample_forward`` and
    ``sample_backward`` act on one range of samples, and a one-row product
    gives a sample the same bits in any range; ``weight_grads`` sums over
    the samples, on the whole batch."""

    def __init__(self, params: AttentionParams, slots: int, step_shape, dtype):
        self.spatial = params.spatial_weight is not None
        self.channel = params.reduce_weight is not None
        self.weights = [p.data for _, p in params.named()]
        self.slots, self.step_shape, self.dtype = slots, step_shape, dtype
        b, c, h, w = step_shape
        if self.spatial:
            self.us = np.empty((slots, b, 1, h, w), dtype=dtype)
        if self.channel:
            self.mean, self.uc = np.empty((2, slots, b, c), dtype=dtype)
            self.hidden = np.empty((slots, b, self.weights[-2].shape[0]), dtype=dtype)

    def branches(self, t: int, lo: int, hi: int):
        """Step t's spatial and channel gates of samples lo:hi, None for an
        absent branch."""
        k = t % self.slots
        return self.us[k, lo:hi] if self.spatial else None, self.uc[k, lo:hi] if self.channel else None

    def combine(self, t: int, lo: int, hi: int, out):
        """Step t's gate of samples lo:hi; a product of both branches goes
        into ``out``."""
        us, uc = self.branches(t, lo, hi)
        if us is None:
            return uc[:, :, None, None]  # broadcasts over space
        if uc is None:
            return us  # broadcasts over channels
        return np.multiply(us, uc[:, :, None, None], out=out)

    def sample_forward(self, s: np.ndarray, t: int, lo: int, hi: int) -> None:
        """Step t's gate of samples lo:hi from their spike map s [n, C, H, W]
        of step t-1."""
        n, c, h, w = s.shape
        k = t % self.slots
        if self.spatial:
            weight, bias = self.weights[0], self.weights[1]
            z = np.matmul(weight.reshape(1, c), s.reshape(n, c, h * w)).reshape(n, 1, h, w)
            z += bias[None, :, None, None]
            self.us[k, lo:hi] = _sigmoid(z)
        if self.channel:
            mean, hidden = self.mean[k, lo:hi], self.hidden[k, lo:hi]
            s.mean(axis=(2, 3), out=mean)
            np.maximum(_row_matmul(mean, self.weights[-2].T), 0.0, out=hidden)
            self.uc[k, lo:hi] = _sigmoid(_row_matmul(hidden, self.weights[-1].T))

    def backward_buffers(self, t_steps: int):
        """The per-step, per-sample gradients ``weight_grads`` sums, None for
        an absent branch: the spatial sigmoid's input [T, B, 1, H*W] and the
        spatial weight [T, B, C, 1]; the channel sigmoid's input [T, B, C]
        and the hidden layer [T, B, C/r]."""
        b, c, h, w = self.step_shape
        spatial = [(1, h * w), (c, 1)] if self.spatial else [None, None]
        channel = [(c,), (self.weights[-2].shape[0],)] if self.channel else [None, None]
        return [None if s is None else np.empty((t_steps, b) + s, dtype=self.dtype) for s in spatial + channel]

    def sample_backward(self, du, s, t: int, lo: int, hi: int, back, ds, scratch) -> None:
        """Backward of step t's gate of samples lo:hi, built from their spike
        map s, for gate gradient ``du`` (shaped like the gate): the per-sample
        gradients into rows t, lo:hi of ``back`` (``backward_buffers``), and
        the gate's share of the gradient of s added to ``ds`` (through
        ``scratch``, shaped like s)."""
        n, c, h, w = s.shape
        us, uc = self.branches(t, lo, hi)
        dz, dw, dy, dhidden = (None if a is None else a[t, lo:hi] for a in back)
        if self.spatial:
            # the sum over channels of du * u_channel, as a product
            dus = du if uc is None else np.matmul(uc[:, None, :], du.reshape(n, c, h * w))
            dz[...] = _sigmoid_backward(dus.reshape(n, 1, h * w), us.reshape(n, 1, h * w))
            np.matmul(s.reshape(n, c, h * w), dz.transpose(0, 2, 1), out=dw)
            ds += np.multiply(self.weights[0].reshape(1, c, 1, 1), dz.reshape(n, 1, h, w), out=scratch)
        if self.channel:
            # the sum over space of du * u_spatial, as a product
            duc = du if us is None else np.matmul(du.reshape(n, c, h * w), us.reshape(n, h * w, 1))
            dy[...] = _sigmoid_backward(duc.reshape(n, c), uc)
            np.multiply(_row_matmul(dy, self.weights[-1]), self.hidden[t, lo:hi] > 0, out=dhidden)
            ds += (_row_matmul(dhidden, self.weights[-2]) / (h * w))[:, :, None, None]

    def weight_grads(self, back, t_steps: int):
        """The weights' gradients: the sums over samples of ``back``'s rows
        and of their products with the forward's values, steps T-1 down to 1."""
        dz, dw, dy, dhidden = back
        grads = [np.zeros_like(w) for w in self.weights]
        for t in reversed(range(1, t_steps)):
            if self.spatial:
                grads[0] += dw[t].sum(axis=0).reshape(grads[0].shape)
                grads[1] += dz[t].sum()
            if self.channel:
                grads[-2] += dhidden[t].T @ self.mean[t]
                grads[-1] += dy[t].T @ self.hidden[t]
        return grads


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
_SPLIT_STEP_BYTES = 1 << 17


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
    if attention is not None:
        parents += [p for _, p in attention.named()]
    record = _grad_enabled() and any(p.requires_grad for p in parents)
    needs_grad = [p.requires_grad for p in parents]
    dtype = x.dtype
    kappa = dtype.type(cfg.kappa)
    v_th, alpha = cfg.v_th, SURROGATE_ALPHA
    b = step_shape[0]
    # the bounds of the call's sample ranges: [0, b] below the split gate
    parts = tensor._threads(min(b, xs[0].nbytes // _SPLIT_STEP_BYTES))
    bounds = [b * i // parts for i in range(parts + 1)]

    def run_ranges(work):
        """``work(lo, hi)`` for every sample range, one range a thread."""
        tensor._run_blocks(parts, parts, lambda _, i: work(bounds[i], bounds[i + 1]))

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
    # the steps' currents, batch-normalized as i * scale + shift: in
    # training i is the step's normalized input, saved in xhat when backward
    # reads it, and (scale, shift) = (gamma, beta); in eval i is the input
    xhat = None
    if norm is not None:
        c = step_shape[1]
        x4 = x.reshape((-1,) + step_shape[1:])
        gamma4, beta4 = norm.gamma.data.reshape(1, c, 1, 1), norm.beta.data.reshape(1, c, 1, 1)
        if norm.training:
            # the mean and the variance from per-frame sums, taken in the
            # ranges and added on the caller in frame order; each step's
            # squared deviations go through the step buffer
            n, sums = x4.size // c, np.empty(xs.shape[:3], dtype=dtype)
            run_ranges(lambda lo, hi: _frame_sums(xs[:, lo:hi], out=sums[:, lo:hi]))
            m = _mean_of_frames(sums, n).reshape(1, c, 1, 1)

            def square_sums(lo, hi):
                for t in range(t_steps):
                    _frame_sums(_bn_square(xs[t, lo:hi], m, out=cur[lo:hi]), out=sums[t, lo:hi])

            run_ranges(square_sums)
            std = _bn_fold(norm.state, m, _mean_of_frames(sums, n), n)
            scale, shift = gamma4, beta4
            if record:
                xhat = np.empty(xs.shape, dtype=dtype)
        else:
            m, std, scale, shift = _bn_eval_coeffs(norm.state, gamma4, beta4, dtype)
            x_read = x4 if needs_grad[1] else None  # for the gamma gradient
    # the gate of each step t >= 1, built from s_{t-1}: every step's when
    # backward reads it, else two that roll
    gate = None if attention is None else _Gate(attention, 2 if rolling else t_steps, step_shape, dtype)

    def forward_steps(lo, hi):
        """Every step of samples lo:hi."""
        v_r, s_r, keep_r, out_r = v[:, lo:hi], s[:, lo:hi], keep[lo:hi], out[:, lo:hi]
        x_r = xs[:, lo:hi]
        cur_r = None if norm is None else cur[lo:hi]
        xhat_r = None if xhat is None else xhat[:, lo:hi]
        bits_r = None if s_saved is None or smooth else s_saved[:, lo:hi]
        for t in range(t_steps):
            v_t, s_t = v_r[t % len(v)], s_r[t % len(s)]
            i_t = x_r[t]
            if norm is not None:
                if norm.training:
                    i_t = _bn_normalize(i_t, m, std, out=cur_r if xhat_r is None else xhat_r[t])
                i_t = np.multiply(i_t, scale, out=cur_r)
                i_t += shift
            if t == 0:
                # v_{-1} = s_{-1} = 0: the history term is +0, as the full update makes it
                np.add(i_t, 0.0, out=v_t)
            else:
                s_prev = s_r[(t - 1) % len(s)]
                np.multiply(v_r[(t - 1) % len(v)], kappa, out=v_t)
                if gate is not None:
                    u = gate.combine(t, lo, hi, out=keep_r)
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
                gate.sample_forward(s_t, t + 1, lo, hi)

    run_ranges(forward_steps)
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
        # bits and the decayed history of a gated layer
        rows = 3 + pooled + (not smooth) + (gate is not None)
        work = np.empty((rows,) + step_shape, dtype=dtype)
        take = iter(work)
        z, ghist, carry_s = next(take), next(take), next(take)
        g_step = next(take) if pooled else None
        s_step = None if smooth else next(take)
        hist = None if gate is None else next(take)
        # the gate's per-sample gradients of every step, summed over samples after the last
        gate_back = None if gate is None else gate.backward_buffers(t_steps)
        # training batch norm's per-frame sums of the current gradient and
        # of its product with xhat, added on the caller after the steps
        bn_sums = np.empty((2,) + seq_shape[:3], dtype=dtype) if xhat is not None else None

        def backward_steps(lo, hi):
            """Every step of samples lo:hi, in reverse time."""
            z_r, ghist_r, carry_r = z[lo:hi], ghist[lo:hi], carry_s[lo:hi]
            g_r, v_r, s_r = g[:, lo:hi], v[:, lo:hi], s_saved[:, lo:hi]
            gv_r = gcur[:, lo:hi]
            g_step_r = g_step[lo:hi] if pooled else None
            s_step_r = None if smooth else s_step[lo:hi]
            hist_r = None if gate is None else hist[lo:hi]
            xhat_r = None if bn_sums is None else xhat[:, lo:hi]
            for t in reversed(range(t_steps)):
                if t + 1 < t_steps:  # the rest of step t+1
                    ghist_r *= kappa
                g_t = _avgpool_backward(g_r[t], pool, g_step_r) if pooled else g_r[t]
                if t < t_steps - 1:  # s_t also fed step t+1
                    carry_r += g_t
                    g_t = carry_r
                gv = _surrogate_backward(g_t, v_r[t], v_th, alpha, out=gv_r[t], scratch=z_r)
                if t < t_steps - 1:
                    gv += ghist_r  # the gradient of v_t through step t+1
                if bn_sums is not None:  # gv is step t's final current gradient
                    _frame_sums(gv, out=bn_sums[0, t, lo:hi])
                    _frame_sums(np.multiply(gv, xhat_r[t], out=z_r), out=bn_sums[1, t, lo:hi])
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
                # the reset term, d/ds of (.) * (1 - s): its minus sign is
                # in -kappa, since IEEE negation commutes with a product
                np.multiply(v_r[t - 1], -kappa, out=carry_r)
                if gate is not None:
                    u = gate.combine(t, lo, hi, out=z_r)
                    np.multiply(v_r[t - 1], kappa, out=hist_r)
                    carry_r *= u
                    hist_r *= ghist_r  # the gate's gradient, before the sum over broadcast axes
                    ghist_r *= u
                carry_r *= gv
                if gate is not None:
                    gate.sample_backward(_unbroadcast(hist_r, u.shape), s_prev, t, lo, hi, gate_back, carry_r, z_r)

        run_ranges(backward_steps)
        grads = [gcur] if norm is None else [gcur, None, None]
        if norm is not None:
            g4 = gcur.reshape((-1,) + step_shape[1:])
            if bn_sums is not None:
                # the closed-form input gradient, step by step in the ranges
                dbeta, dgamma = _sum_frames(bn_sums[0]), _sum_frames(bn_sums[1])
                if needs_grad[0]:

                    def input_grads(lo, hi):
                        for t in range(t_steps):
                            g_t = gcur[t, lo:hi]
                            _bn_train_dx(g_t, xhat[t, lo:hi], dbeta, dgamma, gamma4, std, n, out=g_t, scratch=z[lo:hi])

                    run_ranges(input_grads)
                grads = [g4 if needs_grad[0] else None, dgamma, dbeta]
            else:
                grads = list(_bn_eval_backward(g4, x_read, m, std, scale, needs_grad[0], needs_grad[1], out=g4))
        if grads[0] is not None:
            grads[0] = grads[0].reshape(x_shape)
        if gate is not None:
            grads += gate.weight_grads(gate_back, t_steps)
        for grad in grads:
            if grad is not None:
                _check_finite(grad, "lif_sequence (gradient)")
        return tuple(grad if needed else None for grad, needed in zip(grads, needs_grad))

    return _result(out, parents, backward), None if rolling else v
