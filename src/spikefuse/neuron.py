"""Leaky integrate-and-fire layer dynamics.

The membrane update is the hard-reset iterative form

    v' = kappa * v * (1 - s) + input_current

with an optional gating tensor ``u`` multiplying the decayed history term:

    v' = kappa * v * u * (1 - s) + input_current

``u`` is the per-neuron attention value from the previous timestep; with
``u`` identically one the gated update degenerates to the plain one bitwise
(the factor ordering below is chosen to guarantee that).

``lif_sequence`` is what the network layers run: all T steps of one layer,
the attention gate included, as a single graph node. Its forward is plain
numpy and runs the same operations in the same order as the per-step
composition of ``lif_step`` / ``lif_step_attended`` with
``attention.compute_attention``, so its spikes and membrane are bitwise
those of the composition. Its backward walks the steps in reverse time
through v, s and the gate: backpropagation through time with the surrogate
spike slope. The node saves the membrane, the gate's per-step values and
the spikes; Heaviside spikes are exactly 0/1, so they are saved as bits
(``bool``) and recast per step, and the float spike map dies with the
tensor that holds it. Smooth spikes are real-valued and saved as they are.
The per-step functions stay as the reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .attention import AttentionParams
from .errors import ParameterError, ShapeError
from .tensor import (
    SURROGATE_ALPHA,
    Tensor,
    _check_finite,
    _fire,
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


def _gate_params(params: AttentionParams, unit_spatial: bool, unit_channel: bool):
    """The parameters of every gate branch that is computed."""
    out = []
    if params.spatial_weight is not None and not unit_spatial:
        out += [params.spatial_weight, params.spatial_bias]
    if params.reduce_weight is not None and not unit_channel:
        out += [params.reduce_weight, params.expand_weight]
    return out


class _Gate:
    """The attention gate of one layer in numpy: the same operations as
    ``attention.compute_attention`` (the 1x1 ``conv2d`` is its contraction
    over channels plus the bias) and a backward for them. It holds the
    arrays of the parameters ``_gate_params`` lists, not their tensors."""

    def __init__(self, params: AttentionParams, unit_spatial: bool, unit_channel: bool):
        self.spatial = params.spatial_weight is not None
        self.channel = params.reduce_weight is not None
        self.unit_spatial = unit_spatial
        self.unit_channel = unit_channel
        self.weights = [p.data for p in _gate_params(params, unit_spatial, unit_channel)]

    def forward(self, s: np.ndarray):
        """Gate u (broadcastable to s) from the spike map s [B, C, H, W], and
        what backward needs: (spatial sigmoid, channel sigmoid, post-ReLU
        hidden, channel mean)."""
        b, c, h, w = s.shape
        us = uc = hidden = mean = None
        if self.spatial:
            if self.unit_spatial:
                us = np.ones((b, 1, h, w), dtype=s.dtype)
            else:
                weight, bias = self.weights[0], self.weights[1]
                z = np.matmul(weight.reshape(1, c), s.reshape(b, c, h * w)).reshape(b, 1, h, w)
                z += bias[None, :, None, None]
                us = _sigmoid(z)
        if self.channel:
            if self.unit_channel:
                uc = np.ones((b, c), dtype=s.dtype)
            else:
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
        if self.spatial and not self.unit_spatial:
            # the sum over channels of du * u_channel, as a product
            dus = du if uc is None else np.matmul(uc[:, None, :], du.reshape(b, c, h * w))
            dz = _sigmoid_backward(dus.reshape(b, 1, h * w), us.reshape(b, 1, h * w))
            dw = np.matmul(s.reshape(b, c, h * w), dz.transpose(0, 2, 1)).sum(axis=0)
            next(grads)[...] += dw.reshape(1, c, 1, 1)
            next(grads)[...] += dz.sum()
            ds += self.weights[0].reshape(1, c, 1, 1) * dz.reshape(b, 1, h, w)
        if self.channel and not self.unit_channel:
            # the sum over space of du * u_spatial, as a product
            duc = du if us is None else np.matmul(du.reshape(b, c, h * w), us.reshape(b, h * w, 1))
            reduce_w, expand_w = self.weights[-2], self.weights[-1]
            dy = _sigmoid_backward(duc.reshape(b, c), uc)
            dhidden = (dy @ expand_w) * (hidden > 0)
            next(grads)[...] += dhidden.T @ mean
            next(grads)[...] += dy.T @ hidden
            ds += ((dhidden @ reduce_w) / (h * w)).reshape(b, c, 1, 1)


def lif_sequence(
    currents: Tensor,
    cfg: LifConfig,
    attention: Optional[AttentionParams] = None,
    smooth: bool = False,
    unit_spatial: bool = False,
    unit_channel: bool = False,
) -> Tuple[Tensor, np.ndarray]:
    """Run one layer's T LIF steps on its input currents [T, B, ...] as a
    single graph node; returns (spikes [T, B, ...], membrane [T, B, ...]).

    With ``attention`` (currents [T, B, C, H, W]) every step from the second
    on gates the decayed history with the gate built from the previous
    step's spikes; its branches are those whose parameters ``attention``
    holds. ``unit_spatial`` / ``unit_channel`` replace a branch with exact
    ones. The membrane array is what the backward reads: do not write it.
    """
    x = currents.data
    if x.ndim < 2:
        raise ShapeError(f"lif_sequence: currents must be [T, B, ...], got {x.shape}")
    gate = None
    if attention is not None:
        if x.ndim != 5:
            raise ShapeError(f"lif_sequence: a gated layer needs [T, B, C, H, W], got {x.shape}")
        gate = _Gate(attention, unit_spatial, unit_channel)
    t_steps = x.shape[0]
    kappa = x.dtype.type(cfg.kappa)
    v_th, alpha = cfg.v_th, SURROGATE_ALPHA

    v = np.empty_like(x)
    s = np.empty_like(x)
    saved = [None] * t_steps  # gate internals of each gated step
    for t in range(t_steps):
        if t == 0:
            # v_{-1} = s_{-1} = 0: the history term is +0, as the full update makes it
            np.add(x[0], 0.0, out=v[0])
        else:
            np.multiply(v[t - 1], kappa, out=v[t])
            if gate is not None:
                u, saved[t] = gate.forward(s[t - 1])
                _check_finite(u, "lif_sequence (attention gate)")
                v[t] *= u
            v[t] *= 1.0 - s[t - 1]
            v[t] += x[t]
        _fire(v[t], v_th, alpha, smooth, out=s[t])
    _check_finite(v, "lif_sequence (membrane)")
    # backward reads the spikes only as the reset factor and the gate's
    # input: Heaviside spikes are exactly 0/1 and are kept as bits
    s_saved = s if smooth else s.astype(bool)
    parents = [currents] + (_gate_params(attention, unit_spatial, unit_channel) if gate is not None else [])
    dtype, needs_grad = x.dtype, [p.requires_grad for p in parents]

    def backward(g):
        gx = np.empty(g.shape, dtype=dtype) if needs_grad[0] else None
        gate_grads = [np.zeros_like(w) for w in gate.weights] if gate is not None else []
        carry_v = carry_s = None  # gradients of v_t and s_t through step t+1
        for t in reversed(range(t_steps)):
            if carry_s is not None:
                carry_s += g[t]
            gv = _surrogate_backward(g[t] if carry_s is None else carry_s, v[t], v_th, alpha)
            if carry_v is not None:
                gv += carry_v
            if gx is not None:
                gx[t] = gv
            if t == 0:
                break
            # v_t = (kappa * v_{t-1}) [* u_t] * (1 - s_{t-1}) + i_t, in place:
            # hist is the decayed history, ghist the gradient of the gated one
            hist = kappa * v[t - 1]
            s_prev = s_saved[t - 1].astype(dtype, copy=False)
            ghist = 1.0 - s_prev
            ghist *= gv
            if gate is not None:
                us, uc, _, _ = saved[t]
                u = gate.combine(us, uc)
                carry_s = hist * u
                hist *= ghist  # the gate's gradient, before the sum over broadcast axes
                ghist *= u
            else:
                carry_s = hist
            carry_s *= gv
            np.negative(carry_s, out=carry_s)  # the reset term: d/ds of (.) * (1 - s)
            if gate is not None:
                gate.backward(_unbroadcast(hist, u.shape), s_prev, saved[t], gate_grads, carry_s)
            ghist *= kappa
            carry_v = ghist
        grads = [gx] + gate_grads
        for grad in grads:
            if grad is not None:
                _check_finite(grad, "lif_sequence (gradient)")
        return tuple(grad if needed else None for grad, needed in zip(grads, needs_grad))

    return _result(s, parents, backward), v
