"""Independent reference implementations used as test oracles.

Everything here is written as plain loops / direct formulas, deliberately
sharing no code with the engine, so agreement is evidence rather than
tautology. The one exception is ``sweep_level_frames``, which composes the
engine's public event operators one stream at a time: it is the reference
for the robustness sweep's batch, which bins each stream once and reuses
the binning for every level. ``moving_bar_loops`` takes the engine's bar
constants, so that it draws the same bar.
"""

import math

import numpy as np

from spikefuse.events import (
    BAR_JITTER_MS,
    BAR_WIDTH,
    add_poisson_noise,
    drop_events,
    drop_frames,
    slice_to_frames,
)
from spikefuse.rng import Rng


def conv2d_loops(x, w, b, stride, padding):
    """Direct 6-nested-loop cross-correlation."""
    bs, cin, h, wdt = x.shape
    cout, _, k, _ = w.shape
    hp = h + 2 * padding
    wp = wdt + 2 * padding
    xp = np.zeros((bs, cin, hp, wp), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + wdt] = x
    h_out = (hp - k) // stride + 1
    w_out = (wp - k) // stride + 1
    out = np.zeros((bs, cout, h_out, w_out), dtype=x.dtype)
    for n in range(bs):
        for co in range(cout):
            for i in range(h_out):
                for j in range(w_out):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[n, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[n, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def conv2d_grad_loops(x, w, g, stride, padding):
    """Input and weight gradients of ``conv2d_loops`` for the output gradient
    ``g``: the forward loops run again, and every product
    xp[n, ci, i*s+u, j*s+v] * w[co, ci, u, v] sends g[n, co, i, j] back to
    both of its factors."""
    bs, cin, h, wdt = x.shape
    cout, _, k, _ = w.shape
    _, _, h_out, w_out = g.shape
    xp = np.zeros((bs, cin, h + 2 * padding, wdt + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + wdt] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for n in range(bs):
        for co in range(cout):
            for i in range(h_out):
                for j in range(w_out):
                    gv = g[n, co, i, j]
                    for ci in range(cin):
                        for u in range(k):
                            for v in range(k):
                                r, c = i * stride + u, j * stride + v
                                dxp[n, ci, r, c] += gv * w[co, ci, u, v]
                                dw[co, ci, u, v] += gv * xp[n, ci, r, c]
    return dxp[:, :, padding : padding + h, padding : padding + wdt], dw


def im2col_slices(x, k, stride, padding):
    """The patch matrix [B, cin*k*k, L] of a convolution: the padded input's
    stride-spaced grid at kernel offset (i, j), one strided-slice copy per
    offset, rows ordered (channel, i, j)."""
    bs, cin, h, wdt = x.shape
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (wdt + 2 * padding - k) // stride + 1
    xp = np.zeros((bs, cin, h + 2 * padding, wdt + 2 * padding), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + wdt] = x
    cols = np.empty((bs, cin, k, k, h_out, w_out), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
    return cols.reshape(bs, cin * k * k, h_out * w_out)


def col2im_slices(dcols, x_shape, k, stride, padding):
    """``im2col_slices``' transpose: the patch gradients [B, cin*k*k, L] added
    back onto a padded input by the same slices, offset by offset, then
    cropped to ``x_shape``."""
    bs, cin, h, wdt = x_shape
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (wdt + 2 * padding - k) // stride + 1
    dcols = dcols.reshape(bs, cin, k, k, h_out, w_out)
    dxp = np.zeros((bs, cin, h + 2 * padding, wdt + 2 * padding), dtype=dcols.dtype)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += dcols[:, :, i, j]
    return dxp[:, :, padding : padding + h, padding : padding + wdt]


def linear_loops(x, w, b):
    bs, f = x.shape
    o = w.shape[0]
    out = np.zeros((bs, o), dtype=x.dtype)
    for n in range(bs):
        for i in range(o):
            acc = 0.0
            for j in range(f):
                acc += x[n, j] * w[i, j]
            out[n, i] = acc + (b[i] if b is not None else 0.0)
    return out


def avgpool_loops(x, k):
    bs, c, h, w = x.shape
    out = np.zeros((bs, c, h // k, w // k), dtype=x.dtype)
    for n in range(bs):
        for ci in range(c):
            for i in range(h // k):
                for j in range(w // k):
                    out[n, ci, i, j] = x[n, ci, i * k : (i + 1) * k, j * k : (j + 1) * k].mean()
    return out


def batchnorm_reference(x, gamma, beta, g, running_mean, running_var, training, momentum=0.9, eps=1e-5):
    """Batch norm of [B, C, H, W] ``x`` channel by channel from the defining
    formulas, with the gradients of ``sum(out * g)``.

    Returns (out, dx, dgamma, dbeta, new_running_mean, new_running_var). In
    training mode dx is the explicit Jacobian-vector product
    dxhat_j/dx_i = (delta_ij - 1/n)/std - (x_i - mu)(x_j - mu)/(n std^3),
    and the running statistics take momentum * old + (1 - momentum) * batch
    with the unbiased batch variance; eval mode uses the running statistics
    as constants and leaves them unchanged.
    """
    bs, c, h, w = x.shape
    n = bs * h * w
    out = np.zeros_like(x)
    dx = np.zeros_like(x)
    dgamma = np.zeros(c, dtype=x.dtype)
    dbeta = np.zeros(c, dtype=x.dtype)
    new_mean = np.array(running_mean, dtype=x.dtype, copy=True)
    new_var = np.array(running_var, dtype=x.dtype, copy=True)
    for ci in range(c):
        xs = [float(v) for v in x[:, ci].reshape(-1)]
        gs = [float(v) for v in g[:, ci].reshape(-1)]
        if training:
            mu = sum(xs) / n
            var = sum((v - mu) ** 2 for v in xs) / n
            unbiased = var * n / (n - 1) if n > 1 else var
            new_mean[ci] = momentum * running_mean[ci] + (1.0 - momentum) * mu
            new_var[ci] = momentum * running_var[ci] + (1.0 - momentum) * unbiased
        else:
            mu = float(running_mean[ci])
            var = float(running_var[ci])
        std = math.sqrt(var + eps)
        xhat = [(v - mu) / std for v in xs]
        res = [gamma[ci] * v + beta[ci] for v in xhat]
        if training:
            grads = []
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    jac = ((1.0 if i == j else 0.0) - 1.0 / n) / std
                    jac -= (xs[i] - mu) * (xs[j] - mu) / (n * std**3)
                    acc += gs[j] * gamma[ci] * jac
                grads.append(acc)
        else:
            grads = [gv * gamma[ci] / std for gv in gs]
        out[:, ci] = np.array(res).reshape(bs, h, w)
        dx[:, ci] = np.array(grads).reshape(bs, h, w)
        dgamma[ci] = sum(gv * v for gv, v in zip(gs, xhat))
        dbeta[ci] = sum(gs)
    return out, dx, dgamma, dbeta, new_mean, new_var


def slice_counts_add_at(t, x, y, polarity, width, height, delta_t_ms, timesteps):
    """Per-cell event counts [T, 2, H, W] by an unbuffered ``np.add.at``
    scatter: event (t, x, y, p) goes to slice floor(t / delta_t) when that
    is below T."""
    frames = np.zeros((timesteps, 2, height, width), dtype=np.int64)
    idx = np.floor(np.asarray(t, dtype=np.float64) / (delta_t_ms * 1000.0)).astype(np.int64)
    keep = idx < timesteps
    np.add.at(frames, (idx[keep], np.asarray(polarity, dtype=np.int64)[keep],
                       np.asarray(y, dtype=np.int64)[keep], np.asarray(x, dtype=np.int64)[keep]), 1)
    return frames


def moving_bar_loops(direction, height, width, duration_ms, rate, rng):
    """``(t, x, y, polarity)`` of ``synth_moving_bar``, built one crossing at
    a time and ordered by a stable argsort of t."""
    along, across = (width, height) if direction < 2 else (height, width)
    gen = rng.generator
    step_ms = duration_ms / (along + BAR_WIDTH)
    events = []  # (t_us, x, y, polarity) in draw order
    for pos in range(along):
        line = pos if direction in (0, 2) else along - 1 - pos
        for polarity, edge_ms in ((1, (pos + 1) * step_ms), (0, (pos + 1 + BAR_WIDTH) * step_ms)):
            counts = gen.poisson(rate, size=across)
            if counts.sum() == 0:
                continue
            jitter = iter(gen.uniform(0.0, BAR_JITTER_MS, size=int(counts.sum())))
            for perp in range(across):
                for _ in range(counts[perp]):
                    t_us = min((edge_ms + next(jitter)) * 1000.0, duration_ms * 1000.0 - 1.0)
                    x, y = (line, perp) if direction < 2 else (perp, line)
                    events.append((np.uint64(t_us), x, y, polarity))
    t = np.array([e[0] for e in events], dtype=np.uint64)
    order = np.argsort(t, kind="stable")
    return tuple(np.array([e[i] for e in events], dtype=dtype)[order]
                 for i, dtype in enumerate((np.uint64, np.uint16, np.uint16, np.uint8)))


def sweep_level_frames(streams, delta_t_ms, timesteps, spec=None, binarize=False, dtype=np.float32):
    """The frames [N, T, 2, H, W] of one robustness-sweep level: each stream
    sliced by ``slice_to_frames`` and, under a corruption ``spec``, passed
    through its public operator with stream i's generator
    ``Rng(spec.seed).split("corrupt", spec.kind).split(i)`` (event loss
    drops events before slicing), binarized per sequence, then stacked and
    cast."""
    seqs = []
    for i, stream in enumerate(streams):
        rng = None if spec is None else Rng(spec.seed).split("corrupt", spec.kind).split(i)
        if spec is not None and spec.kind == "event_loss":
            stream = drop_events(stream, spec.parameter, rng)
        seq = slice_to_frames(stream, delta_t_ms, timesteps)
        if spec is not None and spec.kind == "poisson_noise":
            seq = add_poisson_noise(seq, spec.parameter, rng)
        elif spec is not None and spec.kind == "frame_loss":
            seq = drop_frames(seq, spec.parameter, rng)
        seqs.append(np.minimum(seq.frames, 1) if binarize else seq.frames)
    return np.stack(seqs).astype(dtype)


def channel_mean_loops(x):
    bs, c, h, w = x.shape
    out = np.zeros((bs, c), dtype=x.dtype)
    for n in range(bs):
        for ci in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[n, ci, i, j]
            out[n, ci] = acc / (h * w)
    return out


def surrogate_value(v, v_th, alpha=2.0):
    """The arctan-shaped smooth activation, evaluated directly."""
    return math.atan((math.pi / 2.0) * alpha * (v - v_th)) / math.pi + 0.5


def surrogate_slope(v, v_th, alpha=2.0):
    z = (math.pi / 2.0) * alpha * (v - v_th)
    return (alpha / 2.0) / (1.0 + z * z)


def fd_gradient(loss_fn, array, h=1e-5):
    """Central finite differences of a scalar function w.r.t. every element
    of ``array`` (mutated in place and restored)."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn()
        flat[i] = orig - h
        lm = loss_fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * h)
    return grad


def rel_err(a, b, floor=1e-6):
    """Elementwise relative error with an absolute floor for near-zero
    gradients (a mathematically zero gradient shows up as rounding noise on
    both sides)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom
