"""Independent reference implementations used as test oracles.

Everything here is written as plain loops / direct formulas, deliberately
sharing no code with the engine, so agreement is evidence rather than
tautology.
"""

import math

import numpy as np


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
