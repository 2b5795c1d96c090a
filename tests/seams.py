"""Seams. ``runtime`` is the one way a test changes ``tensor``'s settings,
the worker count or the debug switch; ``on_threads`` builds on it.

The structural-equivalence tests reach the ablation through the gate's own
parameters, so the network runs its production forward path unchanged:

- ``pin_spatial`` sets the spatial branch's weight to 0 and its bias to
  40. The branch is then sigmoid(0 * s + 40), which is exactly 1.0 in
  float32 and float64, and the gated multiply by 1 is exact: a pinned
  ``sctfa`` layer reproduces ``ctfa`` bitwise, a pinned ``stfa`` layer
  ``bl``.
- ``remove_channel`` drops the channel branch's parameters; the gate
  computes only the branches whose parameters exist, so a ``sctfa`` layer
  without them reproduces ``stfa``, and a ``ctfa`` layer, left with no
  gate, ``bl``.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

import spikefuse.neuron as neuron_module
import spikefuse.tensor as tensor_module
from spikefuse.tensor import _sigmoid

PIN_BIAS = 40.0


@contextlib.contextmanager
def runtime(**changes):
    """``tensor``'s settings with ``changes`` (``conv_workers``, ``debug_nan``)
    inside the block, and a table of pools of its own, empty at the start:
    yields that table and shuts down every pool in it on exit."""
    saved = list(tensor_module._settings), tensor_module._pools
    tensor_module._settings[:] = [dataclasses.replace(tensor_module.settings(), **changes)]
    tensor_module._pools = pools = {}
    try:
        yield pools
    finally:
        tensor_module._settings[:], tensor_module._pools = saved
        for pool in pools.values():
            pool.shutdown()


@contextlib.contextmanager
def on_threads(n):
    """conv2d and the layer node on n threads inside the block: conv2d
    splits every call that has at least one block per thread, and the layer
    node every call over min(n, B) sample ranges. Yields the pool table."""
    with pytest.MonkeyPatch.context() as mp, runtime(conv_workers=n) as pools:
        mp.setattr(tensor_module, "_CONV_BLOCKS_PER_WORKER", 1)
        mp.setattr(neuron_module, "_SPLIT_STEP_BYTES", 1)
        yield pools


def pin_spatial(params):
    """Make the spatial branch of ``params`` exactly 1 (nothing to do when
    there is none); returns ``params``."""
    if params is None or params.spatial_weight is None:
        return params
    params.spatial_weight.data[...] = 0.0
    params.spatial_bias.data[...] = PIN_BIAS
    z = params.spatial_bias.data
    pinned = _sigmoid(z)
    assert pinned.dtype == z.dtype and np.all(pinned == 1.0), "the pinned spatial gate is not exactly 1"
    return params


def remove_channel(params):
    """Drop the channel branch of ``params``; returns what is left, None
    when no branch is."""
    if params is None:
        return None
    params.reduce_weight = params.expand_weight = None
    return params if params.spatial_weight is not None else None


def apply_seams(params, spatial=False, channel=False):
    """``pin_spatial`` and/or ``remove_channel`` on one layer's parameters;
    returns the parameters the layer is left with."""
    if spatial:
        pin_spatial(params)
    return remove_channel(params) if channel else params


def seam_network(net, spatial=False, channel=False):
    """Apply the seams to every spiking layer of ``net``; returns ``net``."""
    for layer in net.layers:
        if getattr(layer, "attention", None) is not None:
            layer.attention = apply_seams(layer.attention, spatial, channel)
    return net
