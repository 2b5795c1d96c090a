"""Parameter seams for the structural-equivalence tests.

The ablation is reached through the gate's own parameters, so the network
runs its production forward path unchanged:

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

import numpy as np

from spikefuse.attention import AttentionVariant
from spikefuse.tensor import _sigmoid

PIN_BIAS = 40.0


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


def variant_of(params):
    """The variant whose gate has the branches ``params`` holds."""
    if params is None:
        return AttentionVariant.BL
    if params.spatial_weight is None:
        return AttentionVariant.CTFA
    return AttentionVariant.STFA if params.reduce_weight is None else AttentionVariant.SCTFA


def seam_network(net, spatial=False, channel=False):
    """Apply the seams to every spiking layer of ``net``; returns ``net``."""
    for layer in net.layers:
        if getattr(layer, "attention", None) is not None:
            layer.attention = apply_seams(layer.attention, spatial, channel)
    return net
