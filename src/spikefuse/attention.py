"""Spatial-channel gating block and its ablated variants.

From a layer's binary spike map [B, C, H, W] the full block builds

  - a spatial branch: sigmoid of a 1x1 convolution collapsing channels,
    giving per-location weights [B, 1, H, W];
  - a channel branch: spatial mean per channel, squeezed through a
    bottleneck MLP (C -> C/r -> C, ReLU then sigmoid, no biases), giving
    per-channel weights [B, C];
  - their broadcast product, a full gate [B, C, H, W] with values in (0,1).

Variants: ``sctfa`` fuses both branches, ``stfa`` keeps only the spatial
branch, ``ctfa`` only the channel branch, ``bl`` produces no gate at all.
The omitted branch's parameters are never allocated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ParameterError, ShapeError
from .rng import Rng
from .tensor import (
    Tensor,
    conv2d,
    kaiming_uniform,
    linear,
    mul,
    relu,
    reshape,
    sigmoid,
    tmean,
    zeros_param,
)


class AttentionVariant(str, enum.Enum):
    BL = "bl"
    STFA = "stfa"
    CTFA = "ctfa"
    SCTFA = "sctfa"

    @property
    def has_spatial(self) -> bool:
        return self in (AttentionVariant.STFA, AttentionVariant.SCTFA)

    @property
    def has_channel(self) -> bool:
        return self in (AttentionVariant.CTFA, AttentionVariant.SCTFA)


@dataclass
class AttentionParams:
    """Learnable tensors of one gating block; branch fields are None when the
    variant omits that branch."""

    spatial_weight: Optional[Tensor] = None  # [1, C, 1, 1]
    spatial_bias: Optional[Tensor] = None  # [1]
    reduce_weight: Optional[Tensor] = None  # [C/r, C]
    expand_weight: Optional[Tensor] = None  # [C, C/r]

    def named(self):
        """(field name, tensor) of every branch parameter present, spatial
        before channel: the order of checkpoints and of the gate's parents."""
        pairs = [(f.name, getattr(self, f.name)) for f in fields(self)]
        return [(name, p) for name, p in pairs if p is not None]


def init_attention_params(
    channels: int, r: int, variant: AttentionVariant, rng: Rng, dtype=np.float32
) -> Optional[AttentionParams]:
    """Allocate branch parameters for one convolutional layer, or None for
    the baseline variant. ``rng`` should be a per-layer stream so adding or
    removing branches never shifts other parameter draws."""
    if variant == AttentionVariant.BL:
        return None
    params = AttentionParams()
    if variant.has_spatial:
        params.spatial_weight = kaiming_uniform(
            (1, channels, 1, 1), fan_in=channels, rng=rng.split("spatial_weight"), dtype=dtype
        )
        params.spatial_bias = zeros_param((1,), dtype=dtype)
    if variant.has_channel:
        if channels % r:
            raise ParameterError(f"reduction ratio {r} must divide channels {channels}")
        hidden = channels // r
        params.reduce_weight = kaiming_uniform(
            (hidden, channels), fan_in=channels, rng=rng.split("reduce_weight"), dtype=dtype
        )
        params.expand_weight = kaiming_uniform(
            (channels, hidden), fan_in=hidden, rng=rng.split("expand_weight"), dtype=dtype
        )
    return params


def spatial_excitation(s: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-location weights in (0,1): sigmoid(1x1 conv collapsing channels)."""
    if s.ndim != 4 or s.shape[1] != weight.shape[1]:
        raise ShapeError(f"spatial_excitation: input {s.shape} vs weight {weight.shape}")
    return sigmoid(conv2d(s, weight, bias, stride=1, padding=0))


def channel_squeeze(s: Tensor) -> Tensor:
    """Spatial mean per channel: [B, C, H, W] -> [B, C]."""
    if s.ndim != 4:
        raise ShapeError(f"channel_squeeze: need 4-D input, got {s.shape}")
    return tmean(s, axis=(2, 3))


def channel_excitation(e: Tensor, reduce_weight: Tensor, expand_weight: Tensor) -> Tensor:
    """Bottleneck MLP with ReLU then sigmoid, no biases: [B, C] -> [B, C].
    Its products are one-row products, as in the layer node, so a sample's
    gate does not depend on the batch it is in."""
    hidden = relu(linear(e, reduce_weight, rowwise=True))
    return sigmoid(linear(hidden, expand_weight, rowwise=True))


def fuse(u_spatial: Tensor, u_channel: Tensor) -> Tensor:
    """Broadcast product of [B, 1, H, W] and [B, C] into a [B, C, H, W] gate."""
    if u_spatial.ndim != 4 or u_channel.ndim != 2:
        raise ShapeError(f"fuse: got {u_spatial.shape} and {u_channel.shape}")
    b, c = u_channel.shape
    return mul(u_spatial, reshape(u_channel, (b, c, 1, 1)))


def compute_attention(
    s: Tensor,
    params: Optional[AttentionParams],
    variant: AttentionVariant,
) -> Optional[Tensor]:
    """Build the gate for one layer from its previous-step spike map.

    Returns None for the baseline variant. For the degenerate variants the
    surviving branch broadcasts over the missing axis at multiply time, so
    no values are materialized that a fused gate whose other branch is
    exactly one would not produce bitwise.
    """
    if variant == AttentionVariant.BL:
        return None
    if params is None:
        raise ParameterError(f"variant {variant.value} requires attention parameters")
    b, c = s.shape[:2]

    u_s = None
    if variant.has_spatial:
        u_s = spatial_excitation(s, params.spatial_weight, params.spatial_bias)
    u_c = None
    if variant.has_channel:
        u_c = channel_excitation(channel_squeeze(s), params.reduce_weight, params.expand_weight)

    if variant == AttentionVariant.SCTFA:
        return fuse(u_s, u_c)
    if variant == AttentionVariant.STFA:
        return u_s  # broadcasts over channels
    return reshape(u_c, (b, c, 1, 1))  # broadcasts over space
