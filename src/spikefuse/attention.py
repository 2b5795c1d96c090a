"""Spatial-channel gating block and its ablated variants.

From a layer's binary spike map [B, C, H, W] the full block builds

  - a spatial branch: sigmoid of a 1x1 convolution collapsing channels,
    giving per-location weights [B, 1, H, W];
  - a channel branch: spatial mean per channel, squeezed through a
    bottleneck MLP (C -> C/r -> C, ReLU then sigmoid, no biases), giving
    per-channel weights [B, C];
  - their broadcast product, a full gate [B, C, H, W] with values in (0,1).

Variants: ``sctfa`` has both branches, ``stfa`` only the spatial branch,
``ctfa`` only the channel branch, ``bl`` no gate at all. The omitted
branch's parameters are never allocated, and the gate runs the branches
whose parameters exist.
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
    _data_for,
    _result,
    _row_matmul,
    conv2d,
    kaiming_uniform,
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


VARIANTS = tuple(v.value for v in AttentionVariant)  # the names a config or flag takes


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


def _row_linear(x: Tensor, weight: Tensor) -> Tensor:
    """``x [B, F] @ weight[O, F].T`` as one-row products
    (``tensor._row_matmul``), as the layer node computes the channel MLP;
    the weight gradient is a sum over rows."""
    wd, xd = _data_for(weight, x), _data_for(x, weight)
    return _result(
        _row_matmul(x.data, weight.data.T),
        (x, weight),
        lambda g: (None if wd is None else _row_matmul(g, wd), None if xd is None else g.T @ xd),
    )


def channel_excitation(e: Tensor, reduce_weight: Tensor, expand_weight: Tensor) -> Tensor:
    """Bottleneck MLP with ReLU then sigmoid, no biases: [B, C] -> [B, C].
    Its products are one-row products, as in the layer node, so a sample's
    gate does not depend on the batch it is in."""
    return sigmoid(_row_linear(relu(_row_linear(e, reduce_weight)), expand_weight))


def compute_attention(s: Tensor, params: Optional[AttentionParams]) -> Optional[Tensor]:
    """The gate of one layer from its previous-step spike map: the product
    of the branches whose parameters ``params`` holds, None when it holds
    none.

    A lone branch broadcasts over the missing axis at multiply time, so no
    values are materialized that a gate whose other branch is exactly one
    would not produce bitwise.
    """
    if params is None:
        return None
    u = None
    if params.spatial_weight is not None:
        u = spatial_excitation(s, params.spatial_weight, params.spatial_bias)
    if params.reduce_weight is not None:
        b, c = s.shape[:2]
        u_c = channel_excitation(tmean(s, axis=(2, 3)), params.reduce_weight, params.expand_weight)
        u_c = reshape(u_c, (b, c, 1, 1))
        u = u_c if u is None else mul(u, u_c)
    return u
