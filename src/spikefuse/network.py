"""Architecture mini-language, the layered spiking network, and counters.

Architecture strings are dash-separated tokens:

    Input-128C5S2-BN-AP2-128C3-BN-AP2-512FC-VotingC11P5-AP

``<n>C<k>[S<s>]`` is a convolution with n output channels, k*k kernel and
stride s (default 1, padding fixed at floor(k/2) so pooling chains stay
divisible); ``BN`` attaches batch normalization to the preceding
convolution; ``AP<k>`` is a k*k average pool; ``DP`` is dropout at rate
0.5; ``<n>FC`` a fully connected spiking layer; ``VotingC<M>P<P>`` the
final spiking layer with P neurons per class; a trailing bare ``AP``
denotes the temporal average of the per-step vote vector, not a spatial
pool.

Every convolutional layer carries conv -> (BN) -> LIF dynamics unrolled
over T timesteps; from the second step on, a non-baseline variant gates the
decayed membrane history with the attention tensor computed from the
layer's own previous-step spikes. Fully connected and voting layers always
use the plain update. Conv, fully connected and voting layers are one
class: a synapse that runs once over all T*B frames, then one
``neuron.lif_sequence`` node. For a conv layer that node also runs its
batch norm and the ``AP<k>`` pool that directly follows it, which the conv
layer absorbs at build time; a pool after anything else stays a layer of
its own, as does dropout. Pooling acts on spikes, so deeper layers receive
fractional input current in [0, 1]; the first layer receives raw frame
counts.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .atomic import atomic_open
from .attention import AttentionVariant, init_attention_params
from .errors import ArchError, CheckpointError, ConfigError, ParameterError, ShapeError, SpikefuseError, StateError, typed
from .neuron import BatchNorm, LifConfig, lif_sequence
from .rng import Rng
from .tensor import (
    BatchNormState,
    Tensor,
    avgpool2d,
    conv2d,
    dropout,
    kaiming_uniform,
    linear,
    ones_param,
    reshape,
    tmean,
    transpose,
    zeros_param,
)

_CONV_RE = re.compile(r"^(\d+)C(\d+)(?:S(\d+))?$")
_POOL_RE = re.compile(r"^AP(\d+)$")
_FC_RE = re.compile(r"^(\d+)FC$")
_VOTE_RE = re.compile(r"^VotingC(\d+)P(\d+)$")

DROPOUT_RATE = 0.5

# Each precision by name, with the little-endian dtype a checkpoint stores
# it in; a checkpoint's u8 precision flag is the name's index here.
PRECISIONS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def precision_dtype(name):
    """The scalar type of precision ``name``; ConfigError if it has none."""
    if not isinstance(name, str) or name not in PRECISIONS:
        raise ConfigError(f"must be {' or '.join(PRECISIONS)}, got {name!r}", field="precision")
    return PRECISIONS[name].type


@dataclass
class ConvStage:
    out_channels: int
    kernel: int
    stride: int
    batch_norm: bool
    in_channels: int
    out_hw: Tuple[int, int]

    @property
    def padding(self) -> int:
        return self.kernel // 2

    def token(self) -> str:
        t = f"{self.out_channels}C{self.kernel}"
        if self.stride != 1:
            t += f"S{self.stride}"
        return t + ("-BN" if self.batch_norm else "")


@dataclass
class PoolStage:
    k: int

    def token(self) -> str:
        return f"AP{self.k}"


@dataclass
class DropoutStage:
    def token(self) -> str:
        return "DP"


@dataclass
class DenseStage:
    in_features: int
    out_features: int

    def token(self) -> str:
        return f"{self.out_features}FC"


@dataclass
class VotingStage:
    in_features: int
    classes: int
    per_class: int

    @property
    def out_features(self) -> int:
        return self.classes * self.per_class

    def token(self) -> str:
        return f"VotingC{self.classes}P{self.per_class}"


Stage = Union[ConvStage, PoolStage, DropoutStage, DenseStage, VotingStage]


@dataclass
class NetworkSpec:
    """Validated architecture plus everything needed to instantiate it."""

    stages: List[Stage]
    variant: AttentionVariant
    lif: LifConfig
    reduction: int
    input_shape: Tuple[int, int, int]  # (2, H, W)
    timesteps: int
    classes: Optional[int]
    per_class: Optional[int]

    @property
    def arch_string(self) -> str:
        tokens = ["Input"] + [s.token() for s in self.stages]
        if self.classes is not None:
            tokens.append("AP")
        return "-".join(tokens)


def parse_architecture(
    s: str,
    input_shape: Tuple[int, int, int] = (2, 128, 128),
    variant: Union[AttentionVariant, str] = AttentionVariant.BL,
    lif: Optional[LifConfig] = None,
    reduction: int = 4,
    timesteps: int = 10,
) -> NetworkSpec:
    """Parse and shape-check an architecture string against an input shape.

    Raises ArchError naming the token index on unknown tokens, zero sizes,
    inconsistent shapes, a voting layer that is not last, or channels that
    a channel-gated variant's reduction ratio does not divide, and ArchError
    for an unknown variant or a reduction ratio or timestep count below 1.
    The ``field`` of a variant or reduction error names that argument. A
    spec without a voting layer is valid for the complexity counters but
    cannot be instantiated.
    """
    try:
        variant = AttentionVariant(variant)
    except ValueError:
        raise ArchError(f"unknown variant {variant!r}", field="variant")
    if reduction < 1:
        raise ArchError(f"reduction ratio must be >= 1, got {reduction}", field="reduction")
    if timesteps < 1:
        raise ArchError(f"timesteps must be >= 1, got {timesteps}")
    lif = lif or LifConfig(v_th=1.15, kappa=0.7)
    tokens = s.split("-")
    if not tokens or tokens[0] != "Input":
        raise ArchError("architecture must start with 'Input'", token_index=0)
    if len(input_shape) != 3 or input_shape[0] != 2 or min(input_shape[1:]) < 1:
        raise ArchError(f"input shape must be (2, H, W) with H, W >= 1, got {input_shape}")

    stages: List[Stage] = []
    channels, (h, w) = input_shape[0], (input_shape[1], input_shape[2])
    features: Optional[int] = None  # set once the net flattens
    voting_seen = False

    for i, tok in enumerate(tokens[1:], start=1):
        if voting_seen:
            if tok == "AP" and i == len(tokens) - 1:
                continue
            raise ArchError(f"voting layer must be last, found {tok!r} after it", token_index=i)

        m = _CONV_RE.match(tok)
        if m:
            if features is not None:
                raise ArchError("convolution after a fully connected stage", token_index=i)
            n, k, stride = int(m.group(1)), int(m.group(2)), int(m.group(3) or 1)
            if k < 1 or n < 1 or stride < 1:
                raise ArchError(f"bad convolution token {tok!r}", token_index=i)
            pad = k // 2
            oh = (h + 2 * pad - k) // stride + 1
            ow = (w + 2 * pad - k) // stride + 1
            if oh < 1 or ow < 1:
                raise ArchError(f"{tok!r} collapses spatial extent ({h}, {w})", token_index=i)
            if variant.has_channel and n % reduction:
                raise ArchError(f"reduction ratio {reduction} must divide the {n} channels of {tok!r}",
                                token_index=i, field="reduction")
            stages.append(ConvStage(n, k, stride, False, channels, (oh, ow)))
            channels, (h, w) = n, (oh, ow)
            continue
        if tok == "BN":
            if not stages or not isinstance(stages[-1], ConvStage):
                raise ArchError("BN must directly follow a convolution", token_index=i)
            if stages[-1].batch_norm:
                raise ArchError("duplicate BN on one convolution", token_index=i)
            stages[-1].batch_norm = True
            continue
        m = _POOL_RE.match(tok)
        if m:
            if features is not None:
                raise ArchError("spatial pool after a fully connected stage", token_index=i)
            k = int(m.group(1))
            if k < 1:
                raise ArchError(f"bad pool token {tok!r}", token_index=i)
            if h % k or w % k:
                raise ArchError(
                    f"AP{k} needs extents divisible by {k}, got ({h}, {w})", token_index=i
                )
            stages.append(PoolStage(k))
            h, w = h // k, w // k
            continue
        if tok == "DP":
            stages.append(DropoutStage())
            continue
        m = _FC_RE.match(tok)
        if m:
            out_features = int(m.group(1))
            if out_features < 1:
                raise ArchError(f"bad fully connected token {tok!r}", token_index=i)
            in_features = features if features is not None else channels * h * w
            stages.append(DenseStage(in_features, out_features))
            features = out_features
            continue
        m = _VOTE_RE.match(tok)
        if m:
            classes, per_class = int(m.group(1)), int(m.group(2))
            if classes < 1 or per_class < 1:
                raise ArchError(f"bad voting token {tok!r}", token_index=i)
            in_features = features if features is not None else channels * h * w
            stages.append(VotingStage(in_features, classes, per_class))
            voting_seen = True
            continue
        if tok == "AP":
            raise ArchError("bare AP (temporal average) only allowed after voting", token_index=i)
        raise ArchError(f"unknown token {tok!r}", token_index=i)

    vote = next((st for st in stages if isinstance(st, VotingStage)), None)
    return NetworkSpec(
        stages=stages,
        variant=variant,
        lif=lif,
        reduction=reduction,
        input_shape=tuple(input_shape),
        timesteps=timesteps,
        classes=vote.classes if vote else None,
        per_class=vote.per_class if vote else None,
    )


# ---------------------------------------------------------------------------
# complexity counters


def _attention_param_count(channels: int, variant: AttentionVariant, r: int) -> int:
    n = 0
    if variant.has_spatial:
        n += channels + 1
    if variant.has_channel:
        n += 2 * channels * channels // r
    return n


def count_parameters(spec: NetworkSpec) -> int:
    """Trainable parameter count: conv Cin*Cout*k^2+Cout, BN 2C, dense
    F*O+O, voting F*M*P+M*P, plus per-conv attention (spatial C+1, channel
    2C^2/r) for non-baseline variants."""
    total = 0
    for st in spec.stages:
        if isinstance(st, ConvStage):
            total += st.in_channels * st.out_channels * st.kernel**2 + st.out_channels
            if st.batch_norm:
                total += 2 * st.out_channels
            total += _attention_param_count(st.out_channels, spec.variant, spec.reduction)
        elif isinstance(st, (DenseStage, VotingStage)):
            total += st.in_features * st.out_features + st.out_features
    return total


def count_mult_adds(spec: NetworkSpec) -> int:
    """Dense multiply-accumulate count per timestep, scaled by T.

    Counts convolution and fully connected MACs plus the attention branches
    (spatial 1x1 conv C*H*W, channel MLP 2C^2/r per layer); normalization,
    pooling and elementwise gating products are excluded.
    """
    per_step = 0
    for st in spec.stages:
        if isinstance(st, ConvStage):
            oh, ow = st.out_hw
            per_step += oh * ow * st.out_channels * (st.in_channels * st.kernel**2)
            if spec.variant.has_spatial:
                per_step += st.out_channels * oh * ow
            if spec.variant.has_channel:
                per_step += 2 * st.out_channels**2 // spec.reduction
        elif isinstance(st, (DenseStage, VotingStage)):
            per_step += st.in_features * st.out_features
    return per_step * spec.timesteps


# ---------------------------------------------------------------------------
# runtime layers


@dataclass
class _ForwardCtx:
    training: bool
    rng: Optional[Rng]
    smooth: bool
    record_hidden: bool
    hidden_trace: Optional[np.ndarray] = None


class _SpikingLayer:
    """A conv, fully connected or voting layer: the synapse runs once over
    all T*B frames (``conv2d`` when the weight is 4-D, else flatten and
    ``linear``), then one ``lif_sequence`` node with the layer's batch norm,
    attention gate and absorbed ``AP<k>``, where it has them. A voting
    layer reads out the mean spike of each class's group per step."""

    def __init__(self, st: Stage, spec: NetworkSpec, name: str, rng: Rng, dtype):
        self.lif = spec.lif
        self.name = name
        self.is_last_conv = False
        self.pool = 1  # k of the AP<k> that follows a conv layer, absorbed at build time
        self.groups = (st.classes, st.per_class) if isinstance(st, VotingStage) else None
        self.bn_gamma = self.bn_beta = self.bn_state = self.attention = None
        if isinstance(st, ConvStage):
            self.prefix, self.stride, self.padding = f"{name}.conv", st.stride, st.padding
            shape = (st.out_channels, st.in_channels, st.kernel, st.kernel)
            fan_in = st.in_channels * st.kernel**2
            if st.batch_norm:
                self.bn_gamma = ones_param((st.out_channels,), dtype)
                self.bn_beta = zeros_param((st.out_channels,), dtype)
                self.bn_state = BatchNormState(st.out_channels, dtype)
            self.attention = init_attention_params(
                st.out_channels, spec.reduction, spec.variant, rng.split(f"{name}.att"), dtype
            )
        else:
            self.prefix = name
            shape, fan_in = (st.out_features, st.in_features), st.in_features
        # every parameter draws from its own named stream, so the order here is free
        self.weight = kaiming_uniform(shape, fan_in, rng.split(f"{self.prefix}.weight"), dtype)
        self.bias = zeros_param((shape[0],), dtype)

    def named_parameters(self):
        out = [(f"{self.prefix}.weight", self.weight), (f"{self.prefix}.bias", self.bias)]
        if self.bn_gamma is not None:
            out += [(f"{self.name}.bn.gamma", self.bn_gamma), (f"{self.name}.bn.beta", self.bn_beta)]
        if self.attention is not None:
            out += [(f"{self.name}.att.{field}", p) for field, p in self.attention.named()]
        return out

    def named_buffers(self):
        if self.bn_state is None:
            return []
        return [
            (f"{self.name}.bn.running_mean", self.bn_state.mean),
            (f"{self.name}.bn.running_var", self.bn_state.var),
        ]

    def forward_sequence(self, x: Tensor, t_steps: int, batch: int, ctx: _ForwardCtx) -> Tensor:
        if self.weight.ndim == 4:
            cur = conv2d(x, self.weight, self.bias, self.stride, self.padding)
        else:
            if x.ndim != 2:
                x = reshape(x, (t_steps * batch, int(np.prod(x.shape[1:]))))
            cur = linear(x, self.weight, self.bias)
        norm = None
        if self.bn_state is not None:
            norm = BatchNorm(self.bn_gamma, self.bn_beta, self.bn_state, ctx.training)
        trace = ctx.record_hidden and self.is_last_conv
        spikes, v = lif_sequence(
            cur, self.lif, self.attention, smooth=ctx.smooth, timesteps=t_steps, norm=norm,
            pool=self.pool, keep_membrane=trace,
        )
        if trace:
            ctx.hidden_trace = v.swapaxes(0, 1)  # [B, T, C, H, W]
            ctx.hidden_trace.flags.writeable = False
        if self.groups is None:
            return spikes
        m, p = self.groups
        votes = tmean(reshape(spikes, (t_steps, batch, m, p)), axis=3)  # group means [T, B, M]
        return transpose(votes, (1, 2, 0))  # [B, M, T]


class _NoParameters:
    """A layer with no parameters and no buffers."""

    def named_parameters(self):
        return []

    def named_buffers(self):
        return []


class _PoolLayer(_NoParameters):
    def __init__(self, st: PoolStage):
        self.st = st

    def forward_sequence(self, x, t_steps, batch, ctx):
        return avgpool2d(x, self.st.k)


class _DropoutLayer(_NoParameters):
    def forward_sequence(self, x, t_steps, batch, ctx):
        if not ctx.training:
            return x
        if ctx.rng is None:
            raise StateError("dropout in training mode needs a forward rng")
        rest = x.shape[1:]
        # One mask per sample, reused across all timesteps.
        mask = (ctx.rng.random((batch,) + rest) >= DROPOUT_RATE).astype(x.data.dtype)
        tiled = np.tile(mask, (t_steps,) + (1,) * len(rest))
        return dropout(x, DROPOUT_RATE, tiled)


@dataclass
class VoteOutput:
    """Per-step class scores o[b, m, t] = mean spike of class m's group; with
    ``record_hidden``, ``hidden`` is the last conv layer's membrane [B, T, C, H, W],
    a read-only view of the array the layer's backward reads (else None)."""

    o: Tensor
    hidden: Optional[np.ndarray] = None

    def scores(self) -> Tensor:
        """Time-mean vote vector [B, M]; the loss target."""
        return tmean(self.o, axis=2)

    def predictions(self) -> np.ndarray:
        """Argmax class per sample; ties break to the lowest index."""
        return np.argmax(self.scores().data, axis=1)


class SpikingNetwork:
    """A spec instantiated into parameterized layers with LIF dynamics.

    ``smooth`` replaces every Heaviside spike with the smooth surrogate so
    an end-to-end loss becomes finite-difference checkable.
    """

    def __init__(self, spec: NetworkSpec, seed: int = 0, dtype=np.float32, smooth: bool = False):
        if spec.classes is None:
            raise ArchError("network requires a voting layer")
        self.spec = spec
        self.seed = int(seed)
        self.dtype = np.dtype(dtype).type
        self.precision = next((name for name, d in PRECISIONS.items() if d.type == self.dtype), None)
        if self.precision is None:
            raise ParameterError(f"network dtype {np.dtype(dtype)} is none of the precisions {', '.join(PRECISIONS)}")
        self.smooth = smooth

        rng = Rng(self.seed).split("init")
        self.layers = []
        last_conv = None
        for i, st in enumerate(spec.stages):
            if isinstance(st, PoolStage):
                # a spiking layer before a pool is a conv layer: the parser
                # rejects a spatial pool after a fully connected stage
                last = self.layers[-1] if self.layers else None
                if isinstance(last, _SpikingLayer) and last.pool == 1:
                    last.pool = st.k  # the conv layer's node pools its spikes
                else:
                    self.layers.append(_PoolLayer(st))
            elif isinstance(st, DropoutStage):
                self.layers.append(_DropoutLayer())
            else:
                self.layers.append(_SpikingLayer(st, spec, f"layer{i}", rng, self.dtype))
                if isinstance(st, ConvStage):
                    last_conv = self.layers[-1]
        if last_conv is not None:
            last_conv.is_last_conv = True

    def named_parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.named_parameters())
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self):
        """(name, array) pairs for non-trainable state (BN running stats)."""
        out = []
        for layer in self.layers:
            out.extend(layer.named_buffers())
        return out

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def forward(
        self,
        frames,
        training: bool = False,
        rng: Optional[Rng] = None,
        record_hidden: bool = False,
    ) -> VoteOutput:
        """Run the unrolled network on frames [B, T, 2, H, W].

        The first timestep updates every layer with the plain LIF rule; from
        the second step each convolutional layer is gated by the attention
        tensor of its own previous-step spikes (non-baseline variants).
        ``record_hidden`` returns the last conv layer's membrane as ``hidden``.
        """
        data = frames.data if isinstance(frames, Tensor) else np.asarray(frames)
        if data.ndim != 5:
            raise ShapeError(f"forward: frames must be [B, T, 2, H, W], got {data.shape}")
        b, t_steps = data.shape[0], data.shape[1]
        if b < 1:
            # batch statistics of an empty batch are NaN and would poison the running ones
            raise ShapeError(f"forward: frames hold no samples, got {data.shape}")
        if t_steps != self.spec.timesteps:
            raise ShapeError(f"forward: expected T={self.spec.timesteps}, got {t_steps}")
        if tuple(data.shape[2:]) != tuple(self.spec.input_shape):
            raise ShapeError(
                f"forward: expected input {self.spec.input_shape}, got {tuple(data.shape[2:])}"
            )
        flat = np.ascontiguousarray(data.transpose(1, 0, 2, 3, 4)).reshape(
            t_steps * b, *self.spec.input_shape
        )
        x = Tensor(flat.astype(self.dtype, copy=False))
        ctx = _ForwardCtx(
            training=training,
            rng=rng,
            smooth=self.smooth,
            record_hidden=record_hidden,
        )
        for layer in self.layers:
            x = layer.forward_sequence(x, t_steps, b, ctx)
        return VoteOutput(o=x, hidden=ctx.hidden_trace)

    def config_dict(self) -> dict:
        return {
            "arch": self.spec.arch_string,
            "variant": self.spec.variant.value,
            "v_th": self.spec.lif.v_th,
            "kappa": self.spec.lif.kappa,
            "reduction": self.spec.reduction,
            "timesteps": self.spec.timesteps,
            "input_height": self.spec.input_shape[1],
            "input_width": self.spec.input_shape[2],
            "precision": self.precision,
        }


def build_network(config: dict, seed: int = 0) -> SpikingNetwork:
    """Instantiate a network from the flat config dict ``config_dict`` emits."""
    spec = parse_architecture(
        config["arch"],
        input_shape=(2, int(config["input_height"]), int(config["input_width"])),
        variant=config["variant"],
        lif=LifConfig(v_th=float(config["v_th"]), kappa=float(config["kappa"])),
        reduction=int(config["reduction"]),
        timesteps=int(config["timesteps"]),
    )
    dtype = precision_dtype(config.get("precision", "f32"))
    return SpikingNetwork(spec, seed=seed, dtype=dtype)


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"SNN1"
# The embedded config keys build_network reads, with the types ``typed``
# checks them as.
_CKPT_CONFIG_TYPES = {"arch": str, "variant": str, "v_th": float, "kappa": float, "reduction": int,
                      "timesteps": int, "input_height": int, "input_width": int}
# The keys a run adds for slicing its corpus, which a checkpoint may lack.
_CKPT_SLICING_TYPES = {"delta_t_ms": float, "binarize": bool}


def _checkpoint_entries(net: SpikingNetwork):
    entries = [(name, p.data) for name, p in net.named_parameters()]
    entries += net.named_buffers()
    return entries


def save_checkpoint(path, net: SpikingNetwork, extra_config: Optional[dict] = None) -> None:
    """Flat binary checkpoint plus a human-readable manifest.

    Layout: magic "SNN1", u32 config length, config JSON (the network config
    merged with ``extra_config``), u8 precision flag (index in ``PRECISIONS``), u32
    tensor count, then per tensor u8 ndim + u32 extents + raw little-endian
    data, in registration order (trainables first, then buffers). The
    manifest at ``<stem>.manifest.tsv`` lists name, shape and byte offset.
    """
    path = Path(path)
    config = dict(net.config_dict())
    if extra_config:
        config.update(extra_config)
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    store_dtype = PRECISIONS[net.precision]
    entries = _checkpoint_entries(net)

    manifest_rows = []
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<BI", list(PRECISIONS).index(net.precision), len(entries)))
        for name, arr in entries:
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            offset = fh.tell()
            fh.write(np.ascontiguousarray(arr, dtype=store_dtype).tobytes())
            manifest_rows.append((name, arr.shape, offset))
    with atomic_open(path.with_suffix(".manifest.tsv"), "w") as fh:
        fh.write("name\tshape\tbyte_offset\n")
        for name, shape, offset in manifest_rows:
            fh.write(f"{name}\t{'x'.join(map(str, shape))}\t{offset}\n")


def load_checkpoint(path):
    """Rebuild the network a checkpoint describes and load its tensors.

    Returns (network, config). Batch-norm statistics restored from a
    checkpoint are treated as initialized. A file that cannot be read
    raises CheckpointError naming the path. Every read is bounds-checked: a
    truncated or malformed file raises CheckpointError naming the path and
    the byte offset. An embedded config that lacks a key the network needs,
    or holds it or a slicing key (``delta_t_ms``, ``binarize``) with the
    wrong type or value, names the path and the key; one that describes no
    valid network names the path.
    """
    path = Path(path)
    try:
        raw = memoryview(path.read_bytes())
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror}") from exc
    pos = 0

    def read(n, what):
        nonlocal pos
        if n > len(raw) - pos:
            raise CheckpointError(
                f"{path}: truncated at byte offset {pos}: {what} needs {n} bytes, "
                f"{len(raw) - pos} left"
            )
        pos += n
        return raw[pos - n : pos]

    def unpack(fmt, what):
        return struct.unpack(fmt, read(struct.calcsize(fmt), what))

    if bytes(read(4, "magic")) != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic at byte offset 0")
    (blob_len,) = unpack("<I", "config length")
    blob = read(blob_len, "config blob")
    try:
        config = json.loads(bytes(blob).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad config blob at byte offset 8: {exc}")
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config blob is not a JSON object")
    for key, kind in (*_CKPT_CONFIG_TYPES.items(), *_CKPT_SLICING_TYPES.items()):
        if key not in config:
            if key in _CKPT_SLICING_TYPES:
                continue
            raise CheckpointError(f"{path}: config lacks key {key!r}")
        try:
            typed(config[key], kind, key)
        except ConfigError as exc:
            raise CheckpointError(f"{path}: config key {key!r} is not valid: {exc.reason}")
    if config.get("delta_t_ms", 1.0) <= 0:
        raise CheckpointError(f"{path}: config key 'delta_t_ms' is {config['delta_t_ms']}, expected a positive number")
    flag, count = unpack("<BI", "precision flag and tensor count")
    if flag >= len(PRECISIONS):
        raise CheckpointError(f"{path}: bad precision flag {flag} at byte offset {pos - 5}")
    config["precision"] = list(PRECISIONS)[flag]
    store_dtype = PRECISIONS[config["precision"]]

    try:
        net = build_network(config, seed=0)
    except SpikefuseError as exc:
        raise CheckpointError(f"{path}: config does not describe a network: {exc}") from exc
    entries = _checkpoint_entries(net)
    if len(entries) != count:
        raise CheckpointError(
            f"{path}: checkpoint has {count} tensors, network expects {len(entries)}"
        )
    arrays = []
    for name, target in entries:
        # rank and shape are checked against the network before the data is read
        at = pos
        (ndim,) = unpack("<B", f"rank of tensor {name}")
        if ndim != target.ndim:
            raise CheckpointError(
                f"{path}: tensor {name} has rank {ndim} at byte offset {at}, network expects {target.ndim}"
            )
        at = pos
        shape = unpack(f"<{ndim}I", f"shape of tensor {name}")
        if shape != target.shape:
            raise CheckpointError(
                f"{path}: tensor {name} has shape {shape} at byte offset {at}, network expects {target.shape}"
            )
        data = read(target.size * store_dtype.itemsize, f"data of tensor {name}")
        arrays.append(np.frombuffer(data, dtype=store_dtype).reshape(shape))
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes at byte offset {pos}")

    for (name, target), arr in zip(entries, arrays):
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
        target[...] = arr.astype(target.dtype)
    for layer in net.layers:
        if getattr(layer, "bn_state", None) is not None:
            layer.bn_state.initialized = True
    return net, config
