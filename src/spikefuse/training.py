"""Loss, optimizer, training loop, and evaluation.

The loss is the mean squared error between the one-hot label vector and the
time-averaged vote vector, with a 1/2 factor and averaged over the batch:

    loss = (1 / 2N) * sum_n || y_n - mean_t o_n ||^2

Training runs epochs of shuffled mini-batches of forward -> loss ->
backward -> Adam, with a per-epoch exponentially decayed learning rate
(lr(epoch) = eta * gamma^epoch), evaluates test top-1 accuracy every epoch
and keeps the best-accuracy parameter snapshot. All randomness (shuffling,
dropout) comes from streams derived from the config seed, so a rerun with
the same config reproduces the run record bitwise. Wall-clock timings are
therefore reported separately from the record.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from . import tensor
from .errors import ArchError, ConfigError, DivergenceError, ParameterError, ShapeError, StateError, check_fields, typed
from .events import (
    CorruptionSpec,
    EventStream,
    _frame_cells,
    _frame_counts,
    _frame_shape,
    _kept,
)
from .network import NetworkSpec, SpikingNetwork, parse_architecture, precision_dtype
from .neuron import LifConfig
from .rng import Rng
from .tensor import Tensor, no_grad, tmean, tsum

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def one_hot(labels: Sequence[int], classes: int, dtype=np.float32) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ParameterError(f"label index out of range for {classes} classes")
    out = np.zeros((len(labels), classes), dtype=dtype)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def mse_vote_loss(o: Tensor, targets: np.ndarray) -> Tensor:
    """Half mean squared error of the time-averaged votes against one-hot
    targets [B, M]."""
    if o.ndim != 3:
        raise ShapeError(f"votes must be [B, M, T], got {o.shape}")
    b, m, _ = o.shape
    if targets.shape != (b, m):
        raise ShapeError(f"targets {targets.shape} incompatible with votes {o.shape}")
    diff = tmean(o, axis=2) - Tensor(targets.astype(o.data.dtype))
    return tsum(diff * diff) * (0.5 / b)


def lr_schedule(eta: float, gamma: float, epoch: int) -> float:
    """Exponential decay: eta * gamma^epoch."""
    return eta * gamma**epoch


class Adam:
    """Standard bias-corrected Adam over named parameter tensors."""

    def __init__(self, named_params):
        self.named_params = list(named_params)
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1**t
        bc2 = 1.0 - ADAM_BETA2**t
        for name, p in self.named_params:
            if p.grad is None:
                raise StateError(f"adam: parameter {name} has no gradient")
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()


# ---------------------------------------------------------------------------
# config


@dataclass(frozen=True)
class DataConfig:
    """How a run reads its corpora; a bad field raises ConfigError naming it."""

    delta_t_ms: float
    timesteps: int
    train_dir: Optional[str] = None
    test_dir: Optional[str] = None
    binarize: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.delta_t_ms <= 0:
            raise ConfigError("delta_t_ms must be positive", field="delta_t_ms")
        if self.timesteps < 1:
            raise ConfigError("timesteps must be >= 1", field="timesteps")


@dataclass(frozen=True)
class TrainConfig:
    """One training run. A bad field raises ConfigError naming it, as does
    a config that describes no network (naming ``arch`` unless the variant
    or the reduction ratio is at fault). Frozen, so it stays as checked."""

    arch: str
    variant: str
    epochs: int
    batch_size: int
    lr: float
    lr_decay: float
    seed: int
    lif: LifConfig
    data: DataConfig
    reduction: int = 4
    precision: str = "f32"
    input_height: int = 128
    input_width: int = 128

    def __post_init__(self):
        check_fields(self)
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1", field=name)
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError("lr_decay must be in (0, 1]", field="lr_decay")
        precision_dtype(self.precision)
        try:
            self.spec()
        except ArchError as exc:
            raise ConfigError(str(exc), field=exc.field or "arch")

    def spec(self) -> NetworkSpec:
        """The network this config describes."""
        return parse_architecture(
            self.arch,
            input_shape=(2, self.input_height, self.input_width),
            variant=self.variant,
            lif=self.lif,
            reduction=self.reduction,
            timesteps=self.data.timesteps,
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _reject_unknown(mapping: dict, known, path: str) -> None:
    """ConfigError naming the first key of ``mapping`` not in ``known``, so
    that a misspelled key fails instead of leaving its default in place."""
    for key in mapping:
        if key not in known:
            raise ConfigError("unknown field", field=f"{path}{key}")


def _from_dict(cls, doc: dict, path: str = ""):
    """The dataclass ``cls`` built from the JSON object ``doc``: a field the
    object lacks keeps its default, and a field whose type is a dataclass
    is built from a nested object. Errors name the field, ``path`` first."""
    _reject_unknown(doc, {f.name for f in fields(cls)}, path)
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        kind, name = hints[f.name], path + f.name
        if f.name not in doc:
            if f.default is MISSING:
                raise ConfigError("missing required field", field=name)
        elif is_dataclass(kind):
            kwargs[f.name] = _from_dict(kind, typed(doc[f.name], dict, name), name + ".")
        else:
            kwargs[f.name] = doc[f.name]
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(exc.reason, field=path + exc.field) from None


def config_from_dict(doc: dict) -> TrainConfig:
    """The TrainConfig of a JSON config document, which must also give a
    positive ``lr``; errors name the dotted field path."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    cfg = _from_dict(TrainConfig, doc)
    if cfg.lr <= 0:
        raise ConfigError("lr must be positive", field="lr")
    return cfg


# ---------------------------------------------------------------------------
# datasets


@dataclass
class LabeledFrames:
    """A dataset materialized as arrays: frames [N, T, 2, H, W], labels [N]."""

    frames: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.labels)


def frames_from_streams(
    streams: Sequence[EventStream],
    delta_t_ms: float,
    timesteps: int,
    binarize: bool = False,
    dtype=np.float32,
) -> LabeledFrames:
    """The labeled streams as ``slice_to_frames`` count frames [N, T, 2, H,
    W] in ``dtype`` (presence maps if ``binarize``) and their labels."""
    dataset, _, clean = _bin_streams(streams, delta_t_ms, timesteps, dtype)
    _fill_frames(dataset.frames, clean, binarize)
    return dataset


def _bin_streams(streams, delta_t_ms, timesteps, dtype):
    """``(dataset, binned, clean)``: the labeled ``streams`` with frames
    [N, T, 2, H, W] in ``dtype`` allocated but not filled, each stream's
    ``events._frame_cells`` (binned here, once) and ``clean(i)``, stream
    i's int64 counts."""
    if not streams or any(s.label is None for s in streams):
        raise ParameterError("expected one or more streams, all labeled")
    shape = _frame_shape(streams[0], timesteps)
    if any(_frame_shape(s, timesteps) != shape for s in streams):
        raise ParameterError("all streams must have the same width and height")
    binned = [_frame_cells(s, delta_t_ms, timesteps) for s in streams]
    labels = np.array([s.label for s in streams], dtype=np.int64)
    dataset = LabeledFrames(np.empty((len(streams),) + shape, dtype=dtype), labels)
    return dataset, binned, lambda i: _frame_counts(binned[i][1], shape)


def _fill_frames(frames: np.ndarray, counts, binarize: bool) -> None:
    """Write row i of ``frames`` from ``counts(i)``, a fresh int64 count
    map clipped to 1 if ``binarize``, one row per ``tensor._run_blocks``
    task. ``counts`` must keep nothing (a kept array would pin its pool
    thread's malloc arena) and call no public function of ``events`` or
    ``training``: ``bench/tracer.py`` wraps those in spans whose stack all
    threads share."""
    def fill(_, i):
        row = counts(i)
        if binarize:
            np.minimum(row, 1, out=row)
        frames[i] = row

    tensor._run_blocks(tensor._threads(len(frames)), len(frames), fill)


# ---------------------------------------------------------------------------
# run records


@dataclass
class EpochStats:
    epoch: int
    loss: float
    test_acc: float
    lr: float


@dataclass
class RunRecord:
    """Everything a run produced. ``to_json`` covers the reproducible part;
    wall-clock timing is volatile and serialized separately."""

    config: dict
    per_epoch: List[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_acc: float = 0.0
    confusion: Optional[List[List[int]]] = None
    timing_ms: float = 0.0

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "per_epoch": [asdict(e) for e in self.per_epoch],
            "best_epoch": self.best_epoch,
            "best_acc": self.best_acc,
            "confusion": self.confusion,
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    def timing_json(self) -> str:
        # volatile sidecar: wall clock plus the settings and threading context
        # the kernels ran under (bitwise reproducibility is per fixed BLAS
        # thread count; the conv2d worker count changes no result)
        env = {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        }
        return json.dumps(
            {"timing_ms": self.timing_ms, "cpu_count": os.cpu_count(), "blas_env": env,
             **asdict(tensor.settings())},
            sort_keys=True,
        )


def confusion_matrix(predictions: np.ndarray, labels: np.ndarray, classes: int) -> np.ndarray:
    mat = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(mat, (labels, predictions), 1)
    return mat


# ---------------------------------------------------------------------------
# training and evaluation


def evaluate_frames(
    net: SpikingNetwork,
    dataset: LabeledFrames,
    batch_size: int = 32,
    record_hidden: bool = False,
    hidden_reference: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray, Optional[np.ndarray]]:
    """Top-1 accuracy and confusion matrix, plus one optional product of the
    last conv layer's membrane trajectories, read from each forward's
    ``VoteOutput.hidden``: with ``record_hidden`` the trajectories
    [N, T, C, H, W] concatenated over the dataset; with a
    ``hidden_reference`` of that shape the [N, T] per-sample, per-step L2
    distances from it, taken batch by batch so that the dataset's
    trajectories are never held whole."""
    classes = net.spec.classes
    n = len(dataset)
    preds = np.empty(n, dtype=np.int64)
    record = record_hidden or hidden_reference is not None
    hidden = None
    with no_grad():
        for lo in range(0, n, batch_size):
            idx = slice(lo, lo + batch_size)
            vote = net.forward(dataset.frames[idx], training=False, record_hidden=record)
            preds[idx] = vote.predictions()
            if not record:
                continue
            out = vote.hidden
            if hidden_reference is not None:
                diff = (hidden_reference[idx] - out).reshape(out.shape[0], out.shape[1], -1)
                # np.linalg.norm's own formula, less its conj() copy of diff,
                # squared in place
                out = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=2))
            if hidden is None:
                hidden = np.empty((n,) + out.shape[1:], dtype=out.dtype)
            hidden[idx] = out
    acc = float(np.mean(preds == dataset.labels)) if n else 0.0
    conf = confusion_matrix(preds, dataset.labels, classes)
    return acc, conf, hidden


def train(
    cfg: TrainConfig,
    train_set: LabeledFrames,
    test_set: LabeledFrames,
    eval_batch_size: int = 64,
) -> Tuple[RunRecord, SpikingNetwork]:
    """Run the full loop and return (record, network at best-accuracy state).

    Raises DivergenceError (with the partial record attached) if the loss
    goes non-finite.
    """
    if not len(train_set) or not len(test_set):
        raise ParameterError("datasets must be non-empty")
    net = SpikingNetwork(cfg.spec(), seed=cfg.seed, dtype=precision_dtype(cfg.precision))
    classes = net.spec.classes
    if int(train_set.labels.max()) >= classes or int(test_set.labels.max()) >= classes:
        raise ParameterError(f"dataset labels exceed {classes} classes")

    adam = Adam(net.named_parameters())
    run_rng = Rng(cfg.seed).split("train")
    record = RunRecord(config=cfg.to_dict())
    best_state: Optional[List[np.ndarray]] = None
    best_buffers: Optional[List[np.ndarray]] = None
    start = time.perf_counter()

    n = len(train_set)
    targets_all = one_hot(train_set.labels, classes, dtype=net.dtype)
    for epoch in range(cfg.epochs):
        lr = lr_schedule(cfg.lr, cfg.lr_decay, epoch)
        order = run_rng.split("shuffle", epoch).permutation(n)
        losses = []
        for step, lo in enumerate(range(0, n, cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            vote = net.forward(
                train_set.frames[idx],
                training=True,
                rng=run_rng.split("dropout", epoch, step),
            )
            loss = mse_vote_loss(vote.o, targets_all[idx])
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                record.timing_ms = (time.perf_counter() - start) * 1e3
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} step {step}", record=record
                )
            adam.zero_grad()
            loss.backward()
            adam.step(lr)
            losses.append(loss_val)
        acc, conf, _ = evaluate_frames(net, test_set, batch_size=eval_batch_size)
        record.per_epoch.append(
            EpochStats(epoch=epoch, loss=float(np.mean(losses)), test_acc=acc, lr=lr)
        )
        if acc > record.best_acc or best_state is None:
            record.best_acc = acc
            record.best_epoch = epoch
            record.confusion = conf.tolist()
            best_state = [p.data.copy() for p in net.parameters()]
            best_buffers = [arr.copy() for _, arr in net.named_buffers()]

    for p, saved in zip(net.parameters(), best_state):
        p.data[...] = saved
    for (_, arr), saved in zip(net.named_buffers(), best_buffers):
        arr[...] = saved
    record.timing_ms = (time.perf_counter() - start) * 1e3
    return record, net


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray
    activation_distance: Optional[float] = None


def evaluate_sweep(
    net: SpikingNetwork,
    streams: Sequence[EventStream],
    delta_t_ms: float,
    timesteps: int,
    corruptions: Sequence[CorruptionSpec] = (),
    binarize: bool = False,
    batch_size: int = 32,
) -> Iterator[EvalResult]:
    """Evaluate on clean event streams, then under each corruption spec.

    Yields the clean result first, then one result per spec as soon as its
    pass ends: L specs take L+1 passes. Each stream is binned into frame
    cells once, and every pass writes its counts into one batch in the
    network's dtype, one stream per pool task: Poisson noise adds draws to
    the clean counts, event loss counts the cells of the events its draw
    keeps, frame loss zeroes the dropped frames. Stream i draws from
    ``Rng(spec.seed).split("corrupt", spec.kind).split(i)``, so the frames
    equal those of the public operators for any number of threads. Each
    corrupted result carries the mean Euclidean distance between the clean
    and corrupted membrane trajectories of the last convolutional layer
    (mean over samples and timesteps of the per-step L2 norm over all
    neurons).
    """
    dataset, binned, clean = _bin_streams(streams, delta_t_ms, timesteps, net.dtype)
    shape = dataset.frames.shape[1:]
    _fill_frames(dataset.frames, clean, binarize)
    acc, conf, clean_hidden = evaluate_frames(
        net, dataset, batch_size=batch_size, record_hidden=bool(corruptions)
    )
    yield EvalResult(accuracy=acc, confusion=conf)
    for spec in corruptions:
        rng = Rng(spec.seed).split("corrupt", spec.kind)

        def corrupted(i):
            srng = rng.split(i)
            if spec.kind == "event_loss":
                in_range, cells = binned[i]
                return _frame_counts(cells[_kept(len(in_range), spec.parameter, srng)[in_range]], shape)
            counts = clean(i)
            if spec.kind == "poisson_noise":
                counts += srng.poisson(spec.parameter, size=shape)
            else:
                counts[~_kept(timesteps, spec.parameter, srng)] = 0
            return counts

        _fill_frames(dataset.frames, corrupted, binarize)
        acc, conf, distances = evaluate_frames(
            net, dataset, batch_size=batch_size, hidden_reference=clean_hidden
        )
        yield EvalResult(accuracy=acc, confusion=conf,
                         activation_distance=float(np.mean(distances)))


def evaluate(
    net: SpikingNetwork,
    streams: Sequence[EventStream],
    delta_t_ms: float,
    timesteps: int,
    corruption: Optional[CorruptionSpec] = None,
    binarize: bool = False,
    batch_size: int = 32,
) -> EvalResult:
    """Evaluate on event streams, optionally corrupted: the last result of
    ``evaluate_sweep`` over no spec or the one given, so a corrupted result
    also carries the activation distance from the clean set."""
    specs = () if corruption is None else (corruption,)
    *_, result = evaluate_sweep(
        net, streams, delta_t_ms, timesteps, specs, binarize=binarize, batch_size=batch_size
    )
    return result
