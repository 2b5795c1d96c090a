"""Probes and spans the benchmark installs from outside the program.

Both work by replacing attributes of the loaded ``spikefuse`` modules and
classes with timing wrappers, and both put every replaced attribute back on
``restore``. Nothing under ``src/`` knows about them.

``Probe`` is the light instrument of the untraced run: it times each
no-grad ``SpikingNetwork.forward`` call and each train step (from the
training forward to the end of ``Adam.step``), records every loss value,
hashes every forward output, and checks each gradient for finiteness after
the step's clock has stopped. That is three wrapper calls per train step.

``Tracer`` is the traced run's instrument: a span around every public op of
``tensor`` and around the layer entry points of ``neuron``, ``attention``,
``events``, ``network``, ``training`` and ``harness``, plus call and byte
counts. Spans nest; a span's self time is its duration minus its child
spans. A tensor op called from inside another tensor op (batchnorm's mean,
say) is counted but timed as part of the outer op, and so is its backward.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from spikefuse import attention, events, harness, network, neuron, tensor, training

perf = time.perf_counter

# Public differentiable ops of the tensor core.
TENSOR_OPS = (
    "add", "sub", "mul", "hadamard", "div", "neg", "pow_scalar", "sqrt", "sigmoid",
    "relu", "spike", "smooth_spike", "dropout", "tsum", "tmean", "reshape",
    "getitem", "stack", "matmul", "linear", "conv2d", "avgpool2d", "batchnorm",
)

# (module, function, span name) for module-level entry points.
FUNCTION_SPANS = (
    (neuron, "lif_step", "neuron.lif_step.fwd"),
    (neuron, "lif_step_attended", "neuron.lif_step.fwd"),
    (attention, "compute_attention", "attention.compute_attention.fwd"),
    (attention, "spatial_excitation", "attention.spatial_excitation.fwd"),
    (attention, "channel_excitation", "attention.channel_excitation.fwd"),
    (events, "read_events", "events.read_events"),
    (events, "write_events", "events.write_events"),
    (events, "slice_to_frames", "events.slice_to_frames"),
    (events, "add_poisson_noise", "events.corrupt"),
    (events, "drop_events", "events.corrupt"),
    (events, "drop_frames", "events.corrupt"),
    (network, "load_checkpoint", "network.load_checkpoint"),
    (network, "save_checkpoint", "network.save_checkpoint"),
    (training, "train", "training.train"),
    (training, "evaluate", "training.evaluate"),
    (training, "evaluate_frames", "training.evaluate_frames"),
    (training, "mse_vote_loss", "training.loss"),
    (harness, "load_corpus", "harness.load_corpus"),
    (harness, "cmd_robustness", "harness.cmd_robustness.self"),
)


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "spikefuse" or name.startswith("spikefuse."))]


class Patches:
    """Replaced attributes and the originals to put back."""

    def __init__(self):
        self.saved = []  # (owner, attribute, original)

    def function(self, module, attr, make_wrapper):
        """Replace ``module.attr`` in every program module that imported it."""
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod in _program_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def method(self, cls, attr, make_wrapper):
        original = cls.__dict__[attr]
        self.saved.append((cls, attr, original))
        setattr(cls, attr, make_wrapper(original))

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        first = {}
        for owner, attr, original in self.saved:
            first.setdefault((id(owner), attr), (owner, attr, original))
        self.saved = []
        return all(getattr(o, a) is orig for o, a, orig in first.values())


class Probe:
    """Times train steps and no-grad forward batches, per timed unit.

    A train step runs from the entry of ``SpikingNetwork.forward(training=
    True)`` to the end of ``Adam.step``; an inference batch is one no-grad
    ``SpikingNetwork.forward``. The probe also records loss values, hashes
    every forward output and checks every gradient for finiteness after the
    step's clock has stopped.
    """

    def __init__(self):
        self.patches = Patches()
        self.enabled = False
        # per unit: {"train": [...], "infer": [...]} of (samples, seconds, host factor)
        self.units = []
        self.losses = []
        self.bad_steps = 0
        self._unit = {"train": [], "infer": []}
        self._step = None  # (samples, start) of the train step in progress
        self._digest = hashlib.sha256()

    def begin_unit(self):
        self._unit = {"train": [], "infer": []}

    def stamp(self, factor):
        """Give this host factor to every sample of the unit without one."""
        for samples in self._unit.values():
            for i, (n, t, f) in enumerate(samples):
                if f is None:
                    samples[i] = (n, t, factor)

    def end_unit(self, *extra: bytes) -> str:
        """Close the unit; return the digest of its outputs plus ``extra``."""
        self.units.append(self._unit)
        for blob in extra:
            self._digest.update(blob)
        out = self._digest.hexdigest()
        self._digest = hashlib.sha256()
        return out

    def install(self):
        probe = self

        def wrap_forward(original):
            def forward(net, frames, training=False, rng=None, record_hidden=False):
                samples = np.shape(frames)[0]
                t0 = perf()
                out = original(net, frames, training=training, rng=rng,
                               record_hidden=record_hidden)
                if probe.enabled:
                    if training:
                        probe._step = (samples, t0)
                    else:
                        probe._unit["infer"].append((samples, perf() - t0, None))
                    probe._digest.update(out.o.data.tobytes())
                return out
            return forward

        def wrap_step(original):
            def step(adam, lr):
                original(adam, lr)
                if probe.enabled and probe._step is not None:
                    samples, t0 = probe._step
                    probe._unit["train"].append((samples, perf() - t0, None))
                    probe._step = None
                    if not all(p.grad is not None and np.isfinite(p.grad).all()
                               for _, p in adam.named_params):
                        probe.bad_steps += 1
            return step

        def wrap_loss(original):
            def mse_vote_loss(o, targets):
                loss = original(o, targets)
                if probe.enabled:
                    value = float(loss.data)
                    probe.losses.append(value)
                    if not math.isfinite(value):
                        probe.bad_steps += 1
                    probe._digest.update(np.float64(value).tobytes())
                return loss
            return mse_vote_loss

        p = self.patches
        p.method(network.SpikingNetwork, "forward", wrap_forward)
        p.method(training.Adam, "step", wrap_step)
        p.function(training, "mse_vote_loss", wrap_loss)

    def restore(self):
        return self.patches.restore()


def count_graph_nodes(root) -> int:
    """Nodes ``Tensor.backward`` will visit: the requires_grad ancestry."""
    seen = {id(root)}
    todo = [root]
    while todo:
        node = todo.pop()
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


class Tracer:
    """Nested spans with self time, plus counts, over the program's layers."""

    def __init__(self):
        self.patches = Patches()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = Counter()
        self.top_s = 0.0  # summed duration of spans with no parent
        self._stack = []  # child time accumulated per open span
        self._op = None  # outermost tensor op currently running
        self._layer = None  # network layer currently running forward
        self._layer_names = {}

    def reset(self):
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()
        self.top_s = 0.0

    def timed(self, name, fn, *args, **kwargs):
        self._stack.append(0.0)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf() - t0
            child = self._stack.pop()
            self.self_s[name] += dur - child
            self.incl_s[name] += dur
            if self._stack:
                self._stack[-1] += dur
            else:
                self.top_s += dur

    # -- wrappers ----------------------------------------------------------

    def _span(self, name):
        base = name.rsplit(".", 1)[0] if name.endswith((".fwd", ".self")) else name
        calls = f"{base}.calls"

        def make(original):
            def wrapper(*args, **kwargs):
                self.counts[calls] += 1
                return self.timed(name, original, *args, **kwargs)
            return wrapper
        return make

    def _tensor_op(self, opname):
        fwd = f"tensor.{opname}.fwd"

        def make(original):
            def wrapper(*args, **kwargs):
                self.counts["tensor.ops.calls"] += 1
                self.counts[f"tensor.{opname}.calls"] += 1
                outer = self._op
                if outer is not None:
                    out = original(*args, **kwargs)
                    self._wrap_backward(out, outer)
                    return out
                self._op = opname
                try:
                    out = self.timed(fwd, original, *args, **kwargs)
                finally:
                    self._op = None
                self._wrap_backward(out, opname)
                return out
            return wrapper
        return make

    def _wrap_backward(self, out, opname):
        fn = getattr(out, "_backward_fn", None)
        if fn is None or getattr(fn, "bench_wrapped", False):
            return
        layer, name = self._layer, f"tensor.{opname}.bwd"

        def backward(g):
            self.counts[f"{name}.calls"] += 1
            t0 = perf()
            try:
                return self.timed(name, fn, g)
            finally:
                if layer is not None:
                    self.incl_s[f"network.{layer}.bwd"] += perf() - t0

        backward.bench_wrapped = True
        out._backward_fn = backward

    def install(self):
        p = self.patches
        for opname in TENSOR_OPS:
            p.function(tensor, opname, self._tensor_op(opname))
        for module, attr, name in FUNCTION_SPANS:
            p.function(module, attr, self._span(name))

        tracer = self

        def wrap_backward(original):
            def backward(root):
                tracer.counts["tensor.backward.calls"] += 1
                tracer.counts["tensor.graph_nodes"] += count_graph_nodes(root)
                return tracer.timed("tensor.backward", original, root)
            return backward

        def wrap_forward(original):
            def forward(net, frames, *args, **kwargs):
                for i, layer in enumerate(net.layers):
                    tracer._layer_names[id(layer)] = f"layer{i}"
                tracer.counts["network.forward.calls"] += 1
                tracer.counts["network.forward.samples"] += np.shape(frames)[0]
                return tracer.timed("network.forward", original, net, frames, *args, **kwargs)
            return forward

        def wrap_layer(original):
            def forward_sequence(layer, *args, **kwargs):
                name = tracer._layer_names.get(id(layer), type(layer).__name__)
                outer, tracer._layer = tracer._layer, name
                try:
                    return tracer.timed(f"network.{name}.fwd", original, layer, *args, **kwargs)
                finally:
                    tracer._layer = outer
            return forward_sequence

        def wrap_read(original):
            def read_events(path, *args, **kwargs):
                tracer.counts["events.read_events.bytes"] += os.path.getsize(path)
                return original(path, *args, **kwargs)
            return read_events

        p.method(tensor.Tensor, "backward", wrap_backward)
        p.method(network.SpikingNetwork, "forward", wrap_forward)
        p.method(training.Adam, "step", self._span("training.adam_step"))
        for cls in vars(network).values():
            if isinstance(cls, type) and "forward_sequence" in vars(cls):
                p.method(cls, "forward_sequence", wrap_layer)
        p.function(events, "read_events", wrap_read)

    def restore(self):
        return self.patches.restore()

    def metrics(self, units: int) -> dict:
        """Per-unit self seconds of every span (``<span>_s``), inclusive
        seconds (``<span>.incl_s``), per-layer backward seconds and counts."""
        out = {}
        for name, value in self.self_s.items():
            out[f"{name}_s"] = value / units
            out[f"{name}.incl_s"] = self.incl_s[name] / units
        for name, value in self.incl_s.items():
            if name.endswith(".bwd") and name.startswith("network."):
                out[f"{name}_s"] = value / units
        for name, value in self.counts.items():
            if name == "tensor.graph_nodes":
                steps = self.counts["tensor.backward.calls"]
                out[name] = value / steps if steps else 0
            else:
                out[name] = value / units
        return out
