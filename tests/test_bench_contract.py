"""What ``bench/`` reads from the engine, checked without timing anything.

The benchmark patches engine names by ``getattr`` and reads layer
attributes directly, so a refactor that renames or drops one breaks the
benchmark, not the engine's own tests. These checks import
``bench/tracer.py`` and install its patches, but run no workload.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from spikefuse import harness, network, tensor, training
from spikefuse.events import synth_moving_bar
from spikefuse.network import SpikingNetwork, parse_architecture

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return tracer


def gesture_net():
    """The layer structure of the ``gesture_step`` workload on a small input."""
    spec = parse_architecture(harness.ARCH_PRESETS["dvs_gesture"], input_shape=(2, 64, 64),
                              variant="sctfa", timesteps=2)
    return SpikingNetwork(spec, seed=0)


def test_every_patched_name_resolves(tracer_module):
    missing = [op for op in tracer_module.TENSOR_OPS if not callable(getattr(tensor, op, None))]
    missing += [f"{module.__name__}.{attr}" for module, attr, _ in tracer_module.FUNCTION_SPANS
                if not callable(getattr(module, attr, None))]
    assert missing == []


def test_install_wraps_every_layer_and_restores(tracer_module):
    net = gesture_net()
    classes = {type(layer) for layer in net.layers}
    originals = {cls: cls.__dict__["forward_sequence"] for cls in classes}
    tr = tracer_module.Tracer()
    tr.install()
    try:
        patched = {owner for owner, attr, _ in tr.patches.saved if attr == "forward_sequence"}
        assert patched and classes <= patched
        assert all(cls.__dict__["forward_sequence"] is not originals[cls] for cls in classes)
    finally:
        assert tr.restore() is True
    assert all(cls.__dict__["forward_sequence"] is originals[cls] for cls in classes)
    assert all(getattr(network, cls.__name__) is cls for cls in classes)


def test_forward_takes_the_benchmark_keywords():
    params = inspect.signature(SpikingNetwork.forward).parameters
    assert {"training", "rng", "record_hidden"} <= set(params)


def test_batch_norm_layers_expose_their_state():
    # the gesture workload resets each BN layer's ``bn_state`` between units
    net = gesture_net()
    bn_layers = [st for st in net.spec.stages if getattr(st, "batch_norm", False)]
    states = [layer.bn_state for layer in net.layers if getattr(layer, "bn_state", None) is not None]
    assert len(states) == len(bn_layers) == 5
    assert all(hasattr(state, "initialized") for state in states)


def workload_calls():
    """(name, callable or None, ast.Call) for every call in
    ``bench/workloads.py`` of a name it imports from ``spikefuse``, or of an
    attribute of a ``spikefuse`` module it imports."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spikefuse":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if obj is None:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                imported[alias.asname or alias.name] = obj
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported and not inspect.ismodule(imported[func.id]):
            calls.append((func.id, imported[func.id], node))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(imported.get(func.value.id))):
            calls.append((f"{func.value.id}.{func.attr}", getattr(imported[func.value.id], func.attr, None), node))
    return calls


def test_workload_calls_bind_to_the_engine_signatures():
    # a call that no longer binds would make the benchmark exit run_failed
    calls = workload_calls()
    failures = []
    for name, fn, call in calls:
        if fn is None:
            failures.append(f"line {call.lineno}: {name} does not exist")
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
            continue  # the argument count is not known without running it
        try:
            inspect.signature(fn).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            failures.append(f"line {call.lineno}: {name}: {exc}")
    assert failures == []
    bound = {fn for _, fn, _ in calls}
    assert {
        training.TrainConfig, training.Adam, training.train, training.evaluate_frames,
        network.build_network, network.save_checkpoint, harness.synth_corpus, synth_moving_bar,
    } <= bound
