"""The layer node on drawn shapes and settings gives every output, membrane,
running statistic and gradient bitwise the same on 1, 2 and 3 threads, with
every call split over min(threads, B) sample ranges. The example budget is
fixed and derandomized, so every run draws the same cases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefuse.attention import AttentionVariant, init_attention_params
from spikefuse.neuron import BatchNorm, LifConfig, lif_sequence
from spikefuse.rng import Rng
from spikefuse.tensor import BatchNormState, Tensor, no_grad, tsum

from seams import on_threads

WORKERS = (1, 2, 3)
CFG = LifConfig(v_th=1.0, kappa=0.7)


@st.composite
def node_cases(draw):
    pool = draw(st.sampled_from([1, 2]))
    c = draw(st.integers(1, 6))
    variant = draw(st.sampled_from(["bl", "stfa", "ctfa", "sctfa"]))
    return dict(
        t_steps=draw(st.integers(1, 5)),
        b=draw(st.integers(1, 5)),
        c=c,
        h=pool * draw(st.integers(1, 7 // pool)),
        w=pool * draw(st.integers(1, 7 // pool)),
        pool=pool,
        variant=variant,
        reduction=draw(st.sampled_from([r for r in range(1, c + 1) if c % r == 0])),
        norm=draw(st.sampled_from(["none", "train", "eval"])),
        smooth=draw(st.booleans()),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        run=draw(st.sampled_from(["recorded", "no-grad", "rolling"])),
        seed=draw(st.integers(0, 2**16)),
    )


def run_node(case):
    """The node's output, membrane and running statistics for ``case``, and
    in a recorded run the gradients of the currents, gamma, beta and every
    gate parameter; each as (dtype, shape, bytes)."""
    t_steps, b, c, dtype = case["t_steps"], case["b"], case["c"], case["dtype"]
    rng = Rng(case["seed"])
    currents = rng.normal(0.3, 1.2, size=(t_steps * b, c, case["h"], case["w"])).astype(dtype)
    gamma = rng.uniform(0.8, 1.6, size=c).astype(dtype)
    beta = rng.normal(0.5, 0.3, size=c).astype(dtype)
    state = BatchNormState(c, dtype)
    state.mean[...] = rng.normal(0, 0.2, size=c)
    state.var[...] = rng.uniform(0.5, 2.0, size=c)
    state.initialized = True
    att = init_attention_params(c, case["reduction"], AttentionVariant(case["variant"]), rng.split("att"), dtype)
    gate = [] if att is None else [p for _, p in att.named()]
    recorded = case["run"] == "recorded"
    x, g, bt = (Tensor(a, requires_grad=recorded) for a in (currents, gamma, beta))
    norm = None if case["norm"] == "none" else BatchNorm(g, bt, state, case["norm"] == "train")
    kwargs = dict(smooth=case["smooth"], timesteps=t_steps, norm=norm, pool=case["pool"])
    grads = []
    if recorded:
        out, v = lif_sequence(x, CFG, att, **kwargs)
        weighting = rng.normal(0, 1, size=out.shape).astype(dtype)
        tsum(out * Tensor(weighting)).backward()
        grads = [x.grad, g.grad, bt.grad] + [p.grad for p in gate]
    else:
        with no_grad():
            out, v = lif_sequence(x, CFG, att, keep_membrane=case["run"] == "no-grad", **kwargs)
    return [None if a is None else (a.dtype, a.shape, a.tobytes())
            for a in [out.data, v, state.mean, state.var] + grads]


@given(node_cases())
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_bitwise_for_any_worker_count(case):
    runs = []
    for n in WORKERS:
        with on_threads(n):
            runs.append(run_node(case))
    assert runs[1] == runs[0] and runs[2] == runs[0]
