"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its wall time (run with ``pytest tests/test_acceptance.py -v -s``).

Covers complexity-count reproduction, the end-to-end finite-difference
gradient oracle, bitwise structural equivalences between attention
variants, LIF analytic properties, a desk-scale synthetic training trend,
corruption identities, kernel oracles, and bitwise rerun determinism.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from spikefuse.events import CorruptionSpec, synth_moving_bar
from spikefuse.harness import main as cli_main
from spikefuse.harness import synth_corpus
from spikefuse.network import SpikingNetwork, count_mult_adds, count_parameters, parse_architecture
from spikefuse.neuron import LifConfig, lif_step, lif_step_attended
from spikefuse.rng import Rng
from spikefuse.tensor import (
    BatchNormState,
    Tensor,
    avgpool2d,
    batchnorm,
    conv2d,
    linear,
    tmean,
)
from spikefuse.training import (
    DataConfig,
    TrainConfig,
    evaluate,
    frames_from_streams,
    mse_vote_loss,
    one_hot,
    train,
)

from oracles import avgpool_loops, channel_mean_loops, conv2d_loops, linear_loops, rel_err, sweep_level_frames
from seams import seam_network

GESTURE_ARCH = (
    "Input-128C5S2-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2"
    "-512FC-VotingC11P5-AP"
)
MNIST_ARCH = "Input-32C7S2-BN-AP2-64C3-BN-AP2-128C3-BN-AP2-512FC-VotingC10P5-AP"
TINY_ARCH = "Input-4C3-BN-AP2-4C3-BN-VotingC2P2-AP"
BAR_ARCH = "Input-8C3-BN-AP2-16C3-BN-AP2-64FC-VotingC4P5-AP"


def criterion(name, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"\n[FAIL] {name} ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\n[PASS] {name} ({time.perf_counter() - t0:.1f}s)")


def test_parameter_counts_table():
    def body():
        expectations = [
            (GESTURE_ARCH, "bl", 0.895e6),
            (GESTURE_ARCH, "sctfa", 0.937e6),
            (MNIST_ARCH, "bl", 4.316e6),
            (MNIST_ARCH, "sctfa", 4.327e6),
        ]
        for arch, variant, expected in expectations:
            count = count_parameters(parse_architecture(arch, variant=variant))
            assert abs(count - expected) / expected < 0.01, (variant, count, expected)

    criterion("parameter counts: gesture/mnist architectures within 1%", body)


def test_mult_adds_table():
    def body():
        mnist = count_mult_adds(parse_architecture(MNIST_ARCH, variant="bl", timesteps=20))
        assert abs(mnist - 1.096e9) / 1.096e9 < 0.02, mnist
        gesture = count_mult_adds(parse_architecture(GESTURE_ARCH, variant="bl", timesteps=10))
        assert abs(gesture - 2.522e9) / 2.522e9 < 0.15, gesture

    criterion("mult-adds: mnist within 2%, gesture within 15% (convention gap)", body)


def test_end_to_end_gradient_oracle():
    def body():
        spec = parse_architecture(
            TINY_ARCH,
            input_shape=(2, 6, 6),
            variant="sctfa",
            lif=LifConfig(v_th=1.0, kappa=0.7),
            reduction=4,
            timesteps=3,
        )
        net = SpikingNetwork(spec, seed=3, dtype=np.float64, smooth=True)
        frames = Rng(11).poisson(1.0, size=(2, 3, 2, 6, 6)).astype(np.float64)
        targets = one_hot([0, 1], 2, dtype=np.float64)

        def loss_value():
            vote = net.forward(frames, training=True)
            return mse_vote_loss(vote.o, targets).item()

        vote = net.forward(frames, training=True)
        loss = mse_vote_loss(vote.o, targets)
        net.zero_grad()
        loss.backward()

        h = 1e-5
        names = [n for n, _ in net.named_parameters()]
        assert any("att.spatial_weight" in n for n in names)
        assert any("att.reduce_weight" in n for n in names)
        checked = 0
        for name, p in net.named_parameters():
            analytic = p.grad.copy()
            flat = p.data.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = loss_value()
                flat[i] = orig - h
                lm = loss_value()
                flat[i] = orig
                fd[i] = (lp - lm) / (2 * h)
            err = rel_err(analytic.reshape(-1), fd).max()
            assert err < 1e-4, f"{name}: max rel err {err:.2e}"
            checked += flat.size
        assert checked == count_parameters(spec)

    criterion("end-to-end gradient oracle: every parameter FD-checked at 1e-4", body)


def test_structural_equivalences_bitwise():
    def body():
        def spec_for(variant):
            return parse_architecture(
                TINY_ARCH,
                input_shape=(2, 6, 6),
                variant=variant,
                lif=LifConfig(v_th=1.0, kappa=0.7),
                reduction=4,
                timesteps=4,
            )

        def votes(variant, seed, frames, spatial=False, channel=False):
            """The votes and the last conv layer's membrane, as bytes."""
            net = seam_network(SpikingNetwork(spec_for(variant), seed=seed), spatial, channel)
            vote = net.forward(frames, training=True, record_hidden=True)
            return vote.o.data.tobytes(), vote.hidden.tobytes()

        differ = {"sctfa-ctfa": 0, "sctfa-stfa": 0, "stfa-bl": 0}
        for seed in range(10):
            frames = Rng(500 + seed).poisson(1.0, size=(3, 4, 2, 6, 6)).astype(np.float32)
            out = {v: votes(v, seed, frames) for v in ("bl", "stfa", "ctfa", "sctfa")}

            # a spatial branch pinned to exactly 1 and/or a removed channel branch
            assert votes("sctfa", seed, frames, spatial=True, channel=True) == out["bl"]
            assert votes("stfa", seed, frames, spatial=True) == out["bl"]
            assert votes("sctfa", seed, frames, spatial=True) == out["ctfa"]
            assert votes("sctfa", seed, frames, channel=True) == out["stfa"]
            for pair in differ:
                a, b = pair.split("-")
                differ[pair] += out[a][0] != out[b][0]
        # not vacuous: unseamed, each neutralized branch changes the votes
        assert all(count >= 1 for count in differ.values()), differ

    criterion("structural equivalences: branches pinned to 1 reproduce bl/ctfa/stfa bitwise", body)


def test_lif_analytics():
    def body():
        for seed in range(20):
            rng = Rng(900 + seed)
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 6)))
            kappa = float(rng.uniform(0.05, 0.95))
            v0 = rng.uniform(0.05, 0.9, size=shape)
            cfg = LifConfig(v_th=2.0, kappa=kappa)
            steps = int(rng.integers(1, 10))

            # zero-input decay: v_n = kappa^n * v0, same multiply sequence
            v, s = Tensor(v0.copy()), Tensor(np.zeros(shape))
            zero = Tensor(np.zeros(shape))
            for _ in range(steps):
                v, s = lif_step(v, s, zero, cfg)
                assert not s.data.any()
            expect = v0.copy()
            for _ in range(steps):
                expect = kappa * expect * 1.0
            assert np.array_equal(v.data, expect)

            # hard reset: any neuron that spiked contributes zero history
            cfg2 = LifConfig(v_th=0.5, kappa=0.8)
            hot, fired = lif_step(Tensor(rng.normal(0, 2, size=shape)), Tensor(np.zeros(shape)), zero, cfg2)
            after, _ = lif_step(hot, fired, zero, cfg2)
            assert np.all(after.data[fired.data == 1.0] == 0.0)

            # unit gate: attended trajectory identical to plain, bitwise
            va = vb = sa = sb = Tensor(np.zeros(shape))
            ones = Tensor(np.ones(shape))
            for _ in range(steps):
                drive = Tensor(rng.normal(0, 1, size=shape))
                va, sa = lif_step(va, sa, drive, cfg2)
                vb, sb = lif_step_attended(vb, sb, drive, ones, cfg2)
                assert np.array_equal(va.data, vb.data)
                assert np.array_equal(sa.data, sb.data)

    criterion("lif analytics: exact decay, hard reset, unit-gate neutrality", body)


def _bar_corpus(n_per_class, seed):
    streams = [
        synth_moving_bar(label, 16, 16, 1000.0, 2.0, Rng(seed).split(label, i))
        for label in range(4)
        for i in range(n_per_class)
    ]
    return streams, frames_from_streams(streams, 100.0, 10)


def _bar_config(variant, seed, epochs=10):
    return TrainConfig(
        arch=BAR_ARCH,
        variant=variant,
        epochs=epochs,
        batch_size=16,
        lr=0.004,
        lr_decay=0.97,
        seed=seed,
        lif=LifConfig(v_th=1.15, kappa=0.7),
        data=DataConfig(delta_t_ms=100.0, timesteps=10),
        input_height=16,
        input_width=16,
    )


def test_corruption_identities():
    def body():
        streams, train_set = _bar_corpus(6, 3001)
        test_streams, test_set = _bar_corpus(4, 3002)
        _, net = train(_bar_config("bl", 1, epochs=1), train_set, test_set)
        clean = evaluate(net, test_streams, 100.0, 10)
        for kind in ("poisson_noise", "event_loss", "frame_loss"):
            out = evaluate(net, test_streams, 100.0, 10, CorruptionSpec(kind, 0.0, 77))
            assert out.accuracy == clean.accuracy, kind
            assert out.activation_distance == 0.0, kind

        assert not sweep_level_frames(test_streams, 100.0, 10, CorruptionSpec("frame_loss", 1.0, 77)).any()
        out = evaluate(net, test_streams, 100.0, 10, CorruptionSpec("frame_loss", 1.0, 77))
        zero = test_set.frames.copy()
        zero[...] = 0.0
        preds = net.forward(zero[:1], training=False).predictions()
        labels = np.array([s.label for s in test_streams])
        # degenerate input: every sample gets the same tie-broken prediction
        assert out.accuracy == float(np.mean(labels == preds[0]))

    criterion("corruption identities: zero levels bitwise clean, full frame loss tie-breaks", body)


def test_kernel_oracles():
    def body():
        rng = Rng(4242)
        instances = 0
        for _ in range(25):
            b = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            h = int(rng.integers(3, 9))
            w = int(rng.integers(3, 9))
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            if k > h + 2 * padding or k > w + 2 * padding:
                continue
            x = rng.normal(size=(b, cin, h, w))
            wt = rng.normal(size=(cout, cin, k, k))
            bias = rng.normal(size=cout)
            ours = conv2d(Tensor(x), Tensor(wt), Tensor(bias), stride, padding).data
            ref = conv2d_loops(x, wt, bias, stride, padding)
            assert np.max(np.abs(ours - ref)) < 1e-12
            instances += 1

        for _ in range(25):
            bsz = int(rng.integers(1, 5))
            f = int(rng.integers(1, 10))
            o = int(rng.integers(1, 6))
            x = rng.normal(size=(bsz, f))
            wt = rng.normal(size=(o, f))
            bias = rng.normal(size=o)
            ours = linear(Tensor(x), Tensor(wt), Tensor(bias)).data
            assert np.max(np.abs(ours - linear_loops(x, wt, bias))) < 1e-12
            instances += 1

        for _ in range(25):
            bsz = int(rng.integers(1, 3))
            c = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            hw = k * int(rng.integers(1, 4))
            x = rng.normal(size=(bsz, c, hw, hw))
            ours = avgpool2d(Tensor(x), k).data
            assert np.max(np.abs(ours - avgpool_loops(x, k))) < 1e-12
            instances += 1

        for _ in range(15):
            bsz = int(rng.integers(2, 6))
            c = int(rng.integers(1, 4))
            hw = int(rng.integers(2, 8))
            x = rng.normal(0, 3, size=(bsz, c, hw, hw))
            out = batchnorm(
                Tensor(x), Tensor(np.ones(c)), Tensor(np.zeros(c)),
                BatchNormState(c, np.float64), True,
            ).data
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            ref = (x - mean) / np.sqrt(var + 1e-5)
            assert np.max(np.abs(out - ref)) < 1e-12
            instances += 1

        for _ in range(15):
            bsz = int(rng.integers(1, 4))
            c = int(rng.integers(1, 5))
            hw = int(rng.integers(1, 8))
            x = (rng.random((bsz, c, hw, hw)) < 0.5).astype(np.float64)
            ours = tmean(Tensor(x), axis=(2, 3)).data
            assert np.max(np.abs(ours - channel_mean_loops(x))) < 1e-12
            instances += 1

        assert instances >= 100, instances

    criterion("kernel oracles: conv/linear/pool/batchnorm/squeeze at 1e-12 on 100+ instances", body)


def test_rerun_determinism(tmp_path):
    def body():
        train_dir = tmp_path / "train"
        test_dir = tmp_path / "test"
        synth_corpus(train_dir, 4, 5, 16, 16, 500.0, 2.0, seed=11)
        synth_corpus(test_dir, 4, 3, 16, 16, 500.0, 2.0, seed=22)
        doc = {
            "arch": TINY_ARCH.replace("VotingC2P2", "VotingC4P2"),
            "variant": "sctfa",
            "epochs": 2,
            "batch_size": 8,
            "lr": 0.004,
            "lr_decay": 0.97,
            "seed": 9,
            "input_height": 16,
            "input_width": 16,
            "lif": {"v_th": 1.0, "kappa": 0.7},
            "data": {
                "delta_t_ms": 50.0,
                "timesteps": 5,
                "train_dir": str(train_dir),
                "test_dir": str(test_dir),
            },
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = str(tmp_path / "runs")
        assert cli_main(["train", "--config", str(cfg_path), "--out", out]) == 0
        run_dir = Path(out) / "run_seed9_sctfa"
        record = (run_dir / "run_record.json").read_bytes()
        checkpoint = (run_dir / "checkpoint.bin").read_bytes()
        assert cli_main(["train", "--config", str(cfg_path), "--out", out, "--force"]) == 0
        assert (run_dir / "run_record.json").read_bytes() == record
        assert (run_dir / "checkpoint.bin").read_bytes() == checkpoint

    criterion("determinism: rerun with identical config reproduces run_record.json bitwise", body)


@pytest.mark.slow
def test_synthetic_ablation_trend():
    def body():
        _, train_set = _bar_corpus(50, 1001)
        _, test_set = _bar_corpus(20, 2002)
        means = {}
        for variant in ("sctfa", "bl"):
            accs = []
            for seed in (1, 2, 3, 4, 5):
                record, _ = train(_bar_config(variant, seed), train_set, test_set)
                accs.append(record.best_acc)
            means[variant] = float(np.mean(accs))
            print(f"  {variant}: per-seed best {accs} mean {means[variant]:.4f}")
        assert means["sctfa"] >= 0.90, means
        assert means["sctfa"] >= means["bl"] - 0.01, means

    criterion("synthetic ablation trend: sctfa mean >= 0.90 and >= bl mean - 0.01 (5 seeds)", body)
