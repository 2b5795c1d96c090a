"""Loss, optimizer, schedule, the training loop, corrupted evaluation."""

import json
import tracemalloc

import numpy as np
import pytest

from spikefuse.errors import ConfigError, DivergenceError, ParameterError, StateError
from spikefuse.events import CorruptionSpec, synth_moving_bar
from spikefuse.network import SpikingNetwork, load_checkpoint, save_checkpoint, parse_architecture
from spikefuse.neuron import LifConfig
from spikefuse.rng import Rng
from spikefuse import training
from spikefuse.tensor import Tensor, no_grad, tsum
from spikefuse.training import (
    Adam,
    DataConfig,
    TrainConfig,
    LabeledFrames,
    config_from_dict,
    evaluate,
    evaluate_frames,
    evaluate_sweep,
    frames_from_streams,
    lr_schedule,
    mse_vote_loss,
    one_hot,
    train,
)

from oracles import sweep_level_frames

TINY_ARCH = "Input-4C3-BN-AP2-4C3-BN-VotingC4P2-AP"


def tiny_config(**overrides):
    base = dict(
        arch=TINY_ARCH,
        variant="bl",
        epochs=2,
        batch_size=8,
        lr=0.004,
        lr_decay=0.97,
        seed=1,
        lif=LifConfig(v_th=1.0, kappa=0.7),
        data=DataConfig(delta_t_ms=100.0, timesteps=5),
        input_height=16,
        input_width=16,
    )
    base.update(overrides)
    return TrainConfig(**base)


def bar_dataset(n_per_class, seed, timesteps=5):
    streams = [
        synth_moving_bar(label, 16, 16, 500, 2.0, Rng(seed).split(label, i))
        for label in range(4)
        for i in range(n_per_class)
    ]
    return streams, frames_from_streams(streams, 100.0, timesteps)


class TestLoss:
    def test_perfect_prediction_zero(self):
        o = np.zeros((1, 2, 4))
        o[0, 0, :] = 1.0  # class 0 fires every step
        loss = mse_vote_loss(Tensor(o), one_hot([0], 2))
        assert loss.item() == 0.0

    def test_silent_votes_half(self):
        loss = mse_vote_loss(Tensor(np.zeros((1, 2, 3))), one_hot([0], 2))
        assert loss.item() == pytest.approx(0.5)

    def test_matches_direct_formula(self):
        rng = Rng(3)
        o = rng.random((4, 3, 5))
        y = one_hot([0, 2, 1, 1], 3, dtype=np.float64)
        loss = mse_vote_loss(Tensor(o), y)
        direct = 0.0
        for n in range(4):
            direct += ((y[n] - o[n].mean(axis=1)) ** 2).sum()
        direct /= 2 * 4
        assert abs(loss.item() - direct) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ParameterError):
            one_hot([5], 3)

    def test_loss_nonnegative_and_zero_iff_exact(self):
        rng = Rng(4)
        for _ in range(20):
            o = rng.random((2, 3, 4))
            y = one_hot([0, 1], 3, dtype=np.float64)
            val = mse_vote_loss(Tensor(o), y).item()
            assert val >= 0.0
            assert (val == 0.0) == bool(np.array_equal(o.mean(axis=2), y))


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([("p", p)])
        before = p.data.copy()
        opt.step(lr=0.1)
        assert np.array_equal(p.data, before)

    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        p.grad = np.array([0.003, -7.0])
        opt = Adam([("p", p)])
        opt.step(lr=0.01)
        # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
        assert p.data[0] == pytest.approx(1.0 - 0.01, rel=1e-3)
        assert p.data[1] == pytest.approx(1.0 + 0.01, rel=1e-3)

    def test_missing_grad_is_contract_violation(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([("p", p)])
        with pytest.raises(StateError):
            opt.step(lr=0.1)

    def test_two_runs_identical_trajectories(self):
        def run():
            rng = Rng(7)
            p = Tensor(rng.normal(size=4), requires_grad=True)
            opt = Adam([("p", p)])
            for i in range(10):
                loss = tsum(p * p)
                opt.zero_grad()
                loss.backward()
                opt.step(lr=0.05)
            return p.data.copy()

        assert np.array_equal(run(), run())


class TestSchedule:
    def test_epoch_zero_is_initial(self):
        assert lr_schedule(0.002, 0.98, 0) == 0.002

    def test_unit_decay_constant(self):
        assert lr_schedule(0.01, 1.0, 50) == 0.01

    def test_arithmetic(self):
        assert lr_schedule(0.001, 0.95, 2) == pytest.approx(0.00090250)


class TestConfig:
    def doc(self):
        return {
            "arch": TINY_ARCH,
            "variant": "bl",
            "epochs": 1,
            "batch_size": 4,
            "lr": 0.01,
            "lr_decay": 0.98,
            "seed": 3,
            "input_height": 16,
            "input_width": 16,
            "lif": {"v_th": 1.0, "kappa": 0.7},
            "data": {"delta_t_ms": 100.0, "timesteps": 5},
        }

    def test_valid_doc_round_trips(self):
        cfg = config_from_dict(self.doc())
        assert cfg.arch == TINY_ARCH
        assert config_from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    @staticmethod
    def every_field(**extra):
        return TrainConfig(
            arch=TINY_ARCH, variant="sctfa", epochs=1, batch_size=4, lr=0.004, lr_decay=0.97,
            seed=5, lif=LifConfig(v_th=1.25, kappa=0.6),
            data=DataConfig(delta_t_ms=50.0, timesteps=2, train_dir="corpus/train",
                            test_dir="corpus/test", binarize=True),
            reduction=2, precision="f64", input_height=8, input_width=12, **extra,
        )

    # Literals written by the TrainConfig before ``to_dict`` came from
    # ``dataclasses.asdict``; a field lost on both sides of a round trip
    # shows here.
    PINNED = (
        '{"arch": "Input-4C3-BN-AP2-4C3-BN-VotingC4P2-AP", "batch_size": 4, "data": '
        '{"binarize": true, "delta_t_ms": 50.0, "test_dir": "corpus/test", "timesteps": 2, '
        '"train_dir": "corpus/train"}, "epochs": 1, "input_height": 8, "input_width": 12, '
        '"lif": {"kappa": 0.6, "v_th": 1.25}, "lr": 0.004, "lr_decay": 0.97, %s"precision": '
        '"f64", "reduction": 2, "seed": 5, "variant": "sctfa"}'
    )

    def test_to_dict_pinned_with_every_field(self):
        got = json.dumps(self.every_field(master_seed=9).to_dict(), sort_keys=True)
        assert got == self.PINNED % '"master_seed": 9, '

    def test_to_dict_pinned_without_master_seed(self):
        assert json.dumps(self.every_field().to_dict(), sort_keys=True) == self.PINNED % ""

    def test_trained_network_config_pinned(self):
        frames = Rng(0).poisson(1.0, size=(4, 2, 2, 8, 12)).astype(np.float64)
        data = training.LabeledFrames(frames, np.arange(4))
        _, net = train(self.every_field(master_seed=9), data, data)
        assert net.dtype is np.float64
        assert json.dumps(net.config_dict(), sort_keys=True) == (
            '{"arch": "Input-4C3-BN-AP2-4C3-BN-VotingC4P2-AP", "input_height": 8, '
            '"input_width": 12, "kappa": 0.6, "precision": "f64", "reduction": 2, '
            '"timesteps": 2, "v_th": 1.25, "variant": "sctfa"}'
        )

    def test_missing_v_th_names_field(self):
        doc = self.doc()
        del doc["lif"]["v_th"]
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert "lif.v_th" in str(exc.value)

    def test_bad_variant(self):
        doc = self.doc()
        doc["variant"] = "extra"
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("precision", ["f16", "F64", 64, ["f32"]])
    def test_bad_precision_names_field(self, precision):
        doc = self.doc()
        doc["precision"] = precision
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert exc.value.field == "precision"

    @pytest.mark.parametrize("field, value", [
        ("reduction", "abc"), ("reduction", 16.7), ("reduction", True),
        ("input_height", "16"), ("input_width", 16.0),
        ("data.binarize", "false"), ("data.binarize", 1),
        ("data.train_dir", 5), ("master_seed", "9"),
        # a misspelled key fails instead of leaving its field at the default
        ("reducton", 2), ("lif.kapa", 0.5), ("data.binarise", True),
    ])
    def test_malformed_optional_field_names_it(self, field, value):
        doc = self.doc()
        *parents, key = field.split(".")
        target = doc[parents[0]] if parents else doc
        target[key] = value
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert exc.value.field == field

    @pytest.mark.parametrize("field", ["lr", "lr_decay", "lif.v_th", "lif.kappa", "data.delta_t_ms"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_float_names_field(self, field, value):
        # Python's json parses NaN and Infinity into floats
        doc = self.doc()
        *parents, key = field.split(".")
        target = doc[parents[0]] if parents else doc
        target[key] = json.loads(value)
        with pytest.raises(ConfigError, match="finite") as exc:
            config_from_dict(doc)
        assert exc.value.field == field

    def test_arch_validated_at_config_time(self):
        doc = self.doc()
        doc["arch"] = "Input-3C3-AP2"
        doc["input_height"] = doc["input_width"] = 9
        with pytest.raises(ConfigError) as exc:
            config_from_dict(doc)
        assert "token" in str(exc.value)


class TestTrainLoop:
    def test_lr_zero_leaves_parameters_unchanged(self):
        _, train_set = bar_dataset(4, seed=11)
        _, test_set = bar_dataset(2, seed=12)
        cfg = tiny_config(epochs=1, lr=0.0)
        reference = SpikingNetwork(
            parse_architecture(
                TINY_ARCH, input_shape=(2, 16, 16), variant="bl",
                lif=cfg.lif, timesteps=5,
            ),
            seed=cfg.seed,
        )
        record, net = train(cfg, train_set, test_set)
        for (_, a), (_, b) in zip(reference.named_parameters(), net.named_parameters()):
            assert np.array_equal(a.data, b.data)
        untrained_acc, _, _ = evaluate_frames(net, test_set)
        assert record.per_epoch[0].test_acc == untrained_acc

    def test_same_config_identical_records(self):
        _, train_set = bar_dataset(3, seed=21)
        _, test_set = bar_dataset(2, seed=22)
        cfg = tiny_config(epochs=2, variant="sctfa")
        rec1, _ = train(cfg, train_set, test_set)
        rec2, _ = train(cfg, train_set, test_set)
        assert rec1.to_json() == rec2.to_json()

    def test_confusion_matches_accuracy(self):
        _, train_set = bar_dataset(3, seed=31)
        _, test_set = bar_dataset(2, seed=32)
        record, _ = train(tiny_config(epochs=1), train_set, test_set)
        conf = np.array(record.confusion)
        assert conf.sum() == len(test_set)
        assert np.all(conf.sum(axis=1) == 2)  # rows are per-class test counts
        assert conf.trace() / conf.sum() == pytest.approx(record.best_acc)

    def test_divergence_aborts_with_record(self, monkeypatch):
        # Binary spikes keep the vote loss finite for any input, so exercise
        # the abort guard by stubbing the loss to go non-finite.
        _, train_set = bar_dataset(3, seed=41)
        _, test_set = bar_dataset(2, seed=42)
        monkeypatch.setattr(
            "spikefuse.training.mse_vote_loss",
            lambda o, y: Tensor(np.array(np.nan)),
        )
        with pytest.raises(DivergenceError) as exc:
            train(tiny_config(epochs=1), train_set, test_set)
        record = exc.value.record
        assert record is not None
        assert record.config["arch"] == TINY_ARCH
        assert record.per_epoch == []

    def test_epoch_shuffle_is_permutation(self):
        rng = Rng(5).split("train")
        for epoch in range(3):
            order = rng.split("shuffle", epoch).permutation(17)
            assert sorted(order) == list(range(17))

    def test_checkpoint_round_trip_reproduces_accuracy(self, tmp_path):
        _, train_set = bar_dataset(3, seed=51)
        _, test_set = bar_dataset(2, seed=52)
        record, net = train(tiny_config(epochs=1, variant="stfa"), train_set, test_set)
        acc_before, _, _ = evaluate_frames(net, test_set)
        save_checkpoint(tmp_path / "ck.bin", net)
        loaded, _ = load_checkpoint(tmp_path / "ck.bin")
        acc_after, _, _ = evaluate_frames(loaded, test_set)
        assert acc_before == acc_after == record.best_acc

    def test_run_record_json_fields(self):
        _, train_set = bar_dataset(2, seed=61)
        _, test_set = bar_dataset(1, seed=62)
        record, _ = train(tiny_config(epochs=2), train_set, test_set)
        doc = json.loads(record.to_json())
        assert set(doc) == {"config", "per_epoch", "best_epoch", "best_acc", "confusion"}
        assert len(doc["per_epoch"]) == 2
        assert set(doc["per_epoch"][0]) == {"epoch", "loss", "test_acc", "lr"}
        assert record.timing_ms > 0  # kept out of the reproducible document


@pytest.fixture(scope="module")
def trained():
    streams, train_set = bar_dataset(3, seed=71)
    test_streams, test_set = bar_dataset(2, seed=72)
    record, net = train(tiny_config(epochs=1), train_set, test_set)
    return net, test_streams, record


class TestEvaluateWithCorruption:

    def test_zero_noise_identity(self, trained):
        net, streams, record = trained
        clean = evaluate(net, streams, 100.0, 5)
        noisy = evaluate(net, streams, 100.0, 5, CorruptionSpec("poisson_noise", 0.0, 9))
        assert noisy.accuracy == clean.accuracy
        assert noisy.activation_distance == 0.0

    def test_zero_event_loss_identity(self, trained):
        net, streams, _ = trained
        clean = evaluate(net, streams, 100.0, 5)
        out = evaluate(net, streams, 100.0, 5, CorruptionSpec("event_loss", 0.0, 9))
        assert out.accuracy == clean.accuracy
        assert out.activation_distance == 0.0

    def test_zero_frame_loss_identity(self, trained):
        net, streams, _ = trained
        clean = evaluate(net, streams, 100.0, 5)
        out = evaluate(net, streams, 100.0, 5, CorruptionSpec("frame_loss", 0.0, 9))
        assert out.accuracy == clean.accuracy
        assert out.activation_distance == 0.0

    def test_full_frame_loss_degenerates_to_tie_break(self, trained):
        net, streams, _ = trained
        assert not sweep_level_frames(streams, 100.0, 5, CorruptionSpec("frame_loss", 1.0, 9)).any()
        zero = frames_from_streams(streams, 100.0, 5)
        zero.frames[...] = 0.0
        preds = []
        for i in range(len(zero)):
            vote = net.forward(zero.frames[i : i + 1], training=False)
            preds.append(int(vote.predictions()[0]))
        assert len(set(preds)) == 1  # identical degenerate prediction
        labels = np.array([s.label for s in streams])
        expect_acc = float(np.mean(labels == preds[0]))
        out = evaluate(net, streams, 100.0, 5, CorruptionSpec("frame_loss", 1.0, 9))
        assert out.accuracy == expect_acc


SWEEP_SPECS = [  # zero levels after non-zero ones: each level overwrites the whole shared batch
    CorruptionSpec("frame_loss", 0.4, 5),
    CorruptionSpec("poisson_noise", 1.5, 6),
    CorruptionSpec("event_loss", 0.3, 7),
    CorruptionSpec("poisson_noise", 0.0, 8),
    CorruptionSpec("frame_loss", 0.0, 9),
    CorruptionSpec("event_loss", 0.0, 10),
]


def per_level_reference(net, streams, specs, binarize, batch_size):
    """Each level as its own composition: a clean and a corrupted pass with
    whole-set trajectories, and the distance from their difference."""
    labels = np.array([s.label for s in streams])
    clean = LabeledFrames(sweep_level_frames(streams, 100.0, 5, None, binarize, net.dtype), labels)
    acc, conf, _ = evaluate_frames(net, clean, batch_size=batch_size)
    out = [(acc, conf, None)]
    for spec in specs:
        corrupted = LabeledFrames(sweep_level_frames(streams, 100.0, 5, spec, binarize, net.dtype),
                                  labels)
        acc, conf, hidden_c = evaluate_frames(net, corrupted, batch_size=batch_size,
                                              record_hidden=True)
        _, _, hidden_0 = evaluate_frames(net, clean, batch_size=batch_size, record_hidden=True)
        diff = (hidden_0 - hidden_c).reshape(hidden_0.shape[0], hidden_0.shape[1], -1)
        out.append((acc, conf, float(np.mean(np.linalg.norm(diff, axis=2)))))
    return out


@pytest.fixture(scope="module")
def sweep_nets():
    _, train_set = bar_dataset(3, seed=81)
    test_streams, test_set = bar_dataset(2, seed=82)
    nets = {}
    for precision in ("f32", "f64"):
        _, nets[precision] = train(tiny_config(epochs=1, precision=precision),
                                   train_set, test_set)
    return nets, test_streams


class TestEvaluateSweep:

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("binarize", [False, True])
    def test_matches_per_level_reference_bitwise(self, sweep_nets, precision, binarize):
        nets, streams = sweep_nets
        net = nets[precision]
        batch_size = 3  # uneven batches: 3 + 3 + 2 samples
        swept = list(evaluate_sweep(net, streams, 100.0, 5, SWEEP_SPECS,
                                    binarize=binarize, batch_size=batch_size))
        reference = per_level_reference(net, streams, SWEEP_SPECS, binarize, batch_size)
        assert len(swept) == len(SWEEP_SPECS) + 1
        for result, (acc, conf, distance) in zip(swept, reference):
            assert result.accuracy == acc
            assert np.array_equal(result.confusion, conf)
            assert result.activation_distance == distance
        assert all(result.activation_distance == 0.0 for result in swept[4:])
        assert swept[2].activation_distance > 0.0  # poisson noise moves the trajectory
        singles = [evaluate(net, streams, 100.0, 5, spec, binarize=binarize,
                            batch_size=batch_size) for spec in [None] + SWEEP_SPECS]
        for single, result in zip(singles, swept):
            assert single.accuracy == result.accuracy
            assert np.array_equal(single.confusion, result.confusion)
            assert single.activation_distance == result.activation_distance

    def test_one_clean_pass_and_one_slice_per_stream(self, sweep_nets, monkeypatch):
        # every level reuses one binning of each stream's events into frame cells
        nets, streams = sweep_nets
        calls = {"evaluate_frames": 0, "_frame_cells": 0}

        def counted(name):
            original = getattr(training, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(training, name, counted(name))
        results = list(evaluate_sweep(nets["f32"], streams, 100.0, 5, SWEEP_SPECS))
        assert len(results) == len(SWEEP_SPECS) + 1
        assert calls["evaluate_frames"] == len(SWEEP_SPECS) + 1
        assert calls["_frame_cells"] == len(streams)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("binarize", [False, True])
    def test_level_frames_equal_the_public_ops_bitwise(self, sweep_nets, monkeypatch, conv_workers,
                                                       precision, binarize):
        nets, streams = sweep_nets
        net = nets[precision]
        conv_workers(2)
        seen = []
        real = training.evaluate_frames

        def capture(net, dataset, **kwargs):
            seen.append(dataset.frames.copy())
            return real(net, dataset, **kwargs)

        monkeypatch.setattr(training, "evaluate_frames", capture)
        list(evaluate_sweep(net, streams, 100.0, 5, SWEEP_SPECS, binarize=binarize))
        assert len(seen) == len(SWEEP_SPECS) + 1
        for spec, frames in zip([None] + SWEEP_SPECS, seen):
            reference = sweep_level_frames(streams, 100.0, 5, spec, binarize, net.dtype)
            assert frames.dtype == reference.dtype and frames.tobytes() == reference.tobytes(), spec
        clean = frames_from_streams(streams, 100.0, 5, binarize=binarize, dtype=net.dtype)
        assert clean.frames.tobytes() == seen[0].tobytes()
        assert clean.labels.tolist() == [s.label for s in streams]

    def test_results_equal_for_any_worker_count(self, sweep_nets, conv_workers):
        nets, streams = sweep_nets
        runs = []
        for workers in (1, 2, 3):
            conv_workers(workers)
            runs.append(list(evaluate_sweep(nets["f32"], streams, 100.0, 5, SWEEP_SPECS,
                                            batch_size=3)))
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert a.accuracy == b.accuracy
                assert a.confusion.tobytes() == b.confusion.tobytes()
                assert a.activation_distance == b.activation_distance

    @pytest.mark.parametrize("spec", SWEEP_SPECS[:3], ids=lambda spec: spec.kind)
    def test_corrupted_level_peak_is_a_few_streams(self, sweep_nets, monkeypatch, conv_workers, spec):
        # a level writes its counts into the clean pass's batch, one stream
        # per task: no per-level list of count maps, stack or cast copy
        nets, streams = sweep_nets
        conv_workers(2)

        def no_forward(net, dataset, batch_size=32, record_hidden=False, hidden_reference=None):
            return 0.0, np.zeros((4, 4), dtype=np.int64), np.zeros((len(dataset), 5))

        monkeypatch.setattr(training, "evaluate_frames", no_forward)
        sweep = evaluate_sweep(nets["f32"], streams, 100.0, 5, [spec])
        next(sweep)
        tracemalloc.start()
        try:
            next(sweep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stream_bytes = 5 * 2 * 16 * 16 * 8  # one stream's int64 counts
        batch_bytes = len(streams) * 5 * 2 * 16 * 16 * 4
        assert peak < batch_bytes + 4 * stream_bytes

    def test_distances_equal_batch_one_norms_bitwise(self, sweep_nets):
        # an oracle that shares no batching with evaluate_frames, so a swap of
        # the trace's B and T axes shows
        nets, streams = sweep_nets
        net = nets["f32"]
        clean = frames_from_streams(streams, 100.0, 5, dtype=net.dtype)
        noisy = LabeledFrames(sweep_level_frames(streams, 100.0, 5, SWEEP_SPECS[1], dtype=net.dtype),
                              clean.labels)

        def traces(frames):
            with no_grad():
                return np.concatenate([net.forward(frames[i : i + 1], record_hidden=True).hidden
                                       for i in range(len(frames))])

        reference = traces(clean.frames)
        _, _, distances = evaluate_frames(net, noisy, batch_size=3, hidden_reference=reference)
        diff = (reference - traces(noisy.frames)).reshape(len(reference), reference.shape[1], -1)
        assert distances.tobytes() == np.linalg.norm(diff, axis=2).tobytes()
        assert distances.any()

    def test_streamed_distance_holds_no_whole_set_trace(self, sweep_nets):
        nets, streams = sweep_nets
        clean = frames_from_streams(streams, 100.0, 5, dtype=nets["f32"].dtype)
        _, _, hidden = evaluate_frames(nets["f32"], clean, batch_size=3, record_hidden=True)
        _, _, distances = evaluate_frames(nets["f32"], clean, batch_size=3,
                                          hidden_reference=hidden)
        assert hidden.shape[:2] == distances.shape == (len(streams), 5)
        assert distances.dtype == hidden.dtype
        assert not distances.any()
