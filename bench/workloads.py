"""The three workloads: inputs made from the seed, one timed unit each, and
the checks on their outputs.

Each workload's ``setup`` makes its inputs from the seed, writes any files
under the directory it is given, and builds what the timed phase needs; it
may run several times in one process and every run builds the same state.
``unit`` runs one timed unit and returns bytes that identify its outputs
beyond what the probe already hashes; units of one run must produce
identical outputs. ``phases`` splits a unit into the calls that the
benchmark times one by one, each with its own host factor; their outputs,
joined, are the unit's. ``final_checks`` runs after the timed phase,
outside the clock.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from pathlib import Path

import numpy as np

from spikefuse import harness, network, training
from spikefuse.events import synth_moving_bar
from spikefuse.neuron import LifConfig
from spikefuse.rng import Rng

BAR_HYPER = harness.HYPER_PRESETS["synth_bar"]
BAR_ARCH = harness.ARCH_PRESETS["synth_bar"]


def bar_config(variant, seed, height, width) -> training.TrainConfig:
    """One-epoch synth_bar preset config at the given geometry."""
    return training.TrainConfig(
        arch=BAR_ARCH,
        variant=variant,
        epochs=1,
        batch_size=BAR_HYPER["batch_size"],
        lr=BAR_HYPER["lr"],
        lr_decay=BAR_HYPER["lr_decay"],
        seed=seed,
        lif=LifConfig(v_th=BAR_HYPER["v_th"], kappa=BAR_HYPER["kappa"]),
        data=training.DataConfig(delta_t_ms=BAR_HYPER["delta_t_ms"],
                                 timesteps=BAR_HYPER["timesteps"]),
        input_height=height,
        input_width=width,
    )


def bar_streams(rng: Rng, n_per_class, size, rate):
    return [
        synth_moving_bar(label, size, size, 1000.0, rate, rng.split(label, i))
        for label in range(4)
        for i in range(n_per_class)
    ]


class Workload:
    """A unit is one phase unless a workload splits it."""

    def phases(self):
        return [self.unit]


class SynthBarEpoch(Workload):
    """``training.train`` for one epoch of the sctfa synth_bar preset at
    16x16 on the acceptance-trend corpus (4 classes x 50 train / x 20 test,
    rate 2.0). Every unit starts from the same initial network, so every
    epoch must produce the same losses and record."""

    name = "synth_bar_epoch"
    unit_name = "epoch"
    unit_is_step = False

    def setup(self, seed: int, work_dir: Path):
        rng = Rng(seed).split("synth_bar_epoch")
        dt, steps = BAR_HYPER["delta_t_ms"], BAR_HYPER["timesteps"]
        self.train_set = training.frames_from_streams(
            bar_streams(rng.split("train"), 50, 16, 2.0), dt, steps)
        self.test_set = training.frames_from_streams(
            bar_streams(rng.split("test"), 20, 16, 2.0), dt, steps)
        self.cfg = bar_config("sctfa", rng.derive_seed("init") % 2**31, 16, 16)
        self.epoch_losses = []

    def unit(self) -> bytes:
        record, _ = training.train(self.cfg, self.train_set, self.test_set,
                                   eval_batch_size=self.cfg.batch_size)
        self.epoch_losses.append(record.per_epoch[0].loss)
        return record.to_json().encode()

    def final_checks(self, reference: dict):
        """The epoch's mean loss lies in the across-seed band recorded at
        the baseline commit (summation order may change, so not bitwise)."""
        lo, hi = reference["synth_bar_epoch_loss_band"]
        loss = self.epoch_losses[0]
        return [("epoch_loss_in_baseline_band", lo <= loss <= hi)]


class GestureStep(Workload):
    """A dvs_gesture-preset sctfa train step at 128x128, T=10, B=2 on
    Poisson(0.3) count frames, then two no-grad forward batches of B=2.
    Every unit restores the initial parameters, batch-norm statistics and
    optimizer state first, so every unit repeats the same arithmetic."""

    name = "gesture_step"
    unit_name = "round"  # the train step and the no-grad batches after it
    unit_is_step = True
    batch = 2

    def setup(self, seed: int, work_dir: Path):
        rng = Rng(seed).split("gesture_step")
        hyper = harness.HYPER_PRESETS["dvs_gesture"]
        config = {
            "arch": harness.ARCH_PRESETS["dvs_gesture"],
            "variant": "sctfa",
            "v_th": hyper["v_th"],
            "kappa": hyper["kappa"],
            "reduction": hyper["reduction"],
            "timesteps": hyper["timesteps"],
            "input_height": 128,
            "input_width": 128,
            "precision": "f32",
        }
        self.lr = hyper["lr"]
        self.net = network.build_network(config, seed=rng.derive_seed("init") % 2**31)
        classes = self.net.spec.classes
        shape = (self.batch, hyper["timesteps"], 2, 128, 128)
        self.frames = rng.split("train").poisson(0.3, size=shape).astype(np.float32)
        labels = rng.split("labels").integers(0, classes, size=self.batch)
        self.targets = training.one_hot(labels, classes)
        infer = rng.split("infer")
        self.eval_set = training.LabeledFrames(
            infer.poisson(0.3, size=(2 * self.batch,) + shape[1:]).astype(np.float32),
            infer.integers(0, classes, size=2 * self.batch),
        )
        self.dropout_rng = rng.split("dropout")
        self.adam = training.Adam(self.net.named_parameters())
        self.saved_params = [p.data.copy() for p in self.net.parameters()]
        self.saved_buffers = [a.copy() for _, a in self.net.named_buffers()]
        self.bn_states = [layer.bn_state for layer in self.net.layers
                          if getattr(layer, "bn_state", None) is not None]

    def _restore(self):
        for p, saved in zip(self.net.parameters(), self.saved_params):
            p.data[...] = saved
            p.grad = None
        for (_, arr), saved in zip(self.net.named_buffers(), self.saved_buffers):
            arr[...] = saved
        for state in self.bn_states:
            state.initialized = False
        self.adam = training.Adam(self.net.named_parameters())

    def phases(self):
        return [self.train_step, self.evaluate]

    def unit(self) -> bytes:
        return b"".join(phase() for phase in self.phases())

    def train_step(self) -> bytes:
        self._restore()
        vote = self.net.forward(self.frames, training=True, rng=self.dropout_rng)
        loss = training.mse_vote_loss(vote.o, self.targets)
        self.adam.zero_grad()
        loss.backward()
        self.adam.step(self.lr)
        return b""

    def evaluate(self) -> bytes:
        acc, conf, _ = training.evaluate_frames(self.net, self.eval_set,
                                                batch_size=self.batch)
        return np.float64(acc).tobytes() + conf.tobytes()

    def final_checks(self, reference: dict):
        return []


class RobustnessSweep(Workload):
    """``spikefuse robustness`` run in process on a briefly trained bl
    checkpoint of the synth_bar preset at 32x32, over a 4x20 EVS1 test
    corpus at rate 8.0 and six corruption levels."""

    name = "robustness_sweep"
    unit_name = "sweep"
    unit_is_step = False
    levels = ("--noise", "0.1,0.5", "--event-loss", "0.2,0.5", "--frame-loss", "0.2,0.5")
    level_count = 7  # the clean pass plus six corrupted levels

    def setup(self, seed: int, work_dir: Path):
        rng = Rng(seed).split("robustness_sweep")
        self.dir = work_dir
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.test_dir = self.dir / "test"
        harness.synth_corpus(self.test_dir, 4, 20, 32, 32, 1000.0, 8.0,
                             seed=rng.derive_seed("test") % 2**31)
        dt, steps = BAR_HYPER["delta_t_ms"], BAR_HYPER["timesteps"]
        train_set = training.frames_from_streams(
            bar_streams(rng.split("train"), 10, 32, 8.0), dt, steps)
        test_set = training.frames_from_streams(harness.load_corpus(self.test_dir), dt, steps)
        cfg = bar_config("bl", rng.derive_seed("init") % 2**31, 32, 32)
        _, net = training.train(cfg, train_set, test_set)
        self.checkpoint = self.dir / "checkpoint.bin"
        network.save_checkpoint(self.checkpoint, net, extra_config={
            "delta_t_ms": dt, "binarize": False, "seed": cfg.seed})
        self.sweep_seed = rng.derive_seed("sweep") % 2**31
        self.out = self.dir / "sweep"
        self.rows = None

    def unit(self) -> bytes:
        argv = ["robustness", "--checkpoint", str(self.checkpoint),
                "--data", str(self.test_dir), *self.levels,
                "--seed", str(self.sweep_seed), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = harness.main(argv)
        if code != 0:
            raise RuntimeError(f"spikefuse robustness exited with {code}")
        csv_bytes = (self.out / "robustness.csv").read_bytes()
        self.rows = [line.split(",") for line in csv_bytes.decode().splitlines()[1:]]
        return csv_bytes

    def level_failures(self) -> int:
        """Sweep levels without a finite accuracy row."""
        good = sum(1 for row in self.rows
                   if row[2] == "accuracy" and math.isfinite(float(row[3])))
        return self.level_count - good

    def final_checks(self, reference: dict):
        """The sweep's clean accuracy equals ``training.evaluate``."""
        net, config = network.load_checkpoint(self.checkpoint)
        streams = harness.load_corpus(self.test_dir)
        clean = training.evaluate(net, streams, float(config["delta_t_ms"]),
                                  int(config["timesteps"]))
        swept = next(float(r[3]) for r in self.rows if r[0] == "clean")
        return [("clean_accuracy_matches_evaluate", swept == clean.accuracy)]


WORKLOADS = {w.name: w for w in (SynthBarEpoch, GestureStep, RobustnessSweep)}

