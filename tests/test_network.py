"""Architecture parsing, unrolled forward, counters, checkpoints."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from spikefuse.errors import ArchError, CheckpointError, ConfigError, ParameterError, ShapeError
from spikefuse.network import (
    PRECISIONS,
    ConvStage,
    DenseStage,
    SpikingNetwork,
    VotingStage,
    build_network,
    count_mult_adds,
    count_parameters,
    load_checkpoint,
    parse_architecture,
    save_checkpoint,
)
from spikefuse.neuron import LifConfig
from spikefuse.rng import Rng

from seams import seam_network

GESTURE_ARCH = (
    "Input-128C5S2-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2"
    "-512FC-VotingC11P5-AP"
)
SL_ANIMALS_ARCH = (
    "Input-128C5S2-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2-128C3-BN-AP2"
    "-DP-512FC-DP-VotingC19P5-AP"
)
MNIST_ARCH = "Input-32C7S2-BN-AP2-64C3-BN-AP2-128C3-BN-AP2-512FC-VotingC10P5-AP"
TINY_ARCH = "Input-4C3-BN-AP2-4C3-BN-VotingC2P2-AP"


def tiny_spec(variant="bl", timesteps=3, hw=6, v_th=1.0, kappa=0.7):
    return parse_architecture(
        TINY_ARCH,
        input_shape=(2, hw, hw),
        variant=variant,
        lif=LifConfig(v_th=v_th, kappa=kappa),
        reduction=4,
        timesteps=timesteps,
    )


class TestParse:
    def test_mnist_row_shapes(self):
        spec = parse_architecture(MNIST_ARCH, timesteps=20)
        dense = next(s for s in spec.stages if isinstance(s, DenseStage))
        assert dense.in_features == 128 * 8 * 8
        assert spec.classes == 10 and spec.per_class == 5

    def test_voting_token(self):
        spec = parse_architecture(GESTURE_ARCH)
        vote = next(s for s in spec.stages if isinstance(s, VotingStage))
        assert vote.classes == 11 and vote.per_class == 5
        assert vote.classes * vote.per_class == 55

    def test_pool_on_odd_extent_is_error(self):
        with pytest.raises(ArchError) as exc:
            parse_architecture("Input-8C3-AP2", input_shape=(2, 9, 9))
        assert exc.value.token_index == 2

    def test_unknown_token(self):
        with pytest.raises(ArchError) as exc:
            parse_architecture("Input-8C3-XYZ-VotingC2P2-AP", input_shape=(2, 8, 8))
        assert exc.value.token_index == 2

    def test_voting_not_last(self):
        with pytest.raises(ArchError) as exc:
            parse_architecture("Input-VotingC2P2-4FC", input_shape=(2, 8, 8))
        assert exc.value.token_index == 2

    @pytest.mark.parametrize("arch, index", [("Input-4C3-AP0-VotingC2P2-AP", 2),
                                             ("Input-4C3-0FC-VotingC2P2-AP", 2),
                                             ("Input-4C3-AP2-00FC-VotingC2P2-AP", 3)])
    def test_zero_pool_or_fully_connected_size_is_error(self, arch, index):
        with pytest.raises(ArchError) as exc:
            parse_architecture(arch, input_shape=(2, 8, 8))
        assert exc.value.token_index == index

    def test_bn_needs_preceding_conv(self):
        with pytest.raises(ArchError):
            parse_architecture("Input-BN-VotingC2P2", input_shape=(2, 8, 8))

    @pytest.mark.parametrize("kwargs", [{"variant": "zz"}, {"reduction": 0}, {"timesteps": 0}])
    def test_bad_variant_reduction_or_timesteps(self, kwargs):
        with pytest.raises(ArchError):
            parse_architecture("Input-8C3-VotingC2P2-AP", input_shape=(2, 8, 8), **kwargs)

    def test_render_roundtrip_canonical(self):
        for arch in (GESTURE_ARCH, SL_ANIMALS_ARCH, MNIST_ARCH):
            spec = parse_architecture(arch)
            assert spec.arch_string == arch
            again = parse_architecture(spec.arch_string)
            assert again.arch_string == spec.arch_string

    def test_stride_one_is_dropped_from_canonical_form(self):
        spec = parse_architecture("Input-8C3S1-VotingC2P2-AP", input_shape=(2, 8, 8))
        assert spec.arch_string == "Input-8C3-VotingC2P2-AP"

    def test_same_padding_chain_sizes(self):
        spec = parse_architecture(GESTURE_ARCH)
        convs = [s for s in spec.stages if isinstance(s, ConvStage)]
        assert [c.out_hw[0] for c in convs] == [64, 32, 16, 8, 4]
        dense = next(s for s in spec.stages if isinstance(s, DenseStage))
        assert dense.in_features == 128 * 2 * 2


class TestCounters:
    def test_trivial_conv_count(self):
        spec = parse_architecture("Input-1C1", input_shape=(2, 8, 8))
        assert count_parameters(spec) == 1 * 2 * 1 + 1

    def test_zero_layer_spec(self):
        spec = parse_architecture("Input", input_shape=(2, 8, 8), timesteps=20)
        assert count_parameters(spec) == 0
        assert count_mult_adds(spec) == 0

    @pytest.mark.parametrize(
        "variant,expected_millions",
        [("bl", 0.895), ("sctfa", 0.937)],
    )
    def test_gesture_params_within_one_percent(self, variant, expected_millions):
        spec = parse_architecture(GESTURE_ARCH, variant=variant)
        count = count_parameters(spec)
        assert abs(count / 1e6 - expected_millions) / expected_millions < 0.01

    @pytest.mark.parametrize(
        "variant,expected_millions",
        [("bl", 4.316), ("sctfa", 4.327)],
    )
    def test_mnist_params_within_one_percent(self, variant, expected_millions):
        spec = parse_architecture(MNIST_ARCH, variant=variant)
        count = count_parameters(spec)
        assert abs(count / 1e6 - expected_millions) / expected_millions < 0.01

    def test_mnist_mult_adds(self):
        spec = parse_architecture(MNIST_ARCH, variant="bl", timesteps=20)
        assert abs(count_mult_adds(spec) / 1e9 - 1.096) / 1.096 < 0.02

    def test_gesture_mult_adds_convention_gap(self):
        spec = parse_architecture(GESTURE_ARCH, variant="bl", timesteps=10)
        assert abs(count_mult_adds(spec) / 1e9 - 2.522) / 2.522 < 0.15

    @pytest.mark.parametrize("arch", [GESTURE_ARCH, MNIST_ARCH, TINY_ARCH])
    def test_variant_deltas_closed_form(self, arch):
        hw = 6 if arch == TINY_ARCH else 128
        specs = {
            v: parse_architecture(arch, input_shape=(2, hw, hw), variant=v)
            for v in ("bl", "stfa", "ctfa", "sctfa")
        }
        convs = [s for s in specs["bl"].stages if isinstance(s, ConvStage)]
        spatial = sum(c.out_channels + 1 for c in convs)
        channel = sum(2 * c.out_channels**2 // 4 for c in convs)
        base = count_parameters(specs["bl"])
        assert count_parameters(specs["stfa"]) - base == spatial
        assert count_parameters(specs["ctfa"]) - base == channel
        assert count_parameters(specs["sctfa"]) - base == spatial + channel

    def test_network_param_count_matches_formula(self):
        for variant in ("bl", "stfa", "ctfa", "sctfa"):
            spec = tiny_spec(variant)
            net = SpikingNetwork(spec, seed=1)
            actual = sum(p.size for p in net.parameters())
            assert actual == count_parameters(spec)


def frames_for(spec, batch=2, seed=5, rate=1.0):
    rng = Rng(seed)
    return rng.poisson(rate, size=(batch, spec.timesteps, *spec.input_shape)).astype(np.float64)


class TestForward:
    def test_silence_in_silence_out(self):
        spec = tiny_spec("bl")
        net = SpikingNetwork(spec, seed=2)
        # zero input, zero biases, batch statistics: every pre-activation is
        # exactly zero, so no neuron can reach a positive v_th
        frames = np.zeros((2, spec.timesteps, *spec.input_shape))
        vote = net.forward(frames, training=True)
        assert np.all(vote.o.data == 0.0)

    def test_vote_output_shape_and_range(self):
        spec = tiny_spec("sctfa")
        net = SpikingNetwork(spec, seed=3)
        vote = net.forward(frames_for(spec), training=True)
        assert vote.o.shape == (2, 2, 3)
        assert np.all(vote.o.data >= 0.0) and np.all(vote.o.data <= 1.0)

    def test_rigged_voting_group_saturates(self):
        spec = tiny_spec("bl")
        net = SpikingNetwork(spec, seed=4)
        voting = net.layers[-1]
        voting.weight.data[...] = 0.0
        voting.bias.data[...] = -100.0
        voting.bias.data[: spec.per_class] = 100.0  # class-0 group always fires
        vote = net.forward(frames_for(spec), training=True)
        assert np.all(vote.o.data[:, 0, :] == 1.0)
        assert np.all(vote.o.data[:, 1, :] == 0.0)
        assert list(vote.predictions()) == [0, 0]

    def test_argmax_tie_breaks_to_lowest_index(self):
        spec = tiny_spec("bl")
        net = SpikingNetwork(spec, seed=5)
        voting = net.layers[-1]
        voting.weight.data[...] = 0.0
        voting.bias.data[...] = 100.0  # every group fires every step
        vote = net.forward(frames_for(spec), training=True)
        assert np.all(vote.predictions() == 0)

    @pytest.mark.parametrize("training", [True, False])
    def test_empty_batch_rejected_before_any_layer(self, training):
        spec = parse_architecture("Input-8C3-BN-AP2-16C3-BN-AP2-64FC-VotingC4P5-AP",
                                  input_shape=(2, 8, 8), variant="sctfa", timesteps=3)
        net = SpikingNetwork(spec, seed=2)
        net.forward(Rng(1).poisson(0.5, size=(2, 3, 2, 8, 8)), training=True)
        buffers = [a.copy() for _, a in net.named_buffers()]
        with pytest.raises(ShapeError, match="no samples"):
            net.forward(np.zeros((0, 3, 2, 8, 8), dtype=np.float32), training=training)
        for (_, after), before in zip(net.named_buffers(), buffers):
            assert after.tobytes() == before.tobytes()

    def test_wrong_timesteps_rejected(self):
        spec = tiny_spec("bl", timesteps=3)
        net = SpikingNetwork(spec, seed=6)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 5, 2, 6, 6)))

    def test_forward_deterministic_bitwise(self):
        spec = tiny_spec("sctfa")
        frames = frames_for(spec)
        a = SpikingNetwork(spec, seed=7).forward(frames, training=True).o.data
        b = SpikingNetwork(spec, seed=7).forward(frames, training=True).o.data
        assert np.array_equal(a, b)

    def test_consecutive_batches_identical_after_reset(self):
        spec = tiny_spec("sctfa")
        net = SpikingNetwork(spec, seed=8)
        frames = frames_for(spec)
        a = net.forward(frames, training=True).o.data
        b = net.forward(frames, training=True).o.data
        assert np.array_equal(a, b)

    def test_trace_present_only_when_recorded(self):
        spec = tiny_spec("sctfa")
        net = SpikingNetwork(spec, seed=8)
        vote = net.forward(frames_for(spec), training=True, record_hidden=True)
        assert vote.hidden.shape == (2, 3, 4, 3, 3)
        assert net.forward(frames_for(spec), training=True).hidden is None


class TestStructuralEquivalence:
    """A branch made exactly 1 through its parameters (``seams``) reproduces
    the variant without that branch, through the real gated multiply: the
    votes and the last conv layer's membrane, bitwise."""

    @staticmethod
    def run(variant, seed, frames, spatial=False, channel=False):
        net = seam_network(SpikingNetwork(tiny_spec(variant), seed=seed), spatial, channel)
        vote = net.forward(frames, training=True, record_hidden=True)
        return vote.o.data.tobytes() + vote.hidden.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_both_unit_branches_equal_baseline_bitwise(self, seed):
        frames = frames_for(tiny_spec("bl"), seed=seed + 100)
        bl = self.run("bl", seed, frames)
        assert bl == self.run("sctfa", seed, frames, spatial=True, channel=True)
        assert bl == self.run("stfa", seed, frames, spatial=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_unit_spatial_equals_channel_variant_bitwise(self, seed):
        frames = frames_for(tiny_spec("bl"), seed=seed + 200)
        assert self.run("ctfa", seed, frames) == self.run("sctfa", seed, frames, spatial=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_unit_channel_equals_spatial_variant_bitwise(self, seed):
        frames = frames_for(tiny_spec("bl"), seed=seed + 300)
        assert self.run("stfa", seed, frames) == self.run("sctfa", seed, frames, channel=True)


class TestFirstStepIsPlain:
    def test_single_step_fused_net_equals_baseline_bitwise(self):
        # attention gates only from the second step on, so at T=1 a fused
        # network must match the baseline exactly (shared init streams)
        for seed in range(5):
            frames = Rng(seed + 400).poisson(1.0, size=(2, 1, 2, 6, 6)).astype(np.float32)
            bl = SpikingNetwork(tiny_spec("bl", timesteps=1), seed=seed)
            fused = SpikingNetwork(tiny_spec("sctfa", timesteps=1), seed=seed)
            a = bl.forward(frames, training=True).o.data
            b = fused.forward(frames, training=True).o.data
            assert np.array_equal(a, b)


class TestHiddenActivation:
    def test_identical_inputs_zero_distance(self):
        spec = tiny_spec("sctfa")
        net = SpikingNetwork(spec, seed=9)
        frames = frames_for(spec)
        a = net.forward(frames, training=True, record_hidden=True).hidden
        b = net.forward(frames, training=True, record_hidden=True).hidden
        assert a.shape == (2, 3, 4, 3, 3)
        assert np.array_equal(a, b)

    def test_not_recorded_gives_none(self):
        spec = tiny_spec("bl")
        net = SpikingNetwork(spec, seed=10)
        assert net.forward(frames_for(spec), training=True).hidden is None

    def test_trace_is_read_only(self):
        # the trace is a view of the membrane the layer's backward reads
        spec = tiny_spec("bl")
        net = SpikingNetwork(spec, seed=10)
        hidden = net.forward(frames_for(spec), training=True, record_hidden=True).hidden
        with pytest.raises(ValueError):
            hidden[...] = 0.0

    def test_metric_axioms_on_sampled_trajectories(self):
        spec = tiny_spec("bl")
        net = SpikingNetwork(spec, seed=11)
        traces = []
        for seed in (1, 2, 3):
            vote = net.forward(frames_for(spec, seed=seed), training=True, record_hidden=True)
            traces.append(vote.hidden.reshape(-1))

        def dist(a, b):
            return float(np.linalg.norm(a - b))

        d01, d12, d02 = dist(traces[0], traces[1]), dist(traces[1], traces[2]), dist(traces[0], traces[2])
        assert dist(traces[0], traces[0]) == 0.0
        assert d01 == dist(traces[1], traces[0])
        assert d02 <= d01 + d12 + 1e-12


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        spec = tiny_spec("sctfa")
        net = SpikingNetwork(spec, seed=12)
        frames = frames_for(spec)
        net.forward(frames, training=True)  # initialize BN stats
        before = net.forward(frames, training=False).o.data
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net, extra_config={"delta_t_ms": 100.0})
        loaded, config = load_checkpoint(path)
        assert config["variant"] == "sctfa"
        assert config["delta_t_ms"] == 100.0
        after = loaded.forward(frames, training=False).o.data
        assert np.array_equal(before, after)

    def test_manifest_lists_all_tensors(self, tmp_path):
        net = SpikingNetwork(tiny_spec("sctfa"), seed=13)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net)
        manifest = (tmp_path / "checkpoint.manifest.tsv").read_text().strip().splitlines()
        names = [line.split("\t")[0] for line in manifest[1:]]
        expected = [n for n, _ in net.named_parameters()] + [n for n, _ in net.named_buffers()]
        assert names == expected

    # SHA-256 of the checkpoint and its manifest: the tensor names, their
    # order and every init stream are part of the file format
    LAYOUT_ARCH = "Input-8C3-BN-AP2-8C3-AP2-DP-16FC-VotingC2P2-AP"
    LAYOUT_DIGESTS = {
        "bl": ("d0a9f6251342e0300d182499a9487e36705dbc72e4d9959e02460fcaa12c708e",
               "8fb3c436125e45f77d14fceaba9c9f8f95b40bd8f439e60a0f43711913d75256"),
        "sctfa": ("c5a26d9c40b22ec78adb1406cfb44948af168820d94060c262253fd1524e30b3",
                  "9a9fe484f858dc6ff80062b88054bdb777e83bdba99140cb0e5f0f14137172bf"),
    }

    @pytest.mark.parametrize("variant", sorted(LAYOUT_DIGESTS))
    def test_layout_pinned_by_digest(self, tmp_path, variant):
        spec = parse_architecture(self.LAYOUT_ARCH, input_shape=(2, 16, 16), variant=variant,
                                  lif=LifConfig(v_th=1.0, kappa=0.7), reduction=4, timesteps=3)
        save_checkpoint(tmp_path / "net.snn", SpikingNetwork(spec, seed=3))
        digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                        for name in ("net.snn", "net.manifest.tsv"))
        assert digests == self.LAYOUT_DIGESTS[variant]

    def test_f64_round_trip(self, tmp_path):
        net = SpikingNetwork(tiny_spec("bl"), seed=14, dtype=np.float64)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net)
        loaded, config = load_checkpoint(path)
        assert config["precision"] == "f64"
        assert loaded.dtype == np.float64
        for (_, a), (_, b) in zip(net.named_parameters(), loaded.named_parameters()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("precision", sorted(PRECISIONS))
    def test_precision_flag_is_the_index_of_its_name(self, tmp_path, precision):
        net = build_network(dict(SpikingNetwork(tiny_spec("bl"), seed=14).config_dict(), precision=precision))
        assert net.dtype is PRECISIONS[precision].type
        assert net.config_dict()["precision"] == precision
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        assert raw[8 + int.from_bytes(raw[4:8], "little")] == list(PRECISIONS).index(precision)
        loaded, config = load_checkpoint(path)
        assert config["precision"] == precision and loaded.dtype == net.dtype

    @pytest.mark.parametrize("precision", ["f16", "F64", 64, None])
    def test_unknown_precision_names_the_key(self, precision):
        config = dict(SpikingNetwork(tiny_spec("bl"), seed=14).config_dict(), precision=precision)
        with pytest.raises(ConfigError) as info:
            build_network(config)
        assert info.value.field == "precision"
        assert str(info.value) == f"precision: must be f32 or f64, got {precision!r}"

    def test_dtype_of_no_precision_raises(self):
        with pytest.raises(ParameterError, match="float16"):
            SpikingNetwork(tiny_spec("bl"), seed=14, dtype=np.float16)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_raises_checkpoint_error(self, tmp_path, value):
        net = SpikingNetwork(tiny_spec("sctfa"), seed=15)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net)
        rows = (tmp_path / "checkpoint.manifest.tsv").read_text().strip().splitlines()[1:]
        name, _, offset = rows[1].split("\t")
        raw = bytearray(path.read_bytes())
        at = int(offset) + 4  # the tensor's second f32 element
        raw[at : at + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: tensor {name} holds non-finite values"

    def test_truncated_file_raises_checkpoint_error(self, tmp_path):
        net = SpikingNetwork(tiny_spec("sctfa"), seed=15)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        blob_end = 8 + int.from_bytes(raw[4:8], "little")
        rows = (tmp_path / "checkpoint.manifest.tsv").read_text().strip().splitlines()[1:]
        offsets = [int(row.split("\t")[2]) for row in rows]
        first_rank = len(rows[0].split("\t")[1].split("x"))
        # (cut length, offset of the read that must fail)
        cuts = {
            "magic": (2, 0),
            "config length": (6, 4),
            "config blob": ((8 + blob_end) // 2, 8),
            "tensor count": (blob_end + 3, blob_end),
            "shape record": (offsets[0] - 2, offsets[0] - 4 * first_rank),
            "first tensor data": (offsets[1] - 7, offsets[0]),
            "last tensor data": (len(raw) - 7, offsets[-1]),
        }
        for where, (cut, offset) in cuts.items():
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(path)
            message = str(info.value)
            assert message.startswith(f"{path}: truncated at byte offset {offset}:"), (where, message)

    def test_corrupted_rank_or_shape_names_the_tensor_and_offset(self, tmp_path):
        net = SpikingNetwork(tiny_spec("sctfa"), seed=15)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        rows = (tmp_path / "checkpoint.manifest.tsv").read_text().strip().splitlines()[1:]
        name, shape, offset = rows[0].split("\t")
        rank = len(shape.split("x"))
        assert rank == 4
        rank_at, shape_at = int(offset) - 4 * rank - 1, int(offset) - 4 * rank
        # a rank numpy cannot reshape to
        path.write_bytes(raw[:rank_at] + bytes([104]) + raw[rank_at + 1 :])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: tensor {name} has rank 104 at byte offset {rank_at}, network expects 4"
        # a zero extent beside huge ones: no data to read, and no array to make
        huge = struct.pack("<4I", 0, 2**32 - 1, 2**32 - 1, 2**32 - 1)
        path.write_bytes(raw[:shape_at] + huge + raw[shape_at + 16 :])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        expected = tuple(int(n) for n in shape.split("x"))
        assert str(info.value) == (f"{path}: tensor {name} has shape (0, {2**32 - 1}, {2**32 - 1}, {2**32 - 1}) "
                                   f"at byte offset {shape_at}, network expects {expected}")

    def test_unreadable_path_names_it(self, tmp_path):
        for path in (tmp_path / "missing.bin", tmp_path):
            with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: cannot read"):
                load_checkpoint(path)

    def test_trailing_bytes_and_bad_precision_flag(self, tmp_path):
        net = SpikingNetwork(tiny_spec("bl"), seed=16)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\0")
        with pytest.raises(CheckpointError, match=f"byte offset {len(raw)}"):
            load_checkpoint(path)
        blob_len = int.from_bytes(raw[4:8], "little")
        flag = 8 + blob_len
        path.write_bytes(raw[:flag] + b"\x07" + raw[flag + 1 :])
        with pytest.raises(CheckpointError, match=f"precision flag 7 at byte offset {flag}"):
            load_checkpoint(path)

    def test_config_missing_key_or_wrong_type(self, tmp_path):
        net = SpikingNetwork(tiny_spec("bl"), seed=17)
        path = tmp_path / "checkpoint.bin"
        save_checkpoint(path, net)
        raw = path.read_bytes()
        blob_end = 8 + int.from_bytes(raw[4:8], "little")
        config = json.loads(raw[8:blob_end])

        def write_config(doc):
            blob = json.dumps(doc).encode("utf-8")
            path.write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + raw[blob_end:])

        write_config({"arch": config["arch"]})
        with pytest.raises(CheckpointError, match="config lacks key 'variant'"):
            load_checkpoint(path)
        for key in ("arch", "variant", "v_th", "kappa", "reduction", "timesteps",
                    "input_height", "input_width"):
            write_config({k: v for k, v in config.items() if k != key})
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(path)
            assert str(info.value) == f"{path}: config lacks key {key!r}"
        for key, bad in [("input_height", "6"), ("timesteps", 3.0), ("kappa", None),
                         ("reduction", True), ("arch", 7)]:
            write_config(dict(config, **{key: bad}))
            with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: config key {key!r} is "):
                load_checkpoint(path)
        write_config([config])
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)
        for key, bad in [("variant", "zz"), ("arch", "Input-8Q"), ("kappa", 3.0), ("reduction", 0),
                         ("timesteps", -1), ("input_height", 0)]:
            write_config(dict(config, **{key: bad}))
            with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: config does not describe a network"):
                load_checkpoint(path)
        for arch in ("Input-4C3-AP0-VotingC2P2-AP", "Input-4C3-0FC-VotingC2P2-AP"):
            write_config(dict(config, arch=arch))
            with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: config does not describe a network"):
                load_checkpoint(path)
        write_config(dict(config, v_th=1))  # an integral float is stored as a JSON int
        loaded, _ = load_checkpoint(path)
        assert loaded.spec.lif.v_th == 1.0
