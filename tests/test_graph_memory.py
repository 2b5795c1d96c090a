"""What the autodiff graph keeps alive: nodes hold no values, each backward
rule saves only the arrays it reads, and Heaviside spikes are saved as bits."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from spikefuse import training
from spikefuse.attention import AttentionVariant, init_attention_params
from spikefuse.network import SpikingNetwork, parse_architecture
from spikefuse.neuron import BatchNorm, LifConfig, lif_sequence
from spikefuse.rng import Rng
from spikefuse.tensor import BatchNormState, Tensor, avgpool2d, batchnorm, conv2d, tsum

CFG = LifConfig(v_th=1.0, kappa=0.7)
T, B, C, HW = 3, 2, 4, 6


def conv_stage_leaves():
    """Frames and the parameters of a conv -> BN -> gated LIF -> pool stage."""
    rng = Rng(17)
    frames = rng.poisson(0.8, size=(T * B, 2, HW, HW)).astype(np.float64)
    weight = Tensor(rng.normal(0, 0.5, size=(C, 2, 3, 3)), requires_grad=True)
    bias = Tensor(np.zeros(C), requires_grad=True)
    gamma = Tensor(np.ones(C), requires_grad=True)
    beta = Tensor(np.full(C, 0.3), requires_grad=True)
    att = init_attention_params(C, 2, AttentionVariant.SCTFA, rng.split("att"), np.float64)
    weighting = rng.normal(0, 1, size=(T * B, C, HW // 2, HW // 2))
    return frames, (weight, bias, gamma, beta), att, weighting


def leaves_of(params, att):
    return list(params) + [p for p in (att.spatial_weight, att.spatial_bias,
                                       att.reduce_weight, att.expand_weight)]


class TestReleasedValues:
    def run_stage(self, keep):
        frames, params, att, weighting = conv_stage_leaves()
        weight, bias, gamma, beta = params
        conv = conv2d(Tensor(frames), weight, bias, 1, 1)
        bn = batchnorm(conv, gamma, beta, BatchNormState(C, np.float64), True)
        spikes, _ = lif_sequence(bn, CFG, att, timesteps=T)
        pooled = avgpool2d(spikes, 2)
        loss = tsum(pooled * Tensor(weighting))
        intermediates = [conv.data, bn.data, spikes.data]
        assert spikes.data.dtype == np.float64 and set(np.unique(spikes.data)) == {0.0, 1.0}
        kept = intermediates if keep else [weakref.ref(a) for a in intermediates]
        return loss, kept, leaves_of(params, att)

    def test_intermediates_die_while_the_loss_lives(self):
        loss, refs, leaves = self.run_stage(keep=False)
        assert [r() is None for r in refs] == [True, True, True]
        loss.backward()
        grads = [p.grad for p in leaves]

        loss_kept, kept, leaves_kept = self.run_stage(keep=True)
        loss_kept.backward()
        assert all(isinstance(a, np.ndarray) for a in kept)
        assert loss.data.tobytes() == loss_kept.data.tobytes()
        for mine, theirs in zip(grads, (p.grad for p in leaves_kept)):
            assert mine.tobytes() == theirs.tobytes()

    def test_a_leaf_node_points_back_to_its_tensor(self):
        x = Tensor(np.ones(3), requires_grad=True)
        assert x._node.tensor is x and x._parents == () and x._backward_fn is None
        # constants share one untracked node
        a, b = Tensor(np.ones(3)), Tensor(np.zeros(2))
        assert a._node is b._node and not a.requires_grad
        assert (a * x)._parents == (a._node, x._node)


def _contents(cell):
    try:
        return cell.cell_contents
    except ValueError:  # the cell of a branch the call did not take is empty
        return None


class TestSavedSpikes:
    @staticmethod
    def saved_arrays(out):
        """The arrays the node's backward closure keeps, by variable name."""
        fn = out._backward_fn
        cells = {name: _contents(cell) for name, cell in zip(fn.__code__.co_freevars, fn.__closure__)}
        return {name: value for name, value in cells.items() if isinstance(value, np.ndarray)}

    @pytest.mark.parametrize("smooth", [False, True])
    def test_heaviside_spikes_saved_as_bits(self, smooth):
        rng = Rng(5)
        currents = Tensor(rng.normal(0.6, 0.8, size=(T * B, C, HW, HW)), requires_grad=True)
        att = init_attention_params(C, 2, AttentionVariant.SCTFA, rng.split("att"), np.float64)
        spikes, v = lif_sequence(currents, CFG, att, smooth=smooth, timesteps=T)
        saved = self.saved_arrays(spikes)
        assert saved["v"] is v
        assert saved["s_saved"].dtype == (np.float64 if smooth else np.bool_)
        # smooth spikes are saved as the output itself, in its [T, B, ...] form
        assert np.shares_memory(saved["s_saved"], spikes.data) == smooth
        assert np.array_equal(saved["s_saved"], spikes.data.reshape(T, B, C, HW, HW))
        # the currents are read only for their shape and dtype
        assert not any(a is currents.data for a in saved.values())

    def test_layer_node_saves_no_normalized_or_float_spike_map(self):
        rng = Rng(6)
        currents = Tensor(rng.normal(0.3, 1.0, size=(T * B, C, HW, HW)), requires_grad=True)
        att = init_attention_params(C, 2, AttentionVariant.SCTFA, rng.split("att"), np.float64)
        norm = BatchNorm(Tensor(np.ones(C), requires_grad=True), Tensor(np.zeros(C), requires_grad=True),
                         BatchNormState(C, np.float64), True)
        pooled, v = lif_sequence(currents, CFG, att, timesteps=T, norm=norm, pool=2)
        saved = self.saved_arrays(pooled)
        # of all-step maps only the membrane, the spike bits and batch
        # norm's xhat; the normalized currents, float spikes and pooled
        # output are not kept
        maps = sorted(name for name, a in saved.items() if a.size == currents.size)
        assert maps == ["s_saved", "v", "xhat"]
        assert saved["v"] is v and saved["s_saved"].dtype == np.bool_
        assert not any(a is pooled.data or a is currents.data for a in saved.values())
        assert not any(np.shares_memory(a, currents.data) for a in saved.values())


class TestTrainForwardMemory:
    def test_live_bytes_stay_under_what_backward_reads(self):
        hw, t_steps, batch, ch = 16, 4, 2, 8
        spec = parse_architecture("Input-8C3-BN-AP2-8C3-BN-AP2-VotingC2P2-AP",
                                  input_shape=(2, hw, hw), variant="sctfa", lif=CFG,
                                  reduction=4, timesteps=t_steps)
        net = SpikingNetwork(spec, seed=3)
        frames = Rng(4).poisson(0.5, size=(batch, t_steps, 2, hw, hw)).astype(np.float32)
        targets = training.one_hot([0, 1], 2)
        net.forward(frames, training=True)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vote = net.forward(frames, training=True)
            loss = training.mse_vote_loss(vote.o, targets)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n, f32 = t_steps * batch, 4

        def conv_layer(in_ch, side):
            """Its input (read for the weight gradient), BN xhat, membrane v
            and spike bits."""
            return n * in_ch * side * side * f32 + n * ch * side * side * (2 * f32 + 1)

        reads = conv_layer(2, hw) + conv_layer(ch, hw // 2) + n * ch * (hw // 4) ** 2 * f32
        # the nodes and closures, the gate's per-step values and the vote layer
        slack = 96 * 1024
        assert live < reads + slack, (live, reads)
        loss.backward()
        assert all(p.grad is not None for p in net.parameters())
