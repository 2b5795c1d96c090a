"""Gating block: branch math, fusion, variant structure, gradients."""

import numpy as np
import pytest

from spikefuse.attention import (
    AttentionVariant,
    channel_excitation,
    channel_squeeze,
    compute_attention,
    fuse,
    init_attention_params,
    spatial_excitation,
)
from spikefuse.errors import ParameterError
from spikefuse.rng import Rng
from spikefuse.tensor import Tensor, tsum

from oracles import channel_mean_loops, fd_gradient, linear_loops, rel_err
from seams import pin_spatial


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def spikes(seed, shape=(2, 4, 4, 4), dtype=np.float64):
    return Tensor((Rng(seed).random(shape) < 0.4).astype(dtype))


def params_for(channels=4, r=4, variant=AttentionVariant.SCTFA, seed=0, dtype=np.float64):
    return init_attention_params(channels, r, variant, Rng(seed).split("att"), dtype)


class TestSpatialExcitation:
    def test_zero_weights_give_half(self):
        s = spikes(1)
        out = spatial_excitation(s, Tensor(np.zeros((1, 4, 1, 1))), Tensor(np.zeros(1)))
        assert np.allclose(out.data, 0.5)

    def test_bias_only(self):
        s = Tensor(np.zeros((1, 4, 3, 3)))
        out = spatial_excitation(s, Tensor(np.zeros((1, 4, 1, 1))), Tensor(np.array([3.0])))
        assert np.allclose(out.data, sigmoid(3.0))
        assert out.data[0, 0, 0, 0] == pytest.approx(0.95257, abs=1e-5)

    def test_output_shape_collapses_channels(self):
        s = Tensor(np.zeros((2, 128, 32, 32), dtype=np.float32))
        p = params_for(channels=128, dtype=np.float32)
        out = spatial_excitation(s, p.spatial_weight, p.spatial_bias)
        assert out.shape == (2, 1, 32, 32)


class TestChannelSqueeze:
    def test_all_ones_channel(self):
        s = Tensor(np.ones((1, 3, 4, 4)))
        assert np.allclose(channel_squeeze(s).data, 1.0)

    def test_half_ones(self):
        arr = np.zeros((1, 1, 4, 4))
        arr[0, 0, :2, :] = 1.0
        assert channel_squeeze(Tensor(arr)).data[0, 0] == pytest.approx(0.5)

    def test_matches_loop_oracle(self):
        arr = (Rng(3).random((1, 3, 4, 4)) < 0.5).astype(np.float64)
        out = channel_squeeze(Tensor(arr))
        assert np.max(np.abs(out.data - channel_mean_loops(arr))) < 1e-15


class TestChannelExcitation:
    def test_zero_weights_give_half(self):
        out = channel_excitation(
            Tensor(np.ones((2, 4))), Tensor(np.zeros((1, 4))), Tensor(np.zeros((4, 1)))
        )
        assert np.allclose(out.data, 0.5)

    def test_bottleneck_width_from_reduction(self):
        p = params_for(channels=4, r=4)
        assert p.reduce_weight.shape == (1, 4)
        assert p.expand_weight.shape == (4, 1)

    def test_matches_two_matmul_oracle(self):
        rng = Rng(4)
        e = rng.random((3, 8))
        w1 = rng.normal(size=(2, 8))
        w2 = rng.normal(size=(8, 2))
        out = channel_excitation(Tensor(e), Tensor(w1), Tensor(w2))
        hidden = np.maximum(linear_loops(e, w1, None), 0.0)
        ref = sigmoid(linear_loops(hidden, w2, None))
        assert np.max(np.abs(out.data - ref)) < 1e-12

    def test_reduction_must_divide(self):
        with pytest.raises(ParameterError):
            init_attention_params(6, 4, AttentionVariant.SCTFA, Rng(0), np.float64)


class TestFuse:
    def test_unit_branches_give_ones(self):
        out = fuse(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 3))))
        assert out.shape == (1, 3, 2, 2)
        assert np.all(out.data == 1.0)

    def test_half_times_half(self):
        out = fuse(Tensor(np.full((1, 1, 2, 2), 0.5)), Tensor(np.full((1, 3), 0.5)))
        assert np.all(out.data == 0.25)

    def test_matches_loop_product(self):
        rng = Rng(5)
        us = rng.random((2, 1, 3, 3))
        uc = rng.random((2, 4))
        out = fuse(Tensor(us), Tensor(uc)).data
        for b in range(2):
            for c in range(4):
                for i in range(3):
                    for j in range(3):
                        assert out[b, c, i, j] == us[b, 0, i, j] * uc[b, c]


class TestComputeAttention:
    def test_baseline_has_no_tensor(self):
        assert compute_attention(spikes(6), None, AttentionVariant.BL) is None

    def test_values_strictly_inside_unit_interval(self):
        for variant in (AttentionVariant.STFA, AttentionVariant.CTFA, AttentionVariant.SCTFA):
            p = params_for(variant=variant, seed=8)
            u = compute_attention(spikes(7), p, variant)
            assert np.all(u.data > 0.0) and np.all(u.data < 1.0)

    def test_sctfa_shape_preserving(self):
        s = spikes(9)
        u = compute_attention(s, params_for(seed=9), AttentionVariant.SCTFA)
        assert u.shape == s.shape

    def test_ctfa_constant_over_space(self):
        p = params_for(variant=AttentionVariant.CTFA, seed=10)
        u = compute_attention(spikes(10), p, AttentionVariant.CTFA)
        expanded = np.broadcast_to(u.data, (2, 4, 4, 4))
        assert np.all(expanded == expanded[:, :, :1, :1])

    def test_unit_channel_matches_stfa_bitwise(self):
        # a channel branch of exact ones fuses to the spatial-only gate
        s = spikes(11)
        p = params_for(seed=11)
        fused = fuse(spatial_excitation(s, p.spatial_weight, p.spatial_bias), Tensor(np.ones((2, 4))))
        p_stfa = params_for(variant=AttentionVariant.STFA, seed=11)
        spatial_only = compute_attention(s, p_stfa, AttentionVariant.STFA)
        assert np.array_equal(fused.data, np.broadcast_to(spatial_only.data, fused.shape))

    def test_unit_spatial_matches_ctfa_bitwise(self):
        s = spikes(12)
        fused = compute_attention(s, pin_spatial(params_for(seed=12)), AttentionVariant.SCTFA)
        p_ctfa = params_for(variant=AttentionVariant.CTFA, seed=12)
        channel_only = compute_attention(s, p_ctfa, AttentionVariant.CTFA)
        assert np.array_equal(fused.data, np.broadcast_to(channel_only.data, fused.shape))

    def test_both_unit_branches_give_exact_ones(self):
        for dtype in (np.float32, np.float64):
            s = spikes(13, dtype=dtype)
            p = pin_spatial(params_for(seed=13, dtype=dtype))
            ones = Tensor(np.ones((2, 4), dtype=dtype))
            u = fuse(spatial_excitation(s, p.spatial_weight, p.spatial_bias), ones)
            assert u.dtype == dtype and np.all(u.data == 1.0)

    def test_missing_params_rejected(self):
        with pytest.raises(ParameterError):
            compute_attention(spikes(14), None, AttentionVariant.SCTFA)

    def test_param_identity_across_shared_streams(self):
        # same per-layer stream -> spatial branch identical across variants
        a = params_for(variant=AttentionVariant.SCTFA, seed=15)
        b = params_for(variant=AttentionVariant.STFA, seed=15)
        assert np.array_equal(a.spatial_weight.data, b.spatial_weight.data)
        c = params_for(variant=AttentionVariant.CTFA, seed=15)
        assert np.array_equal(a.reduce_weight.data, c.reduce_weight.data)


class TestGradients:
    def test_gradients_flow_into_all_branch_params(self):
        s = spikes(16)
        p = params_for(seed=16)
        u = compute_attention(s, p, AttentionVariant.SCTFA)
        tsum(u * u).backward()
        tensors = {
            "spatial_weight": p.spatial_weight,
            "spatial_bias": p.spatial_bias,
            "reduce_weight": p.reduce_weight,
            "expand_weight": p.expand_weight,
        }

        for name, t in tensors.items():
            assert t.grad is not None, name

            def loss_fn():
                u2 = compute_attention(s, p, AttentionVariant.SCTFA)
                return float((u2.data**2).sum())

            assert rel_err(t.grad, fd_gradient(loss_fn, t.data)).max() < 1e-5, name

    def test_gradient_flows_into_spike_map(self):
        s = Tensor(Rng(17).random((1, 4, 3, 3)), requires_grad=True)
        p = params_for(seed=17)
        u = compute_attention(s, p, AttentionVariant.SCTFA)
        tsum(u).backward()
        assert s.grad is not None

        def loss_fn():
            return float(compute_attention(s, p, AttentionVariant.SCTFA).data.sum())

        assert rel_err(s.grad, fd_gradient(loss_fn, s.data)).max() < 1e-5
