"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import spikefuse.neuron as neuron_module
import spikefuse.tensor as tensor_module


@pytest.fixture
def conv_workers(monkeypatch):
    """``set(n)`` runs conv2d and the layer node on n threads, with a new
    pool of n - 1: conv2d splits every call that has at least one block per
    thread, and the layer node every call over min(n, B) sample ranges. The
    fixture shuts down every pool it made."""
    made = []

    def set_workers(n):
        made.append(ThreadPoolExecutor(max(1, n - 1)))
        monkeypatch.setattr(tensor_module, "CONV_WORKERS", n)
        monkeypatch.setattr(tensor_module, "_CONV_BLOCKS_PER_WORKER", 1)
        monkeypatch.setattr(tensor_module, "_conv_pool", made[-1])
        monkeypatch.setattr(neuron_module, "_SPLIT_STEP_BYTES", 1)

    yield set_workers
    for pool in made:
        pool.shutdown()
