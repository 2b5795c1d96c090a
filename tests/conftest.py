"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import spikefuse.tensor as tensor_module


@pytest.fixture
def conv_workers(monkeypatch):
    """``set(n)`` runs conv2d on n threads, with a new pool of n - 1, and
    splits every call that has at least one block per thread. The fixture
    shuts down every pool it made."""
    made = []

    def set_workers(n):
        made.append(ThreadPoolExecutor(max(1, n - 1)))
        monkeypatch.setattr(tensor_module, "CONV_WORKERS", n)
        monkeypatch.setattr(tensor_module, "_CONV_BLOCKS_PER_WORKER", 1)
        monkeypatch.setattr(tensor_module, "_conv_pool", made[-1])

    yield set_workers
    for pool in made:
        pool.shutdown()
