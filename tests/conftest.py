"""Fixtures shared by the test modules."""

import contextlib

import pytest

from seams import on_threads


@pytest.fixture
def conv_workers():
    """``set(n)`` runs conv2d and the layer node on n threads for the rest
    of the test (``seams.on_threads``) and returns its new, empty table of
    pools; the fixture shuts down every pool made under it."""
    with contextlib.ExitStack() as stack:
        yield lambda n: stack.enter_context(on_threads(n))
