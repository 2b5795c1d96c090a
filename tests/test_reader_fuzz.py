"""The file readers fail closed: a valid EVS1, CSV or SNN1 file, or a
corpus manifest, with bytes flipped and its tail cut either parses or raises
a ``SpikefuseError`` subclass, never a raw ``ValueError``, ``struct.error``
or ``UnicodeDecodeError``. The example budgets are fixed and derandomized, so
every run feeds the same inputs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spikefuse.errors import SpikefuseError
from spikefuse.events import EventStream, read_events, write_events
from spikefuse.harness import load_corpus
from spikefuse.network import SpikingNetwork, load_checkpoint, parse_architecture, save_checkpoint
from spikefuse.neuron import LifConfig
from spikefuse.rng import Rng

FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def damage(draw, raw: bytes) -> bytes:
    """``raw`` with up to four bytes xor-ed and, half the time, its tail cut."""
    data = bytearray(raw)
    for _ in range(draw(st.integers(0, 4))):
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


def parses_or_fails_closed(read, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        read(path)
    except SpikefuseError:
        pass


def valid_stream():
    rng = Rng(8)
    n = 12
    return EventStream(
        width=8, height=6, t=np.sort(rng.integers(0, 10_000, size=n)).astype(np.uint64),
        x=rng.integers(0, 8, size=n).astype(np.uint16), y=rng.integers(0, 6, size=n).astype(np.uint16),
        polarity=rng.integers(0, 2, size=n).astype(np.uint8), label=2,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid EVS1, CSV and SNN1 file's bytes, a two-stream corpus's
    manifest bytes, and paths to write inputs and manifests to."""
    root = tmp_path_factory.mktemp("fuzz")
    stream = valid_stream()
    write_events(root / "valid.evs", stream)
    rows = "".join(f"{e.t},{e.x},{e.y},{e.polarity}\n" for e in map(stream.__getitem__, range(len(stream))))
    spec = parse_architecture("Input-4C3-BN-AP2-VotingC2P2-AP", input_shape=(2, 4, 4), variant="sctfa",
                              lif=LifConfig(v_th=1.0, kappa=0.7), reduction=2, timesteps=2)
    save_checkpoint(root / "valid.snn", SpikingNetwork(spec, seed=1))
    corpus = root / "corpus"
    corpus.mkdir()
    write_events(corpus / "a.evs", stream)
    (corpus / "b.csv").write_bytes(("t_us,x,y,polarity\n" + rows).encode("ascii"))
    return {
        "evs": (root / "valid.evs").read_bytes(),
        "csv": ("t_us,x,y,polarity\n" + rows).encode("ascii"),
        "snn": (root / "valid.snn").read_bytes(),
        "input": root / "input",
        "manifest": b"filename\tlabel\na.evs\t2\nb.csv\t1\n",
        "corpus_manifest": corpus / "manifest.tsv",
    }


def test_valid_files_parse(files):
    for kind, read in (("evs", read_events), ("csv", read_events), ("snn", load_checkpoint)):
        files["input"].write_bytes(files[kind])
        read(files["input"])
    files["corpus_manifest"].write_bytes(files["manifest"])
    assert [s.label for s in load_corpus(files["corpus_manifest"].parent)] == [2, 1]


@FUZZ
@given(data=st.data())
def test_evs1_fails_closed(files, data):
    parses_or_fails_closed(read_events, files["input"], data.draw(damage(files["evs"])))


@FUZZ
@given(data=st.data())
def test_csv_fails_closed(files, data):
    parses_or_fails_closed(read_events, files["input"], data.draw(damage(files["csv"])))


@FUZZ
@given(data=st.data())
def test_snn1_fails_closed(files, data):
    parses_or_fails_closed(load_checkpoint, files["input"], data.draw(damage(files["snn"])))


@FUZZ
@given(data=st.data())
def test_manifest_fails_closed(files, data):
    parses_or_fails_closed(lambda path: load_corpus(path.parent), files["corpus_manifest"],
                           data.draw(damage(files["manifest"])))
