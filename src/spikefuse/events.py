"""Event-stream data model and pipeline.

Streams hold timestamped polarity events (column-store numpy arrays for
speed, ``Event`` tuples at the item level). The pipeline covers slicing a
stream into fixed-length count frames with zero padding at the tail,
synthesizing labeled moving-bar streams, the three corruption operators
used by the robustness harness, and a small binary file format.

EVS1 binary layout (little-endian), 24-byte header:

    magic "EVS1" (4 bytes), width u16, height u16, label i32 (-1 means
    unlabeled), event count u64, reserved u32

then one 14-byte record per event: t u64 (microseconds), x u16, y u16,
polarity u8, pad u8. A CSV alternative with header ``t_us,x,y,polarity``
is accepted by the reader.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .errors import EventFormatError, ParameterError
from .rng import Rng

_HEADER = struct.Struct("<4sHHiQI")
# one EVS1 event record
_RECORD = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("pad", "u1")])
_MAGIC = b"EVS1"
# the largest timestamp and coordinate an EventStream stores (uint64, uint16)
_T_MAX = int(np.iinfo(np.uint64).max)
_XY_MAX = int(np.iinfo(np.uint16).max)


class Event(NamedTuple):
    t: int
    x: int
    y: int
    polarity: int


@dataclass
class EventStream:
    """Ordered events from one recording (or synthesis).

    ``t``, ``x``, ``y``, ``polarity`` are parallel arrays sorted
    non-decreasing by ``t``; coordinates must respect width/height.
    """

    width: int
    height: int
    t: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint64))
    x: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint16))
    y: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint16))
    polarity: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint8))
    label: Optional[int] = None

    def __post_init__(self):
        n = len(self.t)
        if not (len(self.x) == len(self.y) == len(self.polarity) == n):
            raise ParameterError("event arrays must have equal length")
        if n:
            if np.any(self.t[1:] < self.t[:-1]):
                raise ParameterError("events must be sorted non-decreasing by t")
            if int(self.x.max()) >= self.width or int(self.y.max()) >= self.height:
                raise ParameterError("event coordinates exceed stream bounds")
            if int(self.polarity.max()) > 1:
                raise ParameterError("polarity must be 0 or 1")

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.t[i]), int(self.x[i]), int(self.y[i]), int(self.polarity[i]))

    @classmethod
    def from_events(cls, width, height, events, label=None) -> "EventStream":
        events = list(events)
        return cls(
            width=width,
            height=height,
            t=np.array([e[0] for e in events], dtype=np.uint64),
            x=np.array([e[1] for e in events], dtype=np.uint16),
            y=np.array([e[2] for e in events], dtype=np.uint16),
            polarity=np.array([e[3] for e in events], dtype=np.uint8),
            label=label,
        )


@dataclass
class FrameSequence:
    """T count frames of shape [2, H, W] sliced from one stream."""

    frames: np.ndarray  # [T, 2, H, W], int64 counts
    label: Optional[int]
    delta_t_ms: float
    timesteps: int


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption operator to apply to test data.

    ``kind`` is one of poisson_noise (parameter = rate lambda per cell per
    slice), event_loss or frame_loss (parameter = loss rate in [0, 1]).
    """

    kind: str
    parameter: float
    seed: int

    def __post_init__(self):
        if self.kind not in ("poisson_noise", "event_loss", "frame_loss"):
            raise ParameterError(f"unknown corruption kind {self.kind!r}")
        if not math.isfinite(self.parameter):
            raise ParameterError(f"corruption parameter must be finite, got {self.parameter}")
        if self.kind == "poisson_noise":
            _check_poisson_rate(self.parameter)
        elif not 0.0 <= self.parameter <= 1.0:
            raise ParameterError("loss rate must be in [0, 1]")


def slice_to_frames(stream: EventStream, delta_t_ms: float, timesteps: int) -> FrameSequence:
    """Accumulate per-cell event counts into T slices of length delta_t.

    Frame i holds the events with t in [i*delta_t, (i+1)*delta_t); events at
    or beyond delta_t * T are discarded; slices past the stream's actual
    duration stay zero. An empty stream yields all-zero frames.
    """
    _, cells = _frame_cells(stream, delta_t_ms, timesteps)
    frames = _frame_counts(cells, _frame_shape(stream, timesteps))
    return FrameSequence(frames, stream.label, delta_t_ms, timesteps)


def _frame_shape(stream: EventStream, timesteps: int) -> tuple:
    return (timesteps, 2, stream.height, stream.width)


def _frame_cells(stream: EventStream, delta_t_ms: float, timesteps: int):
    """``(in_range, cells)``: the mask of the events of ``stream`` that fall
    in the T slices of ``slice_to_frames``, and the flat index into its
    [T, 2, H, W] frames of each event the mask keeps, in stream order."""
    if not 0.0 < delta_t_ms < math.inf or timesteps <= 0:
        raise ParameterError(f"delta_t must be positive and finite and timesteps positive, "
                             f"got {delta_t_ms} and {timesteps}")
    idx = np.floor(stream.t.astype(np.float64) / (delta_t_ms * 1000.0)).astype(np.int64)
    in_range = idx < timesteps
    cells = np.ravel_multi_index(
        (idx[in_range], stream.polarity[in_range], stream.y[in_range], stream.x[in_range]),
        _frame_shape(stream, timesteps),
    )
    return in_range, cells


def _frame_counts(cells: np.ndarray, shape: tuple) -> np.ndarray:
    """int64 counts of the flat frame-cell indices ``cells``, shaped ``shape``."""
    return np.bincount(cells, minlength=math.prod(shape)).astype(np.int64, copy=False).reshape(shape)


BAR_DIRECTIONS = ("left_right", "right_left", "top_bottom", "bottom_top")
BAR_WIDTH = 2  # pixels
BAR_JITTER_MS = 8.0


def _is_index(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_bar(height: int, width: int, duration_ms: float, rate: float) -> None:
    """Raise ParameterError unless ``synth_moving_bar`` can draw this bar."""
    if not (_is_index(height) and _is_index(width)):
        raise ParameterError(f"height and width must be integers, got {height!r} and {width!r}")
    if height < 8 or width < 8:
        raise ParameterError("field must be at least 8x8")
    if not 0.0 <= rate < math.inf:
        raise ParameterError(f"rate must be finite and >= 0, got {rate}")
    # an event falls at most one microsecond before the stream's end
    if not 0.001 <= duration_ms < math.inf:
        raise ParameterError(f"duration_ms must be finite and at least 0.001 (one microsecond), got {duration_ms}")


def synth_moving_bar(
    direction: int,
    height: int,
    width: int,
    duration_ms: float,
    rate: float,
    rng: Rng,
) -> EventStream:
    """Synthesize a bar ``BAR_WIDTH`` pixels wide sweeping across the field
    in one of 4 directions.

    The leading edge emits polarity-1 events, the trailing edge polarity-0;
    each pixel crossing draws Poisson(rate) events jittered uniformly within
    ``BAR_JITTER_MS``. Label = direction index. ``rate`` 0 gives a valid
    empty stream. The draw order keeps a seed's stream bitwise stable: per
    bar position, the leading then the trailing edge draws Poisson counts
    for every pixel across the field, then a jitter per event if it has
    any. Events that share a timestamp keep that order.
    """
    if not (_is_index(direction) and 0 <= direction < 4):
        raise ParameterError(f"direction must be an integer in [0, 4), got {direction!r}")
    _check_bar(height, width, duration_ms, rate)

    along = width if direction < 2 else height
    across = height if direction < 2 else width
    gen = rng.generator
    counts = np.empty((2 * along, across), dtype=np.int64)  # one row per crossing, in draw order
    jitter = []
    for crossing in counts:
        crossing[:] = gen.poisson(rate, size=across)
        if total := int(crossing.sum()):
            jitter.append(gen.uniform(0.0, BAR_JITTER_MS, size=total))
    if not jitter:
        return EventStream(width=width, height=height, label=direction)

    # each crossing's edge time (in step_ms's precision, as (pos + 1) * step_ms
    # would be), line (mirrored for 1 and 3) and polarity, once per event
    pos = np.arange(along)
    per_crossing = counts.sum(axis=1)
    step_ms = duration_ms / (along + BAR_WIDTH)  # bar fully exits the field
    edge_ms = np.stack([pos + 1, pos + 1 + BAR_WIDTH], axis=1).ravel().astype(type(step_ms)) * step_ms
    t_ms = np.repeat(edge_ms, per_crossing) + np.concatenate(jitter)
    t = np.minimum(t_ms * 1000.0, duration_ms * 1000.0 - 1.0).astype(np.uint64)
    line = np.repeat(pos if direction % 2 == 0 else along - 1 - pos, counts.reshape(along, -1).sum(axis=1))
    polarity = np.repeat(np.tile(np.array([1, 0], dtype=np.uint8), along), per_crossing)
    perp = np.repeat(np.tile(np.arange(across), 2 * along), counts.ravel())
    x, y = (line, perp) if direction < 2 else (perp, line)
    n = len(t)
    if (int(t.max()) + 1) * n <= 2**63:  # the distinct keys t * n + i sort as a stable argsort of t
        order = np.sort(t.view(np.int64) * n + np.arange(n)) % n
    else:
        order = np.argsort(t, kind="stable")
    return EventStream(width=width, height=height, t=t[order], x=x[order].astype(np.uint16),
                       y=y[order].astype(np.uint16), polarity=polarity[order], label=direction)


# numpy's Generator.poisson refuses a larger rate
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


def _check_poisson_rate(lam: float) -> None:
    if not 0.0 <= lam <= _POISSON_LAM_MAX:
        raise ParameterError(f"poisson rate must be in [0, {_POISSON_LAM_MAX:.6g}], got {lam}")


def _kept(n: int, p: float, rng: Rng) -> np.ndarray:
    """The mask of the n items that survive independent loss at rate p."""
    return rng.random(n) >= p


def add_poisson_noise(frames: FrameSequence, lam: float, rng: Rng) -> FrameSequence:
    """Add independent Poisson(lam) counts to every (t, polarity, y, x) cell."""
    _check_poisson_rate(lam)
    return replace(frames, frames=frames.frames + rng.poisson(lam, size=frames.frames.shape))


def drop_events(stream: EventStream, p: float, rng: Rng) -> EventStream:
    """Independently retain each event with probability 1-p, order preserved."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"loss rate must be in [0, 1], got {p}")
    keep = _kept(len(stream), p, rng)
    return replace(stream, t=stream.t[keep], x=stream.x[keep], y=stream.y[keep],
                   polarity=stream.polarity[keep])


def drop_frames(frames: FrameSequence, p: float, rng: Rng) -> FrameSequence:
    """Independently zero each of the T frames with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"loss rate must be in [0, 1], got {p}")
    out = frames.frames.copy()
    out[~_kept(frames.timesteps, p, rng)] = 0
    return replace(frames, frames=out)


def write_events(path, stream: EventStream) -> None:
    label = -1 if stream.label is None else int(stream.label)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, stream.width, stream.height, label, len(stream), 0))
        if len(stream):
            records = np.zeros(len(stream), dtype=_RECORD)
            records["t"] = stream.t
            records["x"] = stream.x
            records["y"] = stream.y
            records["p"] = stream.polarity
            fh.write(records.tobytes())


def read_events(path, width: Optional[int] = None, height: Optional[int] = None) -> EventStream:
    """Read an EVS1 binary file, or a CSV file with header t_us,x,y,polarity.

    CSV carries no geometry, so width/height are taken from the arguments or
    inferred as max coordinate + 1. Malformed input raises EventFormatError
    locating the problem.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == _MAGIC:
        return _read_evs1(path)
    return _read_csv(path, width, height)


def _read_evs1(path: Path) -> EventStream:
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise EventFormatError("truncated header", offset=len(raw))
    magic, width, height, label, count, _reserved = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise EventFormatError("bad magic", offset=0)
    body = raw[_HEADER.size:]
    expected = count * _RECORD.itemsize
    if len(body) != expected:
        raise EventFormatError(
            f"expected {count} records ({expected} bytes), found {len(body)} bytes",
            offset=_HEADER.size + min(len(body), expected),
        )
    records = np.frombuffer(body, dtype=_RECORD)
    t = records["t"].astype(np.uint64)
    x = records["x"].astype(np.uint16)
    y = records["y"].astype(np.uint16)
    p = records["p"].astype(np.uint8)
    bad = (x >= width) | (y >= height) | (p > 1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EventFormatError(
            f"record {i} out of bounds (x={x[i]}, y={y[i]}, polarity={p[i]})",
            offset=_HEADER.size + i * _RECORD.itemsize,
        )
    # compared as uint64: a timestamp of 2**63 or more must not wrap negative
    unsorted = t[1:] < t[:-1]
    if np.any(unsorted):
        i = int(np.argmax(unsorted)) + 1
        raise EventFormatError("timestamps not sorted", offset=_HEADER.size + i * _RECORD.itemsize)
    return EventStream(
        width=width, height=height, t=t, x=x, y=y, polarity=p,
        label=None if label < 0 else label,
    )


# a line ends at LF, CR LF or CR, as the CSV reader splits them
_LINE_END = re.compile(rb"\r\n?|\n")


def _line_start(raw: bytes, lineno: int) -> int:
    """The byte offset where line ``lineno`` (from 1) of ``raw`` starts."""
    ends = [m.end() for m in itertools.islice(_LINE_END.finditer(raw), lineno - 1)]
    return ends[-1] if ends else 0


def _read_csv(path: Path, width: Optional[int], height: Optional[int]) -> EventStream:
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(_LINE_END.findall(raw, 0, exc.start)) + 1
        raise EventFormatError(f"byte that is not UTF-8 on line {lineno}", offset=exc.start)
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EventFormatError("empty file", offset=0)
        if [h.strip() for h in header] != ["t_us", "x", "y", "polarity"]:
            raise EventFormatError(f"unexpected CSV header {header!r}", offset=0)
        rows, linenos = [], []
        for row in reader:
            lineno = reader.line_num  # a quoted field may span lines
            if not row:
                continue
            try:
                record = (int(row[0]), int(row[1]), int(row[2]), int(row[3]))
            except (ValueError, IndexError):
                raise EventFormatError(f"bad CSV record on line {lineno}", offset=_line_start(raw, lineno))
            # t is stored as uint64, x and y as uint16
            if min(record) < 0 or record[0] > _T_MAX or max(record[1:3]) > _XY_MAX:
                raise EventFormatError(
                    f"CSV record out of range on line {lineno}: t must be in [0, {_T_MAX}], "
                    f"x and y in [0, {_XY_MAX}], polarity 0 or 1",
                    offset=_line_start(raw, lineno),
                )
            rows.append(record)
            linenos.append(lineno)
    xs = [r[1] for r in rows]
    ys = [r[2] for r in rows]
    width = width if width is not None else (max(xs) + 1 if rows else 1)
    height = height if height is not None else (max(ys) + 1 if rows else 1)
    for lineno, (t, x, y, p) in zip(linenos, rows):
        if x >= width or y >= height or p not in (0, 1):
            raise EventFormatError(f"record out of bounds on line {lineno}", offset=_line_start(raw, lineno))
    return EventStream.from_events(width, height, rows)
