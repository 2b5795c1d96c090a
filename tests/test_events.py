"""Event pipeline: slicing, synthesis, corruption, file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikefuse.errors import EventFormatError, ParameterError
from spikefuse.events import (
    CorruptionSpec,
    EventStream,
    add_poisson_noise,
    drop_events,
    drop_frames,
    read_events,
    slice_to_frames,
    synth_moving_bar,
    write_events,
)
from spikefuse.rng import Rng

from oracles import slice_counts_add_at


def make_stream(seed=1, n=500, width=16, height=16, duration_us=1_000_000, label=3):
    rng = Rng(seed)
    t = np.sort(rng.integers(0, duration_us, size=n).astype(np.uint64))
    return EventStream(
        width=width,
        height=height,
        t=t,
        x=rng.integers(0, width, size=n).astype(np.uint16),
        y=rng.integers(0, height, size=n).astype(np.uint16),
        polarity=rng.integers(0, 2, size=n).astype(np.uint8),
        label=label,
    )


class TestSliceToFrames:
    def test_single_event_lands_in_first_slice(self):
        stream = EventStream.from_events(8, 8, [(0, 3, 5, 1)], label=0)
        seq = slice_to_frames(stream, delta_t_ms=50, timesteps=4)
        assert seq.frames[0, 1, 5, 3] == 1
        assert seq.frames.sum() == 1

    def test_tail_slices_zero_padded(self):
        # 400 ms of events, 30 slices of 50 ms -> slices 8..29 all zero
        rng = Rng(5)
        n = 200
        t = np.sort(rng.integers(0, 400_000, size=n).astype(np.uint64))
        stream = EventStream(
            width=8, height=8, t=t,
            x=rng.integers(0, 8, size=n).astype(np.uint16),
            y=rng.integers(0, 8, size=n).astype(np.uint16),
            polarity=rng.integers(0, 2, size=n).astype(np.uint8),
        )
        seq = slice_to_frames(stream, delta_t_ms=50, timesteps=30)
        assert seq.frames[8:].sum() == 0
        assert seq.frames.sum() == n

    def test_events_beyond_window_discarded(self):
        stream = EventStream.from_events(8, 8, [(0, 0, 0, 1), (999_999, 7, 7, 0)])
        seq = slice_to_frames(stream, delta_t_ms=100, timesteps=5)  # keeps t < 500 ms
        assert seq.frames.sum() == 1

    @pytest.mark.parametrize("delta_t", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_slice_length_rejected(self, delta_t):
        with pytest.raises(ParameterError, match="delta_t"):
            slice_to_frames(make_stream(2), delta_t, 4)

    def test_empty_stream_is_valid(self):
        seq = slice_to_frames(EventStream(width=8, height=8), 125, 10)
        assert seq.frames.shape == (10, 2, 8, 8)
        assert seq.frames.sum() == 0

    def test_gesture_default_window(self):
        # delta_t 125 ms, T=10 covers exactly 1250 ms
        stream = EventStream.from_events(8, 8, [(1_249_999, 0, 0, 1), (1_250_000, 0, 0, 1)])
        seq = slice_to_frames(stream, delta_t_ms=125, timesteps=10)
        assert seq.frames.sum() == 1
        assert seq.frames[9, 1, 0, 0] == 1

    @pytest.mark.parametrize("events,width,height,delta_t,timesteps", [
        ([], 8, 8, 100, 5),  # empty stream
        ([(0, 0, 0, 1), (99_999, 1, 0, 1), (100_000, 1, 0, 1), (200_000, 7, 7, 0),
          (499_999, 3, 2, 0), (500_000, 3, 2, 0)], 8, 8, 100, 5),  # window edges, past T*dt
        ([(10, 2, 3, 1)] * 4 + [(20, 2, 3, 0)] * 3 + [(150_000, 2, 3, 1)] * 2,
         4, 5, 100, 3),  # repeated cells, non-square field
        ([(124_999, 0, 0, 0), (125_000, 0, 0, 0), (1_249_999, 5, 1, 1), (1_250_000, 5, 1, 1),
          (9_000_000, 2, 2, 1)], 6, 3, 125, 10),  # 125 ms windows
    ])
    def test_matches_add_at_oracle(self, events, width, height, delta_t, timesteps):
        stream = EventStream.from_events(width, height, events)
        seq = slice_to_frames(stream, delta_t, timesteps)
        expect = slice_counts_add_at(stream.t, stream.x, stream.y, stream.polarity,
                                     width, height, delta_t, timesteps)
        assert seq.frames.dtype == np.int64
        assert np.array_equal(seq.frames, expect)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.floats(10, 200))
    @settings(max_examples=30, deadline=None)
    def test_random_streams_match_add_at_oracle(self, seed, timesteps, delta_t):
        stream = make_stream(seed=seed, n=300, width=7, height=5)
        seq = slice_to_frames(stream, delta_t, timesteps)
        expect = slice_counts_add_at(stream.t, stream.x, stream.y, stream.polarity,
                                     7, 5, delta_t, timesteps)
        assert np.array_equal(seq.frames, expect)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.floats(10, 200))
    @settings(max_examples=30, deadline=None)
    def test_count_conservation(self, seed, timesteps, delta_t):
        stream = make_stream(seed=seed, n=300)
        seq = slice_to_frames(stream, delta_t, timesteps)
        cutoff = delta_t * 1000.0 * timesteps
        retained = int(np.count_nonzero(stream.t.astype(np.float64) < cutoff))
        # events exactly on a slice boundary belong to the next slice
        boundary = np.floor(stream.t.astype(np.float64) / (delta_t * 1000.0)) < timesteps
        assert seq.frames.sum() == int(np.count_nonzero(boundary))
        assert seq.frames.sum() <= retained + 1


class TestSynthMovingBar:
    def test_rate_zero_gives_empty_stream(self):
        stream = synth_moving_bar(0, 16, 16, 1000, 0.0, Rng(1))
        assert len(stream) == 0
        assert stream.label == 0

    def test_left_right_sweep_mean_x_increases(self):
        stream = synth_moving_bar(0, 16, 16, 1000, 3.0, Rng(2))
        on = stream.polarity == 1
        t = stream.t[on].astype(np.float64)
        x = stream.x[on].astype(np.float64)
        thirds = np.quantile(t, [1 / 3, 2 / 3])
        means = [
            x[t <= thirds[0]].mean(),
            x[(t > thirds[0]) & (t <= thirds[1])].mean(),
            x[t > thirds[1]].mean(),
        ]
        assert means[0] < means[1] < means[2]

    def test_same_seed_identical(self):
        a = synth_moving_bar(2, 16, 16, 800, 2.0, Rng(7).split("s"))
        b = synth_moving_bar(2, 16, 16, 800, 2.0, Rng(7).split("s"))
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.polarity, b.polarity)

    @pytest.mark.parametrize("direction", range(4))
    def test_all_directions_valid_and_labeled(self, direction):
        stream = synth_moving_bar(direction, 12, 20, 500, 1.0, Rng(3 + direction))
        assert stream.label == direction
        assert len(stream) > 0
        assert stream.t.max() < 500_000

    def test_too_small_field_rejected(self):
        with pytest.raises(ParameterError):
            synth_moving_bar(0, 4, 16, 500, 1.0, Rng(1))

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ParameterError, match="rate"):
            synth_moving_bar(0, 16, 16, 500, rate, Rng(1))

    @pytest.mark.parametrize("duration", [0.0, 0.0009, -5.0, float("nan"), float("inf")])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ParameterError, match="duration_ms"):
            synth_moving_bar(0, 16, 16, duration, 2.0, Rng(1))

    def test_one_microsecond_stream_stays_in_range(self):
        # every event is clamped to t = 0, the stream's last microsecond
        stream = synth_moving_bar(1, 16, 16, 0.001, 2.0, Rng(4))
        assert len(stream) > 0 and not stream.t.any()


class TestPoissonNoise:
    def test_zero_rate_identity_bitwise(self):
        seq = slice_to_frames(make_stream(11), 100, 10)
        out = add_poisson_noise(seq, 0.0, Rng(1))
        assert np.array_equal(out.frames, seq.frames)

    def test_counts_preserved_underneath(self):
        seq = slice_to_frames(make_stream(12), 100, 10)
        out = add_poisson_noise(seq, 2.0, Rng(2))
        assert np.all(out.frames >= seq.frames)

    def test_empirical_mean(self):
        seq = slice_to_frames(EventStream(width=16, height=16), 100, 20)
        out = add_poisson_noise(seq, 2.0, Rng(3))
        added = out.frames - seq.frames
        assert added.size >= 10_000
        assert 1.9 <= added.mean() <= 2.1

    def test_larger_rate_adds_more(self):
        seq = slice_to_frames(EventStream(width=16, height=16), 100, 10)
        low = add_poisson_noise(seq, 1.0, Rng(4)).frames.sum()
        high = add_poisson_noise(seq, 4.0, Rng(5)).frames.sum()
        assert high > low

    def test_negative_rate_rejected(self):
        seq = slice_to_frames(make_stream(13), 100, 10)
        with pytest.raises(ParameterError):
            add_poisson_noise(seq, -0.1, Rng(1))

    @pytest.mark.parametrize("lam", [1e20, 1e300, float("nan")])
    def test_rate_numpy_cannot_draw_rejected(self, lam):
        seq = slice_to_frames(make_stream(13), 100, 10)
        with pytest.raises(ParameterError, match="poisson rate must be in"):
            add_poisson_noise(seq, lam, Rng(1))

    def test_largest_rate_numpy_draws_accepted(self):
        lam = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
        CorruptionSpec("poisson_noise", lam, 1)
        with pytest.raises(ParameterError):
            CorruptionSpec("poisson_noise", np.nextafter(lam, np.inf), 1)
        out = add_poisson_noise(slice_to_frames(EventStream(width=8, height=8), 100, 1), lam, Rng(1))
        assert out.frames.min() > 0


class TestDropEvents:
    def test_p_zero_identity(self):
        stream = make_stream(21)
        out = drop_events(stream, 0.0, Rng(1))
        assert np.array_equal(out.t, stream.t)
        assert np.array_equal(out.x, stream.x)

    def test_p_one_empties(self):
        out = drop_events(make_stream(22), 1.0, Rng(2))
        assert len(out) == 0
        assert out.width == 16

    def test_binomial_statistics(self):
        stream = make_stream(23, n=100_000, duration_us=10_000_000)
        out = drop_events(stream, 0.5, Rng(3))
        n, p = 100_000, 0.5
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(len(out) - n * p) < 3 * sigma

    def test_order_preserved(self):
        stream = make_stream(24)
        out = drop_events(stream, 0.3, Rng(4))
        assert np.all(np.diff(out.t.astype(np.int64)) >= 0)

    def test_deterministic_under_seed(self):
        stream = make_stream(25)
        a = drop_events(stream, 0.4, Rng(9).split("x"))
        b = drop_events(stream, 0.4, Rng(9).split("x"))
        assert np.array_equal(a.t, b.t)

    def test_commutes_with_relabeling(self):
        stream = make_stream(26)
        dropped = drop_events(stream, 0.4, Rng(10))
        assert dropped.label == stream.label
        stream.label = 7
        relabeled_then_dropped = drop_events(stream, 0.4, Rng(10))
        assert relabeled_then_dropped.label == 7
        assert np.array_equal(relabeled_then_dropped.t, dropped.t)


class TestDropFrames:
    def test_p_zero_identity(self):
        seq = slice_to_frames(make_stream(31), 100, 10)
        out = drop_frames(seq, 0.0, Rng(1))
        assert np.array_equal(out.frames, seq.frames)

    def test_p_one_all_zero_shape_kept(self):
        seq = slice_to_frames(make_stream(32), 100, 10)
        out = drop_frames(seq, 1.0, Rng(2))
        assert out.frames.shape == seq.frames.shape
        assert out.frames.sum() == 0

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_sweep_grid_preserves_shape(self, p):
        seq = slice_to_frames(make_stream(33), 100, 10)
        out = drop_frames(seq, p, Rng(3))
        assert out.frames.shape == seq.frames.shape


class TestCorruptionSpec:
    def test_valid_kinds(self):
        CorruptionSpec("poisson_noise", 2.0, 1)
        CorruptionSpec("event_loss", 0.5, 1)
        CorruptionSpec("frame_loss", 0.0, 1)

    def test_bad_kind(self):
        with pytest.raises(ParameterError):
            CorruptionSpec("gaussian", 1.0, 1)

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            CorruptionSpec("event_loss", 1.5, 1)

    @pytest.mark.parametrize("lam", [1e19, 1e20, 1e300])
    def test_poisson_rate_past_numpys_limit(self, lam):
        with pytest.raises(ParameterError, match="poisson rate must be in"):
            CorruptionSpec("poisson_noise", lam, 1)

    @pytest.mark.parametrize("kind", ["poisson_noise", "event_loss", "frame_loss"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter(self, kind, value):
        with pytest.raises(ParameterError, match="must be finite"):
            CorruptionSpec(kind, value, 1)


class TestEventFiles:
    def test_round_trip(self, tmp_path):
        stream = make_stream(41)
        path = tmp_path / "s.evs"
        write_events(path, stream)
        back = read_events(path)
        assert back.width == stream.width and back.height == stream.height
        assert back.label == stream.label
        assert np.array_equal(back.t, stream.t)
        assert np.array_equal(back.x, stream.x)
        assert np.array_equal(back.y, stream.y)
        assert np.array_equal(back.polarity, stream.polarity)

    def test_empty_stream_is_header_only(self, tmp_path):
        path = tmp_path / "empty.evs"
        write_events(path, EventStream(width=8, height=8))
        assert path.stat().st_size == 24
        back = read_events(path)
        assert len(back) == 0

    def test_out_of_bounds_rejected_with_offset(self, tmp_path):
        stream = make_stream(42, n=3, width=16)
        path = tmp_path / "bad.evs"
        write_events(path, stream)
        raw = bytearray(path.read_bytes())
        # corrupt record 1's x to 999
        import struct

        struct.pack_into("<H", raw, 24 + 14 + 8, 999)
        path.write_bytes(bytes(raw))
        with pytest.raises(EventFormatError) as exc:
            read_events(path)
        assert exc.value.offset == 24 + 14

    def test_truncated_file_rejected(self, tmp_path):
        stream = make_stream(43, n=5)
        path = tmp_path / "trunc.evs"
        write_events(path, stream)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(EventFormatError):
            read_events(path)

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t_us,x,y,polarity\n10,1,2,1\n20,3,0,0\n")
        stream = read_events(path)
        assert len(stream) == 2
        assert stream[0] == (10, 1, 2, 1)
        assert stream.width == 4 and stream.height == 3  # inferred

    def test_csv_explicit_bounds_enforced(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("t_us,x,y,polarity\n10,9,0,1\n")
        with pytest.raises(EventFormatError):
            read_events(path, width=8, height=8)

    @pytest.mark.parametrize("record,width", [
        ("-1,0,0,1", None),
        ("1,-1,0,1", 8),
        ("1,0,-1,1", None),
        ("1,0,0,-1", None),
        ("1,70000,0,1", None),
        ("1,0,65536,1", None),
        (f"{2**64},0,0,1", None),
    ])
    def test_csv_field_outside_its_stored_type_rejected(self, tmp_path, record, width):
        path = tmp_path / "s.csv"
        path.write_text(f"t_us,x,y,polarity\n10,1,2,1\n{record}\n")
        with pytest.raises(EventFormatError) as exc:
            read_events(path, width=width, height=width)
        assert "line 3" in str(exc.value)
        assert exc.value.offset == 27  # where line 3 starts

    def test_csv_largest_stored_values_accepted(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(f"t_us,x,y,polarity\n{2**64 - 1},65535,65535,0\n")
        stream = read_events(path)
        assert stream[0] == (2**64 - 1, 65535, 65535, 0)
        assert stream.width == stream.height == 65536

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,col,row,sign\n")
        with pytest.raises(EventFormatError):
            read_events(path)

    def test_csv_byte_that_is_not_utf8_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"t_us,x,y,polarity\n10,1,2,1\n20,\xff,0,0\n")
        with pytest.raises(EventFormatError, match="not UTF-8 on line 3") as exc:
            read_events(path)
        assert exc.value.offset == 30  # the 0xff byte

    def test_csv_error_after_a_record_spanning_two_lines_names_its_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b't_us,x,y,polarity\n"5\n",1,1,1\nabc,1,1,1\n')
        with pytest.raises(EventFormatError, match="line 4") as exc:
            read_events(path)
        assert exc.value.offset == 29  # where line 4 starts

    @pytest.mark.parametrize("bad,offset", [(b"abc,1,1,1", 27), (b"20,\xff,0,0", 30)])
    def test_csv_errors_count_cr_line_ends(self, tmp_path, bad, offset):
        path = tmp_path / "s.csv"
        path.write_bytes(b"t_us,x,y,polarity\r10,1,2,1\r" + bad + b"\r")
        with pytest.raises(EventFormatError, match="line 3") as exc:
            read_events(path)
        assert exc.value.offset == offset

    def test_evs1_with_corrupted_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.evs"
        write_events(path, make_stream(44, n=3))
        raw = bytearray(path.read_bytes())
        raw[0] = 0xFF  # no longer EVS1, so read as CSV, whose first byte is not UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(EventFormatError, match="not UTF-8 on line 1"):
            read_events(path)

    def test_timestamp_past_int64_compared_unsigned(self, tmp_path):
        # 2**63 + 5 wraps negative as int64, which would read as sorted before 3
        path = tmp_path / "wrap.evs"
        write_events(path, EventStream.from_events(4, 4, [(2**63 + 5, 0, 0, 1), (2**63 + 6, 1, 1, 0)]))
        raw = bytearray(path.read_bytes())
        raw[24 + 14 : 24 + 22] = (3).to_bytes(8, "little")  # record 1's t
        path.write_bytes(bytes(raw))
        with pytest.raises(EventFormatError, match="timestamps not sorted") as exc:
            read_events(path)
        assert exc.value.offset == 24 + 14
        with pytest.raises(ParameterError, match="sorted"):
            EventStream.from_events(4, 4, [(2**63 + 5, 0, 0, 1), (3, 1, 1, 0)])
        # the same two stamps in order read back
        write_events(path, EventStream.from_events(4, 4, [(3, 0, 0, 1), (2**63 + 5, 1, 1, 0)]))
        assert read_events(path)[1] == (2**63 + 5, 1, 1, 0)
