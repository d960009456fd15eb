"""Differential tests of the round-trip matcher's paths.

``RoundTripPass.finalize`` drops the transfers whose hash occurs once (a
bucket prefilter), then matches each remaining hash along one of three
paths: lockstep rounds over many small hashes, the two-key path for a busy
``A <-> B`` hash, and the exact loop for everything else.  Every test
builds its legs with the ``legs`` factory, compares the streaming pass with
the object oracle :func:`find_round_trips`, and checks which paths ran
(``paths``).  Inputs are sized so the paths run by themselves: lockstep
needs ``_VECTOR_MIN`` hashes with candidates, the two-key path a hash with
``_VECTOR_MIN`` candidates.  Negative paths come first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.detectors import _streaming, roundtrips
from repro.core.detectors._streaming import run_streaming_pass
from repro.core.detectors.roundtrips import (
    _VECTOR_MIN,
    RoundTripPass,
    find_round_trips,
    find_round_trips_streaming,
)
from repro.events.columnar import ColumnarTrace
from repro.events.records import DataOpEvent, DataOpKind
from repro.events.trace import Trace

NUM_DEVICES = 2
HOST = NUM_DEVICES  # the host's device number
#: Clock step between leg starts: a power of two, so starts and ends are
#: exact and a return leg can start exactly when its outbound leg ends.
TICK = 2.0**-20
PATHS = ("_match_lockstep", "_match_pair", "_match_exact")


@pytest.fixture
def legs():
    """Factory: an object trace of transfers given as ``(hash, src, dst)``.

    Leg ``i`` starts at tick ``starts[i]`` (``i`` by default) and lasts
    ``durations[i]`` ticks (half a tick by default), so start and end
    times rise unless the arguments say otherwise.
    """

    def make(spec, durations=None, starts=None) -> Trace:
        trace = Trace(num_devices=NUM_DEVICES, program_name="matcher")
        for i, (content_hash, src, dst) in enumerate(spec):
            start = TICK * (i if starts is None else float(starts[i]))
            duration = TICK * (0.5 if durations is None else float(durations[i]))
            kind = DataOpKind.TRANSFER_FROM_DEVICE if dst == HOST else DataOpKind.TRANSFER_TO_DEVICE
            trace.append_data_op_event(
                DataOpEvent(
                    seq=i,
                    kind=kind,
                    src_device_num=src,
                    dest_device_num=dst,
                    src_addr=0x1000,
                    dest_addr=0x2000,
                    nbytes=64,
                    start_time=start,
                    end_time=start + duration,
                    content_hash=content_hash,
                )
            )
        trace.total_runtime = max(e.end_time for e in trace.data_op_events) + TICK
        return trace

    return make


@pytest.fixture
def paths(monkeypatch) -> set[str]:
    """The names of the matcher paths that ran during the test."""
    ran: set[str] = set()
    for name in PATHS:
        real = getattr(roundtrips, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            ran.add(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(roundtrips, name, spy)
    return ran


def _same_as_oracle(trace: Trace, *, chronological: bool = True) -> list:
    expected = find_round_trips(trace.data_op_events, require_chronological=chronological)
    got = find_round_trips_streaming(
        ColumnarTrace.from_trace(trace), require_chronological=chronological
    )
    assert got == expected
    return expected


def _small_trips(count: int, base: int = 1_000_000) -> list[tuple[int, int, int]]:
    """``count`` hashes that each go host -> device 0 -> host once."""
    spec = []
    for i in range(count):
        spec += [(base + i, HOST, 0), (base + i, 0, HOST)]
    return spec


def _busy_pair(content_hash, a, b, num_ab, num_ba, seed) -> list[tuple[int, int, int]]:
    """One hash's ``num_ab`` legs ``a -> b`` and ``num_ba`` legs ``b -> a``,
    shuffled together."""
    spec = [(content_hash, a, b)] * num_ab + [(content_hash, b, a)] * num_ba
    order = np.random.default_rng(seed).permutation(len(spec))
    return [spec[i] for i in order]


def _bursts(content_hash, a, b, num_bursts, seed) -> list[tuple[int, int, int]]:
    """One hash sent ``a -> b`` in bursts of 1 to 12 legs, each burst
    answered by one ``b -> a`` leg: the shape of a buffer mapped to a
    device many times and copied back now and then, in which most legs
    are in a trip."""
    rng = np.random.default_rng(seed)
    spec = []
    for size in rng.integers(1, 13, size=num_bursts).tolist():
        spec += [(content_hash, a, b)] * size + [(content_hash, b, a)]
    return spec


# --------------------------------------------------------------------- #
# Nothing to match
# --------------------------------------------------------------------- #
def test_no_repeated_hash_gives_the_empty_part(legs, paths):
    trace = legs([(h, HOST, 0) if h % 2 else (h, 0, HOST) for h in range(1, 301)])
    assert _same_as_oracle(trace) == []
    part = run_streaming_pass(RoundTripPass(), ColumnarTrace.from_trace(trace))
    assert part.num_findings == 0 and part.rows.shape == (0, 2)
    assert paths == set()


def test_hashes_sharing_a_bucket_make_no_trip(legs, paths):
    # The top bits of mix_keys are those of hash * golden ratio, and
    # h * golden and (h + golden^-1) * golden differ by one: the same
    # prefilter bucket, but a different payload, so never a round trip.
    inverse = pow(int(_streaming._MIX_MULTIPLIER), -1, 1 << 64)
    spec = []
    for i in range(2 * _VECTOR_MIN):
        h = 0x5EED_0000 + 0x1000 * i
        spec += [(h, HOST, 0), ((h + inverse) % (1 << 64), 0, HOST)]
    trace = legs(spec)
    columns = ColumnarTrace.from_trace(trace)
    kept = roundtrips._maybe_in_trips(
        columns.do_content_hash, columns.do_src_device_num, columns.do_dest_device_num
    )
    assert kept.size == len(spec)  # every row shares its bucket ...
    assert _same_as_oracle(trace) == []  # ... and none is a leg of a trip
    assert paths == set()


def test_one_transfer_is_no_trip(legs, paths):
    assert _same_as_oracle(legs([(7, HOST, 0)])) == []
    assert paths == set()


@pytest.mark.parametrize("chronological", [True, False])
def test_lone_self_leg_is_its_own_return_leg(legs, chronological):
    # src == dst: the leg is a receipt of the key it looks up.  With no
    # duration the chronology guard lets it match itself, so the
    # prefilter must keep it although its hash occurs once.
    trips = _same_as_oracle(legs([(7, 0, 0)], durations=[0.0]), chronological=chronological)
    assert [group.num_trips for group in trips] == [1]


def test_self_leg_with_duration_needs_the_guard_off(legs):
    trace = legs([(7, 0, 0)], durations=[1e-6])
    assert _same_as_oracle(trace) == []
    assert len(_same_as_oracle(trace, chronological=False)) == 1


# --------------------------------------------------------------------- #
# The exact loop
# --------------------------------------------------------------------- #
def test_three_key_and_self_leg_hashes_take_the_exact_loop(legs, paths):
    rng = np.random.default_rng(3)
    devices = [HOST, 0, 1]
    three_keys = [(0xA, int(rng.choice(devices)), int(rng.choice(devices))) for _ in range(300)]
    three_keys = [(h, s, d) for h, s, d in three_keys if s != d]
    with_self_leg = _busy_pair(0xB, HOST, 0, 200, 40, seed=4) + [(0xB, 0, 0)]
    spec = _small_trips(2 * _VECTOR_MIN) + three_keys + with_self_leg
    trips = _same_as_oracle(legs(spec))
    keys = {(g.content_hash, g.src_device_num, g.dest_device_num) for g in trips}
    assert keys >= {(0xA, HOST, 0), (0xA, 0, 1), (0xB, HOST, 0), (0xB, 0, HOST)}
    assert paths == {"_match_lockstep", "_match_exact"}


@pytest.mark.parametrize("layout", ["two keys", "three keys"])
def test_every_transfer_on_one_hash(legs, paths, layout):
    spec = _busy_pair(0xC, HOST, 0, 300, 60, seed=5)
    if layout == "three keys":
        spec += _busy_pair(0xC, 1, 0, 50, 50, seed=6)
    assert _same_as_oracle(legs(spec))
    assert paths == ({"_match_pair"} if layout == "two keys" else {"_match_exact"})


# --------------------------------------------------------------------- #
# The two-key path and lockstep rounds
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("minority", ["host to device", "device to host"])
def test_busy_two_key_hashes_with_either_direction_in_the_minority(legs, paths, minority):
    major = (0, HOST) if minority == "host to device" else (HOST, 0)
    spec = _small_trips(3 * _VECTOR_MIN)
    spec += _bursts(0xD, *major, num_bursts=60, seed=7)
    spec += _busy_pair(0xE, *major, 400, 30, seed=8)
    trips = _same_as_oracle(legs(spec))
    burst_trips = sum(g.num_trips for g in trips if g.content_hash == 0xD)
    assert burst_trips > 300  # nearly every leg of the bursts is in a trip
    assert {g.content_hash for g in trips} >= {0xD, 0xE}
    assert paths == {"_match_lockstep", "_match_pair"}


def test_hashes_with_several_candidates_in_lockstep(legs, paths):
    # Six legs per hash, out (o) and back (b) in one of three orders: six
    # lockstep rounds, in which earlier pops decide later queue heads.
    orders = ("oobobb", "obbo" + "ob", "ooobbb")
    spec = []
    for i in range(2 * _VECTOR_MIN):
        spec += [(i + 1, HOST, 0) if leg == "o" else (i + 1, 0, HOST) for leg in orders[i % 3]]
    trips = _same_as_oracle(legs(spec))
    assert {g.num_trips for g in trips} == {1, 2, 3}
    assert paths == {"_match_lockstep"}


@pytest.mark.parametrize("chronological", [True, False])
def test_non_monotone_end_times(legs, paths, chronological):
    spec = _small_trips(2 * _VECTOR_MIN)
    spec += _bursts(0xF, HOST, 0, num_bursts=60, seed=9)
    spec += _bursts(0x10, 1, HOST, num_bursts=60, seed=10)
    # Some legs end after the next leg starts, some exactly when it starts
    # (a return leg may start as its outbound leg ends): the two-key path
    # must judge every leg of a burst, not the burst as a whole.
    durations = np.random.default_rng(11).choice([0, 0.5, 1, 2, 3, 8], size=len(spec))
    trace = legs(spec, durations=durations)
    ends = np.array([e.end_time for e in trace.data_op_events])
    assert (np.diff(ends) < 0).any()
    assert _same_as_oracle(trace, chronological=chronological)
    busy_path = "_match_pair" if chronological else "_match_exact"
    assert paths == {"_match_lockstep", busy_path}


def test_start_times_out_of_trace_order(legs, paths):
    # The trace order, not the clock, is the queue order: legs whose
    # starts jump back and forth (ties included) make receipts that are
    # older in the queue but later in time.
    spec = _small_trips(2 * _VECTOR_MIN)
    spec += _bursts(0x11, HOST, 0, num_bursts=60, seed=12)
    spec += _bursts(0x12, 1, HOST, num_bursts=60, seed=13)
    rng = np.random.default_rng(14)
    starts = np.arange(len(spec)) + rng.choice([-4, -1, 0, 0, 0, 1, 4], size=len(spec))
    durations = rng.choice([0, 0.5, 1, 3], size=len(spec))
    assert _same_as_oracle(legs(spec, durations=durations, starts=starts))
    assert paths == {"_match_lockstep", "_match_pair"}


def test_prefilter_keeps_every_repeated_hash():
    rng = np.random.default_rng(12)
    for size in (1, 2, 3, 100, 5000):
        hashes = rng.integers(0, 2 * size, size=size, dtype=np.uint64)
        devices = rng.integers(0, 3, size=(2, size)).astype(np.int32)
        kept = roundtrips._maybe_in_trips(hashes, *devices)
        _, inverse, counts = np.unique(hashes, return_inverse=True, return_counts=True)
        must = np.flatnonzero((counts[inverse] > 1) | (devices[0] == devices[1]))
        assert np.isin(must, kept).all()
