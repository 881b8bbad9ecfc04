"""Stream sessions persist as a snapshot plus a journal of pushes.

- Restoring after any number of pushes, in a fresh process's view of the
  cache directory, continues byte-for-byte like the uninterrupted
  session: the same segments, forecasts and counters.
- A torn final record (a crash mid-append) is dropped and cut from the
  file; the ticks it carried were never acknowledged.
- Records the snapshot already holds (a crash between a snapshot write
  and the journal's deletion) are skipped.
- A record head or a complete record with a bad checksum, or a gap in
  start ticks, is corruption: restore raises :class:`CorruptJournal`
  and the daemon answers the session as gone, never resuming it with
  ticks missing.
- The journal never grows past the last snapshot's size.
"""

import os
import shutil

import numpy as np
import pytest

from repro.api import StreamOpenRequest
from repro.api.errors import ApiError
from repro.compression.streaming import segments_payload
from repro.core.cache import JOURNAL_FRAME, CorruptJournal, DiskCache
from repro.server.sessions import SessionManager, StreamSession

PUSHES = 12
TICKS = 40


def _chunks(seed: int = 0):
    rng = np.random.default_rng(seed)
    values = 20 + rng.normal(0, 1, PUSHES * TICKS).cumsum() * 0.1
    return [values[i:i + TICKS].tolist()
            for i in range(0, len(values), TICKS)]


def _open(manager, method):
    return manager.open(StreamOpenRequest(
        method=method, error_bound=0.05, forecaster="Drift", horizon=4,
        forecast_every=2)).session_id


def _key(session_id):
    return f"stream-session/{session_id}"


def _journal_path(cache, session_id):
    return cache._path(_key(session_id), ".journal")


def _outputs(responses):
    """What a client saw: segment bytes, forecasts and counters."""
    segments = [s.to_segment() for r in responses for s in r.segments]
    return (segments_payload(segments),
            [(r.ticks, r.segments_total, r.forecast, r.forecast_at)
             for r in responses])


def _finish(manager, session_id, chunks):
    responses = [manager.push(session_id, chunk) for chunk in chunks]
    responses.append(manager.close(session_id))
    return responses


@pytest.mark.parametrize("method", ["PMC", "SWING", "LFZIP"])
def test_restore_after_every_push_count_matches_the_uninterrupted_session(
        tmp_path, method):
    chunks = _chunks()
    live = SessionManager(cache=DiskCache(str(tmp_path / "live")))
    session_id = _open(live, method)
    seen = []
    for count, chunk in enumerate(chunks, start=1):
        seen.append(live.push(session_id, chunk))
        # a fresh daemon over a copy of the directory as it stands now
        copy = str(tmp_path / f"after-{count}")
        shutil.copytree(str(tmp_path / "live"), copy)
        restored = SessionManager(cache=DiskCache(copy))
        resumed = seen + _finish(restored, session_id, chunks[count:])
        uninterrupted = SessionManager(cache=DiskCache(None))
        reference = _finish(uninterrupted, _open(uninterrupted, method),
                            chunks)
        assert _outputs(resumed) == _outputs(reference), count


def test_a_torn_final_record_is_dropped_and_cut(tmp_path):
    chunks = _chunks(1)
    cache = DiskCache(str(tmp_path))
    manager = SessionManager(cache=cache)
    session_id = _open(manager, "PMC")
    seen = [manager.push(session_id, chunks[0]),
            manager.push(session_id, chunks[1])]
    path = _journal_path(cache, session_id)
    records, whole = cache.journal(_key(session_id))
    assert records and whole == os.path.getsize(path)
    frame = JOURNAL_FRAME.size + len(records[-1])
    record = open(path, "rb").read()[-frame:]
    for torn in (3, JOURNAL_FRAME.size + 5, frame - 1):
        with open(path, "ab") as handle:
            handle.write(record[:torn])  # a crash mid-append
        restored = SessionManager(cache=DiskCache(str(tmp_path)))
        assert restored.status(session_id).ticks == 2 * TICKS
        assert os.path.getsize(path) == whole
    restored = SessionManager(cache=DiskCache(str(tmp_path)))
    resumed = seen + _finish(restored, session_id, chunks[2:])
    reference = SessionManager(cache=DiskCache(None))
    expected = _finish(reference, _open(reference, "PMC"), chunks)
    assert _outputs(resumed) == _outputs(expected)


def test_records_the_snapshot_holds_are_skipped(tmp_path):
    chunks = _chunks(2)
    cache = DiskCache(str(tmp_path))
    manager = SessionManager(cache=cache)
    session_id = _open(manager, "SWING")
    seen = [manager.push(session_id, chunks[0]),
            manager.push(session_id, chunks[1])]
    path = _journal_path(cache, session_id)
    stale = open(path, "rb").read()
    # the next push compacts: a snapshot holding all three pushes, and
    # the journal deleted
    seen.append(manager.push(session_id, chunks[2]))
    assert not os.path.exists(path)
    # ... unless the daemon died between the two
    with open(path, "wb") as handle:
        handle.write(stale)
    restored = SessionManager(cache=DiskCache(str(tmp_path)))
    resumed = seen + _finish(restored, session_id, chunks[3:])
    reference = SessionManager(cache=DiskCache(None))
    expected = _finish(reference, _open(reference, "SWING"), chunks)
    assert _outputs(resumed) == _outputs(expected)


def _journaled_session(tmp_path, pushes):
    """A session whose journal holds ``pushes`` records past its snapshot
    (a larger open window keeps the snapshot above the journal)."""
    cache = DiskCache(str(tmp_path))
    manager = SessionManager(cache=cache)
    session_id = manager.open(StreamOpenRequest(
        method="LFZIP", error_bound=0.05, forecast_every=0)).session_id
    # a push larger than the snapshot compacts, leaving a long open window
    manager.push(session_id, [20.0] * 200)
    for tick in range(pushes):
        manager.push(session_id, [20.0 + tick])
    records, _ = cache.journal(_key(session_id))
    assert len(records) == pushes
    return cache, session_id, records


def test_a_bad_checksum_mid_journal_is_corruption(tmp_path):
    cache, session_id, records = _journaled_session(tmp_path, 3)
    path = _journal_path(cache, session_id)
    data = bytearray(open(path, "rb").read())
    # flip one tick byte of the middle record
    middle = JOURNAL_FRAME.size + len(records[0]) + JOURNAL_FRAME.size + 20
    data[middle] ^= 0x40
    open(path, "wb").write(bytes(data))
    with pytest.raises(CorruptJournal):
        DiskCache(str(tmp_path)).journal(_key(session_id))
    restored = SessionManager(cache=DiskCache(str(tmp_path)))
    with pytest.raises(ApiError) as excinfo:
        restored.push(session_id, [1.0])
    assert excinfo.value.status == 404
    assert "lost" in excinfo.value.envelope.message
    # the session is gone for good, snapshot and journal alike
    assert not os.path.exists(path)
    assert not os.path.exists(cache._path(_key(session_id)))
    assert restored.live() == 0


@pytest.mark.parametrize("mask", [0x80, 0x04, 0x01])
def test_a_flipped_length_mid_journal_is_corruption_not_a_torn_tail(
        tmp_path, mask):
    """Record 2 of 5 gets a length pointing past the end of the file.

    Without a check on the frame head this read as a torn tail: the
    reader cut the file there and dropped records 2 to 5 in silence.
    """
    cache, session_id, records = _journaled_session(tmp_path, 5)
    path = _journal_path(cache, session_id)
    data = bytearray(open(path, "rb").read())
    second = JOURNAL_FRAME.size + len(records[0])
    data[second + 3] ^= mask  # a bit of the length's high byte
    open(path, "wb").write(bytes(data))
    with pytest.raises(CorruptJournal, match="head"):
        DiskCache(str(tmp_path)).journal(_key(session_id))
    assert open(path, "rb").read() == bytes(data)  # nothing was cut


def test_a_journal_with_the_old_eight_byte_frame_is_refused(tmp_path):
    import struct
    import zlib

    cache = DiskCache(str(tmp_path))
    path = cache._path("key", ".journal")
    with open(path, "wb") as handle:
        for payload in (b"first record", b"second record"):
            handle.write(struct.pack("<II", len(payload),
                                     zlib.crc32(payload)) + payload)
    with pytest.raises(CorruptJournal):
        cache.journal("key")


def test_a_tick_gap_is_corruption(tmp_path):
    cache, session_id, records = _journaled_session(tmp_path, 3)
    snapshot = DiskCache(str(tmp_path)).get(_key(session_id))
    assert StreamSession.restore(snapshot, records).ticks == 203
    with pytest.raises(CorruptJournal, match="expected"):
        StreamSession.restore(snapshot, [records[0], records[2]])
    # the daemon sees the same through a journal missing its middle
    path = _journal_path(cache, session_id)
    os.remove(path)
    for record in (records[0], records[2]):
        cache.append(_key(session_id), record)
    restored = SessionManager(cache=DiskCache(str(tmp_path)))
    with pytest.raises(ApiError) as excinfo:
        restored.status(session_id)
    assert excinfo.value.status == 404
    assert not os.path.exists(path)


def test_the_journal_never_passes_the_snapshot(tmp_path):
    cache = DiskCache(str(tmp_path))
    manager = SessionManager(cache=cache)
    session_id = _open(manager, "PMC")
    path = _journal_path(cache, session_id)
    snapshots = 0
    for chunk in _chunks(3):
        before = os.stat(cache._path(_key(session_id))).st_mtime_ns
        manager.push(session_id, chunk)
        snapshot = os.path.getsize(cache._path(_key(session_id)))
        journal = os.path.getsize(path) if os.path.exists(path) else 0
        assert journal <= snapshot
        snapshots += os.stat(cache._path(_key(session_id))).st_mtime_ns \
            != before
    # some pushes only appended, some wrote a snapshot
    assert 0 < snapshots < PUSHES


def test_remove_drops_the_entry_and_its_journal(tmp_path):
    cache = DiskCache(str(tmp_path))
    cache.put("key", {"a": 1})
    cache.append("key", b"record")
    assert cache.journal("key") == ([b"record"], JOURNAL_FRAME.size + 6)
    cache.remove("key")
    assert os.listdir(tmp_path) == []


def test_a_memory_only_cache_keeps_whole_snapshots():
    cache = DiskCache(None)
    manager = SessionManager(cache=cache, max_resident=1)
    first = _open(manager, "PMC")
    second = _open(manager, "PMC")  # evicts the first
    chunks = _chunks(4)
    seen = [manager.push(first, chunk) for chunk in chunks[:3]]
    manager.push(second, chunks[0])  # evicts it again
    resumed = seen + _finish(manager, first, chunks[3:])
    reference = SessionManager(cache=DiskCache(None))
    expected = _finish(reference, _open(reference, "PMC"), chunks)
    assert _outputs(resumed) == _outputs(expected)
    assert cache.journal(_key(first)) == ([], 0)
