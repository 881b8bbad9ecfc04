"""Self-time arithmetic of the layer table, nested and across threads."""

from __future__ import annotations

import threading
import time

import pytest

import layers
from tracing import Recorder


def span(name, parent, start, end, tag=None):
    return [name, parent, start, end, tag]


def test_nested_self_time_subtracts_children():
    spans = [span("rep", -1, 0.0, 10.0),
             span("runtime.run", 0, 1.0, 9.0),
             span("compression.compress", 1, 2.0, 4.0),
             span("forecasting.fit", 1, 5.0, 8.0),
             span("compression.gzip", 2, 3.0, 3.5)]
    assert layers.self_times(spans) == pytest.approx([2.0, 3.0, 1.5, 3.0,
                                                      0.5])


def test_overlapping_children_are_covered_once():
    # the union of the children's intervals is subtracted, not the sum
    assert layers.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0),
                                      (8.0, 12.0)]) == pytest.approx(7.0)
    assert layers.covered(5.0, 6.0, [(0.0, 10.0)]) == pytest.approx(1.0)
    assert layers.covered(0.0, 1.0, []) == 0.0


def test_batch_on_another_thread_covers_each_submit_it_served():
    spans = [span("connection", -1, 0.0, 10.0),
             span("server.http", 0, 0.5, 9.5),
             span("server.queue", 1, 1.0, 8.0),
             span("connection", -1, 2.0, 9.0),
             span("server.http", 3, 2.1, 8.9),
             span("server.queue", 4, 2.5, 8.0),
             # the batch ran on the batcher thread and served both
             span("api.batch", -1, 4.0, 7.5, [2, 5]),
             span("compression.compress", 6, 5.0, 7.0)]
    selfs = layers.self_times(spans)
    assert selfs[2] == pytest.approx(7.0 - 3.5)  # waited, then the batch
    assert selfs[5] == pytest.approx(5.5 - 3.5)
    assert selfs[6] == pytest.approx(1.5)
    summary = layers.table(spans)
    assert summary["queue_wait_p50_ms"] == pytest.approx(1e3 * 2.25)
    shares = sum(row["share_pct"] for row in summary["rows"].values())
    assert shares == pytest.approx(100.0)
    metrics = layers.per_layer_metrics(summary, operations=2)
    assert metrics["server.batch.occupancy"] == 2.0
    root_share = sum(summary["rows"][name]["share_pct"]
                     for name in ("connection",))
    assert metrics["unattributed_pct"] == pytest.approx(root_share)


def test_window_keeps_whole_trees_of_the_measured_phase():
    spans = [span("connection", -1, 0.0, 1.0),        # set-up traffic
             span("server.http", 0, 0.1, 0.9),
             span("connection", -1, 5.0, 6.0),
             span("server.queue", 2, 5.1, 5.9),
             span("api.batch", -1, 5.2, 5.8, [1, 3])]
    kept = layers.window(spans, 4.0, 10.0)
    assert [s[0] for s in kept] == ["connection", "server.queue",
                                    "api.batch"]
    assert kept[1][1] == 0 and kept[2][4] == [1]


def test_unique_ratio_counts_distinct_inputs_per_root():
    spans = [span("rep", -1, 0.0, 1.0),
             span("features.compute", 0, 0.1, 0.2, "a"),
             span("features.compute", 0, 0.3, 0.4, "a"),
             span("rep", -1, 2.0, 3.0),
             span("features.compute", 3, 2.1, 2.2, "a"),
             span("features.compute", 3, 2.3, 2.4, "b")]
    metrics = layers.per_layer_metrics(layers.table(spans), operations=2)
    assert metrics["features.compute.unique_ratio"] == 0.75
    assert metrics["features.compute.calls_per_op"] == 2.0


def test_recorder_links_a_batch_to_the_blocked_submits():
    recorder = Recorder()

    class Batcher:
        def submit(self, request):
            done.wait(5.0)
            return request

    class Service:
        def compress_batch(self, requests):
            return list(requests)

    done = threading.Event()
    submit = recorder.span("server.queue", Batcher.submit,
                           before=recorder.open_submit,
                           after=recorder.close_submit)
    batch = recorder.span("api.batch", Service.compress_batch,
                          before=recorder.link_batch)
    outer = recorder.span("server.http", lambda request: submit(
        Batcher(), request))
    request = object()
    waiter = threading.Thread(target=outer, args=(request,))
    waiter.start()
    while len(recorder.spans) < 2:
        time.sleep(0.001)
    batch(Service(), [request])
    done.set()
    waiter.join(5.0)
    assert not waiter.is_alive()
    http, queue, served = recorder.spans
    assert queue[1] is http and http[1] is None and served[1] is None
    assert served[4] == [queue]
