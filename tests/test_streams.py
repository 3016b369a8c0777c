"""Tests for the stream substrate."""

import random

import numpy as np
import pytest

from repro.engine.live import UpdateJournal
from repro.errors import StreamError
from repro.graph import generators as gen
from repro.streams.datasets import BinaryUpdateWriter, DiskEdgeStream
from repro.streams.generators import (
    adversarial_order_stream,
    concatenate_streams,
    split_substreams,
    stream_from_graph,
    turnstile_churn_stream,
)
from repro.streams.space import SpaceMeter
from repro.streams.stream import (
    ColumnEdgeStream,
    EdgeStream,
    LiveEdges,
    Update,
    check_updates,
    insertion_stream,
    turnstile_stream,
)

from reference import reference_check_updates


class TestUpdate:
    def test_normalized_edge(self):
        assert Update(5, 2).edge == (2, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(StreamError):
            Update(1, 1)

    def test_bad_delta_rejected(self):
        with pytest.raises(StreamError):
            Update(0, 1, 2)

    def test_is_insertion(self):
        assert Update(0, 1, 1).is_insertion
        assert not Update(0, 1, -1).is_insertion


class TestEdgeStreamValidation:
    def test_deletion_in_insertion_only_rejected(self):
        with pytest.raises(StreamError):
            EdgeStream(3, [Update(0, 1, 1), Update(0, 1, -1)])

    def test_delete_absent_edge_rejected(self):
        with pytest.raises(StreamError):
            EdgeStream(3, [Update(0, 1, -1)], allow_deletions=True)

    def test_duplicate_insertion_rejected(self):
        with pytest.raises(StreamError):
            EdgeStream(3, [Update(0, 1), Update(1, 0)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(StreamError):
            EdgeStream(2, [Update(0, 5)])

    def test_insert_delete_insert_is_valid(self):
        stream = EdgeStream(
            3,
            [Update(0, 1, 1), Update(0, 1, -1), Update(0, 1, 1)],
            allow_deletions=True,
        )
        assert stream.net_edge_count == 1


class TestEdgeStreamBehavior:
    def test_pass_counting(self):
        stream = insertion_stream(gen.path_graph(5), rng=1)
        assert stream.passes_used == 0
        list(stream.updates())
        list(stream.updates())
        assert stream.passes_used == 2
        stream.reset_pass_count()
        assert stream.passes_used == 0

    def test_final_graph_roundtrip(self):
        graph = gen.gnp(20, 0.3, rng=7)
        stream = insertion_stream(graph, rng=9)
        assert stream.final_graph() == graph

    def test_turnstile_final_graph(self):
        stream = turnstile_stream(
            4, [(0, 1, 1), (1, 2, 1), (0, 1, -1), (2, 3, 1)]
        )
        final = stream.final_graph()
        assert final.m == 2
        assert final.has_edge(1, 2)
        assert final.has_edge(2, 3)
        assert not final.has_edge(0, 1)

    def test_length_counts_all_updates(self):
        stream = turnstile_stream(3, [(0, 1, 1), (0, 1, -1)])
        assert stream.length == 2
        assert stream.net_edge_count == 0


class TestStreamBuilders:
    def test_shuffle_is_permutation(self):
        graph = gen.gnp(15, 0.4, rng=3)
        stream = stream_from_graph(graph, rng=5, order="shuffled")
        assert stream.final_graph() == graph
        assert stream.length == graph.m

    def test_sorted_order(self):
        graph = gen.gnp(10, 0.5, rng=3)
        stream = stream_from_graph(graph, order="sorted")
        edges = [u.edge for u in stream.updates()]
        assert edges == sorted(edges)

    def test_unknown_order_rejected(self):
        with pytest.raises(StreamError):
            stream_from_graph(gen.path_graph(3), order="bogus")

    def test_adversarial_order_final_graph(self):
        graph = gen.barabasi_albert(50, 3, rng=2)
        stream = adversarial_order_stream(graph)
        assert stream.final_graph() == graph

    def test_churn_stream_final_graph_equals_reference(self):
        graph = gen.karate_club()
        for interleave in (True, False):
            stream = turnstile_churn_stream(graph, 25, rng=11, interleave=interleave)
            assert stream.final_graph() == graph
            assert stream.length == graph.m + 2 * 25

    def test_churn_capacity_guard(self):
        graph = gen.complete_graph(4)  # complement empty
        with pytest.raises(StreamError):
            turnstile_churn_stream(graph, 1, rng=1)

    def test_split_substreams_partition(self):
        graph = gen.gnp(25, 0.3, rng=13)
        stream = insertion_stream(graph, rng=14)
        parts = split_substreams(stream, 3, rng=15)
        assert sum(p.length for p in parts) == graph.m
        merged = concatenate_streams(parts)
        assert merged.final_graph() == graph

    def test_split_substreams_turnstile_safe(self):
        """Deletions land in the same part as their insertions."""
        graph = gen.gnp(20, 0.3, rng=21)
        stream = turnstile_churn_stream(graph, 15, rng=22)
        parts = split_substreams(stream, 4, rng=23)
        for part in parts:
            # Constructing the EdgeStream validates prefix-nonnegativity.
            assert part.allows_deletions


def _fuzz_columns(rng: random.Random, n: int, allow_deletions: bool):
    """Random ``(u, v, delta)`` columns: a valid walk plus a few faults.

    The faults (self-loop, endpoint out of range, bad delta, deletion,
    deleting an absent edge, repeating an insertion) are inserted at
    random positions; whether and where they break the stream model is
    for the reference to say.
    """
    present = set()
    rows = []
    for _ in range(rng.randrange(0, 40)):
        absent = [(a, b) for a in range(n) for b in range(a + 1, n)
                  if (a, b) not in present]
        if present and (not absent or (allow_deletions and rng.random() < 0.4)):
            edge, delta = rng.choice(sorted(present)), -1
            present.discard(edge)
        else:
            edge, delta = rng.choice(absent), 1
            present.add(edge)
        a, b = edge if rng.random() < 0.5 else edge[::-1]
        rows.append((a, b, delta))
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        a, b = rng.sample(range(n), 2)
        repeat = rng.choice(rows) if rows else (a, b, 1)
        fault = rng.choice([
            (a, a, 1),
            (a, rng.choice([n, n + 2, -1]), 1),
            (a, b, rng.choice([0, 2, -2])),
            (a, b, -1), (a, b, -1),
            repeat, repeat, repeat,
        ])
        rows.insert(rng.randrange(len(rows) + 1), fault)
    columns = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return tuple(np.ascontiguousarray(column) for column in columns)


def _cuts(rng: random.Random, length: int):
    points = sorted(rng.sample(range(1, length), rng.randrange(min(4, length))))
    if length:
        points.append(length)
    return list(zip([0] + points, points))


def _edges(graph):
    return sorted(graph.edges())


class TestCheckUpdatesAgainstReference:
    """The columnar stream-model check equals the per-update reference
    on stream construction, the live journal and the binary writer."""

    @pytest.mark.parametrize("seed", range(150))
    def test_stream_construction(self, seed):
        rng = random.Random(seed)
        n, allow = rng.randrange(2, 8), rng.random() < 0.6
        u, v, d = _fuzz_columns(rng, n, allow)
        bad, live = reference_check_updates(n, u, v, d, allow, live=set())
        if bad is None:
            stream = ColumnEdgeStream(n, u, v, d, allow_deletions=allow)
            assert _edges(stream.final_graph()) == sorted(live)
            assert stream.net_edge_count == len(live)
        else:
            with pytest.raises(StreamError, match=f"update #{bad} "):
                ColumnEdgeStream(n, u, v, d, allow_deletions=allow)

    @pytest.mark.parametrize("seed", range(150))
    def test_journal_append_at_random_cuts(self, seed):
        rng = random.Random(1000 + seed)
        n, allow = rng.randrange(2, 8), rng.random() < 0.6
        u, v, d = _fuzz_columns(rng, n, allow)
        bad, live = reference_check_updates(n, u, v, d, allow, live=set())
        journal = UpdateJournal(n, allow)
        for start, stop in _cuts(rng, len(u)):
            if bad is not None and bad < stop:
                with pytest.raises(StreamError, match=f"update #{bad} "):
                    journal.append(u[start:stop], v[start:stop], d[start:stop])
                assert journal.length == start
                assert all(
                    np.array_equal(kept, column[:start])
                    for kept, column in zip(journal.columns(), (u, v, d))
                )
                # The rejected chunk left the live edges untouched: its
                # valid head is accepted as if the chunk never came.
                journal.append(u[start:bad], v[start:bad], d[start:bad])
                break
            journal.append(u[start:stop], v[start:stop], d[start:stop])
        assert journal.length == (len(u) if bad is None else bad)
        assert _edges(journal.freeze_stream().final_graph()) == sorted(live)

    @pytest.mark.parametrize("seed", range(60))
    def test_binary_writer_at_random_cuts(self, seed, tmp_path):
        rng = random.Random(2000 + seed)
        n, allow = rng.randrange(2, 8), rng.random() < 0.6
        u, v, d = _fuzz_columns(rng, n, allow)
        stateless, _ = reference_check_updates(n, u, v, d, allow)
        bad, live = reference_check_updates(n, u, v, d, allow, live=set())
        path = tmp_path / "fuzz.reb"
        with BinaryUpdateWriter(path, n, allow_deletions=allow) as writer:
            for start, stop in _cuts(rng, len(u)):
                if stateless is not None and stateless < stop:
                    with pytest.raises(StreamError, match=f"update #{stateless} "):
                        writer.append(u[start:stop], v[start:stop], d[start:stop])
                    writer.abort()
                    return
                writer.append(u[start:stop], v[start:stop], d[start:stop])
        stream = DiskEdgeStream(path)
        if bad is None:
            assert _edges(stream.final_graph()) == sorted(live)
        else:
            with pytest.raises(StreamError, match=f"update #{bad} "):
                stream.final_graph()


class TestLiveEdges:
    """``LiveEdges`` across many checked chunks equals a Python set of
    the live edges, with int64 keys and, once ``n * n`` overflows int64,
    exact Python-int keys."""

    @pytest.mark.parametrize("n", [30, 2 ** 33])
    @pytest.mark.parametrize("seed", range(3))
    def test_many_chunks_match_a_set(self, n, seed):
        rng = random.Random(seed)
        vertices = rng.sample(range(n), 12)
        live, present, length = LiveEdges(n), set(), 0
        for _ in range(300):
            rows = []
            for _ in range(rng.randrange(1, 12)):
                a, b = rng.sample(vertices, 2)
                edge = (min(a, b), max(a, b))
                delta = -1 if edge in present else 1
                present ^= {edge}
                rows.append((a, b, delta))
            u, v, d = (np.array(column, dtype=np.int64) for column in zip(*rows))
            check_updates(n, u, v, d, True, live=live, offset=length)
            length += len(rows)
            assert len(live) == len(present)
        assert live.edges() == sorted(present)
        some = sorted(present)[0]
        absent = next(
            (a, b) for a in vertices for b in vertices
            if a < b and (a, b) not in present
        )
        for edge, delta, problem in ((some, 1, "duplicates"), (absent, -1, "deletes absent")):
            column = lambda i: np.array([edge[i]], dtype=np.int64)
            with pytest.raises(StreamError, match=f"update #{length} {problem} edge"):
                check_updates(
                    n, column(0), column(1), np.array([delta]), True,
                    live=live, offset=length,
                )
        assert live.edges() == sorted(present)


class TestSpaceMeter:
    def test_peak_tracking(self):
        meter = SpaceMeter()
        meter.set_usage("a", 10)
        meter.set_usage("b", 5)
        assert meter.current_words == 15
        meter.release("a")
        assert meter.current_words == 5
        assert meter.peak_words == 15

    def test_add_usage(self):
        meter = SpaceMeter()
        meter.add_usage("x", 3)
        meter.add_usage("x", 4)
        assert meter.current_words == 7

    def test_negative_rejected(self):
        meter = SpaceMeter()
        with pytest.raises(ValueError):
            meter.set_usage("x", -1)

    def test_breakdown(self):
        meter = SpaceMeter()
        meter.set_usage("a", 1)
        assert meter.breakdown() == {"a": 1}
