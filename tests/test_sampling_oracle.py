"""The numpy sampling pass against a per-edge reference sampler.

The reference walks every edge of K(n,k) in Python: it lists the edges by a
bit-walk over the adjacency rows, sets adjacency bits edge by edge, and scans
every (centre, set avoiding the centre) pair for superstars.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

from kneserlab import graphs, threshold
from kneserlab.errors import DomainError
from kneserlab.families import GroundParams
from kneserlab.graphs import build_graph, edge_rows
from kneserlab.threshold import (
    ThresholdParams,
    count_superstars,
    ekr_holds,
    sample_subgraph,
    star_survives,
    trial_uniforms,
)
from oracles import (brute_force_maximum, edge_count, export_edges, reference_edges,
                     word_double)

ORACLE_PARAMS = [(5, 2), (12, 2), (14, 2), (10, 3), (9, 4), (6, 3), (8, 4)]
ORACLE_PS = [0.0, 0.3, 0.5, 1.0]


def reference_adjacency(graph, uniforms, p):
    adjacency = [0] * graph.vertex_count
    for (u, v), x in zip(reference_edges(graph), uniforms):
        if word_double(x) < p:
            adjacency[u] |= 1 << v
            adjacency[v] |= 1 << u
    return tuple(adjacency)


def reference_star_survives(graph, adjacency, centre):
    star_mask = graph.star_vertex_masks[centre - 1]
    for f, mask in enumerate(graph.vertices):
        if not (mask >> (centre - 1)) & 1 and not adjacency[f] & star_mask:
            return False
    return True


def reference_superstars(graph, adjacency):
    count = 0
    for x in range(graph.params.n):
        star_mask = graph.star_vertex_masks[x]
        for f, mask in enumerate(graph.vertices):
            if not (mask >> x) & 1 and not adjacency[f] & star_mask:
                count += 1
    return count


@pytest.mark.parametrize("n,k", ORACLE_PARAMS)
def test_sampling_pass_matches_reference(n, k):
    params = GroundParams(n, k)
    graph = build_graph(params)
    for p in ORACLE_PS:
        tp = ThresholdParams(params, p, 1, 1000 * n + k)
        for t in range(3):
            uniforms = trial_uniforms(tp, t)
            assert len(uniforms) == edge_count(graph)
            sample = sample_subgraph(tp, t, uniforms)
            expected = reference_adjacency(graph, uniforms, p)
            assert sample.adjacency == expected
            assert sample_subgraph(tp, t).adjacency == expected
            assert count_superstars(sample) == reference_superstars(graph, expected)
            for centre in range(1, n + 1):
                assert star_survives(sample, centre) == \
                    reference_star_survives(graph, expected, centre)


def reference_unblocked(graph, adjacency):
    """Per vertex, bit x-1 set iff x is not in it and it has no retained edge to S_x."""
    return [sum(1 << x for x in range(graph.params.n) if not (mask >> x) & 1
                and not adjacency[f] & graph.star_vertex_masks[x])
            for f, mask in enumerate(graph.vertices)]


@pytest.mark.parametrize("n,k", [(12, 2), (14, 2), (10, 3), (9, 4)])
def test_block_loop_matches_reference(n, k, monkeypatch):
    # every ORACLE_PARAMS graph fits one default block; these runs cut it into
    # blocks of one row (1, degree - 1 and degree slots) and of three rows
    params = GroundParams(n, k)
    graph = build_graph(params)
    degree = params.kneser_degree
    for slots, rows in [(1, 1), (degree - 1, 1), (degree, 1), (3 * degree + 1, 3),
                        (threshold.SLOT_BLOCK, graph.vertex_count)]:
        monkeypatch.setattr(threshold, "SLOT_BLOCK", slots)
        monkeypatch.setattr(threshold, "_CONTEXTS", {})
        ctx = threshold._context(params)
        assert len(ctx.blocks) == -(-graph.vertex_count // rows)
        for p in (0.3, 0.5):
            tp = ThresholdParams(params, p, 1, 1000 * n + k)
            for t in range(2):
                uniforms = trial_uniforms(tp, t)
                sample = sample_subgraph(tp, t, uniforms)
                expected = reference_adjacency(graph, uniforms, p)
                assert sample.unblocked.tolist() == reference_unblocked(graph, expected)
                assert count_superstars(sample) == reference_superstars(graph, expected)
                for centre in range(1, n + 1):
                    assert star_survives(sample, centre) == \
                        reference_star_survives(graph, expected, centre)


@pytest.mark.parametrize("n,k", ORACLE_PARAMS)
def test_endpoints_are_distinct_ordered_pairs(n, k, monkeypatch):
    # graphs.edge_rows adds each (row, column) bit instead of ORing it in,
    # which is the same only while no edge is a loop or listed twice
    monkeypatch.setattr(threshold, "_CONTEXTS", {})
    ctx = threshold._context(GroundParams(n, k))
    u, v = ctx.u.astype(np.int64), ctx.v.astype(np.int64)
    assert (u < v).all()
    assert len(np.unique(u * ctx.nv + v)) == ctx.edge_count == len(u)


@pytest.mark.parametrize("n,k", [(14, 2), (11, 3)])
def test_relabelled_pack_matches_reference(n, k):
    # the pack ekr_holds searches: a sample's edges under a vertex
    # permutation, against the reference adjacency moved to the new labels
    params = GroundParams(n, k)
    graph = build_graph(params)
    ctx = threshold._context(params)
    rng = np.random.default_rng(1000 * n + k)
    for p in ORACLE_PS:
        tp = ThresholdParams(params, p, 1, 1000 * n + k)
        for t in range(2):
            uniforms = trial_uniforms(tp, t)
            expected = reference_adjacency(graph, uniforms, p)
            label = rng.permutation(ctx.nv).astype(np.int32)
            relabelled = [0] * ctx.nv
            for f, row in enumerate(expected):
                for g in range(ctx.nv):
                    if row >> g & 1:
                        relabelled[label[f]] |= 1 << int(label[g])
            u, v = sample_subgraph(tp, t, uniforms).edges
            assert edge_rows(ctx.nv, label[u], label[v]) == tuple(relabelled)


def assert_context_matches_bit_walk(graph):
    """The context's endpoints and slot tables against the reference edges:
    slot j of row f holds the edge id and element mask of f's j-th neighbour."""
    ctx = threshold._context(graph.params)
    edges = reference_edges(graph)
    assert list(zip(ctx.u.tolist(), ctx.v.tolist())) == edges
    edge_id = {edge: i for i, edge in enumerate(edges)}
    for f in range(graph.vertex_count):
        nbrs = [g for g in range(graph.vertex_count) if graph.adjacency[f] >> g & 1]
        assert ctx.slot_edge[f].tolist() == [edge_id[min(f, g), max(f, g)] for g in nbrs]
        assert ctx.slot_mask[f].tolist() == [graph.vertices[g] for g in nbrs]


@pytest.mark.parametrize("n,k", [(4, 2), (7, 3), (12, 2), (6, 3), (8, 4), (9, 4)])
def test_edge_enumeration_matches_bit_walk(n, k, monkeypatch):
    monkeypatch.setattr(threshold, "_CONTEXTS", {})
    graph = build_graph(GroundParams(n, k))
    assert_context_matches_bit_walk(graph)
    ctx = threshold._context(graph.params)
    buf = io.StringIO()
    export_edges(graph, buf)
    assert buf.getvalue().splitlines()[1:] == [
        f"{a} {b}" for a, b in zip(ctx.u.tolist(), ctx.v.tolist())]


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("n,k", [(9, 3), (12, 2)])
def test_blocks_match_bit_walk(n, k, rows, monkeypatch):
    # a lower slot is placed by its partner's row, often in an earlier block
    monkeypatch.setattr(threshold, "_CONTEXTS", {})
    graph = build_graph(GroundParams(n, k))  # the reference, built in one block
    monkeypatch.setattr(graphs, "BLOCK_BYTES", 8 * graph.vertex_count * rows)
    assert build_graph(graph.params).adjacency == graph.adjacency
    assert_context_matches_bit_walk(graph)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (12, 2), (9, 4)])
def test_context_endpoints_are_the_graph_edges(n, k, monkeypatch):
    edges = reference_edges(build_graph(GroundParams(n, k)))
    builds = []
    real = graphs.build_graph

    def counting(params):
        builds.append(params)
        return real(params)

    monkeypatch.setattr(graphs, "build_graph", counting)
    # and under the name threshold would call, were it imported there
    monkeypatch.setattr(threshold, "build_graph", counting, raising=False)
    monkeypatch.setattr(threshold, "_CONTEXTS", {})
    tp = ThresholdParams(GroundParams(n, k), 0.5, 1, 7)
    sample = sample_subgraph(tp, 0)
    retained = sample.edges  # listed from the context's endpoints
    assert builds == []  # sampling builds no KneserGraph
    ctx = threshold._context(tp.params)
    assert ctx.u.dtype == ctx.v.dtype == np.int32
    assert list(zip(ctx.u.tolist(), ctx.v.tolist())) == edges
    assert list(zip(*(e.tolist() for e in retained))) == [
        e for e, kept in zip(edges, sample.keep) if kept]
    assert not (ctx.u.flags.writeable or ctx.v.flags.writeable)


def test_context_build_memory_is_bounded_by_its_blocks(monkeypatch):
    # K(64,2), at the edge guard, keeps 61 MB of slot tables and endpoints,
    # and its build adds 1.3 MB traced; its 2,016 x 1,891 neighbour table
    # alone, held whole, would add 30 MB as intp
    monkeypatch.setattr(threshold, "_CONTEXTS", {})
    params = GroundParams(64, 2)
    tracemalloc.start()
    try:
        ctx = threshold._context(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (ctx.slot_edge, ctx.slot_mask, ctx.u, ctx.v))
    assert kept == 60_996_096
    assert peak - kept < 4 << 20, (peak, kept)


def test_star_survives_rejects_centre_out_of_range():
    sample = sample_subgraph(ThresholdParams(GroundParams(5, 2), 0.5, 1, 0), 0)
    for centre in (0, 6):
        with pytest.raises(DomainError):
            star_survives(sample, centre)
    star_survives(sample, 1)
    star_survives(sample, 5)


def test_trial_index_and_centre_are_read_as_integers():
    tp = ThresholdParams(GroundParams(6, 2), 0.5, 1, 7)
    assert np.array_equal(trial_uniforms(tp, np.int64(3)), trial_uniforms(tp, 3))
    assert np.array_equal(trial_uniforms(tp, np.uint64(2**64 - 1)), trial_uniforms(tp, -1))
    sample = sample_subgraph(tp, np.int32(3))
    assert np.array_equal(sample.keep, sample_subgraph(tp, 3).keep)
    for bad in (3.0, "3", None):
        with pytest.raises(DomainError, match="^trial_index must be an integer"):
            trial_uniforms(tp, bad)
    with pytest.raises(DomainError, match="^centre must be an integer"):
        star_survives(sample, 2.0)
    assert star_survives(sample, np.int64(2)) == star_survives(sample, 2)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2)])
def test_ekr_decision_matches_brute_force(n, k):
    params = GroundParams(n, k)
    seen_superstar = seen_search = 0
    for p in (0.2, 0.5, 0.7, 0.9):
        tp = ThresholdParams(params, p, 1, 17)
        for t in range(8):
            sample = sample_subgraph(tp, t)
            best, _ = brute_force_maximum(list(sample.adjacency))
            assert ekr_holds(sample).holds == (best == params.star_size)
            if count_superstars(sample) > 0:
                seen_superstar += 1
            else:
                seen_search += 1
    assert seen_superstar > 0 and seen_search > 0


def test_superstar_certificate_skips_search(monkeypatch):
    calls = []
    real = threshold.max_independent_set_masks

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(threshold, "max_independent_set_masks", counting)
    tp = ThresholdParams(GroundParams(12, 2), 0.4, 1, 1961)
    certified = 0
    for t in range(30):
        sample = sample_subgraph(tp, t)
        before = len(calls)
        holds = ekr_holds(sample).holds
        if count_superstars(sample) > 0:
            certified += 1
            assert not holds
            assert len(calls) == before
    assert certified > 0
    # without a superstar the decision still searches, unless the sample
    # keeps every edge of K(n,k)
    dense = sample_subgraph(ThresholdParams(GroundParams(12, 2), 0.95, 1, 0), 0)
    assert count_superstars(dense) == 0 and np.count_nonzero(dense.keep) < 1485
    before = len(calls)
    assert ekr_holds(dense).holds and len(calls) == before + 1


def test_sample_memory_is_packed_at_15_7():
    import tracemalloc

    params = GroundParams(15, 7)
    nv = math.comb(15, 7)
    tp = ThresholdParams(params, 0.5, 1, 3)
    uniforms = trial_uniforms(tp, 0)
    tracemalloc.start()
    try:
        sample = sample_subgraph(tp, 0, uniforms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a dense nv x nv byte matrix would take 41 MB; the packed adjacency
    # (one bit per vertex pair) takes 5.2 MB
    packed = nv * ((nv + 7) // 8)
    assert peak < 3 * packed < nv * nv, (peak, packed)
    assert np.count_nonzero(sample.keep) == sum(word_double(w) < 0.5 for w in uniforms)


def test_adjacency_is_packed_on_first_use_at_15_7():
    import tracemalloc

    params = GroundParams(15, 7)
    nv = math.comb(15, 7)
    packed = nv * ((nv + 7) // 8)
    sample = sample_subgraph(ThresholdParams(params, 0.5, 1, 3), 0)
    # sampling alone packs nothing and lists no retained edge
    assert "adjacency" not in vars(sample) and "edges" not in vars(sample)
    tracemalloc.start()
    try:
        adjacency = sample.adjacency
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * packed < nv * nv, (peak, packed)
    assert sample.adjacency is adjacency
    assert sum(a.bit_count() for a in adjacency) == 2 * np.count_nonzero(sample.keep)
