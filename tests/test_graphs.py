"""kneser_exact: graph construction, EKR, spectra, Baranyai, extremal subgraph."""

import dataclasses
import io
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from kneserlab import graphs, threshold
from kneserlab.errors import DomainError, GuardError, SearchBudgetExceeded
from kneserlab.families import GroundParams, mask_from_elements
from kneserlab.graphs import (
    BaranyaiPartition,
    baranyai_partition,
    build_graph,
    enumerate_maximum,
    export_partition,
    extremal_subgraph,
    is_star,
    max_independent_set,
    packed_rows,
    ratio_bound,
    spectrum_cross_check,
    verify_ekr,
    vertex_bits,
    vertex_mask,
)
from oracles import (
    baranyai_backtrack,
    brute_force_maximum,
    clique_union_extremal,
    edge_count,
    export_edges,
    greedy_clique_cover,
    recursive_enumeration,
)


def test_build_graph_examples():
    petersen = build_graph(GroundParams(5, 2))
    assert petersen.vertex_count == 10
    assert edge_count(petersen) == 15
    assert {a.bit_count() for a in petersen.adjacency} == {3}

    g42 = build_graph(GroundParams(4, 2))
    assert g42.vertex_count == 6
    assert edge_count(g42) == 3
    assert {a.bit_count() for a in g42.adjacency} == {1}

    g63 = build_graph(GroundParams(6, 3))
    assert g63.vertex_count == 20
    assert edge_count(g63) == 10
    assert {a.bit_count() for a in g63.adjacency} == {1}


@pytest.mark.parametrize("nv", [1, 7, 8, 9, 16, 17, 64, 65])
def test_vertex_mask_round_trips(nv):
    # bool v is bit v of the int, so big-endian packing fails even where it
    # would round-trip
    rng = random.Random(nv)
    for mask in [0, 1 << nv - 1, (1 << nv) - 1] + [rng.getrandbits(nv) for _ in range(20)]:
        bits = vertex_bits(mask, nv)
        assert bits.dtype == bool and bits.tolist() == [bool(mask >> v & 1) for v in range(nv)]
        assert vertex_mask(bits) == mask


def test_packed_rows_reads_exact_ints():
    # numpy's S view drops a row's trailing zero bytes, its high bytes
    rows = [0, 1, 0x80, 0x100, 0x1_0000, 0xff_0000, 0x12_3456, 0x00_ff00]
    packed = np.array([list(r.to_bytes(3, "little")) for r in rows], dtype=np.uint8)
    assert packed_rows(packed) == tuple(rows)
    # a transposed input is not contiguous: its rows are packed's columns
    assert packed_rows(packed.T) == (0x56_0000_0080_0100, 0xff34_0000_0100_0000,
                                     0x12_ff01_0000_0000)


@pytest.mark.parametrize("nv", [1, 7, 8, 9, 91, 165])
def test_packed_rows_match_per_row_reads(nv):
    # random rows, all-zero rows and rows whose high bytes are zero, against
    # each row's own bytes read as a little-endian int
    width = (nv + 7) // 8
    rng = np.random.default_rng(nv)
    packed = rng.integers(0, 256, size=(nv, width), dtype=np.uint8)
    packed[::3] = 0
    for r in range(1, nv, 3):
        packed[r, rng.integers(1, width + 1):] = 0
    assert packed_rows(packed) == tuple(int.from_bytes(row.tobytes(), "little")
                                        for row in packed)


def test_build_graph_guards(monkeypatch):
    with pytest.raises(DomainError):
        build_graph(GroundParams(5, 3))
    monkeypatch.setattr(graphs, "BUILD_GUARD", 100)
    with pytest.raises(GuardError):
        build_graph(GroundParams(12, 4))


def test_build_graph_memory_is_bounded_by_its_blocks(monkeypatch):
    # K(16,8), which the sampling guards admit, keeps 11.5 MiB of rows; blocks
    # of 1,303 rows by 12,870 uint64 ANDs took its build to 173 MiB
    tracemalloc.start()
    try:
        g = build_graph(GroundParams(16, 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20
    # K(16,8) is a perfect matching: each set's one neighbour is its complement
    index = {m: i for i, m in enumerate(g.vertices)}
    full = (1 << 16) - 1
    assert all(row == 1 << index[full ^ m] for m, row in zip(g.vertices, g.adjacency))
    # blocks of one, two and five rows give the same rows as a single block
    whole = build_graph(GroundParams(9, 3)).adjacency
    for rows in (1, 2, 5):
        monkeypatch.setattr(graphs, "BLOCK_BYTES", 8 * 84 * rows)
        assert build_graph(GroundParams(9, 3)).adjacency == whole


def test_edge_arrays_are_read_only(monkeypatch):
    # the sampling context's endpoints are the one edge list, shared by every trial
    monkeypatch.setattr(threshold, "_CONTEXTS", {})
    ctx = threshold._context(GroundParams(6, 2))
    for ends in (ctx.u, ctx.v):
        with pytest.raises(ValueError, match="read-only"):
            ends[0] = 1
    assert ctx.u[0] == 0


def test_adjacency_matches_disjointness():
    g = build_graph(GroundParams(6, 2))
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            expected = u != v and not (g.vertices[u] & g.vertices[v])
            assert bool((g.adjacency[u] >> v) & 1) == expected


def test_ratio_bound_equals_star_size():
    for n, k in [(5, 2), (7, 3), (9, 4), (12, 5), (64, 2), (4, 2), (12, 6)]:
        assert ratio_bound(GroundParams(n, k)) == math.comb(n - 1, k - 1)


def test_max_independent_set_examples():
    assert max_independent_set(build_graph(GroundParams(5, 2))).size == 4
    assert max_independent_set(build_graph(GroundParams(4, 2))).size == 3
    r = max_independent_set(build_graph(GroundParams(7, 3)))
    assert r.size == 15
    assert is_star(r.witness)


def test_max_independent_set_refuses_a_failed_certificate(monkeypatch):
    # a ratio bound above the star's size certifies nothing, so it must raise
    # rather than report the star
    monkeypatch.setattr(graphs, "ratio_bound",
                        lambda params: math.comb(params.n - 1, params.k - 1) + 1)
    for n, k in [(5, 2), (7, 3)]:
        with pytest.raises(AssertionError, match="ratio bound"):
            max_independent_set(build_graph(GroundParams(n, k)))


def test_max_independent_set_agrees_with_brute_force():
    for n, k in [(5, 2), (4, 2), (6, 3)]:
        g = build_graph(GroundParams(n, k))
        best, _ = brute_force_maximum(g.adjacency)
        assert max_independent_set(g).size == best


def test_verify_ekr_examples():
    rep = verify_ekr(GroundParams(5, 2))
    assert (rep["alpha"], rep["equals_ekr"], rep["only_stars"]) == (4, True, True)
    assert rep["num_maximum"] == 5
    rep = verify_ekr(GroundParams(4, 2))
    assert (rep["alpha"], rep["equals_ekr"], rep["only_stars"]) == (3, True, False)
    assert rep["num_maximum"] == 8
    rep = verify_ekr(GroundParams(6, 2))
    assert (rep["alpha"], rep["equals_ekr"], rep["only_stars"]) == (5, True, True)


def test_verify_ekr_guard_modes():
    # the stars are read off at every n > 2k that the build admits; only an
    # n = 2k listing over the solution cap leaves the maxima unreported
    rep = verify_ekr(GroundParams(12, 4))  # 495 vertices
    assert (rep["alpha"], rep["only_stars"], rep["num_maximum"]) == (math.comb(11, 3), True, 12)
    rep = verify_ekr(GroundParams(10, 5))  # 252 vertices, 2^126 maximum sets
    assert (rep["alpha"], rep["equals_ekr"]) == (math.comb(9, 4), True)
    assert rep["only_stars"] is None and rep["num_maximum"] is None


@pytest.mark.parametrize("n,k,stars", [
    (7, 3, range(1, 8)), (12, 4, range(1, 13)), (6, 3, [1]), (8, 4, [1])])
def test_verify_ekr_certifies_alpha_once(monkeypatch, n, k, stars):
    # one ratio-bound read per run, and each star's independence checked once:
    # all n stars when n > 2k, star 1 alone at n = 2k, listed or refused
    reads, checked = [], Counter()
    bound, check = graphs.ratio_bound, graphs.star_vertex_mask_checked
    monkeypatch.setattr(graphs, "ratio_bound", lambda params: reads.append(params) or bound(params))
    monkeypatch.setattr(graphs, "star_vertex_mask_checked",
                        lambda graph, x: checked.update([x]) or check(graph, x))
    assert verify_ekr(GroundParams(n, k))["alpha"] == math.comb(n - 1, k - 1)
    assert reads == [GroundParams(n, k)]
    assert checked == Counter(stars)


def test_verify_ekr_counts_the_perfect_matching_without_a_search(monkeypatch):
    # K(2k,k) is a perfect matching with 2^(C(2k,k)/2) maximum sets; over the
    # solution cap the count alone refuses them, before any row is read
    unread = dataclasses.replace(build_graph(GroundParams(8, 4)), adjacency=None)
    with pytest.raises(SearchBudgetExceeded, match="solution cap 1000000$"):
        enumerate_maximum(unread)
    rep = verify_ekr(GroundParams(8, 4))  # 2^35 maximum sets
    assert (rep["alpha"], rep["equals_ekr"]) == (35, True)
    assert rep["only_stars"] is None and rep["num_maximum"] is None
    monkeypatch.setattr(graphs, "SOLUTION_CAP", 1023)  # (6,3) has 2^10
    assert verify_ekr(GroundParams(6, 3))["num_maximum"] is None
    monkeypatch.setattr(graphs, "SOLUTION_CAP", 1024)
    rep = verify_ekr(GroundParams(6, 3))
    assert (rep["num_maximum"], rep["only_stars"]) == (1024, False)


def with_edge(graph, a, b):
    """graph with an edge added between the k-sets a and b."""
    n = graph.params.n
    u, v = (graph.vertices.index(mask_from_elements(s, n)) for s in (a, b))
    rows = list(graph.adjacency)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return dataclasses.replace(graph, adjacency=tuple(rows))


def test_enumeration_refuses_a_star_with_an_edge_inside():
    # {2,3,4} and {2,5,6} meet only in 2: joined, they put an edge inside
    # star 2 and none inside star 1, which certifies alpha.  The other two
    # edges reach a star's lowest member, {1,2,3} (vertex 0) in star 2, and
    # its highest, {5,6,7} (vertex 34, in the last, partial byte) in star 7
    graph = build_graph(GroundParams(7, 3))
    ends = [graph.vertices.index(mask_from_elements(s, 7)) for s in ((1, 2, 3), (5, 6, 7))]
    assert ends == [0, 34]
    for a, b in [((2, 3, 4), (2, 5, 6)), ((1, 2, 3), (2, 4, 5)), ((3, 4, 7), (5, 6, 7))]:
        bad = with_edge(graph, a, b)
        assert max_independent_set(bad).size == 15
        with pytest.raises(AssertionError, match="star is not independent"):
            enumerate_maximum(bad)


def test_enumeration_refuses_a_broken_perfect_matching():
    # {1,2,3} already meets its complement; {2,4,5} is a second neighbour
    bad = with_edge(build_graph(GroundParams(6, 3)), (1, 2, 3), (2, 4, 5))
    assert max_independent_set(bad).size == 10
    with pytest.raises(AssertionError, match="not a perfect matching"):
        enumerate_maximum(bad)


@pytest.mark.parametrize("n,k", [(6, 2), (8, 2), (10, 2), (7, 3), (9, 3), (9, 4)])
def test_enumeration_finds_exactly_the_stars(n, k):
    fams = enumerate_maximum(build_graph(GroundParams(n, k)))
    assert len(fams) == n
    assert all(is_star(f) for f in fams)


# every n > 2k >= 4 with C(n,k) <= 200 but (9,4), whose unpruned search
# passes 3M nodes, and the n = 2k cases (4,2) and (6,3), the perfect matchings
HONEST_CASES = [(n, k) for k in range(2, 5) for n in range(2 * k + 1, 21)
                if math.comb(n, k) <= 200 and (n, k) != (9, 4)] + [(4, 2), (6, 3)]


@pytest.mark.parametrize("n,k", HONEST_CASES)
def test_spectral_prune_matches_honest_enumeration(n, k):
    g = build_graph(GroundParams(n, k))
    pruned = enumerate_maximum(g)
    alpha = math.comb(n - 1, k - 1)
    honest = recursive_enumeration(g.adjacency, alpha)
    assert [f.members for f in pruned] == [
        g.family_from_vertex_mask(m).members for m in honest]


def test_spectrum_cross_check_examples():
    rep = spectrum_cross_check(GroundParams(5, 2))
    assert rep["ok"] and rep["lambda1_multiplicity"] == 4
    assert rep["spectrum"] == [(-2, 4), (1, 5), (3, 1)]
    rep = spectrum_cross_check(GroundParams(6, 2))
    assert rep["ok"]
    assert rep["spectrum"] == [(-3, 5), (1, 9), (6, 1)]
    rep = spectrum_cross_check(GroundParams(4, 2))
    assert rep["ok"]
    assert rep["spectrum"] == [(-1, 3), (1, 3)]
    rep = spectrum_cross_check(GroundParams(6, 3))  # degenerate eigenvalues
    assert rep["ok"]
    assert rep["spectrum"] == [(-1, 10), (1, 10)]
    with pytest.raises(GuardError):
        spectrum_cross_check(GroundParams(13, 4))


def test_spectrum_cross_check_reads_the_adjacency_rows(monkeypatch):
    params = GroundParams(7, 2)
    graph = build_graph(params)
    monkeypatch.setattr(graphs, "build_graph", lambda _: graph)
    assert spectrum_cross_check(params)["ok"]
    rows = list(graph.adjacency)
    rows[0] ^= 1 << 1  # {1,2} and {1,3} meet: one edge too many
    rows[1] ^= 1 << 0
    flipped = dataclasses.replace(graph, adjacency=tuple(rows))
    monkeypatch.setattr(graphs, "build_graph", lambda _: flipped)
    rep = spectrum_cross_check(params)
    assert not rep["ok"] and rep["max_deviation"] > 0.5


def test_partition_classes_are_cliques_and_partition_vertices():
    # the clique cover that bounds every node of the search and enumeration
    g = build_graph(GroundParams(9, 2))
    classes = greedy_clique_cover((1 << g.vertex_count) - 1, g.adjacency)
    union = 0
    for cm in classes:
        assert union & cm == 0
        union |= cm
        m = cm
        while m:
            low = m & -m
            v = low.bit_length() - 1
            assert cm & ~(g.adjacency[v] | low) == 0  # clique: adjacent to rest
            m ^= low
    assert union == (1 << g.vertex_count) - 1


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3), (8, 2), (9, 3)])
def test_baranyai_partition_valid(n, k):
    partition = baranyai_partition(GroundParams(n, k))
    partition.validate()
    assert len(partition.classes) == math.comb(n - 1, k - 1)


def test_baranyai_partition_with_long_augmenting_paths():
    # at (20,5) an augmenting path passes Python's recursion limit, so the
    # flow's DFS must not recurse
    baranyai_partition.cache_clear()
    partition = baranyai_partition(GroundParams(20, 5))
    partition.validate()
    assert len(partition.classes) == math.comb(19, 4)


def test_baranyai_rejects_non_divisible():
    with pytest.raises(DomainError):
        baranyai_partition(GroundParams(7, 2))


def test_baranyai_backtracking_fallback_agrees_on_shape():
    classes = baranyai_backtrack(6, 2)
    params = GroundParams(6, 2)
    from kneserlab.families import SetFamily

    partition = BaranyaiPartition(
        params, tuple(SetFamily.from_masks(params, cls) for cls in classes))
    partition.validate()


def test_extremal_subgraph_examples():
    stats = extremal_subgraph(GroundParams(6, 2))
    assert (stats["alpha"], stats["degree"], stats["edges"]) == (5, 2, 15)
    assert stats["regular"] and stats["edges"] == stats["expected_edges"]
    stats = extremal_subgraph(GroundParams(4, 2))
    assert (stats["alpha"], stats["degree"], stats["edges"]) == (3, 1, 3)
    stats = extremal_subgraph(GroundParams(6, 3))
    assert (stats["alpha"], stats["degree"], stats["edges"]) == (10, 1, 10)


EXTREMAL_CASES = [(n, k) for k in range(1, 8) for n in range(2 * k, 41, k)
                  if math.comb(n, k) <= 5000]


def test_extremal_subgraph_matches_the_clique_union_search():
    # the partition's classes taken as cliques, searched, give the counts
    # that extremal_subgraph reads off the class sizes
    mismatches = [(n, k) for n, k in EXTREMAL_CASES
                  if extremal_subgraph(GroundParams(n, k)) != clique_union_extremal(GroundParams(n, k))]
    assert len(EXTREMAL_CASES) == 75 and mismatches == []


def test_extremal_subgraph_refuses_an_invalid_partition(monkeypatch):
    # {1,2} and {1,3} in one class: no clique union, so validate() raises
    # before any count is read
    bad = [[0b0011, 0b0101], [0b1100, 0b1010], [0b1001, 0b0110]]
    monkeypatch.setattr(graphs, "_baranyai_flow", lambda n, k: bad)
    baranyai_partition.cache_clear()
    try:
        with pytest.raises(AssertionError, match="class members overlap"):
            extremal_subgraph(GroundParams(4, 2))
    finally:
        baranyai_partition.cache_clear()


def test_exports():
    g = build_graph(GroundParams(4, 2))
    buf = io.StringIO()
    export_edges(g, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# kneser n=4 k=2"
    assert len(lines) - 1 == edge_count(g)
    u, v = map(int, lines[1].split())
    assert not g.vertices[u] & g.vertices[v]

    partition = baranyai_partition(GroundParams(4, 2))
    buf = io.StringIO()
    export_partition(partition, buf)
    rows = buf.getvalue().splitlines()
    assert len(rows) == 3
    assert all("|" in row for row in rows)
