"""The EKR decision on a reordered copy, against index-order searches.

ekr_holds relabels each sample by ascending deg - 3 * nbr / deg (degree less
three times the mean neighbour degree, after MCR's weighing; ties to index
once the key is evaluated in doubles) and seeds its search with a star.
These tests check that order, its verdicts against searches of the sample as
drawn, and that its witness comes back in the sample's vertex order.
"""

import hashlib

import numpy as np
import pytest

from kneserlab import mis, threshold
from kneserlab.families import GroundParams
from kneserlab.graphs import build_graph, vertex_mask
from kneserlab.mis import NODE_CAP, max_independent_set_masks
from kneserlab.threshold import (
    ThresholdParams,
    count_superstars,
    ekr_holds,
    estimate_probabilities,
    estimate_probability,
    sample_subgraph,
)
from oracles import brute_force_maximum, word_double

SEED = 1961


def is_independent(adjacency, mask):
    m = mask
    while m:
        low = m & -m
        if adjacency[low.bit_length() - 1] & mask:
            return False
        m ^= low
    return True


def searched_nodes(monkeypatch):
    """The node count of each search ekr_holds runs from here on, in order."""
    nodes = []
    real = threshold.max_independent_set_masks

    def search(adjacency, **kwargs):
        result = real(adjacency, **kwargs)
        nodes.append(result[2])
        return result

    monkeypatch.setattr(threshold, "max_independent_set_masks", search)
    return nodes


def check_witness(sample, result):
    """A refuting search's witness is a set one larger than a star,
    independent in the sample as drawn."""
    if not result.holds and count_superstars(sample) == 0:
        assert result.witness.bit_count() >= sample.params.star_size + 1
        assert is_independent(sample.adjacency, result.witness)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 2)])
def test_ordered_decision_matches_brute_force(n, k):
    params = GroundParams(n, k)
    searched = refuted = 0
    for p in (0.3, 0.5, 0.7, 0.8, 0.9):
        tp = ThresholdParams(params, p, 1, SEED)
        for t in range(12):
            sample = sample_subgraph(tp, t)
            best, _ = brute_force_maximum(list(sample.adjacency))
            result = ekr_holds(sample)
            assert result.holds == (best == params.star_size), (p, t)
            check_witness(sample, result)
            if count_superstars(sample) == 0:
                searched += 1
                refuted += not result.holds
    assert searched > refuted > 0


@pytest.mark.parametrize("n,k", [(12, 2), (14, 2), (8, 3)])
def test_ordered_decision_matches_index_order_search(n, k):
    params = GroundParams(n, k)
    target = params.star_size + 1
    verdicts = set()
    for p in (0.3, 0.5, 0.7):
        tp = ThresholdParams(params, p, 1, SEED)
        for t in range(10):
            sample = sample_subgraph(tp, t)
            size, _, _ = max_independent_set_masks(sample.adjacency, stop_at=target)
            result = ekr_holds(sample)
            assert result.holds == (size < target), (p, t)
            check_witness(sample, result)
            verdicts.add((result.holds, count_superstars(sample) > 0))
    # proofs, superstar failures and (at (12,2) and (14,2)) refuting searches
    assert {(True, False), (False, True)} <= verdicts
    if k == 2:
        assert (False, False) in verdicts


def test_refuting_witnesses_come_back_in_sample_order():
    # samples at (12,2), p = 0.5 with no superstar that still fail EKR; the
    # witness of each is independent in the sample only after the map back
    tp = ThresholdParams(GroundParams(12, 2), 0.5, 1, SEED)
    refuted = 0
    for t in range(200):
        sample = sample_subgraph(tp, t)
        if count_superstars(sample):
            continue
        result = ekr_holds(sample)
        check_witness(sample, result)
        refuted += not result.holds
    assert refuted >= 3


@pytest.mark.parametrize("n,k", [(5, 2), (9, 2), (8, 3), (9, 4), (10, 5)])
def test_star_incumbent_is_independent_in_the_full_graph(n, k):
    params = GroundParams(n, k)
    ctx = threshold._context(params)
    star = vertex_mask(ctx.star)
    graph = build_graph(params)
    assert star.bit_count() == params.star_size
    assert is_independent(graph.adjacency, star)
    full = sample_subgraph(ThresholdParams(params, 1.0, 1, 0), 0)
    assert full.adjacency == tuple(graph.adjacency)
    assert all(graph.vertices[v] & 1 for v in range(len(graph.vertices))
               if star >> v & 1)


def test_search_starts_from_the_star(monkeypatch):
    # the star is the incumbent, so the search only looks for a larger set
    seen = []
    real = threshold.max_independent_set_masks

    def search(adjacency, *, stop_at=None, initial=0, **kwargs):
        seen.append((stop_at, initial.bit_count(), is_independent(adjacency, initial)))
        return real(adjacency, stop_at=stop_at, initial=initial, **kwargs)

    monkeypatch.setattr(threshold, "max_independent_set_masks", search)
    params = GroundParams(10, 2)
    tp = ThresholdParams(params, 0.6, 1, SEED)
    for t in range(20):
        ekr_holds(sample_subgraph(tp, t))
    assert seen
    assert set(seen) == {(params.star_size + 1, params.star_size, True)}


def test_ekr_search_runs_no_greedy_pass(monkeypatch):
    # the star incumbent is the search's start, so no greedy set is built
    params, ps = GroundParams(14, 2), [0.5, 0.6, 0.7]
    want = estimate_probabilities(params, ps, 30, SEED)
    nodes = searched_nodes(monkeypatch)

    def greedy(adjacency):
        raise AssertionError("ekr_holds built a greedy set")

    monkeypatch.setattr(mis, "greedy_independent_set", greedy)
    assert estimate_probabilities(params, ps, 30, SEED) == want
    assert len(nodes) > 0


@pytest.mark.parametrize("n,k", [(12, 2), (14, 2), (9, 3)])
def test_search_labels_follow_the_order_key(n, k, monkeypatch):
    # the vertex of rank r by d - 3 * s / d ascending (d its degree in the
    # sample, s its neighbours' degree sum; ties to index) takes label
    # nv-1-r: the searched rows are the sample's relabelled so, and the
    # incumbent is the star at centre 1 under the same labels
    seen = []
    real = threshold.max_independent_set_masks

    def search(adjacency, *, initial=0, **kwargs):
        seen.append((tuple(adjacency), initial))
        return real(adjacency, initial=initial, **kwargs)

    monkeypatch.setattr(threshold, "max_independent_set_masks", search)
    params = GroundParams(n, k)
    nv = params.slice_size
    star = build_graph(params).star_vertex_masks[0]
    tp = ThresholdParams(params, 0.5, 1, SEED)
    searched = tied = 0
    for t in range(20):
        sample = sample_subgraph(tp, t)
        if count_superstars(sample):
            continue
        edges = list(zip(*(ends.tolist() for ends in sample.edges)))
        d = [0] * nv
        for a, b in edges:
            d[a] += 1
            d[b] += 1
        s = [0] * nv
        for a, b in edges:
            s[a] += d[b]
            s[b] += d[a]
        key = [d[x] - 3 * s[x] / d[x] for x in range(nv)]
        order = sorted(range(nv), key=lambda x: (key[x], x))
        label = {x: nv - 1 - r for r, x in enumerate(order)}
        rows = [0] * nv
        for a, b in edges:
            rows[label[a]] |= 1 << label[b]
            rows[label[b]] |= 1 << label[a]
        incumbent = sum(1 << label[x] for x in range(nv) if star >> x & 1)
        seen.clear()
        ekr_holds(sample)
        assert seen == [(tuple(rows), incumbent)], t
        searched += 1
        tied += len(set(key)) < nv
    assert searched and tied  # the tie rule is exercised


# K_p(9,4) at p = 0.95 is near-regular, so degree alone barely orders it:
# ordered by degree, these superstar-free trials took 178,885 to 791,571
# nodes each; weighing the neighbours' degrees, 8,472 to 21,102.
@pytest.mark.parametrize("trial", range(6))
def test_ordered_decision_settles_9_4_near_regular(trial, monkeypatch):
    nodes = searched_nodes(monkeypatch)
    sample = sample_subgraph(ThresholdParams(GroundParams(9, 4), 0.95, 1, SEED), trial)
    assert count_superstars(sample) == 0
    assert ekr_holds(sample).holds
    assert len(nodes) == 1 and nodes[0] < NODE_CAP // 100


# K_p(9,4) at p = 0.85: trials with no superstar whose search in K(n,k)'s
# index order takes 1.1M to 2.5M nodes; the ordered search decides each in
# under 1% of the node cap.
@pytest.mark.parametrize("trial", [4, 9, 10])
def test_ordered_decision_settles_9_4_within_the_node_cap(trial, monkeypatch):
    nodes = searched_nodes(monkeypatch)
    sample = sample_subgraph(ThresholdParams(GroundParams(9, 4), 0.85, 1, SEED), trial)
    assert count_superstars(sample) == 0
    assert ekr_holds(sample).holds
    assert len(nodes) == 1 and nodes[0] < NODE_CAP // 100



@pytest.mark.parametrize("n,k", [(12, 2), (14, 2), (9, 3)])
def test_searched_witnesses(n, k):
    # a proof's witness is the star at centre 1 in K(n,k)'s vertex order; a
    # refutation's is a set one larger than a star, independent in the sample
    params = GroundParams(n, k)
    star = build_graph(params).star_vertex_masks[0]
    tp = ThresholdParams(params, 0.5, 1, SEED)
    verdicts = set()
    for t in range(40):
        sample = sample_subgraph(tp, t)
        if count_superstars(sample):
            continue
        result = ekr_holds(sample)
        verdicts.add(result.holds)
        if result.holds:
            assert result.witness == star
        else:
            assert result.witness.bit_count() >= params.star_size + 1
            assert is_independent(sample.adjacency, result.witness)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n,k", [(5, 2), (8, 4), (9, 4)])
def test_full_graph_holds_without_a_search(n, k, monkeypatch):
    # a sample that keeps every edge is K(n,k), where the ratio bound
    # certifies EKR; (8,4) has n = 2k, and a search of K(9,4) hits the cap
    def search(*args, **kwargs):
        raise AssertionError("K(n,k) was searched")

    monkeypatch.setattr(threshold, "max_independent_set_masks", search)
    params = GroundParams(n, k)
    full = sample_subgraph(ThresholdParams(params, 1.0, 1, SEED), 0)
    result = ekr_holds(full)
    star = build_graph(params).star_vertex_masks[0]
    assert result.holds and result.witness == star
    assert estimate_probability(ThresholdParams(params, 1.0, 30, SEED))["successes"] == 30


def test_one_edge_short_of_the_full_graph_is_searched(monkeypatch):
    calls = []
    real = threshold.max_independent_set_masks

    def search(adjacency, **kwargs):
        calls.append(len(adjacency))
        return real(adjacency, **kwargs)

    monkeypatch.setattr(threshold, "max_independent_set_masks", search)
    # p = 1 - 2^-53 keeps every word but the largest, whose double is p
    tp = ThresholdParams(GroundParams(5, 2), 1 - 2**-53, 1, SEED)
    uniforms = threshold.trial_uniforms(tp, 0)
    assert max(uniforms.tolist()) < 2**64 - 1
    uniforms[7] = 2**64 - 1  # so every edge is kept but this one
    assert word_double(uniforms[7]) == tp.p
    sample = sample_subgraph(tp, 0, uniforms)
    assert np.count_nonzero(sample.keep) == 14 and count_superstars(sample) == 0
    ekr_holds(sample)
    assert calls == [10]


# Searches, B&B nodes and a digest of every (verdict, witness, nodes) of four
# 30-trial sweeps at seeds 1961 * 10^6 + i, i < 4.  Witnesses are in the
# sample's vertex order, so the pins do not depend on the labels the search
# runs on, only on the tree it visits.
TREE_PINS = {
    ((14, 2), (0.5, 0.6, 0.7)): (
        125, 27_117,
        "1084721cba4b36afb13e0814a62d35840b44dd463da5e474f0c4a899bf39035f"),
    ((10, 3), (0.4, 0.5)): (
        117, 239_188,
        "2ab63a468f2cc1f8c9ac2ad56ee71106ac7ccc022295a5c9c8e58826e0079bc2"),
    ((9, 3), (0.5, 0.7)): (
        125, 44_534,
        "0b5d08676aaebe85920084bfcbc2976bf31ed0ef4de024b3aeda01711714051c"),
}


@pytest.mark.parametrize("nk,ps", list(TREE_PINS))
def test_ekr_search_trees_are_pinned(nk, ps, monkeypatch):
    # any change to the order the EKR searches visit their trees in moves a
    # node count or a witness, and fails here on purpose
    nodes = searched_nodes(monkeypatch)
    verdicts = []
    real_ekr = threshold.ekr_holds

    def decide(sample):
        result = real_ekr(sample)
        verdicts.append(f"{int(result.holds)} {result.witness:x} {nodes[-1]}")
        return result

    monkeypatch.setattr(threshold, "ekr_holds", decide)
    for i in range(4):
        estimate_probabilities(GroundParams(*nk), list(ps), 30, SEED * 10**6 + i)
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()
    assert (len(nodes), sum(nodes), digest) == TREE_PINS[nk, ps]
