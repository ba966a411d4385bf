"""mis: the exact solver against the brute-force and recursive oracles."""

import random
import subprocess
import sys
import textwrap

import pytest

from kneserlab import mis
from kneserlab.errors import SearchBudgetExceeded
from kneserlab.mis import greedy_independent_set, max_independent_set_masks
from oracles import (
    _children,
    brute_force_maximum,
    greedy_clique_cover,
    recursive_enumeration,
)


def random_graph(nv, p, seed):
    rng = random.Random(seed)
    adjacency = [0] * nv
    for u in range(nv):
        for v in range(u + 1, nv):
            if rng.random() < p:
                adjacency[u] |= 1 << v
                adjacency[v] |= 1 << u
    return adjacency


def is_independent(mask, adjacency):
    m = mask
    while m:
        low = m & -m
        if adjacency[low.bit_length() - 1] & mask:
            return False
        m ^= low
    return True


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("p", [0.15, 0.4, 0.7])
def test_solver_matches_brute_force(seed, p):
    nv = 8 + (seed % 7)
    adjacency = random_graph(nv, p, seed)
    best_oracle, sols_oracle = brute_force_maximum(adjacency)
    size, mask, _ = max_independent_set_masks(adjacency)
    assert size == best_oracle
    assert is_independent(mask, adjacency)
    assert mask.bit_count() == size


def perfect_matching(nv):
    return [1 << (v ^ 1) for v in range(nv)]


@pytest.mark.parametrize("adjacency", [
    *(pytest.param(random_graph(9 + seed % 6, 0.35, seed + 50), id=str(seed))
      for seed in range(8)),
    pytest.param(perfect_matching(14), id="matching"),  # 2^7 maximum sets
])
def test_enumeration_matches_brute_force(adjacency):
    # the unpruned reference that K(n,k)'s maximum sets are checked against
    best, sols = brute_force_maximum(adjacency)
    assert recursive_enumeration(adjacency, best) == sorted(sols)


def test_greedy_and_cover_are_valid_bounds():
    adjacency = random_graph(14, 0.3, 9)
    best, _ = brute_force_maximum(adjacency)
    greedy = greedy_independent_set(adjacency).bit_count()
    cover = len(greedy_clique_cover((1 << 14) - 1, adjacency))
    assert greedy <= best <= cover


def test_stop_at_early_exit():
    adjacency = random_graph(16, 0.2, 4)
    best, _ = brute_force_maximum(adjacency)
    size, mask, _ = max_independent_set_masks(adjacency, stop_at=3)
    assert size >= 3
    assert is_independent(mask, adjacency)
    assert best >= size


def test_node_cap_raises_instead_of_approximating(monkeypatch):
    adjacency = random_graph(18, 0.5, 11)
    monkeypatch.setattr(mis, "NODE_CAP", 1)
    with pytest.raises(SearchBudgetExceeded, match="node cap 1$"):
        max_independent_set_masks(adjacency)


@pytest.mark.parametrize("seed", range(20))
def test_loops_are_ignored(seed, monkeypatch):
    # a loop (bit v of row v) must neither hang the search nor change alpha:
    # the answers are those of the loop-free graph
    nv = 10 + seed % 9
    adjacency = random_graph(nv, [0.2, 0.4, 0.6][seed % 3], 700 + seed)
    rng = random.Random(seed)
    looped = [row | (rng.random() < 0.5) << v for v, row in enumerate(adjacency)]
    assert looped != adjacency
    alpha, _ = brute_force_maximum(adjacency)
    monkeypatch.setattr(mis, "NODE_CAP", 10_000)
    for stop_at in (None, alpha):
        size, mask, _ = max_independent_set_masks(looped, stop_at=stop_at)
        assert size == alpha == mask.bit_count()
        assert is_independent(mask, adjacency)


def test_empty_graph_and_complete_graph():
    assert max_independent_set_masks([0] * 5)[0] == 5
    full = [(0b11111 ^ (1 << v)) for v in range(5)]
    size, mask, _ = max_independent_set_masks(full)
    assert size == 1


def test_tables_indexed_by_bit_length_at_the_edges():
    # no vertex: one node, the empty set
    assert max_independent_set_masks([]) == (0, 0, 1)
    # one vertex, with and without a loop: the greedy takes it, and a search
    # from it has no candidate left to beat it with
    for row in (0, 1):
        assert max_independent_set_masks([row]) == (1, 1, 1)
        assert max_independent_set_masks([row], stop_at=1) == (1, 1, 0)


def descending_greedy(adjacency):
    """Take each vertex, highest index first, that no taken one is adjacent to."""
    taken = 0
    for v in reversed(range(len(adjacency))):
        if not adjacency[v] & taken:
            taken |= 1 << v
    return taken


def recursive_search(adjacency, stop_at=None, initial=None):
    """The solver's search written recursively on the caller's labelling,
    from the caller's incumbent, else the descending greedy, each cover from
    its highest vertex and each spill from its lowest: (size, witness, node
    count)."""
    best_mask = descending_greedy(adjacency) if initial is None else initial
    best = best_mask.bit_count()
    goal = stop_at if stop_at is not None else len(adjacency) + 1
    if best >= goal:
        return best, best_mask, 0
    nodes = 0

    def visit(size, chosen, cand):
        nonlocal best, best_mask, nodes
        nodes += 1
        if size > best:
            best, best_mask = size, chosen
            if best >= goal:
                return True
        if size + cand.bit_count() <= best:
            return False
        return any(visit(size + 1, chosen | bit, child)
                   for bit, child in _children(size, cand, adjacency, best))

    visit(0, 0, (1 << len(adjacency)) - 1)
    return best, best_mask, nodes


@pytest.mark.parametrize("seed", range(10))
def test_explicit_stack_visits_the_recursive_search_tree(seed):
    # equal node counts mean every node sizes its cover by the incumbent as
    # it stands after the previous sibling's subtree, as the recursive form
    # does; equal witnesses mean the cover starts from the caller's highest
    # vertex and the spill is taken lowest first, as this form does
    adjacency = random_graph(28 + seed, [0.15, 0.3, 0.5][seed % 3], 300 + seed)
    alpha = recursive_search(adjacency)[0]
    for stop_at in (None, alpha, alpha - 1):
        size, mask, nodes = max_independent_set_masks(adjacency, stop_at=stop_at)
        assert (size, mask, nodes) == recursive_search(adjacency, stop_at)
        assert is_independent(mask, adjacency) and mask.bit_count() == size


def planted_graph(nv, planted, seed):
    """A G(nv, 0.6) graph with no edge inside a random set of `planted`
    vertices from the lower half, where the descending greedy comes last,
    drawn again until that set is a maximum one: (adjacency, the planted
    set, the maximum sets)."""
    while True:
        adjacency = random_graph(nv, 0.6, seed)
        rng = random.Random(seed)
        inside = sum(1 << v for v in rng.sample(range(nv // 2 + 1), planted))
        adjacency = [row & ~inside if inside >> v & 1 else row
                     for v, row in enumerate(adjacency)]
        alpha, sols = brute_force_maximum(adjacency)
        if alpha == planted:
            return adjacency, inside, sols
        seed += 1000


@pytest.mark.parametrize("seed", range(12))
def test_star_style_decision_from_a_planted_incumbent(seed):
    # ekr_holds's mode: an incumbent passed as `initial` and a target one
    # above it, here on the caller's labels rather than a degree order
    nv = 15 + seed % 3
    adjacency, planted, sols = planted_graph(nv, 7, 500 + seed)
    alpha = planted.bit_count()
    # a maximum incumbent stands: the search proves that nothing beats it
    result = max_independent_set_masks(adjacency, stop_at=alpha + 1, initial=planted)
    assert result == recursive_search(adjacency, alpha + 1, planted)
    assert result[:2] == (alpha, planted) and result[2] > 0
    # one vertex short, the incumbent must be beaten by a maximum set
    smaller = planted & (planted - 1)
    assert greedy_independent_set(adjacency).bit_count() < smaller.bit_count()
    result = max_independent_set_masks(adjacency, stop_at=alpha, initial=smaller)
    assert result == recursive_search(adjacency, alpha, smaller)
    assert result[0] == alpha and result[1] in sols


@pytest.mark.parametrize("seed", range(8))
def test_an_incumbent_smaller_than_the_greedy_set_is_the_start(seed, monkeypatch):
    # the caller's incumbent replaces the greedy start, even a smaller one:
    # no greedy pass runs, and a target the greedy set meets is searched for
    adjacency = random_graph(18 + seed, [0.2, 0.35][seed % 2], 900 + seed)
    greedy = greedy_independent_set(adjacency)
    alpha = recursive_search(adjacency)[0]
    monkeypatch.setattr(mis, "greedy_independent_set", None)  # a call would raise
    for initial in (0, greedy & -greedy):
        assert initial.bit_count() < greedy.bit_count()
        for stop_at in (None, alpha, greedy.bit_count()):
            result = max_independent_set_masks(adjacency, stop_at=stop_at, initial=initial)
            assert result == recursive_search(adjacency, stop_at, initial)
            assert result[2] > 0 and is_independent(result[1], adjacency)
        assert result[0] >= greedy.bit_count()


def test_targets_and_incumbent_against_oracle():
    bounded_nodes = free_nodes = 0
    for seed in range(8):
        adjacency = random_graph(14 + seed % 5, 0.3, 200 + seed)
        alpha, sols = brute_force_maximum(adjacency)
        # a target above alpha is never reached, so the search runs to the end
        size, mask, _ = max_independent_set_masks(adjacency, stop_at=alpha + 1)
        assert size == alpha == mask.bit_count()
        assert is_independent(mask, adjacency)
        # a certified bound ends the search as soon as it is met ...
        free_size, free_mask, nodes = max_independent_set_masks(adjacency)
        size, _, bounded = max_independent_set_masks(adjacency, stop_at=alpha)
        assert size == free_size == alpha and bounded <= nodes
        bounded_nodes += bounded
        free_nodes += nodes
        # ... at once when the incumbent already meets it
        other = next((s for s in sols if s != free_mask), sols[0])
        assert max_independent_set_masks(
            adjacency, initial=other, stop_at=alpha) == (alpha, other, 0)
        # an incumbent the search cannot beat is returned as the witness
        assert max_independent_set_masks(adjacency, initial=other)[:2] == (alpha, other)
    assert bounded_nodes < free_nodes


def test_import_keeps_recursion_limit_and_deep_search_runs():
    script = textwrap.dedent("""
        import sys
        limit = sys.getrecursionlimit()
        import kneserlab, kneserlab.cli
        assert sys.getrecursionlimit() == limit, sys.getrecursionlimit()
        from kneserlab.mis import max_independent_set_masks
        sys.setrecursionlimit(200)
        # 300 disjoint 3-vertex paths, each centre at the path's highest
        # index: the greedy, walking down, takes the 300 centres, and the
        # search must go 300 deep to take both ends of every path
        adjacency = [0] * 900
        for c in range(2, 900, 3):
            for end in (c - 2, c - 1):
                adjacency[c] |= 1 << end
                adjacency[end] |= 1 << c
        size, _, nodes = max_independent_set_masks(adjacency)
        print(size, nodes)
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    size, nodes = proc.stdout.split()
    assert size == "600" and int(nodes) >= 300
