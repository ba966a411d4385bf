"""Exact maximum-independent-set search on bit-vector adjacency lists.

A graph on nv vertices is a list `adjacency` of nv ints; bit u of
adjacency[v] means {u,v} is an edge.  Candidate sets, chosen sets and clique
classes are all vertex-index bitmasks, so the inner loops are word ops.

One branch and bound, run on an explicit stack so that search depth is not
bounded by the interpreter's recursion limit.  It branches in colour order
(Tomita & Seki's MCQ, in the bitset form of San Segundo et al.'s BBMC) with
cliques of G as the colour classes: each node partitions its candidates into
cliques by first fit (greedy_clique_cover), forces in the vertices isolated
among them, and branches on the rest in reverse class order, cutting as soon
as the classes left cannot beat the incumbent.  Two entry points run it:

* max_independent_set_masks: optimisation from a greedy incumbent with an
  optional early-exit target (a set size to look for, or a certified bound on
  alpha), used on sampled subgraphs, K(n,k) and clique-union graphs.
* enumerate_maximum_independent_sets: every independent set whose size equals
  the (certified) independence number alpha, used to check that the stars
  are the only maximum ones in K(n,k).  The incumbent is held at alpha - 1,
  so each set that reaches alpha is recorded and none tightens the cut.

Node and solution caps raise instead of returning an approximation.
"""

from __future__ import annotations

from typing import Sequence

from .errors import SearchBudgetExceeded

DEFAULT_NODE_CAP = 5_000_000
SOLUTION_CAP = 1_000_000


def greedy_clique_cover(cand: int, adjacency: Sequence[int]) -> list[int]:
    """Greedy partition of cand into cliques, as class member masks.

    Each class starts at the lowest uncovered vertex and takes every later
    uncovered vertex adjacent to all members so far, one AND per vertex; this
    is first-fit in ascending vertex order.  An independent set meets each
    class at most once, so the class count bounds alpha of cand.
    """
    classes: list[int] = []
    while cand:
        members = 0
        fits = cand
        while fits:
            low = fits & -fits
            members |= low
            fits = (fits ^ low) & adjacency[low.bit_length() - 1]
        cand ^= members
        classes.append(members)
    return classes


def greedy_independent_set(adjacency: Sequence[int]) -> int:
    """Ascending-index greedy independent set, as a vertex mask."""
    taken = 0
    blocked = 0
    for v in range(len(adjacency)):
        bit = 1 << v
        if not blocked & bit:
            taken |= bit
            blocked |= adjacency[v] | bit
    return taken


def _branch_and_bound(
    adjacency: Sequence[int],
    cand: int,
    best: int,
    best_mask: int,
    goal: int,
    node_cap: int,
    found: set[int] | None = None,
) -> tuple[int, int, int]:
    """Search the independent sets inside the root candidate mask cand.

    Each node partitions its candidates by greedy_clique_cover.  The incumbent
    (best, best_mask) rises with each larger set found until it reaches goal.
    With a `found` set the incumbent stays fixed instead, and every set larger
    than it is added to found.  Returns (best, best_mask, node_count).
    """
    cover = greedy_clique_cover
    nodes = 0
    # One frame per open node: [size, chosen, cand, cover classes not yet
    # exhausted].  cand shrinks as its vertices are branched on.
    stack: list[list] = []
    size, chosen = 0, 0
    while True:
        nodes += 1
        if nodes > node_cap:
            raise SearchBudgetExceeded(f"search exceeded node cap {node_cap}")
        # An isolated candidate is a singleton class of any clique partition;
        # forcing it in keeps size + cand.bit_count() and every other class.
        if size + cand.bit_count() > best:
            classes = cover(cand, adjacency)
            iso = sum(c for c in classes if not c & (c - 1)
                      and not adjacency[c.bit_length() - 1] & cand)
            if iso:
                size, chosen, cand = size + iso.bit_count(), chosen | iso, cand ^ iso
                classes = [c for c in classes if not c & iso]
            if size > best:
                if found is None:
                    best, best_mask = size, chosen
                    if best >= goal:
                        break
                else:
                    found.add(chosen)
                    if len(found) > SOLUTION_CAP:
                        raise SearchBudgetExceeded(
                            f"enumeration exceeded solution cap {SOLUTION_CAP}")
            if classes:  # else a leaf: nothing left to branch on
                stack.append([size, chosen, cand, classes])
        # Descend from the deepest open node into its next vertex, taking the
        # classes last first.  The vertices left in classes 1..c are covered by
        # c cliques, so once size + c <= best (best read live, after every
        # child returns) no set through this node can beat the incumbent.
        while stack:
            frame = stack[-1]
            size, chosen, cand, classes = frame
            if size + len(classes) <= best:
                stack.pop()
                continue
            members = classes[-1]
            low = members & -members
            if members == low:
                classes.pop()
            else:
                classes[-1] = members ^ low
            frame[2] = cand ^ low
            size += 1
            chosen |= low
            cand &= ~adjacency[low.bit_length() - 1] & ~low
            break
        else:
            break  # every node is closed: nothing beats best
    return best, best_mask, nodes


def max_independent_set_masks(
    adjacency: Sequence[int],
    *,
    stop_at: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    initial: int = 0,
) -> tuple[int, int, int]:
    """Exact maximum independent set; returns (size, witness_mask, node_count).

    stop_at: return as soon as an independent set of this size is found
    (the reported witness is then of size >= stop_at, not necessarily maximum).
    initial: a known independent set used as the starting incumbent.
    """
    nv = len(adjacency)
    best_mask = initial
    best = initial.bit_count()
    greedy = greedy_independent_set(adjacency)
    if greedy.bit_count() > best:
        best, best_mask = greedy.bit_count(), greedy
    # stop once the incumbent reaches goal; nv + 1 is never reached
    goal = nv + 1 if stop_at is None else stop_at
    if best >= goal:
        return best, best_mask, 0
    return _branch_and_bound(adjacency, (1 << nv) - 1, best, best_mask, goal,
                             node_cap)


def enumerate_maximum_independent_sets(
    adjacency: Sequence[int],
    alpha: int,
    *,
    containment_groups: Sequence[int] | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[list[int], int]:
    """All independent sets of size exactly alpha, where alpha = alpha(G).

    The caller must pass the true independence number: a set found at alpha
    is then maximal, so the search records it and goes no deeper.
    containment_groups: optional vertex masks with an external guarantee
    that every maximum independent set lies inside one of them; each group
    is then searched as its own root.  Returns (sorted solution masks, node
    count); more than SOLUTION_CAP solutions raise.
    """
    full = (1 << len(adjacency)) - 1
    roots = [full] if containment_groups is None else [
        g & full for g in containment_groups]
    found: set[int] = set()
    nodes = 0
    for root in roots:
        nodes += _branch_and_bound(adjacency, root, alpha - 1, 0, alpha,
                                   node_cap - nodes, found)[2]
    return sorted(found), nodes
