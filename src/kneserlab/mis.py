"""Exact maximum-independent-set search on bit-vector adjacency lists.

A graph on nv vertices is a list `adjacency` of nv ints; bit u of
adjacency[v] means {u,v} is an edge.  Candidate sets, chosen sets and clique
classes are all vertex-index bitmasks, so the inner loops are word ops.  A
set bit v of adjacency[v] (a loop) is ignored: alpha is that of the loop-free
graph.

One branch and bound, run on an explicit stack so that search depth is not
bounded by the interpreter's recursion limit.  It branches in colour order
(Tomita & Seki's MCQ, in the bitset form of San Segundo et al.'s BBMC) with
cliques of G as the colour classes: each node partitions its candidates into
cliques by first fit in descending vertex order, forces in the vertices
isolated among them, and branches on the rest in reverse class order, taking
each class's vertices highest first and cutting as soon as the classes left
cannot beat the incumbent.  Every step reads its vertex as
x.bit_length() - 1, so the walk is highest bit first in the caller's own
labels; a caller that wants a vertex visited early gives it a high index.
Two entry points run it:

* max_independent_set_masks: optimisation from a greedy incumbent with an
  optional early-exit target (a set size to look for, or a certified bound on
  alpha), used on sampled subgraphs, K(n,k) and clique-union graphs.
* enumerate_maximum_independent_sets: every independent set whose size equals
  the (certified) independence number alpha, used to check that the stars
  are the only maximum ones in K(n,k).  The incumbent is held at alpha - 1,
  so each set that reaches alpha is recorded and none tightens the cut.

The node and solution caps, NODE_CAP and SOLUTION_CAP, raise instead of
returning an approximation.
"""

from __future__ import annotations

from typing import Sequence

from .errors import SearchBudgetExceeded

NODE_CAP = 5_000_000
SOLUTION_CAP = 1_000_000


def greedy_independent_set(adjacency: Sequence[int]) -> int:
    """Descending-index greedy independent set, as a vertex mask."""
    taken = 0
    blocked = 0
    for v in range(len(adjacency) - 1, -1, -1):
        bit = 1 << v
        if not blocked & bit:
            taken |= bit
            blocked |= adjacency[v] | bit
    return taken


def _search_rows(adjacency: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """(rows, excl, bits): loop-free neighbour masks, the mask of candidates
    that survive taking each vertex, ~(rows[v] | bits[v]), and bits[v] = 1 << v."""
    nv = len(adjacency)
    full = (1 << nv) - 1
    bits = [1 << v for v in range(nv)]
    rows = [row & (full ^ bit) for row, bit in zip(adjacency, bits)]
    return rows, [~(row | bit) for row, bit in zip(rows, bits)], bits


def _branch_and_bound(
    rows: Sequence[int],
    excl: Sequence[int],
    bits: Sequence[int],
    cand: int,
    best: int,
    best_mask: int,
    goal: int,
    budget: int,
    found: set[int] | None = None,
) -> tuple[int, int, int]:
    """Search the independent sets inside the root candidate mask cand.

    rows, excl and bits come from _search_rows.  The incumbent (best,
    best_mask) rises with each larger set found until it reaches goal.  With
    a `found` set the incumbent stays fixed instead, and every set larger
    than it is added to found.  More than budget nodes, the part of NODE_CAP
    left to the call, raise.  Returns (best, best_mask, node_count).
    """
    nodes = 0
    # One frame per open node: [size, chosen, cand, cover classes not yet
    # exhausted].  cand shrinks as its vertices are branched on.
    stack: list[list] = []
    size, chosen = 0, 0
    while True:
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"search exceeded node cap {NODE_CAP}")
        if size + cand.bit_count() > best:
            # First-fit clique cover from the highest uncovered vertex down:
            # each class takes every lower uncovered vertex adjacent to all
            # its members so far.  A vertex with no neighbour among the
            # candidates is forced in instead; it would be a singleton class
            # of any clique partition, so size + cand.bit_count() and every
            # other class stay as they were.
            classes = []
            rest = cand
            while rest:
                v = rest.bit_length() - 1
                row = rows[v]
                bit = bits[v]
                fits = rest & row
                if not fits and not row & cand:
                    size += 1
                    chosen |= bit
                    cand ^= bit
                    rest ^= bit
                    continue
                members = bit
                while fits:
                    w = fits.bit_length() - 1
                    members |= bits[w]
                    fits &= rows[w]
                rest ^= members
                classes.append(members)
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
            v = members.bit_length() - 1
            bit = bits[v]
            if members == bit:
                classes.pop()
            else:
                classes[-1] = members ^ bit
            frame[2] = cand ^ bit
            size += 1
            chosen |= bit
            cand &= excl[v]
            break
        else:
            break  # every node is closed: nothing beats best
    return best, best_mask, nodes


def max_independent_set_masks(
    adjacency: Sequence[int],
    *,
    stop_at: int | None = None,
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
    return _branch_and_bound(*_search_rows(adjacency), (1 << nv) - 1,
                             best, best_mask, goal, NODE_CAP)


def enumerate_maximum_independent_sets(
    adjacency: Sequence[int],
    alpha: int,
    *,
    containment_groups: Sequence[int] | None = None,
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
    tables = _search_rows(adjacency)
    found: set[int] = set()
    nodes = 0
    for root in roots:
        nodes += _branch_and_bound(*tables, root, alpha - 1, 0, alpha,
                                   NODE_CAP - nodes, found)[2]
    return sorted(found), nodes
