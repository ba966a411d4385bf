"""Exact maximum-independent-set search on bit-vector adjacency lists.

A graph on nv vertices is a list `adjacency` of nv ints; bit u of
adjacency[v] means {u,v} is an edge.  Candidate sets, chosen sets and clique
classes are all vertex-index bitmasks, so the inner loops are word ops.  A
set bit v of adjacency[v] (a loop) is ignored: alpha is that of the loop-free
graph.

One branch and bound, run on an explicit stack so that search depth is not
bounded by the interpreter's recursion limit.  It bounds by colour classes
(Tomita & Seki's MCQ, in the bitset form of San Segundo et al.'s BBMC) with
cliques of G as the classes: each node covers its candidates by first fit
in descending vertex order and stops once it has best - size classes, as
many as a set through the node may meet without beating the incumbent.  A
larger set must take a vertex the cover leaves out, so the node branches on
those alone (the spill), lowest first, each excluded from its later
siblings; a node with no spill is cut.  The cover reads its vertices
highest bit first in the caller's own labels, so a caller that wants a
vertex covered early gives it a high index.  The search's tables hold
vertex v at index v + 1, the bit length of 1 << v, so a mask's highest
vertex is read at its bit_length(), with no subtraction.

max_independent_set_masks is the one entry point: optimisation from the
caller's incumbent, else a greedy one, with an optional early-exit target (a
set size to look for, or a certified bound on alpha).  threshold.ekr_holds,
its one package caller, passes a star, so it runs no greedy pass.  The node
cap, NODE_CAP, raises instead of returning an approximation.
"""

from __future__ import annotations

from typing import Sequence

from .errors import SearchBudgetExceeded

NODE_CAP = 5_000_000


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
    """(rows, excl, bits), each indexed by bit length: entry v + 1 holds
    vertex v's loop-free neighbour mask, the mask of candidates that survive
    taking v, ~(rows[v + 1] | bits[v + 1]), and its bit 1 << v.  Entry 0,
    the bit length of no vertex, is never read."""
    nv = len(adjacency)
    full = (1 << nv) - 1
    bits = [0] + [1 << v for v in range(nv)]
    rows = [row & (full ^ bit) for row, bit in zip((0, *adjacency), bits)]
    return rows, [~(row | bit) for row, bit in zip(rows, bits)], bits


def _branch_and_bound(
    rows: Sequence[int],
    excl: Sequence[int],
    bits: Sequence[int],
    cand: int,
    best: int,
    best_mask: int,
    goal: int,
) -> tuple[int, int, int]:
    """Search the independent sets inside the candidate mask cand.

    rows, excl and bits come from _search_rows, indexed by bit length: the
    highest vertex of a mask x is read at x.bit_length().  The incumbent
    (best, best_mask) rises with each larger set found until it reaches
    goal.  More than NODE_CAP nodes raise.  Returns (best, best_mask,
    node_count).

    A node covers its candidates with at most best - size first-fit cliques,
    highest uncovered vertex first, and branches on the spill, the
    candidates left uncovered, lowest label first.  Each branch takes one
    vertex, so a larger set shows at the node a branch enters.
    """
    cap = NODE_CAP
    nodes = 0
    # One frame per open node with a sibling left: (size, chosen, cand,
    # spill), where cand has lost the spill vertices already branched on.
    stack: list[tuple[int, int, int, int]] = []
    size = chosen = 0
    while True:
        nodes += 1
        if nodes > cap:
            raise SearchBudgetExceeded(f"search exceeded node cap {cap}")
        if size > best:  # only the branch into this node raised size
            best, best_mask = size, chosen
            if best >= goal:
                break
        spill = 0
        if size + cand.bit_count() > best:
            # First-fit clique cover from the highest uncovered vertex down:
            # each class takes every lower uncovered vertex adjacent to all
            # its members so far.  Whatever best - size classes leave over
            # is the spill.
            spill = cand
            for _ in range(best - size):
                if not spill:
                    break
                v = spill.bit_length()
                fits = spill & rows[v]
                spill ^= bits[v]
                while fits:
                    w = fits.bit_length()
                    spill ^= bits[w]
                    fits &= rows[w]
        if not spill:  # no set through this node beats best
            if not stack:
                break  # every node is closed
            size, chosen, cand, spill = stack.pop()
        # Take the lowest spill vertex; its later siblings go without it.
        bit = spill & -spill
        if spill != bit:
            stack.append((size, chosen, cand ^ bit, spill ^ bit))
        size += 1
        chosen |= bit
        cand &= excl[bit.bit_length()]
    return best, best_mask, nodes


def max_independent_set_masks(
    adjacency: Sequence[int],
    *,
    stop_at: int | None = None,
    initial: int | None = None,
) -> tuple[int, int, int]:
    """Exact maximum independent set; returns (size, witness_mask, node_count).

    stop_at: return as soon as an independent set of this size is found
    (the reported witness is then of size >= stop_at, not necessarily maximum).
    initial: a known independent set, the starting incumbent; without one the
    search starts from greedy_independent_set.
    """
    nv = len(adjacency)
    best_mask = greedy_independent_set(adjacency) if initial is None else initial
    best = best_mask.bit_count()
    # stop once the incumbent reaches goal; nv + 1 is never reached
    goal = nv + 1 if stop_at is None else stop_at
    if best >= goal:
        return best, best_mask, 0
    return _branch_and_bound(*_search_rows(adjacency), (1 << nv) - 1,
                             best, best_mask, goal)

