"""Exact maximum-independent-set machinery on bit-vector adjacency lists.

A graph on nv vertices is a list `adjacency` of nv ints; bit u of
adjacency[v] means {u,v} is an edge.  Candidate sets, chosen sets and clique
classes are all vertex-index bitmasks, so the inner loops are word ops.

Two engines, both run on explicit stacks so that search depth is not bounded
by the interpreter's recursion limit:

* max_independent_set_masks: optimisation branch and bound with an optional
  early-exit target, used on sampled subgraphs and clique-union graphs.
  Colour-ordered branching (Tomita & Seki's MCQ, in the bitset form of San
  Segundo et al.'s BBMC) with cliques of G as the colour classes: each node
  builds one greedy clique cover and branches on its vertices in reverse
  cover order, cutting as soon as the classes left cannot beat the incumbent.
* enumerate_maximum_independent_sets: every independent set whose size equals
  the (certified) independence number, used for uniqueness checks.  Accepts an
  optional static clique partition (from a 1-factorisation / Baranyai split)
  whose hit count is a much cheaper bound than a recomputed cover on dense
  Kneser graphs.

Both engines apply two reductions that are safe when chasing maximum sets:
vertices isolated inside the candidate set are forced into the solution, and
an edgeless candidate set closes the node in O(1).  Node caps raise instead
of returning an approximation.
"""

from __future__ import annotations

from typing import Sequence

from .errors import SearchBudgetExceeded

DEFAULT_NODE_CAP = 5_000_000


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


def _isolated_vertices(cand: int, adjacency: Sequence[int]) -> int:
    """Mask of candidate vertices with no neighbour inside cand."""
    iso = 0
    m = cand
    while m:
        low = m & -m
        if not adjacency[low.bit_length() - 1] & cand:
            iso |= low
        m ^= low
    return iso


def max_independent_set_masks(
    adjacency: Sequence[int],
    *,
    stop_at: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    initial: int = 0,
    upper_bound: int | None = None,
) -> tuple[int, int, int]:
    """Exact maximum independent set; returns (size, witness_mask, node_count).

    stop_at: return as soon as an independent set of this size is found
    (the reported witness is then of size >= stop_at, not necessarily maximum).
    initial: a known independent set used as the starting incumbent.
    upper_bound: externally certified bound on alpha; search stops when reached.
    """
    nv = len(adjacency)
    best_mask = initial
    best = initial.bit_count()
    greedy = greedy_independent_set(adjacency)
    if greedy.bit_count() > best:
        best, best_mask = greedy.bit_count(), greedy
    # stop once the incumbent reaches goal; nv + 1 is never reached
    goal = min((t for t in (stop_at, upper_bound) if t is not None), default=nv + 1)
    if best >= goal:
        return best, best_mask, 0

    nodes = 0
    # One frame per open node: [size, chosen, cand, cover classes not yet
    # exhausted].  cand shrinks as its vertices are branched on.
    stack: list[list] = []
    size, chosen, cand = 0, 0, (1 << nv) - 1
    while True:
        nodes += 1
        if nodes > node_cap:
            raise SearchBudgetExceeded(
                f"max_independent_set exceeded node cap {node_cap}")
        # Isolated vertices are singleton classes of the first-fit cover; forcing
        # them in keeps size + cand.bit_count() and every other class.
        if size + cand.bit_count() > best:
            classes = greedy_clique_cover(cand, adjacency)
            iso = sum(c for c in classes if not c & (c - 1)
                      and not adjacency[c.bit_length() - 1] & cand)
            if iso:
                size, chosen, cand = size + iso.bit_count(), chosen | iso, cand ^ iso
                classes = [c for c in classes if not c & iso]
            if size > best:
                best, best_mask = size, chosen
                if best >= goal:
                    break
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
            break  # every node is closed: best is alpha
    return best, best_mask, nodes


# Branch over a closed neighbourhood when the locally sparsest candidate has
# at most this many candidate neighbours.
_SPARSE_BRANCH_DEGREE = 10


def enumerate_maximum_independent_sets(
    adjacency: Sequence[int],
    alpha: int,
    *,
    clique_classes: Sequence[int] | None = None,
    containment_groups: Sequence[int] | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    solution_cap: int = 1_000_000,
) -> tuple[list[int], int]:
    """All independent sets of size exactly alpha, where alpha = alpha(G).

    The caller must pass the true independence number (the forced-inclusion
    reduction is only sound at that target).  clique_classes: optional clique
    partition of the vertex set; the number of classes meeting the candidate
    set is then the pruning bound.  Without it a greedy cover is recomputed at
    every node.  containment_groups: optional vertex masks with an
    external guarantee that every maximum independent set lies inside one of
    them; prefixes contained in no group are then pruned.  Returns (sorted
    solution masks, node count).
    """
    nv = len(adjacency)
    full = (1 << nv) - 1
    solutions: list[int] = []
    nodes = 0
    classes = tuple(clique_classes) if clique_classes is not None else None
    groups = tuple(containment_groups) if containment_groups is not None else None

    def cover_members(cand: int, needed: int) -> list[int] | None:
        """Nonempty clique-class member masks, or None once count > needed."""
        if classes is not None:
            members = []
            for cm in classes:
                mem = cm & cand
                if mem:
                    members.append(mem)
                    if len(members) > needed:
                        return None
            return members
        members = greedy_clique_cover(cand, adjacency)
        return None if len(members) > needed else members

    def emit(mask: int) -> None:
        solutions.append(mask)
        if len(solutions) > solution_cap:
            raise SearchBudgetExceeded(
                f"enumeration exceeded solution cap {solution_cap}")

    def children(size: int, chosen: int, cand: int) -> list[tuple[int, int, int]]:
        """Close one node; return its child nodes in search order."""
        if groups is not None and chosen:
            restriction = 0
            confined = False
            for g in groups:
                if chosen & ~g == 0:
                    restriction |= g
                    confined = True
            if not confined:
                return []
            cand &= restriction
        while True:
            iso = _isolated_vertices(cand, adjacency)
            if iso:
                size += iso.bit_count()
                chosen |= iso
                cand ^= iso
            if size == alpha:
                emit(chosen)
                return []
            if size > alpha:
                return []  # unreachable when alpha is the true independence number
            needed = alpha - size
            if not cand or cand.bit_count() < needed:
                return []
            members = cover_members(cand, needed)
            if members is None:
                break  # more classes than needed: bound cannot prune or force
            if len(members) < needed:
                return []
            # Exactly `needed` nonempty cliques cover cand, so a solution takes
            # one vertex per clique; singleton cliques are forced moves.
            forced = 0
            for mem in members:
                if mem & (mem - 1) == 0:
                    forced |= mem
            if not forced:
                break
            progressed = False
            m = forced
            while m:
                low = m & -m
                m ^= low
                if not cand & low:
                    continue  # died when an earlier forced vertex was included
                size += 1
                chosen |= low
                cand &= ~adjacency[low.bit_length() - 1] & ~low
                progressed = True
            if not progressed:
                break
        # Every maximum independent set extending `chosen` inside cand meets
        # the closed candidate neighbourhood of any candidate vertex (else it
        # could be enlarged), so branching over N[v] with sibling exclusion is
        # complete.  In locally sparse regions a minimum-degree v keeps that
        # branch factor tiny; in dense regions an ascending include/exclude
        # loop with bound rechecks fans out less.
        # No check between siblings depends on what an earlier sibling found,
        # so all children are listed at once.
        kids = []
        v = _min_degree_vertex(cand, adjacency)
        local_degree = (adjacency[v] & cand).bit_count()
        if local_degree <= _SPARSE_BRANCH_DEGREE:
            branch = (adjacency[v] & cand) | (1 << v)
            banned = 0
            m = branch
            while m:
                low = m & -m
                w = low.bit_length() - 1
                kids.append((size + 1, chosen | low,
                             cand & ~adjacency[w] & ~low & ~banned))
                banned |= low
                m ^= low
            return kids
        while cand:
            needed = alpha - size
            if cand.bit_count() < needed:
                break
            if classes is not None:
                members = cover_members(cand, needed)
                if members is not None and len(members) < needed:
                    break
            low = cand & -cand
            w = low.bit_length() - 1
            kids.append((size + 1, chosen | low, cand & ~adjacency[w] & ~low))
            cand ^= low
        return kids

    stack = [(0, 0, full)]
    while stack:
        nodes += 1
        if nodes > node_cap:
            raise SearchBudgetExceeded(f"enumeration exceeded node cap {node_cap}")
        stack.extend(reversed(children(*stack.pop())))
    return sorted(solutions), nodes


def _min_degree_vertex(cand: int, adjacency: Sequence[int]) -> int:
    """Candidate vertex of minimum degree within cand, ties to lowest index."""
    best_v = -1
    best_d = 1 << 60
    m = cand
    while m:
        low = m & -m
        v = low.bit_length() - 1
        d = (adjacency[v] & cand).bit_count()
        if d < best_d:
            best_d, best_v = d, v
            if d == 1:
                break  # isolated vertices were already forced in
        m ^= low
    return best_v


def brute_force_maximum(adjacency: Sequence[int]) -> tuple[int, list[int]]:
    """2^nv subset scan: (alpha, all maximum independent sets).  Test oracle."""
    nv = len(adjacency)
    if nv > 22:
        raise SearchBudgetExceeded("brute force oracle limited to 22 vertices")
    best = 0
    sols: list[int] = []
    for mask in range(1 << nv):
        size = mask.bit_count()
        if size < best:
            continue
        m = mask
        ok = True
        while m:
            low = m & -m
            if adjacency[low.bit_length() - 1] & mask:
                ok = False
                break
            m ^= low
        if not ok:
            continue
        if size > best:
            best = size
            sols = [mask]
        else:
            sols.append(mask)
    return best, sols
