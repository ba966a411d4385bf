"""Slow reference implementations that the tests check the package against."""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from kneserlab.errors import DomainError, SearchBudgetExceeded
from kneserlab.families import (
    FamilyStats,
    GroundParams,
    SetFamily,
    degree_profile,
    disjoint_pairs,
    elements_from_mask,
    mask_from_elements,
)
from kneserlab.graphs import BaranyaiPartition, KneserGraph
from kneserlab.mis import max_independent_set_masks
from kneserlab.removal import CenterSetReport, RemovalReport
from kneserlab.spectral import ResidualBoundReport, SpectralDecomposition


def gosper_masks(n: int, k: int) -> Iterator[int]:
    """All k-subset masks of [n] in increasing numeric order, by Gosper's hack:
    the next mask with as many bits, one at a time."""
    if k == 0:
        yield 0
        return
    limit = 1 << n
    v = (1 << k) - 1
    while v < limit:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def brute_force_maximum(adjacency: Sequence[int]) -> tuple[int, list[int]]:
    """2^nv subset scan: (alpha, all maximum independent sets)."""
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


def greedy_clique_cover(cand: int, adjacency: Sequence[int]) -> list[int]:
    """Greedy partition of cand into cliques, as class member masks.

    Each class starts at the highest uncovered vertex and takes every lower
    uncovered vertex adjacent to all members so far, one AND per vertex; this
    is first-fit in descending vertex order, the cover that the search in
    kneserlab.mis computes inline at each node.  An independent set meets
    each class at most once, so the class count bounds alpha of cand.
    """
    classes: list[int] = []
    while cand:
        members = 0
        fits = cand
        while fits:
            v = fits.bit_length() - 1
            members |= 1 << v
            fits = (fits ^ 1 << v) & adjacency[v]
        cand ^= members
        classes.append(members)
    return classes


def _children(size: int, cand: int, adjacency: Sequence[int],
              best: int) -> Iterator[tuple[int, int]]:
    """The node's children in the solver's order, as (chosen bit, child cand):
    the vertices that best - size classes of the cover leave uncovered,
    lowest first, each dropped from the candidates of its later siblings."""
    covered = 0
    for members in greedy_clique_cover(cand, adjacency)[:max(best - size, 0)]:
        covered |= members
    spill = cand & ~covered
    while spill:
        bit = spill & -spill
        spill ^= bit
        yield bit, cand & ~adjacency[bit.bit_length() - 1] & ~bit
        cand ^= bit


def recursive_enumeration(adjacency: Sequence[int], alpha: int) -> list[int]:
    """Every independent set of size alpha, where alpha = alpha(G), sorted:
    the solver's search written recursively, unpruned by any structure, with
    the incumbent held at alpha - 1 so that each set reaching alpha is
    recorded and none tightens the cut."""
    found: set[int] = set()

    def visit(size: int, chosen: int, cand: int) -> None:
        if size >= alpha:
            found.add(chosen)
        if size + cand.bit_count() < alpha:
            return
        for bit, child in _children(size, cand, adjacency, alpha - 1):
            visit(size + 1, chosen | bit, child)

    visit(0, 0, (1 << len(adjacency)) - 1)
    return sorted(found)


def word_double(word) -> float:
    """The double numpy's Generator.random makes of a raw 64-bit word w:
    its top 53 bits, (w >> 11) * 2^-53, in [0, 1)."""
    return (int(word) >> 11) * 2**-53


def edge_count(graph: KneserGraph) -> int:
    """Edges of a built graph, from its adjacency rows."""
    return sum(a.bit_count() for a in graph.adjacency) // 2


def reference_edges(graph: KneserGraph) -> list[tuple[int, int]]:
    """(u, v) with u < v in canonical order, by a bit-walk over each row."""
    edges = []
    for u in range(graph.vertex_count):
        m = graph.adjacency[u] >> (u + 1)
        v = u + 1
        while m:
            if m & 1:
                edges.append((u, v))
            m >>= 1
            v += 1
    return edges


def export_edges(graph: KneserGraph, stream: IO[str]) -> None:
    """Edge list `u v` with a `# kneser n=<n> k=<k>` header, canonical order."""
    stream.write(f"# kneser n={graph.params.n} k={graph.params.k}\n")
    stream.writelines(f"{a} {b}\n" for a, b in reference_edges(graph))


def subset_table_by_masks(family: SetFamily) -> tuple[np.ndarray, np.ndarray, int, tuple[int, ...]]:
    """The subset-count table read with masks: keys and counts by np.unique over
    every submask, enumerated member by member, then the 64-bit sentinel with
    count 0; dp by the sum of all squared counts less twice the masked sum over
    odd-sized keys; the degrees by a masked scatter of the one-element keys."""
    subs = []
    for a in family.members:
        sub = a
        while True:
            subs.append(sub)
            if not sub:
                break
            sub = (sub - 1) & a
    keys, counts = np.unique(np.array(subs, dtype=np.uint64), return_counts=True)
    keys = np.append(keys, np.uint64((1 << 64) - 1))
    counts = np.append(counts.astype(np.int64), 0)
    sizes = np.bitwise_count(keys)
    squares = counts * counts
    ordered = int(squares.sum()) - 2 * int(squares[sizes & 1 == 1].sum())
    degrees = np.zeros(family.params.n, dtype=np.int64)
    degrees[np.bitwise_count(keys[sizes == 1] - np.uint64(1))] = counts[sizes == 1]
    return keys, counts, ordered // 2, tuple(degrees.tolist())


def quadratic_form(family: SetFamily) -> int:
    """f^T A f via an explicit double sum over ordered disjoint pairs."""
    mem = family.members
    return sum(1 for a in mem for b in mem if not a & b)


def residual_min_eigenvalue(params: GroundParams) -> int:
    """Most negative eigenvalue on the non-affine part: lambda_3 when k >= 3, else 0."""
    if params.k < 3:
        return 0
    return -math.comb(params.n - params.k - 3, params.k - 3)


def union_distance(family: SetFamily, centres: Sequence[int]) -> int:
    """|F delta G_S|, member by member: G_S less the members meeting S, plus
    the members missing S."""
    n, k = family.params.n, family.params.k
    distinct = sorted(set(centres))
    smask = mask_from_elements(distinct, n)
    misses = sum(1 for a in family.members if not a & smask)
    union = math.comb(n, k) - math.comb(n - len(distinct), k)
    return union - (len(family) - misses) + misses


def nearest_union_heuristic(family: SetFamily, ell: int) -> tuple[tuple[int, ...], int]:
    """Top-l-degree centre set (ties to smallest element) and its exact distance."""
    if ell > family.params.n:
        raise DomainError(f"l={ell} exceeds n={family.params.n}")
    degrees = degree_profile(family)
    order = sorted(range(1, family.params.n + 1), key=lambda i: (-degrees[i - 1], i))
    centres = tuple(sorted(order[:ell]))
    return centres, union_distance(family, centres)


def baranyai_backtrack(n: int, k: int) -> list[list[int]]:
    """Exact backtracking 1-factorisation of the slice, as lists of set masks."""
    all_masks = list(gosper_masks(n, k))
    full = (1 << n) - 1
    unused = set(all_masks)
    classes: list[list[int]] = []

    def extend(current: list[int], union: int) -> bool:
        if union == full:
            classes.append(current.copy())
            for mask in current:
                unused.discard(mask)
            if not unused:
                return True
            nxt: list[int] = []
            if extend(nxt, 0):
                return True
            for mask in current:
                unused.add(mask)
            classes.pop()
            return False
        for mask in sorted(unused):
            if mask & union:
                continue
            if current and mask < current[-1]:
                continue
            current.append(mask)
            if extend(current, union | mask):
                return True
            current.pop()
        return False

    if not extend([], 0):
        raise AssertionError("backtracking failed to factorise the slice")
    return classes


def clique_union_extremal(partition: BaranyaiPartition) -> dict:
    """extremal_subgraph by search: the partition's classes as cliques of an
    adjacency over K(n,k)'s vertex order, alpha from the MIS engine, and the
    degrees and edges counted off the adjacency."""
    params = partition.params
    n, k = params.n, params.k
    index = {mask: i for i, mask in enumerate(gosper_masks(n, k))}
    adjacency = [0] * len(index)
    for fam in partition.classes:
        cm = 0
        for m in fam.members:
            cm |= 1 << index[m]
        for m in fam.members:
            adjacency[index[m]] |= cm & ~(1 << index[m])
    degrees = {a.bit_count() for a in adjacency}
    return {
        "alpha": max_independent_set_masks(adjacency)[0],
        "degree": max(degrees),
        "regular": len(degrees) == 1,
        "edges": sum(a.bit_count() for a in adjacency) // 2,
        "expected_edges": (n - k) * params.slice_size // (2 * k),
    }


def validate_members_by_loop(params: GroundParams, members) -> None:
    """SetFamily's member checks, one member at a time in Python ints."""
    n, k = params.n, params.k
    full = (1 << n) - 1
    prev = -1
    for m in members:
        try:
            m = operator.index(m)
        except TypeError:
            raise DomainError(f"member must be an integer, got {m!r}") from None
        if m <= prev:
            raise DomainError("family members must be strictly increasing bit patterns")
        if m & ~full:
            raise DomainError("member uses elements beyond n")
        if m.bit_count() != k:
            raise DomainError(f"member {elements_from_mask(m)} is not a {k}-set")
        prev = m


def load_family_by_line(path: Path) -> SetFamily:
    """The family file parsed one line and one element at a time."""
    params = None
    masks: list[int] = []
    seen: set[int] = set()
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if params is None:
            hm = re.match(r"^n=(\d+)\s+k=(\d+)$", line)
            if not hm:
                raise DomainError(f"first data line must be 'n=<n> k=<k>', got {line!r}")
            params = GroundParams(int(hm.group(1)), int(hm.group(2)))
            continue
        elements = []
        for tok in line.split(","):
            try:
                elements.append(int(tok.strip()))
            except ValueError:
                raise DomainError(f"bad element: {tok.strip()!r}") from None
        mask = mask_from_elements(elements, params.n)
        if mask in seen:
            raise DomainError(f"duplicate set {tuple(sorted(elements))} in {path}")
        seen.add(mask)
        masks.append(mask)
    if params is None:
        raise DomainError(f"no header line in {path}")
    return SetFamily.from_masks(params, masks)


def decompose_affine_fraction(family: SetFamily) -> SpectralDecomposition:
    """The affine decomposition with every step in Fraction."""
    params = family.params
    n, k = params.n, params.k
    total = params.slice_size
    mean = Fraction(len(family), total)
    scale = Fraction(n * (n - 1), k * (n - k))
    coeffs = [mean]
    f1 = Fraction(0)
    for d in degree_profile(family):
        b = Fraction(d, total) - mean * Fraction(k, n)
        a = b * scale
        coeffs.append(a)
        f1 += a * b
    f2 = mean - mean * mean - f1
    f0_f, f1_f, f2_f = float(mean), float(f1), float(f2)
    return SpectralDecomposition(
        f0=f0_f,
        affine_coeffs=tuple(float(a) for a in coeffs),
        f1_norm_sq=f1_f,
        f2_norm_sq=f2_f,
        parseval_residual=abs(float(mean) - f0_f * f0_f - f1_f - f2_f),
        f2_norm_sq_exact=f2,
    )


def alpha_beta_fraction(params: GroundParams, ell: int, size: int,
                        dp: int) -> tuple[Fraction, Fraction]:
    """alpha = l - |F|/C(n-1,k-1) and beta = dp/(C(n-1,k-1) C(n-k-1,k-1)) - C(l,2)."""
    alpha = ell - Fraction(size, params.star_size)
    beta = Fraction(dp, params.star_size * params.star_disjoint_degree) - math.comb(ell, 2)
    return alpha, beta


def excess_fraction(params: GroundParams, ell: int, size: int, dp: int) -> Fraction:
    """((2l-1) alpha + 2 beta) k/(n-2k) as a product of Fractions."""
    alpha, beta = alpha_beta_fraction(params, ell, size, dp)
    return ((2 * ell - 1) * alpha + 2 * beta) * Fraction(params.k, params.n - 2 * params.k)


def residual_bound_fraction(family: SetFamily, ell: int) -> ResidualBoundReport:
    """||f2||^2 <= excess with both sides in Fraction, f2 from the
    all-Fraction decomposition."""
    rhs = excess_fraction(family.params, ell, len(family), disjoint_pairs(family))
    lhs = decompose_affine_fraction(family).f2_norm_sq_exact
    return ResidualBoundReport(lhs=float(lhs), rhs=float(rhs), holds=lhs <= rhs)


def precondition_met_fraction(stats: FamilyStats, c_const: float) -> bool:
    """max(2l|alpha|, |beta|) <= (n-2k) / ((20C)^2 n) in Fraction, with alpha
    and beta from the size and dp."""
    params, ell = stats.params, stats.ell
    alpha, beta = alpha_beta_fraction(params, ell, stats.size, stats.dp)
    worst = max(2 * ell * abs(alpha), abs(beta))
    return not worst or \
        Fraction(c_const) ** 2 <= Fraction(params.n - 2 * params.k, 400 * params.n) / worst


def removal_verdicts_fraction(report: RemovalReport) -> tuple[bool, bool, float, float]:
    """(preconditions_met, holds, epsilon, bound) of a removal report, from
    its size, dp, distance and C, compared in Fraction."""
    stats, c_const = report.stats, report.c_const
    excess = excess_fraction(stats.params, stats.ell, stats.size, stats.dp)
    base = excess * stats.params.slice_size
    return (precondition_met_fraction(stats, c_const),
            report.distance <= Fraction(c_const) * base, float(excess), c_const * float(base))


def center_set_verdicts_fraction(family: SetFamily, report: CenterSetReport,
                                 c_const: float) -> tuple[bool, bool, float]:
    """(holds, eps_within_range, eps_in) of a centre-set report, from its
    best centre set and branch, compared in Fraction."""
    params = family.params
    eps = decompose_affine_fraction(family).f2_norm_sq_exact
    dist = union_distance(family, report.best_s)
    if report.branch == "complement":
        dist = params.slice_size - dist
    return (Fraction(dist, params.slice_size) <= Fraction(c_const) * eps,
            eps < Fraction(params.k, 128 * params.n), float(eps))


def case_label(report: CenterSetReport, ell: int) -> str:
    """The approximant case that a centre-set report's best S realises: on the
    direct branch (vi) at |S| = l, else (i) below l and (ii) above; on the
    complement branch (iii) at |S| = 0, (v) at 1 and (iv) from 2 on."""
    s = len(report.best_s)
    if report.branch == "direct":
        if s == ell:
            return "(vi)"
        return "(i)" if s < ell else "(ii)"
    if s == 0:
        return "(iii)"
    return "(v)" if s == 1 else "(iv)"


def affine_residual_exact(family: SetFamily) -> Fraction:
    """||f - g||^2 for the least-squares affine g, from the normal equations.

    The basis is 1, x_1..x_{n-1} (x_n = k - x_1 - ... - x_{n-1} adds
    nothing).  The Gram matrix G is counted over the whole slice and the
    right-hand side b over the family, both as integer sums of basis values;
    G a = b is solved in Fraction.  Then sum (f - g)^2 = |F| - b.a over the
    C(n,k) points of the slice.
    """
    params = family.params
    n = params.n
    b = _basis_values(n, family.members).sum(axis=0).tolist()
    gram = [[Fraction(x) for x in row] for row in _slice_gram(n, params.k)]
    rhs = [Fraction(x) for x in b]
    # Gauss-Jordan on [G | b]; G is positive definite, so no pivot vanishes
    for col in range(n):
        pivot = gram[col][col]
        for row in range(n):
            if row != col and gram[row][col]:
                factor = gram[row][col] / pivot
                gram[row] = [x - factor * y for x, y in zip(gram[row], gram[col])]
                rhs[row] -= factor * rhs[col]
    coeffs = [rhs[i] / gram[i][i] for i in range(n)]
    return (len(family) - sum(bi * ai for bi, ai in zip(b, coeffs))) / params.slice_size


def _basis_values(n: int, masks) -> np.ndarray:
    """One row per set: 1, then its indicator on elements 1..n-1."""
    masks = np.array(list(masks), dtype=np.int64).reshape(-1, 1)
    bits = (masks >> np.arange(n - 1)) & 1
    return np.hstack((np.ones((len(masks), 1), dtype=np.int64), bits))


@functools.lru_cache(maxsize=None)
def _slice_gram(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    x = _basis_values(n, gosper_masks(n, k))
    return tuple(tuple(row) for row in (x.T @ x).tolist())
