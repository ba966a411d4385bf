"""Kneser graphs K(n,k) at desk scale: exact independence, spectra, Baranyai.

Vertices are the k-subsets of [n] in families.slice_masks' order; adjacency
joins disjoint sets.  A set of vertices is a vertex mask, an int with bit v
set iff vertex v is in it, as ceil(nv/8) little-endian bytes; the package
converts it only by vertex_bits, vertex_mask, packed_rows and edge_rows.
alpha(K(n,k)) is certified by matching the star lower bound against the
ratio (Hoffman) upper bound V * |lambda_1| / (lambda_0 + |lambda_1|), which
equals C(n-1,k-1) exactly for every n >= 2k; a gap between the two can only
come from a corrupt spectrum or adjacency, and raises.  The maximum
independent sets are read off the graph's structure: the stars when n > 2k,
by the bound's equality case, and the transversals of the perfect matching
K(2k,k), refused when their count exceeds the solution cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterator

import numpy as np

from .errors import DomainError, GuardError, SearchBudgetExceeded
from .families import GroundParams, SetFamily, elements_from_mask, slice_masks
from .spectral import eigenvalue_multiplicity, kneser_eigenvalue

BUILD_GUARD = 50_000
BLOCK_BYTES = 256 << 10  # uint64 ANDed per block of disjoint_blocks
SPECTRUM_GUARD = 500
SOLUTION_CAP = 1_000_000
SPECTRUM_TOL = 1e-6  # largest eigenvalue deviation spectrum_cross_check accepts
_BIT8 = np.array([1 << i for i in range(8)], dtype=np.uint8)  # bit i of a byte


# ── the vertex-mask codec ────────────────────────────────────────────────

def vertex_bits(mask: int, nv: int) -> np.ndarray:
    """The vertex mask as exactly nv bools, bool v for vertex v."""
    return np.unpackbits(np.frombuffer(mask.to_bytes((nv + 7) // 8, "little"), np.uint8),
                         count=nv, bitorder="little").view(bool)


def vertex_mask(bits: np.ndarray) -> int:
    """The vertex mask with bit v set iff bits[v]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def packed_rows(packed: np.ndarray) -> tuple[int, ...]:
    """The rows of a (rows, width) uint8 array of packed vertex masks, as ints,
    read through one tolist of a fixed-width bytes view (numpy drops an item's
    trailing zero bytes: a row's high bytes, worth nothing)."""
    packed = np.ascontiguousarray(packed)
    rows = packed.view(f"S{packed.shape[1]}").ravel().tolist()
    return tuple(map(int.from_bytes, rows, repeat("little")))


def row_bytes(nv: int) -> int:
    """The bytes that edge_rows packs for nv vertices."""
    return nv * ((nv + 7) // 8)


def edge_rows(nv: int, u: np.ndarray, v: np.ndarray) -> tuple[int, ...]:
    """The adjacency rows of nv vertices joined by distinct edges (u[i], v[i]), u != v."""
    # each edge twice, as (row, column) and (column, row), in int32 while
    # row_bytes(nv) < 2^31 (threshold.ROW_GUARD).  No bit is set twice, so add.at's
    # sum (numpy's indexed fast loop; bitwise_or.at has none) is the OR.
    rows, cols = np.concatenate((u, v)), np.concatenate((v, u))
    width = (nv + 7) // 8
    packed = np.zeros(nv * width, dtype=np.uint8)
    np.add.at(packed, rows * width + (cols >> 3), _BIT8[cols & 7])
    return packed_rows(packed.reshape(nv, width))


@dataclass(frozen=True)
class KneserGraph:
    """K(n,k) with per-vertex adjacency bit vectors over vertex indices."""

    params: GroundParams
    vertices: tuple[int, ...]
    adjacency: tuple[int, ...]
    star_vertex_masks: tuple[int, ...]  # index x-1 -> vertices containing element x

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def family_from_vertex_mask(self, vmask: int) -> SetFamily:
        picked = np.flatnonzero(vertex_bits(vmask, self.vertex_count)).tolist()
        return SetFamily(self.params, tuple(self.vertices[v] for v in picked))


def disjoint_blocks(masks: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(i0, disj) per block of rows, disj[i, j] True iff masks[i0 + i] & masks[j]
    is 0, from at most BLOCK_BYTES of uint64 ANDs (and one row at least).  The
    adjacency rows and the sampling context's edge ids and slot tables read it."""
    step = max(1, BLOCK_BYTES // (8 * len(masks)))
    for i0 in range(0, len(masks), step):
        yield i0, (masks[i0:i0 + step, None] & masks[None, :]) == 0


def neighbour_blocks(masks: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """disjoint_blocks of a regular graph, such as K(n,k), as (i0, nbrs):
    nbrs[i] lists the indices disjoint from masks[i0 + i], ascending."""
    for i0, disj in disjoint_blocks(masks):
        nbrs = np.flatnonzero(disj).reshape(len(disj), -1)  # by row, then column
        nbrs -= len(masks) * np.arange(len(disj))[:, None]  # flat index -> column
        yield i0, nbrs


def build_graph(params: GroundParams) -> KneserGraph:
    """Materialise K(n,k); requires n >= 2k and C(n,k) <= BUILD_GUARD."""
    params.require_graph("build_graph")
    n, k = params.n, params.k
    nv = params.slice_size
    if nv > BUILD_GUARD:
        raise GuardError(f"C({n},{k}) = {nv} exceeds build guard {BUILD_GUARD}")
    arr = slice_masks(n, k)
    vertices = tuple(arr.tolist())
    adjacency = tuple(row for _, disj in disjoint_blocks(arr)
                      for row in packed_rows(np.packbits(disj, axis=1, bitorder="little")))
    # per element x, the vertices containing x: column x of the (nv, n) bits
    contains = (arr[:, None] >> np.arange(n, dtype=np.uint64) & np.uint64(1)).astype(bool)
    star_masks = packed_rows(np.packbits(contains, axis=0, bitorder="little").T)
    return KneserGraph(params, vertices, adjacency, star_masks)


# ── exact independence ───────────────────────────────────────────────────

@dataclass(frozen=True)
class MISResult:
    size: int
    witness: SetFamily


def ratio_bound(params: GroundParams) -> int:
    """Hoffman bound V*|lambda_1|/(lambda_0+|lambda_1|); equals C(n-1,k-1)."""
    lam0 = kneser_eigenvalue(params, 0)
    lam1 = -kneser_eigenvalue(params, 1)
    return params.slice_size * lam1 // (lam0 + lam1)


def star_vertex_mask_checked(graph: KneserGraph, centre: int) -> int:
    """Vertex mask of the star at `centre`, with its independence verified."""
    smask = graph.star_vertex_masks[centre - 1]
    for v in np.flatnonzero(vertex_bits(smask, graph.vertex_count)).tolist():
        if graph.adjacency[v] & smask:
            raise AssertionError("star is not independent; adjacency is corrupt")
    return smask


def _certify(params: GroundParams, star: int) -> int:
    """alpha(K(n,k)): the ratio bound, which the verified star `star` meets for
    every n >= 2k; a star of any other size means the spectrum or the
    adjacency is wrong."""
    upper = ratio_bound(params)
    if star.bit_count() != upper:
        raise AssertionError(
            f"star of size {star.bit_count()} misses the ratio bound {upper}")
    return upper


def max_independent_set(graph: KneserGraph) -> MISResult:
    """Exact maximum independent set of K(n,k), certified without a search."""
    star0 = star_vertex_mask_checked(graph, 1)
    return MISResult(_certify(graph.params, star0), graph.family_from_vertex_mask(star0))


def enumerate_maximum(graph: KneserGraph) -> list[SetFamily]:
    """All maximum independent sets of K(n,k), read off its structure.

    For n > 2k the maximum sets are the n stars.  A maximum independent set
    attains the ratio bound with equality, which forces its indicator into
    the span of the top two eigenspaces, i.e. makes it affine; the Boolean
    affine functions on the slice are exactly 0, 1, x_i and 1-x_j, and only
    the stars have the right size.  (The equality case needs the strict gap
    |lambda_i| < |lambda_1| for i >= 2, so n > 2k.)  Each star's independence
    is checked once.  At n = 2k, K(2k,k) is a perfect matching, and the
    maximum sets are its transversals; the adjacency must pair every set with
    exactly one other.  Star 1 certifies alpha.  The sets are listed by mask.
    """
    n, k = graph.params.n, graph.params.k
    if n == 2 * k and 1 << graph.vertex_count // 2 > SOLUTION_CAP:
        # one end of each of the C(2k,k)/2 edges: 2^(C(2k,k)/2) maximum sets
        raise SearchBudgetExceeded(f"enumeration exceeded solution cap {SOLUTION_CAP}")
    star0 = star_vertex_mask_checked(graph, 1)
    _certify(graph.params, star0)
    if n > 2 * k:
        masks = [star0] + [star_vertex_mask_checked(graph, x) for x in range(2, n + 1)]
    else:
        adjacency = graph.adjacency
        masks = [0]
        for v, row in enumerate(adjacency):
            u = row.bit_length() - 1
            if row.bit_count() != 1 or u == v or adjacency[u] != 1 << v:
                raise AssertionError("adjacency is not a perfect matching")
            if u > v:  # the edge {v, u}, taken once from its lower end
                masks = [m | end for m in masks for end in (1 << v, row)]
    return [graph.family_from_vertex_mask(m) for m in sorted(masks)]


def is_star(family: SetFamily) -> bool:
    """True iff the family is a full star (common element, size C(n-1,k-1))."""
    if len(family) != family.params.star_size:
        return False
    return bool(np.bitwise_and.reduce(family.array()))  # over C(n-1,k-1) >= 1 members


def verify_ekr(params: GroundParams) -> dict:
    """alpha(K(n,k)) vs C(n-1,k-1), and whether the stars are the only maxima.

    alpha is the size of the certified maximum sets.  When n = 2k and their
    count exceeds the solution cap, alpha is certified alone, and only_stars
    and num_maximum are None.
    """
    graph = build_graph(params)
    try:
        families = enumerate_maximum(graph)
    except SearchBudgetExceeded:
        alpha, count, only_stars = max_independent_set(graph).size, None, None
    else:
        alpha, count = len(families[0]), len(families)
        only_stars = all(is_star(f) for f in families)
    return {
        "n": params.n,
        "k": params.k,
        "alpha": alpha,
        "equals_ekr": alpha == params.star_size,
        "only_stars": only_stars,
        "num_maximum": count,
        "method": "ratio-bound",
    }


# ── spectrum cross-check ─────────────────────────────────────────────────

def spectrum_cross_check(params: GroundParams) -> dict:
    """Numeric eigenvalues of K(n,k) vs (-1)^i C(n-k-i,k-i) with multiplicities."""
    nv = params.slice_size
    if nv > SPECTRUM_GUARD:
        raise GuardError(f"spectrum check guarded to C(n,k) <= {SPECTRUM_GUARD}")
    dense = np.array([vertex_bits(row, nv) for row in build_graph(params).adjacency],
                     dtype=np.float64)
    computed = np.sort(np.linalg.eigvalsh(dense))
    expected = []
    pairs: dict[int, int] = {}
    for i in range(params.k + 1):
        lam, mult = kneser_eigenvalue(params, i), eigenvalue_multiplicity(params, i)
        expected += [lam] * mult
        pairs[lam] = pairs.get(lam, 0) + mult
    expected_arr = np.sort(np.array(expected, dtype=np.float64))
    max_dev = float(np.max(np.abs(computed - expected_arr)))
    return {
        "n": params.n,
        "k": params.k,
        "ok": max_dev <= SPECTRUM_TOL,
        "max_deviation": max_dev,
        "lambda1_multiplicity": eigenvalue_multiplicity(params, 1),
        "spectrum": sorted(pairs.items()),
    }


# ── Baranyai partition (k | n) via integral flows ────────────────────────

class _Dinic:
    """Integer max-flow, adjacency-list Dinic; small networks only."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(idx + 1)
        return idx

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        to, cap, head = self.to, self.cap, self.head
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for idx in head[u]:
                    v = to[idx]
                    if cap[idx] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            # current-arc DFS on an explicit stack: paths outgrow the recursion limit
            path: list[int] = []  # the arcs from s to u
            u = s
            while True:
                if u == t:  # augment, then search again from s
                    pushed = min(cap[idx] for idx in path)
                    for idx in path:
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                    flow += pushed
                    path, u = [], s
                    continue
                arcs = head[u]
                while it[u] < len(arcs):
                    idx = arcs[it[u]]
                    if cap[idx] > 0 and level[to[idx]] == level[u] + 1:
                        path.append(idx)
                        u = to[idx]
                        break
                    it[u] += 1
                else:
                    if not path:
                        break
                    u = to[path.pop() ^ 1]  # dead end: back up past the arc into it
                    it[u] += 1


@dataclass(frozen=True)
class BaranyaiPartition:
    """Partition of C([n],k) into C(n-1,k-1) perfect matchings (k | n)."""

    params: GroundParams
    classes: tuple[SetFamily, ...]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        params = self.params
        n, k = params.n, params.k
        r = n // k
        full = (1 << n) - 1
        if len(self.classes) != params.star_size:
            raise AssertionError("wrong number of classes")
        seen: set[int] = set()
        for fam in self.classes:
            if len(fam) != r:
                raise AssertionError("class is not a perfect matching")
            union = 0
            for mask in fam.members:
                if union & mask:
                    raise AssertionError("class members overlap")
                union |= mask
                if mask in seen:
                    raise AssertionError("set appears in two classes")
                seen.add(mask)
            if union != full:
                raise AssertionError("class does not cover [n]")
        if len(seen) != params.slice_size:
            raise AssertionError("classes do not cover C([n],k)")


def baranyai_partition(params: GroundParams) -> BaranyaiPartition:
    """Constructive Baranyai partition by one integral flow per element.

    Classes hold n/k growing partial sets.  Adding element m+1, a class must
    extend exactly one slot, and each partial set S must absorb the element in
    exactly C(n-m-1, k-|S|-1) of its occurrences; the fractional solution
    sends (k-|S|)/(n-m) per slot, and an integral flow of the same value
    always exists.
    """
    n, k = params.n, params.k
    if n % k != 0:
        raise DomainError(f"Baranyai partition needs k | n, got n={n} k={k}")
    if params.slice_size > BUILD_GUARD:
        raise GuardError("slice too large for Baranyai construction")
    classes = _baranyai_flow(n, k)
    return BaranyaiPartition(
        params, tuple(SetFamily.from_masks(params, cls) for cls in classes))


def _baranyai_flow(n: int, k: int) -> list[list[int]]:
    m_classes = math.comb(n - 1, k - 1)
    r = n // k
    classes: list[list[int]] = [[0] * r for _ in range(m_classes)]
    for m in range(n):
        bit = 1 << m
        remaining = n - m - 1
        # sink demand per distinct partial set
        demand: dict[int, int] = {}
        for cls in classes:
            for s in cls:
                need = k - s.bit_count() - 1
                if need < 0:
                    continue
                e = math.comb(remaining, need) if need <= remaining else 0
                if e > 0:
                    demand[s] = e
        type_ids = {s: i for i, s in enumerate(sorted(demand))}
        source = 0
        class_base = 1
        type_base = class_base + m_classes
        sink = type_base + len(type_ids)
        net = _Dinic(sink + 1)
        class_edges: list[list[tuple[int, int]]] = [[] for _ in range(m_classes)]
        for c, cls in enumerate(classes):
            net.add_edge(source, class_base + c, 1)
            counts: dict[int, int] = {}
            for s in cls:
                if s in demand:
                    counts[s] = counts.get(s, 0) + 1
            for s, cnt in counts.items():
                idx = net.add_edge(class_base + c, type_base + type_ids[s], cnt)
                class_edges[c].append((idx, s))
        for s, tid in type_ids.items():
            net.add_edge(type_base + tid, sink, demand[s])
        flow = net.max_flow(source, sink)
        if flow != m_classes:
            raise AssertionError(f"flow {flow} != {m_classes} at element {m + 1}")
        for c in range(m_classes):
            extended = None
            for idx, s in class_edges[c]:
                sent = net.cap[idx ^ 1]  # reverse capacity = flow on the arc
                if sent > 0:
                    if sent != 1:
                        raise AssertionError("class extended more than one slot")
                    extended = s
                    break
            if extended is None:
                raise AssertionError("class extended no slot")
            classes[c][classes[c].index(extended)] = extended | bit
    return classes


def export_partition(partition: BaranyaiPartition, stream: IO[str]) -> None:
    """One class per line; sets comma-joined, separated by `|`."""
    for fam in partition.classes:
        stream.write("|".join(",".join(map(str, elements_from_mask(m)))
                              for m in fam.members) + "\n")


def extremal_subgraph(partition: BaranyaiPartition) -> dict:
    """Clique-union subgraph of K(n,k) from a Baranyai partition (validated).

    Each class is a perfect matching, so a clique of K(n,k), and the classes
    partition C([n],k): alpha is their number, C(n-1,k-1), and a set's degree
    its class size less one, (n-k)/k, with (n-k)/(2k) * C(n,k) edges.
    """
    params = partition.params
    params.require_graph("extremal_subgraph")
    sizes = [len(fam) for fam in partition.classes]
    n, k = params.n, params.k
    return {
        "alpha": len(sizes),
        "degree": max(sizes) - 1,
        "regular": len(set(sizes)) == 1,
        "edges": sum(s * (s - 1) // 2 for s in sizes),
        "expected_edges": (n - k) * params.slice_size // (2 * k),
    }
