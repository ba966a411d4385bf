"""Nearest unions of stars and the removal bound.

G_S denotes the family of all k-sets meeting a centre set S; its indicator is
max_{i in S} x_i.  Distances |F delta G_S| reduce to miss counts
#{A in F : A cap S = empty} = sum_{T subset S, |T| <= k} (-1)^|T| c_T, read
from the family's subset-count table c_T = #{A in F : T subset A}, so each
centre set costs sum_{t <= k} C(|S|,t) lookups whatever the family's size.
The searches count the misses of all centre sets of one size in numpy, in
chunks of about MISS_CHUNK lookups unranked in lexicographic order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, GuardError
from .families import (
    FamilyStats,
    SetFamily,
    disjoint_pairs,
    excess_ratio,
    family_stats,
    integer,
    real,
    recent_family_memo,
    subset_counts,
)
from .spectral import decompose_affine

CENTER_ENUM_GUARD = 1_000_000
CENTER_SET_SEARCH_GUARD = 2_000_000
# Lookups per chunk of centre sets.  A scan of one chunk (every l <= 2 scan at
# n <= 64) is cached: 32 keys of <= 2 MISS_CHUNK + 64 words, under 8.5 MB.
MISS_CHUNK = 1 << 14

DEFAULT_C_CONST = 2.0
CALIBRATION_FLOOR = 1.000001  # the least C that calibrate_constant returns


@dataclass(frozen=True)
class RemovalConfig:
    """l and the configurable stand-in C for the absolute constant."""

    ell: int
    c_const: float = DEFAULT_C_CONST

    def __post_init__(self) -> None:
        object.__setattr__(self, "ell", integer("ell", self.ell, 1))
        object.__setattr__(self, "c_const", real("c_const", self.c_const, 1))


def union_size(params, s: int) -> int:
    """|G_S| for |S| = s: C(n,k) - C(n-s,k)."""
    return params.slice_size - math.comb(params.n - s, params.k)


def _lookups(sets: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(masks, signs): per row S of sets, distinct elements of 1..n, the T
    subset S with |T| <= t, whose (-1)^|T| c_T sum to #{A in F : A cap S = empty}."""
    width = sets.shape[1]
    terms = [cols for u in range(t + 1) for cols in combinations(range(width), u)]
    pick = np.array([[c in cols for c in range(width)] for cols in terms], dtype=np.uint64)
    signs = np.array([(-1) ** len(cols) for cols in terms])
    bits = np.left_shift(np.uint64(1), (sets - 1).astype(np.uint64))
    return bits @ pick.T, signs  # distinct bits: OR is a sum


def _centre_chunk(n: int, t: int, s: int, lo: int, rows: int) -> tuple[np.ndarray, ...]:
    """(sets, *_lookups(sets, t)), read-only, for the s-subsets of [n] of
    lexicographic ranks lo to lo + rows - 1 (or to the last).  Rank r is colex
    rank C(n,s) - 1 - r of the reflected set {n + 1 - c}, whose i-th smallest
    element is 1 + the largest d with C(d,i) <= the rank left, for i = s down to 1."""
    total = math.comb(n, s)
    rank = np.arange(total - 1 - lo, max(total - 1 - lo - rows, -1), -1)
    sets = np.empty((len(rank), s), dtype=np.int64)
    for i in range(s, 0, -1):
        binom = np.array([math.comb(d, i) for d in range(n)], np.int64)
        d = np.searchsorted(binom, rank, side="right") - 1
        rank -= binom[d]
        sets[:, s - i] = n - d
    chunk = sets, *_lookups(sets, t)
    for a in chunk:
        a.flags.writeable = False
    return chunk


_centre_table = functools.lru_cache(maxsize=32)(_centre_chunk)


def _misses(family: SetFamily, s: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(centre sets, miss counts) over every s-subset of [n] in lexicographic
    order, in chunks of about MISS_CHUNK lookups; a scan that fits one chunk
    reads it from the cache, shared by every scan at one (n, min(k,s), s)."""
    n, t = family.params.n, min(family.params.k, s)
    total = math.comb(n, s)
    lookups = sum(math.comb(s, u) for u in range(t + 1))  # per centre set
    rows = max(1, MISS_CHUNK // lookups)
    chunk = _centre_table if total * lookups <= MISS_CHUNK else _centre_chunk
    for lo in range(0, total, rows):
        sets, masks, signs = chunk(n, t, s, lo, rows)
        yield sets, subset_counts(family, masks) @ signs


def _extreme_sets(family: SetFamily, s: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(misses, S) for the fewest-miss and for the most-miss s-subset S of [n];
    ties go to the lexicographically smallest S, which argmin and argmax find
    first."""
    fewest = most = None
    for sets, miss in _misses(family, s):
        lo, hi = int(miss.argmin()), int(miss.argmax())
        if fewest is None or miss[lo] < fewest[0]:
            fewest = int(miss[lo]), tuple(sets[lo].tolist())
        if most is None or miss[hi] > most[0]:
            most = int(miss[hi]), tuple(sets[hi].tolist())
    return fewest, most


def nearest_union_exact(family: SetFamily, ell: int) -> tuple[tuple[int, ...], int]:
    """Exhaustive minimiser of |F delta G_S| over l-element centre sets.

    Ties break to the lexicographically smallest S.  Guarded by C(n,l).
    """
    params, ell = family.params, integer("ell", ell, 0, family.params.n)
    if math.comb(params.n, ell) > CENTER_ENUM_GUARD:
        raise GuardError(f"C({params.n},{ell}) centre sets exceed the guard")
    (miss, best), _ = _extreme_sets(family, ell)
    return best, union_size(params, ell) - len(family) + 2 * miss


# ── bound checks ─────────────────────────────────────────────────

@dataclass(frozen=True)
class CenterSetReport:
    eps_in: float
    s_bound: int
    best_s: tuple[int, ...]
    closeness: float
    branch: str  # 'direct' (f) or 'complement' (1-f)
    holds: bool
    eps_within_range: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def center_set_check(family: SetFamily, cfg: RemovalConfig) -> CenterSetReport:
    """Search for a small centre set S with f or 1-f close to max_{i in S} x_i.

    s_bound = max(1, ceil(C n sqrt(eps)/k)); all centre sets of size
    0..s_bound are tried on both branches; holds = (closeness <= C * eps),
    decided in integers.  The search reads only C from cfg, and its report
    for the most recent (family, C) is memoised, so the case table,
    case_classify and the CLI share one search at every l; the bound check
    runs none.
    """
    return _center_set_search(family, cfg.c_const)


@recent_family_memo
def _center_set_search(family: SetFamily, c_const: float) -> CenterSetReport:
    params = family.params
    n, k = params.n, integer("k", params.k, 2)
    params.require_gap("center_set_check")
    dec = decompose_affine(family)
    eps_in = dec.f2_norm_sq
    root = math.sqrt(max(eps_in, 0.0))
    # C n may overflow to inf, and inf * 0 is NaN; ceil(min(x, n)) = min(ceil(x), n)
    s_bound = max(1, math.ceil(min(c_const * n * root / k, n))) if root else 1
    total_candidates = sum(math.comb(n, s) for s in range(s_bound + 1))
    if total_candidates > CENTER_SET_SEARCH_GUARD:
        raise GuardError(
            f"centre-set search over {total_candidates} sets exceeds the guard")
    size = len(family)
    candidates = []  # (distance, branch_rank, s, S)
    for s in range(s_bound + 1):
        # |F delta G_S| grows with the misses, and |F delta complement(G_S)|
        # = |F| + C(n-s,k) - 2 misses falls
        (fewest, direct), (most, complement) = _extreme_sets(family, s)
        candidates += [(union_size(params, s) - size + 2 * fewest, 0, s, direct),
                       (size + math.comb(n - s, k) - 2 * most, 1, s, complement)]
    dist, rank, s, combo = min(candidates)
    eps, eps_den = dec.f2_norm_sq_exact.as_integer_ratio()
    c, c_den = c_const.as_integer_ratio()  # Fraction(c_const), exactly
    return CenterSetReport(
        eps_in=eps_in,
        s_bound=s_bound,
        best_s=combo,
        closeness=dist / params.slice_size,
        branch="direct" if rank == 0 else "complement",
        holds=dist * c_den * eps_den <= c * eps * params.slice_size,
        eps_within_range=eps * 128 * n < k * eps_den,
    )


def case_classify(family: SetFamily, cfg: RemovalConfig) -> str:
    """Which of the six approximant cases the best centre set realises: the
    case of case_table's realised row."""
    return next(row["case"] for row in case_table(family, cfg) if row["realized"])


def case_table(family: SetFamily, cfg: RemovalConfig) -> list[dict]:
    """One diagnostic row per approximant case of the proof: its size against
    the window (l +- 1/4) C(n-1,k-1), and whether center_set_check's best S
    realises it.  Each row holds its rule: on the direct branch (i), (ii) and
    (vi) are |S| below, above and equal to l; on the complement branch (iii),
    (v) and (iv) are |S| = 0, 1 and >= 2.  Case (ii) also reports the union
    lower estimate (l + 1/2) C(n-1,k-1), case (v) the disjoint-pair threshold.
    """
    params = family.params
    n, k, star = params.n, params.k, params.star_size
    report = center_set_check(family, cfg)
    ell = integer("ell", cfg.ell, 1, n - 1)
    s, direct = len(report.best_s), report.branch == "direct"
    s_iv = max(2, report.s_bound)
    dp_threshold = (0.5 - 2 * (cfg.c_const * report.eps_in)) * math.comb(n - 1, k) \
        * math.comb(n - k - 1, k)  # C eps first: 2 C may overflow where eps = 0
    cases = [  # (case, approximant, size, realised, extra columns)
        ("(i)", f"G_s, s <= {ell - 1}", union_size(params, ell - 1), direct and s < ell, {}),
        ("(ii)", f"G_s, s >= {ell + 1}", union_size(params, ell + 1), direct and s > ell,
         {"proof_lower_estimate": (ell + 0.5) * star}),
        ("(iii)", "complement of G_0", params.slice_size, not direct and s == 0, {}),
        ("(iv)", f"complement of G_s, s >= 2 (at s={s_iv})", math.comb(n - s_iv, k),
         not direct and s >= 2, {}),
        ("(v)", "complement of G_1 (anti-star)", math.comb(n - 1, k), not direct and s == 1,
         {"dp_family": disjoint_pairs(family), "dp_lower_threshold": dp_threshold}),
        ("(vi)", f"G_{ell}", union_size(params, ell), direct and s == ell, {}),
    ]
    lo, hi = (ell - 0.25) * star, (ell + 0.25) * star
    return [{"case": case, "approximant": approximant, "size": size, "window_lo": lo,
             "window_hi": hi, "within_window": lo <= size <= hi, "realized": realized, **extra}
            for case, approximant, size, realized, extra in cases]


@dataclass(frozen=True)
class RemovalReport:
    """Distance to the nearest union of l stars vs the bound; the case is case_classify's."""

    stats: FamilyStats
    epsilon: float
    best_centers: tuple[int, ...]
    distance: int
    bound: float
    preconditions_met: bool
    holds: bool
    c_const: float

    def to_json_dict(self) -> dict:
        payload = self.stats.to_json_dict()
        payload.update({
            "epsilon": self.epsilon,
            "best_centers": list(self.best_centers),
            "distance": self.distance,
            "bound": self.bound,
            "preconditions_met": self.preconditions_met,
            "holds": self.holds,
            "c_const": self.c_const,
        })
        return payload


def removal_bound_base(stats: FamilyStats) -> Fraction:
    """The removal bound over C: excess * C(n,k), which is excess * (n/k) *
    C(n-1,k-1) as in the lemma."""
    return stats.excess * stats.params.slice_size


def removal_bound_check(family: SetFamily, cfg: RemovalConfig) -> RemovalReport:
    """Removal-bound check: distance to the nearest union of l stars vs bound.

    Requires n > 2k l^2.  Reads the subset-count table and one scan of the
    l-element centre sets, and runs no centre-set search or decomposition.
    The report is produced even when the alpha/beta preconditions fail;
    `holds` then simply records the observed comparison.
    """
    params = family.params
    n, k, ell = params.n, params.k, cfg.ell
    if n <= 2 * k * ell * ell:
        raise DomainError(f"removal_bound_check needs n > 2k l^2, got n={n} k={k} l={ell}")
    stats = family_stats(family, ell)
    centres, distance = nearest_union_exact(family, ell)
    num, den = excess_ratio(params, ell, stats.size, stats.dp)
    base = num * params.slice_size  # over den
    c, c_den = cfg.c_const.as_integer_ratio()  # Fraction(c_const), exactly
    return RemovalReport(
        stats=stats,
        epsilon=num / den,
        best_centers=centres,
        distance=distance,
        bound=cfg.c_const * (base / den),
        preconditions_met=stats.removal_precondition_met(cfg.c_const),
        holds=distance * den * c_den <= c * base,
        c_const=cfg.c_const,
    )


def _ceil_double(q: Fraction) -> float:
    """The least double >= q; float(q) rounds to nearest."""
    d = float(q)
    return d if d >= q else math.nextafter(d, math.inf)


def _precondition_breakpoint(stats: FamilyStats) -> float:
    """The least double C at which stats.removal_precondition_met(C) is false,
    that is C^2 > limit, for a limit >= 1.  Doubles >= 1 are multiples of
    2^-52, and the least multiple of 2^-52 above sqrt(limit) is
    (isqrt(floor(limit 2^104)) + 1) 2^-52."""
    num, den = stats.precondition_limit
    if not den:
        return math.inf
    root = math.isqrt((num << 104) // den)
    return _ceil_double(Fraction(root + 1, 1 << 52))


def calibrate_constant(entries: Iterable[tuple[FamilyStats, int]]) -> float:
    """The least double C >= CALIBRATION_FLOOR at which dist <= C * base
    exactly for every entry whose preconditions C meets.

    entries: (stats, exact nearest-union distance).  An entry that fails the
    preconditions at the floor fails them at every larger C.  One that meets
    them is satisfied from the least double at or above dist/base, or from the
    least double at which it stops qualifying, whichever comes first, and C is
    the largest of these.  Returns inf when a qualifying entry has base <= 0
    and dist > floor * base: no C satisfies it while it qualifies.
    """
    c_star = floor = CALIBRATION_FLOOR
    for stats, dist in entries:
        if not stats.removal_precondition_met(floor):
            continue
        base = removal_bound_base(stats)
        if dist <= Fraction(floor) * base:
            continue
        if base <= 0:
            return math.inf
        c_star = max(c_star, min(_ceil_double(Fraction(dist) / base),
                                 _precondition_breakpoint(stats)))
    return c_star
