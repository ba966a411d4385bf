"""Random Kneser subgraphs K_p(n,k): superstars, EKR probability, bounds.

Each trial gets its own counter-based RNG stream keyed by
(master_seed, trial_index), so results are reproducible and independent of
how trials are scheduled across workers; the per-(n,k) context keeps one
Philox and one state dict, whose key each trial writes.  A sample draws one
raw Philox word w per edge of K(n,k) and keeps the edges whose double
(w >> 11) * 2^-53, numpy's, lies below p, by one integer compare.  K(n,k) is
regular, so a slot table filled once per (n,k) from graphs' disjointness pass
over families.slice_masks, with no graph built, lists each vertex's incident
edges and the element masks across them, and one gather-and-reduce pass over
its row blocks, cut once per context, ORs each vertex's retained neighbours
into the elements blocked for it.  The unblocked ones certify superstars,
which give the superstar count, star survival and a search-free EKR failure;
the ratio bound proves EKR, again without a search, on a sample that keeps
every edge.  Any other sample is decided by branch and bound on a copy
relabelled by ascending degree less thrice the mean neighbour degree (MCR's
weighing; ties to index), packed by graphs.edge_rows from the retained edges,
listed only then; a star is its incumbent, so it looks only for a set one
larger; only graphs turns vertex masks into bits and bytes.  EKR is monotone
in p under this coupling, so a trial walks its p values ascending: a search
proving EKR settles every larger p, and a refuting witness, mapped back to the
sample's vertex order, every p up to its least edge word's double.  Analytic
evaluators work in log-space: exponents reach C(n-1,k-1) and overflow doubles.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context

import numpy as np

from .errors import DomainError, GuardError
from .families import GroundParams, integer, real, slice_masks
from .graphs import (edge_rows, neighbour_blocks, ratio_bound, row_bytes, vertex_bits,
                     vertex_mask)
from .mis import max_independent_set_masks

DEFAULT_EPSILON = 0.1
# _SampleContext keeps, per vertex and incident edge, an int32 edge id and the
# uint64 element mask across that edge, and two int32 endpoints per edge: 61 MB
# for K(64,2)'s 1.9M edges.  A trial draws one uint64 word per edge (15 MB there)
# and ORs SLOT_BLOCK slots at a time.  In a fresh process (ru_maxrss) at
# K(64,2) the context build peaks at +65 MB and one trial at +82 MB, which
# listing its retained edges for a search does not raise.  Refuse more edges.
# Only a trial that goes to a search holds adjacency rows (the context holds
# none), nv * ceil(nv/8) bytes: K(18,9) has 24,310 edges but 295 MB of rows,
# (16,8) 20.7 MB.  Refuse over ROW_GUARD bytes.
EDGE_GUARD = 2_000_000
ROW_GUARD = 32 << 20
SLOT_BLOCK = 1 << 16  # slots ORed per step of a sample's blocked-mask pass
WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile
THRESHOLD_WIDTH = 0.02  # find_threshold stops at a p bracket this narrow
WORKER_GUARD = 64  # most worker processes one estimate may start
CI_MIN_TRIALS = 30
_ZERO4 = (0, 0, 0, 0)  # a fresh Philox's counter and buffer


@dataclass(frozen=True)
class ThresholdParams:
    """Simulation inputs: graph parameters, edge probability, trial budget."""

    params: GroundParams
    p: float
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, numbers.Real) and 0.0 <= self.p <= 1.0):
            raise DomainError(f"p must lie in [0,1], got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))  # numpy floats, Fractions
        object.__setattr__(self, "trials", integer("trials", self.trials, 1))
        object.__setattr__(self, "master_seed", integer("master_seed", self.master_seed))


class _SampleContext:
    """Per-(n,k) data shared by all trials: the slot table in row blocks, and
    the trials' bare Philox with the one state dict that each trial re-keys.

    K(n,k) is C(n-k,k)-regular, so its incidences fill an (nv, degree) slot
    table: row f lists f's neighbours in index order, slot_edge holds the id
    of the edge to each and slot_mask the neighbour's element mask.  Edge e
    joins u[e] < v[e]; the ids run by u then v.
    All four come from graphs.neighbour_blocks, with no KneserGraph built.
    """

    def __init__(self, params: GroundParams) -> None:
        params.require_graph("sample_subgraph")
        self.params = params  # _context's key, matched by identity first
        nv = self.nv = params.slice_size
        degree = params.kneser_degree
        self.edge_count = nv * degree // 2
        if self.edge_count > EDGE_GUARD or row_bytes(nv) > ROW_GUARD:
            raise GuardError(f"K({params.n},{params.k}) has {self.edge_count} edges and "
                             f"{row_bytes(nv)} bytes of adjacency rows, over the "
                             f"sampling guards {EDGE_GUARD} and {ROW_GUARD}")
        masks = slice_masks(params.n, params.k)
        self.free = np.uint64((1 << params.n) - 1) & ~masks  # elements outside each vertex
        # the star at centre 1, per vertex and as a mask: independent in every K_p
        self.star = (masks & np.uint64(1)).astype(bool)
        self.star_mask = vertex_mask(self.star)
        self.slot_edge = np.empty((nv, degree), dtype=np.int32)
        self.slot_mask = np.empty((nv, degree), dtype=np.uint64)
        # the endpoints (u, v), u < v, of each edge id, by u then v, read-only
        self.u = np.empty(self.edge_count, dtype=np.int32)
        self.v = np.empty(self.edge_count, dtype=np.int32)
        # counting placement: a row's earlier neighbours fill its first slots,
        # each written by that neighbour's own row, which is visited first
        placed = np.zeros(nv, dtype=np.intp)  # slots filled so far, per row
        first = 0  # id of the next edge, by lower endpoint then upper
        for f0, nbrs in neighbour_blocks(masks):
            np.take(masks, nbrs, out=self.slot_mask[f0:f0 + len(nbrs)])
            for f, row in enumerate(nbrs, f0):
                later = row[placed[f]:]
                last = first + len(later)
                ids = np.arange(first, last, dtype=np.int32)
                self.u[first:last], self.v[first:last] = f, later
                first = last
                self.slot_edge[f, placed[f]:] = ids
                self.slot_edge[later, placed[later]] = ids
                placed[later] += 1
        self.u.flags.writeable = self.v.flags.writeable = False  # every trial reads them
        # a trial ORs each block (one row at least, else at most SLOT_BLOCK slots)
        # into its rows of blocked
        self.blocked = np.empty(nv, dtype=np.uint64)
        step = max(1, SLOT_BLOCK // degree)
        self.blocks = tuple((self.slot_mask[lo:lo + step], self.slot_edge[lo:lo + step],
                             self.blocked[lo:lo + step]) for lo in range(0, nv, step))
        # a trial writes its key and assigns state; the setter copies key, counter
        # and buffer (4: empty), so no two draws share state
        self.key = [0, 0]  # ints: the setter reads them faster than numpy scalars
        self.state = {"bit_generator": "Philox", "state": {"counter": _ZERO4, "key": self.key},
                      "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.philox = np.random.Philox(0)


_CONTEXTS: dict[GroundParams, _SampleContext] = {}  # the most recent (n,k) only


def _context(params: GroundParams) -> _SampleContext:
    for ctx in _CONTEXTS.values():  # at most one; the same object needs no hash
        if ctx.params is params or ctx.params == params:
            return ctx
    _CONTEXTS.clear()  # drop the previous context before building this one
    ctx = _CONTEXTS[params] = _SampleContext(params)
    return ctx


@dataclass(frozen=True, eq=False)
class EdgeSample:
    """A sampled subgraph: its retained edges plus its superstar certificate.

    keep[e] is True iff edge e of K(n,k), by u then v, is retained.
    unblocked[f] has bit x-1 set iff x is not in vertex f and no retained edge
    joins f to the star S_x, that is, iff (S_x, f) is a superstar.
    """

    params: GroundParams
    keep: np.ndarray
    unblocked: np.ndarray

    @functools.cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The retained (u, v) endpoint arrays, a subset of K(n,k)'s."""
        ctx = _context(self.params)
        kept = np.flatnonzero(self.keep)
        return ctx.u.take(kept), ctx.v.take(kept)

    @functools.cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Adjacency bitsets in K(n,k)'s vertex order, packed on first use."""
        return edge_rows(self.params.slice_size, *self.edges)


def trial_uniforms(tp: ThresholdParams, trial_index: int) -> np.ndarray:
    """The trial's draws, uniform uint64 words, one per K(n,k) edge.

    They are the raw stream of a Philox keyed by (master_seed, trial_index),
    each mod 2^64, from counter zero: the pair is written into the key of the
    context's state dict, whose counter is zero and buffer empty, and the
    context's one Philox is set to it.
    """
    trial_index = integer("trial_index", trial_index)
    ctx = _context(tp.params)
    ctx.key[0], ctx.key[1] = tp.master_seed & (2**64 - 1), trial_index & (2**64 - 1)
    ctx.philox.state = ctx.state
    return ctx.philox.random_raw(ctx.edge_count)


def sample_subgraph(tp: ThresholdParams, trial_index: int,
                    uniforms: np.ndarray | None = None) -> EdgeSample:
    """Retain each Kneser edge independently with probability p.

    `uniforms`, trial_uniforms' if not given, holds one uint64 word per edge:
    edge e is kept iff (uniforms[e] >> 11) * 2^-53 < p, that is, iff uniforms[e]
    < ceil(p * 2^53) * 2^11, p * 2^53 being exact.  Passing the same `uniforms`
    with a larger p yields a coupled supersample (retained(p) within retained(p')).
    """
    ctx = _context(tp.params)
    if uniforms is None:
        uniforms = trial_uniforms(tp, trial_index)
    elif getattr(uniforms, "dtype", None) != np.uint64 or uniforms.shape != (ctx.edge_count,):
        raise DomainError(f"uniforms must be {ctx.edge_count} uint64 words, one per edge, "
                          f"got {np.asarray(uniforms).dtype} {np.shape(uniforms)}")
    keep = np.less(uniforms, math.ceil(tp.p * 2**53) << 11)  # 2^64 at p = 1: all kept
    # per vertex, the OR of its retained neighbours' element masks, reduced
    # one block of slots at a time so that the temporaries stay small
    for masks, edges, blocked in ctx.blocks:
        np.bitwise_or.reduce(masks * keep.take(edges), axis=1, out=blocked)
    # a neighbour is disjoint from its vertex, so blocked lies inside free
    return EdgeSample(params=tp.params, keep=keep, unblocked=ctx.free ^ ctx.blocked)


def count_superstars(sample: EdgeSample) -> int:
    """Pairs (star S_x, F not containing x) with no retained edge between them."""
    return int(np.add.reduce(np.bitwise_count(sample.unblocked)))


def star_survives(sample: EdgeSample, centre: int) -> bool:
    """True iff the star at `centre` is maximal independent in the sample
    (it admits no superstar extension)."""
    centre = integer("centre", centre, 1, sample.params.n)
    return not np.count_nonzero(sample.unblocked & np.uint64(1 << (centre - 1)))


@dataclass(frozen=True)
class EkrSampleResult:
    holds: bool
    witness: int = 0  # the search's best independent set, as a vertex mask


def ekr_holds(sample: EdgeSample) -> EkrSampleResult:
    """alpha(K_p) == C(n-1,k-1)?  Decided by searching for a larger set.

    Removing edges can only create independent sets, so alpha >= C(n-1,k-1)
    always (the stars persist); equality fails exactly when some independent
    set of size C(n-1,k-1)+1 exists.  A superstar (S_x, F) is one, so a
    sample with one fails without a search, and K(n,k) itself holds without
    one, by the ratio bound, with the star at centre 1 as witness.  Else the
    search runs on a copy relabelled by deg - 3 * nbr / deg ascending (deg: a
    vertex's degree in the sample, nbr: its neighbours' degree sum; MCR's
    weighing, Tomita & Kameda 2007), ties to index once the key is evaluated
    in doubles; the search's clique cover starts from its highest label, so
    the vertex of rank r takes label nv-1-r.  The star at centre 1 is its
    incumbent, so it only looks for a set one larger.  A proof's witness is
    that star; a refutation's is mapped back to K(n,k)'s vertex indices.
    """
    if np.count_nonzero(sample.unblocked):
        return EkrSampleResult(holds=False)
    ctx = _context(sample.params)
    target = sample.params.star_size + 1
    if np.logical_and.reduce(sample.keep) and ratio_bound(sample.params) < target:
        return EkrSampleResult(holds=True, witness=ctx.star_mask)
    u, v = sample.edges
    nv = ctx.nv
    # order[r], of rank r by the key, gets label nv-1-r; no searched degree is 0
    deg = np.bincount(np.concatenate((u, v)), minlength=nv).astype(float)
    nbr = np.bincount(u, deg.take(v), nv) + np.bincount(v, deg.take(u), nv)
    order = np.argsort(deg - 3 * nbr / deg, kind="stable")
    label = np.empty_like(order)
    label[order] = np.arange(nv - 1, -1, -1)
    size, found, _ = max_independent_set_masks(
        edge_rows(nv, label.take(u), label.take(v)), stop_at=target,
        initial=vertex_mask(ctx.star[order[::-1]]))
    if size < target:  # the star incumbent stood
        return EkrSampleResult(holds=True, witness=ctx.star_mask)
    return EkrSampleResult(holds=False, witness=vertex_mask(vertex_bits(found, nv)[label]))


# ── probability estimation ───────────────────────────────────────────────

_OPEN = (-math.inf, math.inf)  # (fails_upto, holds_from) before any search


def _decide_trial(args: tuple) -> tuple[float, float, list[int]]:
    """Trial t's record: its final bracket, from deciding every p of tps
    (ascending), and X at each p it sampled (X = 0 from holds_from on)."""
    tps, t, (fails_upto, holds_from) = args
    ctx = _context(tps[0].params)
    xs = []
    # a trial settled at the lowest p of the call takes no sample
    uniforms = trial_uniforms(tps[0], t) if tps[0].p < holds_from else None
    for tp in tps:
        if tp.p >= holds_from:  # EKR holds here and at every later p
            break
        sample = sample_subgraph(tp, t, uniforms)
        x = count_superstars(sample)
        xs.append(x)
        if x or tp.p <= fails_upto:
            continue
        try:
            ekr = ekr_holds(sample)
        except GuardError as exc:
            raise GuardError(f"trial {t} at p={tp.p} aborted ({exc})") from exc
        if ekr.holds:
            holds_from = tp.p
        else:  # the witness stays independent up to its least edge word's double
            inside = vertex_bits(ekr.witness, ctx.nv)
            words = uniforms[inside[ctx.u] & inside[ctx.v]]
            least = int(words.min()) if len(words) else -1  # -1: no edge inside
            # by EKR, C(n-1,k-1)+1 k-sets hold an edge of K(n,k), and none may be kept
            if (np.count_nonzero(inside) != tp.params.star_size + 1
                    or least < math.ceil(tp.p * 2**53) << 11):
                raise AssertionError(f"trial {t} at p={tp.p}: the witness refutes nothing")
            fails_upto = (least >> 11) * 2**-53
    return fails_upto, holds_from, xs


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    trials = integer("trials", trials, 1)
    successes = integer("successes", successes, 0, trials)
    z = WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def _estimate(params: GroundParams, ps: list[float], trials: int, seed: int,
              brackets: list, workers: int) -> list[dict]:
    """Estimates at each p of ps, in order, reduced from one record per trial
    in trial order; updates brackets, which an empty list opens for every
    trial.  Checks every input before any trial."""
    tps = [ThresholdParams(params, p, trials, seed) for p in ps]
    # as ThresholdParams reads them, also for an empty p list
    trials, seed = integer("trials", trials, 1), integer("master_seed", seed)
    workers = integer("workers", workers, 1)
    if workers > WORKER_GUARD:
        raise GuardError(f"workers guarded to {WORKER_GUARD}, got {workers}")
    if trials < CI_MIN_TRIALS:
        raise DomainError(
            f"need at least {CI_MIN_TRIALS} trials for the interval, got {trials}")
    _context(params)  # build before forking so children inherit it
    if not tps:
        return []
    brackets[:] = brackets or [_OPEN] * trials
    ascending = sorted(set(tps), key=lambda tp: tp.p)
    jobs = [(ascending, t, bracket) for t, bracket in enumerate(brackets)]
    if workers == 1:
        records = list(map(_decide_trial, jobs))
    else:
        chunksize = -(-trials // workers)
        # spawn children start empty and build the context in _decide_trial
        method = "fork" if "fork" in get_all_start_methods() else "spawn"
        with get_context(method).Pool(processes=-(-trials // chunksize)) as pool:
            records = pool.map(_decide_trial, jobs, chunksize=chunksize)
    brackets[:] = [(fails_upto, holds_from) for fails_upto, holds_from, _ in records]
    rows = {}
    for i, tp in enumerate(ascending):
        successes = sum(tp.p >= holds_from for _, holds_from in brackets)
        lo, hi = wilson_interval(successes, trials)
        x_sum = sum(xs[i] for *_, xs in records if i < len(xs))  # else EKR: X = 0
        rows[tp] = {"n": params.n, "k": params.k, "p": tp.p, "trials": trials,
                    "successes": successes, "fraction": successes / trials,
                    "ci_lo": lo, "ci_hi": hi, "mean_x": x_sum / trials, "seed": seed}
    return [dict(rows[tp]) for tp in tps]  # a p asked for twice gets two rows


def estimate_probability(tp: ThresholdParams, *, workers: int = 1) -> dict:
    """Fraction of trials with the EKR property, with a Wilson 95% interval.

    Deterministic for fixed (params, p, trials, master_seed) regardless of
    worker count: each trial derives its stream from its own index, and the
    per-trial records are reduced in trial order.
    """
    return _estimate(tp.params, [tp.p], tp.trials, tp.master_seed,
                     [], workers)[0]


def estimate_probabilities(params: GroundParams, ps: list[float], trials: int,
                           master_seed: int, *, workers: int = 1) -> list[dict]:
    """estimate_probability at every p of ps, in their order, from one pass."""
    return _estimate(params, ps, trials, master_seed, [], workers)


def critical_probabilities(params: GroundParams) -> dict:
    """p_c = log(n C(n-1,k)) / C(n-k-1,k-1) and
    p_0 = ((k+1) log n - k log k) / C(n-1,k-1), natural logs."""
    n, k = params.n, params.k
    if n < 2 * k + 2:
        raise DomainError(f"critical probabilities need n >= 2k+2, got n={n} k={k}")
    p_c = math.log(n * math.comb(n - 1, k)) / math.comb(n - k - 1, k - 1)
    p_0 = ((k + 1) * math.log(n) - k * math.log(k)) / math.comb(n - 1, k - 1)
    return {"p_c": p_c, "p_0": p_0}


def find_threshold(params: GroundParams, trials: int, seed: int, *,
                   workers: int = 1) -> dict:
    """Bisection for the p where the EKR-property frequency crosses 1/2.

    Each midpoint is estimated with every trial's bracket kept from earlier
    midpoints; the p bracket moves only when the Wilson interval separates
    from 1/2, and the search stops at an undecided midpoint (flagged) or once
    it is no wider than THRESHOLD_WIDTH.  Reported alongside p_c and p_0.
    """
    crit = critical_probabilities(params)
    lo, hi = 0.0, 1.0
    evaluations = []
    brackets = []  # every trial's, kept across midpoints
    while hi - lo > THRESHOLD_WIDTH:
        mid = 0.5 * (lo + hi)
        est = _estimate(params, [mid], trials, seed, brackets, workers)[0]
        evaluations.append({"p": mid, "fraction": est["fraction"],
                            "ci_lo": est["ci_lo"], "ci_hi": est["ci_hi"]})
        if est["ci_lo"] > 0.5:
            hi = mid
        elif est["ci_hi"] < 0.5:
            lo = mid
        else:  # undecided: the bracket closes on mid
            lo = hi = mid
            break
    return {
        "n": params.n,
        "k": params.k,
        "p_half": 0.5 * (lo + hi),
        "bracket_lo": lo,
        "bracket_hi": hi,
        "iterations": len(evaluations),
        "separated_cleanly": lo < hi,
        "p_c": crit["p_c"],
        "p_0": crit["p_0"],
        "trials_per_point": trials,
        "seed": seed,
        "evaluations": evaluations,
    }


# ── analytic bound evaluators (log-space) ────────────────────────────────

def _log_comb(a: float, b: float) -> float:
    """log C(a,b) via lgamma, for 0 <= b <= a; 0 when b in {0,a}."""
    return (math.lgamma(a + 1.0) - math.lgamma(b + 1.0)
            - math.lgamma(a - b + 1.0))


def analytic_bounds(params: GroundParams, zeta: float, i: int, j: int, *,
                    c_const: float = 2.0,
                    epsilon: float = DEFAULT_EPSILON) -> dict:
    """Evaluate the union-bound machinery at p = zeta * p_c.

    first_moment_bound = (n C(n-1,k))^(1-zeta) caps the expected superstar
    count; near_star_base(i) is the base of the i-th power in the
    moderate-distance sum; far_family_bound is the trivial union bound over
    all families of star size; maximal_family_bound caps the expected number
    of maximal independent families at distance pattern (i,j) from a star;
    near_cutoff/far_cutoff are the boundaries of the three distance ranges.
    All in log-space.  The dict's key order is the `bounds` CSV header.
    """
    n, k = params.n, params.k
    zeta, c_const, epsilon = (real("zeta", zeta, 0), real("c_const", c_const, 0),
                              real("epsilon", epsilon, 0))
    crit = critical_probabilities(params)
    p_c = crit["p_c"]
    p = zeta * p_c
    p_eff = min(p, 1.0)
    star = params.star_size          # C(n-1,k-1)
    cross = params.star_disjoint_degree  # C(n-k-1,k-1)
    big = math.comb(n - 1, k)
    log_nbig = math.log(n) + math.log(big)

    i = integer("i", i, 0, star)
    # for i = 0 the count is identically zero (empty A forces empty B)
    j = integer("j", j, 0, i * params.kneser_degree if i else None)
    near, far_den = 0.5 * epsilon * cross, 400.0 * c_const * c_const * n
    if near == math.inf:
        raise DomainError(f"epsilon {epsilon!r} overflows the near cutoff, epsilon C(n-k-1,k-1)/2")
    if far_den == 0.0:  # as does C(n-1,k-1) / (400 C) at a smaller C
        raise DomainError(f"c_const {c_const!r} underflows 400 C^2 n to 0")

    log1mp = math.log1p(-p_eff) if p_eff < 1.0 else -math.inf

    # exact E[X] = n C(n-1,k) (1-p)^C(n-k-1,k-1)
    log_ex = log_nbig + cross * log1mp
    # one-star failure probability (1 - (1-p)^cross)^C(n-1,k)
    eim = -math.expm1(cross * log1mp)  # 1 - (1-p)^cross, 1.0 at p = 1
    log_lower = big * math.log(eim) if eim > 0 else -math.inf
    log_first_moment_bound = (1.0 - zeta) * log_nbig
    if i >= 1:
        log_eq2 = (math.log(k) + 2.0 + 2.0 * math.log(big) - math.log(n - k)
                   - 2.0 * math.log(i)
                   - zeta * (n - 2 * k) / (c_const * n) * log_nbig)
    else:
        log_eq2 = math.inf  # the moderate-range sum starts at i = 1
    log_far_family_bound = star * (math.log(n) + 1.0 - math.log(k)
                      - zeta * (n - 2 * k) / far_den * log_nbig)
    near_cutoff = math.ceil(near)
    far_cutoff = math.ceil(star / (400.0 * c_const))

    # maximal_family_bound = n C(star,i) C(i*deg, j) (j p)^i (1-p)^(j (cross - i))
    if i == 0:
        log_z = math.log(n) if j == 0 else -math.inf
    elif j == 0:
        log_z = -math.inf  # (j p)^i vanishes
    else:
        jp = j * p_eff
        log_z = (math.log(n) + _log_comb(star, i)
                 + _log_comb(i * params.kneser_degree, j)
                 + i * (math.log(jp) if jp > 0 else -math.inf)
                 # (1-p)^0 = 1 even at p = 1, where log1mp is -inf
                 + (j * (cross - i) * log1mp if cross != i else 0.0))

    def safe_exp(x: float) -> float:
        return math.inf if x > 700.0 else math.exp(x)  # exp(-inf) is 0.0

    return {
        "p_c": p_c,
        "p_0": crit["p_0"],
        "zeta": zeta,
        "p": p,
        "p_effective": p_eff,
        "ex_exact": safe_exp(log_ex),
        "log_ex": log_ex,
        "lower_bound_prob": safe_exp(log_lower),
        "first_moment_bound": safe_exp(log_first_moment_bound),
        "log_first_moment_bound": log_first_moment_bound,
        "near_star_base": safe_exp(log_eq2),
        "log_near_star_base": log_eq2,
        "far_family_bound": safe_exp(log_far_family_bound),
        "log_far_family_bound": log_far_family_bound,
        "near_cutoff": near_cutoff,
        "far_cutoff": far_cutoff,
        "maximal_family_bound": safe_exp(log_z),
        "log_maximal_family_bound": log_z,
        "i": i,
        "j": j,
        "c_const": c_const,
        "epsilon": epsilon,
    }
