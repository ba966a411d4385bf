"""removal: nearest unions of stars, bound checks, case classification."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from kneserlab.errors import DomainError
from kneserlab.families import (
    FamilyStats,
    GroundParams,
    SetFamily,
    build_family,
    elements_from_mask,
    enumerate_masks,
    family_stats,
    sym_diff_size,
)
from kneserlab.removal import (
    RemovalConfig,
    calibrate_constant,
    case_classify,
    case_table,
    center_set_check,
    nearest_union_exact,
    removal_bound_base,
    removal_bound_check,
    union_size,
)
from kneserlab.spectral import residual_bound_check
from oracles import nearest_union_heuristic, union_distance


def exhaustive_union_oracle(family, ell):
    """Independent route: python-set symmetric differences over all centres."""
    params = family.params
    mine = {frozenset(elements_from_mask(m)) for m in family.members}
    best = None
    for centres in combinations(range(1, params.n + 1), ell):
        union = {frozenset(elements_from_mask(m))
                 for m in enumerate_masks(params.n, params.k)
                 if any((m >> (c - 1)) & 1 for c in centres)}
        d = len(mine ^ union)
        if best is None or d < best[1]:
            best = (centres, d)
    return best


def perturbed_star(params, removals, additions, seed):
    star = build_family(params, "star:1")
    rng = random.Random(seed)
    members = list(star.members)
    for m in rng.sample(members, removals):
        members.remove(m)
    outside = [m for m in enumerate_masks(params.n, params.k)
               if m not in star]
    members.extend(rng.sample(outside, additions))
    return SetFamily.from_masks(params, members)


def test_nearest_union_exact_examples():
    assert nearest_union_exact(build_family(GroundParams(7, 3), "star:1"), 1) == ((1,), 0)
    anti = build_family(GroundParams(5, 2), "antistar:5")
    assert nearest_union_exact(anti, 1) == ((1,), 4)  # tie broken to {1}
    star6 = build_family(GroundParams(6, 2), "star:1")
    masks = [m for m in star6.members if m != 0b000011] + [0b000110]
    pert = SetFamily.from_masks(GroundParams(6, 2), masks)
    assert nearest_union_exact(pert, 1) == ((1,), 2)


@pytest.mark.parametrize("n,k,ell,seed", [(6, 2, 1, 0), (7, 3, 1, 1),
                                          (8, 2, 2, 2), (7, 3, 2, 3),
                                          (9, 3, 3, 4)])
def test_nearest_union_exact_matches_oracle(n, k, ell, seed):
    params = GroundParams(n, k)
    m = (seed * 23 + 9) % params.slice_size + 1
    fam = build_family(params, f"random:{m}:{seed}")
    assert nearest_union_exact(fam, ell) == exhaustive_union_oracle(fam, ell)


def miss_scan(family, centres):
    """#{A in F : A cap S = empty} by a direct scan of the members."""
    smask = sum(1 << (c - 1) for c in centres)
    return sum(1 for m in family.members if not m & smask)


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n,k,seed", [(9, 2, 11), (10, 3, 12), (11, 4, 13)])
def test_nearest_union_exact_matches_member_scan(n, k, ell, seed):
    params = GroundParams(n, k)
    fam = build_family(params, f"random:{params.slice_size // 3}:{seed}")
    base = union_size(params, ell) - len(fam)
    dist, centres = min((base + 2 * miss_scan(fam, combo), combo)
                        for combo in combinations(range(1, n + 1), ell))
    assert nearest_union_exact(fam, ell) == (centres, dist)


@pytest.mark.parametrize("n,k,m,seed", [(9, 2, 12, 21), (10, 3, 40, 22),
                                        (11, 4, 60, 23), (12, 3, 70, 24)])
def test_center_set_check_matches_member_scan(n, k, m, seed):
    params = GroundParams(n, k)
    fam = build_family(params, f"random:{m}:{seed}")
    rep = center_set_check(fam, RemovalConfig(1, 2.0))
    best = None
    for s in range(rep.s_bound + 1):
        for combo in combinations(range(1, n + 1), s):
            miss = miss_scan(fam, combo)
            for rank, dist in ((0, union_size(params, s) - m + 2 * miss),
                               (1, m + math.comb(n - s, k) - 2 * miss)):
                key = (dist, rank, s, combo)
                if best is None or key < best:
                    best = key
    dist, rank, _, combo = best
    assert rep.best_s == combo
    assert rep.branch == ("direct", "complement")[rank]
    assert rep.closeness == dist / params.slice_size


def test_nearest_union_heuristic_examples():
    full = SetFamily.from_masks(GroundParams(5, 2), enumerate_masks(5, 2))
    assert nearest_union_heuristic(full, 1) == ((1,), 6)
    anti = build_family(GroundParams(5, 2), "antistar:5")
    assert nearest_union_heuristic(anti, 1) == ((1,), 4)
    assert nearest_union_heuristic(build_family(GroundParams(8, 3), "star:2"), 1) == ((2,), 0)


@pytest.mark.parametrize("seed", range(10))
def test_heuristic_never_beats_exact(seed):
    params = GroundParams(8, 2)
    m = (seed * 17 + 5) % params.slice_size + 1
    fam = build_family(params, f"random:{m}:{seed}")
    for ell in (1, 2):
        _, d_exact = nearest_union_exact(fam, ell)
        _, d_heur = nearest_union_heuristic(fam, ell)
        assert d_heur >= d_exact


@pytest.mark.parametrize("n,k", [(9, 2), (12, 2), (9, 3), (11, 3)])
def test_heuristic_matches_exact_on_small_perturbations(n, k):
    params = GroundParams(n, k)
    budget = max(1, params.star_size // 4 - 1)
    for seed in range(6):
        fam = perturbed_star(params, removals=min(2, budget),
                             additions=min(1, budget), seed=seed)
        assert nearest_union_heuristic(fam, 1)[1] == nearest_union_exact(fam, 1)[1]


def test_exact_union_distance_is_zero_on_unions():
    for n, k, ell in [(9, 2, 1), (9, 2, 2), (13, 3, 2)]:
        params = GroundParams(n, k)
        fam = build_family(params, "union:" + ",".join(map(str, range(1, ell + 1))))
        centres, dist = nearest_union_exact(fam, ell)
        assert dist == 0
        assert centres == tuple(range(1, ell + 1))


def test_monotone_sanity_adding_counted_set():
    params = GroundParams(7, 2)
    fam = perturbed_star(params, removals=2, additions=0, seed=3)
    centres, dist = nearest_union_exact(fam, 1)
    missing = [m for m in build_family(params, f"star:{centres[0]}").members
               if m not in fam]
    bigger = SetFamily.from_masks(params, list(fam.members) + [missing[0]])
    assert nearest_union_exact(bigger, 1)[1] <= dist


def test_removal_bound_star_trivial():
    fam, cfg = build_family(GroundParams(7, 2), "star:1"), RemovalConfig(1, 2.0)
    rep = removal_bound_check(fam, cfg)
    assert rep.distance == 0
    assert rep.bound == pytest.approx(0.0)
    assert rep.holds and rep.preconditions_met
    assert case_classify(fam, cfg) == "(vi)"


def test_removal_bound_star_minus_two_at_24_2():
    params = GroundParams(24, 2)
    star = build_family(params, "star:1")
    fam = SetFamily.from_masks(params, list(star.members)[2:])
    rep = removal_bound_check(fam, RemovalConfig(1, 2.0))
    assert rep.stats.alpha == pytest.approx(2 / 23)
    assert rep.distance == 2
    # bound = C (2l-1)alpha n/(n-2k) C(n-1,k-1) = 2 * (2/23) * 1.2 * 23
    assert rep.bound == pytest.approx(4.8)
    assert rep.holds


@pytest.mark.parametrize("n,k,ell,spec", [
    (24, 2, 1, "random:30:1"), (13, 3, 1, "antistar:2"), (20, 2, 2, "union:1,2"),
    (19, 2, 2, "random:40:7"),
])
def test_removal_bound_is_the_lemma_bound(n, k, ell, spec):
    # the report reads excess = ((2l-1) alpha + 2 beta) k/(n-2k) for epsilon
    # and the residual bound; its base is the lemma's
    # ((2l-1) alpha + 2 beta) n/(n-2k) C(n-1,k-1)
    params = GroundParams(n, k)
    fam = build_family(params, spec)
    stats = family_stats(fam, ell)
    weight = (2 * ell - 1) * stats.alpha + 2 * stats.beta
    assert removal_bound_base(stats) == weight * Fraction(n, n - 2 * k) * params.star_size
    rep = removal_bound_check(fam, RemovalConfig(ell, 2.0))
    assert rep.epsilon == float(weight * Fraction(k, n - 2 * k))
    assert residual_bound_check(fam, ell).rhs == rep.epsilon


def test_removal_bound_antistar_preconditions_fail_but_report_returns():
    fam, cfg = build_family(GroundParams(5, 2), "antistar:5"), RemovalConfig(1, 2.0)
    rep = removal_bound_check(fam, cfg)
    assert not rep.preconditions_met
    assert rep.distance == 4
    assert case_classify(fam, cfg) == "(v)"


@pytest.mark.parametrize("n,k,spec", [(24, 2, "random:250:7"), (5, 2, "antistar:5")])
def test_removal_bound_check_runs_no_centre_set_search(monkeypatch, n, k, spec):
    # the bound reads the subset-count table and one nearest-union scan; the
    # centre-set search and its decomposition belong to case_classify
    from kneserlab import removal

    calls = []
    real_decompose, real_search = removal.decompose_affine, center_set_check.__wrapped__
    monkeypatch.setattr(removal, "decompose_affine",
                        lambda family: calls.append("decompose") or real_decompose(family))
    monkeypatch.setattr(center_set_check, "__wrapped__",
                        lambda *a: calls.append("search") or real_search(*a))
    center_set_check.cache_clear()
    removal_bound_check(build_family(GroundParams(n, k), spec), RemovalConfig(1, 2.0))
    assert calls == []


def test_removal_bound_requires_large_n():
    with pytest.raises(DomainError):
        removal_bound_check(build_family(GroundParams(8, 2), "star:1"),
                        RemovalConfig(2, 2.0))  # needs n > 2k l^2 = 16


def test_center_set_examples():
    cfg = RemovalConfig(1, 2.0)
    rep = center_set_check(build_family(GroundParams(5, 2), "star:1"), cfg)
    assert (rep.eps_in, rep.s_bound, rep.best_s, rep.closeness) == (0.0, 1, (1,), 0.0)
    assert rep.holds and rep.branch == "direct"
    rep = center_set_check(build_family(GroundParams(5, 2), "antistar:5"), cfg)
    assert rep.branch == "complement"
    assert rep.best_s == (5,)
    assert rep.closeness == 0.0 and rep.holds
    full = SetFamily.from_masks(GroundParams(5, 2), enumerate_masks(5, 2))
    rep = center_set_check(full, cfg)
    assert rep.branch == "complement" and rep.best_s == ()
    assert rep.closeness == 0.0


def test_center_set_search_runs_again_for_a_family_one_member_apart(monkeypatch):
    from kneserlab import removal

    params = GroundParams(12, 2)
    fam = build_family(params, "union:1,2")
    outside = next(m for m in enumerate_masks(12, 2) if m not in fam)
    other = SetFamily.from_masks(params, fam.members[1:] + (outside,))
    cfg = RemovalConfig(1, 2.0)
    center_set_check.cache_clear()
    searches = []
    search = center_set_check.__wrapped__
    monkeypatch.setattr(removal.center_set_check, "__wrapped__",
                        lambda f, c: searches.append((f, c)) or search(f, c))
    first, second = center_set_check(fam, cfg), center_set_check(other, cfg)
    assert searches == [(fam, cfg), (other, cfg)]
    assert second.eps_in != first.eps_in
    assert center_set_check(other, cfg) is second
    looser = RemovalConfig(1, 3.0)
    assert center_set_check(other, looser) == search(other, looser)
    assert searches[2:] == [(other, looser)]
    center_set_check.cache_clear()
    assert search(other, cfg) == second


def test_center_set_requires_k_at_least_2():
    with pytest.raises(DomainError):
        center_set_check(build_family(GroundParams(5, 1), "star:1"), RemovalConfig(1, 2.0))


@pytest.mark.parametrize("n,k,s,chunk", [
    (9, 3, 0, None), (9, 3, 1, None), (12, 3, 2, None), (12, 3, 3, None),
    (64, 2, 2, None),  # the widest one-chunk l = 2 scan
    (9, 3, 2, 16), (12, 3, 3, 16),  # many chunks of two sets each
])
def test_centre_sets_are_the_lexicographic_combinations(n, k, s, chunk, monkeypatch):
    from kneserlab import removal

    if chunk:
        monkeypatch.setattr(removal, "MISS_CHUNK", chunk)
    fam = build_family(GroundParams(n, k), f"random:{3 * n}:{n + s}")
    chunks = list(removal._misses(fam, s))
    assert (len(chunks) > 1) == bool(chunk)
    sets = [tuple(row) for sets, _ in chunks for row in sets.tolist()]
    assert sets == list(combinations(range(1, n + 1), s))
    members = [set(elements_from_mask(a)) for a in fam.members]
    misses = [int(x) for _, miss in chunks for x in miss]
    assert misses == [sum(not a & set(c) for a in members) for c in sets]


def test_a_second_scan_at_one_key_builds_no_centre_table(monkeypatch):
    from kneserlab import removal

    removal._centre_table.cache_clear()
    builds = []
    lookups = removal._lookups
    monkeypatch.setattr(removal, "_lookups",
                        lambda sets, t: builds.append((len(sets), t)) or lookups(sets, t))
    first = build_family(GroundParams(12, 3), "random:50:1")
    second = build_family(GroundParams(12, 4), "random:50:2")  # min(k, s) = 2 again
    for fam in (first, second, first):
        assert nearest_union_exact(fam, 2) == exhaustive_union_oracle(fam, 2)
    assert builds == [(math.comb(12, 2), 2)]
    info = removal._centre_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    sets, masks, signs = removal._centre_table(12, 2, 2, 0, removal.MISS_CHUNK // 4)
    assert sets.shape == (66, 2) and len(builds) == 1
    for table in (sets, masks, signs):  # shared, so read-only
        with pytest.raises(ValueError):
            table[0] = 1


def test_case_classification_examples():
    assert case_classify(build_family(GroundParams(5, 2), "star:1"),
                         RemovalConfig(1, 2.0)) == "(vi)"
    assert case_classify(build_family(GroundParams(5, 2), "antistar:5"),
                         RemovalConfig(1, 2.0)) == "(v)"
    assert case_classify(build_family(GroundParams(10, 2), "union:1,2"),
                         RemovalConfig(2, 2.0)) == "(vi)"


def test_case_table_rows():
    rows = case_table(build_family(GroundParams(10, 2), "star:1"),
                      RemovalConfig(1, 2.0))
    assert [r["case"] for r in rows] == ["(i)", "(ii)", "(iii)", "(iv)", "(v)", "(vi)"]
    realized = [r for r in rows if r["realized"]]
    assert len(realized) == 1 and realized[0]["case"] == "(vi)"
    vi = rows[-1]
    assert vi["within_window"]
    v_row = rows[4]
    assert "dp_family" in v_row and "dp_lower_threshold" in v_row


ANTISTAR_BENCHMARKS = [(5, 2, 4), (7, 3, 15), (9, 4, 56)]


@pytest.mark.parametrize("n,k,expected", ANTISTAR_BENCHMARKS)
def test_antistar_nearest_star_distance(n, k, expected):
    params = GroundParams(n, k)
    anti = build_family(params, f"antistar:{n}")
    oracle = exhaustive_union_oracle(anti, 1)
    assert oracle[1] == expected == math.comb(n - 1, k - 1)
    assert nearest_union_exact(anti, 1)[1] == expected


def test_union_distance_matches_sym_diff():
    params = GroundParams(7, 3)
    fam = build_family(params, "random:14:2")
    for centres in [(1,), (3,), (1, 2), (2, 5)]:
        union = build_family(params, "union:" + ",".join(map(str, centres)))
        assert union_distance(fam, centres) == sym_diff_size(fam, union)
    for ell in (1, 2):  # the miss counts read off the subset-count table
        centres, dist = nearest_union_exact(fam, ell)
        assert union_distance(fam, centres) == dist


def test_calibrate_constant_on_star_perturbations():
    entries = []
    for n, k in [(12, 2), (16, 2), (13, 3)]:
        params = GroundParams(n, k)
        star = build_family(params, "star:1")
        entries.append((family_stats(star, 1), 0))
        for removals in (1, 2):
            fam = SetFamily.from_masks(params, list(star.members)[removals:])
            stats = family_stats(fam, 1)
            entries.append((stats, nearest_union_exact(fam, 1)[1]))
    c_star = calibrate_constant(entries)
    assert math.isfinite(c_star)
    cfg_c = max(c_star, 1.000001)
    for stats, dist in entries:
        if stats.removal_precondition_met(cfg_c):
            assert dist <= Fraction(cfg_c) * removal_bound_base(stats)


def synthetic_stats(params, size, dp):
    """FamilyStats at l = 1 of a family of this size and dp, as family_stats
    computes them."""
    star = params.star_size
    return FamilyStats(params, 1, size, dp, 1 - Fraction(size, star),
                       Fraction(dp, star * params.star_disjoint_degree))


def random_entries(rng):
    """Four (stats, distance) entries near a star at one (n,k): the
    preconditions hold up to C of about 1 to 2, and dist/base lies in 0..3."""
    n, k = rng.choice([(30, 2), (45, 3), (64, 3), (64, 4)])
    params = GroundParams(n, k)
    star, cross = params.star_size, params.star_disjoint_degree
    width = (n - 2 * k) / (400 * n)  # the bound on max(2|alpha|, |beta|) at C = 1
    entries = []
    while len(entries) < 4:
        stats = synthetic_stats(params, star - round(rng.uniform(-0.3, 0.3) * width * star),
                                round(rng.uniform(0, 1.1) * width * star * cross))
        base = removal_bound_base(stats)
        # a family's base is never negative: its excess bounds ||f2||^2
        if base > 0:
            entries.append((stats, rng.randint(0, int(3 * base) + 1)))
        elif base == 0:
            entries.append((stats, rng.choice([0, 0, 0, 1])))
    return entries


def test_calibrate_constant_is_exact_and_least():
    # the float bisection this replaced returned a C below some qualifying
    # entry's exact ratio dist/base on 11 of these 200 sets
    floor = 1.000001
    rng = random.Random(1)
    kinds = Counter()
    for _ in range(200):
        entries = random_entries(rng)
        c_star = calibrate_constant(entries, floor=floor)
        if math.isinf(c_star):
            assert any(stats.removal_precondition_met(floor)
                       and removal_bound_base(stats) <= 0 < dist
                       for stats, dist in entries)
            kinds["inf"] += 1
            continue
        assert c_star >= floor
        assert all(dist <= Fraction(c_star) * removal_bound_base(stats)
                   for stats, dist in entries if stats.removal_precondition_met(c_star))
        if c_star == floor:
            kinds["floor"] += 1
            continue
        below = math.nextafter(c_star, 0)
        failing = [stats for stats, dist in entries
                   if stats.removal_precondition_met(below)
                   and dist > Fraction(below) * removal_bound_base(stats)]
        assert failing
        # an entry failing just below C* is satisfied at C* by its ratio if it
        # still qualifies there, else by leaving the preconditions
        still = any(stats.removal_precondition_met(c_star) for stats in failing)
        kinds["ratio" if still else "breakpoint"] += 1
    assert min(kinds[key] for key in ("inf", "floor", "ratio", "breakpoint")) > 0, kinds
