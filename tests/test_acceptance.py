"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  The heavy sweeps (criteria 4-6 share one) are built once per session.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from kneserlab.errors import GuardError
from kneserlab.families import (
    GroundParams,
    SetFamily,
    build_family,
    disjoint_pairs,
    elements_from_mask,
    enumerate_masks,
    family_stats,
)
from kneserlab.graphs import (
    baranyai_partition,
    build_graph,
    enumerate_maximum,
    extremal_subgraph,
    is_star,
    max_independent_set,
    spectrum_cross_check,
)
from kneserlab.removal import (
    calibrate_constant,
    nearest_union_exact,
    removal_bound_base,
)
from kneserlab.spectral import decompose_affine, residual_bound_check
from kneserlab.threshold import (
    ThresholdParams,
    count_superstars,
    critical_probabilities,
    estimate_probability,
    find_threshold,
    sample_subgraph,
    star_survives,
)
from oracles import affine_residual_exact, quadratic_form

SEED = 1961


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


# ── shared randomized sweep for criteria 4-6 ─────────────────────────────

def _perturbed_star(params: GroundParams, removals: int, additions: int,
                    rng: np.random.Generator) -> SetFamily:
    star = build_family(params, "star:1")
    members = list(star.members)
    removals = min(removals, len(members) - 1)
    for idx in sorted(rng.choice(len(members), size=removals, replace=False),
                      reverse=True):
        members.pop(int(idx))
    outside = [m for m in enumerate_masks(params.n, params.k)
               if m not in star]
    additions = min(additions, len(outside))
    if additions:
        picks = rng.choice(len(outside), size=additions, replace=False)
        members.extend(outside[int(i)] for i in picks)
    return SetFamily.from_masks(params, members)


@lru_cache(maxsize=1)
def residual_sweep() -> tuple:
    """>= 10^4 families over all n <= 14, 2 <= k < n/2: structured + random."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(SEED)))
    families: list[SetFamily] = []
    pairs = [(n, k) for n in range(5, 15) for k in range(2, (n + 1) // 2)]
    for n, k in pairs:
        params = GroundParams(n, k)
        total = params.slice_size
        families.append(build_family(params, "star:1"))
        families.append(build_family(params, "star:2"))
        families.append(build_family(params, "union:1,2"))
        families.append(build_family(params, f"union:2,{n}"))
        families.append(build_family(params, f"antistar:{n}"))
        families.append(build_family(params, "antistar:1"))
        families.append(build_family(params, "complement-of:star:1"))
        for removals in (1, 2, 4):
            for additions in (0, 1, 3):
                for _ in range(2):
                    families.append(_perturbed_star(params, removals, additions, rng))
        masks = list(enumerate_masks(n, k))
        for _ in range(500):
            m = int(rng.integers(0, total + 1))
            if m == 0:
                families.append(SetFamily(params, ()))
                continue
            picks = rng.choice(total, size=m, replace=False)
            families.append(SetFamily.from_masks(params, (masks[int(i)] for i in picks)))
    return tuple(families)


def test_criterion_1_ekr_exactness():
    t0 = time.time()
    value_cases = [(n, k) for k in range(2, 8) for n in range(2 * k, 65)
                   if math.comb(n, k) <= 3000]
    value_failures = []
    enum_checked = 0
    enum_failures = []
    for n, k in value_cases:
        params = GroundParams(n, k)
        graph = build_graph(params)
        result = max_independent_set(graph)
        if result.size != math.comb(n - 1, k - 1):
            value_failures.append((n, k, result.size))
        if n > 2 * k:
            fams = enumerate_maximum(graph)
            enum_checked += 1
            if len(fams) != n or not all(is_star(f) for f in fams):
                enum_failures.append((n, k, len(fams)))
    elapsed = time.time() - t0
    passed = (not value_failures and not enum_failures and elapsed < 600)
    report(1, passed,
           f"alpha = C(n-1,k-1) on {len(value_cases)} instances (C(n,k) <= 3000); "
           f"all-maximum enumeration = n stars on the {enum_checked} with n > 2k; "
           f"{elapsed:.1f}s (budget 600s)")
    assert passed, (value_failures, enum_failures, elapsed)


def test_criterion_2_spectrum_identity():
    cases = [(n, k) for k in range(2, 8) for n in range(2 * k, 65)
             if math.comb(n, k) <= 500]
    worst = 0.0
    failures = []
    for n, k in cases:
        rep = spectrum_cross_check(GroundParams(n, k), tol=1e-6)
        worst = max(worst, rep["max_deviation"])
        if not rep["ok"] or rep["lambda1_multiplicity"] != n - 1:
            failures.append((n, k))
    petersen = spectrum_cross_check(GroundParams(5, 2))
    petersen_ok = petersen["spectrum"] == [(-2, 4), (1, 5), (3, 1)]
    passed = not failures and petersen_ok
    report(2, passed,
           f"{len(cases)} spectra match (-1)^i C(n-k-i,k-i) within 1e-6 "
           f"(worst dev {worst:.2e}); lambda_1 multiplicity n-1; "
           f"Petersen = {{3x1, 1x5, -2x4}}")
    assert passed, failures


def test_criterion_3_quadratic_form_identity():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(SEED + 3)))
    failures = 0
    checked = 0
    for n, k in [(5, 2), (8, 3), (10, 4), (12, 5)]:
        params = GroundParams(n, k)
        masks = list(enumerate_masks(n, k))
        total = params.slice_size
        for _ in range(1000):
            m = int(rng.integers(0, total + 1))
            fam = SetFamily.from_masks(
                params, (masks[int(i)] for i in
                         rng.choice(total, size=m, replace=False))) \
                if m else SetFamily(params, ())
            checked += 1
            if quadratic_form(fam) != 2 * disjoint_pairs(fam):
                failures += 1
    passed = failures == 0
    report(3, passed,
           f"f^T A f == 2 dp(F) exactly on {checked} random families over "
           f"(5,2),(8,3),(10,4),(12,5)")
    assert passed


def exact_subsample(families, per_pair: int = 8) -> list[SetFamily]:
    """A seeded choice of per_pair families of the sweep at every (n,k)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(SEED + 5)))
    by_pair: dict[tuple[int, int], list[SetFamily]] = {}
    for fam in families:
        by_pair.setdefault((fam.params.n, fam.params.k), []).append(fam)
    return [group[int(i)] for group in by_pair.values()
            for i in rng.choice(len(group), size=per_pair, replace=False)]


def test_criterion_4_and_5_residual_bound_and_parseval():
    families = residual_sweep()
    bound_failures = 0
    parseval_worst = 0.0
    checks = 0
    for fam in families:
        dec = decompose_affine(fam)
        parseval_worst = max(parseval_worst, dec.parseval_residual)
        for ell in (1, 2):
            checks += 1
            if not residual_bound_check(fam, ell).holds:
                bound_failures += 1
    # f2 is defined as mean - mean^2 - f1, so the Parseval residual only sees
    # float rounding; ||f - g||^2 from an independent exact solve can fail
    subsample = exact_subsample(families)
    pairs = {(fam.params.n, fam.params.k) for fam in subsample}
    mismatches = sum(affine_residual_exact(fam) != decompose_affine(fam).f2_norm_sq_exact
                     for fam in subsample)
    bound_ok = bound_failures == 0 and len(families) >= 10_000
    parseval_ok = parseval_worst <= 1e-9 and mismatches == 0
    report(4, bound_ok,
           f"residual bound holds on {checks} checks "
           f"({len(families)} families, l in {{1,2}}, n <= 14)")
    report(5, parseval_ok,
           f"Parseval residual <= 1e-9 on the full sweep "
           f"(worst {parseval_worst:.2e}); ||f2||^2 equals an exact "
           f"least-squares solve on {len(subsample)} families over all "
           f"{len(pairs)} (n,k) ({mismatches} mismatches)")
    assert bound_ok and parseval_ok


def antistar_oracle_distance(n: int, k: int) -> int:
    """Exhaustive nearest-star distance of the anti-star via python sets."""
    params = GroundParams(n, k)
    anti = {frozenset(elements_from_mask(m))
            for m in build_family(params, f"antistar:{n}").members}
    best = None
    for c in range(1, n + 1):
        star = {frozenset(elements_from_mask(m))
                for m in build_family(params, f"star:{c}").members}
        best = len(anti ^ star) if best is None else min(best, len(anti ^ star))
    return best


def test_criterion_6_removal_calibration():
    entries = []
    floor = 1.000001
    for fam in residual_sweep():
        params = fam.params
        for ell in (1, 2):
            if params.n <= 2 * params.k * ell * ell:
                continue
            stats = family_stats(fam, ell)
            if not stats.removal_precondition_met(floor):
                continue
            entries.append((stats, nearest_union_exact(fam, ell)[1]))
    # a non-vacuous l = 2 series: n > 8k needs n >= 17 at k = 2
    for n in (18, 20, 24):
        params = GroundParams(n, 2)
        for spec in ("union:1,2", "union:1,3"):
            fam = build_family(params, spec)
            entries.append((family_stats(fam, 2), nearest_union_exact(fam, 2)[1]))
        trimmed = SetFamily.from_masks(
            params, list(build_family(params, "union:1,2").members)[1:])
        entries.append((family_stats(trimmed, 2), nearest_union_exact(trimmed, 2)[1]))
    # at k = 3, n >= 48 the alpha/beta window admits positive distances, so the
    # calibrated bound is certified on non-trivial perturbations too
    for n in (48, 64):
        params = GroundParams(n, 3)
        star = build_family(params, "star:1")
        removed = SetFamily.from_masks(params, list(star.members)[1:])
        entries.append((family_stats(removed, 1), nearest_union_exact(removed, 1)[1]))
        foreign = next(m for m in enumerate_masks(n, 3) if not m & 1)
        added = SetFamily.from_masks(params, list(star.members) + [foreign])
        entries.append((family_stats(added, 1), nearest_union_exact(added, 1)[1]))
    c_star = calibrate_constant(entries, floor=floor)
    finite = math.isfinite(c_star)
    violations = 0
    qualifying = 0
    nontrivial = 0
    if finite:
        for stats, dist in entries:
            if stats.removal_precondition_met(c_star):
                qualifying += 1
                nontrivial += dist > 0
                if dist > Fraction(c_star) * removal_bound_base(stats):
                    violations += 1
    anti_expected = {(5, 2): 4, (7, 3): 15, (9, 4): 56}
    anti_ok = all(antistar_oracle_distance(n, k) == d ==
                  nearest_union_exact(build_family(GroundParams(n, k),
                                                   f"antistar:{n}"), 1)[1]
                  for (n, k), d in anti_expected.items())
    passed = (finite and violations == 0 and qualifying > 0
              and nontrivial > 0 and anti_ok)
    report(6, passed,
           f"calibrated C* = {c_star:.4f} (finite), bound holds on all "
           f"{qualifying} qualifying families of {len(entries)} candidates "
           f"({nontrivial} at positive distance); anti-star nearest-star "
           f"distances {{(5,2):4, (7,3):15, (9,4):56}} match the exhaustive "
           f"oracle")
    assert passed, (c_star, violations, nontrivial, anti_ok)


def test_criterion_7_superstar_expectation():
    t0 = time.time()
    params = GroundParams(12, 2)
    trials = 100_000
    tp = ThresholdParams(params, 0.5, trials, SEED)
    x_sum = 0
    x_sumsq = 0
    star1_alive = 0
    for t in range(trials):
        sample = sample_subgraph(tp, t)
        x = count_superstars(sample)
        x_sum += x
        x_sumsq += x * x
        star1_alive += star_survives(sample, 1)
    mean = x_sum / trials
    std = math.sqrt(max(x_sumsq / trials - mean * mean, 0.0))
    expected = 660 * 2.0 ** -9
    mean_ok = abs(mean - expected) <= 3 * std / math.sqrt(trials)
    q = (1 - 0.5 ** 9) ** 55
    freq = star1_alive / trials
    freq_sigma = math.sqrt(q * (1 - q) / trials)
    freq_ok = abs(freq - q) <= 3 * freq_sigma
    elapsed = time.time() - t0
    passed = mean_ok and freq_ok and elapsed < 120
    report(7, passed,
           f"mean X = {mean:.5f} vs E[X] = {expected:.5f} "
           f"(3-sigma {3 * std / math.sqrt(trials):.5f}); star-1 survival "
           f"{freq:.5f} vs {q:.5f} (3-sigma {3 * freq_sigma:.5f}); "
           f"{elapsed:.1f}s (budget 120s)")
    assert passed, (mean, expected, freq, q, elapsed)


def test_criterion_8_threshold_bracketing():
    params = GroundParams(12, 2)
    low = estimate_probability(ThresholdParams(params, 0.4, 500, SEED))
    high = estimate_probability(ThresholdParams(params, 0.95, 500, SEED))
    crit = critical_probabilities(params)
    rep = find_threshold(params, trials=500, seed=SEED)
    bracketed = low["fraction"] <= 0.5 <= high["fraction"]
    inside = low["fraction"] < high["fraction"]
    passed = bracketed and inside and 0.0 < rep["p_half"] < 1.0
    report(8, passed,
           f"fraction(p=0.4) = {low['fraction']:.3f} <= 0.5 <= "
           f"fraction(p=0.95) = {high['fraction']:.3f}; p_half = "
           f"{rep['p_half']:.4f} vs p_c = {crit['p_c']:.5f}, "
           f"p_0 = {crit['p_0']:.5f} (bracketing only; the sharp threshold "
           f"is asymptotic)")
    assert passed, (low["fraction"], high["fraction"], rep["p_half"])


def test_criterion_9_baranyai():
    failures = []
    for n, k in [(4, 2), (6, 2), (6, 3), (8, 2), (9, 3)]:
        try:
            baranyai_partition(GroundParams(n, k)).validate()
        except (AssertionError, GuardError) as exc:
            failures.append((n, k, str(exc)))
    stats = extremal_subgraph(GroundParams(6, 2))
    extremal_ok = (stats["alpha"] == 5 and stats["degree"] == 2
                   and stats["regular"] and stats["edges"] == 15
                   and stats["edges"] == stats["expected_edges"])
    passed = not failures and extremal_ok
    report(9, passed,
           "partitions valid at (4,2),(6,2),(6,3),(8,2),(9,3); extremal (6,2): "
           f"alpha={stats['alpha']}, degree={stats['degree']}, "
           f"edges={stats['edges']} (= (n-k)/(2k) C(n,k))")
    assert passed, (failures, stats)


def test_criterion_10_simulate_determinism():
    outputs = []
    for workers in (1, 2, 8):
        proc = subprocess.run(
            [sys.executable, "-m", "kneserlab.cli", "simulate",
             "--n", "12", "--k", "2", "--p", "0.5,0.7", "--trials", "64",
             "--seed", str(SEED), "--workers", str(workers)],
            capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    passed = outputs[0] == outputs[1] == outputs[2]
    report(10, passed,
           f"simulate output bit-identical across workers {{1,2,8}} "
           f"({len(outputs[0])} bytes)")
    assert passed
