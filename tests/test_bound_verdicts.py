"""Bound verdicts decided in integers agree with the same comparisons made in
Fraction (tests/oracles.py), and the residual check builds no Fraction."""

import math
from fractions import Fraction

import pytest

from kneserlab.families import (FamilyStats, GroundParams, SetFamily, build_family,
                                enumerate_masks, family_stats, mask_from_elements)
from kneserlab.removal import (RemovalConfig, _precondition_breakpoint, center_set_check,
                               removal_bound_base, removal_bound_check)
from kneserlab.spectral import decompose_affine, residual_bound_check
from oracles import (alpha_beta_fraction, center_set_verdicts_fraction, excess_fraction,
                     precondition_met_fraction, removal_verdicts_fraction,
                     residual_bound_fraction)
from test_acceptance import exact_subsample, residual_sweep


def family_of(n: int, k: int, sets) -> SetFamily:
    return SetFamily.from_masks(GroundParams(n, k), (mask_from_elements(s, n) for s in sets))


def star_swapped(n: int, k: int, removed: int, added: int) -> SetFamily:
    """The star at 1 less its first removed members, plus the first added
    k-sets avoiding 1."""
    params = GroundParams(n, k)
    outside = tuple(m for m in enumerate_masks(n, k) if not m & 1)[:added]
    return SetFamily.from_masks(params, build_family(params, "star:1").members[removed:] + outside)


def slices(n: int, k: int) -> list[SetFamily]:
    """The empty family and the full slice."""
    params = GroundParams(n, k)
    return [SetFamily(params, ()), SetFamily(params, tuple(enumerate_masks(n, k)))]


# dist = 5/4 base at l = 1, with the nearest star's distance 14
AT_FIVE_QUARTERS = family_of(14, 2, [(7, 8), (1, 10), (1, 11), (3, 11), (8, 11), (8, 12),
                                      (5, 13), (11, 13), (8, 14)])
EDGE_FAMILIES = [*slices(9, 2), *slices(12, 4), *slices(18, 2), *slices(40, 2),
                 star_swapped(22, 4, 1, 0), AT_FIVE_QUARTERS,
                 # ||f2||^2 at 0.96 and at 1.09 times k/(128 n), the centre-set range
                 star_swapped(22, 4, 5, 5), star_swapped(16, 4, 4, 0),
                 build_family(GroundParams(18, 2), "union:1,2"),
                 build_family(GroundParams(40, 2), "union:1,2,3")]


def assert_agrees(family: SetFamily, ell: int, c_const: float = 2.0) -> None:
    """Residual, removal and centre-set verdicts and float fields at (l, C)
    equal the Fraction oracle's, wherever the check applies."""
    n, k = family.params.n, family.params.k
    assert residual_bound_check(family, ell) == residual_bound_fraction(family, ell)
    stats = family_stats(family, ell)
    counts = family.params, ell, stats.size, stats.dp
    assert (stats.alpha, stats.beta) == alpha_beta_fraction(*counts)
    assert stats.excess == excess_fraction(*counts)
    cfg = RemovalConfig(ell, c_const)
    if n > 2 * k * ell * ell:
        report = removal_bound_check(family, cfg)
        assert (report.preconditions_met, report.holds, report.epsilon, report.bound) \
            == removal_verdicts_fraction(report)
    centre = center_set_check(family, cfg)
    assert (centre.holds, centre.eps_within_range, centre.eps_in) \
        == center_set_verdicts_fraction(family, centre, c_const)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_verdicts_match_fraction_oracle_on_criterion_4_subsample(ell):
    for family in exact_subsample(residual_sweep()):
        assert_agrees(family, ell)


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("index", range(len(EDGE_FAMILIES)))
def test_verdicts_match_fraction_oracle_on_edge_families(index, ell):
    assert_agrees(EDGE_FAMILIES[index], ell)


def test_verdicts_match_at_the_precondition_breakpoint():
    family = star_swapped(22, 4, 1, 0)
    breakpoint_c = _precondition_breakpoint(family_stats(family, 1))
    assert 1 < breakpoint_c < math.inf
    below, above = (math.nextafter(breakpoint_c, d) for d in (-math.inf, math.inf))
    met = []
    for c_const in (below, breakpoint_c, above):
        assert_agrees(family, 1, c_const)
        met.append(removal_bound_check(family, RemovalConfig(1, c_const)).preconditions_met)
    assert met == [True, False, False]


def test_precondition_met_with_equality():
    """At (21,4), l = 1, a family of 1,140 = C(20,3) sets with 247 disjoint
    pairs has max(2|alpha|, |beta|) = (n-2k) / ((20C)^2 n) exactly at C = 2."""
    params = GroundParams(21, 4)
    cross = params.star_disjoint_degree
    stats = FamilyStats(params, 1, params.star_size, 247, Fraction(0),
                        Fraction(247, params.star_size * cross))
    assert stats.precondition_limit[0] == 4 * stats.precondition_limit[1]
    met = []
    for c_const in (math.nextafter(2.0, 0), 2.0, math.nextafter(2.0, 3)):
        met.append(stats.removal_precondition_met(c_const))
        assert met[-1] == precondition_met_fraction(stats, c_const)
    assert met == [True, True, False]
    assert _precondition_breakpoint(stats) == math.nextafter(2.0, 3)


def test_distance_exactly_at_the_bound_holds():
    family = AT_FIVE_QUARTERS
    report = removal_bound_check(family, RemovalConfig(1, 1.25))
    assert Fraction(report.distance) == Fraction(5, 4) * removal_bound_base(report.stats)
    holds = []
    for c_const in (math.nextafter(1.25, 0), 1.25, math.nextafter(1.25, 2)):
        assert_agrees(family, 1, c_const)
        holds.append(removal_bound_check(family, RemovalConfig(1, c_const)).holds)
    assert holds == [False, True, True]


def count_fractions(monkeypatch) -> list:
    """A list that grows by one per Fraction built, arithmetic results included."""
    built = []

    def counted(make):
        def wrapper(*args, **kwargs):
            built.append(1)
            return make(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted(Fraction.__new__)))
    if hasattr(Fraction, "_from_coprime_ints"):  # how later Pythons build results
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(counted(Fraction._from_coprime_ints.__func__)))
    return built


def test_residual_check_builds_no_fraction(monkeypatch):
    family = build_family(GroundParams(12, 4), "random:200:3")
    decompose_affine(family)  # memoised, as for every check of this family
    built = count_fractions(monkeypatch)
    for ell in (1, 2):
        residual_bound_check(family, ell)
    assert built == []
    family_stats(family, 1)
    assert len(built) == 2  # alpha and beta
