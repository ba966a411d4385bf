"""random_threshold: sampling, superstars, EKR probability, analytic bounds."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from kneserlab import graphs, threshold
from kneserlab.errors import DomainError, GuardError
from kneserlab.families import GroundParams
from kneserlab.mis import max_independent_set_masks
from kneserlab.threshold import (
    ThresholdParams,
    analytic_bounds,
    count_superstars,
    critical_probabilities,
    ekr_holds,
    estimate_probabilities,
    estimate_probability,
    find_threshold,
    sample_subgraph,
    star_survives,
    trial_uniforms,
    wilson_interval,
)
from oracles import brute_force_maximum, word_double

P12 = GroundParams(12, 2)
P5 = GroundParams(5, 2)


def test_critical_probability_examples():
    crit = critical_probabilities(P12)
    assert crit["p_c"] == pytest.approx(math.log(660) / 9, abs=1e-12)
    assert crit["p_c"] == pytest.approx(0.72136, abs=1e-5)
    assert crit["p_0"] == pytest.approx((3 * math.log(12) - 2 * math.log(2)) / 11,
                                        abs=1e-12)
    assert crit["p_0"] == pytest.approx(0.55167, abs=1e-5)
    with pytest.raises(DomainError):
        critical_probabilities(GroundParams(5, 2))


def test_critical_probabilities_asymptotic_agreement():
    # k = o(sqrt(n)) regime: the two critical probabilities approach each other
    crit64 = critical_probabilities(GroundParams(64, 2))
    assert abs(crit64["p_c"] - crit64["p_0"]) / crit64["p_c"] < 0.15


def test_sampling_context_guards_edges(monkeypatch):
    # (20,5) passes the vertex guard (15,504 vertices) but has ~23.3M edges
    def no_pass(*args, **kwargs):
        raise AssertionError("no disjointness block may be built")

    monkeypatch.setattr(graphs, "disjoint_blocks", no_pass)
    params = GroundParams(20, 5)
    with pytest.raises(GuardError):
        threshold._context(params)
    assert params not in threshold._CONTEXTS


def test_sampling_context_guards_adjacency_rows(monkeypatch):
    # at n = 2k, K(n,k) is a perfect matching: (18,9) has 24,310 edges, but
    # its 48,620 packed adjacency rows take 295 MB
    def no_pass(*args, **kwargs):
        raise AssertionError("no disjointness block may be built")

    monkeypatch.setattr(graphs, "disjoint_blocks", no_pass)
    monkeypatch.setattr(threshold, "_CONTEXTS", {})
    params = GroundParams(18, 9)
    with pytest.raises(GuardError, match="adjacency rows"):
        threshold._context(params)
    assert params not in threshold._CONTEXTS
    for n, k in ((16, 8), (15, 7)):  # 20.7 MB and 5.2 MB of rows
        with pytest.raises(AssertionError, match="no disjointness block"):
            threshold._context(GroundParams(n, k))


def test_only_the_most_recent_context_is_kept(monkeypatch):
    monkeypatch.setattr(threshold, "_CONTEXTS", {})
    first = threshold._context(P5)
    assert threshold._context(P5) is first
    threshold._context(P12)
    assert list(threshold._CONTEXTS) == [P12]


def test_sample_trivial_probabilities():
    empty = sample_subgraph(ThresholdParams(P5, 0.0, 1, 0), 0)
    assert np.count_nonzero(empty.keep) == 0
    full = sample_subgraph(ThresholdParams(P5, 1.0, 1, 0), 0)
    assert np.count_nonzero(full.keep) == 15  # C(5,2) C(3,2) / 2


def test_sample_reproducible_and_trialwise_distinct():
    tp = ThresholdParams(P12, 0.5, 10, 42)
    a = sample_subgraph(tp, 3)
    b = sample_subgraph(tp, 3)
    c = sample_subgraph(tp, 4)
    assert a.adjacency == b.adjacency
    assert a.adjacency != c.adjacency


def test_trial_uniforms_is_a_fresh_philox_stream():
    # the one re-keyed Philox must give, draw after draw, the raw stream of a
    # Philox freshly keyed by (seed mod 2^64, trial mod 2^64); mapped to
    # doubles, those words are Generator(Philox).random's stream, the draws
    # that sampling compared with p before it read the words
    def fresh(seed, t):
        key = np.array([seed % 2**64, t % 2**64], dtype=np.uint64)
        words = np.random.Philox(key=key).random_raw(1485)
        doubles = np.random.Generator(np.random.Philox(key=key)).random(1485)
        assert [word_double(w) for w in words] == doubles.tolist()
        return words

    draws = [(seed, t) for seed in (0, 1961, -1, -7885, 2**64 + 3, 2**70 - 1)
             for t in (0, 1, 2**64 + 1)]
    draws += [(1961, 4), (1961, 4), (1961, 5)]  # the same trial twice, then the next
    kept = [(seed, t, trial_uniforms(ThresholdParams(P12, 0.5, 1, seed), t))
            for seed, t in draws]
    for seed, t, uniforms in kept:  # later draws leave earlier arrays intact
        assert uniforms.dtype == np.uint64
        assert np.array_equal(uniforms, fresh(seed, t)), (seed, t)


def test_kept_philox_state_is_keyed_per_draw(monkeypatch):
    # draws under two seeds, interleaved, and under a second (n,k) whose
    # context replaces the first, which is then rebuilt with a state of its own
    def fresh(tp, t):
        key = np.array([tp.master_seed % 2**64, t % 2**64], dtype=np.uint64)
        edges = tp.params.slice_size * tp.params.kneser_degree // 2
        return np.random.Philox(key=key).random_raw(edges)

    monkeypatch.setattr(threshold, "_CONTEXTS", {})
    a, b = ThresholdParams(P12, 0.5, 1, 1961), ThresholdParams(P12, 0.5, 1, -7885)
    c = ThresholdParams(P5, 0.5, 1, 1961)
    order = [(a, 0), (b, 0), (a, 1), (b, -1), (c, 0), (c, 1), (a, 2), (b, 2), (a, 2)]
    first = threshold._context(P12)
    for tp, t in order:
        uniforms = trial_uniforms(tp, t)
        assert np.array_equal(uniforms, fresh(tp, t)), (tp.master_seed, t)
        key = threshold._context(tp.params).philox.state["state"]["key"]
        assert key.tolist() == [tp.master_seed % 2**64, t % 2**64]
    assert threshold._context(P12) is not first  # rebuilt after P5's context


def test_sample_mean_retained_within_binomial_ci():
    trials = 2000
    tp = ThresholdParams(P5, 0.5, trials, 7)
    total = sum(np.count_nonzero(sample_subgraph(tp, t).keep) for t in range(trials))
    mean = total / trials
    sigma = math.sqrt(15 * 0.25 / trials)
    assert abs(mean - 7.5) <= 3 * sigma


def test_monotone_coupling():
    lo = ThresholdParams(P12, 0.3, 1, 11)
    hi = ThresholdParams(P12, 0.8, 1, 11)
    for trial in range(5):
        uniforms = trial_uniforms(lo, trial)
        a = sample_subgraph(lo, trial, uniforms=uniforms)
        b = sample_subgraph(hi, trial, uniforms=uniforms)
        assert all(x & ~y == 0 for x, y in zip(a.adjacency, b.adjacency))
        if ekr_holds(a).holds:
            assert ekr_holds(b).holds


def test_count_superstars_trivial():
    assert count_superstars(sample_subgraph(ThresholdParams(P12, 1.0, 1, 0), 0)) == 0
    empty = sample_subgraph(ThresholdParams(P12, 0.0, 1, 0), 0)
    assert count_superstars(empty) == 12 * math.comb(11, 2)


def test_superstar_mean_matches_expectation_small():
    trials = 3000
    tp = ThresholdParams(P5, 0.4, trials, 5)
    xs = [count_superstars(sample_subgraph(tp, t)) for t in range(trials)]
    mean = sum(xs) / trials
    expected = 5 * math.comb(4, 2) * (0.6) ** math.comb(2, 1)
    std = math.sqrt(sum((x - mean) ** 2 for x in xs) / trials)
    assert abs(mean - expected) <= 3 * std / math.sqrt(trials) + 1e-12


def test_superstar_implies_ekr_fails():
    # ekr_holds reads the superstar certificate, so the search confirms it
    tp = ThresholdParams(P12, 0.35, 40, 2024)
    target = P12.star_size + 1
    seen = 0
    for t in range(40):
        sample = sample_subgraph(tp, t)
        if count_superstars(sample) > 0:
            seen += 1
            assert not ekr_holds(sample).holds
            size, _, _ = max_independent_set_masks(sample.adjacency, stop_at=target)
            assert size >= target
    assert seen > 0  # p = 0.35 is far below threshold; superstars abound


def test_ekr_holds_trivial_and_against_oracle():
    assert ekr_holds(sample_subgraph(ThresholdParams(P5, 1.0, 1, 0), 0)).holds
    assert not ekr_holds(sample_subgraph(ThresholdParams(P5, 0.0, 1, 0), 0)).holds
    tp = ThresholdParams(P5, 0.9, 1, 42)
    sample = sample_subgraph(tp, 0)
    best, _ = brute_force_maximum(list(sample.adjacency))
    assert ekr_holds(sample).holds == (best == math.comb(4, 1))


def test_star_survives_consistency():
    tp = ThresholdParams(P12, 0.5, 20, 99)
    for t in range(20):
        sample = sample_subgraph(tp, t)
        all_survive = all(star_survives(sample, x) for x in range(1, 13))
        assert all_survive == (count_superstars(sample) == 0)


def test_estimate_probability_trivial_endpoints():
    assert estimate_probability(ThresholdParams(P5, 1.0, 40, 0))["fraction"] == 1.0
    assert estimate_probability(ThresholdParams(P5, 0.0, 40, 0))["fraction"] == 0.0


def test_estimate_probability_monotone_far_from_threshold():
    lo = estimate_probability(ThresholdParams(P12, 0.3, 120, 1961))
    hi = estimate_probability(ThresholdParams(P12, 0.95, 120, 1961))
    assert lo["fraction"] < hi["fraction"]


def test_estimate_probability_deterministic_across_workers():
    tp = ThresholdParams(P12, 0.55, 48, 77)
    results = [estimate_probability(tp, workers=w) for w in (1, 2, 8)]
    assert results[0] == results[1] == results[2]


def test_estimate_probability_requires_enough_trials():
    with pytest.raises(DomainError):
        estimate_probability(ThresholdParams(P5, 0.5, 5, 0))


@pytest.mark.parametrize("trials,seed,field", [(30.5, 0, "trials"), (30, 1.5, "master_seed"),
                                               (30, "7", "master_seed")])
def test_non_integer_trials_or_seed_is_a_domain_error(trials, seed, field):
    with pytest.raises(DomainError, match=field):
        ThresholdParams(P12, 0.5, trials, seed)
    with pytest.raises(DomainError, match=field):
        estimate_probabilities(P12, [0.5], trials, seed)
    with pytest.raises(DomainError, match=field):
        find_threshold(P12, trials, seed)


def test_threshold_params_read_numpy_integers_as_int():
    tp = ThresholdParams(P12, 0.5, np.int64(30), np.int64(7))
    assert type(tp.trials) is int and type(tp.master_seed) is int
    want = json.dumps(estimate_probability(ThresholdParams(P12, 0.5, 30, 7)))
    assert json.dumps(estimate_probability(tp)) == want
    rows = estimate_probabilities(P12, [0.5], np.int64(30), np.int64(7))
    assert json.dumps(rows) == f"[{want}]"


def test_threshold_params_read_p_as_a_float(monkeypatch):
    # a float32 p times 2^53 would stay float32 and round, so the word
    # threshold reads the float that ThresholdParams keeps
    for p in (np.float32(0.7), np.float16(0.5), Fraction(1, 2), np.float64(0.5), 1):
        tp = ThresholdParams(P12, p, 30, 1)
        assert type(tp.p) is float and tp.p == float(p)
        rows = estimate_probabilities(P12, [p], 30, 1)
        assert type(rows[0]["p"]) is float
        assert json.dumps(rows) == json.dumps(estimate_probabilities(P12, [float(p)], 30, 1))
    tp = ThresholdParams(P5, np.float32(0.7), 1, 3)
    uniforms = trial_uniforms(tp, 0)
    assert sample_subgraph(tp, 0, uniforms).keep.tolist() == [
        word_double(w) < float(np.float32(0.7)) for w in uniforms]
    monkeypatch.setattr(threshold, "THRESHOLD_WIDTH", 0.1)
    rep = find_threshold(GroundParams(8, 2), trials=30, seed=5)
    assert all(type(e["p"]) is float for e in rep["evaluations"])
    json.dumps(rep)


@pytest.mark.parametrize("p", ["0.5", None, 0.5 + 0j, b"0.5", -0.1, 1.5, math.nan])
def test_p_that_is_not_a_real_in_the_unit_interval_is_a_domain_error(p):
    with pytest.raises(DomainError, match="^p must lie in"):
        ThresholdParams(P12, p, 30, 1)
    with pytest.raises(DomainError, match="^p must lie in"):
        estimate_probabilities(P12, [0.5, p], 30, 1)


def test_word_threshold_matches_the_double_compare_at_its_edges():
    # T = ceil(p 2^53) 2^11 is the least word whose double is not below p; a
    # threshold from floor, or a compare by <=, moves some word across it
    ps = [0.0, 2**-53, math.nextafter(0.5, 0), 0.5, 1 - 2**-53, 1.0]
    edges = P5.slice_size * P5.kneser_degree // 2
    for p in ps:
        t = math.ceil(p * 2**53) * 2**11
        words = [w for w in (t - 1, t, t + 1, 0, 2**64 - 1) if 0 <= w < 2**64]
        uniforms = np.array((words * edges)[:edges], dtype=np.uint64)
        keep = sample_subgraph(ThresholdParams(P5, p, 1, 0), 0, uniforms).keep
        assert keep.tolist() == [word_double(w) < p for w in uniforms], p


@pytest.mark.parametrize("uniforms", [
    np.zeros(14, dtype=np.uint64),  # one short
    np.zeros(16, dtype=np.uint64),  # one long: it sampled, and then .edges failed
    np.zeros((15, 1), dtype=np.uint64),
    np.zeros(15),  # doubles, which would compare against an integer threshold
    np.zeros(15, dtype=np.int64),
    [0] * 15,
])
def test_sample_subgraph_checks_the_words_it_is_handed(uniforms):
    tp = ThresholdParams(P5, 0.5, 1, 0)
    with pytest.raises(DomainError, match="^uniforms must be 15 uint64 words"):
        sample_subgraph(tp, 0, uniforms)


def test_repeated_p_gets_a_row_of_its_own():
    rows = estimate_probabilities(P12, [0.5, 0.7, 0.5], 30, 1)
    assert rows[0] == rows[2] and rows[0] is not rows[2]
    rows[0]["fraction"] = -1.0
    assert rows[2] == estimate_probabilities(P12, [0.5], 30, 1)[0]


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 50)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(50, 50)[1] == pytest.approx(1.0, abs=1e-12)


def test_find_threshold_brackets(monkeypatch):
    monkeypatch.setattr(threshold, "THRESHOLD_WIDTH", 0.1)
    rep = find_threshold(GroundParams(8, 2), trials=60, seed=5)
    assert 0.0 < rep["p_half"] < 1.0
    assert rep["iterations"] >= 1
    assert rep["p_c"] == pytest.approx(
        math.log(8 * math.comb(7, 2)) / math.comb(5, 1))


def test_find_threshold_exceeds_analytic_upper_bound_region(monkeypatch):
    # (1 - (1-p)^C(n-k-1,k-1))^C(n-1,k) bounds the success probability from
    # above, so any p where it sits well below 1/2 lies below the crossing
    monkeypatch.setattr(threshold, "THRESHOLD_WIDTH", 0.05)
    rep = find_threshold(GroundParams(8, 2), trials=120, seed=12)
    d = math.comb(5, 1)
    count = math.comb(7, 2)
    p_low = None
    for step in range(1, 100):
        p = step / 100
        if (1 - (1 - p) ** d) ** count <= 0.4:
            p_low = p
    assert p_low is not None
    assert rep["p_half"] > p_low


def test_find_threshold_decreases_with_n(monkeypatch):
    monkeypatch.setattr(threshold, "THRESHOLD_WIDTH", 0.04)
    halves = [find_threshold(GroundParams(n, 2), trials=160, seed=31)["p_half"]
              for n in (10, 12, 14)]
    assert halves[0] > halves[1] > halves[2]


def test_analytic_bounds_examples():
    rep = analytic_bounds(P12, 1.0, 1, 1)
    assert rep.first_moment_bound == pytest.approx(1.0)
    rep = analytic_bounds(P12, 2.0, 1, 1)
    assert rep.first_moment_bound == pytest.approx(1 / 660)
    rep = analytic_bounds(P12, 1.0, 0, 5)
    assert rep.maximal_family_bound == 0.0
    rep = analytic_bounds(P12, 1.0, 0, 0)
    assert rep.maximal_family_bound == pytest.approx(12.0)


def test_analytic_bounds_exact_expectation_field():
    # at (12,2), p = 0.5: E[X] = 660 * 2^-9
    crit = critical_probabilities(P12)
    zeta = 0.5 / crit["p_c"]
    rep = analytic_bounds(P12, zeta, 1, 1)
    assert rep.p == pytest.approx(0.5)
    assert rep.ex_exact == pytest.approx(660 * 2 ** -9, rel=1e-9)
    assert rep.lower_bound_prob == pytest.approx((1 - 0.5 ** 9) ** 55, rel=1e-9)


def test_analytic_bounds_t0_t1():
    rep = analytic_bounds(P12, 1.1, 1, 1, c_const=2.0, epsilon=0.1)
    assert rep.near_cutoff == math.ceil(0.05 * math.comb(9, 1))
    assert rep.far_cutoff == math.ceil(math.comb(11, 1) / 800)


def test_analytic_bounds_domain_errors():
    with pytest.raises(DomainError):
        analytic_bounds(P12, 1.0, math.comb(11, 1) + 1, 1)
    with pytest.raises(DomainError):
        analytic_bounds(P12, 1.0, 1, math.comb(10, 2) + 1)
    with pytest.raises(DomainError):
        analytic_bounds(GroundParams(4, 2), 1.0, 1, 1)
    with pytest.raises(DomainError):
        analytic_bounds(P12, 0.0, 1, 1)


@pytest.mark.parametrize("i,j,field", [(1.5, 2.5, "i"), (1, 2.5, "j"), ("1", 1, "i"),
                                       (1, None, "j")])
def test_non_integer_i_or_j_is_a_domain_error(i, j, field):
    with pytest.raises(DomainError, match=f"^{field} must be an integer"):
        analytic_bounds(P12, 1.1, i, j)


def test_analytic_bounds_read_numpy_integers_as_int():
    rep = analytic_bounds(P12, 1.1, np.int64(1), np.uint16(2))
    assert (type(rep.i), type(rep.j)) == (int, int)
    want = analytic_bounds(P12, 1.1, 1, 2).to_json_dict()
    assert json.dumps(rep.to_json_dict()) == json.dumps(want)


def test_bound_report_json_serialisable():
    import json

    rep = analytic_bounds(P12, 1.5, 2, 3)
    payload = rep.to_json_dict()
    json.dumps(payload)
    assert payload["near_cutoff"] >= 1 and payload["far_cutoff"] >= 1
