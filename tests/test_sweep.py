"""The coupled p-sweep against independent per-p decisions.

The reference decides every (trial, p) on its own: a fresh sample_subgraph,
count_superstars and ekr_holds, with no bracket carried between values of p
or between bisection steps.
"""

from collections import Counter

import pytest

from kneserlab import threshold
from kneserlab.errors import DomainError, GuardError
from kneserlab.families import GroundParams
from kneserlab.threshold import (
    ThresholdParams,
    count_superstars,
    ekr_holds,
    estimate_probabilities,
    estimate_probability,
    find_threshold,
    sample_subgraph,
    wilson_interval,
)

TRIALS = 30
SEED = 1961


def reference_counts(params, p, trials, seed):
    """(successes, X sum) from an independent decision per trial."""
    tp = ThresholdParams(params, p, trials, seed)
    successes = x_sum = 0
    for t in range(trials):
        sample = sample_subgraph(tp, t)
        successes += ekr_holds(sample).holds
        x_sum += count_superstars(sample)
    return successes, x_sum


# Each list is unsorted, repeats a value and holds 0 and 1.
@pytest.mark.parametrize("n,k,ps", [
    (5, 2, [1.0, 0.0, 0.85, 0.9, 0.85, 0.7]),
    (8, 2, [0.7, 0.0, 1.0, 0.6, 0.7, 0.75]),
    (12, 2, [0.7, 0.5, 1.0, 0.6, 0.0, 0.5]),
    (8, 3, [0.7, 1.0, 0.5, 0.0, 0.75, 0.7]),
    (9, 4, [0.3, 0.0, 0.6, 1.0, 0.45, 0.6, 0.5]),
])
def test_sweep_matches_independent_decisions(n, k, ps):
    params = GroundParams(n, k)
    rows = estimate_probabilities(params, ps, TRIALS, SEED)
    assert [row["p"] for row in rows] == ps
    reference = {p: reference_counts(params, p, TRIALS, SEED) for p in set(ps)}
    for p, row in zip(ps, rows):
        successes, x_sum = reference[p]
        assert row["successes"] == successes, p
        assert row["mean_x"] == x_sum / TRIALS, p
    assert reference[0.0][0] == 0
    assert reference[1.0] == (TRIALS, 0)


def test_sweep_rows_independent_of_workers():
    ps = [0.7, 0.5, 0.6, 0.5, 0.55]
    rows = [estimate_probabilities(GroundParams(12, 2), ps, 40, 7, workers=w)
            for w in (1, 2)]
    assert rows[0] == rows[1]


def test_workers_fall_back_to_spawn_without_fork(monkeypatch):
    # spawned workers inherit no sampling context and build their own
    methods = []
    real = threshold.get_context

    def get_context(method):
        methods.append(method)
        return real(method)

    monkeypatch.setattr(threshold, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(threshold, "get_context", get_context)
    ps = [0.7, 0.5, 0.6, 0.55]
    spawned = estimate_probabilities(GroundParams(10, 2), ps, 40, 7, workers=2)
    assert methods == ["spawn"]
    assert spawned == estimate_probabilities(GroundParams(10, 2), ps, 40, 7)


class InlinePool:
    """A Pool that runs its map in-process and records its size and chunks,
    so that no real worker starts."""

    def __init__(self, log, processes):
        self.log = log
        log.append({"processes": processes})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=None):
        self.log[-1]["chunksize"] = chunksize
        return [fn(job) for job in jobs]


@pytest.fixture
def pools(monkeypatch):
    """The process count and chunk size of each pool the sweep starts."""
    log = []

    class InlineContext:
        def Pool(self, processes):
            return InlinePool(log, processes)

    monkeypatch.setattr(threshold, "get_context", lambda method: InlineContext())
    return log


def test_pool_size_follows_the_jobs(pools):
    # 30 trials over 64 workers make 30 non-empty chunks
    ps = [0.5, 0.7]
    rows = estimate_probabilities(GroundParams(8, 2), ps, 30, 3, workers=64)
    assert [pool["processes"] for pool in pools] == [30]
    assert rows == estimate_probabilities(GroundParams(8, 2), ps, 30, 3)


@pytest.mark.parametrize("trials", [31, 100])
@pytest.mark.parametrize("workers", [2, 3, 7, 64])
def test_chunked_pool_matches_one_worker(pools, trials, workers):
    # two calls, as bisection makes them: the second starts from the brackets
    # the first left, so settled and open trials are both chunked
    params = GroundParams(10, 2)
    runs = []
    for w in (1, workers):
        brackets = [threshold._OPEN] * trials
        rows = [threshold._estimate(params, ps, trials, 7, brackets, w)
                for ps in ([0.6, 0.45], [0.5])]
        runs.append((rows, brackets))
    assert runs[0] == runs[1]
    assert any(bracket != threshold._OPEN for bracket in runs[0][1])
    chunksize = -(-trials // workers)
    assert pools == [{"processes": -(-trials // chunksize), "chunksize": chunksize}] * 2


def reference_bisection(params, trials, seed, width_tol=0.02):
    """find_threshold's bisection with an independent estimate per midpoint."""
    lo, hi = 0.0, 1.0
    evaluations = []
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        successes, _ = reference_counts(params, mid, trials, seed)
        ci_lo, ci_hi = wilson_interval(successes, trials)
        evaluations.append({"p": mid, "fraction": successes / trials,
                            "ci_lo": ci_lo, "ci_hi": ci_hi})
        if ci_lo > 0.5:
            hi = mid
        elif ci_hi < 0.5:
            lo = mid
        else:
            lo = hi = mid
            break
    return evaluations, 0.5 * (lo + hi)


@pytest.mark.parametrize("n,trials", [(8, 60), (10, 200)])
def test_find_threshold_matches_bracket_free_bisection(n, trials):
    params = GroundParams(n, 2)
    rep = find_threshold(params, trials=trials, seed=5)
    evaluations, p_half = reference_bisection(params, trials, 5)
    assert rep["evaluations"] == evaluations
    assert rep["p_half"] == p_half
    assert len(evaluations) >= 4


@pytest.fixture
def searches(monkeypatch):
    """(trial, p, EKR held) for each search, in call order."""
    log = []
    current = []
    real_sample, real_search = threshold.sample_subgraph, threshold.max_independent_set_masks

    def sample(tp, trial_index, uniforms=None):
        current[:] = [trial_index, tp.p]
        return real_sample(tp, trial_index, uniforms)

    def search(adjacency, *, stop_at=None, **kwargs):
        result = real_search(adjacency, stop_at=stop_at, **kwargs)
        log.append((*current, result[0] < stop_at))
        return result

    monkeypatch.setattr(threshold, "sample_subgraph", sample)
    monkeypatch.setattr(threshold, "max_independent_set_masks", search)
    return log


def assert_no_settled_search(log):
    """No search at a p that an earlier search of the same trial settled:
    EKR holding at p' settles every p >= p', and a witness found at p'
    settles every p <= p'."""
    seen = {}
    for trial, p, held in log:
        for earlier_p, earlier_held in seen.get(trial, []):
            assert not (p >= earlier_p if earlier_held else p <= earlier_p), (
                trial, p, earlier_p)
        seen.setdefault(trial, []).append((p, held))


def test_each_trial_proves_ekr_at_most_once_in_a_sweep(searches):
    ps = [0.8, 0.5, 0.7, 0.6, 0.9]
    rows = estimate_probabilities(GroundParams(12, 2), ps, TRIALS, SEED)
    proofs = Counter(trial for trial, _, held in searches if held)
    assert sum(row["successes"] for row in rows) > len(proofs) > 0
    assert max(proofs.values()) == 1
    assert len(searches) < TRIALS * len(ps) // 2
    assert_no_settled_search(searches)


def test_bisection_searches_only_open_brackets(searches):
    rep = find_threshold(GroundParams(10, 2), trials=200, seed=5)
    assert rep["iterations"] >= 4
    assert any(held for *_, held in searches) and not all(held for *_, held in searches)
    assert_no_settled_search(searches)


def test_bisection_draws_only_for_trials_it_samples(monkeypatch):
    # a trial whose bracket settles a midpoint as holding takes no sample
    # there, so it must not draw its uniforms either
    calls = []  # per estimate: (trials that drew, trials that sampled)
    real_estimate, real_draw, real_sample = (
        threshold._estimate, threshold.trial_uniforms, threshold.sample_subgraph)

    def estimate(*args):
        calls.append((Counter(), set()))
        return real_estimate(*args)

    def draw(tp, trial_index):
        calls[-1][0][trial_index] += 1
        return real_draw(tp, trial_index)

    def sample(tp, trial_index, uniforms=None):
        calls[-1][1].add(trial_index)
        return real_sample(tp, trial_index, uniforms)

    monkeypatch.setattr(threshold, "_estimate", estimate)
    monkeypatch.setattr(threshold, "trial_uniforms", draw)
    monkeypatch.setattr(threshold, "sample_subgraph", sample)
    rep = find_threshold(GroundParams(10, 2), trials=200, seed=5)
    assert len(calls) == rep["iterations"] >= 4
    for drawn, sampled in calls:
        assert set(drawn) == sampled and max(drawn.values()) == 1
    assert sum(len(drawn) for drawn, _ in calls) < 200 * len(calls)


def raised(call):
    """(type, message) of the error call raises."""
    with pytest.raises(Exception) as info:
        call()
    return info.type, str(info.value)


@pytest.mark.parametrize("n,k,trials,workers", [
    (8, 2, 0, 1),
    (8, 2, TRIALS, 0),
    (8, 2, TRIALS, 1_000_000),
    (64, 3, TRIALS, 1),  # over EDGE_GUARD
])
def test_empty_p_list_is_checked_like_any_other(monkeypatch, n, k, trials, workers):
    drawn = []
    real_draw = threshold.trial_uniforms

    def draw(tp, trial_index):
        drawn.append(trial_index)
        return real_draw(tp, trial_index)

    monkeypatch.setattr(threshold, "trial_uniforms", draw)
    params = GroundParams(n, k)
    empty = raised(lambda: estimate_probabilities(params, [], trials, SEED, workers=workers))
    one = raised(lambda: estimate_probability(
        ThresholdParams(params, 0.5, trials, SEED), workers=workers))
    assert empty == one
    assert issubclass(empty[0], (DomainError, GuardError))
    assert drawn == []
