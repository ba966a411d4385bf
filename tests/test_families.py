"""family_core: constructors, statistics, and the (alpha, beta) parametrisation."""

import contextlib
import itertools
import json
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from kneserlab.errors import DomainError, GuardError
from kneserlab.families import (
    GroundParams,
    SetFamily,
    antistar,
    build_family,
    degree_profile,
    disjoint_pairs,
    elements_from_mask,
    enumerate_masks,
    excess_ratio,
    family_stats,
    load_family,
    random_family,
    save_family,
    slice_masks,
    star,
    sym_diff_size,
    union_of_stars,
)
from kneserlab.removal import RemovalConfig, case_table, center_set_check, removal_bound_check

from oracles import gosper_masks


def as_sets(family):
    return {frozenset(elements_from_mask(m)) for m in family.members}


def dp_oracle(family):
    """Brute-force pair scan on element sets, independent of the mask path."""
    sets = [frozenset(elements_from_mask(m)) for m in family.members]
    return sum(1 for a, b in combinations(sets, 2) if not a & b)


def test_ground_params_validation():
    GroundParams(64, 32)
    with pytest.raises(DomainError):
        GroundParams(65, 2)
    with pytest.raises(DomainError):
        GroundParams(4, 5)
    with pytest.raises(DomainError):
        GroundParams(4, 0)


def test_enumerate_masks_is_sorted_and_complete():
    for n, k in [(5, 2), (6, 3), (7, 1), (4, 4)]:
        masks = list(enumerate_masks(n, k))
        assert masks == sorted(masks)
        assert len(masks) == math.comb(n, k)
        assert all(m.bit_count() == k for m in masks)


def test_ground_params_read_integers():
    for n, k, field in ((5.0, 2, "n"), (5, "2", "k"), (None, 2, "n")):
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            GroundParams(n, k)
    params = GroundParams(np.int64(10), np.uint8(2))
    assert (type(params.n), type(params.k)) == (int, int) and params == GroundParams(10, 2)
    fam = build_family(GroundParams(np.int64(10), 2), "star:1")
    assert fam == build_family(GroundParams(10, 2), "star:1")


def test_slice_masks_match_gosper_walk():
    grid = [(n, k) for n in range(13) for k in range(n + 1)] + [(40, 4), (64, 1), (64, 2)]
    for n, k in grid:
        masks = slice_masks(n, k)
        want = list(gosper_masks(n, k))
        assert masks.dtype == np.uint64 and masks.tolist() == want, (n, k)
        masks ^= np.uint64(1)  # fresh: writing to it changes no later slice
        assert slice_masks(n, k).tolist() == want
        assert list(enumerate_masks(n, k)) == want


def test_slice_masks_peak_under_four_times_the_slice():
    # each size is replaced once the next size up has read it: about twice
    tracemalloc.start()
    try:
        masks = slice_masks(23, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(masks) == math.comb(23, 11)
    assert peak < 4 * masks.nbytes


def oracle_members(n, k, spec):
    """The members of a star, anti-star, union, complement-of or random spec,
    filtered from the Gosper walk one int at a time."""
    every = list(gosper_masks(n, k))
    kind, _, rest = spec.partition(":")
    if kind == "complement-of":
        inner = set(oracle_members(n, k, rest))
        return [m for m in every if m not in inner]
    if kind == "random":
        size, seed = map(int, rest.split(":"))
        order = np.random.Generator(np.random.Philox(key=np.uint64(seed))).permutation(len(every))
        return sorted(every[i] for i in order[:size])
    smask = sum(1 << (int(c) - 1) for c in rest.split(","))
    return [m for m in every if bool(m & smask) == (kind != "antistar")]


def test_constructors_hold_their_array_without_the_member_checks(monkeypatch):
    def checked(*args):
        raise AssertionError("a constructor ran the member checks")

    monkeypatch.setattr(SetFamily, "__init__", checked)
    for n, k in [(1, 1), (5, 2), (6, 3), (7, 1), (8, 4), (9, 9), (12, 5), (40, 4)]:
        total = math.comb(n, k)
        union = ",".join(map(str, sorted({1, n})))
        specs = [f"star:{n}", f"antistar:{(n + 1) // 2}", f"union:{union}", "complement-of:star:1",
                 f"complement-of:random:{total // 3}:{n}", f"random:{total // 2}:{k}",
                 f"random:{total}:1", "random:0:1"]
        for spec in specs:
            fam = build_family(GroundParams(n, k), spec)
            assert fam.members == tuple(oracle_members(n, k, spec)), (n, k, spec)
            assert vars(fam).keys() == {"params", "_array"}
            assert fam.array().dtype == np.uint64 and not fam.array().flags.writeable


def test_slice_masks_guard_raises_before_allocating(monkeypatch):
    from kneserlab import families

    monkeypatch.setattr(families, "ENUMERATION_GUARD", 20)
    assert len(slice_masks(6, 3)) == 20  # at the guard
    tracemalloc.start()
    try:
        with pytest.raises(GuardError):
            slice_masks(20, 10)  # 184,756 sets, 1.5 MB
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# the slice each spec's constructors read, as C(n', k') of (n, k)
GUARDED_SLICES = {
    "star:1": lambda n, k: math.comb(n - 1, k - 1),
    "antistar:1": lambda n, k: math.comb(n - 1, k),
    "union:1,2": math.comb,
    "complement-of:star:1": math.comb,
    "random:3:7": math.comb,
}


@pytest.mark.parametrize("spec", sorted(GUARDED_SLICES))
@pytest.mark.parametrize("n,k", [(7, 1), (9, 3), (12, 5)])
def test_constructors_meet_the_guard_at_their_slice(spec, n, k, monkeypatch):
    from kneserlab import families

    params, size = GroundParams(n, k), GUARDED_SLICES[spec](n, k)
    monkeypatch.setattr(families, "ENUMERATION_GUARD", size)
    assert build_family(params, spec).members == tuple(oracle_members(n, k, spec))
    monkeypatch.setattr(families, "ENUMERATION_GUARD", size - 1)
    with pytest.raises(GuardError):
        build_family(params, spec)


def test_random_size_is_checked_before_the_guard(monkeypatch):
    from kneserlab import families

    monkeypatch.setattr(families, "ENUMERATION_GUARD", 0)
    params = GroundParams(9, 3)  # C(9,3) = 84
    for m in (-1, 85):
        with pytest.raises(DomainError):
            build_family(params, f"random:{m}:1")
    with pytest.raises(GuardError):
        build_family(params, "random:84:1")


def test_star_examples():
    fam = build_family(GroundParams(5, 2), "star:1")
    assert as_sets(fam) == {frozenset(s) for s in [(1, 2), (1, 3), (1, 4), (1, 5)]}
    assert len(fam) == math.comb(4, 1)


def test_antistar_examples():
    fam = build_family(GroundParams(5, 2), "antistar:5")
    assert as_sets(fam) == {frozenset(c) for c in combinations(range(1, 5), 2)}
    assert len(fam) == math.comb(4, 2)


def test_stars_and_antistars_match_combinations():
    # every centre, every k, against sets built element by element
    for n in range(1, 10):
        for k in range(1, n + 1):
            params = GroundParams(n, k)
            for c in range(1, n + 1):
                rest = [x for x in range(1, n + 1) if x != c]
                stars = [frozenset((c, *s)) for s in combinations(rest, k - 1)]
                anti = [frozenset(s) for s in combinations(rest, k)]
                for family, sets in ((star(params, c), stars), (antistar(params, c), anti)):
                    assert len(family) == len(sets) and as_sets(family) == set(sets)


def test_union_inclusion_exclusion_oracle():
    # direct enumeration of C([5],2) against the inclusion-exclusion count
    fam = build_family(GroundParams(5, 2), "union:1,2")
    expected = {frozenset(c) for c in combinations(range(1, 6), 2)
                if 1 in c or 2 in c}
    assert as_sets(fam) == expected
    assert len(fam) == 2 * math.comb(4, 1) - math.comb(3, 0) == 7


def test_complement_and_random_specs():
    params = GroundParams(5, 2)
    comp = build_family(params, "complement-of:star:1")
    assert len(comp) == math.comb(5, 2) - math.comb(4, 1)
    assert not (as_sets(comp) & as_sets(build_family(params, "star:1")))
    r1 = build_family(params, "random:4:99")
    r2 = build_family(params, "random:4:99")
    assert r1 == r2
    assert len(r1) == 4
    with pytest.raises(DomainError):
        build_family(params, "random:11:1")  # C(5,2) = 10
    with pytest.raises(DomainError):
        build_family(params, "star:6")
    with pytest.raises(DomainError):
        build_family(params, "nonsense:1")


@pytest.mark.parametrize("m", [-3, -100])
def test_negative_random_size_is_a_domain_error(m):
    # a negative size would slice the shuffled order from its end
    with pytest.raises(DomainError, match="out of range"):
        build_family(GroundParams(6, 2), f"random:{m}:1")
    with pytest.raises(DomainError, match="out of range"):
        random_family(GroundParams(6, 2), m, 1)


def test_constructors_read_their_integers():
    params = GroundParams(10, 2)
    for field, build in (("m", lambda: random_family(params, 5.0, 1)),
                         ("seed", lambda: random_family(params, 5, 1.5)),
                         ("centre", lambda: star(params, 1.0)),
                         ("avoided", lambda: antistar(params, "1")),
                         ("element", lambda: union_of_stars(params, [1.0])),
                         ("mask", lambda: SetFamily.from_masks(params, [3.0])),
                         ("mask", lambda: SetFamily.from_masks(params, (m for m in (3, None))))):
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            build()
    # numpy integers build the family that ints build, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert random_family(params, np.int64(5), np.int64(1)) == random_family(params, 5, 1)
        assert random_family(params, 5, np.int64(-1)) == random_family(params, 5, -1)
        assert star(GroundParams(64, 1), np.int64(64)) == star(GroundParams(64, 1), 64)
        assert antistar(params, np.uint8(3)) == antistar(params, 3)
        assert union_of_stars(params, [np.int64(1), np.uint8(10)]) == \
            union_of_stars(params, [1, 10])


def test_family_file_round_trip(tmp_path):
    params = GroundParams(6, 3)
    fam = build_family(params, "random:7:5")
    path = tmp_path / "fam.txt"
    save_family(fam, path)
    again = load_family(path)
    assert again == fam
    assert build_family(params, f"file:{path}") == fam
    with pytest.raises(DomainError):
        build_family(GroundParams(7, 3), f"file:{path}")  # header mismatch


def test_family_file_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("n=5 k=2\n1,2\n2,1\n")
    with pytest.raises(DomainError):
        load_family(path)


def test_disjoint_pairs_examples():
    assert disjoint_pairs(build_family(GroundParams(9, 3), "star:4")) == 0
    anti = build_family(GroundParams(5, 2), "antistar:5")
    assert disjoint_pairs(anti) == 3  # (1/2) C(4,2) C(2,2)
    full = SetFamily.from_masks(GroundParams(5, 2), enumerate_masks(5, 2))
    assert disjoint_pairs(full) == 15  # (1/2) C(5,2) C(3,2)


@pytest.mark.parametrize("n,k,seed", [(5, 2, 0), (7, 3, 1), (8, 2, 2), (9, 4, 3)])
def test_disjoint_pairs_matches_oracle(n, k, seed):
    params = GroundParams(n, k)
    m = (seed * 37 + 11) % params.slice_size + 1
    fam = build_family(params, f"random:{m}:{seed}")
    assert disjoint_pairs(fam) == dp_oracle(fam)


def test_disjoint_pairs_numpy_path_matches_loop():
    params = GroundParams(12, 3)
    fam = build_family(params, "random:150:21")  # > 128 members: vector path
    assert len(fam) > 128
    assert disjoint_pairs(fam) == dp_oracle(fam)


def table_builds(monkeypatch):
    """A list that gets one entry per subset-count table build."""
    from kneserlab import families

    builds = []
    build = families._subset_table.__wrapped__
    monkeypatch.setattr(families._subset_table, "__wrapped__",
                        lambda family: builds.append(family) or build(family))
    return builds


def test_dp_summed_once_per_family(monkeypatch):
    # family_stats at l = 1 and 2 and dp itself read one table build, and
    # the dp sum is made inside that build
    from kneserlab import families

    fam = build_family(GroundParams(11, 3), "random:60:5")
    families._subset_table.cache_clear()
    builds = table_builds(monkeypatch)
    stats = [family_stats(fam, ell) for ell in (1, 2, 1)]
    assert {st.dp for st in stats} == {disjoint_pairs(fam)} == {dp_oracle(fam)}
    assert len(builds) == 1


def test_family_differing_in_one_member_gets_its_own_table(monkeypatch, tmp_path):
    from kneserlab import families

    params = GroundParams(11, 3)
    fam = build_family(params, "random:60:5")
    # swap the first member for the first non-member disjoint from the second
    # member, which changes dp and keeps the size
    extra = next(m for m in enumerate_masks(11, 3)
                 if m not in fam and not m & fam.members[1])
    other = SetFamily.from_masks(params, fam.members[1:] + (extra,))
    assert len(other) == len(fam) and dp_oracle(other) != dp_oracle(fam)
    families._subset_table.cache_clear()
    builds = table_builds(monkeypatch)
    assert disjoint_pairs(fam) == dp_oracle(fam)
    assert disjoint_pairs(other) == dp_oracle(other)
    assert degree_profile(other) == tuple(sum(i in s for s in as_sets(other))
                                          for i in range(1, 12))
    # the memo holds one family: an object equal to the first is built again
    assert disjoint_pairs(SetFamily(params, fam.members)) == dp_oracle(fam)
    assert builds == [fam, other, fam]
    # loaded from files, the two compare unequal by their arrays
    loaded = []
    for name, family in (("fam", fam), ("other", other)):
        save_family(family, tmp_path / name)
        loaded.append(load_family(tmp_path / name))
    families._subset_table.cache_clear()
    assert [disjoint_pairs(f) for f in loaded] == [dp_oracle(fam), dp_oracle(other)]
    assert builds[3:] == loaded and vars(loaded[1]).keys() == {"params", "_array"}


def test_equal_family_objects_share_one_table(monkeypatch, tmp_path):
    # a second, equal object is compared once and then matched by identity:
    # one built from ints, one loaded against it, and the file loaded again
    params = GroundParams(11, 3)
    first = build_family(params, "random:60:5")
    save_family(first, tmp_path / "fam.txt")
    rebuilt = SetFamily(params, tuple(first.members))
    assert rebuilt is not first and rebuilt == first
    dp, degrees = disjoint_pairs(first), degree_profile(first)
    builds = table_builds(monkeypatch)
    comparisons = []
    eq = SetFamily.__eq__
    monkeypatch.setattr(SetFamily, "__eq__",
                        lambda a, b: comparisons.append(1) or eq(a, b))
    for second in (rebuilt, load_family(tmp_path / "fam.txt"), load_family(tmp_path / "fam.txt")):
        comparisons.clear()
        for _ in range(3):
            assert (disjoint_pairs(second), degree_profile(second)) == (dp, degrees)
        assert builds == [] and len(comparisons) == 1
    assert vars(second).keys() == {"params", "_array"}  # nothing cached by the comparisons
    assert dp == dp_oracle(first)


def test_empty_family_has_an_empty_table(tmp_path):
    from kneserlab.families import subset_counts

    params = GroundParams(9, 3)
    path = tmp_path / "empty.txt"
    save_family(SetFamily(params, ()), path)
    fam = load_family(path)
    assert fam == SetFamily(params, ())
    assert disjoint_pairs(fam) == 0
    assert degree_profile(fam) == (0,) * 9
    subsets = np.array([0, 1, 7, 1 << 8], dtype=np.uint64)
    assert subset_counts(fam, subsets).tolist() == [0, 0, 0, 0]
    assert family_stats(fam, 1).size == 0


@pytest.mark.parametrize("n,k,m,seed", [(9, 3, 40, 1), (9, 4, 126, 2), (10, 4, 90, 3),
                                        (40, 4, 3000, 4), (64, 3, 5000, 5),
                                        (64, 1, 64, 6)])
def test_saved_family_loads_back_equal(n, k, m, seed, tmp_path, monkeypatch):
    from kneserlab import families

    line_parses = []
    monkeypatch.setattr(families, "_line_masks", lambda *a: line_parses.append(1))
    fam = build_family(GroundParams(n, k), f"random:{m}:{seed}")
    path = tmp_path / "fam.txt"
    save_family(fam, path)
    loaded = load_family(path)
    assert not line_parses  # the bulk parse took it
    # the report path leaves the loaded family as it was, with no family
    # built from ints in the memo to be compared with
    families._subset_table.cache_clear()
    for ell in (1, 2):
        for report in (removal_bound_check, case_table, center_set_check):
            with contextlib.suppress(DomainError, GuardError):  # (n,k,l) outside its range or guard
                report(loaded, RemovalConfig(ell))
    assert vars(loaded).keys() == {"params", "_array"}
    assert not loaded.array().flags.writeable
    # interchangeable with the equal family built from ints
    assert loaded == fam and fam == loaded
    assert (hash(loaded), repr(loaded), len(loaded)) == (hash(fam), repr(fam), len(fam))
    probes = list(itertools.islice(enumerate_masks(n, k), 200)) + [0, 1 << 64]
    assert [p in loaded for p in probes] == [p in fam for p in probes]
    assert {type(x) for x in loaded.members} == {int}
    assert SetFamily(loaded.params, loaded.members) == loaded  # passes every check
    # built from ints or loaded, a family holds its params and its read-only
    # array and nothing else, its statistics computed
    family_stats(fam, 1)
    for family in (fam, loaded):
        assert vars(family).keys() == {"params", "_array"}
        assert not vars(family)["_array"].flags.writeable


def bincount_calls(monkeypatch):
    """A list that gets one entry per np.bincount call."""
    calls = []
    real = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def _sets_of_64(m, bits, extra=0):
    """m seeded random 3-sets of [64]: extra | each of m distinct subsets of
    the bit positions bits, of size 3 - popcount(extra)."""
    pool = list(combinations(bits, 3 - extra.bit_count()))
    picks = np.random.default_rng(64).choice(len(pool), size=m, replace=False)
    return SetFamily.from_masks(GroundParams(64, 3), (
        extra | sum(1 << b for b in pool[i]) for i in picks.tolist()))


TABLE_FAMILIES = {
    # every member holds element 64: 2^63 is the key just below the sentinel
    "top": lambda: _sets_of_64(300, range(63), extra=1 << 63),
    # members of odd elements only: each even element has degree 0, and its
    # singleton sorts before a key of the next odd element or the sentinel
    "gaps": lambda: _sets_of_64(300, range(0, 64, 2)),
}


def _table_family(n, k, m):
    """m k-sets of [n]: the first m of the slice, or m random ones at n > 12;
    or a named family of TABLE_FAMILIES."""
    if m in TABLE_FAMILIES:
        return TABLE_FAMILIES[m]()
    if n > 12:
        return build_family(GroundParams(n, k), f"random:{m}:{n}")
    return SetFamily(GroundParams(n, k), tuple(enumerate_masks(n, k))[:m])


@pytest.mark.parametrize("n,k,m,dense", [
    (9, 3, 63, False), (9, 3, 64, True), (9, 3, 65, True),  # 2^9 against m * 2^3
    (9, 3, 0, False),  # the empty family
    (10, 4, 210, True),  # the full slice
    (40, 4, 500, False),
    (64, 3, "top", False), (64, 3, "gaps", False), (64, 3, 0, False),
    (64, 1, 64, False),  # the full slice at k = 1: no doubling before the last
])
def test_bincount_and_sort_paths_build_the_same_table(n, k, m, dense, monkeypatch):
    # the table counts its submasks densely iff 2^n <= m 2^k; passing n = 64,
    # which every member fits, takes the sort path on the same family
    from kneserlab import families

    fam = _table_family(n, k, m)
    assert len(fam) == (300 if m in TABLE_FAMILIES else m)
    build = families._subset_table.__wrapped__
    bincounts = bincount_calls(monkeypatch)
    natural = build(fam)
    assert bool(bincounts) == dense
    count = families._count_submasks
    monkeypatch.setattr(families, "_count_submasks",
                        lambda members, k, n: count(members, k, 64))
    sort = build(fam)
    assert len(bincounts) == dense
    expected = Counter(sub for a in fam.members for sub in submasks(a))
    for keys, counts, dp, degrees in (natural, sort):
        assert keys.dtype == np.uint64 and counts.dtype == np.int64
        assert keys.tolist() == sorted(expected) + [(1 << 64) - 1]
        assert counts.tolist() == [expected[key] for key in sorted(expected)] + [0]
        assert dp == dp_oracle(fam)
        assert degrees == tuple(sum(i in a for a in as_sets(fam)) for i in range(1, n + 1))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(9, 15) for k in range(2, (n + 1) // 2)])
def test_subset_table_matches_the_masked_reads(n, k, monkeypatch):
    # seeded random families of sizes on both sides of the bincount/sort switch,
    # where the slice reaches it, against keys and counts from np.unique and
    # dp and the degrees read with masks
    from kneserlab import families
    from oracles import subset_table_by_masks

    total, switch = math.comb(n, k), 1 << (n - k)  # a bincount iff m >= switch
    rng = np.random.default_rng(100 * n + k)
    sizes = {0, 1, total, int(rng.integers(2, min(switch, total + 1)))}
    if switch <= total:
        sizes |= {switch - 1, switch, int(rng.integers(switch, total + 1))}
    bincounts = bincount_calls(monkeypatch)
    for m in sorted(sizes):
        fam = build_family(GroundParams(n, k), f"random:{m}:{rng.integers(1 << 30)}")
        keys, counts, dp, degrees = families._subset_table.__wrapped__(fam)
        ref_keys, ref_counts, ref_dp, ref_degrees = subset_table_by_masks(fam)
        assert keys.dtype == np.uint64 and counts.dtype == np.int64
        assert keys.tolist() == ref_keys.tolist() and counts.tolist() == ref_counts.tolist()
        assert (dp, degrees) == (ref_dp, ref_degrees)
    assert len(bincounts) == sum(m >= switch for m in sizes)


def submasks(mask):
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def test_subset_table_guard_raises_before_allocating():
    # one 31-set: m * 2^k = 2^31 submasks, over the table guard
    fam = SetFamily(GroundParams(64, 31), ((1 << 31) - 1,))
    tracemalloc.start()
    try:
        for stat in (disjoint_pairs, degree_profile):
            with pytest.raises(GuardError):
                stat(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


MEMBER_FAULTS = {
    # each gives the member to put at index i of the sorted members ms
    "not increasing": lambda ms, i: ms[i + 1] if i + 1 < len(ms) else ms[i - 2],
    "duplicate": lambda ms, i: ms[i - 1] if i else ms[1],
    "out of range": lambda ms, i: ms[i] | 1 << 10,
    "wrong size": lambda ms, i: ms[i] | 1 << 9,
    "negative": lambda ms, i: -ms[i],
    "at least 2^64": lambda ms, i: ms[i] | 1 << 64,
    "float": lambda ms, i: float(ms[i]),
    "str": lambda ms, i: str(ms[i]),
    "numpy float": lambda ms, i: np.float64(ms[i]),
}
# no faults: a numpy integer member builds the family of the ints
NUMPY_MEMBERS = {
    "numpy uint64": lambda ms, i: np.uint64(ms[i]),
    "numpy int64": lambda ms, i: np.int64(ms[i]),
}


def raised(check, *args):
    """(exception type, message) that check raises, or None."""
    try:
        check(*args)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("fault", sorted(MEMBER_FAULTS) + sorted(NUMPY_MEMBERS))
def test_member_checks_match_scalar_loop(fault):
    from oracles import validate_members_by_loop

    change = {**MEMBER_FAULTS, **NUMPY_MEMBERS}[fault]
    valid = build_family(GroundParams(9, 3), "random:40:8").members
    # 3-sets of [9] at n = 10: element 10 is free for a wrong size, 11 is out of
    # range; at n = 64 the scalar check m & ~full meets ~full = -2^64
    for n in (10, 64):
        params = GroundParams(n, 3)
        for at in (0, len(valid) // 2, len(valid) - 1):
            members = list(valid)
            members[at] = change(valid, at)
            expected = raised(validate_members_by_loop, params, members)
            assert (expected is None) == (fault in NUMPY_MEMBERS), (fault, n, at)
            assert raised(SetFamily, params, tuple(members)) == expected, (fault, n, at)
            if expected is None:
                assert SetFamily(params, tuple(members)) == SetFamily(params, valid)
        if fault in NUMPY_MEMBERS:  # every member a numpy integer
            members = tuple(change(valid, i) for i in range(len(valid)))
            assert raised(validate_members_by_loop, params, members) is None
            assert SetFamily(params, members) == SetFamily(params, valid)
            assert SetFamily(params, members).members == valid


@pytest.mark.parametrize("n,k,spec", [(10, 3, "random:40:8"), (9, 4, "star:9"),
                                      (64, 3, "random:500:1"), (64, 1, "antistar:1"),
                                      (12, 5, "random:0:1")])
def test_member_checks_accept_valid_families(n, k, spec):
    from oracles import validate_members_by_loop

    params = GroundParams(n, k)
    members = build_family(params, spec).members
    validate_members_by_loop(params, members)
    assert SetFamily(params, members).members == members


NUMPY_MASKS = {
    "uint64 array": lambda masks: np.array(masks, dtype=np.uint64),
    "int64 array": lambda masks: np.array(masks, dtype=np.int64),
    "numpy scalars": lambda masks: [t(m) for t, m in zip(
        itertools.cycle((np.uint64, np.int64, np.uint8, int)), masks)],
}


@pytest.mark.parametrize("kind", sorted(NUMPY_MASKS))
def test_from_masks_reads_numpy_integers_as_ints(kind):
    params = GroundParams(6, 2)
    as_numpy = NUMPY_MASKS[kind]
    fam = SetFamily.from_masks(params, as_numpy([12, 5, 3, 6, 5]))
    assert fam == SetFamily(params, (3, 5, 6, 12))
    assert repr(fam) == repr(SetFamily(params, (3, 5, 6, 12)))
    assert {type(m) for m in fam.members} == {int}
    # element 7 is beyond n, and 7 is a 3-set: the errors that ints raise
    for bad in ([3, 1 << 6 | 1], [3, 7]):
        expected = raised(SetFamily.from_masks, params, bad)
        assert expected[0] is DomainError
        assert raised(SetFamily.from_masks, params, as_numpy(bad)) == expected


def test_membership_of_a_non_number_is_false():
    fam = build_family(GroundParams(5, 2), "star:1")  # 3 = {1, 2} is a member
    for probe in ("a", None, "3", b"3", [3], 3j, object()):
        assert probe not in fam
    assert 3 in fam and 3.0 in fam and np.uint64(3) in fam and 3.5 not in fam


def test_membership_matches_member_scan():
    params = GroundParams(8, 3)
    fam = build_family(params, "random:20:5")
    for mask in enumerate_masks(8, 3):
        assert (mask in fam) == any(m == mask for m in fam.members)
    assert 0 not in fam and (1 << 8) not in fam


@pytest.mark.parametrize("loaded", [False, True])
def test_membership_probes_match_member_scan(loaded, tmp_path):
    # probes outside [0, 2^64) are no member, neither wrapped nor raised on
    fam = build_family(GroundParams(40, 3), "random:50:3")  # every member exact as a float
    if loaded:
        save_family(fam, tmp_path / "fam.txt")
        fam = load_family(tmp_path / "fam.txt")
    member = fam.members[7]
    for probe in (-1, 1 << 64, 2**64 + member, float(member), np.uint64(member),
                  member + 0.5, member, member + 1):
        assert (probe in fam) == any(m == probe for m in fam.members), probe
    assert SetFamily(GroundParams(3, 1), (True,)).members == (1,)
    assert type(SetFamily(GroundParams(3, 1), (True,)).members[0]) is int


def test_built_family_retains_only_its_array():
    # union:1,2 at (40,4), m = 17,575: 8 bytes a member, and no tuple of ints kept
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fam = build_family(GroundParams(40, 4), "union:1,2")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 8 * len(fam) + 4096


def test_dp_plus_intersecting_is_all_pairs():
    params = GroundParams(8, 3)
    fam = build_family(params, "random:20:17")
    sets = [frozenset(elements_from_mask(m)) for m in fam.members]
    intersecting = sum(1 for a, b in combinations(sets, 2) if a & b)
    assert disjoint_pairs(fam) + intersecting == math.comb(len(fam), 2)


def test_sym_diff_examples():
    params = GroundParams(5, 2)
    s1 = build_family(params, "star:1")
    s2 = build_family(params, "star:2")
    anti = build_family(params, "antistar:5")
    assert sym_diff_size(s1, s1) == 0
    assert sym_diff_size(s1, s2) == 6
    assert sym_diff_size(anti, s1) == 4
    with pytest.raises(DomainError):
        sym_diff_size(s1, build_family(GroundParams(6, 2), "star:1"))


def test_sym_diff_is_a_metric():
    params = GroundParams(6, 2)
    fams = [build_family(params, f"random:{m}:{m}") for m in (3, 6, 9)]
    a, b, c = fams
    assert sym_diff_size(a, b) == sym_diff_size(b, a)
    assert sym_diff_size(a, c) <= sym_diff_size(a, b) + sym_diff_size(b, c)
    assert sym_diff_size(a, a) == 0


def test_degree_profile_examples():
    assert degree_profile(build_family(GroundParams(5, 2), "star:1")) == (4, 1, 1, 1, 1)
    full = SetFamily.from_masks(GroundParams(5, 2), enumerate_masks(5, 2))
    assert degree_profile(full) == (4, 4, 4, 4, 4)
    anti = build_family(GroundParams(5, 2), "antistar:5")
    assert degree_profile(anti) == (3, 3, 3, 3, 0)


def test_degree_profile_sums_to_k_times_size():
    fam = build_family(GroundParams(9, 3), "random:30:4")
    assert sum(degree_profile(fam)) == 3 * len(fam)


def test_ell_is_read_as_an_integer():
    fam = build_family(GroundParams(9, 2), "star:1")
    for bad in (1.5, "1", None):
        with pytest.raises(DomainError, match="^ell must be an integer"):
            family_stats(fam, bad)
        with pytest.raises(DomainError, match="^ell must be an integer"):
            excess_ratio(fam.params, bad, len(fam), 0)
        with pytest.raises(DomainError, match="^ell must be an integer"):
            RemovalConfig(bad)
    stats = family_stats(fam, np.int64(1))
    assert type(stats.ell) is int and stats == family_stats(fam, 1)
    assert json.dumps(stats.to_json_dict()) == json.dumps(family_stats(fam, 1).to_json_dict())
    assert excess_ratio(fam.params, np.int64(2), 5, 3) == excess_ratio(fam.params, 2, 5, 3)
    assert type(RemovalConfig(np.int64(2)).ell) is int


def test_family_stats_examples():
    params = GroundParams(5, 2)
    st = family_stats(build_family(params, "star:1"), 1)
    assert (st.alpha, st.beta) == (0, 0)
    st = family_stats(build_family(params, "antistar:5"), 1)
    assert (st.alpha, st.beta) == (Fraction(-1, 2), Fraction(3, 8))
    two = SetFamily.from_masks(params, [0b00011, 0b01100])
    st = family_stats(two, 1)
    assert (st.alpha, st.beta) == (Fraction(1, 2), Fraction(1, 8))
    with pytest.raises(DomainError):
        family_stats(build_family(GroundParams(4, 2), "star:1"), 1)


@pytest.mark.parametrize("n,k,ell", [(6, 2, 1), (7, 3, 1), (9, 4, 2), (10, 3, 2)])
def test_family_stats_round_trip(n, k, ell):
    params = GroundParams(n, k)
    for seed in range(6):
        m = (seed * 41 + 7) % params.slice_size + 1
        fam = build_family(params, f"random:{m}:{seed}")
        st = family_stats(fam, ell)
        star = params.star_size
        assert (ell - st.alpha) * star == st.size
        assert (math.comb(ell, 2) + st.beta) * star * params.star_disjoint_degree == st.dp


def test_union_of_stars_dp_benchmark():
    # dp(G_l) <= C(l,2) C(n-1,k-1) C(n-k-1,k-1) for n > 2 k l
    for n, k, ell in [(10, 2, 2), (13, 3, 2), (13, 2, 3)]:
        params = GroundParams(n, k)
        fam = build_family(params, "union:" + ",".join(map(str, range(1, ell + 1))))
        cap = math.comb(ell, 2) * params.star_size * params.star_disjoint_degree
        assert disjoint_pairs(fam) == dp_oracle(fam) <= cap


def loaded_or_error(loader, path):
    """The family a loader returns, or the DomainError message it raises."""
    try:
        return loader(path)
    except DomainError as exc:
        return f"DomainError: {exc}"


FILE_CASES = {
    "bad token": ("n=6 k=2\n1,2\n3,x\n4,y\n", "bad element: 'x'"),
    "empty token": ("n=6 k=2\n1,2\n3,\n", "bad element: ''"),
    "element out of range": ("n=6 k=2\n1,2\n3,7\n0,1\n", "element 7 out of range 1..6"),
    "huge element": ("n=6 k=2\n1,99999999999999999999\n", "element 99999999999999999999 "
                     "out of range 1..6"),
    "repeated element": ("n=6 k=2\n1,2\n4,4\n", "repeated element 4"),
    "repeated top element": ("n=64 k=3\n64,64,64\n", "repeated element 64"),
    "duplicate set": ("n=6 k=2\n1,2\n3,4\n2,1\n", "duplicate set (1, 2) in {path}"),
    "spaced duplicate set": ("n=6 k=2\n1,2\n3,4\n 2 , 1\n", "duplicate set (1, 2) in {path}"),
    "missing header": ("# only a comment\n\n", "no header line in {path}"),
    "header mismatch": ("1,2\nn=6 k=2\n", "first data line must be 'n=<n> k=<k>', got '1,2'"),
    "wrong set size": ("n=6 k=2\n1,2,3\n", "member (1, 2, 3) is not a 2-set"),
    "short line": ("n=6 k=2\n1,2\n3\n", "member (3,) is not a 2-set"),
    "long line": ("n=6 k=2\n1,2\n3,4,5\n", "member (3, 4, 5) is not a 2-set"),
    # k commas or newlines a line in all, but not in save_family's places
    "long line then short line": ("n=6 k=2\n1,2,3\n4\n", "member (1, 2, 3) is not a 2-set"),
    "two short lines": ("n=6 k=2\n1\n2\n", "member (1,) is not a 2-set"),
    "space for comma": ("n=6 k=2\n1 2\n", "bad element: '1 2'"),
    "no final newline": ("n=6 k=2\n1,2\n3", "member (3,) is not a 2-set"),
    "element above n": ("n=6 k=2\n1,2\n3,7\n", "element 7 out of range 1..6"),
    # the first bad line decides the message, whatever comes after it
    "range before token": ("n=6 k=2\n1,9\nx,1\n", "element 9 out of range 1..6"),
    "token before repeat": ("n=6 k=2\n1,1,x\n", "bad element: 'x'"),
    "repeat before duplicate": ("n=6 k=2\n1,2\n2,2\n1,2\n", "repeated element 2"),
}


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_bulk_family_file_errors_match_line_parse(case, tmp_path):
    from oracles import load_family_by_line

    text, message = FILE_CASES[case]
    path = tmp_path / "fam.txt"
    path.write_text(text)
    with pytest.raises(DomainError) as exc:
        load_family(path)
    assert str(exc.value) == message.format(path=path)
    assert loaded_or_error(load_family_by_line, path) == f"DomainError: {exc.value}"


def test_family_file_header_must_match_the_request(tmp_path):
    path = tmp_path / "fam.txt"
    save_family(build_family(GroundParams(7, 3), "random:10:1"), path)
    with pytest.raises(DomainError, match="file header n=7 k=3 does not match "
                                          "requested n=8 k=3"):
        build_family(GroundParams(8, 3), f"file:{path}")


def count_line_parses(monkeypatch) -> list:
    """One entry per call of families._line_masks, which still runs."""
    from kneserlab import families

    calls = []
    real_line_masks = families._line_masks

    def line_masks(*args):
        calls.append(1)
        return real_line_masks(*args)

    monkeypatch.setattr(families, "_line_masks", line_masks)
    return calls


def test_bulk_family_file_matches_line_parse_on_mutated_files(tmp_path, monkeypatch):
    import random

    from oracles import load_family_by_line

    line_parses = count_line_parses(monkeypatch)
    rng = random.Random(5)
    outcomes = set()
    for trial in range(400):
        n, k = rng.choice([(6, 2), (9, 3), (40, 4), (64, 5)])
        sets = sorted({tuple(sorted(rng.sample(range(1, n + 1), k)))
                       for _ in range(rng.randint(0, 30))})
        lines = [f"n={n} k={k}"] + [",".join(map(str, rng.sample(s, k))) for s in sets]
        for _ in range(rng.randint(0, 2)):  # corrupt a line or two
            at = rng.randrange(len(lines))
            lines[at] = rng.choice([
                lambda s: s + ",x", lambda s: s + ",", lambda s: s + f",{n + 1}",
                lambda s: s + ",0", lambda s: s + "," + s.split(",")[0],
                lambda s: s.rsplit(",", 1)[0], lambda s: "# " + s, lambda s: "",
                lambda s: " " + s + "\t", lambda s: s + "\n" + s,
                lambda s: s.replace(",", ",+"), lambda s: s.replace(",", ", "),
                lambda s: s.replace(",", ",0"), lambda s: s.replace(",", ",00"),
                lambda s: s.replace(",", ",,"), lambda s: s + "," + "9" * 20,
            ])(lines[at])
        path = tmp_path / f"fam{trial}.txt"
        path.write_text("\n".join(lines) + "\n")
        before = len(line_parses)
        got = loaded_or_error(load_family, path)
        assert got == loaded_or_error(load_family_by_line, path), lines
        parsed_by = "line" if len(line_parses) > before else "bulk"
        outcomes.add((parsed_by, got.split(" ")[1] if isinstance(got, str) else "family"))
    # the bulk parse accepts valid files in save_family's shape (header faults
    # come before it), and the line parse names every fault, a wrong set size too
    assert {("bulk", "family"), ("line", "member"), ("line", "family"), ("line", "bad"),
            ("line", "element"), ("line", "repeated"), ("line", "duplicate")} <= outcomes
    assert {what for by, what in outcomes if by == "bulk"} <= {
        "family", "first", "no"}, outcomes


def saved_lines(tmp_path, n, k, spec):
    """The lines save_family writes for a family: header first."""
    path = tmp_path / "saved.txt"
    save_family(build_family(GroundParams(n, k), spec), path)
    return path.read_text().splitlines()


@pytest.mark.parametrize("case", ["reversed lines", "shuffled elements", "empty family",
                                  "k = 1 at n = 64", "two-digit elements"])
def test_files_in_saved_shape_take_the_bulk_path(case, tmp_path, monkeypatch):
    import random

    from oracles import load_family_by_line

    rng = random.Random(29)
    if case == "reversed lines":
        lines = saved_lines(tmp_path, 40, 4, "random:300:1")
        lines[1:] = lines[:0:-1]
    elif case == "shuffled elements":
        lines = saved_lines(tmp_path, 40, 4, "random:300:2")
        lines[1:] = [",".join(rng.sample(ln.split(","), 4)) for ln in lines[1:]]
    elif case == "empty family":
        lines = saved_lines(tmp_path, 9, 3, "random:0:1")
    elif case == "k = 1 at n = 64":
        lines = saved_lines(tmp_path, 64, 1, "random:64:3")
        rng.shuffle(lines[1:])
    else:
        lines = ["n=64 k=3"] + [f"{a},{b},{c}" for a, b, c in itertools.combinations(
            range(10, 65, 6), 3)]
    path = tmp_path / "fam.txt"
    path.write_text("\n".join(lines) + "\n")
    line_parses = count_line_parses(monkeypatch)
    loaded = load_family(path)
    assert not line_parses
    assert loaded == load_family_by_line(path)
    assert len(loaded) == len(lines) - 1


@pytest.mark.parametrize("case", ["k - 1 tokens", "k + 1 tokens", "CRLF line ends",
                                  "three-digit token"])
def test_files_off_the_saved_shape_take_the_line_path(case, tmp_path, monkeypatch):
    from oracles import load_family_by_line

    lines = saved_lines(tmp_path, 40, 4, "random:50:4")
    if case == "k - 1 tokens":
        lines[7] = lines[7].rsplit(",", 1)[0]
    elif case == "k + 1 tokens":
        lines[7] += f",{min(set(range(1, 41)) - set(map(int, lines[7].split(','))))}"
    elif case == "three-digit token":
        lines[7] = "0" + lines[7] if len(lines[7].split(",")[0]) == 2 else "00" + lines[7]
    text = "\n".join(lines) + "\n"
    if case == "CRLF line ends":
        text = text.replace("\n", "\r\n")
    path = tmp_path / "fam.txt"
    path.write_bytes(text.encode())
    line_parses = count_line_parses(monkeypatch)
    got = loaded_or_error(load_family, path)
    assert line_parses == [1]
    assert got == loaded_or_error(load_family_by_line, path)
    if case.startswith("k "):
        assert got.startswith("DomainError: member (") and got.endswith("is not a 4-set")
    else:  # valid, though not in the saved shape
        assert got == build_family(GroundParams(40, 4), "random:50:4")
