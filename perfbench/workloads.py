"""The benchmark's four workloads: seeded inputs, units of work, output checks.

Each workload builds its inputs from the workload seed in `setup`.  The
timed loop calls `run_unit(i)` for i = 0, 1, 2, ...; a traced run replays
the same units through `traced_unit(i)`, which puts a span around every call
into the package, and then calls `probe()` for the per-layer calls that a
unit does not make on its own.  Units return (ops attempted, ops failed);
`unit_ops` is the size of one unit.  `final_checks` holds the checks that
need the whole run; `digest_checks`, which a traced run calls, compares
stdout digests at the default seed and a held-out seed with the ones
recorded in digests.json.

Why these workloads:
- sparse-ekr: `kneserlab simulate` at (14,2) near the threshold, where the
  branch-and-bound EKR decision takes most of the time (mis, threshold).
- superstar-census: sampling and superstar counting at (12,2), p = 0.5,
  with no MIS call; it must not move when only the MIS engine changes.
- removal-report: `kneserlab removal` on one large family (m ~ 17.5k), where
  the centre-set search and the O(m^2) disjoint-pair count dominate.
- family-sweep: ~1.4k small families through the per-family statistics,
  where per-call overhead and Fraction arithmetic dominate.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from kneserlab import cli
from kneserlab.families import (
    GroundParams,
    SetFamily,
    build_family,
    degree_profile,
    disjoint_pairs,
    enumerate_masks,
    family_stats,
    save_family,
)
from kneserlab.graphs import build_graph
from kneserlab.mis import max_independent_set_masks
from kneserlab.removal import (
    RemovalConfig,
    case_table,
    center_set_check,
    nearest_union_exact,
    removal_bound_check,
)
from kneserlab.spectral import decompose_affine, residual_bound_check
from kneserlab.threshold import (
    ThresholdParams,
    count_superstars,
    sample_subgraph,
    star_survives,
    trial_uniforms,
)

DIGEST_SEEDS = (1961, 7885)  # the CLI's default seed and a held-out seed
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())
WORK_DIR = Path(".perfbench_work")  # relative to the checkout root
MASK64 = 2**64 - 1


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & MASK64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one `kneserlab` command in this process; (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sym_diff_to_union(members, n: int, k: int, centres) -> int:
    """|F delta G_S|, counted directly: G_S is every k-set meeting S."""
    smask = 0
    for c in centres:
        smask |= 1 << (c - 1)
    hits = sum(1 for m in members if m & smask)
    union = math.comb(n, k) - math.comb(n - len(set(centres)), k)
    return union + len(members) - 2 * hits


class Workload:
    name = ""
    unit_ops = 1
    units_per_pass = 1  # the timed loop stops only after a multiple of this

    def __init__(self, seed: int, smoke: bool, tracer) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tr = tracer
        # per-layer counts a traced run fills in; zero where the layer is unused
        self.decisions: list[tuple[int, int, bool]] = []  # (trial, nodes, X > 0)
        self.trial_indices = 0
        self.center_set_candidates = 0

    def trace_units(self, seconds: int) -> int:
        """Units replayed by a traced run; fixed by the arguments, so its
        counts repeat exactly at one seed."""
        return 1

    def probe(self) -> None:
        pass

    def digest_document(self, seed: int) -> str:
        raise NotImplementedError

    def final_checks(self) -> tuple[int, int]:
        """Checks that need the whole run."""
        return 0, 0

    def digest_checks(self) -> tuple[int, int]:
        """Stdout digests at DIGEST_SEEDS against digests.json; one op each.
        Smoke inputs differ from the recorded ones, so smoke runs skip this."""
        if self.smoke:
            return 0, 0
        failed = 0
        for seed in DIGEST_SEEDS:
            got = sha256(self.digest_document(seed))
            want = DIGESTS.get(self.name, {}).get(str(seed))
            if got != want:
                print(f"{self.name}: digest at seed {seed} is {got}, recorded {want}",
                      file=sys.stderr)
                failed += 1
        return len(DIGEST_SEEDS), failed


class SparseEkr(Workload):
    """`kneserlab simulate --n 14 --k 2 --p 0.5,0.6,0.7`; an op is one trial."""

    name = "sparse-ekr"
    PS = (0.5, 0.6, 0.7)
    TRIALS = 30  # the fewest trials `simulate` accepts, so a unit is short

    def __init__(self, seed, smoke, tracer) -> None:
        super().__init__(seed, smoke, tracer)
        self.params = GroundParams(12, 2) if smoke else GroundParams(14, 2)
        self.unit_ops = len(self.PS) * self.TRIALS
        self.successes: dict[int, list[int]] = {}

    def unit_seed(self, i: int) -> int:
        return self.seed * 1_000_000 + i

    def argv(self, seed: int) -> list[str]:
        return ["simulate", "--n", str(self.params.n), "--k", str(self.params.k),
                "--p", ",".join(map(str, self.PS)), "--trials", str(self.TRIALS),
                "--seed", str(seed), "--workers", "1"]

    def setup(self) -> None:
        tp = ThresholdParams(self.params, self.PS[0], self.TRIALS, self.seed)
        self.tr.call("threshold.context", -1, trial_uniforms, tp, 0)

    def run_unit(self, i: int) -> tuple[int, int]:
        code, out = run_cli(self.argv(self.unit_seed(i)))
        rows = [r for r in csv.DictReader(
            line for line in out.splitlines() if not line.startswith("#"))]
        successes = [int(r["successes"]) for r in rows]
        self.successes[i] = successes
        # a trial with a superstar fails EKR, and one trial has at most
        # n C(n-1,k) superstars, so the X total bounds the failures from below
        most_x = self.params.n * math.comb(self.params.n - 1, self.params.k)
        certified = [-(-round(float(r["mean_X"]) * self.TRIALS) // most_x) for r in rows]
        ok = (code == 0 and [float(r["p"]) for r in rows] == list(self.PS)
              and all(int(r["trials"]) == self.TRIALS for r in rows)
              and all(s <= self.TRIALS - c for s, c in zip(successes, certified))
              # per-trial streams are coupled across p, so EKR is monotone in p
              and successes == sorted(successes))
        return self.unit_ops, 0 if ok else self.unit_ops

    def traced_unit(self, i: int) -> tuple[int, int]:
        """Replay the unit's (seed, trial) streams layer by layer."""
        seed = self.unit_seed(i)
        target = self.params.star_size + 1
        failed = 0
        for p, reported in zip(self.PS, self.successes.get(i, [-1] * len(self.PS))):
            tp = ThresholdParams(self.params, p, self.TRIALS, seed)
            holds = 0
            for t in range(self.TRIALS):
                op = i * self.TRIALS + t
                u = self.tr.call("threshold.rng", op, trial_uniforms, tp, t)
                sample = self.tr.call("threshold.sample", op, sample_subgraph, tp, t, u)
                size, _, nodes = self.tr.call(
                    "mis.decide", op, max_independent_set_masks, sample.adjacency,
                    stop_at=target)
                x = self.tr.call("threshold.superstar", op, count_superstars, sample)
                self.decisions.append((op, nodes, x > 0))
                holds += size < target
                if x > 0 and size < target:  # a superstar certifies failure
                    failed += 1
            if holds != reported:
                failed += self.TRIALS
        self.trial_indices += self.TRIALS
        return self.unit_ops, min(failed, self.unit_ops)

    def trace_units(self, seconds: int) -> int:
        return max(1, seconds // 3)

    def probe(self) -> None:
        self.tr.call("graphs.build", -1, build_graph, self.params)

    def digest_document(self, seed: int) -> str:
        return run_cli(self.argv(seed))[1]


class SuperstarCensus(Workload):
    """Criterion 7's loop at (12,2), p = 0.5; an op is one trial, no MIS call."""

    name = "superstar-census"
    P = 0.5
    Z_LIMIT = 4.0  # see final_checks

    def __init__(self, seed, smoke, tracer) -> None:
        super().__init__(seed, smoke, tracer)
        self.params = GroundParams(12, 2)
        self.unit_ops = 100 if smoke else 500
        self.tp = ThresholdParams(self.params, self.P, 1, seed)
        self.units: dict[int, tuple[int, int, int]] = {}  # i -> (sum X, sum X^2, alive)

    def setup(self) -> None:
        self.tr.call("threshold.context", -1, trial_uniforms, self.tp, 0)

    def run_unit(self, i: int) -> tuple[int, int]:
        failed = x_sum = x_sumsq = alive_sum = 0
        tp = self.tp
        for t in range(i * self.unit_ops, (i + 1) * self.unit_ops):
            sample = sample_subgraph(tp, t, trial_uniforms(tp, t))
            x = count_superstars(sample)
            alive = star_survives(sample, 1)
            failed += not (alive or x > 0)  # a dead star 1 is a superstar
            x_sum += x
            x_sumsq += x * x
            alive_sum += alive
        self.units[i] = (x_sum, x_sumsq, alive_sum)
        return self.unit_ops, failed

    def traced_unit(self, i: int) -> tuple[int, int]:
        failed = 0
        tp, call = self.tp, self.tr.call
        for t in range(i * self.unit_ops, (i + 1) * self.unit_ops):
            u = call("threshold.rng", t, trial_uniforms, tp, t)
            sample = call("threshold.sample", t, sample_subgraph, tp, t, u)
            x = call("threshold.superstar", t, count_superstars, sample)
            alive = call("threshold.star_survives", t, star_survives, sample, 1)
            failed += not (alive or x > 0)
        return self.unit_ops, failed

    def trace_units(self, seconds: int) -> int:
        return max(1, 2 * seconds)

    def probe(self) -> None:
        self.tr.call("graphs.build", -1, build_graph, self.params)

    def final_checks(self) -> tuple[int, int]:
        """E[X] = n C(n-1,k) (1-p)^C(n-k-1,k-1) and star-1 survival
        (1 - (1-p)^C(n-k-1,k-1))^C(n-1,k), each within Z_LIMIT standard errors.
        At 3 sigma a correct sampler would fail about one run in 200, about one
        evaluation in ten of a 22-run series; at 4 sigma, about one in 8000."""
        n, k, p = self.params.n, self.params.k, self.P
        trials = len(self.units) * self.unit_ops
        x_sum, x_sumsq, alive = map(sum, zip(*self.units.values()))
        cross = math.comb(n - k - 1, k - 1)
        mean = x_sum / trials
        std = math.sqrt(max(x_sumsq / trials - mean * mean, 0.0))
        expected = n * math.comb(n - 1, k) * (1 - p) ** cross
        q = (1 - (1 - p) ** cross) ** math.comb(n - 1, k)
        freq = alive / trials
        mean_ok = abs(mean - expected) <= self.Z_LIMIT * std / math.sqrt(trials)
        freq_ok = abs(freq - q) <= self.Z_LIMIT * math.sqrt(q * (1 - q) / trials)
        if not (mean_ok and freq_ok):
            print(f"{self.name}: mean X {mean} vs {expected}, survival {freq} vs {q}",
                  file=sys.stderr)
            return 1, 1
        return 1, 0

    def digest_document(self, seed: int) -> str:
        tp = ThresholdParams(self.params, self.P, 1, seed)
        lines = []
        for t in range(1000):
            sample = sample_subgraph(tp, t, trial_uniforms(tp, t))
            lines.append(f"{t} {count_superstars(sample)} {int(star_survives(sample, 1))}\n")
        return "".join(lines)


class RemovalReport(Workload):
    """`kneserlab removal --l 2` on a seeded perturbation of union:1,2 at
    (40,4); an op is one full report."""

    name = "removal-report"
    ELL = 2

    def __init__(self, seed, smoke, tracer) -> None:
        super().__init__(seed, smoke, tracer)
        self.params = GroundParams(20, 2) if smoke else GroundParams(40, 4)
        self.changes = 2 if smoke else 32  # sets removed, and sets added
        self.cfg = RemovalConfig(self.ELL)

    def family(self, seed: int) -> SetFamily:
        """union:1,2 with `changes` members removed and `changes` k-sets
        avoiding {1,2} added, all chosen by the seed."""
        params = self.params
        rng = seeded_rng(seed, 1)
        members = list(build_family(params, "union:1,2").members)
        for idx in sorted(rng.choice(len(members), size=self.changes, replace=False),
                          reverse=True):
            members.pop(int(idx))
        added: set[int] = set()
        while len(added) < self.changes:
            picks = rng.choice(params.n - 2, size=params.k, replace=False) + 2
            added.add(sum(1 << int(b) for b in picks))
        return SetFamily.from_masks(params, members + sorted(added))

    def write_family(self, seed: int) -> Path:
        WORK_DIR.mkdir(exist_ok=True)
        path = WORK_DIR / f"removal-{seed}.txt"
        save_family(self.family(seed), path)
        return path

    def argv(self, path: Path) -> list[str]:
        return ["removal", "--n", str(self.params.n), "--k", str(self.params.k),
                "--l", str(self.ELL), "--family", f"file:{path.as_posix()}"]

    def setup(self) -> None:
        def build():
            self.path = self.write_family(self.seed)
            return build_family(self.params, f"file:{self.path.as_posix()}")

        self.fam = self.tr.call("families.build", -1, build)
        self.file_members = self.read_members(self.path)

    @staticmethod
    def read_members(path: Path) -> list[int]:
        """The family file's sets as masks, parsed here, not by the package."""
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        return [sum(1 << (int(e) - 1) for e in ln.split(",")) for ln in lines[1:]]

    def run_unit(self, i: int) -> tuple[int, int]:
        code, out = run_cli(self.argv(self.path))
        if code != 0:
            return 1, 1
        report = json.loads(out)
        distance = sym_diff_to_union(self.file_members, self.params.n,
                                     self.params.k, report["best_centers"])
        ok = (distance == report["distance"]
              and len(report["best_centers"]) == self.ELL)
        return 1, 0 if ok else 1

    def traced_unit(self, i: int) -> tuple[int, int]:
        return self.tr.call("cli.removal", i, self.run_unit, i)

    def probe(self) -> None:
        """One call to each part of the report, for removal.repeat_factor."""
        fam, cfg, call = self.fam, self.cfg, self.tr.call
        call("families.dp", 0, disjoint_pairs, fam)
        call("families.degree", 0, degree_profile, fam)
        call("spectral.decompose", 0, decompose_affine, fam)
        call("removal.nearest_exact", 0, nearest_union_exact, fam, self.ELL)
        cs = call("removal.center_set", 0, center_set_check, fam, cfg)
        self.center_set_candidates = sum(
            math.comb(self.params.n, s) for s in range(cs.s_bound + 1))
        call("removal.case_table", 0, case_table, fam, cfg)
        call("removal.bound_check", 0, removal_bound_check, fam, cfg)

    def digest_document(self, seed: int) -> str:
        return run_cli(self.argv(self.write_family(seed)))[1]


class FamilySweep(Workload):
    """~1.4k seeded random families with 9 <= n <= 14, 2 <= k < n/2, through
    the statistics of criteria 4 and 5; an op is one family.  Unit i is the
    (i mod bins)-th group of one family per (n,k), and the timed loop stops
    only between whole passes over the set."""

    name = "family-sweep"
    PAIRS = tuple((n, k) for n in range(9, 15) for k in range(2, (n + 1) // 2))
    # strides prime to len(PAIRS), so the samples below cover every (n,k)
    DP_SAMPLE = 29  # every 29th family gets an independent dp count
    DIGEST_SAMPLE = 11

    def __init__(self, seed, smoke, tracer) -> None:
        super().__init__(seed, smoke, tracer)
        self.bins = 1 if smoke else 58
        self.unit_ops = len(self.PAIRS)
        self.units_per_pass = self.bins
        self.dps: dict[int, int] = {}

    def families(self, seed: int) -> list[SetFamily]:
        """Sizes are stratified: the j-th of `bins` families of each (n,k)
        draws m from the j-th of `bins` equal slices of 1..C(n,k), so every
        seed gives a set with about the same mix of small and large families."""
        rng = seeded_rng(seed, 2)
        slices = {pair: list(enumerate_masks(*pair)) for pair in self.PAIRS}
        out = []
        for j in range(self.bins):
            for n, k in self.PAIRS:
                masks = slices[(n, k)]
                total = len(masks)
                m = min(total, 1 + int((j + rng.random()) * total / self.bins))
                picks = rng.choice(total, size=m, replace=False)
                out.append(SetFamily.from_masks(GroundParams(n, k),
                                                (masks[int(x)] for x in picks)))
        return out

    def setup(self) -> None:
        self.fams = self.tr.call("families.build", -1, self.families, self.seed)

    def evaluate(self, fam: SetFamily, call) -> tuple:
        stats = call("families.stats", family_stats, fam, 1)
        dec = call("spectral.decompose", decompose_affine, fam)
        residual = [call("spectral.residual_check", residual_bound_check, fam, ell)
                    for ell in (1, 2)]
        nearest = [call("removal.nearest_exact", nearest_union_exact, fam, ell)
                   for ell in (1, 2)]
        return stats, dec, residual, nearest

    @staticmethod
    def family_ok(fam: SetFamily, stats, residual, nearest) -> bool:
        """size = (l - alpha) C(n-1,k-1) and dp = (C(l,2) + beta) C(n-1,k-1)
        C(n-k-1,k-1) exactly at l = 1; the residual bound holds at l = 1, 2;
        each nearest distance matches a direct count."""
        p = fam.params
        star, cross = p.star_size, p.star_disjoint_degree
        return ((1 - stats.alpha) * star == len(fam) == stats.size
                and stats.beta * star * cross == stats.dp
                and all(r.holds for r in residual)
                and all(sym_diff_to_union(fam.members, p.n, p.k, s) == d
                        for s, d in nearest))

    def group(self, i: int, call) -> int:
        failed = 0
        first = (i % self.bins) * self.unit_ops
        for idx in range(first, first + self.unit_ops):
            fam = self.fams[idx]
            stats, _, residual, nearest = self.evaluate(
                fam, lambda name, fn, *a: call(name, idx, fn, *a))
            self.dps[idx] = stats.dp
            failed += not self.family_ok(fam, stats, residual, nearest)
        return failed

    def run_unit(self, i: int) -> tuple[int, int]:
        return self.unit_ops, self.group(i, lambda name, op, fn, *a: fn(*a))

    def traced_unit(self, i: int) -> tuple[int, int]:
        return self.unit_ops, self.group(i, self.tr.call)

    def trace_units(self, seconds: int) -> int:
        return self.bins

    def probe(self) -> None:
        for idx, fam in enumerate(self.fams):
            self.tr.call("families.dp", idx, disjoint_pairs, fam)
            self.tr.call("families.degree", idx, degree_profile, fam)

    def final_checks(self) -> tuple[int, int]:
        """dp by inclusion-exclusion over subsets: sum_S (-1)^|S| c_S^2 counts
        the ordered disjoint pairs, where c_S = #{A in F : S subset of A}."""
        attempted = failed = 0
        for idx in range(0, len(self.fams), self.DP_SAMPLE):
            counts = Counter()
            for a in self.fams[idx].members:
                s = a
                while True:
                    counts[s] += 1
                    if not s:
                        break
                    s = (s - 1) & a
            ordered = sum((-1) ** s.bit_count() * c * c for s, c in counts.items())
            attempted += 1
            failed += ordered != 2 * self.dps[idx]
        return attempted, failed

    def digest_document(self, seed: int) -> str:
        lines = []
        for fam in self.families(seed)[::self.DIGEST_SAMPLE]:
            stats, dec, residual, nearest = self.evaluate(
                fam, lambda name, fn, *a: fn(*a))
            # the payloads `kneserlab stats` and `spectrum` print
            lines.append(json.dumps([
                stats.to_json_dict(), dec.to_json_dict(),
                [r.to_json_dict() for r in residual], nearest],
                sort_keys=True) + "\n")
        return "".join(lines)


WORKLOADS = {w.name: w for w in (SparseEkr, SuperstarCensus, RemovalReport, FamilySweep)}
