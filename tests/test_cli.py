"""cli: payload shapes, determinism, exit codes, output routing."""

import csv
import hashlib
import json
import math
import subprocess
import sys

import pytest

from kneserlab import threshold
from kneserlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads refusing NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_ekr_payload(capsys):
    code, out, _ = run_cli(capsys, "ekr", "--n", "5", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 4
    assert payload["equals_ekr"] is True
    assert payload["only_stars"] is True
    assert payload["schema_version"] == 1


def test_stats_payload(capsys):
    code, out, _ = run_cli(capsys, "stats", "--n", "5", "--k", "2",
                           "--family", "antistar:5", "--l", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 6
    assert payload["dp"] == 3
    assert payload["alpha"] == -0.5
    assert payload["beta"] == 0.375


def test_bounds_payload(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "12", "--k", "2",
                           "--zeta", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_c"] == pytest.approx(0.721360, abs=1e-5)
    assert payload["p_0"] == pytest.approx(0.551675, abs=1e-5)
    assert payload["first_moment_bound"] == pytest.approx(1.0)


@pytest.mark.parametrize("flag,value", [
    ("--zeta", "nan"), ("--zeta", "inf"), ("--c-const", "0"), ("--c-const", "nan"),
    ("--epsilon", "nan"), ("--epsilon", "0"), ("--epsilon", "1e308"), ("--c-const", "1e-320"),
])
def test_bounds_refuses_bad_parameters(capsys, flag, value):
    code, out, err = run_cli(capsys, "bounds", "--n", "12", "--k", "2", flag, value)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_bounds_zero_exponent_term_is_one(capsys):
    # at (12,2), i = C(n-k-1,k-1) = 9 makes the exponent of (1-p) zero, and
    # zeta = 20 puts p_eff at 1: the bound is n C(11,i) C(i C(10,2), j) j^i
    code, out, _ = run_cli(capsys, "bounds", "--n", "12", "--k", "2",
                           "--zeta", "20", "--i", "9", "--j", "3")
    assert code == 0
    payload = strict_json(out)
    assert payload["p_effective"] == 1.0
    expected = math.log(12 * math.comb(11, 9) * math.comb(9 * 45, 3) * 3 ** 9)
    assert payload["log_maximal_family_bound"] == pytest.approx(expected, rel=1e-12)
    assert payload["maximal_family_bound"] == pytest.approx(math.exp(expected), rel=1e-9)


def test_bounds_csv_pinned_output(capsys):
    # the CSV header is the report's key order, which the JSON pins, with
    # their keys sorted, never see; byte-for-byte output of the dataclass
    # report that the dict replaced
    code, out, _ = run_cli(capsys, "bounds", "--n", "12", "--k", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("p_c,p_0,zeta,p,p_effective,ex_exact,")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "83844527ea179423bd69eb3851baa7ccb247515c87225e2c00ac440e420884ac"


def test_spectrum_payload(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--n", "5", "--k", "2",
                           "--family", "star:1")
    assert code == 0
    payload = json.loads(out)
    assert [e["value"] for e in payload["eigenvalues"]] == [3, -2, 1]
    assert payload["decomposition"]["f2_norm_sq"] == 0.0
    assert payload["residual_bound"]["holds"] is True


def test_removal_payload_and_cases(capsys):
    code, out, _ = run_cli(capsys, "removal", "--n", "10", "--k", "2",
                           "--family", "star:1", "--l", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == 0
    assert payload["holds"] is True
    assert payload["case_label"] == "(vi)"
    assert len(payload["cases"]) == 6


@pytest.mark.parametrize("command,c_const", [
    ("stats", "0"), ("stats", "nan"), ("stats", "inf"), ("stats", "0.5"),
    ("removal", "inf"),
])
def test_bad_c_const_is_a_domain_error(capsys, command, c_const):
    code, out, err = run_cli(capsys, command, "--n", "10", "--k", "2",
                             "--family", "star:1", "--c-const", c_const)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["stats", "removal"])
def test_large_finite_c_const_reports(capsys, command):
    # C n overflows to inf here; with eps = 0 the centre-set bound is still 1
    code, out, _ = run_cli(capsys, command, "--n", "10", "--k", "2",
                           "--family", "star:1", "--c-const", "1e308")
    assert code == 0
    payload = strict_json(out)
    assert payload["c_const"] == 1e308
    if command == "removal":
        assert payload["center_set"]["s_bound"] == 1


def test_infinite_values_print_as_strings(capsys):
    # C times a positive bound overflows here, and so does C eps in the case
    # table; json.dump would print the non-JSON tokens Infinity and -Infinity
    code, out, _ = run_cli(capsys, "removal", "--n", "10", "--k", "2",
                           "--family", "random:20:3", "--c-const", "1e308")
    assert code == 0
    payload = strict_json(out)
    assert payload["bound"] == "inf"
    assert payload["cases"][4]["dp_lower_threshold"] == "-inf"
    # byte-for-byte output of bounds from when BoundReport spelled its own
    # infinities
    code, out, _ = run_cli(capsys, "bounds", "--n", "12", "--k", "2",
                           "--i", "0", "--j", "1")
    assert code == 0
    assert strict_json(out)["near_star_base"] == "inf"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1ae072d389060a0431386eafe708056b0894d42e4da098935e8e2ae1a6e8b2c9"


def test_spectrum_has_no_c_const(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "10", "--k", "2", "--c-const", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --c-const 3" in capsys.readouterr().err


def test_baranyai_payload(capsys):
    code, out, _ = run_cli(capsys, "baranyai", "--n", "6", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["num_classes"] == 5
    assert len(payload["classes"]) == 5
    assert payload["extremal"]["alpha"] == 5
    assert payload["extremal"]["edges"] == 15


def test_baranyai_builds_one_partition_and_no_graph(capsys, monkeypatch):
    from kneserlab import graphs

    flows, real = [], graphs._baranyai_flow

    def flow(n, k):
        flows.append((n, k))
        return real(n, k)

    def no_build(*args, **kwargs):
        raise AssertionError("K(n,k) must not be built")

    monkeypatch.setattr(graphs, "_baranyai_flow", flow)
    monkeypatch.setattr(graphs, "build_graph", no_build)
    code, out, _ = run_cli(capsys, "baranyai", "--n", "12", "--k", "3")
    assert code == 0 and flows == [(12, 3)]
    assert json.loads(out)["extremal"] == {"alpha": 55, "degree": 3, "regular": True,
                                           "edges": 330, "expected_edges": 330}
    # n = k has a partition (one class) but no Kneser graph
    code, out, err = run_cli(capsys, "baranyai", "--n", "4", "--k", "4")
    assert code == 1 and out == "" and "needs n >= 2k" in err


def test_baranyai_long_augmenting_paths(capsys):
    # an augmenting path here is longer than Python's recursion limit
    code, out, _ = run_cli(capsys, "baranyai", "--n", "20", "--k", "5", "--partition-only")
    payload = json.loads(out)
    assert code == 0 and payload["num_classes"] == len(payload["classes"]) == math.comb(19, 4)


def test_simulate_csv_format(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "5", "--k", "2",
                             "--p", "0.0,1.0", "--trials", "30", "--seed", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "# seed=9"
    assert lines[2].startswith("p,trials,successes,fraction")
    assert len(lines) == 5
    assert "seed=9" in err
    row0 = lines[3].split(",")
    assert float(row0[3]) == 0.0  # p = 0 never keeps EKR
    row1 = lines[4].split(",")
    assert float(row1[3]) == 1.0


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--n", "12", "--k", "2", "--p", "0.6",
            "--trials", "30", "--seed", "1961")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_simulate_pinned_successes(capsys):
    # determinism checks alone would pass an engine that is consistently
    # wrong, so the success counts are pinned
    code, out, _ = run_cli(capsys, "simulate", "--n", "12", "--k", "2",
                           "--p", "0.5,0.6,0.7", "--trials", "64", "--seed", "1961")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert [(row[0], row[2]) for row in rows] == [
        ("0.5", "8"), ("0.6", "53"), ("0.7", "62")]


def test_simulate_worker_flag_does_not_change_output(capsys):
    base = ("simulate", "--n", "12", "--k", "2", "--p", "0.55",
            "--trials", "32", "--seed", "4")
    _, out1, _ = run_cli(capsys, *base, "--workers", "1")
    _, out2, _ = run_cli(capsys, *base, "--workers", "2")
    assert out1 == out2


@pytest.mark.parametrize("command", [
    ("simulate", "--p", "0.55", "--trials", "32"),
    ("threshold", "--trials", "32"),
])
@pytest.mark.parametrize("workers,code,prefix", [
    ("0", 1, "error: workers must be at least 1, got 0"),
    ("-3", 1, "error: workers must be at least 1, got -3"),
    (str(threshold.WORKER_GUARD + 1), 2, "guard: workers guarded to"),
    ("1000000", 2, "guard: workers guarded to"),
])
def test_bad_worker_counts_fail_before_any_process_starts(
        capsys, monkeypatch, command, workers, code, prefix):
    def get_context(method):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(threshold, "get_context", get_context)
    got, out, err = run_cli(capsys, command[0], "--n", "12", "--k", "2",
                            *command[1:], "--workers", workers)
    lines = err.splitlines()
    assert (got, out, len(lines)) == (code, "", 1)
    assert lines[0].startswith(prefix)


def test_removal_pinned_output(capsys):
    # byte-for-byte output of the removal report before its statistics were
    # rewritten onto the subset-count table, in both formats
    args = ("removal", "--n", "10", "--k", "2", "--family", "random:20:3", "--l", "1")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert (payload["dp"], payload["distance"], payload["best_centers"]) == (124, 17, [10])
    assert (payload["holds"], payload["case_label"]) == (True, "(iv)")
    assert payload["center_set"]["best_s"] == [1, 2, 6, 7, 9]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "721f79149280df845bb04d9247e7205020522234cb59804671721790d352d73c"
    # the CSV quotes a cell with a comma and heads every row's keys
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out.splitlines()[5] == \
        '(iv),"complement of G_s, s >= 2 (at s=5)",10,6.75,11.25,True,True,,,'
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "128e5592cb4791fbb193a72160e5a005e0a76b15a8a5481913e0fe57bfc24de6"


@pytest.mark.parametrize("argv", [
    ("removal", "--n", "10", "--k", "2", "--family", "star:1"),
    ("spectrum", "--n", "8", "--k", "2", "--family", "star:1"),
    ("baranyai", "--n", "6", "--k", "2"),
    ("threshold", "--n", "8", "--k", "2", "--trials", "30"),
])
def test_csv_rows_match_the_header(capsys, argv):
    # each of these writes cells with commas (a case label, a list or a
    # dict), and removal's rows differ in their keys
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    table = list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))
    assert len(table) >= 2
    assert {len(row) for row in table} == {len(table[0])}
    assert len(set(table[0])) == len(table[0])


def test_csv_keeps_every_cell_of_every_case(capsys):
    # rows (ii) and (v) carry keys the first row lacks; no cell may be dropped
    argv = ("removal", "--n", "10", "--k", "2", "--family", "star:1")
    code, out, _ = run_cli(capsys, *argv)
    cases = json.loads(out)["cases"]
    code_csv, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == code_csv == 0
    table = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
    assert len(table) == len(cases) == 6
    keys = set().union(*cases)
    for row, case in zip(table, cases):
        assert set(row) == keys
        assert row == {key: (repr(case[key]) if isinstance(case[key], float) else str(case[key]))
                       if key in case else "" for key in keys}
    assert table[1]["proof_lower_estimate"] and table[4]["dp_lower_threshold"]


# 679,121 centre sets of up to s_bound = 4 elements
WIDE_CENTRE_SEARCH = "removal --n 64 --k 2 --l 1 --family random:8:1"


def test_wide_centre_set_search_pinned_output(capsys):
    # byte-for-byte output of the search that looked each centre set up in
    # Python, one at a time, before the chunked numpy search replaced it
    code, out, _ = run_cli(capsys, *WIDE_CENTRE_SEARCH.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "92b4a18de9a81bb84c8877351fd5dbc2e7997ccd510171355bd1777725cc418f"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KB")
def test_wide_centre_set_search_memory():
    # the one-at-a-time search grew this command's max RSS by 6.5 MB over the
    # import (Python 3.11, numpy 2.4); all candidates at once take ~80 MB more
    script = (
        "import contextlib, io, resource\n"
        "from kneserlab.cli import main\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({WIDE_CENTRE_SEARCH.split()!r}) == 0\n"
        "print(base, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    base_kb, peak_kb = map(int, proc.stdout.split())
    assert peak_kb - base_kb <= (6.5 + 8) * 1024


@pytest.mark.parametrize("argv,digest", [
    ("simulate --n 12 --k 2 --p 0.4,0.6,0.8 --trials 200 --seed 1961",
     "0df4f5f231093f3cbefca805f587d6acbd00cc13957f1b56e3428350363cf728"),
    ("simulate --n 8 --k 3 --p 0.3,0.6 --trials 40 --seed 3",
     "6b25b245e86193b94d84c31c09e9c995a1de1c7729231913b6c9e4a0c022d293"),
    ("threshold --n 10 --k 2 --trials 60 --seed 5",
     "731b8332f76245eb9a0d6457a89517649f67d7b1e321f4a3f2f6b93aa244e7fd"),
])
def test_sampling_pinned_output(capsys, argv, digest):
    # byte-for-byte output of the per-edge Python sampler that the numpy
    # sampling pass replaced
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("simulate --n 14 --k 2 --p 0.7,0.5,0.6,0.5 --trials 30 --seed 4",
     "bfc36ddfc10ebe9b18bd37c2daf89b9b18bdec53066043bda7d2ce6a4a23b9fb"),
    ("simulate --n 12 --k 2 --p 0.5,0.6,0.7 --trials 64 --seed 7 --workers 2",
     "672ca90cedff0e7da02927e188247e369afb690dac63b09fb4f7dfb3220f8b67"),
    ("threshold --n 12 --k 2 --trials 200",
     "592c421d113d4425f286d5af74bbeb5e8512f0a82a33398a6796d05f77e7fff8"),
])
def test_sweep_pinned_output(capsys, argv, digest):
    # byte-for-byte output of the per-p estimates that the coupled sweep
    # replaced: unsorted and repeated p, two workers, and a bisection
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,k,digest", [
    (4, 2, "1729fb02d2309250c65e6429b8a71163cfacfbaa3c32c1668100bafec83747ad"),
    (6, 3, "4db49574e120369cdbb3a0da2fb58233908c7b58d1e771f71b61abfe96cb4ffe"),
    (8, 2, "b41b8769c1790d12922f20619ec260eae9ad15aaa564f68896c4ee5a7e4fb8bf"),
    (8, 4, "e8d26a22302bb3f9085aa6c8c52cb4a95aec8584357dd2db7592a83bfcfb1352"),
    (9, 3, "b3ce7c888244779c62c22a7d6af3f591e67a7b57e9db2af69d90fa8c35bd57ad"),
    (9, 4, "1c66fb8558c14fe9cdfbddaf70c5c5b0376cb5091524055207221d4be7200808"),
    (10, 5, "3dab128ad54b56bde8a88f5ae20e8a5fc662e6d539e4c31ae5b6b63cd39333e9"),
    (11, 3, "ee7f0b84d1e992745468a325f1c72bf9df81abb031a8f479e9686b1c80c49970"),
    (12, 2, "6b43dbc8ba13f96d9d991fc2022a9fcbe37840ea51b9b49884adebfe54e2b01c"),
    (12, 4, "f933e6edd7a4171b414abd9e58965200ae0a509fdf1335aae7b0c31ccb4cd432"),
])
def test_ekr_pinned_output(capsys, n, k, digest):
    # byte-for-byte output of the enumeration over static clique partitions
    # (1-factorisations and Baranyai classes) that the per-node greedy cover
    # replaced, and of the star-group search that reading the maxima off
    # K(n,k)'s structure replaced; (4,2) and (6,3) have n = 2k and are
    # listed, (8,4) and (10,5) have n = 2k and are refused by their count,
    # and (12,4), with 495 vertices, reports its 12 stars
    code, out, _ = run_cli(capsys, "ekr", "--n", str(n), "--k", str(k))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("p,message", [
    ("1.5", "error: p must lie in [0,1], got 1.5\n"),
    ("0.5", "error: need at least 30 trials for the interval, got 5\n"),
])
def test_simulate_validation_errors(capsys, p, message):
    code, out, err = run_cli(capsys, "simulate", "--n", "5", "--k", "2",
                             "--p", p, "--trials", "5")
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("argv,code,message", [
    ("removal --n 5 --k 1 --family star:1", 1,
     "error: k must be at least 2, got 1\n"),
    ("removal --n 64 --k 2 --family random:10:1 --l 3", 2,
     "guard: centre-set search over 8303633 sets exceeds the guard\n"),
])
def test_removal_error_exit_codes(capsys, argv, code, message):
    # the bound itself is in range here; the centre-set report refuses
    assert run_cli(capsys, *argv.split()) == (code, "", message)


@pytest.mark.parametrize("p", [",", ""])
def test_simulate_refuses_an_empty_p_list(capsys, p):
    # an empty list is refused before any other input is checked
    code, out, err = run_cli(capsys, "simulate", "--n", "8", "--k", "2",
                             "--p", p, "--trials", "0")
    assert (code, out, err) == (1, "", f"error: bad probability list {p!r}\n")


def test_removal_runs_one_centre_set_search(capsys, monkeypatch):
    from kneserlab import removal

    calls = []
    real = removal.decompose_affine
    monkeypatch.setattr(removal, "decompose_affine",
                        lambda family: calls.append(1) or real(family))
    removal._center_set_search.cache_clear()
    code, out, _ = run_cli(capsys, "removal", "--n", "12", "--k", "2",
                           "--family", "random:30:4", "--l", "1")
    assert code == 0
    assert json.loads(out)["center_set"]["best_s"]
    assert len(calls) == 1


def test_two_loads_of_one_file_share_one_table_and_one_search(capsys, monkeypatch,
                                                            tmp_path):
    from kneserlab import families, removal
    from kneserlab.families import GroundParams, SetFamily, build_family, save_family

    path = tmp_path / "fam.txt"
    save_family(build_family(GroundParams(20, 3), "random:400:7"), path)
    removal._center_set_search.cache_clear()
    calls = []
    for memoised in (families._subset_table, removal._center_set_search):
        monkeypatch.setattr(memoised, "__wrapped__",
                            lambda *a, run=memoised.__wrapped__, name=memoised.__name__:
                            calls.append(name) or run(*a))
    eq = SetFamily.__eq__
    monkeypatch.setattr(SetFamily, "__eq__",
                        lambda a, b: calls.append("compare") or eq(a, b))
    outs = [run_cli(capsys, "removal", "--n", "20", "--k", "3", "--l", "1",
                    "--family", f"file:{path}") for _ in range(2)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert calls.count("_subset_table") == calls.count("_center_set_search") == 1
    assert calls.count("compare") <= 1


def test_simulate_edge_guard_exit_code(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "20", "--k", "5",
                             "--p", "0.5", "--trials", "30")
    assert code == 2
    assert out == ""
    assert "guard" in err


def test_simulate_row_guard_exit_code(capsys):
    # K(18,9) passes the edge guard but its adjacency rows take 295 MB
    code, out, err = run_cli(capsys, "simulate", "--n", "18", "--k", "9",
                             "--p", "0.5", "--trials", "30")
    assert code == 2
    assert out == ""
    assert "adjacency rows" in err


def test_threshold_payload(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--n", "8", "--k", "2",
                           "--trials", "40", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["p_half"] < 1.0
    assert "p_c" in payload and "p_0" in payload
    assert payload["seed"] == 3


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "stats", "--n", "5", "--k", "2",
                           "--family", "star:9", "--l", "1")
    assert code == 1
    assert "error" in err


def test_guard_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "ekr", "--n", "40", "--k", "12")
    assert code == 2
    assert "guard" in err


def test_out_file_routing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "ekr", "--n", "5", "--k", "2",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["alpha"] == 4


def one_error_line(code, out, err, path) -> bool:
    """Exit 1 with nothing on stdout and one `error:` line naming path."""
    lines = err.splitlines()
    return (code, out, len(lines)) == (1, "", 1) and lines[0].startswith("error: ") \
        and str(path) in lines[0]


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
def test_unreadable_family_file_is_a_domain_error(tmp_path, capsys, case):
    path = {"missing": tmp_path / "nonexistent", "directory": tmp_path,
            "not utf-8": tmp_path / "latin1.txt"}[case]
    if case == "not utf-8":
        path.write_bytes(b"n=9 k=2\n# caf\xe9\n1,2\n")
    code, out, err = run_cli(capsys, "stats", "--n", "9", "--k", "2",
                             "--family", f"file:{path}")
    assert one_error_line(code, out, err, path), err


def test_file_spec_without_a_path_is_a_domain_error(capsys):
    # an empty path would read the current directory
    code, out, err = run_cli(capsys, "stats", "--n", "9", "--k", "2", "--family", "file:")
    assert (code, out, err) == (1, "", "error: file spec needs a path\n")


@pytest.mark.parametrize("case", ["missing directory", "directory"])
def test_out_path_that_cannot_be_opened_fails_before_the_command(
        tmp_path, capsys, monkeypatch, case):
    from kneserlab import cli

    ran = []
    monkeypatch.setitem(cli._COMMANDS, "simulate", lambda args, params: ran.append(args))
    path = tmp_path / "missing" / "out.csv" if case == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, "simulate", "--n", "12", "--k", "2", "--p", "0.5",
                             "--out", str(path))
    assert one_error_line(code, out, err, path), err
    assert ran == []


def test_out_path_is_checked_before_n_and_k(tmp_path, capsys):
    # main builds the GroundParams once, after opening --out
    path = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "ekr", "--n", "1", "--k", "2", "--out", str(path))
    assert one_error_line(code, out, err, path), err
    code, out, err = run_cli(capsys, "ekr", "--n", "1", "--k", "2")
    assert (code, out, err) == (1, "", "error: need 1 <= k <= n, got n=1 k=2\n")


def test_out_file_is_emptied_only_after_the_command_succeeds(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("n=9 k=2\n1,2\n1,3\n")
    before = path.read_text()
    code, _, err = run_cli(capsys, "stats", "--n", "9", "--k", "2", "--family",
                           f"file:{path}", "--l", "0", "--out", str(path))
    assert code == 1 and "ell must be at least 1" in err
    assert path.read_text() == before
    code, out, _ = run_cli(capsys, "stats", "--n", "9", "--k", "2", "--family",
                           f"file:{path}", "--out", str(path))  # reads it, then replaces it
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["size"] == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kneserlab.cli", "ekr", "--n", "4", "--k", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alpha"] == 3
