"""Acceptance suite: every criterion runs end-to-end at its stated modulus
with zero tolerance, printing one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and timings
(or via the CLI: `padichyp check-all`).
"""

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import oracles
import pytest

from padichyp import checks, cli
from padichyp.combinatorics import apery
from padichyp.padic import PadicValue
from padichyp.qseries import gamma_coeffs
from padichyp.report import CongruenceReport, sort_reports


def _run(claim, **kw):
    t0 = time.perf_counter()
    tasks, skipped = checks.CLAIMS[claim].plan(**kw)
    reports = checks.run_tasks(tasks)
    return reports, skipped, time.perf_counter() - t0


def _finish(tag, reports, elapsed, budget):
    failing = [r for r in reports if not r.passed]
    status = "PASS" if not failing else "FAIL"
    print(f"ACCEPTANCE {tag}: {status}  "
          f"({len(reports)} reports, {elapsed:.1f}s, budget {budget}s)")
    for r in failing[:5]:
        print("   ", r.human_line())
    assert not failing, f"{tag}: {len(failing)} failing reports"
    assert elapsed < budget, f"{tag}: {elapsed:.1f}s exceeded {budget}s"


def test_criterion_01_g_equals_character_series_mod_p4():
    reports, _, dt = _run("prop2.2")
    by_shape = Counter(tuple(r.params["d"]) for r in reports)
    assert by_shape[(2, 2)] == 15          # all odd primes in [7, 61]
    assert by_shape[(3, 3)] == 7
    assert by_shape[(2, 3, 3)] == 7
    assert by_shape[(2, 2, 2, 2)] == 15
    assert by_shape[(5, 5, 5, 5)] == 4     # 11, 31, 41, 61
    assert all(r.mod_power == 4 for r in reports)
    _finish("1 [prop2.2 mod p^4]", reports, dt, 30)


def test_criterion_02_two_argument_congruence_mod_p2():
    reports, _, dt = _run("thm2.4")
    assert {r.params["d"] for r in reports} == {3, 4, 5, 6}
    assert all(r.mod_power == 2 for r in reports)
    assert all(7 <= r.p <= 97 for r in reports)
    _finish("2 [thm2.4 mod p^2]", reports, dt, 10)


def test_criterion_03_three_argument_congruence_mod_p2():
    reports, _, dt = _run("thm2.5")
    assert {r.params["d"] for r in reports} == {3, 4, 5, 6}
    assert all(r.mod_power == 2 for r in reports)
    _finish("3 [thm2.5 mod p^2]", reports, dt, 10)


def test_criterion_04_four_argument_symmetric_mod_p3():
    reports, _, dt = _run("thm2.6")
    main = [r for r in reports if r.claim == "thm2.6"]
    signs = [r for r in reports if r.claim == "thm2.6-sign"]
    assert len(main) == len(signs) > 0
    pairs = {(r.params["d1"], r.params["d2"]) for r in main}
    assert pairs == {(2, 2), (2, 3), (3, 4), (2, 5)}
    assert all(r.mod_power == 3 for r in main)
    _finish("4 [thm2.6 mod p^3 + s(p) agreement]", reports, dt, 20)


def test_criterion_05_four_argument_asymmetric_mod_p3():
    reports, _, dt = _run("thm2.7")
    pairs = {(r.params["d"], r.params["r"]) for r in reports}
    assert pairs == {(5, 2), (8, 3), (12, 5)}
    assert all(r.mod_power == 3 for r in reports)
    _finish("5 [thm2.7 mod p^3]", reports, dt, 20)


def test_criterion_06_apery_form_coefficient_mod_p2():
    reports, _, dt = _run("beukers")
    assert {r.p for r in reports} == set(checks.primes_in(3, 97))
    # the two hand-checkable instances
    assert apery(1) == 5 and gamma_coeffs(3).coefficient(3) == -4
    assert (5 + 4) % 9 == 0
    assert apery(2) == 73 and gamma_coeffs(5).coefficient(5) == -2
    assert (73 + 2) % 25 == 0
    _finish("6 [beukers mod p^2]", reports, dt, 5)


def test_criterion_07_exact_integer_identity_mod_p4():
    reports, _, dt = _run("ao")
    exact = [r for r in reports if r.claim == "thm1.2"]
    assert {r.p for r in exact} == set(checks.primes_in(7, 61))
    assert all(r.mod_power == 4 for r in exact)
    assert all(r.params["deligne_ok"] for r in exact)
    _finish("7 [thm1.2 exact via mod p^4 + Deligne]", reports, dt, 20)


def test_criterion_08_quintic_conjecture_mod_p3():
    reports, skipped, dt = _run("conj1.3")
    main = [r for r in reports if r.claim == "conj1.3"]
    companion = [r for r in reports if r.claim == "conj1.3-framework"]
    expected = [p for p in checks.primes_in(3, 97) if p != 5]
    assert [r.p for r in main] == expected
    assert [r.p for r in companion] == expected
    assert {s[2] for s in skipped} == {5}
    assert all(r.mod_power == 3 for r in reports)
    _finish("8 [conj1.3 + framework mod p^3]", reports, dt, 30)


def test_criterion_09_section3_property_suite():
    reports, _, dt = _run("lemmas")
    by_claim = Counter(r.claim for r in reports)
    for p in (7, 11, 13):
        per_prime = Counter(r.claim for r in reports if r.p == p)
        # full grids for the shifted-gamma families
        assert per_prime["lemma3.9"] > 0 and per_prime["lemma3.13"] > 0
        assert per_prime["lemmaP"] >= 100 and per_prime["lemmaQ"] >= 100
        assert per_prime["eq3.2"] == 2 * (p - 1)
        boundary = [r for r in reports
                    if r.claim == "lemmaP" and r.p == p
                    and sum(r.params["a"]) == 2 * (p - 1)]
        assert boundary, f"no boundary tuples at p={p}"
    assert by_claim["binharm.id1"] == 465          # 1 <= n <= m <= 30
    assert by_claim["binharm.id2"] >= 2 * 100      # basis pairs over the full grid
    for fam in ("prop3.1.1", "prop3.1.2", "prop3.1.3", "prop3.2.1", "prop3.2.2",
                "prop3.2.3", "prop3.2.4", "cor3.4", "cor3.5", "prop3.3.2",
                "prop3.8"):
        assert by_claim[fam] > 0, fam
    _finish("9 [section-3 suite]", reports, dt, 60)


def test_criterion_10_byte_identical_json_across_jobs():
    t0 = time.perf_counter()
    outputs = []
    for jobs in ("1", "8"):
        r = subprocess.run(
            [sys.executable, "-m", "padichyp.cli", "check", "conj1.3",
             "--format", "json", "--jobs", jobs],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1], "JSON output differs between job counts"
    rows = json.loads(outputs[0])
    assert all(row["pass"] for row in rows)
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE 10 [determinism --jobs 1 vs 8]: PASS ({dt:.1f}s)")


# SHA-256 of `padichyp check-all --format json` at the default seed
CHECK_ALL_SHA256 = "f8f20ecfaee4b12e788846f4fecbfbeeeffab20957eecbf9b0cc48b6463a46e5"


def test_check_all_json_matches_golden_sha(tmp_path):
    out = tmp_path / "all.json"
    t0 = time.perf_counter()
    assert cli.main(["check-all", "--format", "json", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(json.loads(data)) == 10343
    assert hashlib.sha256(data).hexdigest() == CHECK_ALL_SHA256
    print(f"ACCEPTANCE golden check-all SHA-256: PASS ({time.perf_counter() - t0:.1f}s)")


# one pin per claim id: its row count and the SHA-256 of json.dumps(rows of
# that id, indent=2), the rows in check-all order.  A claim that adds rows adds
# lines here, and this test shows that no other id moved
GOLDEN_CLAIMS = Path(__file__).resolve().parent / "golden_claims.json"


def test_check_all_rows_match_per_claim_pins(tmp_path):
    out = tmp_path / "all.json"
    assert cli.main(["check-all", "--format", "json", "--out", str(out)]) == 0
    by_claim = {}
    for row in json.loads(out.read_bytes()):
        by_claim.setdefault(row["claim"], []).append(row)
    got = {cid: {"rows": len(rows),
                 "sha256": hashlib.sha256(json.dumps(rows, indent=2).encode()).hexdigest()}
           for cid, rows in by_claim.items()}
    want = json.loads(GOLDEN_CLAIMS.read_text(encoding="utf-8"))
    assert sorted(got.keys() - want.keys()) == [], "claim ids with no pin"
    assert sorted(want.keys() - got.keys()) == [], "pinned claim ids with no row"
    assert [cid for cid in sorted(want) if got[cid] != want[cid]] == [], "claim ids that moved"


# the same run through the CSV and human writers, pinned while the JSON
# writer changes under them
@pytest.mark.parametrize("fmt, sha256", [
    ("csv", "57e5ee4bd66dabd670a5fcc9415cfbf6735316bca18dec0d5cb82f1938753311"),
    ("human", "ab007b1fe6fe96a038fba70a4e168f905efe2aacf0c4e78e5f0bc9ceb6c40ad4"),
])
def test_check_all_csv_and_human_match_golden_sha(tmp_path, fmt, sha256):
    out = tmp_path / f"all.{fmt}"
    assert cli.main(["check-all", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# SHA-256 of the 70 `skipped ...` lines check-all writes to stderr
CHECK_ALL_SKIPPED_SHA256 = "c46d26fcca3d5451a416cbdcc9adc129ed3041739ab47288b69bb27d6c877718"


# the path the bench times: stdout of a fresh process; at --jobs 2 the
# reports cross the process pool.  The skipped primes on stderr are pinned too
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_check_all_json_on_stdout_matches_golden_sha(jobs):
    r = subprocess.run([sys.executable, "-m", "padichyp.cli", "check-all", "--format", "json",
                        "--jobs", jobs], capture_output=True)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout).hexdigest() == CHECK_ALL_SHA256
    lines = r.stderr.decode().splitlines()
    assert len(lines) == 70 and all(line.startswith("skipped p=") for line in lines)
    assert hashlib.sha256(r.stderr).hexdigest() == CHECK_ALL_SKIPPED_SHA256


@pytest.fixture(scope="module")
def check_all_reports():
    reports, _ = checks.run_config(checks.RunConfig())
    assert len(reports) == 10343
    return reports


class _RecordingFile(io.TextIOBase):
    """A text file that keeps every write it is given."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("fmt, oracle", [
    ("json", oracles.reports_to_json),
    ("csv", oracles.reports_to_csv),
    ("human", oracles.reports_to_human),
], ids=["json", "csv", "human"])
def test_stdout_gets_rows_in_16_kib_blocks(monkeypatch, check_all_reports, fmt, oracle):
    # a write-through stdout (PYTHONUNBUFFERED=1) makes one write(2) per write;
    # a one-report file (its row with the header or footer) bounds a row's size
    fh = _RecordingFile()
    monkeypatch.setattr(sys, "stdout", fh)
    assert cli._emit_reports(check_all_reports, [],
                             argparse.Namespace(format=fmt, out=None)) == 0
    text = "".join(fh.writes)
    assert text == oracle(check_all_reports)
    row = max(len(oracle([r])) for r in check_all_reports)
    assert max(map(len, fh.writes)) <= 2**14 + row
    assert len(fh.writes) <= -(-len(text.encode()) // 2**14) + 1


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_writing_check_all_allocates_under_one_mib(check_all_reports, fmt):
    ns = argparse.Namespace(format=fmt, out=os.devnull)
    tracemalloc.start()
    try:
        assert cli._emit_reports(check_all_reports, [], ns) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{fmt}: peak {peak} bytes"


def test_sorting_check_all_allocates_under_half_a_mib(check_all_reports):
    # one (claim, p) group's params texts at a time, not all 10,343 keys
    shuffled = list(check_all_reports)
    random.Random(28).shuffle(shuffled)
    want = [id(r) for r in sorted(shuffled, key=oracles.sort_key)]
    tracemalloc.start()
    try:
        assert sort_reports(shuffled) is shuffled
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19, f"peak {peak} bytes"
    assert [id(r) for r in shuffled] == want  # ties keep their shuffled order


def test_check_all_reports_share_params_per_grid_point(check_all_reports):
    # a report keeps its row's params; the rows share one dict per grid point
    assert len({id(r.params) for r in check_all_reports}) <= 5000
    point = [r for r in check_all_reports
             if r.p == 7 and r.params == {"x": "1/2", "j": 3}]
    assert {"lemma3.9", "lemma3.10", "lemma3.11", "prop3.8"} <= {r.claim for r in point}
    assert len({id(r.params) for r in point}) == 1
    params = {"x": "1/2"}
    one = PadicValue.from_residue(1, 7, 2)
    assert CongruenceReport.from_sides("c", 7, params, 1, one, one).params is params


# the bench's reference outputs; read here, never written
BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.mark.parametrize("name", ["ao", "conj1.3"])
def test_large_prime_json_matches_bench_reference(tmp_path, name):
    ref = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))[name]
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    assert cli.main([*ref["argv"], "--out", str(out)]) == 0
    data = out.read_bytes()
    assert len(json.loads(data)) == ref["rows"]
    assert hashlib.sha256(data).hexdigest() == ref["sha256"]
    print(f"ACCEPTANCE golden {' '.join(ref['argv'])}: PASS "
          f"({time.perf_counter() - t0:.1f}s)")


# check-all under python -I -S: no site-packages and no PYTHONPATH, so src
# goes on sys.path in the code itself; the child reports what the run loaded
_STDLIB_RUN = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, "src")
from padichyp.cli import main
with open("perfbench/reference.json") as fh:
    argv = json.load(fh)["check-all"]["argv"]
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = main(argv)
loaded = {m.partition(".")[0] for m in sys.modules} - {"__main__", "padichyp"}
print(json.dumps({"code": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                  "outside": sorted(loaded - set(sys.stdlib_module_names)),
                  "slow": sorted({"dataclasses", "typing"} & set(sys.modules)),
                  "no_bytecode": sys.flags.dont_write_bytecode,
                  "warnoptions": sys.warnoptions}))
"""


def test_check_all_runs_on_the_stdlib_alone():
    # -I ignores PYTHONDONTWRITEBYTECODE: -B keeps the run from writing
    # bytecode into src, where a later benchmark would time it; -W error
    # fails the run on any warning, such as a newer Python's DeprecationWarning
    r = subprocess.run([sys.executable, "-I", "-S", "-B", "-W", "error", "-c", _STDLIB_RUN],
                       cwd=BENCH_REFERENCE.parent.parent, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)
    ref = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))["check-all"]
    assert (got["code"], got["sha256"]) == (0, ref["sha256"])
    assert got["outside"] == []  # only stdlib modules
    # each costs every process its start-up time
    assert got["slow"] == [], "check-all loaded " + ", ".join(got["slow"])
    assert got["no_bytecode"] == 1
    assert got["warnoptions"] == ["error"]


@pytest.mark.parametrize("name, builder", [("ao", "gamma_coeffs"),
                                           ("conj1.3", "rv_form_coeffs")])
def test_large_prime_plan_builds_its_form_once(tmp_path, monkeypatch, name, builder):
    ref = json.loads(BENCH_REFERENCE.read_text(encoding="utf-8"))[name]
    calls = []
    build = getattr(checks, builder)

    def counted(M):
        calls.append(M)
        return build(M)

    monkeypatch.setattr(checks, builder, counted)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out-{jobs}.json"
        assert cli.main([*ref["argv"], "--jobs", jobs, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        if jobs == "1":  # one form through the plan's largest prime, for 9 tasks
            assert calls == [499]
    assert hashlib.sha256(outputs[0]).hexdigest() == ref["sha256"]
    assert outputs[1] == outputs[0]
