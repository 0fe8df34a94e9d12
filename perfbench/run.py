"""Benchmark of the `padichyp` command-line verifier.

    python3 perfbench/run.py --workload acceptance-j1 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Every invocation is a fresh `python3 -m padichyp.cli` process with `src/` of
the checkout on PYTHONPATH, started one at a time through perfbench/spawner.py.
`--trace 0` times untraced passes and reports the end-to-end metrics,
scaled to a reference speed by a calibration timed on the same CPU;
`--trace 1` runs the same argv under perfbench/traced.py at `--jobs 1`, then
the kernel probes in perfbench/probes.py, and reports the per-layer metrics.  Metric names and
units come from BENCHMARK.json.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; a result file with the
environment and every sample goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 20260810
MIN_PASSES = 3          # timed passes per run, even when --seconds is short
SETUP_PER_PASS = 2      # set-up probes after each timed pass
SETUP_REPEATS = 15      # set-up probes per run, at least
CAL_REF_S = 0.1         # spawner.calibrate() on a quiet 2.0 GHz Xeon, the reference speed
PROBE_GRID = tuple((p, N) for p in (61, 251, 491) for N in (3, 5))
PROBE_FUNCTIONS = ("gamma_p", "g_function", "greene_series_scaled", "truncated_hyp")

# Runs each argv through padichyp.cli.main with the check itself stubbed
# out: the CLI parses it, builds its RunConfig and plans it, and no check runs.
SETUP_CODE = """\
import json, sys
import padichyp.cli
from padichyp import checks
checks.run_config = lambda cfg: ([], [])
for argv in json.loads(sys.argv[1]):
    if padichyp.cli.main(argv) != 0:
        sys.exit(1)
"""


@dataclass(frozen=True)
class Invocation:
    ref: str                  # key into reference.json, which holds the argv
    jobs: int = 1

    def argv(self, seed: int) -> list[str]:
        return [*REFERENCE[self.ref]["argv"], "--jobs", str(self.jobs), "--seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    name: str
    passes: tuple[Invocation, ...]      # one pass runs these in order
    twin: tuple[Invocation, ...] = ()   # run once; each pass must reproduce its bytes
    traced: tuple[Invocation, ...] = ()  # what --trace 1 runs; default: passes
    probe_grid: tuple[tuple[int, int], ...] = PROBE_GRID  # (p, N) of the kernel probes


CHECK_ALL_J1, CHECK_ALL_J2 = Invocation("check-all", 1), Invocation("check-all", 2)

WORKLOADS = {w.name: w for w in (
    Workload("acceptance-j1", (CHECK_ALL_J1,), twin=(CHECK_ALL_J2,)),
    # Not in BENCHMARK.json: on a shared 2-vCPU host its run-to-run spread
    # exceeds the largest bound the benchmark may set (see README.md).
    Workload("acceptance-j2", (CHECK_ALL_J2,), twin=(CHECK_ALL_J1,), traced=(CHECK_ALL_J1,)),
    Workload("large-prime", (Invocation("ao"), Invocation("conj1.3"))),
    # used by smoke.py only; not a benchmark workload
    Workload("small", (Invocation("thm2.4-small"),), twin=(Invocation("thm2.4-small", 2),),
             probe_grid=((61, 3),)),
)}


def _load(name: str) -> dict:
    with open(name, encoding="utf-8") as fh:
        return json.load(fh)


REFERENCE = _load(HERE / "reference.json")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall: float      # seconds from spawn to exit
    cpu: float       # user + sys of the process and the children it waited for
    rss_mb: float    # largest max-RSS among them
    cal: float       # calibration time around the process (see spawner.py)
    out: bytes
    err: bytes


class Spawner:
    """Runs commands through perfbench/spawner.py, which explains why."""

    def __enter__(self) -> "Spawner":
        OUT.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def invoke(self, cmd: list[str], pin: bool = True) -> Proc:
        """Runs cmd to completion; pin keeps it on the spawner's CPU."""
        with tempfile.NamedTemporaryFile(dir=OUT) as fo, \
                tempfile.NamedTemporaryFile(dir=OUT) as fe:
            self.proc.stdin.write(json.dumps({"cmd": cmd, "out": fo.name, "err": fe.name,
                                              "pin": pin}) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("perfbench/spawner.py exited")
            r = json.loads(line)
            return Proc(r["code"], r["wall"], r["cpu"], r["rss_mb"], r["cal"],
                        fo.read(), fe.read())

    def cli(self, inv: Invocation, seed: int) -> Proc:
        """Runs the padichyp CLI; a --jobs 1 run is pinned, a pool gets every CPU."""
        return self.invoke([sys.executable, "-m", "padichyp.cli", *inv.argv(seed)],
                           pin=inv.jobs == 1)


def traced_cmd(inv: Invocation, seed: int, summary: Path, spans: Path) -> list[str]:
    return [sys.executable, str(HERE / "traced.py"), str(summary), str(spans), "--",
            *inv.argv(seed)]


# ---------------------------------------------------------------------------
# output gate
# ---------------------------------------------------------------------------


class Gate:
    """Counts invocations and checks each one's output.

    An invocation fails on a nonzero exit, a row without "pass": true, a row
    count or SHA-256 that differs from reference.json (the hash is checked
    for every seed when the output does not depend on it), or bytes that
    differ from the run it must reproduce."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple[str, str], str | None] = {}
        self.rows: dict[str, int] = {}

    @property
    def failed(self) -> int:
        return len(self.problems)

    def check(self, inv: Invocation, proc: Proc, expect: bytes | None = None) -> None:
        self.attempted += 1
        problem = self.verify(inv, proc.code, proc.out, expect)
        if problem:
            tail = proc.err.decode(errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"{' '.join(inv.argv(self.seed))}: {problem}"
                                 + (f" ({tail[0]})" if tail else ""))

    def verify(self, inv: Invocation, code: int, out: bytes,
               expect: bytes | None = None) -> str | None:
        if code != 0:
            return f"exit code {code}"
        if expect is not None and out != expect:
            return "output bytes differ from the reference run"
        digest = hashlib.sha256(out).hexdigest()
        key = (inv.ref, digest)
        if key not in self._verdicts:
            self._verdicts[key] = self._verify_rows(inv.ref, out, digest)
        return self._verdicts[key]

    def _verify_rows(self, ref: str, out: bytes, digest: str) -> str | None:
        want = REFERENCE[ref]
        try:
            rows = json.loads(out)
        except ValueError:
            return "output is not JSON"
        bad = sum(1 for row in rows if row.get("pass") is not True)
        if bad:
            return f"{bad} rows without \"pass\": true"
        if len(rows) != want["rows"]:
            return f"{len(rows)} rows, expected {want['rows']}"
        if want["seed"] in (None, self.seed) and digest != want["sha256"]:
            return f"sha256 {digest} differs from the reference"
        self.rows[ref] = len(rows)
        return None


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def median(xs) -> float:
    return statistics.median(xs)


def setup_probe(sp: Spawner, w: Workload, seed: int, gate: Gate) -> Proc:
    """A fresh interpreter imports padichyp.cli and plans the workload, no check."""
    argvs = json.dumps([inv.argv(seed) for inv in w.passes])
    p = sp.invoke([sys.executable, "-c", SETUP_CODE, argvs])
    gate.attempted += 1
    if p.code != 0:
        gate.problems.append(f"set-up probe: exit code {p.code}")
    return p


def run_untraced(sp: Spawner, w: Workload, seed: int, seconds: float):
    """Time whole passes for `seconds`; returns (metrics, samples, gate).

    Neighbours on a shared machine slow it by up to 60 %, over seconds to
    minutes, so times are scaled to a reference speed: multiplied by
    CAL_REF_S over the median of the calibrations the spawner timed around
    the run's processes on the same CPU.  wall_s and cpu_s sum, over the
    invocations of a pass, the median of each one's samples.  Set-up probes
    are spread over the run, SETUP_PER_PASS after each pass, and setup_s is
    their median.  Raw times and calibrations are in the result file."""
    gate = Gate(seed)
    expect = None
    if w.twin:
        # Untimed run at the other --jobs level: every timed pass must
        # reproduce its bytes, which proves byte-identity across jobs levels.
        expect = []
        for inv in w.twin:
            p = sp.cli(inv, seed)
            gate.check(inv, p)
            expect.append(p.out)
    procs: list[list[Proc]] = [[] for _ in w.passes]
    setups: list[Proc] = []
    pass_s, rss = [], 0.0
    t_start = time.perf_counter()
    while len(pass_s) < MIN_PASSES or (
            time.perf_counter() - t_start + median(pass_s) <= seconds):
        t_pass, outs = time.perf_counter(), []
        for i, inv in enumerate(w.passes):
            p = sp.cli(inv, seed)
            gate.check(inv, p, expect[i] if expect else None)
            outs.append(p.out)
            procs[i].append(p)
            rss = max(rss, p.rss_mb)
        expect = expect or outs  # without a twin, every pass reproduces the first
        setups.extend(setup_probe(sp, w, seed, gate) for _ in range(SETUP_PER_PASS))
        pass_s.append(time.perf_counter() - t_pass)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(sp, w, seed, gate))
    rows = sum(gate.rows.get(inv.ref, 0) for inv in w.passes)
    scale = CAL_REF_S / median(p.cal for p in [*setups, *(p for ps in procs for p in ps)])
    wall = scale * sum(median(p.wall for p in ps) for ps in procs)
    metrics = {
        "wall_s": wall,
        "cpu_s": scale * sum(median(p.cpu for p in ps) for ps in procs),
        "reports_per_s": rows / wall,
        "setup_s": scale * median(p.wall for p in setups),
        "peak_rss_mb": rss,
    }
    n = len(pass_s)
    samples = {"raw_wall_s": [[p.wall for p in ps] for ps in procs],
               "raw_cpu_s": [[p.cpu for p in ps] for ps in procs],
               "cal_s": [[p.cal for p in ps] for ps in procs],
               "raw_setup_s": [p.wall for p in setups],
               "setup_cal_s": [p.cal for p in setups],
               "reports_per_pass": rows, "scale": scale,
               "n": {"wall_s": n, "cpu_s": n, "reports_per_s": n, "setup_s": len(setups),
                     "peak_rss_mb": n * len(w.passes)}}
    return metrics, samples, gate


MAX_METRICS = {"checks.task_s.max"}


def merge_summaries(summaries: list[dict]) -> dict:
    """Per-layer metrics of one pass from the traced invocations it made."""
    out: dict[str, float] = {}
    for s in summaries:
        for k, v in s["metrics"].items():
            out[k] = max(out.get(k, 0), v) if k in MAX_METRICS else out.get(k, 0) + v
    out["gamma.distinct_ratio"] = (out.pop("gamma.distinct") / out["gamma.residue_calls"]
                                   if out["gamma.residue_calls"] else 0.0)
    out["qseries.distinct_ratio"] = (out.pop("qseries.distinct") / out["qseries.calls"]
                                     if out["qseries.calls"] else 0.0)
    return out


def probe_jobs(grid) -> list[tuple[str, int, int]]:
    """(function, p, N) of each kernel probe on `grid`; 0 where unused."""
    jobs = [(f, p, N) for p, N in grid for f in PROBE_FUNCTIONS]
    jobs += [("rv_form_coeffs", p, 0) for p in sorted({p for p, _ in grid})]
    jobs.append(("bin_harmonic_id1", 0, 0))
    return jobs


def probe_metric(f: str, p: int, N: int) -> str:
    return f"kernel.{f}" + (f".p{p}" if p else "") + (f".N{N}" if N else "") + ".s"


def off_grid_metrics(w: Workload) -> set[str]:
    """Kernel timings of the full grid that `w`'s smaller probe grid skips."""
    return ({probe_metric(*j) for j in probe_jobs(PROBE_GRID)}
            - {probe_metric(*j) for j in probe_jobs(w.probe_grid)})


def run_probes(sp: Spawner, gate: Gate, grid) -> tuple[dict, dict]:
    """Kernel probes, each in a fresh interpreter; cross-checks their values."""
    metrics, values = {}, {}
    jobs = probe_jobs(grid)
    failed = dict.fromkeys([f for f, _, _ in jobs], 0)
    for f, p, N in jobs:
        name = probe_metric(f, p, N)
        proc = sp.invoke([sys.executable, str(HERE / "probes.py"), f, str(p), str(N)])
        gate.attempted += 1
        if proc.code != 0:
            gate.problems.append(f"probe {name} exit code {proc.code}")
            failed[f] += 1
            metrics[name] = proc.wall
            continue
        res = json.loads(proc.out.decode().strip().splitlines()[-1])
        metrics[name] = res["s"]
        failed[f] += res["failed"]
        values[(f, p, N)] = res
    for f, n in failed.items():
        metrics[f"kernel.{f}.failed"] = n
    # Prop 2.2 with args (1/2)^4: G equals the Greene series; Thm 1.1: the
    # truncated 4F3 is congruent to the series minus p, mod p^2.
    for p, N in grid:
        g, s, t = (values.get((f, p, N), {}).get("value") for f in PROBE_FUNCTIONS[1:])
        if g and s and _residue(g, p, N - 1) != _residue(s, p, N - 1):
            gate.problems.append(f"probe p={p} N={N}: G function != Greene series")
        if t and s and _residue(t, p, 2) != (_residue(s, p, 2) - p) % p**2:
            gate.problems.append(f"probe p={p} N={N}: truncated 4F3 != series - p")
    return metrics, {f"{f}.p{p}.N{N}": v.get("error") for (f, p, N), v in values.items()
                     if v["failed"]}


def _residue(value, p: int, k: int) -> int:
    val, unit, _ = value
    return 0 if val is None else unit * p**val % p**k


def run_traced(sp: Spawner, w: Workload, seed: int, seconds: float):
    """Pairs of untraced and traced passes at --jobs 1, then the probes."""
    gate = Gate(seed)
    invs = w.traced or w.passes
    passes, caches = [], {}
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start + median(
            p["pair_s"] for p in passes) <= seconds:
        t_pair = time.perf_counter()
        wall_u, outs = 0.0, []
        for inv in invs:
            p = sp.cli(inv, seed)
            gate.check(inv, p)
            wall_u += p.wall
            outs.append(p.out)
        wall_t, summaries = 0.0, []
        for i, (inv, out) in enumerate(zip(invs, outs)):
            summary, spans = OUT / f"trace-{w.name}-{i}.json", OUT / f"spans-{w.name}-{i}.jsonl"
            summary.unlink(missing_ok=True)
            p = sp.invoke(traced_cmd(inv, seed, summary, spans))
            gate.check(inv, p, out)   # traced bytes must equal untraced bytes
            if not summary.exists():
                raise RuntimeError(f"traced run of {inv.ref} wrote no summary: "
                                   + p.err.decode(errors="replace")[-2000:])
            wall_t += p.wall
            doc = _load(summary)
            summaries.append(doc)
            caches.update(doc["caches"])
        m = merge_summaries(summaries)
        m["trace.overhead_s"] = wall_t - wall_u
        m["report.bytes"] = sum(len(o) for o in outs)
        m["pair_s"] = time.perf_counter() - t_pair
        passes.append(m)
    # median_low: a sample as measured, so counts stay whole numbers
    metrics = {k: statistics.median_low([p[k] for p in passes])
               for k in passes[0] if k != "pair_s"}
    probe_metrics, probe_errors = run_probes(sp, gate, w.probe_grid)
    metrics.update(probe_metrics)
    metrics["fail_share"] = gate.failed / gate.attempted
    samples = {"traced_passes": passes, "padichyp_caches": caches,
               "probe_failures": probe_errors,
               "n": {k: (1 if k.startswith("kernel.") else len(passes)) for k in metrics}}
    return metrics, samples, gate


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC / "padichyp"),
        "cpu_caches": caches,
        "loadavg_start": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def declared(trace: int) -> list[dict]:
    bench = _load(ROOT / "BENCHMARK.json")
    return bench["per_layer" if trace else "end_to_end"]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    w = WORKLOADS[workload]
    env = environment()
    measure = run_traced if trace else run_untraced
    with Spawner() as sp:
        computed, samples, gate = measure(sp, w, seed, seconds)
    metrics = {}
    for m in declared(trace):
        if m["name"] in computed:
            metrics[m["name"]] = {"value": computed[m["name"]], "unit": m["unit"]}
        elif m["name"] not in off_grid_metrics(w):
            raise KeyError(f"metric {m['name']} is declared but not computed")
    result = {"correct": not gate.problems, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "environment": env, "problems": gate.problems, "samples": samples,
                   **result}, fh, indent=1)
    for name, m in metrics.items():
        print(f"{workload:<14} {name:<36} {m['value']:>14.6g} {m['unit']:<6} "
              f"n={samples['n'][name]}")
    for problem in gate.problems:
        print(f"{workload:<14} FAILED {problem}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "padichyp" / "cli.py").is_file():
        print(f"error: no padichyp sources under {SRC}", file=sys.stderr)
        return 2
    if ns.workload != "all":
        result = run_one(ns.workload, ns.seed, ns.seconds, ns.trace)
    else:
        results = {}
        names = [m["name"] for m in _load(ROOT / "BENCHMARK.json")["workloads"]]
        for name in names:
            for trace in (0, 1):
                results[(name, trace)] = run_one(name, ns.seed, ns.seconds, trace)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for (name, _), r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
