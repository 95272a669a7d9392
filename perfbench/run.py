#!/usr/bin/env python3
"""Figure-level benchmark of the emc reproduction suite.

    python3 perfbench/run.py --workload mc_yield|survivability|repro_suite \
        --seed N --seconds S --trace 0|1

Builds perfbench_emc (perfbench/CMakeLists.txt: the repository's library
and registered figures, Release) into .bench_build/, then runs workload
passes back to back (a closed loop, one process per pass) for --seconds.
--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes (the emc_repro driver); --trace 1 alternates untraced passes with
traced replica passes and reports the per-layer metrics. Every pass is
checked; the last stdout line is the JSON result. See README.md.
"""

import argparse
import collections
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_emc"
REFS = ROOT / "bench" / "refs"

NPROC = len(os.sched_getaffinity(0))
PASS_TIMEOUT_S = 150.0
MIN_PASSES = 3
SETUP_PROBES = 20

# Replicated figures: trial count of one timed pass, grid points per
# trial, the trial count the refs were recorded at, and sweep threads.
REPLICATED = {
    "mc_yield": {"figure": "fig_mc_yield", "trials": 1000, "grid": 21,
                 "ref_trials": 60, "threads": min(4, NPROC)},
    "survivability": {"figure": "fig_survivability", "trials": 60,
                      "grid": 18, "ref_trials": 12, "threads": min(4, NPROC)},
}
WORKLOADS = ("mc_yield", "survivability", "repro_suite")

# Counts a host-speed change must leave identical: across passes of a
# run, and between the traced and untraced passes.
DETERMINISTIC = ("device.sample_calls", "analysis.rows",
                 "sim.events_executed", "sim.events_scheduled",
                 "supply.draw_count", "gates.transitions")


class Tally:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED: {what}", file=sys.stderr)
        return ok

    def frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def trial_prefix(text, limit):
    """The header plus the rows whose `trial` cell is below `limit`."""
    lines = text.splitlines(keepends=True)
    if not lines:
        return ""
    col = lines[0].rstrip("\r\n").split(",").index("trial")
    rows = [ln for ln in lines[1:] if int(ln.split(",")[col]) < limit]
    return lines[0] + "".join(rows)


def gate_prefix(produced, ref, limit, tally, what):
    """A scaled run must reproduce the recorded trials as its prefix."""
    return tally.check(trial_prefix(produced, limit) == ref,
                       f"{what}: trials < {limit} differ from the ref")


def parse_manifest(text):
    """Per-figure records of an emc_repro manifest."""
    figures = []
    for f in json.loads(text)["figures"]:
        figures.append({
            "name": f["name"],
            "status": f["status"],
            "wall_s": f["wall_seconds"],
            "events": f["kernel_stats"]["events_executed"],
            "artifacts": {a["file"]: a["sha256"] for a in f["artifacts"]},
        })
    return figures


def check_figures(figures, tally):
    for f in figures:
        tally.check(f["status"] == "ok", f"{f['name']}: status {f['status']}")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def read_commit():
    """HEAD of the checkout's .git, if it is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configure (first time) and build perfbench_emc; refuse to measure a
    build that is not a plain Release build."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(NPROC),
                      "--target", "perfbench_emc"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            cache[key.split(":")[0]] = value
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = cache.get("CMAKE_CXX_FLAGS", "")
    bad = [f for f in ("-fsanitize", "-pg", "--coverage", "-O0")
           if f in flags]
    if build_type != "Release" or bad:
        sys.exit(f"perfbench: refusing to measure a {build_type or 'untyped'}"
                 f" build with CMAKE_CXX_FLAGS='{flags}'")


def run_binary(args, workdir, threads):
    """One pass as one process: returns the binary's result record plus the
    spawn stamp, exit code and peak RSS."""
    workdir.mkdir()
    env = dict(os.environ)
    env.pop("EMC_SWEEP_THREADS", None)
    if threads is not None:
        env["EMC_SWEEP_THREADS"] = str(threads)
    out = workdir / "result.json"
    with open(workdir / "stdout.log", "wb") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen([str(BINARY), args[0], str(out), *args[1:]],
                                cwd=workdir, stdout=log,
                                stderr=subprocess.STDOUT, env=env)
        deadline = spawn + PASS_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError):
        result = {"rc": None}
    result["exit"] = proc.returncode
    result["spawn"] = spawn
    result["rss_mb"] = usage.ru_maxrss / 1024.0
    return result


# One untraced pass: driver wall time, launch-to-ready set-up time, peak
# RSS, rows produced and the parsed manifest.
Pass = collections.namedtuple("Pass", "wall_s setup_s rss_mb rows manifest")


def csv_rows(path):
    with open(path, "rb") as f:
        return sum(1 for _ in f) - 1


class Workload:
    """Pass construction and checking for one workload. The replicated
    figures run at their registered seeds, the seeds their refs were
    recorded at; the benchmark seed orders repro_suite's figures."""

    def __init__(self, name, seed, work):
        self.name = name
        self.work = work
        self.tally = Tally()
        self.count = 0
        self.compiler = "unknown"
        self.setup = []      # set-up probe times
        self.untraced = []   # Pass records
        self.traced = []     # (wall_s, metrics)
        self.first_digests = None
        self.first_counts = None
        rep = REPLICATED.get(name)
        self.rep = rep
        if rep:
            self.threads = rep["threads"]
        else:
            self.threads = None  # the driver's default: hardware threads
            figures = sorted(p.stem for p in (ROOT / "bench").glob("*.cpp")
                             if p.stem != "micro_kernel")
            random.Random(seed).shuffle(figures)
            self.figures = figures

    def fresh_dir(self):
        self.count += 1
        return self.work / f"pass{self.count}"

    def probe_setup(self):
        """Launch-to-ready time of processes that stop after set-up."""
        for _ in range(SETUP_PROBES):
            d = self.fresh_dir()
            res = run_binary(["setup"], d, self.threads)
            if self.tally.check(res["exit"] == 0, "set-up probe"):
                self.setup.append(res["ready"] - res["spawn"])
            shutil.rmtree(d)

    def untraced_args(self):
        if self.rep:
            return ["untraced", "run", self.rep["figure"], "--trials",
                    str(self.rep["trials"]), "--manifest", "manifest.json"]
        return ["untraced", "run", *self.figures, "--check", "--lint",
                "--sta", "--jobs", "1", "--refs", str(REFS),
                "--manifest", "manifest.json"]

    def traced_args(self):
        if self.rep:
            return ["traced", self.name, str(self.rep["trials"]),
                    str(self.threads)]
        return ["traced", "repro_suite", str(REFS), *self.figures]

    def run_untraced(self):
        d = self.fresh_dir()
        res = run_binary(self.untraced_args(), d, self.threads)
        t = self.tally
        ok = t.check(res["exit"] == 0 and res.get("rc") == 0,
                     f"untraced pass exit {res['exit']}")
        if ok:
            manifest = parse_manifest((d / "manifest.json").read_text())
            check_figures(manifest, t)
            if self.rep:
                name = self.rep["figure"] + "_trials.csv"
                trials = (d / name).read_text()
                rows = trials.count("\n") - 1
                t.check(rows == self.rep["grid"] * self.rep["trials"],
                        f"{rows} trial rows")
                gate_prefix(trials, (REFS / name).read_text(),
                            self.rep["ref_trials"], t, name)
            else:
                rows = sum(csv_rows(d / a) for f in manifest
                           for a in f["artifacts"] if a.endswith(".csv"))
            digests = {f["name"]: (f["artifacts"], f["events"])
                       for f in manifest}
            if self.first_digests is None:
                self.first_digests = digests
            else:
                t.check(digests == self.first_digests,
                        "artifacts or event counts differ between passes")
            self.untraced.append(Pass(res["done"] - res["ready"],
                                      res["ready"] - res["spawn"],
                                      res["rss_mb"], rows, manifest))
            self.compiler = res.get("compiler", "unknown")
        shutil.rmtree(d)

    def run_traced(self):
        d = self.fresh_dir()
        res = run_binary(self.traced_args(), d, self.threads)
        t = self.tally
        if t.check("metrics" in res, f"traced pass exit {res['exit']}"):
            t.attempted += res["attempted"]
            t.failed += len(res["failures"])
            for msg in res["failures"]:
                print(f"perfbench: FAILED: traced: {msg}", file=sys.stderr)
            m = res["metrics"]
            counts = {k: m.get(k, 0) for k in DETERMINISTIC}
            if self.first_counts is None:
                self.first_counts = counts
            else:
                t.check(counts == self.first_counts,
                        "deterministic counts differ between traced passes")
            if self.first_digests is not None:
                got = {f: ({k: res["artifacts"].get(k) for k in a},
                           res["events"].get(f))
                       for f, (a, _) in self.first_digests.items()}
                t.check(got == self.first_digests,
                        "traced artifacts or events differ from untraced")
                if self.rep:
                    t.check(m.get("analysis.rows") == self.untraced[0].rows,
                            "traced row count differs from untraced")
            self.traced.append((res["done"] - res["ready"], m))
        shutil.rmtree(d)


def end_to_end(w):
    return {
        "wall_s": [p.wall_s for p in w.untraced],
        "rows_per_s": [p.rows / p.wall_s for p in w.untraced],
        "peak_rss_mb": [p.rss_mb for p in w.untraced],
        "setup_s": w.setup + [p.setup_s for p in w.untraced],
    }


def per_layer(w, names):
    """Medians over traced passes, plus the metrics derived from both."""
    out = {n: statistics.median(m.get(n, 0.0) for _, m in w.traced)
           for n in names}
    untraced_wall = statistics.median(p.wall_s for p in w.untraced)
    traced_wall = statistics.median(wall for wall, _ in w.traced)
    events = out.get("sim.events_executed", 0.0)
    if out.get("sim.run_s") and events:
        out["sim.ns_per_event"] = out["sim.run_s"] / events * 1e9
    out["sim_events_per_s"] = events / untraced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    if not w.rep:
        out["repro.driver_overhead_s"] = statistics.median(
            p.wall_s - sum(f["wall_s"] for f in p.manifest)
            for p in w.untraced)
    out["fail_frac"] = w.tally.frac()
    return {n: out.get(n, 0.0) for n in names}


def measure(args, spec, work):
    w = Workload(args.workload, args.seed, work)
    if not args.trace:
        w.probe_setup()
    deadline = time.monotonic() + args.seconds
    traced_turn = False
    while True:
        if args.trace:
            enough = min(len(w.untraced), len(w.traced)) >= MIN_PASSES - 1
        else:
            enough = len(w.untraced) >= MIN_PASSES
        if time.monotonic() >= deadline and (enough or w.tally.failed):
            break
        if traced_turn:
            w.run_traced()
        else:
            w.run_untraced()
        traced_turn = bool(args.trace) and not traced_turn

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    samples = {}
    if not w.untraced or (args.trace and not w.traced):
        values = {n: 0.0 for n in units}
    elif args.trace:
        values = per_layer(w, list(units))
    else:
        samples = end_to_end(w)
        values = {n: quartiles(v)[1] for n, v in samples.items()}

    info = {
        "workload": w.name,
        "seed": args.seed,
        "commit": read_commit(),
        "compiler": w.compiler,
        "nproc": NPROC,
        "sweep_threads": w.threads or NPROC,
        "jobs": None if w.rep else 1,
        "trials": w.rep["trials"] if w.rep else None,
        "passes": {"untraced": len(w.untraced), "traced": len(w.traced)},
        "quartiles": {n: {"q1": q[0], "median": q[1], "q3": q[2],
                          "n": len(v)}
                      for n, v in samples.items() for q in [quartiles(v)]},
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": w.tally.failed == 0,
        "attempted": w.tally.attempted,
        "failed": w.tally.failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units.items()},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (ROOT / "CMakeLists.txt", REFS, ROOT / "BENCHMARK.json"):
        if not needed.exists():
            sys.exit(f"perfbench: {needed} is missing: run from a checkout "
                     "of the repository")
    spec = load_spec()
    build()
    work = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD.parent))
    try:
        measure(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
