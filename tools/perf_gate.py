#!/usr/bin/env python3
"""Figure-level perf gate: each figure's wall time and event count,
read from emc_repro's manifest and compared with a recorded baseline.

Usage: python3 tools/perf_gate.py BUILD_DIR

Runs `BUILD_DIR/emc_repro --all --manifest m.json` RUNS times at each
sweep thread count in THREADS (EMC_SWEEP_THREADS, alternating) in a
temporary directory. For each figure it keeps the minimum wall_seconds
at each thread count and the manifest's kernel_stats.events_executed,
prints them beside bench/refs/BENCH_e2e.json, and writes them in that
file's schema to ./BENCH_e2e.json: re-recording the baseline is copying
that file over it.

Exit 0 when every figure passes. Exit 1 when emc_repro fails, when a
figure's event count differs between runs or from the baseline, or when
its minimum wall at either thread count exceeds
WALL_RATIO x max(baseline, WALL_FLOOR_S). Exit 2 on a usage error, or
when the baseline is missing or malformed, or when its figures are not
exactly those of `emc_repro list`: the gate never passes on figures it
did not judge. It still measures and writes ./BENCH_e2e.json then, so a
new figure is recorded by the same command.

Event counts repeat exactly, at any thread count and on any machine,
so their check cannot flake; it catches work inflation (a pile-up of
polls, a lost fast path) that a noisy wall time hides. Wall times are
minima because the host's noise only ever adds time. WALL_RATIO is the
2x (50% rate) tolerance of the harness this gate replaced. WALL_FLOOR_S
exists because figures that take under a millisecond swing 2x between
batches of runs on one idle machine, while figures over 10 ms stay
within 1.6x: below the floor a wall check would gate on noise.
"""
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "bench" / "refs" / "BENCH_e2e.json"
OUT = pathlib.Path("BENCH_e2e.json")
RUNS = 5
THREADS = (1, 4)
WALL_RATIO = 2.0
WALL_FLOOR_S = 0.010


def registered(emc_repro):
    """Sorted names `emc_repro list` prints, one per two-space line."""
    out = subprocess.run([str(emc_repro), "list"], capture_output=True,
                         text=True, check=True).stdout
    return sorted(re.findall(r"^  (\S+) ", out, re.M))


def load_baseline(names):
    """(baseline figures, None), or (None, why it cannot gate `names`)."""
    if not BASELINE.exists():
        return None, f"{BASELINE} is missing"
    try:
        figures = json.loads(BASELINE.read_text())["figures"]
        for fig in figures.values():
            int(fig["events_executed"])
            for t in THREADS:
                float(fig["wall_seconds"][str(t)])
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return None, f"{BASELINE} is malformed: {e!r}"
    if sorted(figures) != names:
        missing = sorted(set(names) - set(figures))
        extra = sorted(set(figures) - set(names))
        return None, (f"{BASELINE} does not list the registered figures "
                      f"(missing {missing}, not registered {extra})")
    return figures, None


def measure(emc_repro):
    """{figure: {"events": set of counts, threads: [wall seconds]}}."""
    runs = {}
    with tempfile.TemporaryDirectory(prefix="perf_gate.") as tmp:
        manifest = pathlib.Path(tmp, "m.json")
        for _ in range(RUNS):
            for t in THREADS:
                env = dict(os.environ, EMC_SWEEP_THREADS=str(t))
                rc = subprocess.run(
                    [str(emc_repro), "--all", "--manifest", manifest.name],
                    cwd=tmp, env=env, stdout=subprocess.DEVNULL).returncode
                if rc != 0:
                    sys.exit(f"perf_gate: emc_repro --all exited {rc} at "
                             f"EMC_SWEEP_THREADS={t}")
                for fig in json.loads(manifest.read_text())["figures"]:
                    r = runs.setdefault(fig["name"], {"events": set()})
                    r["events"].add(fig["kernel_stats"]["events_executed"])
                    r.setdefault(t, []).append(fig["wall_seconds"])
    return runs


def dumps(record):
    """JSON with one line per figure, so a re-recorded baseline diffs
    figure by figure."""
    head = "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n"
                   for k, v in record.items() if k != "figures")
    figures = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in record["figures"].items())
    return f'{{\n{head}  "figures": {{\n{figures}\n  }}\n}}\n'


def describe_build(build_dir):
    """Build type and compiler, read from the CMake build tree."""
    cache = (build_dir / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = "unknown compiler"
    for f in build_dir.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        text = f.read_text()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "(.*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "(.*)"', text)
        if cid and ver:
            compiler = f"{cid.group(1)} {ver.group(1)}"
    return f"{build_type.group(1) if build_type else 'unknown'}, {compiler}"


def describe_machine():
    """CPU model, CPU count and OS of the measuring host."""
    cpuinfo = pathlib.Path("/proc/cpuinfo")
    model = re.search(r"^model name\s*:\s*(.*)$",
                      cpuinfo.read_text() if cpuinfo.exists() else "", re.M)
    cpu = model.group(1) if model else platform.processor() or "unknown CPU"
    return (f"{cpu}, {os.cpu_count()} CPUs, {platform.system()} "
            f"{platform.machine()}")


def main():
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)  # the usage line
        return 2
    build_dir = pathlib.Path(sys.argv[1]).resolve()
    emc_repro = build_dir / "emc_repro"
    if not emc_repro.exists():
        print(f"perf_gate: {emc_repro} does not exist", file=sys.stderr)
        return 2
    names = registered(emc_repro)
    base, base_error = load_baseline(names)
    runs = measure(emc_repro)

    record = {
        "machine": describe_machine(),
        "build": describe_build(build_dir),
        "note": f"minimum of {RUNS} runs at each thread count",
        "figures": {},
    }
    failures = []
    print(f"{'figure':<29} {'events':>10} {'baseline':>10}"
          + "".join(f" | {t}T ms {'base':>7} {'x':>5}" for t in THREADS))
    for name in names:
        r = runs.get(name)
        if r is None:
            failures.append(f"{name}: not in the manifest")
            continue
        events = min(r["events"])
        walls = {str(t): min(r[t]) for t in THREADS}
        record["figures"][name] = {"events_executed": events,
                                   "wall_seconds": walls}
        if len(r["events"]) > 1:
            failures.append(f"{name}: events_executed varies between runs "
                            f"{sorted(r['events'])}")
        b = base[name] if base else None
        if b and events != b["events_executed"]:
            failures.append(f"{name}: events_executed {events} != "
                            f"baseline {b['events_executed']}")
        line = f"{name:<29} {events:>10} "
        line += f"{b['events_executed']:>10}" if b else f"{'-':>10}"
        for t in THREADS:
            wall = walls[str(t)]
            line += f" | {wall * 1e3:5.1f}"
            if not b:
                line += f" {'-':>7} {'-':>5}"
                continue
            bw = float(b["wall_seconds"][str(t)])
            ratio = wall / max(bw, WALL_FLOOR_S)
            line += f" {bw * 1e3:7.1f} {ratio:5.2f}"
            if ratio > WALL_RATIO:
                failures.append(
                    f"{name}: {wall * 1e3:.1f} ms at {t} thread(s) > "
                    f"{WALL_RATIO:g} x max({bw * 1e3:.1f}, "
                    f"{WALL_FLOOR_S * 1e3:g}) ms")
        print(line)
    print(f"x = min wall / max(baseline, {WALL_FLOOR_S * 1e3:g} ms); "
          f"a figure fails above {WALL_RATIO:g}")

    OUT.write_text(dumps(record))
    print(f"wrote {OUT.resolve()}")
    sys.stdout.flush()  # the table before the failures on a shared log
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    if base_error:
        print(f"perf_gate: nothing gated: {base_error}", file=sys.stderr)
        return 2
    if failures:
        return 1
    print(f"perf_gate: {len(names)} figures within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
