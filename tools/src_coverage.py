#!/usr/bin/env python3
"""Per-file and per-function coverage of src/ from a gcc --coverage build.

Usage: python3 tools/src_coverage.py BUILD_DIR [--summary FILE]

Run the binaries of a build configured with --coverage first; this
script then asks gcov for every src/**/*.cpp how many of its own lines
ran, prints one row per file (also written to --summary), and lists the
functions defined in those files that gcov recorded with zero calls.
Lines inlined from headers count toward the header, not the .cpp.

Exit 1 when any file has no .gcda (never linked into a binary that
ran) or executed 0 lines, when a zero-call function is not on KEEP
below, or when a KEEP entry matches no zero-call function (the entry is
stale: the function now runs or is gone). A lambda is judged through
its enclosing function: its own zero count only says that a callback
the function registered (a wake or a retry) never fired.
"""
import argparse
import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
OBJ_DIR = pathlib.Path("CMakeFiles", "emc_core.dir")

# Functions that may have zero calls under the coverage run, each with
# the reason it stays. An entry matches every zero-call function whose
# demangled name contains it.
KEEP = {
    # References the tests compare the product against.
    "emc::device::DelayModel::drive_current_exact(":
        "test reference: exact EKV current the DelayTable is checked against",
    "emc::sensor::RingOscillatorSensor::expected_code(":
        "test reference: closed-form code of the ring-oscillator sensor",
    "emc::sensor::ReferenceFreeSensor::expected_code(":
        "test reference: closed-form code of the reference-free sensor",
    "emc::sensor::ChargeToDigitalConverter::expected_transitions(":
        "test reference: N = (Cs/Ceff) ln(V0/Vmin) the C2D run must match",
    "emc::async::HandshakeChecker::":
        "test reference: four-phase order checker the handshake tests use",
    "emc::analysis::percentile(":
        "test reference: sort-based quantile the one-sort aggregate "
        "quantiles and P2Quantile are checked against",
    # Error and safety paths of checked accessors.
    "emc::exp::(anonymous namespace)::type_name(":
        "error path: names the held type in a ParamSet type error",
    "emc::exp::(anonymous namespace)::throw_type(":
        "error path: ParamSet type-mismatch exception",
    "emc::netlist::to_string(emc::netlist::ElementKind)":
        "error path: element kind in lint's unknown-element message",
    # perfbench/src/replicas.cpp calls it; perfbench is not run here.
    "emc::repro::sha256_hex(":
        "perfbench API: in-memory digest of the traced artifacts",
    # The queue's cancel/clear path: RingOscillatorSensor's destructor
    # and the micro_kernel queue benches run it; no figure does.
    "emc::sim::(anonymous namespace)::id_gen(":
        "micro_kernel API: handle generation bits of a released slot",
    "emc::sim::EventQueue::release_slot(":
        "micro_kernel API: slot recycling on cancel and clear",
    "emc::sim::EventQueue::clear(":
        "micro_kernel API: drop every pending event",
    "emc::sim::EventQueue::heap_compact(":
        "micro_kernel API: purge of cancelled entries",
    # Per-module energy roll-up the manifest is to carry (ROADMAP).
    "emc::gates::EnergyMeter::prefix_of(":
        "roll-up helper of energy_by_prefix",
    "emc::gates::EnergyMeter::energy_by_prefix":
        "per-module energy breakdown planned for the manifest",
    # Compiler-emitted: the deleting destructor of a polymorphic base no
    # one deletes through a base pointer.
    "emc::gates::Gate::~Gate(":
        "compiler-emitted deleting destructor",
}


def own_lines(gcda: pathlib.Path, source: pathlib.Path):
    """(executed, total) lines of `source` in `gcda`'s gcov report."""
    out = subprocess.run(["gcov", "-n", str(gcda)], cwd=gcda.parent,
                         capture_output=True, text=True, check=True).stdout
    blocks = re.findall(r"File '([^']*)'\nLines executed:([\d.]+)% of (\d+)",
                        out)
    for path, pct, total in blocks:
        if (gcda.parent / path).resolve() == source:
            total = int(total)
            return round(float(pct) * total / 100.0), total
    return 0, 0  # no executable line of its own


def uncalled_functions(gcda: pathlib.Path, source: pathlib.Path):
    """(line, demangled name) of each function of `source` never called,
    lambdas left out (see the module docstring)."""
    out = subprocess.run(["gcov", "--json-format", "--stdout", str(gcda)],
                         cwd=gcda.parent, capture_output=True, text=True,
                         check=True).stdout
    found = []
    for doc in out.splitlines():
        if not doc.strip():
            continue
        for entry in json.loads(doc).get("files", []):
            if (gcda.parent / entry["file"]).resolve() != source:
                continue
            for fn in entry.get("functions", []):
                name = fn["demangled_name"]
                if fn["execution_count"] == 0 and "{lambda(" not in name:
                    found.append((fn["start_line"], name))
    return sorted(set(found))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", type=pathlib.Path)
    ap.add_argument("--summary", type=pathlib.Path)
    args = ap.parse_args()

    rows, failures, kept, unkept = [], [], [], []
    matched = set()
    for source in sorted((REPO / "src").rglob("*.cpp")):
        rel = source.relative_to(REPO)
        gcda = args.build_dir / OBJ_DIR / rel.with_name(rel.name + ".gcda")
        if not gcda.exists():
            rows.append(f"{rel}  not run (no .gcda)")
            failures.append(rel)
            continue
        executed, total = own_lines(gcda.resolve(), source)
        for line, name in uncalled_functions(gcda.resolve(), source):
            keys = [k for k in KEEP if k in name]
            matched.update(keys)
            where = f"{rel}:{line}  {name}"
            if keys:
                kept.append(f"{where}\n      kept: {KEEP[keys[0]]}")
            else:
                unkept.append(where)
        pct = 100.0 * executed / total if total else 0.0
        rows.append(f"{rel}  {executed}/{total} lines ({pct:.1f}%)")
        if executed == 0:
            failures.append(rel)
    stale = [k for k in KEEP if k not in matched]

    report = "\n".join(rows) + "\n"
    if failures:
        report += f"\n{len(failures)} src/ file(s) never executed:\n"
        report += "".join(f"  {f}\n" for f in failures)
    report += f"\n{len(kept)} zero-call src/ function(s) on the keep list:\n"
    report += "".join(f"  {f}\n" for f in kept)
    if unkept:
        report += (f"\n{len(unkept)} zero-call src/ function(s) not on the "
                   "keep list (delete them, give them a figure, or keep "
                   "them with a reason):\n")
        report += "".join(f"  {f}\n" for f in unkept)
    if stale:
        report += (f"\n{len(stale)} keep-list entries matching no "
                   "zero-call function (remove them):\n")
        report += "".join(f"  {k}\n" for k in stale)
    sys.stdout.write(report)
    if args.summary:
        args.summary.write_text(report)
    return 1 if failures or unkept or stale else 0


if __name__ == "__main__":
    sys.exit(main())
