#!/usr/bin/env python3
"""Per-file and per-function coverage of src/ from a gcc --coverage build.

Usage: python3 tools/src_coverage.py BUILD_DIR [--summary FILE]

Run the binaries of a build configured with
--coverage -fkeep-inline-functions first; this script then asks gcov for
every src/**/*.cpp how many of its own lines ran, prints one row per
file (also written to --summary), and lists the functions defined in
src/ that gcov recorded with zero calls. Lines inlined from headers
count toward the header, not the .cpp.

Functions defined in src/**/*.hpp are judged too. Each translation unit
counts calls to its own copy of an inline function, so a header
function's count is the sum over every .gcda in the build (the library,
the figures and the examples). An inline function that no translation
unit calls is never emitted, and gcov has nothing to count, unless the
build passes -fkeep-inline-functions: without that flag an uncalled
header function is invisible here. A template that only the tests
instantiate is invisible even with it, since no binary the coverage run
builds emits it.

Exit 1 when any .cpp has no .gcda (never linked into a binary that
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
SUFFIXES = (".cpp", ".hpp")

# Functions that may have zero calls under the coverage run, each with
# the reason it stays. An entry matches every zero-call function whose
# demangled name contains it; the first matching entry gives the reason.
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
    # perfbench/ compiles bench/*.cpp and its replicas against src/ but
    # is not run here; these are what its replicas read.
    "emc::repro::sha256_hex(":
        "perfbench API: in-memory digest of the traced artifacts",
    "emc::analysis::Aggregate::Sink::rows(":
        "perfbench API: analysis.rows",
    "emc::exp::ContextConfig::trial(":
        "perfbench API: a replica's trial seed from its ParamSet",
    "emc::exp::ParamSet::has(":
        "perfbench API: ContextConfig::trial's lookup",
    "emc::fault::FaultableSupply::faults_seen(":
        "perfbench API: fault.faults_seen",
    "emc::supply::Supply::rejected_draws(":
        "perfbench API: supply.rejected_draws",
    "emc::gates::DriveArena::stall_entries(":
        "perfbench API: gates.stall_entries",
    "emc::gates::EnergyMeter::total_transitions(":
        "perfbench API: gates.transitions",
    "emc::async::HandshakeSink::stalled(":
        "perfbench API: the survivability replica's deadlock probe "
        "(fig_survivability's probe reads it only mid-stall)",
    # Accessors a test reads to check code a figure runs.
    "emc::analysis::WelfordAccumulator::": "test accessor",
    "emc::analysis::YieldCounter::": "test accessor",
    "emc::analysis::StatsAccumulator::": "test accessor",
    "emc::analysis::Accumulator::": "test accessor",
    "emc::analysis::Aggregate::Sink::": "test accessor",
    "emc::analysis::CsvStream::": "test accessor",
    "emc::analysis::SweepReport::": "test accessor",
    "emc::analysis::Table::": "test accessor",
    "emc::async::DualRailChecker::": "test accessor",
    "emc::async::DualRailCounter::":
        "test accessor (stop() parks the ring before state() is compared)",
    "emc::async::ToggleRippleCounter::": "test accessor",
    "emc::async::HandshakeSource::": "test accessor",
    "emc::device::DelayModel::table(": "test accessor",
    "emc::exp::ParamSet::size(": "test accessor",
    "emc::fault::FaultPlan::": "test accessor",
    "emc::fault::FaultableSupply::": "test accessor",
    "emc::gates::CompletionDetector::": "test accessor",
    "emc::gates::DriveArena::recoveries(": "test accessor",
    "emc::gates::EnergyMeter::gate_": "test accessor",
    "emc::gates::Gate::stalled(": "test accessor",
    "emc::power::AdaptiveController::": "test accessor",
    "emc::sched::EnergyTokenPool::": "test accessor",
    "emc::sched::EnergyPetriNet::": "test accessor",
    "emc::sensor::ChargeToDigitalConverter::cap(": "test accessor",
    "emc::sensor::RingOscillatorSensor::measuring(": "test accessor",
    "emc::sim::Action::operator bool": "test accessor",
    "emc::sim::RunVerdict::": "test accessor",
    "emc::sim::VcdWriter::": "test accessor",
    "emc::sram::SramArray::": "test accessor",
    "emc::sram::SramEnergyModel::": "test accessor",
    "emc::sram::SiSram::": "test accessor",
    "emc::sta::Session::": "test accessor",
    "emc::supply::AcSupply::": "test accessor",
    "emc::supply::Harvester::": "test accessor",
    "emc::supply::MpptController::": "test accessor",
    "emc::supply::StorageCap::": "test accessor",
    # Error and safety paths of checked accessors.
    "emc::exp::(anonymous namespace)::type_name(":
        "error path: names the held type in a ParamSet type error",
    "emc::exp::(anonymous namespace)::throw_type(":
        "error path: ParamSet type-mismatch exception",
    "emc::netlist::to_string(emc::netlist::ElementKind)":
        "error path: element kind in lint's unknown-element message",
    "emc::exp::ParamError::ParamError(": "error path: exception constructor",
    "emc::exp::ConfigError::ConfigError(": "error path: exception constructor",
    "emc::exp::SchemaError::SchemaError(": "error path: exception constructor",
    # Overloads that exist for overload resolution: without them an int
    # or unsigned literal is ambiguous, or {1, 2} turns into a double axis.
    "emc::exp::ParamSet::set(": "overload guard: int and unsigned literals",
    "emc::exp::Row::set(": "overload guard: unsigned values",
    "emc::exp::Grid::over(":
        "overload guard: a braced integer list stays an integer axis",
    # Supply contract: the ramp's stall re-poll period. No figure's ramp
    # dips below the operating floor, so no gate waits on it.
    "emc::supply::PiecewiseSupply::retry_hint(":
        "supply contract: stall re-poll period of a piecewise rail",
    # ROADMAP hooks.
    "emc::gates::DriveArena::set_device(":
        "ROADMAP item 9 hook: the delay adversary's per-slot device point",
    "emc::gates::EnergyMeter::prefix_of(":
        "ROADMAP hook: roll-up helper of energy_by_prefix",
    "emc::gates::EnergyMeter::energy_by_prefix":
        "ROADMAP hook: per-module energy breakdown planned for the manifest",
    # Compiler-emitted or compile-time code that gcov counts as uncalled.
    "emc::exp::BuiltSupply::BuiltSupply()":
        "compiler-emitted: defaulted constructor SupplyConfig::build runs",
    "emc::sim::Action::fits_inline<":
        "compile-time: evaluated in constant expressions only",
    "emc::sim::Action::OpsFor<std::function<void ()>, true>::invoke(":
        "template instance: operator()'s table entry; std::function "
        "actions only fire once, through consume()",
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


def gcov_functions(gcda: pathlib.Path):
    """(resolved source, line, demangled name, calls) of each function
    in `gcda`'s gcov report, lambdas left out (see the module docstring)."""
    out = subprocess.run(["gcov", "--json-format", "--stdout", str(gcda)],
                         cwd=gcda.parent, capture_output=True, text=True,
                         check=True).stdout
    for doc in out.splitlines():
        if not doc.strip():
            continue
        for entry in json.loads(doc).get("files", []):
            source = (gcda.parent / entry["file"]).resolve()
            for fn in entry.get("functions", []):
                name = fn["demangled_name"]
                if "{lambda(" not in name:
                    yield (source, fn["start_line"], name,
                           fn["execution_count"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", type=pathlib.Path)
    ap.add_argument("--summary", type=pathlib.Path)
    args = ap.parse_args()

    rows, failures = [], []
    for source in sorted((REPO / "src").rglob("*.cpp")):
        rel = source.relative_to(REPO)
        gcda = args.build_dir / OBJ_DIR / rel.with_name(rel.name + ".gcda")
        if not gcda.exists():
            rows.append(f"{rel}  not run (no .gcda)")
            failures.append(rel)
            continue
        executed, total = own_lines(gcda.resolve(), source)
        pct = 100.0 * executed / total if total else 0.0
        rows.append(f"{rel}  {executed}/{total} lines ({pct:.1f}%)")
        if executed == 0:
            failures.append(rel)

    # Calls of every src/ function, summed over every translation unit.
    sources = {f.resolve(): f.relative_to(REPO)
               for f in (REPO / "src").rglob("*") if f.suffix in SUFFIXES}
    calls = {}
    for gcda in sorted(args.build_dir.rglob("*.gcda")):
        for src, line, name, n in gcov_functions(gcda.resolve()):
            if src in sources:
                key = (sources[src], line, name)
                calls[key] = calls.get(key, 0) + n
    uncalled = sorted(k for k, n in calls.items() if n == 0)

    kept, unkept = [], []
    matched = set()
    for rel, line, name in uncalled:
        keys = [k for k in KEEP if k in name]
        matched.update(keys)
        where = f"{rel}:{line}  {name}"
        if keys:
            kept.append(f"{where}\n      kept: {KEEP[keys[0]]}")
        else:
            unkept.append(where)
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
