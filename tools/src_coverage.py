#!/usr/bin/env python3
"""Per-file line coverage of src/ from a gcc --coverage build.

Usage: python3 tools/src_coverage.py BUILD_DIR [--summary FILE]

Run the binaries of a build configured with --coverage first; this
script then asks gcov for every src/**/*.cpp how many of its own lines
ran, prints one row per file (also written to --summary), and exits 1
when any file has no .gcda (never linked into a binary that ran) or
executed 0 lines. Lines inlined from headers count toward the header,
not the .cpp. The report ends with the functions defined in those
files that gcov recorded with zero calls; that list is informational
and never changes the exit code.
"""
import argparse
import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
OBJ_DIR = pathlib.Path("CMakeFiles", "emc_core.dir")


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
    """(line, demangled name) of each function of `source` never called."""
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
                if fn["execution_count"] == 0:
                    found.append((fn["start_line"], fn["demangled_name"]))
    return sorted(set(found))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", type=pathlib.Path)
    ap.add_argument("--summary", type=pathlib.Path)
    args = ap.parse_args()

    rows, failures, uncalled = [], [], []
    for source in sorted((REPO / "src").rglob("*.cpp")):
        rel = source.relative_to(REPO)
        gcda = args.build_dir / OBJ_DIR / rel.with_name(rel.name + ".gcda")
        if not gcda.exists():
            rows.append(f"{rel}  not run (no .gcda)")
            failures.append(rel)
            continue
        executed, total = own_lines(gcda.resolve(), source)
        uncalled += [f"{rel}:{line}  {name}"
                     for line, name in uncalled_functions(gcda.resolve(),
                                                          source)]
        pct = 100.0 * executed / total if total else 0.0
        rows.append(f"{rel}  {executed}/{total} lines ({pct:.1f}%)")
        if executed == 0:
            failures.append(rel)

    report = "\n".join(rows) + "\n"
    if failures:
        report += f"\n{len(failures)} src/ file(s) never executed:\n"
        report += "".join(f"  {f}\n" for f in failures)
    report += (f"\n{len(uncalled)} src/ function(s) with zero calls "
               "(informational):\n")
    report += "".join(f"  {f}\n" for f in uncalled)
    sys.stdout.write(report)
    if args.summary:
        args.summary.write_text(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
