// emc_repro driver — one CLI over the figure registry.
//
//   emc_repro list                       figures, artifacts, lint models
//   emc_repro --all [flags]
//   emc_repro run <figure>... [flags]    ("run" is optional sugar)
//   emc_repro lint <figure>...|--all [--json] [--only RULE,...]
//   emc_repro sta <figure>...|--all [--json] [--only RULE,...] [--csv FILE]
//   emc_repro lint|sta --rules           the analyzer's rule catalog
//
// The verb, when given, is the first argument.
//
// Run flags:
//   --check                  byte-compare declared ref artifacts against
//                            <refs-dir>/<file>; prints a unified-diff
//                            summary on mismatch. A figure declaring a
//                            ref that does not exist on disk FAILS with
//                            exit 2 (vacuous pass is refused, mirroring
//                            the perf gate's rule).
//   --threads-cross-check A,B[,C...]
//                            run each figure once per sweep-thread count
//                            and require byte-identical artifacts —
//                            the registry-driven replacement for the
//                            hand-rolled 1-vs-N determinism CI steps.
//   --manifest OUT.json      machine-readable record of the run: per
//                            figure status, wall time, kernel stats, and
//                            every artifact with size + sha256 (hashed
//                            from disk in a streaming pass, so memory
//                            does not grow with the artifact).
//   --jobs N                 run independent figures concurrently on the
//                            existing SweepRunner pool (artifacts have
//                            disjoint names; bodies print interleaved).
//   --seed N                 override every figure's default seed;
//                            refused for a figure that registers none.
//   --refs DIR               reference directory (default: the source
//                            tree's bench/refs, baked at configure time).
//   --trials N               override the replicated figures' trial
//                            count (scale up/down without recompiling;
//                            rows stream to disk, so 10^6 trials run in
//                            one process in O(grid points) memory);
//                            incompatible with --check, refused for a
//                            figure that registers no trial model.
//   --lint / --sta           gate each figure on its lint / timing
//                            verdict before it runs; the same evaluation
//                            as the lint and sta verbs.
//
// Numbers (--seed, --jobs, --trials, --threads-cross-check) are whole
// unsigned decimals: a sign, whitespace or an out-of-range value exits 2.
//
// lint runs each figure's lint hook through the netlist rules (see
// src/lint/lint.hpp); sta runs the same hook through the static timing
// pipeline (src/sta/sta.hpp) and can append every margin-vs-Vdd curve to
// a CSV. Neither simulates anything. --only keeps the listed rules.
//
// Exit codes, the same for every verb: 0 = everything selected was
// checked and clean; 1 = a run failed, a ref mismatched, a cross-check
// diverged, or an analyzer found something (a throwing hook counts);
// 2 = the invocation cannot verify what it was asked to verify (unknown
// figure or flag, missing ref file, no lint model, a timing model with
// no arcs, a vacuous combination). 1 outranks 2; in the same way a
// figure's manifest status names its first failing check, else its first
// vacuous one, else "ok", and the run summary marks it [!!], [??] or [ok].
#pragma once

#include <string>
#include <vector>

namespace emc::repro {

/// Full CLI, argv-style (argv[0] is skipped).
int driver_main(int argc, char** argv);

/// Full CLI on pre-split args (no argv[0]); what tests call. Never exits
/// the process: --help returns 0.
int driver_run(const std::vector<std::string>& args);

}  // namespace emc::repro
