// emc_repro driver — one CLI over the figure registry.
//
//   emc_repro list
//   emc_repro --all [flags]
//   emc_repro run <figure>... [flags]        ("run" is optional sugar)
//
// Flags:
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
//   --smoke                  run bodies in smoke mode (shrunk MC trial
//                            counts); incompatible with --check, whose
//                            refs are full-mode recordings.
//   --seed N                 override every figure's default seed.
//   --refs DIR               reference directory (default: the source
//                            tree's bench/refs, baked at configure time).
//   --trials N               override the replicated figures' trial
//                            count (scale up/down without recompiling;
//                            rows stream to disk, so 10^6 trials run in
//                            one process in O(grid points) memory);
//                            incompatible with --check, refused for a
//                            figure that registers no trial model.
//
// Exit codes (shared contract, tools/cli_common.hpp): 0 = all ok; 1 = a
// run failed, a ref mismatched, or a cross-check diverged; 2 = the
// invocation cannot verify what it was asked to verify (unknown figure,
// missing ref file, unknown flag, vacuous combination).
#pragma once

#include <string>
#include <vector>

namespace emc::repro {

/// Full CLI, argv-style (argv[0] is skipped).
int driver_main(int argc, char** argv);

/// Full CLI on pre-split args (no argv[0]); what tests call.
int driver_run(const std::vector<std::string>& args);

/// Entry point for the thin per-figure standalone binaries CMake
/// generates: behaves like `emc_repro run <figure> <argv[1:]...>`.
int standalone_main(const char* figure, int argc, char** argv);

}  // namespace emc::repro
