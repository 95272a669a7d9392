// Tests for the reproduction registry + emc_repro driver.
//
// The test binary registers its own synthetic figures (the real benches
// are linked into emc_repro, not into the tests), so the registry seen
// here is fully controlled: tiny deterministic bodies that write CSV
// artifacts into a per-test temporary working directory. What is pinned:
//   * sha256 against FIPS 180-4 known-answer vectors;
//   * duplicate figure names and a registered seed of 0 abort (build
//     errors, not preferences);
//   * --check fails with exit 2 — never passes vacuously — when a
//     declared ref CSV does not exist on disk, and does not run a
//     figure none of whose refs exists;
//   * each manifest status a check can write, and that a failing check
//     outranks a vacuous one in the status as it does in the exit code;
//   * the --manifest JSON is well-formed, its artifact sha256s are
//     stable across two runs, and each digest and size is that of the
//     file on disk;
//   * --jobs 4 produces byte-identical artifacts to --jobs 1;
//   * --threads-cross-check flags a figure whose output depends on the
//     sweep thread count (exit 1) and passes a clean one (exit 0);
//   * --trials scales a replicated figure's trial axis and is refused
//     (exit 2) for a figure without a trial model and for 0 trials;
//   * --seed is refused (exit 2) for a figure that registers no seed;
//   * the replicated figures' shared streaming tail fails the run when a
//     CSV cannot be written;
//   * the retired scale-out flags and subcommands, and --smoke, are
//     unknown (exit 2);
//   * the lint and sta verbs and the run --lint/--sta gates give a clean,
//     a dirty, a throwing and a missing model the exit codes 0, 1, 1, 2;
//     --only filters rules and sta --csv writes the margin curves;
//   * --help returns instead of ending the process.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/aggregate.hpp"
#include "async/bundled.hpp"
#include "exp/workbench.hpp"
#include "gates/combinational.hpp"
#include "lint/session.hpp"
#include "netlist/module.hpp"
#include "repro/driver.hpp"
#include "repro/registry.hpp"
#include "repro/replicated.hpp"
#include "repro/sha256.hpp"

#include "json_checker.hpp"

namespace fs = std::filesystem;
using emc::repro::RunContext;
using emc::test::JsonChecker;

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- synthetic figures -------------------------------------------------

int run_selftest_a(const RunContext& ctx) {
  std::ostringstream csv;
  csv << "x,y\n";
  for (int i = 0; i < 8; ++i) {
    csv << i << "," << (i * 3 + static_cast<int>(ctx.seed)) << "\n";
  }
  emc::sim::Kernel kernel;
  kernel.schedule(0, [] {});
  kernel.run_until(emc::sim::kTimeMax);
  ctx.add_stats(kernel.stats());
  return write_file("zz_selftest_a.csv", csv.str()) ? 0 : 1;
}

// Counts its runs, so a test can tell a refusal before the run from one
// after it.
std::atomic<int> missing_ref_runs{0};

int run_missing_ref(const RunContext&) {
  ++missing_ref_runs;
  return write_file("zz_missing_ref.csv", "a,b\n1,2\n") ? 0 : 1;
}

// Deliberately throwing: graceful degradation must catch it, mark the
// figure run_failed and keep the rest of the batch running.
int run_throwing(const RunContext&) {
  throw std::runtime_error("synthetic figure body failure");
}

// Deliberately thread-dependent: the cross-check must catch this.
int run_thread_dep(const RunContext& ctx) {
  std::ostringstream csv;
  csv << "threads\n" << ctx.threads << "\n";
  return write_file("zz_thread_dep.csv", csv.str()) ? 0 : 1;
}

template <int N>
int run_jobs_fig(const RunContext&) {
  std::ostringstream csv;
  csv << "i,value\n";
  double acc = 0.0;
  for (int i = 0; i < 64; ++i) {
    acc += static_cast<double>((i * 7 + N * 13) % 29) / 29.0;
    csv << i << "," << acc << "\n";
  }
  return write_file("zz_jobs_" + std::to_string(N) + ".csv", csv.str()) ? 0
                                                                        : 1;
}

REPRO_FIGURE(zz_repro_selftest_a)
    .title("synthetic: deterministic CSV keyed on the seed")
    .ref_csv("zz_selftest_a.csv")
    .seed(7)
    .run(run_selftest_a);

REPRO_FIGURE(zz_repro_missing_ref)
    .title("synthetic: declares a ref nobody recorded")
    .ref_csv("zz_missing_ref.csv")
    .run(run_missing_ref);

REPRO_FIGURE(zz_repro_thread_dep)
    .title("synthetic: output depends on the sweep thread count")
    .ref_csv("zz_thread_dep.csv")
    .run(run_thread_dep);

REPRO_FIGURE(zz_repro_throws)
    .title("synthetic: body throws — must not kill the batch")
    .ref_csv("zz_throws.csv")
    .run(run_throwing);

// Two refs: a --check test records one with other bytes and leaves the
// other absent.
int run_two_refs(const RunContext&) {
  return write_file("zz_two_refs_a.csv", "a\n1\n") &&
                 write_file("zz_two_refs_b.csv", "b\n2\n")
             ? 0
             : 1;
}

REPRO_FIGURE(zz_repro_two_refs)
    .title("synthetic: declares two refs")
    .ref_csv("zz_two_refs_a.csv")
    .ref_csv("zz_two_refs_b.csv")
    .run(run_two_refs);

// Declares an artifact its body never writes.
int run_writes_nothing(const RunContext&) { return 0; }

REPRO_FIGURE(zz_repro_no_artifact)
    .title("synthetic: declared artifact never produced")
    .artifact("zz_never.csv")
    .run(run_writes_nothing);

REPRO_FIGURE(zz_repro_jobs_0).title("synthetic").ref_csv("zz_jobs_0.csv").run(
    run_jobs_fig<0>);
REPRO_FIGURE(zz_repro_jobs_1).title("synthetic").ref_csv("zz_jobs_1.csv").run(
    run_jobs_fig<1>);
REPRO_FIGURE(zz_repro_jobs_2).title("synthetic").ref_csv("zz_jobs_2.csv").run(
    run_jobs_fig<2>);
REPRO_FIGURE(zz_repro_jobs_3).title("synthetic").ref_csv("zz_jobs_3.csv").run(
    run_jobs_fig<3>);

// A replicated figure with the real ones' shape: a small grid, a trial
// axis, a body pure in (x, trial_seed), and the shared streaming tail
// writing the registered trial model's two CSVs.
emc::analysis::Aggregate zz_trials_aggregate() {
  return emc::analysis::Aggregate({"x"}).stats("v").yield("ok");
}

int run_zz_trials(const RunContext& ctx) {
  emc::exp::Workbench wb("zz_trials_trials");
  wb.threads(ctx.threads);
  wb.grid().over("x", {1, 2, 3});
  wb.replicate(ctx.trials_or(8), ctx.seed);
  wb.columns({"x", "trial", "v", "ok"});
  return emc::repro::run_replicated(
      ctx, "zz_repro_trials", wb,
      [](const emc::exp::ParamSet& p, emc::exp::Recorder& rec) {
        const int x = p.get<int>("x");
        const std::uint64_t s = p.get<std::uint64_t>("trial_seed");
        const double v = x + static_cast<double>(s % 1000) * 1e-3;
        rec.row()
            .set("x", x)
            .set("trial", p.get<int>("trial"))
            .set("v", v, 6)
            .set("ok", v > 1.5 ? 1 : 0);
      });
}

REPRO_FIGURE(zz_repro_trials)
    .title("synthetic: replicated figure with a trial model")
    .artifact("zz_trials_trials.csv")
    .artifact("zz_trials.csv")
    .shard_model("zz_trials_trials.csv", "zz_trials.csv", zz_trials_aggregate)
    .seed(77)
    .run(run_zz_trials);

// Four figures with the four kinds of static model: a clean hook, a
// dirty one, one that throws and none at all. The lint and sta verbs
// and the run gates must read each the same way.
void lint_clean(emc::lint::Session& s) {
  emc::async::BundledCounter bc(s.ctx(), "bc", emc::async::BundledParams{});
  bc.circuit().declare_operating_range(0.8, 1.0);
  s.check(bc.circuit());
}

// Dirty under both analyzers: a floating input (lint W001) and a delay
// line half as long as its datapath (sta T001).
void lint_dirty(emc::lint::Session& s) {
  emc::netlist::Circuit c(s.ctx(), "floating");
  emc::sim::Wire& in = c.wire("in");
  emc::sim::Wire& out = c.wire("out");
  c.comb("buf", emc::gates::Op::kBuf, {&in}, out);
  s.check(c);
  emc::async::BundledParams short_line;
  short_line.margin = 0.5;
  emc::async::BundledCounter bc(s.ctx(), "bc", short_line);
  bc.circuit().declare_operating_range(0.8, 1.0);
  s.check(bc.circuit());
}

void lint_throwing(emc::lint::Session&) {
  throw std::runtime_error("synthetic lint hook failure");
}

int run_lint_fig(const RunContext&) {
  return write_file("zz_lint.csv", "a\n1\n") ? 0 : 1;
}

REPRO_FIGURE(zz_lint_clean).artifact("zz_lint.csv").lint(lint_clean).run(
    run_lint_fig);
REPRO_FIGURE(zz_lint_dirty).artifact("zz_lint.csv").lint(lint_dirty).run(
    run_lint_fig);
REPRO_FIGURE(zz_lint_none).artifact("zz_lint.csv").run(run_lint_fig);
REPRO_FIGURE(zz_lint_throws)
    .artifact("zz_lint.csv")
    .lint(lint_throwing)
    .run(run_lint_fig);

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) n += c == '\n';
  return n;
}

std::vector<std::string> extract_sha256s(const std::string& json) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  const std::string key = "\"sha256\": \"";
  while ((pos = json.find(key, pos)) != std::string::npos) {
    pos += key.size();
    out.push_back(json.substr(pos, 64));
  }
  return out;
}

// The status m.json records for `figure`, or "" when it has no entry.
std::string manifest_status(const std::string& figure) {
  const std::regex entry("\"name\": \"" + figure +
                         "\",\\s*\"title\": \"[^\"]*\",\\s*"
                         "\"status\": \"([a-z_]+)\"");
  const std::string m = read_file("m.json");
  std::smatch match;
  return std::regex_search(m, match, entry) ? match[1].str() : "";
}

// Each test runs in its own temporary working directory (figure bodies
// write artifacts relative to the cwd) with a refs/ subdir for --check.
class ReproDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    old_cwd_ = fs::current_path();
    work_ = fs::temp_directory_path() /
            ("emc_repro_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(work_);
    fs::create_directories(work_ / "refs");
    fs::current_path(work_);
  }
  void TearDown() override {
    fs::current_path(old_cwd_);
    fs::remove_all(work_);
  }

  std::string refs() const { return (work_ / "refs").string(); }

  fs::path old_cwd_;
  fs::path work_;
};

}  // namespace

// --- sha256 ------------------------------------------------------------

TEST(Sha256Test, KnownAnswerVectors) {
  EXPECT_EQ(
      emc::repro::sha256_hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      emc::repro::sha256_hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Two-block message (FIPS 180-4 appendix B.2).
  EXPECT_EQ(
      emc::repro::sha256_hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One million 'a' — exercises the streaming/update path.
  EXPECT_EQ(
      emc::repro::sha256_hex(std::string(1000000, 'a')),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ChunkedUpdatesMatchOneShot) {
  const std::string msg(300, 'x');
  emc::repro::Sha256 h;
  h.update(msg.data(), 1);
  h.update(msg.data() + 1, 63);
  h.update(msg.data() + 64, 200);
  h.update(msg.data() + 264, 36);
  EXPECT_EQ(h.hex_digest(), emc::repro::sha256_hex(msg));
  // Finalization is idempotent, not silently wrong.
  EXPECT_EQ(h.hex_digest(), emc::repro::sha256_hex(msg));
}

// --- registry ----------------------------------------------------------

TEST(ReproRegistryDeathTest, DuplicateNameAborts) {
  EXPECT_DEATH(
      {
        emc::repro::FigureBuilder("zz_dup_figure").run(run_missing_ref);
        emc::repro::FigureBuilder("zz_dup_figure").run(run_missing_ref);
      },
      "duplicate figure registration");
}

TEST(ReproRegistryDeathTest, SeedZeroAborts) {
  EXPECT_DEATH(emc::repro::FigureBuilder("zz_seed_zero").seed(0),
               "registers seed 0");
}

TEST(ReproRegistryTest, SyntheticFiguresRegisteredAndSorted) {
  const auto figs = emc::repro::Registry::instance().figures();
  ASSERT_GE(figs.size(), 7u);
  for (std::size_t i = 1; i < figs.size(); ++i) {
    EXPECT_LT(figs[i - 1]->name, figs[i]->name);
  }
  const auto* a = emc::repro::Registry::instance().find("zz_repro_selftest_a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->default_seed, 7u);
  ASSERT_EQ(a->refs.size(), 1u);
  EXPECT_EQ(a->refs[0], "zz_selftest_a.csv");
}

// --- driver ------------------------------------------------------------

TEST_F(ReproDriverTest, CheckFailsWithExit2WhenDeclaredRefMissing) {
  // Record a ref for selftest_a only; zz_repro_missing_ref declares one
  // that does not exist — the gate must refuse to pass vacuously.
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a"}), 0);
  fs::copy_file("zz_selftest_a.csv", fs::path(refs()) / "zz_selftest_a.csv");

  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a", "--check",
                                    "--refs", refs()}),
            0);
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a",
                                    "zz_repro_missing_ref", "--check",
                                    "--refs", refs(), "--manifest", "m.json"}),
            2);
  const std::string summary = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(manifest_status("zz_repro_selftest_a"), "ok");
  EXPECT_EQ(manifest_status("zz_repro_missing_ref"), "missing_ref");
  // The summary marks a vacuous figure ?? and a clean one ok.
  EXPECT_NE(summary.find("[??] zz_repro_missing_ref"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("[ok] zz_repro_selftest_a"), std::string::npos)
      << summary;
}

TEST_F(ReproDriverTest, CheckRefusesAMissingRefBeforeRunningTheFigure) {
  // With its only ref absent the check can compare nothing, so the
  // figure is refused without spending its run time.
  const int runs_before = missing_ref_runs;
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_missing_ref", "--check",
                                    "--refs", refs(), "--manifest", "m.json"}),
            2);
  EXPECT_EQ(missing_ref_runs - runs_before, 0);
  EXPECT_EQ(manifest_status("zz_repro_missing_ref"), "missing_ref");
  EXPECT_FALSE(fs::exists("zz_missing_ref.csv"));
}

TEST_F(ReproDriverTest, CheckFailsWithExit1OnRefMismatch) {
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a"}), 0);
  fs::copy_file("zz_selftest_a.csv", fs::path(refs()) / "zz_selftest_a.csv");
  // A different seed changes the artifact, so the recorded ref mismatches.
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a", "--check",
                                    "--seed", "8", "--refs", refs(),
                                    "--manifest", "m.json"}),
            1);
  EXPECT_EQ(manifest_status("zz_repro_selftest_a"), "ref_mismatch");
}

TEST_F(ReproDriverTest, UnknownFigureIsExit2) {
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_no_such_figure"}), 2);
}

TEST_F(ReproDriverTest, MalformedSeedIsRejected) {
  for (const char* bad :
       {"5x", "x", "-1", " 7", "+3", "18446744073709551616"}) {
    EXPECT_EQ(emc::repro::driver_run(
                  {"run", "zz_repro_selftest_a", "--seed", bad}),
              2)
        << "--seed \"" << bad << "\"";
  }
  EXPECT_FALSE(fs::exists("zz_selftest_a.csv"));
}

TEST_F(ReproDriverTest, MalformedJobsIsRejected) {
  for (const char* bad :
       {"4x", "x", "", "0", "-2", "-1", " 7", "+3", "4294967296"}) {
    EXPECT_EQ(emc::repro::driver_run(
                  {"run", "zz_repro_selftest_a", "--jobs", bad}),
              2)
        << "--jobs \"" << bad << "\"";
  }
}

TEST_F(ReproDriverTest, MalformedThreadsCrossCheckIsRejected) {
  for (const char* bad : {"1,4x", "1x,4", "1,,4", "1,0", "4"}) {
    EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a",
                                      "--threads-cross-check", bad}),
              2)
        << "--threads-cross-check \"" << bad << "\"";
  }
}

TEST_F(ReproDriverTest, RealDriftOutranksMissingRefInExitCode) {
  // selftest_a drifts (its recorded ref differs) AND missing_ref lacks
  // its ref: the actionable failure (1) must win over the bookkeeping
  // signal (2).
  ASSERT_TRUE(write_file((fs::path(refs()) / "zz_selftest_a.csv").string(),
                         "x,y\n0,0\n"));
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a",
                                    "zz_repro_missing_ref", "--check",
                                    "--refs", refs()}),
            1);
}

// The status agrees with the exit code: a failing check outranks a
// vacuous one inside one figure too, so the manifest never files a real
// drift or divergence under missing-ref bookkeeping.
TEST_F(ReproDriverTest, FailingCheckOutranksMissingRefInStatus) {
  ASSERT_TRUE(write_file((fs::path(refs()) / "zz_two_refs_b.csv").string(),
                         "b\n3\n"));
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_two_refs", "--check",
                                    "--refs", refs(), "--manifest", "m.json"}),
            1);
  EXPECT_EQ(manifest_status("zz_repro_two_refs"), "ref_mismatch");

  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_thread_dep", "--check",
                                    "--refs", refs(), "--threads-cross-check",
                                    "1,4", "--manifest", "m.json"}),
            1);
  EXPECT_EQ(manifest_status("zz_repro_thread_dep"), "threads_mismatch");
}

TEST_F(ReproDriverTest, ManifestIsWellFormedJsonWithStableSha256) {
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a",
                                    "zz_repro_jobs_0", "zz_repro_jobs_1",
                                    "--manifest", "m1.json"}),
            0);
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a",
                                    "zz_repro_jobs_0", "zz_repro_jobs_1",
                                    "--manifest", "m2.json"}),
            0);
  const std::string m1 = read_file("m1.json");
  const std::string m2 = read_file("m2.json");
  ASSERT_FALSE(m1.empty());
  EXPECT_TRUE(JsonChecker(m1).valid()) << m1;
  EXPECT_TRUE(JsonChecker(m2).valid());

  // Run-to-run determinism: same figures, same digests (wall times may
  // differ, so compare the digest set, not the whole file).
  const auto sha1 = extract_sha256s(m1);
  const auto sha2 = extract_sha256s(m2);
  ASSERT_EQ(sha1.size(), 3u);
  EXPECT_EQ(sha1, sha2);

  // Kernel stats flowed from the body into the manifest.
  EXPECT_NE(m1.find("\"events_executed\": 1"), std::string::npos);
}

TEST_F(ReproDriverTest, Jobs4ProducesByteIdenticalArtifactsToJobs1) {
  const std::vector<std::string> figures = {
      "zz_repro_jobs_0", "zz_repro_jobs_1", "zz_repro_jobs_2",
      "zz_repro_jobs_3", "zz_repro_selftest_a"};
  std::vector<std::string> args1 = {"run"};
  args1.insert(args1.end(), figures.begin(), figures.end());
  args1.push_back("--jobs");

  auto with_jobs = [&](const char* n) {
    auto a = args1;
    a.push_back(n);
    return a;
  };
  ASSERT_EQ(emc::repro::driver_run(with_jobs("1")), 0);
  std::vector<std::string> serial;
  const std::vector<std::string> files = {"zz_jobs_0.csv", "zz_jobs_1.csv",
                                          "zz_jobs_2.csv", "zz_jobs_3.csv",
                                          "zz_selftest_a.csv"};
  for (const auto& f : files) serial.push_back(read_file(f));

  ASSERT_EQ(emc::repro::driver_run(with_jobs("4")), 0);
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(read_file(files[i]), serial[i]) << files[i];
  }
}

TEST_F(ReproDriverTest, ThreadsCrossCheckCatchesThreadDependentOutput) {
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_thread_dep",
                                    "--threads-cross-check", "1,4",
                                    "--manifest", "m.json"}),
            1);
  EXPECT_EQ(manifest_status("zz_repro_thread_dep"), "threads_mismatch");
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a",
                                    "--threads-cross-check", "1,4"}),
            0);
}

TEST_F(ReproDriverTest, DivergentCrossCheckPrintsItsDiffAndLeavesNoAsideFile) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_thread_dep",
                                    "--threads-cross-check", "1,4"}),
            1);
  const std::string out = ::testing::internal::GetCapturedStdout();
  // The diff reads the first run's bytes back from where they were set
  // aside, and shows the row each thread count wrote.
  EXPECT_NE(out.find("    --- threads=1\n    +++ threads=4\n"
                     "    @@ line 2 @@\n    -1\n    +4\n"),
            std::string::npos)
      << out;
  // The first run's file is back in place, and nothing else was left.
  EXPECT_EQ(read_file("zz_thread_dep.csv"), "threads\n1\n");
  std::vector<std::string> left;
  for (const auto& e : fs::directory_iterator(".")) {
    left.push_back(e.path().filename().string());
  }
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<std::string>{"refs", "zz_thread_dep.csv"}));
}

TEST_F(ReproDriverTest, ThrowingFigureDoesNotKillTheBatch) {
  // The thrower runs first; graceful degradation must convert the
  // exception into a run_failed status and still run selftest_a.
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_throws",
                                    "zz_repro_selftest_a", "--manifest",
                                    "m.json"}),
            1);
  EXPECT_FALSE(read_file("zz_selftest_a.csv").empty());
  const std::string m = read_file("m.json");
  EXPECT_TRUE(JsonChecker(m).valid()) << m;
  EXPECT_NE(m.find("\"status\": \"run_failed\""), std::string::npos);
  EXPECT_NE(m.find("\"status\": \"ok\""), std::string::npos);
}

TEST_F(ReproDriverTest, MissingDeclaredArtifactFails) {
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_no_artifact",
                                    "zz_repro_selftest_a", "--manifest",
                                    "m.json"}),
            1);
  EXPECT_EQ(manifest_status("zz_repro_no_artifact"), "missing_artifact");
  // The clean figure beside it inventories exactly its declared artifact.
  EXPECT_EQ(manifest_status("zz_repro_selftest_a"), "ok");
  EXPECT_NE(read_file("m.json").find("\"file\": \"zz_selftest_a.csv\""),
            std::string::npos);
}

// --- replicated figures and --trials -------------------------------------

TEST_F(ReproDriverTest, TrialsOverrideScalesTheTrialAxis) {
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_repro_trials"}), 0);
  const std::string eight = read_file("zz_trials_trials.csv");
  EXPECT_EQ(count_lines(eight), 1u + 3u * 8u);
  EXPECT_EQ(count_lines(read_file("zz_trials.csv")), 1u + 3u);

  // Trial t is the same chip at any trial count, so a 1-trial run is
  // the header plus the 8-trial run's trial-0 rows.
  std::istringstream lines(eight);
  std::string line;
  std::getline(lines, line);
  std::string trial0 = line + "\n";
  while (std::getline(lines, line)) {
    std::istringstream cells(line);  // x, trial, v, ok
    std::string x, trial;
    std::getline(cells, x, ',');
    std::getline(cells, trial, ',');
    if (trial == "0") trial0 += line + "\n";
  }
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_repro_trials", "--trials", "1"}),
            0);
  EXPECT_EQ(count_lines(trial0), 1u + 3u);
  EXPECT_EQ(read_file("zz_trials_trials.csv"), trial0);

  // Header + 3 grid points x 20 trials, byte-identical at odd thread
  // counts (ragged final handoff blocks).
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_repro_trials", "--trials",
                                    "20", "--threads-cross-check", "1,3,7"}),
            0);
  EXPECT_EQ(count_lines(read_file("zz_trials_trials.csv")), 1u + 3u * 20u);
}

TEST_F(ReproDriverTest, SeedIsRefusedForAFigureThatRegistersNone) {
  // An unseeded figure would run its fixed workload while the manifest
  // recorded the seed.
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_missing_ref", "--seed",
                                    "7", "--manifest", "m.json"}),
            2);
  EXPECT_FALSE(fs::exists("zz_missing_ref.csv"));
  EXPECT_FALSE(fs::exists("m.json"));
  // One unseeded figure in the selection refuses the whole run.
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_selftest_a",
                                    "zz_repro_missing_ref", "--seed", "7"}),
            2);
  EXPECT_EQ(emc::repro::driver_run(
                {"run", "zz_repro_selftest_a", "--seed", "7"}),
            0);
}

TEST_F(ReproDriverTest, TrialsIsRefusedWithoutATrialModelOrTrials) {
  EXPECT_EQ(emc::repro::driver_run(
                {"run", "zz_repro_selftest_a", "--trials", "10"}),
            2);
  for (const char* bad : {"0", "-1", " 7", "+3", "18446744073709551616"}) {
    EXPECT_EQ(
        emc::repro::driver_run({"run", "zz_repro_trials", "--trials", bad}), 2)
        << "--trials \"" << bad << "\"";
  }
  // 3 grid points x this count wraps a 64-bit scenario count to 2: the
  // Workbench refuses it and the figure fails instead of passing on two
  // rows.
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_trials", "--trials",
                                    "6148914691236517206"}),
            1);
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_trials", "--trials",
                                    "10", "--check", "--refs", refs()}),
            2);
}

// --- lint and sta ----------------------------------------------------------

TEST_F(ReproDriverTest, LintStaAndRunGatesReadEachModelTheSameWay) {
  const std::vector<std::pair<std::string, int>> cases = {
      {"zz_lint_clean", 0},
      {"zz_lint_dirty", 1},
      {"zz_lint_throws", 1},
      {"zz_lint_none", 2}};
  for (const auto& [fig, want] : cases) {
    for (const std::vector<std::string>& args :
         {std::vector<std::string>{"lint", fig},
          {"lint", fig, "--json"},
          {"sta", fig},
          {"sta", fig, "--json"},
          {"run", fig, "--lint"},
          {"run", fig, "--sta"}}) {
      EXPECT_EQ(emc::repro::driver_run(args), want)
          << args[0] << " " << fig << " " << args.back();
    }
  }
  // A gate that stops a figure keeps it from running, and the manifest
  // names why.
  fs::remove("zz_lint.csv");
  EXPECT_EQ(emc::repro::driver_run(
                {"run", "zz_lint_none", "--lint", "--manifest", "m.json"}),
            2);
  EXPECT_FALSE(fs::exists("zz_lint.csv"));
  EXPECT_NE(read_file("m.json").find("\"status\": \"vacuous_model\""),
            std::string::npos);
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_lint_throws", "--sta",
                                    "--manifest", "m.json"}),
            1);
  EXPECT_NE(read_file("m.json").find("\"status\": \"sta_failed\""),
            std::string::npos);
  EXPECT_EQ(emc::repro::driver_run(
                {"run", "zz_lint_dirty", "--lint", "--manifest", "m.json"}),
            1);
  EXPECT_EQ(manifest_status("zz_lint_dirty"), "lint_failed");
}

TEST_F(ReproDriverTest, OnlyKeepsTheListedRules) {
  EXPECT_EQ(emc::repro::driver_run({"lint", "zz_lint_dirty", "--only", "C001"}),
            0);
  EXPECT_EQ(emc::repro::driver_run(
                {"lint", "zz_lint_dirty", "--only", "C001,W001"}),
            1);
  EXPECT_EQ(emc::repro::driver_run({"sta", "zz_lint_dirty", "--only", "T002"}),
            0);
  EXPECT_EQ(emc::repro::driver_run({"sta", "zz_lint_dirty", "--only", "T001"}),
            1);
  EXPECT_EQ(emc::repro::driver_run({"lint", "zz_lint_dirty", "--only", ","}),
            2);
}

TEST_F(ReproDriverTest, StaCsvCarriesTheMarginCurvesAndNeedsAWritablePath) {
  ASSERT_EQ(emc::repro::driver_run({"sta", "zz_lint_clean", "--csv", "m.csv"}),
            0);
  const std::string csv = read_file("m.csv");
  EXPECT_EQ(csv.find("figure,circuit,bundle,vdd,corner,trigger_s,datapath_s,"
                     "ratio,limit,ok\n"),
            0u);
  EXPECT_NE(csv.find("\nzz_lint_clean,bc,"), std::string::npos);
  EXPECT_EQ(emc::repro::driver_run(
                {"sta", "zz_lint_clean", "--csv", "no_such_dir/m.csv"}),
            2);
  // /dev/full accepts the open and every buffered write; only the final
  // flush fails.
  if (fs::exists("/dev/full")) {
    EXPECT_EQ(emc::repro::driver_run(
                  {"sta", "zz_lint_clean", "--csv", "/dev/full"}),
              2);
  }
}

// /dev/full accepts the open and every buffered write; only the final
// flush fails. A writer that checks its stream before closing it reports
// success there.
TEST_F(ReproDriverTest, ManifestOnAFullDeviceIsExit2) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_EQ(emc::repro::driver_run(
                {"run", "zz_repro_selftest_a", "--manifest", "/dev/full"}),
            2);
}

TEST_F(ReproDriverTest, AnalyzerAndRunFlagsStayWithTheirVerbs) {
  EXPECT_EQ(emc::repro::driver_run({"lint", "zz_lint_clean", "--check"}), 2);
  EXPECT_EQ(emc::repro::driver_run({"lint", "zz_lint_clean", "--csv", "x"}),
            2);
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_lint_clean", "--json"}), 2);
  EXPECT_EQ(emc::repro::driver_run({"lint"}), 2);
  EXPECT_EQ(emc::repro::driver_run({"lint", "--rules"}), 0);
  EXPECT_EQ(emc::repro::driver_run({"sta", "--rules"}), 0);
}

// driver_run is a library entry point: --help must hand control back
// rather than end the process. The child exits with a sentinel only if
// driver_run returned 0.
TEST(ReproDriverDeathTest, HelpReturnsInsteadOfExiting) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--help"},
        {"run", "--help"},
        {"lint", "--help"},
        {"sta", "-h"}}) {
    EXPECT_EXIT(std::exit(emc::repro::driver_run(args) == 0 ? 42 : 1),
                ::testing::ExitedWithCode(42), "")
        << args.front();
  }
}

TEST_F(ReproDriverTest, UnwritableReplicatedCsvFailsTheRun) {
  // A directory squatting on the trial CSV's path: the stream cannot
  // open it, so the run must fail instead of returning 0.
  fs::create_directory("zz_trials_trials.csv");
  EXPECT_EQ(emc::repro::driver_run(
                {"run", "zz_repro_trials", "--manifest", "m.json"}),
            1);
  EXPECT_NE(read_file("m.json").find("\"status\": \"run_failed\""),
            std::string::npos);
  fs::remove("zz_trials_trials.csv");

  // Same for the reduced CSV.
  fs::remove("zz_trials.csv");
  fs::create_directory("zz_trials.csv");
  EXPECT_EQ(emc::repro::driver_run({"run", "zz_repro_trials"}), 1);
}

TEST_F(ReproDriverTest, RetiredScaleOutFlagsAndSubcommandsAreUnknown) {
  const std::vector<std::vector<std::string>> retired = {
      {"--shard", "0/2"}, {"--partial", "p"}, {"--cache", "d"}, {"--no-cache"},
      {"--smoke"}};
  for (const auto& flag : retired) {
    std::vector<std::string> args = {"run", "zz_repro_trials"};
    args.insert(args.end(), flag.begin(), flag.end());
    EXPECT_EQ(emc::repro::driver_run(args), 2) << flag.front();
  }
  EXPECT_EQ(emc::repro::driver_run({"merge", "a.partial"}), 2);
  EXPECT_EQ(emc::repro::driver_run({"cache", "stats", "d"}), 2);
  // None of them ran the figure.
  EXPECT_FALSE(fs::exists("zz_trials_trials.csv"));
}

TEST_F(ReproDriverTest, ManifestDigestsAndSizesAreThoseOfTheProducedFiles) {
  ASSERT_EQ(emc::repro::driver_run({"run", "zz_repro_trials",
                                    "zz_repro_selftest_a", "zz_repro_jobs_0",
                                    "--manifest", "m.json"}),
            0);
  const std::string m = read_file("m.json");
  const std::regex record(
      R"re(\{"file": "([^"]+)", "bytes": (\d+), )re"
      R"re("sha256": "([0-9a-f]{64})"\})re");
  std::size_t seen = 0;
  for (auto it = std::sregex_iterator(m.begin(), m.end(), record);
       it != std::sregex_iterator(); ++it, ++seen) {
    const std::string bytes = read_file((*it)[1]);
    EXPECT_EQ((*it)[2], std::to_string(bytes.size())) << (*it)[1];
    EXPECT_EQ((*it)[3], emc::repro::sha256_hex(bytes)) << (*it)[1];
  }
  EXPECT_EQ(seen, 4u) << m;
}
