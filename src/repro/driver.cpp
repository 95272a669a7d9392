#include "repro/driver.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sweep_runner.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "repro/sha256.hpp"
#include "sta/session.hpp"
#include "tools/cli_common.hpp"

// Default reference directory: the source tree's bench/refs, baked in at
// configure time so the driver works from any build directory.
#ifndef EMC_REPRO_REFS_DIR
#define EMC_REPRO_REFS_DIR "bench/refs"
#endif

namespace emc::repro {

namespace {

struct CliOptions {
  std::vector<std::string> names;
  bool all = false;
  bool list = false;
  bool check = false;
  bool smoke = false;
  bool lint = false;
  bool sta = false;
  bool seed_set = false;
  std::uint64_t seed = 0;
  unsigned jobs = 1;
  std::vector<unsigned> cross_threads;  // empty = single run, default pool
  std::string manifest_path;
  std::string refs_dir = EMC_REPRO_REFS_DIR;
  std::uint64_t trials_override = 0;
};

struct ArtifactRecord {
  std::string file;
  std::uint64_t bytes = 0;
  std::string sha256;
};

struct FigureResult {
  const Figure* fig = nullptr;
  bool run_failed = false;
  bool lint_failed = false;
  bool sta_failed = false;
  bool missing_artifact = false;
  bool missing_ref = false;   // vacuous: declared ref absent on disk
  bool ref_mismatch = false;
  bool threads_mismatch = false;
  double wall_seconds = 0.0;
  std::uint64_t seed = 0;
  sim::Kernel::Stats stats;
  std::vector<ArtifactRecord> artifacts;
  std::string detail;  // human-readable failure explanation

  bool failed() const {
    return run_failed || lint_failed || sta_failed || missing_artifact ||
           ref_mismatch || threads_mismatch;
  }
  const char* status() const {
    if (lint_failed) return "lint_failed";
    if (sta_failed) return "sta_failed";
    if (run_failed) return "run_failed";
    if (missing_artifact) return "missing_artifact";
    if (missing_ref) return "missing_ref";
    if (ref_mismatch) return "ref_mismatch";
    if (threads_mismatch) return "threads_mismatch";
    return "ok";
  }
};

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t nl = s.find('\n', start);
    if (nl == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return out;
}

/// Compact unified-diff-style summary of the first differing lines
/// (CSV rows are aligned 1:1, so a positional diff reads naturally).
std::string diff_summary(const std::string& ref_name, const std::string& ref,
                         const std::string& got_name, const std::string& got) {
  const auto a = split_lines(ref);
  const auto b = split_lines(got);
  std::ostringstream out;
  out << "    --- " << ref_name << "\n    +++ " << got_name << "\n";
  const std::size_t n = std::max(a.size(), b.size());
  int shown = 0;
  for (std::size_t i = 0; i < n && shown < 8; ++i) {
    const std::string* la = i < a.size() ? &a[i] : nullptr;
    const std::string* lb = i < b.size() ? &b[i] : nullptr;
    if (la && lb && *la == *lb) continue;
    out << "    @@ line " << (i + 1) << " @@\n";
    if (la) out << "    -" << *la << "\n";
    if (lb) out << "    +" << *lb << "\n";
    ++shown;
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool same = i < a.size() && i < b.size() && a[i] == b[i];
    if (!same) ++total;
  }
  if (total > std::size_t(shown)) {
    out << "    ... " << (total - std::size_t(shown))
        << " more differing line(s)\n";
  }
  if (a.size() != b.size()) {
    out << "    (line count: ref " << a.size() << ", produced " << b.size()
        << ")\n";
  }
  return out.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A RunContext for `opt` at sweep-thread count `threads`.
RunContext make_context(const CliOptions& opt, std::uint64_t seed,
                        unsigned threads) {
  RunContext ctx;
  ctx.mode = opt.smoke ? Mode::kSmoke : Mode::kFull;
  ctx.seed = seed;
  ctx.threads = threads;
  ctx.trials_override = opt.trials_override;
  return ctx;
}

/// Run `fig`'s body under `ctx`. A throw or a nonzero return marks `r`
/// run_failed, with `what` naming the attempt in its detail: a figure
/// body that throws must not take the rest of an --all run down with it.
bool run_body(const Figure& fig, const RunContext& ctx, const std::string& what,
              FigureResult& r) {
  std::string error;
  try {
    const int rc = fig.run(ctx);
    if (rc == 0) return true;
    error = " returned " + std::to_string(rc);
  } catch (const std::exception& e) {
    error = std::string(" threw: ") + e.what();
  } catch (...) {
    error = " threw a non-std exception";
  }
  r.run_failed = true;
  r.detail += "    " + what + error + "\n";
  return false;
}

/// Run one figure end to end: execute, inventory artifacts, check refs,
/// cross-check thread counts.
FigureResult run_figure(const Figure& fig, const CliOptions& opt) {
  FigureResult r;
  r.fig = &fig;
  r.seed = opt.seed_set ? opt.seed : fig.default_seed;

  // Static lint gate: run the figure's netlist rules *before* spending
  // any simulation time on it — a structurally broken circuit fails in
  // milliseconds with a named rule instead of minutes later with a
  // watchdog verdict.
  if (opt.lint) {
    if (fig.lint == nullptr) {
      r.lint_failed = true;
      r.detail += "    --lint: figure registers no lint model\n";
      return r;
    }
    lint::Session session;
    try {
      fig.lint(session);
    } catch (const std::exception& e) {
      r.lint_failed = true;
      r.detail += std::string("    lint hook threw: ") + e.what() + "\n";
      return r;
    }
    if (!session.clean()) {
      r.lint_failed = true;
      std::stringstream ss(session.text());
      std::string line;
      while (std::getline(ss, line)) r.detail += "    " + line + "\n";
      return r;
    }
  }

  // Static timing gate: same hook, run through the sta pipeline. A
  // bundled-data margin that dies somewhere in the operating range fails
  // here with a named rule and a voltage, before any event is simulated.
  if (opt.sta) {
    if (fig.lint == nullptr) {
      r.sta_failed = true;
      r.detail += "    --sta: figure registers no timing model\n";
      return r;
    }
    sta::Session session;
    try {
      fig.lint(session);
    } catch (const std::exception& e) {
      r.sta_failed = true;
      r.detail += std::string("    sta hook threw: ") + e.what() + "\n";
      return r;
    }
    if (!session.clean() || session.vacuous()) {
      r.sta_failed = true;
      for (const auto& s : session.vacuous_subjects()) {
        r.detail += "    vacuous timing model: " + s +
                    " records bundles but no arcs reach them\n";
      }
      std::stringstream ss(session.text());
      std::string line;
      while (std::getline(ss, line)) r.detail += "    " + line + "\n";
      return r;
    }
  }

  const std::vector<unsigned>& threads = opt.cross_threads;
  const RunContext ctx =
      make_context(opt, r.seed, threads.empty() ? 0 : threads.front());
  const auto t0 = std::chrono::steady_clock::now();
  const bool ran = run_body(fig, ctx, "run()", r);
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.stats = ctx.stats();
  if (!ran) return r;

  // Inventory every produced artifact. Digests stream from disk, so the
  // inventory never holds a file in memory, however many trials it has.
  for (const std::string& file : fig.artifacts) {
    ArtifactRecord rec;
    rec.file = file;
    rec.sha256 = sha256_file_hex(file);
    std::error_code ec;
    rec.bytes = std::filesystem::file_size(file, ec);
    if (rec.sha256.empty() || ec) {
      r.missing_artifact = true;
      r.detail += "    declared artifact not produced: " + file + "\n";
      continue;
    }
    r.artifacts.push_back(std::move(rec));
  }
  if (r.missing_artifact) return r;

  if (opt.check) {
    for (const std::string& file : fig.refs) {
      const std::string ref_path = opt.refs_dir + "/" + file;
      std::string ref_bytes;
      if (!read_file(ref_path, &ref_bytes)) {
        // Vacuous-pass refusal: a declared-but-absent reference means
        // the gate would silently check nothing. Exit 2, like the perf
        // gate on a mode-mismatched baseline.
        r.missing_ref = true;
        r.detail += "    declared ref missing on disk: " + ref_path + "\n";
        continue;
      }
      std::string produced;
      if (!read_file(file, &produced) || produced != ref_bytes) {
        r.ref_mismatch = true;
        r.detail += diff_summary(ref_path, ref_bytes, file, produced);
      }
    }
  }

  // Determinism cross-check: re-run at each further thread count and
  // demand byte-identical artifacts. The first run's bytes are kept only
  // here, for the diff a divergence prints.
  if (threads.size() < 2) return r;
  std::vector<std::string> first(fig.artifacts.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    read_file(fig.artifacts[i], &first[i]);
  }
  for (std::size_t t = 1; t < threads.size(); ++t) {
    const std::string at = "threads=" + std::to_string(threads[t]);
    if (!run_body(fig, make_context(opt, r.seed, threads[t]),
                  "re-run at " + at, r)) {
      return r;
    }
    for (std::size_t i = 0; i < first.size(); ++i) {
      const std::string& file = fig.artifacts[i];
      const std::string digest = sha256_file_hex(file);
      if (digest.empty()) {
        r.missing_artifact = true;
        r.detail += "    artifact vanished on re-run: " + file + "\n";
        continue;
      }
      if (digest == r.artifacts[i].sha256) continue;
      std::string again;
      read_file(file, &again);
      const std::string at0 = "threads=" + std::to_string(threads.front());
      r.threads_mismatch = true;
      r.detail += "    " + file + " differs between " + at0 + " and " + at +
                  ":\n" + diff_summary(at0, first[i], at, again);
    }
  }
  return r;
}

bool write_manifest(const std::string& path, const CliOptions& opt,
                    const std::vector<FigureResult>& results) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "emc_repro: cannot write manifest %s\n",
                 path.c_str());
    return false;
  }
  out << "{\n";
  out << "  \"tool\": \"emc_repro\",\n";
  out << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n";
  out << "  \"checked\": " << (opt.check ? "true" : "false") << ",\n";
  out << "  \"threads_cross_check\": [";
  for (std::size_t i = 0; i < opt.cross_threads.size(); ++i) {
    out << (i ? ", " : "") << opt.cross_threads[i];
  }
  out << "],\n";
  out << "  \"figures\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FigureResult& r = results[i];
    out << (i ? "," : "") << "\n    {\n";
    out << "      \"name\": \"" << json_escape(r.fig->name) << "\",\n";
    out << "      \"title\": \"" << json_escape(r.fig->title) << "\",\n";
    out << "      \"status\": \"" << r.status() << "\",\n";
    out << "      \"smoke_capable\": "
        << (r.fig->smoke_capable ? "true" : "false") << ",\n";
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.6f", r.wall_seconds);
    out << "      \"wall_seconds\": " << wall << ",\n";
    out << "      \"seed\": " << r.seed << ",\n";
    out << "      \"kernel_stats\": {\n";
    out << "        \"events_executed\": " << r.stats.events_executed << ",\n";
    out << "        \"events_scheduled\": " << r.stats.events_scheduled
        << ",\n";
    out << "        \"peak_queue_depth\": " << r.stats.peak_queue_depth
        << ",\n";
    out << "        \"slab_capacity\": " << r.stats.slab_capacity << "\n";
    out << "      },\n";
    out << "      \"artifacts\": [";
    for (std::size_t a = 0; a < r.artifacts.size(); ++a) {
      const ArtifactRecord& rec = r.artifacts[a];
      out << (a ? "," : "") << "\n        {\"file\": \""
          << json_escape(rec.file) << "\", \"bytes\": " << rec.bytes
          << ", \"sha256\": \"" << rec.sha256 << "\"}";
    }
    out << (r.artifacts.empty() ? "]" : "\n      ]") << "\n    }";
  }
  out << (results.empty() ? "]" : "\n  ]") << "\n}\n";
  return static_cast<bool>(out);
}

void print_usage() {
  std::printf(
      "emc_repro — unified reproduction driver\n"
      "  emc_repro list\n"
      "  emc_repro --all [flags]\n"
      "  emc_repro run <figure>... [flags]\n"
      "flags: --check  --threads-cross-check A,B  --manifest OUT.json\n"
      "       --jobs N  --smoke  --seed N  --refs DIR  --lint  --sta\n"
      "       --trials N\n"
      "%s",
      cli::kExitCodeHelp);
}

int list_figures() {
  return cli::list_figures(
      [](const Figure& f) {
        return f.title + (f.smoke_capable ? "  [smoke]" : "");
      },
      [](const Figure& f) {
        for (const std::string& a : f.artifacts) {
          bool is_ref = false;
          for (const std::string& ref : f.refs) {
            if (ref == a) is_ref = true;
          }
          std::printf("      %s %s\n", is_ref ? "[ref]" : "[art]", a.c_str());
        }
      });
}

/// A whole, positive decimal token: "4" parses; "4x", "", "0" and "-1"
/// do not.
bool parse_positive(const std::string& s, unsigned* out) {
  char* end = nullptr;
  const long n = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || n <= 0 ||
      n > static_cast<long>(std::numeric_limits<unsigned>::max())) {
    return false;
  }
  *out = static_cast<unsigned>(n);
  return true;
}

/// Returns false on malformed input.
bool parse_args(const std::vector<std::string>& args, CliOptions* opt) {
  auto next_value = [&](std::size_t* i, std::string* out) {
    if (*i + 1 >= args.size()) return false;
    *out = args[++*i];
    return true;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    std::string v;
    if (a == "list") {
      opt->list = true;
    } else if (a == "run") {
      // optional sugar
    } else if (a == "--all") {
      opt->all = true;
    } else if (a == "--check") {
      opt->check = true;
    } else if (a == "--smoke") {
      opt->smoke = true;
    } else if (a == "--lint") {
      opt->lint = true;
    } else if (a == "--sta") {
      opt->sta = true;
    } else if (a == "--seed") {
      if (!next_value(&i, &v)) return false;
      char* end = nullptr;
      opt->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || end != v.c_str() + v.size()) {
        std::fprintf(stderr, "emc_repro: --seed wants an integer, got \"%s\"\n",
                     v.c_str());
        return false;
      }
      opt->seed_set = true;
    } else if (a == "--jobs") {
      if (!next_value(&i, &v)) return false;
      if (!parse_positive(v, &opt->jobs)) {
        std::fprintf(stderr,
                     "emc_repro: --jobs wants a positive integer, got \"%s\"\n",
                     v.c_str());
        return false;
      }
    } else if (a == "--threads-cross-check") {
      if (!next_value(&i, &v)) return false;
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        unsigned n = 0;
        if (!parse_positive(tok, &n)) {
          std::fprintf(stderr,
                       "emc_repro: --threads-cross-check wants positive "
                       "integers A,B, got \"%s\"\n",
                       v.c_str());
          return false;
        }
        opt->cross_threads.push_back(n);
      }
      if (opt->cross_threads.size() < 2) return false;
    } else if (a == "--manifest") {
      if (!next_value(&i, &v)) return false;
      opt->manifest_path = v;
    } else if (a == "--refs") {
      if (!next_value(&i, &v)) return false;
      opt->refs_dir = v;
    } else if (a == "--trials") {
      if (!next_value(&i, &v)) return false;
      char* end = nullptr;
      opt->trials_override = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || end != v.c_str() + v.size() ||
          opt->trials_override == 0) {
        std::fprintf(stderr,
                     "emc_repro: --trials wants a positive integer, got "
                     "\"%s\"\n",
                     v.c_str());
        return false;
      }
    } else if (a == "--help" || a == "-h") {
      opt->list = false;
      opt->names.clear();
      print_usage();
      std::exit(0);
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "emc_repro: unknown flag %s\n", a.c_str());
      return false;
    } else {
      opt->names.push_back(a);
    }
  }
  return true;
}

}  // namespace

int driver_run(const std::vector<std::string>& args) {
  CliOptions opt;
  if (!parse_args(args, &opt)) {
    print_usage();
    return 2;
  }
  if (opt.list) return list_figures();
  if (opt.smoke && opt.check) {
    std::fprintf(stderr,
                 "emc_repro: --check compares full-mode refs; combining it "
                 "with --smoke would verify nothing\n");
    return 2;
  }
  if (opt.trials_override != 0 && opt.check) {
    std::fprintf(stderr,
                 "emc_repro: --check compares full-trial refs; combining it "
                 "with --trials would verify nothing\n");
    return 2;
  }

  std::vector<const Figure*> selected;
  if (!opt.all && opt.names.empty()) {
    print_usage();
    return 2;
  }
  const int sel = cli::select_figures("emc_repro", opt.all, opt.names,
                                      &selected);
  if (sel != 0) return sel;

  // --trials only means something to replicated figures; anything
  // else would silently run its fixed workload.
  if (opt.trials_override != 0) {
    for (const Figure* f : selected) {
      if (!f->replicated()) {
        std::fprintf(stderr,
                     "emc_repro: figure \"%s\" registers no trial model "
                     "(--trials needs one)\n",
                     f->name.c_str());
        return 2;
      }
    }
  }

  // Independent figures (disjoint artifact names) run through the same
  // pool the sweeps use; --jobs 1 degenerates to a serial loop.
  std::vector<FigureResult> results(selected.size());
  analysis::SweepRunner::for_indexed(
      selected.size(), opt.jobs,
      [&](std::size_t i) { results[i] = run_figure(*selected[i], opt); });

  std::printf("\n=== emc_repro: %zu figure(s)%s%s ===\n", selected.size(),
              opt.check ? ", --check" : "",
              opt.cross_threads.empty() ? "" : ", --threads-cross-check");
  bool any_fail = false;
  bool any_vacuous = false;
  for (const FigureResult& r : results) {
    const bool ok = !r.failed() && !r.missing_ref;
    std::printf("  [%s] %-28s %6.2f s  %s%s\n", ok ? "ok" : "!!",
                r.fig->name.c_str(), r.wall_seconds, r.status(),
                opt.smoke && !r.fig->smoke_capable
                    ? "  (ran full workload: figure is not smoke-capable)"
                    : "");
    if (!r.detail.empty()) std::fputs(r.detail.c_str(), stdout);
    any_fail |= r.failed();
    any_vacuous |= r.missing_ref;
  }

  if (!opt.manifest_path.empty()) {
    if (!write_manifest(opt.manifest_path, opt, results)) return 2;
    std::printf("  manifest: %s\n", opt.manifest_path.c_str());
  }

  // A real drift/run failure (1) outranks missing-ref bookkeeping (2):
  // a developer told only "record the missing ref" would re-run and
  // discover the drift one iteration too late.
  return cli::exit_code(any_fail, any_vacuous);
}

int driver_main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return driver_run(args);
}

int standalone_main(const char* figure, int argc, char** argv) {
  std::vector<std::string> args{"run", figure};
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return driver_run(args);
}

}  // namespace emc::repro
