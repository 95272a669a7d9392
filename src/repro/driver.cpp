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
#include "repro/cache.hpp"
#include "repro/partial.hpp"
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
  // Scale-out surface: shard assignment, partial output, result cache.
  bool shard_set = false;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::string partial_dir;
  std::uint64_t trials_override = 0;
  std::string cache_dir;
  bool no_cache = false;
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
  // Cache disposition: "off" (no --cache), "hit" (artifacts restored
  // without running), "stored" (ran and published), "miss" (ran;
  // store skipped or failed).
  std::string cache_state = "off";
  std::string cache_key;

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

/// Fill a RunContext from the options (everything but `threads`, which
/// varies across cross-check re-runs).
RunContext make_context(const Figure& fig, const CliOptions& opt,
                        std::uint64_t seed) {
  RunContext ctx;
  ctx.mode = opt.smoke ? Mode::kSmoke : Mode::kFull;
  ctx.seed = seed;
  ctx.shard_index = opt.shard_index;
  ctx.shard_count = opt.shard_count;
  ctx.partial_dir = opt.partial_dir;
  ctx.trials_override = opt.trials_override;
  (void)fig;
  return ctx;
}

/// The cache key of this invocation of `fig` — every input the
/// artifacts are a pure function of.
CacheKey make_cache_key(const Figure& fig, const CliOptions& opt,
                        std::uint64_t seed,
                        const std::vector<std::string>& artifact_files) {
  CacheKey key;
  key.figure = fig.name;
  key.seed = seed;
  key.smoke = opt.smoke;
  key.trials_override = opt.trials_override;
  key.shard_index = opt.shard_index;
  key.shard_count = opt.shard_count;
  key.sharded = !opt.partial_dir.empty();
  key.code_version = cache_code_version();
  key.artifacts = artifact_files;
  return key;
}

/// Run one figure end to end: execute (or restore from cache),
/// inventory artifacts, check refs, cross-check thread counts.
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

  RunContext ctx = make_context(fig, opt, r.seed);
  ctx.threads = opt.cross_threads.empty() ? 0 : opt.cross_threads.front();

  // A sharded run's only product is its partial file; the declared
  // final artifacts are written by `emc_repro merge` instead.
  const std::vector<std::string> artifact_files =
      ctx.sharded() ? std::vector<std::string>{ctx.partial_path(fig.name)}
                    : fig.artifacts;

  // Result cache: a run with the same (code, figure, seed, mode,
  // override, shard) inputs re-derives byte-identical artifacts, so a
  // stored entry can stand in for the whole simulation. The hit/stored
  // state lands in the manifest — CI asserts on it.
  const bool use_cache = !opt.cache_dir.empty() && !opt.no_cache;
  CacheKey key;
  bool cache_hit = false;
  if (use_cache) {
    key = make_cache_key(fig, opt, r.seed, artifact_files);
    r.cache_key = key.hash();
    ResultCache cache(opt.cache_dir);
    cache_hit = cache.restore(key);
    r.cache_state = cache_hit ? "hit" : "miss";
  }

  if (!cache_hit) {
    // Graceful degradation: a figure body that throws must not take the
    // rest of an --all run down with it. The exception becomes a
    // run_failed status (aggregate exit stays nonzero) and the loop
    // moves on to the next figure.
    const auto t0 = std::chrono::steady_clock::now();
    int rc = 0;
    try {
      rc = fig.run(ctx);
    } catch (const std::exception& e) {
      r.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      r.run_failed = true;
      r.detail += std::string("    run() threw: ") + e.what() + "\n";
      return r;
    } catch (...) {
      r.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      r.run_failed = true;
      r.detail += "    run() threw a non-std exception\n";
      return r;
    }
    r.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    r.stats = ctx.stats();
    if (rc != 0) {
      r.run_failed = true;
      r.detail += "    run() returned " + std::to_string(rc) + "\n";
      return r;
    }
  }

  // Inventory every produced artifact (and keep the bytes of the first
  // run for the thread cross-check).
  std::vector<std::string> first_bytes(artifact_files.size());
  for (std::size_t i = 0; i < artifact_files.size(); ++i) {
    const std::string& file = artifact_files[i];
    ArtifactRecord rec;
    rec.file = file;
    if (!read_file(file, &first_bytes[i])) {
      r.missing_artifact = true;
      r.detail += "    declared artifact not produced: " + file + "\n";
      continue;
    }
    rec.bytes = first_bytes[i].size();
    rec.sha256 = sha256_hex(first_bytes[i]);
    r.artifacts.push_back(std::move(rec));
  }
  if (r.missing_artifact) return r;

  if (use_cache && !cache_hit) {
    ResultCache cache(opt.cache_dir);
    if (cache.store(key, artifact_files)) r.cache_state = "stored";
  }

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
      for (std::size_t i = 0; i < artifact_files.size(); ++i) {
        if (artifact_files[i] == file) produced = first_bytes[i];
      }
      if (produced != ref_bytes) {
        r.ref_mismatch = true;
        r.detail += diff_summary(ref_path, ref_bytes, file, produced);
      }
    }
  }

  // Determinism cross-check: re-run at each further thread count and
  // demand byte-identical artifacts. A cache hit skips it — the stored
  // artifacts already passed it when they were produced.
  for (std::size_t t = 1; !cache_hit && t < opt.cross_threads.size(); ++t) {
    RunContext ctx2 = make_context(fig, opt, r.seed);
    ctx2.threads = opt.cross_threads[t];
    int rc2 = 0;
    try {
      rc2 = fig.run(ctx2);
    } catch (const std::exception& e) {
      r.run_failed = true;
      r.detail += "    re-run at threads=" +
                  std::to_string(opt.cross_threads[t]) + " threw: " +
                  e.what() + "\n";
      return r;
    } catch (...) {
      r.run_failed = true;
      r.detail += "    re-run at threads=" +
                  std::to_string(opt.cross_threads[t]) +
                  " threw a non-std exception\n";
      return r;
    }
    if (rc2 != 0) {
      r.run_failed = true;
      r.detail += "    re-run at threads=" +
                  std::to_string(opt.cross_threads[t]) + " failed\n";
      return r;
    }
    for (std::size_t i = 0; i < artifact_files.size(); ++i) {
      std::string again;
      if (!read_file(artifact_files[i], &again)) {
        r.missing_artifact = true;
        r.detail += "    artifact vanished on re-run: " + artifact_files[i] +
                    "\n";
        continue;
      }
      if (again != first_bytes[i]) {
        r.threads_mismatch = true;
        r.detail += "    " + artifact_files[i] + " differs between threads=" +
                    std::to_string(opt.cross_threads.front()) +
                    " and threads=" + std::to_string(opt.cross_threads[t]) +
                    ":\n" +
                    diff_summary("threads=" +
                                     std::to_string(opt.cross_threads.front()),
                                 first_bytes[i],
                                 "threads=" +
                                     std::to_string(opt.cross_threads[t]),
                                 again);
      }
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
  out << "  \"shard\": \"" << opt.shard_index << "/" << opt.shard_count
      << "\",\n";
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
    out << "      \"cache\": \"" << r.cache_state << "\",\n";
    out << "      \"cache_key\": \"" << json_escape(r.cache_key) << "\",\n";
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
      "  emc_repro merge <partial>... [--refs DIR] [--check]\n"
      "  emc_repro cache stats DIR | cache prune DIR --keep N\n"
      "flags: --check  --threads-cross-check A,B  --manifest OUT.json\n"
      "       --jobs N  --smoke  --seed N  --refs DIR  --lint  --sta\n"
      "       --shard I/N --partial DIR  --trials N\n"
      "       --cache DIR  --no-cache\n"
      "%s",
      cli::kExitCodeHelp);
}

int list_figures() {
  return cli::list_figures(
      [](const Figure& f) {
        return f.title + (f.smoke_capable ? "  [smoke]" : "") +
               (f.shardable() ? "  [shard]" : "");
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
    } else if (a == "--shard") {
      if (!next_value(&i, &v)) return false;
      const std::size_t slash = v.find('/');
      if (slash == std::string::npos) {
        std::fprintf(stderr, "emc_repro: --shard wants I/N, got \"%s\"\n",
                     v.c_str());
        return false;
      }
      char* end = nullptr;
      const std::string is = v.substr(0, slash);
      const std::string ns = v.substr(slash + 1);
      const unsigned long long idx = std::strtoull(is.c_str(), &end, 10);
      const bool idx_ok = !is.empty() && end == is.c_str() + is.size();
      const unsigned long long cnt = std::strtoull(ns.c_str(), &end, 10);
      const bool cnt_ok = !ns.empty() && end == ns.c_str() + ns.size();
      if (!idx_ok || !cnt_ok || cnt == 0 || idx >= cnt) {
        std::fprintf(stderr, "emc_repro: --shard wants I/N with I < N, got "
                             "\"%s\"\n",
                     v.c_str());
        return false;
      }
      opt->shard_set = true;
      opt->shard_index = static_cast<std::size_t>(idx);
      opt->shard_count = static_cast<std::size_t>(cnt);
    } else if (a == "--partial") {
      if (!next_value(&i, &v)) return false;
      opt->partial_dir = v;
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
    } else if (a == "--cache") {
      if (!next_value(&i, &v)) return false;
      opt->cache_dir = v;
    } else if (a == "--no-cache") {
      opt->no_cache = true;
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

/// `emc_repro merge <partial>... [--refs DIR] [--check]` — reassemble a
/// figure's final CSVs from a complete shard set.
int merge_command(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  std::string refs_dir = EMC_REPRO_REFS_DIR;
  bool check = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--refs") {
      if (i + 1 >= args.size()) {
        print_usage();
        return 2;
      }
      refs_dir = args[++i];
    } else if (a == "--check") {
      check = true;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "emc_repro: unknown merge flag %s\n", a.c_str());
      print_usage();
      return 2;
    } else {
      paths.push_back(a);
    }
  }
  if (paths.empty()) {
    print_usage();
    return 2;
  }

  PartialInfo info;
  std::string error;
  if (!read_partial_info(paths.front(), &info, &error)) {
    std::fprintf(stderr, "emc_repro: %s\n", error.c_str());
    return 1;
  }
  const Figure* fig = Registry::instance().find(info.header.figure);
  if (fig == nullptr) {
    std::fprintf(stderr, "emc_repro: partial names unknown figure \"%s\"\n",
                 info.header.figure.c_str());
    return 2;
  }
  if (!fig->shardable()) {
    std::fprintf(stderr, "emc_repro: figure \"%s\" registers no shard model\n",
                 fig->name.c_str());
    return 2;
  }

  const MergeResult merged =
      merge_partials(paths, fig->shard.trials_csv, fig->shard.aggregate_csv,
                     fig->shard.aggregate());
  if (!merged.ok) {
    std::fprintf(stderr, "emc_repro: merge failed: %s\n",
                 merged.error.c_str());
    return 1;
  }
  std::printf("  merged %-28s %zu shard(s), %zu row(s) -> %s, %s\n",
              fig->name.c_str(), paths.size(), merged.rows,
              fig->shard.trials_csv.c_str(), fig->shard.aggregate_csv.c_str());

  if (!check) return 0;

  // --check holds merged artifacts against the full-mode refs; a smoke
  // or trial-overridden shard set cannot match them by construction.
  if (merged.header.smoke || merged.header.trials_override != 0) {
    std::fprintf(stderr,
                 "emc_repro: merge --check compares full-mode refs; this "
                 "shard set was produced with %s\n",
                 merged.header.smoke ? "--smoke" : "--trials");
    return 2;
  }
  bool any_mismatch = false;
  bool any_missing_ref = false;
  for (const std::string& file :
       {fig->shard.trials_csv, fig->shard.aggregate_csv}) {
    bool is_ref = false;
    for (const std::string& ref : fig->refs) {
      if (ref == file) is_ref = true;
    }
    if (!is_ref) continue;
    const std::string ref_path = refs_dir + "/" + file;
    std::string ref_bytes, produced;
    if (!read_file(ref_path, &ref_bytes)) {
      any_missing_ref = true;
      std::fprintf(stderr, "emc_repro: declared ref missing on disk: %s\n",
                   ref_path.c_str());
      continue;
    }
    if (!read_file(file, &produced) || produced != ref_bytes) {
      any_mismatch = true;
      std::fputs(diff_summary(ref_path, ref_bytes, file, produced).c_str(),
                 stdout);
    }
  }
  return cli::exit_code(any_mismatch, any_missing_ref);
}

/// `emc_repro cache stats DIR` / `emc_repro cache prune DIR --keep N`.
int cache_command(const std::vector<std::string>& args) {
  if (args.size() >= 2 && args[0] == "stats") {
    ResultCache cache(args[1]);
    const ResultCache::Stats s = cache.stats();
    std::printf("  cache %s: %zu entr%s, %zu object(s), %llu byte(s)\n",
                cache.dir().c_str(), s.entries, s.entries == 1 ? "y" : "ies",
                s.objects, static_cast<unsigned long long>(s.object_bytes));
    return 0;
  }
  if (args.size() >= 4 && args[0] == "prune" && args[2] == "--keep") {
    char* end = nullptr;
    const std::string& v = args[3];
    const unsigned long long keep = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || end != v.c_str() + v.size()) {
      std::fprintf(stderr,
                   "emc_repro: cache prune --keep wants an integer, got "
                   "\"%s\"\n",
                   v.c_str());
      return 2;
    }
    ResultCache cache(args[1]);
    const std::size_t removed = cache.prune(static_cast<std::size_t>(keep));
    std::printf("  cache %s: pruned %zu entr%s\n", cache.dir().c_str(),
                removed, removed == 1 ? "y" : "ies");
    return 0;
  }
  print_usage();
  return 2;
}

}  // namespace

int driver_run(const std::vector<std::string>& args) {
  if (!args.empty() && args.front() == "merge") {
    return merge_command({args.begin() + 1, args.end()});
  }
  if (!args.empty() && args.front() == "cache") {
    return cache_command({args.begin() + 1, args.end()});
  }

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
  if (opt.shard_set && opt.partial_dir.empty()) {
    std::fprintf(stderr,
                 "emc_repro: --shard writes a partial file; it requires "
                 "--partial DIR\n");
    return 2;
  }
  const bool sharded = !opt.partial_dir.empty();
  if (sharded && opt.check) {
    std::fprintf(stderr,
                 "emc_repro: --check compares final artifacts; a sharded run "
                 "only writes a partial (merge first, then `emc_repro merge "
                 "... --check`)\n");
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

  // --shard/--partial/--trials only mean something to figures that
  // register a shard model; running them against anything else would
  // silently produce nothing (or full artifacts masquerading as
  // partials).
  if (sharded || opt.trials_override != 0) {
    for (const Figure* f : selected) {
      if (!f->shardable()) {
        std::fprintf(stderr,
                     "emc_repro: figure \"%s\" registers no shard model "
                     "(--shard/--partial/--trials need one)\n",
                     f->name.c_str());
        return 2;
      }
    }
  }
  if (sharded) {
    std::error_code ec;
    std::filesystem::create_directories(opt.partial_dir, ec);
    if (ec) {
      std::fprintf(stderr, "emc_repro: cannot create partial dir %s\n",
                   opt.partial_dir.c_str());
      return 2;
    }
  }

  // Independent figures (disjoint artifact names) run through the same
  // pool the sweeps use; --jobs 1 degenerates to a serial loop.
  std::vector<FigureResult> results(selected.size());
  analysis::SweepRunner::for_indexed(
      selected.size(), opt.jobs,
      [&](std::size_t i) { results[i] = run_figure(*selected[i], opt); });

  std::printf("\n=== emc_repro: %zu figure(s)%s%s%s ===\n", selected.size(),
              opt.check ? ", --check" : "",
              opt.cross_threads.empty() ? "" : ", --threads-cross-check",
              sharded ? ", sharded" : "");
  bool any_fail = false;
  bool any_vacuous = false;
  for (const FigureResult& r : results) {
    const bool ok = !r.failed() && !r.missing_ref;
    std::printf("  [%s] %-28s %6.2f s  %s%s%s\n", ok ? "ok" : "!!",
                r.fig->name.c_str(), r.wall_seconds, r.status(),
                r.cache_state == "hit" ? "  (cache hit)" : "",
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
