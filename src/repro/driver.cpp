#include "repro/driver.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "analysis/sweep_runner.hpp"
#include "lint/lint.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "repro/sha256.hpp"
#include "sta/session.hpp"
#include "sta/sta.hpp"

// Default reference directory: the source tree's bench/refs, baked in at
// configure time so the driver works from any build directory.
#ifndef EMC_REPRO_REFS_DIR
#define EMC_REPRO_REFS_DIR "bench/refs"
#endif

namespace emc::repro {

namespace {

using analysis::json_quote;

enum class Verb { kRun, kList, kLint, kSta };

struct CliOptions {
  Verb verb = Verb::kRun;
  std::vector<std::string> names;
  bool all = false;
  bool help = false;
  // run
  bool check = false;
  bool lint = false;
  bool sta = false;
  bool seed_set = false;
  std::uint64_t seed = 0;
  unsigned jobs = 1;
  std::vector<unsigned> cross_threads;  // empty = single run, default pool
  std::string manifest_path;
  std::string refs_dir = EMC_REPRO_REFS_DIR;
  std::uint64_t trials_override = 0;
  // lint / sta
  bool json = false;
  bool rules = false;
  std::vector<std::string> only;
  std::string csv_path;  // sta only
};

struct ArtifactRecord {
  std::string file;
  std::uint64_t bytes = 0;
  std::string sha256;
};

/// How a check came out, ordered so that the worst of several is their
/// std::max: a failure outranks vacuousness (nothing was verified), so
/// CI surfaces the real defect first.
enum class Outcome { kPass, kVacuous, kFail };

/// The exit-code contract every verb shares.
int exit_code(Outcome o) {
  return o == Outcome::kFail ? 1 : o == Outcome::kVacuous ? 2 : 0;
}

const char* mark(Outcome o) {
  return o == Outcome::kFail ? "!!" : o == Outcome::kVacuous ? "??" : "ok";
}

/// A check that did not pass: the manifest status it stands for, how
/// bad it is, and the explanation printed below the figure's summary.
struct Verdict {
  const char* status;
  Outcome outcome;
  std::string detail;
};

struct FigureResult {
  const Figure* fig = nullptr;
  double wall_seconds = 0.0;
  std::uint64_t seed = 0;
  sim::Kernel::Stats stats;
  std::vector<ArtifactRecord> artifacts;
  std::vector<Verdict> verdicts;  // in run order; empty = every check passed

  /// The first verdict with the worst outcome, so a failing check is
  /// never filed under a vacuous one that ran before it; "ok" when every
  /// check passed.
  const Verdict& worst() const {
    static const Verdict kOk{"ok", Outcome::kPass, ""};
    const Verdict* w = &kOk;
    for (const Verdict& v : verdicts) {
      if (v.outcome > w->outcome) w = &v;
    }
    return *w;
  }
  Outcome outcome() const { return worst().outcome; }
  const char* status() const { return worst().status; }
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

std::string indent(const std::string& text) {
  std::string out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out += "    " + line + "\n";
  return out;
}

// --- static analysis: the lint and sta verbs and the --lint/--sta gates ---

enum class Analyzer { kLint, kSta };

/// One figure under one analyzer. The verbs and the run gates all
/// evaluate a figure through analyze(), so a throwing hook, a missing
/// model and a vacuous timing model mean the same on every path.
struct Analysis {
  Outcome outcome = Outcome::kPass;
  std::string problem;  // why there is no report: no hook, or it threw
  std::unique_ptr<lint::Session> session;  // the report; null on a problem

  const sta::Session* timing() const {
    return dynamic_cast<const sta::Session*>(session.get());
  }
};

Analysis analyze(const Figure& fig, Analyzer an,
                 const std::vector<std::string>& only) {
  Analysis a;
  const std::string what = an == Analyzer::kLint ? "lint" : "timing";
  if (fig.lint == nullptr) {
    // Vacuous-pass refusal: a figure selected for analysis but carrying
    // no model would otherwise "pass" without a single rule running.
    a.outcome = Outcome::kVacuous;
    a.problem = "no " + what + " model registered";
    return a;
  }
  try {
    if (an == Analyzer::kLint) {
      a.session = std::make_unique<lint::Session>();
    } else {
      a.session = std::make_unique<sta::Session>();
    }
    fig.lint(*a.session);
  } catch (const std::exception& e) {
    a.problem = what + " hook threw: " + e.what();
  } catch (...) {
    a.problem = what + " hook threw a non-std exception";
  }
  if (!a.problem.empty()) {
    // A throwing hook fails the figure; it must not take the rest of an
    // --all run down with it.
    a.outcome = Outcome::kFail;
    a.session.reset();
    return a;
  }
  if (!only.empty()) a.session->filter_rules(only);
  // A timing model that records bundles with no arcs behind them is not
  // timing closure: absence of evidence exits 2, like a missing model.
  const bool vacuous = a.timing() != nullptr && a.timing()->vacuous();
  a.outcome = !a.session->clean() ? Outcome::kFail
              : vacuous           ? Outcome::kVacuous
                                  : Outcome::kPass;
  return a;
}

/// The report below an analysis's summary line: vacuous timing subjects,
/// then the session's text when it did not pass or carries informational
/// findings.
std::string analysis_body(const Analysis& a) {
  std::string out;
  if (const sta::Session* t = a.timing()) {
    for (const auto& s : t->vacuous_subjects()) {
      out += "vacuous timing model: " + s +
             " records bundles but no arcs reach them\n";
    }
  }
  if (a.session != nullptr &&
      (a.outcome != Outcome::kPass ||
       a.session->findings(lint::Severity::kInfo) > 0)) {
    out += a.session->text();
  }
  return out;
}

void print_analysis(const Figure& f, const Analysis& a) {
  const char* m = mark(a.outcome);
  if (a.session == nullptr) {
    std::printf("  [%s] %-28s %s\n", m, f.name.c_str(), a.problem.c_str());
    return;
  }
  const lint::Session& s = *a.session;
  const std::size_t active = s.findings(lint::Severity::kWarning);
  if (const sta::Session* t = a.timing()) {
    std::printf(
        "  [%s] %-28s %zu subject(s), %zu arc(s), %zu active finding(s)\n", m,
        f.name.c_str(), s.results().size(), t->arc_count(), active);
  } else {
    std::printf("  [%s] %-28s %zu subject(s), %zu active finding(s)\n", m,
                f.name.c_str(), s.results().size(), active);
  }
  std::fputs(analysis_body(a).c_str(), stdout);
}

std::string analysis_json(const Figure& f, const Analysis& a) {
  std::string out = "{\"figure\":" + json_quote(f.name) + ",\"clean\":";
  out += a.outcome == Outcome::kPass ? "true" : "false";
  if (a.session == nullptr) {
    return out + ",\"error\":" + json_quote(a.problem) + "}";
  }
  if (const sta::Session* t = a.timing()) {
    out += ",\"vacuous\":";
    out += t->vacuous() ? "true" : "false";
    out += ",\"arcs\":" + std::to_string(t->arc_count());
  }
  return out + ",\"subjects\":" + a.session->json() + "}";
}

/// Append `t`'s margin curve to the sta verb's CSV, one row per point,
/// keyed by figure.
void write_margin_rows(std::ofstream& csv, const Figure& f,
                       const sta::Session& t) {
  const std::string rows = t.margin_csv();
  for (std::size_t pos = rows.find('\n') + 1; pos < rows.size();) {
    const std::size_t end = rows.find('\n', pos) + 1;
    csv << f.name << ',' << rows.substr(pos, end - pos);
    pos = end;
  }
}

/// A RunContext for `opt` at sweep-thread count `threads`.
RunContext make_context(const CliOptions& opt, std::uint64_t seed,
                        unsigned threads) {
  RunContext ctx;
  ctx.seed = seed;
  ctx.threads = threads;
  ctx.trials_override = opt.trials_override;
  return ctx;
}

/// Run `fig`'s body under `ctx`. A throw or a nonzero return adds a
/// run_failed verdict to `r`, with `what` naming the attempt in its
/// detail: a figure body that throws must not take the rest of an --all
/// run down with it.
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
  r.verdicts.push_back(
      {"run_failed", Outcome::kFail, "    " + what + error + "\n"});
  return false;
}

/// Run one figure end to end: execute, inventory artifacts, check refs,
/// cross-check thread counts.
FigureResult run_figure(const Figure& fig, const CliOptions& opt) {
  FigureResult r;
  r.fig = &fig;
  r.seed = opt.seed_set ? opt.seed : fig.default_seed;

  // Static gates before any simulation time is spent: a structurally
  // broken circuit (lint) or a bundled-data margin that dies somewhere in
  // the operating range (sta) fails in milliseconds with a named rule
  // instead of minutes later with a watchdog verdict.
  for (const Analyzer an : {Analyzer::kLint, Analyzer::kSta}) {
    if (!(an == Analyzer::kLint ? opt.lint : opt.sta)) continue;
    const Analysis a = analyze(fig, an, {});
    if (a.outcome == Outcome::kPass) continue;
    const char* failed = an == Analyzer::kLint ? "lint_failed" : "sta_failed";
    r.verdicts.push_back(
        {a.outcome == Outcome::kFail ? failed : "vacuous_model", a.outcome,
         indent(a.problem.empty() ? analysis_body(a) : a.problem)});
    return r;
  }

  const std::vector<unsigned>& threads = opt.cross_threads;

  // Vacuous-pass refusal, before any simulation time is spent: a
  // declared-but-absent reference means the gate would silently check
  // nothing. Exit 2, like the perf gate on a mode-mismatched baseline.
  // When no declared ref can be read and no thread cross-check is
  // asked, the run could check nothing at all, so it is not started.
  std::vector<bool> ref_found(fig.refs.size(), false);
  if (opt.check) {
    for (std::size_t i = 0; i < fig.refs.size(); ++i) {
      const std::string ref_path = opt.refs_dir + "/" + fig.refs[i];
      ref_found[i] = static_cast<bool>(std::ifstream(ref_path));
      if (!ref_found[i]) {
        r.verdicts.push_back(
            {"missing_ref", Outcome::kVacuous,
             indent("declared ref missing on disk: " + ref_path)});
      }
    }
    if (!fig.refs.empty() && threads.size() < 2 &&
        std::find(ref_found.begin(), ref_found.end(), true) ==
            ref_found.end()) {
      return r;
    }
  }

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
    rec.sha256 = sha256_file_hex(file, &rec.bytes);
    if (rec.sha256.empty()) {
      r.verdicts.push_back({"missing_artifact", Outcome::kFail,
                            indent("declared artifact not produced: " + file)});
      continue;
    }
    r.artifacts.push_back(std::move(rec));
  }
  if (r.artifacts.size() < fig.artifacts.size()) return r;

  if (opt.check) {
    for (std::size_t i = 0; i < fig.refs.size(); ++i) {
      if (!ref_found[i]) continue;  // its verdict was filed before the run
      const std::string& file = fig.refs[i];
      const std::string ref_path = opt.refs_dir + "/" + file;
      std::string ref_bytes;
      if (!read_file(ref_path, &ref_bytes)) {
        r.verdicts.push_back(
            {"missing_ref", Outcome::kVacuous,
             indent("declared ref vanished during the run: " + ref_path)});
        continue;
      }
      std::string produced;
      if (!read_file(file, &produced) || produced != ref_bytes) {
        r.verdicts.push_back(
            {"ref_mismatch", Outcome::kFail,
             diff_summary(ref_path, ref_bytes, file, produced)});
      }
    }
  }

  // Determinism cross-check: re-run at each further thread count and
  // demand artifacts with the first run's digests. The first run's files
  // are set aside on disk (renamed next to themselves, so names stay
  // disjoint under --jobs), read back only for the diff a divergence
  // prints, and put back at the end: the files left are the ones the
  // manifest's digests describe, and no aside copy remains.
  if (threads.size() < 2) return r;
  std::vector<std::string> aside(fig.artifacts.size());
  for (std::size_t i = 0; i < aside.size(); ++i) {
    aside[i] = fig.artifacts[i] + ".threads-cross-check";
    std::rename(fig.artifacts[i].c_str(), aside[i].c_str());
  }
  for (std::size_t t = 1; t < threads.size(); ++t) {
    const std::string at = "threads=" + std::to_string(threads[t]);
    if (!run_body(fig, make_context(opt, r.seed, threads[t]),
                  "re-run at " + at, r)) {
      break;
    }
    for (std::size_t i = 0; i < aside.size(); ++i) {
      const std::string& file = fig.artifacts[i];
      const std::string digest = sha256_file_hex(file);
      if (digest.empty()) {
        r.verdicts.push_back({"missing_artifact", Outcome::kFail,
                              indent("artifact vanished on re-run: " + file)});
        continue;
      }
      if (digest == r.artifacts[i].sha256) continue;
      std::string first;
      std::string again;
      read_file(aside[i], &first);
      read_file(file, &again);
      const std::string at0 = "threads=" + std::to_string(threads.front());
      r.verdicts.push_back(
          {"threads_mismatch", Outcome::kFail,
           "    " + file + " differs between " + at0 + " and " + at + ":\n" +
               diff_summary(at0, first, at, again)});
    }
  }
  for (std::size_t i = 0; i < aside.size(); ++i) {
    std::rename(aside[i].c_str(), fig.artifacts[i].c_str());
  }
  return r;
}

bool write_manifest(const std::string& path, const CliOptions& opt,
                    const std::vector<FigureResult>& results) {
  std::ofstream out(path, std::ios::binary);
  out << "{\n";
  out << "  \"tool\": \"emc_repro\",\n";
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
    out << "      \"name\": " << json_quote(r.fig->name) << ",\n";
    out << "      \"title\": " << json_quote(r.fig->title) << ",\n";
    out << "      \"status\": \"" << r.status() << "\",\n";
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
      out << (a ? "," : "") << "\n        {\"file\": " << json_quote(rec.file)
          << ", \"bytes\": " << rec.bytes
          << ", \"sha256\": \"" << rec.sha256 << "\"}";
    }
    out << (r.artifacts.empty() ? "]" : "\n      ]") << "\n    }";
  }
  out << (results.empty() ? "]" : "\n  ]") << "\n}\n";
  // Close before checking: a full device fails on the final flush.
  out.close();
  if (!out) {
    std::fprintf(stderr, "emc_repro: cannot write manifest %s\n",
                 path.c_str());
  }
  return static_cast<bool>(out);
}

void print_usage() {
  std::printf(
      "emc_repro — reproduce, lint and time the registered figures\n"
      "  emc_repro list\n"
      "  emc_repro [run] <figure>...|--all [run flags]\n"
      "  emc_repro lint <figure>...|--all [--json] [--only RULE,...]\n"
      "  emc_repro sta <figure>...|--all [--json] [--only RULE,...] "
      "[--csv FILE]\n"
      "  emc_repro lint|sta --rules\n"
      "run flags: --check  --threads-cross-check A,B  --manifest OUT.json\n"
      "           --jobs N  --seed N  --trials N  --refs DIR  --lint  --sta\n"
      "exit codes: 0 = everything selected was checked and clean; 1 = active\n"
      "findings or failures; 2 = usage error or vacuous run (nothing "
      "checked)\n");
}

int list_figures() {
  const auto figs = Registry::instance().figures();
  std::printf("%zu registered figure(s):\n", figs.size());
  for (const Figure* f : figs) {
    std::printf("  %-28s %s%s\n", f->name.c_str(), f->title.c_str(),
                f->lint != nullptr ? "  [lint model]" : "");
    for (const std::string& a : f->artifacts) {
      bool is_ref = false;
      for (const std::string& ref : f->refs) {
        if (ref == a) is_ref = true;
      }
      std::printf("      %s %s\n", is_ref ? "[ref]" : "[art]", a.c_str());
    }
  }
  return 0;
}

/// Resolve --all or the named figures against the registry. Returns 0
/// and fills *out, or prints why and returns 2: nothing was selected, a
/// name is unknown, or the registry is empty.
int select_figures(const CliOptions& opt, std::vector<const Figure*>* out) {
  if (!opt.all && opt.names.empty()) {
    print_usage();
    return 2;
  }
  if (opt.all) {
    *out = Registry::instance().figures();
  } else {
    for (const std::string& n : opt.names) {
      const Figure* f = Registry::instance().find(n);
      if (f == nullptr) {
        std::fprintf(stderr, "emc_repro: unknown figure \"%s\" (try list)\n",
                     n.c_str());
        return 2;
      }
      out->push_back(f);
    }
  }
  if (out->empty()) {
    std::fprintf(stderr, "emc_repro: nothing registered\n");
    return 2;
  }
  return 0;
}

/// A whole unsigned decimal token within T's range: "4" parses; "",
/// "4x", "-1", "+3", " 7" and out-of-range values do not.
template <typename T>
bool parse_count(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Split a comma-separated flag value into its non-empty tokens.
std::vector<std::string> split_list(const std::string& arg) {
  std::vector<std::string> out;
  std::stringstream ss(arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(tok);
  }
  return out;
}

/// Returns false on malformed input. The first argument may name the
/// verb; without one the verb is run.
bool parse_args(const std::vector<std::string>& args, CliOptions* opt) {
  std::size_t i = 0;
  if (!args.empty()) {
    const std::string& verb = args[0];
    i = 1;
    if (verb == "list") {
      opt->verb = Verb::kList;
    } else if (verb == "lint") {
      opt->verb = Verb::kLint;
    } else if (verb == "sta") {
      opt->verb = Verb::kSta;
    } else if (verb != "run") {
      i = 0;
    }
  }
  const bool run = opt->verb == Verb::kRun;
  const bool analyzer = opt->verb == Verb::kLint || opt->verb == Verb::kSta;
  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    std::string v;
    const auto value = [&] {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "emc_repro: %s needs a value\n", a.c_str());
        return false;
      }
      v = args[++i];
      return true;
    };
    const auto reject = [&](const char* want) {
      std::fprintf(stderr, "emc_repro: %s wants %s, got \"%s\"\n", a.c_str(),
                   want, v.c_str());
      return false;
    };
    if (a == "--help" || a == "-h") {
      opt->help = true;
      return true;
    } else if (a == "--all") {
      opt->all = true;
    } else if (run && a == "--check") {
      opt->check = true;
    } else if (run && a == "--lint") {
      opt->lint = true;
    } else if (run && a == "--sta") {
      opt->sta = true;
    } else if (run && a == "--seed") {
      if (!value()) return false;
      if (!parse_count(v, &opt->seed)) return reject("an unsigned integer");
      opt->seed_set = true;
    } else if (run && a == "--jobs") {
      if (!value()) return false;
      if (!parse_count(v, &opt->jobs) || opt->jobs == 0) {
        return reject("a positive integer");
      }
    } else if (run && a == "--threads-cross-check") {
      if (!value()) return false;
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        unsigned n = 0;
        if (!parse_count(tok, &n) || n == 0) {
          return reject("positive integers A,B");
        }
        opt->cross_threads.push_back(n);
      }
      if (opt->cross_threads.size() < 2) return reject("positive integers A,B");
    } else if (run && a == "--manifest") {
      if (!value()) return false;
      opt->manifest_path = v;
    } else if (run && a == "--refs") {
      if (!value()) return false;
      opt->refs_dir = v;
    } else if (run && a == "--trials") {
      if (!value()) return false;
      if (!parse_count(v, &opt->trials_override) ||
          opt->trials_override == 0) {
        return reject("a positive integer");
      }
    } else if (analyzer && a == "--json") {
      opt->json = true;
    } else if (analyzer && a == "--rules") {
      opt->rules = true;
    } else if (analyzer && a == "--only") {
      if (!value()) return false;
      opt->only = split_list(v);
      if (opt->only.empty()) return reject("RULE[,RULE...]");
    } else if (opt->verb == Verb::kSta && a == "--csv") {
      if (!value()) return false;
      opt->csv_path = v;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "emc_repro: unknown flag %s\n", a.c_str());
      return false;
    } else {
      opt->names.push_back(a);
    }
  }
  return true;
}

int print_rules(Analyzer an) {
  std::printf("rule  severity  summary\n");
  for (const lint::RuleInfo& r : an == Analyzer::kLint ? lint::rule_catalog()
                                                       : sta::rule_catalog()) {
    std::printf("%-5s %-9s %s\n", r.id, lint::to_string(r.severity),
                r.summary);
  }
  std::printf(
      "\nsuppression: Circuit::suppress(rule, subject, reason) at the build\n"
      "site waives one finding; the reason is mandatory and appears in\n"
      "reports. Informational findings never fail a run.\n");
  return 0;
}

/// The lint and sta verbs: analyze the selected figures without
/// simulating anything and report text or JSON (sta: plus the margin
/// curves as CSV).
int analyze_figures(const CliOptions& opt) {
  const Analyzer an =
      opt.verb == Verb::kLint ? Analyzer::kLint : Analyzer::kSta;
  if (opt.rules) return print_rules(an);
  std::vector<const Figure*> selected;
  if (const int rc = select_figures(opt, &selected); rc != 0) return rc;

  std::ofstream csv;
  if (!opt.csv_path.empty()) {
    csv.open(opt.csv_path);
    if (!csv) {
      std::fprintf(stderr, "emc_repro: cannot write %s\n",
                   opt.csv_path.c_str());
      return 2;
    }
    csv << "figure,circuit,bundle,vdd,corner,trigger_s,datapath_s,ratio,"
           "limit,ok\n";
  }

  Outcome worst = Outcome::kPass;
  // The report's "tool" keeps the analyzer's historical name, so report
  // consumers read the same JSON as before.
  std::string json = an == Analyzer::kLint ? "{\"tool\":\"emc_lint\""
                                           : "{\"tool\":\"emc_sta\"";
  json += ",\"figures\":[";
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Figure& f = *selected[i];
    const Analysis a = analyze(f, an, opt.only);
    worst = std::max(worst, a.outcome);
    if (csv.is_open() && a.timing() != nullptr) {
      write_margin_rows(csv, f, *a.timing());
    }
    if (opt.json) {
      json += (i ? "," : "") + analysis_json(f, a);
    } else {
      print_analysis(f, a);
    }
  }
  if (opt.json) std::printf("%s]}\n", json.c_str());
  if (csv.is_open()) {
    csv.close();  // a full device fails on the final flush
    if (!csv) {
      std::fprintf(stderr, "emc_repro: cannot write %s\n",
                   opt.csv_path.c_str());
      return 2;
    }
  }
  return exit_code(worst);
}

/// The run verb: execute the selected figures and gate them.
int run_figures(const CliOptions& opt) {
  if (opt.trials_override != 0 && opt.check) {
    std::fprintf(stderr,
                 "emc_repro: --check compares full-trial refs; combining it "
                 "with --trials would verify nothing\n");
    return 2;
  }

  std::vector<const Figure*> selected;
  if (const int rc = select_figures(opt, &selected); rc != 0) return rc;

  // --trials only means something to replicated figures and --seed to
  // figures that register a seed; anything else would silently run its
  // fixed workload while the manifest recorded the override.
  for (const Figure* f : selected) {
    const char* missing = nullptr;
    if (opt.trials_override != 0 && !f->replicated()) {
      missing = "no trial model (--trials needs one)";
    } else if (opt.seed_set && f->default_seed == 0) {
      missing = "no seed (--seed needs one)";
    }
    if (missing != nullptr) {
      std::fprintf(stderr, "emc_repro: figure \"%s\" registers %s\n",
                   f->name.c_str(), missing);
      return 2;
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
  Outcome worst = Outcome::kPass;
  for (const FigureResult& r : results) {
    std::printf("  [%s] %-28s %6.2f s  %s\n", mark(r.outcome()),
                r.fig->name.c_str(), r.wall_seconds, r.status());
    for (const Verdict& v : r.verdicts) std::fputs(v.detail.c_str(), stdout);
    worst = std::max(worst, r.outcome());
  }

  if (!opt.manifest_path.empty()) {
    if (!write_manifest(opt.manifest_path, opt, results)) return 2;
    std::printf("  manifest: %s\n", opt.manifest_path.c_str());
  }

  // A real drift/run failure (1) outranks missing-ref bookkeeping (2):
  // a developer told only "record the missing ref" would re-run and
  // discover the drift one iteration too late.
  return exit_code(worst);
}

}  // namespace

int driver_run(const std::vector<std::string>& args) {
  CliOptions opt;
  if (!parse_args(args, &opt)) {
    print_usage();
    return 2;
  }
  if (opt.help) {
    print_usage();
    return 0;
  }
  switch (opt.verb) {
    case Verb::kList:
      return list_figures();
    case Verb::kLint:
    case Verb::kSta:
      return analyze_figures(opt);
    case Verb::kRun:
      break;
  }
  return run_figures(opt);
}

int driver_main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return driver_run(args);
}

}  // namespace emc::repro
