// perfbench_emc — the program the figure-level benchmark (perfbench/run.py)
// measures. One pass of a workload is one process:
//
//   perfbench_emc setup OUT.json
//   perfbench_emc untraced OUT.json <emc_repro args...>
//   perfbench_emc traced OUT.json mc_yield|survivability TRIALS THREADS
//   perfbench_emc traced OUT.json repro_suite REFS_DIR FIGURE...
//
// `setup` stops once set-up is done (a set-up time probe). `untraced`
// hands its arguments to the emc_repro driver (emc::repro::driver_run),
// so it is exactly `emc_repro <args>`. `traced` runs the workload's
// replica (replicas.hpp). All write OUT.json with
// the steady-clock stamps `ready` (set-up done: static figure
// registration and the shared DelayTable) and `done`, the compiler, and,
// for traced runs, the per-layer metrics, artifact digests, per-figure
// event counts and failures. Artifacts go to the working directory.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "device/delay_table.hpp"
#include "device/tech.hpp"
#include "repro/driver.hpp"
#include "replicas.hpp"
#include "trace.hpp"

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool write_result(const std::string& path, double ready, double done, int rc,
                  const perfbench::TracedResult* traced) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"ready\": %.9f, \"done\": %.9f, \"rc\": %d", ready, done,
               rc);
  std::fprintf(f, ", \"compiler\": %s", json_string(kCompiler).c_str());
  if (traced != nullptr) {
    const char* sep = "";
    std::fprintf(f, ", \"attempted\": %zu, \"metrics\": {", traced->attempted);
    for (const auto& [name, v] : traced->metrics) {
      std::fprintf(f, "%s%s: %.17g", sep, json_string(name).c_str(), v);
      sep = ", ";
    }
    std::fprintf(f, "}, \"artifacts\": {");
    sep = "";
    for (const auto& [file, sha] : traced->artifacts) {
      std::fprintf(f, "%s%s: %s", sep, json_string(file).c_str(),
                   json_string(sha).c_str());
      sep = ", ";
    }
    std::fprintf(f, "}, \"events\": {");
    sep = "";
    for (const auto& [fig, n] : traced->events) {
      std::fprintf(f, "%s%s: %llu", sep, json_string(fig).c_str(),
                   static_cast<unsigned long long>(n));
      sep = ", ";
    }
    std::fprintf(f, "}, \"failures\": [");
    sep = "";
    for (const std::string& msg : traced->failures) {
      std::fprintf(f, "%s%s", sep, json_string(msg).c_str());
      sep = ", ";
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_emc setup OUT.json\n"
               "       perfbench_emc untraced OUT.json <emc_repro args...>\n"
               "       perfbench_emc traced OUT.json mc_yield|survivability "
               "TRIALS THREADS\n"
               "       perfbench_emc traced OUT.json repro_suite REFS_DIR "
               "FIGURE...\n");
  return 2;
}

unsigned long long parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *end != '\0') {
    std::fprintf(stderr, "perfbench_emc: not an integer: %s\n", s);
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  // Set-up the first scenario would otherwise pay: the process-wide EKV
  // delay table. Static figure registration has already run.
  emc::device::DelayTable::shared_for(emc::device::Tech::umc90());
  const double ready = perfbench::monotonic_now();

  if (argc < 3) return usage();
  const std::string mode = argv[1];
  const std::string out_path = argv[2];
  const std::vector<std::string> rest(argv + 3, argv + argc);

  if (mode == "setup") {
    return write_result(out_path, ready, ready, 0, nullptr) ? 0 : 2;
  }
  if (mode == "untraced") {
    const int rc = emc::repro::driver_run(rest);
    const double done = perfbench::monotonic_now();
    return write_result(out_path, ready, done, rc, nullptr) ? rc : 2;
  }
  if (mode != "traced" || rest.empty()) return usage();

  perfbench::TracedResult traced;
  const std::string& workload = rest[0];
  if ((workload == "mc_yield" || workload == "survivability") &&
      rest.size() == 3) {
    const auto trials = static_cast<std::size_t>(parse_u64(rest[1].c_str()));
    const auto threads = static_cast<unsigned>(parse_u64(rest[2].c_str()));
    traced = workload == "mc_yield"
                 ? perfbench::trace_mc_yield(trials, threads)
                 : perfbench::trace_survivability(trials, threads);
  } else if (workload == "repro_suite" && rest.size() >= 3) {
    traced = perfbench::trace_repro_suite({rest.begin() + 2, rest.end()},
                                          rest[1]);
  } else {
    return usage();
  }
  const double done = perfbench::monotonic_now();
  const int rc = traced.failures.empty() ? 0 : 1;
  return write_result(out_path, ready, done, rc, &traced) ? rc : 2;
}
