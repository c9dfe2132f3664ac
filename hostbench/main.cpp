// kpm_hostbench: one workload of the host-measured benchmark per run.
//
//   kpm_hostbench --workload dos-large|paper-fig5|serve-replay --seed N
//                 --seconds S --trace 0|1 [--smoke] [--corrupt] [--trace-dir DIR]
//
// Prints provenance and every metric by name and unit as "# " lines, then
// one JSON line {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics for --trace 0, the per-layer metrics for --trace 1.
// Exit codes: 0 all checks passed, 1 a check failed, 2 bad usage or error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "hostbench.hpp"

namespace {

using hostbench::Options;
using hostbench::Outcome;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the "end_to_end" and "per_layer" metrics of
// BENCHMARK.json, in the same order (run.py --self-test compares them).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"moments_per_s", "moments/s"},
    {"served_per_s", "requests/s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"lattice.build_s", "s"},
    {"linalg.bounds_s", "s"},
    {"linalg.rescale_s", "s"},
    {"linalg.kernel_s", "s"},
    {"linalg.kernel_gbs", "GB/s"},
    {"linalg.kernel_gflops", "GFLOP/s"},
    {"linalg.triad_gbs", "GB/s"},
    {"linalg.triad_bytes", "B"},
    {"linalg.triad_l2_gbs", "GB/s"},
    {"linalg.triad_l2_bytes", "B"},
    {"linalg.kernel_bw_frac", "ratio"},
    {"linalg.fused_calls", "count"},
    {"linalg.fused_bytes", "B"},
    {"rng.fill_s", "s"},
    {"rng.elements", "count"},
    {"core.engine_s", "s"},
    {"core.driver_s", "s"},
    {"core.reconstruct_s", "s"},
    {"core.reconstruct_points", "count"},
    {"core.ldos_s", "s"},
    {"serve.parse_s", "s"},
    {"serve.register_s", "s"},
    {"serve.run_s", "s"},
    {"serve.engine_s", "s"},
    {"serve.scheduler_s", "s"},
    {"serve.hit_ratio", "ratio"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.cache_evictions", "count"},
    {"serve.batches", "count"},
    {"serve.coalesced", "count"},
    {"serve.degraded", "count"},
    {"serve.shed", "count"},
    {"serve.sim_p50_s", "s"},
    {"serve.sim_p99_s", "s"},
    {"gpusim.compute_s", "s"},
    {"gpusim.ns_per_global_byte", "ns/B"},
    {"gpusim.kernel_launches", "count"},
    {"gpusim.global_bytes", "B"},
    {"cpumodel.model_s", "s"},
    {"gpusim.model_s", "s"},
    {"paper.model_speedup", "ratio"},
    {"trace.wall_s", "s"},
    {"unattributed_s", "s"},
    {"unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "kpm_hostbench: %s\n"
               "usage: kpm_hostbench --workload dos-large|paper-fig5|serve-replay --seed N\n"
               "                     --seconds S --trace 0|1 [--smoke] [--corrupt]\n"
               "                     [--trace-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || end == nullptr || *end != '\0')
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  return static_cast<std::uint64_t>(v);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    const auto take = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = take();
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, take());
    } else if (arg == "--seconds") {
      const std::uint64_t s = parse_u64(arg, take());
      if (s < 1 || s > 600) usage("--seconds must be in [1, 600]");
      o.seconds = static_cast<double>(s);
    } else if (arg == "--trace") {
      const std::string t = take();
      if (t != "0" && t != "1") usage("--trace must be 0 or 1");
      o.trace = t == "1";
      have_trace = true;
    } else if (arg == "--trace-dir") {
      o.trace_dir = take();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else {
      usage("unknown argument '" + arg + "'");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!have_trace) usage("--trace is required");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  Outcome outcome;
  try {
    if (options.workload == "dos-large") {
      outcome = hostbench::run_dos_large(options);
    } else if (options.workload == "paper-fig5") {
      outcome = hostbench::run_paper_fig5(options);
    } else if (options.workload == "serve-replay") {
      outcome = hostbench::run_serve_replay(options);
    } else {
      usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kpm_hostbench: %s\n", e.what());
    return 2;
  }

  std::printf("# provenance {\"cpu\": \"%s\", \"nproc\": %ld, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"threads\": 1, \"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"smoke\": %d}\n",
              json_escape(cpu_model()).c_str(), sysconf(_SC_NPROCESSORS_ONLN), HOSTBENCH_COMPILER,
              HOSTBENCH_BUILD_TYPE, options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? 1 : 0);

  // Per-layer metrics a workload does not exercise read 0; every
  // end-to-end metric must have been measured.
  const std::vector<MetricSpec>& specs = options.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = outcome.values.find(spec.name);
    if (it == outcome.values.end() && !options.trace) {
      std::fprintf(stderr, "kpm_hostbench: metric %s was not measured\n", spec.name);
      return 2;
    }
    const double value = it == outcome.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "kpm_hostbench: metric %s is not finite\n", spec.name);
      return 2;
    }
    std::printf("# %-28s %-14.6g %s\n", spec.name, value, spec.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("# attempted %llu operations, failed %llu\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
