// Shared pieces of the host-measured benchmark (see README.md).
//
// Every workload runs in this one process, driven by one caller, with its
// thread and worker counts pinned to 1.  Layer calls are timed with
// obs::ScopedSpan, so the timed runs (no sink installed) and the traced run
// (an obs::Collect in scope) run the same code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "linalg/operator.hpp"
#include "obs/counters.hpp"

namespace kpm::obs {
struct Report;
}

namespace hostbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< measuring budget of the run
  bool trace = false;      ///< per-layer traced run instead of the timed runs
  bool smoke = false;      ///< tiny inputs, two operations: checks the output shape only
  bool corrupt = false;    ///< negative control: corrupt one result before its check
  std::string trace_dir;   ///< where a traced run writes its Perfetto trace
};

/// What one workload run reports: operation counts and metric values by
/// name (units live in the metric registry in main.cpp).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
};

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Largest element of `v`; 0 when empty.  Throughputs report the best
/// repetition of a run: on a shared host, neighbours slow whole stretches
/// of a run, so the fastest repetition of identical work moves less from
/// run to run than the median one.
[[nodiscard]] double best(const std::vector<double>& v);

/// Nearest-rank percentile `q` in [0, 1] of `v`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Seconds on the steady clock since an arbitrary fixed epoch.
[[nodiscard]] double now_seconds();

/// Per-operation seed derived from the workload seed: every operation of a
/// run draws fresh random vectors, and the same workload seed always
/// yields the same sequence.
[[nodiscard]] std::uint64_t operation_seed(std::uint64_t workload_seed, std::uint64_t op);

/// Best-of-repetitions STREAM-triad rate a[i] = b[i] + s * c[i] over three
/// arrays totalling `total_bytes`, in GB/s (24 bytes per element, the
/// STREAM convention: write-allocate traffic is not counted).  Runs single
/// threaded for about `budget_seconds`.
[[nodiscard]] double triad_gbs(std::size_t total_bytes, double budget_seconds);

/// Adds the traced run's STREAM-triad ceilings (at `kernel_working_set`
/// bytes and at an L2-sized working set) and the kernel's share of the
/// first to `out`, which must already hold linalg.kernel_gbs.
void add_triad_metrics(std::size_t kernel_working_set, bool smoke, Outcome& out);

/// Adds trace.wall_s, unattributed_s and unattributed_frac: `wall` minus
/// the sum of the listed top-level layer times of `out`.
void add_attribution(double wall, const std::vector<std::string>& layers, Outcome& out);

/// Divides every value accumulated in `out` so far by `passes`: traced
/// passes add their layer times up, the metrics report one pass.
void average_layers(std::size_t passes, Outcome& out);

/// What `run_pass_pairs` measured.
struct PassPairs {
  std::size_t traced_passes = 0;
  double traced_wall = 0.0;    ///< mean wall of one traced pass
  double overhead_frac = 0.0;  ///< median traced wall / median untraced wall - 1
};

/// After one warm-up pass, runs untraced (`pass(false)`) and traced
/// (`pass(true)`) passes in pairs, alternating which comes first, until half
/// of the run's budget is spent (at least one pair).  `pass` returns the
/// wall seconds of the workload's end-to-end work.
template <typename Pass>
PassPairs run_pass_pairs(const Options& options, Pass&& pass) {
  std::vector<double> plain, traced;
  const double start = now_seconds();
  (void)pass(false);
  do {
    const bool traced_first = traced.size() % 2 == 1;
    if (traced_first) traced.push_back(pass(true));
    plain.push_back(pass(false));
    if (!traced_first) traced.push_back(pass(true));
  } while (!options.smoke && now_seconds() - start < 0.5 * options.seconds);
  PassPairs p;
  p.traced_passes = traced.size();
  for (const double w : traced) p.traced_wall += w / static_cast<double>(traced.size());
  p.overhead_frac = median(traced) / median(plain) - 1.0;
  return p;
}

/// Re-issues, call by call, the random fills and the recursion kernels the
/// CPU reference engine runs for the first `instances` instances of `p`,
/// adding their times to rng.fill_s / linalg.kernel_s and their work to
/// `work`.
void replay_cpu_engine(const kpm::linalg::MatrixOperator& op, const kpm::core::MomentParams& p,
                       std::size_t instances, kpm::obs::CounterSet& work, Outcome& out);

/// Adds linalg.kernel_gbs / linalg.kernel_gflops (the replayed kernel work
/// `work` of `passes` passes over their time) and core.driver_s, the part of
/// core.engine_s that is neither kernel nor RNG.
void add_engine_split(const kpm::obs::CounterSet& work, std::size_t passes, Outcome& out);

/// Adds the per-pass obs counters of `passes` traced passes in `report`.
void add_counters(const kpm::obs::Report& report, double passes, Outcome& out);

/// Writes `report` as a Perfetto trace into --trace-dir, when one is set.
void write_trace(const Options& o, const kpm::obs::Report& report);

Outcome run_dos_large(const Options& options);
Outcome run_paper_fig5(const Options& options);
Outcome run_serve_replay(const Options& options);

}  // namespace hostbench
