// Deterministic KPM serving scheduler.
//
// `Server` accepts a vector of requests carrying simulated arrival times
// and replays them through a discrete-event loop over a *simulated* clock
// (the same philosophy as the gpusim timing model): queueing, batching,
// shedding and all reported latencies are functions of the arrival times
// and deterministic modeled service costs only — never of wall time or the
// worker count.  Workers accelerate the functional compute (moment engines,
// reconstruction fan-out), whose results are bit-identical at any thread
// count by the library's existing determinism properties.  Consequence:
// replaying a workload at 1, 2, 4 or 7 workers produces byte-identical
// responses and an identical deterministic report fingerprint.
//
// Pipeline per service round ("batch"):
//   1. admit every request that arrived while the channel was busy,
//      applying admission control (bounded queue, reject-or-degrade);
//   2. shed queued requests whose deadline already passed;
//   3. pick the head (priority desc, arrival, id) and coalesce up to
//      max_batch - 1 queued requests with the SAME moment key (same model
//      content, kind, N, stochastic parameters, engine class) into one
//      batch — they share one engine run / cache entry and differ only in
//      reconstruction parameters;
//   4. serve: moment cache lookup, engine run on a miss, then per-request
//      reconstruction fanned out across the worker pool with sharded
//      deterministic counters.  An LDOS miss runs as one blocked site
//      group with up to seven queued LDOS misses of the same model and N;
//      their moments wait, outside the cache, until each reaches the head,
//      so lookups, inserts and the schedule are those of one run per miss;
//   5. advance the simulated clock by the modeled service time — the CPU
//      reference roofline for the moments (worker-independent by design)
//      plus a small modeled reconstruction cost per member.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/moments_gpu.hpp"
#include "linalg/crs_matrix.hpp"
#include "linalg/operator.hpp"
#include "linalg/spectral_transform.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"

namespace kpm::serve {

/// What admission control does with a request that finds the queue full.
enum class ShedPolicy {
  Reject,   ///< shed it outright (Response::status = Rejected)
  Degrade,  ///< halve N (down to degrade_floor) and admit flagged degraded
};

/// "reject" or "degrade".
[[nodiscard]] const char* to_string(ShedPolicy p) noexcept;

/// Inverse of `to_string`.  Throws kpm::Error for unknown names.
[[nodiscard]] ShedPolicy shed_policy_from_string(const std::string& name);

/// How the engine half of a batch is priced on the simulated clock.
/// `SerialRoofline` uses the CPU reference roofline for every kind (the
/// original single-server behavior).  `GpuTimeline` marks a GPU-engine
/// shard: DoS batches run the simulated GPU engine and take their price
/// from its gpusim timeline (device critical path plus context setup),
/// emitting the device timeline into the active report; LDOS and sigma
/// stay host-pipelined on the roofline.  Both are deterministic and
/// worker-invariant.
enum class BatchPricing : std::uint8_t { SerialRoofline, GpuTimeline };

/// "serial-roofline" or "gpu-timeline".
[[nodiscard]] const char* to_string(BatchPricing p) noexcept;

/// Inverse of `to_string`.  Throws kpm::Error for unknown names.
[[nodiscard]] BatchPricing batch_pricing_from_string(const std::string& name);

struct ServeConfig {
  /// Worker-pool lanes for the functional compute.  Has NO effect on
  /// responses, accounting or the report fingerprint — only on wall time.
  std::size_t workers = 1;
  std::size_t max_queue = 8;   ///< soft bound: beyond it the shed policy applies
  std::size_t max_batch = 4;   ///< coalescer cap (requests per service round)
  ShedPolicy policy = ShedPolicy::Degrade;
  std::size_t degrade_floor = 16;      ///< minimum N a degraded admit may have
  std::size_t cache_bytes = 1 << 20;   ///< moment-cache byte budget
  CachePolicy cache_policy = CachePolicy::Lru;
  BatchPricing pricing = BatchPricing::SerialRoofline;
  core::GpuEngineConfig gpu{};  ///< device simulated when pricing == GpuTimeline

  void validate() const;
};

/// Aggregate accounting of one `run` (exact integers).
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;  ///< requests beyond each batch's head
  std::uint64_t rejected = 0;
  std::uint64_t degraded = 0;
  std::uint64_t expired = 0;
  CacheStats cache;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes_used = 0;
};

/// The serving front end.  Register models once, then `run` request
/// vectors against them; the moment cache persists across runs.
class Server {
 public:
  explicit Server(ServeConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers `name` with the UNSCALED Hamiltonian `h`: spectral bounds
  /// and rescaling happen here, once, so every request against the model
  /// shares the transform (and the content fingerprint).
  void register_model(const std::string& name, linalg::CrsMatrix h);

  /// Registers the current operator of `axis` for sigma requests against
  /// `model` (which must already be registered).
  void register_current(const std::string& model, std::size_t axis, linalg::CrsMatrix a);

  [[nodiscard]] bool has_model(const std::string& name) const noexcept;

  /// Canonical content-addressed moment key of `req` at its requested N: a
  /// pure function of the request and the registered model content, never
  /// of this server's pricing/policy knobs.  This is what the fleet router
  /// hashes, so every shard agrees on where a key lives.
  [[nodiscard]] MomentKey key_of(const Request& req) const;

  /// Serves `requests` on the simulated clock.  Request ids must be unique;
  /// every request produces exactly one response; responses are returned
  /// sorted by id.  Records serve_* counters/histograms and trace spans
  /// into the calling thread's obs sinks.
  [[nodiscard]] std::vector<Response> run(const std::vector<Request>& requests);

  /// Accounting of the most recent `run` (cache fields are lifetime totals).
  [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

  /// Pre-rendered `kpm.serve/1` JSON section describing the most recent
  /// `run`: config (workers excluded — they must not enter fingerprints),
  /// shed/cache accounting and one record per response with a bit-exact
  /// curve checksum.  Embed via Report::sections under the name "serve".
  [[nodiscard]] std::string section_json() const;

 private:
  struct Model;
  struct Queued;

  const Model& model_of(const std::string& name) const;
  [[nodiscard]] MomentKey moment_key(const Request& req, const Model& m,
                                     std::size_t served_n, bool apply_pricing) const;

  ServeConfig config_;
  common::ThreadPool pool_;
  MomentCache cache_;
  std::map<std::string, std::unique_ptr<Model>> models_;
  ServeStats stats_;
  std::string section_json_;
};

}  // namespace kpm::serve
