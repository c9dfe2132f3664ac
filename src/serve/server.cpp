#include "serve/server.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/table.hpp"
#include "core/ldos.hpp"
#include "core/moments_cpu.hpp"
#include "cpumodel/cpu_spec.hpp"
#include "cpumodel/roofline.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/parallel.hpp"
#include "obs/trace.hpp"

namespace kpm::serve {

const char* to_string(ShedPolicy p) noexcept {
  return p == ShedPolicy::Reject ? "reject" : "degrade";
}

ShedPolicy shed_policy_from_string(const std::string& name) {
  if (name == "reject") return ShedPolicy::Reject;
  if (name == "degrade") return ShedPolicy::Degrade;
  KPM_FAIL("unknown shed policy '" + name + "' (reject|degrade)");
}

const char* to_string(BatchPricing p) noexcept {
  return p == BatchPricing::SerialRoofline ? "serial-roofline" : "gpu-timeline";
}

BatchPricing batch_pricing_from_string(const std::string& name) {
  if (name == "serial-roofline" || name == "roofline") return BatchPricing::SerialRoofline;
  if (name == "gpu-timeline" || name == "gpu") return BatchPricing::GpuTimeline;
  KPM_FAIL("unknown batch pricing '" + name + "' (serial-roofline|gpu-timeline)");
}

void ServeConfig::validate() const {
  KPM_REQUIRE(workers >= 1, "ServeConfig: need at least one worker");
  KPM_REQUIRE(max_queue >= 1, "ServeConfig: max_queue must be >= 1");
  KPM_REQUIRE(max_batch >= 1, "ServeConfig: max_batch must be >= 1");
  KPM_REQUIRE(degrade_floor >= 2, "ServeConfig: degrade_floor must be >= 2");
}

/// One registered model: rescaled Hamiltonian, its transform, fingerprint
/// and the current operators registered for sigma queries.  Heap-allocated
/// so the MatrixOperator views stay valid as the registry grows.
struct Server::Model {
  std::string name;
  linalg::CrsMatrix h_tilde;
  linalg::SpectralTransform transform{{-1.0, 1.0}, 0.0};
  std::unique_ptr<linalg::MatrixOperator> op;
  std::uint64_t fingerprint = 0;

  struct Current {
    linalg::CrsMatrix a;
    std::unique_ptr<linalg::MatrixOperator> op;
    std::uint64_t fingerprint = 0;
  };
  std::map<std::size_t, Current> currents;

  [[nodiscard]] const Current& current(std::size_t axis) const {
    const auto it = currents.find(axis);
    KPM_REQUIRE(it != currents.end(), "serve: model '" + name +
                                          "' has no current operator for axis " +
                                          std::to_string(axis));
    return it->second;
  }
};

/// One admitted, waiting request (everything the scheduler needs is
/// precomputed at admission so batch decisions are pure simulated-state
/// lookups).
struct Server::Queued {
  /// Queue service order: priority desc, then arrival, then id.
  [[nodiscard]] static bool before(const Queued& a, const Queued& b) noexcept {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.arrival != b.arrival) return a.arrival < b.arrival;
    return a.id < b.id;
  }

  std::size_t index = 0;  ///< into the run's request vector
  std::uint64_t id = 0;
  double arrival = 0.0;
  int priority = 0;
  double deadline = 0.0;
  std::size_t served_n = 0;
  bool degraded = false;
  MomentKey key;
  double engine_seconds = 0.0;       ///< modeled miss cost
  double reconstruct_seconds = 0.0;  ///< modeled per-request fan-out cost
};

namespace {

/// Most LDOS cache misses computed in one site group: a batch head plus up
/// to seven queued requests.  8 is one of the SpMMV kernels' compile-time
/// table widths (register-resident accumulators); a width of 16 was no
/// faster per site and served fewer serve-replay requests per second
/// (docs/performance.md, "LDOS site groups").
constexpr std::size_t kLdosGroupWidth = 8;

std::size_t reconstruct_points(const Request& req) {
  if (const auto* s = std::get_if<SigmaRequest>(&req)) return s->sigma.points;
  return base_of(req).reconstruct.points;
}

/// Modeled engine seconds of one cold moment computation — always the
/// *serial* CPU reference roofline, independent of the engine hint and of
/// any thread count, so the simulated schedule (and therefore the replay
/// fingerprint) cannot depend on the worker count.  LDOS runs a single
/// deterministic recursion; sigma's two-sided recursion plus the N x N
/// dot matrix is approximated as two reference runs plus the dot traffic.
double modeled_engine_seconds(RequestKind kind, const linalg::MatrixOperator& op,
                              std::size_t n, std::size_t instances) {
  switch (kind) {
    case RequestKind::Dos:
      return core::modeled_reference_seconds(op, n, instances);
    case RequestKind::Ldos:
      return core::modeled_reference_seconds(op, n, 1);
    case RequestKind::Sigma: {
      const double dd = static_cast<double>(op.dim());
      const double nn = static_cast<double>(n);
      const double k = static_cast<double>(instances);
      cpumodel::CpuWorkload dots;
      dots.flops = 2.0 * dd * nn * nn * k;
      dots.bytes_streamed = 2.0 * dd * sizeof(double) * nn * nn * k;
      dots.working_set_bytes = 2.0 * dd * sizeof(double) * nn;
      return 2.0 * core::modeled_reference_seconds(op, n, instances) +
             cpumodel::model_cpu_time(cpumodel::CpuSpec::core_i7_930(), dots).seconds;
    }
  }
  return 0.0;
}

/// Modeled per-request reconstruction seconds (the cheap half): a Clenshaw
/// -style points * N (or points * N^2 for sigma) flop model on the same
/// roofline.
double modeled_reconstruct_seconds(RequestKind kind, std::size_t n, std::size_t points) {
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(points);
  cpumodel::CpuWorkload w;
  w.flops = kind == RequestKind::Sigma ? 8.0 * p * nn * nn : 8.0 * p * nn;
  w.bytes_streamed = (kind == RequestKind::Sigma ? nn * nn : nn) * sizeof(double) + 16.0 * p;
  w.working_set_bytes = w.bytes_streamed;
  return cpumodel::model_cpu_time(cpumodel::CpuSpec::core_i7_930(), w).seconds;
}

std::uint64_t response_checksum(const Response& r) {
  std::uint64_t h = kFnvOffset;
  h = checksum_doubles(r.curve.energy, h);
  h = checksum_doubles(r.curve.density, h);
  h = checksum_doubles(r.sigma.energy, h);
  h = checksum_doubles(r.sigma.sigma, h);
  return h;
}

}  // namespace

Server::Server(ServeConfig config)
    : config_(config),
      pool_((config.validate(), config.workers)),
      cache_(config.cache_bytes, config.cache_policy) {}

Server::~Server() = default;

void Server::register_model(const std::string& name, linalg::CrsMatrix h) {
  KPM_REQUIRE(!name.empty(), "serve: model name must not be empty");
  KPM_REQUIRE(models_.find(name) == models_.end(),
              "serve: model '" + name + "' is already registered");
  auto model = std::make_unique<Model>();
  model->name = name;
  {
    linalg::MatrixOperator raw(h);
    model->transform = linalg::make_spectral_transform(raw);
  }
  model->h_tilde = linalg::rescale(h, model->transform);
  model->op = std::make_unique<linalg::MatrixOperator>(model->h_tilde);
  model->fingerprint = fingerprint_crs(model->h_tilde, model->transform);
  models_.emplace(name, std::move(model));
}

void Server::register_current(const std::string& model_name, std::size_t axis,
                              linalg::CrsMatrix a) {
  const auto it = models_.find(model_name);
  KPM_REQUIRE(it != models_.end(), "serve: unknown model '" + model_name + "'");
  Model& model = *it->second;
  KPM_REQUIRE(model.currents.find(axis) == model.currents.end(),
              "serve: current operator for axis " + std::to_string(axis) +
                  " is already registered");
  KPM_REQUIRE(a.rows() == model.h_tilde.rows(),
              "serve: current operator dimension mismatch");
  // Map nodes are address-stable, so the operator view built over the
  // emplaced matrix stays valid for the model's lifetime.
  Model::Current& current = model.currents[axis];
  current.a = std::move(a);
  current.op = std::make_unique<linalg::MatrixOperator>(current.a);
  current.fingerprint = fingerprint_crs(current.a, model.transform);
}

bool Server::has_model(const std::string& name) const noexcept {
  return models_.find(name) != models_.end();
}

const Server::Model& Server::model_of(const std::string& name) const {
  const auto it = models_.find(name);
  KPM_REQUIRE(it != models_.end(), "serve: unknown model '" + name + "'");
  return *it->second;
}

MomentKey Server::moment_key(const Request& req, const Model& m, std::size_t served_n,
                             bool apply_pricing) const {
  const RequestBase& b = base_of(req);
  MomentKey key;
  key.kind = kind_of(req);
  key.num_moments = served_n;
  switch (key.kind) {
    case RequestKind::Dos:
      key.content = m.fingerprint;
      key.random_vectors = b.moments.random_vectors;
      key.realizations = b.moments.realizations;
      key.seed = b.moments.seed;
      key.vector_kind = static_cast<int>(b.moments.vector_kind);
      // Engine hint picks the functional compute path, and only classes
      // with tested bit-identity may share cached bytes.  A gpu-timeline
      // shard runs every DoS batch on the simulated GPU engine, so its
      // cache entries live in the gpu class regardless of the hint.
      key.engine_class = apply_pricing && config_.pricing == BatchPricing::GpuTimeline
                             ? EngineClass::Gpu
                             : engine_class_of(b.engine);
      break;
    case RequestKind::Ldos:
      // Deterministic recursion: no stochastic fields, one code path
      // regardless of the engine hint.
      key.content = m.fingerprint;
      key.detail = std::get<LdosRequest>(req).site;
      key.engine_class = EngineClass::Ref64;
      break;
    case RequestKind::Sigma: {
      const auto& s = std::get<SigmaRequest>(req);
      const std::uint64_t pair[2] = {m.fingerprint, m.current(s.axis).fingerprint};
      key.content = fnv1a64(pair, sizeof(pair));
      key.detail = s.axis;
      key.random_vectors = b.moments.random_vectors;
      key.realizations = b.moments.realizations;
      key.seed = b.moments.seed;
      key.vector_kind = static_cast<int>(b.moments.vector_kind);
      key.engine_class = EngineClass::Ref64;
      break;
    }
  }
  return key;
}

MomentKey Server::key_of(const Request& req) const {
  const RequestBase& b = base_of(req);
  return moment_key(req, model_of(b.model), b.moments.num_moments,
                    /*apply_pricing=*/false);
}

std::vector<Response> Server::run(const std::vector<Request>& requests) {
  obs::ScopedSpan run_span("serve.run");

  // Validate up front so the event loop cannot fail halfway through.
  std::unordered_set<std::uint64_t> seen_ids;
  for (const Request& req : requests) {
    const RequestBase& b = base_of(req);
    KPM_REQUIRE(seen_ids.insert(b.id).second,
                "serve: duplicate request id " + std::to_string(b.id));
    const Model& m = model_of(b.model);
    KPM_REQUIRE(b.moments.num_moments >= 2, "serve: request needs at least two moments");
    if (const auto* l = std::get_if<LdosRequest>(&req)) {
      KPM_REQUIRE(l->site < m.op->dim(), "serve: ldos site out of range");
    } else if (const auto* s = std::get_if<SigmaRequest>(&req)) {
      (void)m.current(s->axis);
      b.moments.validate();
    } else {
      b.moments.validate();
    }
  }

  // Arrival order: (arrival, id).  Everything downstream is a function of
  // this order plus modeled costs — never of wall time or worker count.
  std::vector<std::size_t> order(requests.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const RequestBase& ra = base_of(requests[a]);
    const RequestBase& rb = base_of(requests[b]);
    if (ra.arrival_seconds != rb.arrival_seconds)
      return ra.arrival_seconds < rb.arrival_seconds;
    return ra.id < rb.id;
  });

  const std::uint64_t cache_hits0 = cache_.stats().hits;
  stats_ = ServeStats{};
  stats_.requests = requests.size();

  std::vector<Response> resp_by_index(requests.size());
  std::vector<Queued> queue;
  std::size_t next = 0;
  double t_free = 0.0;
  std::size_t batch_index = 0;

  auto admit = [&](std::size_t index) {
    const Request& req = requests[index];
    const RequestBase& b = base_of(req);
    const Model& m = model_of(b.model);
    const RequestKind kind = kind_of(req);
    obs::add(obs::Counter::ServeRequests, 1.0);
    obs::record(obs::Histo::ServeQueueDepth, queue.size());

    Response& resp = resp_by_index[index];
    resp.id = b.id;
    resp.kind = kind;
    resp.engine = core::to_string(b.engine);
    resp.arrival_seconds = b.arrival_seconds;

    std::size_t served_n = b.moments.num_moments;
    bool degraded = false;
    bool admitted = true;
    const std::size_t depth = queue.size();
    if (depth >= 2 * config_.max_queue) {
      // Hard bound: even degraded work would arrive too late to matter.
      admitted = false;
    } else if (depth >= config_.max_queue) {
      if (config_.policy == ShedPolicy::Degrade &&
          served_n / 2 >= std::max<std::size_t>(config_.degrade_floor, 2)) {
        served_n /= 2;
        degraded = true;
        stats_.degraded += 1;
        obs::add(obs::Counter::ServeShedDegraded, 1.0);
      } else {
        admitted = false;
      }
    }
    if (!admitted) {
      obs::ScopedSpan span("serve.shed");
      stats_.rejected += 1;
      obs::add(obs::Counter::ServeShedRejected, 1.0);
      resp.status = ResponseStatus::Rejected;
      // Retry-after: time until the channel frees plus the modeled cost of
      // everything already queued ahead of a retry.
      double backlog = std::max(0.0, t_free - b.arrival_seconds);
      for (const Queued& q : queue) backlog += q.engine_seconds + q.reconstruct_seconds;
      resp.retry_after_seconds = backlog;
      return;
    }

    const std::size_t instances =
        kind == RequestKind::Ldos ? 1 : b.moments.instances();
    Queued q;
    q.index = index;
    q.id = b.id;
    q.arrival = b.arrival_seconds;
    q.priority = b.priority;
    q.deadline = b.deadline_seconds;
    q.served_n = served_n;
    q.degraded = degraded;
    q.key = moment_key(req, m, served_n, /*apply_pricing=*/true);
    // Always the roofline estimate; a gpu-timeline shard reprices the batch
    // from the engine's timeline at service time (admission and retry-after
    // hints stay estimates, as in a real fleet).
    q.engine_seconds = modeled_engine_seconds(kind, *m.op, served_n, instances);
    q.reconstruct_seconds =
        modeled_reconstruct_seconds(kind, served_n, reconstruct_points(req));
    queue.push_back(q);
  };

  // DoS or sigma moments plus the timeline price when this shard runs the
  // simulated GPU engine (timeline_priced == false means "charge the
  // roofline estimate").  LDOS misses run as site groups (below).
  struct ComputedMu {
    std::vector<double> mu;
    double engine_seconds = 0.0;
    bool timeline_priced = false;
  };
  auto compute_mu = [&](const Request& req, const Model& m,
                        std::size_t served_n) -> ComputedMu {
    core::MomentParams p = base_of(req).moments;
    p.num_moments = served_n;
    if (const auto* s = std::get_if<SigmaRequest>(&req))
      return {core::conductivity_moments(*m.op, *m.current(s->axis).op, p).mu, 0.0, false};
    core::MomentComputeOptions opt;
    if (config_.pricing == BatchPricing::GpuTimeline) {
      opt.engine = core::EngineKind::Gpu;
      opt.gpu = config_.gpu;
      core::MomentResult result = core::compute_moments(*m.op, p, opt);
      // model_seconds is the gpusim device critical path plus context
      // setup — the engine also emitted its timeline into the report.
      return {std::move(result.mu), result.model_seconds, true};
    }
    opt.engine = base_of(req).engine;
    opt.cpu_threads = static_cast<int>(config_.workers);
    return {core::compute_moments(*m.op, p, opt).mu, 0.0, false};
  };

  // Rows of queued LDOS requests computed ahead of time in another head's
  // site group, keyed by moment key.  A row leaves when a request with its
  // key reaches the head and misses the cache, or when its last queued
  // request expires, so it never outlives the queue.
  std::unordered_map<MomentKey, std::vector<double>, MomentKeyHash> ldos_rows;

  // The moments of the LDOS head qorder[0], which missed the cache: its
  // precomputed row, or one site group of the head plus up to
  // kLdosGroupWidth - 1 queued LDOS requests taken in service order.  A
  // member shares the head's model content and served N, has a key of its
  // own within the group, is not resident in the cache and has no row yet.
  // Only the head's row is returned; the others wait in ldos_rows, and the
  // modeled schedule still charges each request its own miss.
  auto ldos_head_moments = [&](const std::vector<std::size_t>& qorder,
                               const Model& m) -> std::vector<double> {
    const MomentKey& head = queue[qorder[0]].key;
    if (const auto it = ldos_rows.find(head); it != ldos_rows.end()) {
      std::vector<double> row = std::move(it->second);
      ldos_rows.erase(it);
      return row;
    }
    std::vector<const MomentKey*> group{&head};
    for (std::size_t k = 1; k < qorder.size() && group.size() < kLdosGroupWidth; ++k) {
      const MomentKey& key = queue[qorder[k]].key;
      if (key.kind != RequestKind::Ldos || key.content != head.content ||
          key.num_moments != head.num_moments || cache_.contains(key) ||
          ldos_rows.contains(key) ||
          std::any_of(group.begin(), group.end(), [&](const MomentKey* g) { return *g == key; }))
        continue;
      group.push_back(&key);
    }
    std::vector<std::size_t> sites;
    for (const MomentKey* key : group) sites.push_back(static_cast<std::size_t>(key->detail));
    const std::size_t n = head.num_moments;
    const std::vector<double> rows = core::ldos_moments_sites(*m.op, sites, n);
    const auto row = [&](std::size_t j) {
      return std::vector<double>(rows.begin() + static_cast<std::ptrdiff_t>(j * n),
                                 rows.begin() + static_cast<std::ptrdiff_t>((j + 1) * n));
    };
    for (std::size_t j = 1; j < group.size(); ++j) ldos_rows.emplace(*group[j], row(j));
    return row(0);
  };

  auto serve_batch = [&] {
    const double t0 = t_free;

    // Shed queued requests whose deadline passed while waiting.
    for (auto it = queue.begin(); it != queue.end();) {
      if (it->deadline > 0.0 && it->deadline < t0) {
        obs::ScopedSpan span("serve.shed");
        Response& resp = resp_by_index[it->index];
        resp.status = ResponseStatus::Expired;
        resp.start_seconds = t0;
        resp.finish_seconds = t0;
        stats_.expired += 1;
        obs::add(obs::Counter::ServeShedExpired, 1.0);
        const MomentKey key = it->key;
        it = queue.erase(it);
        // Its precomputed row goes too, unless a queued request still has its key.
        const auto same_key = [&](const Queued& q) { return q.key == key; };
        if (ldos_rows.contains(key) && std::none_of(queue.begin(), queue.end(), same_key))
          ldos_rows.erase(key);
      } else {
        ++it;
      }
    }
    if (queue.empty()) return;

    // Head + coalescing mates: queue positions in service order, the batch
    // is the head plus every same-key entry up to max_batch.
    std::vector<std::size_t> qorder(queue.size());
    std::iota(qorder.begin(), qorder.end(), std::size_t{0});
    std::stable_sort(qorder.begin(), qorder.end(), [&](std::size_t a, std::size_t b) {
      return Queued::before(queue[a], queue[b]);
    });
    std::vector<std::size_t> members;
    members.push_back(qorder[0]);
    for (std::size_t k = 1; k < qorder.size() && members.size() < config_.max_batch; ++k) {
      if (queue[qorder[k]].key == queue[qorder[0]].key) members.push_back(qorder[k]);
    }

    obs::ScopedSpan batch_span("serve.batch");
    stats_.batches += 1;
    stats_.coalesced += members.size() - 1;
    obs::add(obs::Counter::ServeBatches, 1.0);
    obs::add(obs::Counter::ServeCoalesced, static_cast<double>(members.size() - 1));
    obs::record(obs::Histo::ServeBatchOccupancy, members.size());

    const Queued& head = queue[members[0]];
    const Request& head_req = requests[head.index];
    const Model& model = model_of(base_of(head_req).model);

    const std::vector<double>* mu = cache_.find(head.key);
    const bool hit = mu != nullptr;
    double engine_cost = head.engine_seconds;
    if (!hit) {
      std::vector<double> fresh;
      if (head.key.kind == RequestKind::Ldos) {
        fresh = ldos_head_moments(qorder, model);
      } else {
        ComputedMu computed = compute_mu(head_req, model, head.served_n);
        if (computed.timeline_priced) {
          engine_cost = computed.engine_seconds;
          obs::add(obs::Counter::ServeGpuPricedBatches, 1.0);
        }
        fresh = std::move(computed.mu);
      }
      mu = &cache_.insert(head.key, std::move(fresh), engine_cost);
    }

    double service = hit ? 0.0 : engine_cost;
    for (const std::size_t mi : members) service += queue[mi].reconstruct_seconds;
    const double finish = t0 + service;

    for (const std::size_t mi : members) {
      obs::ScopedSpan span("serve.request");
      const Queued& q = queue[mi];
      Response& resp = resp_by_index[q.index];
      resp.status = ResponseStatus::Ok;
      resp.cache_hit = hit;
      resp.coalesced = mi != members[0];
      resp.degraded = q.degraded;
      resp.batch = batch_index;
      resp.batch_occupancy = members.size();
      resp.num_moments = q.served_n;
      resp.start_seconds = t0;
      resp.finish_seconds = finish;
      obs::record(obs::Histo::ServeWaitNs, obs::seconds_to_ns_ticks(t0 - q.arrival));
      obs::record(obs::Histo::ServeServiceNs, obs::seconds_to_ns_ticks(service));
    }

    // Reconstruction fan-out: each member applies its own damping kernel /
    // grid to the shared moments.  sharded_parallel_for keeps the counter
    // and histogram totals bit-identical at any lane count; TraceDetach keeps
    // lane 0's chunk (which runs on this thread) from recording a span tree
    // that depends on the worker count.
    obs::TraceDetach no_spans;
    obs::sharded_parallel_for(
        pool_, members.size(), [&](std::size_t /*lane*/, std::size_t begin, std::size_t end) {
          for (std::size_t k = begin; k < end; ++k) {
            const Queued& q = queue[members[k]];
            const Request& req = requests[q.index];
            Response& resp = resp_by_index[q.index];
            if (const auto* s = std::get_if<SigmaRequest>(&req)) {
              core::ConductivityMoments cm;
              cm.num_moments = q.served_n;
              cm.mu = *mu;
              resp.sigma = core::reconstruct_conductivity(cm, model.transform, s->sigma);
            } else {
              resp.curve =
                  core::reconstruct_dos(*mu, model.transform, base_of(req).reconstruct);
            }
          }
        });

    // Remove served members (descending positions keep indices valid).
    std::vector<std::size_t> doomed(members);
    std::sort(doomed.begin(), doomed.end(), std::greater<>());
    for (const std::size_t mi : doomed) queue.erase(queue.begin() + static_cast<long>(mi));

    t_free = finish;
    batch_index += 1;
  };

  while (next < order.size() || !queue.empty()) {
    if (queue.empty() && next < order.size())
      t_free = std::max(t_free, base_of(requests[order[next]]).arrival_seconds);
    while (next < order.size() &&
           base_of(requests[order[next]]).arrival_seconds <= t_free) {
      admit(order[next]);
      ++next;
    }
    if (queue.empty()) continue;
    serve_batch();
  }

  stats_.cache = cache_.stats();
  stats_.cache_entries = cache_.entries();
  stats_.cache_bytes_used = cache_.bytes_used();
  (void)cache_hits0;

  std::vector<Response> responses = std::move(resp_by_index);
  std::sort(responses.begin(), responses.end(),
            [](const Response& a, const Response& b) { return a.id < b.id; });

  // Build the kpm.serve/1 section for report embedding.  Everything in it
  // is simulated-clock accounting or bit-exact checksums; the worker count
  // is deliberately absent so fingerprints are worker-invariant.
  std::ostringstream os;
  os << "{\n      \"schema\": \"kpm.serve/1\",\n";
  os << "      \"config\": {\"max_queue\": " << config_.max_queue
     << ", \"max_batch\": " << config_.max_batch << ", \"policy\": \""
     << to_string(config_.policy) << "\", \"degrade_floor\": " << config_.degrade_floor
     << ", \"cache_bytes\": " << config_.cache_bytes << ", \"cache_policy\": \""
     << to_string(config_.cache_policy) << "\", \"pricing\": \""
     << to_string(config_.pricing) << "\"},\n";
  os << "      \"requests\": " << stats_.requests << ", \"batches\": " << stats_.batches
     << ", \"coalesced\": " << stats_.coalesced << ",\n";
  os << "      \"shed\": {\"rejected\": " << stats_.rejected
     << ", \"degraded\": " << stats_.degraded << ", \"expired\": " << stats_.expired
     << "},\n";
  os << "      \"cache\": {\"hits\": " << stats_.cache.hits
     << ", \"misses\": " << stats_.cache.misses
     << ", \"evictions\": " << stats_.cache.evictions
     << ", \"admit_refused\": " << stats_.cache.admit_refused
     << ", \"cost_saved_ns\": " << stats_.cache.cost_saved_ns
     << ", \"entries\": " << stats_.cache_entries
     << ", \"bytes_used\": " << stats_.cache_bytes_used << "},\n";
  os << "      \"responses\": [";
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response& r = responses[i];
    const std::size_t points =
        r.kind == RequestKind::Sigma ? r.sigma.energy.size() : r.curve.energy.size();
    if (i > 0) os << ",";
    os << "\n        {\"id\": " << r.id << ", \"kind\": \"" << to_string(r.kind)
       << "\", \"status\": \"" << to_string(r.status) << "\", \"cache_hit\": "
       << (r.cache_hit ? "true" : "false")
       << ", \"coalesced\": " << (r.coalesced ? "true" : "false")
       << ", \"degraded\": " << (r.degraded ? "true" : "false") << ",\n"
       << "         \"batch\": "
       << (r.batch == kNoBatch ? std::string("-1") : std::to_string(r.batch))
       << ", \"occupancy\": " << r.batch_occupancy << ", \"n\": " << r.num_moments
       << ", \"engine\": \"" << r.engine << "\", \"points\": " << points << ",\n"
       << "         \"arrival_s\": " << obs::json_number(r.arrival_seconds)
       << ", \"start_s\": " << obs::json_number(r.start_seconds)
       << ", \"finish_s\": " << obs::json_number(r.finish_seconds)
       << ", \"retry_after_s\": " << obs::json_number(r.retry_after_seconds) << ",\n"
       << "         \"checksum\": \"" << strprintf("0x%016llx",
              static_cast<unsigned long long>(response_checksum(r)))
       << "\"}";
  }
  os << (responses.empty() ? "]" : "\n      ]");
  os << "\n    }";
  section_json_ = os.str();

  return responses;
}

std::string Server::section_json() const { return section_json_; }

}  // namespace kpm::serve
