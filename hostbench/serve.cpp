// serve-replay: a seeded synthetic serve trace, serialised to a
// kpm.serve.workload/1 document and replayed the way `kpmcli serve
// --replay` replays a workload file: parse, register the models on a
// one-worker Server, run.  Open loop on the simulated clock; on the host one
// caller replays the whole trace, so the host metric is throughput.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/highlevel.hpp"
#include "core/ldos.hpp"
#include "core/moments_cpu.hpp"
#include "core/reconstruct.hpp"
#include "hostbench.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/report.hpp"
#include "serve/cache.hpp"
#include "serve/fleet/workload.hpp"
#include "serve/replay.hpp"
#include "serve/server.hpp"

namespace hostbench {
namespace {

using namespace kpm;

/// The trace: Poisson arrivals, DoS:LDOS about 2:1, DoS keys from a small
/// seed x N population (mostly cache hits), LDOS sites drawn over the whole
/// lattice (mostly misses, which evict), large reconstruction grids.  The
/// arrivals outpace the modeled service several times over, so the queue
/// builds on the modeled clock and coalescing and degrade act in every
/// trace, in much the same measure whatever the seed; 1200 requests keep
/// the seed-to-seed difference in host work small.  No request can be shed:
/// the server rejects only at a queue depth of 2 * max_queue, at least the
/// trace's request count, which the queue never holds; and no request
/// carries a deadline.
std::string synthesize_workload_json(const Options& o) {
  serve::SynthConfig c;
  c.label = "hostbench-serve-replay";
  c.seed = o.seed;
  c.count = o.smoke ? 60 : 1200;
  c.process = serve::ArrivalProcess::Poisson;
  c.rate = 3000.0;
  c.dos_weight = 2.0;
  c.ldos_weight = 1.0;
  c.sigma_weight = 0.0;
  c.moment_choices = {128, 256};
  c.point_choices = {1024, 2048, 4096};
  c.random_vectors = 2;
  c.realizations = 2;
  c.seed_population = 3;
  c.deadline_fraction = 0.0;

  serve::ModelSpec model;
  model.name = "cubic16";
  model.lattice = "cubic";
  model.edge = o.smoke ? 8 : 16;

  serve::ServeConfig server;
  server.workers = 1;
  server.max_queue = (c.count + 1) / 2;
  server.cache_bytes = 128 << 10;
  return serve::workload_json(serve::synthesize_workload(c, {model}, server));
}

/// One replay of the workload document, as a user runs it.
struct Replay {
  serve::ReplayWorkload workload;
  std::vector<serve::Response> responses;
  serve::ServeStats stats;
  std::vector<double> setup_s;  ///< every set-up of the replay; the last one is run
  double parse_s = 0.0;         ///< parse, build and register of the last set-up
  double build_s = 0.0;
  double register_s = 0.0;
  double run_s = 0.0;
};

/// Sets the replay up `setups` times back to back -- parse, a one-worker
/// Server, model registration -- and runs the last set-up's server.  The
/// previous set-up is freed outside the timing.
Replay replay_once(const std::string& json, std::size_t setups) {
  Replay r;
  std::unique_ptr<serve::Server> server;
  for (std::size_t i = 0; i < setups; ++i) {
    server.reset();
    r.workload = {};
    r.build_s = 0.0;
    r.register_s = 0.0;
    r.setup_s.push_back(obs::timed("setup", [&] {
      r.parse_s = obs::timed("serve.parse", [&] { r.workload = serve::parse_workload(json); });
      KPM_REQUIRE(r.workload.config.workers == 1, "serve-replay pins one worker");
      server = std::make_unique<serve::Server>(r.workload.config);
      // register_models, split so the lattice build is timed on its own.
      for (const serve::ModelSpec& spec : r.workload.models) {
        linalg::CrsMatrix h;
        r.build_s += obs::timed("lattice.build", [&] { h = serve::build_model_matrix(spec); });
        r.register_s += obs::timed("serve.register",
                                   [&] { server->register_model(spec.name, std::move(h)); });
      }
    }));
  }
  r.run_s = obs::timed("serve.run", [&] { r.responses = server->run(r.workload.requests); });
  r.stats = server->stats();
  return r;
}

std::uint64_t response_digest(const serve::Response& r) {
  std::uint64_t h = serve::checksum_doubles(r.curve.energy);
  h = serve::checksum_doubles(r.curve.density, h);
  const std::uint64_t fields[] = {r.id,
                                  static_cast<std::uint64_t>(r.status),
                                  r.cache_hit,
                                  r.coalesced,
                                  r.degraded,
                                  r.batch,
                                  r.num_moments};
  h = serve::fnv1a64(fields, sizeof(fields), h);
  const double times[] = {r.start_seconds, r.finish_seconds};
  return serve::checksum_doubles(times, h);
}

std::vector<std::uint64_t> stats_fields(const serve::ServeStats& s) {
  return {s.requests,        s.batches,          s.coalesced,        s.rejected,
          s.degraded,        s.expired,          s.cache.hits,       s.cache.misses,
          s.cache.evictions, s.cache.admit_refused, s.cache_entries, s.cache_bytes_used};
}

/// Instance-moments a served response delivers: R*S stochastic instances
/// (one deterministic recursion for LDOS) at the served N.
double delivered_moments(const serve::Request& req, const serve::Response& r) {
  const double instances = r.kind == serve::RequestKind::Ldos
                               ? 1.0
                               : static_cast<double>(serve::base_of(req).moments.instances());
  return instances * static_cast<double>(r.num_moments);
}

/// H~ and transform of each model, built the way Server::register_model
/// builds them, for re-issuing the server's work directly.
struct DirectModel {
  linalg::SpectralTransform transform{{-1.0, 1.0}, 0.0};
  linalg::CrsMatrix h_tilde;
};

std::map<std::string, DirectModel> direct_models(const serve::ReplayWorkload& w) {
  std::map<std::string, DirectModel> models;
  for (const serve::ModelSpec& spec : w.models) {
    const linalg::CrsMatrix h = serve::build_model_matrix(spec);
    DirectModel& m = models[spec.name];
    m.transform = linalg::make_spectral_transform(linalg::MatrixOperator(h));
    m.h_tilde = linalg::rescale(h, m.transform);
  }
  return models;
}

/// Cache identity of a served request (LDOS ignores the stochastic fields,
/// as the server's moment key does).
std::string moment_key(const serve::Request& req, std::size_t served_n) {
  const serve::RequestBase& b = serve::base_of(req);
  char buf[256];
  if (const auto* l = std::get_if<serve::LdosRequest>(&req)) {
    std::snprintf(buf, sizeof(buf), "%s|ldos|%zu|%zu", b.model.c_str(), served_n, l->site);
  } else {
    std::snprintf(buf, sizeof(buf), "%s|dos|%zu|%zu|%zu|%llu|%d|%d", b.model.c_str(), served_n,
                  b.moments.random_vectors, b.moments.realizations,
                  static_cast<unsigned long long>(b.moments.seed),
                  static_cast<int>(b.moments.vector_kind), static_cast<int>(b.engine));
  }
  return buf;
}

/// Re-issues, outside the server, the replay's work: one moment computation
/// per batch that missed the cache (in batch order, so every hit finds the
/// moments of an earlier miss) and one reconstruction per served response.
/// Returns how many served curves differ bitwise from the direct result.
/// With `out`, adds the layer times, and replays the DoS engines' kernels.
std::uint64_t reissue(const Replay& r, const std::map<std::string, DirectModel>& models,
                      Outcome* out, obs::CounterSet* work) {
  std::map<std::uint64_t, const serve::Request*> by_id;
  for (const serve::Request& req : r.workload.requests) by_id[serve::base_of(req).id] = &req;
  std::vector<const serve::Response*> served;
  for (const serve::Response& resp : r.responses)
    if (resp.status == serve::ResponseStatus::Ok) served.push_back(&resp);
  std::stable_sort(served.begin(), served.end(), [](const auto* a, const auto* b) {
    return a->batch != b->batch ? a->batch < b->batch : a->coalesced < b->coalesced;
  });

  const auto add = [&](const char* layer, double s) {
    if (out != nullptr) out->values[layer] += s;
  };
  std::map<std::string, std::vector<double>> moments;
  std::uint64_t mismatched = 0;
  for (const serve::Response* resp : served) {
    const serve::Request& req = *by_id.at(resp->id);
    const serve::RequestBase& b = serve::base_of(req);
    const DirectModel& model = models.at(b.model);
    const linalg::MatrixOperator op(model.h_tilde);
    const std::string key = moment_key(req, resp->num_moments);
    if (!resp->cache_hit && !resp->coalesced) {
      std::vector<double> mu;
      if (const auto* l = std::get_if<serve::LdosRequest>(&req)) {
        const double s = obs::timed("core.ldos", [&] {
          mu = core::ldos_moments(op, l->site, resp->num_moments);
        });
        add("core.ldos_s", s);
        add("serve.engine_s", s);
      } else {
        core::MomentParams p = b.moments;
        p.num_moments = resp->num_moments;
        core::MomentComputeOptions opt;
        opt.engine = b.engine;
        opt.cpu_threads = 1;
        core::MomentResult result;
        const double s = obs::timed("core.engine", [&] { result = core::compute_moments(op, p, opt); });
        add("core.engine_s", s);
        add("serve.engine_s", s);
        if (out != nullptr) replay_cpu_engine(op, p, result.instances_executed, *work, *out);
        mu = std::move(result.mu);
      }
      moments[key] = std::move(mu);
    }
    const auto it = moments.find(key);
    if (it == moments.end()) {
      ++mismatched;
      continue;
    }
    core::DosCurve curve;
    add("core.reconstruct_s", obs::timed("core.reconstruct", [&] {
          curve = core::reconstruct_dos(it->second, model.transform, b.reconstruct);
        }));
    if (serve::checksum_doubles(curve.density) != serve::checksum_doubles(resp->curve.density) ||
        serve::checksum_doubles(curve.energy) != serve::checksum_doubles(resp->curve.energy))
      ++mismatched;
  }
  return mismatched;
}

/// Counts the replay's operations: every request is one; a request fails
/// when it was not served, when its response differs from the first
/// replay's, or when the accounting of the whole replay differs.
void check_replay(const Replay& r, const std::vector<std::uint64_t>& ref_digests,
                  const std::vector<std::uint64_t>& ref_stats, Outcome& out) {
  out.attempted += r.responses.size();
  if (stats_fields(r.stats) != ref_stats) {
    out.failed += r.responses.size();
    return;
  }
  for (std::size_t i = 0; i < r.responses.size(); ++i) {
    if (r.responses[i].status != serve::ResponseStatus::Ok ||
        response_digest(r.responses[i]) != ref_digests[i])
      out.failed += 1;
  }
}

/// Served count and delivered instance-moments of one replay.
std::pair<double, double> served_work(const Replay& r) {
  std::map<std::uint64_t, const serve::Request*> by_id;
  for (const serve::Request& req : r.workload.requests) by_id[serve::base_of(req).id] = &req;
  double ok = 0.0;
  double moments = 0.0;
  for (const serve::Response& resp : r.responses) {
    if (resp.status != serve::ResponseStatus::Ok) continue;
    ok += 1.0;
    moments += delivered_moments(*by_id.at(resp.id), resp);
  }
  return {ok, moments};
}

}  // namespace

Outcome run_serve_replay(const Options& o) {
  const std::string json = synthesize_workload_json(o);
  Outcome out;
  std::vector<std::uint64_t> ref_digests, ref_stats;
  std::map<std::string, DirectModel> models;
  std::size_t rep = 0;

  // The first replay is the reference every later one must repeat, and is
  // itself checked against the direct re-issue of its work.
  const auto checked_replay = [&](obs::Report* report, std::size_t setups) {
    std::optional<obs::Collect> collect;
    if (report != nullptr) collect.emplace(*report);
    Replay r = replay_once(json, setups);
    collect.reset();
    if (o.corrupt && rep == 1 && !r.responses.empty() && !r.responses[0].curve.density.empty())
      r.responses[0].curve.density[0] = std::nextafter(r.responses[0].curve.density[0], 1e300);
    if (rep == 0) {
      models = direct_models(r.workload);
      for (const serve::Response& resp : r.responses) ref_digests.push_back(response_digest(resp));
      ref_stats = stats_fields(r.stats);
      out.failed += reissue(r, models, nullptr, nullptr);
    }
    check_replay(r, ref_digests, ref_stats, out);
    ++rep;
    return r;
  };

  if (!o.trace) {
    std::vector<double> setup, served, delivered;
    const double start = now_seconds();
    do {
      const Replay r = checked_replay(nullptr, o.smoke ? 2 : 5);
      const auto [ok, moments] = served_work(r);
      setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
      served.push_back(ok / r.run_s);
      delivered.push_back(moments / r.run_s);
    } while (rep < 2 || (!o.smoke && now_seconds() - start < o.seconds));
    out.values["setup_s"] = median(setup);
    out.values["moments_per_s"] = best(delivered);
    out.values["served_per_s"] = best(served);
    out.values["peak_rss_mb"] = peak_rss_mib();
    return out;
  }

  obs::Report report;
  report.label = "hostbench serve-replay";
  obs::CounterSet work;
  std::vector<double> sim_latency;
  serve::ServeStats stats;
  const auto pass = [&](bool traced) {
    const std::size_t first_span = report.trace.spans().size();
    const Replay r = checked_replay(traced ? &report : nullptr, 1);
    const double wall = r.setup_s.back() + r.run_s;
    if (traced) {
      // Server::run outside its service rounds (admission, queueing,
      // shedding, accounting), from the program's serve.batch spans.
      double batches_s = 0.0;
      for (std::size_t i = first_span; i < report.trace.spans().size(); ++i)
        if (report.trace.spans()[i].name == "serve.batch")
          batches_s += report.trace.spans()[i].seconds;
      out.values["serve.scheduler_s"] += r.run_s - batches_s;
      out.values["serve.parse_s"] += r.parse_s;
      out.values["lattice.build_s"] += r.build_s;
      out.values["serve.register_s"] += r.register_s;
      out.values["serve.run_s"] += r.run_s;
      // Re-issued work shows in the Perfetto trace; its counters stay out
      // of the report, which counts the replay itself.
      obs::Collect collect(report);
      obs::CounterSet reissued;
      obs::CounterScope keep_out(reissued);
      obs::ScopedSpan span("reissue");
      out.failed += reissue(r, models, &out, &work);
      stats = r.stats;
      sim_latency.clear();
      for (const serve::Response& resp : r.responses)
        if (resp.status == serve::ResponseStatus::Ok)
          sim_latency.push_back(resp.finish_seconds - resp.arrival_seconds);
    }
    return wall;
  };
  const PassPairs pairs = run_pass_pairs(o, pass);
  average_layers(pairs.traced_passes, out);
  out.values["trace.overhead_frac"] = pairs.overhead_frac;
  add_counters(report, static_cast<double>(pairs.traced_passes), out);
  add_engine_split(work, pairs.traced_passes, out);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  out.values["serve.cache_hits"] = count(stats.cache.hits);
  out.values["serve.cache_misses"] = count(stats.cache.misses);
  out.values["serve.cache_evictions"] = count(stats.cache.evictions);
  out.values["serve.hit_ratio"] =
      count(stats.cache.hits) / std::max(1.0, count(stats.cache.hits + stats.cache.misses));
  out.values["serve.batches"] = count(stats.batches);
  out.values["serve.coalesced"] = count(stats.coalesced);
  out.values["serve.degraded"] = count(stats.degraded);
  out.values["serve.shed"] = count(stats.rejected + stats.expired);
  out.values["serve.sim_p50_s"] = percentile(sim_latency, 0.50);
  out.values["serve.sim_p99_s"] = percentile(sim_latency, 0.99);
  const linalg::MatrixOperator op(models.begin()->second.h_tilde);
  add_triad_metrics(static_cast<std::size_t>(core::fused_step_workload(op, 1).working_set_bytes),
                    o.smoke, out);
  add_attribution(pairs.traced_wall,
                  {"serve.parse_s", "lattice.build_s", "serve.register_s", "serve.engine_s",
                   "core.reconstruct_s", "serve.scheduler_s"},
                  out);
  write_trace(o, report);
  return out;
}

}  // namespace hostbench
