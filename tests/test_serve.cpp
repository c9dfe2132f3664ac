// Serving-layer tests: the scheduler's determinism contract (bit-identical
// replay at any worker count), the moment cache's bit-exactness and LRU
// accounting, batching/coalescing equivalence, admission control, and the
// kpm.serve.workload/1 replay parser.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/ldos.hpp"
#include "core/reconstruct.hpp"
#include "lattice/hamiltonian.hpp"
#include "lattice/lattice.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "serve/cache.hpp"
#include "serve/replay.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace {

using namespace kpm;

linalg::CrsMatrix square_hamiltonian(std::size_t edge = 6) {
  const auto lat = lattice::HypercubicLattice::square(edge, edge);
  return lattice::build_tight_binding_crs(lat, {}, lattice::anderson_disorder(1.0, 3));
}

serve::DosRequest dos_request(std::uint64_t id, double arrival, std::uint64_t seed = 11,
                              std::size_t n = 64, std::size_t points = 32) {
  serve::DosRequest r;
  r.id = id;
  r.model = "m";
  r.arrival_seconds = arrival;
  r.moments.num_moments = n;
  r.moments.random_vectors = 2;
  r.moments.realizations = 2;
  r.moments.seed = seed;
  r.reconstruct.points = points;
  return r;
}

/// The mixed workload the determinism tests replay: one head-of-line run,
/// a burst that exercises coalescing + every shed path, then spaced repeats
/// that must hit the cache.
std::vector<serve::Request> mixed_workload() {
  std::vector<serve::Request> reqs;
  reqs.push_back(dos_request(1, 0.0, 5, 128));
  auto expire = dos_request(2, 1e-6, 5, 32);
  expire.deadline_seconds = 1e-5;
  reqs.push_back(expire);
  auto c1 = dos_request(3, 1e-6);
  auto c2 = dos_request(4, 1e-6);
  c2.reconstruct.points = 48;  // same key, different grid -> coalesces
  reqs.push_back(c1);
  reqs.push_back(c2);
  serve::LdosRequest ldos;
  ldos.id = 5;
  ldos.model = "m";
  ldos.arrival_seconds = 1e-6;
  ldos.moments.num_moments = 64;
  ldos.site = 7;
  reqs.push_back(ldos);
  reqs.push_back(dos_request(6, 1e-6, 13, 64));   // over max_queue -> degrades
  reqs.push_back(dos_request(7, 1e-6, 17, 64));   // degrades
  reqs.push_back(dos_request(8, 1e-6, 19, 16));   // hard bound -> rejected
  reqs.push_back(dos_request(9, 100.0));          // repeat of id 3 -> cache hit
  return reqs;
}

serve::ServeConfig small_config(std::size_t workers = 1) {
  serve::ServeConfig config;
  config.workers = workers;
  config.max_queue = 3;
  config.max_batch = 3;
  config.degrade_floor = 16;
  return config;
}

std::uint64_t curve_checksum(const serve::Response& r) {
  std::uint64_t h = serve::checksum_doubles(r.curve.energy);
  h = serve::checksum_doubles(r.curve.density, h);
  h = serve::checksum_doubles(r.sigma.energy, h);
  return serve::checksum_doubles(r.sigma.sigma, h);
}

TEST(MomentKey, LdosSharesEntriesAcrossStochasticParameters) {
  serve::Server server(small_config());
  server.register_model("m", square_hamiltonian());

  serve::LdosRequest a;
  a.id = 1;
  a.model = "m";
  a.moments.num_moments = 32;
  a.moments.seed = 1;
  a.moments.random_vectors = 2;
  a.site = 4;
  serve::LdosRequest b = a;
  b.id = 2;
  b.arrival_seconds = 50.0;  // separate batch, after the queue drains
  b.moments.seed = 999;      // stochastic fields differ...
  b.moments.random_vectors = 9;

  const auto responses = server.run({a, b});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_TRUE(responses[1].cache_hit) << "ldos must ignore R/S/seed in the cache key";
}

TEST(MomentCache, LruEvictsInRecencyOrderAndCounts) {
  // Budget fits exactly two 8-moment entries.
  serve::MomentCache cache(2 * 8 * sizeof(double));
  serve::MomentKey k1, k2, k3;
  k1.content = 1;
  k2.content = 2;
  k3.content = 3;
  (void)cache.insert(k1, std::vector<double>(8, 1.0));
  (void)cache.insert(k2, std::vector<double>(8, 2.0));
  EXPECT_EQ(cache.entries(), 2u);

  // Touch k1 so k2 becomes least recently used, then overflow.
  ASSERT_NE(cache.find(k1), nullptr);
  (void)cache.insert(k3, std::vector<double>(8, 3.0));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.find(k2), nullptr) << "k2 was LRU and must be the eviction victim";
  EXPECT_NE(cache.find(k1), nullptr);
  EXPECT_NE(cache.find(k3), nullptr);

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.bytes_used(), 2 * 8 * sizeof(double));
}

TEST(MomentCache, OversizedEntryIsServedButNotStored) {
  serve::MomentCache cache(4 * sizeof(double));
  serve::MomentKey small, big;
  small.content = 1;
  big.content = 2;
  (void)cache.insert(small, std::vector<double>(2, 1.0));
  const std::vector<double>& served = cache.insert(big, std::vector<double>(100, 2.0));
  EXPECT_EQ(served.size(), 100u);
  EXPECT_EQ(cache.entries(), 1u) << "oversized entries must not displace residents";
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(MomentCache, OversizedPassthroughDoesNotPerturbRecency) {
  // Regression guard: handing out an unstored oversized entry must leave the
  // LRU order of residents exactly as it was — the next eviction victim is
  // still the entry that was least recently *found*, not whichever insert
  // happened to pass through.
  serve::MomentCache cache(2 * 8 * sizeof(double));
  serve::MomentKey k1, k2, k3, big;
  k1.content = 1;
  k2.content = 2;
  k3.content = 3;
  big.content = 99;
  (void)cache.insert(k1, std::vector<double>(8, 1.0));
  (void)cache.insert(k2, std::vector<double>(8, 2.0));
  ASSERT_NE(cache.find(k1), nullptr);  // k2 is now LRU

  const std::vector<double>& served = cache.insert(big, std::vector<double>(100, 9.0));
  EXPECT_EQ(served.size(), 100u);
  EXPECT_EQ(cache.entries(), 2u);

  (void)cache.insert(k3, std::vector<double>(8, 3.0));  // overflow: evicts LRU
  EXPECT_EQ(cache.find(k2), nullptr) << "k2 was LRU before the oversized passthrough "
                                        "and must still be the victim after it";
  EXPECT_NE(cache.find(k1), nullptr);
  EXPECT_NE(cache.find(k3), nullptr);
}

TEST(MomentCache, ContainsCountsNothing) {
  // contains() is a probe, not a use: no hit, no miss, no obs counter, and
  // the LRU order (hence the next eviction victim) stays as it was.
  obs::Report report;
  {
    obs::Collect collect(report);
    serve::MomentCache cache(2 * 8 * sizeof(double));
    serve::MomentKey k1, k2, k3;
    k1.content = 1;
    k2.content = 2;
    k3.content = 3;
    (void)cache.insert(k1, std::vector<double>(8, 1.0), 1.0);
    (void)cache.insert(k2, std::vector<double>(8, 2.0), 1.0);  // k1 is now LRU
    EXPECT_TRUE(cache.contains(k1));
    EXPECT_TRUE(cache.contains(k2));
    EXPECT_FALSE(cache.contains(k3));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().cost_saved_ns, 0u);

    (void)cache.insert(k3, std::vector<double>(8, 3.0));  // overflow: evicts LRU
    EXPECT_FALSE(cache.contains(k1)) << "probing k1 must not have made it recent";
    EXPECT_TRUE(cache.contains(k2));
    EXPECT_TRUE(cache.contains(k3));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
  }
  EXPECT_EQ(report.counters[obs::Counter::ServeCacheHits], 0.0);
  EXPECT_EQ(report.counters[obs::Counter::ServeCacheMisses], 0.0);
  EXPECT_EQ(report.counters[obs::Counter::ServeCacheEvictions], 1.0);
}

TEST(MomentCache, ZeroBudgetDisablesCaching) {
  serve::MomentCache cache(0);
  serve::MomentKey k;
  const std::vector<double>& served = cache.insert(k, std::vector<double>(8, 1.0));
  EXPECT_EQ(served.size(), 8u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.find(k), nullptr);
}

TEST(Serve, ReplayIsBitIdenticalAtAnyWorkerCount) {
  const auto requests = mixed_workload();
  const auto h = square_hamiltonian();

  std::vector<serve::Response> reference;
  std::string reference_fingerprint;
  for (const std::size_t workers : {1u, 2u, 4u, 7u}) {
    obs::Report report;
    std::vector<serve::Response> responses;
    {
      obs::Collect collect(report);
      serve::Server server(small_config(workers));
      server.register_model("m", h);
      responses = server.run(requests);
      report.sections.push_back({"serve", server.section_json()});
    }
    const std::string fingerprint = obs::deterministic_fingerprint(report);
    if (reference.empty()) {
      reference = responses;
      reference_fingerprint = fingerprint;
      // The workload must actually exercise every path it claims to.
      std::size_t hits = 0, shed = 0;
      for (const auto& r : responses) {
        hits += r.cache_hit ? 1 : 0;
        shed += r.status != serve::ResponseStatus::Ok ? 1 : 0;
      }
      EXPECT_GT(hits, 0u);
      EXPECT_GT(shed, 0u);
      continue;
    }
    EXPECT_EQ(fingerprint, reference_fingerprint) << "workers=" << workers;
    ASSERT_EQ(responses.size(), reference.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const auto& r = responses[i];
      const auto& e = reference[i];
      EXPECT_EQ(r.id, e.id);
      EXPECT_EQ(r.status, e.status) << "id " << r.id;
      EXPECT_EQ(r.cache_hit, e.cache_hit) << "id " << r.id;
      EXPECT_EQ(r.coalesced, e.coalesced) << "id " << r.id;
      EXPECT_EQ(r.degraded, e.degraded) << "id " << r.id;
      EXPECT_EQ(r.batch, e.batch) << "id " << r.id;
      EXPECT_EQ(r.num_moments, e.num_moments) << "id " << r.id;
      EXPECT_EQ(r.start_seconds, e.start_seconds) << "id " << r.id;
      EXPECT_EQ(r.finish_seconds, e.finish_seconds) << "id " << r.id;
      EXPECT_EQ(r.retry_after_seconds, e.retry_after_seconds) << "id " << r.id;
      EXPECT_EQ(curve_checksum(r), curve_checksum(e)) << "id " << r.id;
    }
  }
}

serve::LdosRequest ldos_request(std::uint64_t id, double arrival, std::size_t site,
                               std::size_t n) {
  serve::LdosRequest r;
  r.id = id;
  r.model = "m";
  r.arrival_seconds = arrival;
  r.moments.num_moments = n;
  r.reconstruct.points = 24;
  r.site = site;
  return r;
}

/// LDOS-only burst in which site groups form.  Id 1 runs alone; then id 20
/// jumps the queue by priority and heads a group of eight at N = 64 with
/// ids 2, 5, 7, 8, 9, 10 and 11.  Left out of it: id 3 (its key is resident
/// since id 1), id 4 (N = 32) and id 6 (id 5's key; it coalesces with id 5
/// later).  Id 4 heads a group with ids 14, 15 and 16 at N = 32, id 12
/// one with id 13, and id 7 expires before its turn, so its row is dropped.
std::vector<serve::Request> ldos_group_workload() {
  struct Spec {
    std::uint64_t id;
    std::size_t site, n;
  };
  const Spec burst[] = {{2, 1, 64},  {3, 0, 64},   {4, 1, 32},   {5, 2, 64},  {6, 2, 64},
                        {7, 3, 64},  {8, 4, 64},   {9, 5, 64},   {10, 6, 64}, {11, 7, 64},
                        {12, 8, 64}, {13, 9, 64},  {14, 10, 32}, {15, 11, 32}, {16, 0, 32}};
  std::vector<serve::Request> reqs{ldos_request(1, 0.0, 0, 64)};
  for (const Spec& s : burst) {
    auto r = ldos_request(s.id, 1e-6, s.site, s.n);
    if (s.id == 7) r.deadline_seconds = 2.5e-5;  // after id 20's batch, before its turn
    reqs.push_back(r);
  }
  auto urgent = ldos_request(20, 1e-6, 20, 64);
  urgent.priority = 1;
  reqs.push_back(urgent);
  return reqs;
}

TEST(Serve, LdosSiteGroupsKeepScheduleAndCurves) {
  const auto h = square_hamiltonian();
  const auto transform = linalg::make_spectral_transform(linalg::MatrixOperator(h));
  const auto h_tilde = linalg::rescale(h, transform);
  const linalg::MatrixOperator op(h_tilde);
  const auto requests = ldos_group_workload();
  serve::ServeConfig config = small_config();
  config.max_queue = 32;

  std::vector<std::string> fingerprints;
  for (const std::size_t workers : {1u, 4u}) {
    config.workers = workers;
    obs::Report report;
    std::vector<serve::Response> responses;
    serve::ServeStats stats;
    {
      obs::Collect collect(report);
      serve::Server server(config);
      server.register_model("m", h);
      responses = server.run(requests);
      stats = server.stats();
      report.sections.push_back({"serve", server.section_json()});
    }
    fingerprints.push_back(obs::deterministic_fingerprint(report));
    const std::string& section = report.sections.back().body;

    // The workload's premises: the jump, the resident key, the coalesced
    // duplicate and the expiry.
    ASSERT_EQ(responses.size(), requests.size());
    const auto by_id = [&](std::uint64_t id) -> const serve::Response& {
      for (const auto& r : responses)
        if (r.id == id) return r;
      throw kpm::Error("no response for id " + std::to_string(id));
    };
    EXPECT_EQ(by_id(20).batch, 1u);
    EXPECT_TRUE(by_id(3).cache_hit);
    EXPECT_TRUE(by_id(6).coalesced);
    EXPECT_EQ(by_id(7).status, serve::ResponseStatus::Expired);
    EXPECT_EQ(stats.expired, 1u);

    // (a) Schedule, cache accounting and curves are byte for byte those of
    // one recursion per miss (recorded before site groups existed).
    EXPECT_EQ(serve::fnv1a64(section.data(), section.size()), 0x27170d64a91aed65ULL)
        << "workers=" << workers;

    // (b) Every served curve is the one-site recursion's, bit for bit.
    double per_miss_steps = 0.0;
    for (std::size_t i = 0; i < responses.size(); ++i) {  // both in id order
      const auto& r = responses[i];
      const auto& req = std::get<serve::LdosRequest>(requests[i]);
      ASSERT_EQ(req.id, r.id);
      if (r.status != serve::ResponseStatus::Ok) continue;
      const auto curve = core::reconstruct_dos(core::ldos_moments(op, req.site, r.num_moments),
                                               transform, req.reconstruct);
      EXPECT_EQ(serve::checksum_doubles(r.curve.energy), serve::checksum_doubles(curve.energy))
          << "id " << r.id;
      EXPECT_EQ(serve::checksum_doubles(r.curve.density), serve::checksum_doubles(curve.density))
          << "id " << r.id;
      if (!r.cache_hit && !r.coalesced) per_miss_steps += static_cast<double>(r.num_moments - 2);
    }

    // (c) Groups formed: fewer fused passes than one recursion per miss, and
    // one start vector per miss plus the expired member's dropped row.
    const double misses = static_cast<double>(stats.cache.misses);
    EXPECT_EQ(misses, 14.0);
    EXPECT_LT(report.counters[obs::Counter::FusedCalls], per_miss_steps);
    EXPECT_EQ(report.counters[obs::Counter::FusedCalls], 3.0 * (64 - 2) + (32 - 2))
        << "groups {1}, {20, 2, 5, 7, 8, 9, 10, 11}, {4, 14, 15, 16} and {12, 13}";
    EXPECT_EQ(report.counters[obs::Counter::InstancesExecuted], misses + 1.0);
  }
  // (d) Worker-invariant, counters included.
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(Serve, CacheHitServesColdComputeBytesExactly) {
  serve::Server server(small_config());
  server.register_model("m", square_hamiltonian());

  // Same key, arrivals far apart so the second is its own batch.
  const auto responses = server.run({dos_request(1, 0.0), dos_request(2, 100.0)});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_TRUE(responses[1].cache_hit);
  EXPECT_EQ(serve::checksum_doubles(responses[0].curve.density),
            serve::checksum_doubles(responses[1].curve.density))
      << "cached moments must reconstruct to the cold-compute bytes";
  EXPECT_EQ(server.stats().cache.hits, 1u);
  EXPECT_EQ(server.stats().cache.misses, 1u);
}

TEST(Serve, CoalescedBatchMatchesOneAtATimeBitwise) {
  const auto h = square_hamiltonian();

  // Burst: ids 2..4 share id 1's key and arrive while it is being served.
  serve::Server burst_server(small_config());
  burst_server.register_model("m", h);
  std::vector<serve::Request> burst{dos_request(1, 0.0), dos_request(2, 1e-7),
                                    dos_request(3, 1e-7), dos_request(4, 1e-7)};
  std::get<serve::DosRequest>(burst[1]).reconstruct.points = 48;
  std::get<serve::DosRequest>(burst[2]).reconstruct.points = 16;
  const auto coalesced = burst_server.run(burst);
  EXPECT_GT(burst_server.stats().coalesced, 0u);

  // Same requests spaced out: every one is its own batch (and after the
  // first, a cache hit — the moments are identical either way).
  serve::Server spaced_server(small_config());
  spaced_server.register_model("m", h);
  std::vector<serve::Request> spaced = burst;
  for (std::size_t i = 0; i < spaced.size(); ++i)
    std::get<serve::DosRequest>(spaced[i]).arrival_seconds = 100.0 * static_cast<double>(i);
  const auto sequential = spaced_server.run(spaced);
  EXPECT_EQ(spaced_server.stats().coalesced, 0u);

  ASSERT_EQ(coalesced.size(), sequential.size());
  for (std::size_t i = 0; i < coalesced.size(); ++i) {
    EXPECT_EQ(coalesced[i].status, serve::ResponseStatus::Ok);
    EXPECT_EQ(curve_checksum(coalesced[i]), curve_checksum(sequential[i]))
        << "id " << coalesced[i].id;
  }
}

TEST(Serve, ShedPoliciesAreDeterministicAndFullyAccounted) {
  const auto h = square_hamiltonian();
  // 10 requests in one instant against max_queue=3: the head is served,
  // 3 queue normally, the rest must shed per policy.
  std::vector<serve::Request> flood;
  for (std::uint64_t id = 1; id <= 10; ++id)
    flood.push_back(dos_request(id, id == 1 ? 0.0 : 1e-6, /*seed=*/100 + id, 64));

  for (const serve::ShedPolicy policy :
       {serve::ShedPolicy::Reject, serve::ShedPolicy::Degrade}) {
    serve::ServeConfig config = small_config();
    config.policy = policy;
    auto run_once = [&] {
      serve::Server server(config);
      server.register_model("m", h);
      return std::make_pair(server.run(flood), server.stats());
    };
    const auto [first, stats] = run_once();
    const auto [second, stats2] = run_once();

    ASSERT_EQ(first.size(), flood.size()) << "every request gets exactly one response";
    std::size_t ok = 0, rejected = 0, degraded = 0;
    for (const auto& r : first) {
      if (r.status == serve::ResponseStatus::Rejected) {
        rejected += 1;
        EXPECT_GT(r.retry_after_seconds, 0.0) << "id " << r.id;
        EXPECT_EQ(r.batch, serve::kNoBatch);
      } else {
        ASSERT_EQ(r.status, serve::ResponseStatus::Ok);
        ok += 1;
        if (r.degraded) {
          degraded += 1;
          EXPECT_EQ(r.num_moments, 32u) << "degraded requests serve N/2";
        }
      }
    }
    EXPECT_EQ(ok + rejected, flood.size());
    EXPECT_EQ(stats.rejected, rejected);
    EXPECT_EQ(stats.degraded, degraded);
    if (policy == serve::ShedPolicy::Reject) {
      EXPECT_EQ(degraded, 0u);
      EXPECT_GT(rejected, 0u);
    } else {
      EXPECT_GT(degraded, 0u);
      EXPECT_GT(rejected, 0u) << "the 2x hard bound rejects even under Degrade";
    }

    // Same flood, same decisions, bit for bit.
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].status, second[i].status);
      EXPECT_EQ(first[i].retry_after_seconds, second[i].retry_after_seconds);
      EXPECT_EQ(curve_checksum(first[i]), curve_checksum(second[i]));
    }
  }
}

TEST(Serve, QueuedRequestsExpireAtTheirDeadline) {
  serve::Server server(small_config());
  server.register_model("m", square_hamiltonian());
  auto doomed = dos_request(2, 1e-6, 99, 32);
  doomed.deadline_seconds = 1e-5;  // passes while id 1 is being served
  const auto responses = server.run({dos_request(1, 0.0, 5, 128), doomed});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, serve::ResponseStatus::Ok);
  EXPECT_EQ(responses[1].status, serve::ResponseStatus::Expired);
  EXPECT_EQ(server.stats().expired, 1u);
}

TEST(Serve, HigherPriorityIsServedFirst) {
  serve::Server server(small_config());
  server.register_model("m", square_hamiltonian());
  auto low = dos_request(2, 1e-6, 7, 64);
  auto high = dos_request(3, 1e-6, 8, 64);
  high.priority = 5;
  const auto responses = server.run({dos_request(1, 0.0, 5, 128), low, high});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_LT(responses[2].batch, responses[1].batch)
      << "priority 5 must be served before priority 0";
}

TEST(Serve, SectionJsonIsWorkerFreeAndCarriesTheSchema) {
  serve::Server server(small_config(4));
  server.register_model("m", square_hamiltonian());
  (void)server.run({dos_request(1, 0.0)});
  const std::string section = server.section_json();
  EXPECT_NE(section.find("kpm.serve/1"), std::string::npos);
  EXPECT_NE(section.find("\"checksum\""), std::string::npos);
  EXPECT_EQ(section.find("workers"), std::string::npos)
      << "the worker count must never enter the (fingerprinted) section";
}

TEST(Serve, ValidatesRequestsUpFront) {
  serve::Server server(small_config());
  server.register_model("m", square_hamiltonian(4));
  EXPECT_THROW((void)server.run({dos_request(1, 0.0), dos_request(1, 1.0)}), kpm::Error)
      << "duplicate ids";
  auto wrong_model = dos_request(1, 0.0);
  wrong_model.model = "nope";
  EXPECT_THROW((void)server.run({wrong_model}), kpm::Error);
  serve::LdosRequest bad_site;
  bad_site.id = 1;
  bad_site.model = "m";
  bad_site.site = 1000;
  EXPECT_THROW((void)server.run({bad_site}), kpm::Error);
  serve::SigmaRequest no_current;
  no_current.id = 1;
  no_current.model = "m";
  EXPECT_THROW((void)server.run({no_current}), kpm::Error) << "axis 0 not registered";
}

TEST(Replay, ParsesWorkloadAndAppliesDefaults) {
  const std::string doc = R"({
    "schema": "kpm.serve.workload/1",
    "label": "t",
    "config": {"workers": 3, "max_queue": 5, "policy": "reject"},
    "models": [{"name": "m0", "lattice": "chain", "edge": 16, "currents": [0]}],
    "requests": [
      {"kind": "dos", "id": 1, "model": "m0", "arrival": 0.5, "moments": 32,
       "R": 2, "S": 1, "seed": 9, "kernel": "lorentz", "points": 17},
      {"kind": "ldos", "id": 2, "model": "m0", "site": 3, "moments": 24, "points": 9},
      {"kind": "sigma", "id": 3, "model": "m0", "axis": 0, "priority": 2,
       "moments": 16, "R": 1, "S": 1, "points": 9}
    ]
  })";
  const serve::ReplayWorkload w = serve::parse_workload(doc);
  EXPECT_EQ(w.label, "t");
  EXPECT_EQ(w.config.workers, 3u);
  EXPECT_EQ(w.config.max_queue, 5u);
  EXPECT_EQ(w.config.policy, serve::ShedPolicy::Reject);
  ASSERT_EQ(w.models.size(), 1u);
  EXPECT_EQ(w.models[0].lattice, "chain");
  ASSERT_EQ(w.models[0].currents.size(), 1u);
  ASSERT_EQ(w.requests.size(), 3u);
  const auto& dos = std::get<serve::DosRequest>(w.requests[0]);
  EXPECT_EQ(dos.arrival_seconds, 0.5);
  EXPECT_EQ(dos.moments.num_moments, 32u);
  EXPECT_EQ(dos.moments.seed, 9u);
  EXPECT_EQ(dos.reconstruct.kernel, core::DampingKernel::Lorentz);
  EXPECT_EQ(dos.reconstruct.points, 17u);
  EXPECT_EQ(std::get<serve::LdosRequest>(w.requests[1]).site, 3u);
  EXPECT_EQ(std::get<serve::SigmaRequest>(w.requests[2]).priority, 2);

  // The parsed workload must actually run.
  serve::Server server(w.config);
  serve::register_models(server, w);
  const auto responses = server.run(w.requests);
  EXPECT_EQ(responses.size(), 3u);
}

TEST(Replay, RejectsBadDocuments) {
  EXPECT_THROW((void)serve::parse_workload("[]"), kpm::Error);
  EXPECT_THROW((void)serve::parse_workload(R"({"schema": "nope"})"), kpm::Error);
  EXPECT_THROW((void)serve::parse_workload(
                   R"({"schema": "kpm.serve.workload/1", "models": []})"),
               kpm::Error)
      << "missing requests";
  EXPECT_THROW(
      (void)serve::parse_workload(
          R"({"schema": "kpm.serve.workload/1", "models": [],
              "requests": [{"kind": "warp", "id": 1, "model": "m"}]})"),
      kpm::Error);
  EXPECT_THROW((void)serve::load_workload("/nonexistent/workload.json"), kpm::Error);
}

TEST(Replay, RejectsMalformedDocuments) {
  // No schema stamp at all (not just a wrong one).
  EXPECT_THROW((void)serve::parse_workload(R"({"models": [], "requests": []})"),
               kpm::Error);
  // The simulated clock starts at 0: negative arrivals are a data error.
  EXPECT_THROW(
      (void)serve::parse_workload(
          R"({"schema": "kpm.serve.workload/1",
              "models": [{"name": "m", "lattice": "chain", "edge": 8}],
              "requests": [{"kind": "dos", "id": 1, "model": "m", "arrival": -0.25}]})"),
      kpm::Error);
  // Seeds are unsigned; a negative one would silently wrap if coerced.
  EXPECT_THROW(
      (void)serve::parse_workload(
          R"({"schema": "kpm.serve.workload/1",
              "models": [{"name": "m", "lattice": "chain", "edge": 8}],
              "requests": [{"kind": "dos", "id": 1, "model": "m", "seed": -7}]})"),
      kpm::Error);
  // Unknown request kind in an otherwise valid document.
  EXPECT_THROW(
      (void)serve::parse_workload(
          R"({"schema": "kpm.serve.workload/1",
              "models": [{"name": "m", "lattice": "chain", "edge": 8}],
              "requests": [{"kind": "tdos", "id": 1, "model": "m"}]})"),
      kpm::Error);
}

TEST(Replay, EngineNamesRoundTrip) {
  EXPECT_EQ(serve::engine_kind_from_string("cpu"), core::EngineKind::CpuReference);
  EXPECT_EQ(serve::engine_kind_from_string("cpu-reference"), core::EngineKind::CpuReference);
  EXPECT_EQ(serve::engine_kind_from_string("cpu-parallel"), core::EngineKind::CpuParallel);
  EXPECT_EQ(serve::engine_kind_from_string("gpu"), core::EngineKind::Gpu);
  EXPECT_THROW((void)serve::engine_kind_from_string("abacus"), kpm::Error);
  EXPECT_EQ(serve::engine_class_of(core::EngineKind::CpuReference),
            serve::engine_class_of(core::EngineKind::CpuParallel))
      << "bit-identical engines share one cache class";
  EXPECT_NE(serve::engine_class_of(core::EngineKind::Gpu),
            serve::engine_class_of(core::EngineKind::CpuReference));
}

}  // namespace
