// dos-large and paper-fig5: stochastic DoS computations through the moment
// engines, closed loop, one caller.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/moments_cpu.hpp"
#include "core/moments_gpu.hpp"
#include "core/reconstruct.hpp"
#include "hostbench.hpp"
#include "lattice/hamiltonian.hpp"
#include "linalg/spectral_transform.hpp"
#include "obs/report.hpp"

namespace hostbench {
namespace {

using namespace kpm;

/// What a user builds before the first moment computation: the clean
/// periodic cubic tight-binding model, its spectral bounds and H~.
struct Model {
  linalg::SpectralTransform transform{{-1.0, 1.0}, 0.0};
  linalg::CrsMatrix h_tilde;
};

struct SetupTimes {
  double build = 0.0;
  double bounds = 0.0;
  double rescale = 0.0;

  void add_to(Outcome& out) const {
    out.values["lattice.build_s"] += build;
    out.values["linalg.bounds_s"] += bounds;
    out.values["linalg.rescale_s"] += rescale;
  }
};

Model set_up(std::size_t edge, SetupTimes& t) {
  Model m;
  linalg::CrsMatrix h;
  t.build = obs::timed("lattice.build", [&] {
    h = lattice::build_tight_binding_crs(lattice::HypercubicLattice::cubic(edge, edge, edge));
  });
  t.bounds = obs::timed("linalg.bounds", [&] {
    m.transform = linalg::make_spectral_transform(linalg::MatrixOperator(h));
  });
  t.rescale = obs::timed("linalg.rescale", [&] { m.h_tilde = linalg::rescale(h, m.transform); });
  return m;
}

/// Sets the model up `count` times back to back, adding every set-up time
/// to `samples` (the first runs cold after the previous operation), and
/// returns the last model.  The previous model is freed outside the timing.
Model set_up_repeatedly(std::size_t edge, std::size_t count, std::vector<double>& samples) {
  Model model;
  for (std::size_t i = 0; i < count; ++i) {
    model = Model{};
    SetupTimes st;
    samples.push_back(obs::timed("setup", [&] { model = set_up(edge, st); }));
  }
  return model;
}

/// Exact moments (1/D) sum_k T_n(E~_k) of the model from its closed-form
/// spectrum, put through the same transform as H~.
std::vector<double> exact_moments(std::size_t edge, const linalg::SpectralTransform& t,
                                  std::size_t n) {
  const std::vector<double> spectrum = lattice::periodic_tight_binding_spectrum(
      lattice::HypercubicLattice::cubic(edge, edge, edge));
  std::vector<double> mu(n, 0.0);
  for (const double e : spectrum) {
    const double x = t.to_unit(e);
    double t0 = 1.0;
    double t1 = x;
    mu[0] += 1.0;
    mu[1] += x;
    for (std::size_t k = 2; k < n; ++k) {
      const double t2 = 2.0 * x * t1 - t0;
      mu[k] += t2;
      t0 = t1;
      t1 = t2;
    }
  }
  for (double& v : mu) v /= static_cast<double>(spectrum.size());
  return mu;
}

/// True when every moment is within 6 sigma of the exact one.  For the
/// Rademacher trace estimator sigma^2 <= 2 / (D * instances): |T_n| <= 1 on
/// the rescaled spectrum bounds ||T_n(H~)||_F^2 by D.
bool within_estimator_error(std::span<const double> mu, std::span<const double> exact,
                            std::size_t dim, std::size_t instances) {
  const double tol =
      6.0 * std::sqrt(2.0 / (static_cast<double>(dim) * static_cast<double>(instances)));
  for (std::size_t k = 0; k < mu.size(); ++k)
    if (!(std::abs(mu[k] - exact[k]) <= tol)) return false;
  return true;
}

bool finite_curve(const core::DosCurve& c) {
  return !c.density.empty() &&
         std::all_of(c.density.begin(), c.density.end(), [](double v) { return std::isfinite(v); });
}

/// One operation: moments on `engine`, then the DoS reconstruction.
struct DosOp {
  core::MomentParams params;
  core::MomentResult result;
  core::DosCurve curve;
  double engine_s = 0.0;
  double reconstruct_s = 0.0;

  [[nodiscard]] double seconds() const { return engine_s + reconstruct_s; }
  [[nodiscard]] double moments() const {
    return static_cast<double>(result.instances_executed * params.num_moments);
  }
};

DosOp run_op(core::MomentEngine& engine, const char* span, const Model& model,
             const core::MomentParams& params, std::size_t sample) {
  const linalg::MatrixOperator op(model.h_tilde);
  DosOp r;
  r.params = params;
  r.engine_s = obs::timed(span, [&] { r.result = engine.compute(op, params, sample); });
  r.reconstruct_s = obs::timed("core.reconstruct", [&] {
    r.curve = core::reconstruct_dos(r.result.mu, model.transform);
  });
  return r;
}

// ---------------------------------------------------------------------------
// dos-large: the paper's clean periodic cubic model at 48^3 = 110592 sites
// (not a power of two: 32^3 blocks were bimodal on the reference host), one
// group of B = 8 instances per operation on the serial CPU reference with
// CRS storage.  The kernel's working set (~38 MB) is far beyond L2.

struct DosLargeShape {
  std::size_t edge, moments, setups_per_op;
};

DosLargeShape dos_large_shape(const Options& o) {
  return o.smoke ? DosLargeShape{10, 64, 2} : DosLargeShape{48, 256, 3};
}

core::MomentParams dos_large_params(const DosLargeShape& s, std::uint64_t seed) {
  core::MomentParams p;
  p.num_moments = s.moments;
  p.random_vectors = 8;
  p.realizations = 1;
  p.block_r = 8;
  p.seed = seed;
  return p;
}

/// Checks one dos-large operation (optionally corrupting a moment first, the
/// negative control) and counts it.
void check_dos_op(DosOp& r, const std::vector<double>& exact, std::size_t dim, bool corrupt,
                  Outcome& out) {
  if (corrupt) r.result.mu[r.result.mu.size() / 2] += 1.0;
  out.attempted += 1;
  if (!within_estimator_error(r.result.mu, exact, dim, r.result.instances_executed) ||
      !finite_curve(r.curve))
    out.failed += 1;
}

}  // namespace

Outcome run_dos_large(const Options& o) {
  const DosLargeShape shape = dos_large_shape(o);
  const std::size_t dim = shape.edge * shape.edge * shape.edge;
  core::CpuMomentEngine engine;
  Outcome out;
  std::uint64_t op_index = 0;

  if (!o.trace) {
    // Every operation starts from fresh set-ups, so set-up samples spread
    // over the whole run and each operation sees a new matrix placement.
    std::vector<double> setup, rates, served;
    std::vector<double> exact;
    const double start = now_seconds();
    do {
      const Model model = set_up_repeatedly(shape.edge, shape.setups_per_op, setup);
      if (exact.empty()) exact = exact_moments(shape.edge, model.transform, shape.moments);
      DosOp r = run_op(engine, "core.engine", model,
                       dos_large_params(shape, operation_seed(o.seed, op_index)), 0);
      check_dos_op(r, exact, dim, o.corrupt && op_index == 0, out);
      rates.push_back(r.moments() / r.seconds());
      served.push_back(1.0 / r.seconds());
      ++op_index;
    } while (o.smoke ? op_index < 2 : now_seconds() - start < o.seconds);
    out.values["setup_s"] = median(setup);
    out.values["moments_per_s"] = best(rates);
    out.values["served_per_s"] = best(served);
    out.values["peak_rss_mb"] = peak_rss_mib();
    return out;
  }

  // Traced run: pass = set-up + one operation.
  obs::Report report;
  report.label = "hostbench dos-large";
  obs::CounterSet work;
  std::vector<double> exact;
  std::size_t kernel_working_set = 0;
  const auto pass = [&](bool traced) {
    std::optional<obs::Collect> collect;
    if (traced) collect.emplace(report);
    const double t0 = now_seconds();
    SetupTimes st;
    Model model = set_up(shape.edge, st);
    DosOp r = run_op(engine, "core.engine", model,
                     dos_large_params(shape, operation_seed(o.seed, op_index++)), 0);
    const double wall = now_seconds() - t0;
    if (exact.empty()) exact = exact_moments(shape.edge, model.transform, shape.moments);
    check_dos_op(r, exact, dim, o.corrupt && op_index == 1, out);
    if (traced) {
      st.add_to(out);
      out.values["core.engine_s"] += r.engine_s;
      out.values["core.reconstruct_s"] += r.reconstruct_s;
      replay_cpu_engine(linalg::MatrixOperator(model.h_tilde), r.params,
                          r.result.instances_executed, work, out);
      kernel_working_set = static_cast<std::size_t>(
          core::fused_step_workload(linalg::MatrixOperator(model.h_tilde), 1, r.params.block_r)
              .working_set_bytes);
    }
    return wall;
  };
  const PassPairs pairs = run_pass_pairs(o, pass);
  average_layers(pairs.traced_passes, out);
  out.values["trace.overhead_frac"] = pairs.overhead_frac;
  add_counters(report, static_cast<double>(pairs.traced_passes), out);
  add_engine_split(work, pairs.traced_passes, out);
  add_triad_metrics(kernel_working_set, o.smoke, out);
  add_attribution(pairs.traced_wall,
                  {"lattice.build_s", "linalg.bounds_s", "linalg.rescale_s", "core.engine_s",
                   "core.reconstruct_s"},
                  out);
  write_trace(o, report);
  return out;
}

// ---------------------------------------------------------------------------
// paper-fig5: Fig. 5 as written -- the 10^3 cube, R = 14, S = 128, N in
// {128, 256, 512, 1024} -- with a fixed sample of instances executed on
// both the CPU reference (CRS, B = 1) and the simulated Tesla C2050.  An
// operation is one (engine, N) point.

namespace {

struct Fig5Shape {
  std::vector<std::size_t> moments;
  std::size_t sample, setups_per_pass;
};

Fig5Shape fig5_shape(const Options& o) {
  if (o.smoke) return {{64, 128}, 4, 2};
  return {{128, 256, 512, 1024}, 32, 7};
}

constexpr std::size_t kFig5Edge = 10;

core::MomentParams fig5_params(std::size_t n, std::uint64_t seed) {
  core::MomentParams p;  // R = 14, S = 128, B = 1 by default
  p.num_moments = n;
  p.seed = seed;
  return p;
}

/// One Fig. 5 pass: every N on the CPU reference then the simulated GPU,
/// each pair checked against the exact moments and for bitwise equality.
struct Fig5Pass {
  std::vector<DosOp> cpu, gpu;
  [[nodiscard]] double seconds() const {
    double s = 0.0;
    for (const DosOp& r : cpu) s += r.seconds();
    for (const DosOp& r : gpu) s += r.seconds();
    return s;
  }
  [[nodiscard]] double moments() const {
    double m = 0.0;
    for (const DosOp& r : cpu) m += r.moments();
    for (const DosOp& r : gpu) m += r.moments();
    return m;
  }
};

Fig5Pass run_fig5_pass(const Fig5Shape& shape, const Model& model, std::uint64_t seed,
                       std::uint64_t pass_index) {
  core::CpuMomentEngine cpu;
  core::GpuMomentEngine gpu;
  Fig5Pass pass;
  for (std::size_t i = 0; i < shape.moments.size(); ++i) {
    const core::MomentParams p =
        fig5_params(shape.moments[i], operation_seed(seed, pass_index * 16 + i));
    pass.cpu.push_back(run_op(cpu, "core.engine", model, p, shape.sample));
    pass.gpu.push_back(run_op(gpu, "gpusim.compute", model, p, shape.sample));
  }
  return pass;
}

void check_fig5_pass(Fig5Pass& pass, const std::vector<double>& exact, bool corrupt,
                     Outcome& out) {
  const std::size_t dim = kFig5Edge * kFig5Edge * kFig5Edge;
  for (std::size_t i = 0; i < pass.cpu.size(); ++i) {
    std::vector<double>& mu_cpu = pass.cpu[i].result.mu;
    const std::vector<double>& mu_gpu = pass.gpu[i].result.mu;
    // Negative control: one ulp on one moment must break bitwise equality.
    if (corrupt && i == 0) mu_cpu[mu_cpu.size() / 2] = std::nextafter(mu_cpu[mu_cpu.size() / 2], 2.0);
    out.attempted += 2;
    if (!within_estimator_error(mu_cpu, exact, dim, pass.cpu[i].result.instances_executed) ||
        !finite_curve(pass.cpu[i].curve))
      out.failed += 1;
    if (mu_gpu.size() != mu_cpu.size() ||
        std::memcmp(mu_gpu.data(), mu_cpu.data(), mu_cpu.size() * sizeof(double)) != 0 ||
        !finite_curve(pass.gpu[i].curve))
      out.failed += 1;
  }
}

}  // namespace

Outcome run_paper_fig5(const Options& o) {
  const Fig5Shape shape = fig5_shape(o);
  const std::size_t n_max = *std::max_element(shape.moments.begin(), shape.moments.end());
  Outcome out;
  std::uint64_t pass_index = 0;

  if (!o.trace) {
    // Set-up takes under a millisecond here: take several samples before
    // every pass, so they spread over the whole run.
    std::vector<double> setup, rates, served;
    std::vector<double> exact;
    const double start = now_seconds();
    do {
      const Model model = set_up_repeatedly(kFig5Edge, shape.setups_per_pass, setup);
      if (exact.empty()) exact = exact_moments(kFig5Edge, model.transform, n_max);
      Fig5Pass pass = run_fig5_pass(shape, model, o.seed, pass_index);
      check_fig5_pass(pass, exact, o.corrupt && pass_index == 0, out);
      rates.push_back(pass.moments() / pass.seconds());
      served.push_back(static_cast<double>(2 * shape.moments.size()) / pass.seconds());
      ++pass_index;
    } while (o.smoke ? pass_index < 1 : now_seconds() - start < o.seconds);
    out.values["setup_s"] = median(setup);
    out.values["moments_per_s"] = best(rates);
    out.values["served_per_s"] = best(served);
    out.values["peak_rss_mb"] = peak_rss_mib();
    return out;
  }

  obs::Report report;
  report.label = "hostbench paper-fig5";
  obs::CounterSet work;
  std::vector<double> exact;
  std::size_t kernel_working_set = 0;
  const auto pass_fn = [&](bool traced) {
    std::optional<obs::Collect> collect;
    if (traced) collect.emplace(report);
    const double t0 = now_seconds();
    SetupTimes st;
    Model model = set_up(kFig5Edge, st);
    Fig5Pass pass = run_fig5_pass(shape, model, o.seed, pass_index++);
    const double wall = now_seconds() - t0;
    if (exact.empty()) exact = exact_moments(kFig5Edge, model.transform, n_max);
    check_fig5_pass(pass, exact, o.corrupt && pass_index == 1, out);
    if (traced) {
      st.add_to(out);
      for (const DosOp& r : pass.cpu) {
        out.values["core.engine_s"] += r.engine_s;
        out.values["core.reconstruct_s"] += r.reconstruct_s;
        out.values["cpumodel.model_s"] += r.result.model_seconds;
        replay_cpu_engine(linalg::MatrixOperator(model.h_tilde), r.params,
                          r.result.instances_executed, work, out);
      }
      for (const DosOp& r : pass.gpu) {
        out.values["gpusim.compute_s"] += r.engine_s;
        out.values["core.reconstruct_s"] += r.reconstruct_s;
        out.values["gpusim.model_s"] += r.result.model_seconds;
      }
      kernel_working_set = static_cast<std::size_t>(
          core::fused_step_workload(linalg::MatrixOperator(model.h_tilde), 1).working_set_bytes);
    }
    return wall;
  };
  const PassPairs pairs = run_pass_pairs(o, pass_fn);
  average_layers(pairs.traced_passes, out);
  out.values["trace.overhead_frac"] = pairs.overhead_frac;
  add_counters(report, static_cast<double>(pairs.traced_passes), out);
  add_engine_split(work, pairs.traced_passes, out);
  out.values["gpusim.ns_per_global_byte"] =
      out.values["gpusim.compute_s"] * 1e9 / out.values["gpusim.global_bytes"];
  out.values["paper.model_speedup"] =
      out.values["cpumodel.model_s"] / out.values["gpusim.model_s"];
  add_triad_metrics(kernel_working_set, o.smoke, out);
  add_attribution(pairs.traced_wall,
                  {"lattice.build_s", "linalg.bounds_s", "linalg.rescale_s", "core.engine_s",
                   "gpusim.compute_s", "core.reconstruct_s"},
                  out);
  write_trace(o, report);
  return out;
}

}  // namespace hostbench
