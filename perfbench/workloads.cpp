#include "workloads.hpp"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "chem/mechanisms.hpp"
#include "chem/mixing.hpp"
#include "chem/reactor.hpp"
#include "common/hash.hpp"
#include "ledger.hpp"
#include "resilience/fault.hpp"
#include "solver/checkpoint.hpp"
#include "solver/health.hpp"
#include "solver/scenario.hpp"
#include "solver/solver.hpp"
#include "trace/trace.hpp"
#include "viz/analysis.hpp"
#include "vmpi/vmpi.hpp"

namespace perfbench {

long long live_bytes();  // alloc_track.cpp

namespace {

namespace sv = s3d::solver;
namespace viz = s3d::viz;
namespace trace = s3d::trace;
namespace fault = s3d::fault;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload definitions

struct Spec {
  std::string name;
  std::string scenario;
  sv::ParamMap params;  ///< overrides; "seed" is added from --seed
  int ranks = 1;
  bool guarded = false;
  int episode_steps = 0;  ///< committed steps per episode (fixed: bitwise
                          ///< reproducible final state per seed)
  int setup_reps = 3;     ///< full set-ups per run (setup_s is their median)
  int min_samples = 104;  ///< pooled step samples before an untraced run
                          ///< may stop (>= 10 beyond the 90th percentile)
  int dt_every = 10;      ///< stable-dt cadence (scenario_runner default)
  int probe_every = 1;    ///< steps between host-speed probes
  // Guarded workload only.
  int analysis_interval = 0;
  int ckpt_every = 0;
  int faults = 0;
  double adaptive_atol = 1.0, adaptive_rtol = 1e-2;
  // Size label verified against the host's per-core L2.
  enum class Size { none, fits_l2, exceeds_4x_l2 } size = Size::none;
  bool rank_invariance = false;  ///< 1-rank vs `ranks` bitwise check
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = [] {
    std::vector<Spec> v;
    Spec a;
    a.name = "jet_small_serial";
    a.scenario = "lifted_jet";
    a.params = {{"nx", "32"}, {"ny", "24"}};
    a.ranks = 1;
    a.episode_steps = 400;
    a.probe_every = 2;
    a.setup_reps = 15;
    a.size = Spec::Size::fits_l2;
    v.push_back(a);

    Spec b;
    b.name = "jet_large_4rank";
    b.scenario = "lifted_jet";
    b.ranks = 4;
    b.episode_steps = 60;
    b.setup_reps = 5;
    b.size = Spec::Size::exceeds_4x_l2;
    b.rank_invariance = true;
    v.push_back(b);

    Spec c;
    c.name = "hit3d_guarded_2rank";
    c.scenario = "hit_autoignition";
    c.params = {{"two_d", "false"}, {"n", "16"}};
    c.ranks = 2;
    c.guarded = true;
    c.episode_steps = 104;  // one episode covers min_samples
    c.setup_reps = 3;       // ~12 s each: the equilibrium solve
    c.min_samples = 104;
    c.analysis_interval = 8;
    c.ckpt_every = 8;  // divides episode_steps: the last write is the
                       // final state the restore check compares against
    c.faults = 1;
    c.adaptive_atol = 10.0;
    c.adaptive_rtol = 0.1;
    v.push_back(c);
    return v;
  }();
  return all;
}

// Health bounds the final state must respect (HealthConfig defaults).
const sv::HealthConfig kBounds{};

// ---------------------------------------------------------------------------
// Small helpers

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// (px, py, pz) exactly as scenario_runner decomposes: split the finest
/// active axis that divides evenly, preferring y.
std::array<int, 3> decompose(const sv::Config& cfg, int ranks) {
  if (cfg.y.n > 1 && cfg.y.n % ranks == 0) return {1, ranks, 1};
  if (cfg.x.n % ranks == 0) return {ranks, 1, 1};
  if (cfg.z.n > 1 && cfg.z.n % ranks == 0) return {1, 1, ranks};
  throw std::runtime_error("no grid axis divides into " +
                           std::to_string(ranks) + " ranks");
}

std::unique_ptr<sv::Solver> make_solver(const sv::CaseSetup& cs,
                                        s3d::vmpi::Comm* comm) {
  if (!comm) return std::make_unique<sv::Solver>(cs.cfg);
  const auto p = decompose(cs.cfg, comm->size());
  return std::make_unique<sv::Solver>(cs.cfg, *comm, p[0], p[1], p[2]);
}

/// Run fn(comm, rank) serially (comm == nullptr) or on vmpi ranks.
void run_ranks(int ranks,
               const std::function<void(s3d::vmpi::Comm*, int)>& fn) {
  if (ranks == 1) {
    fn(nullptr, 0);
    return;
  }
  s3d::vmpi::run(ranks, [&](s3d::vmpi::Comm& c) { fn(&c, c.rank()); });
}

void barrier(s3d::vmpi::Comm* comm) {
  if (comm) comm->barrier();
}

double allsum(s3d::vmpi::Comm* comm, double v) {
  return comm ? comm->allreduce_sum(v) : v;
}

std::size_t global_cells(const sv::Config& cfg) {
  return static_cast<std::size_t>(cfg.x.n) * cfg.y.n * cfg.z.n;
}

/// Copy this rank's interior into the global (var, k, j, i) image.
void gather_state(const sv::Solver& s, const sv::Config& cfg,
                  std::vector<double>& global) {
  const auto& l = s.layout();
  const auto off = s.offset();
  const std::size_t NX = cfg.x.n, NY = cfg.y.n, NZ = cfg.z.n;
  const auto& U = s.state();
  for (int v = 0; v < U.nv(); ++v)
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i)
          global[((v * NZ + (k + off[2])) * NY + (j + off[1])) * NX +
                 (i + off[0])] = U.at(v, i, j, k);
}

bool interior_equal(const sv::Solver& a, const sv::Solver& b) {
  const auto& l = a.layout();
  for (int v = 0; v < a.state().nv(); ++v)
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i) {
          const double x = a.state().at(v, i, j, k);
          const double y = b.state().at(v, i, j, k);
          if (std::memcmp(&x, &y, sizeof x) != 0) return false;
        }
  return true;
}

/// Interior sums of rho and rho*e0 (uniform periodic box: the volume
/// factor cancels in relative drift).
std::array<double, 2> conserved_totals(const sv::Solver& s,
                                       s3d::vmpi::Comm* comm) {
  const auto& l = s.layout();
  double m = 0.0, e = 0.0;
  for (int k = 0; k < l.nz; ++k)
    for (int j = 0; j < l.ny; ++j)
      for (int i = 0; i < l.nx; ++i) {
        m += s.state().at(sv::UIndex::rho, i, j, k);
        e += s.state().at(sv::UIndex::e0, i, j, k);
      }
  return {allsum(comm, m), allsum(comm, e)};
}

double kernel_rank_s(const trace::Summary& sm, const char* name, int rank) {
  if (const auto* k = sm.find(name))
    for (const auto& r : k->ranks)
      if (r.rank == rank) return r.total_s;
  return 0.0;
}

double counter_total(const trace::Summary& sm, const char* name) {
  const auto* c = sm.find_counter(name);
  return c ? c->total : 0.0;
}

double rhs_total(const sv::RhsTimers& t) {
  return t.primitives + t.halo + t.gradients + t.transport_props +
         t.diffusive_flux + t.reaction_rate + t.convective + t.boundary;
}

/// Resident-set high-water mark of this process image (VmHWM). Unlike
/// getrusage's ru_maxrss it restarts at exec, so the launching
/// interpreter's footprint does not leak into the figure.
double peak_rss_kb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  return 0.0;
}

/// Hand freed heap back to the OS between repetitions. Each repetition's
/// rank threads may draw on different malloc arenas, so without this the
/// peak RSS would depend on how freed memory happened to be spread over
/// arenas rather than on one repetition's footprint.
void settle_heap() { malloc_trim(0); }

// ---------------------------------------------------------------------------
// Host-speed probe
//
// On a shared host a vCPU's speed drifts by tens of percent over seconds
// (neighbouring load on the physical cores), which moves every wall-time
// figure with it: unnormalised, the median step of one workload spread
// by 20-40% between runs. The benchmark therefore runs a fixed,
// cache-resident compute probe on each rank's thread between steps
// (outside the timed intervals) and reports times rescaled to a
// reference probe speed: normalised = wall * kProbeRefS / probe, with
// the slowest rank's probe for multi-rank steps. The probe is benchmark
// code, so a change to the solver cannot move it. Raw wall times stay in
// the record beside the normalised ones.

/// Best probe time of one idle vCPU of the reference host (Intel Xeon,
/// 2.1 GHz) at full speed, so serial figures read as wall time there.
constexpr double kProbeRefS = 0.095e-3;
/// Minimum spacing of probes on one rank thread (probe cost ~0.3 ms).
constexpr double kProbeEveryS = 0.02;

volatile double g_probe_sink = 0.0;

/// Best-of-3 time of a fixed, cache-resident exp() sweep on this CPU.
double probe_s() {
  static thread_local std::vector<double> buf(16384, 0.0);
  double best = 1e300;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    double acc = 0.0;
    for (std::size_t i = 0; i < buf.size(); ++i)
      acc += std::exp(-1e-4 * static_cast<double>(i + r)) + buf[i];
    g_probe_sink = acc;
    best = std::min(best, now_s() - t0);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Host fingerprint

struct Host {
  std::string cpu = "unknown";
  unsigned nproc = 0;
  long l2 = 0, llc = 0;  ///< bytes (0: unknown)
};

Host host_fingerprint() {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  // glibc answers these from CPUID on x86: no file outside the checkout
  // is read.
  h.l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  h.llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (h.llc <= 0) h.llc = h.l2;
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string b(brand);
    const auto f = b.find_first_not_of(' ');
    if (f != std::string::npos) h.cpu = b.substr(f);
  }
#endif
  return h;
}

// ---------------------------------------------------------------------------
// One run

struct RankOut {
  sv::RhsTimers timers;
  sv::PassStats rhs_pass, solver_pass;
  sv::DlbStats dlb;
  std::size_t local_cells = 0, ghosted = 0;
  long executed = 0, discarded = 0;  ///< guarded cell-step accounting
  bool finite = true;
  double Tmin = 1e300, Tmax = -1e300;
  sv::CkptStats ckpt;
  bool restore_ok = true;
};

struct Episode {
  bool traced = false;
  std::string error;  ///< non-empty: the run threw
  double wall_s = 0.0;      ///< sum of speed-normalised step times
  double wall_raw_s = 0.0;  ///< loop wall time, probes included
  double sim_s = 0.0;
  long steps = 0;
  std::vector<double> step_ms, step_ms_raw;  ///< normalised / wall
  std::vector<RankOut> ranks;
  std::uint64_t checksum = 0;
  // Guarded workload.
  sv::GuardReport rep;
  std::array<double, 2> tot0{}, tot1{};
  long fires = 0;
  long analysis_invocations = 0;
  double analysis_sweeps = 0.0;
  int run_span = -1;  ///< rank 0's ledger span around run()/run_guarded()
  long ckpt_writes = 0, last_write = -1;
  long emit_expected = 0, emit_written = 0;
  double restore_ms = 0.0;
  // Traced episodes: program spans/counters over the episode.
  double scan_s_rank0 = 0.0, halo_bytes = 0.0;
};

struct Run {
  const Spec& sp;
  const Options& o;
  Ledger ledger;
  sv::CaseSetup cs;
  sv::ParamMap params;
  std::vector<double> setup_s, setup_raw_s, build_ms;
  long long ws_bytes = 0;
  std::size_t ghosted_total = 0;

  Run(const Spec& s, const Options& opt) : sp(s), o(opt) {
    params = sp.params;
    params["seed"] = std::to_string(o.seed);
  }

  /// Scenario build + solver construction + initialize on every rank:
  /// one setup_s sample. The last CaseSetup is kept for the episodes.
  void setup_once() {
    const double p0 = probe_s();
    const double t0 = now_s();
    Scope all(&ledger, "setup");
    {
      Scope b(&ledger, "scenario.build");
      const double tb = now_s();
      cs = sv::ScenarioRegistry::instance().build(sp.scenario, params);
      build_ms.push_back(1e3 * (now_s() - tb));
    }
    const long long live0 = live_bytes();
    std::vector<std::size_t> ghosted(sp.ranks, 0);
    run_ranks(sp.ranks, [&](s3d::vmpi::Comm* comm, int rank) {
      Ledger* lg = rank == 0 ? &ledger : nullptr;
      Scope c(lg, "solver.construct");
      auto s = make_solver(cs, comm);
      c.close();
      Scope i(lg, "solver.initialize");
      s->initialize(cs.init);
      barrier(comm);
      i.close();
      ghosted[rank] = s->layout().total();
      if (rank == 0) ws_bytes = live_bytes() - live0;
      barrier(comm);  // solvers stay alive until rank 0 has read the heap
    });
    all.close();
    const double raw = now_s() - t0;
    setup_raw_s.push_back(raw);
    setup_s.push_back(raw * kProbeRefS / (0.5 * (p0 + probe_s())));
    settle_heap();
    ghosted_total = 0;
    for (auto g : ghosted) ghosted_total += g;
  }

  void arm_faults() {
    fault::reset();
    if (sp.faults <= 0) return;
    fault::set_seed(o.seed);
    std::uint64_t x = o.seed ^ 0xfa17u;
    const long span = std::max(1, (sp.episode_steps - 12) / sp.faults);
    for (int f = 0; f < sp.faults; ++f) {
      const long nth = 6 + f * span + static_cast<long>(splitmix(x) % span);
      const int rank = static_cast<int>(splitmix(x) % sp.ranks);
      fault::arm({.site = "solver.health",
                  .kind = fault::Kind::corrupt,
                  .nth = nth,
                  .rank = rank,
                  .max_fires = 1});
    }
  }

  Episode episode(int index, bool traced) {
    Episode ep;
    ep.traced = traced;
    ep.ranks.resize(sp.ranks);
    const std::string dir =
        (fs::path(o.work_dir) / ("ep" + std::to_string(index))).string();
    if (sp.guarded) fs::create_directories(dir);
    std::vector<double> global(
        global_cells(cs.cfg) * sv::n_conserved(cs.cfg.mech->n_species()));

    trace::set_enabled(traced);
    const trace::Summary before =
        traced ? trace::summarize() : trace::Summary{};
    if (sp.guarded) arm_faults();
    try {
      std::vector<std::atomic<double>> probes(sp.ranks);
      run_ranks(sp.ranks, [&](s3d::vmpi::Comm* comm, int rank) {
        rank_body(ep, comm, rank, dir, global, probes);
      });
    } catch (const std::exception& e) {
      ep.error = e.what();
    }
    settle_heap();
    if (sp.guarded) {
      ep.fires = fault::fires_at("solver.health");
      fault::reset();
    }
    if (traced) {
      const trace::Summary after = trace::summarize();
      ep.scan_s_rank0 = kernel_rank_s(after, "health.scan", 0) -
                        kernel_rank_s(before, "health.scan", 0);
      ep.halo_bytes = counter_total(after, "halo.bytes") -
                      counter_total(before, "halo.bytes");
    }
    trace::set_enabled(false);
    ep.checksum = s3d::fnv1a64(global.data(), global.size() * sizeof(double));
    return ep;
  }

  void rank_body(Episode& ep, s3d::vmpi::Comm* comm, int rank,
                 const std::string& dir, std::vector<double>& global,
                 std::vector<std::atomic<double>>& probes) {
    const bool r0 = rank == 0;
    Ledger* lg = r0 ? &ledger : nullptr;
    auto s = make_solver(cs, comm);
    s->initialize(cs.init);
    if (sp.guarded) {
      const auto tot = conserved_totals(*s, comm);  // collective
      if (r0) ep.tot0 = tot;
    }

    std::unique_ptr<viz::AnalysisDriver> drv;
    std::unique_ptr<sv::RestartSeries> series;
    if (sp.guarded) {
      viz::AnalysisOptions ao;
      ao.interval = sp.analysis_interval;
      ao.emit_every = 0;
      ao.out_dir = dir;
      drv = std::make_unique<viz::AnalysisDriver>(cs, ao);
      drv->add("conditional_means");
      drv->add("apriori_subgrid");
      drv->attach(*s, comm);
      sv::CkptOptions co;
      co.write_behind = true;
      series = std::make_unique<sv::RestartSeries>(
          dir, "hit.r" + std::to_string(rank), 3, co);
    }
    s->rhs().reset_timers();
    s->rhs().reset_pass_stats();
    s->reset_pass_stats();
    barrier(comm);

    // Every rank probes its CPU before the loop and then every
    // probe_every steps. Rank 0 scales each step by the slowest rank's
    // probe (the step waits for that rank), averaged over the probes
    // before and after the step.
    probes[rank] = probe_s();
    barrier(comm);
    auto slowest_probe = [&] {
      double worst = 0.0;
      for (const auto& p : probes) worst = std::max(worst, p.load());
      return worst;
    };
    double probe_before = slowest_probe();

    const double t_sim0 = s->time();
    const double t0 = now_s();
    double prev = t0;
    const int run_span = lg ? lg->begin(sp.guarded ? "run_guarded" : "run")
                            : -1;
    if (r0) ep.run_span = run_span;
    int step_span = lg ? lg->begin("step", 1) : -1;
    // Rank 0 times each committed step as the interval between
    // successive commit callbacks, minus the probes; hooks run inside the
    // next step's span.
    auto commit = [&](long step) {
      const double raw = now_s() - prev;
      if (r0) lg->end(step_span);
      if (step % sp.probe_every == 0) {
        Scope pr(lg, "probe", step);
        probes[rank] = probe_s();
      }
      if (!r0) return;
      const double probe_after = slowest_probe();
      ep.step_ms_raw.push_back(1e3 * raw);
      ep.step_ms.push_back(1e3 * raw * kProbeRefS /
                           (0.5 * (probe_before + probe_after)));
      probe_before = probe_after;
      step_span = lg->begin("step", step + 1);
      prev = now_s();
    };

    if (sp.guarded) {
      sv::GuardOptions g;
      g.dt_every = sp.dt_every;
      g.sidecar = drv->sidecar();
      g.fallback = series.get();
      sv::AdaptiveOptions ad;
      ad.enabled = true;
      ad.atol = sp.adaptive_atol;
      ad.rtol = sp.adaptive_rtol;
      g.adaptive = ad;
      g.on_clean_step = [&](long step) {
        commit(step);
        {
          // AnalysisDriver invokes on its own cadence; only due calls are
          // recorded as analysis spans.
          const bool due = step % sp.analysis_interval == 0;
          Scope a(due ? lg : nullptr, "analysis.on_step", step);
          drv->on_step(step);
        }
        if (step % sp.ckpt_every == 0) {
          Scope w(lg, "ckpt.write", step);
          series->write(*s, step);
          if (r0) {
            ++ep.ckpt_writes;
            ep.last_write = step;
          }
        }
      };
      const auto rep = sv::run_guarded(*s, sp.episode_steps, g, comm);
      if (r0) ep.rep = rep;
      ep.ranks[rank].executed = rep.executed_cell_steps;
      ep.ranks[rank].discarded = rep.discarded_cell_steps;
    } else {
      s->run(
          sp.episode_steps, [&](int) { commit(s->steps_taken()); },
          sp.dt_every);
    }
    const double t1 = now_s();
    if (lg) {
      lg->end(step_span);
      lg->end(run_span);
    }
    if (r0) {
      ep.wall_raw_s = t1 - t0;
      for (double ms : ep.step_ms) ep.wall_s += 1e-3 * ms;
      ep.steps = s->steps_taken();
      ep.sim_s = s->time() - t_sim0;
    }

    RankOut& ro = ep.ranks[rank];
    ro.timers = s->rhs().timers();
    ro.rhs_pass = s->rhs().pass_stats();
    ro.solver_pass = s->pass_stats();
    if (const auto* d = s->rhs().dlb_stats()) ro.dlb = *d;
    ro.local_cells = s->layout().interior();
    ro.ghosted = s->layout().total();

    if (sp.guarded) {
      const auto tot = conserved_totals(*s, comm);  // collective
      if (r0) ep.tot1 = tot;
      if (r0) {
        ep.analysis_invocations = drv->invocations();
        ep.analysis_sweeps = static_cast<double>(drv->pass_stats().sweeps);
        const auto paths = drv->emit(s->steps_taken());
        ep.emit_expected = static_cast<long>(drv->passes().size()) + 1;
        ep.emit_written = static_cast<long>(paths.size());
      }
      series->drain();
      ro.ckpt = series->stats();
      // Restore the newest generation into a fresh solver: it must be
      // the last written image, bitwise.
      auto s2 = make_solver(cs, comm);
      barrier(comm);
      Scope rs(lg, "ckpt.restore");
      const double tr = now_s();
      const long gen = series->read_latest(*s2);
      const double restore_ms = 1e3 * (now_s() - tr);
      rs.close();
      if (r0) ep.restore_ms = restore_ms;
      ro.restore_ok = gen == s->steps_taken() && s2->time() == s->time() &&
                      interior_equal(*s, *s2);
    }

    // Final-state verdicts: finite conserved state, T within bounds.
    const auto& l = s->layout();
    for (int v = 0; v < s->state().nv(); ++v)
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j)
          for (int i = 0; i < l.nx; ++i)
            if (!std::isfinite(s->state().at(v, i, j, k))) ro.finite = false;
    const auto& prim = s->primitives();
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i) {
          ro.Tmin = std::min(ro.Tmin, prim.T(i, j, k));
          ro.Tmax = std::max(ro.Tmax, prim.T(i, j, k));
        }
    gather_state(*s, cs.cfg, global);
  }

  /// Final state after `steps` plain steps on `ranks` ranks (1: the serial
  /// solver), as a global image.
  std::vector<double> short_run(int ranks, int steps) {
    std::vector<double> global(
        global_cells(cs.cfg) * sv::n_conserved(cs.cfg.mech->n_species()));
    run_ranks(ranks, [&](s3d::vmpi::Comm* comm, int) {
      auto s = make_solver(cs, comm);
      s->initialize(cs.init);
      s->run(steps, {}, sp.dt_every);
      gather_state(*s, cs.cfg, global);
    });
    return global;
  }
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

std::string checks_json(const std::vector<Check>& cs) {
  std::string out = "[";
  for (std::size_t i = 0; i < cs.size(); ++i) {
    Json j;
    j.str("name", cs[i].name).boolean("ok", cs[i].ok).str("detail",
                                                           cs[i].detail);
    out += (i ? ", " : "") + j.done();
  }
  return out + "]";
}

std::string hex(std::uint64_t v) {
  char b[24];
  std::snprintf(b, sizeof b, "%016llx", static_cast<unsigned long long>(v));
  return b;
}

/// Per-layer metrics over the traced episodes (see perfbench/spec.json
/// for the layer -> end-to-end prediction table).
std::string layers_json(const Run& run, const std::vector<Episode>& eps,
                        double equilibrium_ms, double overhead_frac,
                        std::string* coverage) {
  const Spec& sp = run.sp;
  double steps = 0, wall = 0, step_self = 0, scan = 0, halo_bytes = 0;
  double analysis = 0, writes = 0, fires = 0;
  double subcycle = 0, recoveries = 0, executed = 0, discarded = 0;
  double evals0 = 0, dlb_evals = 0, dlb_engaged = 0, shipped = 0;
  double sweeps0 = 0, computed_bytes = 0, chem_cell_evals = 0;
  double chem_all = 0, transport_all = 0;
  double persist_ms = 0, persisted = 0, logical = 0, written = 0, hwm = 0;
  double mass = 0, energy = 0, an_sweeps = 0, an_inv = 0;
  std::vector<double> an_ms, wr_ms, restore;
  sv::RhsTimers t0;  // rank 0
  std::vector<double> halo_rank(sp.ranks, 0.0), busy(sp.ranks, 0.0);
  int n = 0;
  for (const auto& ep : eps) {
    if (!ep.traced || !ep.error.empty()) continue;
    ++n;
    steps += ep.steps;
    const Ledger& lg = run.ledger;
    for (double d : lg.durations("step", ep.run_span)) wall += d;
    step_self += lg.self_total("step", ep.run_span);
    scan += ep.scan_s_rank0;
    halo_bytes += ep.halo_bytes;
    for (double d : lg.durations("analysis.on_step", ep.run_span)) {
      analysis += d;
      an_ms.push_back(1e3 * d);
    }
    for (double d : lg.durations("ckpt.write", ep.run_span)) {
      writes += d;
      wr_ms.push_back(1e3 * d);
    }
    fires += ep.fires;
    if (sp.guarded) {
      restore.push_back(ep.restore_ms);
      subcycle += ep.rep.subcycle_steps;
      recoveries += static_cast<double>(ep.rep.events.size());
      mass = std::max(mass, std::abs(ep.tot1[0] - ep.tot0[0]) /
                                std::abs(ep.tot0[0]));
      energy = std::max(energy, std::abs(ep.tot1[1] - ep.tot0[1]) /
                                    std::abs(ep.tot0[1]));
      an_sweeps += ep.analysis_sweeps;
      an_inv += ep.analysis_invocations;
    }
    const auto& r0 = ep.ranks[0].timers;
    t0.primitives += r0.primitives;
    t0.halo += r0.halo;
    t0.gradients += r0.gradients;
    t0.transport_props += r0.transport_props;
    t0.diffusive_flux += r0.diffusive_flux;
    t0.reaction_rate += r0.reaction_rate;
    t0.convective += r0.convective;
    t0.boundary += r0.boundary;
    evals0 += r0.evals;
    sweeps0 += ep.ranks[0].rhs_pass.sweeps + ep.ranks[0].solver_pass.sweeps;
    for (int r = 0; r < sp.ranks; ++r) {
      const RankOut& ro = ep.ranks[r];
      halo_rank[r] += ro.timers.halo;
      busy[r] += rhs_total(ro.timers) - ro.timers.halo;
      executed += ro.executed;
      discarded += ro.discarded;
      dlb_evals += r == 0 ? ro.dlb.evals : 0;
      dlb_engaged += r == 0 ? ro.dlb.evals_engaged : 0;
      shipped += ro.dlb.cells_shipped;
      computed_bytes += 8.0 * static_cast<double>(ro.ghosted) *
                        (ro.rhs_pass.stages + ro.solver_pass.stages);
      chem_cell_evals += static_cast<double>(ro.local_cells) * ro.timers.evals;
      chem_all += ro.timers.reaction_rate;
      transport_all += ro.timers.transport_props + ro.timers.diffusive_flux;
      persist_ms += ro.ckpt.persist_ms_total;
      persisted += ro.ckpt.persisted;
      logical += static_cast<double>(ro.ckpt.logical_bytes);
      written += static_cast<double>(ro.ckpt.written_bytes);
      hwm = std::max(hwm, static_cast<double>(ro.ckpt.queue_hwm));
    }
  }
  if (n == 0 || steps == 0) return "{}";
  const double per = 1e3 / steps;  // seconds total -> ms per step
  const double transport0 = t0.transport_props + t0.diffusive_flux;
  // Rank 0's committed-step spans tile the timed loop; their self time
  // is the step minus the analysis/checkpoint hooks run inside it.
  const double integrator = step_self - rhs_total(t0);
  double busy_max = 0, busy_mean = 0;
  for (double b : busy) {
    busy_max = std::max(busy_max, b);
    busy_mean += b / sp.ranks;
  }
  const auto [hmin, hmax] = std::minmax_element(halo_rank.begin(),
                                                halo_rank.end());
  // Multi-rank halo time is the exchange including its wait; a single
  // rank has no neighbour to exchange with.
  const bool exchanging = sp.ranks > 1;

  Json j;
  j.num("scenario.build_ms", median(run.build_ms))
      .num("chem.equilibrium_ms", equilibrium_ms)
      .num("chem.ms_per_step", t0.reaction_rate * per)
      .num("chem.ns_per_cell_eval", 1e9 * chem_all / chem_cell_evals)
      .num("transport.ms_per_step", transport0 * per)
      .num("transport.ns_per_cell_eval", 1e9 * transport_all / chem_cell_evals)
      .num("rhs.primitives_ms_per_step", t0.primitives * per)
      .num("rhs.gradients_ms_per_step", t0.gradients * per)
      .num("rhs.convective_ms_per_step", t0.convective * per)
      .num("rhs.boundary_ms_per_step", t0.boundary * per)
      .num("rhs.evals_per_step", evals0 / steps)
      .num("solver.integrator_ms_per_step", integrator * per)
      .num("solver.sweeps_per_step", sweeps0 / steps)
      .num("solver.computed_mb_per_step", 1e-6 * computed_bytes / steps)
      .num("halo.ms_per_step_max_rank", exchanging ? *hmax * per : 0.0)
      .num("halo.ms_per_step_min_rank", exchanging ? *hmin * per : 0.0)
      .num("halo.mb_per_step", 1e-6 * halo_bytes / steps)
      .num("dlb.engaged_frac", dlb_evals > 0 ? dlb_engaged / dlb_evals : 0.0)
      .num("dlb.cells_shipped_per_step", shipped / steps)
      .num("rank.busy_imbalance", busy_mean > 0 ? busy_max / busy_mean : 0.0)
      .num("health.scan_ms_per_step", scan * per)
      .num("health.waste_frac", executed > 0 ? discarded / executed : 0.0)
      .num("health.subcycle_steps", subcycle / n)
      .num("health.rollbacks", recoveries / n)
      .num("health.faults_fired", fires / n)
      .num("health.mass_drift_rel", mass)
      .num("health.energy_drift_rel", energy)
      .num("ckpt.write_ms_p50", median(wr_ms))
      .num("ckpt.persist_ms_per_gen", persisted > 0 ? persist_ms / persisted
                                                    : 0.0)
      .num("ckpt.queue_hwm", hwm)
      .num("ckpt.dedup_ratio", logical > 0 ? written / logical : 0.0)
      .num("ckpt.restore_ms", median(restore))
      .num("analysis.invoke_ms_p50", median(an_ms))
      .num("analysis.sweeps_per_invocation", an_inv > 0 ? an_sweeps / an_inv
                                                        : 0.0)
      .num("trace.overhead_frac", overhead_frac);

  // Coverage ledger of rank 0's traced step time: every layer's share
  // plus one named remainder (RK commits, filter, stable dt, snapshot
  // capture, guard bookkeeping) sums to the step.
  const double remainder = integrator - scan;
  Json c;
  c.num("step_ms", wall * per)
      .num("rhs.primitives", t0.primitives * per)
      .num("halo", t0.halo * per)
      .num("rhs.gradients", t0.gradients * per)
      .num("transport", transport0 * per)
      .num("chem", t0.reaction_rate * per)
      .num("rhs.convective", t0.convective * per)
      .num("rhs.boundary", t0.boundary * per)
      .num("health.scan", scan * per)
      .num("analysis", analysis * per)
      .num("ckpt.write", writes * per)
      .num("remainder.integrator", remainder * per);
  *coverage = c.done();
  return j.done();
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> n;
  for (const auto& s : specs()) n.push_back(s.name);
  return n;
}

int run_workload(const Options& o) {
  const Spec* found = nullptr;
  for (const auto& s : specs())
    if (s.name == o.workload) found = &s;
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const Spec& sp = *found;
  const Host host = host_fingerprint();
  trace::set_enabled(false);
  Run run(sp, o);
  std::vector<Check> checks;
  auto check = [&](const std::string& name, bool ok,
                   const std::string& detail) {
    checks.push_back({name, ok, detail});
  };

  // --- set-up samples (traced runs record them in the Chrome trace) ---
  // Traced runs report no setup_s, so one set-up (for scenario.build_ms)
  // is enough there. Untraced runs take half their set-ups before the
  // timed loop and the rest after it, so the median spans the run.
  const int reps = o.trace ? 1 : sp.setup_reps;
  const int reps_before = (reps + 1) / 2;
  for (int r = 0; r < reps_before; ++r) {
    trace::set_enabled(o.trace);
    run.setup_once();
    trace::set_enabled(false);
  }

  // --- timed loop: fixed-length episodes until the budget is spent ---
  // Untraced runs stop once --seconds of loop time and min_samples step
  // samples are pooled; traced runs alternate untraced/traced episodes
  // (the pair gives trace.overhead_frac) and stop on an even count.
  std::vector<Episode> eps;
  double wall = 0.0;
  std::size_t samples = 0;
  for (int e = 0;; ++e) {
    const bool traced = o.trace && e % 2 == 1;
    eps.push_back(run.episode(e, traced));
    const Episode& ep = eps.back();
    if (!ep.error.empty()) break;
    wall += ep.wall_raw_s;
    samples += ep.step_ms.size();
    const bool enough =
        o.trace ? (e % 2 == 1 && wall >= o.seconds)
                : (wall >= o.seconds &&
                   samples >= static_cast<std::size_t>(sp.min_samples));
    if (enough) break;
  }

  for (int r = reps_before; r < reps; ++r) run.setup_once();

  // --- correctness verdicts ---
  const int nv = sv::n_conserved(run.cs.cfg.mech->n_species());
  const std::size_t cells = global_cells(run.cs.cfg);
  for (std::size_t e = 0; e < eps.size(); ++e) {
    const Episode& ep = eps[e];
    const std::string tag = "episode" + std::to_string(e) + ".";
    if (!ep.error.empty()) {
      check(tag + "completed", false, ep.error);
      continue;
    }
    const bool done = ep.steps == sp.episode_steps &&
                      (!sp.guarded || ep.rep.completed);
    check(tag + "completed", done,
          std::to_string(ep.steps) + "/" + std::to_string(sp.episode_steps) +
              " steps");
    bool finite = true;
    double tmin = 1e300, tmax = -1e300;
    for (const auto& r : ep.ranks) {
      finite = finite && r.finite;
      tmin = std::min(tmin, r.Tmin);
      tmax = std::max(tmax, r.Tmax);
    }
    check(tag + "finite_state", finite, "conserved interior state");
    char b[96];
    std::snprintf(b, sizeof b, "T in [%.1f, %.1f] K, bounds [%g, %g]", tmin,
                  tmax, kBounds.T_min, kBounds.T_max);
    check(tag + "T_within_bounds",
          tmin >= kBounds.T_min && tmax <= kBounds.T_max, b);
    check(tag + "checksum_repeats", ep.checksum == eps[0].checksum,
          hex(ep.checksum) + " vs episode0 " + hex(eps[0].checksum));
    if (sp.guarded) {
      bool restored = true;
      for (const auto& r : ep.ranks) restored = restored && r.restore_ok;
      check(tag + "restore_bitwise", restored,
            "read_latest == generation " + std::to_string(ep.last_write));
    }
  }
  if (sp.rank_invariance) {
    const auto one = run.short_run(1, 3);
    const auto many = run.short_run(sp.ranks, 3);
    const bool same =
        std::memcmp(one.data(), many.data(), one.size() * sizeof(double)) == 0;
    check("rank_invariance", same,
          "3 steps, 1 rank " + hex(s3d::fnv1a64(one.data(), one.size() * 8)) +
              " vs " + std::to_string(sp.ranks) + " ranks " +
              hex(s3d::fnv1a64(many.data(), many.size() * 8)));
  }
  const double ws_rank = static_cast<double>(run.ws_bytes) / sp.ranks;
  {
    char b[160];
    std::snprintf(b, sizeof b,
                  "working set %.3f MB per rank, per-core L2 %.3f MB",
                  ws_rank / 1e6, host.l2 / 1e6);
    if (sp.size == Spec::Size::fits_l2)
      check("size.fits_l2", host.l2 > 0 && ws_rank <= host.l2, b);
    else if (sp.size == Spec::Size::exceeds_4x_l2)
      check("size.exceeds_4x_l2", host.l2 > 0 && ws_rank >= 4.0 * host.l2, b);
  }

  // --- per-layer metrics (traced runs) ---
  double eq_ms = 0.0;
  std::string layers = "{}", coverage = "{}";
  if (o.trace) {
    if (sp.scenario == "hit_autoignition") {
      // The equilibrium solve inside hit_autoignition's set-up, timed as
      // a direct call with the same inputs.
      const sv::HitAutoignitionParams hp;
      const auto mech = s3d::chem::h2_li2004();
      const auto Yu = s3d::chem::premixed_fuel_air_Y(mech, "H2", hp.phi);
      Scope sc(&run.ledger, "chem.equilibrium_products");
      const double t = now_s();
      s3d::chem::equilibrium_products(mech, 1400.0, hp.p, Yu, 0.05);
      eq_ms = 1e3 * (now_s() - t);
    }
    double cs_u = 0, w_u = 0, cs_t = 0, w_t = 0;
    for (const auto& ep : eps) {
      (ep.traced ? cs_t : cs_u) += static_cast<double>(cells) * ep.steps;
      (ep.traced ? w_t : w_u) += ep.wall_s;
    }
    const double overhead =
        (w_u > 0 && w_t > 0 && cs_u > 0) ? 1.0 - (cs_t / w_t) / (cs_u / w_u)
                                         : 0.0;
    layers = layers_json(run, eps, eq_ms, overhead, &coverage);
    // Solver and benchmark spans go out through the Chrome-trace
    // exporter; the ledger (with parents and step indices) beside it.
    if (!o.trace_file.empty()) {
      trace::write_chrome_trace(o.trace_file);
      std::ofstream(o.trace_file + ".spans") << run.ledger.json();
    }
  }

  // --- record ---
  std::vector<double> step_ms, step_ms_raw;
  double loop_wall_raw = 0, loop_wall = 0, sim = 0, steps = 0;
  long ckpt_gens = 0, ckpt_failed = 0, analysis_inv = 0, emit_dropped = 0;
  long restores = 0, restore_failed = 0, unrecovered = 0;
  for (const auto& ep : eps) {
    if (!ep.error.empty()) {
      ++unrecovered;
      continue;
    }
    if (!ep.traced) {
      step_ms.insert(step_ms.end(), ep.step_ms.begin(), ep.step_ms.end());
      step_ms_raw.insert(step_ms_raw.end(), ep.step_ms_raw.begin(),
                         ep.step_ms_raw.end());
      loop_wall += ep.wall_s;
      loop_wall_raw += ep.wall_raw_s;
      sim += ep.sim_s;
    }
    steps += static_cast<double>(ep.steps);
    if (sp.guarded) {
      ckpt_gens += ep.ckpt_writes;
      for (const auto& r : ep.ranks)
        ckpt_failed += r.ckpt.invalidated;
      analysis_inv += ep.analysis_invocations;
      emit_dropped += ep.emit_expected - ep.emit_written;
      ++restores;
      bool ok = true;
      for (const auto& r : ep.ranks) ok = ok && r.restore_ok;
      if (!ok) ++restore_failed;
    }
  }
  double untraced_steps = 0;
  for (const auto& ep : eps)
    if (!ep.traced && ep.error.empty()) untraced_steps += ep.steps;


  Json host_j;
  host_j.str("cpu", host.cpu)
      .integer("nproc", host.nproc)
      .integer("l2_bytes", host.l2)
      .integer("llc_bytes", host.llc)
      .str("compiler", S3D_BENCH_COMPILER)
      .str("flags", S3D_BENCH_CXX_FLAGS)
      .str("build_type", S3D_BENCH_BUILD_TYPE);
  Json ws_j;
  ws_j.num("bytes", static_cast<double>(run.ws_bytes))
      .num("bytes_per_rank", ws_rank)
      .integer("ghosted_cells", static_cast<long long>(run.ghosted_total))
      .num("fields", static_cast<double>(run.ws_bytes) /
                         (8.0 * static_cast<double>(run.ghosted_total)));
  Json ops;
  ops.integer("steps", static_cast<long long>(steps))
      .integer("ckpt_generations", ckpt_gens)
      .integer("ckpt_failed", ckpt_failed)
      .integer("analysis_invocations", analysis_inv)
      .integer("emissions_dropped", emit_dropped)
      .integer("restores", restores)
      .integer("restores_failed", restore_failed)
      .integer("unrecovered", unrecovered);
  Json rec;
  rec.str("workload", sp.name)
      .integer("seed", static_cast<long long>(o.seed))
      .boolean("trace", o.trace)
      .integer("ranks", sp.ranks)
      .integer("global_cells", static_cast<long long>(cells))
      .integer("n_conserved", nv)
      .integer("episodes", static_cast<long long>(eps.size()))
      .integer("episode_steps", sp.episode_steps)
      .raw("host", host_j.done())
      .raw("working_set", ws_j.done())
      .arr("setup_s", run.setup_s)
      .arr("scenario_build_ms", run.build_ms)
      .arr("solver_construct_s", run.ledger.durations("solver.construct"))
      .arr("solver_initialize_s", run.ledger.durations("solver.initialize"))
      .num("probe_ref_s", kProbeRefS)
      .arr("setup_raw_s", run.setup_raw_s)
      .arr("step_ms", step_ms)
      .arr("step_ms_raw", step_ms_raw)
      .num("loop_wall_s", loop_wall)
      .num("loop_wall_raw_s", loop_wall_raw)
      .num("loop_steps", untraced_steps)
      .num("loop_sim_s", sim)
      .num("peak_rss_mb", peak_rss_kb() / 1024.0)
      .str("checksum", eps.empty() ? "" : hex(eps[0].checksum))
      .raw("ops", ops.done())
      .raw("checks", checks_json(checks))
      .raw("layers", layers)
      .raw("coverage", coverage)
      .integer("ledger_spans", static_cast<long long>(run.ledger.spans().size()));
  std::printf("%s\n", rec.done().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
