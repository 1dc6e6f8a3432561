// Health-sentinel overhead on the lifted-flame step loop (DESIGN.md
// "Numerical health & recovery"). Four configurations of the same run:
//
//   bare      Solver::run(), no guard at all (the baseline);
//   disarmed  run_guarded() with health.enabled = false — the acceptance
//             bar is <= ~2% overhead, i.e. guarding a run costs nothing
//             until it is armed;
//   armed, in-pass       run_guarded() with per-step scans and
//             snapshots, conserved-state tripwires folded into the
//             step's final fused pass (HealthConfig::in_pass, DESIGN.md
//             §10) — the scan consumes the accumulated verdict instead
//             of sweeping U again;
//   armed, legacy scan   the same, with in_pass = false: the sentinel
//             re-sweeps the committed state separately each step. The
//             delta between the armed modes is the cost of the extra
//             sweep the fold removes.
//
// The armed scan cost is broken out per step from the health.scan trace
// span, plus the snapshot ring's memory footprint. Results are written
// machine-readably to BENCH_health_*.json.
//
// A second experiment (DESIGN.md §13) A/B-tests the recovery POLICY
// under a seeded fault schedule: three corrupt faults poison one cell
// each mid-run, and the same guarded case recovers via
//
//   halving   the legacy policy — global rollback plus dt halving;
//   ladder    the escalation ladder — localized rung-1/2 recovery that
//             restores and subcycles only the breaching block(s).
//
// The figure of merit is the wasted-work fraction (cell-steps discarded
// by restores / cell-steps executed) and the recovery wall-time over a
// fault-free baseline; the ladder must waste strictly less than the
// global policy or the bench exits nonzero (BENCH_health_ab.json).

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "resilience/fault.hpp"
#include "solver/cases.hpp"
#include "solver/health.hpp"
#include "solver/solver.hpp"
#include "trace/trace.hpp"

namespace sv = s3d::solver;
namespace trace = s3d::trace;
namespace fault = s3d::fault;

namespace {

double wall_ms(const std::chrono::steady_clock::time_point& t0,
               const std::chrono::steady_clock::time_point& t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

sv::CaseSetup flame_case() {
  sv::LiftedJetParams p;
  p.nx = s3dpp_bench::full_mode() ? 64 : 32;
  p.ny = s3dpp_bench::full_mode() ? 48 : 24;
  return sv::lifted_jet_case(p);
}

}  // namespace

int main() {
  using s3dpp_bench::banner;
  using s3dpp_bench::full_mode;

  banner("bench_health",
         "health sentinel overhead on the lifted-flame step loop");

  const auto setup = flame_case();
  const int nsteps = full_mode() ? 60 : 20;
  const int warmup = 3;
  std::printf("grid %dx%d, %d steps (+%d warmup), air over H2/air chem\n\n",
              setup.cfg.x.n, setup.cfg.y.n, nsteps, warmup);

  // --- bare step loop -----------------------------------------------------
  // Also the source of the per-kernel step profile (RhsTimers): the
  // chemistry / transport share of RHS time contextualizes the sentinel
  // overheads below against the paper's fig. 2 kernel breakdown.
  double bare_ms = 0.0;
  double chem_share = 0.0, transport_share = 0.0;
  {
    sv::Solver s(setup.cfg);
    s.initialize(setup.init);
    s.run(warmup);
    s.rhs().reset_timers();
    const auto t0 = std::chrono::steady_clock::now();
    s.run(nsteps);
    bare_ms = wall_ms(t0, std::chrono::steady_clock::now());
    const sv::RhsTimers& t = s.rhs().timers();
    const double total = t.primitives + t.halo + t.gradients +
                         t.transport_props + t.diffusive_flux +
                         t.reaction_rate + t.convective + t.boundary;
    if (total > 0.0) {
      chem_share = t.reaction_rate / total;
      transport_share = t.diffusive_flux / total;
    }
  }

  // --- guarded, disarmed --------------------------------------------------
  double disarmed_ms = 0.0;
  {
    sv::Solver s(setup.cfg);
    s.initialize(setup.init);
    s.run(warmup);
    sv::GuardOptions opts;
    opts.health.enabled = false;
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = sv::run_guarded(s, nsteps, opts);
    disarmed_ms = wall_ms(t0, std::chrono::steady_clock::now());
    if (!rep.completed) std::printf("disarmed run did not complete!\n");
  }

  // --- guarded, armed: in-pass tripwires vs legacy separate scan ----------
  struct ArmedResult {
    double total_ms = 0.0;
    double scan_ms_per_step = 0.0;
    long scans = 0;
    long in_pass_scans = 0;
    int rollbacks = 0;
    std::size_t ring_bytes = 0;
  };
  auto run_armed = [&](bool in_pass) {
    ArmedResult r;
    sv::Solver s(setup.cfg);
    s.initialize(setup.init);
    s.run(warmup);
    sv::GuardOptions opts;  // defaults: scan + snapshot every step
    opts.health.in_pass = in_pass;
    {
      sv::SnapshotRing probe(opts.ring_depth);
      probe.capture(s);
      r.ring_bytes = probe.bytes() * opts.ring_depth;
    }
    trace::clear();
    trace::set_enabled(true);
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = sv::run_guarded(s, nsteps, opts);
    r.total_ms = wall_ms(t0, std::chrono::steady_clock::now());
    trace::set_enabled(false);
    const auto sum = trace::summarize();
    if (const auto* k = sum.find("health.scan"); k && k->total_calls() > 0)
      r.scan_ms_per_step = k->total_s() * 1e3 / k->total_calls();
    if (const auto* c = sum.find_counter("health.in_pass_scans"))
      r.in_pass_scans = static_cast<long>(c->total);
    trace::clear();
    r.scans = rep.scans;
    r.rollbacks = rep.rollbacks;
    if (!rep.completed) std::printf("armed run did not complete!\n");
    return r;
  };
  const ArmedResult in_pass = run_armed(true);
  const ArmedResult legacy = run_armed(false);

  const double per_step = bare_ms / nsteps;
  std::printf("%-28s %10.2f ms  (%.3f ms/step)\n", "bare Solver::run", bare_ms,
              per_step);
  std::printf("%-28s %10.2f ms  (%+.2f%% vs bare)\n", "run_guarded, disarmed",
              disarmed_ms, 100.0 * (disarmed_ms - bare_ms) / bare_ms);
  std::printf("%-28s %10.2f ms  (%+.2f%% vs bare)\n",
              "run_guarded, armed in-pass", in_pass.total_ms,
              100.0 * (in_pass.total_ms - bare_ms) / bare_ms);
  std::printf("%-28s %10.2f ms  (%+.2f%% vs bare)\n",
              "run_guarded, legacy scan", legacy.total_ms,
              100.0 * (legacy.total_ms - bare_ms) / bare_ms);
  std::printf("\nin-pass : %ld scans (%ld folded), %d rollbacks, scan "
              "consume %.3f ms/step (%.1f%% of a step)\n",
              in_pass.scans, in_pass.in_pass_scans, in_pass.rollbacks,
              in_pass.scan_ms_per_step,
              100.0 * in_pass.scan_ms_per_step / per_step);
  std::printf("legacy  : %ld scans (%ld folded), %d rollbacks, scan sweep "
              "  %.3f ms/step (%.1f%% of a step)\n",
              legacy.scans, legacy.in_pass_scans, legacy.rollbacks,
              legacy.scan_ms_per_step,
              100.0 * legacy.scan_ms_per_step / per_step);
  std::printf("snapshot ring %.1f MiB\n",
              static_cast<double>(in_pass.ring_bytes) / (1024.0 * 1024.0));
  std::printf("step profile: chemistry %.1f%%, transport %.1f%% of RHS "
              "time\n",
              100.0 * chem_share, 100.0 * transport_share);

  const double cells =
      static_cast<double>(setup.cfg.x.n) * setup.cfg.y.n * setup.cfg.z.n;
  for (const bool folded : {true, false}) {
    const ArmedResult& r = folded ? in_pass : legacy;
    s3dpp_bench::BenchResult out;
    out.name = folded ? "health_armed_in_pass" : "health_armed_legacy";
    out.median_ns_per_cell_step = r.total_ms * 1e6 / (cells * nsteps);
    out.passes = r.scans;
    out.extra = {{"scan_ms_per_step", r.scan_ms_per_step},
                 {"in_pass_scans", static_cast<double>(r.in_pass_scans)},
                 {"total_ms", r.total_ms},
                 {"chem_share", chem_share},
                 {"transport_share", transport_share}};
    s3dpp_bench::write_bench_json(out);
  }

  int rc = 0;
  if (in_pass.in_pass_scans == 0) {
    std::printf("\nFAIL: in-pass mode never folded a tripwire scan\n");
    rc = 1;
  }
  if (legacy.in_pass_scans != 0) {
    std::printf("\nFAIL: legacy mode reported folded scans\n");
    rc = 1;
  }

  // --- A/B: global dt halving vs the escalation ladder --------------------
  std::printf("\nrecovery policy A/B under a seeded fault schedule "
              "(3 corrupt faults)\n");
  struct PolicyResult {
    double total_ms = 0.0;
    double wasted_frac = 0.0;
    int rollbacks = 0;
    int subcycle_recoveries = 0;
    int local_rollbacks = 0;
    long fires = 0;
    double dt_scale = 1.0;
  };
  // `faulted` arms the schedule; the same seed and plans make the two
  // policies face the same injected corruptions (the scan-call indices
  // shift slightly once recovery inserts extra scans, but the count and
  // placement law are identical).
  auto run_policy = [&](bool ladder, bool faulted) {
    PolicyResult r;
    sv::Solver s(setup.cfg);
    s.initialize(setup.init);
    s.run(warmup);
    sv::GuardOptions opts;  // scan + snapshot every step
    sv::AdaptiveOptions ad;
    ad.enabled = ladder;
    opts.adaptive = ad;
    fault::reset();
    if (faulted) {
      fault::set_seed(2026);
      for (const long nth : {5L, 11L, 17L})
        fault::arm({.site = "solver.health",
                    .kind = fault::Kind::corrupt,
                    .nth = nth,
                    .max_fires = 1});
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = sv::run_guarded(s, nsteps, opts);
    r.total_ms = wall_ms(t0, std::chrono::steady_clock::now());
    r.fires = fault::fires_at("solver.health");
    fault::reset();
    if (rep.executed_cell_steps > 0)
      r.wasted_frac = static_cast<double>(rep.discarded_cell_steps) /
                      static_cast<double>(rep.executed_cell_steps);
    r.rollbacks = rep.rollbacks;
    r.subcycle_recoveries = rep.subcycle_recoveries;
    r.local_rollbacks = rep.local_rollbacks;
    r.dt_scale = rep.dt_scale;
    if (!rep.completed) std::printf("policy run did not complete!\n");
    return r;
  };
  const PolicyResult clean = run_policy(false, false);
  const PolicyResult halving = run_policy(false, true);
  const PolicyResult ladder = run_policy(true, true);

  const double halving_recovery_ms = halving.total_ms - clean.total_ms;
  const double ladder_recovery_ms = ladder.total_ms - clean.total_ms;
  std::printf("%-28s %10.2f ms  (baseline, no faults)\n", "clean guarded run",
              clean.total_ms);
  std::printf("%-28s %10.2f ms  (+%.2f ms recovery)  wasted %.2f%%  "
              "%d global rollbacks, final dt x%g\n",
              "global halving", halving.total_ms, halving_recovery_ms,
              100.0 * halving.wasted_frac, halving.rollbacks,
              halving.dt_scale);
  std::printf("%-28s %10.2f ms  (+%.2f ms recovery)  wasted %.2f%%  "
              "%d subcycle + %d widened recoveries, %d global, final dt "
              "x%g\n",
              "escalation ladder", ladder.total_ms, ladder_recovery_ms,
              100.0 * ladder.wasted_frac, ladder.subcycle_recoveries,
              ladder.local_rollbacks, ladder.rollbacks, ladder.dt_scale);
  std::printf("(masked substeps evaluate the full-domain RHS for seam "
              "consistency, so on this small serial grid the ladder's "
              "wall-time is RHS-bound; the wasted-work fraction is the "
              "scale-relevant metric — a global rollback discards every "
              "rank's committed cell-steps, the ladder only the breaching "
              "block's.)\n");

  {
    s3dpp_bench::BenchResult out;
    out.name = "health_ab";
    out.median_ns_per_cell_step = ladder.total_ms * 1e6 / (cells * nsteps);
    out.passes = ladder.fires;
    out.extra = {{"ab_clean_ms", clean.total_ms},
                 {"ab_halving_ms", halving.total_ms},
                 {"ab_ladder_ms", ladder.total_ms},
                 {"ab_halving_recovery_ms", halving_recovery_ms},
                 {"ab_ladder_recovery_ms", ladder_recovery_ms},
                 {"ab_halving_wasted_frac", halving.wasted_frac},
                 {"ab_ladder_wasted_frac", ladder.wasted_frac},
                 {"ab_halving_rollbacks",
                  static_cast<double>(halving.rollbacks)},
                 {"ab_ladder_subcycle_recoveries",
                  static_cast<double>(ladder.subcycle_recoveries)},
                 {"ab_ladder_local_rollbacks",
                  static_cast<double>(ladder.local_rollbacks)},
                 {"ab_ladder_global_rollbacks",
                  static_cast<double>(ladder.rollbacks)},
                 {"ab_halving_final_dt_scale", halving.dt_scale},
                 {"ab_ladder_final_dt_scale", ladder.dt_scale}};
    s3dpp_bench::write_bench_json(out);
  }

  if (halving.fires != 3 || ladder.fires != 3) {
    std::printf("\nFAIL: fault schedule did not fire 3 times per policy "
                "(halving %ld, ladder %ld)\n",
                halving.fires, ladder.fires);
    rc = 1;
  }
  if (halving.rollbacks == 0) {
    std::printf("\nFAIL: global-halving policy never rolled back — the "
                "schedule exercised nothing\n");
    rc = 1;
  }
  if (!(ladder.wasted_frac < halving.wasted_frac)) {
    std::printf("\nFAIL: ladder wasted-work fraction %.4f is not below the "
                "global-halving policy's %.4f\n",
                ladder.wasted_frac, halving.wasted_frac);
    rc = 1;
  }

  std::printf("\nacceptance: disarmed overhead <= ~2%%; armed in-pass must "
              "fold its scans (and be no slower than the legacy sweep on "
              "quiet machines); the escalation ladder must waste strictly "
              "less work than global halving under the seeded faults.\n");
  return rc;
}
