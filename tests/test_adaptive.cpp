// Adaptive time-integration suite (ctest -L health / -L adaptive): the
// masked step_region contract, the embedded error estimator's
// no-perturbation guarantee, proactive stiff-region subcycling under
// run_guarded, the breach escalation ladder rung by rung, and the
// post-recovery dt restore (DESIGN.md §13).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chem/mechanisms.hpp"
#include "common/hash.hpp"
#include "resilience/fault.hpp"
#include "solver/dt_control.hpp"
#include "solver/health.hpp"
#include "solver/solver.hpp"
#include "trace/trace.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace chem = s3d::chem;
namespace fault = s3d::fault;
namespace vmpi = s3d::vmpi;
namespace trace = s3d::trace;

namespace {

sv::Config small_cfg() {
  sv::Config cfg;
  static auto mech =
      std::make_shared<const chem::Mechanism>(chem::air_inert());
  cfg.mech = mech;
  cfg.x = {24, 0.01, true};
  cfg.y = {12, 0.01, true};
  cfg.z = {1, 1.0, false};
  for (int a = 0; a < 3; ++a)
    for (auto& f : cfg.faces[a]) f.kind = sv::BcKind::periodic;
  cfg.transport = sv::TransportModel::power_law;
  return cfg;
}

void wavy_init(double x, double y, double z, sv::InflowState& st, double& p) {
  st.u = 3.0 * std::sin(2 * 3.14159265358979 * x / 0.01);
  st.v = 1.0 * std::cos(2 * 3.14159265358979 * y / 0.01);
  st.w = 0.5 * std::sin(2 * 3.14159265358979 * z / 0.01);
  st.T = 300.0 + 8.0 * std::sin(2 * 3.14159265358979 * (x + y) / 0.01);
  st.Y.fill(0.0);
  st.Y[0] = 0.233;
  st.Y[1] = 0.767;
  p = 101325.0;
}

struct FaultSession {
  explicit FaultSession(std::uint64_t seed = 2026) { fault::set_seed(seed); }
  ~FaultSession() { fault::reset(); }
};

/// Adaptive options tuned so the ladder is reachable in a short run.
sv::AdaptiveOptions adaptive_on() {
  sv::AdaptiveOptions ad;
  ad.enabled = true;
  ad.subcycle_cap = 4;  // keep masked substeps cheap in tests
  return ad;
}

std::uint64_t state_checksum(const sv::Solver& s) {
  s3d::Fnv1a64 h;
  const auto& l = s.layout();
  for (int v = 0; v < s.state().nv(); ++v)
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i)
          h.update_value(s.state().at(v, i, j, k));
  h.update_value(s.time());
  return h.digest();
}

bool state_all_finite(const sv::Solver& s) {
  const auto& l = s.layout();
  for (int v = 0; v < s.state().nv(); ++v)
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i)
          if (!std::isfinite(s.state().at(v, i, j, k))) return false;
  return true;
}

/// Bitwise interior comparison of two same-shape solvers.
bool interiors_bitwise_equal(const sv::Solver& a, const sv::Solver& b) {
  const auto& l = a.layout();
  for (int v = 0; v < a.state().nv(); ++v)
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i) {
          const double x = a.state().at(v, i, j, k);
          const double y = b.state().at(v, i, j, k);
          if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
        }
  return true;
}

sv::BlockMap map_of(const sv::Solver& s, int block) {
  return sv::BlockMap(s.mesh().nx(), s.mesh().ny(), s.mesh().nz(), block,
                      s.layout(), s.offset());
}

}  // namespace

// ---------------------------------------------------------------------------
// step_region: the masked-commit contract.

TEST(StepRegion, FullDomainMaskMatchesPlainStep) {
  // With the filter idle and no inflow faces, a step_region over every
  // interior row must be bitwise the plain step (same kernels, same
  // arithmetic — the mask only restricts which rows commit).
  auto cfg = small_cfg();
  cfg.filter_interval = 1000;  // keep the filter out of both paths
  sv::Solver a(cfg), b(cfg);
  a.initialize(wavy_init);
  b.initialize(wavy_init);
  // Both solvers estimate dt so the Newton warm-start workspaces match
  // bitwise before the compared steps.
  const double dt = a.stable_dt();
  ASSERT_EQ(b.stable_dt(), dt);
  a.step(dt);

  const auto m = map_of(b, 8);
  std::vector<int> all(static_cast<std::size_t>(m.n_blocks()));
  for (int i = 0; i < m.n_blocks(); ++i) all[static_cast<std::size_t>(i)] = i;
  const auto segs = m.segments(all);
  b.step_region(dt, segs);

  EXPECT_TRUE(interiors_bitwise_equal(a, b));
  EXPECT_DOUBLE_EQ(a.time(), b.time());
  // The step counter stays with the caller on the masked path.
  EXPECT_EQ(a.steps_taken(), 1);
  EXPECT_EQ(b.steps_taken(), 0);
}

TEST(StepRegion, MaskedCommitLeavesFarFieldUntouched) {
  auto cfg = small_cfg();
  cfg.filter_interval = 1000;
  sv::Solver a(cfg), b(cfg);
  a.initialize(wavy_init);
  b.initialize(wavy_init);
  const double dt = a.stable_dt();
  ASSERT_EQ(b.stable_dt(), dt);
  const auto m = map_of(b, 8);
  const auto segs = m.segments(std::vector<int>{0});
  b.step_region(dt, segs);
  // Cells outside block 0 hold their initial values bitwise, while the
  // masked block actually advanced.
  const auto& l = a.layout();
  bool moved = false;
  for (int v = 0; v < a.state().nv(); ++v)
    for (int j = 0; j < l.ny; ++j)
      for (int i = 0; i < l.nx; ++i) {
        const double x = a.state().at(v, i, j, 0);  // initial value
        const double y = b.state().at(v, i, j, 0);
        if (m.block_of_global(i, j, 0) == 0) {
          if (std::memcmp(&x, &y, sizeof(double)) != 0) moved = true;
        } else {
          ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
              << "far-field cell mutated by a masked step";
        }
      }
  EXPECT_TRUE(moved) << "the masked block must actually integrate";
}

// ---------------------------------------------------------------------------
// Embedded error estimate.

TEST(ErrorEstimate, ArmedStepDoesNotPerturbState) {
  auto cfg = small_cfg();
  sv::Solver a(cfg), b(cfg);
  a.initialize(wavy_init);
  b.initialize(wavy_init);
  const double dt = a.stable_dt();
  ASSERT_EQ(b.stable_dt(), dt);
  const auto m = map_of(b, 8);
  std::vector<double> err;
  b.arm_error_estimate(m, 1e-6, 1e-4, &err);
  a.step(dt);
  b.step(dt);
  EXPECT_TRUE(interiors_bitwise_equal(a, b))
      << "the estimator must ride the step without changing it";
  ASSERT_EQ(err.size(), static_cast<std::size_t>(m.n_blocks()));
  bool any = false;
  for (double e : err) {
    ASSERT_TRUE(std::isfinite(e));
    ASSERT_GE(e, 0.0);
    if (e > 0.0) any = true;
  }
  EXPECT_TRUE(any) << "a real step must register a nonzero error";
  // One-shot: the next step accumulates nothing.
  const std::vector<double> keep = err;
  b.step(dt);
  EXPECT_EQ(err, keep);
}

TEST(ErrorEstimate, ScalesWithDt) {
  // The estimate is first order in the embedded pair: a larger dt must
  // produce a larger normalized error on the same state.
  auto cfg = small_cfg();
  sv::Solver a(cfg), b(cfg);
  a.initialize(wavy_init);
  b.initialize(wavy_init);
  const double dt = a.stable_dt();
  ASSERT_EQ(b.stable_dt(), dt);
  const auto ma = map_of(a, 8);
  const auto mb = map_of(b, 8);
  std::vector<double> ea, eb;
  a.arm_error_estimate(ma, 1e-6, 1e-4, &ea);
  b.arm_error_estimate(mb, 1e-6, 1e-4, &eb);
  a.step(dt);
  b.step(0.25 * dt);
  double max_a = 0.0, max_b = 0.0;
  for (double e : ea) max_a = std::max(max_a, e);
  for (double e : eb) max_b = std::max(max_b, e);
  EXPECT_GT(max_a, max_b);
}

// ---------------------------------------------------------------------------
// run_guarded with the controller: proactive subcycling.

TEST(AdaptiveGuard, CleanRunAtDefaultsMatchesLegacyPath) {
  // With loose tolerances nothing is stiff: the adaptive guard takes
  // exactly the legacy path and the final state is bitwise the
  // adaptive-off run.
  sv::Solver a(small_cfg()), b(small_cfg());
  a.initialize(wavy_init);
  b.initialize(wavy_init);
  sv::GuardOptions off;
  const auto ra = sv::run_guarded(a, 6, off);
  sv::GuardOptions on;
  on.adaptive = adaptive_on();
  const auto rb = sv::run_guarded(b, 6, on);
  EXPECT_TRUE(ra.completed);
  EXPECT_TRUE(rb.completed);
  EXPECT_TRUE(interiors_bitwise_equal(a, b));
  EXPECT_EQ(rb.subcycle_steps, 0);
  EXPECT_EQ(rb.discarded_cell_steps, 0);
  const auto& l = b.layout();
  EXPECT_EQ(rb.executed_cell_steps, 6L * l.nx * l.ny * l.nz);
}

TEST(AdaptiveGuard, TightToleranceDrivesProactiveSubcycling) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  auto ad = adaptive_on();
  ad.atol = 1e-18;  // every block is "stiff" under this tolerance
  ad.rtol = 1e-12;
  opts.adaptive = ad;
  const auto rep = sv::run_guarded(s, 6, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.rollbacks, 0);
  EXPECT_GT(rep.subcycle_steps, 0)
      << "tight tolerances must trigger stiff-region subcycling";
  EXPECT_GT(rep.discarded_cell_steps, 0);  // redone masked cells
  EXPECT_TRUE(state_all_finite(s));
  EXPECT_EQ(rep.final_steps, 6);
}

TEST(AdaptiveGuard, ProactiveSubcyclingIsDeterministic) {
  const auto run = [] {
    sv::Solver s(small_cfg());
    s.initialize(wavy_init);
    sv::GuardOptions opts;
    auto ad = adaptive_on();
    ad.atol = 1e-18;
    ad.rtol = 1e-12;
    opts.adaptive = ad;
    const auto rep = sv::run_guarded(s, 5, opts);
    EXPECT_TRUE(rep.completed);
    return state_checksum(s);
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// The escalation ladder, rung by rung.

TEST(Ladder, Rung1SubcyclesBreachingBlockWithoutGlobalRollback) {
  FaultSession fs_;
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::corrupt,
              .nth = 2,
              .max_fires = 1});
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  opts.adaptive = adaptive_on();
  const auto rep = sv::run_guarded(s, 8, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.final_steps, 8);
  EXPECT_EQ(rep.rollbacks, 0) << "a localized breach must not go global";
  EXPECT_EQ(rep.subcycle_recoveries, 1);
  EXPECT_EQ(rep.local_rollbacks, 0);
  ASSERT_EQ(rep.events.size(), 1u);
  EXPECT_EQ(rep.events[0].rung, 1);
  EXPECT_EQ(rep.events[0].report.breach, sv::Breach::non_finite);
  EXPECT_DOUBLE_EQ(rep.events[0].dt_scale, 1.0)
      << "rungs 1-2 must not scale the global dt";
  EXPECT_DOUBLE_EQ(rep.dt_scale, 1.0);
  EXPECT_TRUE(state_all_finite(s));
  EXPECT_EQ(fault::fires_at("solver.health"), 1);
}

TEST(Ladder, ExhaustedSubcycleBudgetWidensToRung2) {
  FaultSession fs_;
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::corrupt,
              .nth = 2,
              .max_fires = 1});
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  auto ad = adaptive_on();
  ad.max_subcycle_retries = 0;  // straight past rung 1
  opts.adaptive = ad;
  const auto rep = sv::run_guarded(s, 8, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.rollbacks, 0);
  EXPECT_EQ(rep.subcycle_recoveries, 0);
  EXPECT_EQ(rep.local_rollbacks, 1);
  ASSERT_EQ(rep.events.size(), 1u);
  EXPECT_EQ(rep.events[0].rung, 2);
  EXPECT_TRUE(state_all_finite(s));
}

TEST(Ladder, ExhaustedLocalBudgetsEscalateToGlobalRollback) {
  FaultSession fs_;
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::corrupt,
              .nth = 2,
              .max_fires = 1});
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  auto ad = adaptive_on();
  ad.max_subcycle_retries = 0;
  ad.max_local_rollbacks = 0;
  ad.dt_recover_after = 0;  // keep the halved dt visible in the report
  opts.adaptive = ad;
  const auto rep = sv::run_guarded(s, 8, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.rollbacks, 1);
  EXPECT_EQ(rep.subcycle_recoveries, 0);
  EXPECT_EQ(rep.local_rollbacks, 0);
  ASSERT_EQ(rep.events.size(), 1u);
  EXPECT_EQ(rep.events[0].rung, 3);
  EXPECT_DOUBLE_EQ(rep.dt_scale, 0.5);
  EXPECT_GT(rep.discarded_cell_steps, 0);
  EXPECT_TRUE(state_all_finite(s));
}

TEST(Ladder, DtScaleRestoredAfterCleanStreak) {
  // Satellite fix: after a global-rung halving, a configured streak of
  // clean scans restores the controller-chosen dt instead of dragging
  // the halved step to the end of the run.
  FaultSession fs_;
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::corrupt,
              .nth = 2,
              .max_fires = 1});
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  auto ad = adaptive_on();
  ad.max_subcycle_retries = 0;
  ad.max_local_rollbacks = 0;  // force the global rung
  ad.dt_recover_after = 2;
  opts.adaptive = ad;
  const auto rep = sv::run_guarded(s, 10, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.rollbacks, 1);
  EXPECT_DOUBLE_EQ(rep.dt_scale, 1.0)
      << "the pre-breach dt must come back after the clean streak";
  EXPECT_TRUE(state_all_finite(s));
}

TEST(Ladder, LocalizedRecoveryIsDeterministic) {
  const auto run = [] {
    FaultSession fs_;
    fault::arm({.site = "solver.health",
                .kind = fault::Kind::corrupt,
                .nth = 3,
                .max_fires = 1});
    sv::Solver s(small_cfg());
    s.initialize(wavy_init);
    sv::GuardOptions opts;
    opts.adaptive = adaptive_on();
    const auto rep = sv::run_guarded(s, 8, opts);
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.rollbacks, 0);
    EXPECT_EQ(rep.subcycle_recoveries, 1);
    return state_checksum(s);
  };
  EXPECT_EQ(run(), run());
}

TEST(Ladder, CollectiveLadderAgreesAcrossRanks) {
  FaultSession fs_;
  // Rank 0 alone reports the injected breach (global cell (0,0,0) ->
  // block 0); the ladder must take the identical localized action on
  // both ranks — including the rank that owns no cell of block 0.
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::fail,
              .nth = 1,
              .rank = 0,
              .max_fires = 1});
  std::vector<sv::GuardReport> reps(2);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    sv::Solver s(small_cfg(), comm, 2, 1, 1);
    s.initialize(wavy_init);
    sv::GuardOptions opts;
    opts.adaptive = adaptive_on();
    reps[comm.rank()] = sv::run_guarded(s, 6, opts, &comm);
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(reps[r].completed) << "rank " << r;
    EXPECT_EQ(reps[r].rollbacks, 0) << "rank " << r;
    EXPECT_EQ(reps[r].subcycle_recoveries, 1) << "rank " << r;
    ASSERT_EQ(reps[r].events.size(), 1u) << "rank " << r;
    EXPECT_EQ(reps[r].events[0].rung, 1);
    EXPECT_EQ(reps[r].events[0].report.breach, sv::Breach::injected);
    EXPECT_EQ(reps[r].events[0].report.rank, 0);
  }
  EXPECT_EQ(reps[0].events[0].rolled_back_to,
            reps[1].events[0].rolled_back_to);
}

TEST(Ladder, GaugesAndCountersTraced) {
  trace::clear();
  trace::set_enabled(true);
  {
    FaultSession fs_;
    fault::arm({.site = "solver.health",
                .kind = fault::Kind::corrupt,
                .nth = 2,
                .max_fires = 1});
    sv::Solver s(small_cfg());
    s.initialize(wavy_init);
    sv::GuardOptions opts;
    opts.adaptive = adaptive_on();
    const auto rep = sv::run_guarded(s, 6, opts);
    EXPECT_TRUE(rep.completed);
  }
  trace::set_enabled(false);
  const auto sum = trace::summarize();
  const auto* rung1 = sum.find_counter("health.ladder.subcycle");
  const auto* nsub = sum.find_counter("health.subcycle_count");
  const auto* dt_min = sum.find_counter("health.dt_min");
  ASSERT_NE(rung1, nullptr) << "rung-1 counter missing from the trace";
  EXPECT_GE(rung1->total, 1.0);
  ASSERT_NE(nsub, nullptr) << "subcycle-count counter missing";
  EXPECT_GE(nsub->total, 2.0);
  ASSERT_NE(dt_min, nullptr) << "per-block dt_min gauge missing";
  EXPECT_TRUE(dt_min->is_gauge);
  EXPECT_GT(dt_min->total, 0.0);
  trace::clear();
}
