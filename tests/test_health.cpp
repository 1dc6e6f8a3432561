// Health-sentinel suite (ctest -L health): breach detection and the
// collective rollback-and-retry driver, the dt-cache invalidation
// contract, the counted mass-fraction clip knob, Config::validate()
// property checks over malformed configs, and stable_dt() behaviour on
// extreme states.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "chem/mechanisms.hpp"
#include "common/hash.hpp"
#include "resilience/fault.hpp"
#include "solver/checkpoint.hpp"
#include "solver/health.hpp"
#include "solver/resilient.hpp"
#include "solver/solver.hpp"
#include "trace/trace.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace chem = s3d::chem;
namespace fault = s3d::fault;
namespace vmpi = s3d::vmpi;
namespace trace = s3d::trace;
namespace fs = std::filesystem;

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

struct TmpDir {
  fs::path p;
  explicit TmpDir(const std::string& name)
      : p(fs::temp_directory_path() / name) {
    fs::remove_all(p);
    fs::create_directories(p);
  }
  ~TmpDir() {
    std::error_code ec;
    fs::remove_all(p, ec);
  }
  std::string str() const { return p.string(); }
};

struct FaultSession {
  explicit FaultSession(std::uint64_t seed = 2026) { fault::set_seed(seed); }
  ~FaultSession() { fault::reset(); }
};

std::uint64_t state_checksum(const sv::Solver& s) {
  s3d::Fnv1a64 h;
  const auto& l = s.layout();
  for (int v = 0; v < s.state().nv(); ++v)
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i)
          h.update_value(s.state().at(v, i, j, k));
  h.update_value(s.time());
  const long steps = s.steps_taken();
  h.update_value(steps);
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

}  // namespace

// ---------------------------------------------------------------------------
// Satellite: dt-cache invalidation on external state restore.

TEST(DtCache, InvalidatedOnRestartLoad) {
  TmpDir dir("s3d_health_dtcache");
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  s.run(3);
  ASSERT_GT(s.cached_dt(), 0.0) << "run() must leave a cached dt behind";
  sv::write_restart(dir.str() + "/r.rst", s);
  s.run(2);
  ASSERT_GT(s.cached_dt(), 0.0);
  sv::read_restart(dir.str() + "/r.rst", s);
  // A dt computed from the pre-restore state must not leak into the
  // restored one.
  EXPECT_LT(s.cached_dt(), 0.0);
  EXPECT_EQ(s.steps_taken(), 3);
}

TEST(DtCache, InvalidatedBySnapshotRollback) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  s.run(2);
  sv::SnapshotRing ring(2);
  ring.capture(s);
  s.run(3);
  ASSERT_GT(s.cached_dt(), 0.0);
  ring.restore_newest(s);
  EXPECT_LT(s.cached_dt(), 0.0);
  EXPECT_EQ(s.steps_taken(), 2);
}

TEST(DtCache, ExplicitInvalidation) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  s.run(1);
  ASSERT_GT(s.cached_dt(), 0.0);
  s.invalidate_dt_cache();
  EXPECT_LT(s.cached_dt(), 0.0);
}

// ---------------------------------------------------------------------------
// Satellite: counted, opt-in clamp-and-renormalize at the prim boundary.

TEST(PrimBoundary, ClipIsCountedWithWorstOffender) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  const auto& l = s.layout();
  // Push one partial density slightly negative (a dispersion-error
  // undershoot) and count the repair.
  const double rho = s.state().at(sv::UIndex::rho, 3, 4, 0);
  s.state().at(sv::UIndex::Y0, 3, 4, 0) = -1e-3 * rho;

  sv::PrimStats stats;
  sv::prim_from_conserved(s.rhs().mech(), s.state(), s.rhs().prim(), {},
                          &stats);
  EXPECT_EQ(stats.y_clipped, 1);
  EXPECT_NEAR(stats.y_most_negative, -1e-3, 1e-12);
  EXPECT_EQ(stats.worst_cell >= 0, true);

  // The historical policy dumps the clipped mass into the last species:
  // the stored fractions still sum to one.
  double ysum = 0.0;
  for (const auto& Y : s.rhs().prim().Y) ysum += Y.data()[l.at(3, 4, 0)];
  EXPECT_NEAR(ysum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.rhs().prim().Y[0].data()[l.at(3, 4, 0)], 0.0);
}

TEST(PrimBoundary, RenormalizeKnobKeepsUnitSum) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  const auto& l = s.layout();
  const double rho = s.state().at(sv::UIndex::rho, 5, 2, 0);
  // Overshoot: the stored species alone exceeds a sum of one, so the
  // recovered last species would go negative.
  s.state().at(sv::UIndex::Y0, 5, 2, 0) = 1.2 * rho;

  sv::PrimOptions opts;
  opts.renormalize_y = true;
  sv::PrimStats stats;
  sv::prim_from_conserved(s.rhs().mech(), s.state(), s.rhs().prim(), opts,
                          &stats);
  double ysum = 0.0;
  for (const auto& Y : s.rhs().prim().Y) ysum += Y.data()[l.at(5, 2, 0)];
  EXPECT_NEAR(ysum, 1.0, 1e-12);
  for (const auto& Y : s.rhs().prim().Y)
    EXPECT_GE(Y.data()[l.at(5, 2, 0)], 0.0);
}

TEST(PrimBoundary, SolverPrimitivesHonourRenormalizeKnob) {
  // Analysis, checkpoint min/max and the benchmark read Y through
  // Solver::primitives(); with Config::y_renormalize on it must apply the
  // same repair the RHS stepped with.
  sv::Config cfg = small_cfg();
  cfg.y_renormalize = true;
  sv::Solver s(cfg);
  s.initialize(wavy_init);
  const auto& l = s.layout();
  const std::size_t n = l.at(5, 2, 0);
  s.state().at(sv::UIndex::Y0, 5, 2, 0) = 1.2 * s.state().at(sv::UIndex::rho,
                                                             5, 2, 0);

  sv::State dUdt(l, s.state().nv());
  s.rhs().eval(s.state(), 0.0, dUdt);
  std::vector<double> rhs_Y;
  for (const auto& Y : s.rhs().prim().Y) rhs_Y.push_back(Y.data()[n]);

  const sv::Prim& prim = s.primitives();
  for (std::size_t sp = 0; sp < rhs_Y.size(); ++sp)
    EXPECT_EQ(prim.Y[sp].data()[n], rhs_Y[sp]) << "species " << sp;
}

TEST(PrimBoundary, YClipCounterTraced) {
  trace::clear();
  trace::set_enabled(true);
  sv::Config cfg = small_cfg();
  cfg.count_y_clips = true;
  sv::Solver s(cfg);
  s.initialize(wavy_init);
  const double rho = s.state().at(sv::UIndex::rho, 7, 3, 0);
  s.state().at(sv::UIndex::Y0, 7, 3, 0) = -1e-4 * rho;
  s.step(1e-9);  // one RHS eval suffices to cross the prim boundary
  trace::set_enabled(false);
  const auto sum = trace::summarize();
  const auto* c = sum.find_counter("health.y_clip");
  ASSERT_NE(c, nullptr) << "counted knob must emit the health.y_clip counter";
  EXPECT_GE(c->total, 1.0);
  trace::clear();
}

// ---------------------------------------------------------------------------
// Satellite: Config::validate() typed errors over malformed configs.

TEST(ConfigValidate, AcceptsWellFormed) {
  EXPECT_NO_THROW(small_cfg().validate());
}

TEST(ConfigValidate, PropertyMalformedConfigsThrowTyped) {
  const double bad_vals[] = {std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::infinity(), -1.0,
                             0.0};
  struct Mutation {
    const char* field;  ///< expected ConfigError::field()
    std::function<void(sv::Config&, double)> apply;
    bool zero_ok;  ///< 0.0 is a legal value for this field
  };
  const std::vector<Mutation> mutations = {
      {"cfl", [](sv::Config& c, double v) { c.cfl = v; }, false},
      {"fourier", [](sv::Config& c, double v) { c.fourier = v; }, false},
      {"filter_alpha", [](sv::Config& c, double v) { c.filter_alpha = v; },
       false},
      {"T_ref", [](sv::Config& c, double v) { c.T_ref = v; }, false},
      {"p_ref", [](sv::Config& c, double v) { c.p_ref = v; }, false},
      {"Pr", [](sv::Config& c, double v) { c.Pr = v; }, false},
      {"x", [](sv::Config& c, double v) { c.x.length = v; }, false},
  };
  for (const auto& m : mutations) {
    for (double v : bad_vals) {
      if (m.zero_ok && v == 0.0) continue;
      sv::Config cfg = small_cfg();
      m.apply(cfg, v);
      try {
        cfg.validate();
        FAIL() << "Config." << m.field << " = " << v << " must be rejected";
      } catch (const sv::ConfigError& e) {
        EXPECT_EQ(e.field(), m.field);
      }
    }
  }
}

TEST(ConfigValidate, StructuralErrors) {
  {
    sv::Config cfg = small_cfg();
    cfg.mech = nullptr;
    EXPECT_THROW(cfg.validate(), sv::ConfigError);
  }
  {
    sv::Config cfg = small_cfg();
    cfg.x.n = 0;
    EXPECT_THROW(cfg.validate(), sv::ConfigError);
  }
  {
    // Periodicity flag contradicting the face BCs.
    sv::Config cfg = small_cfg();
    cfg.x.periodic = false;
    EXPECT_THROW(cfg.validate(), sv::ConfigError);
  }
  {
    // An inflow face without an inflow generator.
    sv::Config cfg = small_cfg();
    cfg.x.periodic = false;
    cfg.faces[0][0].kind = sv::BcKind::nscbc_inflow;
    cfg.faces[0][1].kind = sv::BcKind::nscbc_outflow;
    cfg.faces[0][1].p_target = 101325.0;
    EXPECT_THROW(cfg.validate(), sv::ConfigError);
  }
  {
    // Outflow face with a nonsensical far-field pressure.
    sv::Config cfg = small_cfg();
    cfg.x.periodic = false;
    cfg.faces[0][0].kind = sv::BcKind::nscbc_outflow;
    cfg.faces[0][1].kind = sv::BcKind::nscbc_outflow;
    cfg.faces[0][0].p_target = -5.0;
    cfg.faces[0][1].p_target = 101325.0;
    EXPECT_THROW(cfg.validate(), sv::ConfigError);
  }
  {
    sv::Config cfg = small_cfg();
    cfg.filter_interval = -1;
    EXPECT_THROW(cfg.validate(), sv::ConfigError);
  }
}

TEST(ConfigValidate, SolverConstructorRejectsMalformed) {
  sv::Config cfg = small_cfg();
  cfg.cfl = -0.5;
  EXPECT_THROW(sv::Solver s(cfg), sv::ConfigError);
}

// ---------------------------------------------------------------------------
// Satellite: stable_dt() under extreme states.

namespace {

double stable_dt_for(const sv::Config& cfg, const sv::InitFn& init) {
  sv::Solver s(cfg);
  s.initialize(init);
  return s.stable_dt();
}

}  // namespace

TEST(StableDt, FiniteOnExtremeStates) {
  const auto quiescent = [](double, double, double, sv::InflowState& st,
                            double& p) {
    st.u = st.v = st.w = 0.0;
    st.T = 300.0;
    st.Y.fill(0.0);
    st.Y[0] = 0.233;
    st.Y[1] = 0.767;
    p = 101325.0;
  };
  const auto near_vacuum = [](double, double, double, sv::InflowState& st,
                              double& p) {
    st.u = st.v = st.w = 0.0;
    st.T = 300.0;
    st.Y.fill(0.0);
    st.Y[0] = 0.233;
    st.Y[1] = 0.767;
    p = 5.0;  // ~5e-5 kg/m^3
  };
  const auto hot_spot = [](double x, double y, double, sv::InflowState& st,
                           double& p) {
    const double r2 = (x - 0.005) * (x - 0.005) + (y - 0.005) * (y - 0.005);
    st.u = st.v = st.w = 0.0;
    st.T = 300.0 + 2200.0 * std::exp(-r2 / (0.001 * 0.001));
    st.Y.fill(0.0);
    st.Y[0] = 0.233;
    st.Y[1] = 0.767;
    p = 101325.0;
  };

  const double dt_q = stable_dt_for(small_cfg(), quiescent);
  const double dt_v = stable_dt_for(small_cfg(), near_vacuum);
  const double dt_h = stable_dt_for(small_cfg(), hot_spot);
  for (double dt : {dt_q, dt_v, dt_h}) {
    EXPECT_TRUE(std::isfinite(dt));
    EXPECT_GT(dt, 0.0);
  }
  // A zero-velocity state is still acoustically limited: the dt must not
  // blow up to the pure-diffusive bound.
  EXPECT_LT(dt_q, 1e-3);
  // Hot gas is faster gas: the acoustic limit must tighten.
  EXPECT_LT(dt_h, dt_q);
  // Near-vacuum: the diffusive limit (nu = mu/rho huge) must tighten, not
  // overflow.
  EXPECT_LT(dt_v, dt_q);
}

TEST(StableDt, MonotoneUnderGridRefinement) {
  double prev = std::numeric_limits<double>::infinity();
  for (int n : {12, 24, 48}) {
    sv::Config cfg = small_cfg();
    cfg.x.n = n;
    cfg.y.n = n / 2;
    const double dt = stable_dt_for(cfg, wavy_init);
    ASSERT_TRUE(std::isfinite(dt));
    ASSERT_GT(dt, 0.0);
    EXPECT_LT(dt, prev) << "refining the grid must shrink the stable dt";
    prev = dt;
  }
}

// ---------------------------------------------------------------------------
// Tentpole: the sentinel and run_guarded.

TEST(HealthSentinel, CleanRunNoBreach) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  const auto rep = sv::run_guarded(s, 6, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.rollbacks, 0);
  EXPECT_EQ(rep.scans, 6);
  EXPECT_EQ(rep.final_steps, 6);
  EXPECT_DOUBLE_EQ(rep.dt_scale, 1.0);
  EXPECT_TRUE(rep.events.empty());
}

TEST(HealthSentinel, DisarmedSentinelScansNothing) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  opts.health.enabled = false;
  const auto rep = sv::run_guarded(s, 4, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.scans, 0);
}

TEST(HealthSentinel, GuardOptionsValidate) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  opts.dt_factor = 1.5;
  EXPECT_THROW(sv::run_guarded(s, 1, opts), sv::ConfigError);
  opts = {};
  opts.ring_depth = 0;
  EXPECT_THROW(sv::run_guarded(s, 1, opts), sv::ConfigError);
  opts = {};
  opts.health.T_min = 400.0;
  opts.health.T_max = 300.0;
  EXPECT_THROW(sv::run_guarded(s, 1, opts), sv::ConfigError);
}

TEST(HealthSentinel, RecoversFromInjectedNaN) {
  FaultSession fs_;
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::corrupt,
              .nth = 2,
              .max_fires = 1});
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  const auto rep = sv::run_guarded(s, 8, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.final_steps, 8);
  ASSERT_EQ(rep.rollbacks, 1);
  ASSERT_EQ(rep.events.size(), 1u);
  const auto& ev = rep.events[0];
  EXPECT_EQ(ev.report.breach, sv::Breach::non_finite);
  EXPECT_GE(ev.report.value, 1.0);  // at least one poisoned value
  EXPECT_GE(ev.report.cell[0], 0);  // worst cell resolved
  EXPECT_EQ(std::string(ev.report.site()), "health.non_finite");
  EXPECT_DOUBLE_EQ(ev.dt_scale, 0.5);
  EXPECT_TRUE(state_all_finite(s));
  EXPECT_EQ(fault::fires_at("solver.health"), 1);
}

TEST(HealthSentinel, RecoveryIsDeterministic) {
  const auto guarded_run = [] {
    FaultSession fs_;
    fault::arm({.site = "solver.health",
                .kind = fault::Kind::corrupt,
                .nth = 3,
                .max_fires = 1});
    sv::Solver s(small_cfg());
    s.initialize(wavy_init);
    sv::GuardOptions opts;
    const auto rep = sv::run_guarded(s, 8, opts);
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.rollbacks, 1);
    return state_checksum(s);
  };
  EXPECT_EQ(guarded_run(), guarded_run());
}

TEST(HealthSentinel, OversizedFixedDtIsCaughtAndShrunk) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  const double dt0 = s.stable_dt();
  sv::Solver s2(small_cfg());
  s2.initialize(wavy_init);
  sv::GuardOptions opts;
  opts.dt_fixed = 8.0 * dt0;  // far beyond the safety factor
  opts.max_rollbacks = 10;
  opts.retries_per_snapshot = 10;  // keep every retry at the seed snapshot
  const auto rep = sv::run_guarded(s2, 6, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.rollbacks, 1);
  // 8x needs at least three halvings to drop under dt_safety = 1.5.
  EXPECT_LE(rep.dt_scale, 0.25);
  EXPECT_TRUE(state_all_finite(s2));
  // Whatever the first symptom was (dt check or a blown-up state), the
  // guard must have reported it with a structured breach.
  ASSERT_FALSE(rep.events.empty());
  EXPECT_NE(rep.events[0].report.breach, sv::Breach::none);
}

TEST(HealthSentinel, BudgetExhaustionThrowsWithReport) {
  FaultSession fs_;
  // Corrupt every scan: recovery can never make progress.
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::corrupt,
              .nth = -1,
              .probability = 1.0,
              .max_fires = -1});
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::GuardOptions opts;
  opts.max_rollbacks = 3;
  try {
    sv::run_guarded(s, 6, opts);
    FAIL() << "budget exhaustion must throw HealthError";
  } catch (const sv::HealthError& e) {
    EXPECT_EQ(e.report().breach, sv::Breach::non_finite);
    EXPECT_NE(std::string(e.what()).find("rollback budget"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("health.non_finite"),
              std::string::npos);
  }
}

TEST(HealthSentinel, RingExhaustedFallsBackToRestartSeries) {
  TmpDir dir("s3d_health_series");
  FaultSession fs_;
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  s.run(4);
  sv::RestartSeries series(dir.str(), "g");
  series.write(s, s.steps_taken());

  // Two consecutive corruptions with a depth-1 ring and a single retry
  // per snapshot: the second breach pops the ring empty and must restore
  // from the series.
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::corrupt,
              .nth = -1,
              .probability = 1.0,
              .max_fires = 2});
  sv::GuardOptions opts;
  opts.ring_depth = 1;
  opts.retries_per_snapshot = 1;
  opts.fallback = &series;
  const auto rep = sv::run_guarded(s, 4, opts);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.final_steps, 8);
  EXPECT_EQ(rep.rollbacks, 2);
  EXPECT_EQ(rep.series_restores, 1);
  ASSERT_EQ(rep.events.size(), 2u);
  EXPECT_FALSE(rep.events[0].from_series);
  EXPECT_TRUE(rep.events[1].from_series);
  EXPECT_EQ(rep.events[1].rolled_back_to, 4);
  EXPECT_TRUE(state_all_finite(s));
}

TEST(HealthSentinel, CollectiveVerdictFromSingleRankFault) {
  FaultSession fs_;
  // Rank 0 alone observes an injected failure; the collective verdict
  // must roll back every rank identically.
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::fail,
              .nth = 1,
              .rank = 0,
              .max_fires = 1});
  std::vector<sv::GuardReport> reps(2);
  std::vector<std::uint64_t> sums(2);
  vmpi::run(2, [&](vmpi::Comm& comm) {
    sv::Solver s(small_cfg(), comm, 2, 1, 1);
    s.initialize(wavy_init);
    sv::GuardOptions opts;
    reps[comm.rank()] = sv::run_guarded(s, 6, opts, &comm);
    sums[comm.rank()] = state_checksum(s);
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_TRUE(reps[r].completed);
    EXPECT_EQ(reps[r].rollbacks, 1) << "rank " << r;
    ASSERT_EQ(reps[r].events.size(), 1u) << "rank " << r;
    EXPECT_EQ(reps[r].events[0].report.breach, sv::Breach::injected);
    // Both ranks agree the breach came from rank 0.
    EXPECT_EQ(reps[r].events[0].report.rank, 0);
  }
  // Both ranks took the rollback at the same step.
  EXPECT_EQ(reps[0].events[0].rolled_back_to,
            reps[1].events[0].rolled_back_to);
}

TEST(HealthSentinel, SentinelBreachCountersTraced) {
  trace::clear();
  trace::set_enabled(true);
  {
    FaultSession fs_;
    fault::arm({.site = "solver.health",
                .kind = fault::Kind::corrupt,
                .nth = 1,
                .max_fires = 1});
    sv::Solver s(small_cfg());
    s.initialize(wavy_init);
    sv::GuardOptions opts;
    const auto rep = sv::run_guarded(s, 5, opts);
    EXPECT_TRUE(rep.completed);
  }
  trace::set_enabled(false);
  const auto sum = trace::summarize();
  const auto* breaches = sum.find_counter("health.breaches");
  const auto* site = sum.find_counter("health.non_finite");
  const auto* rollbacks = sum.find_counter("health.rollbacks");
  ASSERT_NE(breaches, nullptr);
  ASSERT_NE(site, nullptr);
  ASSERT_NE(rollbacks, nullptr);
  EXPECT_GE(breaches->total, 1.0);
  EXPECT_GE(site->total, 1.0);
  EXPECT_GE(rollbacks->total, 1.0);
  const auto* scan = sum.find("health.scan");
  ASSERT_NE(scan, nullptr) << "scan cost must be visible as a span";
  EXPECT_GE(scan->total_calls(), 5);
  trace::clear();
}

TEST(HealthSentinel, GuardedResilientDriverAbsorbsCorruption) {
  TmpDir dir("s3d_health_resilient");
  FaultSession fs_;
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::corrupt,
              .nth = 4,
              .max_fires = 1});
  sv::Solver s(small_cfg());
  sv::ResilienceConfig rc;
  rc.dir = dir.str();
  rc.checkpoint_every = 3;
  rc.guard = true;
  const auto rep = sv::run_resilient(s, wavy_init, 9, rc);
  EXPECT_TRUE(rep.succeeded);
  // The sentinel absorbed the corruption in memory: no driver-level
  // restore-and-retry attempt was consumed.
  EXPECT_EQ(rep.attempts, 1);
  EXPECT_EQ(rep.recoveries, 0);
  EXPECT_EQ(rep.final_steps, 9);
  EXPECT_TRUE(state_all_finite(s));
  EXPECT_EQ(fault::fires_at("solver.health"), 1);
}

TEST(SnapshotRing, DepthRotationAndBytes) {
  sv::Solver s(small_cfg());
  s.initialize(wavy_init);
  sv::SnapshotRing ring(2);
  EXPECT_TRUE(ring.empty());
  ring.capture(s);
  s.run(1);
  ring.capture(s);
  s.run(1);
  ring.capture(s);  // depth 2: the step-0 snapshot rotates out
  EXPECT_EQ(ring.size(), 2);
  EXPECT_EQ(ring.newest_step(), 2);
  EXPECT_GT(ring.bytes(), 0u);
  ring.pop_newest();
  EXPECT_EQ(ring.newest_step(), 1);
  ring.restore_newest(s);
  EXPECT_EQ(s.steps_taken(), 1);
}
