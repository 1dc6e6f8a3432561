// Analysis plugin registry suite (ctest -L plugin, also -L health via
// multi_labels.cmake): typed registry error paths, the fused consumer
// contract (N active analyses ride ONE interior traversal), accumulator
// snapshot/restore bitwise roundtrips, the health-sentinel sidecar (no
// double-counting across rung-1 and rung-3 recoveries, bitwise replay of
// a faulted run), collective agreement under S3D_COLLECTIVE_CHECK, and
// the iosim-style emission retry/drop policy (DESIGN.md §15).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "resilience/fault.hpp"
#include "solver/health.hpp"
#include "solver/scenario.hpp"
#include "solver/solver.hpp"
#include "viz/analysis.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace viz = s3d::viz;
namespace fault = s3d::fault;
namespace vmpi = s3d::vmpi;

namespace {

struct FaultSession {
  explicit FaultSession(std::uint64_t seed = 2026) { fault::set_seed(seed); }
  ~FaultSession() { fault::reset(); }
};

/// Small reacting premixed box: periodic, progress-variable endpoints
/// populated, cheap enough for multi-run determinism tests.
sv::CaseSetup hit_case(int n = 16) {
  return sv::ScenarioRegistry::instance().build(
      "hit_autoignition", {{"n", std::to_string(n)}});
}

/// Small non-premixed jet: mixture-fraction streams for the Z-based
/// passes, non-periodic x (margin-exclusion coverage for apriori).
sv::CaseSetup jet_case() {
  return sv::ScenarioRegistry::instance().build("lifted_jet",
                                                {{"nx", "32"},
                                                 {"ny", "16"},
                                                 {"Lx", "0.004"},
                                                 {"Ly", "0.002"},
                                                 {"u_jet", "80"},
                                                 {"u_rms", "6"}});
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string tmp_dir(const char* tag) {
  const std::string d = std::string("/tmp/s3dpp_analysis_") + tag;
  std::filesystem::create_directories(d);
  return d;
}

}  // namespace

TEST(AnalysisRegistry, ListsEveryBuiltinSorted) {
  const auto names = viz::AnalysisRegistry::instance().names();
  const std::vector<std::string> expect = {
      "apriori_subgrid", "conditional_means", "insitu_render",
      "scalar_dissipation"};
  EXPECT_EQ(names, expect);
}

TEST(AnalysisRegistry, UnknownNameListsRegisteredAnalyses) {
  try {
    viz::AnalysisRegistry::instance().at("no_such_pass");
    FAIL() << "expected AnalysisError";
  } catch (const viz::AnalysisError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_pass"), std::string::npos);
    EXPECT_NE(msg.find("conditional_means"), std::string::npos);
    EXPECT_NE(msg.find("scalar_dissipation"), std::string::npos);
  }
}

TEST(AnalysisRegistry, DuplicateRegistrationThrows) {
  viz::AnalysisSpec dup;
  dup.name = "conditional_means";
  dup.make = [](const sv::ParamMap&) {
    return std::unique_ptr<viz::AnalysisPass>();
  };
  EXPECT_THROW(viz::AnalysisRegistry::instance().add(std::move(dup)),
               viz::AnalysisError);
}

TEST(AnalysisRegistry, ParameterValidationIsTyped) {
  auto& reg = viz::AnalysisRegistry::instance();
  try {
    reg.build("conditional_means", {{"bogus", "1"}});
    FAIL() << "expected ConfigError";
  } catch (const sv::ConfigError& e) {
    // s3dlint:allow(xref): field is composed at runtime from the key
    EXPECT_EQ(e.field(), "analysis.conditional_means.bogus");
    EXPECT_NE(std::string(e.what()).find("bins"), std::string::npos);
  }
  EXPECT_THROW(reg.build("conditional_means", {{"bins", "one"}}),
               sv::ConfigError);
  EXPECT_THROW(reg.build("conditional_means", {{"bins", "1"}}),
               sv::ConfigError);
  EXPECT_THROW(reg.build("scalar_dissipation", {{"D", "-1"}}),
               sv::ConfigError);
  EXPECT_THROW(reg.build("apriori_subgrid", {{"width", "9"}}),
               sv::ConfigError);
}

TEST(AnalysisDriver, FusedConsumersShareOneTraversal) {
  const auto cs = jet_case();
  sv::Solver s(cs.cfg);
  s.initialize(cs.init);
  viz::AnalysisDriver d(cs);
  d.add("conditional_means");
  d.add("scalar_dissipation");
  d.add("apriori_subgrid");
  d.attach(s);
  d.invoke(0);
  EXPECT_EQ(d.pass_stats().sweeps, 1)
      << "three analyses must ride one interior traversal";
  EXPECT_EQ(d.pass_stats().stages, 3);
  d.invoke(1);
  EXPECT_EQ(d.pass_stats().sweeps, 2);
  EXPECT_EQ(d.invocations(), 2);
}

TEST(AnalysisDriver, UnusableScenarioPairingIsTyped) {
  const auto cs = sv::ScenarioRegistry::instance().build(
      "pressure_wave", {{"n", "12"}, {"two_d", "true"}});
  sv::Solver s(cs.cfg);
  s.initialize(cs.init);
  {
    viz::AnalysisDriver d(cs);
    d.add("conditional_means");
    d.attach(s);
    EXPECT_THROW(d.invoke(0), viz::AnalysisError)
        << "inert case: nothing to condition on";
  }
  // Premixed case: Z-stream passes must refuse rather than misread the
  // unburnt/burnt endpoints as mixing streams.
  const auto hit = hit_case(16);
  sv::Solver sh(hit.cfg);
  sh.initialize(hit.init);
  viz::AnalysisDriver d2(hit);
  d2.add("scalar_dissipation");
  d2.attach(sh);
  EXPECT_THROW(d2.invoke(0), viz::AnalysisError);
}

TEST(AnalysisDriver, AprioriMarginExcludesPhysicalBoundariesOnly) {
  // Periodic box: every interior cell is a filter center.
  const auto hit = hit_case(16);
  sv::Solver sh(hit.cfg);
  sh.initialize(hit.init);
  viz::AnalysisDriver dh(hit);
  dh.add("apriori_subgrid", {{"width", "2"}});
  dh.attach(sh);
  dh.invoke(0);
  std::vector<double> acc;
  dh.snapshot(acc);
  ASSERT_EQ(acc.size(), 6u);
  EXPECT_EQ(acc[0], 16.0 * 16.0);

  // Non-periodic x: cells within the half-width of the global x faces
  // are excluded; periodic y keeps its full extent.
  const auto jet = jet_case();
  sv::Solver sj(jet.cfg);
  sj.initialize(jet.init);
  viz::AnalysisDriver dj(jet);
  dj.add("apriori_subgrid", {{"width", "2"}});
  dj.attach(sj);
  dj.invoke(0);
  acc.clear();
  dj.snapshot(acc);
  const double ny_total = jet.cfg.y.periodic ? 16.0 : 12.0;
  EXPECT_EQ(acc[0], (32.0 - 4.0) * ny_total);
}

TEST(AnalysisDriver, SnapshotRestoreRoundtripIsBitwise) {
  const auto cs = jet_case();
  sv::Solver s(cs.cfg);
  s.initialize(cs.init);
  viz::AnalysisDriver a(cs);
  a.add("conditional_means", {{"bins", "16"}});
  a.add("scalar_dissipation", {{"bins", "16"}});
  a.attach(s);
  a.invoke(0);
  s.run(2, {}, 5);
  a.invoke(2);

  std::vector<double> snap;
  a.snapshot(snap);
  ASSERT_FALSE(snap.empty());

  viz::AnalysisDriver b(cs);
  b.add("conditional_means", {{"bins", "16"}});
  b.add("scalar_dissipation", {{"bins", "16"}});
  EXPECT_EQ(b.restore(snap), snap.size());
  std::vector<double> snap2;
  b.snapshot(snap2);
  EXPECT_TRUE(bitwise_equal(snap, snap2));
  // Rendered outputs agree too: same accumulators, same CSV bytes.
  EXPECT_EQ(a.passes()[0]->csv(), b.passes()[0]->csv());
  EXPECT_EQ(a.passes()[1]->csv(), b.passes()[1]->csv());

  // A short block is a loud failure, not a silent partial restore.
  snap.pop_back();
  EXPECT_THROW(b.restore(snap), s3d::Error);
}

TEST(AnalysisDriver, RestoreContinueReplaysAccumulatorsBitwise) {
  const auto cs = hit_case(16);
  // Continuous reference: 8 steps, sampling every 2.
  std::vector<double> ref;
  {
    sv::Solver s(cs.cfg);
    s.initialize(cs.init);
    viz::AnalysisDriver d(cs, {.interval = 2});
    d.add("conditional_means");
    d.attach(s);
    s.run(8, [&](int) { d.on_step(s.steps_taken()); }, 4);
    d.snapshot(ref);
  }
  // Interrupted run: snapshot mid-way, restore into a FRESH driver
  // (the checkpoint-restart shape), continue to the same step count.
  std::vector<double> got;
  {
    sv::Solver s(cs.cfg);
    s.initialize(cs.init);
    std::vector<double> mid;
    {
      viz::AnalysisDriver d(cs, {.interval = 2});
      d.add("conditional_means");
      d.attach(s);
      s.run(4, [&](int) { d.on_step(s.steps_taken()); }, 4);
      d.snapshot(mid);
    }
    viz::AnalysisDriver d2(cs, {.interval = 2});
    d2.add("conditional_means");
    ASSERT_EQ(d2.restore(mid), mid.size());
    d2.attach(s);
    s.run(4, [&](int) { d2.on_step(s.steps_taken()); }, 4);
    d2.snapshot(got);
  }
  EXPECT_TRUE(bitwise_equal(ref, got));
}

TEST(AnalysisSidecar, Rung3GlobalRollbackNeverDoubleCounts) {
  auto guarded_samples = [](bool with_fault) {
    FaultSession fs_;
    if (with_fault)
      fault::arm({.site = "solver.health",
                  .kind = fault::Kind::corrupt,
                  .nth = 2,
                  .max_fires = 1});
    const auto cs = hit_case(16);
    sv::Solver s(cs.cfg);
    s.initialize(cs.init);
    viz::AnalysisDriver d(cs, {.interval = 1});
    d.add("conditional_means");
    d.attach(s);
    sv::GuardOptions opts;  // adaptive off: breaches go straight global
    opts.sidecar = d.sidecar();
    opts.on_clean_step = [&](long step) { d.on_step(step); };
    const auto rep = sv::run_guarded(s, 6, opts);
    EXPECT_TRUE(rep.completed);
    if (with_fault) {
      EXPECT_GE(rep.rollbacks, 1);
    }
    std::vector<double> snap;
    d.snapshot(snap);
    double samples = 0.0;
    for (std::size_t b = 0; b < snap.size() / 3; ++b) samples += snap[b];
    return std::pair<double, std::vector<double>>(samples, snap);
  };
  const auto clean = guarded_samples(false);
  const auto faulted = guarded_samples(true);
  // Every committed step sampled exactly once, breached attempts never:
  // the rollback restored the accumulators with the state.
  EXPECT_EQ(clean.first, 6.0 * 16 * 16);
  EXPECT_EQ(faulted.first, 6.0 * 16 * 16)
      << "re-integrated steps must not double-count";
  // Replay determinism: the same faulted run is bitwise repeatable.
  const auto faulted2 = guarded_samples(true);
  EXPECT_TRUE(bitwise_equal(faulted.second, faulted2.second));
}

TEST(AnalysisSidecar, Rung1LocalizedRecoveryKeepsAccumulators) {
  FaultSession fs_;
  fault::arm({.site = "solver.health",
              .kind = fault::Kind::corrupt,
              .nth = 2,
              .max_fires = 1});
  const auto cs = hit_case(16);
  sv::Solver s(cs.cfg);
  s.initialize(cs.init);
  viz::AnalysisDriver d(cs, {.interval = 1});
  d.add("conditional_means");
  d.attach(s);
  sv::GuardOptions opts;
  sv::AdaptiveOptions ad;
  ad.enabled = true;
  ad.subcycle_cap = 4;
  opts.adaptive = ad;
  opts.sidecar = d.sidecar();
  opts.on_clean_step = [&](long step) { d.on_step(step); };
  const auto rep = sv::run_guarded(s, 6, opts);
  EXPECT_TRUE(rep.completed);
  ASSERT_GE(rep.events.size(), 1u);
  EXPECT_LE(rep.events[0].rung, 2) << "corrupt breach should stay local";
  std::vector<double> snap;
  d.snapshot(snap);
  double samples = 0.0;
  for (std::size_t b = 0; b < snap.size() / 3; ++b) samples += snap[b];
  EXPECT_EQ(samples, 6.0 * 16 * 16)
      << "rungs 1-2 leave the sidecar untouched; every committed step "
         "samples exactly once";
}

TEST(AnalysisDriver, CollectivesAgreeAcrossRanksUnderCheck) {
  const auto cs = hit_case(16);
  vmpi::RunOptions ro;
  ro.collective_check = true;
  vmpi::run(
      2,
      [&](vmpi::Comm& comm) {
        sv::Solver s(cs.cfg, comm, 1, 2, 1);
        s.initialize(cs.init);
        viz::AnalysisDriver d(cs, {.interval = 2});
        d.add("conditional_means");
        d.add("apriori_subgrid");
        d.attach(s, &comm);
        s.run(4, [&](int) { d.on_step(s.steps_taken()); }, 4);
        // After finish() every rank holds identical accumulators.
        std::vector<double> snap;
        d.snapshot(snap);
        std::vector<double> mx = snap, mn = snap;
        comm.allreduce_max(std::span<double>(mx));
        comm.allreduce_min(std::span<double>(mn));
        for (std::size_t i = 0; i < snap.size(); ++i) {
          EXPECT_EQ(mx[i], snap[i]);
          EXPECT_EQ(mn[i], snap[i]);
        }
      },
      ro);
}

TEST(AnalysisEmit, RetriesTransientFaultsAndDropsOnExhaustion) {
  FaultSession fs_;
  const auto cs = hit_case(16);
  sv::Solver s(cs.cfg);
  s.initialize(cs.init);
  viz::AnalysisOptions opt;
  opt.out_dir = tmp_dir("emit");
  opt.emit_retries = 3;
  opt.backoff_ms = 0.0;
  viz::AnalysisDriver d(cs, opt);
  d.add("conditional_means");
  d.attach(s);
  d.invoke(0);

  // One transient failure on the first attempt: the retry writes it.
  fault::arm({.site = "analysis.emit",
              .kind = fault::Kind::fail,
              .nth = 0,
              .max_fires = 1});
  auto paths = d.emit(0);
  ASSERT_EQ(paths.size(), 2u) << "pass CSV + summary JSON";
  for (const auto& p : paths) EXPECT_TRUE(std::filesystem::exists(p)) << p;

  // Persistent failure: every attempt fires -> dropped, never fatal.
  fault::reset();
  fault::arm({.site = "analysis.emit",
              .kind = fault::Kind::fail,
              .probability = 1.0,
              .max_fires = -1});
  EXPECT_NO_THROW(paths = d.emit(1));
  EXPECT_TRUE(paths.empty());
}

TEST(RenderAnalysis, RegistryBuildsAndRejectsUnknownField) {
  const auto dir = tmp_dir("render");
  auto pass = viz::AnalysisRegistry::instance().build(
      "insitu_render", {{"dir", dir}, {"field", "nope"}});
  const auto cs = hit_case(16);
  sv::Solver s(cs.cfg);
  s.initialize(cs.init);
  const auto& prim = s.primitives();
  viz::AnalysisContext ctx{s, cs, prim, 0, 0.0, nullptr};
  EXPECT_THROW(pass->prepare(ctx), viz::AnalysisError);

  auto ok = viz::AnalysisRegistry::instance().build(
      "insitu_render", {{"dir", dir}, {"field", "T"}});
  ok->prepare(ctx);
  ok->finish(ctx);
  auto* ra = dynamic_cast<viz::RenderAnalysis*>(ok.get());
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(ra->frames_written(), 1);
  EXPECT_TRUE(std::filesystem::exists(dir + "/T_0.ppm"));
}
