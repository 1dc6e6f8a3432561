// Fused-pass execution layer (DESIGN.md §10): bitwise contracts.
//
// Fusion must never change per-cell arithmetic, only traversal
// structure. These tests pin that contract at every layer:
//   - batched_deriv (assign) against the per-field FieldOps::deriv,
//     both writing interior lines only,
//   - batched_deriv (accumulate) against the unfused scratch-buffer
//     write / read / subtract triple it replaces,
//   - FusedPointwise stage permutations against sequential sweeps
//     (the commuting-stage legality property),
//   - the RHS and step plans' sweep and stage counts, pinned exactly,
//   - the in-pass health tripwire verdict against the sentinel's
//     separate-sweep scan, including a guarded blow-up recovery run
//     across 1/2/8-rank decompositions checked against the committed
//     golden record in tests/golden/data/.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "solver/cases.hpp"
#include "solver/field_ops.hpp"
#include "solver/health.hpp"
#include "solver/passes.hpp"
#include "solver/solver.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace vmpi = s3d::vmpi;

namespace {

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Bitwise comparison with a diagnosis of the first differing element.
::testing::AssertionResult bitwise_equal(const double* a, const double* b,
                                         std::size_t n, const char* what) {
  for (std::size_t i = 0; i < n; ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << what << ": first difference at flat element " << i << ": "
             << hexfloat(a[i]) << " vs " << hexfloat(b[i]);
  return ::testing::AssertionSuccess();
}

/// Deterministic smooth-plus-wiggle fill covering ghosts, distinct per
/// field id so batched fields cannot alias to the same data.
void fill_field(const sv::Layout& l, double* f, int id) {
  for (int k = -l.gz; k < l.nz + l.gz; ++k)
    for (int j = -l.gy; j < l.ny + l.gy; ++j)
      for (int i = -l.gx; i < l.nx + l.gx; ++i)
        f[l.at(i, j, k)] = std::sin(0.3 * i + 0.7 * j - 0.4 * k + 1.3 * id) +
                           0.01 * std::cos(2.1 * i * j + 0.5 * k + id);
}

struct OpsBox {
  sv::Layout l;
  s3d::grid::Mesh mesh;
  sv::FieldOps ops;
  OpsBox(int nx, int ny, int nz, bool periodic, double stretch_y = 0.0)
      : l(sv::Layout::make(nx, ny, nz)),
        mesh({nx, 0.01, periodic}, {ny, 0.02, periodic, stretch_y},
             {nz, 0.015, periodic}),
        ops(l, mesh, {0, 0, 0}, ghosts(periodic)) {}
  sv::GhostFlags ghosts(bool periodic) const {
    sv::GhostFlags gh;
    for (int a = 0; a < 3; ++a) gh.lo[a] = gh.hi[a] = periodic;
    return gh;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// batched_deriv, assign mode: one traversal per axis must equal the
// per-field operator bit for bit, with and without ghosted boundaries and
// with a stretched (per-point metric) axis. Both write interior lines
// only: outputs start as NaN, and the whole ghosted boxes must still
// match, so a ghost write by either side shows up.

TEST(BatchedDeriv, AssignMatchesPerFieldDeriv) {
  for (const bool periodic : {true, false}) {
    for (const double stretch : {0.0, 1.5}) {
      if (periodic && stretch > 0.0) continue;  // unsupported mesh combo
      OpsBox box(12, 10, 9, periodic, stretch);
      const sv::Layout& l = box.l;
      constexpr int kFields = 4;
      const double nan = std::numeric_limits<double>::quiet_NaN();
      std::vector<sv::GField> src(kFields), out(kFields), ref(kFields);
      for (int f = 0; f < kFields; ++f) {
        src[f] = sv::GField(l);
        out[f] = sv::GField(l, nan);
        ref[f] = sv::GField(l, nan);
        fill_field(l, src[f].data(), f);
      }
      for (int axis = 0; axis < 3; ++axis) {
        std::vector<sv::DerivTarget> targets;
        for (int f = 0; f < kFields; ++f) {
          targets.push_back({src[f].data(), out[f].data()});
          box.ops.deriv(src[f], axis, ref[f]);
        }
        sv::PassStats stats;
        sv::batched_deriv(box.ops, axis, targets, /*accumulate=*/false,
                          &stats);
        EXPECT_EQ(stats.sweeps, 1);
        EXPECT_EQ(stats.stages, kFields);
        for (int f = 0; f < kFields; ++f) {
          EXPECT_TRUE(bitwise_equal(out[f].data(), ref[f].data(), l.total(),
                                    "assign deriv"))
              << "axis " << axis << " field " << f << " periodic " << periodic
              << " stretch " << stretch;
          EXPECT_TRUE(std::isnan(out[f](-1, 0, 0)) &&
                      std::isnan(out[f](0, -1, 0)) &&
                      std::isnan(out[f](0, 0, l.nz)))
              << "ghost cells must stay unwritten, axis " << axis;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// batched_deriv, accumulate mode: out -= d/dx_axis(f) in place must equal
// the unfused triple (derivative into scratch, subtract scratch over the
// interior) bit for bit — the FMA-contraction hazard this mode's rounding
// barrier exists for.

TEST(BatchedDeriv, AccumulateMatchesScratchPair) {
  for (const bool periodic : {true, false}) {
    for (const double stretch : {0.0, 1.5}) {
      if (periodic && stretch > 0.0) continue;  // unsupported mesh combo
      OpsBox box(12, 10, 9, periodic, stretch);
      const sv::Layout& l = box.l;
      constexpr int kFields = 3;
      std::vector<sv::GField> src(kFields), out(kFields), ref(kFields);
      sv::GField scratch(l);
      for (int f = 0; f < kFields; ++f) {
        src[f] = sv::GField(l);
        out[f] = sv::GField(l);
        ref[f] = sv::GField(l);
        fill_field(l, src[f].data(), f);
        fill_field(l, out[f].data(), 10 + f);  // pre-existing accumulation
        std::memcpy(ref[f].data(), out[f].data(),
                    l.total() * sizeof(double));
      }
      for (int axis = 0; axis < 3; ++axis) {
        // Unfused reference: scratch round-trip, interior subtraction.
        for (int f = 0; f < kFields; ++f) {
          box.ops.deriv(src[f].data(), axis, scratch.data(), scratch.size());
          for (int k = 0; k < l.nz; ++k)
            for (int j = 0; j < l.ny; ++j) {
              const std::size_t row = l.at(0, j, k);
              for (int i = 0; i < l.nx; ++i)
                ref[f].data()[row + i] -= scratch.data()[row + i];
            }
        }
        std::vector<sv::DerivTarget> targets;
        for (int f = 0; f < kFields; ++f)
          targets.push_back({src[f].data(), out[f].data()});
        sv::batched_deriv(box.ops, axis, targets, /*accumulate=*/true,
                          nullptr);
        for (int f = 0; f < kFields; ++f)
          EXPECT_TRUE(bitwise_equal(out[f].data(), ref[f].data(), l.total(),
                                    "accumulate deriv"))
              << "axis " << axis << " field " << f << " periodic " << periodic
              << " stretch " << stretch;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FusedPointwise legality property: stages that read no staged output
// commute — every registration order, fused or sequential, over every
// traversal shape, produces bitwise-identical fields.

TEST(FusedPointwise, StagePermutationsAreBitwiseIdentical) {
  OpsBox box(10, 8, 6, true);
  const sv::Layout& l = box.l;
  constexpr int kStages = 3;
  std::vector<sv::GField> in(kStages);
  for (int s = 0; s < kStages; ++s) {
    in[s] = sv::GField(l);
    fill_field(l, in[s].data(), s);
  }

  auto build = [&](const int order[kStages],
                   std::vector<sv::GField>& out) -> sv::FusedPointwise {
    sv::FusedPointwise pass("test.permute");
    for (int p = 0; p < kStages; ++p) {
      const int s = order[p];
      const double* a = in[s].data();
      const double* b = in[(s + 1) % kStages].data();
      double* o = out[s].data();
      pass.add("stage", [=](const sv::RowRange& r) {
        for (int c = 0; c < r.count; ++c) {
          const std::size_t n = r.n0 + static_cast<std::size_t>(c);
          o[n] = a[n] * b[n] + 0.5 * a[n];
        }
      });
    }
    return pass;
  };

  const int orders[][kStages] = {{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}};
  std::vector<sv::GField> ref(kStages);
  for (int s = 0; s < kStages; ++s) ref[s] = sv::GField(l, 0.0);
  build(orders[0], ref).run_interior_sequential(l, nullptr);

  // The masked-commit shape: the interior rows as an explicit segment
  // list, each row split in two.
  std::vector<sv::RowRange> segs;
  for (int k = 0; k < l.nz; ++k)
    for (int j = 0; j < l.ny; ++j) {
      const int half = l.nx / 2;
      segs.push_back({l.at(0, j, k), 0, half, j, k});
      segs.push_back({l.at(half, j, k), half, l.nx - half, j, k});
    }

  for (const auto& order : orders) {
    for (const char* shape : {"interior", "x ghosts", "z ghosts", "segments"}) {
      std::vector<sv::GField> out(kStages);
      for (int s = 0; s < kStages; ++s) out[s] = sv::GField(l, 0.0);
      sv::PassStats stats;
      sv::FusedPointwise pass = build(order, out);
      if (std::strcmp(shape, "interior") == 0)
        pass.run_interior(l, &stats);
      else if (std::strcmp(shape, "x ghosts") == 0)
        pass.run_with_axis_ghosts(l, 0, box.ghosts(true), &stats);
      else if (std::strcmp(shape, "z ghosts") == 0)
        pass.run_with_axis_ghosts(l, 2, box.ghosts(true), &stats);
      else
        pass.run_segments(segs, &stats);
      EXPECT_EQ(stats.sweeps, 1);
      EXPECT_EQ(stats.stages, kStages);
      // Interior values agree across permutations and shapes (the axis
      // ghost shapes additionally write that axis's ghost rows).
      for (int s = 0; s < kStages; ++s)
        for (int k = 0; k < l.nz; ++k)
          for (int j = 0; j < l.ny; ++j) {
            const std::size_t row = l.at(0, j, k);
            EXPECT_TRUE(bitwise_equal(out[s].data() + row,
                                      ref[s].data() + row, l.nx,
                                      "permuted stage interior"))
                << "stage " << s << " shape " << shape;
          }
    }
  }

  // Fused vs sequential over the whole ghosted box, same order: ghost
  // cells stay untouched by both.
  std::vector<sv::GField> fused(kStages), seq(kStages);
  for (int s = 0; s < kStages; ++s) {
    fused[s] = sv::GField(l, 0.0);
    seq[s] = sv::GField(l, 0.0);
  }
  build(orders[0], fused).run_interior(l, nullptr);
  build(orders[0], seq).run_interior_sequential(l, nullptr);
  for (int s = 0; s < kStages; ++s)
    EXPECT_TRUE(bitwise_equal(fused[s].data(), seq[s].data(), l.total(),
                              "fused vs sequential"));
}

// The axis-ghost shape covers exactly the interior plus that axis's ghost
// layers on the flagged sides: every other cell keeps its prior value.
TEST(FusedPointwise, AxisGhostShapeCoversInteriorPlusAxisGhosts) {
  OpsBox box(7, 6, 5, true);
  const sv::Layout& l = box.l;
  for (int axis = 0; axis < 3; ++axis)
    for (const bool lo : {true, false}) {
      sv::GhostFlags gh;
      gh.lo[axis] = lo;
      gh.hi[axis] = true;
      sv::GField hit(l, 0.0);
      sv::FusedPointwise pass("test.cover");
      double* h = hit.data();
      pass.add("mark", [h](const sv::RowRange& r) {
        for (int c = 0; c < r.count; ++c) h[r.n0 + c] += 1.0;
      });
      pass.run_with_axis_ghosts(l, axis, gh, nullptr);
      for (int k = -l.gz; k < l.nz + l.gz; ++k)
        for (int j = -l.gy; j < l.ny + l.gy; ++j)
          for (int i = -l.gx; i < l.nx + l.gx; ++i) {
            const int ijk[3] = {i, j, k};
            bool in = true;
            for (int a = 0; a < 3; ++a) {
              const int lo_a = a == axis && lo ? -l.g(a) : 0;
              const int hi_a = l.n(a) + (a == axis ? l.g(a) : 0);
              in = in && ijk[a] >= lo_a && ijk[a] < hi_a;
            }
            ASSERT_EQ(hit(i, j, k), in ? 1.0 : 0.0)
                << "axis " << axis << " lo " << lo << " cell (" << i << ", "
                << j << ", " << k << ")";
          }
    }
}

// ---------------------------------------------------------------------------
// Structural counts of the pass plan are hard gates: sweeps over memory
// and the stages they carry for one RHS evaluation, and the total sweeps
// of one step (Solver plus RhsEvaluator accounting, perfbench's
// solver.sweeps_per_step). The pinned values are the fused+batched
// plan's counts at the commit that retired the unfused and per-point
// paths; change them only with an intended change to the plan.

namespace {

void expect_pass_counts(const sv::CaseSetup& setup, const char* name,
                        long eval_sweeps, long eval_stages,
                        long step_sweeps) {
  sv::Solver s(setup.cfg);
  s.initialize(setup.init);
  const double dt = s.stable_dt();

  sv::State dUdt(s.layout(), s.state().nv());
  s.rhs().reset_pass_stats();
  s.rhs().eval(s.state(), 0.0, dUdt);
  EXPECT_EQ(s.rhs().pass_stats().sweeps, eval_sweeps) << name;
  EXPECT_EQ(s.rhs().pass_stats().stages, eval_stages) << name;

  s.reset_pass_stats();
  s.rhs().reset_pass_stats();
  s.step(dt);
  EXPECT_EQ(s.pass_stats().sweeps + s.rhs().pass_stats().sweeps,
            step_sweeps)
      << name;
}

}  // namespace

TEST(PassPlan, SweepCountsArePinned) {
  expect_pass_counts(sv::pressure_wave_case(12), "pressure_wave 3-D", 12, 69,
                     102);
  sv::LiftedJetParams p;
  p.nx = 24;
  p.ny = 16;
  expect_pass_counts(sv::lifted_jet_case(p), "lifted_jet 2-D", 10, 96, 108);
}

// ---------------------------------------------------------------------------
// In-pass tripwires: an armed step's folded verdict must match the
// sentinel's separate-sweep scan on the identical committed state, for
// both fold points (filter commit and final RK axpy).

TEST(InPassTripwires, VerdictMatchesSeparateSweep) {
  for (const int filter_interval : {1, 0}) {  // filter fold / RK fold
    auto setup = sv::pressure_wave_case(12);
    setup.cfg.filter_interval = filter_interval;

    sv::HealthConfig hc;
    hc.check_dt = false;

    // Two identical solvers; only the scan mode differs.
    sv::Solver sa(setup.cfg), sb(setup.cfg);
    sa.initialize(setup.init);
    sb.initialize(setup.init);
    sv::HealthConfig hc_in = hc, hc_sweep = hc;
    hc_in.in_pass = true;
    hc_sweep.in_pass = false;
    sv::HealthSentinel in_pass(sa, hc_in, nullptr);
    sv::HealthSentinel sweep(sb, hc_sweep, nullptr);

    // A wildly unstable dt drives the state into breach deterministically.
    const double dt = 20.0 * sa.stable_dt();
    (void)sb.stable_dt();  // keep both solvers' prim workspaces in step

    EXPECT_TRUE(in_pass.arm_in_pass());
    EXPECT_FALSE(sweep.arm_in_pass());  // disabled by config
    sa.step(dt);
    sb.step(dt);
    for (int v = 0; v < sa.state().nv(); ++v)
      ASSERT_TRUE(bitwise_equal(sa.state().var(v), sb.state().var(v),
                                sa.layout().total(), "armed vs unarmed U"))
          << "variable " << v << " filter_interval " << filter_interval;

    const sv::HealthReport ra = in_pass.scan(dt);
    const sv::HealthReport rb = sweep.scan(dt);
    EXPECT_EQ(static_cast<int>(ra.breach), static_cast<int>(rb.breach))
        << "filter_interval " << filter_interval;
    EXPECT_EQ(ra.step, rb.step);
    EXPECT_EQ(ra.cell, rb.cell);
    EXPECT_EQ(hexfloat(ra.value), hexfloat(rb.value));
    EXPECT_EQ(hexfloat(ra.threshold), hexfloat(rb.threshold));
  }
}

TEST(InPassTripwires, InflowWithoutFilterCannotFold) {
  // Inflow commits a host-side loop after the last fused pass on
  // unfiltered steps, so arming must be refused and the sentinel falls
  // back to its separate sweep (still correct, just not folded).
  sv::LiftedJetParams p;
  p.nx = 24;
  p.ny = 16;
  auto setup = sv::lifted_jet_case(p);
  setup.cfg.filter_interval = 0;
  sv::Solver s(setup.cfg);
  s.initialize(setup.init);
  sv::HealthConfig hc;
  hc.check_dt = false;
  sv::HealthSentinel sentinel(s, hc, nullptr);
  EXPECT_FALSE(sentinel.arm_in_pass());

  // With the filter back on, the filter-commit pass is last and folding
  // becomes legal again.
  setup.cfg.filter_interval = 1;
  sv::Solver s2(setup.cfg);
  s2.initialize(setup.init);
  sv::HealthSentinel sentinel2(s2, hc, nullptr);
  EXPECT_TRUE(sentinel2.arm_in_pass());
}

// ---------------------------------------------------------------------------
// Guarded blow-up recovery: serial and decomposed (1/2/8 ranks) runs
// agree bitwise on the recovered final state — the same scenario the
// committed golden record pins.

namespace {

/// Mirrors tests/golden/test_golden_health.cpp: a pressure-wave case
/// driven at 20x the stable dt so the sentinel must roll back and
/// re-advance under a shrunken dt.
struct GuardedResult {
  std::vector<std::string> checksums;
  long steps = 0;
  int rollbacks = 0;
};

GuardedResult run_guarded_case(int px, int py, int pz) {
  constexpr int kN = 16;
  constexpr int kSteps = 4;
  constexpr double kDtFactor = 20.0;

  const auto setup = sv::pressure_wave_case(kN);
  const int nv = sv::n_conserved(setup.cfg.mech->n_species());
  std::vector<double> global(static_cast<std::size_t>(nv) * kN * kN * kN);
  GuardedResult res;

  vmpi::run(px * py * pz, [&](vmpi::Comm& comm) {
    sv::Solver s(setup.cfg, comm, px, py, pz);
    s.initialize(setup.init);
    const double dt = kDtFactor * s.stable_dt();

    sv::GuardOptions opts;
    opts.health.check_dt = false;
    opts.max_rollbacks = 30;
    opts.retries_per_snapshot = 100;
    opts.ring_depth = 2;
    opts.dt_fixed = dt;
    const auto rep = sv::run_guarded(s, kSteps, opts, &comm);

    const auto& l = s.layout();
    const auto off = s.offset();
    for (int v = 0; v < nv; ++v) {
      const double* var = s.state().var(v);
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j)
          for (int i = 0; i < l.nx; ++i)
            global[static_cast<std::size_t>(v) * kN * kN * kN +
                   static_cast<std::size_t>(off[2] + k) * kN * kN +
                   static_cast<std::size_t>(off[1] + j) * kN +
                   (off[0] + i)] = var[l.at(i, j, k)];
    }
    if (comm.rank() == 0) {
      res.steps = rep.final_steps;
      res.rollbacks = rep.rollbacks;
    }
    comm.barrier();
  });

  const std::size_t pts = static_cast<std::size_t>(kN) * kN * kN;
  for (int v = 0; v < nv; ++v)
    res.checksums.push_back(s3d::hex64(s3d::fnv1a64(
        global.data() + static_cast<std::size_t>(v) * pts,
        pts * sizeof(double))));
  return res;
}

}  // namespace

TEST(GuardedFusion, BlowupRecoveryMatchesAcrossRanks) {
  const auto ref = run_guarded_case(1, 1, 1);
  ASSERT_GT(ref.rollbacks, 0) << "case must actually breach and recover";

  struct Decomp {
    int px, py, pz;
  };
  for (const Decomp d : {Decomp{2, 1, 1}, Decomp{2, 2, 2}}) {
    const auto got = run_guarded_case(d.px, d.py, d.pz);
    EXPECT_EQ(got.checksums, ref.checksums)
        << d.px << "x" << d.py << "x" << d.pz
        << " diverged from the serial reference";
    EXPECT_EQ(got.steps, ref.steps);
    EXPECT_EQ(got.rollbacks, ref.rollbacks);
  }
}

// The cross-build half of the scenario, split out so the sanitizer lanes
// can run the (within-build) decomposition contract above at full
// strength. Root cause of the split: the committed golden record pins the
// *default* build's FP codegen, and sanitizer instrumentation perturbs
// instruction selection/contraction enough to change the recovered
// trajectory's bits. That is an artifact of comparing across builds — the
// bitwise contract is per-build — so under a sanitizer this one
// comparison (and only it) is skipped rather than excluding the whole
// recovery test from the lane.
TEST(GuardedFusion, BlowupRecoveryMatchesGoldenRecord) {
#ifdef S3D_SANITIZER_LANE
  GTEST_SKIP() << "golden records pin the default build's FP codegen; "
                  "sanitizer instrumentation changes it (see comment)";
#endif
  const auto ref = run_guarded_case(1, 1, 1);
  ASSERT_GT(ref.rollbacks, 0) << "case must actually breach and recover";

  // The committed golden record (recorded from the unfused seed) pins the
  // same scenario: the recovered fields must still hash to it.
  std::ifstream gold(std::string(S3D_GOLDEN_DIR) + "/health_recovery.golden");
  ASSERT_TRUE(gold.good()) << "missing health_recovery.golden";
  std::map<std::size_t, std::string> want;
  std::string line;
  while (std::getline(gold, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    if (key == "checksum") {
      std::size_t idx;
      std::string sum;
      ss >> idx >> sum;
      want[idx] = sum;
    }
  }
  ASSERT_FALSE(want.empty());
  for (const auto& [idx, sum] : want) {
    ASSERT_LT(idx, ref.checksums.size());
    EXPECT_EQ(ref.checksums[idx], sum)
        << "recovered field " << idx << " drifted from the golden record";
  }
}
