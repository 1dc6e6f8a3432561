// Ghost-cell poison: proves which ghost entries the step path reads.
//
// Before every stable_dt() and every step(), each ghost cell of the
// conserved state and of the primitive workspace is overwritten with a
// quiet NaN. The passes may only read ghost cells that a halo exchange
// (or a periodic wrap) refilled in between, so the final interior must be
// bitwise equal to an unpoisoned serial run of the same scenario, and all
// finite. Any pass that reads a ghost cell nothing wrote -- an edge or
// corner a face-only exchange skipped, a physical-boundary ghost, a stale
// cell left by an earlier eval -- carries the NaN into the interior and
// fails here. The RHS work fields are constructed as NaN too, so every
// other solver test fails the same way if a pass reads a never-written
// cell.
//
// Every registry scenario runs at a tiny size on 1, 2 and 8 ranks, with
// local extents at least the ghost width on every split axis.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "solver/scenario.hpp"
#include "solver/solver.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace vmpi = s3d::vmpi;

namespace {

constexpr int kSteps = 3;

void poison_ghosts(const sv::Layout& l, double* f) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int k = -l.gz; k < l.nz + l.gz; ++k)
    for (int j = -l.gy; j < l.ny + l.gy; ++j)
      for (int i = -l.gx; i < l.nx + l.gx; ++i) {
        const bool interior =
            i >= 0 && i < l.nx && j >= 0 && j < l.ny && k >= 0 && k < l.nz;
        if (!interior) f[l.at(i, j, k)] = nan;
      }
}

void poison_solver(sv::Solver& s) {
  const sv::Layout& l = s.layout();
  for (int v = 0; v < s.state().nv(); ++v) poison_ghosts(l, s.state().var(v));
  sv::Prim& p = s.rhs().prim();
  for (sv::GField* f : {&p.rho, &p.u, &p.v, &p.w, &p.T, &p.p, &p.Wbar})
    poison_ghosts(l, f->data());
  for (sv::GField& y : p.Y) poison_ghosts(l, y.data());
}

struct RunResult {
  std::vector<double> global;  ///< gathered interior, variable-major
  bool finite = true;
};

/// kSteps steps of `setup` on a (px, py, pz) decomposition (serial Solver
/// when all are 1), dt re-estimated every other step like Solver::run.
RunResult run_case(const sv::CaseSetup& setup, int px, int py, int pz,
             bool poison) {
  const int NX = setup.cfg.x.n, NY = setup.cfg.y.n, NZ = setup.cfg.z.n;
  const int nv = sv::n_conserved(setup.cfg.mech->n_species());
  const std::size_t pts = static_cast<std::size_t>(NX) * NY * NZ;
  RunResult out;
  out.global.assign(static_cast<std::size_t>(nv) * pts, 0.0);

  auto body = [&](sv::Solver& s) {
    s.initialize(setup.init);
    double dt = 0.0;
    for (int st = 0; st < kSteps; ++st) {
      if (poison) poison_solver(s);
      if (st % 2 == 0) dt = s.stable_dt();
      if (poison) poison_solver(s);
      s.step(dt);
    }
    const sv::Layout& l = s.layout();
    const auto off = s.offset();
    for (int v = 0; v < nv; ++v)
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j)
          for (int i = 0; i < l.nx; ++i)
            out.global[static_cast<std::size_t>(v) * pts +
                       static_cast<std::size_t>(off[2] + k) * NX * NY +
                       static_cast<std::size_t>(off[1] + j) * NX +
                       (off[0] + i)] = s.state().at(v, i, j, k);
  };

  if (px * py * pz == 1) {
    sv::Solver s(setup.cfg);
    body(s);
  } else {
    vmpi::run(px * py * pz, [&](vmpi::Comm& comm) {
      sv::Solver s(setup.cfg, comm, px, py, pz);
      body(s);
      comm.barrier();  // every interior gathered before rank 0 returns
    });
  }
  for (double x : out.global) out.finite = out.finite && std::isfinite(x);
  return out;
}

/// "" or the first differing interior element.
std::string first_difference(const std::vector<double>& a,
                             const std::vector<double>& b) {
  if (a.size() != b.size()) return "size mismatch";
  for (std::size_t n = 0; n < a.size(); ++n)
    if (std::memcmp(&a[n], &b[n], sizeof(double)) != 0) {
      std::ostringstream os;
      os << "element " << n << ": " << a[n] << " vs " << b[n];
      return os.str();
    }
  return "";
}

struct PoisonCase {
  std::string scenario;
  sv::ParamMap overrides;
  bool three_d;
};

void PrintTo(const PoisonCase& pc, std::ostream* os) { *os << pc.scenario; }

std::string case_name(const ::testing::TestParamInfo<PoisonCase>& info) {
  return info.param.scenario;
}

class GhostPoison : public ::testing::TestWithParam<PoisonCase> {};

TEST_P(GhostPoison, InteriorMatchesUnpoisonedAcrossRanks) {
  const PoisonCase& pc = GetParam();
  const sv::CaseSetup setup =
      sv::ScenarioRegistry::instance().build(pc.scenario, pc.overrides);

  const RunResult ref = run_case(setup, 1, 1, 1, /*poison=*/false);
  ASSERT_TRUE(ref.finite) << "unpoisoned reference must stay finite";

  struct Decomp {
    int px, py, pz;
  };
  const Decomp eight = pc.three_d ? Decomp{2, 2, 2} : Decomp{4, 2, 1};
  for (const Decomp d : {Decomp{1, 1, 1}, Decomp{2, 1, 1}, eight}) {
    const RunResult got = run_case(setup, d.px, d.py, d.pz, /*poison=*/true);
    EXPECT_TRUE(got.finite)
        << d.px << "x" << d.py << "x" << d.pz
        << ": a NaN ghost reached the interior";
    EXPECT_EQ(first_difference(got.global, ref.global), "")
        << d.px << "x" << d.py << "x" << d.pz
        << " poisoned vs unpoisoned serial";
  }
}

// Tiny sizes: every split axis keeps at least kNg = 5 local points.
INSTANTIATE_TEST_SUITE_P(
    AllScenarios, GhostPoison,
    ::testing::Values(
        PoisonCase{"bunsen", {{"nx", "20"}, {"ny", "10"}}, false},
        PoisonCase{"counterflow_ignition", {{"nx", "20"}, {"ny", "10"}},
                   false},
        PoisonCase{"hit_autoignition", {{"n", "10"}, {"two_d", "false"}},
                   true},
        PoisonCase{"lifted_jet", {{"nx", "20"}, {"ny", "10"}}, false},
        PoisonCase{"pressure_wave", {{"n", "10"}, {"two_d", "false"}}, true},
        PoisonCase{"temporal_jet", {{"nx", "20"}, {"ny", "10"}}, false}),
    case_name);

// The list above must cover the whole registry.
TEST(GhostPoisonCoverage, CoversEveryRegisteredScenario) {
  const std::vector<std::string> covered = {
      "bunsen",     "counterflow_ignition", "hit_autoignition",
      "lifted_jet", "pressure_wave",        "temporal_jet"};
  EXPECT_EQ(sv::ScenarioRegistry::instance().names(), covered);
}

}  // namespace
