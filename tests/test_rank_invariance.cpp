// Rank-count invariance: the same problem advanced one (and several)
// steps on 1, 2, and 8 vmpi ranks must produce bitwise-identical interior
// fields. This isolates halo-exchange correctness from the golden
// harness: any packing/ordering/ghost-width bug shows up as a checksum
// difference between decompositions.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "chem/mechanisms.hpp"
#include "chem/mixing.hpp"
#include "common/hash.hpp"
#include "solver/cases.hpp"
#include "solver/solver.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace vmpi = s3d::vmpi;

namespace {

// Run `nsteps` of the given case on a (px, py, pz) decomposition and
// return the per-variable FNV-1a checksums of the gathered global
// interior (x fastest, then y, then z, then variable).
std::vector<std::uint64_t> run_and_checksum(const sv::CaseSetup& setup,
                                            int nsteps, int px, int py,
                                            int pz) {
  const int NX = setup.cfg.x.n, NY = setup.cfg.y.n, NZ = setup.cfg.z.n;
  const int nranks = px * py * pz;
  const int nv = sv::n_conserved(setup.cfg.mech->n_species());
  std::vector<double> global(static_cast<std::size_t>(nv) * NX * NY * NZ);

  vmpi::run(nranks, [&](vmpi::Comm& comm) {
    sv::Solver s(setup.cfg, comm, px, py, pz);
    s.initialize(setup.init);
    s.run(nsteps);
    const auto& l = s.layout();
    const auto off = s.offset();
    for (int v = 0; v < nv; ++v) {
      const double* var = s.state().var(v);
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j)
          for (int i = 0; i < l.nx; ++i) {
            const std::size_t g =
                static_cast<std::size_t>(v) * NX * NY * NZ +
                static_cast<std::size_t>(off[2] + k) * NX * NY +
                static_cast<std::size_t>(off[1] + j) * NX + (off[0] + i);
            global[g] = var[l.at(i, j, k)];
          }
    }
    comm.barrier();  // all interiors written before rank 0 returns
  });

  std::vector<std::uint64_t> sums(nv);
  const std::size_t pts = static_cast<std::size_t>(NX) * NY * NZ;
  for (int v = 0; v < nv; ++v)
    sums[v] = s3d::fnv1a64(global.data() + static_cast<std::size_t>(v) * pts,
                           pts * sizeof(double));
  return sums;
}

// Gathered DLB execution statistics from a parallel run (summed over
// ranks; shipped == hosted globally by construction).
struct DlbTotals {
  long evals_engaged = 0;
  long parcels = 0;
  long cells = 0;
};

// Like run_and_checksum, but also collects the chemistry-DLB statistics.
std::vector<std::uint64_t> run_and_checksum_dlb(const sv::CaseSetup& setup,
                                                int nsteps, int px, int py,
                                                int pz, DlbTotals* totals) {
  const int NX = setup.cfg.x.n, NY = setup.cfg.y.n, NZ = setup.cfg.z.n;
  const int nranks = px * py * pz;
  const int nv = sv::n_conserved(setup.cfg.mech->n_species());
  std::vector<double> global(static_cast<std::size_t>(nv) * NX * NY * NZ);
  std::vector<sv::DlbStats> per_rank(nranks);

  vmpi::run(nranks, [&](vmpi::Comm& comm) {
    sv::Solver s(setup.cfg, comm, px, py, pz);
    s.initialize(setup.init);
    s.run(nsteps);
    if (const sv::DlbStats* st = s.rhs().dlb_stats())
      per_rank[comm.rank()] = *st;
    const auto& l = s.layout();
    const auto off = s.offset();
    for (int v = 0; v < nv; ++v) {
      const double* var = s.state().var(v);
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j)
          for (int i = 0; i < l.nx; ++i) {
            const std::size_t g =
                static_cast<std::size_t>(v) * NX * NY * NZ +
                static_cast<std::size_t>(off[2] + k) * NX * NY +
                static_cast<std::size_t>(off[1] + j) * NX + (off[0] + i);
            global[g] = var[l.at(i, j, k)];
          }
    }
    comm.barrier();
  });

  if (totals) {
    *totals = DlbTotals{};
    for (const auto& st : per_rank) {
      totals->evals_engaged =
          std::max(totals->evals_engaged, st.evals_engaged);
      totals->parcels += st.parcels_sent;
      totals->cells += st.cells_shipped;
    }
  }
  std::vector<std::uint64_t> sums(nv);
  const std::size_t pts = static_cast<std::size_t>(NX) * NY * NZ;
  for (int v = 0; v < nv; ++v)
    sums[v] = s3d::fnv1a64(global.data() + static_cast<std::size_t>(v) * pts,
                           pts * sizeof(double));
  return sums;
}

// Forced chemistry load skew: a fully periodic premixed H2/air box at
// 300 K with one hot ignition kernel confined to the first octant, so
// every decomposition hands (nearly) all cells above Config::dlb_hot_T
// to rank 0. An aggressive hot weight plus a tight imbalance tolerance
// guarantees the plan engages at 2 and 8 ranks.
sv::CaseSetup dlb_skew_case(int n) {
  sv::CaseSetup cs;
  auto mech = std::make_shared<const s3d::chem::Mechanism>(
      s3d::chem::h2_li2004());
  cs.cfg.mech = mech;
  const double L = 0.004;
  cs.cfg.x = {n, L, true};
  cs.cfg.y = {n, L, true};
  cs.cfg.z = {n, L, true};
  for (int a = 0; a < 3; ++a)
    for (auto& f : cs.cfg.faces[a]) f.kind = sv::BcKind::periodic;
  cs.cfg.transport = sv::TransportModel::constant_lewis;
  cs.cfg.T_ref = 300.0;
  cs.cfg.dlb_hot_weight = 64.0;
  cs.cfg.dlb_imbalance_tol = 0.05;

  // Stoichiometric H2/air (X ratios 2 : 1 : 3.76).
  const auto Y0 = s3d::chem::stream_Y_from_X(
      *mech, {{"H2", 0.2959}, {"O2", 0.1479}, {"N2", 0.5562}});
  cs.Y_ox = Y0;
  cs.init = [L, Y0](double x, double y, double z, sv::InflowState& s,
                    double& p) {
    s.u = s.v = s.w = 0.0;
    s.Y.fill(0.0);
    for (std::size_t i = 0; i < Y0.size(); ++i) s.Y[i] = Y0[i];
    const double r0 = L / 5.0;
    const double r2 = std::pow(x - 0.25 * L, 2) +
                      std::pow(y - 0.25 * L, 2) +
                      std::pow(z - 0.25 * L, 2);
    s.T = 300.0 + 1300.0 * std::exp(-r2 / (r0 * r0));
    p = 101325.0;
  };
  return cs;
}

// Golden parcel accounting for ChemistryDlbForcedSkewBitwise: global
// parcels/cells shipped over the whole run at each decomposition.
constexpr long kGoldenParcels2 = 11;
constexpr long kGoldenCells2 = 143;
constexpr long kGoldenParcels8 = 77;
constexpr long kGoldenCells8 = 231;

}  // namespace

TEST(RankInvariance, PressureWave3dOneStep) {
  const auto setup = sv::pressure_wave_case(16);
  const auto serial = run_and_checksum(setup, 1, 1, 1, 1);
  const auto two = run_and_checksum(setup, 1, 2, 1, 1);
  const auto eight = run_and_checksum(setup, 1, 2, 2, 2);
  ASSERT_EQ(serial.size(), two.size());
  ASSERT_EQ(serial.size(), eight.size());
  for (std::size_t v = 0; v < serial.size(); ++v) {
    EXPECT_EQ(two[v], serial[v]) << "1 vs 2 ranks differ in variable " << v;
    EXPECT_EQ(eight[v], serial[v]) << "1 vs 8 ranks differ in variable " << v;
  }
}

TEST(RankInvariance, PressureWave3dSeveralStepsAndAxisSplits) {
  const auto setup = sv::pressure_wave_case(16);
  const auto ref = run_and_checksum(setup, 3, 1, 1, 1);
  // Split each axis separately: catches per-axis pack/unpack asymmetries.
  for (const auto& decomp :
       {std::array<int, 3>{2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {2, 2, 2}}) {
    const auto got =
        run_and_checksum(setup, 3, decomp[0], decomp[1], decomp[2]);
    for (std::size_t v = 0; v < ref.size(); ++v)
      EXPECT_EQ(got[v], ref[v])
          << decomp[0] << "x" << decomp[1] << "x" << decomp[2]
          << " differs in variable " << v;
  }
}

TEST(RankInvariance, ReactingLiftedJet2d) {
  // Non-periodic NSCBC boundaries + inflow turbulence + chemistry: the
  // full stack must still be decomposition-invariant.
  sv::LiftedJetParams p;
  p.nx = 32;
  p.ny = 24;
  const auto setup = sv::lifted_jet_case(p);
  const auto serial = run_and_checksum(setup, 2, 1, 1, 1);
  const auto par = run_and_checksum(setup, 2, 2, 2, 1);
  for (std::size_t v = 0; v < serial.size(); ++v)
    EXPECT_EQ(par[v], serial[v]) << "variable " << v;
}

TEST(ChemDlb, PlanIsPureAndConservative) {
  const std::vector<double> loads{5000.0, 1000.0, 1000.0, 1000.0};
  const std::vector<double> hot{60.0, 0.0, 0.0, 0.0};
  const auto plan = sv::dlb_plan(loads, hot, 64.0, 0.10);
  ASSERT_FALSE(plan.empty());
  long shipped = 0;
  for (const auto& t : plan) {
    EXPECT_EQ(t.src, 0) << "only rank 0 has surplus hot cells";
    EXPECT_NE(t.dst, 0);
    EXPECT_GT(t.cells, 0);
    shipped += t.cells;
  }
  EXPECT_LE(shipped, 60);

  // Pure function: identical inputs, identical plan.
  const auto again = sv::dlb_plan(loads, hot, 64.0, 0.10);
  ASSERT_EQ(again.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(again[i].src, plan[i].src);
    EXPECT_EQ(again[i].dst, plan[i].dst);
    EXPECT_EQ(again[i].cells, plan[i].cells);
  }

  // Balanced loads and single-rank inputs produce no plan.
  const std::vector<double> flat{1000.0, 1000.0, 1000.0, 1000.0};
  const std::vector<double> nohot{0.0, 0.0, 0.0, 0.0};
  EXPECT_TRUE(sv::dlb_plan(flat, nohot, 64.0, 0.10).empty());
  EXPECT_TRUE(sv::dlb_plan({loads.data(), 1}, {hot.data(), 1}, 64.0, 0.10)
                  .empty());
}

TEST(RankInvariance, ChemistryDlbForcedSkewBitwise) {
  // The acceptance bar of DESIGN.md §11: DLB-armed 1/2/8-rank runs of a
  // deliberately skewed reacting case are bitwise identical to the
  // DLB-off serial reference, and the layer demonstrably engaged
  // (shipped parcels) on the multi-rank runs.
  auto setup = dlb_skew_case(16);
  setup.cfg.chem_dlb = true;  // explicit: this test is about the armed layer
  auto off = setup;
  off.cfg.chem_dlb = false;
  const auto ref = run_and_checksum(off, 2, 1, 1, 1);

  // Single rank: the layer arms but can never engage (P = 1).
  DlbTotals t1;
  const auto one = run_and_checksum_dlb(setup, 2, 1, 1, 1, &t1);
  EXPECT_EQ(t1.cells, 0);
  for (std::size_t v = 0; v < ref.size(); ++v)
    EXPECT_EQ(one[v], ref[v]) << "DLB-armed 1 rank, variable " << v;

  DlbTotals t2, t8;
  const auto two = run_and_checksum_dlb(setup, 2, 2, 1, 1, &t2);
  const auto eight = run_and_checksum_dlb(setup, 2, 2, 2, 2, &t8);
  for (std::size_t v = 0; v < ref.size(); ++v) {
    EXPECT_EQ(two[v], ref[v]) << "DLB-armed 2 ranks, variable " << v;
    EXPECT_EQ(eight[v], ref[v]) << "DLB-armed 8 ranks, variable " << v;
  }
  EXPECT_GT(t2.cells, 0) << "forced skew must engage the 2-rank plan";
  EXPECT_GT(t8.cells, 0) << "forced skew must engage the 8-rank plan";

  // Golden parcel accounting: the plan is a pure function of the
  // deterministic hot-cell classification, so the global parcel/cell
  // totals are exactly reproducible. Refresh these pins only with an
  // intentional change to the cost model or the planner (record the new
  // values from this test's failure output).
  EXPECT_EQ(t2.parcels, kGoldenParcels2);
  EXPECT_EQ(t2.cells, kGoldenCells2);
  EXPECT_EQ(t8.parcels, kGoldenParcels8);
  EXPECT_EQ(t8.cells, kGoldenCells8);
}

TEST(RankInvariance, SerialSolverMatchesSingleRankParallel) {
  // The serial constructor and a 1-rank Cartesian communicator take
  // different code paths (local wrap vs self-neighbour exchange); they
  // must agree bitwise.
  const auto setup = sv::pressure_wave_case(12);
  sv::Solver serial(setup.cfg);
  serial.initialize(setup.init);
  serial.run(2);

  const auto par = run_and_checksum(setup, 2, 1, 1, 1);
  const auto& l = serial.layout();
  const int nv = serial.state().nv();
  std::vector<double> global(static_cast<std::size_t>(nv) * l.nx * l.ny *
                             l.nz);
  for (int v = 0; v < nv; ++v)
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        for (int i = 0; i < l.nx; ++i)
          global[static_cast<std::size_t>(v) * l.nx * l.ny * l.nz +
                 static_cast<std::size_t>(k) * l.nx * l.ny +
                 static_cast<std::size_t>(j) * l.nx + i] =
              serial.state().var(v)[l.at(i, j, k)];
  const std::size_t pts = static_cast<std::size_t>(l.nx) * l.ny * l.nz;
  for (int v = 0; v < nv; ++v)
    EXPECT_EQ(s3d::fnv1a64(global.data() + v * pts, pts * sizeof(double)),
              par[v])
        << "variable " << v;
}
