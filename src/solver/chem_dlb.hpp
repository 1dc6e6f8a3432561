#pragma once
// Chemistry dynamic load balancing over vmpi (DESIGN.md §11).
//
// Stiff reacting cells concentrate in ignition kernels and flame fronts,
// so a uniform domain decomposition hands some ranks far more chemistry
// work per step than others (the cure Yang et al.'s chemistry-DLB work
// applies to S3D, see PAPERS.md). This layer rebalances the
// REACTION_RATE kernel only — the one cost that varies per cell — and is
// built so any rank count reproduces the serial answer bitwise:
//
//   1. Every rank classifies its interior cells with a deterministic
//      cost model: a cell with T >= Config::dlb_hot_T is "hot" and costs
//      dlb_hot_weight, any other cell costs 1. No timers, no seeds.
//   2. The per-rank (load, hot-cell count) vector is allreduced, so
//      every rank holds identical numbers and computes the IDENTICAL
//      transfer plan (dlb_plan is a pure function of that vector).
//   3. Donor ranks pack their surplus hot cells — the first ones in
//      interior (k, j, i) traversal order — into fixed-size work parcels
//      of primitive state [T, rho, Y...] and isend them (vmpi isend is
//      buffered, so the send-first/serve/collect ordering cannot
//      deadlock). Hosts evaluate the parcels with the SAME compiled
//      batched kinetics kernel the owner would have used and return the
//      rates; per-(src, dst, tag) non-overtaking delivery keeps parcel
//      order deterministic, so no cell indices travel on the wire.
//   4. The owner skips the shipped cells in its local kernel and
//      scatters the returned rates through the same shared applier
//      (chem_apply_wdot_cell). Each cell's dUdt entries are touched
//      exactly once, so application order across cells is irrelevant to
//      the bits.
//
// test_rank_invariance pins DLB-armed 1/2/8-rank steps against the
// DLB-off serial reference and pins the parcel counts.

#include <cstddef>
#include <span>
#include <vector>

#include "chem/batched.hpp"
#include "solver/config.hpp"
#include "solver/layout.hpp"
#include "solver/state.hpp"
#include "vmpi/vmpi.hpp"

namespace s3d::solver {

/// One planned move of `cells` hot cells from rank src to rank dst.
struct DlbTransfer {
  int src = 0;
  int dst = 0;
  long cells = 0;
};

/// Deterministic, seed-free transfer plan: a pure function of the
/// allreduced per-rank loads and hot-cell counts, so every rank computes
/// the identical plan redundantly. Greedy largest-surplus ->
/// largest-deficit matching with rank-ascending tie-breaks; empty when
/// max load <= (1 + imbalance_tol) * mean load.
std::vector<DlbTransfer> dlb_plan(std::span<const double> loads,
                                  std::span<const double> hot,
                                  double hot_weight, double imbalance_tol);

/// Cumulative per-rank DLB execution statistics.
struct DlbStats {
  long evals = 0;          ///< RHS evaluations the layer participated in
  long evals_engaged = 0;  ///< evaluations with a non-empty global plan
  long parcels_sent = 0;   ///< work parcels this rank shipped out
  long parcels_hosted = 0; ///< work parcels this rank evaluated for peers
  long cells_shipped = 0;
  long cells_hosted = 0;
};

/// The one compiled body applying a cell's chemistry source into dUdt
/// (never inlined): the batched chemistry pass and the DLB result
/// scatter both land here, so `dUdt += wdot * W` contracts identically
/// for local and hosted cells (DESIGN.md §11).
void chem_apply_wdot_cell(State& dUdt, std::size_t n, const double* wdot,
                          const double* W, int ns);

/// Per-evaluation DLB driver owned by the RHS evaluator. All methods are
/// collective over the communicator: the caller must invoke them on
/// every rank of every evaluation (the engagement condition is derived
/// from Config, which is uniform across ranks).
class ChemDlb {
 public:
  ChemDlb(const chem::Mechanism& mech, const Config& cfg, vmpi::Comm& comm);

  /// Phase 1 (collective, before the local chemistry kernel): classify,
  /// allreduce the cost vector, plan, ship this rank's surplus parcels
  /// and host+serve parcels addressed here. Returns the ascending flat
  /// indices of local interior cells shipped away this evaluation; the
  /// local kernel must skip exactly these cells.
  const std::vector<std::size_t>& begin_eval(const Prim& prim,
                                             const Layout& l);

  /// Phase 2 (after the local kernel): collect the hosted results for
  /// the shipped cells and apply them into dUdt.
  void finish_eval(State& dUdt);

  const DlbStats& stats() const { return stats_; }

 private:
  void ship(const DlbTransfer& t, const Prim& prim, std::size_t hot_cursor);
  void host(const DlbTransfer& t);

  const chem::Mechanism* mech_;
  chem::BatchedChemistry bchem_;
  Config cfg_;
  vmpi::Comm* comm_;
  std::vector<double> W_;  ///< species molecular weights

  std::vector<std::size_t> hot_idx_;  ///< hot cells, traversal order
  std::vector<std::size_t> shipped_;  ///< cells shipped this evaluation

  /// One outstanding result parcel: the cells it covers (in parcel
  /// order), the posted irecv and its landing buffer.
  struct PendingResult {
    std::size_t cell0 = 0;  ///< index into shipped_ of the first cell
    int count = 0;
    vmpi::Request req;
    std::vector<double> buf;
  };
  std::vector<PendingResult> pending_;

  // Host-side scratch (parcel unpack + batched evaluation).
  std::vector<double> work_, host_T_, host_lnT_, host_rho_, host_Y_,
      host_wdot_;

  DlbStats stats_;
};

}  // namespace s3d::solver
