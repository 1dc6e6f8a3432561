#pragma once
// Right-hand-side assembly for the compressible reacting Navier-Stokes
// equations in conservative form (paper eqs. 1-4):
//
//   d(rho)/dt    = -div(rho u)
//   d(rho u)/dt  = -div(rho u u) - grad p + div tau
//   d(rho e0)/dt = -div(u (rho e0 + p)) + div(tau . u) - div q
//   d(rho Y)/dt  = -div(rho Y u) - div J + W wdot
//
// with tau from eq. 14, J from the mixture-averaged model eqs. 18-19 plus
// the correction velocity that enforces eq. 15, and q from eq. 20.
//
// Evaluation order per call (which is also S3D's structure):
//   1. primitives from U (interior), 2. face-only halo exchange of
//      primitives, 3. gradients + transport + diffusive fluxes
//      (interior), 4. halo exchange of the diffusive fluxes, each axis
//      carrying only the fluxes along it, 5. total flux divergences and
//      chemistry, 6. NSCBC boundary corrections.

#include <array>
#include <functional>
#include <memory>
#include <span>

#include "chem/batched.hpp"
#include "solver/chem_dlb.hpp"
#include "solver/config.hpp"
#include "solver/field_ops.hpp"
#include "solver/halo.hpp"
#include "solver/passes.hpp"
#include "solver/state.hpp"
#include "transport/transport.hpp"

namespace s3d::solver {

/// Per-kernel wall-clock accounting (feeds the paper's fig. 2 profile).
struct RhsTimers {
  double primitives = 0.0;
  double halo = 0.0;
  double gradients = 0.0;
  double transport_props = 0.0;
  double diffusive_flux = 0.0;
  double reaction_rate = 0.0;
  double convective = 0.0;
  double boundary = 0.0;
  int evals = 0;
};

class BlockMap;  // dt_control.hpp: the adaptive controller's global tiling

class RhsEvaluator {
 public:
  /// `offset`: global index of this rank's first interior point per axis;
  /// `ghosts`: which sides have exchanged ghost shells; `halo` performs
  /// the exchanges (serial or parallel) and must outlive the evaluator
  /// (the Solver lends its own, so each rank keeps one buffer set).
  /// `comm` (optional) enables the chemistry dynamic-load-balancing layer
  /// when Config::chem_dlb is on and the communicator spans more than one
  /// rank.
  RhsEvaluator(const Config& cfg, const grid::Mesh& mesh, const Layout& l,
               std::array<int, 3> offset, GhostFlags ghosts, Halo& halo,
               vmpi::Comm* comm = nullptr);

  /// Evaluate dU/dt at time t. Only the interior of dUdt is written; its
  /// ghost entries are left as they were.
  void eval(const State& U, double t, State& dUdt);

  /// Primitive fields from the most recent eval (valid incl. exchanged
  /// ghost shells).
  const Prim& prim() const { return prim_; }
  Prim& prim() { return prim_; }

  /// Stable time step from the most recent primitives: acoustic CFL plus
  /// diffusive limit (serial estimate; reduce across ranks for parallel).
  double suggest_dt() const;

  /// Per-block refinement of suggest_dt() (adaptive dt, DESIGN.md §13):
  /// min stable dt over this rank's cells of each controller block, 1e300
  /// where the rank owns none. Same per-cell arithmetic as suggest_dt()
  /// (the global estimate equals the min over this vector), feeding the
  /// controller's per-block CFL clamp. `out` must hold map.n_blocks().
  void suggest_dt_blocks(const BlockMap& map, std::span<double> out) const;

  const RhsTimers& timers() const { return timers_; }
  void reset_timers() { timers_ = RhsTimers{}; }

  /// Sweep accounting for the pass plan (sweeps over memory and the
  /// stages they carry; test_passes pins the per-eval counts).
  const PassStats& pass_stats() const { return pass_stats_; }
  void reset_pass_stats() { pass_stats_.reset(); }

  /// Chemistry DLB execution statistics, or nullptr when the layer is
  /// not armed (serial run, single rank, or Config::chem_dlb off).
  const DlbStats* dlb_stats() const {
    return dlb_ ? &dlb_->stats() : nullptr;
  }

  const Layout& layout() const { return l_; }
  const FieldOps& ops() const { return ops_; }
  const chem::Mechanism& mech() const { return *cfg_.mech; }
  const Config& config() const { return cfg_; }

 private:
  /// Shared per-cell stable-dt scan: sink(dt_cell, i, j, k) over the
  /// interior. suggest_dt() and suggest_dt_blocks() both reduce it (by
  /// min), so the two estimates cannot drift apart.
  void scan_cell_dt(
      const std::function<void(double, int, int, int)>& sink) const;
  void compute_transport_point(double T, double lnT, double rho, double cp,
                               const double* X, double& mu, double& lam,
                               double* D) const;
  void eval_diffusive();
  void eval_chemistry(State& dUdt);
  void eval_convective(const State& U, State& dUdt);
  void apply_nscbc(const State& U, double t, State& dUdt);
  void nscbc_face(const State& U, double t, State& dUdt, int axis, int side);
  void apply_sponges(const State& U, State& dUdt);

  Config cfg_;
  const grid::Mesh* mesh_;
  Layout l_;
  std::array<int, 3> offset_;
  GhostFlags ghosts_;
  FieldOps ops_;
  Halo& halo_;
  std::shared_ptr<const chem::Mechanism> mech_;
  transport::TransportFits fits_;

  Prim prim_;
  // Work fields.
  std::array<std::array<GField, 3>, 3> dudx_;  ///< dudx_[comp][axis]
  std::array<GField, 3> gradW_;
  std::array<GField, 3> gradT_;
  std::vector<std::array<GField, 3>> J_;  ///< per species, per axis
  std::array<std::array<GField, 3>, 3> tau_;
  std::array<GField, 3> q_;
  GField mu_f_, lam_f_;
  /// Staged ln T field for the batched kernels: written once per
  /// evaluation (transport pass, or the chemistry pass when viscous
  /// terms are off) and reused by every consumer of std::log(T).
  GField lnT_f_;
  /// Per-variable flux buffers for the convective phase: one assemble
  /// pass writes all nv fluxes, one batched divergence pass consumes them.
  std::vector<GField> flux_bufs_;

  std::vector<double> Le_;       ///< constant Lewis numbers
  double mu_ref_pl_ = 1.8e-5;    ///< power-law reference viscosity
  std::vector<int> active_axes_;

  chem::BatchedChemistry bchem_;
  std::unique_ptr<ChemDlb> dlb_;
  std::vector<double> Wvec_;         ///< species molecular weights
  std::vector<double> soret_ratio_;  ///< per-species Soret ratios
  std::vector<const double*> Yptr_;  ///< prim_.Y[s] base pointers
  // Row scratch for the batched passes (cell-major, l_.nx cells max).
  std::vector<double> row_X_, row_Y_, row_D_, row_wdot_;
  // Pointer tables for the shared diffusive row kernels ([a*3+b], [s*3+a]).
  std::array<const double*, 9> dudx_p_{};
  std::array<double*, 9> tau_p_{};
  std::array<const double*, 3> gradW_p_{}, gradT_p_{};
  std::array<double*, 3> q_p_{};
  std::vector<double*> J_p_;

  RhsTimers timers_;
  PassStats pass_stats_;
};

}  // namespace s3d::solver
