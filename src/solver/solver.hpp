#pragma once
// Time-integration driver: owns the mesh, the conserved state, and the RHS
// evaluator; advances with the low-storage Runge-Kutta scheme, applies the
// 10th-order filter, and enforces the (possibly turbulent) inflow plane.

#include <functional>
#include <memory>
#include <optional>

#include <span>
#include <vector>

#include "numerics/rk.hpp"
#include "solver/config.hpp"
#include "solver/dt_control.hpp"
#include "solver/rhs.hpp"

namespace s3d::solver {

class Solver {
 public:
  /// Serial solver over the whole domain.
  explicit Solver(const Config& cfg);

  /// Parallel solver: this rank's share of a (px, py, pz) decomposition.
  Solver(const Config& cfg, vmpi::Comm& comm, int px, int py, int pz);

  /// Apply the initial condition over the local interior.
  void initialize(const InitFn& init);

  /// One RK step of size dt at the current time.
  void step(double dt);

  /// One RK step of size dt committing ONLY the listed interior row
  /// segments (stiff-region subcycling, DESIGN.md §13). Every stage
  /// still evaluates the full-domain RHS — the masked cells read the
  /// committed far field through the ordinary ghost machinery, which is
  /// the conservative, rank-invariant seam coupling — but the commits
  /// run through the same noinline rk_axpy_row kernel restricted to the
  /// segments, so a masked cell's update is bitwise the update a full
  /// step would have given it against the same surroundings. Advances
  /// the clock by dt; the step counter, filter, and inflow imposition
  /// stay with the caller (the escalation ladder owns that
  /// bookkeeping). Collective when parallel: every rank must call it
  /// the same number of times (an empty segment list is fine — the RHS
  /// halo exchanges and DLB collectives still participate).
  void step_region(double dt, std::span<const RowRange> segs);

  /// Arm the embedded-error estimator for the NEXT step(): accumulate
  /// e = sum_s B_s k_s - dt f(u_n) alongside the RK commits (the CK4
  /// solution minus the embedded forward-Euler solution sharing stage
  /// 1 — a first-order embedded estimate costing no extra RHS
  /// evaluation), then reduce per-block Linf norms of
  /// |e| / (atol + rtol |u_{n+1}|) into `out`, indexed by block id
  /// (0 where this rank owns no cell: the identity of the collective
  /// max-reduce the controller applies). One-shot — the step clears the
  /// arming. Unarmed steps skip every estimator sweep and stay
  /// bit-identical to a build without the estimator.
  void arm_error_estimate(const BlockMap& map, double atol, double rtol,
                          std::vector<double>* out);

  /// Advance `nsteps` with automatic dt (re-estimated every `dt_every`
  /// steps); invokes monitor(step_index) when provided.
  void run(int nsteps, const std::function<void(int)>& monitor = {},
           int dt_every = 5);

  /// Stable dt from the current state (parallel-reduced when parallel).
  double stable_dt();

  double time() const { return t_; }
  int steps_taken() const { return steps_; }
  /// Restore clock/step counter (restart-file loading). Invalidates the
  /// cached dt: the restored state need not resemble the one the cache
  /// was computed from.
  void set_time(double t, int steps) {
    t_ = t;
    steps_ = steps;
    invalidate_dt_cache();
  }

  /// Drop the cached automatic dt so the next run() re-estimates it from
  /// the current state. Must be called whenever the state is replaced
  /// behind the solver's back (restart load, health-sentinel rollback):
  /// a dt computed from the pre-restore state can exceed the stable dt
  /// of the restored one.
  void invalidate_dt_cache() { dt_cached_ = -1.0; }
  /// Cached automatic dt from the last run() estimation, or -1 when the
  /// cache is invalid (regression hook for the invalidation contract).
  double cached_dt() const { return dt_cached_; }

  /// Recompute primitives from the current conserved state (diagnostics;
  /// ghost shells are re-exchanged too, edges and corners included) and
  /// return them.
  const Prim& primitives();

  State& state() { return U_; }
  const State& state() const { return U_; }
  const Layout& layout() const { return rhs_->layout(); }
  const grid::Mesh& mesh() const { return *mesh_; }
  RhsEvaluator& rhs() { return *rhs_; }
  const RhsEvaluator& rhs() const { return *rhs_; }
  /// Global index offset of the local box.
  std::array<int, 3> offset() const { return offset_; }

  /// Physical coordinate of local interior index along an axis.
  double coord(int axis, int local_idx) const {
    return mesh_->coord(axis, offset_[axis] + local_idx);
  }

  /// Arm the conserved-state tripwires to ride the final fused pass of
  /// the NEXT step() (DESIGN.md §10): the filter's commit pass when the
  /// filter runs that step, else the final RK axpy pass. Returns false
  /// when no fused pass is last (an inflow face mutates the state after
  /// the last pass on an unfiltered step) — the caller keeps its separate
  /// sweep then. The decision derives only from Config, so every rank
  /// of a decomposition folds identically.
  bool arm_tripwires(const TripwireParams& p);
  /// Tripwire verdict accumulated by the last armed step (cleared).
  std::optional<TripwireAccum> take_tripwires();

  /// Sweep accounting for the integrator's own passes (RK axpy, filter);
  /// add RhsEvaluator::pass_stats() for the full per-step plan.
  const PassStats& pass_stats() const { return pass_stats_; }
  void reset_pass_stats() { pass_stats_.reset(); }

 private:
  enum class TripFold { none, rk, filter };
  TripFold tripwire_fold(long next_step) const;
  void setup(const Config& cfg, vmpi::Comm* comm, int px, int py, int pz);
  void enforce_inflow();
  void apply_filter(bool fold_tripwires = false);

  Config cfg_;
  const BlockMap* err_map_ = nullptr;   ///< armed error-estimate tiling
  double err_atol_ = 0.0, err_rtol_ = 0.0;
  std::vector<double>* err_out_ = nullptr;
  State err_;  ///< embedded-error register (allocated on first arming)
  std::unique_ptr<grid::Mesh> mesh_;
  std::unique_ptr<vmpi::Cart> cart_;
  vmpi::Comm* comm_ = nullptr;
  std::array<int, 3> offset_{0, 0, 0};
  /// This rank's ghost exchange and its buffers: the filter's exchanges
  /// of U, primitives(), and (by reference) every rhs_ evaluation.
  std::unique_ptr<Halo> halo_;
  std::unique_ptr<RhsEvaluator> rhs_;
  State U_, dU_, k_;
  GField filt_tmp_;
  /// Per-variable filter buffers for the fused commit pass (lazily
  /// allocated the first time a tripwire-armed step filters).
  std::vector<GField> fbuf_;
  numerics::RkScheme scheme_;
  PassStats pass_stats_;
  bool trip_armed_ = false;
  TripwireParams trip_params_;
  TripwireAccum trip_acc_;
  std::optional<TripwireAccum> trip_result_;
  double t_ = 0.0;
  double dt_cached_ = -1.0;
  int steps_ = 0;
};

}  // namespace s3d::solver
