#pragma once
// Numerical health sentinel with collective rollback-and-retry timestep
// control (DESIGN.md "Numerical health & recovery").
//
// PR 2 made S3D++ survive *external* faults; this subsystem closes the
// *internal* gap the paper's production S3D handles with error trapping
// and timestep control: stiff-chemistry blow-ups, Newton non-convergence
// in the conserved->primitive inversion, NaN/Inf contamination, and CFL
// violations must not let a terascale allocation integrate garbage or
// die without a diagnosis.
//
// Three pieces:
//   HealthSentinel  scans the committed state after a step for breaches
//                   (non-finite U, rho <= rho_min, T outside mechanism
//                   bounds, |sum Y - 1| beyond tolerance, Newton
//                   iteration/residual overrun, dt above the stable-dt
//                   safety factor) and reduces the per-rank verdicts to
//                   one *collective* verdict through vmpi allreduces, so
//                   every rank of a decomposition takes the identical
//                   action deterministically.
//   SnapshotRing    an in-memory ring of full state snapshots (conserved
//                   vector plus the Newton warm-start temperature field,
//                   clock and step counter) restored bitwise on breach.
//   run_guarded     the driver: advance under the sentinel; on breach
//                   recover through the escalation ladder (DESIGN.md
//                   §13) — with adaptive dt enabled, first subcycle the
//                   breaching block(s), then roll back only those blocks
//                   from the delta ring, and only when the localized
//                   rungs are exhausted fall to the global rungs: roll
//                   the whole domain back to the newest snapshot (older
//                   ring entries when retries at one point are
//                   exhausted, then the PR-2 RestartSeries when the ring
//                   itself runs dry), shrink dt by a bounded factor, and
//                   re-advance under a rollback budget. Budget
//                   exhaustion throws HealthError carrying the final
//                   HealthReport — never a silent continuation.
//
// Determinism contract: scan verdicts derive only from allreduced
// quantities, snapshots are captured at step-count boundaries, and dt is
// re-estimated at fixed absolute step counts, so a guarded run recovers
// at the same points with the same dt schedule on every decomposition —
// the golden health test asserts bitwise-identical final fields across
// 1-, 2- and 8-rank runs of the same blow-up.

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "solver/checkpoint.hpp"
#include "solver/ckpt_store.hpp"
#include "solver/dt_control.hpp"
#include "solver/solver.hpp"
#include "vmpi/vmpi.hpp"

namespace s3d::solver {

/// Breach taxonomy, ascending severity; the collective verdict is the
/// max across ranks, so ordering decides which site is reported when
/// several trip at once.
enum class Breach : int {
  none = 0,
  dt_violation,      ///< dt_used exceeded the stable-dt safety factor
  y_sum,             ///< raw mass fractions left [0 - tol, 1 + tol]
  newton,            ///< T Newton iteration-count/residual overrun
  temperature,       ///< T outside the configured mechanism bounds
  negative_density,  ///< rho at or below rho_min
  non_finite,        ///< NaN/Inf in the conserved state
  injected,          ///< armed `solver.health` fault reported as a breach
};

/// Stable site name ("health.non_finite", ...) for traces and reports.
const char* breach_name(Breach b);

/// Sentinel thresholds. Defaults are deliberately loose: the sentinel is
/// a tripwire for states that are already numerically doomed, not a
/// physics validator.
struct HealthConfig {
  bool enabled = true;  ///< disarmed sentinel: scans compile to nothing
  int scan_every = 1;   ///< steps between scans
  double rho_min = 1e-4;      ///< [kg/m^3] density floor
  double T_min = 100.0;       ///< [K] breach below
  double T_max = 5000.0;      ///< [K] breach above
  /// |sum Y - 1| / undershoot tolerance. Routine dispersion-error
  /// undershoots in shear layers reach a few 1e-3 (the prim boundary
  /// clips them silently or, counted, as health.y_clip) — the breach
  /// threshold sits an order above that noise floor.
  double y_tol = 1e-2;
  int newton_max_iters = 50;  ///< Newton iteration-count overrun
  bool check_dt = true;       ///< compare dt_used against stable dt
  double dt_safety = 1.5;     ///< breach when dt_used > dt_safety * stable
  /// Fold the conserved-state tripwires into the final fused pass of an
  /// armed step (DESIGN.md §10) so the scan costs no separate sweep.
  /// Requires a caller that arms before stepping (run_guarded does); the
  /// verdict is bit-identical to the separate sweep, which remains the
  /// fallback whenever folding is impossible.
  bool in_pass = true;
};

/// Structured description of one (collective) breach verdict.
struct HealthReport {
  Breach breach = Breach::none;
  long step = 0;  ///< step count at which the scan tripped
  int rank = -1;  ///< rank owning the worst cell (-1: serial / n.a.)
  std::array<int, 3> cell{-1, -1, -1};  ///< global ijk of the worst cell
  double value = 0.0;      ///< breach metric (count, excess, ratio ...)
  double threshold = 0.0;  ///< the configured limit it crossed
  const char* site() const { return breach_name(breach); }
  std::string message() const;
};

/// Thrown when the rollback budget (or every restore source) is
/// exhausted: the run fails loudly with the final verdict attached.
class HealthError : public Error {
 public:
  HealthError(const HealthReport& rep, const std::string& context)
      : Error("health: " + context + ": " + rep.message()), rep_(rep) {}
  const HealthReport& report() const { return rep_; }

 private:
  HealthReport rep_;
};

/// Plugin-state sidecar riding the snapshot ring (DESIGN.md §15): `save`
/// appends a fixed-length block of doubles (e.g. analysis accumulators)
/// to every captured image, `load` consumes exactly that block on a
/// global restore and returns the count consumed — so plugin state rolls
/// back bitwise with the solver state it summarizes. The block length
/// must stay constant for the lifetime of a ring (the delta codec diffs
/// equal-sized images).
struct StateSidecar {
  std::function<void(std::vector<double>&)> save;
  std::function<std::size_t(std::span<const double>)> load;
};

/// In-memory ring of full solver snapshots (conserved state, Newton
/// warm-start T field, clock, step counter). Restores are bitwise.
/// Backed by the delta ring of the checkpoint store (DESIGN.md §12):
/// with opt.delta (the default) only the first retained entry is a full
/// copy and later entries store dirty blocks against their predecessor,
/// so deep rings cost far less than depth * state-size; with opt.delta
/// off every entry is a full copy (the PR-3 behavior). Either way the
/// newest image stays materialized and restores are bitwise.
class SnapshotRing {
 public:
  explicit SnapshotRing(int depth, CkptOptions opt = {});

  void capture(const Solver& s);
  /// Restore the newest snapshot (kept in the ring for further retries).
  void restore_newest(Solver& s) const;
  /// Localized rollback (DESIGN.md §13): restore ONLY the listed
  /// interior row segments (conserved vars + warm-start T) from the
  /// newest snapshot, leaving every other cell and the solver clock
  /// untouched — the escalation ladder re-integrates the restored
  /// region to the far field's clock afterwards. Rides the delta ring's
  /// materialized newest image, so a block restore costs the masked
  /// cells, not a full-state copy.
  void restore_cells(Solver& s, std::span<const RowRange> segs) const;
  /// Drop the newest snapshot to roll back deeper.
  void pop_newest();

  /// Install a plugin-state sidecar: captures append its payload after
  /// the solver state, restore_newest() hands the tail back to `load`.
  /// Localized restores (restore_cells) leave the sidecar untouched —
  /// rungs 1-2 never rewind the step the plugins sampled.
  void set_sidecar(StateSidecar sc) { sidecar_ = std::move(sc); }

  bool empty() const { return ring_.empty(); }
  int size() const { return ring_.size(); }
  long newest_step() const { return ring_.newest_step(); }
  double newest_time() const;
  std::size_t bytes() const { return ring_.bytes(); }

 private:
  DeltaRing ring_;
  StateSidecar sidecar_;
};

/// Per-step health scanner. scan() is collective when a communicator is
/// given: every rank returns the identical verdict.
class HealthSentinel {
 public:
  HealthSentinel(Solver& s, const HealthConfig& hc, vmpi::Comm* comm);

  /// Scan the committed state; `dt_used` is the step size just taken.
  /// Refreshes the primitive workspace (warm-started Newton) as a side
  /// effect when the conserved state is clean. Collective. Consumes the
  /// solver's in-pass tripwire verdict when the last step was armed.
  HealthReport scan(double dt_used);

  /// Arm the solver's in-pass tripwires for the next step (no-op
  /// returning false when disabled, HealthConfig::in_pass is off, or the
  /// step cannot fold them — the next scan() then sweeps separately).
  bool arm_in_pass();
  /// Tripwire thresholds/encoding matching this sentinel's host sweep.
  TripwireParams params() const;

  long scans() const { return scans_; }

 private:
  struct LocalVerdict {
    Breach breach = Breach::none;
    double metric = 0.0;       ///< finite severity metric for the reduce
    double cell_code = 0.0;    ///< encoded global cell of the worst site
    double threshold = 0.0;
    double dt_suggest = 1e300; ///< local stable dt (for the dt check)
  };
  LocalVerdict local_scan(double dt_used, const TripwireAccum* pre);
  double encode_cell(int i, int j, int k) const;

  Solver& s_;
  HealthConfig hc_;
  vmpi::Comm* comm_;
  long scans_ = 0;
};

/// Rollback-and-retry policy for run_guarded.
struct GuardOptions {
  HealthConfig health;

  int snapshot_every = 1;  ///< steps between ring captures
  int ring_depth = 2;      ///< snapshots retained in memory
  int max_rollbacks = 10;  ///< total rollback budget for the whole run
  /// Retries at one snapshot before rolling back to an older one.
  int retries_per_snapshot = 4;
  double dt_factor = 0.5;  ///< dt scale multiplier applied per rollback
  double dt_min = 0.0;     ///< fail when the scaled dt falls below (0: off)

  double dt_fixed = 0.0;   ///< fixed base dt when > 0 (else stable_dt())
  int dt_every = 5;        ///< stable-dt re-estimation cadence (steps)

  /// Last-resort restore source once the ring is exhausted (PR-2
  /// checkpoint series); consulted collectively in parallel runs.
  RestartSeries* fallback = nullptr;

  /// Per-block adaptive time integration override (DESIGN.md §13).
  /// Unset: the solver Config's `adaptive` options apply. When the
  /// resolved options are enabled, run_guarded drives the PI dt
  /// controller, proactive stiff-region subcycling, and the breach
  /// escalation ladder (subcycle → localized rollback → global rollback
  /// with dt halving → series restore); disabled, behavior is exactly
  /// the legacy global-halving policy.
  std::optional<AdaptiveOptions> adaptive;

  /// Plugin-state sidecar (DESIGN.md §15): installed on the guard's
  /// snapshot ring so plugin accumulators (in-situ analyses) are
  /// captured with every clean-state snapshot and restored bitwise on
  /// global rollbacks. Note the rung-4 RestartSeries fallback carries no
  /// sidecar: after a series restore the ring is reseeded with the
  /// plugins' CURRENT state.
  StateSidecar sidecar;
  /// Invoked after every scanned-clean committed step (and before the
  /// snapshot capture at that step), with the absolute step count. This
  /// is where in-situ consumers sample: breached steps never fire it,
  /// and a rollback restores the sidecar to the post-hook state of the
  /// restored step, so accumulators are never double-counted across
  /// recoveries. Consumers with a cadence should key it off the absolute
  /// step count they are handed.
  std::function<void(long)> on_clean_step;

  /// Typed ConfigError for malformed budgets/factors/thresholds.
  void validate() const;
};

/// One recovery event of a guarded run.
struct HealthEvent {
  HealthReport report;
  long rolled_back_to = -1;  ///< step count restored to
  double dt_scale = 1.0;     ///< dt scale in effect after the rollback
  bool from_series = false;  ///< restored from the RestartSeries fallback
  /// Escalation-ladder rung that handled the breach (DESIGN.md §13):
  /// 1 = breaching block(s) subcycled, 2 = widened localized rollback,
  /// 3 = global rollback with dt scaling, 4 = RestartSeries restore.
  /// Rungs 1-2 touch only the masked blocks; the global dt is never
  /// scaled by them.
  int rung = 3;
};

struct GuardReport {
  bool completed = false;
  long final_steps = 0;
  int rollbacks = 0;
  int series_restores = 0;
  long scans = 0;
  double dt_scale = 1.0;  ///< final dt scale (1.0: no breach ever)
  std::vector<HealthEvent> events;

  // Escalation-ladder accounting (zero when adaptive is disabled).
  int subcycle_recoveries = 0;  ///< rung-1 localized recovery attempts
  int local_rollbacks = 0;      ///< rung-2 widened localized rollbacks
  long subcycle_steps = 0;      ///< masked substeps committed (all causes)
  /// Work accounting for the wasted-work metric (THIS rank's cells):
  /// cell-steps executed (full steps, re-steps, masked substeps) and
  /// cell-steps later discarded by a restore of any rung. A fault-free
  /// run has discarded == 0 and executed == nsteps * local cells.
  long executed_cell_steps = 0;
  long discarded_cell_steps = 0;
};

/// Advance `s` by `nsteps` under the sentinel. Pass the communicator the
/// solver was built with for parallel runs (collective verdicts and
/// restores); nullptr for serial. Throws HealthError when the rollback
/// budget, the dt floor, or every restore source is exhausted.
GuardReport run_guarded(Solver& s, int nsteps, const GuardOptions& opts,
                        vmpi::Comm* comm = nullptr);

}  // namespace s3d::solver
