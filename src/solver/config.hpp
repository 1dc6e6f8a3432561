#pragma once
// Solver configuration: domain, chemistry, boundary conditions, numerics
// parameters. One Config fully describes a run (the paper's "problem
// configuration" sections 6.2 / 7.2).

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "chem/mechanism.hpp"
#include "common/error.hpp"
#include "grid/mesh.hpp"

namespace s3d::solver {

/// Thrown by Config::validate(): a malformed run configuration, named by
/// the offending field so drivers can report exactly what to fix.
class ConfigError : public Error {
 public:
  ConfigError(std::string field, const std::string& why)
      : Error("invalid Config." + field + ": " + why),
        field_(std::move(field)) {}
  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

/// Boundary treatment of one face (paper section 2.6: NSCBC).
enum class BcKind {
  periodic,        ///< wrap (both faces of the axis must be periodic)
  nscbc_outflow,   ///< subsonic non-reflecting outflow, pressure relaxation
  nscbc_inflow,    ///< subsonic inflow: u, v, w, T, Y imposed, rho floats
};

/// Per-face boundary spec.
struct FaceBc {
  BcKind kind = BcKind::periodic;
  double p_target = 101325.0;  ///< far-field pressure for outflow faces
  double sigma = 0.25;         ///< outflow relaxation coefficient
  /// Absorbing-layer width [m] ahead of an outflow face (0 = none). The
  /// reduced-order boundary closures stall outgoing waves; a cubic-ramped
  /// sponge that relaxes pressure toward p_target absorbs them first. The
  /// relaxation preserves T, Y and u (target state is (p_target/p) U).
  double sponge_width = 0.0;
  double sponge_strength = 1.0;  ///< multiplies c/width at the wall
};

/// The primitive state an inflow face imposes at a boundary point.
struct InflowState {
  double u = 0.0, v = 0.0, w = 0.0;
  double T = 300.0;
  /// Mass fractions, size = mechanism species count.
  std::array<double, chem::kMaxSpecies> Y{};
};

/// Inflow generator: fills `s` for boundary point (y, z) at time t.
using InflowFn =
    std::function<void(double t, double y, double z, InflowState& s)>;

/// Initial condition: fills the primitive state and pressure at (x, y, z).
using InitFn = std::function<void(double x, double y, double z,
                                  InflowState& s, double& p)>;

/// Molecular-transport closure used by the RHS.
enum class TransportModel {
  /// Full mixture-averaged model (paper eqs. 14, 17-20): kinetic-theory
  /// fits, Wilke viscosity, Mathur conductivity, per-species D_i^mix.
  mixture_averaged,
  /// Wilke/Mathur mu and lambda, species diffusivities from constant
  /// per-species Lewis numbers calibrated at a reference state (a standard
  /// S3D option; much cheaper in the inner loop).
  constant_lewis,
  /// Power-law mu(T), constant Prandtl and Lewis numbers; the classic
  /// cheap DNS closure, used by the scaled-down benchmark runs.
  power_law,
};

/// Checkpoint-store policy (DESIGN.md §12): how the unified delta
/// checkpoint store behind SnapshotRing and RestartSeries encodes and
/// persists generations.
struct CkptOptions {
  /// Delta generations: a full "base" image every base_every generations
  /// with block-level dirty deltas (per-block checksums) in between, so
  /// deeper rings and longer series fit the memory/disk budget. Off:
  /// every generation is a full base image (the PR-2 behavior).
  bool delta = true;
  int base_every = 4;  ///< generations between full base images
  int block = 1024;    ///< delta block granule [doubles]
  /// Write-behind persistence: RestartSeries::write costs one bounded
  /// enqueue on the step path and a dedicated persister thread drains
  /// the queue through the retry/backoff policy below. Off (default):
  /// writes are synchronous — fully durable when write() returns, which
  /// is what the recovery drivers' generation-vote barrier assumes.
  bool write_behind = false;
  int queue_depth = 4;      ///< bounded persist queue (enqueue blocks when full)
  int persist_retries = 3;  ///< attempts per generation ("checkpoint.persist")
  double backoff_ms = 1.0;       ///< first-retry delay (real time)
  double backoff_cap_ms = 16.0;  ///< backoff ceiling
};

/// Per-block adaptive time integration (DESIGN.md §13): a PI error
/// controller over a fixed global block tiling drives per-block dt from
/// embedded RK error estimates; blocks whose dt falls below the global
/// step subcycle locally while the far field takes one step, and health
/// breaches recover through an escalation ladder (subcycle the breaching
/// block → localized rollback → global rollback with dt halving →
/// restart series) instead of always rolling the whole domain back.
/// The controller state is reduced collectively (one allreduce over the
/// block vector) so every rank holds the identical block→dt map bitwise.
/// Off by default: a disarmed run is bit-identical to the pre-adaptive
/// stepper (AdaptiveGuard.CleanRunAtDefaultsMatchesLegacyPath, and the
/// global-halving goldens run with it off).
struct AdaptiveOptions {
  bool enabled = false;
  /// Cells per axis of one controller block. The tiling is over GLOBAL
  /// interior indices, so block ids — and the block→dt map — do not
  /// depend on the rank decomposition.
  int block = 8;
  /// Embedded-error weights: the per-block norm is the max over cells
  /// and conserved variables of |e| / (atol + rtol |u|). Both are
  /// scalar weights over SI-unit conserved variables (tune per
  /// problem); the defaults are deliberately permissive — a healthy
  /// CFL-limited step sits an order below tolerance, while a block
  /// drifting toward blow-up overshoots it by orders of magnitude.
  /// The absolute floor also keeps sign-changing variables (momentum)
  /// from flagging their zero crossings, where rtol |u| vanishes.
  double atol = 1.0;
  double rtol = 1e-2;
  /// PI gains: dt ratio update factor = safety * E^-(kI+kP) * E_prev^kP
  /// on the normalized block error E (E = 1 means at tolerance).
  double kI = 0.35;
  double kP = 0.20;
  double safety = 0.9;
  /// Per-block dt as a fraction of the global step, clamped to
  /// [dt_min_ratio, dt_max_ratio]; a ratio below 1 marks the block
  /// stiff and it subcycles at ceil(1/ratio) substeps (capped).
  double dt_min_ratio = 0.0625;
  double dt_max_ratio = 1.0;
  int subcycle_cap = 16;
  /// Clamp each block's dt by its own CFL/Fourier stable dt too (the
  /// per-block refinement of RhsEvaluator::suggest_dt). Off by default:
  /// with an automatic global dt the clamp can never bind (the global
  /// dt is already the min over blocks); it matters under dt_fixed.
  bool cfl_clamp = false;
  /// Escalation-ladder budgets: rung-1 subcycle retries per breach
  /// episode (consecutive breaches without an intervening clean scan)
  /// before widening to rung 2, and total rung-2 localized rollbacks
  /// per run before a breach escalates straight to the global rung.
  int max_subcycle_retries = 2;
  int max_local_rollbacks = 8;
  /// Clean scans after a global-rung dt halving before the controller-
  /// chosen dt scale (1.0) is restored; 0 keeps the halved dt for the
  /// rest of the run (the legacy behavior).
  int dt_recover_after = 2;

  /// Typed ConfigError ("<prefix>.field") for malformed knobs.
  void validate(const std::string& prefix) const;
};

struct Config {
  grid::AxisSpec x{1, 1.0, true};
  grid::AxisSpec y{1, 1.0, true};
  grid::AxisSpec z{1, 1.0, true};

  std::shared_ptr<const chem::Mechanism> mech;

  TransportModel transport = TransportModel::mixture_averaged;
  /// Reference state for calibrating constant-Lewis / power-law closures.
  double T_ref = 800.0;
  double p_ref = 101325.0;
  double Pr = 0.708;        ///< Prandtl number for power_law
  double visc_exp = 0.7;    ///< mu ~ (T/T_ref)^visc_exp for power_law

  /// faces[axis][side]: side 0 = low, 1 = high.
  std::array<std::array<FaceBc, 2>, 3> faces{};

  InflowFn inflow;  ///< required when any face is nscbc_inflow

  double cfl = 0.8;            ///< acoustic CFL number
  double fourier = 0.4;        ///< diffusive stability number
  double filter_alpha = 0.999; ///< filter strength (paper: 10th-order)
  int filter_interval = 1;     ///< apply filter every N steps

  bool include_viscous = true;   ///< viscous + diffusive terms on/off
  bool include_chemistry = true;
  /// Soret (thermal diffusion) term of paper eq. 16, with constant
  /// per-species thermal-diffusion ratios (significant for H2/H; the
  /// paper notes Soret matters mainly for premixed flames).
  bool include_soret = false;

  /// Characteristic domain length for outflow relaxation K (defaults to
  /// x-length when 0).
  double L_relax = 0.0;

  /// Chemistry dynamic load balancing over vmpi (DESIGN.md §11): when
  /// reacting cells concentrate in a few ranks' subdomains, overloaded
  /// ranks pack surplus hot cells into work parcels, ship them to
  /// underloaded ranks, and scatter the returned rates back. The
  /// assignment is deterministic and seed-free — every rank derives the
  /// identical transfer plan from one allreduced cost vector, and the
  /// shipped cells run the same compiled kinetics kernel — so any rank
  /// count reproduces the serial answer bitwise (test_rank_invariance
  /// pins it). Engages only when size > 1 and the measured imbalance
  /// exceeds dlb_imbalance_tol.
  bool chem_dlb = true;
  /// Cells with T >= dlb_hot_T count as "hot" (reacting) in the DLB
  /// cost model; the threshold reads the resolved temperature field, so
  /// the classification is identical on every rank count.
  double dlb_hot_T = 1200.0;
  /// Modeled chemistry cost of a hot cell relative to a cold one.
  double dlb_hot_weight = 8.0;
  /// Engage DLB only when max rank load > (1 + tol) * mean load.
  double dlb_imbalance_tol = 0.10;
  /// Max cells per shipped work parcel (bounds message size).
  int dlb_parcel_cells = 64;

  /// Prim-boundary mass-fraction repair (see PrimOptions in state.hpp):
  /// renormalize clipped Y vectors whose explicit species sum past one,
  /// instead of only zeroing the implied last species. Changes the
  /// trajectory, so it is off by default and never applied silently.
  bool y_renormalize = false;
  /// Count prim-boundary clip events into the `health.y_clip` trace
  /// counter (and collect Newton convergence stats each RHS evaluation).
  bool count_y_clips = false;

  /// Checkpoint-store policy for the snapshot ring and restart series
  /// built from this configuration (run_guarded / run_resilient pass it
  /// through; ResilienceConfig::store overrides it per driver).
  CkptOptions checkpoint;

  /// Per-block adaptive time integration policy (DESIGN.md §13) for
  /// guarded runs of this configuration (GuardOptions::adaptive and
  /// ResilienceConfig::adaptive override it per driver).
  AdaptiveOptions adaptive;

  /// Check the configuration for malformed values (non-positive grid
  /// dims or lengths, missing/empty mechanism, bad CFL / Fourier /
  /// filter factors, face inconsistencies); throws ConfigError naming
  /// the offending field. Solver construction calls this, so every
  /// driver gets the typed report before any allocation.
  void validate() const;
};

}  // namespace s3d::solver
