#pragma once
// Fused-pass execution layer (DESIGN.md §10 "Pass fusion").
//
// The paper's node-level performance result comes from collapsing many
// independent sweeps over the ghosted fields into a few fused,
// cache-blocked passes. This layer expresses the RHS and RK stages as a
// small list of such passes:
//
//   FusedPointwise   named pointwise stages applied row by row in one
//                    traversal (one sweep carrying N stages instead of
//                    N sweeps carrying one stage each);
//   batched_deriv    derivatives of many fields along one axis in one
//                    traversal of the interior lines, optionally
//                    accumulating a divergence (out -= df) directly
//                    into the target with no scratch round-trip;
//   TripwireAccum    the health sentinel's conserved-state tripwires
//                    (non-finite, negative density, Y drift) evaluated
//                    per interior row inside the final state-committing
//                    pass of a step, so an armed scan costs no separate
//                    sweep.
//
// Every pass counts its traversals into a PassStats (test_passes pins
// the per-eval and per-step sweep counts exactly) and runs under a named
// trace span so the kernel profile reports the pass structure. Fusion
// never changes per-cell arithmetic, only traversal structure:
// batched_deriv is pinned bitwise against FieldOps::deriv, and the golden
// checksums recorded from the retired unfused plan still hold.

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "solver/field_ops.hpp"
#include "solver/layout.hpp"
#include "solver/state.hpp"

namespace s3d::solver {

/// Sweep accounting for a pass plan. A "sweep" is one loop nest
/// traversing the domain; a fused pass over K fields counts one sweep
/// carrying K stages, while the same work unfused counts K sweeps.
struct PassStats {
  long sweeps = 0;  ///< full-domain loop nests executed
  long stages = 0;  ///< pointwise stages / fields carried by the sweeps
  void count(long nstages = 1) {
    ++sweeps;
    stages += nstages;
  }
  void reset() { *this = PassStats{}; }
};

/// One contiguous x-run of cells at fixed (j, k): the granularity at
/// which fused pointwise stages interleave.
struct RowRange {
  std::size_t n0 = 0;  ///< flat index of the cell at i = i0
  int i0 = 0;          ///< first interior-based i of the run
  int count = 0;       ///< cells in the run
  int j = 0, k = 0;    ///< interior-based orthogonal indices
};

using RowFn = std::function<void(const RowRange&)>;

/// A fused pointwise pass: named stages applied row by row, all stages
/// per row, in registration order.
///
/// Legality (DESIGN.md §10): stages must write pairwise-disjoint
/// outputs, and may read any field no stage of the pass writes, plus
/// outputs of earlier stages at the current row only. Stages meeting
/// the stronger condition (reading no staged output at all) commute:
/// any permutation is bitwise identical to sequential application,
/// which test_passes asserts as a property.
class FusedPointwise {
 public:
  explicit FusedPointwise(const char* name) : name_(name) {}

  FusedPointwise& add(const char* stage, RowFn fn) {
    stages_.push_back({stage, std::move(fn)});
    return *this;
  }
  int stages() const { return static_cast<int>(stages_.size()); }
  const char* name() const { return name_; }
  const char* stage_name(int i) const { return stages_[i].name; }

  /// One traversal of the interior, every stage per row.
  void run_interior(const Layout& l, PassStats* stats) const;
  /// One traversal of an explicit row-segment list (the masked-commit
  /// shape of stiff-region subcycling, DESIGN.md §13): every stage per
  /// segment, in list order. Segments use the same RowRange encoding as
  /// the full traversals, so a stage cannot tell a masked run from a
  /// full one — same kernels, same per-cell arithmetic.
  void run_segments(std::span<const RowRange> segs, PassStats* stats) const;
  /// One traversal of the interior extended by `axis`'s ghost layers on
  /// the sides flagged in `gh` (the cells a divergence along `axis`
  /// reads).
  void run_with_axis_ghosts(const Layout& l, int axis, const GhostFlags& gh,
                            PassStats* stats) const;

  /// Reference shape: one interior traversal per stage (the unfused loop
  /// structure); bitwise-identical results for any legal pass.
  void run_interior_sequential(const Layout& l, PassStats* stats) const;

 private:
  struct Stage {
    const char* name;
    RowFn fn;
  };
  template <bool Fused>
  void run_rows(const Layout& l, int ilo, int ihi, int jlo, int jhi, int klo,
                int khi, PassStats* stats) const;

  const char* name_;
  std::vector<Stage> stages_;
};

/// One field of a batched derivative pass.
struct DerivTarget {
  const double* f = nullptr;  ///< ghosted source field
  double* out = nullptr;      ///< target field (same layout)
};

/// d/dx_axis of many fields in one traversal of the interior lines (the
/// interior range along `axis` at every interior orthogonal position,
/// FieldOps::deriv's extents); ghost cells of the targets are never
/// written. `accumulate = false` mirrors FieldOps::deriv field by field
/// and assigns out = df. `accumulate = true` is the fused divergence
/// shape: out -= df in place, replacing the unfused write-scratch /
/// read-scratch / subtract triple while staying bitwise identical to it.
void batched_deriv(const FieldOps& ops, int axis,
                   std::span<const DerivTarget> fields, bool accumulate,
                   PassStats* stats);

/// Cell code meaning "no cell", mirroring the health sentinel's
/// allreduce encoding (larger than any encodable global index).
inline constexpr double kNoCellCode = 1e300;

/// Thresholds and global-cell encoding for the conserved-state
/// tripwires (matches HealthSentinel::encode_cell bit for bit).
struct TripwireParams {
  double rho_min = 0.0;  ///< density floor
  double y_tol = 1.0;    ///< mass-fraction undershoot tolerance
  int ns = 0;            ///< species count
  int nv = 0;            ///< conserved-variable count
  std::array<int, 3> offset{0, 0, 0};  ///< rank's global index offset
  double NX = 1.0, NY = 1.0;           ///< global grid extents

  double encode_cell(int i, int j, int k) const {
    return (offset[0] + i) + NX * ((offset[1] + j) + NY * (offset[2] + k));
  }
};

/// Accumulated conserved-state tripwire verdict. check_row() applied to
/// every interior row in ascending (k, j, i) order reproduces the health
/// sentinel's separate-sweep scan exactly: first non-finite offender,
/// worst density undershoot, worst mass-fraction drift.
struct TripwireAccum {
  long nonfinite = 0;
  double nonfinite_cell = kNoCellCode;
  double rho_worst = 1e300;  ///< worst (smallest) rho at or below the floor
  double rho_cell = kNoCellCode;
  double y_worst = 0.0;  ///< worst mass-fraction undershoot magnitude
  double y_cell = kNoCellCode;
  long step = -1;  ///< step count the accumulation belongs to

  bool breached() const {
    return nonfinite > 0 || rho_cell < kNoCellCode || y_cell < kNoCellCode;
  }

  /// Evaluate the tripwires over one interior row of the conserved
  /// state: cells [i0, i0 + count) at (j, k), first cell at flat n0.
  void check_row(const State& U, const TripwireParams& p, std::size_t n0,
                 int i0, int count, int j, int k);
};

}  // namespace s3d::solver
