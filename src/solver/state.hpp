#pragma once
// Conserved-variable state and primitive-variable workspace.
//
// Conserved vector per grid point (paper eqs. 1-4):
//   U = [rho, rho u, rho v, rho w, rho e0, rho Y_1 .. rho Y_{Ns-1}]
// The last species is recovered from sum(Y) = 1 (paper eq. 6).

#include <span>
#include <vector>

#include "chem/mechanism.hpp"
#include "solver/layout.hpp"

namespace s3d::solver {

/// Indices into the conserved vector.
struct UIndex {
  static constexpr int rho = 0;
  static constexpr int mx = 1;
  static constexpr int my = 2;
  static constexpr int mz = 3;
  static constexpr int e0 = 4;
  static constexpr int Y0 = 5;  ///< first of Ns-1 partial densities
};

/// Number of conserved variables for a mechanism with ns species.
inline int n_conserved(int ns) { return 5 + ns - 1; }

/// Flat conserved state over a ghosted box: nv contiguous GField-shaped
/// blocks so the whole state is one span for the RK integrator.
class State {
 public:
  State() = default;
  State(const Layout& l, int nv)
      : l_(l), nv_(nv), block_(l.total()), u_(block_ * nv, 0.0) {}

  const Layout& layout() const { return l_; }
  int nv() const { return nv_; }

  double* var(int v) { return u_.data() + block_ * v; }
  const double* var(int v) const { return u_.data() + block_ * v; }

  double& at(int v, int i, int j, int k) { return var(v)[l_.at(i, j, k)]; }
  double at(int v, int i, int j, int k) const {
    return var(v)[l_.at(i, j, k)];
  }

  /// Zero the interior of every variable; ghost entries keep their
  /// values.
  void zero_interior();

  std::span<double> flat() { return u_; }
  std::span<const double> flat() const { return u_; }
  std::size_t block() const { return block_; }

 private:
  Layout l_;
  int nv_ = 0;
  std::size_t block_ = 0;
  std::vector<double> u_;
};

/// Primitive fields recomputed from U at every RHS evaluation. All carry
/// ghosts; interiors are filled by prim_from_conserved, ghosts by halo
/// exchange / periodic wrap.
struct Prim {
  GField rho, u, v, w, T, p;
  GField Wbar;              ///< mean molecular weight
  std::vector<GField> Y;    ///< ns mass fractions

  void allocate(const Layout& l, int ns) {
    rho = GField(l);
    u = GField(l);
    v = GField(l);
    w = GField(l);
    T = GField(l, 300.0);
    p = GField(l);
    Wbar = GField(l);
    Y.assign(ns, GField(l));
  }
};

/// Knobs for the conserved->primitive conversion boundary.
struct PrimOptions {
  /// Renormalize the clipped mass-fraction vector to sum to one instead
  /// of dumping the clipped mass into the last species (the historical
  /// behaviour). Off by default: switching it on changes the integrated
  /// trajectory, so it is a per-run decision, never a silent one.
  bool renormalize_y = false;
};

/// Per-call accounting of what the prim boundary had to repair or could
/// not invert — the health sentinel's window into the Newton solve and
/// the dispersion-error Y undershoots that were historically clipped
/// silently.
struct PrimStats {
  long y_clipped = 0;            ///< cells with at least one negative Y clipped
  double y_most_negative = 0.0;  ///< most negative raw mass fraction seen
  long newton_nonconverged = 0;  ///< cells whose T Newton did not converge
  long newton_hit_bounds = 0;    ///< cells pegged at the [Tmin, Tmax] clamp
  int newton_max_iterations = 0;
  double newton_worst_residual = 0.0;  ///< |dT| [K] of the worst cell
  std::ptrdiff_t worst_cell = -1;      ///< flat index of the worst cell
};

/// Fill Prim interiors (plus any already-valid ghost region is ignored)
/// from the conserved state. prim.T seeds the Newton iteration for T.
/// `opts` selects the mass-fraction repair policy; `stats`, when non-null,
/// collects clip/convergence accounting (the nullptr path compiles to the
/// historical zero-overhead loop).
void prim_from_conserved(const chem::Mechanism& mech, const State& U,
                         Prim& prim, const PrimOptions& opts = {},
                         PrimStats* stats = nullptr);

/// Build the conserved state at one point from primitives.
void point_to_conserved(const chem::Mechanism& mech, double rho, double uu,
                        double vv, double ww, double T,
                        std::span<const double> Y, std::span<double> u_point);

}  // namespace s3d::solver
