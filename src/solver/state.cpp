#include "solver/state.hpp"

#include <algorithm>
#include <cmath>

namespace s3d::solver {

void State::zero_interior() {
  for (int v = 0; v < nv_; ++v) {
    double* f = var(v);
    for (int k = 0; k < l_.nz; ++k)
      for (int j = 0; j < l_.ny; ++j) {
        const std::size_t row = l_.at(0, j, k);
        std::fill(f + row, f + row + l_.nx, 0.0);
      }
  }
}

void prim_from_conserved(const chem::Mechanism& mech, const State& U,
                         Prim& prim, const PrimOptions& opts,
                         PrimStats* stats) {
  const Layout& l = U.layout();
  const int ns = mech.n_species();
  const double* rho_u = U.var(UIndex::rho);
  const double* mx = U.var(UIndex::mx);
  const double* my = U.var(UIndex::my);
  const double* mz = U.var(UIndex::mz);
  const double* re0 = U.var(UIndex::e0);

  double Yp[chem::kMaxSpecies];

  for (int k = 0; k < l.nz; ++k) {
    for (int j = 0; j < l.ny; ++j) {
      const std::size_t row = l.at(0, j, k);
      for (int i = 0; i < l.nx; ++i) {
        const std::size_t n = row + i;
        const double rho = rho_u[n];
        const double inv_rho = 1.0 / rho;
        const double uu = mx[n] * inv_rho;
        const double vv = my[n] * inv_rho;
        const double ww = mz[n] * inv_rho;

        double ysum = 0.0;
        double y_min_raw = 0.0;
        for (int s = 0; s < ns - 1; ++s) {
          // Clip transient undershoots of trace species; the filter keeps
          // these at round-off scale.
          const double y_raw = U.var(UIndex::Y0 + s)[n] * inv_rho;
          y_min_raw = std::min(y_min_raw, y_raw);
          Yp[s] = std::max(y_raw, 0.0);
          ysum += Yp[s];
        }
        // The last species absorbs the residual; a clipped-to-zero value
        // here means the explicit species overshot a total of one.
        y_min_raw = std::min(y_min_raw, 1.0 - ysum);
        Yp[ns - 1] = std::max(1.0 - ysum, 0.0);
        if (opts.renormalize_y && ysum > 1.0) {
          const double inv_sum = 1.0 / ysum;
          for (int s = 0; s < ns; ++s) Yp[s] *= inv_sum;
        }
        if (stats && y_min_raw < 0.0) {
          ++stats->y_clipped;
          stats->y_most_negative =
              std::min(stats->y_most_negative, y_min_raw);
        }

        const double e0 = re0[n] * inv_rho;
        const double e_int = e0 - 0.5 * (uu * uu + vv * vv + ww * ww);
        const double T_guess = prim.T.data()[n];
        double T;
        if (stats) {
          chem::Mechanism::NewtonStats nw;
          T = mech.T_from_e(e_int, {Yp, static_cast<std::size_t>(ns)},
                            T_guess, &nw);
          if (!nw.converged) ++stats->newton_nonconverged;
          if (nw.hit_bounds) ++stats->newton_hit_bounds;
          if (nw.iterations > stats->newton_max_iterations ||
              (!nw.converged &&
               nw.residual > stats->newton_worst_residual)) {
            stats->newton_max_iterations =
                std::max(stats->newton_max_iterations, nw.iterations);
            stats->worst_cell = static_cast<std::ptrdiff_t>(n);
          }
          if (!nw.converged)
            stats->newton_worst_residual =
                std::max(stats->newton_worst_residual, nw.residual);
        } else {
          T = mech.T_from_e(e_int, {Yp, static_cast<std::size_t>(ns)},
                            T_guess);
        }

        prim.rho.data()[n] = rho;
        prim.u.data()[n] = uu;
        prim.v.data()[n] = vv;
        prim.w.data()[n] = ww;
        prim.T.data()[n] = T;
        const double Wbar =
            mech.mean_W_from_Y({Yp, static_cast<std::size_t>(ns)});
        prim.Wbar.data()[n] = Wbar;
        prim.p.data()[n] = rho * 8314.462618 / Wbar * T;
        for (int s = 0; s < ns; ++s) prim.Y[s].data()[n] = Yp[s];
      }
    }
  }
}

void point_to_conserved(const chem::Mechanism& mech, double rho, double uu,
                        double vv, double ww, double T,
                        std::span<const double> Y,
                        std::span<double> u_point) {
  const int ns = mech.n_species();
  u_point[UIndex::rho] = rho;
  u_point[UIndex::mx] = rho * uu;
  u_point[UIndex::my] = rho * vv;
  u_point[UIndex::mz] = rho * ww;
  const double e = mech.e_mass_mix(T, Y) + 0.5 * (uu * uu + vv * vv + ww * ww);
  u_point[UIndex::e0] = rho * e;
  for (int s = 0; s < ns - 1; ++s) u_point[UIndex::Y0 + s] = rho * Y[s];
}

}  // namespace s3d::solver
