#include "solver/passes.hpp"

#include <algorithm>
#include <cmath>

#include "numerics/stencil.hpp"

namespace s3d::solver {

template <bool Fused>
void FusedPointwise::run_rows(const Layout& l, int ilo, int ihi, int jlo,
                              int jhi, int klo, int khi,
                              PassStats* stats) const {
  const int count = ihi - ilo;
  if constexpr (Fused) {
    if (stats) stats->count(stages());
    for (int k = klo; k < khi; ++k)
      for (int j = jlo; j < jhi; ++j) {
        const RowRange r{l.at(ilo, j, k), ilo, count, j, k};
        for (const Stage& s : stages_) s.fn(r);
      }
  } else {
    for (const Stage& s : stages_) {
      if (stats) stats->count(1);
      for (int k = klo; k < khi; ++k)
        for (int j = jlo; j < jhi; ++j)
          s.fn(RowRange{l.at(ilo, j, k), ilo, count, j, k});
    }
  }
}

void FusedPointwise::run_interior(const Layout& l, PassStats* stats) const {
  run_rows<true>(l, 0, l.nx, 0, l.ny, 0, l.nz, stats);
}

void FusedPointwise::run_segments(std::span<const RowRange> segs,
                                  PassStats* stats) const {
  if (stats) stats->count(stages());
  for (const RowRange& r : segs)
    for (const Stage& s : stages_) s.fn(r);
}

void FusedPointwise::run_with_axis_ghosts(const Layout& l, int axis,
                                          const GhostFlags& gh,
                                          PassStats* stats) const {
  int lo[3] = {0, 0, 0}, hi[3] = {l.nx, l.ny, l.nz};
  if (gh.lo[axis]) lo[axis] = -l.g(axis);
  if (gh.hi[axis]) hi[axis] += l.g(axis);
  run_rows<true>(l, lo[0], hi[0], lo[1], hi[1], lo[2], hi[2], stats);
}

void FusedPointwise::run_interior_sequential(const Layout& l,
                                             PassStats* stats) const {
  run_rows<false>(l, 0, l.nx, 0, l.ny, 0, l.nz, stats);
}

void batched_deriv(const FieldOps& ops, int axis,
                   std::span<const DerivTarget> fields, bool accumulate,
                   PassStats* stats) {
  const Layout& l = ops.layout();
  if (stats) stats->count(static_cast<long>(fields.size()));
  if (!l.active(axis)) {
    // FieldOps::deriv zeroes the whole output on an inactive axis; the
    // accumulate form subtracts those zeros, which is the identity.
    if (!accumulate)
      for (const DerivTarget& t : fields)
        std::fill(t.out, t.out + l.total(), 0.0);
    return;
  }

  const std::ptrdiff_t s = l.stride(axis);
  const int n = l.n(axis);
  const numerics::LineBC bc{ops.ghosts().lo[axis], ops.ghosts().hi[axis]};
  const double* inv = ops.inv_h(axis).data();

  auto lines = [&](std::size_t base) {
    for (const DerivTarget& t : fields) {
      if (accumulate)
        numerics::deriv_line_metric_sub(t.f + base, s, t.out + base, s, n,
                                        inv, bc);
      else
        numerics::deriv_line_metric(t.f + base, s, t.out + base, s, n, inv,
                                    bc);
    }
  };

  // Interior lines only, in both modes (FieldOps::deriv's extents).
  if (axis == 0) {
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j) lines(l.at(0, j, k));
    return;
  }

  // Lines along y or z: x innermost, so neighbouring lines share cache
  // lines.
  const int nouter = axis == 1 ? l.nz : l.ny;
  for (int q = 0; q < nouter; ++q)
    for (int i = 0; i < l.nx; ++i)
      lines(axis == 1 ? l.at(i, 0, q) : l.at(i, q, 0));
}

void TripwireAccum::check_row(const State& U, const TripwireParams& p,
                              std::size_t n0, int i0, int count, int j,
                              int k) {
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    const int i = i0 + c;
    bool cell_finite = true;
    for (int v = 0; v < p.nv; ++v)
      if (!std::isfinite(U.var(v)[n])) {
        ++nonfinite;
        cell_finite = false;
      }
    if (!cell_finite) {
      // Rows arrive in ascending (k, j, i) order, so the first offender
      // is the global-code minimum — deterministic across runs and
      // identical to the sentinel's separate-sweep scan.
      if (nonfinite_cell >= kNoCellCode)
        nonfinite_cell = p.encode_cell(i, j, k);
      continue;
    }
    const double rho = U.var(UIndex::rho)[n];
    if (rho <= p.rho_min) {
      if (rho < rho_worst) {
        rho_worst = rho;
        rho_cell = p.encode_cell(i, j, k);
      }
      continue;  // mass fractions are meaningless without density
    }
    double ysum = 0.0, ymin = 0.0;
    for (int sp = 0; sp < p.ns - 1; ++sp) {
      const double y = U.var(UIndex::Y0 + sp)[n] / rho;
      ysum += y;
      if (y < ymin) ymin = y;
    }
    const double ylast = 1.0 - ysum;
    if (ylast < ymin) ymin = ylast;
    if (-ymin > p.y_tol && -ymin > y_worst) {
      y_worst = -ymin;
      y_cell = p.encode_cell(i, j, k);
    }
  }
}

}  // namespace s3d::solver
