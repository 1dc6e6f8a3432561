#include "solver/field_ops.hpp"

#include <algorithm>

#include "numerics/stencil.hpp"

namespace s3d::solver {

FieldOps::FieldOps(const Layout& l, const grid::Mesh& mesh,
                   std::array<int, 3> offset, GhostFlags ghosts)
    : l_(l), ghosts_(ghosts) {
  for (int a = 0; a < 3; ++a) {
    const int n = l.n(a);
    inv_h_[a].resize(n);
    const auto& metric = mesh.inv_spacing(a);
    for (int i = 0; i < n; ++i) {
      const int gi = offset[a] + i;
      S3D_REQUIRE(gi < static_cast<int>(metric.size()),
                  "rank offset outside global mesh");
      inv_h_[a][i] = metric[gi];
    }
  }
}

// Iterate over the interior lines of the box along `axis`;
// fn(base_flat_index). A line runs over the interior range of `axis` at
// one interior orthogonal position: ghost-shell outputs are never read
// (the flux divergence consumes only interior lines, and the diffusive
// fluxes reach other ranks' ghosts through the halo exchange).
template <typename LineFn>
void FieldOps::for_each_line(int axis, LineFn&& fn) const {
  const int a1 = (axis + 1) % 3, a2 = (axis + 2) % 3;
  for (int q = 0; q < l_.n(a2); ++q) {
    for (int r = 0; r < l_.n(a1); ++r) {
      int ijk[3] = {0, 0, 0};
      ijk[a1] = r;
      ijk[a2] = q;
      fn(l_.at(ijk[0], ijk[1], ijk[2]));
    }
  }
}

void FieldOps::deriv(const double* f, int axis, double* out,
                     std::size_t out_size) const {
  if (!l_.active(axis)) {
    std::fill(out, out + out_size, 0.0);
    return;
  }
  const std::ptrdiff_t s = l_.stride(axis);
  const int n = l_.n(axis);
  const numerics::LineBC bc{ghosts_.lo[axis], ghosts_.hi[axis]};
  const double* inv = inv_h_[axis].data();
  for_each_line(axis, [&](std::size_t base) {
    numerics::deriv_line_metric(f + base, s, out + base, s, n, inv, bc);
  });
}

void FieldOps::filter_axis(const double* f, int axis, double alpha,
                           double* out) const {
  if (!l_.active(axis)) return;
  const std::ptrdiff_t s = l_.stride(axis);
  const int n = l_.n(axis);
  const numerics::LineBC bc{ghosts_.lo[axis], ghosts_.hi[axis]};
  for_each_line(axis, [&](std::size_t base) {
    numerics::filter_line(f + base, s, out + base, s, n, alpha, bc);
  });
}

}  // namespace s3d::solver
