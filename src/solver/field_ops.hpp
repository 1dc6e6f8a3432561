#pragma once
// Derivative and filter operators applied to ghosted solver fields, with
// the mesh metric (stretched axes) folded in.

#include <array>

#include "grid/mesh.hpp"
#include "solver/layout.hpp"

namespace s3d::solver {

/// Whether each axis side has valid ghost data (periodic wrap or a
/// parallel neighbour); false selects the one-sided boundary closures.
struct GhostFlags {
  std::array<bool, 3> lo{false, false, false};
  std::array<bool, 3> hi{false, false, false};
};

/// Physical-space derivative and filter operators for one local box.
class FieldOps {
 public:
  /// `offset` = global index of this rank's first interior point per axis.
  FieldOps(const Layout& l, const grid::Mesh& mesh,
           std::array<int, 3> offset, GhostFlags ghosts);

  const Layout& layout() const { return l_; }
  const GhostFlags& ghosts() const { return ghosts_; }

  /// out(interior) = d f / d x_axis; reads f's `axis` ghosts on the sides
  /// flagged in ghosts(), and leaves out's ghost cells untouched. An
  /// inactive axis zeroes all of out.
  void deriv(const GField& f, int axis, GField& out) const {
    deriv(f.data(), axis, out.data(), out.size());
  }
  void deriv(const double* f, int axis, double* out, std::size_t out_size) const;

  /// Filter f along `axis` into `out` (interior only; reads f's `axis`
  /// ghosts like deriv()).
  void filter_axis(const GField& f, int axis, double alpha,
                   GField& out) const {
    filter_axis(f.data(), axis, alpha, out.data());
  }
  void filter_axis(const double* f, int axis, double alpha, double* out) const;

  /// Local slice of the metric (d xi / dx) for an axis.
  const std::vector<double>& inv_h(int axis) const { return inv_h_[axis]; }

 private:
  template <typename LineFn>
  void for_each_line(int axis, LineFn&& fn) const;

  Layout l_;
  GhostFlags ghosts_;
  std::array<std::vector<double>, 3> inv_h_;
};

}  // namespace s3d::solver
