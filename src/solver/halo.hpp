#pragma once
// Ghost-zone exchange (paper section 2.6: "a ghost-zone is constructed at
// the processor boundaries by non-blocking MPI sends and receives among
// the nearest neighbors in the 3D processor topology").
//
// Works in two modes:
//   - serial: periodic axes wrap locally, physical boundaries are left to
//     the one-sided closures;
//   - parallel (vmpi): slabs are packed and exchanged with Cartesian
//     neighbours using non-blocking sends/receives; periodic wrap happens
//     through the topology.
//
// Axis exchanges are sequenced x, y, z, and each slab spans the other
// axes' full ghosted extents, so edges and corners fill in (the a-priori
// subgrid box filter reads them). A slab is copied as contiguous runs of
// the layout: one g-long run per (j, k) row for x, one g*sx block per
// z-plane for y, one g*sx*sy block for z. Pack and unpack walk the same
// runs, so message bytes, counts and tags do not depend on the walk.
//
// Layout gives every active axis ghost width g even when the local
// extent n is smaller, so a periodic wrap may read ghost cells. The local
// wrap therefore copies the exchanged-axis coordinate in increasing
// order, at most n planes at a time: a low ghost reads its source before
// that source is overwritten, and a high ghost reads the already-wrapped
// value.
//
// One send buffer (vmpi isend copies the payload, so it is refilled for
// the second direction at once) and two receive buffers persist across
// calls and only grow. A Solver owns ONE Halo, shared with its
// RhsEvaluator, so each rank holds one buffer set. Not thread-safe: one
// Halo serves one rank's thread.

#include <array>
#include <vector>

#include "solver/layout.hpp"
#include "vmpi/vmpi.hpp"

namespace s3d::solver {

class Halo {
 public:
  /// Serial constructor. `periodic` marks axes that wrap.
  Halo(const Layout& l, std::array<bool, 3> periodic);

  /// Parallel constructor: `comm` and `cart` describe this rank's place in
  /// the process grid. Each axis wraps through the topology when periodic.
  Halo(const Layout& l, std::array<bool, 3> periodic, vmpi::Comm* comm,
       const vmpi::Cart* cart);

  /// Exchange ghost shells of all fields (raw storage over the shared
  /// layout; GField::data() or State::var() pointers).
  void exchange(const std::vector<double*>& fields);

 private:
  void exchange_axis_local(double* f, int axis);
  void exchange_axis_parallel(const std::vector<double*>& fields, int axis);

  Layout l_;
  std::array<bool, 3> periodic_;
  vmpi::Comm* comm_ = nullptr;
  const vmpi::Cart* cart_ = nullptr;
  std::vector<double> send_, recv_lo_, recv_hi_;
};

}  // namespace s3d::solver
