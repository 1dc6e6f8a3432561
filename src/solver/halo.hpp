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
// Face-only by default: the slab of axis a spans only the interior of the
// other axes, so edges and corners are neither sent nor written. That is
// all the solver's passes read: a derivative or filter line along a reads
// a's own ghosts at interior orthogonal positions, and the flux
// divergence along b reads only b's ghosts. exchange() takes one field
// list for every axis, or a separate list per axis (an empty list skips
// the axis): the RHS sends only the fluxes F_b along b, and each filter
// pass only its own axis. exchange_with_corners() is the one request for
// edges and corners (Solver::primitives(), whose analysis consumers run a
// box filter): its slabs span the other axes' full ghosted extents, and
// the axes run in x, y, z order, so a later axis carries the ghosts an
// earlier one filled. Face-only calls keep the same x, y, z order.
//
// A slab is copied as contiguous runs of the layout (x-rows, merged into
// planes or blocks where the slab spans whole rows). Pack and unpack walk
// the same runs, so message bytes, counts and tags do not depend on the
// walk.
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
  /// Field lists per axis: entry a is exchanged along axis a only.
  using AxisFields = std::array<std::vector<double*>, 3>;

  /// Serial constructor. `periodic` marks axes that wrap.
  Halo(const Layout& l, std::array<bool, 3> periodic);

  /// Parallel constructor: `comm` and `cart` describe this rank's place in
  /// the process grid. Each axis wraps through the topology when periodic.
  Halo(const Layout& l, std::array<bool, 3> periodic, vmpi::Comm* comm,
       const vmpi::Cart* cart);

  /// Face-only exchange of all fields along every active axis (raw
  /// storage over the shared layout; GField::data() or State::var()
  /// pointers).
  void exchange(const std::vector<double*>& fields);
  /// Face-only exchange of fields[a] along axis a; an empty list skips
  /// that axis. Collective: every rank passes the same list sizes.
  void exchange(const AxisFields& fields);
  /// Exchange that also fills edges and corners (see header comment).
  void exchange_with_corners(const std::vector<double*>& fields);

 private:
  void exchange_axis(const std::vector<double*>& fields, int axis,
                     bool corners);
  void exchange_axis_local(double* f, int axis, bool corners);
  void exchange_axis_parallel(const std::vector<double*>& fields, int axis,
                              bool corners);

  Layout l_;
  std::array<bool, 3> periodic_;
  vmpi::Comm* comm_ = nullptr;
  const vmpi::Cart* cart_ = nullptr;
  std::vector<double> send_, recv_lo_, recv_hi_;
};

}  // namespace s3d::solver
