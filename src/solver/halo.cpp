#include "solver/halo.hpp"

#include <algorithm>
#include <span>

#include "trace/trace.hpp"

namespace s3d::solver {

Halo::Halo(const Layout& l, std::array<bool, 3> periodic)
    : l_(l), periodic_(periodic) {}

Halo::Halo(const Layout& l, std::array<bool, 3> periodic, vmpi::Comm* comm,
           const vmpi::Cart* cart)
    : l_(l), periodic_(periodic), comm_(comm), cart_(cart) {}

namespace {

// A slab as count2 groups of count1 contiguous runs of `len` doubles; run
// (r2, r1) starts at flat index first + r2 * pitch2 + r1 * pitch1. Runs
// are visited r2-major, which is ascending memory order.
struct Runs {
  std::size_t first, len, pitch1, count1, pitch2, count2;

  std::size_t elems() const { return len * count1 * count2; }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t r2 = 0; r2 < count2; ++r2)
      for (std::size_t r1 = 0; r1 < count1; ++r1)
        fn(first + r2 * pitch2 + r1 * pitch1);
  }
};

// The slab where `axis` runs over [a_begin, a_end) and the other axes over
// their interior (or, with `corners`, their full ghosted extents): x-rows
// stepped over y then z, merged into one run wherever the rows span the
// whole ghosted x (and then y) extent.
Runs slab_runs(const Layout& l, int axis, int a_begin, int a_end,
               bool corners) {
  int lo[3], hi[3];
  for (int b = 0; b < 3; ++b) {
    const int g = corners ? l.g(b) : 0;
    lo[b] = -g;
    hi[b] = l.n(b) + g;
  }
  lo[axis] = a_begin;
  hi[axis] = a_end;
  const auto sx = static_cast<std::size_t>(l.sx());
  const std::size_t sxy = sx * static_cast<std::size_t>(l.sy());
  Runs r{l.at(lo[0], lo[1], lo[2]),
         static_cast<std::size_t>(hi[0] - lo[0]),
         sx,
         static_cast<std::size_t>(hi[1] - lo[1]),
         sxy,
         static_cast<std::size_t>(hi[2] - lo[2])};
  if (r.len == sx) {
    r.len *= r.count1;
    r.count1 = 1;
    if (r.len == sxy) {
      r.len *= r.count2;
      r.count2 = 1;
    }
  }
  return r;
}

}  // namespace

void Halo::exchange_axis_local(double* f, int axis, bool corners) {
  const int n = l_.n(axis), g = l_.g(axis);
  const auto st = static_cast<std::size_t>(l_.stride(axis));
  const std::ptrdiff_t shift = n * l_.stride(axis);
  // Runs are visited in increasing exchanged-axis order, and a run that
  // spans several planes is copied in chunks of at most n planes, which
  // never overlap their source: the wrap's reads stay exact when n < g
  // (halo.hpp).
  const std::size_t chunk = static_cast<std::size_t>(std::min(n, g)) * st;
  auto wrap = [&](const Runs& s, std::ptrdiff_t src_offset) {
    s.for_each([&](std::size_t start) {
      double* d = f + start;
      for (std::size_t c = 0; c < s.len; c += chunk)
        std::copy_n(d + c + src_offset, std::min(chunk, s.len - c), d + c);
    });
  };
  // Low ghosts <- high interior; high ghosts <- low interior.
  wrap(slab_runs(l_, axis, -g, 0, corners), shift);
  wrap(slab_runs(l_, axis, n, n + g, corners), -shift);
}

void Halo::exchange_axis_parallel(const std::vector<double*>& fields,
                                  int axis, bool corners) {
  const int n = l_.n(axis), g = l_.g(axis);
  const int nb_lo = cart_->neighbor(axis, -1);
  const int nb_hi = cart_->neighbor(axis, +1);

  // Every slab of this axis has the same shape, so one element count
  // sizes all three buffers.
  const Runs lo_ghost = slab_runs(l_, axis, -g, 0, corners);
  const std::size_t slab_elems = fields.size() * lo_ghost.elems();
  for (auto* b : {&send_, &recv_lo_, &recv_hi_})
    if (b->size() < slab_elems) b->resize(slab_elems);

  // Pack order: for each field, the slab's runs in memory order.
  auto pack = [&](const Runs& s) {
    double* p = send_.data();
    for (const double* f : fields)
      s.for_each([&](std::size_t start) {
        p = std::copy_n(f + start, s.len, p);
      });
    return std::span<const double>(send_.data(), slab_elems);
  };
  auto unpack = [&](const std::vector<double>& buf, const Runs& s) {
    const double* p = buf.data();
    for (double* f : fields)
      s.for_each([&](std::size_t start) {
        std::copy_n(p, s.len, f + start);
        p += s.len;
      });
  };

  const int tag_up = 100 + axis * 2;      // data moving toward +axis
  const int tag_down = 101 + axis * 2;    // data moving toward -axis

  std::array<vmpi::Request, 4> reqs;
  std::size_t nreq = 0;
  // vmpi isend copies the payload, so send_ is free for the next pack as
  // soon as isend returns.
  if (nb_hi >= 0) {
    // My top interior -> neighbour's low ghosts.
    reqs[nreq++] = comm_->isend(
        nb_hi, tag_up, pack(slab_runs(l_, axis, n - g, n, corners)));
    reqs[nreq++] =
        comm_->irecv(nb_hi, tag_down, {recv_hi_.data(), slab_elems});
  }
  if (nb_lo >= 0) {
    // My bottom interior -> neighbour's high ghosts.
    reqs[nreq++] = comm_->isend(nb_lo, tag_down,
                                pack(slab_runs(l_, axis, 0, g, corners)));
    reqs[nreq++] = comm_->irecv(nb_lo, tag_up, {recv_lo_.data(), slab_elems});
  }
  const std::size_t sent = nreq / 2 * slab_elems * sizeof(double);
  trace::counter_add("halo.bytes", static_cast<double>(sent));
  {
    trace::Span wait_sp("halo.wait", "halo");
    wait_sp.set_bytes(sent);
    comm_->waitall({reqs.data(), nreq});
  }
  if (nb_lo >= 0) unpack(recv_lo_, lo_ghost);
  if (nb_hi >= 0) unpack(recv_hi_, slab_runs(l_, axis, n, n + g, corners));
}

void Halo::exchange_axis(const std::vector<double*>& fields, int axis,
                         bool corners) {
  if (fields.empty() || !l_.active(axis)) return;
  if (comm_ && cart_) {
    // A rank that is its own neighbour (single rank along a periodic
    // axis) wraps locally.
    const bool self_lo = cart_->neighbor(axis, -1) == comm_->rank();
    const bool self_hi = cart_->neighbor(axis, +1) == comm_->rank();
    if (self_lo && self_hi) {
      for (double* f : fields) exchange_axis_local(f, axis, corners);
    } else if (cart_->neighbor(axis, -1) >= 0 ||
               cart_->neighbor(axis, +1) >= 0) {
      exchange_axis_parallel(fields, axis, corners);
    }
  } else if (periodic_[axis]) {
    for (double* f : fields) exchange_axis_local(f, axis, corners);
  }
}

void Halo::exchange(const std::vector<double*>& fields) {
  trace::Span sp("halo.exchange", "halo");
  for (int axis = 0; axis < 3; ++axis) exchange_axis(fields, axis, false);
}

void Halo::exchange(const AxisFields& fields) {
  trace::Span sp("halo.exchange", "halo");
  for (int axis = 0; axis < 3; ++axis)
    exchange_axis(fields[axis], axis, false);
}

void Halo::exchange_with_corners(const std::vector<double*>& fields) {
  trace::Span sp("halo.exchange", "halo");
  for (int axis = 0; axis < 3; ++axis) exchange_axis(fields, axis, true);
}

}  // namespace s3d::solver
