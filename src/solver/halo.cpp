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

// The slab where `axis` runs over [a_begin, a_end) and the other axes over
// their full ghosted extents, as `count` contiguous runs of `len` doubles;
// run r starts at flat index first + r * pitch.
struct Runs {
  std::size_t first, len, pitch, count;
};

Runs slab_runs(const Layout& l, int axis, int a_begin, int a_end) {
  const auto st = static_cast<std::size_t>(l.stride(axis));
  const std::size_t pitch =
      st * static_cast<std::size_t>(l.n(axis) + 2 * l.g(axis));
  return {static_cast<std::size_t>(a_begin + l.g(axis)) * st,
          static_cast<std::size_t>(a_end - a_begin) * st, pitch,
          l.total() / pitch};
}

}  // namespace

void Halo::exchange_axis_local(double* f, int axis) {
  const int n = l_.n(axis), g = l_.g(axis);
  const auto st = static_cast<std::size_t>(l_.stride(axis));
  const std::ptrdiff_t shift = n * l_.stride(axis);
  // Chunks of at most n planes never overlap their source; walking them in
  // increasing order keeps the wrap's reads exact when n < g (halo.hpp).
  const std::size_t chunk = static_cast<std::size_t>(std::min(n, g)) * st;
  auto wrap = [&](const Runs& s, std::ptrdiff_t src_offset) {
    for (std::size_t r = 0; r < s.count; ++r) {
      double* d = f + s.first + r * s.pitch;
      for (std::size_t c = 0; c < s.len; c += chunk)
        std::copy_n(d + c + src_offset, std::min(chunk, s.len - c), d + c);
    }
  };
  // Low ghosts <- high interior; high ghosts <- low interior.
  wrap(slab_runs(l_, axis, -g, 0), shift);
  wrap(slab_runs(l_, axis, n, n + g), -shift);
}

void Halo::exchange_axis_parallel(const std::vector<double*>& fields,
                                  int axis) {
  const int n = l_.n(axis), g = l_.g(axis);
  const int nb_lo = cart_->neighbor(axis, -1);
  const int nb_hi = cart_->neighbor(axis, +1);

  // Every slab of this axis has the same shape, so one element count
  // sizes all three buffers.
  const Runs lo_ghost = slab_runs(l_, axis, -g, 0);
  const std::size_t slab_elems =
      fields.size() * lo_ghost.len * lo_ghost.count;
  for (auto* b : {&send_, &recv_lo_, &recv_hi_})
    if (b->size() < slab_elems) b->resize(slab_elems);

  // Pack order: for each field, the slab's runs in memory order.
  auto pack = [&](const Runs& s) {
    double* p = send_.data();
    for (const double* f : fields)
      for (std::size_t r = 0; r < s.count; ++r)
        p = std::copy_n(f + s.first + r * s.pitch, s.len, p);
    return std::span<const double>(send_.data(), slab_elems);
  };
  auto unpack = [&](const std::vector<double>& buf, const Runs& s) {
    const double* p = buf.data();
    for (double* f : fields)
      for (std::size_t r = 0; r < s.count; ++r, p += s.len)
        std::copy_n(p, s.len, f + s.first + r * s.pitch);
  };

  const int tag_up = 100 + axis * 2;      // data moving toward +axis
  const int tag_down = 101 + axis * 2;    // data moving toward -axis

  std::array<vmpi::Request, 4> reqs;
  std::size_t nreq = 0;
  // vmpi isend copies the payload, so send_ is free for the next pack as
  // soon as isend returns.
  if (nb_hi >= 0) {
    // My top interior -> neighbour's low ghosts.
    reqs[nreq++] =
        comm_->isend(nb_hi, tag_up, pack(slab_runs(l_, axis, n - g, n)));
    reqs[nreq++] =
        comm_->irecv(nb_hi, tag_down, {recv_hi_.data(), slab_elems});
  }
  if (nb_lo >= 0) {
    // My bottom interior -> neighbour's high ghosts.
    reqs[nreq++] =
        comm_->isend(nb_lo, tag_down, pack(slab_runs(l_, axis, 0, g)));
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
  if (nb_hi >= 0) unpack(recv_hi_, slab_runs(l_, axis, n, n + g));
}

void Halo::exchange(const std::vector<double*>& fields) {
  trace::Span sp("halo.exchange", "halo");
  for (int axis = 0; axis < 3; ++axis) {
    if (!l_.active(axis)) continue;
    if (comm_ && cart_) {
      // A rank that is its own neighbour (single rank along a periodic
      // axis) wraps locally.
      const bool self_lo = cart_->neighbor(axis, -1) == comm_->rank();
      const bool self_hi = cart_->neighbor(axis, +1) == comm_->rank();
      if (self_lo && self_hi) {
        for (double* f : fields) exchange_axis_local(f, axis);
      } else if (cart_->neighbor(axis, -1) >= 0 ||
                 cart_->neighbor(axis, +1) >= 0) {
        exchange_axis_parallel(fields, axis);
      }
    } else if (periodic_[axis]) {
      for (double* f : fields) exchange_axis_local(f, axis);
    }
  }
}

}  // namespace s3d::solver
