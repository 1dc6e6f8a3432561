// Halo exchange against the per-point slab algorithm it replaced.
//
// Halo copies each slab as contiguous runs and keeps one reusable buffer
// set. PointwiseHalo below is the earlier per-point algorithm, kept here
// (and only here) as the reference: one Layout::at per element, the
// exchanged axis innermost, fresh buffers per call. It runs in the same
// two shapes as Halo: face-only slabs (the other axes' interior) and the
// corner-filling request (the other axes' full ghosted extents). Every
// test runs both on identical fields, every cell seeded with distinct
// values, and compares the whole ghosted boxes bitwise; after a
// face-only exchange every edge and corner cell must still hold the
// sentinel it was seeded with. Local extents below the ghost width make
// the periodic wrap read ghost cells, so stale-ghost reads must match
// exactly as well.
//
// HaloPlan pins the bytes one RHS evaluation and one step put on the
// wire, from the face-only slab formula.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "solver/cases.hpp"
#include "solver/halo.hpp"
#include "solver/layout.hpp"
#include "solver/solver.hpp"
#include "trace/trace.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace vmpi = s3d::vmpi;

namespace {

class PointwiseHalo {
 public:
  PointwiseHalo(const sv::Layout& l, std::array<bool, 3> periodic,
                vmpi::Comm* comm = nullptr, const vmpi::Cart* cart = nullptr)
      : l_(l), periodic_(periodic), comm_(comm), cart_(cart) {}

  /// fields[a] is exchanged along axis a (an empty list skips it);
  /// `corners` widens each slab to the other axes' ghosted extents.
  void exchange(const sv::Halo::AxisFields& fields, bool corners) {
    corners_ = corners;
    for (int axis = 0; axis < 3; ++axis) {
      const std::vector<double*>& fs = fields[axis];
      if (fs.empty() || !l_.active(axis)) continue;
      if (comm_ && cart_) {
        const bool self_lo = cart_->neighbor(axis, -1) == comm_->rank();
        const bool self_hi = cart_->neighbor(axis, +1) == comm_->rank();
        if (self_lo && self_hi) {
          for (double* f : fs) exchange_axis_local(f, axis);
        } else if (cart_->neighbor(axis, -1) >= 0 ||
                   cart_->neighbor(axis, +1) >= 0) {
          exchange_axis_parallel(fs, axis);
        }
      } else if (periodic_[axis]) {
        for (double* f : fs) exchange_axis_local(f, axis);
      }
    }
  }

 private:
  // Orthogonal extent of axis b: interior, or ghosted with corners.
  int olo(int b) const { return corners_ ? -l_.g(b) : 0; }
  int ohi(int b) const { return l_.n(b) + (corners_ ? l_.g(b) : 0); }

  // Visit all (i, j, k) of a slab: `axis` runs over [a_begin, a_end), the
  // orthogonal axes over their olo/ohi extents.
  template <typename Fn>
  void slab(int axis, int a_begin, int a_end, Fn&& fn) const {
    const int a1 = (axis + 1) % 3, a2 = (axis + 2) % 3;
    int ijk[3];
    for (int q = olo(a2); q < ohi(a2); ++q)
      for (int r = olo(a1); r < ohi(a1); ++r)
        for (int s = a_begin; s < a_end; ++s) {
          ijk[axis] = s;
          ijk[a1] = r;
          ijk[a2] = q;
          fn(ijk[0], ijk[1], ijk[2]);
        }
  }

  void exchange_axis_local(double* f, int axis) {
    const int n = l_.n(axis), g = l_.g(axis);
    slab(axis, -g, 0, [&](int i, int j, int k) {
      int src[3] = {i, j, k};
      src[axis] += n;
      f[l_.at(i, j, k)] = f[l_.at(src[0], src[1], src[2])];
    });
    slab(axis, n, n + g, [&](int i, int j, int k) {
      int src[3] = {i, j, k};
      src[axis] -= n;
      f[l_.at(i, j, k)] = f[l_.at(src[0], src[1], src[2])];
    });
  }

  void exchange_axis_parallel(const std::vector<double*>& fields, int axis) {
    const int n = l_.n(axis), g = l_.g(axis);
    const int nb_lo = cart_->neighbor(axis, -1);
    const int nb_hi = cart_->neighbor(axis, +1);
    auto pack = [&](int a_begin, int a_end) {
      std::vector<double> buf;
      for (double* f : fields)
        slab(axis, a_begin, a_end,
             [&](int i, int j, int k) { buf.push_back(f[l_.at(i, j, k)]); });
      return buf;
    };
    auto unpack = [&](const std::vector<double>& buf, int a_begin,
                      int a_end) {
      std::size_t p = 0;
      for (double* f : fields)
        slab(axis, a_begin, a_end,
             [&](int i, int j, int k) { f[l_.at(i, j, k)] = buf[p++]; });
      ASSERT_EQ(p, buf.size());
    };
    // Own tag range, so no message can pair with one of Halo's.
    const int tag_up = 900 + axis * 2;
    const int tag_down = 901 + axis * 2;
    const int a1 = (axis + 1) % 3, a2 = (axis + 2) % 3;
    const std::size_t slab_elems = fields.size() *
                                   static_cast<std::size_t>(g) *
                                   (ohi(a1) - olo(a1)) * (ohi(a2) - olo(a2));
    std::vector<double> send_hi, send_lo, recv_lo(slab_elems),
        recv_hi(slab_elems);
    std::vector<vmpi::Request> reqs;
    if (nb_hi >= 0) {
      send_hi = pack(n - g, n);
      reqs.push_back(comm_->isend(nb_hi, tag_up, send_hi));
      reqs.push_back(comm_->irecv(nb_hi, tag_down, recv_hi));
    }
    if (nb_lo >= 0) {
      send_lo = pack(0, g);
      reqs.push_back(comm_->isend(nb_lo, tag_down, send_lo));
      reqs.push_back(comm_->irecv(nb_lo, tag_up, recv_lo));
    }
    comm_->waitall(reqs);
    if (nb_lo >= 0) unpack(recv_lo, -g, 0);
    if (nb_hi >= 0) unpack(recv_hi, n, n + g);
  }

  sv::Layout l_;
  std::array<bool, 3> periodic_;
  vmpi::Comm* comm_;
  const vmpi::Cart* cart_;
  bool corners_ = false;
};

// splitmix64: distinct, reproducible bit patterns for every cell.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double cell_value(std::uint64_t seed, int rank, int field, std::size_t idx) {
  const std::uint64_t h =
      mix(seed ^ mix((static_cast<std::uint64_t>(rank) << 48) ^
                     (static_cast<std::uint64_t>(field) << 32) ^ idx));
  return static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
}

struct Case {
  std::array<int, 3> np;         ///< process grid (all 1 = serial Halo)
  std::array<int, 3> n;          ///< local interior extents
  std::array<bool, 3> periodic;
  bool serial() const { return np[0] * np[1] * np[2] == 1; }
  std::string name() const {
    std::ostringstream os;
    os << "np=" << np[0] << "x" << np[1] << "x" << np[2] << " n=" << n[0]
       << "x" << n[1] << "x" << n[2] << " periodic=" << periodic[0]
       << periodic[1] << periodic[2];
    return os.str();
  }
};

// Seed value of every edge and corner ghost cell (a cell outside the
// interior along two or more axes), which no face-only exchange may write.
constexpr double kSentinel = -0x1.5e7p+900;

bool is_edge_or_corner(const sv::Layout& l, int i, int j, int k) {
  const int ijk[3] = {i, j, k};
  int outside = 0;
  for (int a = 0; a < 3; ++a)
    outside += ijk[a] < 0 || ijk[a] >= l.n(a) ? 1 : 0;
  return outside >= 2;
}

/// One exchange call: the number of fields sent along each axis (the
/// first counts[a] fields), and which Halo entry point carries them.
struct Exchange {
  enum class Call { faces, per_axis, corners };
  Call call;
  std::array<int, 3> counts;
};

Exchange faces(int nf) { return {Exchange::Call::faces, {nf, nf, nf}}; }
Exchange corners(int nf) { return {Exchange::Call::corners, {nf, nf, nf}}; }
Exchange per_axis(int nx, int ny, int nz) {
  return {Exchange::Call::per_axis, {nx, ny, nz}};
}

// Runs Halo and PointwiseHalo side by side on one rank's fields. Before
// each exchange the interiors of the fields it sends are re-seeded
// (ghosts keep what the previous exchange left); after it, the whole
// ghosted boxes must agree bitwise, and after a face-only exchange every
// edge and corner must still hold the sentinel. One Halo serves the whole
// sequence, so stale or mis-sized reused buffers show up as mismatches.
// Returns "" or a description of the first mismatch.
std::string compare_on_rank(const Case& c, const std::vector<Exchange>& seq,
                            vmpi::Comm* comm, const vmpi::Cart* cart) {
  const sv::Layout l = sv::Layout::make(c.n[0], c.n[1], c.n[2]);
  const int rank = comm ? comm->rank() : 0;
  bool any_corners = false;
  int nmax = 0;
  for (const Exchange& e : seq) {
    any_corners = any_corners || e.call == Exchange::Call::corners;
    for (int nf : e.counts) nmax = std::max(nmax, nf);
  }
  std::vector<sv::GField> got, want;
  for (int f = 0; f < nmax; ++f) {
    got.emplace_back(l);
    for (int k = -l.gz; k < l.nz + l.gz; ++k)
      for (int j = -l.gy; j < l.ny + l.gy; ++j)
        for (int i = -l.gx; i < l.nx + l.gx; ++i) {
          const std::size_t idx = l.at(i, j, k);
          got.back().data()[idx] = is_edge_or_corner(l, i, j, k)
                                       ? kSentinel
                                       : cell_value(0, rank, f, idx);
        }
    want.push_back(got.back());
  }
  sv::Halo halo = comm ? sv::Halo(l, c.periodic, comm, cart)
                       : sv::Halo(l, c.periodic);
  PointwiseHalo ref(l, c.periodic, comm, cart);

  for (std::size_t e = 0; e < seq.size(); ++e) {
    const Exchange& ex = seq[e];
    const int nf = *std::max_element(ex.counts.begin(), ex.counts.end());
    for (int f = 0; f < nf; ++f)
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j)
          for (int i = 0; i < l.nx; ++i) {
            const std::size_t idx = l.at(i, j, k);
            got[f].data()[idx] = want[f].data()[idx] =
                cell_value(e + 1, rank, f, idx);
          }
    sv::Halo::AxisFields pg, pw;
    for (int a = 0; a < 3; ++a)
      for (int f = 0; f < ex.counts[a]; ++f) {
        pg[a].push_back(got[f].data());
        pw[a].push_back(want[f].data());
      }
    switch (ex.call) {
      case Exchange::Call::faces: halo.exchange(pg[0]); break;
      case Exchange::Call::per_axis: halo.exchange(pg); break;
      case Exchange::Call::corners: halo.exchange_with_corners(pg[0]); break;
    }
    ref.exchange(pw, ex.call == Exchange::Call::corners);

    for (int f = 0; f < nmax; ++f)
      for (int k = -l.gz; k < l.nz + l.gz; ++k)
        for (int j = -l.gy; j < l.ny + l.gy; ++j)
          for (int i = -l.gx; i < l.nx + l.gx; ++i) {
            const std::size_t idx = l.at(i, j, k);
            const double g = got[f].data()[idx];
            const bool same =
                std::memcmp(&g, &want[f].data()[idx], sizeof(double)) == 0;
            const bool kept = any_corners || !is_edge_or_corner(l, i, j, k) ||
                              g == kSentinel;
            if (!same || !kept) {
              std::ostringstream os;
              os << c.name() << ": exchange " << e << ", rank " << rank
                 << ", field " << f << ", cell (" << i << ", " << j << ", "
                 << k << ")" << (same ? " overwrote an edge/corner" : "");
              return os.str();
            }
          }
  }
  return "";
}

void expect_matches_pointwise(const Case& c, const std::vector<Exchange>& seq) {
  if (c.serial()) {
    EXPECT_EQ(compare_on_rank(c, seq, nullptr, nullptr), "");
    return;
  }
  const int nranks = c.np[0] * c.np[1] * c.np[2];
  std::vector<std::string> err(nranks);
  vmpi::run(nranks, [&](vmpi::Comm& comm) {
    const vmpi::Cart cart(comm, c.np[0], c.np[1], c.np[2], c.periodic);
    err[comm.rank()] = compare_on_rank(c, seq, &comm, &cart);
  });
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(err[r], "") << "rank " << r;
}

/// Both shapes of a single `nf`-field exchange.
void expect_both_shapes_match(const Case& c, int nf) {
  expect_matches_pointwise(c, {faces(nf)});
  expect_matches_pointwise(c, {corners(nf)});
}

constexpr std::array<bool, 3> kAllPeriodic{true, true, true};

TEST(Halo, SerialPeriodicMatchesPointwise) {
  for (int nf : {1, 36}) {
    SCOPED_TRACE(nf);
    expect_both_shapes_match({{1, 1, 1}, {9, 1, 1}, kAllPeriodic}, nf);
    expect_both_shapes_match({{1, 1, 1}, {7, 6, 1}, kAllPeriodic}, nf);
    expect_both_shapes_match({{1, 1, 1}, {6, 5, 7}, kAllPeriodic}, nf);
  }
  // Non-periodic axes are left to the boundary closures.
  expect_both_shapes_match({{1, 1, 1}, {6, 5, 7}, {false, true, false}}, 3);
}

TEST(Halo, ParallelSplitsMatchPointwise) {
  const std::vector<Case> cases = {
      {{2, 1, 1}, {6, 5, 7}, kAllPeriodic},
      {{1, 2, 1}, {6, 5, 7}, {false, true, true}},
      {{1, 1, 2}, {6, 5, 7}, {true, false, true}},
      {{2, 2, 1}, {5, 6, 7}, {true, false, true}},
      {{1, 2, 2}, {6, 5, 5}, kAllPeriodic},
      {{2, 1, 2}, {7, 6, 5}, {false, false, false}},
      {{2, 2, 2}, {5, 6, 5}, kAllPeriodic},
      {{2, 2, 2}, {6, 5, 7}, {true, false, true}},
      {{2, 2, 1}, {6, 7, 1}, {true, true, false}},  // 2-D decomposition
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name());
    for (int nf : {1, 36}) expect_both_shapes_match(c, nf);
  }
}

TEST(Halo, ExtentsBelowGhostWidthMatchPointwise) {
  for (int n : {2, 3, 4}) {
    SCOPED_TRACE(n);
    // Serial wrap of every axis at once, and of one short axis.
    expect_both_shapes_match({{1, 1, 1}, {n, n, n}, kAllPeriodic}, 4);
    expect_both_shapes_match({{1, 1, 1}, {6, n, 5}, kAllPeriodic}, 4);
    expect_both_shapes_match({{1, 1, 1}, {n, 1, 1}, kAllPeriodic}, 4);
    // Short extents on split axes (both neighbours one rank, or a
    // physical boundary), and a short axis that wraps through the
    // topology on a single rank.
    expect_both_shapes_match({{2, 1, 1}, {n, 5, 6}, kAllPeriodic}, 4);
    expect_both_shapes_match({{2, 2, 2}, {n, n, n}, kAllPeriodic}, 4);
    expect_both_shapes_match({{1, 2, 2}, {n, n, 6}, {true, false, true}}, 4);
    expect_both_shapes_match({{4, 2, 1}, {n, 5, n}, {true, true, false}}, 4);
  }
}

TEST(Halo, BackToBackExchangesSeeFreshInteriors) {
  for (const auto& seq : {std::vector<Exchange>{faces(5), faces(5)},
                          std::vector<Exchange>{corners(5), corners(5)}}) {
    expect_matches_pointwise({{1, 1, 1}, {6, 5, 7}, kAllPeriodic}, seq);
    expect_matches_pointwise({{2, 2, 2}, {5, 6, 5}, kAllPeriodic}, seq);
    expect_matches_pointwise({{2, 1, 1}, {3, 6, 5}, {true, false, true}},
                             seq);
  }
}

TEST(Halo, FieldCountChangesReuseOneBufferSet) {
  // Growing and shrinking field counts across all three entry points.
  const std::vector<Exchange> seq = {faces(17), per_axis(12, 14, 12),
                                     corners(36), faces(14)};
  expect_matches_pointwise({{1, 1, 1}, {5, 6, 7}, kAllPeriodic}, seq);
  expect_matches_pointwise({{2, 1, 1}, {5, 6, 7}, kAllPeriodic}, seq);
  expect_matches_pointwise({{2, 2, 2}, {6, 5, 5}, {true, true, false}}, seq);
}

// Per-axis lists, including the filter's shape (one axis only) and lists
// where some axes are empty: an empty axis is skipped entirely, its
// ghosts keep their seeds.
TEST(Halo, PerAxisListsSkipEmptyAxes) {
  const std::vector<std::vector<Exchange>> seqs = {
      {per_axis(3, 0, 0), per_axis(0, 3, 0), per_axis(0, 0, 3)},
      {per_axis(0, 4, 2), per_axis(5, 0, 1)},
      {per_axis(2, 3, 4)},
  };
  const std::vector<Case> cases = {
      {{1, 1, 1}, {6, 5, 7}, kAllPeriodic},
      {{1, 1, 2}, {6, 5, 7}, kAllPeriodic},
      {{2, 2, 2}, {5, 6, 5}, {true, false, true}},
      {{1, 1, 1}, {3, 4, 2}, kAllPeriodic},  // extents below the ghost width
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name());
    for (const auto& seq : seqs) expect_matches_pointwise(c, seq);
  }
}

// ---------------------------------------------------------------------------
// Bytes on the wire, a hard structural gate: a 3-D periodic box split in
// two along z, so only z exchanges cross ranks (x and y wrap locally and
// put nothing on the wire). One face slab is g * nx * ny cells, sent in
// both directions by both ranks. One RHS evaluation sends the 8 + ns
// primitive fields (rho u v w T p Wbar, rho e0, Y) and, along z, the
// 3 + 1 + (ns - 1) fluxes the z divergence reads (tau[a][z], q_z, J_{s,z});
// for H2 (ns = 9) that is 17 + 12 fields. One step adds one nv-field
// filter slab along z.

TEST(HaloPlan, BytesPerEvalArePinned) {
#ifdef S3D_TRACE_DISABLED
  GTEST_SKIP() << "halo.bytes is a trace counter";
#endif
  constexpr int kN = 12;
  const auto setup = sv::pressure_wave_case(kN);
  const int ns = setup.cfg.mech->n_species();
  const int nv = sv::n_conserved(ns);
  const double slab = 2.0 /*directions*/ * 2.0 /*ranks*/ * sv::kNg * kN *
                      kN * sizeof(double);
  const double want_eval = ((8 + ns) + (3 + 1 + (ns - 1))) * slab;
  const double want_filter = nv * slab;

  auto bytes = [] {
    const s3d::trace::Summary sum = s3d::trace::summarize();
    const auto* c = sum.find_counter("halo.bytes");
    return c ? c->total : 0.0;
  };
  s3d::trace::clear();
  s3d::trace::set_enabled(true);
  double eval_bytes = 0.0, step_bytes = 0.0;
  int evals_per_step = 0;
  vmpi::run(2, [&](vmpi::Comm& comm) {
    sv::Solver s(setup.cfg, comm, 1, 1, 2);
    s.initialize(setup.init);
    const double dt = s.stable_dt();
    sv::State dUdt(s.layout(), s.state().nv());
    // Both ranks quiesce around every read of the rank-summed counter.
    auto read = [&] {
      comm.barrier();
      const double b = bytes();
      comm.barrier();
      return b;
    };
    const double b0 = read();
    s.rhs().eval(s.state(), 0.0, dUdt);
    const double b1 = read();
    const int e0 = s.rhs().timers().evals;
    s.step(dt);
    const double b2 = read();
    if (comm.rank() == 0) {
      eval_bytes = b1 - b0;
      step_bytes = b2 - b1;
      evals_per_step = s.rhs().timers().evals - e0;
    }
  });
  s3d::trace::set_enabled(false);
  s3d::trace::clear();

  EXPECT_EQ(eval_bytes, want_eval);
  ASSERT_GT(evals_per_step, 0);
  EXPECT_EQ(step_bytes, evals_per_step * want_eval + want_filter);
}

}  // namespace
