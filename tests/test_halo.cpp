// Halo exchange against the per-point slab algorithm it replaced.
//
// Halo copies each slab as contiguous runs and keeps one reusable buffer
// set. PointwiseHalo below is the earlier per-point algorithm, kept here
// (and only here) as the reference: one Layout::at per element, the
// exchanged axis innermost, fresh buffers per call. Every test runs both
// on identical fields, every cell (ghosts, edges and corners included)
// seeded with distinct values, and compares the whole ghosted boxes
// bitwise. Local extents below the ghost width make the periodic wrap read
// ghost cells, so stale-ghost reads must match exactly as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "solver/halo.hpp"
#include "solver/layout.hpp"
#include "vmpi/vmpi.hpp"

namespace sv = s3d::solver;
namespace vmpi = s3d::vmpi;

namespace {

class PointwiseHalo {
 public:
  PointwiseHalo(const sv::Layout& l, std::array<bool, 3> periodic,
                vmpi::Comm* comm = nullptr, const vmpi::Cart* cart = nullptr)
      : l_(l), periodic_(periodic), comm_(comm), cart_(cart) {}

  void exchange(const std::vector<double*>& fields) {
    for (int axis = 0; axis < 3; ++axis) {
      if (!l_.active(axis)) continue;
      if (comm_ && cart_) {
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

 private:
  // Visit all (i, j, k) of a slab: `axis` runs over [a_begin, a_end), the
  // orthogonal axes run over their full ghosted extents.
  template <typename Fn>
  void slab(int axis, int a_begin, int a_end, Fn&& fn) const {
    const int a1 = (axis + 1) % 3, a2 = (axis + 2) % 3;
    int ijk[3];
    for (int q = -l_.g(a2); q < l_.n(a2) + l_.g(a2); ++q)
      for (int r = -l_.g(a1); r < l_.n(a1) + l_.g(a1); ++r)
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
    const std::size_t slab_elems =
        fields.size() * static_cast<std::size_t>(g) *
        (l_.n((axis + 1) % 3) + 2 * l_.g((axis + 1) % 3)) *
        (l_.n((axis + 2) % 3) + 2 * l_.g((axis + 2) % 3));
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

// Runs Halo and PointwiseHalo side by side on one rank's fields. Before
// each exchange the interiors of the first `counts[e]` fields are
// re-seeded (ghosts keep what the previous exchange left); after it, the
// whole ghosted boxes must agree bitwise. One Halo serves the whole
// sequence, so stale or mis-sized reused buffers show up as mismatches.
// Returns "" or a description of the first mismatch.
std::string compare_on_rank(const Case& c, const std::vector<int>& counts,
                            vmpi::Comm* comm, const vmpi::Cart* cart) {
  const sv::Layout l = sv::Layout::make(c.n[0], c.n[1], c.n[2]);
  const int rank = comm ? comm->rank() : 0;
  const int nmax = *std::max_element(counts.begin(), counts.end());
  std::vector<sv::GField> got, want;
  for (int f = 0; f < nmax; ++f) {
    got.emplace_back(l);
    for (std::size_t idx = 0; idx < l.total(); ++idx)
      got.back().data()[idx] = cell_value(0, rank, f, idx);
    want.push_back(got.back());
  }
  sv::Halo halo = comm ? sv::Halo(l, c.periodic, comm, cart)
                       : sv::Halo(l, c.periodic);
  PointwiseHalo ref(l, c.periodic, comm, cart);

  for (std::size_t e = 0; e < counts.size(); ++e) {
    std::vector<double*> pg, pw;
    for (int f = 0; f < counts[e]; ++f) {
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j)
          for (int i = 0; i < l.nx; ++i) {
            const std::size_t idx = l.at(i, j, k);
            got[f].data()[idx] = want[f].data()[idx] =
                cell_value(e + 1, rank, f, idx);
          }
      pg.push_back(got[f].data());
      pw.push_back(want[f].data());
    }
    halo.exchange(pg);
    ref.exchange(pw);
    for (int f = 0; f < counts[e]; ++f)
      for (int k = -l.gz; k < l.nz + l.gz; ++k)
        for (int j = -l.gy; j < l.ny + l.gy; ++j)
          for (int i = -l.gx; i < l.nx + l.gx; ++i) {
            const std::size_t idx = l.at(i, j, k);
            if (std::memcmp(&got[f].data()[idx], &want[f].data()[idx],
                            sizeof(double)) != 0) {
              std::ostringstream os;
              os << c.name() << ": exchange " << e << " (" << counts[e]
                 << " fields), rank " << rank << ", field " << f
                 << ", cell (" << i << ", " << j << ", " << k << ")";
              return os.str();
            }
          }
  }
  return "";
}

void expect_matches_pointwise(const Case& c, const std::vector<int>& counts) {
  if (c.serial()) {
    EXPECT_EQ(compare_on_rank(c, counts, nullptr, nullptr), "");
    return;
  }
  const int nranks = c.np[0] * c.np[1] * c.np[2];
  std::vector<std::string> err(nranks);
  vmpi::run(nranks, [&](vmpi::Comm& comm) {
    const vmpi::Cart cart(comm, c.np[0], c.np[1], c.np[2], c.periodic);
    err[comm.rank()] = compare_on_rank(c, counts, &comm, &cart);
  });
  for (int r = 0; r < nranks; ++r) EXPECT_EQ(err[r], "") << "rank " << r;
}

constexpr std::array<bool, 3> kAllPeriodic{true, true, true};

TEST(Halo, SerialPeriodicMatchesPointwise) {
  for (int nf : {1, 36}) {
    SCOPED_TRACE(nf);
    expect_matches_pointwise({{1, 1, 1}, {9, 1, 1}, kAllPeriodic}, {nf});
    expect_matches_pointwise({{1, 1, 1}, {7, 6, 1}, kAllPeriodic}, {nf});
    expect_matches_pointwise({{1, 1, 1}, {6, 5, 7}, kAllPeriodic}, {nf});
  }
  // Non-periodic axes are left to the boundary closures.
  expect_matches_pointwise({{1, 1, 1}, {6, 5, 7}, {false, true, false}},
                           {3});
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
    for (int nf : {1, 36}) expect_matches_pointwise(c, {nf});
  }
}

TEST(Halo, ExtentsBelowGhostWidthMatchPointwise) {
  for (int n : {2, 3, 4}) {
    SCOPED_TRACE(n);
    // Serial wrap of every axis at once, and of one short axis.
    expect_matches_pointwise({{1, 1, 1}, {n, n, n}, kAllPeriodic}, {4});
    expect_matches_pointwise({{1, 1, 1}, {6, n, 5}, kAllPeriodic}, {4});
    expect_matches_pointwise({{1, 1, 1}, {n, 1, 1}, kAllPeriodic}, {4});
    // Short extents on split axes (both neighbours one rank, or a
    // physical boundary), and a short axis that wraps through the
    // topology on a single rank.
    expect_matches_pointwise({{2, 1, 1}, {n, 5, 6}, kAllPeriodic}, {4});
    expect_matches_pointwise({{2, 2, 2}, {n, n, n}, kAllPeriodic}, {4});
    expect_matches_pointwise({{1, 2, 2}, {n, n, 6}, {true, false, true}},
                             {4});
    expect_matches_pointwise({{4, 2, 1}, {n, 5, n}, {true, true, false}},
                             {4});
  }
}

TEST(Halo, BackToBackExchangesSeeFreshInteriors) {
  expect_matches_pointwise({{1, 1, 1}, {6, 5, 7}, kAllPeriodic}, {5, 5});
  expect_matches_pointwise({{2, 2, 2}, {5, 6, 5}, kAllPeriodic}, {5, 5});
  expect_matches_pointwise({{2, 1, 1}, {3, 6, 5}, {true, false, true}},
                           {5, 5});
}

TEST(Halo, FieldCountChangesReuseOneBufferSet) {
  const std::vector<int> counts = {17, 36, 14};
  expect_matches_pointwise({{1, 1, 1}, {5, 6, 7}, kAllPeriodic}, counts);
  expect_matches_pointwise({{2, 1, 1}, {5, 6, 7}, kAllPeriodic}, counts);
  expect_matches_pointwise({{2, 2, 2}, {6, 5, 5}, {true, true, false}},
                           counts);
}

}  // namespace
