#include "solver/chem_dlb.hpp"

#include <algorithm>
#include <cmath>

#include "trace/trace.hpp"

namespace s3d::solver {

namespace {
// Distinct from the halo tags (100-105) and any collective internals:
// DLB traffic must never match a neighbour-exchange irecv.
constexpr int kTagWork = 7100;
constexpr int kTagResult = 7101;
}  // namespace

std::vector<DlbTransfer> dlb_plan(std::span<const double> loads,
                                  std::span<const double> hot,
                                  double hot_weight, double imbalance_tol) {
  const int P = static_cast<int>(loads.size());
  if (P <= 1) return {};
  double total = 0.0, max_load = 0.0;
  for (int r = 0; r < P; ++r) {
    total += loads[r];
    max_load = std::max(max_load, loads[r]);
  }
  const double avg = total / P;
  if (avg <= 0.0 || max_load <= (1.0 + imbalance_tol) * avg) return {};

  // Donors ship at most their surplus worth of hot cells (and no more
  // than they have); takers accept at most their deficit worth. Sorting
  // by size with rank-ascending tie-breaks keeps the greedy matching a
  // pure, order-stable function of the allreduced vector.
  struct Node {
    int rank;
    long cells;
  };
  std::vector<Node> donors, takers;
  for (int r = 0; r < P; ++r) {
    const double surplus = loads[r] - avg;
    if (surplus > 0.0) {
      const long c = std::min(static_cast<long>(hot[r]),
                              static_cast<long>(surplus / hot_weight));
      if (c > 0) donors.push_back({r, c});
    } else {
      const long c = static_cast<long>(-surplus / hot_weight);
      if (c > 0) takers.push_back({r, c});
    }
  }
  auto by_size = [](const Node& a, const Node& b) {
    if (a.cells != b.cells) return a.cells > b.cells;
    return a.rank < b.rank;
  };
  std::sort(donors.begin(), donors.end(), by_size);
  std::sort(takers.begin(), takers.end(), by_size);

  std::vector<DlbTransfer> plan;
  std::size_t di = 0, ti = 0;
  while (di < donors.size() && ti < takers.size()) {
    const long m = std::min(donors[di].cells, takers[ti].cells);
    if (m > 0) plan.push_back({donors[di].rank, takers[ti].rank, m});
    donors[di].cells -= m;
    takers[ti].cells -= m;
    if (donors[di].cells == 0) ++di;
    if (takers[ti].cells == 0) ++ti;
  }
  return plan;
}

// Never inlined: the batched chemistry pass and the DLB result scatter
// both apply sources through this one compiled body, so the `+= wdot * W`
// contraction is identical for local and hosted cells (DESIGN.md §11).
__attribute__((noinline)) void chem_apply_wdot_cell(State& dUdt,
                                                    std::size_t n,
                                                    const double* wdot,
                                                    const double* W, int ns) {
  for (int s = 0; s < ns - 1; ++s)
    dUdt.var(UIndex::Y0 + s)[n] += wdot[s] * W[s];
}

ChemDlb::ChemDlb(const chem::Mechanism& mech, const Config& cfg,
                 vmpi::Comm& comm)
    : mech_(&mech), bchem_(mech), cfg_(cfg), comm_(&comm) {
  W_.resize(mech.n_species());
  for (int s = 0; s < mech.n_species(); ++s) W_[s] = mech.W(s);
}

const std::vector<std::size_t>& ChemDlb::begin_eval(const Prim& prim,
                                                    const Layout& l) {
  shipped_.clear();
  pending_.clear();
  ++stats_.evals;

  const int P = comm_->size();
  const int me = comm_->rank();

  // 1. Deterministic cost classification in interior traversal order.
  hot_idx_.clear();
  const double* T = prim.T.data();
  long total = 0;
  for (int k = 0; k < l.nz; ++k)
    for (int j = 0; j < l.ny; ++j) {
      const std::size_t row = l.at(0, j, k);
      for (int i = 0; i < l.nx; ++i)
        if (T[row + i] >= cfg_.dlb_hot_T) hot_idx_.push_back(row + i);
      total += l.nx;
    }
  const long nhot = static_cast<long>(hot_idx_.size());
  const double load =
      static_cast<double>(total - nhot) + cfg_.dlb_hot_weight * nhot;
  trace::gauge_set("dlb.load", load);

  // 2. One allreduce; since every rank contributes zeros outside its own
  // slots, the summed vector is exact and identical everywhere.
  std::vector<double> v(static_cast<std::size_t>(2) * P, 0.0);
  v[me] = load;
  v[P + me] = static_cast<double>(nhot);
  comm_->allreduce_sum(std::span<double>(v));

  // 3. Identical plan on every rank.
  const auto plan =
      dlb_plan({v.data(), static_cast<std::size_t>(P)},
               {v.data() + P, static_cast<std::size_t>(P)},
               cfg_.dlb_hot_weight, cfg_.dlb_imbalance_tol);
  if (plan.empty()) return shipped_;
  ++stats_.evals_engaged;

  // 4. Ship first (vmpi isend is buffered, so sends always complete),
  // then serve parcels addressed here; owners collect in finish_eval
  // after their local kernel, overlapping local and remote work.
  std::size_t cursor = 0;
  for (const auto& t : plan)
    if (t.src == me) {
      ship(t, prim, cursor);
      cursor += static_cast<std::size_t>(t.cells);
    }
  for (const auto& t : plan)
    if (t.dst == me) host(t);
  return shipped_;
}

void ChemDlb::ship(const DlbTransfer& t, const Prim& prim,
                   std::size_t hot_cursor) {
  const int ns = mech_->n_species();
  const double* T = prim.T.data();
  const double* rho = prim.rho.data();
  long remaining = t.cells;
  std::size_t pos = hot_cursor;
  while (remaining > 0) {
    const int chunk = static_cast<int>(
        std::min<long>(remaining, cfg_.dlb_parcel_cells));
    work_.resize(static_cast<std::size_t>(2 + ns) * chunk);
    double* w = work_.data();
    for (int c = 0; c < chunk; ++c) {
      const std::size_t n = hot_idx_[pos + c];
      *w++ = T[n];
      *w++ = rho[n];
      for (int s = 0; s < ns; ++s) *w++ = prim.Y[s].data()[n];
    }
    comm_->isend(t.dst, kTagWork, {work_.data(), work_.size()});

    PendingResult pr;
    pr.cell0 = shipped_.size();
    pr.count = chunk;
    pr.buf.resize(static_cast<std::size_t>(chunk) * ns);
    pr.req = comm_->irecv(t.dst, kTagResult, {pr.buf.data(), pr.buf.size()});
    for (int c = 0; c < chunk; ++c) shipped_.push_back(hot_idx_[pos + c]);
    pending_.push_back(std::move(pr));

    ++stats_.parcels_sent;
    stats_.cells_shipped += chunk;
    pos += chunk;
    remaining -= chunk;
  }
  trace::counter_add("dlb.cells_shipped", static_cast<double>(t.cells));
}

void ChemDlb::host(const DlbTransfer& t) {
  const int ns = mech_->n_species();
  long remaining = t.cells;
  while (remaining > 0) {
    const int chunk = static_cast<int>(
        std::min<long>(remaining, cfg_.dlb_parcel_cells));
    work_.resize(static_cast<std::size_t>(2 + ns) * chunk);
    comm_->recv(t.src, kTagWork, {work_.data(), work_.size()});

    host_T_.resize(chunk);
    host_lnT_.resize(chunk);
    host_rho_.resize(chunk);
    host_Y_.resize(static_cast<std::size_t>(chunk) * ns);
    host_wdot_.resize(static_cast<std::size_t>(chunk) * ns);
    const double* w = work_.data();
    for (int c = 0; c < chunk; ++c) {
      host_T_[c] = *w++;
      host_rho_[c] = *w++;
      for (int s = 0; s < ns; ++s)
        host_Y_[static_cast<std::size_t>(c) * ns + s] = *w++;
      // Same double in, same libm out: bitwise identical to the ln T the
      // owner would have staged for this cell.
      // s3dlint:allow(libm): mirrors the owner's staged one-log-per-cell
      host_lnT_[c] = std::log(host_T_[c]);
    }
    bchem_.production_rates_batch(chunk, host_T_.data(), host_lnT_.data(),
                                  host_rho_.data(), host_Y_.data(),
                                  host_wdot_.data());
    comm_->isend(t.src, kTagResult, {host_wdot_.data(), host_wdot_.size()});

    ++stats_.parcels_hosted;
    stats_.cells_hosted += chunk;
    remaining -= chunk;
  }
  trace::counter_add("dlb.cells_hosted", static_cast<double>(t.cells));
}

void ChemDlb::finish_eval(State& dUdt) {
  const int ns = mech_->n_species();
  for (auto& pr : pending_) {
    comm_->wait(pr.req);
    for (int c = 0; c < pr.count; ++c)
      chem_apply_wdot_cell(dUdt, shipped_[pr.cell0 + c],
                           pr.buf.data() + static_cast<std::size_t>(c) * ns,
                           W_.data(), ns);
  }
  pending_.clear();
}

}  // namespace s3d::solver
