#include "solver/solver.hpp"

#include <algorithm>
#include <cmath>

#include "resilience/fault.hpp"
#include "trace/trace.hpp"

namespace s3d::solver {

namespace {

// 2N low-storage RK update over one contiguous row, shared by the plain
// per-variable sweep and the fused final pass. noinline pins one
// compiled body so the two traversals cannot round differently (FMA
// formation at -O3 is context-sensitive; see the flux_*_row kernels in
// rhs.cpp for the same pattern).
__attribute__((noinline)) void rk_axpy_row(double* kv, double* uv,
                                           const double* duv, double A,
                                           double B, double dt,
                                           std::size_t n0, int count) {
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    kv[n] = A * kv[n] + dt * duv[n];
    uv[n] += B * kv[n];
  }
}

// Embedded-error accumulation rows (adaptive dt, DESIGN.md §13), armed
// steps only. noinline for the same reason as rk_axpy_row: one compiled
// body regardless of call context, so the estimate — which feeds a
// bitwise cross-rank contract through the controller — cannot round
// differently between traversals.
__attribute__((noinline)) void err_first_row(double* ev, const double* kv,
                                             const double* duv, double B,
                                             double dt, std::size_t n0,
                                             int count) {
  // Stage 1: e = B_1 k_1 - dt f(u_n)  (k_1 = dt f(u_n) already).
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    ev[n] = B * kv[n] - dt * duv[n];
  }
}

__attribute__((noinline)) void err_accum_row(double* ev, const double* kv,
                                             double B, std::size_t n0,
                                             int count) {
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    ev[n] += B * kv[n];
  }
}

/// Linf of |e| / (atol + rtol |u|) over one contiguous run. Max-reduced
/// per block by the caller: order-invariant, so the block norm is
/// identical however the run is split across ranks.
__attribute__((noinline)) double err_norm_run(const double* ev,
                                              const double* uv, double atol,
                                              double rtol, std::size_t n0,
                                              int count) {
  double m = 0.0;
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    const double w = std::abs(ev[n]) / (atol + rtol * std::abs(uv[n]));
    m = std::max(m, w);
  }
  return m;
}

}  // namespace

Solver::Solver(const Config& cfg) : scheme_(numerics::rk_carpenter_kennedy4()) {
  setup(cfg, nullptr, 1, 1, 1);
}

Solver::Solver(const Config& cfg, vmpi::Comm& comm, int px, int py, int pz)
    : scheme_(numerics::rk_carpenter_kennedy4()) {
  setup(cfg, &comm, px, py, pz);
}

void Solver::setup(const Config& cfg, vmpi::Comm* comm, int px, int py,
                   int pz) {
  cfg_ = cfg;
  comm_ = comm;
  cfg_.validate();  // typed ConfigError before any allocation
  S3D_REQUIRE(cfg_.mech != nullptr, "Config.mech must be set");
  const int ns = cfg_.mech->n_species();

  mesh_ = std::make_unique<grid::Mesh>(cfg_.x, cfg_.y, cfg_.z);

  std::array<bool, 3> periodic{cfg_.x.periodic, cfg_.y.periodic,
                               cfg_.z.periodic};
  const grid::AxisSpec* specs[3] = {&cfg_.x, &cfg_.y, &cfg_.z};
  for (int a = 0; a < 3; ++a) {
    if (specs[a]->n <= 1) continue;  // inactive axis: faces are unused
    const bool face_periodic = cfg_.faces[a][0].kind == BcKind::periodic &&
                               cfg_.faces[a][1].kind == BcKind::periodic;
    S3D_REQUIRE(periodic[a] == face_periodic,
                "axis periodicity must match both face BCs");
  }

  Layout l;
  GhostFlags gh;
  if (comm) {
    grid::Decomp dec(mesh_->nx(), mesh_->ny(), mesh_->nz(), px, py, pz);
    S3D_REQUIRE(dec.nranks() == comm->size(),
                "process grid does not match communicator");
    cart_ = std::make_unique<vmpi::Cart>(*comm, px, py, pz, periodic);
    const auto c = cart_->coords();
    std::array<int, 3> ext{};
    for (int a = 0; a < 3; ++a) {
      auto [b, e] = dec.local_range(a, c[a]);
      offset_[a] = b;
      ext[a] = e - b;
    }
    l = Layout::make(ext[0], ext[1], ext[2]);
    for (int a = 0; a < 3; ++a) {
      gh.lo[a] = cart_->neighbor(a, -1) >= 0;
      gh.hi[a] = cart_->neighbor(a, +1) >= 0;
    }
  } else {
    l = Layout::make(mesh_->nx(), mesh_->ny(), mesh_->nz());
    for (int a = 0; a < 3; ++a) {
      gh.lo[a] = periodic[a] && l.active(a);
      gh.hi[a] = gh.lo[a];
    }
  }

  halo_ = comm ? std::make_unique<Halo>(l, periodic, comm, cart_.get())
               : std::make_unique<Halo>(l, periodic);
  rhs_ = std::make_unique<RhsEvaluator>(cfg_, *mesh_, l, offset_, gh, *halo_,
                                        comm);

  const int nv = n_conserved(ns);
  U_ = State(l, nv);
  dU_ = State(l, nv);
  k_ = State(l, nv);
  filt_tmp_ = GField(l);
}

void Solver::initialize(const InitFn& init) {
  const Layout& l = rhs_->layout();
  const int ns = cfg_.mech->n_species();
  InflowState s;
  double u_pt[32];
  for (int k = 0; k < l.nz; ++k)
    for (int j = 0; j < l.ny; ++j)
      for (int i = 0; i < l.nx; ++i) {
        double p = cfg_.p_ref;
        init(coord(0, i), coord(1, j), coord(2, k), s, p);
        const double rho = cfg_.mech->density(
            p, s.T, {s.Y.data(), static_cast<std::size_t>(ns)});
        point_to_conserved(*cfg_.mech, rho, s.u, s.v, s.w, s.T,
                           {s.Y.data(), static_cast<std::size_t>(ns)},
                           {u_pt, static_cast<std::size_t>(n_conserved(ns))});
        for (int v = 0; v < U_.nv(); ++v)
          U_.var(v)[l.at(i, j, k)] = u_pt[v];
      }
  t_ = 0.0;
  steps_ = 0;
  dt_cached_ = -1.0;
}

// Fold-point selection for in-pass tripwires (DESIGN.md §10): the
// tripwires must ride the LAST pass that mutates U during a step. When
// the filter runs that step, its commit pass is last (inflow precedes
// it); with no filter and no inflow face the final RK axpy pass is;
// inflow without a filter leaves a host loop last, so there is no fused
// pass to fold into and the sentinel keeps its separate sweep. Only
// Config enters the decision, so every rank folds identically.
Solver::TripFold Solver::tripwire_fold(long next_step) const {
  const Layout& l = rhs_->layout();
  const bool any_axis = l.active(0) || l.active(1) || l.active(2);
  if (cfg_.filter_interval > 0 && next_step % cfg_.filter_interval == 0 &&
      any_axis)
    return TripFold::filter;
  if (cfg_.inflow)
    for (int a = 0; a < 3; ++a)
      for (int sd = 0; sd < 2; ++sd)
        if (cfg_.faces[a][sd].kind == BcKind::nscbc_inflow)
          return TripFold::none;
  return TripFold::rk;
}

bool Solver::arm_tripwires(const TripwireParams& p) {
  if (tripwire_fold(steps_ + 1) == TripFold::none) return false;
  trip_params_ = p;
  trip_acc_ = TripwireAccum{};
  trip_armed_ = true;
  return true;
}

std::optional<TripwireAccum> Solver::take_tripwires() {
  auto r = trip_result_;
  trip_result_.reset();
  return r;
}

void Solver::step(double dt) {
  if (auto a = fault::probe("solver.step")) fault::apply(a, "solver.step");
  trace::Span sp_step("solver.step", "solver");
  const TripFold fold =
      trip_armed_ ? tripwire_fold(steps_ + 1) : TripFold::none;
  k_.zero_interior();
  pass_stats_.count();  // k zero-fill
  for (int s = 0; s < scheme_.stages(); ++s) {
    trace::Span sp_stage("solver.rk_stage", "solver");
    rhs_->eval(U_, t_ + scheme_.C[s] * dt, dU_);
    const double A = scheme_.A[s], B = scheme_.B[s];
    if (fold == TripFold::rk && s == scheme_.stages() - 1) {
      // Final RK axpy as a fused pass with the tripwire stage riding it:
      // every branch calls the same rk_axpy_row kernel over the same
      // rows, so the committed state is bitwise identical; the armed
      // scan costs no extra sweep.
      trace::Span sp_pass("pass.rk_axpy", "solver");
      const Layout& l = rhs_->layout();
      FusedPointwise pass("pass.rk_axpy");
      for (int v = 0; v < U_.nv(); ++v) {
        double* kv = k_.var(v);
        double* uv = U_.var(v);
        const double* duv = dU_.var(v);
        pass.add("axpy", [=](const RowRange& r) {
          rk_axpy_row(kv, uv, duv, A, B, dt, r.n0, r.count);
        });
      }
      pass.add("tripwire", [this](const RowRange& r) {
        trip_acc_.check_row(U_, trip_params_, r.n0, r.i0, r.count, r.j,
                            r.k);
      });
      pass.run_interior(l, &pass_stats_);
    } else {
      // Same kernel over the same interior rows, one variable at a time.
      const Layout& l = rhs_->layout();
      for (int v = 0; v < U_.nv(); ++v) {
        double* kv = k_.var(v);
        double* uv = U_.var(v);
        const double* duv = dU_.var(v);
        for (int kk = 0; kk < l.nz; ++kk)
          for (int j = 0; j < l.ny; ++j)
            rk_axpy_row(kv, uv, duv, A, B, dt, l.at(0, j, kk), l.nx);
      }
      pass_stats_.count(U_.nv());
    }
    if (err_out_) {
      // Armed embedded-error accumulation: one interior sweep per
      // variable per stage, reading the just-committed k (and at stage
      // 1 the stage RHS). Touches no solver field the RK commit reads,
      // so the committed trajectory is untouched.
      const Layout& l = rhs_->layout();
      for (int v = 0; v < U_.nv(); ++v) {
        double* ev = err_.var(v);
        const double* kv = k_.var(v);
        const double* duv = dU_.var(v);
        for (int kk = 0; kk < l.nz; ++kk)
          for (int j = 0; j < l.ny; ++j) {
            const std::size_t n0 = l.at(0, j, kk);
            if (s == 0)
              err_first_row(ev, kv, duv, B, dt, n0, l.nx);
            else
              err_accum_row(ev, kv, B, n0, l.nx);
          }
      }
      pass_stats_.count(U_.nv());
    }
  }
  if (err_out_) {
    // Per-block Linf of the weighted error against the committed RK
    // solution (pre-filter: the estimate judges the integrator, not the
    // dealiasing filter). Block segmentation follows the global tiling,
    // so every cell contributes to the same block on any decomposition.
    err_out_->assign(static_cast<std::size_t>(err_map_->n_blocks()), 0.0);
    for (int v = 0; v < U_.nv(); ++v) {
      const double* ev = err_.var(v);
      const double* uv = U_.var(v);
      err_map_->visit_rows([&](int b, const RowRange& r) {
        double& m = (*err_out_)[static_cast<std::size_t>(b)];
        m = std::max(
            m, err_norm_run(ev, uv, err_atol_, err_rtol_, r.n0, r.count));
      });
    }
    pass_stats_.count(U_.nv());
    err_map_ = nullptr;
    err_out_ = nullptr;  // one-shot
  }
  t_ += dt;
  ++steps_;
  enforce_inflow();
  if (cfg_.filter_interval > 0 && steps_ % cfg_.filter_interval == 0)
    apply_filter(fold == TripFold::filter);
  if (trip_armed_) {
    trip_acc_.step = steps_;
    trip_result_ = trip_acc_;
    trip_armed_ = false;
  }
  trace::gauge_set("solver.t", t_);
}

void Solver::arm_error_estimate(const BlockMap& map, double atol,
                                double rtol, std::vector<double>* out) {
  S3D_REQUIRE(out != nullptr, "arm_error_estimate: out must be non-null");
  if (err_.nv() == 0) err_ = State(rhs_->layout(), U_.nv());
  err_map_ = &map;
  err_atol_ = atol;
  err_rtol_ = rtol;
  err_out_ = out;
}

void Solver::step_region(double dt, std::span<const RowRange> segs) {
  trace::Span sp_step("solver.substep", "solver");
  k_.zero_interior();
  pass_stats_.count();  // k zero-fill
  for (int s = 0; s < scheme_.stages(); ++s) {
    trace::Span sp_stage("solver.rk_stage", "solver");
    rhs_->eval(U_, t_ + scheme_.C[s] * dt, dU_);
    const double A = scheme_.A[s], B = scheme_.B[s];
    FusedPointwise pass("pass.rk_axpy_region");
    for (int v = 0; v < U_.nv(); ++v) {
      double* kv = k_.var(v);
      double* uv = U_.var(v);
      const double* duv = dU_.var(v);
      pass.add("axpy", [=](const RowRange& r) {
        rk_axpy_row(kv, uv, duv, A, B, dt, r.n0, r.count);
      });
    }
    trace::Span sp_pass("pass.rk_axpy_region", "solver");
    pass.run_segments(segs, &pass_stats_);
  }
  t_ += dt;
}

void Solver::enforce_inflow() {
  if (!cfg_.inflow) return;
  const Layout& l = rhs_->layout();
  const int ns = cfg_.mech->n_species();
  for (int axis = 0; axis < 3; ++axis) {
    for (int side = 0; side < 2; ++side) {
      if (cfg_.faces[axis][side].kind != BcKind::nscbc_inflow) continue;
      const bool owns =
          side == 0 ? !rhs_->ops().ghosts().lo[axis] : !rhs_->ops().ghosts().hi[axis];
      if (!owns) continue;
      S3D_REQUIRE(axis == 0 && side == 0,
                  "inflow is supported on the low-x face");
      InflowState s;
      double u_pt[32];
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j) {
          cfg_.inflow(t_, coord(1, j), coord(2, k), s);
          const std::size_t n = l.at(0, j, k);
          // Density continues to float (the outgoing characteristic owns
          // it); velocity, temperature and composition are imposed.
          const double rho = U_.var(UIndex::rho)[n];
          point_to_conserved(*cfg_.mech, rho, s.u, s.v, s.w, s.T,
                             {s.Y.data(), static_cast<std::size_t>(ns)},
                             {u_pt, static_cast<std::size_t>(U_.nv())});
          for (int v = 0; v < U_.nv(); ++v) U_.var(v)[n] = u_pt[v];
        }
    }
  }
}

void Solver::apply_filter(bool fold_tripwires) {
  trace::Span sp("solver.filter", "solver");
  const Layout& l = rhs_->layout();
  std::vector<double*> vars;
  for (int v = 0; v < U_.nv(); ++v) vars.push_back(U_.var(v));
  int last_axis = -1;
  for (int a = 0; a < 3; ++a)
    if (l.active(a)) last_axis = a;
  for (int axis = 0; axis < 3; ++axis) {
    if (!l.active(axis)) continue;
    // Filter lines along `axis` read only that axis's ghosts.
    Halo::AxisFields only;
    only[axis] = vars;
    halo_->exchange(only);
    if (fold_tripwires && axis == last_axis) {
      // Fused commit: filter every variable into its own buffer, then
      // ONE pass copies all interiors back with the tripwire stage
      // riding it — the last mutation of the step, so the accumulated
      // verdict sees exactly the state the separate sweep would.
      if (fbuf_.size() != vars.size()) {
        fbuf_.clear();
        for (std::size_t v = 0; v < vars.size(); ++v) fbuf_.emplace_back(l);
      }
      FusedPointwise pass("pass.filter_commit");
      for (std::size_t v = 0; v < vars.size(); ++v) {
        rhs_->ops().filter_axis(vars[v], axis, cfg_.filter_alpha,
                                fbuf_[v].data());
        pass_stats_.count();
        const double* fv = fbuf_[v].data();
        double* uv = vars[v];
        pass.add("copy_back", [=](const RowRange& r) {
          std::copy(fv + r.n0, fv + r.n0 + r.count, uv + r.n0);
        });
      }
      pass.add("tripwire", [this](const RowRange& r) {
        trip_acc_.check_row(U_, trip_params_, r.n0, r.i0, r.count, r.j,
                            r.k);
      });
      trace::Span sp_pass("pass.filter_commit", "solver");
      pass.run_interior(l, &pass_stats_);
      continue;
    }
    for (double* f : vars) {
      rhs_->ops().filter_axis(f, axis, cfg_.filter_alpha, filt_tmp_.data());
      pass_stats_.count();
      // Copy filtered interior back.
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j) {
          const std::size_t row = l.at(0, j, k);
          std::copy(filt_tmp_.data() + row, filt_tmp_.data() + row + l.nx,
                    f + row);
        }
      pass_stats_.count();
    }
  }
}

double Solver::stable_dt() {
  trace::Span sp("solver.stable_dt", "solver");
  // Ensure primitives (and transport fields) reflect the current state.
  rhs_->eval(U_, t_, dU_);
  double dt = rhs_->suggest_dt();
  if (comm_) dt = comm_->allreduce_min(dt);
  return dt;
}

void Solver::run(int nsteps, const std::function<void(int)>& monitor,
                 int dt_every) {
  for (int s = 0; s < nsteps; ++s) {
    if (dt_cached_ < 0.0 || (dt_every > 0 && s % dt_every == 0))
      dt_cached_ = stable_dt();
    step(dt_cached_);
    if (monitor) monitor(s);
  }
}

const Prim& Solver::primitives() {
  // Same Y repair as the RHS and the health scan, so analysis sees the
  // mass fractions the solver stepped with.
  prim_from_conserved(*cfg_.mech, U_, rhs_->prim(),
                      PrimOptions{.renormalize_y = cfg_.y_renormalize});
  const int ns = cfg_.mech->n_species();
  std::vector<double*> fields = {
      rhs_->prim().rho.data(), rhs_->prim().u.data(), rhs_->prim().v.data(),
      rhs_->prim().w.data(),   rhs_->prim().T.data(), rhs_->prim().p.data(),
      rhs_->prim().Wbar.data()};
  for (int s = 0; s < ns; ++s) fields.push_back(rhs_->prim().Y[s].data());
  // The one corner-filling exchange: analysis box filters read edges and
  // corners of the primitives.
  halo_->exchange_with_corners(fields);
  return rhs_->prim();
}

}  // namespace s3d::solver
