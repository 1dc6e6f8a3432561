#include "solver/rhs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "chem/mixing.hpp"
#include "solver/dt_control.hpp"
#include "chem/thermo.hpp"
#include "common/constants.hpp"
#include "common/timer.hpp"
#include "numerics/stencil.hpp"
#include "trace/trace.hpp"

namespace s3d::solver {

using constants::Ru;

namespace {

// Iterate the interior; fn(flat_index, i, j, k).
template <typename Fn>
void for_interior(const Layout& l, Fn&& fn) {
  for (int k = 0; k < l.nz; ++k)
    for (int j = 0; j < l.ny; ++j) {
      const std::size_t row = l.at(0, j, k);
      for (int i = 0; i < l.nx; ++i) fn(row + i, i, j, k);
    }
}

// Convective-flux row kernels. noinline pins ONE compiled body per
// kernel: every call site executes identical machine code, so the
// compiler's FP-contraction choices (FMA formation is context-sensitive
// at -O3) cannot vary with the caller. The committed golden checksums
// were recorded with exactly these bodies; inlining would re-specialize
// the loop per call site and move those bits.
__attribute__((noinline)) void flux_mass_row(const double* rho,
                                             const double* ub, double* f,
                                             std::size_t n0, int count) {
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    f[n] = rho[n] * ub[n];
  }
}

__attribute__((noinline)) void flux_momentum_row(
    const double* rho, const double* ua, const double* ub, const double* pp,
    const double* taup, double* f, std::size_t n0, int count) {
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    double v = rho[n] * ua[n] * ub[n];
    if (pp) v += pp[n];
    if (taup) v -= taup[n];
    f[n] = v;
  }
}

__attribute__((noinline)) void flux_energy_row(
    const double* re0, const double* pp, const double* ub,
    const double* const* uas, const double* const* taus, int na,
    const double* qb, double* f, std::size_t n0, int count) {
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    double v = ub[n] * (re0[n] + pp[n]);
    for (int a = 0; a < na; ++a) v -= taus[a][n] * uas[a][n];
    if (qb) v += qb[n];
    f[n] = v;
  }
}

__attribute__((noinline)) void flux_species_row(const double* rho,
                                                const double* Ys,
                                                const double* ub,
                                                const double* Jp, double* f,
                                                std::size_t n0, int count) {
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    double v = rho[n] * Ys[n] * ub[n];
    if (Jp) v += Jp[n];
    f[n] = v;
  }
}

// Diffusive-flux row kernels driven by the batched transport pass. Same
// noinline contract as the convective kernels above: one compiled body
// per multiply-add expression, so the row length can never change the
// rounding (DESIGN.md §11).

// Stress tensor rows, paper eq. 14.
__attribute__((noinline)) void stress_row(const double* mu,
                                          const double* const* dudx,
                                          double* const* tau,
                                          const int* axes, int na,
                                          std::size_t n0, int count) {
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    const double m = mu[n];
    double divu = 0.0;
    for (int ia = 0; ia < na; ++ia) {
      const int a = axes[ia];
      divu += dudx[a * 3 + a][n];
    }
    for (int ia = 0; ia < na; ++ia) {
      const int a = axes[ia];
      for (int ib = 0; ib < na; ++ib) {
        const int b = axes[ib];
        double tv = m * (dudx[a * 3 + b][n] + dudx[b * 3 + a][n]);
        if (a == b) tv -= (2.0 / 3.0) * m * divu;
        tau[a * 3 + b][n] = tv;
      }
    }
  }
}

// Species diffusive-flux rows, paper eqs. 18-19 plus the correction
// velocity enforcing eq. 15, with the optional Soret term of eq. 16.
// J holds dY_s/dx_a on entry and the corrected fluxes on exit. D is the
// row-local cell-major diffusivity block (D[c * ns + s]); `soret` is the
// per-species constant ratio table, or nullptr when the term is off.
__attribute__((noinline)) void species_flux_row(
    const double* rho_f, const double* T_f, const double* Wbar_f,
    const double* const* Y_f, const double* const* gradW,
    const double* const* gradT, double* const* J, const double* D,
    const double* soret, const int* axes, int na, int ns, std::size_t n0,
    int count) {
  double Jp[chem::kMaxSpecies][3];
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    const double T = T_f[n];
    const double rho = rho_f[n];
    const double Wbar = Wbar_f[n];
    double sumJ[3] = {0, 0, 0};
    for (int s = 0; s < ns; ++s) {
      const double Yp = Y_f[s][n];
      const double rD = rho * D[static_cast<std::size_t>(c) * ns + s];
      const double so = soret ? soret[s] * Yp / T : 0.0;
      for (int ia = 0; ia < na; ++ia) {
        const int a = axes[ia];
        const double gy = J[s * 3 + a][n];  // holds dY_s/dx_a
        double jv = -rD * (gy + Yp * gradW[a][n] / Wbar);
        if (soret) jv -= rD * so * gradT[a][n];
        Jp[s][a] = jv;
        sumJ[a] += jv;
      }
    }
    for (int s = 0; s < ns; ++s)
      for (int ia = 0; ia < na; ++ia) {
        const int a = axes[ia];
        J[s * 3 + a][n] = Jp[s][a] - Y_f[s][n] * sumJ[a];
      }
  }
}

// Heat-flux rows, paper eq. 20: Fourier + species-enthalpy transport.
// The per-cell species enthalpies are staged once per cell instead of
// once per (axis, species) pair — the same h_mass(sp, T) values in the
// same accumulation order, so hoisting is bitwise-neutral.
__attribute__((noinline)) void heat_flux_row(
    const double* T_f, const double* lam_f, const double* const* gradT,
    const double* const* J, double* const* q, const chem::Species* sps,
    const int* axes, int na, int ns, std::size_t n0, int count) {
  double h[chem::kMaxSpecies];
  for (int c = 0; c < count; ++c) {
    const std::size_t n = n0 + static_cast<std::size_t>(c);
    const double T = T_f[n];
    for (int s = 0; s < ns; ++s) h[s] = chem::h_mass(sps[s], T);
    for (int ia = 0; ia < na; ++ia) {
      const int a = axes[ia];
      double qa = -lam_f[n] * gradT[a][n];
      for (int s = 0; s < ns; ++s) qa += h[s] * J[s * 3 + a][n];
      q[a][n] = qa;
    }
  }
}

}  // namespace

RhsEvaluator::RhsEvaluator(const Config& cfg, const grid::Mesh& mesh,
                           const Layout& l, std::array<int, 3> offset,
                           GhostFlags ghosts, Halo& halo, vmpi::Comm* comm)
    : cfg_(cfg),
      mesh_(&mesh),
      l_(l),
      offset_(offset),
      ghosts_(ghosts),
      ops_(l, mesh, offset, ghosts),
      halo_(halo),
      mech_(cfg.mech),
      fits_(*cfg.mech),
      bchem_(*cfg.mech) {
  S3D_REQUIRE(mech_ != nullptr, "Config.mech must be set");
  const int ns = mech_->n_species();

  prim_.allocate(l_, ns);

  // Work fields start as quiet NaN: every pass reads only cells an earlier
  // pass (or a halo exchange) wrote this evaluation, so a read of a
  // never-written cell carries the NaN into the interior and fails the
  // bitwise tests loudly (test_ghost_poison).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      dudx_[a][b] = GField(l_, nan);
      tau_[a][b] = GField(l_, nan);
    }
    gradW_[a] = GField(l_, nan);
    gradT_[a] = GField(l_, nan);
    q_[a] = GField(l_, nan);
  }
  J_.resize(ns);
  for (int s = 0; s < ns; ++s)
    for (int a = 0; a < 3; ++a) J_[s][a] = GField(l_, nan);
  mu_f_ = GField(l_, nan);
  lam_f_ = GField(l_, nan);
  lnT_f_ = GField(l_, nan);
  flux_bufs_.resize(n_conserved(ns));
  for (auto& f : flux_bufs_) f = GField(l_, nan);

  for (int a = 0; a < 3; ++a)
    if (l_.active(a)) active_axes_.push_back(a);

  // Batched-kernel plumbing: stable pointer tables for the shared row
  // kernels and row-local scratch (DESIGN.md §11).
  Wvec_.resize(ns);
  soret_ratio_.resize(ns);
  Yptr_.resize(ns);
  for (int s = 0; s < ns; ++s) {
    Wvec_[s] = mech_->W(s);
    soret_ratio_[s] = transport::soret_ratio(mech_->species(s));
    Yptr_[s] = prim_.Y[s].data();
  }
  const std::size_t rowlen = static_cast<std::size_t>(l_.nx);
  row_X_.resize(rowlen * ns);
  row_Y_.resize(rowlen * ns);
  row_D_.resize(rowlen * ns);
  row_wdot_.resize(rowlen * ns);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      dudx_p_[a * 3 + b] = dudx_[a][b].data();
      tau_p_[a * 3 + b] = tau_[a][b].data();
    }
    gradW_p_[a] = gradW_[a].data();
    gradT_p_[a] = gradT_[a].data();
    q_p_[a] = q_[a].data();
  }
  J_p_.resize(static_cast<std::size_t>(ns) * 3);
  for (int s = 0; s < ns; ++s)
    for (int a = 0; a < 3; ++a) J_p_[s * 3 + a] = J_[s][a].data();

  if (comm != nullptr && comm->size() > 1 && cfg_.chem_dlb)
    dlb_ = std::make_unique<ChemDlb>(*mech_, cfg_, *comm);

  // Calibrate the constant-Lewis / power-law closures at the reference
  // state (air-like if the mechanism has O2 and N2, else equimolar).
  std::vector<double> Xr(ns, 0.0), Yr(ns);
  const int io2 = mech_->find("O2"), in2 = mech_->find("N2");
  if (io2 >= 0 && in2 >= 0) {
    Xr[io2] = 0.21;
    Xr[in2] = 0.79;
  } else {
    std::fill(Xr.begin(), Xr.end(), 1.0 / ns);
  }
  mech_->Y_from_X(Xr, Yr);
  const double Tr = cfg_.T_ref, pr = cfg_.p_ref;
  const double rho_r = mech_->density(pr, Tr, Yr);
  const double cp_r = mech_->cp_mass_mix(Tr, Yr);
  const double lam_r = fits_.mixture_conductivity(Tr, Xr);
  std::vector<double> Dr(ns);
  fits_.mixture_diffusion(Tr, pr, Xr, Dr);
  Le_.resize(ns);
  for (int s = 0; s < ns; ++s) Le_[s] = lam_r / (rho_r * cp_r * Dr[s]);
  mu_ref_pl_ = fits_.mixture_viscosity(Tr, Xr);
}

// The one compiled per-cell transport-property body (never inlined): the
// batched pass feeds it lnT from the staged field, so every row length
// produces the same properties bit for bit (DESIGN.md §11).
__attribute__((noinline)) void RhsEvaluator::compute_transport_point(
    double T, double lnT, double rho, double cp, const double* X, double& mu,
    double& lam, double* D) const {
  const int ns = mech_->n_species();
  switch (cfg_.transport) {
    case TransportModel::power_law: {
      // s3dlint:allow(libm): inside the shared noinline transport kernel
      mu = mu_ref_pl_ * std::pow(T / cfg_.T_ref, cfg_.visc_exp);
      lam = mu * cp / cfg_.Pr;
      const double alpha = lam / (rho * cp);
      for (int s = 0; s < ns; ++s) D[s] = alpha / Le_[s];
      return;
    }
    case TransportModel::constant_lewis: {
      mu = fits_.mixture_viscosity_lnT(lnT, {X, static_cast<std::size_t>(ns)});
      lam = fits_.mixture_conductivity_lnT(lnT,
                                           {X, static_cast<std::size_t>(ns)});
      const double alpha = lam / (rho * cp);
      for (int s = 0; s < ns; ++s) D[s] = alpha / Le_[s];
      return;
    }
    case TransportModel::mixture_averaged: {
      mu = fits_.mixture_viscosity_lnT(lnT, {X, static_cast<std::size_t>(ns)});
      lam = fits_.mixture_conductivity_lnT(lnT,
                                           {X, static_cast<std::size_t>(ns)});
      // p from the ideal-gas law at this point: D ~ 1/p handled inside.
      const double p = rho * Ru * T /
                       mech_->mean_W_from_X({X, static_cast<std::size_t>(ns)});
      fits_.mixture_diffusion_lnT(lnT, p, {X, static_cast<std::size_t>(ns)},
                                  {D, static_cast<std::size_t>(ns)});
      return;
    }
  }
}

void RhsEvaluator::eval(const State& U, double t, State& dUdt) {
  trace::Span sp_eval("rhs.eval", "solver");
  Timer phase;
  const int ns = mech_->n_species();
  const int nv = n_conserved(ns);

  // ---- 1. primitives ----
  phase.reset();
  {
    trace::Span sp("rhs.primitives", "solver");
    const PrimOptions popts{.renormalize_y = cfg_.y_renormalize};
    if (cfg_.count_y_clips) {
      PrimStats pstats;
      prim_from_conserved(*mech_, U, prim_, popts, &pstats);
      if (pstats.y_clipped > 0)
        trace::counter_add("health.y_clip",
                           static_cast<double>(pstats.y_clipped));
      if (pstats.newton_nonconverged > 0)
        trace::counter_add("health.newton_nonconverged",
                           static_cast<double>(pstats.newton_nonconverged));
    } else {
      prim_from_conserved(*mech_, U, prim_, popts);
    }
    pass_stats_.count(nv);  // one sweep producing all primitive fields
  }
  timers_.primitives += phase.seconds();

  // ---- 2. halo exchange of primitives (paper: ghost zone construction
  //         via non-blocking nearest-neighbour messages) ----
  phase.reset();
  {
    std::vector<double*> fields = {prim_.rho.data(), prim_.u.data(),
                                   prim_.v.data(),   prim_.w.data(),
                                   prim_.T.data(),   prim_.p.data(),
                                   prim_.Wbar.data()};
    // Total energy is needed in ghost shells for the convective flux;
    // exchange it directly from U (interior is owned by the integrator).
    fields.push_back(const_cast<double*>(U.var(UIndex::e0)));
    for (int s = 0; s < ns; ++s) fields.push_back(prim_.Y[s].data());
    halo_.exchange(fields);
  }
  timers_.halo += phase.seconds();

  if (cfg_.include_viscous) {
    // ---- 3. gradients ----
    phase.reset();
    {
      // One batched pass per axis: all 5 + ns gradient fields share each
      // traversal of the interior lines.
      trace::Span sp("pass.grad", "solver");
      std::vector<DerivTarget> targets;
      targets.reserve(5 + static_cast<std::size_t>(ns));
      for (int a : active_axes_) {
        targets.clear();
        targets.push_back({prim_.u.data(), dudx_[0][a].data()});
        targets.push_back({prim_.v.data(), dudx_[1][a].data()});
        targets.push_back({prim_.w.data(), dudx_[2][a].data()});
        targets.push_back({prim_.T.data(), gradT_[a].data()});
        targets.push_back({prim_.Wbar.data(), gradW_[a].data()});
        for (int s = 0; s < ns; ++s)
          targets.push_back({prim_.Y[s].data(), J_[s][a].data()});
        batched_deriv(ops_, a, targets, /*accumulate=*/false, &pass_stats_);
      }
    }
    timers_.gradients += phase.seconds();

    // ---- 4. transport properties and diffusive fluxes (interior) ----
    // This is the COMPUTESPECIESDIFFFLUX / COMPUTEHEATFLUX kernel family
    // of the paper's fig. 2/4, staging shared per-cell quantities row by
    // row as passes.* stages (DESIGN.md §11).
    phase.reset();
    eval_diffusive();
    timers_.diffusive_flux += phase.seconds();

    // ---- 5. halo exchange of diffusive fluxes: along each axis b only
    //         what the divergence along b reads (tau[a][b], q_b, and
    //         J_{s,b} of the ns-1 transported species) ----
    phase.reset();
    {
      Halo::AxisFields fields;
      for (int b : active_axes_) {
        for (int a : active_axes_) fields[b].push_back(tau_[a][b].data());
        fields[b].push_back(q_[b].data());
        for (int s = 0; s < ns - 1; ++s) fields[b].push_back(J_[s][b].data());
      }
      halo_.exchange(fields);
    }
    timers_.halo += phase.seconds();
  }

  // ---- 6. total flux divergences ----
  phase.reset();
  eval_convective(U, dUdt);
  timers_.convective += phase.seconds();

  // ---- 7. chemistry (paper's REACTION_RATE kernel) ----
  if (cfg_.include_chemistry && mech_->n_reactions() > 0) {
    phase.reset();
    eval_chemistry(dUdt);
    timers_.reaction_rate += phase.seconds();
  }

  // ---- 8. characteristic boundary conditions + absorbing layers ----
  phase.reset();
  {
    trace::Span sp("rhs.boundary", "solver");
    apply_nscbc(U, t, dUdt);
    apply_sponges(U, dUdt);
  }
  timers_.boundary += phase.seconds();

  ++timers_.evals;
}

// Batched diffusive phase: a named pass over interior rows. Stage "lnT"
// evaluates the one std::log(T) per cell this evaluation; every later
// consumer (mixture fits here, kinetics in pass.chem_source) reuses it.
// Stage "transport_props" stages X cell-major and runs the shared
// per-cell property kernel; the flux stages drive the shared row kernels
// over the whole row extent at once.
void RhsEvaluator::eval_diffusive() {
  trace::Span sp("rhs.diffusive_flux", "solver");
  const int ns = mech_->n_species();
  const double* soret = cfg_.include_soret ? soret_ratio_.data() : nullptr;
  const chem::Species* sps = mech_->all_species().data();
  const int* axes = active_axes_.data();
  const int na = static_cast<int>(active_axes_.size());
  const double* Tf = prim_.T.data();
  const double* rhof = prim_.rho.data();
  const double* Wbarf = prim_.Wbar.data();
  double* lnTf = lnT_f_.data();

  FusedPointwise pass("pass.transport_flux");
  pass.add("lnT", [Tf, lnTf](const RowRange& r) {
    for (int c = 0; c < r.count; ++c) {
      const std::size_t n = r.n0 + static_cast<std::size_t>(c);
      lnTf[n] = std::log(Tf[n]);  // s3dlint:allow(libm): THE one log(T)
    }
  });
  pass.add("transport_props",
           [this, ns, Tf, rhof, Wbarf, lnTf](const RowRange& r) {
             for (int c = 0; c < r.count; ++c) {
               const std::size_t n = r.n0 + static_cast<std::size_t>(c);
               double* Yc = row_Y_.data() + static_cast<std::size_t>(c) * ns;
               double* Xc = row_X_.data() + static_cast<std::size_t>(c) * ns;
               const double Wbar = Wbarf[n];
               for (int s = 0; s < ns; ++s) {
                 const double Ysp = Yptr_[s][n];
                 Yc[s] = Ysp;
                 Xc[s] = Ysp * Wbar / Wvec_[s];
               }
               const double cp = mech_->cp_mass_mix(
                   Tf[n], {Yc, static_cast<std::size_t>(ns)});
               double mu, lam;
               compute_transport_point(
                   Tf[n], lnTf[n], rhof[n], cp, Xc, mu, lam,
                   row_D_.data() + static_cast<std::size_t>(c) * ns);
               mu_f_.data()[n] = mu;
               lam_f_.data()[n] = lam;
             }
           });
  pass.add("stress", [this, axes, na](const RowRange& r) {
    stress_row(mu_f_.data(), dudx_p_.data(), tau_p_.data(), axes, na, r.n0,
               r.count);
  });
  pass.add("species_flux",
           [this, soret, axes, na, ns, Tf, rhof, Wbarf](const RowRange& r) {
             species_flux_row(rhof, Tf, Wbarf, Yptr_.data(), gradW_p_.data(),
                              gradT_p_.data(), J_p_.data(), row_D_.data(),
                              soret, axes, na, ns, r.n0, r.count);
           });
  pass.add("heat_flux", [this, sps, axes, na, ns, Tf](const RowRange& r) {
    heat_flux_row(Tf, lam_f_.data(), gradT_p_.data(), J_p_.data(), q_p_.data(),
                  sps, axes, na, ns, r.n0, r.count);
  });
  pass.run_interior(l_, &pass_stats_);
}

// Chemistry phase. With DLB armed, begin_eval ships this rank's surplus
// hot cells and returns the ascending skip list; the local kernel walks
// rows in segments between skipped cells, and finish_eval scatters the
// hosted results. The local rows and the DLB-hosted remote both funnel
// through Mechanism::net_rates_ctx + chem_apply_wdot_cell, so every rank
// count produces identical bits.
void RhsEvaluator::eval_chemistry(State& dUdt) {
  trace::Span sp("chem.reaction_rate", "chem");
  const int ns = mech_->n_species();

  const std::vector<std::size_t>* skip = nullptr;
  if (dlb_) skip = &dlb_->begin_eval(prim_, l_);
  const std::size_t skipN = skip ? skip->size() : 0;
  std::size_t scur = 0;  // cursor into the ascending skip list

  const double* Tf = prim_.T.data();
  const double* rhof = prim_.rho.data();
  double* lnTf = lnT_f_.data();
  FusedPointwise pass("pass.chem_source");
  if (!cfg_.include_viscous) {
    // No transport pass ran this evaluation, so stage ln T here.
    pass.add("lnT", [Tf, lnTf](const RowRange& r) {
      for (int c = 0; c < r.count; ++c) {
        const std::size_t n = r.n0 + static_cast<std::size_t>(c);
        lnTf[n] = std::log(Tf[n]);  // s3dlint:allow(libm): one log(T)
      }
    });
  }
  pass.add("chem_source", [&, ns, Tf, rhof, lnTf](const RowRange& r) {
    int c = 0;
    while (c < r.count) {
      if (scur < skipN &&
          (*skip)[scur] == r.n0 + static_cast<std::size_t>(c)) {
        ++scur;
        ++c;
        continue;
      }
      const int run0 = c;
      while (c < r.count &&
             !(scur < skipN &&
               (*skip)[scur] == r.n0 + static_cast<std::size_t>(c)))
        ++c;
      const int len = c - run0;
      bchem_.production_rates_fields(
          len, r.n0 + static_cast<std::size_t>(run0), Tf, lnTf, rhof,
          Yptr_.data(), row_wdot_.data());
      for (int cc = 0; cc < len; ++cc)
        chem_apply_wdot_cell(
            dUdt, r.n0 + static_cast<std::size_t>(run0 + cc),
            row_wdot_.data() + static_cast<std::size_t>(cc) * ns,
            Wvec_.data(), ns);
    }
  });
  pass.run_interior(l_, &pass_stats_);

  if (dlb_) dlb_->finish_eval(dUdt);
}

// Convective phase: per axis b, ONE pointwise pass assembles every
// conserved variable's flux into flux_bufs_ (through the noinline
// flux_*_row kernels) and ONE batched derivative pass accumulates all
// the divergences into dUdt: 2 sweeps per axis. The assembly covers
// exactly what the divergence along b reads: the interior plus b's own
// exchanged ghost layers.
void RhsEvaluator::eval_convective(const State& U, State& dUdt) {
  trace::Span sp_conv("rhs.convective", "solver");
  const int ns = mech_->n_species();
  dUdt.zero_interior();
  pass_stats_.count();  // dUdt zero-fill

  const double* re0 = U.var(UIndex::e0);
  const bool visc = cfg_.include_viscous;
  const double* rho = prim_.rho.data();
  const double* pp = prim_.p.data();
  const double* uvw[3] = {prim_.u.data(), prim_.v.data(), prim_.w.data()};

  std::vector<DerivTarget> divs;
  for (int b : active_axes_) {
    const double* ub = uvw[b];

    FusedPointwise pass("pass.flux_assemble");
    divs.clear();

    // Mass: rho u_b.
    {
      double* fb = flux_bufs_[UIndex::rho].data();
      pass.add("mass", [=](const RowRange& r) {
        flux_mass_row(rho, ub, fb, r.n0, r.count);
      });
      divs.push_back({fb, dUdt.var(UIndex::rho)});
    }

    // Momentum components (only active axes can carry momentum).
    for (int a : active_axes_) {
      const double* ua = uvw[a];
      const double* taup = visc ? tau_[a][b].data() : nullptr;
      const double* pdiag = a == b ? pp : nullptr;
      double* fm = flux_bufs_[UIndex::mx + a].data();
      pass.add("momentum", [=](const RowRange& r) {
        flux_momentum_row(rho, ua, ub, pdiag, taup, fm, r.n0, r.count);
      });
      divs.push_back({fm, dUdt.var(UIndex::mx + a)});
    }

    // Total energy: u_b (rho e0 + p) - (tau . u)_b + q_b.
    {
      std::array<const double*, 3> uas{};
      std::array<const double*, 3> taus{};
      int na = 0;
      if (visc)
        for (int a : active_axes_) {
          uas[na] = uvw[a];
          taus[na] = tau_[a][b].data();
          ++na;
        }
      const double* qb = visc ? q_[b].data() : nullptr;
      double* fe = flux_bufs_[UIndex::e0].data();
      pass.add("energy", [=](const RowRange& r) {
        flux_energy_row(re0, pp, ub, uas.data(), taus.data(), na, qb, fe,
                        r.n0, r.count);
      });
      divs.push_back({fe, dUdt.var(UIndex::e0)});
    }

    // Species (first ns-1): rho Y_s u_b + J_sb.
    for (int s = 0; s < ns - 1; ++s) {
      const double* Ys = prim_.Y[s].data();
      const double* Jp = visc ? J_[s][b].data() : nullptr;
      double* fs = flux_bufs_[UIndex::Y0 + s].data();
      pass.add("species", [=](const RowRange& r) {
        flux_species_row(rho, Ys, ub, Jp, fs, r.n0, r.count);
      });
      divs.push_back({fs, dUdt.var(UIndex::Y0 + s)});
    }

    {
      trace::Span sp("pass.flux_assemble", "solver");
      pass.run_with_axis_ghosts(l_, b, ghosts_, &pass_stats_);
    }
    {
      trace::Span sp("pass.flux_div", "solver");
      batched_deriv(ops_, b, divs, /*accumulate=*/true, &pass_stats_);
    }
  }
}

// Absorbing layers ahead of outflow faces: relax toward the same-(T,Y,u)
// state at the target pressure, whose conserved vector is (p_t/p) U, with a
// cubic strength ramp. Damps the wave pile-up the reduced-order boundary
// closures would otherwise accumulate.
void RhsEvaluator::apply_sponges(const State& U, State& dUdt) {
  for (int axis : active_axes_) {
    for (int side = 0; side < 2; ++side) {
      const FaceBc& face = cfg_.faces[axis][side];
      if (face.sponge_width <= 0.0) continue;
      if (face.kind != BcKind::nscbc_outflow) continue;

      // Face coordinate in global mesh space.
      const auto& xs = mesh_->coords(axis);
      const double x_face = side == 0 ? xs.front() : xs.back();
      // Reference sound speed for the relaxation rate.
      const double c_ref = std::sqrt(1.3 * Ru * cfg_.T_ref / 28.0);
      const double sig0 =
          face.sponge_strength * c_ref / face.sponge_width;
      const int nv = dUdt.nv();

      for_interior(l_, [&](std::size_t n, int i, int j, int k) {
        const int idx3[3] = {i, j, k};
        const double x = xs[offset_[axis] + idx3[axis]];
        const double dist = std::abs(x - x_face);
        if (dist >= face.sponge_width) return;
        const double xi = 1.0 - dist / face.sponge_width;
        const double sig = sig0 * xi * xi * xi;
        const double p = prim_.p.data()[n];
        const double fac = sig * (1.0 - face.p_target / p);
        for (int v = 0; v < nv; ++v)
          dUdt.var(v)[n] -= fac * U.var(v)[n];
      });
    }
  }
}

void RhsEvaluator::scan_cell_dt(
    const std::function<void(double, int, int, int)>& sink) const {
  const int ns = mech_->n_species();
  double Le_min = 1.0;
  for (int s = 0; s < ns; ++s) Le_min = std::min(Le_min, Le_[s]);
  double Yp[chem::kMaxSpecies];

  for_interior(l_, [&](std::size_t n, int i, int j, int k) {
    const double T = prim_.T.data()[n];
    const double rho = prim_.rho.data()[n];
    const double Wbar = prim_.Wbar.data()[n];
    for (int s = 0; s < ns; ++s) Yp[s] = prim_.Y[s].data()[n];
    const double cp =
        mech_->cp_mass_mix(T, {Yp, static_cast<std::size_t>(ns)});
    const double gamma = cp / (cp - Ru / Wbar);
    const double c = std::sqrt(gamma * Ru * T / Wbar);
    const double vel[3] = {prim_.u.data()[n], prim_.v.data()[n],
                           prim_.w.data()[n]};
    const int idx3[3] = {i, j, k};
    double dt = 1e30;
    double h_min = 1e30;
    for (int a : active_axes_) {
      const double h = 1.0 / ops_.inv_h(a)[idx3[a]];
      h_min = std::min(h_min, h);
      dt = std::min(dt, cfg_.cfl * h / (std::abs(vel[a]) + c));
    }
    if (cfg_.include_viscous) {
      const double nu = mu_f_.data()[n] / rho;
      const double alpha = lam_f_.data()[n] / (rho * cp);
      const double dmax = std::max(nu, alpha / Le_min);
      dt = std::min(dt, cfg_.fourier * h_min * h_min / std::max(dmax, 1e-30));
    }
    sink(dt, i, j, k);
  });
}

double RhsEvaluator::suggest_dt() const {
  double dt = 1e30;
  scan_cell_dt(
      [&](double dtc, int, int, int) { dt = std::min(dt, dtc); });
  return dt;
}

void RhsEvaluator::suggest_dt_blocks(const BlockMap& map,
                                     std::span<double> out) const {
  S3D_REQUIRE(static_cast<int>(out.size()) == map.n_blocks(),
              "suggest_dt_blocks: out must hold n_blocks() entries");
  std::fill(out.begin(), out.end(), 1e300);
  scan_cell_dt([&](double dtc, int i, int j, int k) {
    const int b = map.block_of_global(offset_[0] + i, offset_[1] + j,
                                      offset_[2] + k);
    out[static_cast<std::size_t>(b)] =
        std::min(out[static_cast<std::size_t>(b)], dtc);
  });
}

}  // namespace s3d::solver
