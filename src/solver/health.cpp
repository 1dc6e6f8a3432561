#include "solver/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>

#include "resilience/fault.hpp"
#include "trace/trace.hpp"

namespace s3d::solver {

namespace {

/// Sentinel cell code meaning "no cell" — larger than any encodable
/// global index, so an allreduce_min over codes ignores it (shared with
/// the in-pass tripwires).
constexpr double kNoCell = kNoCellCode;
/// Sentinel dt meaning "no local estimate" (its negation loses every
/// allreduce_max against a real estimate).
constexpr double kNoDt = 1e300;

void require_opt(bool ok, const char* field, const std::string& why) {
  if (!ok) throw ConfigError(field, why);
}

}  // namespace

const char* breach_name(Breach b) {
  switch (b) {
    case Breach::none: return "health.none";
    case Breach::dt_violation: return "health.dt_violation";
    case Breach::y_sum: return "health.y_sum";
    case Breach::newton: return "health.newton";
    case Breach::temperature: return "health.temperature";
    case Breach::negative_density: return "health.negative_density";
    case Breach::non_finite: return "health.non_finite";
    case Breach::injected: return "health.injected";
  }
  return "health.unknown";
}

std::string HealthReport::message() const {
  std::string m = site();
  m += " at step " + std::to_string(step);
  if (rank >= 0) m += ", rank " + std::to_string(rank);
  if (cell[0] >= 0)
    m += ", cell (" + std::to_string(cell[0]) + ", " +
         std::to_string(cell[1]) + ", " + std::to_string(cell[2]) + ")";
  char buf[64];
  std::snprintf(buf, sizeof buf, ": value %.6g (threshold %.6g)", value,
                threshold);
  m += buf;
  return m;
}

// ---------------------------------------------------------------------------
// SnapshotRing

SnapshotRing::SnapshotRing(int depth, CkptOptions opt)
    : ring_(depth, opt) {}

void SnapshotRing::capture(const Solver& s) {
  // The payload is the FULL ghosted conserved state plus the full
  // warm-start temperature field — deliberately wider than the restart
  // payload, so a restored solver replays ghost exchange and the Newton
  // iteration bitwise (same contract as before the delta ring).
  CkptImage img;
  img.t = s.time();
  img.steps = s.steps_taken();
  const auto u = s.state().flat();
  const GField& T = s.rhs().prim().T;
  img.data.reserve(u.size() + T.size());
  img.data.assign(u.begin(), u.end());
  img.data.insert(img.data.end(), T.data(), T.data() + T.size());
  // Plugin-state sidecar (DESIGN.md §15): appended after the solver
  // payload so a restore rewinds plugin accumulators with the state.
  if (sidecar_.save) sidecar_.save(img.data);
  ring_.push(std::move(img));
}

void SnapshotRing::restore_newest(Solver& s) const {
  const CkptImage& sn = ring_.newest();
  auto u = s.state().flat();
  GField& T = s.rhs().prim().T;
  const std::size_t base = u.size() + T.size();
  S3D_REQUIRE(sn.data.size() >= base,
              "snapshot does not match the solver's state size");
  const auto split =
      sn.data.begin() + static_cast<std::ptrdiff_t>(u.size());
  std::copy(sn.data.begin(), split, u.begin());
  std::copy(split, split + static_cast<std::ptrdiff_t>(T.size()), T.data());
  if (sn.data.size() > base) {
    S3D_REQUIRE(sidecar_.load,
                "snapshot carries a plugin sidecar but none is installed");
    const std::size_t got = sidecar_.load(
        std::span<const double>(sn.data.data() + base,
                                sn.data.size() - base));
    S3D_REQUIRE(got == sn.data.size() - base,
                "plugin sidecar did not consume its snapshot block");
  }
  s.set_time(sn.t, static_cast<int>(sn.steps));  // invalidates cached dt
}

void SnapshotRing::restore_cells(Solver& s,
                                 std::span<const RowRange> segs) const {
  const CkptImage& sn = ring_.newest();
  State& U = s.state();
  GField& T = s.rhs().prim().T;
  S3D_REQUIRE(sn.data.size() >= U.flat().size() + T.size(),
              "snapshot does not match the solver's state size");
  const int nv = U.nv();
  const std::size_t fsz = U.block();
  for (const RowRange& r : segs) {
    const auto count = static_cast<std::size_t>(r.count);
    for (int v = 0; v < nv; ++v) {
      const double* src =
          sn.data.data() + static_cast<std::size_t>(v) * fsz + r.n0;
      std::copy(src, src + count, U.var(v) + r.n0);
    }
    const double* tsrc =
        sn.data.data() + static_cast<std::size_t>(nv) * fsz + r.n0;
    std::copy(tsrc, tsrc + count, T.data() + r.n0);
  }
}

double SnapshotRing::newest_time() const { return ring_.newest().t; }

void SnapshotRing::pop_newest() { ring_.pop_newest(); }

// ---------------------------------------------------------------------------
// HealthSentinel

HealthSentinel::HealthSentinel(Solver& s, const HealthConfig& hc,
                               vmpi::Comm* comm)
    : s_(s), hc_(hc), comm_(comm) {}

double HealthSentinel::encode_cell(int i, int j, int k) const {
  const auto off = s_.offset();
  const double NX = s_.mesh().nx();
  const double NY = s_.mesh().ny();
  return (off[0] + i) + NX * ((off[1] + j) + NY * (off[2] + k));
}

TripwireParams HealthSentinel::params() const {
  TripwireParams p;
  p.rho_min = hc_.rho_min;
  p.y_tol = hc_.y_tol;
  p.ns = s_.rhs().mech().n_species();
  p.nv = s_.state().nv();
  p.offset = s_.offset();
  p.NX = s_.mesh().nx();
  p.NY = s_.mesh().ny();
  return p;
}

bool HealthSentinel::arm_in_pass() {
  if (!hc_.enabled || !hc_.in_pass) return false;
  return s_.arm_tripwires(params());
}

HealthSentinel::LocalVerdict HealthSentinel::local_scan(
    double /*dt_used*/, const TripwireAccum* pre) {
  LocalVerdict v;
  v.cell_code = kNoCell;
  v.dt_suggest = kNoDt;

  const Layout& l = s_.layout();
  const State& U = s_.state();

  // Pass 1: conserved-state tripwires. Cheap (no Newton), and they gate
  // pass 2 so the primitive inversion never runs on garbage. An armed
  // step already accumulated the identical verdict inside its final
  // fused pass (same rows, same order, same comparisons) — reuse it and
  // this sweep disappears.
  TripwireAccum acc;
  if (pre) {
    acc = *pre;
  } else {
    const TripwireParams p = params();
    for (int k = 0; k < l.nz; ++k)
      for (int j = 0; j < l.ny; ++j)
        acc.check_row(U, p, l.at(0, j, k), 0, l.nx, j, k);
  }

  if (acc.nonfinite > 0) {
    v.breach = Breach::non_finite;
    v.metric = static_cast<double>(acc.nonfinite);
    v.cell_code = acc.nonfinite_cell;
    v.threshold = 0.0;
    return v;
  }
  if (acc.rho_cell < kNoCell) {
    v.breach = Breach::negative_density;
    v.metric = hc_.rho_min - acc.rho_worst;  // excess below the floor
    v.cell_code = acc.rho_cell;
    v.threshold = hc_.rho_min;
    return v;
  }
  const double y_worst = acc.y_worst;
  const double y_cell = acc.y_cell;

  // Pass 2: primitive inversion under full accounting. Warm-started from
  // the existing T field, so on a healthy state this is one cheap Newton
  // iteration per cell; the refresh also leaves the primitives (and the
  // dt suggestion below) consistent with the committed state.
  PrimOptions popts;
  popts.renormalize_y = s_.rhs().config().y_renormalize;
  PrimStats stats;
  prim_from_conserved(s_.rhs().mech(), U, s_.rhs().prim(), popts, &stats);

  // T-bounds tripwire over the just-refreshed (cache-resident) T field.
  // Deliberately NOT folded into the Newton loop itself: perturbing that
  // kernel changes its code generation (FP contraction) and breaks the
  // bitwise golden contract, so only the conserved-state pass 1 above is
  // fused away (into the step's final pass) by the in-pass tripwires.
  double t_excess = 0.0, t_cell = kNoCell, t_thresh = hc_.T_max;
  const GField& T = s_.rhs().prim().T;
  for (int k = 0; k < l.nz; ++k)
    for (int j = 0; j < l.ny; ++j) {
      const std::size_t row = l.at(0, j, k);
      for (int i = 0; i < l.nx; ++i) {
        const double Tv = T.data()[row + i];
        const double ex = std::max(Tv - hc_.T_max, hc_.T_min - Tv);
        if (ex > 0.0 && ex > t_excess) {
          t_excess = ex;
          t_cell = encode_cell(i, j, k);
          t_thresh = Tv > hc_.T_max ? hc_.T_max : hc_.T_min;
        }
      }
    }

  const bool newton_bad = stats.newton_nonconverged > 0 ||
                          stats.newton_max_iterations > hc_.newton_max_iters;

  if (t_cell < kNoCell) {
    v.breach = Breach::temperature;
    v.metric = t_excess;  // kelvins outside [T_min, T_max]
    v.cell_code = t_cell;
    v.threshold = t_thresh;
  } else if (newton_bad) {
    v.breach = Breach::newton;
    // Non-convergence dominates any iteration count in the reduce.
    v.metric = stats.newton_nonconverged > 0
                   ? 1e4 + static_cast<double>(stats.newton_nonconverged)
                   : static_cast<double>(stats.newton_max_iterations);
    v.threshold = static_cast<double>(hc_.newton_max_iters);
    if (stats.worst_cell >= 0) {
      const auto f = static_cast<std::size_t>(stats.worst_cell);
      const auto sx = static_cast<std::size_t>(l.sx());
      const auto sy = static_cast<std::size_t>(l.sy());
      v.cell_code = encode_cell(static_cast<int>(f % sx) - l.gx,
                                static_cast<int>((f / sx) % sy) - l.gy,
                                static_cast<int>(f / (sx * sy)) - l.gz);
    }
  } else if (y_cell < kNoCell) {
    v.breach = Breach::y_sum;
    v.metric = y_worst;  // worst mass-fraction undershoot magnitude
    v.cell_code = y_cell;
    v.threshold = hc_.y_tol;
  }

  v.dt_suggest = s_.rhs().suggest_dt();
  return v;
}

HealthReport HealthSentinel::scan(double dt_used) {
  if (!hc_.enabled) return {};
  trace::Span sp("health.scan", "health");
  ++scans_;

  // In-pass verdict from an armed step, valid only if it scanned exactly
  // the state we are judging now (same step count, no poisoning below).
  std::optional<TripwireAccum> pre = s_.take_tripwires();
  if (pre && pre->step != s_.steps_taken()) pre.reset();

  bool injected = false;
  if (auto a = fault::probe("solver.health")) {
    switch (a.kind) {
      case fault::Kind::drop:
        return {};  // sentinel blinded: this scan is skipped outright
      case fault::Kind::corrupt: {
        // The poison lands after the armed pass ran, so the accumulated
        // verdict no longer describes the state; fall back to the sweep.
        pre.reset();
        // Poison one interior value so recovery from a real contamination
        // can be exercised deterministically.
        const Layout& l = s_.layout();
        State& U = s_.state();
        const auto r = static_cast<std::uint64_t>(a.rng);
        const auto nx = static_cast<std::uint64_t>(l.nx);
        const auto ny = static_cast<std::uint64_t>(l.ny);
        const auto nz = static_cast<std::uint64_t>(l.nz);
        const int i = static_cast<int>(r % nx);
        const int j = static_cast<int>((r / nx) % ny);
        const int k = static_cast<int>((r / (nx * ny)) % nz);
        const int vv =
            static_cast<int>((r >> 32) % static_cast<std::uint64_t>(U.nv()));
        U.var(vv)[l.at(i, j, k)] =
            std::numeric_limits<double>::quiet_NaN();
        break;
      }
      case fault::Kind::fail:
        // Surfaced as the top-severity breach instead of a thrown
        // InjectedFault: a single-rank fault must produce the identical
        // collective verdict (and rollback) on every rank.
        injected = true;
        break;
      default:
        fault::apply(a, "solver.health");  // delay
    }
  }

  if (pre) trace::counter_add("health.in_pass_scans", 1.0);
  LocalVerdict lv = local_scan(dt_used, pre ? &*pre : nullptr);
  if (injected) {
    lv.breach = Breach::injected;
    lv.metric = 1.0;
    lv.threshold = 0.0;
    lv.cell_code = encode_cell(0, 0, 0);
  }

  // Collective verdict, stage 1: severity (max) and stable dt (min via
  // negated max) in one reduce. Stages 2-4 run only on breach.
  double gsev = static_cast<double>(static_cast<int>(lv.breach));
  double gdt = lv.dt_suggest;
  if (comm_) {
    std::array<double, 2> v{gsev, -lv.dt_suggest};
    comm_->allreduce_max(v);
    gsev = v[0];
    gdt = -v[1];
  }

  HealthReport rep;
  rep.step = s_.steps_taken();
  const auto sev = static_cast<Breach>(static_cast<int>(gsev));

  if (sev == Breach::none) {
    // dt check: decided from the reduced stable dt, so every rank reaches
    // the same verdict even though the estimate is rank-local.
    if (hc_.check_dt && gdt < kNoDt && dt_used > hc_.dt_safety * gdt) {
      rep.breach = Breach::dt_violation;
      rep.value = dt_used / gdt;
      rep.threshold = hc_.dt_safety;
    }
  } else {
    rep.breach = sev;
    const bool mine = lv.breach == sev;
    double gmetric = lv.metric;
    double gcell = mine ? lv.cell_code : kNoCell;
    double grank = -1.0;
    if (comm_) {
      std::array<double, 1> m{mine ? lv.metric : -kNoCell};
      comm_->allreduce_max(m);
      gmetric = m[0];
      std::array<double, 1> c{mine && lv.metric == gmetric ? lv.cell_code
                                                           : kNoCell};
      comm_->allreduce_min(c);
      gcell = c[0];
      std::array<double, 1> rk{mine && lv.metric == gmetric &&
                                       lv.cell_code == gcell
                                   ? static_cast<double>(comm_->rank())
                                   : kNoCell};
      comm_->allreduce_min(rk);
      grank = rk[0] < kNoCell ? rk[0] : -1.0;
    }
    rep.value = gmetric;
    rep.rank = static_cast<int>(grank);
    rep.threshold = mine ? lv.threshold : 0.0;
    if (comm_) {
      // Thresholds are config-derived except temperature's bound choice;
      // make the report field identical on every rank.
      std::array<double, 1> th{rep.threshold};
      comm_->allreduce_max(th);
      rep.threshold = th[0];
    }
    if (gcell < kNoCell) {
      const auto idx = static_cast<long long>(std::llround(gcell));
      const long long NX = s_.mesh().nx();
      const long long NY = s_.mesh().ny();
      rep.cell = {static_cast<int>(idx % NX),
                  static_cast<int>((idx / NX) % NY),
                  static_cast<int>(idx / (NX * NY))};
    }
  }

  if (rep.breach != Breach::none && (!comm_ || comm_->rank() == 0)) {
    trace::counter_add("health.breaches", 1.0);
    trace::counter_add(rep.site(), 1.0);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// run_guarded

void GuardOptions::validate() const {
  require_opt(health.scan_every >= 1, "guard.scan_every", "must be >= 1");
  require_opt(std::isfinite(health.rho_min) && health.rho_min >= 0.0,
              "guard.rho_min", "must be finite and >= 0");
  require_opt(std::isfinite(health.T_min) && std::isfinite(health.T_max) &&
                  health.T_min < health.T_max,
              "guard.T_bounds", "need finite T_min < T_max");
  require_opt(std::isfinite(health.y_tol) && health.y_tol > 0.0,
              "guard.y_tol", "must be positive and finite");
  require_opt(health.newton_max_iters >= 1, "guard.newton_max_iters",
              "must be >= 1");
  require_opt(std::isfinite(health.dt_safety) && health.dt_safety > 0.0,
              "guard.dt_safety", "must be positive and finite");
  require_opt(snapshot_every >= 1, "guard.snapshot_every", "must be >= 1");
  require_opt(ring_depth >= 1, "guard.ring_depth", "must be >= 1");
  require_opt(max_rollbacks >= 0, "guard.max_rollbacks", "must be >= 0");
  require_opt(retries_per_snapshot >= 1, "guard.retries_per_snapshot",
              "must be >= 1");
  require_opt(std::isfinite(dt_factor) && dt_factor > 0.0 && dt_factor < 1.0,
              "guard.dt_factor", "must lie in (0, 1)");
  require_opt(std::isfinite(dt_min) && dt_min >= 0.0, "guard.dt_min",
              "must be finite and >= 0");
  require_opt(std::isfinite(dt_fixed) && dt_fixed >= 0.0, "guard.dt_fixed",
              "must be finite and >= 0 (0 = automatic)");
  require_opt(dt_every >= 0, "guard.dt_every", "must be >= 0");
  if (adaptive) adaptive->validate("guard.adaptive");
}

namespace {

/// Collective newest-valid-generation restore from a (per-rank) restart
/// series: every rank proposes its newest remaining generation, the
/// decomposition agrees on the smallest proposal, votes on its validity,
/// and either restores it everywhere or discards it everywhere. Returns
/// the restored generation, or -1 when any rank runs out.
long restore_from_series(Solver& s, RestartSeries& series, vmpi::Comm* comm) {
  if (!comm) return series.read_latest(s);
  const auto gens = series.generations();  // newest first
  std::size_t idx = 0;
  while (true) {
    const double cand =
        idx < gens.size() ? static_cast<double>(gens[idx]) : -1.0;
    const double chosen = comm->allreduce_min(cand);
    if (chosen < 0.0) return -1;
    const auto g = static_cast<long>(chosen);
    while (idx < gens.size() && gens[idx] > g) ++idx;
    const bool ok =
        idx < gens.size() && gens[idx] == g && series.try_load(g, s);
    if (comm->allreduce_min(ok ? 1.0 : 0.0) > 0.5) return g;
    while (idx < gens.size() && gens[idx] >= g) ++idx;
  }
}

/// Total cells covered by a segment list (this rank's share of a mask).
long cells_of(std::span<const RowRange> segs) {
  long c = 0;
  for (const RowRange& r : segs) c += r.count;
  return c;
}

/// Masked pre-step capture for proactive subcycling: the stiff blocks'
/// conserved values + warm-start T, segment by segment (the ladder's
/// breach path restores from the snapshot ring instead).
std::vector<double> capture_cells(Solver& s,
                                  std::span<const RowRange> segs) {
  std::vector<double> buf;
  buf.reserve(static_cast<std::size_t>(cells_of(segs)) *
              static_cast<std::size_t>(s.state().nv() + 1));
  const State& U = s.state();
  const GField& T = s.rhs().prim().T;
  for (const RowRange& r : segs) {
    for (int v = 0; v < U.nv(); ++v) {
      const double* src = U.var(v) + r.n0;
      buf.insert(buf.end(), src, src + r.count);
    }
    const double* tsrc = T.data() + r.n0;
    buf.insert(buf.end(), tsrc, tsrc + r.count);
  }
  return buf;
}

void restore_captured_cells(Solver& s, std::span<const RowRange> segs,
                            const std::vector<double>& buf) {
  State& U = s.state();
  GField& T = s.rhs().prim().T;
  const double* src = buf.data();
  for (const RowRange& r : segs) {
    for (int v = 0; v < U.nv(); ++v) {
      std::copy(src, src + r.count, U.var(v) + r.n0);
      src += r.count;
    }
    std::copy(src, src + r.count, T.data() + r.n0);
    src += r.count;
  }
}

}  // namespace

GuardReport run_guarded(Solver& s, int nsteps, const GuardOptions& opts,
                        vmpi::Comm* comm) {
  opts.validate();
  GuardReport rep;
  const long start0 = s.steps_taken();
  const long target = start0 + std::max(nsteps, 0);
  const bool armed = opts.health.enabled;
  const bool rank0 = !comm || comm->rank() == 0;

  // Resolve the adaptive policy: explicit override, else the solver Config's.
  const AdaptiveOptions ad =
      opts.adaptive ? *opts.adaptive : s.rhs().config().adaptive;
  const bool adaptive = armed && ad.enabled;

  HealthSentinel sentinel(s, opts.health, comm);
  // The ring inherits the run's checkpoint options: delta compression
  // keeps deep rings affordable, and restores stay bitwise either way.
  SnapshotRing ring(opts.ring_depth, s.rhs().config().checkpoint);
  // Plugin accumulators ride every capture from here on (DESIGN.md §15).
  if (opts.sidecar.save || opts.sidecar.load) ring.set_sidecar(opts.sidecar);
  // Seed the ring so even a first-step breach has a rollback point.
  if (armed && target > start0) ring.capture(s);

  // Controller state: the BlockMap tiles GLOBAL indices and every
  // controller update runs from collectively-reduced inputs, so the
  // block→dt map — and every ladder decision below — is identical on
  // every rank of any decomposition.
  std::optional<BlockMap> bmap;
  std::optional<DtController> ctrl;
  std::vector<double> berr, bdt;
  if (adaptive) {
    bmap.emplace(s.mesh().nx(), s.mesh().ny(), s.mesh().nz(), ad.block,
                 s.layout(), s.offset());
    ctrl.emplace(*bmap, ad);
    if (ad.cfl_clamp) bdt.resize(static_cast<std::size_t>(bmap->n_blocks()));
  }
  const Layout& lay = s.layout();
  const long ncell_local =
      static_cast<long>(lay.nx) * lay.ny * lay.nz;

  HealthReport last;
  double scale = 1.0;
  int retries_here = 0;
  double base_dt = -1.0;
  int clean_streak = 0;       ///< scanned-clean steps since the last breach
  int episode_subcycles = 0;  ///< rung-1 attempts in the current episode

  // Masked subcycled integration of `segs` across [t0, t0 + dt]: nsub
  // substeps on the blocks' own clock against the frozen far field,
  // landing exactly on the far field's clock t1 (the committed t after
  // the global step — re-imposed bit-exactly rather than summed, so
  // subcycling never skews the clock).
  const auto subcycle = [&](std::span<const RowRange> segs, double t0,
                            double t1, double dt, int nsub) {
    const int st1 = s.steps_taken();
    s.set_time(t0, st1);
    for (int m = 0; m < nsub; ++m) s.step_region(dt / nsub, segs);
    s.set_time(t1, st1);
    rep.subcycle_steps += nsub;
    rep.executed_cell_steps += cells_of(segs) * nsub;
    if (rank0) trace::counter_add("health.subcycle_count",
                                  static_cast<double>(nsub));
  };

  while (s.steps_taken() < target) {
    const long st = s.steps_taken();
    // dt re-estimation points are *absolute* step counts, so a rollback
    // replays the same estimation schedule deterministically.
    if (base_dt < 0.0 ||
        (opts.dt_every > 0 && (st - start0) % opts.dt_every == 0)) {
      base_dt = opts.dt_fixed > 0.0 ? opts.dt_fixed : s.stable_dt();
      if (adaptive && ad.cfl_clamp) {
        // Per-block CFL refinement: blocks whose own stable dt sits
        // below the (possibly fixed) global step get flagged stiff
        // before they ever breach.
        s.rhs().suggest_dt_blocks(*bmap, bdt);
        ctrl->clamp_stable(bdt, base_dt * scale, comm);
      }
    }
    const double dt = base_dt * scale;
    if (opts.dt_min > 0.0 && dt < opts.dt_min)
      throw HealthError(
          last, "dt fell below dt_min after " +
                    std::to_string(rep.rollbacks) + " rollbacks");

    const bool will_scan =
        armed && ((st + 1 - start0) % opts.health.scan_every == 0 ||
                  st + 1 == target);

    // Proactive stiff-region subcycling: the far field takes ONE step at
    // dt while blocks whose controller dt fell below it redo theirs at
    // dt/nsub on a shared local clock. Captured pre-step values are the
    // rewind point; the committed global step provides the frozen seam.
    std::vector<RowRange> stiff_segs;
    if (adaptive && !ctrl->stiff().empty())
      stiff_segs = bmap->segments(ctrl->stiff());
    const bool stiff_step = adaptive && !ctrl->stiff().empty();

    // Arm the in-pass tripwires when this step will be scanned — unless
    // subcycling will mutate the state again after the step commits, in
    // which case the in-pass verdict would be stale and the scan must
    // sweep the final state separately.
    if (will_scan && !stiff_step) sentinel.arm_in_pass();
    if (adaptive && will_scan)
      s.arm_error_estimate(*bmap, ad.atol, ad.rtol, &berr);

    std::vector<double> presnap;
    if (stiff_step) presnap = capture_cells(s, stiff_segs);
    const double t0 = s.time();
    s.step(dt);
    rep.executed_cell_steps += ncell_local;

    if (stiff_step) {
      const double t1 = s.time();
      restore_captured_cells(s, stiff_segs, presnap);
      rep.discarded_cell_steps += cells_of(stiff_segs);
      subcycle(stiff_segs, t0, t1, dt, ctrl->max_subcycles());
    }

    const long now = s.steps_taken();
    const bool scanned =
        armed &&
        ((now - start0) % opts.health.scan_every == 0 || now == target);
    HealthReport verdict;
    if (scanned) verdict = sentinel.scan(dt);

    // --- escalation ladder, rungs 1-2: localized recovery -------------
    // Only sound when the collective verdict names a cell and the ring's
    // newest snapshot is the immediate pre-step state (the default
    // snapshot_every == 1 cadence guarantees it on scanned-clean runs);
    // otherwise the breach falls straight to the global rungs.
    if (verdict.breach != Breach::none && adaptive) {
      while (verdict.breach != Breach::none && verdict.cell[0] >= 0 &&
             !ring.empty() && ring.newest_step() == now - 1) {
        const int b = bmap->block_of_global(verdict.cell);
        // Tripwire feedback into the controller: the breaching block is
        // pinned to the dt floor so the proactive path keeps subcycling
        // it until clean error observations relax it back.
        ctrl->force_floor(b);
        int rung;
        std::vector<int> blocks{b};
        int nsub;
        if (episode_subcycles < ad.max_subcycle_retries) {
          // Rung 1: subcycle the breaching block, doubling the local
          // clock on every retry of this episode.
          rung = 1;
          nsub = std::min(ad.subcycle_cap,
                          std::max(2, ctrl->subcycles(b))
                              << episode_subcycles);
        } else if (rep.local_rollbacks < ad.max_local_rollbacks) {
          // Rung 2: widen the rollback to the face-neighbor blocks (the
          // breach may be fed across the seam) at the full local clock.
          rung = 2;
          blocks = bmap->widen(blocks);
          nsub = ad.subcycle_cap;
        } else {
          break;  // localized budgets exhausted: escalate globally
        }
        const auto segs = bmap->segments(blocks);
        const double t1 = s.time();
        ring.restore_cells(s, segs);
        rep.discarded_cell_steps += cells_of(segs);
        subcycle(segs, ring.newest_time(), t1, dt, nsub);
        ++episode_subcycles;

        HealthEvent ev;
        ev.report = verdict;
        ev.rung = rung;
        ev.rolled_back_to = ring.newest_step();
        ev.dt_scale = scale;  // the global dt is NOT scaled by rungs 1-2
        rep.events.push_back(std::move(ev));
        if (rung == 1) {
          ++rep.subcycle_recoveries;
          if (rank0) trace::counter_add("health.ladder.subcycle", 1.0);
        } else {
          ++rep.local_rollbacks;
          if (rank0)
            trace::counter_add("health.ladder.local_rollback", 1.0);
        }
        // Judge the repaired state with a full collective scan; a clean
        // verdict exits the ladder with the far field untouched.
        verdict = sentinel.scan(dt);
      }
    }

    if (verdict.breach == Breach::none) {
      if (scanned && adaptive) {
        // Feed the controller (ONE collective reduce over the block
        // vector) and publish the block-dt floor.
        ctrl->observe(berr, comm);
        if (rank0)
          trace::gauge_set("health.dt_min", dt * ctrl->min_ratio());
        ++clean_streak;
        // A halved dt is a recovery posture, not a permanent sentence:
        // once the breach has stayed clear, return to the controller-
        // chosen base dt instead of integrating the rest of the run at
        // the crippled step (the legacy behavior, kept when disabled).
        if (scale < 1.0 && ad.dt_recover_after > 0 &&
            clean_streak >= ad.dt_recover_after) {
          scale = 1.0;
          base_dt = -1.0;
          if (rank0) {
            trace::counter_add("health.dt_recovered", 1.0);
            trace::gauge_set("health.dt_scale", scale);
          }
        }
      }
      episode_subcycles = 0;  // a clean scan ends the breach episode
      // Plugin consumers sample scanned-clean states only, BEFORE the
      // capture below — so the snapshot at this step already carries the
      // post-sample accumulators and a later rollback to it replays
      // without double-counting (DESIGN.md §15).
      if (scanned && opts.on_clean_step) opts.on_clean_step(now);
      // Snapshots are taken only from scanned-clean states.
      if (scanned && (now - start0) % opts.snapshot_every == 0 &&
          now < target) {
        ring.capture(s);
        retries_here = 0;  // progress: retries count anew from here
      }
      continue;
    }

    // --- rungs 3-4: global rollback, shrink dt, retry under budget ---
    last = verdict;
    clean_streak = 0;
    if (rep.rollbacks >= opts.max_rollbacks)
      throw HealthError(verdict, "rollback budget (" +
                                     std::to_string(opts.max_rollbacks) +
                                     ") exhausted");
    ++rep.rollbacks;

    if (retries_here >= opts.retries_per_snapshot && !ring.empty()) {
      ring.pop_newest();  // this point keeps failing: roll back deeper
      retries_here = 0;
    }

    HealthEvent ev;
    ev.report = verdict;
    ev.rung = 3;
    if (!ring.empty()) {
      ring.restore_newest(s);
    } else if (opts.fallback) {
      const long gen = restore_from_series(s, *opts.fallback, comm);
      if (gen < 0)
        throw HealthError(verdict,
                          "snapshot ring and restart series both exhausted");
      ev.from_series = true;
      ev.rung = 4;
      ++rep.series_restores;
      if (rank0) {
        trace::counter_add("health.series_restores", 1.0);
        if (adaptive)
          trace::counter_add("health.ladder.series_restore", 1.0);
      }
      ring.capture(s);
    } else {
      throw HealthError(verdict,
                        "snapshot ring exhausted (no fallback series)");
    }
    ++retries_here;
    scale *= opts.dt_factor;
    base_dt = -1.0;  // the restored state needs a fresh estimate
    rep.discarded_cell_steps += (now - s.steps_taken()) * ncell_local;
    if (rank0) {
      trace::counter_add("health.rollbacks", 1.0);
      if (adaptive && ev.rung == 3)
        trace::counter_add("health.ladder.global_rollback", 1.0);
      trace::gauge_set("health.dt_scale", scale);
    }
    ev.rolled_back_to = s.steps_taken();
    ev.dt_scale = scale;
    rep.events.push_back(std::move(ev));
  }

  rep.completed = true;
  rep.final_steps = s.steps_taken();
  rep.scans = sentinel.scans();
  rep.dt_scale = scale;
  return rep;
}

}  // namespace s3d::solver
