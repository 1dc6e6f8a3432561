#pragma once
// Shared golden-run machinery (factored from test_golden_runs.cpp so the
// scenario-registry goldens reuse the identical record format and
// invariance checks).
//
// Each case runs a tiny, fully seeded configuration for a few steps on
// 1 rank and on a multi-rank decomposition, then:
//   - asserts the decompositions produce bitwise-identical interior
//     fields (rank-count invariance inside the harness itself),
//   - compares per-variable FNV-1a checksums, the final time (hexfloat,
//     bitwise), and the trace call-count summary against the committed
//     record in tests/golden/data/.
//
// The checksums and times were recorded from the retired unfused,
// per-point RHS plan (DESIGN.md §10); the fused+batched plan reproduces
// them bit for bit, so they keep guarding that arithmetic.
//
// Refresh intentionally with S3D_GOLDEN_REFRESH=1 and commit the diff
// (procedure in DESIGN.md "Observability").

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "solver/cases.hpp"
#include "solver/solver.hpp"
#include "trace/trace.hpp"
#include "vmpi/vmpi.hpp"

namespace s3d_golden {

namespace sv = s3d::solver;
namespace vmpi = s3d::vmpi;
namespace trace = s3d::trace;

struct GoldenRecord {
  std::string t_final_hex;               ///< hexfloat of the final time
  long steps = 0;                        ///< steps taken
  std::vector<std::string> checksums;    ///< per-variable FNV-1a (hex64)
  std::map<std::string, long> spans;     ///< kernel -> total calls
};

inline std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Run the case on a (px, py, pz) decomposition with tracing on and
// collect everything the golden record covers.
inline GoldenRecord run_case(const sv::CaseSetup& setup, int nsteps, int px,
                             int py, int pz) {
  const int NX = setup.cfg.x.n, NY = setup.cfg.y.n, NZ = setup.cfg.z.n;
  const int nv = sv::n_conserved(setup.cfg.mech->n_species());
  std::vector<double> global(static_cast<std::size_t>(nv) * NX * NY * NZ);
  GoldenRecord rec;
  const sv::Config& cfg = setup.cfg;

  trace::clear();
  trace::set_enabled(true);
  vmpi::run(px * py * pz, [&](vmpi::Comm& comm) {
    sv::Solver s(cfg, comm, px, py, pz);
    s.initialize(setup.init);
    s.run(nsteps);
    const auto& l = s.layout();
    const auto off = s.offset();
    for (int v = 0; v < nv; ++v) {
      const double* var = s.state().var(v);
      for (int k = 0; k < l.nz; ++k)
        for (int j = 0; j < l.ny; ++j)
          for (int i = 0; i < l.nx; ++i)
            global[static_cast<std::size_t>(v) * NX * NY * NZ +
                   static_cast<std::size_t>(off[2] + k) * NX * NY +
                   static_cast<std::size_t>(off[1] + j) * NX +
                   (off[0] + i)] = var[l.at(i, j, k)];
    }
    if (comm.rank() == 0) {
      rec.t_final_hex = hexfloat(s.time());
      rec.steps = s.steps_taken();
    }
    comm.barrier();
  });
  const auto summary = trace::summarize();
  trace::set_enabled(false);
  for (const auto& k : summary.kernels) rec.spans[k.name] = k.total_calls();
  trace::clear();

  const std::size_t pts = static_cast<std::size_t>(NX) * NY * NZ;
  for (int v = 0; v < nv; ++v)
    rec.checksums.push_back(s3d::hex64(s3d::fnv1a64(
        global.data() + static_cast<std::size_t>(v) * pts,
        pts * sizeof(double))));
  return rec;
}

inline std::string golden_path(const std::string& name) {
  return std::string(S3D_GOLDEN_DIR) + "/" + name + ".golden";
}

inline void save(const std::string& name, const GoldenRecord& rec) {
  std::ofstream f(golden_path(name));
  ASSERT_TRUE(f.good()) << "cannot write " << golden_path(name);
  f << "# S3D++ golden record for case '" << name << "'.\n"
    << "# Regenerate intentionally: S3D_GOLDEN_REFRESH=1 ctest -L golden\n"
    << "t " << rec.t_final_hex << "\n"
    << "steps " << rec.steps << "\n";
  for (std::size_t v = 0; v < rec.checksums.size(); ++v)
    f << "checksum " << v << " " << rec.checksums[v] << "\n";
  for (const auto& [kname, calls] : rec.spans)
    f << "span " << kname << " " << calls << "\n";
}

inline bool load(const std::string& name, GoldenRecord& rec) {
  std::ifstream f(golden_path(name));
  if (!f.good()) return false;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    if (key == "t") {
      ss >> rec.t_final_hex;
    } else if (key == "steps") {
      ss >> rec.steps;
    } else if (key == "checksum") {
      std::size_t idx;
      std::string sum;
      ss >> idx >> sum;
      rec.checksums.resize(std::max(rec.checksums.size(), idx + 1));
      rec.checksums[idx] = sum;
    } else if (key == "span") {
      std::string kname;
      long calls;
      ss >> kname >> calls;
      rec.spans[kname] = calls;
    }
  }
  return true;
}

inline void run_golden_case(const std::string& name,
                            const sv::CaseSetup& setup, int nsteps,
                            bool reacting,
                            std::array<int, 3> decomp = {4, 2, 1}) {
  const auto serial = run_case(setup, nsteps, 1, 1, 1);
  const auto parallel =
      run_case(setup, nsteps, decomp[0], decomp[1], decomp[2]);

  // Rank-count invariance is part of the harness contract: 1-rank and
  // multi-rank runs must agree bitwise before either is compared to disk.
  ASSERT_EQ(parallel.checksums, serial.checksums)
      << name << ": 1-rank and multi-rank fields diverged";
  EXPECT_EQ(parallel.t_final_hex, serial.t_final_hex);
  EXPECT_EQ(parallel.steps, serial.steps);

#ifndef S3D_TRACE_DISABLED
  // The instrumentation itself is under regression: the expected
  // subsystems and passes must have produced spans.
  for (const char* required :
       {"solver.step", "solver.rk_stage", "rhs.eval", "halo.exchange",
        "pass.grad", "pass.flux_assemble", "pass.flux_div"})
    EXPECT_TRUE(parallel.spans.count(required))
        << name << ": no trace spans from " << required;
  if (reacting) {
    EXPECT_TRUE(parallel.spans.count("chem.reaction_rate"))
        << name << ": chemistry ran untraced";
  }
#endif

  if (std::getenv("S3D_GOLDEN_REFRESH") != nullptr) {
    save(name, serial);
    GTEST_SKIP() << "golden record refreshed: " << golden_path(name);
  }

#ifdef S3D_SANITIZER_LANE
  // The committed record pins the *default* build's FP codegen;
  // sanitizer instrumentation perturbs instruction selection enough to
  // change the trajectory's bits. The within-build rank-invariance
  // contract above already ran at full strength — only the cross-build
  // disk comparison is skipped.
  GTEST_SKIP() << "golden records pin the default build's FP codegen";
#endif

  GoldenRecord gold;
  ASSERT_TRUE(load(name, gold))
      << "missing golden record " << golden_path(name)
      << " — generate with S3D_GOLDEN_REFRESH=1";
  EXPECT_EQ(serial.t_final_hex, gold.t_final_hex)
      << name << ": t_final drifted";
  EXPECT_EQ(serial.steps, gold.steps);
  ASSERT_EQ(serial.checksums.size(), gold.checksums.size());
  for (std::size_t v = 0; v < gold.checksums.size(); ++v)
    EXPECT_EQ(serial.checksums[v], gold.checksums[v])
        << name << ": field checksum drifted for variable " << v;
#ifndef S3D_TRACE_DISABLED
  EXPECT_EQ(serial.spans, gold.spans)
      << name << ": trace summary drifted (kernel set or counts)";
#endif
}

}  // namespace s3d_golden
