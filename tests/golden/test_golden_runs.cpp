// Golden-run regression harness for the direct case factories.
//
// The shared machinery (record format, 1-vs-8-rank bitwise pin,
// trace-summary comparison, S3D_GOLDEN_REFRESH) lives in
// golden_common.hpp; this file only selects the cases. Any drift —
// numerics, chemistry, halo exchange, RNG, instrumentation coverage —
// fails the test.

#include "golden_common.hpp"

namespace sv = s3d::solver;
using s3d_golden::run_golden_case;

TEST(GoldenRuns, LiftedJetTiny) {
  sv::LiftedJetParams p;
  p.nx = 32;
  p.ny = 24;
  run_golden_case("lifted_jet_tiny", sv::lifted_jet_case(p), 3, true);
}

TEST(GoldenRuns, BunsenTiny) {
  sv::BunsenParams p;
  p.nx = 32;
  p.ny = 24;
  run_golden_case("bunsen_tiny", sv::bunsen_case(p), 3, true);
}

TEST(GoldenRuns, PressureWaveTiny) {
  // Non-reacting control: isolates numerics/halo drift from chemistry.
  // 16^3 over 2x2x2 keeps every local extent above the ghost width.
  run_golden_case("pressure_wave_tiny", sv::pressure_wave_case(16), 3,
                  false, {2, 2, 2});
}
