// Golden pins for the two scenarios introduced with the plugin registry
// (DESIGN.md §15), built THROUGH ScenarioRegistry::build rather than the
// case factories — so the registry's typed-override path (string parse,
// range check, Config::validate) is itself under bitwise regression, on
// top of the usual 1-vs-8-rank pin from golden_common.hpp.
//
// counterflow_ignition: both x faces NSCBC (non-periodic), y periodic;
// 32x24 over {4,2,1} keeps every local extent above the ghost width.
// hit_autoignition: fully periodic 2-D box; 32x32 over {4,2,1}.

#include "golden_common.hpp"

#include "solver/scenario.hpp"

namespace sv = s3d::solver;
using s3d_golden::run_golden_case;

TEST(GoldenScenarios, CounterflowIgnitionTiny) {
  const auto cs = sv::ScenarioRegistry::instance().build(
      "counterflow_ignition", {{"nx", "32"},
                               {"ny", "24"},
                               {"Lx", "0.004"},
                               {"Ly", "0.002"}});
  run_golden_case("counterflow_tiny", cs, 3, true);
}

TEST(GoldenScenarios, HitAutoignitionTiny) {
  const auto cs = sv::ScenarioRegistry::instance().build(
      "hit_autoignition", {{"n", "32"}, {"L", "0.002"}});
  run_golden_case("hit_autoignition_tiny", cs, 3, true);
}
