#pragma once
// The benchmark's workloads: each runs one registry scenario through the
// same public calls scenario_runner makes and emits one JSON record of raw
// measurements (step-time samples, setup samples, per-layer accessor
// totals, correctness verdicts, host fingerprint). perfbench/run.py turns
// the record into the reported metrics.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";    ///< scratch space for checkpoints/analysis
  std::string trace_file;        ///< Chrome-trace output (traced runs)
};

std::vector<std::string> workload_names();

/// Run one workload; prints the JSON record as the last stdout line.
/// Returns the process exit code (0 also when a correctness check failed:
/// the verdict is part of the record).
int run_workload(const Options& o);

}  // namespace perfbench
