// s3d_perfbench: runs one benchmark workload and prints its raw record as
// one JSON line. Normally driven by perfbench/run.py, which builds this
// binary, turns the record into metrics and prints the result line.
//
//   s3d_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--work-dir DIR] [--trace-file PATH]
//   s3d_perfbench --list

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--list") {
      for (const auto& n : perfbench::workload_names())
        std::printf("%s\n", n.c_str());
      return 0;
    } else if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--work-dir") {
      o.work_dir = value();
    } else if (a == "--trace-file") {
      o.trace_file = value();
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return 2;
    }
  }
  if (o.workload.empty()) {
    std::fprintf(stderr, "usage: s3d_perfbench --workload NAME | --list\n");
    return 2;
  }
  try {
    return perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "s3d_perfbench: %s\n", e.what());
    return 1;
  }
}
