// ucpbench: the repository benchmark. One workload per process:
//
//   ucpbench --workload grid|large|serve --seed N --seconds S --trace 0|1
//            --work-dir DIR
//
// Without --trace the last stdout line is the JSON result with the
// end-to-end metrics; with --trace 1 the run repeats the workload with one
// span per layer call and reports the per-layer metrics instead. Exit code
// 0 only when every correctness check passed.

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ucpbench: " << why << "\n"
            << "usage: ucpbench --workload grid|large|serve --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n";
  std::exit(2);
}

ucpbench::Args parse(int argc, char** argv) {
  ucpbench::Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--work-dir") {
        args.work_dir = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  if (args.work_dir.empty()) usage("--work-dir is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const ucpbench::Args args = parse(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  ucpbench::Report report;
  try {
    if (args.workload == "grid")
      report = ucpbench::run_grid(args);
    else if (args.workload == "large")
      report = ucpbench::run_large(args);
    else if (args.workload == "serve")
      report = ucpbench::run_serve(args);
    else
      usage("unknown workload '" + args.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "ucpbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  report.print();
  return report.correct ? 0 : 1;
}
