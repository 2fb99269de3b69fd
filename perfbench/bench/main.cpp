// perfbench: the in-process half of the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//   perfbench --pin --workload <name>
//
// Trace 0 measures one workload end to end and runs its small fixed-seed
// self-check; trace 1 runs the traced per-layer passes of every layer and
// every self-check. --pin runs one self-check (the pin sets are the two
// workloads plus admit-ds-grow and analysis-grid, which only the traced
// run measures).
// Prints one JSON object; run.py turns it into the benchmark's result
// line after its own cross-checks (see README.md).
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--out <dir> | --pin --workload <name>\n";
  return 64;
}

bool is_workload(const std::string& name) {
  return name == kAdmitPmChurn || name == kSimFaultLadder;
}

bool is_pin_set(const std::string& name) {
  return is_workload(name) || name == kAdmitDsGrow || name == kAnalysisGrid;
}

void selfcheck(const std::string& workload, bool pin, Report& report) {
  if (workload == kSimFaultLadder) {
    selfcheck_sim(report);
  } else if (workload == kAnalysisGrid) {
    selfcheck_grid(report);
  } else {
    selfcheck_admission(workload, pin, report);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--pin") {
      options.pin = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!(options.pin ? is_pin_set(options.workload) : is_workload(options.workload))) {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (!options.pin && options.out_dir.empty()) return usage("--out is required");

  try {
    Report report;
    if (options.pin) {
      selfcheck(options.workload, true, report);
      std::cout << report.to_json() << std::endl;
      return 0;
    }
    std::filesystem::create_directories(options.out_dir);
    if (options.trace) {
      Tracer tracer;
      trace_admission(options, tracer, report);
      trace_sim(options, tracer, report);
      trace_grid(options, tracer, report);
      for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
        report.metrics[layer + ".self_ms"] = ms;
      }
      report.metrics["trace.spans"] = static_cast<double>(tracer.spans().size());
      const std::string path = options.out_dir + "/spans.tsv";
      tracer.write(path);
      report.strings["spans_path"] = path;
      for (const char* name : {kAdmitDsGrow, kAdmitPmChurn, kSimFaultLadder, kAnalysisGrid}) {
        selfcheck(name, false, report);
      }
    } else {
      if (options.workload == kSimFaultLadder) {
        run_sim(options, report);
      } else {
        run_admission(options, report);
      }
      selfcheck(options.workload, false, report);
    }
    std::cout << report.to_json() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
