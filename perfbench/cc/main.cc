// accmg benchmark binary.
//
//   perfbench --workload <fig7-sweep|serve-warm|serve-cold> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. The last line
// of standard output is the JSON result; the exit code is 0 only when every
// operation's output matched its reference. perfbench/run.py builds this
// binary and runs it under a wall-clock watchdog.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fig7-sweep|serve-warm|"
               "serve-cold> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();

  perfbench::WorkloadResult result;
  try {
    if (options.workload == "fig7-sweep") {
      result = perfbench::RunFig7Sweep(options);
    } else if (options.workload == "serve-warm") {
      result = perfbench::RunServe(options, /*cold=*/false);
    } else if (options.workload == "serve-cold") {
      result = perfbench::RunServe(options, /*cold=*/true);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    ++result.attempted;
    result.Fail(std::string("exception: ") + e.what());
  }
  perfbench::OrderBySchema(options, result);
  perfbench::PrintResult(options, result);
  // No teardown: platforms and services were handed to KeepUntilExit, and
  // static destructors must not run under their still-live threads.
  std::fflush(stdout);
  std::_Exit(result.correct() ? 0 : 1);
}
