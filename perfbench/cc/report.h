// What one benchmark invocation reports, and how it prints it.
//
// Every metric carries its unit and the number of samples behind it; the
// human-readable table goes first, and the last line of standard output is
// the machine-readable JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< length of the measured window
  bool trace = false;   ///< per-layer (traced) run instead of end-to-end
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  ///< e.g. which percentile a tail figure is
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<Metric> metrics;  ///< in the order added

  void Fail(const std::string& what);
  void Add(std::string name, double value, std::string unit,
           std::size_t samples = 1, std::string note = "");
  bool correct() const { return failed == 0 && errors.empty(); }
};

/// The end-to-end metrics every workload reports, in order, with units.
const std::vector<std::pair<std::string, std::string>>& EndToEndSchema();
/// The per-layer metrics every traced run reports, in order, with units.
/// A layer a workload does not exercise reads 0 there.
const std::vector<std::pair<std::string, std::string>>& PerLayerSchema();

/// The five Fig. 7 applications, in report order.
const std::vector<std::string>& Fig7AppNames();

/// Puts `result.metrics` into schema order (trace selects the schema). A
/// per-layer metric the workload did not report reads 0; a missing
/// end-to-end metric, a non-finite value, a unit that differs from the
/// schema or a name outside it is recorded as a failure.
void OrderBySchema(const RunOptions& options, WorkloadResult& result);

/// Prints the table and then the JSON line.
void PrintResult(const RunOptions& options, const WorkloadResult& result);

/// Prints (and flushes) "progress attempted=A completed=C": operations
/// started so far and those that finished correctly. If the process hangs
/// or dies, the watchdog in run.py counts the difference as failed.
void PrintProgress(std::uint64_t attempted, std::uint64_t completed);

/// Host peak resident set size of this process, in MiB.
double PeakRssMb();

/// Hands `object` to the process: it is never destroyed, and its threads
/// end when the process does (main leaves through std::_Exit). Platforms
/// and services go here instead of being destroyed, because their
/// destructors join worker threads, and the thread pool's RunTasks race
/// (ROADMAP item 1) can leave a pool worker blocked forever on a destroyed
/// mutex: the join would hang a run whose operations all completed.
/// Operations still run into that race; teardown is not an operation.
void KeepUntilExit(std::shared_ptr<void> object);

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Stable 64-bit mix of a seed and a stream id (SplitMix64), so every
/// generated input derives from the run's --seed alone.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
