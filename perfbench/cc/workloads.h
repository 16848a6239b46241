// The benchmark's workloads and the pieces they share.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "sim/cost_model.h"
#include "sim/platform.h"
#include "sim/topology.h"

namespace perfbench {

/// Host threads that execute a platform's interpreted kernels (and its
/// OpenMP baseline). One, because the benchmark gets a few cores of a shared
/// host: a kernel split over as many threads as there are cores waits for
/// its slowest chunk, and so times the host's scheduler rather than accmg.
inline constexpr std::size_t kHostThreads = 1;

/// The supercomputer-node preset of Table I (Tesla M2050s, cross-IOH
/// topology, dual-Xeon host) with kHostThreads pool threads. The simulated
/// figures do not depend on the pool size, apart from the few instructions
/// bfs's benign write race adds when its chunks run concurrently.
inline std::unique_ptr<accmg::sim::Platform> MakeNode(int num_gpus) {
  namespace sim = accmg::sim;
  return std::make_unique<sim::Platform>(
      std::vector<sim::DeviceSpec>(static_cast<std::size_t>(num_gpus),
                                   sim::TeslaM2050()),
      sim::SupercomputerTopology(num_gpus), sim::DualXeonNode(),
      kHostThreads);
}

/// Set-up runs this many times per invocation; setup_s is the median.
inline constexpr int kSetupRepetitions = 11;
/// A measured window holds at least this many fig7-sweep passes.
inline constexpr int kMinPasses = 3;
/// Trace ring size per shard, large enough that a traced pass drops
/// nothing (the tracer's default of 16 Ki events wraps silently).
inline constexpr std::size_t kTraceShardCapacity = std::size_t{1} << 18;
/// Per-layer self times must add up to the benchmark's span around each
/// run within this share of it.
inline constexpr double kReconcileTolerance = 0.01;

WorkloadResult RunFig7Sweep(const RunOptions& options);
/// serve-warm (cold == false) or serve-cold (cold == true).
WorkloadResult RunServe(const RunOptions& options, bool cold);

/// Times frontend::ParseAndAnalyze and translator::Compile (default
/// options) on each (name, source), with the tracer on for the `optimize:`
/// spans, and adds the frontend.* and translator.* per-layer metrics:
/// mean milliseconds per source, and opt.* counts per source.
void AddCompileLayers(
    const std::vector<std::pair<std::string, std::string>>& sources,
    WorkloadResult& result);

}  // namespace perfbench
