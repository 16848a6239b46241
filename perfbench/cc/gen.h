// Seeded generators for the serve workloads: open-loop arrival schedules,
// job mixes, and the compile-heavy programs of serve-cold together with
// their expected results computed in plain C++ (never by accmg itself).
//
// Everything here is a pure function of its seed arguments, so the same
// --seed gives the same arrival times, the same app mix and the same
// generated programs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

/// Uniform double in [0, 1) from a SplitMix64 stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double Uniform();
  /// Uniform integer in [lo, hi].
  int Between(int lo, int hi);

 private:
  std::uint64_t state_;
};

/// Due times (seconds after the schedule starts) of `count` Poisson
/// arrivals at `rate` per second: exponential gaps, cumulative.
std::vector<double> PoissonArrivals(std::uint64_t seed, double rate,
                                    std::size_t count);

/// Open-loop generator: calls submit(j) for each job at start + due_s[j]
/// (due_s ascending), never waiting for earlier jobs to finish, and returns
/// each job's lateness in seconds (the call time minus the due time). A
/// slow submit delays the calls after it; their lateness shows it.
std::vector<double> RunSchedule(
    const std::vector<double>& due_s, Clock::time_point start,
    const std::function<void(std::size_t)>& submit);

/// A job's latency in ms, timed from its due time (not from when it was
/// actually submitted), so generator stalls count against the system.
double LatencyFromDueMs(Clock::time_point start, double due_s,
                        Clock::time_point finish);

/// `count` draws uniform over [0, kinds).
std::vector<int> MixChoices(std::uint64_t seed, std::size_t count, int kinds);

/// One generated serve-cold program: `loops` parallel loops, each with a
/// 16-statement straight-line body over a[i] and b[i], every constant a
/// multiple of 1/8 so the source text and the C++ evaluation agree exactly.
struct ColdProgram {
  int loops = 0;
  std::vector<float> loop_constants;  ///< per loop, the t0 offset
  std::string source;                 ///< function "coldjob"
};

/// How many loops a generated program has: uniform over [min, max], except
/// that a `big_share` of the programs have `big` loops instead.
struct LoopMix {
  int min = 0;
  int max = 0;
  double big_share = 0;
  int big = 0;

  /// Every loop count a program can have, ascending.
  std::vector<int> Counts() const;
};

/// Loop count drawn from `mix` by the seed; the first loop's constant
/// encodes `job`, so distinct jobs have distinct sources (and distinct
/// program-cache keys).
ColdProgram MakeColdProgram(std::uint64_t seed, std::uint64_t job,
                            const LoopMix& mix);

/// Applies the program to `a` in place (plain float arithmetic, in the
/// source's evaluation order).
void EvaluateColdProgram(const ColdProgram& program, std::vector<float>& a,
                         const std::vector<float>& b);

}  // namespace perfbench
