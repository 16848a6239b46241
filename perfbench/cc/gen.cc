#include "gen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

namespace perfbench {

std::uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

int Rng::Between(int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<int>(Next() % span);
}

std::vector<double> PoissonArrivals(std::uint64_t seed, double rate,
                                    std::size_t count) {
  Rng rng(DeriveSeed(seed, 0xA77));
  std::vector<double> due(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log1p(-rng.Uniform()) / rate;
    due[i] = t;
  }
  return due;
}

namespace {

Clock::time_point At(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

}  // namespace

std::vector<double> RunSchedule(
    const std::vector<double>& due_s, Clock::time_point start,
    const std::function<void(std::size_t)>& submit) {
  std::vector<double> late_s(due_s.size());
  for (std::size_t j = 0; j < due_s.size(); ++j) {
    const Clock::time_point due = At(start, due_s[j]);
    std::this_thread::sleep_until(due);
    late_s[j] = SecondsBetween(due, Clock::now());
    submit(j);
  }
  return late_s;
}

double LatencyFromDueMs(Clock::time_point start, double due_s,
                        Clock::time_point finish) {
  return 1e3 * SecondsBetween(At(start, due_s), finish);
}

std::vector<int> MixChoices(std::uint64_t seed, std::size_t count, int kinds) {
  Rng rng(DeriveSeed(seed, 0x313));
  std::vector<int> picks(count);
  for (int& p : picks) p = rng.Between(0, kinds - 1);
  return picks;
}

namespace {

std::string FloatLiteral(float v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3ff", static_cast<double>(v));
  return buf;
}

constexpr int kStatements = 16;

}  // namespace

std::vector<int> LoopMix::Counts() const {
  std::vector<int> counts;
  for (int loops = min; loops <= max; ++loops) counts.push_back(loops);
  if (big_share > 0 && (big < min || big > max)) {
    counts.push_back(big);
    std::sort(counts.begin(), counts.end());
  }
  return counts;
}

ColdProgram MakeColdProgram(std::uint64_t seed, std::uint64_t job,
                            const LoopMix& mix) {
  Rng rng(DeriveSeed(DeriveSeed(seed, 0xC01D), job));
  ColdProgram program;
  program.loops = rng.Between(mix.min, mix.max);
  if (mix.big_share > 0 && rng.Uniform() < mix.big_share) {
    program.loops = mix.big;
  }
  for (int k = 0; k < program.loops; ++k) {
    // Multiples of 1/8 below 2^20 are exact in float and print exactly.
    const float c = k == 0 ? static_cast<float>(job % (1u << 20)) / 8.0f
                           : static_cast<float>(k) +
                                 static_cast<float>(rng.Between(0, 7)) / 8.0f;
    program.loop_constants.push_back(c);
  }

  std::ostringstream os;
  os << "void coldjob(int n, float* a, float* b) {\n";
  os << "  #pragma acc data copy(a[0:n]) copyin(b[0:n])\n  {\n";
  for (int k = 0; k < program.loops; ++k) {
    os << "    #pragma acc localaccess(a: stride(1))\n"
       << "    #pragma acc parallel loop\n"
       << "    for (int i = 0; i < n; i++) {\n"
       << "      float t0 = a[i] * 0.5f + b[i] + "
       << FloatLiteral(program.loop_constants[k]) << ";\n";
    for (int s = 1; s <= kStatements; ++s) {
      os << "      float t" << s << " = t" << s - 1 << " * 1.0625f - b[i] * "
         << s << ".5f + " << s << ".25f;\n";
    }
    os << "      a[i] = t16 * 0.125f + t8 * 0.25f + t0 * 0.5f;\n"
       << "    }\n";
  }
  os << "  }\n}\n";
  program.source = os.str();
  return program;
}

void EvaluateColdProgram(const ColdProgram& program, std::vector<float>& a,
                         const std::vector<float>& b) {
  for (int k = 0; k < program.loops; ++k) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      float t[kStatements + 1];
      t[0] = a[i] * 0.5f + b[i] + program.loop_constants[k];
      for (int s = 1; s <= kStatements; ++s) {
        t[s] = t[s - 1] * 1.0625f - b[i] * (static_cast<float>(s) + 0.5f) +
               (static_cast<float>(s) + 0.25f);
      }
      a[i] = t[16] * 0.125f + t[8] * 0.25f + t[0] * 0.5f;
    }
  }
}

}  // namespace perfbench
