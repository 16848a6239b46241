#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void WorkloadResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

void WorkloadResult::Add(std::string name, double value, std::string unit,
                         std::size_t samples, std::string note) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit), samples,
                           std::move(note)});
}

namespace {

/// Enough decimal digits to read back as the same double ("all its digits").
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

const std::vector<std::string>& Fig7AppNames() {
  static const std::vector<std::string> names = {"md", "kmeans", "bfs",
                                                 "heat2d", "lattice"};
  return names;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndSchema() {
  static const std::vector<std::pair<std::string, std::string>> schema = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"sim_speedup_gmean", "x"},
      {"peak_rss_mb", "MiB"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"max_rate_jobs_per_s", "1/s"},
  };
  return schema;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerSchema() {
  static const std::vector<std::pair<std::string, std::string>> schema = [] {
    std::vector<std::pair<std::string, std::string>> s = {
        {"ir.kernel_ms", "ms"},
        {"ir.cpu_baseline_ms", "ms"},
        {"ir.sim_per_wall", "s/s"},
        {"runtime.host_ms", "ms"},
        {"runtime.loader_ms", "ms"},
        {"runtime.loader_skip_ratio", "ratio"},
        {"runtime.dirty_merge_ms", "ms"},
        {"runtime.miss_flush_ms", "ms"},
        {"runtime.halo_ms", "ms"},
        {"runtime.dirty_chunks_sent", "count"},
        {"runtime.clean_chunks_skipped", "count"},
        {"runtime.miss_records_replayed", "count"},
        {"runtime.halo_refreshes", "count"},
    };
    for (const std::string& app : Fig7AppNames()) {
      s.push_back({"sim.kernel_s." + app, "s"});
      s.push_back({"sim.cpu_gpu_s." + app, "s"});
      s.push_back({"sim.gpu_gpu_s." + app, "s"});
      s.push_back({"sim.p2p_bytes." + app, "bytes"});
      s.push_back({"sim.h2d_bytes." + app, "bytes"});
      s.push_back({"sim.kernel_launches." + app, "count"});
    }
    for (auto entry : std::vector<std::pair<std::string, std::string>>{
             {"sim.time_drift", "ratio"},
             {"frontend.parse_ms", "ms"},
             {"translator.compile_ms", "ms"},
             {"translator.optimize_ms", "ms"},
             {"translator.fusions", "count"},
             {"translator.bailouts", "count"},
             {"service.pre_run_ms", "ms"},
             {"service.run_ms", "ms"},
             {"service.run_lock_wait_ms", "ms"},
             {"service.cache_hit_ratio", "ratio"},
             {"service.cache_evictions", "count"},
             {"service.batched_jobs", "count"},
             {"service.arena_wait_ms", "ms"},
             {"service.rejects", "count"},
             {"apps.input_gen_s", "s"},
             {"apps.reference_ms", "ms"},
             {"loadgen.late_ms_p99", "ms"},
             {"trace.dropped", "count"},
             {"trace.overhead", "x"},
             {"trace.reconcile_error", "ratio"},
         }) {
      s.push_back(std::move(entry));
    }
    return s;
  }();
  return schema;
}

void OrderBySchema(const RunOptions& options, WorkloadResult& result) {
  const auto& schema = options.trace ? PerLayerSchema() : EndToEndSchema();
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : schema) {
    auto it = std::find_if(result.metrics.begin(), result.metrics.end(),
                           [&](const Metric& m) { return m.name == name; });
    if (it == result.metrics.end()) {
      if (!options.trace) result.Fail("internal: no value for " + name);
      ordered.push_back(Metric{name, 0, unit, 0, "layer idle here"});
      continue;
    }
    if (it->unit != unit) result.Fail("internal: unit of " + name);
    if (!std::isfinite(it->value)) result.Fail("no finite value for " + name);
    ordered.push_back(std::move(*it));
    result.metrics.erase(it);
  }
  for (const Metric& extra : result.metrics) {
    result.Fail("internal: metric outside the schema: " + extra.name);
  }
  result.metrics = std::move(ordered);
}

void PrintResult(const RunOptions& options, const WorkloadResult& result) {
  std::printf("\nworkload %s  seed %llu  %s run  (%gs window)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced per-layer" : "end-to-end",
              options.seconds);
  std::printf("%-34s %16s  %-7s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : result.metrics) {
    std::printf("%-34s %16.6g  %-7s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  std::printf("operations: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& e : result.errors) {
    std::printf("  failure: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + Escape(m.name) + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + Escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintProgress(std::uint64_t attempted, std::uint64_t completed) {
  std::printf("progress attempted=%llu completed=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(completed));
  std::fflush(stdout);
}

void KeepUntilExit(std::shared_ptr<void> object) {
  static auto* kept = new std::vector<std::shared_ptr<void>>;
  kept->push_back(std::move(object));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
