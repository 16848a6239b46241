// fig7-sweep: one closed-loop caller runs the Fig. 7 version matrix
// (OpenMP, CUDA(1), Prop(1..3)) for md, kmeans, bfs, heat2d and lattice on
// the supercomputer-node preset, pass after pass.
//
// Set-up (timed as setup_s, median of several repetitions): seeded input
// generation, platform creation and the first compile of every app source.
// A warm-up pass on a platform of its own then fills the compile cache,
// checks every output against the apps' native references and records the
// simulated figures every later pass must repeat.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/bfs/bfs.h"
#include "apps/heat2d/heat2d.h"
#include "apps/kmeans/kmeans.h"
#include "apps/lattice/lattice.h"
#include "apps/md/md.h"
#include "check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "layers.h"
#include "report.h"
#include "runtime/program.h"
#include "sim/platform.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace runtime = accmg::runtime;
namespace sim = accmg::sim;
namespace apps = accmg::apps;
namespace trace = accmg::trace;

namespace {

constexpr int kOpenMp = 0;
constexpr int kCuda = -1;
constexpr int kMaxGpus = 3;
const int kVersions[] = {kOpenMp, kCuda, 1, 2, 3};

std::string VersionName(int v) {
  if (v == kOpenMp) return "OpenMP";
  if (v == kCuda) return "CUDA(1)";
  return "Prop(" + std::to_string(v) + ")";
}

/// Input sizes, for kHostThreads pool threads. No app takes more than about
/// a third of a pass, and md, bfs, heat2d and lattice runs take about the
/// same time (~30 ms here), so the median run latency sits inside that
/// group rather than on the edge between two apps.
struct Sizes {
  int md_atoms = 1100;
  int kmeans_points = 460;
  int kmeans_iterations = 6;
  int bfs_nodes = 4800;
  int heat_rows = 36;
  int heat_cols = 256;
  int lattice_rows = 30;
  int lattice_cols = 192;
};

struct AppCase {
  std::string name;
  const std::string* source = nullptr;
  /// Runs one version; the output lands in the case's own buffer.
  std::function<runtime::RunReport(sim::Platform&, int version)> run;
  std::function<void()> make_reference;
  /// Compares the last run's output with the reference ("" on a match).
  std::function<std::string()> check_last;
};

template <typename In, typename Out>
AppCase MakeCase(
    std::string name, const std::string& source, In input,
    Out (*reference)(const In&),
    runtime::RunReport (*acc)(const In&, sim::Platform&, int, Out*,
                              const runtime::ExecOptions&,
                              const accmg::translator::CompileOptions&),
    runtime::RunReport (*omp)(const In&, sim::Platform&, Out*),
    runtime::RunReport (*cuda)(const In&, sim::Platform&, Out*),
    std::string (*compare)(const Out&, const Out&)) {
  struct State {
    In input;
    Out out, want;
  };
  auto st = std::make_shared<State>();
  st->input = std::move(input);
  AppCase c;
  c.name = std::move(name);
  c.source = &source;
  c.run = [st, acc, omp, cuda](sim::Platform& p, int v) {
    if (v == kOpenMp) return omp(st->input, p, &st->out);
    if (v == kCuda) return cuda(st->input, p, &st->out);
    return acc(st->input, p, v, &st->out, {}, {});
  };
  c.make_reference = [st, reference] { st->want = reference(st->input); };
  c.check_last = [st, compare] { return compare(st->out, st->want); };
  return c;
}

std::string CompareFloats(const std::vector<float>& a,
                          const std::vector<float>& b) {
  return CompareExact(a, b);
}
std::string CompareInts(const std::vector<std::int32_t>& a,
                        const std::vector<std::int32_t>& b) {
  return CompareExact(a, b);
}
std::string CompareKmeans(const apps::KmeansResult& a,
                          const apps::KmeansResult& b) {
  // Memberships match exactly; chunked reductions reorder centroid sums.
  std::string d = CompareExact(a.membership, b.membership);
  return d.empty() ? CompareNear(a.centroids, b.centroids, 2e-3) : d;
}

std::vector<AppCase> MakeCases(std::uint64_t seed, const Sizes& s) {
  std::vector<AppCase> cases;
  cases.push_back(MakeCase("md", apps::MdSource(),
                           apps::MakeMdInput(s.md_atoms, 128,
                                             DeriveSeed(seed, 1)),
                           apps::MdReference, apps::RunMdAcc,
                           apps::RunMdOpenMp, apps::RunMdCuda, CompareFloats));
  cases.push_back(MakeCase(
      "kmeans", apps::KmeansSource(),
      apps::MakeKmeansInput(s.kmeans_points, 34, 5, s.kmeans_iterations,
                            DeriveSeed(seed, 2)),
      apps::KmeansReference, apps::RunKmeansAcc, apps::RunKmeansOpenMp,
      apps::RunKmeansCuda, CompareKmeans));
  cases.push_back(MakeCase("bfs", apps::BfsSource(),
                           apps::MakeBfsInput(s.bfs_nodes, 104,
                                              DeriveSeed(seed, 3)),
                           apps::BfsReference, apps::RunBfsAcc,
                           apps::RunBfsOpenMp, apps::RunBfsCuda, CompareInts));
  cases.push_back(MakeCase(
      "heat2d", apps::Heat2dSource(),
      apps::MakeHeat2dInput(s.heat_rows, s.heat_cols, 10,
                            DeriveSeed(seed, 4)),
      apps::Heat2dReference, apps::RunHeat2dAcc, apps::RunHeat2dOpenMp,
      apps::RunHeat2dCuda, CompareFloats));
  cases.push_back(MakeCase(
      "lattice", apps::LatticeSource(),
      apps::MakeLatticeInput(s.lattice_rows, s.lattice_cols, 12,
                             DeriveSeed(seed, 5)),
      apps::LatticeReference, apps::RunLatticeAcc, apps::RunLatticeOpenMp,
      apps::RunLatticeCuda, CompareFloats));
  return cases;
}

/// Relative tolerance on repeated simulated times. The counts (bytes,
/// transfers, launches, offloads) must repeat exactly; simulated time may
/// not: bfs's benign write race makes the interpreted instruction count,
/// and so kernel time, vary by a few instructions from run to run. The
/// largest drift seen is reported as sim.time_drift.
constexpr double kSimTimeTolerance = 1e-4;

/// Largest relative difference between the simulated times of two runs of
/// the same version, or +inf when a count differs.
double SimDrift(const runtime::RunReport& a, const runtime::RunReport& b) {
  if (!(a.counters == b.counters) ||
      a.kernel_executions != b.kernel_executions) {
    return std::numeric_limits<double>::infinity();
  }
  double drift = 0;
  auto compare = [&](double x, double y) {
    if (x != y) drift = std::max(drift, std::fabs(x - y) / std::fabs(y));
  };
  for (int c = 0; c < sim::kNumTimeCategories; ++c) {
    const auto cat = static_cast<sim::TimeCategory>(c);
    compare(a.time[cat], b.time[cat]);
  }
  compare(a.total_seconds, b.total_seconds);
  return drift;
}

/// Wall seconds one pass is budgeted at when --seconds is turned into a
/// pass count: 40 passes (1000 runs, so p99 has 10 beyond) for 45 s. A
/// pass took 0.7-0.85 s on a 4-core x86-64 host; the budget leaves room
/// for a slower or busier one.
constexpr double kNominalPassSeconds = 1.125;

struct Op {
  std::size_t app;
  int version;
};

std::vector<Op> PassOrder(std::size_t apps) {
  std::vector<Op> ops;
  for (std::size_t a = 0; a < apps; ++a) {
    for (const int v : kVersions) ops.push_back({a, v});
  }
  return ops;
}

/// Per-pass figures of a traced pass.
struct TracedPass {
  LayerTimes layers;
  double cpu_baseline_us = 0;
  double sim_kernel_s = 0;
  double max_reconcile_error = 0;
};

struct Setup {
  std::vector<AppCase> cases;
  std::shared_ptr<sim::Platform> platform;  ///< kept until exit
  double input_gen_s = 0;
};

Setup DoSetup(std::uint64_t seed) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  s.cases = MakeCases(seed, Sizes{});
  s.input_gen_s = SecondsBetween(t0, Clock::now());
  s.platform = MakeNode(kMaxGpus);
  KeepUntilExit(s.platform);
  // Uncached, so that every repetition pays the first compile.
  for (const AppCase& c : s.cases) {
    runtime::AccProgram::FromSource(c.name, *c.source);
  }
  return s;
}

}  // namespace

WorkloadResult RunFig7Sweep(const RunOptions& options) {
  WorkloadResult result;
  const std::vector<Op> ops_per_pass = PassOrder(Fig7AppNames().size());

  // --- Set-up, repeated; the last repetition's state is kept. ---
  std::vector<double> setup_s, input_gen_s;
  Setup setup;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const Clock::time_point t0 = Clock::now();
    setup = DoSetup(options.seed);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    input_gen_s.push_back(setup.input_gen_s);
  }
  std::vector<AppCase>& cases = setup.cases;

  const Clock::time_point ref_start = Clock::now();
  for (AppCase& c : cases) c.make_reference();
  const double reference_ms = 1e3 * SecondsBetween(ref_start, Clock::now());

  // --- Warm-up pass on a platform of its own: fills the compile cache,
  // checks outputs, and pins the simulated figures. ---
  std::map<std::pair<std::size_t, int>, runtime::RunReport> pinned;
  PrintProgress(ops_per_pass.size(), 0);
  std::shared_ptr<sim::Platform> fresh = MakeNode(kMaxGpus);
  KeepUntilExit(fresh);
  for (const Op& op : ops_per_pass) {
    ++result.attempted;
    pinned[{op.app, op.version}] = cases[op.app].run(*fresh, op.version);
    const std::string bad = cases[op.app].check_last();
    if (!bad.empty()) {
      result.Fail(cases[op.app].name + " " + VersionName(op.version) +
                  " output: " + bad);
    }
  }
  std::vector<double> speedups;
  for (std::size_t a = 0; a < cases.size(); ++a) {
    speedups.push_back(pinned[{a, kOpenMp}].total_seconds /
                       pinned[{a, kMaxGpus}].total_seconds);
  }

  double max_drift = 0;
  std::map<std::pair<std::size_t, int>, std::vector<double>> per_op;
  // One pass over the matrix on the set-up platform. Output and simulated
  // figures are checked after each run, outside its timed interval.
  auto run_pass = [&](bool traced, TracedPass* tp) {
    PrintProgress(result.attempted + ops_per_pass.size(),
                  result.attempted - result.failed);
    double pass_s = 0;
    for (const Op& op : ops_per_pass) {
      ++result.attempted;
      AppCase& c = cases[op.app];
      const double w0 = trace::Tracer::WallNowMicros();
      const Clock::time_point t0 = Clock::now();
      const runtime::RunReport report = c.run(*setup.platform, op.version);
      const double seconds = SecondsBetween(t0, Clock::now());
      const double w1 = trace::Tracer::WallNowMicros();
      pass_s += seconds;
      per_op[{op.app, op.version}].push_back(seconds);
      if (traced) {
        trace::Event span;
        span.name = "bench:" + c.name + "/" + VersionName(op.version);
        span.category = "bench";
        span.start_us = w0;
        span.duration_us = w1 - w0;
        trace::Tracer::Global().Record(std::move(span));
        if (op.version == kOpenMp) tp->cpu_baseline_us += w1 - w0;
        if (op.version >= 1) {
          tp->sim_kernel_s += report.time[sim::TimeCategory::kKernel];
        }
      }
      std::string bad = c.check_last();
      const double drift = SimDrift(report, pinned[{op.app, op.version}]);
      if (bad.empty() && drift > kSimTimeTolerance) {
        bad = std::isinf(drift) ? "simulated counts differ from warm-up"
                                : "simulated time drifted from warm-up";
      }
      if (std::isfinite(drift)) max_drift = std::max(max_drift, drift);
      if (!bad.empty()) {
        result.Fail(c.name + " " + VersionName(op.version) + ": " + bad);
      }
    }
    return pass_s;
  };

  const Clock::time_point window_start = Clock::now();
  auto window_open = [&](int passes) {
    return passes < kMinPasses ||
           SecondsBetween(window_start, Clock::now()) < options.seconds;
  };

  if (!options.trace) {
    // A fixed number of passes per --seconds, so that every run has the
    // same sample count and its tail percentile is the same percentile.
    const int passes = std::max(
        kMinPasses, static_cast<int>(options.seconds / kNominalPassSeconds));
    std::vector<double> pass_s;
    while (static_cast<int>(pass_s.size()) < passes) {
      pass_s.push_back(run_pass(false, nullptr));
    }
    std::printf("pass seconds:");
    for (const double p : pass_s) std::printf(" %.3f", p);
    std::printf("\n");
    std::vector<double> op_s;
    for (const auto& [key, seconds] : per_op) {
      op_s.insert(op_s.end(), seconds.begin(), seconds.end());
    }
    std::printf("%-8s %-8s %10s %12s %10s\n", "app", "version", "wall ms",
                "sim ms", "sim x");
    for (const auto& [key, seconds] : per_op) {
      const runtime::RunReport& r = pinned[key];
      std::printf("%-8s %-8s %10.2f %12.4f %10.3f\n",
                  cases[key.first].name.c_str(),
                  VersionName(key.second).c_str(), 1e3 * Median(seconds),
                  1e3 * r.total_seconds,
                  pinned[{key.first, kOpenMp}].total_seconds / r.total_seconds);
    }
    const Tail tail = HighestTail(op_s);
    result.Add("setup_s", Median(setup_s), "s", setup_s.size());
    result.Add("wall_s", Median(pass_s), "s", pass_s.size(),
               "median seconds per Fig. 7 pass");
    result.Add("sim_speedup_gmean", GeoMean(speedups), "x", speedups.size(),
               "OpenMP / Prop(3), simulated");
    result.Add("peak_rss_mb", PeakRssMb(), "MiB");
    result.Add("latency_p50_ms", 1e3 * Median(op_s), "ms", op_s.size(),
               "per version run");
    result.Add("latency_p99_ms", 1e3 * tail.value, "ms", op_s.size(),
               "p" + std::to_string(tail.percentile) + ", " +
                   std::to_string(tail.beyond) + " beyond");
    // From the median pass, like wall_s: a mean over the whole window
    // would follow every stall of the shared host.
    result.Add("max_rate_jobs_per_s",
               static_cast<double>(ops_per_pass.size()) / Median(pass_s),
               "1/s", pass_s.size(),
               "closed loop: version runs per second of the median pass");
    return result;
  }

  // --- Traced run: untraced and traced passes alternate. ---
  auto& tracer = trace::Tracer::Global();
  auto& registry = accmg::metrics::Registry::Global();
  const std::vector<std::string> counter_names = {
      "comm.dirty_chunks_sent",  "comm.clean_chunks_skipped",
      "comm.miss_records_replayed", "comm.halo_refreshes",
      "loader.loads_performed",  "loader.loads_skipped"};
  std::map<std::string, double> counter_totals;
  std::vector<double> plain_s, traced_s;
  TracedPass total;
  std::uint64_t dropped = 0;
  int traced_passes = 0;
  while (window_open(traced_passes)) {
    plain_s.push_back(run_pass(false, nullptr));

    std::map<std::string, std::uint64_t> before;
    for (const auto& n : counter_names) before[n] = registry.counter(n).value();
    tracer.set_shard_capacity(kTraceShardCapacity);
    tracer.Clear();
    tracer.set_enabled(true);
    TracedPass tp;
    traced_s.push_back(run_pass(true, &tp));
    tracer.set_enabled(false);
    ++traced_passes;
    dropped += tracer.dropped();
    for (const auto& n : counter_names) {
      counter_totals[n] += static_cast<double>(registry.counter(n).value() -
                                               before[n]);
    }

    const std::vector<trace::Event> events = tracer.Snapshot();
    std::uint64_t sim_kernel_spans = 0;
    for (const trace::Event& e : events) {
      if (e.timeline == trace::Timeline::kSim &&
          e.category == trace::category::kKernel) {
        ++sim_kernel_spans;
      }
    }
    std::uint64_t launches = 0, offloads = 0;
    for (const trace::Event& e : events) {
      if (e.category != "bench") continue;
      const Interval window{e.start_us, e.start_us + e.duration_us};
      const bool proposal = e.name.find("/Prop(") != std::string::npos;
      if (!proposal) continue;
      const LayerTimes lt = Attribute(EventsInside(events, window), window);
      if (lt.run_spans == 0) result.Fail("traced run without a run: span");
      tp.max_reconcile_error =
          std::max(tp.max_reconcile_error,
                   std::fabs(lt.SumUs() - lt.window_us) / lt.window_us);
      if (!lt.Reconciles(kReconcileTolerance)) {
        result.Fail("per-layer times do not add up for " + e.name);
      }
      tp.layers += lt;
    }
    for (const Op& op : ops_per_pass) {
      const runtime::RunReport& r = pinned[{op.app, op.version}];
      launches += r.counters.kernel_launches;
      if (op.version >= 1) offloads += r.kernel_executions;
    }
    if (sim_kernel_spans != launches) {
      result.Fail("trace: kernel spans " + std::to_string(sim_kernel_spans) +
                  " != kernel launches " + std::to_string(launches));
    }
    if (tp.layers.offload_spans != offloads) {
      result.Fail("trace: offload spans " +
                  std::to_string(tp.layers.offload_spans) +
                  " != offload runs " + std::to_string(offloads));
    }
    total.layers += tp.layers;
    total.cpu_baseline_us += tp.cpu_baseline_us;
    total.sim_kernel_s += tp.sim_kernel_s;
    total.max_reconcile_error =
        std::max(total.max_reconcile_error, tp.max_reconcile_error);
  }

  const double n = traced_passes;
  const LayerTimes& L = total.layers;
  const auto per_pass_ms = [&](double us) { return us / 1e3 / n; };
  const std::size_t samples = static_cast<std::size_t>(traced_passes);
  result.Add("ir.kernel_ms", per_pass_ms(L.kernel_us), "ms", samples,
             "per pass, Prop rows");
  result.Add("ir.cpu_baseline_ms", per_pass_ms(total.cpu_baseline_us), "ms",
             samples, "per pass, OpenMP rows");
  result.Add("ir.sim_per_wall",
             L.kernel_us > 0 ? total.sim_kernel_s / (L.kernel_us / 1e6) : 0,
             "s/s", samples);
  result.Add("runtime.host_ms", per_pass_ms(L.host_us), "ms", samples);
  result.Add("runtime.loader_ms", per_pass_ms(L.loader_us), "ms", samples);
  const double performed = counter_totals["loader.loads_performed"];
  const double skipped = counter_totals["loader.loads_skipped"];
  result.Add("runtime.loader_skip_ratio",
             performed + skipped > 0 ? skipped / (performed + skipped) : 0,
             "ratio", samples);
  result.Add("runtime.dirty_merge_ms", per_pass_ms(L.dirty_merge_us), "ms",
             samples);
  result.Add("runtime.miss_flush_ms", per_pass_ms(L.miss_flush_us), "ms",
             samples);
  result.Add("runtime.halo_ms", per_pass_ms(L.halo_us), "ms", samples);
  result.Add("runtime.dirty_chunks_sent",
             counter_totals["comm.dirty_chunks_sent"] / n, "count", samples);
  result.Add("runtime.clean_chunks_skipped",
             counter_totals["comm.clean_chunks_skipped"] / n, "count",
             samples);
  result.Add("runtime.miss_records_replayed",
             counter_totals["comm.miss_records_replayed"] / n, "count",
             samples);
  result.Add("runtime.halo_refreshes",
             counter_totals["comm.halo_refreshes"] / n, "count", samples);
  for (std::size_t a = 0; a < cases.size(); ++a) {
    const runtime::RunReport& r = pinned[{a, kMaxGpus}];
    const std::string& app = cases[a].name;
    result.Add("sim.kernel_s." + app, r.time[sim::TimeCategory::kKernel], "s");
    result.Add("sim.cpu_gpu_s." + app, r.time[sim::TimeCategory::kCpuGpu],
               "s");
    result.Add("sim.gpu_gpu_s." + app, r.time[sim::TimeCategory::kGpuGpu],
               "s");
    result.Add("sim.p2p_bytes." + app,
               static_cast<double>(r.counters.p2p_bytes), "bytes");
    result.Add("sim.h2d_bytes." + app,
               static_cast<double>(r.counters.h2d_bytes), "bytes");
    result.Add("sim.kernel_launches." + app,
               static_cast<double>(r.counters.kernel_launches), "count");
  }
  std::vector<std::pair<std::string, std::string>> sources;
  for (const AppCase& c : cases) sources.push_back({c.name, *c.source});
  AddCompileLayers(sources, result);
  result.Add("apps.input_gen_s", Median(input_gen_s), "s", input_gen_s.size());
  result.Add("apps.reference_ms", reference_ms, "ms");
  result.Add("sim.time_drift", max_drift, "ratio", result.attempted,
             "max relative drift of repeated simulated times");
  result.Add("trace.dropped", static_cast<double>(dropped), "count");
  if (dropped > 0) result.Fail("trace ring dropped events");
  result.Add("trace.overhead", Median(traced_s) / Median(plain_s), "x",
             traced_s.size(), "traced / untraced pass wall");
  result.Add("trace.reconcile_error", total.max_reconcile_error, "ratio",
             L.run_spans, "max over runs of |sum(layers) - span| / span");
  return result;
}

}  // namespace perfbench
