// serve-warm and serve-cold: an open-loop generator thread submits jobs to
// one AccService at Poisson arrival times and the benchmark times each job
// from the moment it was due.
//
//   serve-warm  builtin md/kmeans/bfs/spmv programs on seeded inputs, with
//               1- and 2-GPU leases on one shared 4-GPU node. Sources
//               repeat, so after set-up every job hits the program cache.
//   serve-cold  every job is a distinct generated program (many parallel
//               loops with long straight-line bodies) on a tiny array, so
//               every job compiles; the cache holds fewer entries than
//               there are keys, so it inserts and evicts.
//
// A run offers an untimed warm-up burst, then kRounds rounds of a closed
// burst of kBurstJobs jobs (wall_s) and a segment of jobs at the workload's
// fixed rate (latency_p50_ms / latency_p99_ms over all segments), then
// walks the workload's fixed rate ladder near capacity to find where p99
// crosses the latency limit (max_rate_jobs_per_s). Every job's output is
// checked against an independent reference and its billed traffic against
// an isolated run of the same (program, gpus, input), after the timed
// windows.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/bfs/bfs.h"
#include "apps/kmeans/kmeans.h"
#include "apps/md/md.h"
#include "apps/spmv/spmv.h"
#include "check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "gen.h"
#include "ir/ir.h"
#include "layers.h"
#include "report.h"
#include "runtime/program.h"
#include "service/service.h"
#include "sim/platform.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace runtime = accmg::runtime;
namespace service = accmg::service;
namespace sim = accmg::sim;
namespace apps = accmg::apps;
namespace trace = accmg::trace;

namespace {

constexpr int kPlatformGpus = 4;
/// One worker. With two on a 4-core shared host, repeated runs of one seed
/// differed by 13% in burst time while each run's own bursts agreed within
/// 3%; with one, runs agreed within 3%.
constexpr int kWorkers = 1;
constexpr std::size_t kJobsPerRung = 1000;
/// wall_s is the median of kRounds closed bursts of kBurstJobs jobs; each
/// burst is followed by 1/kRounds of the fixed-rate jobs.
constexpr std::size_t kBurstJobs = 100;
constexpr int kRounds = 12;
constexpr std::size_t kQueueCapacity = 4096;
/// How long past a rung's last arrival the benchmark waits for its jobs
/// before it counts the rest as hung.
constexpr double kDrainGraceSeconds = 30;

struct ServeConfig {
  double fixed_rate;          ///< the workload's fixed offered rate
  std::size_t fixed_jobs;     ///< jobs offered at the fixed rate
  std::vector<double> ladder;  ///< offered rates, ascending
  double limit_ms;             ///< p99 latency limit
  std::size_t cache_capacity;
};

/// Geometric rate ladder: `from`, then 10% steps up to `to`.
std::vector<double> Ladder(double from, double to) {
  std::vector<double> rates;
  for (double r = from; r <= to * 1.0001; r *= 1.1) {
    rates.push_back(std::round(r));
  }
  return rates;
}

ServeConfig ConfigFor(bool cold) {
  if (cold) return {60, 1200, Ladder(60, 1000), 100, 32};
  return {100, 1200, Ladder(150, 1000), 100, 64};
}

// ----------------------------------------------------------------------
// Job kinds and their per-job state
// ----------------------------------------------------------------------

enum class App { kMd, kKmeans, kBfs, kSpmv, kCold };

/// One distinct (program, input, gpus) a job can be.
struct Kind {
  App app = App::kMd;
  int gpus = 1;
  std::string name;
  std::string function;
  std::string source;  ///< warm kinds only; cold sources are per job
  apps::MdInput md;
  apps::KmeansInput kmeans;
  apps::BfsInput bfs;
  apps::SpmvInput spmv;
  int cold_n = 0;      ///< serve-cold array length
  int cold_loops = 0;  ///< serve-cold loop count

  // Filled after the timed windows.
  std::vector<float> want_f;
  std::vector<std::int32_t> want_i;
  sim::PlatformCounters billed;  ///< isolated run's counters
};

/// Everything one submitted job owns; its bind/on_finish closures hold it.
struct JobState {
  const Kind* kind = nullptr;
  std::optional<ColdProgram> cold;  ///< serve-cold: the generated program
  std::vector<float> f, scratch_f;
  std::vector<std::int32_t> i, scratch_i;
  std::int32_t flag = 0;
  Clock::time_point bind_start{}, bind_end{}, finish{};
  double bind_end_us = 0, finish_us = 0;  ///< same instants, trace clock
  bool ran = false;  ///< on_finish saw a runner (the job executed)
};

/// A cold job's initial arrays (a, b); the same for every job.
void ColdInitial(int n, std::vector<float>& a, std::vector<float>& b) {
  a.resize(static_cast<std::size_t>(n));
  b.resize(static_cast<std::size_t>(n));
  for (int e = 0; e < n; ++e) {
    a[e] = 0.25f * static_cast<float>(e % 7) - 0.5f;
    b[e] = 0.125f * static_cast<float>(e % 5) + 0.25f;
  }
}

void BindKind(JobState& s, runtime::ProgramRunner& r) {
  const Kind& k = *s.kind;
  using accmg::ir::ValType;
  auto arr = [&r](const char* name, auto& v, ValType t) {
    r.BindArray(name, const_cast<void*>(static_cast<const void*>(v.data())),
                t, static_cast<std::int64_t>(v.size()));
  };
  switch (k.app) {
    case App::kMd:
      s.f.assign(k.md.pos.size(), 0.0f);
      arr("pos", k.md.pos, ValType::kF32);
      arr("neigh", k.md.neigh, ValType::kI32);
      arr("force", s.f, ValType::kF32);
      r.BindScalar("natoms", static_cast<std::int64_t>(k.md.natoms));
      r.BindScalar("maxneigh", static_cast<std::int64_t>(k.md.maxneigh));
      r.BindScalarF32("lj1", k.md.lj1);
      r.BindScalarF32("lj2", k.md.lj2);
      r.BindScalarF32("cutsq", k.md.cutsq);
      break;
    case App::kKmeans: {
      const apps::KmeansInput& in = k.kmeans;
      s.f = in.centroids;
      s.i.assign(static_cast<std::size_t>(in.npoints), 0);
      s.scratch_f.assign(in.centroids.size(), 0.0f);
      s.scratch_i.assign(static_cast<std::size_t>(in.nclusters), 0);
      arr("features", in.features, ValType::kF32);
      arr("centroids", s.f, ValType::kF32);
      arr("membership", s.i, ValType::kI32);
      arr("sums", s.scratch_f, ValType::kF32);
      arr("counts", s.scratch_i, ValType::kI32);
      r.BindScalar("npoints", static_cast<std::int64_t>(in.npoints));
      r.BindScalar("nfeatures", static_cast<std::int64_t>(in.nfeatures));
      r.BindScalar("nclusters", static_cast<std::int64_t>(in.nclusters));
      r.BindScalar("iterations", static_cast<std::int64_t>(in.iterations));
      break;
    }
    case App::kBfs:
      s.i.assign(static_cast<std::size_t>(k.bfs.nnodes), -1);
      s.i[static_cast<std::size_t>(k.bfs.source)] = 0;
      s.flag = 0;
      arr("offsets", k.bfs.offsets, ValType::kI32);
      arr("edges", k.bfs.edges, ValType::kI32);
      arr("cost", s.i, ValType::kI32);
      r.BindArray("flag", &s.flag, ValType::kI32, 1);
      r.BindScalar("nnodes", static_cast<std::int64_t>(k.bfs.nnodes));
      r.BindScalar("degree", static_cast<std::int64_t>(k.bfs.degree));
      r.BindScalar("maxlevels", static_cast<std::int64_t>(k.bfs.max_levels));
      break;
    case App::kSpmv:
      s.f.assign(static_cast<std::size_t>(k.spmv.rows), 0.0f);
      arr("values", k.spmv.values, ValType::kF32);
      arr("cols", k.spmv.cols, ValType::kI32);
      arr("x", k.spmv.x, ValType::kF32);
      arr("y", s.f, ValType::kF32);
      r.BindScalar("rows", static_cast<std::int64_t>(k.spmv.rows));
      r.BindScalar("maxnnz", static_cast<std::int64_t>(k.spmv.max_nnz));
      break;
    case App::kCold:
      ColdInitial(k.cold_n, s.f, s.scratch_f);
      r.BindScalar("n", static_cast<std::int64_t>(k.cold_n));
      arr("a", s.f, ValType::kF32);
      arr("b", s.scratch_f, ValType::kF32);
      break;
  }
}

/// "" when the job's output matches its reference.
std::string CheckOutput(const JobState& s) {
  const Kind& k = *s.kind;
  switch (k.app) {
    case App::kMd:
    case App::kSpmv:
      return CompareExact(s.f, k.want_f);
    case App::kKmeans: {
      std::string d = CompareExact(s.i, k.want_i);
      return d.empty() ? CompareNear(s.f, k.want_f, 2e-3) : d;
    }
    case App::kBfs:
      return CompareExact(s.i, k.want_i);
    case App::kCold: {
      std::vector<float> a, b;
      ColdInitial(k.cold_n, a, b);
      EvaluateColdProgram(*s.cold, a, b);
      return CompareNear(s.f, a, 1e-5);
    }
  }
  return "unknown app";
}

// ----------------------------------------------------------------------
// The workload's kinds
// ----------------------------------------------------------------------

constexpr int kColdN = 8;
/// Job index of the program compiled in set-up; timed jobs count from 0.
constexpr std::uint64_t kSetupProgram = (1u << 20) - 1;
/// serve-cold's loop counts: mostly small programs (compile ~2-5 ms at
/// opt-level 1 on a 4-core x86-64 host) and one in twenty a big one
/// (~13 ms). The big ones put p99 among their compiles, which the
/// workload is about, rather than on the scheduling stalls of a shared
/// host.
const LoopMix kColdMix{2, 4, 0.05, 10};

/// The builtin apps at the service's own smoke sizes (service/builtin_apps),
/// two seeded inputs each, each on a 1- and a 2-GPU lease.
std::vector<Kind> MakeWarmKinds(std::uint64_t seed) {
  std::vector<Kind> kinds;
  for (int input = 0; input < 2; ++input) {
    const std::uint64_t s = DeriveSeed(seed, 10 + input);
    Kind md;
    md.app = App::kMd;
    md.name = md.function = "md";
    md.source = apps::MdSource();
    md.md = apps::MakeMdInput(512, 12, DeriveSeed(s, 1));
    Kind km;
    km.app = App::kKmeans;
    km.name = km.function = "kmeans";
    km.source = apps::KmeansSource();
    km.kmeans = apps::MakeKmeansInput(800, 4, 4, 7, DeriveSeed(s, 2));
    Kind bfs;
    bfs.app = App::kBfs;
    bfs.name = bfs.function = "bfs";
    bfs.source = apps::BfsSource();
    bfs.bfs = apps::MakeBfsInput(1000, 4, DeriveSeed(s, 3));
    Kind spmv;
    spmv.app = App::kSpmv;
    spmv.name = spmv.function = "spmv";
    spmv.source = apps::SpmvSource();
    spmv.spmv = apps::MakeSpmvInput(600, 8, DeriveSeed(s, 4));
    for (Kind* k : {&md, &km, &bfs, &spmv}) {
      for (const int gpus : {1, 2}) {
        kinds.push_back(*k);
        kinds.back().gpus = gpus;
      }
    }
  }
  return kinds;
}

/// serve-cold has one kind per loop count: billing depends only on the
/// program's shape, which the loop count fixes.
std::vector<Kind> MakeColdKinds() {
  std::vector<Kind> kinds;
  for (const int loops : kColdMix.Counts()) {
    Kind k;
    k.app = App::kCold;
    k.gpus = 1;
    k.name = k.function = "coldjob";
    k.cold_n = kColdN;
    k.cold_loops = loops;
    kinds.push_back(std::move(k));
  }
  return kinds;
}

/// The serve-cold kind of a program.
const Kind* ColdKind(const std::vector<Kind>& kinds,
                     const ColdProgram& program) {
  for (const Kind& k : kinds) {
    if (k.cold_loops == program.loops) return &k;
  }
  throw std::logic_error("no kind for a generated loop count");
}

// ----------------------------------------------------------------------
// Submitting and timing jobs
// ----------------------------------------------------------------------

struct Submitted {
  std::shared_ptr<JobState> state;
  int id = -1;
  double due_s = 0;   ///< seconds after the schedule start
  double late_s = 0;  ///< submit time minus due time
  std::optional<service::JobResult> result;
};

class Bench {
 public:
  Bench(const RunOptions& options, bool cold)
      : options_(options), cold_(cold), config_(ConfigFor(cold)) {}

  /// Generates inputs, creates the platform and the service, and compiles
  /// the first program(s). Returns the seconds it took.
  double SetUp();

  /// Builds the jobs of one schedule; `index` seeds mix and arrivals.
  std::vector<Submitted> MakeJobs(std::size_t count, std::uint64_t index);

  /// Open loop: submits each job at its due time from the calling thread
  /// (the one generator; due_s == 0 for all is a closed burst), then waits
  /// for every job. Returns the schedule's start.
  Clock::time_point Run(std::vector<Submitted>& jobs);

  /// Latency of each job from its due time, in ms; +inf for a job that was
  /// refused, failed or never finished.
  std::vector<double> Latencies(const std::vector<Submitted>& jobs,
                                Clock::time_point start) const;

  /// Checks outputs and billing of finished jobs; failures go to `result`.
  void Verify(const std::vector<Submitted>& jobs, WorkloadResult& result);

  /// Computes references and isolated-run billing for every kind.
  void PrepareChecks();

  /// True once a job failed to finish within the drain grace: a worker is
  /// stuck, so no later schedule can be trusted to finish either.
  bool hung() const { return hung_; }

  ~Bench() {
    KeepUntilExit(std::move(service_));
    KeepUntilExit(std::move(platform_));
  }

  double SimSpeedupGmean() const { return GeoMean(sim_speedups_); }
  double input_gen_s() const { return input_gen_s_; }
  double reference_ms() const { return reference_ms_; }
  const ServeConfig& config() const { return config_; }
  std::vector<std::pair<std::string, std::string>> SampleSources() const;

 private:
  const RunOptions& options_;
  const bool cold_;
  const ServeConfig config_;
  std::vector<Kind> kinds_;
  std::unique_ptr<sim::Platform> platform_;
  std::unique_ptr<service::AccService> service_;
  std::uint64_t next_job_ = 0;
  bool hung_ = false;
  double input_gen_s_ = 0;
  double reference_ms_ = 0;
  std::vector<double> sim_speedups_;
  std::map<int, ColdProgram> cold_samples_;  ///< one per loop count
};

double Bench::SetUp() {
  const Clock::time_point t0 = Clock::now();
  KeepUntilExit(std::move(service_));  // a previous repetition's
  KeepUntilExit(std::move(platform_));
  kinds_ = cold_ ? MakeColdKinds() : MakeWarmKinds(options_.seed);
  input_gen_s_ = SecondsBetween(t0, Clock::now());
  platform_ = MakeNode(kPlatformGpus);
  service::AccService::Config sc;
  sc.platform = platform_.get();
  sc.workers = kWorkers;
  sc.cache_capacity = config_.cache_capacity;
  sc.queue_capacity = kQueueCapacity;
  service_ = std::make_unique<service::AccService>(sc);

  // First compile: one job per distinct warm program, or one cold job.
  std::vector<Submitted> first;
  if (cold_) {
    // The same program in every repetition, outside the timed jobs' range,
    // with the largest loop count whatever the seed.
    Submitted s;
    s.state = std::make_shared<JobState>();
    ColdProgram program = MakeColdProgram(options_.seed, kSetupProgram,
                                          {kColdMix.big, kColdMix.big});
    s.state->kind = ColdKind(kinds_, program);
    s.state->cold = std::move(program);
    first.push_back(std::move(s));
  } else {
    for (const Kind& k : kinds_) {
      if (k.gpus != 1) continue;
      Submitted s;
      s.state = std::make_shared<JobState>();
      s.state->kind = &k;
      first.push_back(std::move(s));
      if (first.size() == 4) break;
    }
  }
  Run(first);
  for (const Submitted& s : first) {
    if (!s.result || s.result->state != service::JobState::kDone) {
      throw std::runtime_error("set-up job did not complete");
    }
  }
  return SecondsBetween(t0, Clock::now());
}

std::vector<Submitted> Bench::MakeJobs(std::size_t count, std::uint64_t index) {
  const std::uint64_t s = DeriveSeed(options_.seed, 1000 + index);
  const std::vector<double> due = PoissonArrivals(s, 1.0, count);
  const std::vector<int> mix =
      MixChoices(s, count, static_cast<int>(kinds_.size()));
  std::vector<Submitted> jobs(count);
  for (std::size_t j = 0; j < count; ++j) {
    jobs[j].due_s = due[j];  // at rate 1; Run() scales by the rung's rate
    jobs[j].state = std::make_shared<JobState>();
    if (cold_) {
      ColdProgram program =
          MakeColdProgram(options_.seed, next_job_++, kColdMix);
      jobs[j].state->kind = ColdKind(kinds_, program);
      jobs[j].state->cold = std::move(program);
    } else {
      jobs[j].state->kind = &kinds_[static_cast<std::size_t>(mix[j])];
    }
  }
  return jobs;
}

service::JobRequest MakeRequest(const std::shared_ptr<JobState>& state) {
  const Kind& k = *state->kind;
  service::JobRequest request;
  request.name = k.name;
  request.function = k.function;
  request.source = state->cold ? state->cold->source : k.source;
  request.gpus = k.gpus;
  if (k.app == App::kCold) request.exec_options.block_size = kColdN;
  request.bind = [state](runtime::ProgramRunner& runner) {
    state->bind_start = Clock::now();
    BindKind(*state, runner);
    state->bind_end = Clock::now();
    state->bind_end_us = trace::Tracer::WallNowMicros();
  };
  request.on_finish = [state](runtime::ProgramRunner* runner) {
    state->finish = Clock::now();
    state->finish_us = trace::Tracer::WallNowMicros();
    state->ran = runner != nullptr;
  };
  return request;
}

Clock::time_point Bench::Run(std::vector<Submitted>& jobs) {
  // Requests are built before the schedule starts, so the generator only
  // sleeps and submits.
  std::vector<service::JobRequest> requests;
  requests.reserve(jobs.size());
  for (const Submitted& s : jobs) requests.push_back(MakeRequest(s.state));

  std::vector<double> due_s;
  for (const Submitted& s : jobs) due_s.push_back(s.due_s);
  const Clock::time_point start = Clock::now();
  const std::vector<double> late_s =
      RunSchedule(due_s, start, [&](std::size_t j) {
        jobs[j].id = service_->Submit(std::move(requests[j]));
      });
  for (std::size_t j = 0; j < jobs.size(); ++j) jobs[j].late_s = late_s[j];

  const double last_due = jobs.empty() ? 0 : jobs.back().due_s;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(last_due + kDrainGraceSeconds));
  for (Submitted& s : jobs) {
    if (s.id < 0) continue;  // refused: never waited on
    const auto left =
        std::max(Clock::duration::zero(), deadline - Clock::now());
    s.result = service_->WaitFor(
        s.id, std::chrono::duration_cast<std::chrono::milliseconds>(left));
    if (!s.result) hung_ = true;
  }
  return start;
}

bool Finished(const Submitted& s) {
  return s.id >= 0 && s.result && s.result->state == service::JobState::kDone &&
         s.state->ran;
}

std::vector<double> Bench::Latencies(const std::vector<Submitted>& jobs,
                                     Clock::time_point start) const {
  std::vector<double> ms;
  ms.reserve(jobs.size());
  for (const Submitted& s : jobs) {
    if (!Finished(s)) {
      ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ms.push_back(LatencyFromDueMs(start, s.due_s, s.state->finish));
  }
  return ms;
}

void Bench::PrepareChecks() {
  const Clock::time_point t0 = Clock::now();
  for (Kind& k : kinds_) {
    switch (k.app) {
      case App::kMd:
        k.want_f = apps::MdReference(k.md);
        break;
      case App::kKmeans: {
        const apps::KmeansResult r = apps::KmeansReference(k.kmeans);
        k.want_f = r.centroids;
        k.want_i = r.membership;
        break;
      }
      case App::kBfs:
        k.want_i = apps::BfsReference(k.bfs);
        break;
      case App::kSpmv:
        k.want_f = apps::SpmvReference(k.spmv);
        break;
      case App::kCold:
        break;  // evaluated per job: every cold program differs
    }
  }
  reference_ms_ = 1e3 * SecondsBetween(t0, Clock::now());

  // Isolated runs: the classic one-shot path, one run at a time on a
  // platform no other job uses (a run resets its accounting).
  sim_speedups_.clear();
  std::shared_ptr<sim::Platform> isolated = MakeNode(kPlatformGpus);
  KeepUntilExit(isolated);
  for (Kind& k : kinds_) {
    double openmp_s = 0;
    runtime::RunReport r;
    // The proposal on the kind's lease size; the OpenMP baseline once per
    // input (on its 2-GPU kind) for sim_speedup_gmean.
    auto run = [&](auto acc, auto omp, const auto& input, auto out) {
      r = acc(input, *isolated, k.gpus, &out, {}, {});
      if (k.gpus == 2) openmp_s = omp(input, *isolated, &out).total_seconds;
    };
    switch (k.app) {
      case App::kMd:
        run(apps::RunMdAcc, apps::RunMdOpenMp, k.md, std::vector<float>{});
        break;
      case App::kKmeans:
        run(apps::RunKmeansAcc, apps::RunKmeansOpenMp, k.kmeans,
            apps::KmeansResult{});
        break;
      case App::kBfs:
        run(apps::RunBfsAcc, apps::RunBfsOpenMp, k.bfs,
            std::vector<std::int32_t>{});
        break;
      case App::kSpmv:
        run(apps::RunSpmvAcc, apps::RunSpmvOpenMp, k.spmv,
            std::vector<float>{});
        break;
      case App::kCold: {
        const int loops = k.cold_loops;
        // Any program of this loop count bills the same; job index 0 of
        // this loop count stands for all of them.
        ColdProgram program;
        for (std::uint64_t j = 0;; ++j) {
          program = MakeColdProgram(options_.seed, j, kColdMix);
          if (program.loops == loops) break;
        }
        const runtime::AccProgram compiled =
            runtime::AccProgram::FromSource(k.name, program.source);
        for (const bool cpu : {false, true}) {
          JobState s;
          s.kind = &k;
          s.cold = program;
          runtime::RunConfig rc;
          rc.platform = isolated.get();
          rc.num_gpus = k.gpus;
          rc.use_cpu = cpu;
          rc.options.block_size = kColdN;
          runtime::ProgramRunner runner(compiled, rc);
          BindKind(s, runner);
          const runtime::RunReport report = runner.Run(k.function);
          if (cpu) {
            openmp_s = report.total_seconds;
          } else {
            r = report;
          }
        }
        cold_samples_[loops] = program;
        break;
      }
    }
    k.billed = r.counters;
    if (openmp_s > 0) sim_speedups_.push_back(openmp_s / r.total_seconds);
  }
}

std::string CountersText(const sim::PlatformCounters& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "launches %llu h2d %llu/%lluB d2h %llu/%lluB p2p %llu/%lluB",
                static_cast<unsigned long long>(c.kernel_launches),
                static_cast<unsigned long long>(c.h2d_transfers),
                static_cast<unsigned long long>(c.h2d_bytes),
                static_cast<unsigned long long>(c.d2h_transfers),
                static_cast<unsigned long long>(c.d2h_bytes),
                static_cast<unsigned long long>(c.p2p_transfers),
                static_cast<unsigned long long>(c.p2p_bytes));
  return buf;
}

void Bench::Verify(const std::vector<Submitted>& jobs, WorkloadResult& result) {
  for (const Submitted& s : jobs) {
    ++result.attempted;
    const std::string what = s.state->kind->name + " on " +
                             std::to_string(s.state->kind->gpus) + " gpu(s)";
    if (s.id < 0) {
      result.Fail(what + ": refused at submit");
      continue;
    }
    if (!s.result) {
      result.Fail(what + ": did not finish within the drain grace");
      continue;
    }
    if (!Finished(s)) {
      result.Fail(what + ": failed: " + s.result->error);
      continue;
    }
    const std::string bad = CheckOutput(*s.state);
    if (!bad.empty()) {
      result.Fail(what + ": output " + bad);
      continue;
    }
    if (!(s.result->report.counters == s.state->kind->billed)) {
      result.Fail(what + ": billed " + CountersText(s.result->report.counters) +
                  ", isolated " + CountersText(s.state->kind->billed));
    }
  }
}

std::vector<std::pair<std::string, std::string>> Bench::SampleSources() const {
  std::vector<std::pair<std::string, std::string>> sources;
  if (cold_) {
    for (const auto& [loops, program] : cold_samples_) {
      sources.push_back({"coldjob", program.source});
    }
  } else {
    for (const Kind& k : kinds_) {
      if (k.gpus == 1 && sources.size() < 4) {
        sources.push_back({k.name, k.source});
      }
    }
  }
  return sources;
}

/// Jobs of a rung with their due times scaled to `rate`.
void ScaleArrivals(std::vector<Submitted>& jobs, double rate) {
  for (Submitted& s : jobs) s.due_s /= rate;
}

struct RungOutcome {
  double rate = 0;
  Tail p99;
  double p50_ms = 0;
  /// Largest median latency of the last tenth of a schedule's jobs: a
  /// backlog that grows through a schedule shows there.
  double backlog_ms = 0;
  bool passes = false;
};

/// Judges the latencies of one or more schedules offered at `rate`, each in
/// due order, as one sample: p99 and the backlog must meet the limit.
RungOutcome Judge(double rate,
                  const std::vector<std::vector<double>>& schedules,
                  double limit_ms) {
  RungOutcome o;
  o.rate = rate;
  std::vector<double> all;
  for (const std::vector<double>& ms : schedules) {
    all.insert(all.end(), ms.begin(), ms.end());
    const std::size_t last = std::max<std::size_t>(1, ms.size() / 10);
    o.backlog_ms = std::max(
        o.backlog_ms, Median(std::vector<double>(ms.end() - last, ms.end())));
  }
  o.p99 = HighestTail(all);
  o.p50_ms = Median(all);
  o.passes = o.p99.value <= limit_ms && o.backlog_ms <= limit_ms;
  return o;
}

/// The ladder rung the walk runs after rung `k`: the next one up from a
/// passing rung and down from a failing one, until a passing rung sits
/// next to a failing one; then whichever of those two has run fewer
/// schedules, so that both keep gathering samples.
std::size_t NextRung(const std::map<std::size_t, RungOutcome>& judged,
                     const std::map<std::size_t, int>& schedules,
                     std::size_t k, std::size_t rungs) {
  std::size_t lo = k, hi = k;
  if (judged.at(k).passes) {
    if (k + 1 == rungs) return k;
    const auto up = judged.find(k + 1);
    if (up == judged.end() || up->second.passes) return k + 1;
    hi = k + 1;
  } else {
    if (k == 0) return k;
    const auto down = judged.find(k - 1);
    if (down == judged.end() || !down->second.passes) return k - 1;
    lo = k - 1;
  }
  return schedules.at(lo) <= schedules.at(hi) ? lo : hi;
}

/// Where p99 crosses the limit: log-linear interpolation between the
/// highest passing rung and the next rung run above it (whose p99 counts as
/// at most ten times the limit). The rung outcomes may come in any order.
/// Returns the highest passing rate when nothing above it was run, and 0
/// when no rung passed.
double MaxRate(std::vector<RungOutcome> rungs, double limit_ms) {
  std::sort(rungs.begin(), rungs.end(),
            [](const RungOutcome& a, const RungOutcome& b) {
              return a.rate < b.rate;
            });
  std::size_t best = rungs.size();
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    if (rungs[k].passes) best = k;
  }
  if (best == rungs.size()) return 0;
  if (best + 1 == rungs.size()) return rungs[best].rate;
  const RungOutcome& lo = rungs[best];
  const RungOutcome& hi = rungs[best + 1];
  const double y0 = std::log(std::max(lo.p99.value, 1e-3));
  const double y1 = std::log(std::min(
      std::max({hi.p99.value, hi.backlog_ms, limit_ms * 1.0001}),
      10 * limit_ms));
  const double frac =
      std::clamp((std::log(limit_ms) - y0) / (y1 - y0), 0.0, 1.0);
  return std::exp(std::log(lo.rate) +
                  frac * (std::log(hi.rate) - std::log(lo.rate)));
}

}  // namespace

WorkloadResult RunServe(const RunOptions& options, bool cold) {
  WorkloadResult result;
  Bench bench(options, cold);
  const ServeConfig& cfg = bench.config();

  std::vector<double> setup_s, input_gen_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    setup_s.push_back(bench.SetUp());
    input_gen_s.push_back(bench.input_gen_s());
  }
  bench.PrepareChecks();

  std::uint64_t schedule = 0;
  auto run_jobs = [&](std::vector<Submitted>& jobs) {
    PrintProgress(result.attempted + jobs.size(),
                  result.attempted - result.failed);
    return bench.Run(jobs);
  };
  auto run_rung = [&](double rate, std::size_t count,
                      std::vector<Submitted>* keep) {
    std::vector<Submitted> jobs = bench.MakeJobs(count, ++schedule);
    ScaleArrivals(jobs, rate);
    const Clock::time_point start = run_jobs(jobs);
    const RungOutcome outcome =
        Judge(rate, {bench.Latencies(jobs, start)}, cfg.limit_ms);
    bench.Verify(jobs, result);
    if (keep != nullptr) *keep = std::move(jobs);
    return std::make_pair(outcome, start);
  };

  if (!options.trace) {
    const Clock::time_point window_start = Clock::now();
    // A closed burst: every job due at once. Returns its wall seconds.
    auto run_burst = [&] {
      std::vector<Submitted> burst = bench.MakeJobs(kBurstJobs, ++schedule);
      for (Submitted& s : burst) s.due_s = 0;
      const Clock::time_point b0 = run_jobs(burst);
      Clock::time_point b1 = b0;
      for (const Submitted& s : burst) {
        if (Finished(s)) b1 = std::max(b1, s.state->finish);
      }
      bench.Verify(burst, result);
      return SecondsBetween(b0, b1);
    };
    // Warm-up: one untimed burst; its throughput also picks where the
    // ladder walk starts.
    const double warmup_s = run_burst();
    if (bench.hung()) return result;

    // Rounds of a burst (wall_s) and a segment of the fixed-rate schedule
    // (latency_*), so that both sample the whole first part of the window
    // instead of one moment of the shared host.
    std::vector<double> burst_s;
    std::vector<std::vector<double>> fixed_ms;
    for (int round = 0; round < kRounds; ++round) {
      burst_s.push_back(run_burst());
      if (bench.hung()) return result;
      std::vector<Submitted> jobs;
      const Clock::time_point start =
          run_rung(cfg.fixed_rate, cfg.fixed_jobs / kRounds, &jobs).second;
      fixed_ms.push_back(bench.Latencies(jobs, start));
      if (bench.hung()) return result;
    }
    std::printf("burst seconds:");
    for (const double b : burst_s) std::printf(" %.3f", b);
    std::printf("\n");

    auto report = [](const RungOutcome& o) {
      std::printf("%6.1f jobs/s: p50 %8.2f ms  p%d %8.2f ms  backlog %8.2f ms"
                  "  %5zu jobs  %s\n",
                  o.rate, o.p50_ms, o.p99.percentile, o.p99.value,
                  o.backlog_ms, o.p99.samples,
                  o.passes ? "meets limit" : "misses limit");
    };
    const RungOutcome fixed = Judge(cfg.fixed_rate, fixed_ms, cfg.limit_ms);
    report(fixed);
    // Before the walk, whose rung count varies, and the service keeps
    // every job's result.
    const double peak_rss_mb = PeakRssMb();

    // The ladder walk starts at the highest rung below 70% of the bursts'
    // throughput (open-loop capacity is lower: a burst batches more) and
    // moves one rung at a time (NextRung) until the window is over. Each
    // rung is judged on all the schedules it has run, so once the walk
    // has found the crossing it keeps adding samples on both sides of it,
    // and a rung whose verdict changes moves the walk on from there.
    const double start_rate = 0.7 * static_cast<double>(kBurstJobs) /
                              std::min(warmup_s, Median(burst_s));
    std::size_t k = 0;
    while (k + 1 < cfg.ladder.size() && cfg.ladder[k + 1] <= start_rate) ++k;
    std::map<std::size_t, std::vector<std::vector<double>>> rung_ms;
    std::map<std::size_t, RungOutcome> judged;
    std::map<std::size_t, int> schedules;
    int rung_schedules = 0;
    while (!bench.hung() &&
           SecondsBetween(window_start, Clock::now()) < options.seconds) {
      std::vector<Submitted> jobs;
      const Clock::time_point start =
          run_rung(cfg.ladder[k], kJobsPerRung, &jobs).second;
      rung_ms[k].push_back(bench.Latencies(jobs, start));
      judged[k] = Judge(cfg.ladder[k], rung_ms[k], cfg.limit_ms);
      schedules[k] = static_cast<int>(rung_ms[k].size());
      ++rung_schedules;
      report(judged[k]);
      k = NextRung(judged, schedules, k, cfg.ladder.size());
    }
    std::vector<RungOutcome> rungs = {fixed};
    for (const auto& [index, outcome] : judged) rungs.push_back(outcome);
    result.Add("setup_s", Median(setup_s), "s", setup_s.size());
    result.Add("wall_s", Median(burst_s), "s", burst_s.size(),
               "median closed burst of " + std::to_string(kBurstJobs) +
                   " jobs");
    result.Add("sim_speedup_gmean", bench.SimSpeedupGmean(), "x", 1,
               "isolated runs, OpenMP / widest lease");
    result.Add("peak_rss_mb", peak_rss_mb, "MiB", 1, "before the ladder walk");
    result.Add("latency_p50_ms", fixed.p50_ms, "ms", fixed.p99.samples,
               "at " + std::to_string(static_cast<int>(fixed.rate)) +
                   " jobs/s");
    result.Add("latency_p99_ms", fixed.p99.value, "ms", fixed.p99.samples,
               "p" + std::to_string(fixed.p99.percentile) + ", " +
                   std::to_string(fixed.p99.beyond) + " beyond");
    result.Add("max_rate_jobs_per_s", MaxRate(rungs, cfg.limit_ms), "1/s",
               static_cast<std::size_t>(rung_schedules),
               "p99 limit " + std::to_string(static_cast<int>(cfg.limit_ms)) +
                   " ms, " + std::to_string(rung_schedules) +
                   " rung schedules");
    return result;
  }

  // --- Traced run: the fixed-rate rung untraced, then traced. ---
  std::vector<Submitted> plain_jobs, jobs;
  const auto [plain, plain_start] =
      run_rung(cfg.fixed_rate, cfg.fixed_jobs, &plain_jobs);
  if (bench.hung()) return result;
  auto& tracer = trace::Tracer::Global();
  auto& registry = accmg::metrics::Registry::Global();
  const std::vector<std::string> counter_names = {
      "comm.dirty_chunks_sent",  "comm.clean_chunks_skipped",
      "comm.miss_records_replayed", "comm.halo_refreshes",
      "loader.loads_performed",  "loader.loads_skipped",
      "service.cache.hits",      "service.cache.misses",
      "service.cache.evictions", "service.queue.batched_jobs"};
  std::map<std::string, double> delta;
  for (const auto& n : counter_names) {
    delta[n] = -static_cast<double>(registry.counter(n).value());
  }
  auto& arena_wait = registry.histogram("service.arena.wait_seconds");
  const double wait_sum0 = arena_wait.sum();
  const double wait_count0 = static_cast<double>(arena_wait.count());
  tracer.set_shard_capacity(kTraceShardCapacity);
  tracer.Clear();
  tracer.set_enabled(true);
  const auto [traced, traced_start] =
      run_rung(cfg.fixed_rate, cfg.fixed_jobs, &jobs);
  tracer.set_enabled(false);
  for (const auto& n : counter_names) {
    delta[n] += static_cast<double>(registry.counter(n).value());
  }
  const double wait_count =
      static_cast<double>(arena_wait.count()) - wait_count0;
  const double wait_ms =
      wait_count > 0 ? 1e3 * (arena_wait.sum() - wait_sum0) / wait_count : 0;
  const std::uint64_t dropped = tracer.dropped();
  const std::vector<trace::Event> events = tracer.Snapshot();

  std::map<int, std::vector<const trace::Event*>> by_job;
  std::uint64_t sim_kernel_spans = 0;
  for (const trace::Event& e : events) {
    if (e.timeline == trace::Timeline::kSim) {
      if (e.category == trace::category::kKernel) ++sim_kernel_spans;
    } else if (e.job >= 0) {
      by_job[e.job].push_back(&e);
    }
  }
  std::vector<double> pre_run_ms, run_ms, lock_wait_ms;
  LayerTimes layers;
  double max_reconcile_error = 0;
  std::uint64_t launches = 0, refused = 0;
  for (const Submitted& s : jobs) {
    if (s.id < 0) ++refused;
    if (!Finished(s)) continue;
    const JobState& st = *s.state;
    launches += s.result->report.counters.kernel_launches;
    const Interval window{st.bind_end_us, st.finish_us};
    const LayerTimes lt = Attribute(by_job[s.id], window);
    if (lt.run_spans != 1) {
      result.Fail("trace: job has " + std::to_string(lt.run_spans) +
                  " run: spans inside its execution window");
      continue;
    }
    double run_span_us = 0;
    for (const trace::Event* e : by_job[s.id]) {
      if (e->name.rfind("run:", 0) == 0) run_span_us += e->duration_us;
    }
    max_reconcile_error = std::max(
        max_reconcile_error,
        std::fabs(lt.SumUs() - lt.window_us) / lt.window_us);
    if (!lt.Reconciles(kReconcileTolerance)) {
      result.Fail("per-layer times do not add up for job " +
                  std::to_string(s.id));
    }
    layers += lt;
    pre_run_ms.push_back(
        LatencyFromDueMs(traced_start, s.due_s + s.late_s, st.bind_start));
    run_ms.push_back(1e3 * SecondsBetween(st.bind_end, st.finish));
    lock_wait_ms.push_back(run_ms.back() - run_span_us / 1e3);
  }
  if (sim_kernel_spans != launches) {
    result.Fail("trace: kernel spans " + std::to_string(sim_kernel_spans) +
                " != kernel launches " + std::to_string(launches));
  }

  const std::size_t n = std::max<std::size_t>(1, run_ms.size());
  const auto per_job_ms = [&](double us) { return us / 1e3 / n; };
  const auto per_job = [&](const std::string& c) { return delta[c] / n; };
  result.Add("ir.kernel_ms", per_job_ms(layers.kernel_us), "ms", n,
             "mean per job");
  result.Add("runtime.host_ms", per_job_ms(layers.host_us), "ms", n,
             "mean per job");
  result.Add("runtime.loader_ms", per_job_ms(layers.loader_us), "ms", n,
             "mean per job");
  const double performed = delta["loader.loads_performed"];
  const double skipped = delta["loader.loads_skipped"];
  result.Add("runtime.loader_skip_ratio",
             performed + skipped > 0 ? skipped / (performed + skipped) : 0,
             "ratio", n);
  result.Add("runtime.dirty_merge_ms", per_job_ms(layers.dirty_merge_us),
             "ms", n, "mean per job");
  result.Add("runtime.miss_flush_ms", per_job_ms(layers.miss_flush_us), "ms",
             n, "mean per job");
  result.Add("runtime.halo_ms", per_job_ms(layers.halo_us), "ms", n,
             "mean per job");
  result.Add("runtime.dirty_chunks_sent", per_job("comm.dirty_chunks_sent"),
             "count", n, "per job");
  result.Add("runtime.clean_chunks_skipped",
             per_job("comm.clean_chunks_skipped"), "count", n, "per job");
  result.Add("runtime.miss_records_replayed",
             per_job("comm.miss_records_replayed"), "count", n, "per job");
  result.Add("runtime.halo_refreshes", per_job("comm.halo_refreshes"),
             "count", n, "per job");
  AddCompileLayers(bench.SampleSources(), result);
  result.Add("service.pre_run_ms", Median(pre_run_ms), "ms", n,
             "median, Submit to bind");
  result.Add("service.run_ms", Median(run_ms), "ms", n,
             "median, end of bind to on_finish");
  result.Add("service.run_lock_wait_ms", Median(lock_wait_ms), "ms", n,
             "median, run_ms minus the job's run: span");
  const double hits = delta["service.cache.hits"];
  const double misses = delta["service.cache.misses"];
  result.Add("service.cache_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0, "ratio", n);
  result.Add("service.cache_evictions", delta["service.cache.evictions"],
             "count", n, "per rung");
  result.Add("service.batched_jobs", delta["service.queue.batched_jobs"],
             "count", n, "per rung");
  result.Add("service.arena_wait_ms", wait_ms, "ms",
             static_cast<std::size_t>(wait_count), "mean per lease");
  result.Add("service.rejects", static_cast<double>(refused), "count", n);
  result.Add("apps.input_gen_s", Median(input_gen_s), "s", input_gen_s.size());
  result.Add("apps.reference_ms", bench.reference_ms(), "ms");
  std::vector<double> late_ms;
  for (const Submitted& s : plain_jobs) late_ms.push_back(1e3 * s.late_s);
  const Tail late = HighestTail(late_ms);
  result.Add("loadgen.late_ms_p99", late.value, "ms", late.samples,
             "p" + std::to_string(late.percentile) + " generator lateness");
  result.Add("trace.dropped", static_cast<double>(dropped), "count");
  if (dropped > 0) result.Fail("trace ring dropped events");
  result.Add("trace.overhead", traced.p50_ms / plain.p50_ms, "x", n,
             "traced / untraced median latency");
  result.Add("trace.reconcile_error", max_reconcile_error, "ratio", n,
             "max over jobs of |sum(layers) - window| / window");
  return result;
}

}  // namespace perfbench
