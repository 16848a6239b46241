#include "layers.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "frontend/sema.h"
#include "frontend/source.h"
#include "report.h"
#include "translator/offload.h"
#include "workloads.h"

namespace perfbench {

namespace trace = accmg::trace;

std::vector<Interval> UnionOf(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::vector<Interval> out;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (!out.empty() && iv.start <= out.back().end) {
      out.back().end = std::max(out.back().end, iv.end);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

double TotalLength(const std::vector<Interval>& disjoint) {
  double total = 0;
  for (const Interval& iv : disjoint) total += iv.length();
  return total;
}

double OverlapLength(const std::vector<Interval>& a,
                     const std::vector<Interval>& b) {
  double total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].start, b[j].start);
    const double hi = std::min(a[i].end, b[j].end);
    if (hi > lo) total += hi - lo;
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  window_us += o.window_us;
  outside_us += o.outside_us;
  host_us += o.host_us;
  kernel_us += o.kernel_us;
  loader_us += o.loader_us;
  dirty_merge_us += o.dirty_merge_us;
  miss_flush_us += o.miss_flush_us;
  halo_us += o.halo_us;
  run_spans += o.run_spans;
  offload_spans += o.offload_spans;
  return *this;
}

bool LayerTimes::Reconciles(double tolerance) const {
  return std::fabs(SumUs() - window_us) <= tolerance * window_us;
}

std::vector<const trace::Event*> EventsInside(
    const std::vector<trace::Event>& events, Interval window) {
  constexpr double kSlackUs = 1.0;
  std::vector<const trace::Event*> out;
  for (const trace::Event& e : events) {
    if (e.timeline != trace::Timeline::kWall) continue;
    if (e.start_us >= window.start - kSlackUs &&
        e.start_us + e.duration_us <= window.end + kSlackUs) {
      out.push_back(&e);
    }
  }
  return out;
}

LayerTimes Attribute(const std::vector<const trace::Event*>& events,
                     Interval window) {
  std::vector<Interval> run, offload, loader, dirty, miss, halo;
  LayerTimes t;
  for (const trace::Event* e : events) {
    if (e->timeline != trace::Timeline::kWall) continue;
    const Interval iv{std::max(e->start_us, window.start),
                      std::min(e->start_us + e->duration_us, window.end)};
    const std::string& cat = e->category;
    if (cat == trace::category::kHost && e->name.rfind("run:", 0) == 0) {
      run.push_back(iv);
      ++t.run_spans;
    } else if (cat == trace::category::kOffload) {
      offload.push_back(iv);
      ++t.offload_spans;
    } else if (cat == trace::category::kLoader) {
      loader.push_back(iv);
    } else if (cat == trace::category::kDirtyMerge) {
      dirty.push_back(iv);
    } else if (cat == trace::category::kMissFlush) {
      miss.push_back(iv);
    } else if (cat == trace::category::kHalo) {
      halo.push_back(iv);
    }
  }
  const auto u_run = UnionOf(run);
  const auto u_off = UnionOf(offload);
  const auto u_loader = UnionOf(loader);
  const auto u_dirty = UnionOf(dirty);
  const auto u_miss = UnionOf(miss);
  const auto u_halo = UnionOf(halo);

  std::vector<Interval> phases;
  for (const auto* list : {&u_loader, &u_dirty, &u_miss, &u_halo}) {
    phases.insert(phases.end(), list->begin(), list->end());
  }
  const auto u_phases = UnionOf(phases);
  std::vector<Interval> inner = u_off;
  inner.insert(inner.end(), u_phases.begin(), u_phases.end());
  const auto u_inner = UnionOf(inner);
  std::vector<Interval> all = u_run;
  all.insert(all.end(), u_inner.begin(), u_inner.end());
  const auto u_all = UnionOf(all);

  t.window_us = window.length();
  t.loader_us = TotalLength(u_loader);
  t.dirty_merge_us = TotalLength(u_dirty);
  t.miss_flush_us = TotalLength(u_miss);
  t.halo_us = TotalLength(u_halo);
  t.kernel_us = TotalLength(u_off) - OverlapLength(u_off, u_phases);
  t.host_us = TotalLength(u_run) - OverlapLength(u_run, u_inner);
  t.outside_us = window.length() - TotalLength(u_all);
  return t;
}

void AddCompileLayers(
    const std::vector<std::pair<std::string, std::string>>& sources,
    WorkloadResult& result) {
  auto& tracer = trace::Tracer::Global();
  auto& registry = accmg::metrics::Registry::Global();
  auto& fusions = registry.counter("opt.fusions");
  auto& bailouts = registry.counter("opt.bailouts");
  const std::uint64_t fusions0 = fusions.value();
  const std::uint64_t bailouts0 = bailouts.value();
  tracer.set_shard_capacity(kTraceShardCapacity);
  tracer.Clear();
  tracer.set_enabled(true);
  double parse_s = 0, compile_s = 0;
  for (const auto& [name, source] : sources) {
    const Clock::time_point t0 = Clock::now();
    auto ast = accmg::frontend::ParseAndAnalyze(
        accmg::frontend::SourceBuffer(name, source));
    const Clock::time_point t1 = Clock::now();
    const auto compiled = accmg::translator::Compile(*ast);
    const Clock::time_point t2 = Clock::now();
    parse_s += SecondsBetween(t0, t1);
    compile_s += SecondsBetween(t1, t2);
  }
  tracer.set_enabled(false);
  double optimize_us = 0;
  for (const trace::Event& e : tracer.Snapshot()) {
    if (e.name.rfind("optimize:", 0) == 0) optimize_us += e.duration_us;
  }
  const double n = static_cast<double>(sources.size());
  result.Add("frontend.parse_ms", 1e3 * parse_s / n, "ms", sources.size(),
             "mean per source");
  result.Add("translator.compile_ms", 1e3 * compile_s / n, "ms",
             sources.size(), "mean per source");
  result.Add("translator.optimize_ms", optimize_us / 1e3 / n, "ms",
             sources.size(), "optimize: spans, mean per source");
  result.Add("translator.fusions",
             static_cast<double>(fusions.value() - fusions0) / n, "count",
             sources.size(), "per source");
  result.Add("translator.bailouts",
             static_cast<double>(bailouts.value() - bailouts0) / n, "count",
             sources.size(), "per source");
}

}  // namespace perfbench
