// Per-layer attribution of wall time from a trace snapshot.
//
// The benchmark wraps each operation (a version run, or a served job's
// execution window) in its own span; the system's built-in spans nest inside
// it: `run:` (host interpreter), `offload:` (one offload step), and inside
// those the `loader`, `dirty-merge`, `miss-flush` and `halo` phases. A
// layer's self time is the part of its spans' union that no inner layer's
// spans cover:
//   kernel  = offload minus the coherence/loader phases inside it
//   host    = run minus offloads and phases
//   outside = the benchmark window minus everything above (binding,
//             report building, waiting for the run lock, billing)
// Phases are attributed by their own union. When the phases of one window
// overlap each other, the per-layer figures add up to more than the window;
// Reconciles() is the check that they do not.
#pragma once

#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

struct Interval {
  double start = 0;  ///< microseconds, wall timeline
  double end = 0;
  double length() const { return end - start; }
};

/// Sorted, disjoint union of `intervals`.
std::vector<Interval> UnionOf(std::vector<Interval> intervals);
double TotalLength(const std::vector<Interval>& disjoint);
/// Length of the intersection of two disjoint sorted lists.
double OverlapLength(const std::vector<Interval>& a,
                     const std::vector<Interval>& b);

struct LayerTimes {
  double window_us = 0;
  double outside_us = 0;
  double host_us = 0;
  double kernel_us = 0;
  double loader_us = 0;
  double dirty_merge_us = 0;
  double miss_flush_us = 0;
  double halo_us = 0;
  std::size_t run_spans = 0;
  std::size_t offload_spans = 0;

  double SumUs() const {
    return outside_us + host_us + kernel_us + loader_us + dirty_merge_us +
           miss_flush_us + halo_us;
  }
  LayerTimes& operator+=(const LayerTimes& other);
  /// Layers add up to the window within `tolerance` (a share of it).
  bool Reconciles(double tolerance) const;
};

/// Attributes the wall-timeline `events` (already restricted to one
/// operation) that fall inside `window`.
LayerTimes Attribute(const std::vector<const accmg::trace::Event*>& events,
                     Interval window);

/// Wall events whose interval lies inside `window` (1 us slack).
std::vector<const accmg::trace::Event*> EventsInside(
    const std::vector<accmg::trace::Event>& events, Interval window);

}  // namespace perfbench
