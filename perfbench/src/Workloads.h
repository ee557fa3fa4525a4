//===- Workloads.h - The benchmark's three workloads -------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload owns inputs generated from the benchmark seed and runs
/// one item at a time, the way a single caller of the library would:
///
///  * corpus  - sites::runSite per site of the Fortune-100 corpus, with
///              the static cross-check and SHB/WCP prediction on, as
///              `webracer-cli corpus` runs it.
///  * ingest  - triage::ingestTraceFile per WRT2 trace recorded from
///              corpus sites in setup; prediction off, as `batch` runs.
///  * bigpage - webracer::Session::run per large all-pattern page with
///              the `page` defaults (exploration on, no prediction).
///
/// run() is the untraced item. runTraced() makes the same public calls,
/// split at each layer boundary under a span, and adds the item's
/// counters to a per-pass sum.
///
//===----------------------------------------------------------------------===//

#ifndef WRBENCH_WORKLOADS_H
#define WRBENCH_WORKLOADS_H

#include "Trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace wrbench {

/// Named per-pass sums (counts and layer times read from RunStats).
using Sums = std::map<std::string, double>;

/// Span names that are not part of an item's timed work (output checks
/// that need the item's live state).
inline constexpr const char *CheckSpan = "bench.check";

class Workload {
public:
  virtual ~Workload() = default;

  /// Items in one pass; a pass runs every input once, in order.
  virtual size_t size() const = 0;

  /// Runs item \p I untraced. Sets \p Ns to the item's timed
  /// nanoseconds and returns whether its output passed the check.
  virtual bool run(size_t I, uint64_t &Ns) = 0;

  /// Runs item \p I as its layer calls, each under a span of \p T, and
  /// adds its counters to \p Pass. Returns whether the output passed.
  virtual bool runTraced(size_t I, Tracer &T, Sums &Pass) = 0;

  /// Pass-level work after a traced pass (the corpus report). Returns
  /// false when its check failed.
  virtual bool endTracedPass(Tracer &T, Sums &Pass) {
    (void)T;
    (void)Pass;
    return true;
  }

  /// Counters established by the untraced warm-up pass (and setup); a
  /// traced pass must reproduce each of them exactly.
  const Sums &warmup() const { return Warm; }

  /// Setup findings reported alongside the traced metrics.
  const Sums &setupFacts() const { return Facts; }

  /// Items of the warm-up pass whose output failed its check.
  uint64_t warmupFailures() const { return WarmFailures; }

protected:
  Sums Warm;
  Sums Facts;
  uint64_t WarmFailures = 0;
};

/// Names of the workloads, in the order the traced run visits them.
const std::vector<std::string> &workloadNames();

/// Generates \p Name's inputs from \p Seed and makes its untimed
/// warm-up pass (this is the set-up the benchmark times). \p ScratchDir
/// is a directory the workload may write into; it removes what it
/// wrote when destroyed. Returns null for an unknown name; throws
/// std::runtime_error when set-up cannot complete.
std::unique_ptr<Workload> makeWorkload(const std::string &Name, uint64_t Seed,
                                       const std::string &ScratchDir);

} // namespace wrbench

#endif // WRBENCH_WORKLOADS_H
