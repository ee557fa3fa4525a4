//===- hb/PartialOrderEngine.h - Pluggable ordering oracles -----*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The partial orders a recorded trace can be analyzed under:
///
///  * Hb - the paper's happens-before relation. It has no engine: the
///    observed-race detector holds the HbGraph directly and asks its
///    clock index epoch probes (RaceDetector.h).
///  * Shb / Wcp (PredictiveEngine.h) - weaker/stronger orders for race
///    *prediction* over replayed traces; their verdicts evolve as the
///    trace streams by. The predictive pass (detect/Prediction.h) asks
///    them through the engine interface below.
///
/// Engines receive the replayed trace through the three hook methods
/// (operation creation, rule-tagged HB edges, memory accesses) plus an
/// optional primeAccess() pre-pass; all hooks default to no-ops.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_HB_PARTIALORDERENGINE_H
#define WEBRACER_HB_PARTIALORDERENGINE_H

#include "hb/HbGraph.h"
#include "mem/Location.h"

namespace wr {

/// Which partial order a detector or prediction pass runs over.
enum class EngineKind : uint8_t {
  Hb,  ///< Observed happens-before (default).
  Shb, ///< Schedulable-HB: HB plus write-read edges (SHB paper).
  Wcp, ///< Weak-causally-precedes adaptation: SHB minus dispatch-order
       ///< edges between non-conflicting operations.
};

/// Renders an engine kind as its CLI spelling (hb, shb, wcp).
const char *toString(EngineKind Kind);

/// Parses a CLI engine name; returns false (leaving \p Out untouched) on
/// an unknown spelling.
bool parseEngineKind(const char *Name, EngineKind &Out);

/// Abstract ordering oracle over trace operations.
class PartialOrderEngine {
public:
  virtual ~PartialOrderEngine() = default;

  virtual EngineKind kind() const = 0;

  /// Combined ordering verdict; requires A != B, both valid.
  virtual Ordering ordering(OpId A, OpId B) const = 0;

  /// True iff A precedes B in this engine's partial order.
  bool happensBefore(OpId A, OpId B) const {
    return ordering(A, B) == Ordering::Before;
  }

  /// CHC under this order: both valid, distinct, unordered.
  bool concurrent(OpId A, OpId B) const {
    if (A == InvalidOpId || B == InvalidOpId || A == B)
      return false;
    return ordering(A, B) == Ordering::Concurrent;
  }

  /// Trace-stream hooks (defaults: no-op). Drivers feed every replayed
  /// event through these in trace order.
  virtual void onOperationCreated(OpId Op, const Operation &Meta) {
    (void)Op;
    (void)Meta;
  }
  virtual void onHbEdge(OpId From, OpId To, HbRule Rule) {
    (void)From;
    (void)To;
    (void)Rule;
  }
  virtual void onMemoryAccess(const Access &A) { (void)A; }

  /// Optional pre-pass: called once per access, before any other hook,
  /// for engines that need both endpoints' access sets to classify an
  /// edge (WCP's conflict test). Default: no-op.
  virtual void primeAccess(OpId Op, LocId Loc, AccessKind Kind) {
    (void)Op;
    (void)Loc;
    (void)Kind;
  }
};

} // namespace wr

#endif // WEBRACER_HB_PARTIALORDERENGINE_H
