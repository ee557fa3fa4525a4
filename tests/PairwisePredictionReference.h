//===- tests/PairwisePredictionReference.h - Whole-history prediction -*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predictive pass written the plainest way: every access is checked
/// against the location's *whole* buffered history (every earlier access
/// from another operation with at least one write side), and every
/// unordered pair becomes a finding, deduplicated per (location,
/// operation pair). detect::predictRaces checks each access against a
/// bounded per-location state instead (the last write, plus the last
/// read per chain); it poses a subset of this loop's questions to the
/// same engine at the same stream positions, so its findings are a
/// subset of these, and the oracle tests pin that it still finds a race
/// at every location this loop does.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_TESTS_PAIRWISEPREDICTIONREFERENCE_H
#define WEBRACER_TESTS_PAIRWISEPREDICTIONREFERENCE_H

#include "detect/Prediction.h"
#include "hb/PredictiveEngine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_set>
#include <vector>

namespace wr::testing {

namespace pairwise_detail {

struct PairKey {
  LocId Loc;
  uint64_t Ops;

  bool operator==(const PairKey &Other) const = default;
};

struct PairKeyHash {
  size_t operator()(const PairKey &K) const {
    uint64_t H = K.Ops * 0x9e3779b97f4a7c15ull;
    return std::hash<uint64_t>()(H ^ K.Loc);
  }
};

inline uint64_t packPair(OpId A, OpId B) {
  OpId Lo = std::min(A, B);
  OpId Hi = std::max(A, B);
  return (static_cast<uint64_t>(Lo) << 32) | Hi;
}

/// Per-location history of the pass (mirrors the detector's FullHistory
/// bookkeeping, including the form-filter metadata).
struct LocHistory {
  struct Entry {
    Access A;
    bool HadPriorRead = false;
  };
  std::vector<Entry> Entries;
  std::unordered_set<OpId> ReaderOps;
};

} // namespace pairwise_detail

/// The whole-history predictive pass over \p Log under \p Engine (Shb or
/// Wcp), with verdicts labelled against \p ObservedRaw exactly as
/// detect::predictRaces labels them.
inline detect::PredictionResult
pairwiseReferencePredict(const TraceLog &Log, EngineKind Engine,
                         const std::vector<detect::Race> &ObservedRaw) {
  using namespace wr::detect;
  using namespace pairwise_detail;
  PredictionResult Result;
  Result.Engine = Engine;

  assert(Engine != EngineKind::Hb && "the reference takes SHB or WCP");
  std::unique_ptr<PredictiveEngine> Owned;
  if (Engine == EngineKind::Shb)
    Owned = std::make_unique<ShbEngine>();
  else
    Owned = std::make_unique<WcpEngine>();
  PredictiveEngine &PO = *Owned;

  if (Engine == EngineKind::Wcp)
    for (const TraceEvent &E : Log.events())
      if (E.K == TraceEvent::Kind::MemAccess)
        PO.primeAccess(E.Mem.Op, E.Mem.Loc, E.Mem.Kind);

  std::unordered_set<PairKey, PairKeyHash> Observed;
  for (const Race &R : ObservedRaw)
    Observed.insert({R.First.Loc, packPair(R.First.Op, R.Second.Op)});

  std::vector<LocHistory> Histories(Log.interner().size());
  std::unordered_set<PairKey, PairKeyHash> Seen;

  for (const TraceEvent &E : Log.events()) {
    switch (E.K) {
    case TraceEvent::Kind::OpCreated:
      PO.onOperationCreated(E.Op, E.Meta);
      break;
    case TraceEvent::Kind::HbEdge:
      PO.onHbEdge(E.Op, E.Op2, E.Rule);
      break;
    case TraceEvent::Kind::MemAccess: {
      const Access &A = E.Mem;
      assert(A.Loc < Histories.size() && "access of an uninterned location");
      LocHistory &H = Histories[A.Loc];
      // Check against the whole history *before* this access updates the
      // engine: under SHB the reader's write-read join must not order
      // away the very pair being asked about.
      for (const LocHistory::Entry &Prior : H.Entries) {
        bool OneIsWrite = Prior.A.Kind == AccessKind::Write ||
                          A.Kind == AccessKind::Write;
        if (Prior.A.Op == A.Op || !OneIsWrite)
          continue;
        ++Result.PairsChecked;
        if (!PO.concurrent(Prior.A.Op, A.Op))
          continue;
        PairKey Key{A.Loc, packPair(Prior.A.Op, A.Op)};
        if (!Seen.insert(Key).second)
          continue;
        PredictedRace P;
        P.R.Loc = Log.interner().resolve(A.Loc);
        P.R.First = Prior.A;
        P.R.Second = A;
        P.R.Kind = classifyRace(Prior.A, A, P.R.Loc);
        if (Prior.A.Kind == AccessKind::Write && Prior.HadPriorRead)
          P.R.WriteHadPriorReadInOp = true;
        if (A.Kind == AccessKind::Write && H.ReaderOps.count(A.Op) != 0)
          P.R.WriteHadPriorReadInOp = true;
        P.Verdict = Observed.count(Key) != 0 ? PredictionVerdict::Observed
                                             : PredictionVerdict::Predicted;
        Result.Races.push_back(std::move(P));
      }
      PO.onMemoryAccess(A);
      LocHistory::Entry Entry;
      Entry.A = A;
      if (A.Kind == AccessKind::Write)
        Entry.HadPriorRead = H.ReaderOps.count(A.Op) != 0;
      H.Entries.push_back(std::move(Entry));
      if (A.Kind == AccessKind::Read)
        H.ReaderOps.insert(A.Op);
      break;
    }
    case TraceEvent::Kind::OpBegin:
    case TraceEvent::Kind::OpEnd:
    case TraceEvent::Kind::Dispatch:
      break;
    }
  }

  Result.DroppedEdges = PO.droppedEdges();
  return Result;
}

} // namespace wr::testing

#endif // WEBRACER_TESTS_PAIRWISEPREDICTIONREFERENCE_H
