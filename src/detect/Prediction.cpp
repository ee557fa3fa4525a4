//===- detect/Prediction.cpp - Predictive races over a trace ---------------===//

#include "detect/Prediction.h"

#include "hb/PredictiveEngine.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_set>
#include <vector>

using namespace wr;
using namespace wr::detect;

const char *wr::detect::toString(PredictionVerdict Verdict) {
  switch (Verdict) {
  case PredictionVerdict::Observed:
    return "observed";
  case PredictionVerdict::Predicted:
    return "predicted";
  }
  return "unknown";
}

size_t PredictionResult::observedMatched() const {
  return static_cast<size_t>(
      std::count_if(Races.begin(), Races.end(), [](const PredictedRace &P) {
        return P.Verdict == PredictionVerdict::Observed;
      }));
}

size_t PredictionResult::predictedCount() const {
  return Races.size() - observedMatched();
}

std::vector<EngineKind> wr::detect::enginesToPredict(EngineKind Effective) {
  if (Effective == EngineKind::Shb || Effective == EngineKind::Wcp)
    return {Effective};
  return {EngineKind::Shb, EngineKind::Wcp};
}

obs::PredictionRow wr::detect::toStatsRow(const PredictionResult &Result) {
  obs::PredictionRow Row;
  Row.Engine = wr::toString(Result.Engine);
  Row.PairsChecked = Result.PairsChecked;
  Row.DroppedEdges = Result.DroppedEdges;
  Row.Candidates = Result.Races.size();
  Row.Observed = Result.observedMatched();
  for (const PredictedRace &P : Result.Races) {
    if (P.Verdict != PredictionVerdict::Predicted)
      continue;
    switch (P.R.Kind) {
    case RaceKind::Variable:
      ++Row.Predicted.Variable;
      break;
    case RaceKind::Html:
      ++Row.Predicted.Html;
      break;
    case RaceKind::Function:
      ++Row.Predicted.Function;
      break;
    case RaceKind::EventDispatch:
      ++Row.Predicted.EventDispatch;
      break;
    }
  }
  return Row;
}

namespace {

/// Key of one deduplicated finding: the location and the unordered
/// operation pair. Ops are 32-bit (HbGraph static_assert), so the pair
/// packs into one uint64_t.
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

uint64_t packPair(OpId A, OpId B) {
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

} // namespace

PredictionResult wr::detect::predictRaces(const TraceLog &Log,
                                          EngineKind Engine,
                                          const std::vector<Race> &ObservedRaw) {
  PredictionResult Result;
  Result.Engine = Engine;

  // The engines build their own clocks from the stream.
  assert(Engine != EngineKind::Hb && "predictRaces takes SHB or WCP");
  std::unique_ptr<PredictiveEngine> Owned;
  if (Engine == EngineKind::Shb)
    Owned = std::make_unique<ShbEngine>();
  else
    Owned = std::make_unique<WcpEngine>();
  PredictiveEngine &PO = *Owned;

  // WCP classifies dispatch-order edges by whether the endpoints
  // conflict, which needs both operations' access footprints before the
  // edge streams by - hence the pre-pass.
  if (Engine == EngineKind::Wcp)
    for (const TraceEvent &E : Log.events())
      if (E.K == TraceEvent::Kind::MemAccess)
        PO.primeAccess(E.Mem.Op, E.Mem.Loc, E.Mem.Kind);

  // Index the observed raw races for verdict labeling.
  std::unordered_set<PairKey, PairKeyHash> Observed;
  for (const Race &R : ObservedRaw)
    Observed.insert({R.First.Loc, packPair(R.First.Op, R.Second.Op)});

  // LocIds are dense indices into the trace's location table (the WRT2
  // decoder rejects out-of-range ids), so histories are a flat array.
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
