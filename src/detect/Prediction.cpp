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

/// One access the pass still holds for its location. Every location's
/// entries form a short list in trace order: the last write, and the
/// last read on each chain.
struct LiveAccess {
  const TraceEvent *Event; ///< A MemAccess event of the trace.
  uint32_t Chain;          ///< Reads: the reading operation's chain.
  bool HadPriorRead;       ///< Writes: its operation read the location first.

  const Access &access() const { return Event->Mem; }
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
  // decoder rejects out-of-range ids), so the states are a flat array.
  std::vector<std::vector<LiveAccess>> States(Log.interner().size());
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
      const bool IsWrite = A.Kind == AccessKind::Write;
      assert(A.Loc < States.size() && "access of an uninterned location");
      std::vector<LiveAccess> &Live = States[A.Loc];

      // A write's operation read the location first iff that read is
      // still here (see the update below).
      const bool HadPriorRead =
          IsWrite && std::any_of(Live.begin(), Live.end(),
                                 [&A](const LiveAccess &Prior) {
                                   return Prior.access().Op == A.Op &&
                                          Prior.access().Kind ==
                                              AccessKind::Read;
                                 });

      // Check against the entries *before* this access updates the
      // engine: under SHB the reader's write-read join must not order
      // away the very pair being asked about. Entries are in trace order,
      // so each (location, pair) gets the earliest witness the state has.
      bool ReadsBefore = true; // Every checked read is ordered before A.
      for (const LiveAccess &Entry : Live) {
        const Access &Prior = Entry.access();
        if (Prior.Op == A.Op ||
            (!IsWrite && Prior.Kind != AccessKind::Write))
          continue;
        ++Result.PairsChecked;
        Ordering Order = PO.ordering(Prior.Op, A.Op);
        if (Prior.Kind == AccessKind::Read && Order != Ordering::Before)
          ReadsBefore = false;
        if (Order != Ordering::Concurrent)
          continue;
        PairKey Key{A.Loc, packPair(Prior.Op, A.Op)};
        if (!Seen.insert(Key).second)
          continue;
        PredictedRace P;
        P.R.Loc = Log.interner().resolve(A.Loc);
        P.R.First = Prior;
        P.R.Second = A;
        P.R.Kind = classifyRace(Prior, A, P.R.Loc);
        // The Sec. 5.3 refinement looks at whichever side is a write.
        P.R.WriteHadPriorReadInOp = Entry.HadPriorRead || HadPriorRead;
        P.Verdict = Observed.count(Key) != 0 ? PredictionVerdict::Observed
                                             : PredictionVerdict::Predicted;
        Result.Races.push_back(std::move(P));
      }

      PO.onMemoryAccess(A);
      const uint32_t Chain = IsWrite ? 0 : PO.chainOf(A.Op);
      // The update. Entries of A's own operation always stay: all of one
      // operation's accesses get the same verdicts, and the earliest is
      // the witness the whole history reports first.
      bool Own = false; // A's operation already has an entry of A's kind.
      std::erase_if(Live, [&](const LiveAccess &Prior) {
        const Access &P = Prior.access();
        if (P.Op == A.Op) {
          Own |= P.Kind == A.Kind;
          return false;
        }
        // FastTrack's rule: a write supersedes the last write, and the
        // reads once every one is ordered before it.
        if (IsWrite)
          return P.Kind == AccessKind::Write || ReadsBefore;
        // A chain is totally ordered: a read supersedes the previous
        // read on its chain.
        return P.Kind == AccessKind::Read && Prior.Chain == Chain;
      });
      if (!Own)
        Live.push_back({&E, Chain, HadPriorRead});
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
