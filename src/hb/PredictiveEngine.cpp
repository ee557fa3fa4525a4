//===- hb/PredictiveEngine.cpp - SHB / WCP predictive orders ---------------===//

#include "hb/PredictiveEngine.h"

#include "support/Watermarks.h"

#include <algorithm>
#include <cassert>

using namespace wr;

void PredictiveEngine::onOperationCreated(OpId Op, const Operation &Meta) {
  (void)Op;
  (void)Meta;
  assert(Op == Clocks.size() + 1 && "operations must arrive in id order");
  Clocks.emplace_back();
  Preds.emplace_back();
}

void PredictiveEngine::onHbEdge(OpId From, OpId To, HbRule Rule) {
  assert(From != InvalidOpId && To != InvalidOpId && From < To &&
         "HB edges must point from an older to a newer operation");
  assert(To <= Clocks.size() && "edge targets an unknown operation");
  assert(Finalized < To && "in-edges must precede clock finalization");
  if (!keepEdge(From, To, Rule)) {
    ++DroppedEdges;
    return;
  }
  std::vector<OpId> &In = Preds[To - 1];
  if (std::find(In.begin(), In.end(), From) == In.end())
    In.push_back(From);
}

void PredictiveEngine::joinInto(std::vector<uint32_t> &Dst,
                                const std::vector<uint32_t> &Src) {
  if (&Dst == &Src)
    return; // Self-join is a no-op (and would violate no-overlap).
  if (Src.size() > Dst.size())
    Dst.resize(Src.size(), 0);
  support::watermarksJoinMax(Dst.data(), Src.data(), Src.size());
}

void PredictiveEngine::finalizeThrough(OpId Op) const {
  assert(Op <= Clocks.size() && "access names an unknown operation");
  for (OpId Cur = Finalized + 1; Cur <= Op; ++Cur) {
    OpClock &C = Clocks[Cur - 1];
    // Greedy chain packing, mirroring HbGraph: the first predecessor (in
    // edge order) that is still its chain's tail donates its chain.
    uint32_t Chain = static_cast<uint32_t>(ChainTails.size());
    uint32_t Pos = 1;
    for (OpId P : Preds[Cur - 1]) {
      const OpClock &PC = Clocks[P - 1];
      if (ChainTails[PC.Chain] == P) {
        Chain = PC.Chain;
        Pos = PC.Pos + 1;
        break;
      }
    }
    if (Chain == ChainTails.size())
      ChainTails.push_back(Cur);
    else
      ChainTails[Chain] = Cur;
    C.Chain = Chain;
    C.Pos = Pos;
    for (OpId P : Preds[Cur - 1])
      joinInto(C.Clock, Clocks[P - 1].Clock);
    if (C.Clock.size() <= Chain)
      C.Clock.resize(Chain + 1, 0);
    C.Clock[Chain] = Pos;
  }
  Finalized = std::max(Finalized, Op);
}

void PredictiveEngine::onMemoryAccess(const Access &A) {
  assert(A.Op != InvalidOpId && "access without an operation");
  finalizeThrough(A.Op);
  OpClock &C = Clocks[A.Op - 1];
  if (A.Kind == AccessKind::Read) {
    // Write-read edge: the reader observes the last writer's value, so
    // in every schedule this order admits, that write stays before this
    // read - join the last-write clock.
    if (A.Loc < LastWriteClock.size())
      joinInto(C.Clock, LastWriteClock[A.Loc]);
    return;
  }
  if (A.Loc >= LastWriteClock.size())
    LastWriteClock.resize(static_cast<size_t>(A.Loc) + 1);
  LastWriteClock[A.Loc] = C.Clock;
}

uint32_t PredictiveEngine::chainOf(OpId Op) const {
  assert(Op != InvalidOpId && "chainOf() requires a valid operation");
  finalizeThrough(Op);
  return Clocks[Op - 1].Chain;
}

Ordering PredictiveEngine::ordering(OpId A, OpId B) const {
  assert(A != InvalidOpId && B != InvalidOpId && A != B &&
         "ordering() requires two distinct valid operations");
  // The driver asks about an access's operation before that access
  // reaches onMemoryAccess (check-then-update), so queries finalize
  // lazily, exactly like HbGraph's clock index.
  finalizeThrough(std::max(A, B));
  // Write-read joins can order a higher id before a lower one (an op
  // created later may run earlier), so unlike HbGraph both directions
  // must be probed. Both cannot hold: trace order is acyclic.
  const OpClock &CA = Clocks[A - 1];
  const OpClock &CB = Clocks[B - 1];
  if (CA.Chain < CB.Clock.size() && CB.Clock[CA.Chain] >= CA.Pos)
    return Ordering::Before;
  if (CB.Chain < CA.Clock.size() && CA.Clock[CB.Chain] >= CB.Pos)
    return Ordering::After;
  return Ordering::Concurrent;
}

void WcpEngine::primeAccess(OpId Op, LocId Loc, AccessKind Kind) {
  assert(Op != InvalidOpId && "access without an operation");
  if (Op > Footprint.size())
    Footprint.resize(Op);
  Footprint[Op - 1][Loc] |= Kind == AccessKind::Write ? 2 : 1;
}

bool WcpEngine::conflicting(OpId A, OpId B) const {
  if (A > Footprint.size() || B > Footprint.size())
    return false;
  const auto &FA = Footprint[A - 1];
  const auto &FB = Footprint[B - 1];
  const auto &Small = FA.size() <= FB.size() ? FA : FB;
  const auto &Large = FA.size() <= FB.size() ? FB : FA;
  for (const auto &[Loc, Mask] : Small) {
    auto It = Large.find(Loc);
    if (It != Large.end() && (Mask | It->second) & 2)
      return true;
  }
  return false;
}

void WcpEngine::onOperationCreated(OpId Op, const Operation &Meta) {
  PredictiveEngine::onOperationCreated(Op, Meta);
  IntervalCb.push_back(Meta.Kind == OperationKind::IntervalCallback);
  IntervalCreator.push_back(InvalidOpId);
}

void WcpEngine::onHbEdge(OpId From, OpId To, HbRule Rule) {
  if (Rule != HbRule::R17_SetInterval) {
    PredictiveEngine::onHbEdge(From, To, Rule);
    return;
  }
  // Carry the registration op down the rule-17 chain: caller -> cb_0
  // names it directly, cb_i -> cb_{i+1} inherits cb_i's.
  OpId Creator = isIntervalCb(From) ? IntervalCreator[From - 1] : From;
  if (Creator != InvalidOpId)
    IntervalCreator[To - 1] = Creator;
  uint64_t Before = droppedEdges();
  PredictiveEngine::onHbEdge(From, To, Rule);
  // A dropped chain edge models reordering the two callbacks, not
  // detaching the later one from its registration - substitute the
  // creation edge (keepEdge always keeps it: Creator is no interval
  // callback).
  if (droppedEdges() != Before && Creator != InvalidOpId && Creator != From)
    PredictiveEngine::onHbEdge(Creator, To, HbRule::R17_SetInterval);
}

bool WcpEngine::keepEdge(OpId From, OpId To, HbRule Rule) {
  if (Rule == HbRule::R9_DispatchOrder)
    return conflicting(From, To);
  // Rule 17: only the cb_i -> cb_{i+1} chain edges weaken; the
  // caller -> cb_0 creation edge is causal and always kept.
  if (Rule == HbRule::R17_SetInterval && isIntervalCb(From))
    return conflicting(From, To);
  return true;
}
