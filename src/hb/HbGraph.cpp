//===- hb/HbGraph.cpp - The happens-before relation ------------------------===//

#include "hb/HbGraph.h"

#include "support/Watermarks.h"

#include <algorithm>

using namespace wr;

const char *wr::toString(HbRule Rule) {
  switch (Rule) {
  case HbRule::R1a_ParseOrder:
    return "rule 1a (parse order)";
  case HbRule::R1b_InlineScript:
    return "rule 1b (inline script before next parse)";
  case HbRule::R1c_SyncScriptLoad:
    return "rule 1c (sync script load before next parse)";
  case HbRule::R2_CreateBeforeExe:
    return "rule 2 (create before exe)";
  case HbRule::R3_ExeBeforeLoad:
    return "rule 3 (exe before load)";
  case HbRule::R4_CreateBeforeDefer:
    return "rule 4 (create before deferred exe)";
  case HbRule::R5_DeferOrder:
    return "rule 5 (deferred script order)";
  case HbRule::R6_FrameCreate:
    return "rule 6 (frame before nested create)";
  case HbRule::R7_FrameLoad:
    return "rule 7 (nested window load before iframe load)";
  case HbRule::R8_TargetCreated:
    return "rule 8 (target created before dispatch)";
  case HbRule::R9_DispatchOrder:
    return "rule 9 (dispatch order)";
  case HbRule::R10_AjaxSend:
    return "rule 10 (send before readystatechange)";
  case HbRule::R11_DclBeforeLoad:
    return "rule 11 (DOMContentLoaded before window load)";
  case HbRule::R12_ParseBeforeDcl:
    return "rule 12 (parse before DOMContentLoaded)";
  case HbRule::R13_InlineBeforeDcl:
    return "rule 13 (inline exe before DOMContentLoaded)";
  case HbRule::R14_ScriptLoadBeforeDcl:
    return "rule 14 (script load before DOMContentLoaded)";
  case HbRule::R15_ElemLoadBeforeWindowLoad:
    return "rule 15 (element load before window load)";
  case HbRule::R16_SetTimeout:
    return "rule 16 (setTimeout)";
  case HbRule::R17_SetInterval:
    return "rule 17 (setInterval)";
  case HbRule::RA_DispatchChain:
    return "appendix (dispatch handler chain)";
  case HbRule::RA_InlineSplit:
    return "appendix (inline dispatch split)";
  case HbRule::RProgram:
    return "program order";
  }
  return "unknown rule";
}

const char *wr::toString(Ordering O) {
  switch (O) {
  case Ordering::Before:
    return "before";
  case Ordering::After:
    return "after";
  case Ordering::Concurrent:
    return "concurrent";
  }
  return "unknown";
}

HbGraph::HbGraph() = default;

OpId HbGraph::addOperation(Operation Op) {
  Ops.push_back(std::move(Op));
  Succ.emplace_back();
  Pred.emplace_back();
  InEdgeRules.emplace_back();
  VisitEpoch.push_back(0);
  return static_cast<OpId>(Ops.size());
}

void HbGraph::reserveOperations(size_t ExpectedOps) {
  if (ExpectedOps <= Ops.size())
    return;
  Ops.reserve(ExpectedOps);
  Succ.reserve(ExpectedOps);
  Pred.reserve(ExpectedOps);
  InEdgeRules.reserve(ExpectedOps);
  VisitEpoch.reserve(ExpectedOps);
  ClockReps.reserve(ExpectedOps);
}

void HbGraph::addEdge(OpId From, OpId To, HbRule Rule) {
  assert(From != InvalidOpId && To != InvalidOpId && "invalid endpoint");
  assert(From <= Ops.size() && To <= Ops.size() && "unknown operation");
  assert(From < To &&
         "HB edges must point from an older to a newer operation");
  assert(ClockReps.size() < To && "in-edges must precede clock finalization");
  auto &Out = Succ[From - 1];
  if (std::find(Out.begin(), Out.end(), To) != Out.end())
    return; // Duplicate edge.
  Out.push_back(To);
  Pred[To - 1].push_back(From);
  InEdgeRules[To - 1].push_back({From, Rule});
  ++EdgeCount;
  ++EdgesByRule[static_cast<size_t>(Rule)];
}

bool HbGraph::reachesDfs(OpId A, OpId B) const {
  assert(A != InvalidOpId && B != InvalidOpId && "invalid OpId");
  if (A >= B)
    return false; // Edges strictly ascend, so no path can descend.
  uint64_t Key = (static_cast<uint64_t>(A) << 32) | B;
  auto Memo = ReachMemo.find(Key);
  if (Memo != ReachMemo.end())
    return Memo->second;

  // Iterative DFS restricted to ids in (A, B]; edges ascend so anything
  // above B can never reach back down to it.
  ++CurrentEpoch;
  bool Found = false;
  std::vector<OpId> Stack;
  Stack.push_back(A);
  VisitEpoch[A - 1] = CurrentEpoch;
  while (!Stack.empty() && !Found) {
    OpId Cur = Stack.back();
    Stack.pop_back();
    for (OpId Next : Succ[Cur - 1]) {
      if (Next == B) {
        Found = true;
        break;
      }
      if (Next > B || VisitEpoch[Next - 1] == CurrentEpoch)
        continue;
      VisitEpoch[Next - 1] = CurrentEpoch;
      Stack.push_back(Next);
    }
  }
  ReachMemo.emplace(Key, Found);
  return Found;
}

void HbGraph::buildClock(OpId Op) const {
  // Clocks are built strictly in id order; predecessors are always lower
  // ids, so their clocks already exist.
  assert(ClockReps.size() + 1 == Op && "clocks must be built in order");
  const OpList &Preds = Pred[Op - 1];

  // Greedy chain packing (unchanged from the eager-copy representation,
  // so chain assignment - and therefore numChains() and every report
  // that mentions it - is bit-identical): the first predecessor in edge
  // order that is still the tail of its chain donates its chain.
  uint32_t PickedChain = UINT32_MAX;
  uint32_t PickedPos = 0;
  const ClockRep *Base = nullptr; ///< Clock the new op extends, if any.
  for (OpId P : Preds) {
    const ClockRep &PR = ClockReps[P - 1];
    if (ChainTails[PR.DeltaChain] == P) {
      PickedChain = PR.DeltaChain;
      PickedPos = PR.DeltaPos + 1;
      Base = &PR;
      break;
    }
  }
  if (PickedChain == UINT32_MAX) {
    PickedChain = static_cast<uint32_t>(ChainTails.size());
    PickedPos = 1;
    ChainTails.push_back(Op);
  } else {
    ChainTails[PickedChain] = Op;
  }

  ClockRep R;
  R.DeltaChain = PickedChain;
  R.DeltaPos = PickedPos;

  // Copy-on-write: when the op extends a predecessor's chain, the
  // predecessor's own delta slot is the very slot the new op overrides,
  // so aliasing the predecessor's base slab plus the new delta *is* the
  // merged clock - as long as every other predecessor's watermarks are
  // already dominated by it. Sharing is sound because the builder only
  // adds edges to the newest operation: a finalized slab can never gain
  // entries later, so an alias can never observe a mutation.
  // Does predecessor \p PR's effective clock stay pointwise within the
  // aliased clock (base slab R.Offset / R.Len), ignoring the picked
  // chain's column? A rep's effective clock is its base slab with the
  // delta slot overriding (and always >=) the base entry at DeltaChain,
  // so the check splits into the delta slot plus a wide pointwise compare
  // of the contiguous base slabs (support/Watermarks.h, two watermarks
  // per uint64 step) with the two special columns carved out. The picked
  // chain needs no check: no watermark can exceed its tail's position,
  // which PickedPos exceeds by one.
  auto aliasDominates = [&](const ClockRep &PR, const ClockRep &R) {
    if (PR.DeltaChain != PickedChain) {
      uint32_t Ours =
          PR.DeltaChain < R.Len ? ClockPool[R.Offset + PR.DeltaChain] : 0;
      if (PR.DeltaPos > Ours)
        return false;
    }
    // Base-slab columns [Begin, End): pointwise <= the aliased slab where
    // both cover the chain, zero where only PR does.
    auto baseDominated = [&](uint32_t Begin, uint32_t End) {
      if (Begin >= End)
        return true;
      const uint32_t *Theirs = ClockPool.data() + PR.Offset;
      uint32_t Mid = std::min(End, R.Len);
      if (Begin < Mid &&
          !support::watermarksDominated(
              Theirs + Begin, ClockPool.data() + R.Offset + Begin,
              Mid - Begin))
        return false;
      uint32_t ZBegin = std::max(Begin, Mid);
      return ZBegin >= End ||
             support::watermarksAllZero(Theirs + ZBegin, End - ZBegin);
    };
    uint32_t S1 = std::min(PR.DeltaChain, PickedChain);
    uint32_t S2 = std::max(PR.DeltaChain, PickedChain);
    return baseDominated(0, std::min(S1, PR.Len)) &&
           baseDominated(std::min(S1 + 1, PR.Len), std::min(S2, PR.Len)) &&
           baseDominated(std::min(S2 + 1, PR.Len), PR.Len);
  };

  bool CanAlias = Base != nullptr || Preds.empty();
  if (Base != nullptr) {
    R.Offset = Base->Offset;
    R.Len = Base->Len;
    for (OpId P : Preds) {
      const ClockRep &PR = ClockReps[P - 1];
      if (&PR == Base)
        continue;
      if (!aliasDominates(PR, R)) {
        CanAlias = false;
        break;
      }
    }
  }

  if (CanAlias) {
    ++SharedClocks;
  } else {
    // Materialize the merge: max over every predecessor's effective
    // clock, written as a fresh slab at the end of the arena. The fresh
    // slab is disjoint from every finalized slab, so the wide join's
    // no-overlap requirement holds.
    ++ClockMerges;
    uint32_t Len = 0;
    for (OpId P : Preds)
      Len = std::max(Len, clockLenAt(P - 1));
    uint32_t Offset = static_cast<uint32_t>(ClockPool.size());
    ClockPool.resize(ClockPool.size() + Len, 0);
    for (OpId P : Preds) {
      const ClockRep &PR = ClockReps[P - 1];
      support::watermarksJoinMax(ClockPool.data() + Offset,
                                 ClockPool.data() + PR.Offset, PR.Len);
      // The delta slot always dominates its own base entry, so a max
      // lands the override.
      uint32_t &Slot = ClockPool[Offset + PR.DeltaChain];
      if (PR.DeltaPos > Slot)
        Slot = PR.DeltaPos;
    }
    R.Offset = Offset;
    R.Len = Len;
  }

  ClockReps.push_back(R);
}

void HbGraph::ensureClocks(OpId Op) const {
  while (ClockReps.size() < Op)
    buildClock(static_cast<OpId>(ClockReps.size() + 1));
}

bool HbGraph::reachesVectorClock(OpId A, OpId B) const {
  assert(A != InvalidOpId && B != InvalidOpId && "invalid OpId");
  if (A >= B)
    return false;
  // Lazily extend the clock index up to B. Safe because all in-edges of an
  // operation are added before any query can mention it as an endpoint.
  ensureClocks(B);
  const ClockRep &RA = ClockReps[A - 1];
  return clockEntryAt(B - 1, RA.DeltaChain) >= RA.DeltaPos;
}

uint32_t HbGraph::chainOf(OpId Op) const {
  assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
  ensureClocks(Op);
  return ClockReps[Op - 1].DeltaChain;
}

uint32_t HbGraph::chainPositionOf(OpId Op) const {
  assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
  ensureClocks(Op);
  return ClockReps[Op - 1].DeltaPos;
}

uint32_t HbGraph::clockWatermark(OpId Op, uint32_t Chain) const {
  assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
  ensureClocks(Op);
  return clockEntryAt(Op - 1, Chain);
}

uint64_t HbGraph::fullCopyClockBytes() const {
  // Model the eager representation this index replaced: per op, one
  // std::vector<uint32_t> (header + one heap word per covered chain) and
  // one (chain, pos) assignment record.
  uint64_t Words = 0;
  for (uint32_t I = 0; I < ClockReps.size(); ++I)
    Words += clockLenAt(I);
  return Words * sizeof(uint32_t) +
         ClockReps.size() *
             (sizeof(std::vector<uint32_t>) + 2 * sizeof(uint32_t)) +
         ChainTails.size() * sizeof(OpId);
}

bool HbGraph::findDirectEdgeRule(OpId From, OpId To, HbRule &RuleOut) const {
  if (To == InvalidOpId || To > Ops.size())
    return false;
  for (const auto &[Pred, Rule] : InEdgeRules[To - 1]) {
    if (Pred == From) {
      RuleOut = Rule;
      return true;
    }
  }
  return false;
}

std::vector<OpId> HbGraph::explainPath(OpId A, OpId B) const {
  std::vector<OpId> Path;
  if (A == InvalidOpId || B == InvalidOpId || A >= B)
    return Path;
  // BFS from A recording parents, restricted to ids <= B.
  std::vector<OpId> Parent(Ops.size() + 1, InvalidOpId);
  std::vector<OpId> Queue;
  Queue.push_back(A);
  Parent[A] = A;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    OpId Cur = Queue[Head];
    for (OpId Next : Succ[Cur - 1]) {
      if (Next > B || Parent[Next] != InvalidOpId)
        continue;
      Parent[Next] = Cur;
      if (Next == B) {
        // Reconstruct.
        for (OpId Walk = B; Walk != A; Walk = Parent[Walk])
          Path.push_back(Walk);
        Path.push_back(A);
        std::reverse(Path.begin(), Path.end());
        return Path;
      }
      Queue.push_back(Next);
    }
  }
  return Path;
}
