//===- hb/HbGraph.h - The happens-before relation ---------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The happens-before relation of the paper's Section 3.3, represented as a
/// DAG over operations with rule-tagged edges.
///
/// Reachability is answered by the chain-decomposition vector-clock
/// index, the representation the paper names as future work (and which
/// the follow-up EventRacer system adopted). Operations are greedily
/// packed into chains; each operation carries a clock of per-chain
/// watermarks; reachability is an O(1) clock lookup. Clocks live in one
/// contiguous arena (a uint32_t pool plus a small per-op record) and are
/// shared copy-on-write: an operation that merely extends its
/// predecessor's chain aliases the predecessor's clock slab and overrides
/// one slot, and a multi-predecessor merge only materializes a new slab
/// when some predecessor's watermarks are not already dominated by the
/// base. See DESIGN.md "Near-linear HB index" for why sharing is sound
/// under the edges-only-target-the-newest-op builder contract.
///
/// The paper's own strategy - "the race detector represents the
/// happens-before relation rather directly as a graph structure" with
/// repeated traversals (Sec. 5.2.1) - survives as reachesDfs(), a
/// memoized DFS kept as the parity oracle the tests and benches compare
/// the clock index against. The memo is sound because the builder only
/// ever adds edges *to the most recently created operation*: once both
/// endpoints of a query exist, no later edge can create a new path
/// between them (every edge goes from a lower OpId to a higher OpId, so a
/// new path through a fresh operation would have to descend back below
/// it).
///
/// `bench/ablation_hb_repr` compares the two; `bench/hb_scaling` pins the
/// build-cost and clock-memory behavior at growing operation counts.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_HB_HBGRAPH_H
#define WEBRACER_HB_HBGRAPH_H

#include "hb/Operation.h"
#include "support/InlineVec.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace wr {

/// Which paper rule justified an edge; kept on every edge for debugging and
/// for explaining race reports.
enum class HbRule : uint8_t {
  R1a_ParseOrder,       ///< parse(E1) -> parse(E2), syntactic order.
  R1b_InlineScript,     ///< exe(inline E1) -> parse(E2).
  R1c_SyncScriptLoad,   ///< ld(sync E1) -> parse(E2).
  R2_CreateBeforeExe,   ///< create(E) -> exe(E).
  R3_ExeBeforeLoad,     ///< exe(E) -> ld(E).
  R4_CreateBeforeDefer, ///< create(E) -> exe(deferred S).
  R5_DeferOrder,        ///< ld(E1) -> exe(E2) for consecutive defers.
  R6_FrameCreate,       ///< create(iframe) -> create(nested element).
  R7_FrameLoad,         ///< ld(nested window) -> ld(iframe).
  R8_TargetCreated,     ///< create(T) -> disp_i(e, T).
  R9_DispatchOrder,     ///< disp_j(e,T) -> disp_i(e,T), j < i.
  R10_AjaxSend,         ///< send() -> disp_0(readystatechange, xhr).
  R11_DclBeforeLoad,    ///< dcl(D) -> ld(W).
  R12_ParseBeforeDcl,   ///< parse(E) -> dcl(D).
  R13_InlineBeforeDcl,  ///< exe(static inline E) -> dcl(D).
  R14_ScriptLoadBeforeDcl, ///< ld(sync/defer E) -> dcl(D).
  R15_ElemLoadBeforeWindowLoad, ///< ld(E) -> ld(W).
  R16_SetTimeout,       ///< caller -> cb(B).
  R17_SetInterval,      ///< caller -> cb_0; cb_i -> cb_{i+1}.
  RA_DispatchChain,     ///< begin -> h1 -> ... -> hn -> end within one
                        ///< dispatch (Appendix A phase ordering).
  RA_InlineSplit,       ///< A[0:k) -> B -> A[k+1:) for inline dispatch.
  RProgram,             ///< Generic program-order edge (bootstrap chains).
};

/// Renders a rule tag.
const char *toString(HbRule Rule);

/// Three-valued verdict of one combined ordering query between two
/// distinct, valid operations.
enum class Ordering : uint8_t {
  Before,     ///< A happens-before B.
  After,      ///< B happens-before A.
  Concurrent, ///< Unordered either way.
};

/// Renders an ordering verdict.
const char *toString(Ordering O);

/// Number of HbRule enumerators (dense, starting at 0); sized for
/// per-rule counter arrays.
inline constexpr size_t NumHbRules =
    static_cast<size_t>(HbRule::RProgram) + 1;

/// The vector-clock index's compact name for one operation: its chain and
/// 1-based position within that chain. This is the FastTrack/VerifiedFT
/// "epoch" the race detector stores per location slot: the op holding
/// epoch (c, p) happens-before B iff B's watermark for chain c is >= p -
/// one clock probe. Pos 0 never names a real operation (positions are
/// 1-based), so a default ClockEpoch is the "no epoch recorded" sentinel.
struct ClockEpoch {
  uint32_t Chain = 0;
  uint32_t Pos = 0;
};

/// The happens-before DAG. Operations are created through `addOperation`
/// and edges through `addEdge`; the builder contract is that every edge
/// points from a lower OpId to a higher OpId (asserted), i.e., edges are
/// only added while the target operation is being created.
class HbGraph {
public:
  /// Adjacency list storage: inline room for the common degree (one chain
  /// predecessor plus one cross edge) before touching the heap.
  using OpList = InlineVec<OpId, 2>;

  /// One rule-tagged in-edge (trivially copyable, unlike std::pair).
  struct InEdge {
    OpId From;
    HbRule Rule;
  };
  using InEdgeList = InlineVec<InEdge, 2>;

  HbGraph();

  /// Creates a new operation and returns its id. Ids are dense and start
  /// at 1 (0 is the ⊥ sentinel).
  OpId addOperation(Operation Op);

  /// Pre-sizes the per-operation tables for \p ExpectedOps operations, so
  /// large pages do not pay repeated vector growth in addOperation.
  void reserveOperations(size_t ExpectedOps);

  /// Adds the edge From -> To justified by \p Rule. Requires From < To and
  /// both valid. Duplicate edges are ignored.
  void addEdge(OpId From, OpId To, HbRule Rule);

  /// Number of operations created so far.
  size_t numOperations() const { return Ops.size(); }

  /// Number of (deduplicated) edges.
  size_t numEdges() const { return EdgeCount; }

  /// Deduplicated edges justified by \p Rule (the Tables 1-3 per-rule
  /// evaluation columns). When the same edge is requested twice under
  /// different rules, only the first request counts - matching numEdges.
  uint64_t numEdges(HbRule Rule) const {
    return EdgesByRule[static_cast<size_t>(Rule)];
  }

  /// Per-rule edge counters indexed by HbRule value.
  const std::array<uint64_t, NumHbRules> &edgesByRule() const {
    return EdgesByRule;
  }

  /// Operation metadata. \p Op must be valid.
  const Operation &operation(OpId Op) const {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    return Ops[Op - 1];
  }

  /// Mutable access (the runtime patches trigger info as it learns it).
  Operation &operation(OpId Op) {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    return Ops[Op - 1];
  }

  /// Direct successors of \p Op.
  const OpList &successors(OpId Op) const {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    return Succ[Op - 1];
  }

  /// Direct predecessors of \p Op.
  const OpList &predecessors(OpId Op) const {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    return Pred[Op - 1];
  }

  /// True iff A happens-before B in the transitive closure (A != B),
  /// answered from the clock index.
  bool happensBefore(OpId A, OpId B) const {
    return reachesVectorClock(A, B);
  }

  /// Combined ordering query. Requires A != B, both valid. Issues at
  /// most one reachability probe: edges strictly ascend, so only the
  /// lower-id side can possibly reach the higher-id side.
  Ordering ordering(OpId A, OpId B) const {
    assert(A != InvalidOpId && B != InvalidOpId && A != B &&
           "ordering() requires two distinct valid operations");
    if (A < B)
      return happensBefore(A, B) ? Ordering::Before : Ordering::Concurrent;
    return happensBefore(B, A) ? Ordering::After : Ordering::Concurrent;
  }

  /// Can-Happen-Concurrently (Sec. 5.1): both valid and unordered.
  bool canHappenConcurrently(OpId A, OpId B) const {
    if (A == InvalidOpId || B == InvalidOpId || A == B)
      return false;
    return ordering(A, B) == Ordering::Concurrent;
  }

  /// Memoized-DFS reachability (the paper's graph strategy): the parity
  /// oracle for the clock index, never consulted by detection.
  bool reachesDfs(OpId A, OpId B) const;

  /// Chain-decomposition vector-clock reachability.
  bool reachesVectorClock(OpId A, OpId B) const;

  /// Number of chains the vector-clock index currently uses.
  size_t numChains() const { return ChainTails.size(); }

  /// Chain the vector-clock index assigned to \p Op (0-based), building
  /// the index up to \p Op if needed.
  uint32_t chainOf(OpId Op) const;

  /// 1-based position of \p Op within chainOf(Op).
  uint32_t chainPositionOf(OpId Op) const;

  /// The watermark \p Op holds for \p Chain: the position of the latest
  /// operation of that chain that happens-before \p Op (its own position
  /// on its own chain); 0 when no operation of the chain is ordered
  /// before \p Op. Builds the index up to \p Op if needed.
  uint32_t clockWatermark(OpId Op, uint32_t Chain) const;

  /// The (chain, position) epoch of \p Op, building the index up to
  /// \p Op if needed. epochOf(A) together with epochOrdered() answers
  /// exactly the same question as reachesVectorClock(A, B).
  ClockEpoch epochOf(OpId Op) const {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    ensureClocks(Op);
    const ClockRep &R = ClockReps[Op - 1];
    return {R.DeltaChain, R.DeltaPos};
  }

  /// True iff the operation holding epoch \p E happens-before \p Op: one
  /// clockEntryAt probe. Correct for any id relation between the epoch's
  /// owner and \p Op - chain positions grow with operation id along a
  /// chain, so the watermark of an older op can never reach a newer op's
  /// position.
  bool epochOrdered(ClockEpoch E, OpId Op) const {
    assert(Op != InvalidOpId && Op <= Ops.size() && "invalid OpId");
    assert(E.Pos != 0 && "epoch positions are 1-based");
    ensureClocks(Op);
    return clockEntryAt(Op - 1, E.Chain) >= E.Pos;
  }

  /// Bytes the vector-clock index currently holds: the shared watermark
  /// arena, the fixed per-operation clock records, and the per-chain tail
  /// table (so the memory gates in bench/hb_scaling measure the honest
  /// total, not just the slabs).
  uint64_t clockBytes() const {
    return ClockPool.size() * sizeof(uint32_t) +
           ClockReps.size() * sizeof(ClockRep) +
           ChainTails.size() * sizeof(OpId);
  }

  /// Bytes the same index would hold if every operation materialized its
  /// own full watermark vector (one std::vector<uint32_t> plus a chain
  /// assignment per op, and the same chain-tail table) - the pre-arena
  /// representation; the baseline of bench/hb_scaling's memory-reduction
  /// gate.
  uint64_t fullCopyClockBytes() const;

  /// Operations whose clock aliases their predecessor's slab (or needed
  /// no slab at all) instead of materializing a copy.
  uint64_t sharedClocks() const { return SharedClocks; }

  /// Multi-predecessor merges that had to materialize a new slab because
  /// some predecessor watermark was not dominated by the base clock.
  uint64_t clockMerges() const { return ClockMerges; }

  /// Returns the rule that justifies a direct edge From -> To, if any.
  /// Useful for explaining why two accesses are ordered.
  bool findDirectEdgeRule(OpId From, OpId To, HbRule &RuleOut) const;

  /// Returns one A -> ... -> B path (operation ids, inclusive) if A
  /// happens-before B, else an empty vector. For report explanations.
  std::vector<OpId> explainPath(OpId A, OpId B) const;

private:
  /// One operation's clock: a base slab of per-chain watermarks in
  /// ClockPool (shared with the predecessor in the copy-on-write case)
  /// plus a one-slot delta for the operation's own chain. The effective
  /// watermark of chain c is DeltaPos if c == DeltaChain, else
  /// ClockPool[Offset + c] if c < Len, else 0.
  struct ClockRep {
    uint32_t Offset = 0;     ///< Base slab start in ClockPool.
    uint32_t Len = 0;        ///< Base slab length (chains covered).
    uint32_t DeltaChain = 0; ///< The op's own chain (override slot).
    uint32_t DeltaPos = 0;   ///< 1-based position within DeltaChain.
  };

  void buildClock(OpId Op) const;
  void ensureClocks(OpId Op) const;

  /// Effective watermark of \p Chain in the clock of op index \p Idx0
  /// (0-based).
  uint32_t clockEntryAt(uint32_t Idx0, uint32_t Chain) const {
    const ClockRep &R = ClockReps[Idx0];
    if (Chain == R.DeltaChain)
      return R.DeltaPos;
    return Chain < R.Len ? ClockPool[R.Offset + Chain] : 0;
  }

  /// Chains covered by the clock of op index \p Idx0.
  uint32_t clockLenAt(uint32_t Idx0) const {
    const ClockRep &R = ClockReps[Idx0];
    return R.Len > R.DeltaChain + 1 ? R.Len : R.DeltaChain + 1;
  }

  std::vector<Operation> Ops;
  std::vector<OpList> Succ;
  std::vector<OpList> Pred;
  std::vector<InEdgeList> InEdgeRules;
  size_t EdgeCount = 0;
  std::array<uint64_t, NumHbRules> EdgesByRule{};

  // DFS memo: key = (A << 32 | B), value = reachable. The key packing
  // gives each endpoint exactly half of the 64-bit key, so OpId must stay
  // at most 32 bits wide; widening OpId requires a new key scheme here.
  static_assert(sizeof(OpId) * 8 <= 32,
                "ReachMemo packs two OpIds into one uint64_t key");
  mutable std::unordered_map<uint64_t, bool> ReachMemo;
  mutable std::vector<uint32_t> VisitEpoch;
  mutable uint32_t CurrentEpoch = 0;

  // Vector clocks: one contiguous watermark arena plus a fixed-size
  // record per operation (built lazily in id order).
  mutable std::vector<uint32_t> ClockPool;
  mutable std::vector<ClockRep> ClockReps;
  mutable std::vector<OpId> ChainTails; ///< Last op of each chain.
  mutable uint64_t SharedClocks = 0;
  mutable uint64_t ClockMerges = 0;
};

} // namespace wr

#endif // WEBRACER_HB_HBGRAPH_H
