//===- tests/prediction_test.cpp - Predictive partial-order engines -----------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Covers the pluggable partial-order stack end to end:
//
//  * ShbEngine / WcpEngine unit tests over hand-fed event streams - the
//    write-read join that orders a later-created operation before an
//    earlier one, WCP's dispatch-atomicity edge dropping, and the
//    creation-edge substitution that keeps every interval callback
//    anchored to its registration.
//  * Engine-selection plumbing: enginesToPredict and predictEffective in
//    ReplayOptions/SessionOptions.
//  * The pass's bounded per-location state (last write, last read per
//    chain) over hand-fed streams, and against the whole-history
//    reference (PairwisePredictionReference.h) on the 100-site corpus and
//    on random streams.
//  * Replay equivalence: the checked-in Fig. 1 recording in the legacy
//    WRT1 encoding replays to byte-identical observed races under every
//    engine - prediction never perturbs observation.
//  * Session-level gates over the seeded corpus patterns: SHB dominates
//    the first-race-only observed run on PostFirstRaceBenign, and WCP's
//    predictions are a strict superset of SHB's on IntervalSkipBenign.
//
//===----------------------------------------------------------------------===//

#include "PairwisePredictionReference.h"

#include "detect/Prediction.h"
#include "detect/TraceReplay.h"
#include "hb/PredictiveEngine.h"
#include "sites/Corpus.h"
#include "webracer/RunReport.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace wr;
using namespace wr::detect;

namespace {

//===----------------------------------------------------------------------===//
// Engine unit tests: hand-fed event streams.
//===----------------------------------------------------------------------===//

Operation op(OperationKind Kind) {
  Operation O;
  O.Kind = Kind;
  return O;
}

void addOps(PartialOrderEngine &E, std::initializer_list<OperationKind> Kinds) {
  OpId Id = 1;
  for (OperationKind K : Kinds)
    E.onOperationCreated(Id++, op(K));
}

Access access(OpId Op, LocId Loc, AccessKind Kind) {
  Access A;
  A.Kind = Kind;
  A.Origin = AccessOrigin::Plain;
  A.Op = Op;
  A.Loc = Loc;
  return A;
}

TEST(ShbEngineTest, KeptEdgesOrderLikeHappensBefore) {
  ShbEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::TimeoutCallback,
             OperationKind::TimeoutCallback});
  E.onHbEdge(1, 2, HbRule::R16_SetTimeout);
  E.onHbEdge(1, 3, HbRule::R16_SetTimeout);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Before);
  EXPECT_EQ(E.ordering(2, 1), Ordering::After);
  EXPECT_EQ(E.ordering(1, 3), Ordering::Before);
  // Sibling timeouts have no rule ordering them (rule 16 is creator ->
  // callback only); they are concurrent until a write-read edge appears.
  EXPECT_EQ(E.ordering(2, 3), Ordering::Concurrent);
  EXPECT_TRUE(E.concurrent(2, 3));
  EXPECT_TRUE(E.happensBefore(1, 3));
  EXPECT_EQ(E.droppedEdges(), 0u);
}

TEST(ShbEngineTest, WriteReadJoinOrdersLaterIdBeforeEarlier) {
  // Operation 3 (created later) runs first and writes L; operation 2
  // then reads L. The write-read edge orders 3 before 2 even though
  // 3 > 2 - the case HbGraph's id-ordered index can never produce.
  ShbEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::TimeoutCallback,
             OperationKind::TimeoutCallback});
  E.onHbEdge(1, 2, HbRule::R16_SetTimeout);
  E.onHbEdge(1, 3, HbRule::R16_SetTimeout);
  EXPECT_EQ(E.ordering(2, 3), Ordering::Concurrent);
  const LocId L = 7;
  E.onMemoryAccess(access(3, L, AccessKind::Write));
  E.onMemoryAccess(access(2, L, AccessKind::Read));
  EXPECT_EQ(E.ordering(3, 2), Ordering::Before);
  EXPECT_EQ(E.ordering(2, 3), Ordering::After);
}

TEST(ShbEngineTest, QueriesFinalizeLazilyBeforeFirstAccess) {
  // The driver checks a candidate pair before delivering the second
  // access (check-then-update); ordering() must not require a prior
  // onMemoryAccess to have finalized the clocks.
  ShbEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::TimeoutCallback});
  E.onHbEdge(1, 2, HbRule::R16_SetTimeout);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Before);
}

TEST(WcpEngineTest, DropsNonConflictingChainEdgesAndSubstitutesCreation) {
  // Creator 1 registers an interval; callbacks 2, 3, 4 touch pairwise
  // disjoint locations. Both chain edges (2->3, 3->4) drop, but the
  // substituted creation edges keep every callback after its
  // registration.
  WcpEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::IntervalCallback,
             OperationKind::IntervalCallback, OperationKind::IntervalCallback});
  E.primeAccess(2, 10, AccessKind::Write);
  E.primeAccess(3, 11, AccessKind::Write);
  E.primeAccess(4, 12, AccessKind::Write);
  E.onHbEdge(1, 2, HbRule::R17_SetInterval);
  E.onHbEdge(2, 3, HbRule::R17_SetInterval);
  E.onHbEdge(3, 4, HbRule::R17_SetInterval);
  EXPECT_EQ(E.droppedEdges(), 2u);
  EXPECT_EQ(E.ordering(2, 3), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(2, 4), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(3, 4), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Before);
  EXPECT_EQ(E.ordering(1, 3), Ordering::Before);
  EXPECT_EQ(E.ordering(1, 4), Ordering::Before);

  // SHB keeps the whole chain on the same stream.
  ShbEngine S;
  addOps(S, {OperationKind::ExecuteScript, OperationKind::IntervalCallback,
             OperationKind::IntervalCallback, OperationKind::IntervalCallback});
  S.onHbEdge(1, 2, HbRule::R17_SetInterval);
  S.onHbEdge(2, 3, HbRule::R17_SetInterval);
  S.onHbEdge(3, 4, HbRule::R17_SetInterval);
  EXPECT_EQ(S.droppedEdges(), 0u);
  EXPECT_EQ(S.ordering(2, 4), Ordering::Before);
}

TEST(WcpEngineTest, KeepsConflictingChainEdges) {
  // Callbacks 2 and 3 both write L: reordering them changes the final
  // value, so the chain edge is load-bearing and stays.
  WcpEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::IntervalCallback,
             OperationKind::IntervalCallback, OperationKind::IntervalCallback});
  E.primeAccess(2, 10, AccessKind::Write);
  E.primeAccess(3, 10, AccessKind::Read);
  E.primeAccess(4, 12, AccessKind::Write);
  E.onHbEdge(1, 2, HbRule::R17_SetInterval);
  E.onHbEdge(2, 3, HbRule::R17_SetInterval);
  E.onHbEdge(3, 4, HbRule::R17_SetInterval);
  EXPECT_EQ(E.droppedEdges(), 1u);
  EXPECT_EQ(E.ordering(2, 3), Ordering::Before);
  EXPECT_EQ(E.ordering(3, 4), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(1, 4), Ordering::Before);
}

TEST(WcpEngineTest, DropsNonConflictingDispatchOrderEdges) {
  WcpEngine E;
  addOps(E, {OperationKind::EventHandler, OperationKind::EventHandler,
             OperationKind::EventHandler});
  E.primeAccess(1, 20, AccessKind::Write);
  E.primeAccess(2, 21, AccessKind::Write);
  E.primeAccess(3, 21, AccessKind::Read);
  // 1->2 disjoint: drops. 2->3 share a written location: kept.
  E.onHbEdge(1, 2, HbRule::R9_DispatchOrder);
  E.onHbEdge(2, 3, HbRule::R9_DispatchOrder);
  EXPECT_EQ(E.droppedEdges(), 1u);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Concurrent);
  EXPECT_EQ(E.ordering(2, 3), Ordering::Before);
}

TEST(WcpEngineTest, OnlyDispatchRulesWeaken) {
  // A non-dispatch rule between disjoint operations survives: WCP only
  // relaxes the dispatch-atomicity rules (9 and 17's chain edges).
  WcpEngine E;
  addOps(E, {OperationKind::ExecuteScript, OperationKind::TimeoutCallback});
  E.primeAccess(1, 20, AccessKind::Write);
  E.primeAccess(2, 21, AccessKind::Write);
  E.onHbEdge(1, 2, HbRule::R16_SetTimeout);
  EXPECT_EQ(E.droppedEdges(), 0u);
  EXPECT_EQ(E.ordering(1, 2), Ordering::Before);
}

//===----------------------------------------------------------------------===//
// Engine-selection plumbing.
//===----------------------------------------------------------------------===//

TEST(EngineSelectionTest, EnginesToPredict) {
  EXPECT_EQ(enginesToPredict(EngineKind::Hb),
            (std::vector<EngineKind>{EngineKind::Shb, EngineKind::Wcp}));
  EXPECT_EQ(enginesToPredict(EngineKind::Shb),
            (std::vector<EngineKind>{EngineKind::Shb}));
  EXPECT_EQ(enginesToPredict(EngineKind::Wcp),
            (std::vector<EngineKind>{EngineKind::Wcp}));
}

TEST(EngineSelectionTest, EngineDrivesPredictionAndStrategy) {
  // Detector.Engine is the single source of truth: predictive engines
  // imply prediction, the HB engine predicts only when asked.
  ReplayOptions R;
  EXPECT_EQ(R.Detector.Engine, EngineKind::Hb);
  EXPECT_FALSE(R.predictEffective());
  R.Detector.Engine = EngineKind::Shb;
  EXPECT_TRUE(R.predictEffective());
  R.Detector.Engine = EngineKind::Hb;
  R.Predict = true;
  EXPECT_TRUE(R.predictEffective());

  webracer::SessionOptions S;
  EXPECT_EQ(S.Detector.Engine, EngineKind::Hb);
  EXPECT_FALSE(S.predictEffective());
  S.Detector.Engine = EngineKind::Wcp;
  EXPECT_TRUE(S.predictEffective());
  S.Detector.Engine = EngineKind::Hb;
  S.Predict = true;
  EXPECT_TRUE(S.predictEffective());
}

//===----------------------------------------------------------------------===//
// Session-level gates over the seeded corpus patterns.
//===----------------------------------------------------------------------===//

webracer::SessionResult runPattern(sites::PatternKind Kind,
                                   webracer::SessionOptions Opts) {
  sites::SiteSpec Spec;
  Spec.Name = "prediction";
  Spec.Patterns.push_back({Kind, 1});
  sites::GeneratedSite Site = sites::buildSite(Spec);
  webracer::Session S(Opts);
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  for (const sites::SiteResource &R : Site.Resources)
    S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
  return S.run(Site.IndexUrl);
}

const PredictionResult *findEngine(const webracer::SessionResult &R,
                                   EngineKind Kind) {
  for (const PredictionResult &P : R.Predictions)
    if (P.Engine == Kind)
      return &P;
  return nullptr;
}

/// A location-and-pair key for comparing findings across engines.
using RaceKey = std::tuple<std::string, OpId, OpId>;

RaceKey keyOf(const Race &R) {
  return {toString(R.Loc), std::min(R.First.Op, R.Second.Op),
          std::max(R.First.Op, R.Second.Op)};
}

std::set<RaceKey> keysOf(const PredictionResult &P, bool PredictedOnly) {
  std::set<RaceKey> Keys;
  for (const PredictedRace &PR : P.Races)
    if (!PredictedOnly || PR.Verdict == PredictionVerdict::Predicted)
      Keys.insert(keyOf(PR.R));
  return Keys;
}

TEST(PredictionSessionTest, ShbDominatesFirstRaceOnlyOnPostFirstRace) {
  webracer::SessionOptions Opts;
  Opts.Predict = true;
  webracer::SessionResult R =
      runPattern(sites::PatternKind::PostFirstRaceBenign, Opts);
  // The observed run's single-slot detector reports one race per
  // location: the hidden write is only caught against the most recent
  // reader.
  ASSERT_EQ(R.RawRaces.size(), 1u);
  ASSERT_EQ(R.Predictions.size(), 2u);

  const PredictionResult *Shb = findEngine(R, EngineKind::Shb);
  ASSERT_NE(Shb, nullptr);
  // Dominance: every observed race is re-found...
  EXPECT_EQ(Shb->observedMatched(), R.RawRaces.size());
  // ...plus the earlier reader's race against the same write, which the
  // single LastRead slot had already evicted.
  EXPECT_GE(Shb->predictedCount(), 1u);
  EXPECT_EQ(Shb->DroppedEdges, 0u);

  // WCP's order is weaker, so its findings contain SHB's.
  const PredictionResult *Wcp = findEngine(R, EngineKind::Wcp);
  ASSERT_NE(Wcp, nullptr);
  std::set<RaceKey> ShbKeys = keysOf(*Shb, false);
  std::set<RaceKey> WcpKeys = keysOf(*Wcp, false);
  EXPECT_TRUE(std::includes(WcpKeys.begin(), WcpKeys.end(), ShbKeys.begin(),
                            ShbKeys.end()));
}

TEST(PredictionSessionTest, WcpStrictSupersetOfShbOnIntervalSkip) {
  webracer::SessionOptions Opts;
  Opts.Predict = true;
  webracer::SessionResult R =
      runPattern(sites::PatternKind::IntervalSkipBenign, Opts);
  ASSERT_EQ(R.Predictions.size(), 2u);

  const PredictionResult *Shb = findEngine(R, EngineKind::Shb);
  const PredictionResult *Wcp = findEngine(R, EngineKind::Wcp);
  ASSERT_NE(Shb, nullptr);
  ASSERT_NE(Wcp, nullptr);

  // Both dominate the observed run.
  EXPECT_EQ(Shb->observedMatched(), R.RawRaces.size());
  EXPECT_EQ(Wcp->observedMatched(), R.RawRaces.size());

  // The interval's skipped middle tick only races with the first tick
  // when the chain edge between them is relaxed - a WCP-only finding.
  std::set<RaceKey> ShbKeys = keysOf(*Shb, false);
  std::set<RaceKey> WcpKeys = keysOf(*Wcp, false);
  EXPECT_TRUE(std::includes(WcpKeys.begin(), WcpKeys.end(), ShbKeys.begin(),
                            ShbKeys.end()));
  EXPECT_GT(Wcp->predictedCount(), Shb->predictedCount());
  EXPECT_GT(Wcp->DroppedEdges, 0u);
}

TEST(PredictionSessionTest, SelectingPredictiveEngineImpliesPrediction) {
  webracer::SessionOptions Opts;
  Opts.Detector.Engine = EngineKind::Shb;
  webracer::SessionResult R =
      runPattern(sites::PatternKind::PostFirstRaceBenign, Opts);
  // No --predict, but the engine choice implies the pass - and only for
  // the selected engine.
  ASSERT_EQ(R.Predictions.size(), 1u);
  EXPECT_EQ(R.Predictions[0].Engine, EngineKind::Shb);
  // Mirrored into the stats record that the report schema renders.
  ASSERT_EQ(R.Stats.Prediction.size(), 1u);
}

//===----------------------------------------------------------------------===//
// The bounded per-location state: hand-fed streams, and agreement with
// the whole-history reference (tests/PairwisePredictionReference.h).
//===----------------------------------------------------------------------===//

/// (location, lower op, higher op) of one finding.
using PairId = std::tuple<LocId, OpId, OpId>;

PairId pairOf(const Race &R) {
  return {R.First.Loc, std::min(R.First.Op, R.Second.Op),
          std::max(R.First.Op, R.Second.Op)};
}

/// (first op, second op) of every finding, in report order.
std::vector<std::pair<OpId, OpId>> witnessOps(const PredictionResult &P) {
  std::vector<std::pair<OpId, OpId>> Ops;
  for (const PredictedRace &PR : P.Races)
    Ops.emplace_back(PR.R.First.Op, PR.R.Second.Op);
  return Ops;
}

/// What holds against the reference pass on any trace: every finding's
/// (location, pair) is a reference finding (structural: the bounded
/// state poses a subset of the reference's questions to the same engine
/// at the same stream positions), both drop the same edges, and - not
/// structural, but true of every stream tried - both re-find the same
/// observed races. Returns the number of findings that are not
/// reference findings.
size_t expectSubsetOfReference(const PredictionResult &Got,
                               const PredictionResult &Ref,
                               const std::string &Where) {
  std::set<PairId> RefPairs;
  for (const PredictedRace &P : Ref.Races)
    RefPairs.insert(pairOf(P.R));
  size_t Extra = 0;
  for (const PredictedRace &P : Got.Races) {
    if (RefPairs.count(pairOf(P.R)) != 0)
      continue;
    ADD_FAILURE() << Where << ": finding at " << toString(P.R.Loc)
                  << " between ops " << P.R.First.Op << " and "
                  << P.R.Second.Op << " is not a reference finding";
    ++Extra;
  }
  EXPECT_EQ(Got.observedMatched(), Ref.observedMatched()) << Where;
  EXPECT_EQ(Got.DroppedEdges, Ref.DroppedEdges) << Where;
  return Extra;
}

/// expectSubsetOfReference, plus: (a) the raced-location sets are equal,
/// and (b) every finding has the reference finding's kind and form-filter
/// flag. Returns the number of broken findings.
size_t expectMatchesReference(const PredictionResult &Got,
                              const PredictionResult &Ref,
                              const std::string &Where) {
  size_t Broken = expectSubsetOfReference(Got, Ref, Where);
  std::set<LocId> GotLocs, RefLocs;
  std::map<PairId, const Race *> RefPairs;
  for (const PredictedRace &P : Ref.Races) {
    RefLocs.insert(P.R.First.Loc);
    RefPairs.emplace(pairOf(P.R), &P.R);
  }
  for (const PredictedRace &P : Got.Races) {
    GotLocs.insert(P.R.First.Loc);
    auto It = RefPairs.find(pairOf(P.R));
    if (It == RefPairs.end())
      continue; // Counted above.
    const Race &R = *It->second;
    if (P.R.Kind == R.Kind &&
        P.R.WriteHadPriorReadInOp == R.WriteHadPriorReadInOp)
      continue;
    ADD_FAILURE() << Where << ": finding at " << toString(P.R.Loc)
                  << " between ops " << P.R.First.Op << " and "
                  << P.R.Second.Op << " is " << toString(P.R.Kind)
                  << (P.R.WriteHadPriorReadInOp ? " (guarded)" : "")
                  << ", the reference's is " << toString(R.Kind)
                  << (R.WriteHadPriorReadInOp ? " (guarded)" : "");
    ++Broken;
  }
  EXPECT_EQ(GotLocs, RefLocs) << Where << ": raced locations differ";
  return Broken;
}

/// Creates timeout callback \p Op in \p Log with rule-16 in-edges from
/// \p Preds (in that order: the first one still at its chain's tail
/// donates its chain).
void createOp(TraceLog &Log, OpId Op, std::initializer_list<OpId> Preds) {
  Log.onOperationCreated(Op, op(OperationKind::TimeoutCallback));
  for (OpId P : Preds)
    Log.onHbEdge(P, Op, HbRule::R16_SetTimeout);
}

void touch(TraceLog &Log, OpId Op, LocId Loc, AccessKind Kind) {
  Log.onMemoryAccess(access(Op, Loc, Kind));
}

LocId varLoc(TraceLog &Log, const char *Name) {
  return Log.interner().intern(JSVarLoc{0, Name});
}

/// Runs the observed replay and both predictive passes over \p Log and
/// checks each pass against the reference; returns the SHB pass.
PredictionResult predictAndMatch(const TraceLog &Log) {
  ReplayOptions Opts;
  Opts.Predict = true;
  ReplayResult Replay = replayTrace(Log, Opts);
  EXPECT_EQ(Replay.Predictions.size(), 2u);
  for (const PredictionResult &Got : Replay.Predictions)
    EXPECT_EQ(expectMatchesReference(
                  Got,
                  wr::testing::pairwiseReferencePredict(Log, Got.Engine,
                                                        Replay.RawRaces),
                  toString(Got.Engine)),
              0u);
  return Replay.Predictions.empty() ? PredictionResult{}
                                    : Replay.Predictions.front();
}

TEST(PredictionStateTest, ReadersOnTwoChainsBothRaceALaterWriter) {
  // Op 1 writes x; its callbacks 2 and 3 (two chains) read it; callback 4
  // then writes x, concurrent with both readers. The paper's single-slot
  // detector keeps one last read and reports one race; the per-chain
  // reads report both - the post-first-race shape.
  TraceLog Log;
  LocId X = varLoc(Log, "x");
  Log.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Log, 2, {1});
  createOp(Log, 3, {1});
  createOp(Log, 4, {1});
  touch(Log, 1, X, AccessKind::Write);
  touch(Log, 2, X, AccessKind::Read);
  touch(Log, 3, X, AccessKind::Read);
  touch(Log, 4, X, AccessKind::Write);
  PredictionResult P = predictRaces(Log, EngineKind::Shb, {});
  EXPECT_EQ(witnessOps(P),
            (std::vector<std::pair<OpId, OpId>>{{2, 4}, {3, 4}}));
  // Two reads probe the last write; the write probes it and both reads.
  EXPECT_EQ(P.PairsChecked, 5u);
  predictAndMatch(Log);
}

TEST(PredictionStateTest, ReadersOnOneChainKeepOnlyTheLater) {
  // Ops 1 and 2 share a chain (1 -> 2), so op 2's read supersedes op 1's:
  // a write racing with op 1 races with op 2 too. Op 3 (no in-edges)
  // writes last and is probed against op 2's read alone.
  TraceLog Log;
  LocId X = varLoc(Log, "x");
  Log.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Log, 2, {1});
  createOp(Log, 3, {});
  touch(Log, 1, X, AccessKind::Read);
  touch(Log, 2, X, AccessKind::Read);
  touch(Log, 3, X, AccessKind::Write);
  PredictionResult P = predictRaces(Log, EngineKind::Shb, {});
  EXPECT_EQ(witnessOps(P), (std::vector<std::pair<OpId, OpId>>{{2, 3}}));
  EXPECT_EQ(P.PairsChecked, 1u);
  // The whole history also pairs the superseded read.
  PredictionResult Ref = wr::testing::pairwiseReferencePredict(
      Log, EngineKind::Shb, {});
  EXPECT_EQ(witnessOps(Ref),
            (std::vector<std::pair<OpId, OpId>>{{1, 3}, {2, 3}}));
  predictAndMatch(Log);
}

TEST(PredictionStateTest, WriteOrderedAfterEveryReadClearsThem) {
  // Op 2 (after op 1) writes x after op 1 read it: the read is cleared,
  // so op 3's later write is probed against op 2's write alone.
  TraceLog Log;
  LocId X = varLoc(Log, "x");
  Log.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Log, 2, {1});
  createOp(Log, 3, {});
  touch(Log, 1, X, AccessKind::Read);
  touch(Log, 2, X, AccessKind::Write);
  touch(Log, 3, X, AccessKind::Write);
  PredictionResult P = predictRaces(Log, EngineKind::Shb, {});
  EXPECT_EQ(witnessOps(P), (std::vector<std::pair<OpId, OpId>>{{2, 3}}));
  EXPECT_EQ(P.PairsChecked, 2u);
  predictAndMatch(Log);
}

TEST(PredictionStateTest, ConcurrentReadIsNotCleared) {
  // Op 3 writes after op 1's read but concurrently with op 2's: no read
  // is cleared, and op 4's write still races with both readers.
  TraceLog Log;
  LocId X = varLoc(Log, "x");
  Log.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Log, 2, {});
  createOp(Log, 3, {1});
  createOp(Log, 4, {});
  touch(Log, 1, X, AccessKind::Read);
  touch(Log, 2, X, AccessKind::Read);
  touch(Log, 3, X, AccessKind::Write);
  touch(Log, 4, X, AccessKind::Write);
  PredictionResult P = predictRaces(Log, EngineKind::Shb, {});
  EXPECT_EQ(witnessOps(P), (std::vector<std::pair<OpId, OpId>>{
                               {2, 3}, {1, 4}, {2, 4}, {3, 4}}));
  predictAndMatch(Log);
}

TEST(PredictionStateTest, ReadOrderedAfterTheClearingWriteStays) {
  // Callbacks 2 and 3 interleave: op 3 reads x, op 2 writes y, op 3 reads
  // y (a race, checked before its SHB join orders op 2 before op 3), op 2
  // writes x. That write does not clear op 3's read: the read is ordered
  // *after* it, not before. Op 4 (after op 2, concurrent with op 3) then
  // writes x and races with op 3's read.
  TraceLog Log;
  LocId X = varLoc(Log, "x");
  LocId Y = varLoc(Log, "y");
  Log.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Log, 2, {1});
  createOp(Log, 3, {1});
  createOp(Log, 4, {2});
  touch(Log, 3, X, AccessKind::Read);
  touch(Log, 2, Y, AccessKind::Write);
  touch(Log, 3, Y, AccessKind::Read);
  touch(Log, 2, X, AccessKind::Write);
  touch(Log, 4, X, AccessKind::Write);
  PredictionResult P = predictRaces(Log, EngineKind::Shb, {});
  EXPECT_EQ(witnessOps(P),
            (std::vector<std::pair<OpId, OpId>>{{2, 3}, {3, 4}}));
  ASSERT_EQ(P.Races.size(), 2u);
  EXPECT_EQ(P.Races[0].R.First.Loc, Y);
  EXPECT_EQ(P.Races[1].R.First.Loc, X);
  predictAndMatch(Log);
}

TEST(PredictionStateTest, EarliestAccessOfAnOperationIsTheWitness) {
  // Op 2 makes several accesses to each location; op 3 (concurrent)
  // then races with it. The state keeps op 2's first read and first
  // write, so the witness - and with it the race kind and the form
  // filter's flag - is the one the whole history reports first.
  TraceLog Log;
  LocId X = varLoc(Log, "x");
  LocId Y = varLoc(Log, "y");
  LocId Z = varLoc(Log, "z");
  Log.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Log, 2, {1});
  createOp(Log, 3, {1});
  // x: read, then write; the write is no earlier witness.
  touch(Log, 2, X, AccessKind::Read);
  touch(Log, 2, X, AccessKind::Write);
  // y: a call-target read, then a plain one; the first makes it a
  // function race.
  Access Call = access(2, Y, AccessKind::Read);
  Call.Origin = AccessOrigin::FunctionDecl;
  Log.onMemoryAccess(Call);
  touch(Log, 2, Y, AccessKind::Read);
  // z: a blind write, a read, another write; the first carries no flag.
  touch(Log, 2, Z, AccessKind::Write);
  touch(Log, 2, Z, AccessKind::Read);
  touch(Log, 2, Z, AccessKind::Write);
  touch(Log, 3, X, AccessKind::Write);
  touch(Log, 3, Y, AccessKind::Write);
  touch(Log, 3, Z, AccessKind::Write);
  PredictionResult P = predictAndMatch(Log);
  ASSERT_EQ(P.Races.size(), 3u);
  EXPECT_EQ(P.Races[0].R.First.Kind, AccessKind::Read);
  EXPECT_FALSE(P.Races[0].R.WriteHadPriorReadInOp);
  EXPECT_EQ(P.Races[1].R.Kind, RaceKind::Function);
  EXPECT_EQ(P.Races[2].R.First.Kind, AccessKind::Write);
  EXPECT_FALSE(P.Races[2].R.WriteHadPriorReadInOp);
}

TEST(PredictionStateTest, SameOperationPairsAreNeverReported) {
  TraceLog Log;
  LocId X = varLoc(Log, "x");
  Log.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Log, 2, {});
  for (AccessKind K : {AccessKind::Write, AccessKind::Read, AccessKind::Write,
                       AccessKind::Read})
    touch(Log, 1, X, K);
  PredictionResult Alone = predictRaces(Log, EngineKind::Shb, {});
  EXPECT_TRUE(Alone.Races.empty());
  EXPECT_EQ(Alone.PairsChecked, 0u);
  // A concurrent op's read races with op 1 once, never op 1 with itself.
  touch(Log, 2, X, AccessKind::Read);
  touch(Log, 2, X, AccessKind::Write);
  PredictionResult P = predictRaces(Log, EngineKind::Shb, {});
  EXPECT_EQ(witnessOps(P), (std::vector<std::pair<OpId, OpId>>{{1, 2}}));
  predictAndMatch(Log);
}

TEST(PredictionStateTest, ReadThenWriteSetsWriteHadPriorReadInOp) {
  // Op 1 reads x before writing it, but writes y blind; ops 2 and 3
  // (concurrent; one each, as a read's SHB join orders its reader) read
  // them. Only the x race carries the form filter's flag.
  TraceLog Log;
  LocId X = varLoc(Log, "x");
  LocId Y = varLoc(Log, "y");
  Log.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Log, 2, {});
  createOp(Log, 3, {});
  touch(Log, 1, X, AccessKind::Read);
  touch(Log, 1, X, AccessKind::Write);
  touch(Log, 1, Y, AccessKind::Write);
  touch(Log, 2, X, AccessKind::Read);
  touch(Log, 3, Y, AccessKind::Read);
  PredictionResult P = predictRaces(Log, EngineKind::Shb, {});
  ASSERT_EQ(P.Races.size(), 2u);
  EXPECT_EQ(P.Races[0].R.First.Loc, X);
  EXPECT_EQ(P.Races[0].R.First.Kind, AccessKind::Write);
  EXPECT_TRUE(P.Races[0].R.WriteHadPriorReadInOp);
  EXPECT_EQ(P.Races[1].R.First.Loc, Y);
  EXPECT_FALSE(P.Races[1].R.WriteHadPriorReadInOp);
  // The flag also reaches a write that races as the later access.
  TraceLog Later;
  X = varLoc(Later, "x");
  Later.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Later, 2, {});
  touch(Later, 2, X, AccessKind::Read);
  touch(Later, 1, X, AccessKind::Read);
  touch(Later, 1, X, AccessKind::Write);
  PredictionResult Q = predictRaces(Later, EngineKind::Shb, {});
  ASSERT_EQ(Q.Races.size(), 1u);
  EXPECT_EQ(Q.Races[0].R.Second.Kind, AccessKind::Write);
  EXPECT_TRUE(Q.Races[0].R.WriteHadPriorReadInOp);
  predictAndMatch(Log);
  predictAndMatch(Later);
}

TEST(PredictionStateTest, ResumedOperationsMatchReference) {
  // Concurrent callbacks 2 and 3 interleave: op 2 reads x, op 3 reads it,
  // op 2 resumes and writes it, op 3 resumes and writes it. The last
  // reader before op 2's write is op 3, so a "current operation" shortcut
  // for the form filter's flag would miss op 2's own read.
  TraceLog Log;
  LocId X = varLoc(Log, "x");
  Log.onOperationCreated(1, op(OperationKind::ExecuteScript));
  createOp(Log, 2, {1});
  createOp(Log, 3, {1});
  touch(Log, 2, X, AccessKind::Read);
  touch(Log, 3, X, AccessKind::Read);
  touch(Log, 2, X, AccessKind::Write);
  touch(Log, 3, X, AccessKind::Write);
  PredictionResult P = predictAndMatch(Log);
  ASSERT_EQ(P.Races.size(), 1u);
  EXPECT_EQ(P.Races[0].R.First.Op, 3u);
  EXPECT_EQ(P.Races[0].R.Second.Op, 2u);
  EXPECT_TRUE(P.Races[0].R.WriteHadPriorReadInOp);
  EXPECT_EQ(P.observedMatched(), 1u);
}

TEST(PredictionOracleTest, CorpusMatchesWholeHistoryReference) {
  // The CLI's default corpus, each site run with the seed runCorpus
  // draws for it, both engines.
  const uint64_t Seed = 1;
  std::vector<sites::GeneratedSite> Corpus = sites::buildFortune100Corpus(Seed);
  ASSERT_EQ(Corpus.size(), 100u);
  Rng SeedGen(Seed);
  uint64_t GotFindings = 0, RefFindings = 0, GotChecks = 0, RefChecks = 0;
  for (const sites::GeneratedSite &Site : Corpus) {
    webracer::SessionOptions Opts;
    Opts.Predict = true;
    Opts.Browser.Seed = SeedGen.next();
    webracer::Session S(Opts);
    S.network().addResource(Site.IndexUrl, Site.Html, 10);
    for (const sites::SiteResource &R : Site.Resources)
      S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                        R.MaxLatencyUs);
    webracer::SessionResult R = S.run(Site.IndexUrl);
    ASSERT_NE(S.trace(), nullptr);
    ASSERT_EQ(R.Predictions.size(), 2u);
    // WCP's weaker order keeps every SHB finding here too (measured, not
    // structural: each engine retires entries by its own order).
    std::set<PairId> ShbPairs, WcpPairs;
    for (const PredictedRace &P : findEngine(R, EngineKind::Shb)->Races)
      ShbPairs.insert(pairOf(P.R));
    for (const PredictedRace &P : findEngine(R, EngineKind::Wcp)->Races)
      WcpPairs.insert(pairOf(P.R));
    EXPECT_TRUE(std::includes(WcpPairs.begin(), WcpPairs.end(),
                              ShbPairs.begin(), ShbPairs.end()))
        << Site.Name;
    for (const PredictionResult &Got : R.Predictions) {
      PredictionResult Ref = wr::testing::pairwiseReferencePredict(
          *S.trace(), Got.Engine, R.RawRaces);
      ASSERT_EQ(expectMatchesReference(Got, Ref,
                                       Site.Name + "/" + toString(Got.Engine)),
                0u);
      GotFindings += Got.Races.size();
      RefFindings += Ref.Races.size();
      GotChecks += Got.PairsChecked;
      RefChecks += Ref.PairsChecked;
    }
  }
  // The bounded state poses a small fraction of the whole history's
  // questions (measured: 16,230 vs 660,076 findings, 48,452 vs 879,948
  // probes).
  EXPECT_LT(GotFindings * 10, RefFindings);
  EXPECT_LT(GotChecks * 10, RefChecks);
}

/// How randomStream orders the operations' accesses.
enum class StreamShape {
  WholeInIdOrder,     ///< Each op runs to completion, in creation order.
  WholeInRandomOrder, ///< Each op runs to completion once its preds have.
  Interleaved,        ///< Ready ops' accesses interleave one by one.
};

/// A random event stream: up to 8 operations created up front, each with
/// random in-edges from older ones (rules 9, 16 and 17, so WCP drops
/// some), then their accesses to three hot locations. An operation starts
/// only after every predecessor has finished.
TraceLog randomStream(Rng &R, StreamShape Shape) {
  TraceLog Log;
  std::vector<LocId> Locs{varLoc(Log, "a"), varLoc(Log, "b"),
                          varLoc(Log, "c")};
  const OpId NumOps = static_cast<OpId>(R.nextInRange(2, 8));
  std::vector<std::vector<OpId>> Preds(NumOps + 1);
  for (OpId Op = 1; Op <= NumOps; ++Op) {
    bool Interval = Op > 1 && R.nextBool(0.25);
    Log.onOperationCreated(Op, op(Op == 1     ? OperationKind::ExecuteScript
                                  : Interval ? OperationKind::IntervalCallback
                                             : OperationKind::TimeoutCallback));
    for (OpId From = 1; From < Op; ++From) {
      if (!R.nextBool(From == Op - 1 ? 0.4 : 0.15))
        continue;
      HbRule Rule = Interval          ? HbRule::R17_SetInterval
                    : R.nextBool(0.5) ? HbRule::R9_DispatchOrder
                                      : HbRule::R16_SetTimeout;
      Log.onHbEdge(From, Op, Rule);
      Preds[Op].push_back(From);
    }
  }
  std::vector<int64_t> Left(NumOps + 1);
  for (OpId Op = 1; Op <= NumOps; ++Op)
    Left[Op] = R.nextInRange(1, 5);
  for (;;) {
    std::vector<OpId> Ready;
    for (OpId Op = 1; Op <= NumOps; ++Op)
      if (Left[Op] != 0 &&
          std::all_of(Preds[Op].begin(), Preds[Op].end(),
                      [&](OpId P) { return Left[P] == 0; }))
        Ready.push_back(Op);
    if (Ready.empty())
      return Log;
    OpId Op = Shape == StreamShape::WholeInIdOrder
                  ? Ready.front()
                  : Ready[R.nextBelow(Ready.size())];
    do {
      --Left[Op];
      Access A = access(Op, Locs[R.nextBelow(Locs.size())],
                        R.nextBool(0.5) ? AccessKind::Write : AccessKind::Read);
      if (R.nextBool(0.1))
        A.Origin = AccessOrigin::FunctionDecl;
      Log.onMemoryAccess(A);
    } while (Shape != StreamShape::Interleaved && Left[Op] != 0);
  }
}

TEST(PredictionOracleTest, RandomStreamsFindSubsetOfReference) {
  // Only the structural guarantees hold on arbitrary streams: the
  // engines' per-operation clocks are not transitive (an operation's
  // write-read joins do not give it a new epoch), so the whole history
  // can pair accesses the bounded state already retired - see DESIGN.md.
  Rng R(15);
  size_t Extra = 0, Findings = 0;
  for (StreamShape Shape :
       {StreamShape::WholeInIdOrder, StreamShape::WholeInRandomOrder,
        StreamShape::Interleaved}) {
    for (unsigned Round = 0; Round < 1000; ++Round) {
      TraceLog Log = randomStream(R, Shape);
      ReplayOptions Opts;
      Opts.Predict = true;
      ReplayResult Replay = replayTrace(Log, Opts);
      ASSERT_EQ(Replay.Predictions.size(), 2u);
      for (const PredictionResult &Got : Replay.Predictions) {
        Extra += expectSubsetOfReference(
            Got,
            wr::testing::pairwiseReferencePredict(Log, Got.Engine,
                                                  Replay.RawRaces),
            toString(Got.Engine) + std::string("\n") + Log.toString());
        Findings += Got.Races.size();
      }
      ASSERT_EQ(Extra, 0u);
    }
  }
  EXPECT_GT(Findings, 10000u);
}

//===----------------------------------------------------------------------===//
// Replay equivalence: observed races are engine-invariant (satellite of
// the WRT1 compatibility guarantee).
//===----------------------------------------------------------------------===//

std::string racesJson(const std::vector<Race> &Races, const HbGraph &Hb) {
  obs::Json Arr = obs::Json::array();
  for (const Race &R : Races)
    Arr.push(webracer::raceToJson(R, Hb));
  return obs::writeJson(Arr);
}

TEST(PredictionReplayTest, LegacyTraceObservedRacesAgreeAcrossEngines) {
  // Replay the checked-in WRT1 recording of the Fig. 1 page under every
  // engine: the observed race report must be byte-identical - engines
  // only add predictions, they never change what was observed.
  webracer::SessionOptions Opts;
  webracer::Session S(Opts);
  S.network().addResource("index.html",
                          "<script>x = 1;</script>"
                          "<iframe src=\"a.html\"></iframe>"
                          "<iframe src=\"b.html\"></iframe>",
                          10);
  S.network().addResource("a.html", "<script>x = 2;</script>", 1000);
  S.network().addResource("b.html", "<script>alert(x);</script>", 2000);
  webracer::SessionResult Online = S.run("index.html");
  ASSERT_FALSE(Online.RawRaces.empty());

  std::ifstream Fixture(std::string(WR_TRACE_DIR) + "/fig1.wrt1",
                        std::ios::binary);
  std::ostringstream Bytes;
  Bytes << Fixture.rdbuf();
  TraceLog Log;
  std::string Error;
  ASSERT_TRUE(TraceLog::deserialize(Bytes.str(), Log, &Error)) << Error;

  std::string RawGolden, FilteredGolden;
  for (EngineKind Kind : {EngineKind::Hb, EngineKind::Shb, EngineKind::Wcp}) {
    ReplayOptions RO;
    RO.Detector.Engine = Kind;
    ReplayResult R = replayTrace(Log, RO);
    std::string Raw = racesJson(R.RawRaces, R.Hb);
    std::string Filtered = racesJson(R.FilteredRaces, R.Hb);
    if (Kind == EngineKind::Hb) {
      RawGolden = Raw;
      FilteredGolden = Filtered;
      // The HB replay reproduces the online run.
      EXPECT_EQ(R.RawRaces.size(), Online.RawRaces.size());
      EXPECT_EQ(R.FilteredRaces.size(), Online.FilteredRaces.size());
      EXPECT_TRUE(R.Predictions.empty());
    } else {
      EXPECT_EQ(Raw, RawGolden) << "engine " << toString(Kind);
      EXPECT_EQ(Filtered, FilteredGolden) << "engine " << toString(Kind);
    }
    if (Kind == EngineKind::Shb || Kind == EngineKind::Wcp) {
      ASSERT_EQ(R.Predictions.size(), 1u) << "engine " << toString(Kind);
      EXPECT_EQ(R.Predictions[0].Engine, Kind);
      // Offline prediction dominates the observed replay too.
      EXPECT_EQ(R.Predictions[0].observedMatched(), R.RawRaces.size());
    }
  }
}

} // namespace
