//===- tests/detector_test.cpp - race detector algorithm unit tests -----------===//
//
// Drives the Sec. 5.1 algorithm directly with hand-built happens-before
// graphs and access sequences, pinning its exact semantics: slot updates,
// CHC conditions, the ⊥ initialization, one-report-per-location, race
// classification, and the documented single-slot miss.
//
//===----------------------------------------------------------------------===//

#include "detect/RaceDetector.h"

#include <gtest/gtest.h>

using namespace wr;
using namespace wr::detect;

namespace {

class DetectorTest : public ::testing::Test {
protected:
  OpId op() { return Hb.addOperation(Operation()); }

  void edge(OpId A, OpId B) { Hb.addEdge(A, B, HbRule::RProgram); }

  Access access(AccessKind Kind, OpId Op, const char *Name,
                AccessOrigin Origin = AccessOrigin::Plain) {
    Access A;
    A.Kind = Kind;
    A.Op = Op;
    A.Origin = Origin;
    A.Loc = Interner.internVar(0, Name);
    return A;
  }

  Access read(OpId Op, const char *Name,
              AccessOrigin Origin = AccessOrigin::Plain) {
    return access(AccessKind::Read, Op, Name, Origin);
  }
  Access write(OpId Op, const char *Name,
               AccessOrigin Origin = AccessOrigin::Plain) {
    return access(AccessKind::Write, Op, Name, Origin);
  }

  HbGraph Hb;
  LocationInterner Interner;
};

TEST_F(DetectorTest, WriteThenUnorderedReadRaces) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].First.Kind, AccessKind::Write);
  EXPECT_EQ(D.races()[0].Second.Kind, AccessKind::Read);
  EXPECT_EQ(D.races()[0].Kind, RaceKind::Variable);
}

TEST_F(DetectorTest, WriteThenOrderedReadDoesNotRace) {
  OpId A = op(), B = op();
  edge(A, B);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, ReadThenUnorderedWriteRaces) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(write(B, "x"));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].First.Kind, AccessKind::Read);
}

TEST_F(DetectorTest, WriteWriteRaces) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(write(B, "x"));
  ASSERT_EQ(D.races().size(), 1u);
}

TEST_F(DetectorTest, ReadReadNeverRaces) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, SameOperationNeverRaces) {
  OpId A = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(A, "x"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, BottomSlotsNeverRace) {
  OpId A = op();
  RaceDetector D(Hb, Interner);
  // First-ever access to a location: LastRead/LastWrite are ⊥.
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(write(A, "y"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, DistinctLocationsIndependent) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "y"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, OnePerLocationDedup) {
  OpId A = op(), B = op(), C = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  D.onMemoryAccess(read(C, "x")); // Second race on same location.
  EXPECT_EQ(D.races().size(), 1u);
}

TEST_F(DetectorTest, OnePerLocationDisabled) {
  OpId A = op(), B = op(), C = op();
  DetectorOptions Opts;
  Opts.OnePerLocation = false;
  RaceDetector D(Hb, Interner, Opts);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  D.onMemoryAccess(read(C, "x"));
  EXPECT_EQ(D.races().size(), 2u);
}

TEST_F(DetectorTest, SlotOverwriteLosesHistory) {
  // The paper's Sec. 5.1 limitation, literally: reads 3,1 then write 2
  // with 1 -> 2; the single-slot detector misses the 2-3 race.
  OpId O1 = op(), O2 = op(), O3 = op();
  edge(O1, O2);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(O3, "e"));
  D.onMemoryAccess(read(O1, "e")); // Overwrites O3 in LastRead.
  D.onMemoryAccess(write(O2, "e"));
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, FullHistoryCatchesSlotOverwrite) {
  OpId O1 = op(), O2 = op(), O3 = op();
  edge(O1, O2);
  DetectorOptions Opts;
  Opts.HistoryMode = DetectorOptions::Mode::FullHistory;
  RaceDetector D(Hb, Interner, Opts);
  D.onMemoryAccess(read(O3, "e"));
  D.onMemoryAccess(read(O1, "e"));
  D.onMemoryAccess(write(O2, "e"));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].First.Op, O3);
  EXPECT_EQ(D.races()[0].Second.Op, O2);
}

TEST_F(DetectorTest, FullHistoryAgreesOnSimpleCases) {
  OpId A = op(), B = op();
  DetectorOptions Opts;
  Opts.HistoryMode = DetectorOptions::Mode::FullHistory;
  RaceDetector Full(Hb, Interner, Opts);
  RaceDetector Slot(Hb, Interner);
  for (RaceDetector *D : {&Full, &Slot}) {
    D->onMemoryAccess(write(A, "x"));
    D->onMemoryAccess(read(B, "x"));
  }
  EXPECT_EQ(Full.races().size(), Slot.races().size());
}

TEST_F(DetectorTest, FunctionDeclClassification) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "f", AccessOrigin::FunctionDecl));
  D.onMemoryAccess(read(B, "f", AccessOrigin::FunctionCall));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].Kind, RaceKind::Function);
}

TEST_F(DetectorTest, HtmlClassification) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  Access W;
  W.Kind = AccessKind::Write;
  W.Op = A;
  W.Origin = AccessOrigin::ElemInsert;
  W.Loc = Interner.intern(HtmlElemLoc{1, ElemKeyKind::ById, InvalidNodeId, "dw"});
  Access R;
  R.Kind = AccessKind::Read;
  R.Op = B;
  R.Origin = AccessOrigin::ElemLookup;
  R.Loc = W.Loc;
  D.onMemoryAccess(W);
  D.onMemoryAccess(R);
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].Kind, RaceKind::Html);
}

TEST_F(DetectorTest, EventDispatchClassification) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  Access W;
  W.Kind = AccessKind::Write;
  W.Op = A;
  W.Origin = AccessOrigin::HandlerInstall;
  W.Loc = Interner.intern(EventHandlerLoc{5, 0, "load", 0});
  Access R = W;
  R.Kind = AccessKind::Read;
  R.Op = B;
  R.Origin = AccessOrigin::HandlerFire;
  D.onMemoryAccess(W);
  D.onMemoryAccess(R);
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].Kind, RaceKind::EventDispatch);
}

TEST_F(DetectorTest, PriorReadFlagOnSecondWrite) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "v", AccessOrigin::FormFieldWrite));
  D.onMemoryAccess(read(B, "v", AccessOrigin::FormFieldRead));
  // B reads v, then writes it: the guarded-write shape.
  D.onMemoryAccess(write(B, "v", AccessOrigin::FormFieldWrite));
  ASSERT_GE(D.races().size(), 1u);
  // Due to one-per-location the race reported is (A write, B read) with
  // no guard flag; disable dedup to see the guarded write.
  DetectorOptions Opts;
  Opts.OnePerLocation = false;
  HbGraph Hb2;
  OpId A2 = Hb2.addOperation(Operation());
  OpId B2 = Hb2.addOperation(Operation());
  RaceDetector D2(Hb2, Interner, Opts);
  auto Mk = [&](AccessKind Kind, OpId Op) {
    Access Acc;
    Acc.Kind = Kind;
    Acc.Op = Op;
    Acc.Origin = Kind == AccessKind::Read ? AccessOrigin::FormFieldRead
                                          : AccessOrigin::FormFieldWrite;
    Acc.Loc = Interner.internVar(0, "v");
    return Acc;
  };
  D2.onMemoryAccess(Mk(AccessKind::Write, A2));
  D2.onMemoryAccess(Mk(AccessKind::Read, B2));
  D2.onMemoryAccess(Mk(AccessKind::Write, B2));
  bool SawGuarded = false;
  for (const Race &R : D2.races())
    if (R.Second.Op == B2 && R.Second.Kind == AccessKind::Write)
      SawGuarded = R.WriteHadPriorReadInOp;
  EXPECT_TRUE(SawGuarded);
}

TEST_F(DetectorTest, PriorReadFlagOnFirstWrite) {
  // The guarded write is stored in the slot; a later racing user write
  // must still see the guard flag (the Sec. 5.3 refinement applies to
  // whichever side wrote after reading).
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "v", AccessOrigin::FormFieldRead));
  D.onMemoryAccess(write(A, "v", AccessOrigin::FormFieldWrite));
  D.onMemoryAccess(write(B, "v", AccessOrigin::UserInput));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_TRUE(D.races()[0].WriteHadPriorReadInOp);
}

TEST_F(DetectorTest, CountByKind) {
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  D.onMemoryAccess(write(A, "f", AccessOrigin::FunctionDecl));
  D.onMemoryAccess(read(B, "f", AccessOrigin::FunctionCall));
  EXPECT_EQ(D.countByKind(RaceKind::Variable), 1u);
  EXPECT_EQ(D.countByKind(RaceKind::Function), 1u);
  EXPECT_EQ(D.countByKind(RaceKind::Html), 0u);
}

TEST_F(DetectorTest, ChcQueriesCounted) {
  // Every CHC question counts once in epochHits: a write poses two
  // (vs LastWrite, vs LastRead), a read one (vs LastWrite).
  OpId A = op(), B = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x")); // Both slots ⊥.
  EXPECT_EQ(D.epochHits(), 2u);
  D.onMemoryAccess(read(B, "x")); // One epoch probe: concurrent.
  EXPECT_EQ(D.epochHits(), 3u);
  EXPECT_EQ(D.races().size(), 1u);
}

TEST_F(DetectorTest, EpochOracleAnswersWithoutGenericQueries) {
  // Every CHC question is one O(1) epoch probe against the graph's clock
  // index, and every question lands in epochHits.
  OpId A = op(), B = op(), C = op();
  edge(A, C);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(C, "x")); // Ordered: no race.
  D.onMemoryAccess(read(B, "x")); // Concurrent with the write: race.
  EXPECT_EQ(D.epochHits(), 4u);
  EXPECT_EQ(D.readsSeen(), 2u);
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].Second.Op, B);
}

TEST_F(DetectorTest, TrackedLocationsIsUnionOfSlots) {
  // A location read AND written is one tracked location, not two: the
  // count is the union of the read slots, write slots, and history map.
  OpId A = op(), B = op();
  edge(A, B);
  RaceDetector D(Hb, Interner);
  EXPECT_EQ(D.trackedLocations(), 0u);
  D.onMemoryAccess(write(A, "x"));
  EXPECT_EQ(D.trackedLocations(), 1u);
  D.onMemoryAccess(read(B, "x")); // Same location, other slot.
  EXPECT_EQ(D.trackedLocations(), 1u);
  D.onMemoryAccess(read(B, "y")); // Read-only location.
  EXPECT_EQ(D.trackedLocations(), 2u);
  D.onMemoryAccess(write(A, "z")); // Write-only location.
  EXPECT_EQ(D.trackedLocations(), 3u);
}

TEST_F(DetectorTest, TrackedLocationsFullHistoryMode) {
  OpId A = op(), B = op();
  DetectorOptions Opts;
  Opts.HistoryMode = DetectorOptions::Mode::FullHistory;
  RaceDetector D(Hb, Interner, Opts);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  D.onMemoryAccess(read(B, "y"));
  EXPECT_EQ(D.trackedLocations(), 2u);
}

TEST_F(DetectorTest, ReportedLocationSkipsOracleEntirely) {
  OpId A = op(), B = op(), C = op();
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  ASSERT_EQ(D.races().size(), 1u);
  uint64_t Hits = D.epochHits();
  // One-per-location already fired: later accesses to x can't change
  // any output, so their questions (one read, two write) are answered
  // without a probe and C's concurrent write reports nothing.
  D.onMemoryAccess(read(C, "x"));
  D.onMemoryAccess(write(C, "x"));
  EXPECT_EQ(D.epochHits(), Hits + 3);
  EXPECT_EQ(D.races().size(), 1u);
}

TEST_F(DetectorTest, SameEpochReReadStaysEpochRepresentation) {
  // Re-reads by the same operation and reads by an ordered successor
  // keep the single-epoch read state (the FastTrack common case): the
  // epoch slides forward, it never inflates.
  OpId A = op(), B = op();
  edge(A, B);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(read(A, "x")); // Same epoch: no probe, no change.
  D.onMemoryAccess(read(B, "x")); // Ordered after A: the epoch slides.
  EXPECT_EQ(D.readInflations(), 0u);
  EXPECT_EQ(D.readVectorLocations(), 0u);
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, ConcurrentReadInflatesAndDominatingWriteDeflates) {
  OpId A = op(), B = op(), C = op(), E = op();
  edge(A, C);
  edge(B, C);
  edge(C, E);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  EXPECT_EQ(D.readInflations(), 0u); // First read: epoch form.
  D.onMemoryAccess(read(B, "x"));    // Concurrent with A: inflate.
  EXPECT_EQ(D.readInflations(), 1u);
  EXPECT_EQ(D.readVectorLocations(), 1u);
  // C is ordered after both readers: its write dominates every read
  // epoch and collapses the vector back to the empty state.
  D.onMemoryAccess(write(C, "x"));
  EXPECT_EQ(D.readDeflations(), 1u);
  EXPECT_TRUE(D.races().empty());
  // The location stays counted as ever-inflated (memory accounting),
  // but the live state is back to O(1); a later ordered read re-enters
  // the epoch form without a new inflation.
  D.onMemoryAccess(read(E, "x"));
  EXPECT_EQ(D.readInflations(), 1u);
  EXPECT_EQ(D.readVectorLocations(), 1u);
}

TEST_F(DetectorTest, WriteAfterConcurrentReadsStillRacesWhenUnordered) {
  // Deflation must never hide a race: a write concurrent with one of
  // the active readers reports before any state collapses.
  OpId A = op(), B = op(), C = op();
  edge(A, C); // C is after A but concurrent with B.
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(read(B, "x"));
  EXPECT_EQ(D.readInflations(), 1u);
  D.onMemoryAccess(write(C, "x"));
  ASSERT_EQ(D.races().size(), 1u);
  EXPECT_EQ(D.races()[0].First.Op, B); // LastRead held B.
}

TEST_F(DetectorTest, DeflationShortcutSkipsReadCheckSoundly) {
  // After a write dominates all reads, a later write ordered after that
  // write needs no read probe (reads HB LastWrite HB new write); one
  // that is NOT ordered after it must still be checked and race.
  OpId A = op(), B = op(), C = op(), E = op();
  edge(A, B);
  edge(B, E);
  DetectorOptions Opts;
  Opts.OnePerLocation = false;
  RaceDetector D(Hb, Interner, Opts);
  D.onMemoryAccess(read(A, "x"));
  D.onMemoryAccess(write(B, "x")); // Dominates the read: covered.
  D.onMemoryAccess(write(E, "x")); // Ordered after B: shortcut, no race.
  EXPECT_TRUE(D.races().empty());
  // C is concurrent with everything: both slot checks race.
  D.onMemoryAccess(write(C, "x"));
  EXPECT_EQ(D.races().size(), 1u); // vs LastWrite E (write-write).
}

TEST_F(DetectorTest, InlineDispatchNestedReadDoesNotInflate) {
  // Inline event dispatch nests operations, so a location's reads can
  // arrive in descending op order; a read ordered before the stored
  // (newer) read epoch is subsumed, not a reason to inflate.
  OpId A = op(), B = op();
  edge(A, B);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(read(B, "x")); // The nested (newer) op reads first.
  D.onMemoryAccess(read(A, "x")); // Its caller reads after returning? No:
  // replay order, A's read streams later but A happens-before B.
  EXPECT_EQ(D.readInflations(), 0u);
  EXPECT_TRUE(D.races().empty());
}

TEST_F(DetectorTest, ForceReadVectorsKeepsRaceOutputIdentical) {
  // The debug option pins every read state in the vector form; races
  // and attrition metadata must not move.
  for (bool Force : {false, true}) {
    HbGraph G;
    LocationInterner I;
    OpId A = G.addOperation(Operation());
    OpId B = G.addOperation(Operation());
    OpId C = G.addOperation(Operation());
    G.addEdge(A, C, HbRule::RProgram);
    DetectorOptions Opts;
    Opts.ForceReadVectors = Force;
    RaceDetector D(G, I, Opts);
    auto Acc = [&](AccessKind K, OpId Op, const char *Name) {
      Access X;
      X.Kind = K;
      X.Op = Op;
      X.Loc = I.internVar(0, Name);
      D.onMemoryAccess(X);
    };
    Acc(AccessKind::Read, A, "x");
    Acc(AccessKind::Read, C, "x");
    Acc(AccessKind::Write, C, "x");
    Acc(AccessKind::Write, B, "x");
    ASSERT_EQ(D.races().size(), 1u) << "Force=" << Force;
    EXPECT_EQ(D.races()[0].First.Op, C);
    EXPECT_EQ(D.races()[0].Second.Op, B);
    EXPECT_TRUE(D.races()[0].WriteHadPriorReadInOp);
    if (Force) {
      EXPECT_GT(D.readInflations(), 0u);
      EXPECT_EQ(D.readDeflations(), 0u); // Never deflates when forced.
    } else {
      EXPECT_EQ(D.readInflations(), 0u); // All reads stayed epochs.
    }
  }
}

TEST_F(DetectorTest, DetectorBytesCountsInflatedStorage) {
  RaceDetector D(Hb, Interner);
  uint64_t Empty = D.detectorBytes();
  // Five mutually concurrent readers: the read vector and reader set
  // outgrow their inline slots, and the heap spill must show up in the
  // byte accounting.
  for (int I = 0; I < 5; ++I)
    D.onMemoryAccess(read(op(), "x"));
  EXPECT_GT(D.readInflations(), 0u);
  EXPECT_GT(D.detectorBytes(), Empty);
}

TEST_F(DetectorTest, DiamondOrderingSuppressesRace) {
  OpId A = op(), B = op(), C = op(), D2 = op();
  edge(A, B);
  edge(A, C);
  edge(B, D2);
  edge(C, D2);
  RaceDetector D(Hb, Interner);
  D.onMemoryAccess(write(A, "x"));
  D.onMemoryAccess(read(D2, "x")); // Ordered through either branch.
  EXPECT_TRUE(D.races().empty());
  // But the branches race with each other.
  D.onMemoryAccess(write(B, "y"));
  D.onMemoryAccess(write(C, "y"));
  EXPECT_EQ(D.races().size(), 1u);
}

} // namespace
