//===- tests/static_layer_test.cpp - Static layer parity and pinning ----------===//
//
// Checks the static race analyzer's two precomputed layers against plain
// references: the must-HB graph's bitset closure against a per-query DFS
// (tests/StaticReachReference.h) on every ordered source pair of the
// 100 corpus pages and on seeded random graphs with cycles, back edges
// and edges added after earlier queries; and the whole analyzePage
// output on the corpus - every effect with its guards, every predicted
// race with its guard class and witnesses, and every note - against a
// digest recorded before the flow facts were precomputed.
//
//===----------------------------------------------------------------------===//

#include "StaticReachReference.h"

#include "analysis/StaticAnalyzer.h"
#include "sites/Corpus.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace wr;
using namespace wr::analysis;

namespace {

/// The CLI's default corpus (`webracer-cli corpus` without --seed).
constexpr uint64_t CorpusSeed = 1;

StaticAnalysis analyzeSite(const sites::GeneratedSite &Site) {
  return analyzePage(Site.Html,
                     [&Site](const std::string &Url)
                         -> std::optional<std::string> {
                       for (const sites::SiteResource &R : Site.Resources)
                         if (R.Url == Url)
                           return R.Body;
                       return std::nullopt;
                     });
}

/// Compares \p G's answers with the DFS reference on every ordered pair;
/// returns the number of pairs checked.
size_t expectReachParity(const StaticHbGraph &G, const std::string &What) {
  uint32_t N = static_cast<uint32_t>(G.sources().size());
  size_t Pairs = 0;
  for (uint32_t A = 0; A < N; ++A)
    for (uint32_t B = 0; B < N; ++B, ++Pairs) {
      bool Want = wr::testing::staticReachesDfs(G, A, B);
      if (G.reaches(A, B) != Want) {
        ADD_FAILURE() << What << ": reaches(" << A << ", " << B
                      << ") != reference " << Want;
        return Pairs;
      }
    }
  return Pairs;
}

uint64_t fnv1a(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Everything analyzePage computed for one page, one fact per line.
std::string renderAnalysis(const StaticAnalysis &A) {
  std::string Out = A.Graph.toString();
  for (const EffectSource &S : A.Graph.sources())
    for (const Effect &E : S.Effects.Effects) {
      Out += "#" + std::to_string(S.Id) + " " + wr::toString(E.Kind) + " " +
             toString(E.Loc) + " guards{" + E.Guards.toString() + "}";
      Out += E.SyncRead ? " sync\n" : "\n";
    }
  for (const PredictedRace &R : A.Races) {
    Out += toString(R);
    Out += " #" + std::to_string(R.SourceA) + "/#" +
           std::to_string(R.SourceB);
    Out += R.GuardedA ? " A{" : " a{";
    Out += R.GuardsA;
    Out += R.GuardedB ? "} B{" : "} b{";
    Out += R.GuardsB;
    Out += "}\n";
  }
  for (const std::string &Note : A.Notes)
    Out += "note: " + Note + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Closure vs per-query DFS
//===----------------------------------------------------------------------===//

TEST(StaticReachParityTest, CorpusGraphsMatchDfsOnEveryOrderedPair) {
  size_t Pairs = 0, Reachable = 0;
  for (const sites::GeneratedSite &Site :
       sites::buildFortune100Corpus(CorpusSeed)) {
    StaticAnalysis A = analyzeSite(Site);
    Pairs += expectReachParity(A.Graph, Site.Name);
    uint32_t N = static_cast<uint32_t>(A.Graph.sources().size());
    for (uint32_t X = 0; X < N; ++X)
      for (uint32_t Y = 0; Y < N; ++Y)
        Reachable += A.Graph.reaches(X, Y);
  }
  // Every page contributes its reflexive pairs plus real orderings, and
  // leaves async/user-driven pairs unordered.
  EXPECT_GT(Pairs, 100000u);
  EXPECT_GT(Reachable, Pairs / 10);
  EXPECT_LT(Reachable, Pairs);
}

TEST(StaticReachParityTest, RandomGraphsWithCyclesAndLateEdges) {
  Rng R(0x5717c0de);
  size_t Checked = 0;
  for (int Round = 0; Round < 40; ++Round) {
    StaticHbGraph G;
    // Up to three 64-bit words per row, so rows grow while edges exist.
    uint32_t Target = 1 + static_cast<uint32_t>(R.nextBelow(190));
    double BackShare = 0.1 + 0.05 * (Round % 5);
    while (G.sources().size() < Target) {
      G.addSource(SourceKind::SyncScript, "s");
      uint32_t N = static_cast<uint32_t>(G.sources().size());
      // About one edge per source: forward, back (closing cycles when a
      // path already leads back), self and invalid endpoints mixed in.
      uint64_t Edges = R.nextBelow(3);
      for (uint64_t I = 0; I < Edges; ++I) {
        uint32_t From = static_cast<uint32_t>(R.nextBelow(N));
        uint32_t To = static_cast<uint32_t>(R.nextBelow(N));
        if ((From > To) != R.nextBool(BackShare))
          std::swap(From, To);
        if (R.nextBool(0.02))
          To = StaticHbGraph::InvalidSource;
        G.addEdge(From, To);
      }
      // Queries interleave with growth: the closure must stay exact
      // after every edge, not only once the graph is complete.
      for (int Q = 0; Q < 8; ++Q, ++Checked) {
        uint32_t A = static_cast<uint32_t>(R.nextBelow(N));
        uint32_t B = static_cast<uint32_t>(R.nextBelow(N));
        bool Forward = wr::testing::staticReachesDfs(G, A, B);
        bool Backward = wr::testing::staticReachesDfs(G, B, A);
        ASSERT_EQ(G.reaches(A, B), Forward)
            << "round " << Round << " n=" << N << " " << A << "->" << B;
        ASSERT_EQ(G.ordered(A, B), Forward || Backward);
      }
    }
    Checked += expectReachParity(G, "round " + std::to_string(Round));
    EXPECT_FALSE(G.reaches(0, StaticHbGraph::InvalidSource));
    EXPECT_FALSE(G.reaches(StaticHbGraph::InvalidSource, 0));
  }
  EXPECT_GT(Checked, 100000u);
}

TEST(StaticReachParityTest, EdgeIntoOlderSourceClosesCycle) {
  StaticHbGraph G;
  uint32_t A = G.addSource(SourceKind::Parse, "a");
  uint32_t B = G.addSource(SourceKind::Parse, "b");
  uint32_t C = G.addSource(SourceKind::Parse, "c");
  uint32_t D = G.addSource(SourceKind::Parse, "d");
  G.addEdge(A, B);
  G.addEdge(B, C);
  EXPECT_FALSE(G.reaches(C, A));
  G.addEdge(C, A); // Cycle A -> B -> C -> A.
  G.addEdge(D, B); // D enters the cycle after it closed.
  for (uint32_t X : {A, B, C})
    for (uint32_t Y : {A, B, C})
      EXPECT_TRUE(G.reaches(X, Y)) << X << "->" << Y;
  EXPECT_TRUE(G.reaches(D, A));
  EXPECT_FALSE(G.reaches(A, D));
  uint32_t E = G.addSource(SourceKind::Parse, "e");
  G.addEdge(B, E); // A source added after the cycle is reached by all.
  for (uint32_t X : {A, B, C, D})
    EXPECT_TRUE(G.reaches(X, E)) << X;
  EXPECT_FALSE(G.reaches(E, A));
}

//===----------------------------------------------------------------------===//
// analyzePage output pinned on the corpus
//===----------------------------------------------------------------------===//

TEST(StaticAnalysisDigestTest, CorpusOutputMatchesRecordedDigest) {
  std::string All;
  size_t Races = 0, Notes = 0;
  for (const sites::GeneratedSite &Site :
       sites::buildFortune100Corpus(CorpusSeed)) {
    StaticAnalysis A = analyzeSite(Site);
    Races += A.Races.size();
    Notes += A.Notes.size();
    All += "== " + Site.Name + "\n" + renderAnalysis(A);
  }
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(fnv1a(All)));
  // Recorded from the per-query analyzer (DFS reachability, statement
  // definitions re-collected on every transfer and query).
  EXPECT_EQ(Races, 4874u);
  EXPECT_EQ(Notes, 0u);
  EXPECT_EQ(std::string(Hex), "285ca452629db0a5");
}

} // namespace
