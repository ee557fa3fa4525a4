//===- tests/session_test.cpp - top-level Session API tests --------------------===//

#include "DfsReference.h"
#include "sites/Corpus.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

using namespace wr;
using namespace wr::webracer;

namespace {

void registerFig1(rt::NetworkSimulator &Net) {
  Net.addResource("index.html",
                  "<script>x = 1;</script>"
                  "<iframe src=\"a.html\"></iframe>"
                  "<iframe src=\"b.html\"></iframe>",
                  10);
  Net.addResource("a.html", "<script>x = 2;</script>", 1000);
  Net.addResource("b.html", "<script>alert(x);</script>", 2000);
}

TEST(SessionTest, EndToEndRun) {
  Session S{SessionOptions()};
  registerFig1(S.network());
  SessionResult R = S.run("index.html");
  EXPECT_EQ(R.RawRaces.size(), 1u);
  EXPECT_GT(R.Stats.Operations, 10u);
  EXPECT_GT(R.Stats.HbEdges, 10u);
  EXPECT_GT(R.Stats.EpochHits, 0u);
  EXPECT_GT(R.Stats.ReadsSeen, 0u);
  ASSERT_EQ(R.Alerts.size(), 1u);
  EXPECT_TRUE(R.Crashes.empty());
  EXPECT_TRUE(R.ParseErrors.empty());
}

TEST(SessionTest, VectorClockModeFindsSameRaces) {
  // The live detector (epoch probes on the clock index) reports exactly
  // the races of the paper's algorithm answered by the DFS oracle.
  std::vector<sites::GeneratedSite> Corpus = sites::buildFortune100Corpus(1);
  size_t Races = 0;
  for (size_t I = 0; I < 8; ++I) {
    const sites::GeneratedSite &Site = Corpus[I];
    SessionOptions Opts;
    Opts.RecordTrace = true;
    Session S(Opts);
    S.network().addResource(Site.IndexUrl, Site.Html, 10);
    for (const sites::SiteResource &R : Site.Resources)
      S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                        R.MaxLatencyUs);
    SessionResult R = S.run(Site.IndexUrl);
    EXPECT_EQ(wr::testing::raceKeys(R.RawRaces),
              wr::testing::dfsReferenceRaces(*S.trace(), S.browser().hb()))
        << Site.Name;
    Races += R.RawRaces.size();
  }
  EXPECT_GT(Races, 8u);
}

TEST(SessionTest, DeterministicAcrossRuns) {
  auto RunOnce = [] {
    Session S{SessionOptions()};
    registerFig1(S.network());
    return S.run("index.html");
  };
  SessionResult A = RunOnce();
  SessionResult B = RunOnce();
  EXPECT_EQ(A.Stats.Operations, B.Stats.Operations);
  EXPECT_EQ(A.Stats.HbEdges, B.Stats.HbEdges);
  ASSERT_EQ(A.RawRaces.size(), B.RawRaces.size());
  for (size_t I = 0; I < A.RawRaces.size(); ++I)
    EXPECT_EQ(A.RawRaces[I].Loc, B.RawRaces[I].Loc);
}

TEST(SessionTest, AutoExploreToggle) {
  auto RunWith = [](bool Explore) {
    SessionOptions Opts;
    Opts.AutoExplore = Explore;
    Session S(Opts);
    S.network().addResource(
        "index.html",
        "<input type=\"text\" id=\"q\" />"
        "<script>document.getElementById('q').value = 'hint';</script>",
        10);
    return S.run("index.html");
  };
  SessionResult Without = RunWith(false);
  SessionResult With = RunWith(true);
  // The Fig. 2 race needs the simulated typing.
  EXPECT_EQ(Without.FilteredRaces.size(), 0u);
  EXPECT_EQ(With.FilteredRaces.size(), 1u);
  EXPECT_EQ(With.Explore.BoxesTyped, 1u);
}

TEST(SessionTest, TraceRecording) {
  SessionOptions Opts;
  Opts.RecordTrace = true;
  Session S(Opts);
  S.network().addResource("index.html", "<script>var x = 1;</script>",
                          10);
  S.run("index.html");
  ASSERT_NE(S.trace(), nullptr);
  EXPECT_GT(S.trace()->events().size(), 5u);
  EXPECT_GT(S.trace()->count(TraceLog::EventKind::MemAccess), 0u);
}

TEST(SessionTest, NoTraceByDefault) {
  Session S{SessionOptions()};
  EXPECT_EQ(S.trace(), nullptr);
}

TEST(SessionTest, ParseErrorsSurface) {
  Session S{SessionOptions()};
  S.network().addResource("index.html",
                          "<script>var = broken syntax(;</script>"
                          "<script>var ok = 1;</script>",
                          10);
  SessionResult R = S.run("index.html");
  EXPECT_EQ(R.ParseErrors.size(), 1u);
  // The broken script is skipped; the page still runs.
  js::Value *V = S.browser().interp().globalEnv()->findOwn("ok");
  ASSERT_NE(V, nullptr);
  EXPECT_DOUBLE_EQ(V->asNumber(), 1);
}

TEST(SessionTest, MissingPageYieldsEmptyRun) {
  Session S{SessionOptions()};
  SessionResult R = S.run("never-registered.html");
  EXPECT_TRUE(R.RawRaces.empty());
  // Window still completes its (empty) load cycle.
  EXPECT_TRUE(S.browser().mainWindow()->loadFired());
}

TEST(SessionTest, DispatchCountsCallback) {
  Session S{SessionOptions()};
  S.network().addResource(
      "index.html",
      "<div id=\"a\" onclick=\"window.n = (window.n || 0) + 1;\"></div>",
      10);
  S.run("index.html");
  Element *A = S.browser().mainWindow()->document().getElementById("a");
  detect::DispatchCountFn Counts = S.dispatchCounts();
  EventHandlerLoc Loc{A->id(), 0, "click", 0};
  EXPECT_EQ(Counts(Loc), 2); // Explorer repeats click twice.
  EventHandlerLoc Never{A->id(), 0, "dblclick", 0};
  EXPECT_EQ(Counts(Never), 0);
}

TEST(SessionTest, ExpectedOperationsHintPreservesResults) {
  // The capacity hint is purely an allocation hint: a hinted session must
  // produce the identical statistics record (races, chains, clock arena
  // bytes) as an unhinted one.
  auto runWith = [](size_t Hint) {
    SessionOptions Opts;
    Opts.ExpectedOperations = Hint;
    Session S{Opts};
    S.network().addResource("index.html",
                            "<script>x = 1;</script>"
                            "<iframe src=\"a.html\"></iframe>"
                            "<iframe src=\"b.html\"></iframe>",
                            10);
    S.network().addResource("a.html", "<script>x = 2;</script>", 1000);
    S.network().addResource("b.html", "<script>alert(x);</script>", 2000);
    return S.run("index.html");
  };
  SessionResult Plain = runWith(0);
  SessionResult Hinted = runWith(4096);
  EXPECT_EQ(Plain.RawRaces.size(), Hinted.RawRaces.size());
  EXPECT_EQ(Plain.Stats.Operations, Hinted.Stats.Operations);
  EXPECT_EQ(Plain.Stats.VcChains, Hinted.Stats.VcChains);
  EXPECT_EQ(Plain.Stats.ClockBytes, Hinted.Stats.ClockBytes);
  EXPECT_EQ(Plain.Stats.SharedClocks, Hinted.Stats.SharedClocks);
  EXPECT_EQ(Plain.Stats.ClockMerges, Hinted.Stats.ClockMerges);
}

} // namespace
