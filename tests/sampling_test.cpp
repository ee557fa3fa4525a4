//===- tests/sampling_test.cpp - Sampling-layer behavior ----------------------===//
//
// The src/sample contract, from the unit up:
//
//  * AccessSampler strategy behavior: per-location decisions are a pure
//    function of the location, adaptive always admits a location's first
//    K accesses and heat-marked locations, and the counters partition
//    exactly.
//  * Detector integration: rate 1.0 constructs no sampler and changes no
//    bytes (the fig golden file stays byte-identical); below 1.0 the
//    detector processes exactly the admitted accesses.
//  * Determinism: sampled corpus reports are byte-identical at --jobs
//    1/2/4/8.
//
//===----------------------------------------------------------------------===//

#include "analysis/Scenarios.h"
#include "detect/RaceDetector.h"
#include "hb/HbGraph.h"
#include "mem/LocationInterner.h"
#include "sample/Sampling.h"
#include "sites/CorpusReport.h"
#include "sites/CorpusRunner.h"
#include "webracer/RunReport.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace wr;
using sample::AccessSampler;
using sample::SamplingOptions;
using sample::SamplingStrategy;

namespace {

Access makeAccess(OpId Op, LocId Loc, AccessKind Kind) {
  Access A;
  A.Op = Op;
  A.Loc = Loc;
  A.Kind = Kind;
  return A;
}

TEST(AccessSamplerTest, PerLocationDecisionIsAFunctionOfTheLocation) {
  SamplingOptions Opts;
  Opts.Strategy = SamplingStrategy::PerLocation;
  Opts.Rate = 0.5;
  Opts.Seed = 42;
  AccessSampler S(Opts);
  // Whatever the verdict for a location is, it never changes across
  // repeated accesses, operations, or access kinds.
  for (LocId Loc = 0; Loc < 64; ++Loc) {
    bool First = S.shouldSample(makeAccess(1, Loc, AccessKind::Read));
    for (OpId Op = 2; Op < 6; ++Op)
      EXPECT_EQ(S.shouldSample(makeAccess(Op, Loc, AccessKind::Write)),
                First);
  }
  // Rate 0.5 over 64 locations keeps a nontrivial subset of both sides.
  const sample::SamplerCounters &C = S.counters();
  EXPECT_GT(C.LocationPass, 0u);
  EXPECT_GT(C.DroppedReads + C.DroppedWrites, 0u);
}

TEST(AccessSamplerTest, RateZeroPerLocationDropsEverything) {
  SamplingOptions Opts;
  Opts.Strategy = SamplingStrategy::PerLocation;
  Opts.Rate = 0.0;
  AccessSampler S(Opts);
  for (LocId Loc = 0; Loc < 32; ++Loc)
    EXPECT_FALSE(S.shouldSample(makeAccess(1, Loc, AccessKind::Read)));
  EXPECT_EQ(S.counters().SeenReads, 32u);
  EXPECT_EQ(S.counters().DroppedReads, 32u);
  EXPECT_EQ(S.counters().SampledReads, 0u);
}

TEST(AccessSamplerTest, AdaptiveColdStartAndHeatFeedback) {
  SamplingOptions Opts;
  Opts.Strategy = SamplingStrategy::Adaptive;
  Opts.Rate = 0.0; // Only cold/hot admissions survive.
  Opts.ColdAccesses = 3;
  Opts.HotBudget = 2;
  AccessSampler S(Opts);
  LocId Loc = 11;
  // First ColdAccesses accesses always admitted.
  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(S.shouldSample(makeAccess(1, Loc, AccessKind::Read)));
  EXPECT_EQ(S.counters().ColdPass, 3u);
  // Past the cold window at rate 0: dropped.
  EXPECT_FALSE(S.shouldSample(makeAccess(2, Loc, AccessKind::Read)));
  // A race on the location re-arms it for HotBudget accesses.
  S.noteRace(Loc);
  EXPECT_TRUE(S.shouldSample(makeAccess(3, Loc, AccessKind::Write)));
  EXPECT_TRUE(S.shouldSample(makeAccess(4, Loc, AccessKind::Read)));
  EXPECT_FALSE(S.shouldSample(makeAccess(5, Loc, AccessKind::Read)));
  EXPECT_EQ(S.counters().HotPass, 2u);
  EXPECT_EQ(S.counters().HotLocations, 1u);
  // Inflation heat marks a different location the same way, counted once
  // even when marked repeatedly.
  S.noteInflation(Loc + 1);
  S.noteInflation(Loc + 1);
  EXPECT_EQ(S.counters().HotLocations, 2u);
}

TEST(AccessSamplerTest, CountersPartitionExactly) {
  SamplingOptions Opts;
  Opts.Strategy = SamplingStrategy::Adaptive;
  Opts.Rate = 0.3;
  Opts.Seed = 9;
  AccessSampler S(Opts);
  for (int I = 0; I < 500; ++I)
    S.shouldSample(makeAccess(1 + static_cast<OpId>(I % 7),
                              static_cast<LocId>(I % 23),
                              I % 3 ? AccessKind::Read : AccessKind::Write));
  const sample::SamplerCounters &C = S.counters();
  EXPECT_EQ(C.SeenReads + C.SeenWrites, 500u);
  EXPECT_EQ(C.SeenReads, C.SampledReads + C.DroppedReads);
  EXPECT_EQ(C.SeenWrites, C.SampledWrites + C.DroppedWrites);
  // Every admission was attributed to exactly one pass counter.
  EXPECT_EQ(C.SampledReads + C.SampledWrites,
            C.LocationPass + C.ColdPass + C.HotPass + C.RngPass);
}

TEST(RaceDetectorSamplingTest, RateOneConstructsNoSampler) {
  HbGraph Hb;
  LocationInterner Interner;
  detect::DetectorOptions Opts;
  Opts.Sampling.Rate = 1.0;
  detect::RaceDetector D(Hb, Interner, Opts);
  EXPECT_EQ(D.sampler(), nullptr);
  EXPECT_FALSE(D.samplingStats().enabled());
}

TEST(RaceDetectorSamplingTest, DetectorProcessesExactlyAdmittedAccesses) {
  HbGraph Hb;
  LocationInterner Interner;
  OpId A = Hb.addOperation(Operation());
  OpId B = Hb.addOperation(Operation());
  Hb.addEdge(A, B, HbRule::RProgram);
  detect::DetectorOptions Opts;
  Opts.Sampling.Strategy = SamplingStrategy::PerLocation;
  Opts.Sampling.Rate = 0.4;
  Opts.Sampling.Seed = 5;
  detect::RaceDetector D(Hb, Interner, Opts);
  ASSERT_NE(D.sampler(), nullptr);
  for (int I = 0; I < 400; ++I) {
    char Name[16];
    std::snprintf(Name, sizeof(Name), "x%d", I % 31);
    Access Acc = makeAccess(I % 2 ? A : B, Interner.internVar(0, Name),
                            I % 3 ? AccessKind::Read : AccessKind::Write);
    D.onMemoryAccess(Acc);
  }
  obs::SamplingStats S = D.samplingStats();
  ASSERT_TRUE(S.enabled());
  EXPECT_EQ(S.SeenReads + S.SeenWrites, 400u);
  EXPECT_EQ(S.SeenReads + S.SeenWrites,
            S.SampledReads + S.SampledWrites + S.DroppedReads +
                S.DroppedWrites);
  // AccessesSeen counts only what the sampler admitted - attrition is
  // visible in the report, never silently folded into detector counters.
  EXPECT_EQ(D.accessesSeen(), S.SampledReads + S.SampledWrites);
  EXPECT_GT(S.DroppedReads + S.DroppedWrites, 0u);
}

/// One array document holding the five figure run reports, mirroring
/// tests/report_schema_test.cpp but with the given sampling options.
std::string figureReportsDocument(const SamplingOptions &Sampling) {
  obs::Json All = obs::Json::array();
  for (const analysis::PageSpec &Page : analysis::figurePages()) {
    webracer::SessionOptions Opts;
    Opts.Browser.Seed = 7;
    Opts.Detector.Sampling = Sampling;
    webracer::Session S(Opts);
    S.network().addResource(Page.EntryUrl, Page.Html, 10);
    for (const analysis::PageResource &R : Page.Resources)
      S.network().addResource(R.Url, R.Content, R.LatencyUs);
    webracer::SessionResult Result = S.run(Page.EntryUrl);
    All.push(webracer::buildRunReport(Page.Name, Result, S.browser().hb()));
  }
  return obs::writeJson(All);
}

TEST(RaceDetectorSamplingTest, RateOneReportsMatchGoldenFile) {
  // Rate 1.0 must be indistinguishable from the pre-sampling detector:
  // the same golden bytes report_schema_test locks down, no wr_sampling
  // section, regardless of the configured strategy.
  SamplingOptions Sampling;
  Sampling.Strategy = SamplingStrategy::PerLocation;
  Sampling.Rate = 1.0;
  Sampling.Seed = 99;
  std::string Actual = figureReportsDocument(Sampling);
  std::ifstream In(WR_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(In) << "missing golden file " << WR_GOLDEN_FILE;
  std::ostringstream Expected;
  Expected << In.rdbuf();
  EXPECT_EQ(Actual, Expected.str());
}

TEST(RaceDetectorSamplingTest, SampledFigureReportsAreDeterministic) {
  SamplingOptions Sampling;
  Sampling.Strategy = SamplingStrategy::Adaptive;
  Sampling.Rate = 0.2;
  Sampling.Seed = 13;
  EXPECT_EQ(figureReportsDocument(Sampling),
            figureReportsDocument(Sampling));
}

TEST(CorpusSamplingTest, SampledReportsAreJobCountInvariant) {
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  Corpus.resize(12);
  webracer::SessionOptions Opts;
  Opts.Detector.Sampling.Strategy = SamplingStrategy::Adaptive;
  Opts.Detector.Sampling.Rate = 0.1;
  Opts.Detector.Sampling.Seed = 2012;
  std::string Reference;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    sites::CorpusStats Stats = sites::runCorpus(Corpus, Opts, 2012, Jobs);
    std::string Bytes =
        obs::writeJson(sites::buildCorpusReport("fortune100", Stats));
    if (Reference.empty())
      Reference = Bytes;
    EXPECT_EQ(Bytes, Reference) << "report drifted at --jobs " << Jobs;
  }
}

} // namespace
