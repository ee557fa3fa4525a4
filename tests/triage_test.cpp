//===- tests/triage_test.cpp - Triage engine tests --------------------------===//
//
// The triage engine's contract:
//
//  * Structural signatures are invariant under the seed, the site layout
//    (pattern uniquifier suffixes), and the trace encoding (WRT1 vs
//    WRT2) - the same source pattern signs identically everywhere.
//  * Suppression files round-trip through parse/serialize, reject
//    malformed input with line-numbered diagnostics, and drop races
//    without silent attrition (counts land in FilterCounts, per-entry
//    hits let unmatched entries warn).
//  * Batch ingest emits a byte-identical report at every job count.
//
//===----------------------------------------------------------------------===//

#include "detect/TraceReplay.h"
#include "obs/Json.h"
#include "sites/Corpus.h"
#include "sites/CorpusRunner.h"
#include "triage/Batch.h"
#include "triage/Signature.h"
#include "triage/Suppression.h"
#include "webracer/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace wr;
namespace fs = std::filesystem;

namespace {

/// Sorted signature texts of one site run (the race "set" modulo ids).
std::vector<std::string> signatureTexts(const sites::SiteRunStats &S) {
  std::vector<std::string> Texts;
  for (const triage::RaceSignature &Sig : S.Signatures)
    Texts.push_back(Sig.text());
  std::sort(Texts.begin(), Texts.end());
  return Texts;
}

sites::GeneratedSite patternSite(const std::string &Name,
                                 std::vector<sites::PatternInstance> Ps) {
  return sites::buildSite({Name, std::move(Ps)});
}

TEST(SignatureTest, NormalizeSourcePatternFoldsDigitRuns) {
  EXPECT_EQ(triage::normalizeSourcePattern("dw_p3"), "dw_p#");
  EXPECT_EQ(triage::normalizeSourcePattern("menu_p12_0"), "menu_p#_#");
  EXPECT_EQ(triage::normalizeSourcePattern("plain"), "plain");
  EXPECT_EQ(triage::normalizeSourcePattern("42"), "#");
  EXPECT_EQ(triage::normalizeSourcePattern(""), "");
}

TEST(SignatureTest, InvariantAcrossSeeds) {
  // The same site at different seeds schedules differently (network
  // jitter, exploration order) but must produce the same signature set
  // for the seeded pattern.
  sites::GeneratedSite Site = patternSite(
      "sig-seeds", {{sites::PatternKind::FormValueHarmful, 1},
                    {sites::PatternKind::HtmlLookupHarmful, 1}});
  webracer::SessionOptions Base;
  sites::SiteRunStats A = sites::runSite(Site, Base, 7);
  sites::SiteRunStats B = sites::runSite(Site, Base, 1234567);
  ASSERT_FALSE(A.Signatures.empty());
  EXPECT_EQ(signatureTexts(A), signatureTexts(B));
}

TEST(SignatureTest, InvariantAcrossSiteLayouts) {
  // The corpus uniquifies symbols per pattern slot ("_p<N>"), so the
  // same pattern embedded at different positions gets different source
  // names. Digit folding must cancel that: a site with the pattern in
  // slot 0 and one with it behind other patterns sign identically for
  // the shared patterns.
  sites::GeneratedSite First = patternSite(
      "sig-layout-a", {{sites::PatternKind::FormValueHarmful, 1},
                       {sites::PatternKind::HtmlLookupHarmful, 1}});
  sites::GeneratedSite Second = patternSite(
      "sig-layout-b", {{sites::PatternKind::HtmlLookupHarmful, 1},
                       {sites::PatternKind::FormValueHarmful, 1}});
  webracer::SessionOptions Base;
  sites::SiteRunStats A = sites::runSite(First, Base, 99);
  sites::SiteRunStats B = sites::runSite(Second, Base, 99);
  ASSERT_FALSE(A.Signatures.empty());
  EXPECT_EQ(signatureTexts(A), signatureTexts(B));
}

TEST(SignatureTest, InvariantAcrossTraceEncodings) {
  // One execution, two encodings: the WRT2 bytes of a live Fig. 1 run and
  // the checked-in legacy WRT1 bytes of the same run must replay to
  // byte-identical signatures. Fig. 1's one race is a variable race the
  // Sec. 5.3 filters drop, so the raw races are signed.
  webracer::SessionOptions Opts;
  Opts.RecordTrace = true;
  webracer::Session S(Opts);
  S.network().addResource("index.html",
                          "<script>x = 1;</script>"
                          "<iframe src=\"a.html\"></iframe>"
                          "<iframe src=\"b.html\"></iframe>",
                          10);
  S.network().addResource("a.html", "<script>x = 2;</script>", 1000);
  S.network().addResource("b.html", "<script>alert(x);</script>", 2000);
  (void)S.run("index.html");
  ASSERT_NE(S.trace(), nullptr);

  auto SignedReplay = [](const std::string &Bytes) {
    TraceLog Log;
    std::string Error;
    EXPECT_TRUE(TraceLog::deserialize(Bytes, Log, &Error)) << Error;
    detect::ReplayResult R = detect::replayTrace(Log);
    std::vector<std::string> Texts;
    for (const detect::Race &Race : R.RawRaces)
      Texts.push_back(triage::computeSignature(Race, R.Hb).text());
    std::sort(Texts.begin(), Texts.end());
    return Texts;
  };
  std::ifstream Fixture(std::string(WR_TRACE_DIR) + "/fig1.wrt1",
                        std::ios::binary);
  std::ostringstream Legacy;
  Legacy << Fixture.rdbuf();
  std::vector<std::string> Wrt2 = SignedReplay(S.trace()->serialize());
  std::vector<std::string> Wrt1 = SignedReplay(Legacy.str());
  ASSERT_FALSE(Wrt2.empty());
  EXPECT_EQ(Wrt2, Wrt1);
}

TEST(SignatureTest, HashAndIdAreStableFunctionsOfText) {
  triage::RaceSignature A{"variable", "var global.x", "r:... + w:...",
                          "timeout + -"};
  triage::RaceSignature B = A;
  EXPECT_EQ(A.hash(), B.hash());
  EXPECT_EQ(A.id(), B.id());
  EXPECT_EQ(A.id().substr(0, 4), "sig-");
  EXPECT_EQ(A.id().size(), 4u + 16u);
  B.Location = "var global.y";
  EXPECT_NE(A.hash(), B.hash());
}

TEST(GlobTest, Matching) {
  EXPECT_TRUE(triage::globMatch("*", ""));
  EXPECT_TRUE(triage::globMatch("*", "anything"));
  EXPECT_TRUE(triage::globMatch("var global.menu*", "var global.menu_p#"));
  EXPECT_FALSE(triage::globMatch("var global.menu*", "var dom.menu"));
  EXPECT_TRUE(triage::globMatch("a?c", "abc"));
  EXPECT_FALSE(triage::globMatch("a?c", "ac"));
  EXPECT_TRUE(triage::globMatch("*.value", "var node#.value"));
  EXPECT_FALSE(triage::globMatch("", "x"));
  EXPECT_TRUE(triage::globMatch("", ""));
}

TEST(SuppressionTest, ParseSerializeRoundTrip) {
  const char *Text = "# comment\n"
                     "{\n"
                     "  name: menu warm-up\n"
                     "  kind: html\n"
                     "  location: elem #menu*\n"
                     "}\n"
                     "\n"
                     "{\n"
                     "  name: all variable noise\n"
                     "  kind: variable\n"
                     "}\n";
  triage::SuppressionFile File;
  std::string Error;
  ASSERT_TRUE(triage::SuppressionFile::parse(Text, File, Error)) << Error;
  ASSERT_EQ(File.entries().size(), 2u);
  EXPECT_EQ(File.entries()[0].Name, "menu warm-up");
  EXPECT_EQ(File.entries()[0].Kind, "html");
  EXPECT_EQ(File.entries()[0].Location, "elem #menu*");
  EXPECT_EQ(File.entries()[0].Access, "*"); // Omitted fields default.
  EXPECT_EQ(File.entries()[1].Context, "*");

  triage::SuppressionFile Again;
  ASSERT_TRUE(
      triage::SuppressionFile::parse(File.serialize(), Again, Error))
      << Error;
  EXPECT_EQ(File.entries(), Again.entries());
  EXPECT_EQ(File.serialize(), Again.serialize());
}

TEST(SuppressionTest, ParseErrorsNameTheLine) {
  triage::SuppressionFile File;
  std::string Error;
  EXPECT_FALSE(
      triage::SuppressionFile::parse("{\n  kind: html\n}\n", File, Error));
  EXPECT_NE(Error.find("name"), std::string::npos);
  EXPECT_FALSE(triage::SuppressionFile::parse(
      "{\n  name: x\n  bogus: y\n}\n", File, Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
  EXPECT_FALSE(
      triage::SuppressionFile::parse("{\n  name: x\n", File, Error));
  EXPECT_NE(Error.find("unterminated"), std::string::npos) << Error;
  EXPECT_FALSE(triage::SuppressionFile::parse("junk\n", File, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;
}

TEST(SuppressionTest, ApplyCountsAttritionAndHits) {
  sites::GeneratedSite Site = patternSite(
      "sup-apply", {{sites::PatternKind::FormValueHarmful, 1},
                    {sites::PatternKind::HtmlLookupHarmful, 1}});
  webracer::SessionOptions Base;
  sites::SiteRunStats Run = sites::runSite(Site, Base, 5);
  ASSERT_GE(Run.FilteredRaces.size(), 2u);
  size_t Variables = 0;
  for (const triage::RaceSignature &Sig : Run.Signatures)
    Variables += Sig.Kind == "variable";
  ASSERT_GT(Variables, 0u);

  triage::SuppressionFile File;
  File.add({"all variable races", "variable", "*", "*", "*"});
  File.add({"matches nothing", "event-dispatch", "*", "*", "*"});

  // Recompute against a fresh offline graph so the test owns the HB
  // graph lifetime (the site's browser is gone).
  webracer::SessionOptions Opts;
  Opts.RecordTrace = true;
  Opts.Suppressions = &File;
  webracer::Session S(Opts);
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  for (const sites::SiteResource &R : Site.Resources)
    S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
  webracer::SessionResult Result = S.run(Site.IndexUrl);

  // The suppressed drops are visible, never silent: attrition records
  // them and the kept tally shrank accordingly.
  EXPECT_EQ(Result.Stats.Attrition.Suppressed, Variables);
  EXPECT_EQ(Result.Stats.Attrition.Kept, Result.FilteredRaces.size());
  EXPECT_EQ(Result.Stats.Filtered.total(), Result.FilteredRaces.size());
  for (const detect::Race &R : Result.FilteredRaces)
    EXPECT_NE(R.Kind, detect::RaceKind::Variable);
  ASSERT_EQ(Result.SuppressionHits.size(), 2u);
  EXPECT_EQ(Result.SuppressionHits[0], Variables);
  EXPECT_EQ(Result.SuppressionHits[1], 0u); // The unmatched entry.
}

TEST(SuppressionTest, SuppressedKeyOmittedWhenZero) {
  // Golden-file compatibility: runs without suppressions serialize
  // exactly as before the triage engine existed.
  obs::FilterAttrition A;
  A.Input = 3;
  A.Kept = 3;
  std::string NoSup = obs::writeJson(A.toJson());
  EXPECT_EQ(NoSup.find("suppressed"), std::string::npos);
  A.Suppressed = 1;
  EXPECT_NE(obs::writeJson(A.toJson()).find("suppressed"),
            std::string::npos);
}

/// Records \p Count traces of \p Site (varying seeds) into \p Dir.
void recordTraces(const sites::GeneratedSite &Site, const fs::path &Dir,
                  unsigned Count) {
  fs::create_directories(Dir);
  for (unsigned I = 0; I < Count; ++I) {
    webracer::SessionOptions Opts;
    Opts.RecordTrace = true;
    Opts.Browser.Seed = 100 + I;
    webracer::Session S(Opts);
    S.network().addResource(Site.IndexUrl, Site.Html, 10);
    for (const sites::SiteResource &R : Site.Resources)
      S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                        R.MaxLatencyUs);
    (void)S.run(Site.IndexUrl);
    std::ofstream Out(Dir / ("t" + std::to_string(I) + ".wrt"),
                      std::ios::binary | std::ios::trunc);
    std::string Bytes = S.trace()->serialize();
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    ASSERT_TRUE(Out.good());
  }
}

TEST(BatchTest, ByteIdenticalAcrossJobCountsAndCountsReconcile) {
  fs::path Dir =
      fs::temp_directory_path() / "wr_triage_test_batch";
  fs::remove_all(Dir);
  sites::GeneratedSite Site = patternSite(
      "batch-site", {{sites::PatternKind::FormValueHarmful, 1}});
  recordTraces(Site, Dir, 6);

  std::vector<std::string> Paths;
  std::string Error;
  ASSERT_TRUE(triage::listTraceFiles(Dir.string(), Paths, Error)) << Error;
  ASSERT_EQ(Paths.size(), 6u);
  EXPECT_TRUE(std::is_sorted(Paths.begin(), Paths.end()));

  std::string Baseline;
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    triage::BatchOptions Opts;
    Opts.Jobs = Jobs;
    triage::BatchResult R = triage::runBatch(Paths, Opts);
    EXPECT_EQ(R.TracesOk, 6u);
    EXPECT_EQ(R.TracesFailed, 0u);
    // Occurrence counts must sum to the per-trace totals.
    uint64_t PerTrace = 0;
    for (const triage::TraceIngest &In : R.Traces)
      PerTrace += In.Kept.size();
    uint64_t Grouped = 0;
    for (const triage::SignatureGroup &G : R.Groups)
      Grouped += G.Occurrences;
    EXPECT_EQ(Grouped, PerTrace);
    EXPECT_EQ(Grouped, R.TotalKept);
    EXPECT_GT(R.TotalKept, 0u);
    std::string Doc =
        obs::writeJson(triage::buildBatchReport("batch", R));
    if (Baseline.empty())
      Baseline = Doc;
    else
      EXPECT_EQ(Doc, Baseline) << "report differs at jobs=" << Jobs;
  }
  fs::remove_all(Dir);
}

TEST(BatchTest, UnreadableTraceIsReportedNotSilent) {
  fs::path Dir =
      fs::temp_directory_path() / "wr_triage_test_badtrace";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::ofstream(Dir / "bad.wrt", std::ios::binary) << "not a trace";
  std::vector<std::string> Paths;
  std::string Error;
  ASSERT_TRUE(triage::listTraceFiles(Dir.string(), Paths, Error)) << Error;
  triage::BatchResult R = triage::runBatch(Paths, triage::BatchOptions());
  EXPECT_EQ(R.TracesFailed, 1u);
  ASSERT_EQ(R.Traces.size(), 1u);
  EXPECT_FALSE(R.Traces[0].Ok);
  EXPECT_FALSE(R.Traces[0].Error.empty());
  obs::Json Doc = triage::buildBatchReport("bad", R);
  ASSERT_NE(Doc.find("traces"), nullptr);
  EXPECT_EQ(Doc.find("traces")->find("failed")->asInt(), 1);
  ASSERT_NE(Doc.find("errors"), nullptr);
  fs::remove_all(Dir);
}

TEST(BatchTest, SuppressionRemovesGroupAndSurfacesInCounts) {
  fs::path Dir = fs::temp_directory_path() / "wr_triage_test_sup";
  fs::remove_all(Dir);
  sites::GeneratedSite Site = patternSite(
      "batch-sup", {{sites::PatternKind::FormValueHarmful, 1},
                    {sites::PatternKind::HtmlLookupHarmful, 1}});
  recordTraces(Site, Dir, 3);
  std::vector<std::string> Paths;
  std::string Error;
  ASSERT_TRUE(triage::listTraceFiles(Dir.string(), Paths, Error)) << Error;

  triage::BatchResult Plain =
      triage::runBatch(Paths, triage::BatchOptions());
  ASSERT_FALSE(Plain.Groups.empty());
  const triage::SignatureGroup &Victim = Plain.Groups.front();

  triage::SuppressionFile File;
  File.add({"victim", Victim.Sig.Kind, Victim.Sig.Location,
            Victim.Sig.Access, Victim.Sig.Context});
  File.add({"stale", "no-such-kind", "*", "*", "*"});
  triage::BatchOptions Opts;
  Opts.Suppressions = &File;
  triage::BatchResult R = triage::runBatch(Paths, Opts);

  for (const triage::SignatureGroup &G : R.Groups)
    EXPECT_FALSE(G.Sig == Victim.Sig) << "suppressed group survived";
  EXPECT_EQ(R.TotalSuppressed, Victim.Occurrences);
  EXPECT_EQ(R.TotalKept + R.TotalSuppressed, Plain.TotalKept);
  ASSERT_EQ(R.SuppressionHits.size(), 2u);
  EXPECT_EQ(R.SuppressionHits[0], Victim.Occurrences);
  EXPECT_EQ(R.SuppressionHits[1], 0u);
  ASSERT_EQ(R.UnmatchedSuppressions.size(), 1u);
  EXPECT_EQ(R.UnmatchedSuppressions[0], "stale");
  // The aggregate's attrition carries the drops (never silent).
  EXPECT_EQ(R.Aggregate.Attrition.Suppressed, Victim.Occurrences);
  fs::remove_all(Dir);
}

} // namespace
