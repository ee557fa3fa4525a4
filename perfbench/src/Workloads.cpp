//===- Workloads.cpp - The benchmark's three workloads ----------------------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/CrossCheck.h"
#include "analysis/StaticAnalyzer.h"
#include "detect/Prediction.h"
#include "detect/TraceReplay.h"
#include "obs/Json.h"
#include "sites/Corpus.h"
#include "sites/CorpusReport.h"
#include "sites/CorpusRunner.h"
#include "support/Rng.h"
#include "triage/Batch.h"
#include "triage/Signature.h"
#include "webracer/Session.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

using namespace wr;
using namespace wrbench;

namespace {

namespace fs = std::filesystem;

using sites::GeneratedSite;
using sites::SiteResource;

/// Registers a generated site on a session's network the way
/// sites::runSite does: the page arrives promptly, resources jitter.
void addSite(webracer::Session &S, const GeneratedSite &Site) {
  S.network().addResource(Site.IndexUrl, Site.Html, 10);
  for (const SiteResource &R : Site.Resources)
    S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                      R.MaxLatencyUs);
}

/// Page content comes from the corpus `webracer-cli corpus` runs by
/// default; the workload seed draws each site's browser seed (network
/// jitter and so the task and event schedule). Corpus seeds change the
/// heavy-tailed noise-pattern counts, which moves a pass's work by up to
/// half (SHB/WCP pairs checked: 0.83M-1.37M over corpus seeds 1-8,
/// against 0.1% over browser seeds), so they stay fixed.
constexpr uint64_t CorpusContentSeed = 1;

/// Per-site seeds drawn in corpus order, as sites::runCorpus draws them.
std::vector<uint64_t> siteSeeds(uint64_t CorpusSeed, size_t N) {
  Rng SeedGen(CorpusSeed);
  std::vector<uint64_t> Seeds;
  Seeds.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Seeds.push_back(SeedGen.next());
  return Seeds;
}

bool matchesExpected(const detect::RaceTally &F,
                     const sites::ExpectedRaces &E) {
  return F.Html == static_cast<uint64_t>(E.Html) &&
         F.Function == static_cast<uint64_t>(E.Function) &&
         F.Variable == static_cast<uint64_t>(E.Variable) &&
         F.EventDispatch == static_cast<uint64_t>(E.EventDispatch);
}

/// Signature texts of \p Races, in report order.
std::vector<std::string> signatureTexts(const std::vector<detect::Race> &Races,
                                        const HbGraph &Hb) {
  std::vector<std::string> Out;
  Out.reserve(Races.size());
  for (const detect::Race &R : Races)
    Out.push_back(triage::computeSignature(R, Hb).text());
  return Out;
}

std::vector<std::string> sortedSignatures(
    const std::vector<detect::Race> &Races, const HbGraph &Hb) {
  std::vector<std::string> Out = signatureTexts(Races, Hb);
  std::sort(Out.begin(), Out.end());
  return Out;
}

double toMs(uint64_t Nanos) { return static_cast<double>(Nanos) / 1e6; }

//===----------------------------------------------------------------------===//
// corpus
//===----------------------------------------------------------------------===//

void addPredictionCounts(const obs::RunStats &S, Sums &Out) {
  for (const obs::PredictionRow &Row : S.Prediction) {
    Out["detect.pairs_checked"] += static_cast<double>(Row.PairsChecked);
    Out["detect.predicted"] += static_cast<double>(Row.Predicted.total());
  }
}

void addCorpusCounts(const sites::SiteRunStats &S, Sums &Out) {
  Out["analysis.static_races"] += static_cast<double>(S.Static.Predicted);
  addPredictionCounts(S.Stats, Out);
}

class CorpusWorkload final : public Workload {
public:
  explicit CorpusWorkload(uint64_t Seed)
      : Sites(sites::buildFortune100Corpus(CorpusContentSeed)),
        Seeds(siteSeeds(Seed, Sites.size())) {
    // `webracer-cli corpus` always predicts (both SHB and WCP).
    Base.Predict = true;
    sites::CorpusStats Pass;
    for (size_t I = 0; I < Sites.size(); ++I) {
      Pass.Sites.push_back(sites::runSite(Sites[I], Base, Seeds[I]));
      if (!matchesExpected(Pass.Sites.back().Filtered, Sites[I].Expected))
        ++WarmFailures;
      addCorpusCounts(Pass.Sites.back(), Warm);
    }
    Reference = obs::writeJson(sites::buildCorpusReport("fortune100", Pass));
  }

  size_t size() const override { return Sites.size(); }

  bool run(size_t I, uint64_t &Ns) override {
    uint64_t T0 = nowNs();
    sites::SiteRunStats S = sites::runSite(Sites[I], Base, Seeds[I]);
    Ns = nowNs() - T0;
    return matchesExpected(S.Filtered, Sites[I].Expected);
  }

  /// sites::runSite, one layer call per span. The assembled
  /// SiteRunStats feed the pass report, which must be byte-identical to
  /// the warm-up pass's (so the split makes the same calls runSite does).
  bool runTraced(size_t I, Tracer &T, Sums &Pass) override {
    const GeneratedSite &Site = Sites[I];
    sites::SiteRunStats Stats;
    {
      Span Item(&T, "item");
      std::unique_ptr<webracer::Session> S;
      {
        Span Sp(&T, "webracer.session_init");
        webracer::SessionOptions Opts = Base;
        Opts.Browser.Seed = Seeds[I];
        Opts.ExpectedOperations = 512;
        // Prediction runs below, over the trace the session records.
        Opts.Predict = false;
        Opts.RecordTrace = true;
        S = std::make_unique<webracer::Session>(Opts);
        addSite(*S, Site);
      }
      webracer::SessionResult Result;
      {
        Span Sp(&T, "webracer.session");
        Result = S->run(Site.IndexUrl);
      }
      uint64_t PredictStart = nowNs();
      for (EngineKind K : detect::enginesToPredict(Base.Detector.Engine)) {
        Span Sp(&T, K == EngineKind::Shb ? "detect.predict_shb"
                                         : "detect.predict_wcp");
        Result.Predictions.push_back(
            detect::predictRaces(*S->trace(), K, Result.RawRaces));
        Result.Stats.Prediction.push_back(
            detect::toStatsRow(Result.Predictions.back()));
      }
      // Session::run bills its own prediction to the detect phase.
      Result.Stats.Phases.addWall(obs::Phase::Detect, nowNs() - PredictStart);
      Stats.Name = Site.Name;
      Stats.Raw = detect::tally(Result.RawRaces);
      Stats.Filtered = detect::tally(Result.FilteredRaces);
      Stats.Expected = Site.Expected;
      std::optional<analysis::StaticAnalysis> Static;
      {
        Span Sp(&T, "analysis.analyze_page");
        Static = analysis::analyzePage(
            Site.Html,
            [&Site](const std::string &Url) -> std::optional<std::string> {
              for (const SiteResource &R : Site.Resources)
                if (R.Url == Url)
                  return R.Body;
              return std::nullopt;
            });
      }
      {
        Span Sp(&T, "analysis.crosscheck");
        std::vector<analysis::MappedDynamicRace> Mapped =
            analysis::mapDynamicRaces(Result.RawRaces, S->browser());
        Stats.Static = analysis::tallyPrecision(Static->Races, Mapped,
                                                /*Confirmed=*/nullptr,
                                                /*Refuted=*/nullptr);
      }
      {
        Span Sp(&T, "triage.signature");
        Stats.Signatures.reserve(Result.FilteredRaces.size());
        for (const detect::Race &R : Result.FilteredRaces)
          Stats.Signatures.push_back(
              triage::computeSignature(R, S->browser().hb()));
      }
      Stats.SuppressionHits = std::move(Result.SuppressionHits);
      Stats.Stats = std::move(Result.Stats);
      Stats.FilteredRaces = std::move(Result.FilteredRaces);
      {
        Span Sp(&T, "item.release");
        S.reset();
        Static.reset();
        Result = webracer::SessionResult();
      }
    }
    addCorpusCounts(Stats, Pass);
    bool Ok = matchesExpected(Stats.Filtered, Site.Expected);
    TracedPass.Sites.push_back(std::move(Stats));
    return Ok;
  }

  bool endTracedPass(Tracer &T, Sums &Pass) override {
    (void)Pass;
    std::string Report;
    {
      Span Sp(&T, "obs.report");
      Report =
          obs::writeJson(sites::buildCorpusReport("fortune100", TracedPass));
    }
    TracedPass.Sites.clear();
    return Report == Reference;
  }

private:
  std::vector<GeneratedSite> Sites;
  std::vector<uint64_t> Seeds;
  webracer::SessionOptions Base;
  /// The warm-up pass's corpus report (timing excluded).
  std::string Reference;
  sites::CorpusStats TracedPass;
};

//===----------------------------------------------------------------------===//
// ingest
//===----------------------------------------------------------------------===//

/// Corpora recorded per setup: 2 x 100 sites gives 200 traces.
constexpr uint64_t IngestCorpora = 2;

bool sameKept(const triage::TraceIngest &In,
              const std::vector<std::string> &Expected) {
  if (!In.Ok || In.Kept.size() != Expected.size())
    return false;
  for (size_t I = 0; I < Expected.size(); ++I)
    if (In.Kept[I].Sig.text() != Expected[I])
      return false;
  return true;
}

/// A directory removed with everything in it when the owner goes away,
/// also when set-up throws half-way.
class TempDir {
public:
  explicit TempDir(fs::path P) : Path(std::move(P)) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  const fs::path &path() const { return Path; }

private:
  fs::path Path;
};

class IngestWorkload final : public Workload {
public:
  IngestWorkload(uint64_t Seed, const std::string &ScratchDir)
      : Dir(fs::path(ScratchDir) /
            ("ingest-" + std::to_string(::getpid()))) {
    Rng ScheduleSeeds(Seed ^ 0x696e67657374ull);
    for (uint64_t C = 0; C < IngestCorpora; ++C) {
      std::vector<GeneratedSite> Corpus =
          sites::buildFortune100Corpus(CorpusContentSeed + C);
      std::vector<uint64_t> Seeds =
          siteSeeds(ScheduleSeeds.next(), Corpus.size());
      for (size_t I = 0; I < Corpus.size(); ++I)
        record(Corpus[I], Seeds[I]);
    }
    for (size_t I = 0; I < Paths.size(); ++I)
      if (!sameKept(triage::ingestTraceFile(Paths[I], Opts), Expected[I]))
        ++WarmFailures;
  }

  size_t size() const override { return Paths.size(); }

  bool run(size_t I, uint64_t &Ns) override {
    uint64_t T0 = nowNs();
    triage::TraceIngest In = triage::ingestTraceFile(Paths[I], Opts);
    Ns = nowNs() - T0;
    return sameKept(In, Expected[I]);
  }

  /// triage::ingestTraceFile, one layer call per span.
  bool runTraced(size_t I, Tracer &T, Sums &Pass) override {
    triage::TraceIngest In;
    size_t TraceBytes = 0, TraceEvents = 0;
    {
      Span Item(&T, "item");
      In.Path = Paths[I];
      std::unique_ptr<std::ostringstream> Buf;
      {
        Span Sp(&T, "instr.read");
        Buf = std::make_unique<std::ostringstream>();
        std::ifstream File(Paths[I], std::ios::binary);
        if (File)
          *Buf << File.rdbuf();
        else
          In.Error = "cannot open trace file";
      }
      std::optional<TraceLog> Log;
      bool Decoded = false;
      {
        Span Sp(&T, "instr.decode");
        std::string Bytes = Buf->str();
        TraceBytes = Bytes.size();
        Log.emplace();
        Decoded = In.Error.empty() &&
                  TraceLog::deserialize(Bytes, *Log, &In.Error);
        Log->setSource(Paths[I]);
        TraceEvents = Log->size();
      }
      std::optional<detect::ReplayResult> Result;
      if (Decoded) {
        Span Sp(&T, "detect.replay");
        Result = detect::replayTrace(*Log, Opts.Replay);
        In.Ok = true;
        In.Stats = std::move(Result->Stats);
      }
      if (Result) {
        Span Sp(&T, "triage.signature");
        for (const detect::Race &R : Result->FilteredRaces)
          In.Kept.push_back(
              {triage::computeSignature(R, Result->Hb), toString(R.Loc)});
      }
      {
        Span Sp(&T, "item.release");
        Result.reset();
        Log.reset();
        Buf.reset();
      }
    }
    Pass["instr.trace_bytes"] += static_cast<double>(TraceBytes);
    Pass["instr.events"] += static_cast<double>(TraceEvents);
    return sameKept(In, Expected[I]);
  }

private:
  /// Runs one corpus site live with trace recording and keeps its WRT2
  /// trace on disk plus the live session's filtered signatures.
  void record(const GeneratedSite &Site, uint64_t SiteSeed) {
    webracer::SessionOptions O;
    O.Browser.Seed = SiteSeed;
    O.ExpectedOperations = 512;
    O.RecordTrace = true;
    webracer::Session S(O);
    addSite(S, Site);
    webracer::SessionResult R = S.run(Site.IndexUrl);
    Expected.push_back(signatureTexts(R.FilteredRaces, S.browser().hb()));
    std::string Bytes = S.trace()->serialize();
    char Name[32];
    std::snprintf(Name, sizeof(Name), "%04zu.wrt", Paths.size());
    fs::path P = Dir.path() / Name;
    std::ofstream Out(P, std::ios::binary);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!Out.flush())
      throw std::runtime_error("cannot write trace " + P.string());
    Paths.push_back(P.string());
    Warm["instr.trace_bytes"] += static_cast<double>(Bytes.size());
    Warm["instr.events"] += static_cast<double>(S.trace()->size());
  }

  TempDir Dir;
  std::vector<std::string> Paths;
  /// Filtered signature texts of the live session behind each trace.
  std::vector<std::vector<std::string>> Expected;
  triage::BatchOptions Opts;
};

//===----------------------------------------------------------------------===//
// bigpage
//===----------------------------------------------------------------------===//

/// Pages per pass; each carries every PatternKind.
constexpr int BigPages = 8;
constexpr int NumPatternKinds =
    static_cast<int>(sites::PatternKind::IntervalSkipBenign) + 1;

/// Counters of one big-page run, read from its RunStats.
void addPageCounts(const obs::RunStats &S, Sums &Out) {
  Out["hb.operations"] += static_cast<double>(S.Operations);
  Out["hb.edges"] += static_cast<double>(S.HbEdges);
  Out["hb.chains"] += static_cast<double>(S.VcChains);
  Out["hb.clock_bytes"] += static_cast<double>(S.ClockBytes);
  Out["detect.accesses"] += static_cast<double>(S.AccessesSeen);
  Out["detect.epoch_hits"] += static_cast<double>(S.EpochHits);
  Out["detect.detector_bytes"] += static_cast<double>(S.DetectorBytes);
}

/// The session's own phase timers (obs::RunStats), read not added to.
void addPhaseTimes(const obs::PhaseStats &P, Sums &Out) {
  Out["html.parse_ms"] += toMs(P[obs::Phase::Parse].WallNanos);
  Out["js.script_ms"] += toMs(P[obs::Phase::Script].WallNanos);
  Out["runtime.dispatch_ms"] += toMs(P[obs::Phase::Dispatch].WallNanos);
  Out["explore.explore_ms"] += toMs(P[obs::Phase::Explore].WallNanos);
  Out["detect.access_ms"] += toMs(P[obs::Phase::Detect].WallNanos);
  Out["detect.filter_ms"] += toMs(P[obs::Phase::Filter].WallNanos);
}

class BigPageWorkload final : public Workload {
public:
  explicit BigPageWorkload(uint64_t Seed) {
    // Every page has the same content: kind K at 20 + 40K/13 instances,
    // so each kind appears at a count in [20, 60] and a page runs ~3.8k
    // operations. The seed draws each page's browser seed (its task and
    // event schedule). With per-page mixes, page times differed by up to
    // 1.4x and the p50 item fell between two pages' clusters, moving
    // with the seed.
    Rng R(Seed ^ 0x62696770616765ull);
    for (int P = 0; P < BigPages; ++P) {
      sites::SiteSpec Spec;
      Spec.Name = "bigpage" + std::to_string(P);
      for (int K = 0; K < NumPatternKinds; ++K)
        Spec.Patterns.push_back({static_cast<sites::PatternKind>(K),
                                 20 + 40 * K / (NumPatternKinds - 1)});
      Pages.push_back(sites::buildSite(Spec));
      Seeds.push_back(R.next());
    }
    for (size_t P = 0; P < Pages.size(); ++P)
      makeReference(P);
    for (size_t P = 0; P < Pages.size(); ++P) {
      uint64_t Ns = 0;
      if (!runPage(P, Ns, &Warm))
        ++WarmFailures;
    }
  }

  size_t size() const override { return Pages.size(); }

  bool run(size_t I, uint64_t &Ns) override {
    return runPage(I, Ns, nullptr);
  }

  bool runTraced(size_t I, Tracer &T, Sums &Pass) override {
    Span Item(&T, "item");
    std::unique_ptr<webracer::Session> S;
    {
      Span Sp(&T, "webracer.session_init");
      S = std::make_unique<webracer::Session>(options(I));
      addSite(*S, Pages[I]);
    }
    webracer::SessionResult Result;
    {
      Span Sp(&T, "webracer.session");
      Result = S->run(Pages[I].IndexUrl);
    }
    bool Ok = false;
    {
      Span Sp(&T, CheckSpan);
      Ok = check(I, Result, *S);
      addPageCounts(Result.Stats, Pass);
      addPhaseTimes(Result.Stats.Phases, Pass);
    }
    {
      Span Sp(&T, "item.release");
      S.reset();
      Result = webracer::SessionResult();
    }
    return Ok;
  }

private:
  /// The `webracer-cli page` defaults: exploration on, no prediction, no
  /// static pass.
  webracer::SessionOptions options(size_t I) const {
    webracer::SessionOptions O;
    O.Browser.Seed = Seeds[I];
    return O;
  }

  /// Timed from session construction to the return of run(), then from
  /// the start to the end of tear-down; the check in between needs the
  /// live HB graph and is not timed.
  bool runPage(size_t I, uint64_t &Ns, Sums *Counts) {
    uint64_t T0 = nowNs();
    auto S = std::make_unique<webracer::Session>(options(I));
    addSite(*S, Pages[I]);
    webracer::SessionResult Result = S->run(Pages[I].IndexUrl);
    uint64_t T1 = nowNs();
    bool Ok = check(I, Result, *S);
    if (Counts)
      addPageCounts(Result.Stats, *Counts);
    uint64_t T2 = nowNs();
    S.reset();
    Result = webracer::SessionResult();
    Ns = (T1 - T0) + (nowNs() - T2);
    return Ok;
  }

  bool check(size_t I, const webracer::SessionResult &Result,
             webracer::Session &S) const {
    return RefOk[I] &&
           sortedSignatures(Result.FilteredRaces, S.browser().hb()) == Ref[I];
  }

  /// Live run with trace recording, replayed offline: the live filtered
  /// signature set becomes the page's reference only when the replay
  /// reproduces it.
  void makeReference(size_t I) {
    webracer::SessionOptions O = options(I);
    O.RecordTrace = true;
    webracer::Session S(O);
    addSite(S, Pages[I]);
    webracer::SessionResult Live = S.run(Pages[I].IndexUrl);
    std::vector<std::string> LiveSigs =
        sortedSignatures(Live.FilteredRaces, S.browser().hb());
    detect::ReplayResult Replayed = detect::replayTrace(*S.trace());
    RefOk.push_back(LiveSigs ==
                    sortedSignatures(Replayed.FilteredRaces, Replayed.Hb));
    Ref.push_back(std::move(LiveSigs));
    // The generator's expectation is compared, not enforced: see the
    // expectation gap in perfbench/NOTES.md.
    const sites::ExpectedRaces &E = Pages[I].Expected;
    const obs::RaceCounts &F = Live.Stats.Filtered;
    const std::pair<const char *, double> Gaps[] = {
        {"html", static_cast<double>(F.Html) - E.Html},
        {"function", static_cast<double>(F.Function) - E.Function},
        {"variable", static_cast<double>(F.Variable) - E.Variable},
        {"event_dispatch",
         static_cast<double>(F.EventDispatch) - E.EventDispatch}};
    for (const auto &[Kind, Gap] : Gaps) {
      Facts[std::string("sites.expectation_delta.") + Kind] += Gap;
      Facts["sites.expectation_delta"] += std::abs(Gap);
    }
  }

  std::vector<GeneratedSite> Pages;
  std::vector<uint64_t> Seeds;
  std::vector<std::vector<std::string>> Ref;
  std::vector<bool> RefOk;
};

} // namespace

const std::vector<std::string> &wrbench::workloadNames() {
  static const std::vector<std::string> Names = {"corpus", "ingest",
                                                 "bigpage"};
  return Names;
}

std::unique_ptr<Workload>
wrbench::makeWorkload(const std::string &Name, uint64_t Seed,
                      const std::string &ScratchDir) {
  if (Name == "corpus")
    return std::make_unique<CorpusWorkload>(Seed);
  if (Name == "ingest")
    return std::make_unique<IngestWorkload>(Seed, ScratchDir);
  if (Name == "bigpage")
    return std::make_unique<BigPageWorkload>(Seed);
  return nullptr;
}
