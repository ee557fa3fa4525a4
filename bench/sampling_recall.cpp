//===- bench/sampling_recall.cpp - Sampling-layer gates ------------------------===//
//
// The sampling layer (src/sample) trades recall for access-path cost so
// the detector can run at production overheads. That trade is only
// admissible if it is measured and bounded, so this harness HARD-FAILS
// when any of the gates break:
//
//   * rate 1.0 is a true no-op: the corpus report document is
//     byte-identical with the sampler nominally on at rate 1.0 and with
//     sampling off entirely;
//   * attrition is never silent: for every strategy/rate cell the
//     wr_sampling counters reconcile exactly - seen == sampled + dropped,
//     the detector processed exactly the sampled accesses, and "seen"
//     equals the unsampled run's access count (sampling cannot change
//     what the instrumentation emits, only what the detector keeps);
//   * sampled reports are --jobs invariant: the same cell produces the
//     same bytes at --jobs 1 and --jobs 4;
//   * the adaptive strategy holds >= 90% corpus race recall while the
//     detector processes ~10% of the access stream (the ISSUE's
//     operating point);
//   * dropping accesses actually saves access-path time: per-location
//     sampling at rate 0.01 must run the synthetic detector stream well
//     under the unsampled time.
//
// Usage: sampling_recall [--quick] [report.json]
//
//   --quick        30-site corpus slice (the tier-1 CI configuration)
//   report.json    write the schema-1 report document
//
//===----------------------------------------------------------------------===//

#include "SamplingLab.h"

#include "detect/RaceDetector.h"
#include "mem/LocationInterner.h"
#include "obs/Json.h"
#include "obs/Reporter.h"
#include "sites/CorpusReport.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace wr;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Serializes the corpus report the CLI would write for \p Stats.
std::string reportBytes(const sites::CorpusStats &Stats) {
  std::string Out;
  obs::JsonReporter(Out).emit(sites::buildCorpusReport("fortune100", Stats));
  return Out;
}

/// Gate: byte-identical corpus reports between sampling off and the
/// nominal rate-1.0 configuration (which must not construct a sampler).
void checkRateOneIdentity(const std::vector<sites::GeneratedSite> &Corpus,
                          uint64_t Seed, int &Failures) {
  webracer::SessionOptions Off;
  std::string OffBytes =
      reportBytes(sites::runCorpus(Corpus, Off, Seed, 4));

  webracer::SessionOptions RateOne;
  RateOne.Detector.Sampling.Strategy = sample::SamplingStrategy::PerLocation;
  RateOne.Detector.Sampling.Rate = 1.0;
  RateOne.Detector.Sampling.Seed = Seed;
  std::string OneBytes =
      reportBytes(sites::runCorpus(Corpus, RateOne, Seed, 4));

  if (OffBytes != OneBytes) {
    std::printf("FAIL: rate-1.0 corpus report differs from the unsampled "
                "report (%zu vs %zu bytes)\n",
                OneBytes.size(), OffBytes.size());
    ++Failures;
  }
}

/// Gate: the same sampled cell produces identical bytes at any job count.
void checkJobsInvariance(const std::vector<sites::GeneratedSite> &Corpus,
                         uint64_t Seed, int &Failures) {
  webracer::SessionOptions Opts;
  Opts.Detector.Sampling.Strategy = sample::SamplingStrategy::Adaptive;
  Opts.Detector.Sampling.Rate = 0.1;
  Opts.Detector.Sampling.Seed = Seed;
  std::string J1 = reportBytes(sites::runCorpus(Corpus, Opts, Seed, 1));
  std::string J4 = reportBytes(sites::runCorpus(Corpus, Opts, Seed, 4));
  if (J1 != J4) {
    std::printf("FAIL: sampled corpus report differs between --jobs 1 and "
                "--jobs 4\n");
    ++Failures;
  }
}

/// Gate: per-location sampling at rate 0.01 must cut the synthetic
/// access-path time to at most 60% of the unsampled run. The stream is
/// the hb_scaling detector workload shape: a small location pool, 70%
/// reads, two accesses per operation - large enough (100k accesses) that
/// the timer is far from its floor.
void checkAccessPathSavings(int &Failures, double &FullMs,
                            double &SampledMs) {
  constexpr size_t N = 50000;
  HbGraph G;
  G.reserveOperations(N);
  Operation Meta;
  OpId Prev = G.addOperation(Meta);
  for (size_t I = 1; I < N; ++I) {
    OpId Next = G.addOperation(Meta);
    G.addEdge(Prev, Next, HbRule::R1a_ParseOrder);
    Prev = Next;
  }
  LocationInterner Interner;
  constexpr size_t Pool = 512;
  std::vector<LocId> LocPool;
  LocPool.reserve(Pool);
  for (size_t I = 0; I < Pool; ++I) {
    char Name[16];
    std::snprintf(Name, sizeof(Name), "v%zu", I);
    LocPool.push_back(Interner.internVar(0, Name));
  }
  Rng AR(2012);
  std::vector<Access> Stream;
  Stream.reserve(N * 2);
  for (OpId Op = 1; Op <= N; ++Op) {
    for (int K = 0; K < 2; ++K) {
      Access A;
      A.Op = Op;
      A.Loc = LocPool[static_cast<size_t>(AR.nextBelow(Pool))];
      A.Kind = AR.nextDouble() < 0.7 ? AccessKind::Read : AccessKind::Write;
      Stream.push_back(A);
    }
  }

  double Best[2] = {1e30, 1e30};
  for (int Rep = 0; Rep < 3; ++Rep) {
    for (int Sampled = 0; Sampled < 2; ++Sampled) {
      detect::DetectorOptions Opts;
      if (Sampled) {
        Opts.Sampling.Strategy = sample::SamplingStrategy::PerLocation;
        Opts.Sampling.Rate = 0.01;
        Opts.Sampling.Seed = 7;
      }
      detect::RaceDetector D(G, Interner, Opts);
      auto Start = std::chrono::steady_clock::now();
      for (const Access &A : Stream)
        D.onMemoryAccess(A);
      Best[Sampled] = std::min(Best[Sampled], secondsSince(Start));
    }
  }
  FullMs = Best[0] * 1e3;
  SampledMs = Best[1] * 1e3;
  if (SampledMs > FullMs * 0.6) {
    std::printf("FAIL: per-location@0.01 access path %.2fms is not under "
                "60%% of the unsampled %.2fms\n",
                SampledMs, FullMs);
    ++Failures;
  }
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  const char *ReportPath = nullptr;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
    else
      ReportPath = Argv[I];
  }

  constexpr uint64_t Seed = 2012;
  std::printf("== sampling_recall: recall and reconciliation gates ==\n");
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(Seed);
  size_t SiteCount = Quick ? 30 : Corpus.size();
  if (Corpus.size() > SiteCount)
    Corpus.resize(SiteCount);
  std::printf("corpus: %zu sites\n", Corpus.size());

  int Failures = 0;

  // The unsampled baseline every cell scores against.
  webracer::SessionOptions Base;
  sites::CorpusStats BaseStats = sites::runCorpus(Corpus, Base, Seed, 4);
  std::set<std::string> BaselineKeys = bench::raceKeys(BaseStats);
  uint64_t BaselineAccesses = BaseStats.aggregate().AccessesSeen;
  std::printf("baseline: %zu distinct races, %llu accesses\n",
              BaselineKeys.size(),
              static_cast<unsigned long long>(BaselineAccesses));

  // One gated cell per strategy at the ISSUE's 10% operating point.
  const sample::SamplingStrategy Strategies[] = {
      sample::SamplingStrategy::PerLocation,
      sample::SamplingStrategy::Adaptive,
  };
  std::vector<bench::RecallCell> Cells;
  std::printf("\n%13s | %5s | %6s | %7s | %9s | %9s\n", "strategy", "rate",
              "recall", "matched", "sampled", "dropped");
  std::printf("--------------+-------+--------+---------+-----------+------"
              "----\n");
  for (sample::SamplingStrategy Strategy : Strategies) {
    sample::SamplingOptions S;
    S.Strategy = Strategy;
    S.Rate = 0.1;
    bench::RecallCell Cell =
        bench::runCell(Corpus, S, Seed, 4, BaselineKeys);
    std::printf("%13s | %5.2f | %6.3f | %3zu/%3zu | %9llu | %9llu\n",
                sample::toString(Strategy), Cell.Rate, Cell.Recall,
                Cell.MatchedRaces, Cell.BaselineRaces,
                static_cast<unsigned long long>(Cell.SampledAccesses),
                static_cast<unsigned long long>(Cell.DroppedAccesses));
    // Attrition reconciliation is exact for every strategy: the counters
    // partition, the detector processed exactly the sampled accesses,
    // and sampling did not change what the instrumentation emitted.
    if (!Cell.ReconcileOk) {
      std::printf("FAIL: %s seen %llu != sampled %llu + dropped %llu\n",
                  sample::toString(Strategy),
                  static_cast<unsigned long long>(Cell.SeenAccesses),
                  static_cast<unsigned long long>(Cell.SampledAccesses),
                  static_cast<unsigned long long>(Cell.DroppedAccesses));
      ++Failures;
    }
    if (Cell.DetectorAccesses != Cell.SampledAccesses) {
      std::printf("FAIL: %s detector processed %llu accesses but the "
                  "sampler admitted %llu\n",
                  sample::toString(Strategy),
                  static_cast<unsigned long long>(Cell.DetectorAccesses),
                  static_cast<unsigned long long>(Cell.SampledAccesses));
      ++Failures;
    }
    if (Cell.SeenAccesses != BaselineAccesses) {
      std::printf("FAIL: %s sampler saw %llu accesses but the unsampled "
                  "run emitted %llu\n",
                  sample::toString(Strategy),
                  static_cast<unsigned long long>(Cell.SeenAccesses),
                  static_cast<unsigned long long>(BaselineAccesses));
      ++Failures;
    }
    // The recall gate binds only the adaptive strategy - the blind
    // strategies are the frontier's comparison points, not the product
    // configuration.
    if (Strategy == sample::SamplingStrategy::Adaptive &&
        Cell.Recall < 0.9) {
      std::printf("FAIL: adaptive recall %.3f < 0.9 at rate 0.1\n",
                  Cell.Recall);
      ++Failures;
    }
    Cells.push_back(Cell);
  }

  std::printf("\nchecking rate-1.0 byte identity and --jobs invariance...\n");
  checkRateOneIdentity(Corpus, Seed, Failures);
  checkJobsInvariance(Corpus, Seed, Failures);

  double FullMs = 0, SampledMs = 0;
  checkAccessPathSavings(Failures, FullMs, SampledMs);
  std::printf("access path: unsampled %.2fms, per-location@0.01 %.2fms\n",
              FullMs, SampledMs);

  obs::Json Doc = obs::makeReportEnvelope("sampling_recall", "fortune100");
  Doc.set("quick", Quick);
  Doc.set("sites", static_cast<uint64_t>(Corpus.size()));
  Doc.set("baseline_races", static_cast<uint64_t>(BaselineKeys.size()));
  Doc.set("baseline_accesses", BaselineAccesses);
  obs::Json CellsJson = obs::Json::array();
  for (const bench::RecallCell &Cell : Cells) {
    obs::Json C = obs::Json::object();
    C.set("strategy", std::string(sample::toString(Cell.Strategy)));
    C.set("rate_ppm", static_cast<uint64_t>(Cell.Rate * 1e6 + 0.5));
    C.set("matched", static_cast<uint64_t>(Cell.MatchedRaces));
    C.set("found", static_cast<uint64_t>(Cell.FoundRaces));
    C.set("recall", Cell.Recall);
    C.set("seen", Cell.SeenAccesses);
    C.set("sampled", Cell.SampledAccesses);
    C.set("dropped", Cell.DroppedAccesses);
    CellsJson.push(std::move(C));
  }
  Doc.set("cells", std::move(CellsJson));
  obs::Json Timing = obs::Json::object();
  Timing.set("access_path_full_ms", FullMs);
  Timing.set("access_path_sampled_ms", SampledMs);
  Doc.set("timing", std::move(Timing));

  if (ReportPath) {
    std::string Out;
    obs::JsonReporter(Out).emit(Doc);
    std::ofstream File(ReportPath, std::ios::binary | std::ios::trunc);
    File.write(Out.data(), static_cast<std::streamsize>(Out.size()));
    if (!File) {
      std::fprintf(stderr, "error: cannot write %s\n", ReportPath);
      return 1;
    }
    std::printf("report: %zu bytes -> %s\n", Out.size(), ReportPath);
  }

  if (Failures) {
    std::printf("\nFAIL: %d gate(s) broken\n", Failures);
    return 1;
  }
  std::printf("\nOK: >=90%% adaptive recall at 10%% sampling, exact "
              "attrition reconciliation, rate-1.0 byte identity, --jobs "
              "invariance, access-path savings\n");
  return 0;
}
