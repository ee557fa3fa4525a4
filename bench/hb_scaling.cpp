//===- bench/hb_scaling.cpp - HB index scaling gate ----------------------------===//
//
// The scalability wall the paper defers to future work (Sec. 5.2.1) is the
// cost of the happens-before oracle itself: an eager per-operation
// watermark vector is O(ops x chains) time and memory. This harness pins
// the arena-backed, copy-on-write clock index against that wall on
// synthetic web-execution-shaped pages at growing operation counts
// (1k/10k/50k ops), recording build time, clock bytes, and query counts,
// and HARD-FAILS when either gate breaks:
//
//   * clock memory must be at least 60% below the eager full-copy
//     representation (measured against a faithful reimplementation of the
//     pre-arena builder run over the identical DAG), and
//   * index build time must not regress against that full-copy builder
//     (1.25x headroom absorbs CI timer noise; the arena build is
//     typically several times faster).
//
// It also runs a corpus slice with the adaptive read state and with every
// read vector forced inflated, requiring byte-identical race descriptions,
// and checks on each site's final graph that the clock index agrees with
// the memoized-DFS oracle on every ordered operation pair - the memory
// optimizations are only admissible if detection output and reachability
// are bit-for-bit unchanged.
//
// Usage: hb_scaling [--quick] [report.json]
//
//   --quick        1k/10k ops only (the tier-1 CI configuration)
//   report.json    write the schema-1 report document
//
//===----------------------------------------------------------------------===//

#include "detect/RaceDetector.h"
#include "detect/Report.h"
#include "hb/HbGraph.h"
#include "mem/LocationInterner.h"
#include "obs/Json.h"
#include "obs/Reporter.h"
#include "sites/Corpus.h"
#include "sites/CorpusRunner.h"
#include "support/Rng.h"
#include "support/Watermarks.h"
#include "webracer/Session.h"

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

/// Builds a web-like DAG: a main parse chain, periodic dispatch chains
/// that fork off a random creator, and a fraction of fully concurrent
/// operations (user events). Mirrors bench/ablation_hb_repr.
void buildWebDag(HbGraph &G, size_t N, Rng &R) {
  Operation Meta;
  OpId ChainTail = G.addOperation(Meta);
  std::vector<OpId> All = {ChainTail};
  while (G.numOperations() < N) {
    double P = R.nextDouble();
    if (P < 0.6) {
      OpId Next = G.addOperation(Meta);
      G.addEdge(ChainTail, Next, HbRule::R1a_ParseOrder);
      ChainTail = Next;
      All.push_back(Next);
    } else if (P < 0.9) {
      OpId From = All[static_cast<size_t>(R.nextBelow(All.size()))];
      OpId Prev = G.addOperation(Meta);
      G.addEdge(From, Prev, HbRule::R8_TargetCreated);
      All.push_back(Prev);
      for (int H = 0; H < 3 && G.numOperations() < N; ++H) {
        OpId Handler = G.addOperation(Meta);
        G.addEdge(Prev, Handler, HbRule::RA_DispatchChain);
        Prev = Handler;
        All.push_back(Handler);
      }
    } else {
      All.push_back(G.addOperation(Meta));
    }
  }
}

/// Faithful reimplementation of the pre-arena clock builder (one eagerly
/// materialized std::vector<uint32_t> per operation plus a (chain, pos)
/// record), driven by the graph's predecessor lists. This is the memory
/// and build-time baseline of both gates.
struct FullCopyClockIndex {
  struct Entry {
    uint32_t Chain = 0;
    uint32_t Pos = 0;
  };
  std::vector<std::vector<uint32_t>> Clocks;
  std::vector<Entry> Where;
  std::vector<OpId> ChainTails;

  void build(const HbGraph &G) {
    size_t N = G.numOperations();
    Clocks.reserve(N);
    Where.reserve(N);
    for (OpId Op = 1; Op <= N; ++Op) {
      std::vector<uint32_t> Clock;
      uint32_t PickedChain = UINT32_MAX;
      uint32_t PickedPos = 0;
      for (OpId P : G.predecessors(Op)) {
        const std::vector<uint32_t> &PClock = Clocks[P - 1];
        if (PClock.size() > Clock.size())
          Clock.resize(PClock.size(), 0);
        for (size_t I = 0; I < PClock.size(); ++I)
          Clock[I] = std::max(Clock[I], PClock[I]);
        if (PickedChain == UINT32_MAX &&
            ChainTails[Where[P - 1].Chain] == P) {
          PickedChain = Where[P - 1].Chain;
          PickedPos = Where[P - 1].Pos + 1;
        }
      }
      if (PickedChain == UINT32_MAX) {
        PickedChain = static_cast<uint32_t>(ChainTails.size());
        PickedPos = 1;
        ChainTails.push_back(Op);
      } else {
        ChainTails[PickedChain] = Op;
      }
      if (Clock.size() <= PickedChain)
        Clock.resize(PickedChain + 1, 0);
      Clock[PickedChain] = PickedPos;
      Where.push_back({PickedChain, PickedPos});
      Clocks.push_back(std::move(Clock));
    }
  }

  uint64_t bytes() const {
    uint64_t Total = 0;
    for (const std::vector<uint32_t> &C : Clocks)
      Total += sizeof(std::vector<uint32_t>) + C.size() * sizeof(uint32_t);
    // Both sides of the reduction gate count their chain-tail table
    // (HbGraph::clockBytes() includes it too).
    return Total + Where.size() * sizeof(Entry) +
           ChainTails.size() * sizeof(OpId);
  }

  uint32_t watermark(OpId Op, uint32_t Chain) const {
    const std::vector<uint32_t> &C = Clocks[Op - 1];
    return Chain < C.size() ? C[Chain] : 0;
  }
};

struct SizeRow {
  size_t Ops = 0;
  size_t Chains = 0;
  uint64_t ClockBytes = 0;
  uint64_t FullCopyBytes = 0;
  double ReductionPct = 0;
  uint64_t SharedClocks = 0;
  uint64_t ClockMerges = 0;
  double BuildMs = 0;
  double FullCopyBuildMs = 0;
  uint64_t Queries = 0;
  uint64_t Positive = 0;
};

/// Runs one size point: builds the DAG, times arena-index and full-copy
/// construction (min of \p Reps fresh builds each), cross-checks the
/// watermarks, and runs a fixed query workload.
SizeRow runSize(size_t N, int Reps, int &Failures) {
  SizeRow Row;
  Row.Ops = N;

  double BestBuild = 1e30, BestRef = 1e30;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    HbGraph G;
    G.reserveOperations(N);
    Rng R(99);
    buildWebDag(G, N, R);

    // Arena index build: one query against the last op materializes every
    // clock (construction is lazy but strictly in id order).
    auto Start = std::chrono::steady_clock::now();
    bool Reach = G.reachesVectorClock(1, static_cast<OpId>(N));
    double BuildSecs = secondsSince(Start);
    BestBuild = std::min(BestBuild, BuildSecs);

    FullCopyClockIndex Ref;
    Start = std::chrono::steady_clock::now();
    Ref.build(G);
    double RefSecs = secondsSince(Start);
    BestRef = std::min(BestRef, RefSecs);

    if (Rep != 0)
      continue;
    Row.Chains = G.numChains();
    Row.ClockBytes = G.clockBytes();
    Row.FullCopyBytes = Ref.bytes();
    Row.SharedClocks = G.sharedClocks();
    Row.ClockMerges = G.clockMerges();
    if (G.numChains() != Ref.ChainTails.size()) {
      std::printf("FAIL: chain decomposition diverged at %zu ops "
                  "(arena %zu chains, full-copy %zu)\n",
                  N, G.numChains(), Ref.ChainTails.size());
      ++Failures;
    }
    // The shared clocks must read back the exact watermarks the eager
    // builder materializes.
    Rng WR(123);
    size_t Checks = std::min<size_t>(N * 4, 20000);
    for (size_t I = 0; I < Checks; ++I) {
      OpId Op = static_cast<OpId>(
          WR.nextInRange(1, static_cast<int64_t>(N)));
      uint32_t Chain = static_cast<uint32_t>(
          WR.nextBelow(static_cast<uint64_t>(Row.Chains)));
      if (G.clockWatermark(Op, Chain) != Ref.watermark(Op, Chain)) {
        std::printf("FAIL: watermark mismatch at op %u chain %u "
                    "(%zu ops)\n",
                    Op, Chain, N);
        ++Failures;
        break;
      }
    }
    // Fixed query workload, counted for the report; VC and DFS must
    // agree on every answer.
    Rng QR(7);
    uint64_t Positive = 0, Mismatch = 0;
    for (int Q = 0; Q < 4096; ++Q) {
      OpId B = static_cast<OpId>(QR.nextInRange(
          static_cast<int64_t>(N / 2), static_cast<int64_t>(N)));
      OpId A = static_cast<OpId>(QR.nextInRange(1, static_cast<int64_t>(B)));
      bool Vc = G.reachesVectorClock(A, B);
      Positive += Vc;
      Mismatch += Vc != G.reachesDfs(A, B);
    }
    Row.Queries = 4096;
    Row.Positive = Positive;
    if (Mismatch) {
      std::printf("FAIL: %llu strategy mismatches at %zu ops\n",
                  static_cast<unsigned long long>(Mismatch), N);
      ++Failures;
    }
    (void)Reach;
  }
  Row.BuildMs = BestBuild * 1e3;
  Row.FullCopyBuildMs = BestRef * 1e3;
  Row.ReductionPct =
      Row.FullCopyBytes
          ? 100.0 * (1.0 - static_cast<double>(Row.ClockBytes) /
                               static_cast<double>(Row.FullCopyBytes))
          : 0.0;
  return Row;
}

/// One size point of the detector access-path benchmark: the adaptive
/// epoch representation vs the ForceReadVectors debug pin over an
/// identical synthetic access stream on the same DAG.
struct DetectorRow {
  size_t Ops = 0;
  uint64_t Accesses = 0;
  uint64_t Races = 0;
  double AdaptiveMs = 0;
  double ForcedMs = 0;
  uint64_t AdaptiveBytes = 0;
  uint64_t ForcedBytes = 0;
  uint64_t Inflations = 0;
  uint64_t Deflations = 0;
};

/// Streams a web-shaped access workload (a small location pool, 70%
/// reads, ops in id order) through the detector twice - adaptive epochs
/// vs ForceReadVectors - on the same DAG, timing the access path and
/// gating: identical race output and no access-path time regression
/// (1.5x headroom for CI timer noise on sub-ms slices).
DetectorRow runDetectorSize(size_t N, int Reps, int &Failures) {
  DetectorRow Row;
  Row.Ops = N;

  // Pre-generate the access stream so both variants replay the exact
  // same sequence and the generator's cost stays out of the timing.
  HbGraph G;
  G.reserveOperations(N);
  Rng R(99);
  buildWebDag(G, N, R);
  LocationInterner Interner;
  size_t Pool = std::max<size_t>(N / 50, 8);
  std::vector<LocId> LocPool;
  LocPool.reserve(Pool);
  for (size_t I = 0; I < Pool; ++I)
    LocPool.push_back(
        Interner.internVar(0, "v" + std::to_string(I)));
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
  Row.Accesses = Stream.size();

  double Best[2] = {1e30, 1e30};
  uint64_t RaceCount[2] = {0, 0};
  for (int Rep = 0; Rep < Reps; ++Rep) {
    for (int Forced = 0; Forced < 2; ++Forced) {
      detect::DetectorOptions Opts;
      Opts.ForceReadVectors = Forced != 0;
      detect::RaceDetector D(G, Interner, Opts);
      auto Start = std::chrono::steady_clock::now();
      for (const Access &A : Stream)
        D.onMemoryAccess(A);
      Best[Forced] = std::min(Best[Forced], secondsSince(Start));
      if (Rep != 0)
        continue;
      RaceCount[Forced] = D.races().size();
      if (Forced) {
        Row.ForcedBytes = D.detectorBytes();
        continue;
      }
      Row.Races = D.races().size();
      Row.AdaptiveBytes = D.detectorBytes();
      Row.Inflations = D.readInflations();
      Row.Deflations = D.readDeflations();
    }
  }
  Row.AdaptiveMs = Best[0] * 1e3;
  Row.ForcedMs = Best[1] * 1e3;
  if (RaceCount[0] != RaceCount[1]) {
    std::printf("FAIL: adaptive (%llu) and forced-vector (%llu) race "
                "counts differ at %zu ops\n",
                static_cast<unsigned long long>(RaceCount[0]),
                static_cast<unsigned long long>(RaceCount[1]), N);
    ++Failures;
  }
  // The adaptive representation can only shed storage relative to the
  // always-inflated pin.
  if (Row.AdaptiveBytes > Row.ForcedBytes) {
    std::printf("FAIL: adaptive detector bytes %llu exceed forced-vector "
                "bytes %llu at %zu ops\n",
                static_cast<unsigned long long>(Row.AdaptiveBytes),
                static_cast<unsigned long long>(Row.ForcedBytes), N);
    ++Failures;
  }
  if (Row.AdaptiveMs > Row.ForcedMs * 1.5) {
    std::printf("FAIL: adaptive access path %.2fms regressed past "
                "forced-vector %.2fms at %zu ops\n",
                Row.AdaptiveMs, Row.ForcedMs, N);
    ++Failures;
  }
  return Row;
}

/// One row of the watermark-kernel micro-table: throughput of the three
/// support/Watermarks.h primitives at one clock width, under whichever
/// tier (avx2 / neon / swar) this build compiled in.
struct KernelRow {
  size_t Width = 0; // Watermarks per clock.
  double JoinBytesPerNs = 0;
  double DominatedBytesPerNs = 0;
  double AllZeroBytesPerNs = 0;
};

/// Times one primitive over \p Iters passes of a \p Width-entry array and
/// returns bytes processed per nanosecond (min-of-3 to shed scheduler
/// noise). The workload alternates two source patterns so the branchy
/// SWAR fast paths (equal words, zero words) cannot short-circuit every
/// iteration.
template <typename Fn>
double kernelBytesPerNs(size_t Width, size_t Iters, Fn &&Body) {
  double Best = 1e30;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    uint64_t Guard = 0;
    for (size_t I = 0; I < Iters; ++I)
      Guard += Body(I);
    double Secs = secondsSince(Start);
    // Keep the accumulated result observable so the loop cannot be
    // discarded as dead code.
    if (Guard == UINT64_MAX)
      std::printf("unreachable\n");
    Best = std::min(Best, Secs);
  }
  double Bytes =
      static_cast<double>(Width * sizeof(uint32_t)) * static_cast<double>(Iters);
  return Best > 0 ? Bytes / (Best * 1e9) : 0;
}

/// Builds the micro-table: for each clock width, measured bytes/ns of
/// join, dominated, and all-zero over randomized watermark arrays.
std::vector<KernelRow> runKernelTable() {
  std::vector<KernelRow> Rows;
  Rng R(77);
  for (size_t Width : {8u, 32u, 128u, 512u}) {
    std::vector<uint32_t> A(Width), B(Width), Dst(Width);
    for (size_t I = 0; I < Width; ++I) {
      A[I] = static_cast<uint32_t>(R.next()) % 1000;
      B[I] = static_cast<uint32_t>(R.next()) % 1000;
    }
    size_t Iters = 4u * 1024u * 1024u / Width; // ~4M watermarks per kernel.
    KernelRow Row;
    Row.Width = Width;
    Row.JoinBytesPerNs = kernelBytesPerNs(Width, Iters, [&](size_t I) {
      // Alternate sources so Dst keeps changing and the skip paths fire
      // on only half the passes.
      support::watermarksJoinMax(Dst.data(),
                                 (I & 1 ? B : A).data(), Width);
      return static_cast<uint64_t>(Dst[0]);
    });
    Row.DominatedBytesPerNs = kernelBytesPerNs(Width, Iters, [&](size_t I) {
      return static_cast<uint64_t>(support::watermarksDominated(
          (I & 1 ? A : B).data(), Dst.data(), Width));
    });
    Row.AllZeroBytesPerNs = kernelBytesPerNs(Width, Iters, [&](size_t I) {
      return static_cast<uint64_t>(
          support::watermarksAllZero((I & 1 ? A : Dst).data(), Width));
    });
    Rows.push_back(Row);
  }
  return Rows;
}

/// Aggregated figures of the parity sweep's adaptive runs.
struct ParityStats {
  uint64_t Races = 0;
  uint64_t Reads = 0;
  uint64_t TrackedLocations = 0;
  uint64_t ReadVectorLocations = 0;
  uint64_t OrderedPairs = 0;  ///< Op pairs checked against the DFS oracle.
  uint64_t DfsMismatches = 0; ///< ... on which the clock index disagreed.
};

/// Race-output byte-identity: the same pages with the adaptive read state
/// and with ForceReadVectors must describe the identical raw and filtered
/// races and report the same filter attrition. On each adaptive run's
/// final graph, reachesVectorClock must equal the memoized-DFS oracle
/// reachesDfs on every ordered operation pair.
ParityStats paritySites(size_t Sites, int &Failures) {
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(2012);
  if (Corpus.size() > Sites)
    Corpus.resize(Sites);
  ParityStats Stats;
  for (const sites::GeneratedSite &Site : Corpus) {
    std::string Descriptions[2];
    for (int Variant = 0; Variant < 2; ++Variant) {
      webracer::SessionOptions Opts;
      Opts.Detector.ForceReadVectors = Variant == 1;
      Opts.Browser.Seed = 42;
      webracer::Session S(Opts);
      S.network().addResource(Site.IndexUrl, Site.Html, 10);
      for (const sites::SiteResource &R : Site.Resources)
        S.network().addResourceWithJitter(R.Url, R.Body, R.MinLatencyUs,
                                          R.MaxLatencyUs);
      webracer::SessionResult Result = S.run(Site.IndexUrl);
      const obs::FilterAttrition &At = Result.Stats.Attrition;
      Descriptions[Variant] =
          detect::describeRaces(Result.RawRaces, S.browser().hb()) + "\n" +
          detect::describeRaces(Result.FilteredRaces, S.browser().hb()) +
          "\nattrition " + std::to_string(At.Input) + " " +
          std::to_string(At.NotFormField) + " " +
          std::to_string(At.PriorReadGuard) + " " +
          std::to_string(At.MultiDispatch) + " " +
          std::to_string(At.Kept);
      if (Variant != 0)
        continue;
      Stats.Races += Result.RawRaces.size();
      Stats.Reads += Result.Stats.ReadsSeen;
      Stats.TrackedLocations += Result.Stats.TrackedLocations;
      Stats.ReadVectorLocations += Result.Stats.ReadVectorLocations;
      const HbGraph &G = S.browser().hb();
      OpId N = static_cast<OpId>(G.numOperations());
      for (OpId A = 1; A <= N; ++A)
        for (OpId B = A + 1; B <= N; ++B) {
          ++Stats.OrderedPairs;
          if (G.reachesVectorClock(A, B) != G.reachesDfs(A, B) &&
              ++Stats.DfsMismatches <= 5)
            std::printf("FAIL: clock index and DFS disagree on %u -> %u "
                        "on %s\n",
                        A, B, Site.Name.c_str());
        }
    }
    if (Descriptions[0] != Descriptions[1]) {
      std::printf("FAIL: race output differs between adaptive and forced "
                  "read vectors on %s\n",
                  Site.Name.c_str());
      ++Failures;
    }
  }
  return Stats;
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

  std::printf("== hb_scaling: arena clock index vs eager full copies ==\n");
  std::vector<size_t> Sizes = {1000, 10000};
  if (!Quick)
    Sizes.push_back(50000);

  int Failures = 0;
  std::vector<SizeRow> Rows;
  std::printf("\n%7s | %7s | %11s | %12s | %6s | %9s | %9s\n", "ops",
              "chains", "clock bytes", "eager bytes", "redn", "build ms",
              "eager ms");
  std::printf("--------+---------+-------------+--------------+--------+--"
              "---------+----------\n");
  for (size_t N : Sizes) {
    SizeRow Row = runSize(N, 3, Failures);
    std::printf("%7zu | %7zu | %11llu | %12llu | %5.1f%% | %9.2f | %9.2f\n",
                Row.Ops, Row.Chains,
                static_cast<unsigned long long>(Row.ClockBytes),
                static_cast<unsigned long long>(Row.FullCopyBytes),
                Row.ReductionPct, Row.BuildMs, Row.FullCopyBuildMs);
    // Gate 1: >= 60% clock-memory reduction at every size.
    if (Row.ReductionPct < 60.0) {
      std::printf("FAIL: clock-memory reduction %.1f%% < 60%% at %zu ops\n",
                  Row.ReductionPct, Row.Ops);
      ++Failures;
    }
    // Gate 2: no build-time regression against the eager builder (1.25x
    // headroom for CI timer noise).
    if (Row.BuildMs > Row.FullCopyBuildMs * 1.25) {
      std::printf("FAIL: arena build %.2fms regressed past eager build "
                  "%.2fms at %zu ops\n",
                  Row.BuildMs, Row.FullCopyBuildMs, Row.Ops);
      ++Failures;
    }
    Rows.push_back(Row);
  }

  std::printf("\n== detector access path: adaptive epochs vs forced read "
              "vectors ==\n");
  std::printf("\n%7s | %9s | %8s | %8s | %10s | %10s\n", "ops",
              "accesses", "adpt ms", "frcd ms", "adpt bytes", "frcd bytes");
  std::printf("--------+-----------+----------+----------+------------+----"
              "--------\n");
  std::vector<DetectorRow> DetRows;
  for (size_t N : Sizes) {
    DetectorRow Row = runDetectorSize(N, 3, Failures);
    std::printf("%7zu | %9llu | %8.2f | %8.2f | %10llu | %10llu\n",
                Row.Ops, static_cast<unsigned long long>(Row.Accesses),
                Row.AdaptiveMs, Row.ForcedMs,
                static_cast<unsigned long long>(Row.AdaptiveBytes),
                static_cast<unsigned long long>(Row.ForcedBytes));
    DetRows.push_back(Row);
  }

  std::printf("\n== watermark kernels (%s tier): bytes/ns ==\n",
              support::watermarksIsa());
  std::printf("\n%7s | %9s | %9s | %9s\n", "width", "join", "dominated",
              "allzero");
  std::printf("--------+-----------+-----------+----------\n");
  std::vector<KernelRow> KernelRows = runKernelTable();
  for (const KernelRow &Row : KernelRows)
    std::printf("%7zu | %9.2f | %9.2f | %9.2f\n", Row.Width,
                Row.JoinBytesPerNs, Row.DominatedBytesPerNs,
                Row.AllZeroBytesPerNs);

  size_t ParityCount = Quick ? 12 : 25;
  std::printf("\nchecking race-output parity on %zu corpus sites "
              "(adaptive / forced-vectors, clock index vs dfs)...\n",
              ParityCount);
  ParityStats Parity = paritySites(ParityCount, Failures);
  std::printf("raw races compared: %llu; ordered op pairs vs dfs: %llu, "
              "%llu mismatch(es)\n",
              static_cast<unsigned long long>(Parity.Races),
              static_cast<unsigned long long>(Parity.OrderedPairs),
              static_cast<unsigned long long>(Parity.DfsMismatches));
  if (Parity.DfsMismatches)
    ++Failures;
  // Corpus gate for the adaptive representation: the common case must
  // stay O(1) per location (few locations ever inflate).
  double InflatedPct =
      Parity.TrackedLocations
          ? 100.0 * static_cast<double>(Parity.ReadVectorLocations) /
                static_cast<double>(Parity.TrackedLocations)
          : 0.0;
  std::printf("corpus: %.1f%% locations inflated\n", InflatedPct);
  if (InflatedPct >= 10.0) {
    std::printf("FAIL: %.1f%% of corpus locations inflated a read vector "
                "(gate: < 10%%)\n",
                InflatedPct);
    ++Failures;
  }

  obs::Json Doc = obs::makeReportEnvelope("hb_scaling", "webdag");
  Doc.set("quick", Quick);
  obs::Json RowsJson = obs::Json::array();
  for (const SizeRow &Row : Rows) {
    obs::Json R = obs::Json::object();
    R.set("ops", static_cast<uint64_t>(Row.Ops));
    R.set("chains", static_cast<uint64_t>(Row.Chains));
    R.set("clock_bytes", Row.ClockBytes);
    R.set("full_copy_bytes", Row.FullCopyBytes);
    R.set("reduction_pct", Row.ReductionPct);
    R.set("shared_clocks", Row.SharedClocks);
    R.set("clock_merges", Row.ClockMerges);
    R.set("queries", Row.Queries);
    R.set("positive", Row.Positive);
    RowsJson.push(std::move(R));
  }
  Doc.set("sizes", std::move(RowsJson));
  obs::Json DetJson = obs::Json::array();
  for (const DetectorRow &Row : DetRows) {
    obs::Json R = obs::Json::object();
    R.set("ops", static_cast<uint64_t>(Row.Ops));
    R.set("accesses", Row.Accesses);
    R.set("races", Row.Races);
    R.set("adaptive_bytes", Row.AdaptiveBytes);
    R.set("forced_bytes", Row.ForcedBytes);
    R.set("read_inflations", Row.Inflations);
    R.set("read_deflations", Row.Deflations);
    DetJson.push(std::move(R));
  }
  Doc.set("detector", std::move(DetJson));
  obs::Json ParityJson = obs::Json::object();
  ParityJson.set("sites", static_cast<uint64_t>(ParityCount));
  ParityJson.set("raw_races", Parity.Races);
  ParityJson.set("reads", Parity.Reads);
  ParityJson.set("ordered_pairs", Parity.OrderedPairs);
  ParityJson.set("dfs_mismatches", Parity.DfsMismatches);
  ParityJson.set("tracked_locations", Parity.TrackedLocations);
  ParityJson.set("read_vector_locations", Parity.ReadVectorLocations);
  Doc.set("parity", std::move(ParityJson));
  obs::Json Timing = obs::Json::object();
  // Kernel throughput is wall-clock, so it lands in the timing section
  // (excluded from byte-stability comparisons) tagged with the tier.
  {
    obs::Json Kernels = obs::Json::object();
    Kernels.set("isa", std::string(support::watermarksIsa()));
    for (const KernelRow &Row : KernelRows) {
      obs::Json K = obs::Json::object();
      K.set("join_bytes_per_ns", Row.JoinBytesPerNs);
      K.set("dominated_bytes_per_ns", Row.DominatedBytesPerNs);
      K.set("allzero_bytes_per_ns", Row.AllZeroBytesPerNs);
      Kernels.set("width_" + std::to_string(Row.Width), std::move(K));
    }
    Timing.set("watermark_kernels", std::move(Kernels));
  }
  for (const SizeRow &Row : Rows) {
    obs::Json T = obs::Json::object();
    T.set("build_ms", Row.BuildMs);
    T.set("full_copy_build_ms", Row.FullCopyBuildMs);
    Timing.set(std::to_string(Row.Ops), std::move(T));
  }
  for (const DetectorRow &Row : DetRows) {
    obs::Json T = obs::Json::object();
    T.set("adaptive_ms", Row.AdaptiveMs);
    T.set("forced_ms", Row.ForcedMs);
    Timing.set("detector_" + std::to_string(Row.Ops), std::move(T));
  }
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
  std::printf("\nOK: >=60%% clock-memory reduction, no build or access "
              "path regression, O(1)-common-case read state, "
              "byte-identical races, clock index == dfs\n");
  return 0;
}
