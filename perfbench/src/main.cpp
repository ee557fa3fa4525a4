//===- main.cpp - WebRacer end-to-end and per-layer benchmark ---------------===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Usage: wrbench --workload corpus|ingest|bigpage --seed N --seconds S
//                --trace 0|1 --scratch DIR
//
// --trace 0 times the named workload end to end: a closed loop with one
// client, one item at a time, whole passes over the inputs for S
// seconds. Item and set-up times are scaled to nominal host speed by
// the reference slices HostSpeed.h runs between them; the unscaled
// figures are printed above the result. --trace 1 is the separate
// traced run: it visits every workload and reports each per-layer
// metric from the workload that exercises that layer, plus the named
// workload's tracing overhead.
// The last line of stdout is the JSON result.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Trace.h"
#include "Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace wrbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  std::string Scratch = ".";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    const char *V = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
      if (*End)
        return false;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
      if (*End || !(A.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
        return false;
      A.Traced = V[0] == '1';
    } else if (Flag == "--scratch") {
      A.Scratch = V;
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && !A.Workload.empty();
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double> &Sorted, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P * Sorted.size()));
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

/// Starts a fresh peak-RSS window: hands freed heap pages back to the
/// kernel, then resets the process's high-water mark (VmHWM) to its
/// current resident set.
bool resetPeakRss() {
  malloc_trim(0);
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

/// Peak resident set in MB since the last resetPeakRss().
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    throw std::runtime_error("cannot read /proc/self/status");
  char Line[256];
  double Kb = -1;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  if (Kb < 0)
    throw std::runtime_error("no VmHWM in /proc/self/status");
  return Kb / 1024.0;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("  %-26s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit);
  std::printf("}}\n");
}

//===----------------------------------------------------------------------===//
// Untraced end-to-end run
//===----------------------------------------------------------------------===//

/// Set-ups per run; setup_s is their median.
constexpr int SetupRepeats = 5;
/// p90 needs at least ten samples beyond it.
constexpr size_t MinItems = 100;
/// Host-speed sampling: a reference slice at most this often between
/// items, a burst of slices around each set-up, and the samples on each
/// side of an item that set its scale.
constexpr uint64_t SampleIntervalNs = 50'000'000;
constexpr size_t SetupBurst = 8;
constexpr size_t ItemRadius = 3;

/// What the memory pass found.
struct MemoryPass {
  double PeakMb = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Generates the inputs (with their warm-up pass), then runs every item
/// once more, each from a trimmed heap with a fresh high-water mark.
/// The peak is the highest mark, the resident memory the inputs plus
/// one item need.
MemoryPass memoryPass(const Args &A) {
  MemoryPass M;
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Seed, A.Scratch);
  M.Attempted = W->size();
  M.Failed = W->warmupFailures();
  for (size_t I = 0; I < W->size(); ++I) {
    if (!resetPeakRss())
      throw std::runtime_error("cannot reset the peak RSS");
    uint64_t Ns = 0;
    if (!W->run(I, Ns))
      ++M.Failed;
    ++M.Attempted;
    M.PeakMb = std::max(M.PeakMb, peakRssMb());
  }
  return M;
}

/// Runs memoryPass() in a child process forked before anything else
/// ran, so its heap starts empty, with glibc's mmap threshold pinned at
/// its 128 KiB default. Left to adjust itself, the threshold rises after
/// a large block is freed, later large blocks then come from the main
/// heap, and the largest corpus site peaked at 64-76 MB depending on
/// what ran before it; pinned, it peaks at 51.6-52.6 MB over 40
/// schedules in any order.
MemoryPass memoryPassInChild(const Args &A) {
  int Fd[2];
  if (pipe(Fd) != 0)
    throw std::runtime_error("cannot make a pipe");
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0)
    throw std::runtime_error("cannot fork the memory pass");
  if (Pid == 0) {
    close(Fd[0]);
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    int Code = 1;
    try {
      MemoryPass M = memoryPass(A);
      Code = write(Fd[1], &M, sizeof(M)) == sizeof(M) ? 0 : 1;
    } catch (const std::exception &E) {
      std::fprintf(stderr, "error: memory pass: %s\n", E.what());
    }
    _exit(Code);
  }
  close(Fd[1]);
  MemoryPass M;
  ssize_t Got = read(Fd[0], &M, sizeof(M));
  close(Fd[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      throw std::runtime_error("cannot wait for the memory pass");
  if (Got != static_cast<ssize_t>(sizeof(M)) || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    throw std::runtime_error("the memory pass failed");
  return M;
}

int runEndToEnd(const Args &A) {
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), A.Workload) == Names.end()) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  MemoryPass Mem = memoryPassInChild(A);
  uint64_t Attempted = Mem.Attempted, Failed = Mem.Failed;

  // Set-up: each repeat is scaled by the slices just before and after it.
  HostSpeed Speed;
  std::vector<double> SetupS, RawSetupS;
  std::unique_ptr<Workload> W;
  for (size_t K = 0; K < SetupBurst; ++K)
    Speed.sample();
  for (int K = 0; K < SetupRepeats; ++K) {
    W.reset();
    uint64_t T0 = nowNs();
    W = makeWorkload(A.Workload, A.Seed, A.Scratch);
    RawSetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    size_t Before = Speed.samples() - SetupBurst;
    for (size_t I = 0; I < SetupBurst; ++I)
      Speed.sample();
    SetupS.push_back(RawSetupS.back() * Speed.factor(Before, Speed.samples()));
    Failed += W->warmupFailures();
    Attempted += W->size();
  }

  // Timed loop: whole passes, a slice between items when one is due.
  std::vector<double> RawNs;
  std::vector<size_t> SamplesBefore;
  uint64_t Start = nowNs();
  size_t Passes = 0;
  while (static_cast<double>(nowNs() - Start) / 1e9 < A.Seconds ||
         RawNs.size() < MinItems) {
    for (size_t I = 0; I < W->size(); ++I) {
      uint64_t Ns = 0;
      if (!W->run(I, Ns))
        ++Failed;
      RawNs.push_back(static_cast<double>(Ns));
      SamplesBefore.push_back(Speed.samples());
      Speed.sampleIfDue(SampleIntervalNs);
    }
    ++Passes;
  }
  for (size_t K = 0; K < ItemRadius; ++K)
    Speed.sample();
  Attempted += RawNs.size();

  std::vector<double> ItemMs, RawMs;
  double BusyNs = 0, RawBusyNs = 0;
  for (size_t I = 0; I < RawNs.size(); ++I) {
    double Ns = RawNs[I] * Speed.factorAround(SamplesBefore[I], ItemRadius);
    ItemMs.push_back(Ns / 1e6);
    RawMs.push_back(RawNs[I] / 1e6);
    BusyNs += Ns;
    RawBusyNs += RawNs[I];
  }
  std::sort(ItemMs.begin(), ItemMs.end());
  std::sort(RawMs.begin(), RawMs.end());
  double Items = static_cast<double>(ItemMs.size());
  std::printf("wrbench %s: seed %llu, %zu items in %zu passes, setup x%d, "
              "%zu host-speed slices\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              ItemMs.size(), Passes, SetupRepeats, Speed.samples());
  std::printf("  unscaled: items_per_s %.3f, item_ms_p50 %.4f, item_ms_p90 "
              "%.4f, setup_s %.4f; mean time scale %.3f\n",
              Items / (RawBusyNs / 1e9), percentile(RawMs, 0.50),
              percentile(RawMs, 0.90), median(RawSetupS),
              Speed.factor(0, Speed.samples()));
  std::vector<Metric> M = {
      {"items_per_s", Items / (BusyNs / 1e9), "1/s"},
      {"item_ms_p50", percentile(ItemMs, 0.50), "ms"},
      {"item_ms_p90", percentile(ItemMs, 0.90), "ms"},
      {"setup_s", median(SetupS), "s"},
      {"peak_rss_mb", Mem.PeakMb, "MB"},
      {"ok_rate",
       static_cast<double>(Attempted - Failed) / static_cast<double>(Attempted),
       "ratio"},
  };
  printResult(Failed == 0, Attempted, Failed, M);
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced per-layer run
//===----------------------------------------------------------------------===//

/// Minimum share of an item's wall time its top-level spans must cover.
constexpr double CoverageFloor = 0.95;

/// Counters that must repeat exactly from pass to pass (and match the
/// untraced warm-up pass where it reports them).
const char *const ExactCounts[] = {"detect.pairs_checked",
                                   "analysis.static_races", "hb.operations",
                                   "detect.accesses", "instr.trace_bytes"};

/// Each per-layer metric, the workload that exercises its layer, and
/// its unit. Times are mean self time per item of that workload (per
/// pass for pass-level spans); counts are totals per pass.
struct LayerMetric {
  const char *Name;
  const char *Workload;
  const char *Unit;
};
const LayerMetric LayerMetrics[] = {
    {"analysis.analyze_page_ms", "corpus", "ms"},
    {"analysis.crosscheck_ms", "corpus", "ms"},
    {"analysis.static_races", "corpus", "count"},
    {"detect.predict_shb_ms", "corpus", "ms"},
    {"detect.predict_wcp_ms", "corpus", "ms"},
    {"detect.pairs_checked", "corpus", "count"},
    {"detect.predicted", "corpus", "count"},
    {"detect.predict_yield", "corpus", "ratio"},
    {"obs.report_ms", "corpus", "ms"},
    {"instr.read_ms", "ingest", "ms"},
    {"instr.decode_ms", "ingest", "ms"},
    {"instr.decode_mb_per_s", "ingest", "MB/s"},
    {"detect.replay_ms", "ingest", "ms"},
    {"triage.signature_ms", "ingest", "ms"},
    {"instr.trace_bytes", "ingest", "count"},
    {"instr.events", "ingest", "count"},
    {"webracer.session_ms", "bigpage", "ms"},
    {"html.parse_ms", "bigpage", "ms"},
    {"js.script_ms", "bigpage", "ms"},
    {"runtime.dispatch_ms", "bigpage", "ms"},
    {"explore.explore_ms", "bigpage", "ms"},
    {"detect.access_ms", "bigpage", "ms"},
    {"detect.filter_ms", "bigpage", "ms"},
    {"hb.operations", "bigpage", "count"},
    {"hb.edges", "bigpage", "count"},
    {"hb.chains", "bigpage", "count"},
    {"hb.clock_bytes", "bigpage", "count"},
    {"detect.accesses", "bigpage", "count"},
    {"detect.epoch_hits", "bigpage", "count"},
    {"detect.detector_bytes", "bigpage", "count"},
    {"sites.expectation_delta", "bigpage", "count"},
    {"trace.overhead", nullptr, "ratio"},
    {"trace.coverage", nullptr, "ratio"},
};

/// What one workload's traced passes measured.
struct TracedWorkload {
  Sums Values;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
};

/// Turns the span list into per-name self times: a span's self time is
/// its duration minus the part its child spans cover. Check spans are
/// not item work and are taken out of their item's duration.
void accountSpans(const Tracer &T, size_t Items, size_t Passes,
                  TracedWorkload &Out, double &ItemNs, double &CoveredNs) {
  const std::vector<SpanRecord> &Spans = T.spans();
  std::vector<double> ChildNs(Spans.size(), 0);
  for (const SpanRecord &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] +=
          static_cast<double>(S.EndNs - S.StartNs);
  Sums SelfNs;
  std::set<std::string> PassLevel;
  ItemNs = CoveredNs = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    double Dur = static_cast<double>(S.EndNs - S.StartNs);
    if (S.Parent >= 0 && std::strcmp(S.Name, CheckSpan) == 0) {
      ItemNs -= Dur;
      CoveredNs -= Dur;
    } else if (S.Parent < 0 && std::strcmp(S.Name, "item") == 0) {
      ItemNs += Dur;
      CoveredNs += ChildNs[I];
    } else {
      SelfNs[S.Name] += Dur - ChildNs[I];
      if (S.Parent < 0)
        PassLevel.insert(S.Name);
    }
  }
  for (const auto &[Name, Ns] : SelfNs)
    Out.Values[Name + "_ms"] =
        Ns / 1e6 / static_cast<double>(PassLevel.count(Name) ? Passes : Items);
}

TracedWorkload traceWorkload(const std::string &Name, const Args &A,
                             double Budget) {
  TracedWorkload Out;
  std::unique_ptr<Workload> W = makeWorkload(Name, A.Seed, A.Scratch);
  Out.Attempted += W->size();
  Out.Failed += W->warmupFailures();
  Tracer T;
  std::vector<Sums> Passes;
  double UntracedNs = 0;
  size_t Items = 0;
  uint64_t Start = nowNs();
  // Each item runs untraced and traced back to back, in alternating
  // order, so the overhead ratio compares like with like.
  while (Passes.size() < 2 ||
         static_cast<double>(nowNs() - Start) / 1e9 < Budget) {
    Sums Pass;
    for (size_t I = 0; I < W->size(); ++I) {
      bool TracedFirst = (I + Passes.size()) % 2 == 0;
      uint64_t Ns = 0;
      bool Ok = true;
      if (TracedFirst) {
        T.nextItem();
        Ok &= W->runTraced(I, T, Pass);
      }
      Ok &= W->run(I, Ns);
      if (!TracedFirst) {
        T.nextItem();
        Ok &= W->runTraced(I, T, Pass);
      }
      UntracedNs += static_cast<double>(Ns);
      ++Items;
      ++Out.Attempted;
      if (!Ok)
        ++Out.Failed;
    }
    T.nextItem();
    if (!W->endTracedPass(T, Pass))
      Out.Problems.push_back(Name + ": pass output differs from warm-up");
    Passes.push_back(std::move(Pass));
  }
  if (!T.balanced())
    Out.Problems.push_back(Name + ": unbalanced spans");

  double ItemNs = 0, CoveredNs = 0;
  accountSpans(T, Items, Passes.size(), Out, ItemNs, CoveredNs);
  Out.Values["trace.overhead"] = ItemNs / UntracedNs;
  Out.Values["trace.coverage"] = CoveredNs / ItemNs;
  if (CoveredNs / ItemNs < CoverageFloor)
    Out.Problems.push_back(Name + ": top-level spans cover only " +
                           std::to_string(CoveredNs / ItemNs) +
                           " of item wall time");

  // Pass sums: times become per-item means, counts must repeat exactly.
  for (const auto &[Key, First] : Passes.front()) {
    double Total = 0;
    for (const Sums &P : Passes)
      Total += P.at(Key);
    bool IsTime = Key.size() > 3 && Key.compare(Key.size() - 3, 3, "_ms") == 0;
    Out.Values[Key] = IsTime ? Total / static_cast<double>(Items)
                             : Total / static_cast<double>(Passes.size());
  }
  for (const char *Key : ExactCounts) {
    if (!Passes.front().count(Key))
      continue;
    double First = Passes.front().at(Key);
    bool Same = true;
    for (const Sums &P : Passes)
      Same &= P.at(Key) == First;
    auto Warm = W->warmup().find(Key);
    if (Warm != W->warmup().end())
      Same &= Warm->second == First;
    if (!Same)
      Out.Problems.push_back(Name + ": count " + Key + " is not exact");
  }
  for (const auto &[Key, V] : W->setupFacts())
    Out.Values[Key] = V;

  const Sums &V = Out.Values;
  if (V.count("detect.pairs_checked") && V.at("detect.pairs_checked") > 0)
    Out.Values["detect.predict_yield"] =
        V.at("detect.predicted") / V.at("detect.pairs_checked");
  if (V.count("instr.decode_ms") && V.at("instr.decode_ms") > 0)
    Out.Values["instr.decode_mb_per_s"] =
        (V.at("instr.trace_bytes") / 1e6) /
        (V.at("instr.decode_ms") / 1e3 *
         (static_cast<double>(Items) / static_cast<double>(Passes.size())));
  std::printf("traced %s: %zu items in %zu passes, overhead %.3f, "
              "coverage %.4f\n",
              Name.c_str(), Items, Passes.size(), V.at("trace.overhead"),
              V.at("trace.coverage"));
  return Out;
}

int runTraced(const Args &A) {
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), A.Workload) == Names.end()) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;
  std::map<std::string, TracedWorkload> Results;
  for (const std::string &Name : Names) {
    TracedWorkload R =
        traceWorkload(Name, A, A.Seconds / static_cast<double>(Names.size()));
    Attempted += R.Attempted;
    Failed += R.Failed;
    Problems.insert(Problems.end(), R.Problems.begin(), R.Problems.end());
    Results[Name] = std::move(R);
  }
  std::vector<Metric> M;
  for (const LayerMetric &L : LayerMetrics) {
    const Sums &V = Results.at(L.Workload ? L.Workload : A.Workload).Values;
    auto It = V.find(L.Name);
    if (It == V.end()) {
      Problems.push_back(std::string("metric ") + L.Name + " not measured");
      continue;
    }
    M.push_back({L.Name, It->second, L.Unit});
  }
  const std::string GapPrefix = "sites.expectation_delta.";
  std::printf("generator gap (filtered - ExpectedRaces, all big pages):");
  for (const auto &[Key, V] : Results.at("bigpage").Values)
    if (Key.rfind(GapPrefix, 0) == 0)
      std::printf(" %s %+.0f", Key.c_str() + GapPrefix.size(), V);
  std::printf("\n");
  for (const std::string &P : Problems)
    std::printf("check failed: %s\n", P.c_str());
  printResult(Failed == 0 && Problems.empty(), Attempted, Failed, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: wrbench --workload corpus|ingest|bigpage --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  try {
    return A.Traced ? runTraced(A) : runEndToEnd(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
