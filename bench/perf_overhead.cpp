//===- bench/perf_overhead.cpp - Instrumentation overhead ---------------------===//
//
// Paper Sec. 6 "Performance": WebRacer handled pages with tens of
// thousands of operations in under a minute, but heavy JavaScript paid a
// ~500x slowdown vs JIT execution because only the interpreter was
// instrumented. Our substrate has no JIT, so the comparable measurements
// are (a) the interpreter running SunSpider-style kernels with
// instrumentation hooks on vs off and (b) end-to-end page-load throughput
// in operations/second.
//
// On top of those, this harness maps the production-overhead story the
// sampling layer (src/sample) enables: the full recall-vs-sample-rate
// frontier - every strategy at rates 0.01/0.05/0.1/0.25/0.5/1.0 over the
// synthetic corpus, each cell scored for race recall against the
// unsampled baseline and checked for exact attrition reconciliation.
// The binding gates on the frontier's operating point live in
// bench/sampling_recall (tier-1); this table is the measurement artifact.
//
// Emits the shared schema-1 report document (wall-clock figures under
// "timing", counters and the frontier byte-stable), replacing the
// google-benchmark registration this file started from.
//
// Usage: perf_overhead [--quick] [report.json]
//
//   --quick        fewer kernel repetitions and a 30-site frontier
//   report.json    write the schema-1 report document
//
//===----------------------------------------------------------------------===//

#include "SamplingLab.h"

#include "detect/RaceDetector.h"
#include "js/Interpreter.h"
#include "js/Parser.h"
#include "js/StdLib.h"
#include "obs/Json.h"
#include "obs/Reporter.h"

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

struct Kernel {
  const char *Name;
  const char *Source;
};

const Kernel Kernels[] = {
    {"controlflow-recursive",
     "function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }"
     "var result = fib(16);"},
    {"math-partial-sums",
     "var s = 0;"
     "for (var i = 1; i <= 5000; i++) {"
     "  s += 1 / (i * i) + Math.sqrt(i) - Math.floor(Math.sqrt(i));"
     "}"
     "var result = s;"},
    {"string-base64",
     "var s = '';"
     "for (var i = 0; i < 400; i++) { s += 'ab'; }"
     "var n = 0;"
     "for (var j = 0; j < s.length; j += 7) { n += s.charCodeAt(j); }"
     "var result = n;"},
    {"access-nsieve",
     "var limit = 3000;"
     "var sieve = Array(limit);"
     "var count = 0;"
     "for (var i = 2; i < limit; i++) {"
     "  if (!sieve[i]) {"
     "    count++;"
     "    for (var k = i + i; k < limit; k += i) sieve[k] = true;"
     "  }"
     "}"
     "var result = count;"},
};

/// Hooks that drive a real race detector (the instrumented
/// configuration). Alternating operation ids make the detector exercise
/// its CHC path the way a page with two concurrent scripts would.
class DetectorHooks final : public js::JsHooks {
public:
  explicit DetectorHooks(const detect::DetectorOptions &Opts = {})
      : Detector(Hb, Interner, Opts) {
    OpId A = Hb.addOperation(Operation());
    OpId B = Hb.addOperation(Operation());
    Hb.addEdge(A, B, HbRule::RProgram);
    Ops[0] = A;
    Ops[1] = B;
  }

  void onVarRead(js::Env *Scope, std::string_view Name,
                 AccessOrigin Origin) override {
    record(AccessKind::Read, Scope->containerId(), Name, Origin);
  }
  void onVarWrite(js::Env *Scope, std::string_view Name,
                  AccessOrigin Origin) override {
    record(AccessKind::Write, Scope->containerId(), Name, Origin);
  }
  void onPropRead(js::Object *Obj, std::string_view Name,
                  AccessOrigin Origin) override {
    record(AccessKind::Read, Obj->containerId(), Name, Origin);
  }
  void onPropWrite(js::Object *Obj, std::string_view Name,
                   AccessOrigin Origin) override {
    record(AccessKind::Write, Obj->containerId(), Name, Origin);
  }

private:
  void record(AccessKind Kind, ContainerId Container,
              std::string_view Name, AccessOrigin Origin) {
    Access A;
    A.Kind = Kind;
    A.Origin = Origin;
    A.Op = Ops[Toggle ^= 1];
    A.Loc = Interner.internVar(Container, Name);
    Detector.onMemoryAccess(A);
  }

  HbGraph Hb;
  LocationInterner Interner;
  detect::RaceDetector Detector;
  OpId Ops[2];
  unsigned Toggle = 0;
};

/// Runs one kernel once; Mode 0 = bare, 1 = instrumented, 2 =
/// instrumented with per-location sampling at rate 0.1.
double runKernelOnce(const Kernel &K, int Mode) {
  js::Heap Heap;
  js::Env *Global = Heap.allocEnv(nullptr);
  js::Interpreter Interp(Heap, Global);
  js::installStdLib(Interp, 1);
  detect::DetectorOptions Opts;
  if (Mode == 2) {
    Opts.Sampling.Strategy = sample::SamplingStrategy::PerLocation;
    Opts.Sampling.Rate = 0.1;
    Opts.Sampling.Seed = 7;
  }
  DetectorHooks Hooks(Opts);
  if (Mode != 0)
    Interp.setHooks(&Hooks);
  js::ParseResult R = js::Parser::parseProgram(K.Source);
  auto Start = std::chrono::steady_clock::now();
  js::Completion C = Interp.runProgram(*R.Ast);
  double Secs = secondsSince(Start);
  // Keep the result observable so the run cannot be discarded.
  if (C.V.isObject() && Secs < 0)
    std::printf("unreachable\n");
  return Secs;
}

struct KernelRow {
  const char *Name;
  double BareMs = 0;
  double InstrumentedMs = 0;
  double SampledMs = 0;
  double Overhead = 0; ///< Instrumented / bare.
};

KernelRow runKernel(const Kernel &K, int Reps) {
  KernelRow Row;
  Row.Name = K.Name;
  double Best[3] = {1e30, 1e30, 1e30};
  for (int Rep = 0; Rep < Reps; ++Rep)
    for (int Mode = 0; Mode < 3; ++Mode)
      Best[Mode] = std::min(Best[Mode], runKernelOnce(K, Mode));
  Row.BareMs = Best[0] * 1e3;
  Row.InstrumentedMs = Best[1] * 1e3;
  Row.SampledMs = Best[2] * 1e3;
  Row.Overhead = Best[0] > 0 ? Best[1] / Best[0] : 0;
  return Row;
}

/// End-to-end page throughput: operations per second through the full
/// pipeline (parse + execute + detect + explore).
double pageLoadOpsPerSecond(int Reps) {
  sites::SiteSpec Spec;
  Spec.Name = "PerfSite";
  Spec.Patterns = {
      {sites::PatternKind::VariableNoiseBenign, 50},
      {sites::PatternKind::HoverMenuNoiseBenign, 30},
      {sites::PatternKind::GomezMonitorHarmful, 10},
      {sites::PatternKind::HtmlPollingBenign, 20},
  };
  sites::GeneratedSite Site = sites::buildSite(Spec);
  webracer::SessionOptions Opts;
  uint64_t TotalOps = 0;
  auto Start = std::chrono::steady_clock::now();
  for (int Rep = 0; Rep < Reps; ++Rep) {
    sites::SiteRunStats Stats = sites::runSite(Site, Opts, 42);
    TotalOps += Stats.Stats.Operations;
  }
  double Secs = secondsSince(Start);
  return Secs > 0 ? static_cast<double>(TotalOps) / Secs : 0;
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
  int Failures = 0;

  std::printf("== perf_overhead: interpreter instrumentation cost ==\n");
  int Reps = Quick ? 3 : 5;
  std::printf("\n%22s | %8s | %8s | %9s | %8s\n", "kernel", "bare ms",
              "instr ms", "smpld ms", "overhead");
  std::printf("-----------------------+----------+----------+-----------+--"
              "-------\n");
  std::vector<KernelRow> KernelRows;
  for (const Kernel &K : Kernels) {
    KernelRow Row = runKernel(K, Reps);
    std::printf("%22s | %8.2f | %8.2f | %9.2f | %7.1fx\n", Row.Name,
                Row.BareMs, Row.InstrumentedMs, Row.SampledMs,
                Row.Overhead);
    KernelRows.push_back(Row);
  }

  double OpsPerSec = pageLoadOpsPerSecond(Reps);
  std::printf("\npage load: %.0f operations/sec end-to-end\n", OpsPerSec);

  std::printf("\n== recall-vs-sample-rate frontier ==\n");
  constexpr uint64_t Seed = 2012;
  std::vector<sites::GeneratedSite> Corpus =
      sites::buildFortune100Corpus(Seed);
  if (Quick && Corpus.size() > 30)
    Corpus.resize(30);
  webracer::SessionOptions Base;
  sites::CorpusStats BaseStats = sites::runCorpus(Corpus, Base, Seed, 4);
  std::set<std::string> BaselineKeys = bench::raceKeys(BaseStats);
  std::printf("corpus: %zu sites, %zu distinct baseline races\n",
              Corpus.size(), BaselineKeys.size());

  const sample::SamplingStrategy Strategies[] = {
      sample::SamplingStrategy::PerLocation,
      sample::SamplingStrategy::Adaptive,
  };
  const double Rates[] = {0.01, 0.05, 0.1, 0.25, 0.5, 1.0};
  std::printf("\n%13s | %5s | %6s | %7s | %13s\n", "strategy", "rate",
              "recall", "matched", "sampled/seen");
  std::printf("--------------+-------+--------+---------+--------------\n");
  std::vector<bench::RecallCell> Cells;
  for (sample::SamplingStrategy Strategy : Strategies) {
    for (double Rate : Rates) {
      sample::SamplingOptions S;
      S.Strategy = Strategy;
      S.Rate = Rate;
      bench::RecallCell Cell =
          bench::runCell(Corpus, S, Seed, 4, BaselineKeys);
      double SampledShare =
          Cell.SeenAccesses
              ? static_cast<double>(Cell.SampledAccesses) /
                    static_cast<double>(Cell.SeenAccesses)
              : 1.0;
      std::printf("%13s | %5.2f | %6.3f | %3zu/%3zu | %12.3f%%\n",
                  sample::toString(Strategy), Rate, Cell.Recall,
                  Cell.MatchedRaces, Cell.BaselineRaces,
                  100.0 * SampledShare);
      if (!Cell.ReconcileOk) {
        std::printf("FAIL: %s@%.2f seen %llu != sampled %llu + dropped "
                    "%llu\n",
                    sample::toString(Strategy), Rate,
                    static_cast<unsigned long long>(Cell.SeenAccesses),
                    static_cast<unsigned long long>(Cell.SampledAccesses),
                    static_cast<unsigned long long>(Cell.DroppedAccesses));
        ++Failures;
      }
      Cells.push_back(Cell);
    }
  }

  obs::Json Doc = obs::makeReportEnvelope("perf_overhead", "sunspider");
  Doc.set("quick", Quick);
  obs::Json Frontier = obs::Json::array();
  for (const bench::RecallCell &Cell : Cells) {
    obs::Json C = obs::Json::object();
    C.set("strategy", std::string(sample::toString(Cell.Strategy)));
    C.set("rate_ppm", static_cast<uint64_t>(Cell.Rate * 1e6 + 0.5));
    C.set("matched", static_cast<uint64_t>(Cell.MatchedRaces));
    C.set("found", static_cast<uint64_t>(Cell.FoundRaces));
    C.set("baseline", static_cast<uint64_t>(Cell.BaselineRaces));
    C.set("recall", Cell.Recall);
    C.set("seen", Cell.SeenAccesses);
    C.set("sampled", Cell.SampledAccesses);
    C.set("dropped", Cell.DroppedAccesses);
    Frontier.push(std::move(C));
  }
  Doc.set("frontier", std::move(Frontier));
  obs::Json Timing = obs::Json::object();
  obs::Json KernelsJson = obs::Json::object();
  for (const KernelRow &Row : KernelRows) {
    obs::Json K = obs::Json::object();
    K.set("bare_ms", Row.BareMs);
    K.set("instrumented_ms", Row.InstrumentedMs);
    K.set("sampled_ms", Row.SampledMs);
    K.set("overhead", Row.Overhead);
    KernelsJson.set(Row.Name, std::move(K));
  }
  Timing.set("kernels", std::move(KernelsJson));
  Timing.set("page_load_ops_per_sec", OpsPerSec);
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
  std::printf("\nOK: frontier reconciled\n");
  return 0;
}
