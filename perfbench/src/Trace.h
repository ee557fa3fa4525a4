//===- Trace.h - In-memory spans for the traced benchmark run ----*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into each layer.
/// A span has a name, a start, an end, the span that caused it and the
/// item it belongs to; they stay in memory until the run ends. The
/// untraced run passes a null tracer, so every Span below is a no-op
/// there and the timed calls are identical in both runs.
///
//===----------------------------------------------------------------------===//

#ifndef WRBENCH_TRACE_H
#define WRBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wrbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char *Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1; ///< Index into the tracer's span list; -1 = root.
  uint32_t Item = 0;
};

class Tracer {
public:
  /// Starts a span under the innermost open one.
  int32_t begin(const char *Name) {
    int32_t Id = static_cast<int32_t>(Spans.size());
    Spans.push_back({Name, nowNs(), 0, Open.empty() ? -1 : Open.back(),
                     CurrentItem});
    Open.push_back(Id);
    return Id;
  }
  void end(int32_t Id) {
    Spans[static_cast<size_t>(Id)].EndNs = nowNs();
    Open.pop_back();
  }
  /// Opens a new item: spans begun until the next call share its id.
  void nextItem() { ++CurrentItem; }

  const std::vector<SpanRecord> &spans() const { return Spans; }
  bool balanced() const { return Open.empty(); }

private:
  std::vector<SpanRecord> Spans;
  std::vector<int32_t> Open;
  uint32_t CurrentItem = 0;
};

/// RAII span; does nothing when the tracer is null.
class Span {
public:
  Span(Tracer *T, const char *Name) : T(T), Id(T ? T->begin(Name) : -1) {}
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() {
    if (T)
      T->end(Id);
  }

private:
  Tracer *T;
  int32_t Id;
};

} // namespace wrbench

#endif // WRBENCH_TRACE_H
