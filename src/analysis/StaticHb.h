//===- analysis/StaticHb.h - Static must-happens-before graph ---*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static counterpart of the dynamic happens-before graph: a DAG of
/// *effect sources*, each an operation the page will (or may) run, with
/// edges only where the paper's HB rules guarantee an order from document
/// structure alone:
///
///  * the synchronous parse/execute chain of each document, in parse
///    order (rules 1a-1c, 2, 3);
///  * deferred scripts after parsing, chained in document order
///    (rules 4, 5);
///  * a frame's chain after the parse of its <iframe> (rule 6), and the
///    frame's load dispatch after the frame's chain (rule 7);
///  * in-tag handler content attributes ordered before their dispatch
///    (rule 8), because the install happens at parse(E);
///  * timer and XHR callbacks after their registering source
///    (rules 10, 16, 17).
///
/// Everything else - async scripts, user-driven dispatches, user input,
/// two sibling frames - stays unordered, which is exactly where the
/// paper's races live. This is a *must* approximation: an edge means the
/// order always holds; the absence of an edge means some schedule may
/// reverse the pair.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_ANALYSIS_STATICHB_H
#define WEBRACER_ANALYSIS_STATICHB_H

#include "analysis/EffectSet.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace wr::analysis {

/// What kind of operation an effect source stands for.
enum class SourceKind : uint8_t {
  Parse,            ///< parse(E) of one element (insertion writes).
  SyncScript,       ///< Inline or synchronous external script.
  DeferScript,      ///< Deferred external script.
  AsyncScript,      ///< Asynchronous external script.
  TimerCallback,    ///< setTimeout body.
  IntervalCallback, ///< setInterval body.
  XhrCallback,      ///< readystatechange handler after send().
  EventDispatch,    ///< An event dispatch plus its handler bodies.
  UserInput,        ///< Simulated user typing into a form field.
};

const char *toString(SourceKind Kind);

/// One static operation with its may-effects.
struct EffectSource {
  uint32_t Id = 0;
  SourceKind Kind = SourceKind::Parse;
  std::string Label; ///< Human-readable, e.g. `script hint.js`.
  EffectSet Effects;
};

/// The DAG of effect sources. Queries are by reachability: A is ordered
/// with B iff one reaches the other along must-HB edges.
///
/// Each source keeps a bitset row holding its reflexive transitive
/// closure, maintained as edges arrive: adding From -> To ORs To's row
/// into every row that holds From. That stays exact under cycles and
/// edges into older sources, costs O(S/64) per row per edge that adds
/// reachability, and answers every query with one bit test.
class StaticHbGraph {
public:
  /// Sentinel for "no source".
  static constexpr uint32_t InvalidSource = ~0u;

  /// Adds a source and returns its id.
  uint32_t addSource(SourceKind Kind, std::string Label);

  EffectSource &source(uint32_t Id) { return Sources[Id]; }
  const EffectSource &source(uint32_t Id) const { return Sources[Id]; }
  const std::vector<EffectSource> &sources() const { return Sources; }

  /// Adds the must-HB edge From -> To. Ignores invalid endpoints so
  /// callers can pass optional anchors unconditionally.
  void addEdge(uint32_t From, uint32_t To);

  size_t numEdges() const { return Edges; }

  /// Direct must-HB successors of \p Id, in insertion order.
  const std::vector<uint32_t> &successors(uint32_t Id) const {
    return Succ[Id];
  }

  /// True if \p From reaches \p To along edges (reflexive).
  bool reaches(uint32_t From, uint32_t To) const {
    if (From == InvalidSource || To == InvalidSource)
      return false;
    assert(From < Sources.size() && To < Sources.size());
    return (Reach[size_t(From) * Words + To / 64] >> (To % 64)) & 1;
  }

  /// True if the two sources are ordered either way - the static
  /// equivalent of NOT Can-Happen-Concurrently.
  bool ordered(uint32_t A, uint32_t B) const {
    return reaches(A, B) || reaches(B, A);
  }

  /// Renders the graph (sources and edges) for debugging and the CLI's
  /// verbose mode.
  std::string toString() const;

private:
  std::vector<EffectSource> Sources;
  std::vector<std::vector<uint32_t>> Succ;
  size_t Edges = 0;
  /// Closure rows, `Words` 64-bit words per source, row-major.
  std::vector<uint64_t> Reach;
  size_t Words = 0;
};

} // namespace wr::analysis

#endif // WEBRACER_ANALYSIS_STATICHB_H
