//===- analysis/StaticHb.cpp - Static must-happens-before graph -------------===//

#include "analysis/StaticHb.h"

#include <algorithm>
#include <vector>

using namespace wr::analysis;

const char *wr::analysis::toString(SourceKind Kind) {
  switch (Kind) {
  case SourceKind::Parse:
    return "parse";
  case SourceKind::SyncScript:
    return "script";
  case SourceKind::DeferScript:
    return "defer";
  case SourceKind::AsyncScript:
    return "async";
  case SourceKind::TimerCallback:
    return "timeout";
  case SourceKind::IntervalCallback:
    return "interval";
  case SourceKind::XhrCallback:
    return "xhr";
  case SourceKind::EventDispatch:
    return "dispatch";
  case SourceKind::UserInput:
    return "user-input";
  }
  return "unknown";
}

uint32_t StaticHbGraph::addSource(SourceKind Kind, std::string Label) {
  uint32_t Id = static_cast<uint32_t>(Sources.size());
  EffectSource S;
  S.Id = Id;
  S.Kind = Kind;
  S.Label = std::move(Label);
  Sources.push_back(std::move(S));
  Succ.emplace_back();
  if (Id >= Words * 64) {
    // Widen every row; doubling keeps the re-layouts O(S^2/64) in total.
    size_t NewWords = Words ? Words * 2 : 1;
    std::vector<uint64_t> Wide(size_t(Id) * NewWords, 0);
    for (size_t Row = 0; Row < Id; ++Row)
      std::copy_n(Reach.begin() + Row * Words, Words,
                  Wide.begin() + Row * NewWords);
    Reach = std::move(Wide);
    Words = NewWords;
  }
  Reach.resize(Reach.size() + Words, 0);
  Reach[size_t(Id) * Words + Id / 64] |= uint64_t(1) << (Id % 64);
  return Id;
}

void StaticHbGraph::addEdge(uint32_t From, uint32_t To) {
  if (From == InvalidSource || To == InvalidSource || From == To)
    return;
  assert(From < Sources.size() && To < Sources.size());
  for (uint32_t Existing : Succ[From])
    if (Existing == To)
      return;
  Succ[From].push_back(To);
  ++Edges;
  if (reaches(From, To))
    return; // Already implied: no row changes.
  // A row gains To's closure iff it already reached From. Rows are
  // updated in place; To's own row only changes if it reaches From,
  // and then OR-ing it into itself is a no-op, so every row reads the
  // pre-edge closure of To.
  const uint64_t *ToRow = Reach.data() + size_t(To) * Words;
  for (size_t Row = 0; Row < Sources.size(); ++Row) {
    uint64_t *Bits = Reach.data() + Row * Words;
    if (!((Bits[From / 64] >> (From % 64)) & 1))
      continue;
    for (size_t W = 0; W < Words; ++W)
      Bits[W] |= ToRow[W];
  }
}

std::string StaticHbGraph::toString() const {
  std::string Out;
  for (const EffectSource &S : Sources) {
    Out += "#" + std::to_string(S.Id) + " [" +
           wr::analysis::toString(S.Kind) + "] " + S.Label;
    Out += "\n";
    for (const Effect &E : S.Effects.Effects) {
      Out += "    ";
      Out += wr::toString(E.Kind);
      Out += " ";
      Out += wr::analysis::toString(E.Loc);
      Out += " (";
      Out += wr::toString(E.Origin);
      Out += ")\n";
    }
  }
  Out += "edges:";
  for (uint32_t From = 0; From < Sources.size(); ++From)
    for (uint32_t To : Succ[From])
      Out += " " + std::to_string(From) + "->" + std::to_string(To);
  Out += "\n";
  return Out;
}
