//===- tests/StaticReachReference.h - DFS static reachability -*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static must-HB graph's reachability answered the plainest way: a
/// fresh depth-first search from \p From over the graph's successor
/// lists on every call. StaticHbGraph answers the same question from
/// bitset closure rows it maintains as edges arrive, so agreement
/// between the two on every ordered source pair is the closure's parity
/// check.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_TESTS_STATICREACHREFERENCE_H
#define WEBRACER_TESTS_STATICREACHREFERENCE_H

#include "analysis/StaticHb.h"

#include <cstdint>
#include <vector>

namespace wr::testing {

/// True if \p From reaches \p To along \p G's edges (reflexive), by DFS.
inline bool staticReachesDfs(const analysis::StaticHbGraph &G, uint32_t From,
                             uint32_t To) {
  using analysis::StaticHbGraph;
  if (From == StaticHbGraph::InvalidSource || To == StaticHbGraph::InvalidSource)
    return false;
  if (From == To)
    return true;
  std::vector<uint8_t> Seen(G.sources().size(), 0);
  std::vector<uint32_t> Stack{From};
  Seen[From] = 1;
  while (!Stack.empty()) {
    uint32_t Cur = Stack.back();
    Stack.pop_back();
    for (uint32_t Next : G.successors(Cur)) {
      if (Next == To)
        return true;
      if (!Seen[Next]) {
        Seen[Next] = 1;
        Stack.push_back(Next);
      }
    }
  }
  return false;
}

} // namespace wr::testing

#endif // WEBRACER_TESTS_STATICREACHREFERENCE_H
