//===- tests/DfsReference.h - DFS-oracle reference detector -----*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's single-slot detector (Sec. 5.1, one report per location)
/// written as plainly as possible over a recorded trace, with every CHC
/// question answered by the memoized-DFS oracle HbGraph::reachesDfs. The
/// production detector answers from epoch probes on the clock index, so
/// agreement between the two is the detector-level parity check for the
/// DFS strategy the paper used.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_TESTS_DFSREFERENCE_H
#define WEBRACER_TESTS_DFSREFERENCE_H

#include "detect/RaceDetector.h"
#include "instr/TraceLog.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace wr::testing {

/// (location, stored op, triggering op) of one reported race.
using RaceKey = std::tuple<LocId, OpId, OpId>;

/// Races the single-slot algorithm reports over \p Log's access stream,
/// with CHC answered by \p Hb.reachesDfs (\p Hb must hold the trace's
/// whole graph; verdicts between existing ops never change).
inline std::vector<RaceKey> dfsReferenceRaces(const TraceLog &Log,
                                              const HbGraph &Hb) {
  struct Slots {
    OpId LastRead = InvalidOpId;
    OpId LastWrite = InvalidOpId;
    bool Reported = false;
  };
  std::unordered_map<LocId, Slots> State;
  std::vector<RaceKey> Races;
  for (const TraceEvent &E : Log.events()) {
    if (E.K != TraceEvent::Kind::MemAccess)
      continue;
    const Access &A = E.Mem;
    Slots &S = State[A.Loc];
    auto Chc = [&](OpId Prior) {
      return Prior != InvalidOpId && Prior != A.Op &&
             !Hb.reachesDfs(std::min(Prior, A.Op), std::max(Prior, A.Op));
    };
    auto Check = [&](OpId Prior) {
      if (S.Reported || !Chc(Prior))
        return false;
      S.Reported = true;
      Races.emplace_back(A.Loc, Prior, A.Op);
      return true;
    };
    if (A.Kind == AccessKind::Read) {
      Check(S.LastWrite);
      S.LastRead = A.Op;
    } else {
      if (!Check(S.LastWrite))
        Check(S.LastRead);
      S.LastWrite = A.Op;
    }
  }
  return Races;
}

/// The same key for each of \p Races (detector output, in report order).
inline std::vector<RaceKey> raceKeys(const std::vector<detect::Race> &Races) {
  std::vector<RaceKey> Keys;
  for (const detect::Race &R : Races)
    Keys.emplace_back(R.Second.Loc, R.First.Op, R.Second.Op);
  return Keys;
}

} // namespace wr::testing

#endif // WEBRACER_TESTS_DFSREFERENCE_H
