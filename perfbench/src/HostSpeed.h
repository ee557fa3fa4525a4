//===- HostSpeed.h - Tracks the host's speed during a timed run --*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared host runs the same code at very different speeds from one
/// minute to the next: identical corpus passes took 0.82-1.43 s within
/// a quarter of an hour. To keep the end-to-end times comparable across
/// runs, the timed loop runs a fixed reference slice between items
/// (never inside one) and scales each item time by how fast the slice
/// ran around it. The slice is the benchmark's own code, so a change to
/// the program does not move it.
///
/// The slice has two halves: it builds and walks a hash map of strings
/// and an ordered map of vectors (the allocation- and lookup-heavy mix
/// the corpus layers spend their time in), then runs an integer hash
/// loop (which tracks the interpreter-heavy large pages better). On a
/// 4-vCPU KVM guest, over 2 s windows, dividing item time by slice time
/// cut the window-to-window spread (sd of log time) from 0.07 to 0.04
/// on corpus and from 0.12 to 0.02-0.04 on bigpage; a pointer chase over
/// 16 MB did not track the host at all.
///
//===----------------------------------------------------------------------===//

#ifndef WRBENCH_HOSTSPEED_H
#define WRBENCH_HOSTSPEED_H

#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace wrbench {

class HostSpeed {
public:
  /// The slice time that counts as nominal speed (about what the slice
  /// takes on a quiet 4-vCPU Xeon guest): scaled times read as if every
  /// slice had taken this long.
  static constexpr double NominalSliceNs = 3.0e6;

  /// Runs one reference slice and records its time.
  void sample() {
    uint64_t T0 = nowNs();
    runSlice();
    SliceNs.push_back(static_cast<double>(nowNs() - T0));
    LastNs = nowNs();
  }

  /// Samples when at least \p IntervalNs passed since the last sample.
  void sampleIfDue(uint64_t IntervalNs) {
    if (nowNs() - LastNs >= IntervalNs)
      sample();
  }

  size_t samples() const { return SliceNs.size(); }
  double lastNs() const { return SliceNs.back(); }

  /// How much more the workloads slow down than the slice does. Over
  /// runs at host speeds from 0.73 to 1.05 of nominal, scaling by the
  /// plain slice ratio still left corpus and bigpage times longer on a
  /// slower host; this power of it held all three workloads steadiest
  /// (quartile spread of items_per_s over seeds 0.6-3.8%, against 2-7%
  /// with the plain ratio and 13-32% unscaled).
  static constexpr double Sensitivity = 1.2;

  /// Nominal over measured slice time, from the samples in [Lo, Hi)
  /// clamped to those taken, raised to Sensitivity; below 1 on a slow
  /// host.
  double factor(size_t Lo, size_t Hi) const {
    Hi = std::min(Hi, SliceNs.size());
    Lo = std::min(Lo, Hi - 1);
    double Sum = 0;
    for (size_t I = Lo; I < Hi; ++I)
      Sum += SliceNs[I];
    return std::pow(NominalSliceNs / (Sum / static_cast<double>(Hi - Lo)),
                    Sensitivity);
  }

  /// Factor for work done after sample \p Before was taken: the mean
  /// over the \p Radius samples on each side.
  double factorAround(size_t Before, size_t Radius) const {
    return factor(Before > Radius ? Before - Radius : 0, Before + Radius);
  }

private:
  static uint64_t mix(uint64_t &X) {
    uint64_t Z = (X += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// The same work every time: 10k map updates and a walk of both
  /// maps, then 1M rounds of an integer hash. The result feeds Sink so
  /// the compiler keeps the work.
  void runSlice() {
    constexpr uint64_t Ops = 10000;
    constexpr uint64_t Rounds = 1000000;
    uint64_t X = 1;
    std::unordered_map<uint64_t, std::string> Strings;
    std::map<uint32_t, std::vector<uint32_t>> Lists;
    for (uint64_t I = 0; I < Ops; ++I) {
      uint64_t K = mix(X) % (Ops / 2);
      Strings[K] += static_cast<char>('a' + K % 26);
      Lists[static_cast<uint32_t>(K % 509)].push_back(
          static_cast<uint32_t>(I));
    }
    uint64_t Acc = 0;
    for (const auto &[K, V] : Strings)
      Acc += V.size() * K;
    for (const auto &[K, V] : Lists)
      Acc += V.size() + K;
    for (uint64_t I = 0; I < Rounds; ++I)
      Acc += mix(X);
    asm volatile("" : : "r"(Acc) : "memory");
    Sink ^= Acc;
  }

  std::vector<double> SliceNs;
  uint64_t LastNs = 0;
  uint64_t Sink = 0;
};

} // namespace wrbench

#endif // WRBENCH_HOSTSPEED_H
