// Simulated-time primitives shared by every subsystem.
//
// All simulated time is kept as a signed 64-bit count of microseconds. A plain
// integral representation keeps event ordering exact (no floating-point drift
// over 30-minute runs) and serializes trivially.

#ifndef SRC_UTIL_TIME_H_
#define SRC_UTIL_TIME_H_

#include <cstdint>

namespace diffusion {

// A point in simulated time, in microseconds since simulation start.
using SimTime = int64_t;

// A span of simulated time, in microseconds.
using SimDuration = int64_t;

constexpr SimDuration kMicrosecond = 1;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr SimDuration kMinute = 60 * kSecond;

// Later than any reachable simulated time ("never").
constexpr SimTime kMaxSimTime = INT64_MAX;

// Converts a duration expressed in (possibly fractional) seconds to SimDuration.
constexpr SimDuration SecondsToDuration(double seconds) {
  return static_cast<SimDuration>(seconds * static_cast<double>(kSecond));
}

// Converts a SimDuration to fractional seconds (for reporting only).
constexpr double DurationToSeconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

}  // namespace diffusion

#endif  // SRC_UTIL_TIME_H_
