// The host wall clock, for instruments only.
//
// Simulated time comes from the event scheduler (SimTime); lint rule DL001
// forbids wall-clock reads everywhere in src/. This shim is the one
// sanctioned exception: engine instruments that explain where host time
// went (the sharded engine's per-thread busy and barrier-wait time) read it
// here. A value from HostNowNs() must never feed simulation state, a trace,
// a fingerprint or a deterministic bench row — it differs on every run.

#ifndef SRC_UTIL_HOST_CLOCK_H_
#define SRC_UTIL_HOST_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace diffusion {

// Monotonic host time in nanoseconds since an unspecified epoch. Only
// differences are meaningful.
inline uint64_t HostNowNs() {
  // The DL001 exemption: instruments only, see the file comment.
  const auto now = std::chrono::steady_clock::now();  // diffusion-lint: allow(DL001)
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count());
}

}  // namespace diffusion

#endif  // SRC_UTIL_HOST_CLOCK_H_
