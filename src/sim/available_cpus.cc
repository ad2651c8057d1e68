#include "src/sim/available_cpus.h"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace diffusion {

unsigned AvailableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) {
      return static_cast<unsigned>(count);
    }
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

}  // namespace diffusion
