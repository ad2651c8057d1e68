// How many CPUs this process may run on.
//
// std::thread::hardware_concurrency() counts the machine's CPUs and ignores
// the affinity mask, so under `taskset` or a CPU-limited container it
// over-reports: a worker pool sized from it oversubscribes, and a speedup
// gate armed by it demands a speedup the process cannot reach.

#ifndef SRC_SIM_AVAILABLE_CPUS_H_
#define SRC_SIM_AVAILABLE_CPUS_H_

namespace diffusion {

// CPUs in the calling thread's affinity mask (sched_getaffinity), falling
// back to std::thread::hardware_concurrency() where the mask is unavailable.
// Always at least 1.
unsigned AvailableCpus();

}  // namespace diffusion

#endif  // SRC_SIM_AVAILABLE_CPUS_H_
