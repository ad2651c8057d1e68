// Parallel single-run simulation core: conservative time windows over
// spatially sharded schedulers.
//
// One simulation run is partitioned into regions. Each region owns a full
// Simulator (pairing-heap scheduler, arena, RNG stream, trace buffer) and
// advances independently inside half-open time windows [k·L, (k+1)·L). At
// each window boundary every region has reached the same time, and a
// RegionCoupler hands cross-region work over — single-threaded, in a fixed
// (time, source region, sequence) order — before the next window starts.
//
// The window length L is the conservative lookahead: no event executed
// inside a window may affect another region earlier than the next barrier.
// For the radio substrate that bound comes from frame airtime (a frame
// transmitted in window k cannot finish before barrier k+1 as long as
// L ≤ its on-air duration); src/radio/region_map.h derives it.
//
// Determinism contract (the DL003 guarantee ReplicationPool defends for
// replicates, extended to one run): the engine's output — every region's
// event stream, the merged trace, all statistics except host_timing(), which
// measures the host — is a pure function of (construction order, seed,
// regions, window). The thread count and the
// host's scheduling only decide which worker advances which region inside a
// window; regions never share mutable state inside a window, so output is
// byte-identical at any thread count, including threads=1.
//
// One region degenerates to the sequential Simulator exactly (region 0 keeps
// the run seed): with no lookahead to honour, RunUntil(end) runs region 0 to
// `end` as one window, and set_merged_trace_sink attaches the sink to region
// 0 directly. Every experiment runner takes this path.
//
// Host scheduling: inside a window every region is run by exactly one
// thread, its claimant. A thread first claims its home regions
// (region % threads == tid, so a region usually stays on one core), then
// steals whatever is still unclaimed, scanning from the highest region down.
// A window whose load sits in a few regions therefore spreads over all
// threads instead of waiting on the one that owns them.

#ifndef SRC_SIM_SHARDED_ENGINE_H_
#define SRC_SIM_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "src/sim/simulator.h"
#include "src/trace/trace.h"
#include "src/util/thread_annotations.h"
#include "src/util/time.h"

namespace diffusion {

// Couples regions at window barriers. The radio layer's RegionBridge is the
// production implementation; tests substitute their own.
class RegionCoupler {
 public:
  virtual ~RegionCoupler() = default;

  // Drains everything posted toward `dst_region` during the window that just
  // ended and schedules it into that region's simulator at or after
  // `barrier`. Runs on the barrier thread with every region quiescent,
  // invoked for regions in ascending order.
  virtual void DrainInto(int dst_region, SimTime barrier) = 0;
};

// Seed of region `region`'s Simulator under run seed `seed`. Region 0 keeps
// the run seed itself — a one-region sharded run reproduces the sequential
// engine byte-for-byte — and other regions get SplitMix64-derived
// independent streams.
uint64_t RegionSeed(uint64_t seed, int region);

struct ShardedEngineConfig {
  int regions = 1;
  // Worker threads advancing regions between barriers; 0 means
  // AvailableCpus() (the affinity mask). Clamped to the region count. Output
  // is identical for every value.
  unsigned threads = 1;
  // Conservative lookahead window (must be positive).
  SimDuration window = 1 * kMillisecond;
  uint64_t seed = 1;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(const ShardedEngineConfig& config);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int regions() const { return static_cast<int>(sims_.size()); }
  unsigned threads() const { return threads_; }
  SimDuration window() const { return window_; }

  Simulator& region_sim(int region) { return *sims_[static_cast<size_t>(region)]; }

  // The coupler is borrowed and drained at every barrier; null disables
  // cross-region handoff (isolated regions).
  void set_coupler(RegionCoupler* coupler) { coupler_ = coupler; }

  // Routes every region's trace into a per-region buffer and merges the
  // buffers into `sink` at each barrier, ordered by (time, region, per-region
  // emission order). The merged stream is invariant under the thread count.
  // Null detaches tracing. Constant memory: buffers drain every window. One
  // region traces straight into `sink`, which sees each event as emitted.
  void set_merged_trace_sink(TraceSink* sink);

  // Advances every region to `end` inclusive (the Simulator::RunUntil
  // convention) in conservative windows, draining the coupler and merging
  // traces at each barrier. Windows in which no region has an event are
  // skipped without a barrier; the windows that run keep their grid, so
  // output is the same as running every window (at one region, the span is
  // one window). Returns events executed across all regions during this
  // call. Subsequent calls continue from where the last ended, and every
  // region's now() reads `end` afterwards.
  uint64_t RunUntil(SimTime end);

  // Events executed across all regions since construction.
  uint64_t events_executed() const;

  // Windows run (barriers taken) since construction; skipped idle windows
  // are not counted. The same for one RunUntil(end) as for window-by-window
  // calls over the same span, except at one region: one per RunUntil call
  // with an event to run.
  uint64_t windows_run() const { return windows_run_; }

  // Host wall-clock instruments (src/util/host_clock.h) for the windows run
  // since construction. They describe how the host scheduled regions, differ
  // on every run, and never reach a trace, a fingerprint or a deterministic
  // bench row. A window's span is publish to last region done, on the
  // barrier thread; the serial barrier work between windows is in no span.
  struct HostTiming {
    // Per thread, the barrier thread last: ns spent running claimed regions.
    std::vector<uint64_t> busy_ns;
    // Per thread: ns of window span spent not running a region — wake
    // latency at the barrier plus load imbalance.
    std::vector<uint64_t> wait_ns;
    // Region runs by a thread other than the region's home thread.
    uint64_t regions_stolen = 0;

    // Σ wait_ns / Σ (busy_ns + wait_ns); 0 before the first window.
    double barrier_wait_share() const;
  };
  HostTiming host_timing() const;

 private:
  static unsigned ResolveThreads(const ShardedEngineConfig& config);

  void RunClaims(unsigned tid, uint64_t epoch);
  void TryRunRegion(size_t region, unsigned tid, uint64_t epoch);
  void RunWindow(SimTime bound);
  void MergeTraces();             // barrier thread only
  SimTime NextEventTime() const;  // earliest pending event, any region
  void WorkerLoop(unsigned tid);

  const SimDuration window_;
  const unsigned threads_;
  // Each region's simulator (and its per-region slots below) is touched by
  // one thread at a time: its claimant inside a window, the barrier thread
  // between windows. The epoch_/pending_ handoff below orders the two.
  std::vector<std::unique_ptr<Simulator>> sims_ DIFFUSION_REGION_PINNED;
  RegionCoupler* coupler_ DIFFUSION_BARRIER_OWNED = nullptr;

  TraceSink* merged_sink_ DIFFUSION_BARRIER_OWNED = nullptr;
  std::vector<std::unique_ptr<MemoryTraceSink>> region_traces_ DIFFUSION_REGION_PINNED;
  struct MergeRef {
    SimTime when;
    int region;
    size_t index;
  };
  std::vector<MergeRef> merge_scratch_ DIFFUSION_BARRIER_OWNED;

  SimTime cursor_ DIFFUSION_BARRIER_OWNED = 0;  // start of the next window
  uint64_t windows_run_ DIFFUSION_BARRIER_OWNED = 0;

  // Barrier. The barrier thread writes everything a window needs (the
  // regions' drained mailboxes, bound_, pending_), then publishes the window
  // by a release store of the next `epoch_`; claimants acquire it. Each
  // claimant hands its region back with a release decrement of `pending_`,
  // and the barrier thread's acquire read of 0 ends the window. Both sides
  // spin briefly, then park on the atomic (std::atomic::wait).
  alignas(64) std::atomic<uint64_t> epoch_{0};
  alignas(64) std::atomic<int> pending_{0};  // regions of the window not yet done
  // Exclusive end of the window of the current epoch. A claimant reads it
  // only after claiming a region: from then until its decrement the window
  // cannot end, so the barrier thread cannot rewrite it.
  SimTime bound_ DIFFUSION_BARRIER_OWNED = 0;
  // Per-region window state, one cache line per region so the claimants of
  // neighbouring regions do not false-share. `claim` is the epoch the region
  // was last claimed in: a thread claims it for epoch e by moving it from
  // below e to e, so every region has exactly one claimant per window, and a
  // thread that wakes after its window ended claims nothing. The claimant
  // writes the other fields before it decrements pending_; the barrier
  // thread reads them after the window.
  struct alignas(64) RegionSlot {
    std::atomic<uint64_t> claim{0};
    unsigned claimant = 0;          // thread that ran the region last window
    uint64_t events = 0;            // events executed since construction
    uint64_t busy_ns = 0;           // host ns the last window's run took
    std::exception_ptr error;       // escaped the last window's run
  };
  std::vector<RegionSlot> slots_ DIFFUSION_REGION_PINNED;
  // HostTiming totals, accumulated by the barrier thread after each window.
  uint64_t window_ns_ DIFFUSION_BARRIER_OWNED = 0;
  std::vector<uint64_t> thread_busy_ns_ DIFFUSION_BARRIER_OWNED;
  uint64_t regions_stolen_ DIFFUSION_BARRIER_OWNED = 0;
  std::vector<std::thread> workers_;
};

}  // namespace diffusion

#endif  // SRC_SIM_SHARDED_ENGINE_H_
