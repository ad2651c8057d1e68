#include "src/sim/sharded_engine.h"

#include <algorithm>

#include "src/sim/available_cpus.h"
#include "src/util/host_clock.h"

namespace diffusion {

uint64_t RegionSeed(uint64_t seed, int region) {
  if (region == 0) {
    return seed;
  }
  // One SplitMix64 step over (seed, region) — the same mix Rng uses to
  // expand seeds, so region streams are as independent as forked ones.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(region);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Rounds a waiter yields before it parks on the atomic. Yielding, rather
// than a pause loop, keeps an oversubscribed run (more threads than CPUs)
// from burning the CPU the thread it waits for needs; ~200 rounds cover the
// barrier's serial section on a busy window, so a waiter rarely parks.
constexpr int kSpinRounds = 200;

// Epoch value that tells workers to exit; window epochs count up from 1.
constexpr uint64_t kStopEpoch = ~uint64_t{0};

// The first value of `atomic` that differs from `old` (acquire): yields for
// kSpinRounds rounds, then parks in std::atomic::wait.
template <typename T>
T AwaitChange(const std::atomic<T>& atomic, T old) {
  for (int round = 0;; ++round) {
    const T value = atomic.load(std::memory_order_acquire);
    if (value != old) {
      return value;
    }
    if (round < kSpinRounds) {
      std::this_thread::yield();
    } else {
      atomic.wait(old, std::memory_order_acquire);
    }
  }
}

}  // namespace

unsigned ShardedEngine::ResolveThreads(const ShardedEngineConfig& config) {
  const int regions = std::max(1, config.regions);
  const unsigned threads = config.threads == 0 ? AvailableCpus() : config.threads;
  return std::max(1u, std::min(threads, static_cast<unsigned>(regions)));
}

ShardedEngine::ShardedEngine(const ShardedEngineConfig& config)
    : window_(config.window > 0 ? config.window : 1 * kMillisecond),
      threads_(ResolveThreads(config)),
      slots_(static_cast<size_t>(std::max(1, config.regions))) {
  const int regions = std::max(1, config.regions);
  sims_.reserve(static_cast<size_t>(regions));
  for (int r = 0; r < regions; ++r) {
    sims_.push_back(std::make_unique<Simulator>(RegionSeed(config.seed, r)));
  }
  thread_busy_ns_.assign(threads_, 0);
  // Workers are tids [0, threads-1); the barrier thread claims as the last
  // tid inline. threads==1 spawns nothing and runs regions in order.
  for (unsigned tid = 0; tid + 1 < threads_; ++tid) {
    workers_.emplace_back([this, tid] { WorkerLoop(tid); });
  }
}

ShardedEngine::~ShardedEngine() {
  epoch_.store(kStopEpoch, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ShardedEngine::set_merged_trace_sink(TraceSink* sink) {
  if (sims_.size() == 1) {
    // Merging one stream gives back that stream: trace straight into `sink`.
    sims_[0]->set_trace_sink(sink);
    return;
  }
  merged_sink_ = sink;
  if (sink != nullptr && region_traces_.empty()) {
    region_traces_.reserve(sims_.size());
    for (size_t r = 0; r < sims_.size(); ++r) {
      region_traces_.push_back(std::make_unique<MemoryTraceSink>());
    }
  }
  for (size_t r = 0; r < sims_.size(); ++r) {
    sims_[r]->set_trace_sink(sink != nullptr ? region_traces_[r].get() : nullptr);
  }
}

void ShardedEngine::TryRunRegion(size_t region, unsigned tid, uint64_t epoch) {
  // Relaxed is enough: the acquire of `epoch` already ordered this thread
  // after the barrier's writes, and the claim only has to be exclusive.
  RegionSlot& slot = slots_[region];
  uint64_t last = slot.claim.load(std::memory_order_relaxed);
  if (last >= epoch ||
      !slot.claim.compare_exchange_strong(last, epoch, std::memory_order_relaxed)) {
    return;
  }
  const uint64_t start = HostNowNs();
  try {
    slot.events += sims_[region]->RunUntil(bound_ - 1);
  } catch (...) {
    slot.error = std::current_exception();
  }
  slot.busy_ns = HostNowNs() - start;
  slot.claimant = tid;
  if (pending_.fetch_sub(1, std::memory_order_release) == 1) {
    pending_.notify_one();
  }
}

void ShardedEngine::RunClaims(unsigned tid, uint64_t epoch) {
  // Home regions first, so a region stays on one core while the load is
  // even; then steal from the top down, meeting the home threads (which
  // walk their regions upward) from the other end.
  const size_t regions = sims_.size();
  for (size_t r = tid; r < regions; r += threads_) {
    TryRunRegion(r, tid, epoch);
  }
  for (size_t r = regions; r-- > 0;) {
    if (r % threads_ != tid) {
      TryRunRegion(r, tid, epoch);
    }
  }
}

void ShardedEngine::WorkerLoop(unsigned tid) {
  uint64_t seen = 0;
  for (;;) {
    seen = AwaitChange(epoch_, seen);
    if (seen == kStopEpoch) {
      return;
    }
    RunClaims(tid, seen);
  }
}

void ShardedEngine::RunWindow(SimTime bound) {
  const uint64_t start = HostNowNs();
  bound_ = bound;
  pending_.store(regions(), std::memory_order_relaxed);
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(epoch, std::memory_order_release);
  epoch_.notify_all();
  RunClaims(threads_ - 1, epoch);
  for (int left = pending_.load(std::memory_order_acquire); left != 0;) {
    left = AwaitChange(pending_, left);
  }
  window_ns_ += HostNowNs() - start;
  for (size_t r = 0; r < slots_.size(); ++r) {
    thread_busy_ns_[slots_[r].claimant] += slots_[r].busy_ns;
    if (slots_[r].claimant != r % threads_) {
      ++regions_stolen_;
    }
  }
  for (RegionSlot& slot : slots_) {
    if (slot.error != nullptr) {
      std::exception_ptr error = slot.error;
      slot.error = nullptr;
      std::rethrow_exception(error);
    }
  }
}

void ShardedEngine::MergeTraces() {
  if (merged_sink_ == nullptr) {
    return;
  }
  merge_scratch_.clear();
  for (size_t r = 0; r < region_traces_.size(); ++r) {
    const std::vector<TraceEvent>& events = region_traces_[r]->events();
    for (size_t i = 0; i < events.size(); ++i) {
      merge_scratch_.push_back(MergeRef{events[i].when, static_cast<int>(r), i});
    }
  }
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const MergeRef& a, const MergeRef& b) {
              if (a.when != b.when) {
                return a.when < b.when;
              }
              if (a.region != b.region) {
                return a.region < b.region;
              }
              return a.index < b.index;
            });
  for (const MergeRef& ref : merge_scratch_) {
    merged_sink_->OnEvent(region_traces_[static_cast<size_t>(ref.region)]->events()[ref.index]);
  }
  for (const auto& buffer : region_traces_) {
    buffer->Clear();
  }
}

SimTime ShardedEngine::NextEventTime() const {
  SimTime next = kMaxSimTime;
  for (const auto& sim : sims_) {
    next = std::min(next, sim->scheduler().next_time());
  }
  return next;
}

uint64_t ShardedEngine::RunUntil(SimTime end) {
  uint64_t before = events_executed();
  while (cursor_ <= end) {
    // One region has no lookahead to honour: its whole span is one window.
    const SimDuration window = regions() > 1 ? window_ : end + 1 - cursor_;
    // Jump over windows in which no region has an event: nothing would run,
    // post to a mailbox or trace there. Windows stay on the cursor_ + k·L
    // grid, so the windows that do run are the same ones an engine without
    // the skip runs. Comparing against the trimmed bound keeps one
    // RunUntil(end) and window-by-window calls in agreement on the final
    // window.
    const SimTime next = NextEventTime();
    if (next >= std::min<SimTime>(cursor_ + window, end + 1)) {
      if (next > end) {
        cursor_ = end + 1;
        break;
      }
      cursor_ += (next - cursor_) / window * window;
    }
    // Half-open window [cursor, bound): RunUntil is inclusive, so regions
    // advance to bound-1. The final window is trimmed to end inclusive.
    const SimTime bound = std::min<SimTime>(cursor_ + window, end + 1);
    RunWindow(bound);
    if (coupler_ != nullptr) {
      for (int r = 0; r < regions(); ++r) {
        coupler_->DrainInto(r, bound);
      }
    }
    MergeTraces();
    ++windows_run_;
    cursor_ = bound;
  }
  // After an idle tail the region clocks still read the last window run;
  // move them to `end` (no region has an event at or before it), so now()
  // reads `end` exactly as it would had every window run.
  for (const auto& sim : sims_) {
    sim->RunUntil(end);
  }
  return events_executed() - before;
}

uint64_t ShardedEngine::events_executed() const {
  uint64_t total = 0;
  for (const RegionSlot& slot : slots_) {
    total += slot.events;
  }
  return total;
}

ShardedEngine::HostTiming ShardedEngine::host_timing() const {
  HostTiming timing;
  timing.busy_ns = thread_busy_ns_;
  for (uint64_t busy : thread_busy_ns_) {
    timing.wait_ns.push_back(window_ns_ > busy ? window_ns_ - busy : 0);
  }
  timing.regions_stolen = regions_stolen_;
  return timing;
}

double ShardedEngine::HostTiming::barrier_wait_share() const {
  uint64_t busy = 0;
  uint64_t wait = 0;
  for (size_t t = 0; t < busy_ns.size(); ++t) {
    busy += busy_ns[t];
    wait += wait_ns[t];
  }
  return busy + wait > 0 ? static_cast<double>(wait) / static_cast<double>(busy + wait) : 0.0;
}

}  // namespace diffusion
