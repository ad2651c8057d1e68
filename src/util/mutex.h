// An annotated mutex: std::mutex wrapped as a clang thread-safety
// capability.
//
// libstdc++'s std::mutex carries no capability attributes, so members
// annotated DIFFUSION_GUARDED_BY(raw_std_mutex) would be unverifiable. This
// wrapper is the designated capability type for the repo: Lock/Unlock are
// annotated, MutexLock is the scoped guard the analysis understands, and
// Wait() interoperates with std::condition_variable while keeping the
// capability held across the wait (the mutex is reacquired before return,
// so the guarded-member view inside a wait loop is sound).
//
// Idiomatic wait loop (the predicate reads mu_-guarded members, which the
// analysis can check because MutexLock holds mu_ for the whole block):
//
//   Mutex mu_;
//   std::condition_variable ready_cv_;
//   bool ready_ DIFFUSION_GUARDED_BY(mu_) = false;
//
//   MutexLock lock(mu_);
//   while (!ready_) {
//     lock.Wait(ready_cv_);
//   }

#ifndef SRC_UTIL_MUTEX_H_
#define SRC_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "src/util/thread_annotations.h"

namespace diffusion {

class DIFFUSION_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DIFFUSION_ACQUIRE() { mu_.lock(); }
  void Unlock() DIFFUSION_RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

// RAII guard: acquires `mu` for the enclosing scope. The only way to wait on
// a condition variable under a Mutex (std::condition_variable needs the
// underlying std::unique_lock, which only MutexLock can reach).
class DIFFUSION_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DIFFUSION_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() DIFFUSION_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // One blocking wait on `cv`. The mutex is atomically released for the
  // duration and reacquired before return; from the analysis's point of
  // view the capability is held throughout, which is exactly the guarantee
  // a `while (!pred()) lock.Wait(cv);` loop needs.
  void Wait(std::condition_variable& cv) { cv.wait(lock_); }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace diffusion

#endif  // SRC_UTIL_MUTEX_H_
