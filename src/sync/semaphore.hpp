// Counting semaphore used for task/request completion notification
// (PIOMan's piom_sem_t). The fast path is a lock-free counter; a waiter
// that finds no unit parks on a condition variable at once, so blocked
// MPI_Recv threads do not burn cores — this is exactly what keeps the Fig 4
// multithreaded latency flat. There is no spin phase: the CPU a waiter
// would spin on is the one the progression workers and the application
// need (a 4096-pause spin cost ~87 µs per wait against a ~2 µs message).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace piom::sync {

class Semaphore {
 public:
  explicit Semaphore(int initial = 0) : count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// V(): release one unit and wake a waiter if any.
  void post();

  /// P(): acquire one unit, parking on the condvar at once when none is
  /// available.
  void wait();

  /// Non-blocking P(). True on success.
  bool try_wait();

  /// Current value (may be stale under concurrency; for tests/stats).
  [[nodiscard]] int value() const {
    return count_.load(std::memory_order_acquire);
  }

 private:
  // count_ >= 0: available units. count_ < 0: -count_ parked waiters.
  std::atomic<int> count_;
  std::mutex mutex_;
  std::condition_variable cv_;
  // Wakeups already produced by post() but not yet consumed by a parked
  // waiter (protected by mutex_).
  int wakeups_ = 0;
};

}  // namespace piom::sync
