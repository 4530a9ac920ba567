#include "sync/semaphore.hpp"

namespace piom::sync {

void Semaphore::post() {
  const int prev = count_.fetch_add(1, std::memory_order_release);
  if (prev < 0) {
    // At least one waiter is parked (or about to park): hand it a wakeup.
    std::lock_guard<std::mutex> lk(mutex_);
    ++wakeups_;
    cv_.notify_one();
  }
}

void Semaphore::wait() {
  const int prev = count_.fetch_sub(1, std::memory_order_acquire);
  if (prev > 0) return;  // took an available unit
  std::unique_lock<std::mutex> lk(mutex_);
  cv_.wait(lk, [this] { return wakeups_ > 0; });
  --wakeups_;
}

bool Semaphore::try_wait() {
  int cur = count_.load(std::memory_order_relaxed);
  while (cur > 0) {
    if (count_.compare_exchange_weak(cur, cur - 1, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace piom::sync
