// Timer-interrupt emulation (paper §III: "Adding hooks at other keypoints of
// the thread scheduling such as timer interrupt or context switches permits
// to ensure a progression of communication").
//
// A real kernel/MARCEL delivers a timer interrupt on every core; on top of
// plain POSIX threads we emulate it with one periodic thread that performs a
// progression pass *on behalf of* one core per tick (round-robin). Without
// this, a machine whose every core is held by computation that never
// blocks (an application thread, or a task that does not return) would
// deadlock: nobody polls, requests never complete (the paper's exact
// motivation for the timer hook).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "core/task_manager.hpp"

namespace piom::sched {

class TimerHook {
 public:
  /// Starts a ticker calling tm.schedule(round_robin_cpu) every `period`.
  TimerHook(TaskManager& tm, std::chrono::microseconds period);
  ~TimerHook();

  TimerHook(const TimerHook&) = delete;
  TimerHook& operator=(const TimerHook&) = delete;

  void stop();

  /// Number of ticks fired so far.
  [[nodiscard]] uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

  /// Tasks executed from timer context (tests: proves the deadlock-avoidance
  /// path actually runs tasks when all cores are busy).
  [[nodiscard]] uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

 private:
  void loop();

  TaskManager& tm_;
  std::chrono::microseconds period_;
  std::atomic<bool> running_{true};
  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::thread thread_;
};

}  // namespace piom::sched
