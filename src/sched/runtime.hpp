// sched::Runtime — stand-in for the MARCEL thread scheduler the paper hooks
// into. It owns one worker thread per simulated core (pinned to a host CPU
// when permitted) and invokes the TaskManager at the same keypoints MARCEL
// triggers PIOMan:
//   * CPU idleness      — a worker schedules tasks from its queue hierarchy
//                         whenever the core is free;
//   * blocking sections — a BlockingSection schedules before parking
//                         (paper: "a thread enters a blocking section ...
//                         the task is processed");
//   * timer interrupt   — see sched/timer.hpp: a periodic thread guarantees
//                         progress even when every core runs a task that
//                         never returns.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "core/task_manager.hpp"
#include "topo/machine.hpp"

namespace piom::sched {

class Runtime {
 public:
  /// `machine` and `tm` must outlive the runtime. Spawns ncpus() workers.
  /// Worker i is pinned to the i-th usable host CPU (topo::usable_cpus(),
  /// best effort), except that a host with more usable CPUs than workers
  /// keeps the constructing thread's CPU free for the application:
  /// progression runs on the cores the computation does not use.
  Runtime(const topo::Machine& machine, TaskManager& tm);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Simulated-core id of the calling thread: worker index for workers,
  /// -1 for foreign threads.
  [[nodiscard]] static int current_cpu();

  /// One progression step on behalf of the calling thread: uses its own
  /// core when it is a worker, else a thread-hashed core. Returns tasks run.
  int schedule_here();

  void stop();  ///< join all workers (idempotent; called by dtor)

  [[nodiscard]] TaskManager& task_manager() { return tm_; }
  [[nodiscard]] const topo::Machine& machine() const { return machine_; }
  [[nodiscard]] int ncpus() const { return machine_.ncpus(); }

 private:
  void worker_loop(int cpu, int host_cpu);

  const topo::Machine& machine_;
  TaskManager& tm_;
  std::atomic<bool> running_{true};
  std::vector<std::thread> workers_;
};

/// Blocking-section hook. A thread about to block (e.g. on a request
/// semaphore) wraps the wait in a BlockingSection: the scheduler gets one
/// progression pass on the thread's behalf before it parks (paper: "a
/// thread enters a blocking section ... the task is processed").
class BlockingSection {
 public:
  explicit BlockingSection(Runtime& rt) { rt.schedule_here(); }

  BlockingSection(const BlockingSection&) = delete;
  BlockingSection& operator=(const BlockingSection&) = delete;
};

}  // namespace piom::sched
