// sched::Runtime — stand-in for the MARCEL thread scheduler the paper hooks
// into. It owns one worker thread per simulated core (pinned to a host CPU
// when permitted) and invokes the TaskManager at the same keypoints MARCEL
// triggers PIOMan:
//   * CPU idleness      — a worker with no application job schedules tasks;
//   * blocking sections — a BlockingSection schedules before parking
//                         (paper: "a thread enters a blocking section ...
//                         the task is processed");
//   * timer interrupt   — see sched/timer.hpp: a periodic thread guarantees
//                         progress even when every core runs CPU-hungry jobs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/task_manager.hpp"
#include "topo/machine.hpp"

namespace piom::sched {

struct RuntimeConfig {
  /// Pin each worker to a host CPU of its own (best effort; ignored when
  /// the host has fewer CPUs or pinning is not permitted). Worker i gets
  /// the i-th usable host CPU (topo::usable_cpus()), except that a host
  /// with more usable CPUs than workers keeps the constructing thread's CPU
  /// free for the application: progression runs on the cores the
  /// computation does not use.
  bool pin_threads = true;
  /// Idle iterations of the pure Algorithm-1 walk before a worker escalates
  /// to work stealing (spin → steal → nap): a core that just ran work polls
  /// its own branch cheaply first; only a persistently dry core starts
  /// scanning victim queues. 0 = steal on the first dry pass.
  int idle_spins_before_steal = 4;
  /// How long an idle worker keeps spinning on schedule() before it naps
  /// (it never naps while reachable queues hold tasks, so polling tasks are
  /// serviced continuously — PIOMan busy-polls on idle cores).
  int idle_spins_before_nap = 256;
  /// Nap length for a fully idle worker (woken early by submit_job).
  std::chrono::microseconds idle_nap{200};
};

/// Worker occupancy; quiesce() waits until no worker is kBusy.
enum class WorkerState : uint8_t {
  kIdle = 0,  ///< no application job; polling / napping
  kBusy = 1,  ///< running an application job
};

class Runtime {
 public:
  /// `machine` and `tm` must outlive the runtime. Spawns ncpus() workers.
  Runtime(const topo::Machine& machine, TaskManager& tm,
          RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Enqueue an application ("computation") job on core `cpu`'s worker.
  void submit_job(int cpu, std::function<void()> job);

  /// Simulated-core id of the calling thread: worker index for workers,
  /// -1 for foreign threads.
  [[nodiscard]] static int current_cpu();

  /// One progression step on behalf of the calling thread: uses its own
  /// core when it is a worker, else a thread-hashed core. Returns tasks run.
  int schedule_here();

  /// Number of jobs executed so far (tests).
  [[nodiscard]] uint64_t jobs_run() const {
    return jobs_run_.load(std::memory_order_relaxed);
  }

  /// Wait until every submitted job has finished and all workers are idle.
  void quiesce();

  void stop();  ///< join all workers (idempotent; called by dtor)

  [[nodiscard]] TaskManager& task_manager() { return tm_; }
  [[nodiscard]] const topo::Machine& machine() const { return machine_; }
  [[nodiscard]] int ncpus() const { return machine_.ncpus(); }

 private:
  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::function<void()>> jobs;
    std::atomic<WorkerState> state{WorkerState::kIdle};
    std::atomic<uint64_t> pending_jobs{0};
  };

  void worker_loop(int cpu, int host_cpu);

  const topo::Machine& machine_;
  TaskManager& tm_;
  RuntimeConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{true};
  std::atomic<uint64_t> jobs_run_{0};
  std::atomic<uint64_t> jobs_submitted_{0};
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
