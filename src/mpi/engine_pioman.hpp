// PiomanEngine — the paper's system (MAD-MPI over NewMadeleine + PIOMan).
//
//   * One PiomanNode per node (paper §III: one PIOMan per node): World
//     owns one for all its ranks, a multi-process rank owns its own, and
//     every rank's engine borrows it. All ranks' tasks feed the node's one
//     task manager and run on its one set of workers.
//   * One repeatable polling task per (gate, rail), submitted to the task
//     manager with a cpuset of cores sharing a cache (paper §IV-B), executed
//     by idle runtime workers, the timer hook and every blocking-section
//     pass.
//   * isend defers packet submission (paper §IV-B) and submits no task of
//     its own: it queues the message on the gate and returns, and the
//     gate's poll task packs and posts it on its next pass.
//   * wait blocks on the request's semaphore inside a BlockingSection —
//     receiving threads do NOT poll, which keeps the Fig-4 latency flat. A
//     thread waiting on a send first flushes that send's gate, so the
//     message never waits for a poll task held by a preempted worker.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <unordered_set>

#include "core/task_manager.hpp"
#include "mpi/engine.hpp"
#include "nmad/session.hpp"
#include "sched/runtime.hpp"
#include "sched/timer.hpp"
#include "sync/spinlock.hpp"
#include "topo/machine.hpp"

namespace piom::mpi {

struct PiomanEngineConfig {
  /// Simulated cores of the PIOMan node (runtime workers doing the
  /// polling). The node is shared by every rank of a World, so this is the
  /// World's worker count, not a per-rank one. The default leaves the
  /// application one usable host CPU: the runtime pins the workers to the
  /// others, so progression runs in the holes of the schedule instead of
  /// preempting the computation.
  int workers = std::max(1, topo::usable_cpus().count() - 1);
};

/// One PIOMan progression node: `workers` simulated cores, the task
/// manager every rank's poll tasks feed, the runtime whose workers run
/// them, and the timer hook that runs them every 100 µs whatever the
/// workers are doing. The machine, task manager, runtime and timer are
/// built once and never reseated; their own shared state is internally
/// synchronised. The one mutable piece of node state is the poll-task
/// placement cursor.
class PiomanNode {
 public:
  explicit PiomanNode(int workers);
  ~PiomanNode() { stop(); }

  PiomanNode(const PiomanNode&) = delete;
  PiomanNode& operator=(const PiomanNode&) = delete;

  /// Stop the timer, then join the workers (idempotent). Every engine on
  /// the node must have shut down first: their tasks reference rank state.
  void stop();

  /// Home core for the next poll task: round-robin across the node, so
  /// the poll tasks of all ranks spread over every core.
  int next_home();

  [[nodiscard]] const topo::Machine& machine() const { return machine_; }
  [[nodiscard]] TaskManager& task_manager() { return tm_; }
  [[nodiscard]] sched::Runtime& runtime() { return runtime_; }

 private:
  static constexpr std::chrono::microseconds kTimerPeriod{100};

  const topo::Machine machine_;
  TaskManager tm_;
  sched::Runtime runtime_;
  sched::TimerHook timer_;
  sync::SpinLock home_lock_;
  int home_ PIOM_GUARDED_BY(home_lock_) = 0;
};

class PiomanEngine final : public Engine {
 public:
  /// `session` and `node` must outlive the engine; the engine schedules
  /// into `node` but never stops it. Call start_progress() after the
  /// session's gates are created.
  PiomanEngine(nmad::Session& session, PiomanNode& node);
  ~PiomanEngine() override;

  /// Install one repeatable polling task per (gate, rail) for the gates
  /// that exist now. Gates created later (lazy wiring) must be handed to
  /// watch_gate() — the membership layer's on_gate_created hook does.
  void start_progress();

  /// Start background polling of a (possibly late) gate: one repeatable
  /// poll task per rail. Idempotent per gate, thread-safe (lazy gates are
  /// installed from whichever thread first talks to the peer, including
  /// poll tasks relaying forwarded traffic); a no-op once shutdown began.
  void watch_gate(nmad::Gate& gate);

  void isend(Request& req, nmad::Gate& gate, Tag tag, const void* buf,
             std::size_t len) override;
  void irecv(Request& req, nmad::Gate& gate, Tag tag, void* buf,
             std::size_t cap) override;
  void irecv_any(Request& req, nmad::WildSet& wilds, Tag tag, void* buf,
                 std::size_t cap) override;
  void wait(Request& req) override;
  bool test(Request& req) override;
  bool test_coll(CollOp& op) override;
  void wait_coll(CollOp& op) override;
  [[nodiscard]] std::string name() const override { return "pioman"; }
  /// Finish this rank's poll tasks, then flush each watched gate once, so
  /// every send issued before the call reaches the wire. The node's
  /// workers keep running for the other ranks; its owner stops it.
  void shutdown() override;

  /// The node's task manager, shared with every other rank on the node.
  [[nodiscard]] TaskManager& task_manager() { return node_.task_manager(); }

 private:
  struct PollTask {
    piom::Task task;
    nmad::Gate* gate = nullptr;
    int rail = 0;
    PiomanEngine* engine = nullptr;
  };
  static TaskResult poll_trampoline(void* arg);

  nmad::Session& session_;
  PiomanNode& node_;
  /// Poll-task table. The deque grows while tasks run (late gates), so the
  /// lock guards every structural access; PollTask storage is stable once
  /// emplaced. watched_ dedups watch_gate.
  sync::SpinLock poll_lock_;
  std::deque<PollTask> poll_tasks_ PIOM_GUARDED_BY(poll_lock_);
  std::unordered_set<nmad::Gate*> watched_ PIOM_GUARDED_BY(poll_lock_);
  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace piom::mpi
