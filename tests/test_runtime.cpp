// Tests for the sched::Runtime worker pool and its hooks (idle, blocking,
// timer): the integration points the paper relies on for background
// progression.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "core/task.hpp"
#include "core/task_manager.hpp"
#include "sched/runtime.hpp"
#include "sched/timer.hpp"
#include "util/timing.hpp"

namespace piom::sched {
namespace {

struct Env {
  topo::Machine machine;
  TaskManager tm;
  Runtime rt;

  explicit Env(topo::Machine m)
      : machine(std::move(m)), tm(machine), rt(machine, tm) {}
};

TEST(Runtime, TasksSeeTheirCpu) {
  Env env(topo::Machine::flat(4));
  std::atomic<int> seen_cpu{-1};
  FunctionTask probe(
      [&] {
        seen_cpu.store(Runtime::current_cpu());
        return TaskResult::kDone;
      },
      topo::CpuSet::single(2), kTaskNotify);
  env.tm.submit(&probe.task());
  probe.wait_done();
  EXPECT_EQ(seen_cpu.load(), 2);
  EXPECT_EQ(Runtime::current_cpu(), -1);  // the test thread is foreign
}

// Host CPU each worker of `rt` runs on: one task pinned to each simulated
// core records where it ran. Stealing respects CPU sets, so only worker c
// can run task c.
std::vector<int> worker_host_cpus(Runtime& rt) {
  std::vector<int> out(static_cast<std::size_t>(rt.ncpus()), -1);
  std::deque<FunctionTask> probes;
  for (int c = 0; c < rt.ncpus(); ++c) {
    int* slot = &out[static_cast<std::size_t>(c)];
    probes.emplace_back(
        [slot] {
          *slot = topo::current_host_cpu();
          return TaskResult::kDone;
        },
        topo::CpuSet::single(c), kTaskNotify);
    rt.task_manager().submit(&probes.back().task());
  }
  for (FunctionTask& p : probes) p.wait_done();
  return out;
}

TEST(Runtime, WorkersLeaveTheApplicationCpuFree) {
  // More host CPUs than workers: the constructing thread's CPU stays the
  // application's.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 4) GTEST_SKIP() << "needs >= 4 host CPUs";
  std::thread app([&] {
    if (!topo::pin_current_thread(1)) GTEST_SKIP() << "pinning not permitted";
    Env env(topo::Machine::flat(2));
    const std::vector<int> cpus = worker_host_cpus(env.rt);
    EXPECT_EQ(cpus, (std::vector<int>{0, 2}));
  });
  app.join();
}

TEST(Runtime, WorkerIPinnedToCpuIWhenWorkersFillTheHost) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw < 2) GTEST_SKIP() << "needs >= 2 host CPUs";
  std::thread app([&] {
    if (!topo::pin_current_thread(1)) GTEST_SKIP() << "pinning not permitted";
    Env env(topo::Machine::flat(hw));
    const std::vector<int> cpus = worker_host_cpus(env.rt);
    for (int c = 0; c < hw; ++c) {
      EXPECT_EQ(cpus[static_cast<std::size_t>(c)], c) << "worker " << c;
    }
  });
  app.join();
}

TEST(Runtime, IdleHookExecutesTasks) {
  // Submit a task to an otherwise idle runtime: a worker must pick it up
  // without anyone calling schedule() explicitly.
  Env env(topo::Machine::flat(4));
  std::atomic<int> hits{0};
  Task t;
  t.init(
      [](void* arg) {
        static_cast<std::atomic<int>*>(arg)->fetch_add(1);
        return TaskResult::kDone;
      },
      &hits, topo::CpuSet::single(1), kTaskNotify);
  env.tm.submit(&t);
  t.wait_done();
  EXPECT_EQ(hits.load(), 1);
  EXPECT_EQ(t.last_cpu.load(), 1);
}

TEST(Runtime, RepeatPollingTaskServicedWhileIdle) {
  Env env(topo::Machine::flat(2));
  struct Poll {
    std::atomic<int> remaining{200};
  } poll;
  Task t;
  t.init(
      [](void* arg) {
        auto* p = static_cast<Poll*>(arg);
        return (p->remaining.fetch_sub(1) <= 1) ? TaskResult::kDone
                                                : TaskResult::kAgain;
      },
      &poll, topo::CpuSet::single(0), kTaskRepeat | kTaskNotify);
  env.tm.submit(&t);
  t.wait_done();
  EXPECT_LE(poll.remaining.load(), 0);
}

TEST(Runtime, BlockingSectionSchedulesBeforeParking) {
  Env env(topo::Machine::flat(2));
  std::atomic<int> hits{0};
  Task t;
  t.init(
      [](void* arg) {
        static_cast<std::atomic<int>*>(arg)->fetch_add(1);
        return TaskResult::kDone;
      },
      &hits, topo::CpuSet::single(0), kTaskNone);
  // Submit from a foreign thread, then enter a blocking section: the hook
  // must give the task manager a pass (foreign threads hash to some core;
  // retry from both cores via schedule_here until the task runs).
  env.tm.submit(&t);
  {
    BlockingSection bs(env.rt);  // one progression pass happens here
  }
  // The idle workers will run it anyway; the point is it completes promptly.
  const int64_t deadline = util::now_ns() + 1'000'000'000;
  while (!t.completed() && util::now_ns() < deadline) std::this_thread::yield();
  EXPECT_TRUE(t.completed());
}

TEST(Runtime, TimerHookGuaranteesProgressWhenAllCoresBusy) {
  // The paper's deadlock scenario: every core runs a CPU-hungry task that
  // never returns; without the timer hook the polling task would starve.
  topo::Machine machine = topo::Machine::flat(2);
  TaskManager tm(machine);
  Runtime rt(machine, tm);

  std::atomic<int> spinners_started{0};
  std::atomic<bool> release{false};
  // Occupy both workers with pinned tasks that spin until released.
  std::deque<FunctionTask> spinners;
  for (int c = 0; c < 2; ++c) {
    spinners.emplace_back(
        [&] {
          spinners_started.fetch_add(1);
          while (!release.load(std::memory_order_acquire)) {
            // busy: never returns to the idle hook
          }
          return TaskResult::kDone;
        },
        topo::CpuSet::single(c), kTaskNotify);
    tm.submit(&spinners.back().task());
  }
  while (spinners_started.load() < 2) std::this_thread::yield();
  // Start the timer only now: earlier, its thread could pick up a spinner
  // itself and never tick again.
  TimerHook timer(tm, std::chrono::microseconds(200));

  std::atomic<bool> task_ran{false};
  Task t;
  t.init(
      [](void* arg) {
        static_cast<std::atomic<bool>*>(arg)->store(true);
        return TaskResult::kDone;
      },
      &task_ran, topo::CpuSet::single(0), kTaskNone);
  tm.submit(&t);
  const int64_t deadline = util::now_ns() + 2'000'000'000;
  while (!t.completed() && util::now_ns() < deadline) std::this_thread::yield();
  release.store(true, std::memory_order_release);
  for (FunctionTask& s : spinners) s.wait_done();
  EXPECT_TRUE(task_ran.load()) << "timer hook failed to rescue the task";
  EXPECT_GT(timer.ticks(), 0u);
  EXPECT_GE(timer.tasks_run(), 1u);
}

TEST(Runtime, StressBurnAndCountingTasksTogether) {
  Env env(topo::Machine::kwak());
  constexpr int kBurns = 200;
  constexpr int kTasks = 500;
  std::atomic<int> burns_done{0};
  std::atomic<int> tasks_done{0};
  std::deque<Task> tasks(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks[static_cast<std::size_t>(i)].init(
        [](void* arg) {
          static_cast<std::atomic<int>*>(arg)->fetch_add(1);
          return TaskResult::kDone;
        },
        &tasks_done, topo::CpuSet::single(i % 16), kTaskNone);
  }
  std::deque<FunctionTask> burns;
  for (int i = 0; i < kBurns; ++i) {
    burns.emplace_back(
        [&] {
          util::burn_cpu_us(50);
          burns_done.fetch_add(1);
          return TaskResult::kDone;
        },
        topo::CpuSet::single(i % 16), kTaskNone);
  }
  std::thread submitter([&] {
    for (auto& t : tasks) env.tm.submit(&t);
  });
  for (auto& b : burns) env.tm.submit(&b.task());
  submitter.join();
  const int64_t deadline = util::now_ns() + 5'000'000'000;
  while ((burns_done.load() < kBurns || tasks_done.load() < kTasks) &&
         util::now_ns() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(burns_done.load(), kBurns);
  EXPECT_EQ(tasks_done.load(), kTasks);
  // Task lifetime contract: storage must stay alive until completed() —
  // the counter bump happens *inside* the task fn, before the scheduler's
  // final state store, so wait for each task before the deques die.
  const auto await = [&](const auto& t) {
    while (!t.completed() && util::now_ns() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(t.completed());
  };
  for (const auto& t : tasks) await(t);
  for (const auto& b : burns) await(b);
}

TEST(Runtime, StopIsIdempotentAndDtorSafe) {
  Env env(topo::Machine::flat(2));
  env.rt.stop();
  env.rt.stop();
  SUCCEED();
}

}  // namespace
}  // namespace piom::sched
