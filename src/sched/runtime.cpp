#include "sched/runtime.hpp"

#include <chrono>
#include <functional>

#include "sync/backoff.hpp"

namespace piom::sched {

namespace {
thread_local int tls_current_cpu = -1;

/// Idle iterations of the pure Algorithm-1 walk before a worker escalates
/// to work stealing (spin → steal → nap): a core that just ran work polls
/// its own branch cheaply first; only a persistently dry core starts
/// scanning victim queues.
constexpr int kIdleSpinsBeforeSteal = 4;
/// How long an idle worker keeps spinning on schedule() before it naps
/// (it never naps while reachable queues hold tasks, so polling tasks are
/// serviced continuously — PIOMan busy-polls on idle cores).
constexpr int kIdleSpinsBeforeNap = 256;
/// Nap length for a fully idle worker.
constexpr std::chrono::microseconds kIdleNap{200};
}  // namespace

Runtime::Runtime(const topo::Machine& machine, TaskManager& tm)
    : machine_(machine), tm_(tm) {
  const int n = machine_.ncpus();
  workers_.reserve(static_cast<std::size_t>(n));
  // Usable host CPUs in order, skipping the application's when there is a
  // spare. Workers beyond the host's CPUs stay unpinned (host CPU -1).
  topo::CpuSet host = topo::usable_cpus();
  if (n < host.count()) {
    const int app_cpu = topo::current_host_cpu();
    if (host.test(app_cpu)) host.clear(app_cpu);
  }
  int host_cpu = host.first();
  for (int c = 0; c < n; ++c) {
    workers_.emplace_back([this, c, host_cpu] { worker_loop(c, host_cpu); });
    if (host_cpu >= 0) host_cpu = host.next(host_cpu);
  }
}

Runtime::~Runtime() { stop(); }

int Runtime::current_cpu() { return tls_current_cpu; }

void Runtime::worker_loop(int cpu, int host_cpu) {
  tls_current_cpu = cpu;
  // Best effort: a no-op when host_cpu is -1 or pinning is not permitted.
  topo::pin_current_thread(host_cpu);
  int idle_spins = 0;
  while (running_.load(std::memory_order_acquire)) {
    // 1. Idle hook: run communication tasks. Escalation ladder: a freshly
    //    idle core walks only its own branch (Algorithm 1); one that stayed
    //    dry escalates to the stealing walk; a fully idle one naps below.
    const int executed = (idle_spins < kIdleSpinsBeforeSteal)
                             ? tm_.schedule_from_level(cpu, topo::Level::kCore)
                             : tm_.schedule(cpu);
    if (executed > 0) {
      idle_spins = 0;
      continue;
    }
    // 2. Fully idle. Keep spinning while any queue holds tasks somewhere
    //    (they may become reachable / repeatable polls need servicing),
    //    otherwise nap.
    ++idle_spins;
    if (idle_spins < kIdleSpinsBeforeNap || tm_.pending_approx() > 0) {
      sync::cpu_relax();
      continue;
    }
    std::this_thread::sleep_for(kIdleNap);
    idle_spins = 0;
  }
  tls_current_cpu = -1;
}

int Runtime::schedule_here() {
  int cpu = current_cpu();
  if (cpu < 0) {
    // Foreign thread: progress on behalf of a stable thread-hashed core.
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    cpu = static_cast<int>(h % static_cast<std::size_t>(ncpus()));
  }
  return tm_.schedule(cpu);
}

void Runtime::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

}  // namespace piom::sched
