#include "sched/runtime.hpp"

#include <functional>

#include "sync/backoff.hpp"

namespace piom::sched {

namespace {
thread_local int tls_current_cpu = -1;
}  // namespace

Runtime::Runtime(const topo::Machine& machine, TaskManager& tm,
                 RuntimeConfig config)
    : machine_(machine), tm_(tm), config_(config) {
  const int n = machine_.ncpus();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Usable host CPUs in order, skipping the application's when there is a
  // spare. Workers beyond the host's CPUs stay unpinned (host CPU -1).
  topo::CpuSet host = topo::usable_cpus();
  if (n < host.count()) {
    const int app_cpu = topo::current_host_cpu();
    if (host.test(app_cpu)) host.clear(app_cpu);
  }
  int host_cpu = host.first();
  for (int c = 0; c < n; ++c) {
    workers_[static_cast<std::size_t>(c)]->thread =
        std::thread([this, c, host_cpu] { worker_loop(c, host_cpu); });
    if (host_cpu >= 0) host_cpu = host.next(host_cpu);
  }
}

Runtime::~Runtime() { stop(); }

int Runtime::current_cpu() { return tls_current_cpu; }

void Runtime::worker_loop(int cpu, int host_cpu) {
  tls_current_cpu = cpu;
  if (config_.pin_threads) topo::pin_current_thread(host_cpu);
  Worker& w = *workers_[static_cast<std::size_t>(cpu)];
  int idle_spins = 0;
  while (running_.load(std::memory_order_acquire)) {
    // 1. Application jobs have priority (PIOMan only consumes *holes* in the
    //    schedule; it never steals time from computation).
    std::function<void()> job;
    if (w.pending_jobs.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lk(w.mutex);
      if (!w.jobs.empty()) {
        job = std::move(w.jobs.front());
        w.jobs.pop_front();
        w.pending_jobs.fetch_sub(1, std::memory_order_release);
      }
    }
    if (job) {
      w.state.store(WorkerState::kBusy, std::memory_order_release);
      job();
      w.state.store(WorkerState::kIdle, std::memory_order_release);
      jobs_run_.fetch_add(1, std::memory_order_release);
      idle_spins = 0;
      continue;
    }
    // 2. Idle hook: run communication tasks. Escalation ladder: a freshly
    //    idle core walks only its own branch (Algorithm 1); one that stayed
    //    dry escalates to the stealing walk; a fully idle one naps below.
    const int executed = (idle_spins < config_.idle_spins_before_steal)
                             ? tm_.schedule_from_level(cpu, topo::Level::kCore)
                             : tm_.schedule(cpu);
    if (executed > 0) {
      idle_spins = 0;
      continue;
    }
    // 3. Fully idle. Keep spinning while any queue holds tasks somewhere
    //    (they may become reachable / repeatable polls need servicing),
    //    otherwise nap until a job arrives.
    ++idle_spins;
    if (idle_spins < config_.idle_spins_before_nap ||
        tm_.pending_approx() > 0) {
      sync::cpu_relax();
      continue;
    }
    std::unique_lock<std::mutex> lk(w.mutex);
    w.cv.wait_for(lk, config_.idle_nap, [&] {
      return !w.jobs.empty() || !running_.load(std::memory_order_acquire);
    });
    idle_spins = 0;
  }
  tls_current_cpu = -1;
}

void Runtime::submit_job(int cpu, std::function<void()> job) {
  if (cpu < 0 || cpu >= ncpus()) {
    throw std::out_of_range("Runtime::submit_job: bad cpu");
  }
  Worker& w = *workers_[static_cast<std::size_t>(cpu)];
  {
    std::lock_guard<std::mutex> lk(w.mutex);
    w.jobs.push_back(std::move(job));
    w.pending_jobs.fetch_add(1, std::memory_order_release);
  }
  jobs_submitted_.fetch_add(1, std::memory_order_release);
  w.cv.notify_one();
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

void Runtime::quiesce() {
  sync::Backoff backoff;
  for (;;) {
    if (jobs_run_.load(std::memory_order_acquire) ==
        jobs_submitted_.load(std::memory_order_acquire)) {
      bool all_idle = true;
      for (const auto& w : workers_) {
        if (w->state.load(std::memory_order_acquire) == WorkerState::kBusy) {
          all_idle = false;
          break;
        }
      }
      if (all_idle) return;
    }
    backoff.spin();
  }
}

void Runtime::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lk(w->mutex);
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

}  // namespace piom::sched
