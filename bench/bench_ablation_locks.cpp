// Ablation: the lock protecting the task queues.
//
// Paper §IV-A argues for spinlocks ("a thread that modifies a list enters
// the critical section for a very short period, less than the time required
// to perform a context switch"); §VI lists lock-free lists as future work.
// This bench compares all four queue backends on the paper's
// micro-benchmark, at the two contention extremes: the private per-core
// queue and the fully shared global queue.
//
// Each cell is measured kReps times, the backends interleaved within each
// repetition, and reported as the median with its min–max: one preempted
// poller then skews one sample, not the order of the backends.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/table_scheduling.hpp"
#include "topo/machine.hpp"

namespace {

/// "median [min-max]" of a cell's repetitions.
std::string cell(const std::vector<double>& samples) {
  const piom::util::Summary s = piom::util::summarize(samples);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f [%.0f-%.0f]", s.median, s.min,
                s.max);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace piom;
  constexpr int kReps = 5;
  constexpr std::array kKinds{QueueKind::kSpin, QueueKind::kTicket,
                              QueueKind::kMutex, QueueKind::kLockFree};
  bench::SchedulingBenchConfig cfg;
  if (bench::quick_mode(argc, argv)) {
    cfg.warmup = 50;
    cfg.iterations = 300;
  }
  const topo::Machine machine = topo::Machine::borderline();
  std::printf(
      "=== Ablation — queue lock implementation (borderline topology, ns "
      "per task, median [min–max] of %d runs) ===\n",
      kReps);
  std::printf("expected shape: spinlock ~ lock-free < ticket < mutex under "
              "contention; all equal on the uncontended per-core queue\n\n");
  std::array<std::vector<double>, kKinds.size()> local, global;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      TaskManagerConfig tm_cfg;
      tm_cfg.queue_kind = kKinds[k];
      bench::SchedulingBench bench_run(machine, tm_cfg, cfg);
      local[k].push_back(bench_run.measure(topo::CpuSet::single(0)));
      global[k].push_back(
          bench_run.measure(topo::CpuSet::first_n(machine.ncpus())));
    }
  }
  std::printf("%-12s %22s %22s\n", "queue", "per-core #0", "global (8 cores)");
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    std::printf("%-12s %22s %22s\n", queue_kind_name(kKinds[k]),
                cell(local[k]).c_str(), cell(global[k]).c_str());
  }
  std::printf("\n");
  return 0;
}
