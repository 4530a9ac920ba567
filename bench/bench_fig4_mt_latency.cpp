// Reproduces Fig 4: OSU-style multi-threaded latency test.
//
// A single sender (rank 0) ping-pongs 4-byte messages with a receiver
// process (rank 1) that runs N receiving threads; the average one-way
// latency is reported as N grows from 1 to 128.
//
// Expected shape (paper): MVAPICH's latency climbs steeply with the number
// of receiving threads (all of them poll the library under one lock);
// PIOMan stays near-constant even past the core count, because receiving
// threads block on a condition while idle cores do the polling. OpenMPI
// could not run this test in the paper (segfault); our openmpi-like engine
// runs and behaves like the other global-lock engine.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "mpi/world.hpp"

namespace {

using piom::mpi::EngineKind;
using piom::mpi::Request;
using piom::mpi::Tag;
using piom::mpi::World;
using piom::mpi::WorldConfig;

/// One data point: mean one-way latency (µs) with `nthreads` receivers.
double run_point(EngineKind kind, int nthreads, int iters_per_thread) {
  WorldConfig cfg;
  cfg.engine = kind;
  World world(cfg);

  constexpr int kWarmupRounds = 4;  // untimed: world spin-up, pool warm-up
  std::vector<std::thread> receivers;
  receivers.reserve(static_cast<std::size_t>(nthreads));
  // Each receiver thread: recv 4 bytes on its tag, send a 4-byte reply.
  for (int t = 0; t < nthreads; ++t) {
    receivers.emplace_back([&world, t, iters_per_thread] {
      int32_t value = 0;
      for (int i = 0; i < iters_per_thread + kWarmupRounds; ++i) {
        world.comm(1).recv(0, static_cast<Tag>(t), &value, sizeof(value));
        world.comm(1).send(0, static_cast<Tag>(10000 + t), &value,
                           sizeof(value));
      }
    });
  }

  // Sender: round-robin over the receiver threads' tags, like the OSU
  // multi-threaded latency test's single sender.
  const int total_iters = nthreads * (iters_per_thread + kWarmupRounds);
  int64_t t0 = piom::util::now_ns();
  int32_t payload = 0;
  for (int i = 0; i < total_iters; ++i) {
    if (i == nthreads * kWarmupRounds) t0 = piom::util::now_ns();
    const int t = i % nthreads;
    world.comm(0).send(1, static_cast<Tag>(t), &payload, sizeof(payload));
    world.comm(0).recv(1, static_cast<Tag>(10000 + t), &payload,
                       sizeof(payload));
  }
  const int64_t t1 = piom::util::now_ns();
  for (auto& th : receivers) th.join();
  // One-way latency = RTT / 2 over the timed iterations.
  return static_cast<double>(t1 - t0) /
         (nthreads * iters_per_thread) / 2.0 * 1e-3;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = piom::bench::quick_mode(argc, argv);
  const int iters = quick ? 40 : 150;
  std::vector<int> thread_counts{1, 2, 4, 8, 16, 32, 64, 128};
  if (quick) thread_counts = {1, 4, 16, 64};

  std::printf(
      "=== Fig 4 — multi-threaded latency test (4-byte ping-pong, one-way "
      "latency in us) ===\n");
  std::printf(
      "paper reference: MVAPICH ~6us at 1 thread growing to ~1000us at 128 "
      "threads; PIOMan near-constant ~10us\n");
  std::printf("(openmpi-like: the paper's OpenMPI 1.3.1 segfaulted on this "
              "test; our re-implementation runs)\n\n");
  std::printf("%10s %14s %14s %14s\n", "threads", "mvapich-like",
              "openmpi-like", "pioman");
  for (const int n : thread_counts) {
    const double mvapich = run_point(EngineKind::kMvapichLike, n, iters);
    const double openmpi = run_point(EngineKind::kOpenMpiLike, n, iters);
    const double pioman = run_point(EngineKind::kPioman, n, iters);
    std::printf("%10d %14.2f %14.2f %14.2f\n", n, mvapich, openmpi, pioman);
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
