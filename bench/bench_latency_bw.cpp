// OSU-style point-to-point latency and bandwidth sweeps over the message
// size, for all three engines. Not a specific paper figure, but the
// standard sanity panel for any communication library — and it shows the
// eager→rendezvous switch (16 KB) and each engine's small-message costs.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "mpi/world.hpp"
#include "util/timing.hpp"

namespace {

using namespace piom;

/// One-way ping-pong latency (µs) for `size`-byte messages.
double latency_us(mpi::World& world, std::size_t size, int iters) {
  std::vector<uint8_t> buf(std::max<std::size_t>(size, 1));
  std::thread echo([&] {
    std::vector<uint8_t> b(std::max<std::size_t>(size, 1));
    for (int i = 0; i < iters; ++i) {
      world.comm(1).recv(0, 1, b.data(), size);
      world.comm(1).send(0, 2, b.data(), size);
    }
  });
  // Warm-up round is included in the thread count on purpose; skip timing
  // the first quarter.
  int64_t t0 = util::now_ns();
  for (int i = 0; i < iters; ++i) {
    if (i == iters / 4) t0 = util::now_ns();
    world.comm(0).send(1, 1, buf.data(), size);
    world.comm(0).recv(1, 2, buf.data(), size);
  }
  const int64_t t1 = util::now_ns();
  echo.join();
  const int timed = iters - iters / 4;
  return static_cast<double>(t1 - t0) / timed / 2.0 * 1e-3;
}

/// Streaming bandwidth (MB/s): a window of nonblocking sends, one ack.
double bandwidth_MBps(mpi::World& world, std::size_t size, int window,
                      int iters) {
  std::vector<uint8_t> buf(size, 0x11);
  std::thread sink([&] {
    std::vector<uint8_t> b(size);
    std::vector<std::unique_ptr<mpi::Request>> reqs;
    for (int it = 0; it < iters; ++it) {
      reqs.clear();
      for (int w = 0; w < window; ++w) {
        reqs.push_back(std::make_unique<mpi::Request>());
        world.comm(1).irecv(*reqs.back(), 0, 1, b.data(), size);
        world.comm(1).wait(*reqs.back());
      }
      const char ack = 1;
      world.comm(1).send(0, 2, &ack, 1);
    }
  });
  const int64_t t0 = util::now_ns();
  for (int it = 0; it < iters; ++it) {
    std::vector<std::unique_ptr<mpi::Request>> reqs;
    for (int w = 0; w < window; ++w) {
      reqs.push_back(std::make_unique<mpi::Request>());
      world.comm(0).isend(*reqs.back(), 1, 1, buf.data(), size);
    }
    for (auto& r : reqs) world.comm(0).wait(*r);
    char ack = 0;
    world.comm(0).recv(1, 2, &ack, 1);
  }
  const int64_t t1 = util::now_ns();
  sink.join();
  const double secs = static_cast<double>(t1 - t0) * 1e-9;
  return static_cast<double>(size) * window * iters / secs / 1e6;
}

mpi::World make_world(mpi::EngineKind kind) {
  mpi::WorldConfig cfg;
  cfg.engine = kind;
  return mpi::World(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = piom::bench::quick_mode(argc, argv);
  const int lat_iters = quick ? 30 : 100;
  const int bw_iters = quick ? 3 : 8;
  std::vector<std::size_t> sizes{4, 256, 4096, 16384, 65536, 1u << 20};
  if (quick) sizes = {4, 4096, 65536};

  std::printf("=== Point-to-point latency (one-way, us) ===\n");
  std::printf("(eager<=16KB, rendezvous above; link model: 1.5us + "
              "1.25GB/s)\n\n");
  std::printf("%10s %14s %14s %14s\n", "size(B)", "mvapich-like",
              "openmpi-like", "pioman");
  {
    auto wm = make_world(mpi::EngineKind::kMvapichLike);
    auto wo = make_world(mpi::EngineKind::kOpenMpiLike);
    auto wp = make_world(mpi::EngineKind::kPioman);
    for (const std::size_t size : sizes) {
      std::printf("%10zu %14.2f %14.2f %14.2f\n", size,
                  latency_us(wm, size, lat_iters),
                  latency_us(wo, size, lat_iters),
                  latency_us(wp, size, lat_iters));
      std::fflush(stdout);
    }
  }

  std::printf("\n=== Streaming bandwidth (window=8, MB/s) ===\n\n");
  std::printf("%10s %14s %14s %14s\n", "size(B)", "mvapich-like",
              "openmpi-like", "pioman");
  {
    auto wm = make_world(mpi::EngineKind::kMvapichLike);
    auto wo = make_world(mpi::EngineKind::kOpenMpiLike);
    auto wp = make_world(mpi::EngineKind::kPioman);
    for (const std::size_t size : {4096u, 65536u, 1u << 20}) {
      std::printf("%10zu %14.1f %14.1f %14.1f\n", size,
                  bandwidth_MBps(wm, size, 8, bw_iters),
                  bandwidth_MBps(wo, size, 8, bw_iters),
                  bandwidth_MBps(wp, size, 8, bw_iters));
      std::fflush(stdout);
    }
  }
  std::printf("\n");
  return 0;
}
