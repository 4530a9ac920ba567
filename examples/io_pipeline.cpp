// The paper's §VI long-term vision end to end: "a generic framework able
// to optimize both communication and I/O in a scalable way".
//
// A data-staging pipeline: rank 0 reads blocks from its (simulated) disk,
// processes them, and ships them to rank 1, which checksums and stores
// them on its own disk. Disk I/O, network transfer and computation all
// progress through the same task scheduler, so the three stages overlap.
//
// Build & run:  ./build/examples/io_pipeline
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "aio/aio.hpp"
#include "mpi/world.hpp"
#include "util/timing.hpp"

using namespace piom;

namespace {

constexpr std::size_t kBlock = 512 * 1024;
constexpr int kBlocks = 12;

uint64_t checksum(const std::vector<uint8_t>& data) {
  uint64_t h = 1469598103934665603ULL;
  for (uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

int main() {
  // The communication world (pioman engine) and two per-rank disks.
  mpi::WorldConfig cfg;
  cfg.engine = mpi::EngineKind::kPioman;
  cfg.pioman.workers = 4;
  mpi::World world(cfg);

  aio::DiskModel dm;
  dm.time_scale = 1.0;
  aio::SimDisk disk0("src-disk", kBlocks * kBlock, dm);
  aio::SimDisk disk1("dst-disk", kBlocks * kBlock, dm);

  // Hook both disks into the ranks' task manager (the engines expose it;
  // both ranks share the World's one PIOMan node): the node's idle
  // workers poll both disks alongside the communication tasks.
  auto& engine0 = dynamic_cast<mpi::PiomanEngine&>(world.engine(0));
  auto& engine1 = dynamic_cast<mpi::PiomanEngine&>(world.engine(1));
  aio::AioManager aio0(engine0.task_manager(), {&disk0});
  aio::AioManager aio1(engine1.task_manager(), {&disk1});

  // Seed the source disk with known content.
  std::vector<uint64_t> source_sums;
  {
    std::vector<uint8_t> block(kBlock);
    for (int b = 0; b < kBlocks; ++b) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        block[i] = static_cast<uint8_t>((i * 31 + static_cast<std::size_t>(b)) & 0xFF);
      }
      disk0.poke(static_cast<std::size_t>(b) * kBlock, block.data(), kBlock);
      source_sums.push_back(checksum(block));
    }
  }

  const int64_t t0 = util::now_ns();

  // Rank 1: receive each block, store it to the destination disk.
  std::thread consumer([&] {
    std::vector<uint8_t> block(kBlock);
    aio::IoRequest io;
    for (int b = 0; b < kBlocks; ++b) {
      world.comm(1).recv(0, static_cast<mpi::Tag>(b), block.data(), kBlock);
      aio1.write(disk1, static_cast<std::size_t>(b) * kBlock, block.data(),
                 kBlock, io);
      io.wait();
    }
  });

  // Rank 0: double-buffered read → process → send pipeline.
  {
    std::vector<uint8_t> bufs[2] = {std::vector<uint8_t>(kBlock),
                                    std::vector<uint8_t>(kBlock)};
    aio::IoRequest io[2];
    aio0.read(disk0, 0, bufs[0].data(), kBlock, io[0]);
    for (int b = 0; b < kBlocks; ++b) {
      const int cur = b % 2;
      const int nxt = 1 - cur;
      if (b + 1 < kBlocks) {
        // Prefetch the next block while we process/send the current one.
        aio0.read(disk0, static_cast<std::size_t>(b + 1) * kBlock,
                  bufs[nxt].data(), kBlock, io[nxt]);
      }
      io[cur].wait();
      util::burn_cpu_us(200);  // the "processing" stage
      world.comm(0).send(1, static_cast<mpi::Tag>(b), bufs[cur].data(),
                         kBlock);
    }
  }
  consumer.join();
  const double total_ms = static_cast<double>(util::now_ns() - t0) * 1e-6;

  // Verify every block landed intact on the destination disk.
  int intact = 0;
  std::vector<uint8_t> check(kBlock);
  for (int b = 0; b < kBlocks; ++b) {
    disk1.peek(static_cast<std::size_t>(b) * kBlock, check.data(), kBlock);
    if (checksum(check) == source_sums[static_cast<std::size_t>(b)]) ++intact;
  }

  const double data_mb = static_cast<double>(kBlocks) * kBlock / 1e6;
  std::printf("staged %.1f MB disk->compute->network->disk in %.1f ms "
              "(%.0f MB/s), %d/%d blocks intact\n",
              data_mb, total_ms, data_mb / (total_ms * 1e-3), intact,
              kBlocks);
  std::printf("disk, network and computation progressed through the same "
              "task scheduler (paper SVI vision)\n");
  return intact == kBlocks ? 0 : 1;
}
