// Integration tests across the whole stack: mini-MPI over nmad over the
// simulated fabric, for all three progress engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <numeric>
#include <thread>
#include <vector>

#include "mpi/engine_globallock.hpp"
#include "mpi/engine_pioman.hpp"
#include "mpi/world.hpp"
#include "sync/semaphore.hpp"
#include "util/timing.hpp"

namespace piom::mpi {
namespace {

WorldConfig fast_config(EngineKind kind) {
  WorldConfig cfg;
  cfg.engine = kind;
  cfg.time_scale = 0.05;  // 20x faster network: keep tests snappy
  cfg.pioman.workers = 2;
  return cfg;
}

class MpiAllEngines : public ::testing::TestWithParam<EngineKind> {};

TEST_P(MpiAllEngines, BlockingSendRecvSmall) {
  World world(fast_config(GetParam()));
  const std::string msg = "hello mpi";
  char buf[32] = {};
  std::thread receiver([&] { world.comm(1).recv(0, 7, buf, sizeof(buf)); });
  world.comm(0).send(1, 7, msg.data(), msg.size() + 1);
  receiver.join();
  EXPECT_STREQ(buf, msg.c_str());
}

TEST_P(MpiAllEngines, BlockingSendRecvLarge) {
  World world(fast_config(GetParam()));
  std::vector<uint8_t> data(1 << 20);
  std::iota(data.begin(), data.end(), 3);
  std::vector<uint8_t> out(data.size(), 0);
  std::thread receiver(
      [&] { world.comm(1).recv(0, 9, out.data(), out.size()); });
  world.comm(0).send(1, 9, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(out, data);
}

TEST_P(MpiAllEngines, NonblockingPingPong) {
  World world(fast_config(GetParam()));
  for (int i = 0; i < 20; ++i) {
    char ping = static_cast<char>('a' + i % 26);
    char pong = 0;
    std::thread peer([&] {
      char got = 0;
      Request r;
      world.comm(1).irecv(r, 0, 1, &got, 1);
      world.comm(1).wait(r);
      Request s;
      world.comm(1).isend(s, 0, 2, &got, 1);
      world.comm(1).wait(s);
    });
    Request s, r;
    world.comm(0).isend(s, 1, 1, &ping, 1);
    world.comm(0).irecv(r, 1, 2, &pong, 1);
    world.comm(0).wait(s);
    world.comm(0).wait(r);
    peer.join();
    EXPECT_EQ(pong, ping);
  }
}

TEST_P(MpiAllEngines, TestEventuallyCompletes) {
  World world(fast_config(GetParam()));
  char buf[8] = {};
  Request r;
  world.comm(1).irecv(r, 0, 4, buf, sizeof(buf));
  EXPECT_FALSE(r.done());
  std::thread sender([&] { world.comm(0).send(1, 4, "ok", 3); });
  const int64_t deadline = util::now_ns() + 5'000'000'000;
  while (!world.comm(1).test(r) && util::now_ns() < deadline) {
  }
  sender.join();
  EXPECT_TRUE(r.done());
  EXPECT_STREQ(buf, "ok");
}

TEST_P(MpiAllEngines, ManyTagsInterleaved) {
  World world(fast_config(GetParam()));
  constexpr int kMsgs = 40;
  std::vector<std::array<char, 8>> bufs(kMsgs);
  std::deque<Request> rreqs(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    world.comm(1).irecv(rreqs[static_cast<std::size_t>(i)], 0,
                        static_cast<Tag>(i), bufs[static_cast<std::size_t>(i)].data(), 8);
  }
  std::deque<Request> sreqs(kMsgs);
  std::vector<std::string> payloads;
  for (int i = 0; i < kMsgs; ++i) payloads.push_back(std::to_string(i));
  // Send in reverse tag order to stress matching.
  for (int i = kMsgs - 1; i >= 0; --i) {
    world.comm(0).isend(sreqs[static_cast<std::size_t>(i)], 1,
                        static_cast<Tag>(i),
                        payloads[static_cast<std::size_t>(i)].data(),
                        payloads[static_cast<std::size_t>(i)].size() + 1);
  }
  for (int i = 0; i < kMsgs; ++i) {
    world.comm(0).wait(sreqs[static_cast<std::size_t>(i)]);
    world.comm(1).wait(rreqs[static_cast<std::size_t>(i)]);
    EXPECT_STREQ(bufs[static_cast<std::size_t>(i)].data(),
                 payloads[static_cast<std::size_t>(i)].c_str());
  }
}

TEST_P(MpiAllEngines, ConcurrentReceiverThreads) {
  // Miniature Fig-4 workload: several receiver threads blocked in recv.
  World world(fast_config(GetParam()));
  constexpr int kThreads = 8;
  std::vector<std::thread> receivers;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    receivers.emplace_back([&, t] {
      int32_t v = -1;
      world.comm(1).recv(0, static_cast<Tag>(t), &v, sizeof(v));
      if (v == t * 11) ok.fetch_add(1);
      int32_t reply = v * 2;
      world.comm(1).send(0, static_cast<Tag>(1000 + t), &reply, sizeof(reply));
    });
  }
  for (int t = 0; t < kThreads; ++t) {
    const int32_t v = t * 11;
    world.comm(0).send(1, static_cast<Tag>(t), &v, sizeof(v));
    int32_t reply = -1;
    world.comm(0).recv(1, static_cast<Tag>(1000 + t), &reply, sizeof(reply));
    EXPECT_EQ(reply, v * 2);
  }
  for (auto& th : receivers) th.join();
  EXPECT_EQ(ok.load(), kThreads);
}

TEST_P(MpiAllEngines, BadRankArguments) {
  World world(fast_config(GetParam()));
  Request r;
  char b = 0;
  EXPECT_THROW(world.comm(0).isend(r, 0, 1, &b, 1), std::invalid_argument);
  EXPECT_THROW(world.comm(0).irecv(r, 0, 1, &b, 1), std::invalid_argument);
  EXPECT_THROW((void)world.comm(2), std::out_of_range);
  EXPECT_THROW((void)world.comm(-1), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(Engines, MpiAllEngines,
                         ::testing::Values(EngineKind::kPioman,
                                           EngineKind::kMvapichLike,
                                           EngineKind::kOpenMpiLike),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineKind::kPioman: return "pioman";
                             case EngineKind::kMvapichLike: return "mvapich";
                             case EngineKind::kOpenMpiLike: return "openmpi";
                           }
                           return "unknown";
                         });

TEST(MpiPioman, ReceiverSideOverlapBeatsBaseline) {
  // The paper's headline property, as a test: with computation on the
  // RECEIVER side, the pioman engine's background progression must overlap
  // the rendezvous, the global-lock baseline must not.
  //
  // Overlap needs the progression workers to actually run in parallel with
  // the compute burn; on fewer than 4 hardware threads (sender + receiver +
  // 2 pioman workers) the measured ratio is pure scheduler noise.
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs >= 4 hardware threads to measure overlap";
  }
  auto measure = [](EngineKind kind) {
    WorldConfig cfg;
    cfg.engine = kind;
    cfg.time_scale = 1.0;
    cfg.pioman.workers = 2;
    World world(cfg);
    const std::size_t size = 1 << 20;  // 1 MB: rendezvous, ~0.8ms transfer
    std::vector<uint8_t> data(size, 0x42), out(size, 0);
    const double compute_us = 3000;  // computation > transfer time
    double total_us = 0;
    {
      // Fig 6 order (bench/overlap_common.hpp): the receive is posted
      // before the send is issued, and the receiver computes once it is.
      // An RTS that arrived before irecv would be answered inside irecv by
      // a caller-driven engine: sender-side timing, not receiver overlap.
      // wait() parks at once, so the sender gets the CPU straight away.
      Request r;
      const int64_t t0 = util::now_ns();
      world.comm(1).irecv(r, 0, 5, out.data(), out.size());
      sync::Semaphore send_posted;
      std::thread sender([&] {
        Request s;
        world.comm(0).isend(s, 1, 5, data.data(), data.size());
        send_posted.post();
        world.comm(0).wait(s);
      });
      send_posted.wait();
      util::burn_cpu_us(compute_us);
      world.comm(1).wait(r);
      total_us = static_cast<double>(util::now_ns() - t0) * 1e-3;
      sender.join();
    }
    EXPECT_TRUE(out == data);
    return compute_us / total_us;  // overlap ratio
  };
  const double pioman_ratio = measure(EngineKind::kPioman);
  const double baseline_ratio = measure(EngineKind::kMvapichLike);
  EXPECT_GT(pioman_ratio, 0.75) << "pioman must overlap on the receiver side";
  EXPECT_LT(baseline_ratio, pioman_ratio);
}

TEST(MpiPioman, SendSubmitsNoTask) {
  // Deferred sends ride the gate's poll task (paper §IV-B): once the pair
  // is wired and its poll tasks are submitted, sending submits no task.
  World world(fast_config(EngineKind::kPioman));
  auto& engine = dynamic_cast<PiomanEngine&>(world.engine(0));
  char wired[8] = {};
  std::thread receiver(
      [&] { world.comm(1).recv(0, 3, wired, sizeof(wired)); });
  world.comm(0).send(1, 3, "wire", 5);
  receiver.join();
  ASSERT_STREQ(wired, "wire");
  const uint64_t submissions_before = engine.task_manager().submissions();
  for (int i = 0; i < 50; ++i) {
    int out = i, in = -1;
    Request tx, rx;
    world.comm(1).irecv(rx, 0, 4, &in, sizeof(in));
    world.comm(0).isend(tx, 1, 4, &out, sizeof(out));
    world.comm(1).wait(rx);
    world.comm(0).wait(tx);
    EXPECT_EQ(in, out);
  }
  EXPECT_EQ(engine.task_manager().submissions(), submissions_before);
}

TEST(MpiPioman, DeferredSendLeavesWhileSenderComputes) {
  // isend only queues the message: between isend and wait the sender makes
  // no library call, so the poll task alone must put the bytes on the wire.
  World world(fast_config(EngineKind::kPioman));
  std::atomic<bool> received{false};
  int in = 0;
  std::thread receiver([&] {
    world.comm(1).recv(0, 6, &in, sizeof(in));
    received.store(true, std::memory_order_release);
  });
  const int out = 0x5eed;
  Request tx;
  world.comm(0).isend(tx, 1, 6, &out, sizeof(out));
  const int64_t deadline = util::now_ns() + 5'000'000'000;
  while (!received.load(std::memory_order_acquire) &&
         util::now_ns() < deadline) {
    util::burn_cpu_us(10);  // compute: no library call
  }
  const bool arrived_while_computing =
      received.load(std::memory_order_acquire);
  world.comm(0).wait(tx);
  receiver.join();
  EXPECT_TRUE(arrived_while_computing)
      << "the send left only once the sender called wait";
  EXPECT_EQ(in, out);
}

TEST(MpiWorld, MultirailWorldTransfersCorrectly) {
  WorldConfig cfg = fast_config(EngineKind::kPioman);
  cfg.rails = 2;
  cfg.session.strategy.multirail_stripe = true;
  cfg.session.strategy.stripe_min_chunk = 16 * 1024;
  World world(cfg);
  std::vector<uint8_t> data(1 << 20);
  std::iota(data.begin(), data.end(), 0);
  std::vector<uint8_t> out(data.size(), 0);
  std::thread receiver(
      [&] { world.comm(1).recv(0, 2, out.data(), out.size()); });
  world.comm(0).send(1, 2, data.data(), data.size());
  receiver.join();
  EXPECT_EQ(out, data);
}

TEST(MpiWorld, ShutdownIsIdempotent) {
  World world(fast_config(EngineKind::kPioman));
  world.shutdown();
  world.shutdown();
  SUCCEED();
}

/// OS threads of this process: the entries of /proc/self/task.
int os_threads() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// os_threads() once it equals `want`, or after 2 s: a joined thread's
/// task entry can outlive pthread_join by a moment while the kernel reaps
/// it.
int os_threads_settled(int want) {
  const int64_t deadline = util::now_ns() + 2'000'000'000;
  int n = os_threads();
  while (n != want && util::now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = os_threads();
  }
  return n;
}

TEST(MpiWorld, ThreadBudgetIsOneNodePerWorld) {
  // One PIOMan node per World: its workers plus one timer thread, whatever
  // the rank count and overlay. Wiring a pair adds no thread either (the
  // sparse view wires its tree gates at construction; the exchange below
  // wires a dense pair): the NIC model is progressed by its pollers.
  const int base = os_threads();
  for (EngineKind kind : {EngineKind::kPioman, EngineKind::kMvapichLike,
                          EngineKind::kOpenMpiLike}) {
    for (OverlayMode mode : {OverlayMode::kDense, OverlayMode::kSparse}) {
      for (int nranks : {2, 8}) {
        WorldConfig cfg;
        cfg.engine = kind;
        cfg.nranks = nranks;
        cfg.overlay.mode = mode;
        const int expected =
            kind == EngineKind::kPioman ? cfg.pioman.workers + 1 : 0;
        {
          World world(cfg);
          const int last = nranks - 1;
          int out = 7, in = 0;
          Request tx, rx;
          world.comm(last).irecv(rx, 0, 3, &in, sizeof(in));
          world.comm(0).isend(tx, last, 3, &out, sizeof(out));
          world.comm(last).wait(rx);
          world.comm(0).wait(tx);
          EXPECT_EQ(in, out);
          EXPECT_EQ(os_threads() - base, expected)
              << engine_kind_name(kind) << " " << overlay_mode_name(mode)
              << " N=" << nranks;
        }
        EXPECT_EQ(os_threads_settled(base), base)
            << engine_kind_name(kind) << " " << overlay_mode_name(mode)
            << " N=" << nranks << " after teardown";
      }
    }
  }
}

TEST(MpiWorld, DefaultNodeLeavesTheApplicationACpu) {
  // The default PIOMan node runs one worker per usable host CPU but one:
  // the runtime pins them away from the constructing thread's CPU, which
  // stays the application's.
  const int expected = std::max(1, topo::usable_cpus().count() - 1);
  WorldConfig cfg;
  EXPECT_EQ(cfg.pioman.workers, expected);
  World world(cfg);
  auto& engine = dynamic_cast<PiomanEngine&>(world.engine(0));
  EXPECT_EQ(engine.task_manager().machine().ncpus(), expected);
}

TEST(MpiWorld, RejectsBadConfig) {
  WorldConfig cfg;
  cfg.rails = 0;
  EXPECT_THROW(World{cfg}, std::invalid_argument);
}


/// Engine-orthogonal message-size sweep across the eager/rendezvous
/// boundary, verifying payload integrity end to end.
class MpiSizeSweep
    : public ::testing::TestWithParam<std::tuple<EngineKind, std::size_t>> {};

TEST_P(MpiSizeSweep, PayloadIntact) {
  const auto [kind, size] = GetParam();
  World world(fast_config(kind));
  std::vector<uint8_t> data(size);
  for (std::size_t i = 0; i < size; ++i) data[i] = static_cast<uint8_t>(i * 13);
  std::vector<uint8_t> out(size, 0);
  std::thread rx([&] { world.comm(1).recv(0, 2, out.data(), out.size()); });
  world.comm(0).send(1, 2, data.data(), data.size());
  rx.join();
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndSizes, MpiSizeSweep,
    ::testing::Combine(::testing::Values(EngineKind::kPioman,
                                         EngineKind::kMvapichLike,
                                         EngineKind::kOpenMpiLike),
                       ::testing::Values(std::size_t{1}, std::size_t{4096},
                                         std::size_t{16384},
                                         std::size_t{16385},
                                         std::size_t{1} << 19)),
    [](const auto& info) {
      const char* e = "";
      switch (std::get<0>(info.param)) {
        case EngineKind::kPioman: e = "pioman"; break;
        case EngineKind::kMvapichLike: e = "mvapich"; break;
        case EngineKind::kOpenMpiLike: e = "openmpi"; break;
      }
      return std::string(e) + "_b" + std::to_string(std::get<1>(info.param));
    });

TEST(MpiIntrospection, EngineNamesAndLockStats) {
  World pioman(fast_config(EngineKind::kPioman));
  EXPECT_EQ(pioman.engine(0).name(), "pioman");
  World mv(fast_config(EngineKind::kMvapichLike));
  EXPECT_EQ(mv.engine(0).name(), "mvapich-like");
  World om(fast_config(EngineKind::kOpenMpiLike));
  EXPECT_EQ(om.engine(1).name(), "openmpi-like");
  EXPECT_STREQ(engine_kind_name(EngineKind::kPioman), "pioman");
  // The global-lock engine counts its lock traffic (Fig 4's contention).
  auto& eng = dynamic_cast<GlobalLockEngine&>(mv.engine(0));
  const uint64_t before = eng.lock_acquisitions();
  char buf[4] = {};
  std::thread rx([&] { mv.comm(1).recv(0, 1, buf, sizeof(buf)); });
  mv.comm(0).send(1, 1, "x", 2);
  rx.join();
  EXPECT_GT(eng.lock_acquisitions(), before);
}

}  // namespace
}  // namespace piom::mpi
