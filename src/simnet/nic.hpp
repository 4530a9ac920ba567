// Simulated NIC with a verbs/MX-like host interface.
//
// Each Nic owns an *engine thread* that models the hardware: it serialises
// posted operations, applies the LinkModel cost, and moves the bytes. This
// gives the two properties the paper's evaluation depends on:
//   1. data transfer is asynchronous DMA — it progresses with ZERO host CPU
//      once posted (so sender-side overlap is possible for everyone);
//   2. protocol decisions (matching a rendezvous, posting the data send)
//      need host code to run — and *when* that host code runs is exactly
//      what distinguishes PIOMan from the caller-driven baselines.
//
// RDMA-Read is served entirely by the engine threads: the target host never
// executes a single instruction, which is what lets the baseline engines
// overlap on the sender side only (paper §II-B, [10]).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "simnet/link_model.hpp"
#include "transport/channel.hpp"

namespace piom::simnet {

class Fabric;

/// Completion queue entry (the transport-wide layout; historical alias).
using Completion = transport::Completion;

/// Counters for the Fig-1 aggregation bench and NIC-saturation analysis
/// (the transport-wide layout; historical alias).
using NicStats = transport::ChannelStats;

/// The "simnet" transport backend: a modelled cluster NIC.
class Nic final : public transport::IChannel {
 public:
  ~Nic() override;
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  [[nodiscard]] transport::Backend backend() const override {
    return transport::Backend::kSimnet;
  }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const LinkModel& link() const { return link_; }
  [[nodiscard]] Nic* peer() const override { return peer_; }

  // ---- host-side API (thread-safe) ----

  /// Post a message send. `buf` must stay valid until the kSend completion
  /// for `wrid` is polled (the engine reads it at transfer time: zero-copy).
  void post_send(const void* buf, std::size_t len, uint64_t wrid) override;

  /// Post a receive buffer of capacity `cap`. Buffers match arrivals in
  /// FIFO order (connected queue pair; message matching is nmad's job).
  void post_recv(void* buf, std::size_t cap, uint64_t wrid) override;

  /// RDMA-Read `len` bytes from the peer's memory at `remote` into `local`.
  /// Served by the engines alone: no peer host CPU involved.
  void post_rdma_read(void* local, const void* remote, std::size_t len,
                      uint64_t wrid) override;

  /// Poll the send/rdma completion queue. True when `out` was filled.
  bool poll_tx(Completion& out) override;

  /// Poll the receive completion queue.
  bool poll_rx(Completion& out) override;

  [[nodiscard]] NicStats stats() const override;

  /// Pending TX descriptors not yet executed by the engine (tests).
  [[nodiscard]] std::size_t tx_backlog() const override;

  /// Block until the engine has executed every posted operation (TX queue
  /// empty and no operation in flight). Used at teardown: after quiescing
  /// this NIC *and its peer*, no engine will touch host buffers again.
  void quiesce() override;

  /// Cut this endpoint off the wire (see IChannel::sever): queued and
  /// future sends are counted as dropped after the modelled wire delay
  /// (still TX-completing, like the drop model), inbound deliveries are
  /// discarded, RDMA reads complete failed without touching memory.
  void sever() override { severed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool severed() const override {
    return severed_.load(std::memory_order_acquire);
  }

  /// Link bandwidth, the strategy layer's stripe weight.
  [[nodiscard]] double bandwidth_GBps() const override {
    return link_.bandwidth_GBps;
  }
  /// Effective small-message one-way latency (wire + per-packet cost).
  [[nodiscard]] double latency_us() const override {
    return link_.latency_us + link_.packet_overhead_us;
  }

  /// Host CPU the engine thread pins itself to, round-robin in creation
  /// order, so the two ends of a link never share one while the host has
  /// two or more (best effort: see topo::pin_current_thread); -1 when the
  /// host CPU count is unknown.
  [[nodiscard]] int engine_cpu() const { return engine_cpu_; }

 private:
  friend class Fabric;
  Nic(Fabric& fabric, std::string name, LinkModel link);

  struct TxOp {
    enum class Kind : uint8_t { kSend, kRdmaRead } kind = Kind::kSend;
    const void* src = nullptr;   // send: source buffer; rdma: remote address
    void* dst = nullptr;         // rdma: local destination
    std::size_t len = 0;
    uint64_t wrid = 0;
  };

  struct RecvDesc {
    void* buf = nullptr;
    std::size_t cap = 0;
    uint64_t wrid = 0;
  };

  /// An arrival that found no posted receive buffer: staged copy (models
  /// NIC/driver buffering of unexpected eager packets).
  struct StagedArrival {
    std::vector<uint8_t> data;
  };

  void engine_loop();
  /// Deterministic per-NIC PRNG draw in [0,1) for drop decisions.
  double drop_draw();
  void start();
  void stop();
  /// Called by the *peer's* engine to deliver `len` bytes into our RX side.
  void deliver(const void* data, std::size_t len);
  void wait_scaled_ns(int64_t ns) const;

  Fabric& fabric_;
  const std::string name_;
  const LinkModel link_;
  Nic* peer_ = nullptr;

  // TX side (engine input + completions). The atomic size mirrors let
  // hot-polling host threads skip the mutex entirely when a queue is empty
  // (same double-check idea as the task queues' Algorithm 2) — without
  // them, a tight poll loop starves the engine's lock acquisitions.
  mutable std::mutex tx_mutex_;
  std::condition_variable tx_cv_;
  std::deque<TxOp> tx_queue_;
  std::deque<Completion> tx_cq_;
  std::atomic<std::size_t> tx_queue_size_{0};
  std::atomic<std::size_t> tx_cq_size_{0};
  bool engine_busy_ = false;  // op in flight (guarded by tx_mutex_)

  // RX side.
  mutable std::mutex rx_mutex_;
  std::deque<RecvDesc> rx_descs_;
  std::deque<StagedArrival> staged_;
  std::deque<Completion> rx_cq_;
  std::atomic<std::size_t> rx_cq_size_{0};

  mutable std::mutex stats_mutex_;
  NicStats stats_;
  uint64_t rng_state_ = 0;  // engine-thread only
  uint64_t sends_executed_ = 0;  // engine-thread only (sever_after_packets)

  std::atomic<bool> severed_{false};
  std::atomic<bool> running_{false};
  int engine_cpu_ = -1;  ///< set by start(), before the engine runs
  std::thread engine_;
};

}  // namespace piom::simnet
