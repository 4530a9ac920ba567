// Simulated NIC with a verbs/MX-like host interface.
//
// Each Nic models the hardware as a time-stamped FIFO: a posted operation
// gets the instant it finishes on the wire (`due`), the link serialising
// operations back to back. There is no engine thread. Whoever polls moves
// the model forward: poll_tx() runs this NIC's due operations, poll_rx()
// runs the peer's (whose sends land here), and quiesce() runs everything.
// Running an operation does what the hardware would have done by then —
// drop draw, delivery into the peer's posted or staged buffer, RDMA copy,
// stats, TX completion — in one step. This keeps the two properties the
// paper's evaluation depends on:
//   1. data transfer is asynchronous DMA — it costs the host nothing but
//      the observation, and a send completes when only the sender polls
//      (so sender-side overlap is possible for everyone);
//   2. protocol decisions (matching a rendezvous, posting the data send)
//      need host code to run — and *when* that host code runs is exactly
//      what distinguishes PIOMan from the caller-driven baselines.
//
// RDMA-Read involves no protocol code on the target: the copy is part of the
// reader NIC's FIFO, so it runs inside whichever poll of either end finds it
// due, never in a target-side handler. That is what lets the baseline
// engines overlap on the sender side only (paper §II-B, [10]).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "simnet/link_model.hpp"
#include "sync/spinlock.hpp"
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
  /// for `wrid` is polled (it is read when the send comes due: zero-copy).
  void post_send(const void* buf, std::size_t len, uint64_t wrid) override;

  /// Post a receive buffer of capacity `cap`. Buffers match arrivals in
  /// FIFO order (connected queue pair; message matching is nmad's job).
  void post_recv(void* buf, std::size_t cap, uint64_t wrid) override;

  /// RDMA-Read `len` bytes from the peer's memory at `remote` into `local`.
  /// Queued on this NIC's FIFO: the copy runs in a poll of either end, and
  /// no protocol code runs on the peer.
  void post_rdma_read(void* local, const void* remote, std::size_t len,
                      uint64_t wrid) override;

  /// Run this NIC's due operations, then poll the send/rdma completion
  /// queue. True when `out` was filled.
  bool poll_tx(Completion& out) override;

  /// Run the peer's due operations (its sends land here), then poll the
  /// receive completion queue.
  bool poll_rx(Completion& out) override;

  [[nodiscard]] NicStats stats() const override;

  /// Posted operations not yet run (tests).
  [[nodiscard]] std::size_t tx_backlog() const override;

  /// Block until every posted operation has come due and run (FIFO empty,
  /// no operation running). Used at teardown: after quiescing this NIC
  /// *and its peer*, the model will not touch host buffers again.
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

 private:
  friend class Fabric;
  Nic(Fabric& fabric, std::string name, LinkModel link);

  struct TxOp {
    enum class Kind : uint8_t { kSend, kRdmaRead } kind = Kind::kSend;
    const void* src = nullptr;   // send: source buffer; rdma: remote address
    void* dst = nullptr;         // rdma: local destination
    std::size_t len = 0;
    uint64_t wrid = 0;
    int64_t due_ns = 0;          // when the link has finished with it
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

  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

  /// Append `op` to the FIFO, due once the link has served everything
  /// ahead of it and then `cost_ns` (unscaled) more.
  void enqueue(TxOp op, int64_t cost_ns) PIOM_EXCLUDES(tx_lock_);
  /// Run every operation that has come due. Skips when another thread is
  /// already advancing: it will run the same operations.
  void advance() PIOM_EXCLUDES(advance_lock_);
  /// Run the FIFO's operations due by `now`, in order.
  void run_due(int64_t now) PIOM_REQUIRES(advance_lock_);
  /// Do what the hardware has done by `op`'s due time.
  void run(const TxOp& op) PIOM_REQUIRES(advance_lock_);
  /// Deterministic per-NIC PRNG draw in [0,1) for drop decisions.
  double drop_draw() PIOM_REQUIRES(advance_lock_);
  /// Called by the *peer's* advance to deliver `len` bytes into our RX side.
  void deliver(const void* data, std::size_t len) PIOM_EXCLUDES(rx_lock_);

  Fabric& fabric_;
  const std::string name_;
  const LinkModel link_;
  Nic* peer_ = nullptr;

  // TX side: the time-stamped FIFO and its completions. The atomic mirrors
  // let hot-polling host threads skip the locks (and the clock read) when
  // nothing is due or queued — the same double-check idea as the task
  // queues' Algorithm 2.
  mutable sync::MutexLock tx_lock_;
  std::deque<TxOp> tx_queue_ PIOM_GUARDED_BY(tx_lock_);
  int64_t busy_until_ns_ PIOM_GUARDED_BY(tx_lock_) = 0;
  std::deque<Completion> tx_cq_ PIOM_GUARDED_BY(tx_lock_);
  std::atomic<int64_t> next_due_ns_{kNever};  ///< tx_queue_ front's due_ns
  std::atomic<std::size_t> tx_cq_size_{0};

  /// Held by whoever runs operations, from pop to TX completion, so
  /// quiesce() can wait out a concurrent advancer.
  sync::MutexLock advance_lock_;
  uint64_t rng_state_ PIOM_GUARDED_BY(advance_lock_) = 0;
  uint64_t sends_executed_ PIOM_GUARDED_BY(advance_lock_) = 0;

  // RX side.
  mutable sync::MutexLock rx_lock_;
  std::deque<RecvDesc> rx_descs_ PIOM_GUARDED_BY(rx_lock_);
  std::deque<StagedArrival> staged_ PIOM_GUARDED_BY(rx_lock_);
  std::deque<Completion> rx_cq_ PIOM_GUARDED_BY(rx_lock_);
  std::atomic<std::size_t> rx_cq_size_{0};

  mutable sync::MutexLock stats_lock_;
  NicStats stats_ PIOM_GUARDED_BY(stats_lock_);

  std::atomic<bool> severed_{false};
};

}  // namespace piom::simnet
