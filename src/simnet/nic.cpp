#include "simnet/nic.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "simnet/fabric.hpp"
#include "sync/backoff.hpp"
#include "util/timing.hpp"
#include "util/trace.hpp"

namespace piom::simnet {

Nic::Nic(Fabric& fabric, std::string name, LinkModel link)
    : fabric_(fabric), name_(std::move(name)), link_(link) {
  // Deterministic seed: same fabric + same creation order => same drops.
  rng_state_ = 0x9e3779b97f4a7c15ULL ^ std::hash<std::string>{}(name_);
  if (rng_state_ == 0) rng_state_ = 1;
}

double Nic::drop_draw() {
  // xorshift64*: cheap, deterministic, advancer-only.
  uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return static_cast<double>((x * 0x2545F4914F6CDD1DULL) >> 11) /
         static_cast<double>(1ULL << 53);
}

void Nic::enqueue(TxOp op, int64_t cost_ns) {
  const auto scaled = static_cast<int64_t>(static_cast<double>(cost_ns) *
                                           fabric_.time_scale());
  sync::LockGuard<sync::MutexLock> lk(tx_lock_);
  op.due_ns = std::max(util::now_ns(), busy_until_ns_) + scaled;
  busy_until_ns_ = op.due_ns;
  if (tx_queue_.empty()) {
    next_due_ns_.store(op.due_ns, std::memory_order_release);
  }
  tx_queue_.push_back(op);
}

void Nic::post_send(const void* buf, std::size_t len, uint64_t wrid) {
  if (peer_ == nullptr) throw std::logic_error("Nic::post_send: unconnected");
  // The link is busy for overhead + latency + serialisation; the payload
  // materialises at the peer afterwards.
  enqueue(TxOp{TxOp::Kind::kSend, buf, nullptr, len, wrid, 0},
          link_.transfer_ns(len));
}

void Nic::post_rdma_read(void* local, const void* remote, std::size_t len,
                         uint64_t wrid) {
  if (peer_ == nullptr) {
    throw std::logic_error("Nic::post_rdma_read: unconnected");
  }
  // Request goes over (latency), peer NIC serves from memory with no host
  // involvement, data streams back (latency + occupancy).
  enqueue(TxOp{TxOp::Kind::kRdmaRead, remote, local, len, wrid, 0},
          2 * static_cast<int64_t>(
                  (link_.latency_us + link_.packet_overhead_us) * 1e3) +
              link_.occupancy_ns(len));
}

void Nic::post_recv(void* buf, std::size_t cap, uint64_t wrid) {
  sync::LockGuard<sync::MutexLock> lk(rx_lock_);
  if (!staged_.empty()) {
    // A message already arrived unmatched: consume it right away.
    StagedArrival arrival = std::move(staged_.front());
    staged_.pop_front();
    const std::size_t n = std::min(cap, arrival.data.size());
    if (n > 0) std::memcpy(buf, arrival.data.data(), n);
    rx_cq_.push_back(Completion{Completion::Kind::kRecv, wrid, n});
    rx_cq_size_.fetch_add(1, std::memory_order_release);
    return;
  }
  rx_descs_.push_back(RecvDesc{buf, cap, wrid});
}

void Nic::advance() {
  // Lock- and clock-free when the FIFO is empty: hot pollers must not
  // contend on the (overwhelmingly common) idle path.
  const int64_t due = next_due_ns_.load(std::memory_order_acquire);
  if (due == kNever) return;
  const int64_t now = util::now_ns();
  if (due > now) return;
  if (!advance_lock_.try_lock()) return;
  sync::LockGuard<sync::MutexLock> g(advance_lock_, sync::kAdoptLock);
  run_due(now);
}

void Nic::run_due(int64_t now) {
  for (;;) {
    TxOp op;
    {
      sync::LockGuard<sync::MutexLock> lk(tx_lock_);
      if (tx_queue_.empty() || tx_queue_.front().due_ns > now) return;
      op = tx_queue_.front();
      tx_queue_.pop_front();
      next_due_ns_.store(
          tx_queue_.empty() ? kNever : tx_queue_.front().due_ns,
          std::memory_order_release);
    }
    run(op);
  }
}

void Nic::run(const TxOp& op) {
  Completion done{Completion::Kind::kSend, op.wrid, op.len};
  switch (op.kind) {
    case TxOp::Kind::kSend: {
      // The fault injector may eat the payload on the wire; the sender
      // still gets its TX completion.
      assert(peer_ != nullptr);
      const bool dropped =
          severed() ||
          (link_.drop_rate > 0.0 && drop_draw() < link_.drop_rate);
      if (!dropped) peer_->deliver(op.src, op.len);
      if (link_.sever_after_packets > 0 &&
          ++sends_executed_ >= link_.sever_after_packets) {
        sever();  // deterministic mid-run link death (fault injection)
      }
      {
        sync::LockGuard<sync::MutexLock> slk(stats_lock_);
        if (dropped) stats_.packets_dropped++;
        stats_.packets_tx++;
        stats_.bytes_tx += op.len;
      }
      PIOM_TRACE(util::trace::Kind::kPacketTx, 0, op.len);
      break;
    }
    case TxOp::Kind::kRdmaRead: {
      // A read over a severed link (either end) fails without touching
      // either host's memory — the failed completion is the caller's only
      // signal, since no peer host code runs on this path.
      const bool read_failed = severed() || peer_->severed();
      if (!read_failed) {
        std::memcpy(op.dst, op.src, op.len);
        sync::LockGuard<sync::MutexLock> slk(peer_->stats_lock_);
        peer_->stats_.rdma_reads_served++;
      }
      {
        sync::LockGuard<sync::MutexLock> slk(stats_lock_);
        stats_.packets_tx++;  // the read request
        if (!read_failed) stats_.bytes_rx += op.len;
      }
      done.kind = Completion::Kind::kRdmaRead;
      done.failed = read_failed;
      break;
    }
  }
  sync::LockGuard<sync::MutexLock> lk(tx_lock_);
  tx_cq_.push_back(done);
  tx_cq_size_.fetch_add(1, std::memory_order_release);
}

bool Nic::poll_tx(Completion& out) {
  advance();
  // Lock-free emptiness pre-check: hot pollers must not take the lock on
  // the (overwhelmingly common) empty path.
  if (tx_cq_size_.load(std::memory_order_acquire) == 0) return false;
  sync::LockGuard<sync::MutexLock> lk(tx_lock_);
  if (tx_cq_.empty()) return false;
  out = tx_cq_.front();
  tx_cq_.pop_front();
  tx_cq_size_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool Nic::poll_rx(Completion& out) {
  if (peer_ != nullptr) peer_->advance();
  if (rx_cq_size_.load(std::memory_order_acquire) == 0) return false;
  sync::LockGuard<sync::MutexLock> lk(rx_lock_);
  if (rx_cq_.empty()) return false;
  out = rx_cq_.front();
  rx_cq_.pop_front();
  rx_cq_size_.fetch_sub(1, std::memory_order_release);
  return true;
}

NicStats Nic::stats() const {
  sync::LockGuard<sync::MutexLock> lk(stats_lock_);
  return stats_;
}

std::size_t Nic::tx_backlog() const {
  sync::LockGuard<sync::MutexLock> lk(tx_lock_);
  return tx_queue_.size();
}

void Nic::quiesce() {
  sync::Backoff backoff;
  for (;;) {
    {
      // Blocking, unlike advance(): an operation a concurrent advancer has
      // popped but not yet completed must finish before we return.
      sync::LockGuard<sync::MutexLock> g(advance_lock_);
      run_due(util::now_ns());
      if (next_due_ns_.load(std::memory_order_acquire) == kNever) return;
    }
    backoff.spin();
  }
}

void Nic::deliver(const void* data, std::size_t len) {
  if (severed()) {
    // A dead endpoint hears nothing: the arrival evaporates on our side of
    // the wire (the sender already paid the transfer and got its TX
    // completion — exactly the drop model's asymmetry).
    sync::LockGuard<sync::MutexLock> slk(stats_lock_);
    stats_.packets_dropped++;
    return;
  }
  PIOM_TRACE(util::trace::Kind::kPacketRx, 0, len);
  {
    sync::LockGuard<sync::MutexLock> slk(stats_lock_);
    stats_.packets_rx++;
    stats_.bytes_rx += len;
  }
  sync::LockGuard<sync::MutexLock> lk(rx_lock_);
  if (!rx_descs_.empty()) {
    RecvDesc desc = rx_descs_.front();
    rx_descs_.pop_front();
    const std::size_t n = std::min(desc.cap, len);
    if (n > 0) std::memcpy(desc.buf, data, n);
    rx_cq_.push_back(Completion{Completion::Kind::kRecv, desc.wrid, n});
    rx_cq_size_.fetch_add(1, std::memory_order_release);
    return;
  }
  // No buffer posted: stage a copy (driver-level buffering of unexpected
  // packets, as MX does for short messages).
  StagedArrival arrival;
  arrival.data.assign(static_cast<const uint8_t*>(data),
                      static_cast<const uint8_t*>(data) + len);
  staged_.push_back(std::move(arrival));
}

}  // namespace piom::simnet
