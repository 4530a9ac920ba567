#include "simnet/nic.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "simnet/fabric.hpp"
#include "sync/backoff.hpp"
#include "topo/machine.hpp"
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
  // xorshift64*: cheap, deterministic, engine-thread-local.
  uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return static_cast<double>((x * 0x2545F4914F6CDD1DULL) >> 11) /
         static_cast<double>(1ULL << 53);
}

Nic::~Nic() { stop(); }

namespace {

/// Host CPU for the next engine thread, round-robin in creation order.
/// Engines spin while hot (see engine_loop). Left to the kernel, a new
/// thread stays where it was created once every CPU runs a pinned, busy
/// progression worker, so the two engines of a link, created back to back
/// by one thread, would either share that thread's CPU for the link's
/// whole life or not, depending on what happened to be idle at that
/// instant. Pinning them in turn makes the placement the same in every
/// run.
int next_engine_cpu() {
  static std::atomic<unsigned> next{0};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) return -1;
  return static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) % hw);
}

}  // namespace

void Nic::start() {
  running_.store(true, std::memory_order_release);
  engine_cpu_ = next_engine_cpu();
  engine_ = std::thread([this] {
    topo::pin_current_thread(engine_cpu_);
    engine_loop();
  });
}

void Nic::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lk(tx_mutex_);
  }
  tx_cv_.notify_all();
  if (engine_.joinable()) engine_.join();
}

void Nic::wait_scaled_ns(int64_t ns) const {
  util::precise_wait_ns(static_cast<int64_t>(
      static_cast<double>(ns) * fabric_.time_scale()));
}

void Nic::post_send(const void* buf, std::size_t len, uint64_t wrid) {
  if (peer_ == nullptr) throw std::logic_error("Nic::post_send: unconnected");
  {
    std::lock_guard<std::mutex> lk(tx_mutex_);
    tx_queue_.push_back(TxOp{TxOp::Kind::kSend, buf, nullptr, len, wrid});
    tx_queue_size_.fetch_add(1, std::memory_order_release);
  }
  tx_cv_.notify_one();
}

void Nic::post_rdma_read(void* local, const void* remote, std::size_t len,
                         uint64_t wrid) {
  if (peer_ == nullptr) {
    throw std::logic_error("Nic::post_rdma_read: unconnected");
  }
  {
    std::lock_guard<std::mutex> lk(tx_mutex_);
    tx_queue_.push_back(TxOp{TxOp::Kind::kRdmaRead, remote, local, len, wrid});
    tx_queue_size_.fetch_add(1, std::memory_order_release);
  }
  tx_cv_.notify_one();
}

void Nic::post_recv(void* buf, std::size_t cap, uint64_t wrid) {
  std::lock_guard<std::mutex> lk(rx_mutex_);
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

bool Nic::poll_tx(Completion& out) {
  // Lock-free emptiness pre-check: hot pollers must not take the mutex on
  // the (overwhelmingly common) empty path — they would starve the engine.
  if (tx_cq_size_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lk(tx_mutex_);
  if (tx_cq_.empty()) return false;
  out = tx_cq_.front();
  tx_cq_.pop_front();
  tx_cq_size_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool Nic::poll_rx(Completion& out) {
  if (rx_cq_size_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lk(rx_mutex_);
  if (rx_cq_.empty()) return false;
  out = rx_cq_.front();
  rx_cq_.pop_front();
  rx_cq_size_.fetch_sub(1, std::memory_order_release);
  return true;
}

NicStats Nic::stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return stats_;
}

std::size_t Nic::tx_backlog() const {
  std::lock_guard<std::mutex> lk(tx_mutex_);
  return tx_queue_.size();
}

void Nic::quiesce() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(tx_mutex_);
      if (tx_queue_.empty() && !engine_busy_) return;
    }
    std::this_thread::yield();
  }
}

void Nic::deliver(const void* data, std::size_t len) {
  if (severed()) {
    // A dead endpoint hears nothing: the arrival evaporates on our side of
    // the wire (the sender already paid the transfer and got its TX
    // completion — exactly the drop model's asymmetry).
    std::lock_guard<std::mutex> slk(stats_mutex_);
    stats_.packets_dropped++;
    return;
  }
  PIOM_TRACE(util::trace::Kind::kPacketRx, 0, len);
  std::lock_guard<std::mutex> lk(rx_mutex_);
  {
    std::lock_guard<std::mutex> slk(stats_mutex_);
    stats_.packets_rx++;
    stats_.bytes_rx += len;
  }
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

void Nic::engine_loop() {
  // Hybrid wait: after serving an op the engine stays hot (spin-polls) for
  // a short window before parking on the condvar — a parked engine adds
  // tens of µs of wake-up latency to every message, which would swamp the
  // µs-scale link model during latency benchmarks.
  constexpr int64_t kHotSpinNs = 5'000'000;
  int64_t hot_deadline = util::now_ns() + kHotSpinNs;
  while (true) {
    TxOp op;
    bool have_op = false;
    while (!have_op) {
      // Hot path: peek the atomic size; only touch the mutex when there is
      // work or when it is time to park.
      if (tx_queue_size_.load(std::memory_order_acquire) == 0 &&
          running_.load(std::memory_order_acquire) &&
          util::now_ns() < hot_deadline) {
        sync::cpu_relax();
        continue;
      }
      std::unique_lock<std::mutex> lk(tx_mutex_);
      if (!tx_queue_.empty()) {
        op = tx_queue_.front();
        tx_queue_.pop_front();
        tx_queue_size_.fetch_sub(1, std::memory_order_release);
        engine_busy_ = true;  // quiesce() sees queue+busy atomically
        have_op = true;
        break;
      }
      if (!running_.load(std::memory_order_acquire)) return;
      if (util::now_ns() >= hot_deadline) {
        tx_cv_.wait(lk, [this] {
          return !tx_queue_.empty() ||
                 !running_.load(std::memory_order_acquire);
        });
        if (tx_queue_.empty()) return;  // stopping and drained
        op = tx_queue_.front();
        tx_queue_.pop_front();
        tx_queue_size_.fetch_sub(1, std::memory_order_release);
        engine_busy_ = true;
        have_op = true;
        break;
      }
    }
    hot_deadline = util::now_ns() + kHotSpinNs;
    switch (op.kind) {
      case TxOp::Kind::kSend: {
        // The link is busy for overhead + latency + serialisation; the
        // payload materialises at the peer afterwards — unless the fault
        // injector eats it (the sender still gets its TX completion).
        wait_scaled_ns(link_.transfer_ns(op.len));
        assert(peer_ != nullptr);
        const bool dropped =
            severed() ||
            (link_.drop_rate > 0.0 && drop_draw() < link_.drop_rate);
        if (dropped) {
          std::lock_guard<std::mutex> slk(stats_mutex_);
          stats_.packets_dropped++;
        } else {
          peer_->deliver(op.src, op.len);
        }
        if (link_.sever_after_packets > 0 &&
            ++sends_executed_ >= link_.sever_after_packets) {
          sever();  // deterministic mid-run link death (fault injection)
        }
        {
          std::lock_guard<std::mutex> slk(stats_mutex_);
          stats_.packets_tx++;
          stats_.bytes_tx += op.len;
        }
        PIOM_TRACE(util::trace::Kind::kPacketTx, 0, op.len);
        std::lock_guard<std::mutex> lk(tx_mutex_);
        tx_cq_.push_back(Completion{Completion::Kind::kSend, op.wrid, op.len});
        tx_cq_size_.fetch_add(1, std::memory_order_release);
        engine_busy_ = false;
        break;
      }
      case TxOp::Kind::kRdmaRead: {
        // Request goes over (latency), peer NIC serves from memory with no
        // host involvement, data streams back (latency + occupancy).
        wait_scaled_ns(2 * static_cast<int64_t>(
                               (link_.latency_us + link_.packet_overhead_us) *
                               1e3) +
                       link_.occupancy_ns(op.len));
        // A read over a severed link (either end) fails without touching
        // either host's memory — the failed completion is the caller's
        // only signal, since no peer host code runs on this path.
        const bool read_failed = severed() || peer_->severed();
        if (!read_failed) {
          std::memcpy(op.dst, op.src, op.len);
          std::lock_guard<std::mutex> slk(peer_->stats_mutex_);
          peer_->stats_.rdma_reads_served++;
        }
        {
          std::lock_guard<std::mutex> slk(stats_mutex_);
          stats_.packets_tx++;  // the read request
          if (!read_failed) stats_.bytes_rx += op.len;
        }
        std::lock_guard<std::mutex> lk(tx_mutex_);
        tx_cq_.push_back(Completion{Completion::Kind::kRdmaRead, op.wrid,
                                    op.len, read_failed});
        tx_cq_size_.fetch_add(1, std::memory_order_release);
        engine_busy_ = false;
        break;
      }
    }
  }
}

}  // namespace piom::simnet
