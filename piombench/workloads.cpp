// The four piom-bench workloads. Each is a closed loop driven through the
// public mpi::Comm API on the default engine (PIOMan, default config); why
// each one is in the benchmark is in README.md.
#include "workloads.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/task_manager.hpp"
#include "mpi/engine_pioman.hpp"
#include "transport/channel.hpp"

namespace piombench {
namespace {

using piom::mpi::CollRequest;
using piom::mpi::Comm;
using piom::mpi::Request;
using piom::mpi::Tag;
using piom::mpi::World;
using piom::mpi::WorldConfig;
using piom::util::now_ns;

/// Fresh Worlds per run: setup_s is the median of their set-up times, and
/// the untraced run splits its timed phase evenly across them.
constexpr int kSegments = 10;
/// Untimed warm-up on each World before timing (pools, lazy buffers).
constexpr int64_t kWarmupNs = 300'000'000;

/// Phase ids keep the inputs of set-up, warm-up, timed and traced phases
/// distinct, so a payload left over from one phase cannot verify in
/// another.
enum PhaseId : uint64_t { kSetup = 0, kWarmup = 1, kTimed = 2, kTraced = 3 };

/// Closed-loop stop protocol: the thread that drives a loop stores the
/// index of the last iteration before starting that iteration's traffic;
/// partner threads read it after that traffic reached them, so every
/// thread runs the same number of iterations and nobody blocks on a
/// message that is never sent.
constexpr uint64_t kNoLast = std::numeric_limits<uint64_t>::max();

struct Phase {
  RunContext& ctx;
  uint64_t id;
  int64_t end_ns;
  /// One span log per client slot; empty when the phase is untraced.
  std::vector<SpanLog*> logs;

  [[nodiscard]] SpanLog* log(int slot) const {
    return logs.empty() ? nullptr : logs[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] uint64_t seed() const { return ctx.opt.seed; }
  [[nodiscard]] bool time_up() const { return now_ns() >= end_ns; }
  /// Corrupt this operation's payload (smoke check of the failure path).
  [[nodiscard]] bool inject(uint64_t iter) const {
    return ctx.opt.inject_fault && id == kTimed && iter == 0;
  }
};

struct PhaseOut {
  Samples op_us;      ///< per-operation time (the workload's unit)
  Samples window_us;  ///< msgrate_shmem only: whole-window time
  uint64_t ops = 0;
  double wall_s = 0;
};

/// Run `body(slot)` on `n` client threads. The calling thread is the
/// watchdog: a blocking call armed past kOpDeadlineNs, or a client that
/// throws, ends the run with the failure reported.
void run_clients(RunContext& ctx, int n, const std::function<void(int)>& body) {
  std::atomic<int> live{n};
  std::mutex err_lock;
  std::string err;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> g(err_lock);
        err = e.what();
      }
      live.fetch_sub(1);
    });
  }
  while (live.load() > 0) {
    if (ctx.dog.expired()) abort_run(ctx, "an operation missed its deadline");
    {
      std::lock_guard<std::mutex> g(err_lock);
      if (!err.empty()) abort_run(ctx, "client thread failed: " + err);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : threads) t.join();
  if (!err.empty()) abort_run(ctx, "client thread failed: " + err);
}

// ---- Comm calls, each wrapped in the traced run's span ----

void isend(const Phase& ph, int slot, Comm& c, Request& r, int dst, Tag tag,
           const void* buf, std::size_t len, uint64_t op) {
  ScopedSpan s(ph.log(slot), "mpi.isend", op);
  c.isend(r, dst, tag, buf, len);
}

void irecv(const Phase& ph, int slot, Comm& c, Request& r, int src, Tag tag,
           void* buf, std::size_t cap, uint64_t op) {
  ScopedSpan s(ph.log(slot), "mpi.irecv", op);
  c.irecv(r, src, tag, buf, cap);
}

/// Comm::wait under the watchdog. True when the request completed without
/// error inside the deadline.
template <typename Req>
bool wait_op(const Phase& ph, int slot, Comm& c, Req& r, uint64_t op) {
  ScopedSpan s(ph.log(slot), "mpi.wait", op);
  const int64_t t0 = now_ns();
  ph.ctx.dog.arm(slot);
  c.wait(r);
  ph.ctx.dog.disarm(slot);
  return !r.failed() && now_ns() - t0 <= kOpDeadlineNs;
}

/// Send a 4 B stamped value and wait for it (counts one operation).
void send_u32(const Phase& ph, int slot, Comm& c, int dst, Tag tag,
              uint32_t value, uint64_t op) {
  Request r;
  isend(ph, slot, c, r, dst, tag, &value, sizeof(value), op);
  ph.ctx.tally.record(wait_op(ph, slot, c, r, op));
}

/// Receive a 4 B value and verify it (counts one operation).
void recv_u32(const Phase& ph, int slot, Comm& c, int src, Tag tag,
              uint32_t expect, uint64_t op) {
  Request r;
  uint32_t got = ~expect;
  irecv(ph, slot, c, r, src, tag, &got, sizeof(got), op);
  const bool ok = wait_op(ph, slot, c, r, op);
  ph.ctx.tally.record(ok && r.received() == sizeof(got) && got == expect);
}

[[nodiscard]] uint32_t u32(uint64_t v) { return static_cast<uint32_t>(v); }

/// First exchange on the pair {a, b}: a round trip of 4 B stamped values,
/// driven from one thread (the engine progresses both ranks itself).
void exchange(const Phase& ph, World& w, int a, int b) {
  constexpr Tag kTag = 900;
  for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
    const uint32_t value = u32(stamp(ph.seed(), kSetup, src, dst));
    Request rr;
    Request sr;
    uint32_t got = ~value;
    irecv(ph, 0, w.comm(dst), rr, src, kTag, &got, sizeof(got), 0);
    isend(ph, 0, w.comm(src), sr, dst, kTag, &value, sizeof(value), 0);
    ph.ctx.tally.record(wait_op(ph, 0, w.comm(src), sr, 0));
    const bool ok = wait_op(ph, 0, w.comm(dst), rr, 0);
    ph.ctx.tally.record(ok && got == value);
  }
}

// ================================================================ pingpong_mt

// Rank 0's single thread sends 4 B round-robin to three receiver threads
// of rank 1; each echoes on its own reply tag. One message in flight.
constexpr int kPingReceivers = 3;
constexpr Tag kPingReplyBase = 16;

PhaseOut pingpong_phase(World& w, const Phase& ph) {
  PhaseOut out;
  std::atomic<uint64_t> last{kNoLast};
  Samples rtt_half;
  const int64_t t0 = now_ns();
  run_clients(ph.ctx, 1 + kPingReceivers, [&](int slot) {
    if (slot == 0) {
      Comm& c = w.comm(0);
      for (uint64_t k = 0;; ++k) {
        if (ph.time_up() && last.load() == kNoLast) last.store(k);
        for (int t = 0; t < kPingReceivers; ++t) {
          const uint64_t op = k * kPingReceivers + static_cast<uint64_t>(t);
          ScopedSpan span(ph.log(slot), "op.roundtrip", op);
          uint32_t value = u32(stamp(ph.seed(), ph.id, t, k));
          if (ph.inject(k) && t == 0) value ^= 1;  // receiver must reject
          const int64_t s0 = now_ns();
          send_u32(ph, slot, c, 1, static_cast<Tag>(t), value, op);
          recv_u32(ph, slot, c, 1, kPingReplyBase + t,
                   u32(stamp(~ph.seed(), ph.id, t, k)), op);
          rtt_half.add(static_cast<double>(now_ns() - s0) * 0.5e-3);
        }
        if (k == last.load()) break;
      }
    } else {
      const int t = slot - 1;
      Comm& c = w.comm(1);
      for (uint64_t k = 0;; ++k) {
        const uint64_t op = k * kPingReceivers + static_cast<uint64_t>(t);
        recv_u32(ph, slot, c, 0, static_cast<Tag>(t),
                 u32(stamp(ph.seed(), ph.id, t, k)), op);
        send_u32(ph, slot, c, 0, kPingReplyBase + t,
                 u32(stamp(~ph.seed(), ph.id, t, k)), op);
        if (k == last.load()) break;
      }
    }
  });
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.op_us = rtt_half;
  out.ops = 2 * rtt_half.size();  // one-way messages
  return out;
}

// ============================================================== msgrate_shmem

// Windows of 256 x 8 B messages over 64 tags on a pure-shmem pair: the
// receiver pre-posts each window grouped by tag, the sender posts it in a
// seeded interleave, and a 4 B ack closes the window.
constexpr Tag kAckTag = 100;

PhaseOut msgrate_phase(World& w, const Phase& ph) {
  PhaseOut out;
  std::atomic<uint64_t> last{kNoLast};
  const int64_t t0 = now_ns();
  run_clients(ph.ctx, 2, [&](int slot) {
    auto reqs = std::make_unique<Request[]>(kWindow);
    std::array<uint64_t, kWindow> bufs{};
    if (slot == 0) {  // sender, rank 0
      Comm& c = w.comm(0);
      for (uint64_t win = 0;; ++win) {
        if (ph.time_up() && last.load() == kNoLast) last.store(win);
        ScopedSpan span(ph.log(slot), "op.window", win);
        const int64_t s0 = now_ns();
        Request ack;
        uint32_t ack_value = 0;
        irecv(ph, slot, c, ack, 1, kAckTag, &ack_value, sizeof(ack_value), win);
        const auto order = window_order(ph.seed(), ph.id, win);
        std::array<int, kRateTags> seen{};
        for (int i = 0; i < kWindow; ++i) {
          const int g = order[static_cast<std::size_t>(i)];
          const int k = seen[static_cast<std::size_t>(g)]++;
          auto& buf = bufs[static_cast<std::size_t>(i)];
          buf = rate_payload(ph.seed(), ph.id, win, g, k);
          if (ph.inject(win) && i == 0) buf ^= 1;
          isend(ph, slot, c, reqs[i], 1, static_cast<Tag>(g), &buf,
                sizeof(buf), win);
        }
        for (int i = 0; i < kWindow; ++i) {
          ph.ctx.tally.record(wait_op(ph, slot, c, reqs[i], win));
        }
        const bool ok = wait_op(ph, slot, c, ack, win);
        ph.ctx.tally.record(ok && ack_value == u32(stamp(~ph.seed(), ph.id, win, 0)));
        const double us = static_cast<double>(now_ns() - s0) * 1e-3;
        out.window_us.add(us);
        out.op_us.add(us / kWindow);
        out.ops += kWindow;
        if (win == last.load()) break;
      }
    } else {  // receiver, rank 1
      Comm& c = w.comm(1);
      const auto post = [&](uint64_t win) {
        for (int i = 0; i < kWindow; ++i) {
          bufs[static_cast<std::size_t>(i)] = 0;
          irecv(ph, slot, c, reqs[i], 0, static_cast<Tag>(i / kPerTag),
                &bufs[static_cast<std::size_t>(i)], sizeof(uint64_t), win);
        }
      };
      post(0);
      for (uint64_t win = 0;; ++win) {
        for (int i = 0; i < kWindow; ++i) {
          const bool ok = wait_op(ph, slot, c, reqs[i], win);
          ph.ctx.tally.record(
              ok && reqs[i].received() == sizeof(uint64_t) &&
              bufs[static_cast<std::size_t>(i)] ==
                  rate_payload(ph.seed(), ph.id, win, i / kPerTag, i % kPerTag));
        }
        const bool more = win != last.load();
        if (more) post(win + 1);  // pre-post before the ack releases the sender
        send_u32(ph, slot, c, 0, kAckTag, u32(stamp(~ph.seed(), ph.id, win, 0)),
                 win);
        if (!more) break;
      }
    }
  });
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

// =============================================================== recv_overlap

// Receiver posts a 1 MiB (rendezvous) irecv, sends a 4 B go, computes a
// fixed 2 ms, then waits: the transfer overlaps the compute only if
// background tasks answer the RTS and drive the pull.
constexpr std::size_t kXferBytes = std::size_t{1} << 20;
constexpr std::size_t kXferWords = kXferBytes / sizeof(uint64_t);
constexpr double kComputeUs = 2000.0;
constexpr Tag kDataTag = 1;
constexpr Tag kGoTag = 2;

PhaseOut overlap_phase(World& w, const Phase& ph) {
  PhaseOut out;
  std::atomic<uint64_t> last{kNoLast};
  const std::vector<uint64_t> base = word_base(ph.seed(), kXferWords);
  const int64_t t0 = now_ns();
  run_clients(ph.ctx, 2, [&](int slot) {
    std::vector<uint64_t> buf(kXferWords);
    if (slot == 0) {  // receiver, rank 1: drives the loop
      Comm& c = w.comm(1);
      for (uint64_t i = 0;; ++i) {
        if (ph.time_up() && last.load() == kNoLast) last.store(i);
        ScopedSpan span(ph.log(slot), "op.xfer", i);
        std::fill(buf.begin(), buf.end(), 0);
        Request data;
        Request go;
        const uint32_t go_value = u32(stamp(ph.seed(), ph.id, i, kGoTag));
        const int64_t s0 = now_ns();
        irecv(ph, slot, c, data, 0, kDataTag, buf.data(), kXferBytes, i);
        isend(ph, slot, c, go, 0, kGoTag, &go_value, sizeof(go_value), i);
        {
          ScopedSpan compute(ph.log(slot), "app.compute", i);
          piom::util::burn_cpu_us(kComputeUs);
        }
        const bool ok = wait_op(ph, slot, c, data, i);
        out.op_us.add(static_cast<double>(now_ns() - s0) * 1e-3);
        ph.ctx.tally.record(wait_op(ph, slot, c, go, i));
        const uint64_t key = stamp(ph.seed(), ph.id, i, kDataTag);
        ph.ctx.tally.record(ok && data.received() == kXferBytes &&
                            words_ok(buf.data(), base, key));
        ++out.ops;
        if (i == last.load()) break;
      }
    } else {  // sender, rank 0
      Comm& c = w.comm(0);
      for (uint64_t i = 0;; ++i) {
        fill_words(buf.data(), base, stamp(ph.seed(), ph.id, i, kDataTag));
        if (ph.inject(i)) buf[kXferWords / 2] ^= 1;
        recv_u32(ph, 1, c, 1, kGoTag, u32(stamp(ph.seed(), ph.id, i, kGoTag)),
                 i);
        Request data;
        isend(ph, 1, c, data, 1, kDataTag, buf.data(), kXferBytes, i);
        ph.ctx.tally.record(wait_op(ph, 1, c, data, i));
        if (i == last.load()) break;
      }
    }
  });
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

// =============================================================== allreduce_4r

// One thread per rank of a 4-rank dense world calls allreduce of 256
// doubles; rank 0's per-call time is the sample (the slowest rank sets it).
constexpr int kCollRanks = 4;
constexpr std::size_t kCollCount = 256;

/// allreduce input: small integers, so the double sum is exact.
double reduce_input(uint64_t seed, uint64_t phase, int rank, uint64_t call,
                    std::size_t i) {
  const uint64_t v = stamp(seed, phase, (call << 8) | static_cast<uint64_t>(rank), i);
  return static_cast<double>(static_cast<int64_t>(v % 2048) - 1024);
}

/// One allreduce by rank `r` (iallreduce + wait, which is what the
/// blocking form is), verified against the exact sum. Returns µs.
double allreduce_once(const Phase& ph, World& w, int r, uint64_t call,
                      std::vector<double>& data) {
  for (std::size_t i = 0; i < kCollCount; ++i) {
    data[i] = reduce_input(ph.seed(), ph.id, r, call, i);
  }
  if (ph.inject(call) && r == 0) data[0] += 1;
  Comm& c = w.comm(r);
  CollRequest req;
  const int64_t s0 = now_ns();
  {
    ScopedSpan s(ph.log(r), "mpi.iallreduce", call);
    c.iallreduce(req, data.data(), kCollCount, piom::mpi::ReduceOp::kSum);
  }
  bool ok = wait_op(ph, r, c, req, call);
  const double us = static_cast<double>(now_ns() - s0) * 1e-3;
  for (std::size_t i = 0; i < kCollCount && ok; ++i) {
    double sum = 0;
    for (int q = 0; q < kCollRanks; ++q) {
      sum += reduce_input(ph.seed(), ph.id, q, call, i);
    }
    ok = data[i] == sum;
  }
  ph.ctx.tally.record(ok);
  return us;
}

PhaseOut allreduce_phase(World& w, const Phase& ph) {
  PhaseOut out;
  std::atomic<uint64_t> last{kNoLast};
  const int64_t t0 = now_ns();
  run_clients(ph.ctx, kCollRanks, [&](int r) {
    std::vector<double> data(kCollCount);
    for (uint64_t call = 0;; ++call) {
      if (r == 0 && ph.time_up() && last.load() == kNoLast) last.store(call);
      ScopedSpan span(ph.log(r), "op.allreduce", call);
      const double us = allreduce_once(ph, w, r, call, data);
      if (r == 0) {
        out.op_us.add(us);
        ++out.ops;
      }
      if (call == last.load()) break;
    }
  });
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

// ================================================================== registry

struct Workload {
  const char* name;
  int nranks;
  int clients;
  void (*configure)(WorldConfig&);
  PhaseOut (*phase)(World&, const Phase&);
  /// The workload's headline numbers under their figure-specific names
  /// (report lines only; the metrics use the workload-neutral op_us.*).
  void (*view)(Report&, const PhaseOut&);
};

void simnet_pair(WorldConfig&) {}  // the default wiring: every pair simnet
void shmem_pair(WorldConfig& cfg) { cfg.policy.node_of = {0, 0}; }
void dense_four(WorldConfig& cfg) {
  cfg.nranks = kCollRanks;
  cfg.overlay.mode = piom::mpi::OverlayMode::kDense;
}

/// A p99 only has ten samples beyond it from 1000 samples on; below that
/// the report line is left out rather than printed from too few samples.
void view_p99(Report& r, const std::string& name, const Samples& s) {
  if (s.size() >= 1000) r.info(name, s.pct(99));
}

void view_pingpong(Report& r, const PhaseOut& o) {
  r.info("view.lat_us.p50", o.op_us.pct(50));
  view_p99(r, "view.lat_us.p99", o.op_us);
}
void view_msgrate(Report& r, const PhaseOut& o) {
  r.info("view.msgrate_mps", static_cast<double>(o.ops) / o.wall_s * 1e-6);
  view_p99(r, "view.window_us.p99", o.window_us);
}
void view_overlap(Report& r, const PhaseOut& o) {
  r.info("view.overlap_ratio", kComputeUs / o.op_us.pct(50));
  view_p99(r, "view.xfer_us.p99", o.op_us);
}
void view_allreduce(Report& r, const PhaseOut& o) {
  r.info("view.coll_us.p50", o.op_us.pct(50));
  view_p99(r, "view.coll_us.p99", o.op_us);
}

const Workload kWorkloads[] = {
    {"pingpong_mt", 2, 1 + kPingReceivers, simnet_pair, pingpong_phase,
     view_pingpong},
    {"msgrate_shmem", 2, 2, shmem_pair, msgrate_phase, view_msgrate},
    {"recv_overlap", 2, 2, simnet_pair, overlap_phase, view_overlap},
    {"allreduce_4r", kCollRanks, kCollRanks, dense_four, allreduce_phase,
     view_allreduce},
};

WorldConfig world_config(const Workload& wl) {
  WorldConfig cfg;
  cfg.engine = piom::mpi::EngineKind::kPioman;  // default PiomanEngineConfig
  wl.configure(cfg);
  return cfg;
}

/// First completed exchange on every rank pair the workload uses: a round
/// trip for the 2-rank workloads, the first allreduce (which wires every
/// pair recursive doubling touches) for allreduce_4r.
void first_contact(const Workload& wl, World& w, const Phase& ph) {
  if (wl.nranks == 2) {
    run_clients(ph.ctx, 1, [&](int) { exchange(ph, w, 0, 1); });
    return;
  }
  run_clients(ph.ctx, wl.nranks, [&](int r) {
    std::vector<double> data(kCollCount);
    (void)allreduce_once(ph, w, r, 0, data);
  });
}

// ---- per-layer counters, snapshotted around each traced slice ----

/// Named cumulative counters of a World plus process usage and the clock;
/// the traced run sums their deltas over its traced slices.
using Counters = std::map<std::string, double>;

Counters snapshot(World& w) {
  Counters c;
  const auto add = [&c](const char* k, uint64_t v) {
    c[k] += static_cast<double>(v);
  };
  for (int r = 0; r < w.nranks(); ++r) {
    piom::nmad::Session& s = w.session(r);
    for (std::size_t i = 0; i < s.gate_count(); ++i) {
      const piom::nmad::GateStats g = s.gate(i).stats();
      add("msgs_sent", g.eager_sent + g.rdv_sent);
      add("msgs_recv", g.eager_recv + g.rdv_recv);
      add("eager_recv", g.eager_recv);
      add("unexpected_eager", g.unexpected_eager);
      add("bucket_hits", g.match_bucket_hits);
      add("pool_misses", g.match_pool_misses + g.pw_pool_misses);
      add("retransmits", g.retransmits);
    }
    for (int p = 0; p < w.nranks(); ++p) {
      const auto* rails = p == r ? nullptr : w.cluster().existing_pair_rails(r, p);
      if (rails == nullptr) continue;
      for (const piom::transport::IChannel* ch : *rails) {
        const piom::transport::ChannelStats st = ch->stats();
        add("pkts", st.packets_tx);
        add("bytes", st.bytes_tx);
        if (ch->backend() == piom::transport::Backend::kSimnet) {
          add("simnet_drops", st.packets_dropped);
        }
      }
    }
    piom::TaskManager& tm =
        dynamic_cast<piom::mpi::PiomanEngine&>(w.engine(r)).task_manager();
    for (int cpu = 0; cpu < tm.machine().ncpus(); ++cpu) {
      const piom::CoreStats cs = tm.core_stats(cpu);
      add("tasks_run", cs.tasks_run);
      add("schedule_calls", cs.schedule_calls);
      add("steal_attempts", cs.steal_attempts);
      add("steal_hits", cs.steal_hits);
    }
    add("submissions", tm.submissions());
  }
  const Usage u = usage_now();
  c["cpu_s"] = u.cpu_s;
  c["vol_csw"] = u.vol_csw;
  c["invol_csw"] = u.invol_csw;
  c["wall_s"] = static_cast<double>(now_ns()) * 1e-9;
  return c;
}

/// total += after - before, key by key.
void accumulate(Counters& total, const Counters& before, const Counters& after) {
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    total[k] += v - (it == before.end() ? 0.0 : it->second);
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void report_layers(Report& rep, Counters d, uint64_t ops) {
  const double n = static_cast<double>(ops);
  rep.metric("nmad.wire_pkts_per_msg", ratio(d["pkts"], d["msgs_sent"]), "count");
  rep.metric("nmad.unexpected_frac",
             ratio(d["unexpected_eager"], d["eager_recv"]), "ratio");
  rep.metric("nmad.bucket_hit_frac", ratio(d["bucket_hits"], d["msgs_recv"]),
             "ratio");
  rep.metric("nmad.pool_miss_per_msg", ratio(d["pool_misses"], d["msgs_sent"]),
             "count");
  rep.metric("nmad.retransmits", d["retransmits"], "count");
  rep.metric("transport.pkts_per_op", ratio(d["pkts"], n), "count");
  rep.metric("transport.bytes_per_op", ratio(d["bytes"], n), "B");
  rep.metric("simnet.drops", d["simnet_drops"], "count");
  rep.metric("core.tasks_run_per_op", ratio(d["tasks_run"], n), "count");
  rep.metric("core.submissions_per_op", ratio(d["submissions"], n), "count");
  rep.metric("core.useful_sched_frac",
             ratio(d["tasks_run"], d["schedule_calls"]), "ratio");
  rep.metric("core.steal_hit_frac",
             ratio(d["steal_hits"], d["steal_attempts"]), "ratio");
  rep.metric("sched.cpu_util", ratio(d["cpu_s"], d["wall_s"]), "cpus");
  rep.metric("sched.cpu_us_per_op", ratio(d["cpu_s"] * 1e6, n), "us");
  rep.metric("sched.vol_csw_per_op", ratio(d["vol_csw"], n), "count");
  rep.metric("sched.invol_csw_per_op", ratio(d["invol_csw"], n), "count");
}

/// Record the resolved configuration (after $PIOM_* were cleared): the
/// engine, per-pair wiring, matcher, aggregation, overlay, worker count.
void describe_config(Report& rep, World& w) {
  rep.info("engine", w.engine(0).name());
  rep.info("workers", w.config().pioman.workers);
  rep.info("matcher",
           w.session(0).config().matcher == piom::nmad::MatcherKind::kBucket
               ? "bucket"
               : "scan");
  rep.info("aggregation", w.session(0).strategy().aggregation() ? "on" : "off");
  rep.info("overlay",
           piom::mpi::overlay_mode_name(w.comm(0).membership().mode()));
  std::string wiring;
  for (int r = 0; r < w.nranks(); ++r) {
    for (int p = r + 1; p < w.nranks(); ++p) {
      const auto* rails = w.cluster().existing_pair_rails(r, p);
      if (rails == nullptr) continue;
      wiring += (wiring.empty() ? "" : " ") + std::to_string(r) + "-" +
                std::to_string(p) + ":";
      for (std::size_t k = 0; k < rails->size(); ++k) {
        wiring += std::string(k ? "+" : "") +
                  piom::transport::backend_name((*rails)[k]->backend());
      }
    }
  }
  rep.info("wiring", wiring);
}

}  // namespace

void abort_run(RunContext& ctx, const std::string& why) {
  ctx.report.info("aborted", why);
  ctx.tally.record(false);
  std::printf("%s\n", ctx.report.json(ctx.tally, false).c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

// ---- payload helpers ----

std::array<int, kWindow> window_order(uint64_t seed, uint64_t phase,
                                      uint64_t w) {
  std::array<int, kWindow> order{};
  for (int i = 0; i < kWindow; ++i) {
    order[static_cast<std::size_t>(i)] = i / kPerTag;
  }
  uint64_t state = stamp(seed, phase, w, 0x5eed);
  for (int i = kWindow - 1; i > 0; --i) {
    state = mix(state);
    const auto j =
        static_cast<std::size_t>(state % static_cast<uint64_t>(i + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[j]);
  }
  return order;
}

uint64_t rate_payload(uint64_t seed, uint64_t phase, uint64_t w, int g,
                      int k) {
  return stamp(seed, phase, w, static_cast<uint64_t>(g * kPerTag + k));
}

std::vector<uint64_t> word_base(uint64_t seed, std::size_t words) {
  std::vector<uint64_t> base(words);
  for (std::size_t j = 0; j < words; ++j) base[j] = stamp(seed, 0xb1b, j, 0);
  return base;
}

void fill_words(uint64_t* dst, const std::vector<uint64_t>& base, uint64_t key) {
  for (std::size_t j = 0; j < base.size(); ++j) dst[j] = base[j] ^ key;
}

bool words_ok(const uint64_t* got, const std::vector<uint64_t>& base,
              uint64_t key) {
  uint64_t diff = 0;
  for (std::size_t j = 0; j < base.size(); ++j) diff |= got[j] ^ base[j] ^ key;
  return diff == 0;
}


bool verifier_selfcheck() {
  Tally t;
  const uint64_t seed = 0x5e1f;
  // Large-transfer verifier: clean passes, one flipped bit fails.
  const std::vector<uint64_t> base = word_base(seed, 1024);
  std::vector<uint64_t> buf(base.size());
  fill_words(buf.data(), base, 7);
  t.record(words_ok(buf.data(), base, 7));
  buf[base.size() / 3] ^= 1u << 5;
  t.record(words_ok(buf.data(), base, 7));
  // Stale data from the previous transfer must not verify either.
  fill_words(buf.data(), base, 6);
  t.record(words_ok(buf.data(), base, 7));
  // Small-message stamps: a neighbouring sequence number fails.
  t.record(stamp(seed, kTimed, 1, 4) == stamp(seed, kTimed, 1, 4));
  t.record(stamp(seed, kTimed, 1, 5) == stamp(seed, kTimed, 1, 4));
  // allreduce: the exact sum verifies, one ulp off does not.
  double sum = 0;
  for (int r = 0; r < kCollRanks; ++r) sum += reduce_input(seed, kTimed, r, 3, 9);
  const double exact = sum;
  t.record(sum == exact);
  t.record(std::nextafter(sum, 1e300) == exact);
  return t.attempted.load() == 7 && t.failed.load() == 4;
}

void run_workload(RunContext& ctx) {
  const Workload* wl = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (ctx.opt.workload == cand.name) wl = &cand;
  }
  if (wl == nullptr) {
    throw std::invalid_argument("unknown workload '" + ctx.opt.workload + "'");
  }
  Report& rep = ctx.report;
  const WorldConfig cfg = world_config(*wl);
  const auto run_ns = static_cast<int64_t>(ctx.opt.seconds * 1e9);
  SpanLog* main_log = ctx.opt.trace ? ctx.tracer.log(0) : nullptr;

  std::unique_ptr<World> world;
  const auto run_phase = [&](uint64_t id, int64_t duration_ns, bool traced) {
    std::vector<SpanLog*> logs;
    if (traced) {
      for (int s = 0; s < wl->clients; ++s) logs.push_back(ctx.tracer.log(1 + s));
    }
    const Phase ph{ctx, id, now_ns() + duration_ns, logs};
    return wl->phase(*world, ph);
  };

  // ---- kSegments fresh Worlds, each timed from construction through
  // first contact (set-up) and then running one slice of the timed phase,
  // so one unlucky World (thread placement, a noisy neighbour) moves the
  // pooled numbers by a fraction only. The traced run splits each slice
  // into an untraced and a traced half: the tracing overhead is their p50
  // ratio, and the per-layer counters bracket the traced halves.
  Samples setup_s;
  Samples ctor_s;
  Samples contact_us;
  PhaseOut plain;
  PhaseOut traced;
  Counters layers;
  int threads = 0;
  double rss_mib = 0;
  const int64_t slice_ns = run_ns / kSegments;
  const auto pool = [](PhaseOut& into, const PhaseOut& out) {
    into.op_us.append(out.op_us);
    into.window_us.append(out.window_us);
    into.ops += out.ops;
    into.wall_s += out.wall_s;
  };
  for (int seg = 0; seg < kSegments; ++seg) {
    world.reset();  // teardown is not part of set-up
    const auto op = static_cast<uint64_t>(seg);
    const int64_t t0 = now_ns();
    {
      ScopedSpan s(main_log, "setup.world_ctor", op);
      world = std::make_unique<World>(cfg);
    }
    const int64_t t1 = now_ns();
    {
      ScopedSpan s(main_log, "setup.first_contact", op);
      first_contact(*wl, *world, Phase{ctx, kSetup, 0, {}});
    }
    const int64_t t2 = now_ns();
    setup_s.add(static_cast<double>(t2 - t0) * 1e-9);
    ctor_s.add(static_cast<double>(t1 - t0) * 1e-9);
    contact_us.add(static_cast<double>(t2 - t1) * 1e-3);
    if (seg == 0) describe_config(rep, *world);

    (void)run_phase(kWarmup, kWarmupNs, false);
    threads = os_threads();
    if (!ctx.opt.trace) {
      pool(plain, run_phase(kTimed, slice_ns, false));
    } else {
      pool(plain, run_phase(kTimed, slice_ns / 2, false));
      const Counters before = snapshot(*world);
      pool(traced, run_phase(kTraced, slice_ns / 2, true));
      accumulate(layers, before, snapshot(*world));
    }
    // Peak resident set while the first World runs the workload. Later
    // Worlds reuse whatever the allocator kept from earlier ones, so the
    // process-lifetime peak would measure allocator retention instead.
    if (seg == 0) rss_mib = peak_rss_mib();
  }

  if (!ctx.opt.trace) {
    rep.metric("setup_s", setup_s.pct(50), "s", setup_s.size());
    rep.metric("rss_mib", rss_mib, "MiB");
    rep.metric("op_us.p50", plain.op_us.pct(50), "us", plain.op_us.size());
    rep.metric("op_us.p95", plain.op_us.pct(95), "us", plain.op_us.size());
    rep.metric("ops_per_s", ratio(static_cast<double>(plain.ops), plain.wall_s),
               "1/s", plain.ops);
    const double attempted = static_cast<double>(ctx.tally.attempted.load());
    rep.metric("ok_frac",
               ratio(attempted - static_cast<double>(ctx.tally.failed.load()),
                     attempted),
               "ratio", ctx.tally.attempted.load());
    rep.info("os_threads", threads);
    wl->view(rep, plain);
  } else {
    report_layers(rep, layers, traced.ops);
    rep.metric("trace.overhead_ratio",
               ratio(traced.op_us.pct(50), plain.op_us.pct(50)), "ratio",
               traced.op_us.size());
    rep.info("op_us.p50.untraced", plain.op_us.pct(50));
    rep.info("op_us.p50.traced", traced.op_us.pct(50));
    rep.metric("mpi.world_ctor_s", ctor_s.pct(50), "s", ctor_s.size());
    rep.metric("mpi.first_contact_us.p50", contact_us.pct(50), "us",
               contact_us.size());
    Samples start = ctx.tracer.durations("mpi.isend");
    start.append(ctx.tracer.durations("mpi.irecv"));
    start.append(ctx.tracer.durations("mpi.iallreduce"));
    rep.metric("mpi.start_us.p50", start.pct(50), "us", start.size());
    const Samples wait = ctx.tracer.durations("mpi.wait");
    rep.metric("mpi.wait_us.p50", wait.pct(50), "us", wait.size());
    rep.metric("mpi.wait_us.p99", wait.pct(99), "us", wait.size());
    rep.info("mpi.isend_us.p50", ctx.tracer.durations("mpi.isend").pct(50));
    rep.info("mpi.irecv_us.p50", ctx.tracer.durations("mpi.irecv").pct(50));
    rep.metric("sched.os_threads", threads, "count");
    run_dispatch_probe(ctx, *world, main_log);
    world.reset();
    run_layer_probes(ctx, main_log);
  }
  world.reset();
}

}  // namespace piombench
