// Single-layer probes of the traced run. Each one measures the floor (or
// ceiling) one layer sets under an end-to-end metric:
//   transport — raw IChannel ping-pong, no nmad, no engine;
//   nmad      — caller-driven gates pumped by Session::progress from this
//               thread, no engine;
//   sched     — a no-op Task submitted into the idle World's TaskManager.
// They run after the timed phases, so they never perturb those numbers;
// all but the dispatch probe run after the World is gone, so its polling
// workers do not perturb them either.
#include <thread>

#include "core/task_manager.hpp"
#include "mpi/engine_pioman.hpp"
#include "nmad/request.hpp"
#include "nmad/session.hpp"
#include "transport/cluster.hpp"
#include "workloads.hpp"

namespace piombench {
namespace {

using piom::transport::Backend;
using piom::transport::Completion;
using piom::transport::IChannel;
using piom::util::now_ns;

constexpr int kPingIters = 2000;
constexpr int kRateWindows = 200;
constexpr int kXferIters = 100;
constexpr int kDispatchIters = 2000;
constexpr std::size_t kXferWords = (std::size_t{1} << 20) / sizeof(uint64_t);
constexpr uint64_t kProbePhase = 100;

/// Spin on `done()` until it holds; false past the per-operation deadline.
template <typename Done, typename Pump>
bool spin_until(Done done, Pump pump) {
  const int64_t t0 = now_ns();
  while (!done()) {
    pump();
    if (now_ns() - t0 > kOpDeadlineNs) return false;
  }
  return true;
}

/// Raw channel ping-pong at 4 B: post_send on one end, poll_rx on the
/// other, every completion drained before the buffer is reused.
Samples channel_oneway(RunContext& ctx, Backend backend) {
  piom::transport::Cluster cluster;
  auto [a, z] = cluster.create_pair(backend, "probe.raw");
  uint32_t rx_a = 0;
  uint32_t rx_z = 0;
  uint32_t tx_a = 0;
  uint32_t tx_z = 0;
  a->post_recv(&rx_a, sizeof(rx_a), 1);
  z->post_recv(&rx_z, sizeof(rx_z), 1);
  const auto poll = [](IChannel* ch, bool rx) {
    Completion c;
    return spin_until([&] { return rx ? ch->poll_rx(c) : ch->poll_tx(c); },
                      [] {}) &&
           c.bytes == sizeof(uint32_t);
  };
  Samples s;
  for (int i = 0; i < kPingIters; ++i) {
    const auto iu = static_cast<uint64_t>(i);
    tx_a = static_cast<uint32_t>(stamp(ctx.opt.seed, kProbePhase, iu, 1));
    tx_z = static_cast<uint32_t>(stamp(ctx.opt.seed, kProbePhase, iu, 2));
    const int64_t t0 = now_ns();
    a->post_send(&tx_a, sizeof(tx_a), 2);
    bool ok = poll(z, true) && rx_z == tx_a;
    z->post_recv(&rx_z, sizeof(rx_z), 1);
    z->post_send(&tx_z, sizeof(tx_z), 2);
    ok = ok && poll(a, true) && rx_a == tx_z;
    s.add(static_cast<double>(now_ns() - t0) * 0.5e-3);
    a->post_recv(&rx_a, sizeof(rx_a), 1);
    ok = ok && poll(a, false) && poll(z, false);
    ctx.tally.record(ok);
    if (!ok) abort_run(ctx, "raw channel probe missed its deadline");
  }
  a->quiesce();
  z->quiesce();
  return s;
}

/// Two caller-driven sessions over one pair of `backend`.
struct GatePair {
  explicit GatePair(Backend backend)
      : rails(cluster.create_pair(backend, "probe.gate")),
        ga(sa.create_gate({rails.first}, 1)),
        gb(sb.create_gate({rails.second}, 0)) {}

  /// Pump both sessions from this thread until `done()`.
  template <typename Done>
  bool pump(Done done) {
    return spin_until(done, [this] {
      sa.progress();
      sb.progress();
    });
  }

  piom::transport::Cluster cluster;
  std::pair<IChannel*, IChannel*> rails;
  piom::nmad::Session sa{"probe.a"};
  piom::nmad::Session sb{"probe.b"};
  piom::nmad::Gate& ga;
  piom::nmad::Gate& gb;
};

Samples gate_oneway(RunContext& ctx) {
  GatePair p(Backend::kSimnet);
  Samples s;
  for (int i = 0; i < kPingIters; ++i) {
    const auto iu = static_cast<uint64_t>(i);
    const auto ping = static_cast<uint32_t>(stamp(ctx.opt.seed, kProbePhase, iu, 3));
    const auto pong = static_cast<uint32_t>(stamp(ctx.opt.seed, kProbePhase, iu, 4));
    uint32_t got_b = 0;
    uint32_t got_a = 0;
    piom::nmad::RecvRequest rb;
    piom::nmad::SendRequest sa;
    piom::nmad::RecvRequest ra;
    piom::nmad::SendRequest sb;
    const int64_t t0 = now_ns();
    p.gb.irecv(rb, 5, &got_b, sizeof(got_b));
    p.ga.isend(sa, 5, &ping, sizeof(ping));
    bool ok = p.pump([&] { return rb.completed() && sa.completed(); });
    p.ga.irecv(ra, 6, &got_a, sizeof(got_a));
    p.gb.isend(sb, 6, &pong, sizeof(pong));
    ok = ok && p.pump([&] { return ra.completed() && sb.completed(); });
    s.add(static_cast<double>(now_ns() - t0) * 0.5e-3);
    ok = ok && got_b == ping && got_a == pong;
    ctx.tally.record(ok);
    if (!ok) abort_run(ctx, "gate one-way probe failed");
  }
  return s;
}

/// Message rate through bare shmem gates, same window shape as
/// msgrate_shmem. Returns millions of verified messages per second.
double gate_rate(RunContext& ctx) {
  GatePair p(Backend::kShmem);
  std::array<piom::nmad::RecvRequest, kWindow> rreqs;
  std::array<piom::nmad::SendRequest, kWindow> sreqs;
  std::array<uint64_t, kWindow> rx{};
  std::array<uint64_t, kWindow> tx{};
  const int64_t t0 = now_ns();
  for (int win = 0; win < kRateWindows; ++win) {
    const auto w = static_cast<uint64_t>(win);
    for (int i = 0; i < kWindow; ++i) {
      rx[static_cast<std::size_t>(i)] = 0;
      p.gb.irecv(rreqs[static_cast<std::size_t>(i)],
                 static_cast<piom::nmad::Tag>(i / kPerTag),
                 &rx[static_cast<std::size_t>(i)], sizeof(uint64_t));
    }
    const auto order = window_order(ctx.opt.seed, kProbePhase, w);
    std::array<int, kRateTags> seen{};
    for (int i = 0; i < kWindow; ++i) {
      const int g = order[static_cast<std::size_t>(i)];
      const int k = seen[static_cast<std::size_t>(g)]++;
      tx[static_cast<std::size_t>(i)] =
          rate_payload(ctx.opt.seed, kProbePhase, w, g, k);
      p.ga.isend(sreqs[static_cast<std::size_t>(i)],
                 static_cast<piom::nmad::Tag>(g),
                 &tx[static_cast<std::size_t>(i)], sizeof(uint64_t));
    }
    const bool done = p.pump([&] {
      for (int i = 0; i < kWindow; ++i) {
        if (!rreqs[static_cast<std::size_t>(i)].completed() ||
            !sreqs[static_cast<std::size_t>(i)].completed()) {
          return false;
        }
      }
      return true;
    });
    if (!done) abort_run(ctx, "gate rate probe missed its deadline");
    for (int i = 0; i < kWindow; ++i) {
      ctx.tally.record(rx[static_cast<std::size_t>(i)] ==
                       rate_payload(ctx.opt.seed, kProbePhase, w, i / kPerTag,
                                    i % kPerTag));
    }
  }
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  return static_cast<double>(kWindow) * kRateWindows / s * 1e-6;
}

/// 1 MiB rendezvous through bare simnet gates, no compute: irecv post to
/// receive completion.
Samples gate_xfer(RunContext& ctx) {
  GatePair p(Backend::kSimnet);
  const std::vector<uint64_t> base = word_base(ctx.opt.seed, kXferWords);
  std::vector<uint64_t> tx(kXferWords);
  std::vector<uint64_t> rx(kXferWords);
  Samples s;
  for (int i = 0; i < kXferIters; ++i) {
    const uint64_t key = stamp(ctx.opt.seed, kProbePhase, static_cast<uint64_t>(i), 5);
    fill_words(tx.data(), base, key);
    std::fill(rx.begin(), rx.end(), 0);
    piom::nmad::RecvRequest rr;
    piom::nmad::SendRequest sr;
    const int64_t t0 = now_ns();
    p.gb.irecv(rr, 7, rx.data(), rx.size() * sizeof(uint64_t));
    p.ga.isend(sr, 7, tx.data(), tx.size() * sizeof(uint64_t));
    bool ok = p.pump([&] { return rr.completed(); });
    s.add(static_cast<double>(now_ns() - t0) * 1e-3);
    ok = ok && p.pump([&] { return sr.completed(); });
    ok = ok && words_ok(rx.data(), base, key);
    ctx.tally.record(ok);
    if (!ok) abort_run(ctx, "gate transfer probe failed");
  }
  return s;
}

/// Idle-worker pick-up delay: a no-op task submitted into the World's
/// TaskManager (global queue), timed from submit to the start of its run.
Samples dispatch(RunContext& ctx, piom::TaskManager& tm) {
  struct Probe {
    piom::Task task;
    std::atomic<int64_t> ran_ns{0};
    static piom::TaskResult run(void* arg) {
      static_cast<Probe*>(arg)->ran_ns.store(now_ns());
      return piom::TaskResult::kDone;
    }
  };
  Probe probe;
  Samples s;
  for (int i = 0; i < kDispatchIters; ++i) {
    probe.task.init(&Probe::run, &probe, piom::topo::CpuSet{}, piom::kTaskNone);
    const int64_t t0 = now_ns();
    tm.submit(&probe.task);
    const bool ok = spin_until([&] { return probe.task.completed(); },
                               [] { std::this_thread::yield(); });
    ctx.tally.record(ok);
    // A task left queued would outlive its storage: stop the run instead.
    if (!ok) abort_run(ctx, "dispatch probe task never ran");
    s.add(static_cast<double>(probe.ran_ns.load() - t0) * 1e-3);
  }
  return s;
}

}  // namespace

void run_dispatch_probe(RunContext& ctx, piom::mpi::World& world,
                        SpanLog* log) {
  ScopedSpan s(log, "probe.sched.dispatch", 0);
  auto& eng = dynamic_cast<piom::mpi::PiomanEngine&>(world.engine(0));
  const Samples v = dispatch(ctx, eng.task_manager());
  ctx.report.metric("sched.dispatch_us.p50", v.pct(50), "us", v.size());
  ctx.report.metric("sched.dispatch_us.p99", v.pct(99), "us", v.size());
}

void run_layer_probes(RunContext& ctx, SpanLog* log) {
  Report& rep = ctx.report;
  {
    ScopedSpan s(log, "probe.transport.simnet_oneway", 0);
    const Samples v = channel_oneway(ctx, Backend::kSimnet);
    rep.metric("transport.simnet_oneway_us.p50", v.pct(50), "us", v.size());
  }
  {
    ScopedSpan s(log, "probe.transport.shmem_oneway", 0);
    const Samples v = channel_oneway(ctx, Backend::kShmem);
    rep.metric("transport.shmem_oneway_us.p50", v.pct(50), "us", v.size());
  }
  {
    ScopedSpan s(log, "probe.nmad.gate_oneway", 0);
    const Samples v = gate_oneway(ctx);
    rep.metric("nmad.gate_oneway_us.p50", v.pct(50), "us", v.size());
  }
  {
    ScopedSpan s(log, "probe.nmad.gate_rate", 0);
    rep.metric("nmad.gate_rate_mps", gate_rate(ctx), "Mmsg/s",
               static_cast<std::size_t>(kWindow) * kRateWindows);
  }
  {
    ScopedSpan s(log, "probe.nmad.gate_xfer", 0);
    const Samples v = gate_xfer(ctx);
    rep.metric("nmad.gate_xfer_us.p50", v.pct(50), "us", v.size());
  }
}

}  // namespace piombench
