#include "util/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "util/env.hpp"
#include "util/timing.hpp"

namespace piom::util::trace {

namespace {

struct Ring {
  std::vector<Event> events = std::vector<Event>(kRingCapacity);
  std::atomic<uint64_t> head{0};  ///< total events ever written
  uint32_t ordinal = 0;
};

std::mutex g_registry_mutex;
/// Ring registry. Immortal (allocated once, never destroyed): rings must
/// stay readable by collect() after their threads exit, and the registry
/// itself must survive static destruction so LeakSanitizer still sees the
/// ring pointers at its exit-time scan (a plain global vector would be
/// destructed first, orphaning them into reported leaks).
std::vector<Ring*>& rings() {
  static std::vector<Ring*>* v = new std::vector<Ring*>();
  return *v;
}
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_env_checked{false};

Ring& thread_ring() {
  thread_local Ring* ring = [] {
    auto* r = new Ring();  // immortal by design: see rings() comment
    std::lock_guard<std::mutex> lk(g_registry_mutex);
    r->ordinal = static_cast<uint32_t>(rings().size());
    rings().push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kTaskSubmit: return "task-submit";
    case Kind::kTaskRun: return "task-run";
    case Kind::kTaskDone: return "task-done";
    case Kind::kTaskRequeue: return "task-requeue";
    case Kind::kTaskSteal: return "task-steal";
    case Kind::kSchedulePass: return "schedule";
    case Kind::kPacketTx: return "packet-tx";
    case Kind::kPacketRx: return "packet-rx";
    case Kind::kUser: return "user";
  }
  return "?";
}

bool enabled() {
  if (!g_env_checked.load(std::memory_order_acquire)) {
    if (util::env::boolean("PIOM_TRACE", false)) {
      g_enabled.store(true, std::memory_order_release);
    }
    g_env_checked.store(true, std::memory_order_release);
  }
  return g_enabled.load(std::memory_order_relaxed);
}

void enable() {
  g_env_checked.store(true, std::memory_order_release);
  g_enabled.store(true, std::memory_order_release);
}

void disable() {
  g_env_checked.store(true, std::memory_order_release);
  g_enabled.store(false, std::memory_order_release);
}

void record(Kind kind, uint32_t arg0, uint64_t arg1) {
  Ring& ring = thread_ring();
  const uint64_t slot = ring.head.fetch_add(1, std::memory_order_relaxed);
  Event& e = ring.events[slot % kRingCapacity];
  e.t_ns = now_ns();
  e.thread = ring.ordinal;
  e.kind = kind;
  e.arg0 = arg0;
  e.arg1 = arg1;
}

std::vector<Event> collect() {
  std::vector<Event> out;
  {
    std::lock_guard<std::mutex> lk(g_registry_mutex);
    for (Ring* ring : rings()) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t n = std::min<uint64_t>(head, kRingCapacity);
      for (uint64_t i = head - n; i < head; ++i) {
        out.push_back(ring->events[i % kRingCapacity]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.t_ns < b.t_ns; });
  return out;
}

void reset() {
  std::lock_guard<std::mutex> lk(g_registry_mutex);
  for (Ring* ring : rings()) {
    ring->head.store(0, std::memory_order_release);
  }
}

std::string format(const std::vector<Event>& events) {
  std::string out;
  if (events.empty()) return out;
  const int64_t t0 = events.front().t_ns;
  char line[160];
  for (const Event& e : events) {
    std::snprintf(line, sizeof(line), "%10.3fus  thr%-3u %-13s arg0=%u arg1=%llu\n",
                  static_cast<double>(e.t_ns - t0) * 1e-3, e.thread,
                  kind_name(e.kind), e.arg0,
                  static_cast<unsigned long long>(e.arg1));
    out += line;
  }
  return out;
}

}  // namespace piom::util::trace
