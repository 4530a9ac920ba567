// piom-bench shared pieces: seeded inputs, samples, failure accounting,
// the per-operation deadline, in-memory spans and process counters.
//
// Everything here lives in the benchmark, not in the library: the spans
// wrap the benchmark's own calls into the public API, so the measured
// program is exactly what a user links.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/timing.hpp"

namespace piombench {

// ---------------------------------------------------------------- inputs

/// splitmix64 finalizer: every payload word derives from the run's seed
/// through this, so the same seed gives the same inputs.
[[nodiscard]] constexpr uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Value stamped into operation (a, b, c) of a run: a payload that also
/// encodes its sequence position, so reordering and stale data both fail
/// verification.
[[nodiscard]] constexpr uint64_t stamp(uint64_t seed, uint64_t a, uint64_t b,
                                       uint64_t c) {
  return mix(seed ^ mix(a ^ mix(b ^ mix(c))));
}

// --------------------------------------------------------------- samples

/// A timing distribution. Percentiles are nearest-rank on the sorted
/// samples; the caller reports the count beside them.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] double pct(double p) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const auto idx = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(s.size() - 1) + 0.5);
    return s[std::min(idx, s.size() - 1)];
  }

 private:
  std::vector<double> v_;
};

// ------------------------------------------------------ failure accounting

/// Operations attempted and failed. An operation fails when its request
/// error-completes, its payload does not verify, or it misses the
/// per-operation deadline.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  void record(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Longest any single operation may take. Normal operations take
/// milliseconds; a request still pending after this is a hang.
inline constexpr int64_t kOpDeadlineNs = 2'000'000'000;

/// Per-client-thread "blocked since" slots. Client threads arm a slot
/// around every blocking call; the phase runner's main thread scans them
/// and ends the run when one stays armed past the deadline, so a hang
/// cannot stall the benchmark.
class Watchdog {
 public:
  static constexpr int kSlots = 8;
  void arm(int slot) { since_[slot].store(piom::util::now_ns()); }
  void disarm(int slot) { since_[slot].store(0); }
  /// True when some slot has been armed for longer than the deadline.
  [[nodiscard]] bool expired() const {
    const int64_t now = piom::util::now_ns();
    for (const auto& s : since_) {
      const int64_t t = s.load();
      if (t != 0 && now - t > kOpDeadlineNs) return true;
    }
    return false;
  }

 private:
  std::atomic<int64_t> since_[kSlots] = {};
};

// ---------------------------------------------------------------- tracing

/// One traced interval. Spans of one operation share `op`; `parent` is
/// the enclosing span on the same thread (0 = none).
struct Span {
  const char* name = "";
  int64_t t0 = 0;
  int64_t t1 = 0;
  uint64_t op = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
};

/// Spans of one thread, kept in memory and written at exit. Durations of
/// every span feed per-name samples; only the first kKeep spans are kept
/// for the trace file, which bounds its size on message-rate workloads
/// (later spans still count in the durations).
class SpanLog {
 public:
  static constexpr std::size_t kKeep = 20000;

  SpanLog(int tid, std::atomic<uint32_t>& ids) : tid_(tid), ids_(&ids) {}

  [[nodiscard]] int tid() const { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::map<std::string, Samples>& durations() const {
    return durations_;
  }

  uint32_t open() {
    const uint32_t id = ids_->fetch_add(1, std::memory_order_relaxed);
    stack_.push_back(id);
    return id;
  }
  void close(const char* name, int64_t t0, int64_t t1, uint64_t op,
             uint32_t id) {
    stack_.pop_back();
    durations_[name].add(static_cast<double>(t1 - t0) * 1e-3);
    if (spans_.size() < kKeep) {
      spans_.push_back(
          {name, t0, t1, op, id, stack_.empty() ? 0u : stack_.back()});
    }
  }

 private:
  int tid_;
  std::atomic<uint32_t>* ids_;
  std::vector<uint32_t> stack_;
  std::vector<Span> spans_;
  std::map<std::string, Samples> durations_;
};

/// RAII span; a null log (untraced run) costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op)
      : log_(log), name_(name), op_(op) {
    if (log_ != nullptr) {
      id_ = log_->open();
      t0_ = piom::util::now_ns();
    }
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(name_, t0_, piom::util::now_ns(), op_, id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t op_;
  uint32_t id_ = 0;
  int64_t t0_ = 0;
};

/// Every span log of a run, one per thread that records.
class Tracer {
 public:
  SpanLog* log(int tid) {
    std::lock_guard<std::mutex> g(lock_);
    logs_.push_back(std::make_unique<SpanLog>(tid, ids_));
    return logs_.back().get();
  }
  /// Durations (µs) of every span called `name`, across threads.
  [[nodiscard]] Samples durations(const std::string& name) const;
  /// Chrome trace-event JSON (Perfetto / chrome://tracing). Returns false
  /// when the file cannot be written.
  bool write_chrome(const std::string& path, int64_t epoch_ns) const;
  [[nodiscard]] std::size_t span_count() const;

 private:
  mutable std::mutex lock_;
  std::atomic<uint32_t> ids_{1};
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// ------------------------------------------------------- process counters

/// getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double cpu_s = 0;
  double vol_csw = 0;
  double invol_csw = 0;
};
[[nodiscard]] Usage usage_now();
/// Threads of this process (/proc/self/status).
[[nodiscard]] int os_threads();
/// Peak resident set (/proc/self/status VmHWM), MiB.
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------------- output

/// Everything one run reports: metrics (value + unit + sample count) and
/// free-form descriptive fields, printed as one JSON line at exit.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit,
              std::size_t samples = 0);
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  [[nodiscard]] std::string json(const Tally& tally, bool correct) const;

 private:
  struct Metric {
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;  // values already JSON-encoded
};

}  // namespace piombench
