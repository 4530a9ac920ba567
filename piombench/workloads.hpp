// piom-bench workloads and probes. A run builds one workload's World
// several times (set-up), runs its closed loop for the timed phase and,
// in the traced run, records spans and per-layer counters and then runs
// the single-layer probes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mpi/world.hpp"

namespace piombench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Chrome trace output of the traced run ("" = do not write).
  std::string trace_out;
  /// Corrupt one payload of the timed phase on purpose (the smoke check
  /// uses it to prove a wrong payload reaches `failed`).
  bool inject_fault = false;
};

struct RunContext {
  Options opt;
  Tally tally;
  Watchdog dog;
  Tracer tracer;
  Report report;
  /// Zero of the trace file's time axis.
  int64_t epoch_ns = piom::util::now_ns();
};

/// Run `ctx.opt.workload` end to end and fill `ctx.report`. Throws
/// std::invalid_argument on an unknown workload name.
void run_workload(RunContext& ctx);

/// The single-layer probes of the traced run (probes.cpp). The dispatch
/// probe submits no-op tasks into rank 0's TaskManager of the workload's
/// World, idle by then; the layer probes build their own channels and
/// caller-driven sessions and run once that World is gone.
void run_dispatch_probe(RunContext& ctx, piom::mpi::World& world,
                        SpanLog* log);
void run_layer_probes(RunContext& ctx, SpanLog* log);

/// Feed every payload verifier a corrupted input through the same failure
/// accounting the workloads use. True when each corruption was counted as
/// a failure and each clean input as a success.
[[nodiscard]] bool verifier_selfcheck();

/// End the run at once: print the result so far with the failure counted
/// and exit with code 3 (a hang or a crashed client cannot be recovered).
[[noreturn]] void abort_run(RunContext& ctx, const std::string& why);

// ---- inputs and payload verification shared by workloads and probes ----

/// Message-rate window shape (msgrate_shmem and the gate rate probe):
/// kWindow messages over kRateTags tags, kPerTag per tag.
inline constexpr int kWindow = 256;
inline constexpr int kRateTags = 64;
inline constexpr int kPerTag = kWindow / kRateTags;

/// Seeded send order of window `w`: each tag kPerTag times, shuffled
/// (Fisher-Yates over mix(), so the order is the same on every platform).
[[nodiscard]] std::array<int, kWindow> window_order(uint64_t seed,
                                                    uint64_t phase, uint64_t w);
/// Payload of the k-th message on tag g of window w.
[[nodiscard]] uint64_t rate_payload(uint64_t seed, uint64_t phase, uint64_t w,
                                    int g, int k);

/// 1 MiB-class buffers: word j of transfer `key` is base[j] ^ key.
void fill_words(uint64_t* dst, const std::vector<uint64_t>& base, uint64_t key);
[[nodiscard]] bool words_ok(const uint64_t* got,
                            const std::vector<uint64_t>& base, uint64_t key);
/// Base pattern of a run's large transfers (derived from the seed).
[[nodiscard]] std::vector<uint64_t> word_base(uint64_t seed, std::size_t words);

}  // namespace piombench
