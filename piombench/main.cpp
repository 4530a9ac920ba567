// piombench — one run of one piom-bench workload.
//
//   piombench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--inject-fault]
//
// Prints one JSON line: {"correct", "attempted", "failed", "metrics",
// "info"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones (and writes the Chrome trace to --trace-out). Normally
// started by run.py, which builds it, pins the environment and checks the
// result against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "workloads.hpp"

extern char** environ;

namespace {

using piombench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "piombench: %s\nusage: piombench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--inject-fault]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--inject-fault") {
      o.inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--trace-out") {
        o.trace_out = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
  return o;
}

/// The environment knobs the library reads would change the measured
/// program (backend, matcher, aggregation, overlay, tracing, logging);
/// run.py clears them, and the binary refuses to run if any is set.
void refuse_piom_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PIOM_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      const std::string name(*e, eq != nullptr ? eq - *e : std::strlen(*e));
      std::fprintf(stderr, "piombench: refusing to run with %s set\n",
                   name.c_str());
      std::exit(2);
    }
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "on";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr const char* kSanitizer = "on";
#else
constexpr const char* kSanitizer = "";
#endif
#else
constexpr const char* kSanitizer = "";
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Numbers from a sanitizer or unoptimised build mean nothing: refuse.
void refuse_unfit_build() {
  const std::string flags = PIOMBENCH_CXX_FLAGS;
  if (*kSanitizer != '\0' || flags.find("-fsanitize") != std::string::npos) {
    std::fprintf(stderr, "piombench: refusing to report from a sanitizer build\n");
    std::exit(2);
  }
  if (!kOptimized) {
    std::fprintf(stderr, "piombench: refusing to report from an unoptimised build\n");
    std::exit(2);
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  refuse_piom_env();
  refuse_unfit_build();

  auto ctx = std::make_unique<piombench::RunContext>();
  ctx->opt = opt;
  piombench::Report& rep = ctx->report;
  rep.info("workload", opt.workload);
  rep.info("seed", static_cast<double>(opt.seed));
  rep.info("compiler", PIOMBENCH_COMPILER);
  rep.info("build_type", PIOMBENCH_BUILD_TYPE);
  rep.info("cxx_flags", PIOMBENCH_CXX_FLAGS);
  rep.info("sanitizer", *kSanitizer != '\0' ? kSanitizer : "none");
  rep.info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  rep.info("cpu_model", cpu_model());

  try {
    piombench::run_workload(*ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "piombench: %s\n", e.what());
    return 2;
  }

  const bool selfcheck = piombench::verifier_selfcheck();
  rep.info("verifier_selfcheck", selfcheck ? "corruptions detected" : "FAILED");
  bool correct = selfcheck && ctx->tally.failed.load() == 0;
  if (opt.trace && !opt.trace_out.empty()) {
    const bool wrote = ctx->tracer.write_chrome(opt.trace_out, ctx->epoch_ns);
    rep.info("trace_spans", static_cast<double>(ctx->tracer.span_count()));
    if (!wrote) {
      std::fprintf(stderr, "piombench: cannot write %s\n", opt.trace_out.c_str());
      correct = false;
    }
  }
  std::printf("%s\n", rep.json(ctx->tally, correct).c_str());
  return 0;
}
