#include "bench.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace piombench {

Samples Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> g(lock_);
  Samples out;
  for (const auto& log : logs_) {
    const auto it = log->durations().find(name);
    if (it != log->durations().end()) out.append(it->second);
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> g(lock_);
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

bool Tracer::write_chrome(const std::string& path, int64_t epoch_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> g(lock_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      // Complete ("X") events; timestamps in µs from the run's epoch.
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"id\":%u,\"parent\":%u}}",
                   first ? "" : ",\n", s.name, log->tid(),
                   static_cast<double>(s.t0 - epoch_ns) * 1e-3,
                   static_cast<double>(s.t1 - s.t0) * 1e-3,
                   static_cast<unsigned long long>(s.op), s.id, s.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.vol_csw = static_cast<double>(ru.ru_nvcsw);
  u.invol_csw = static_cast<double>(ru.ru_nivcsw);
  return u;
}

namespace {

/// Numeric field `key` of /proc/self/status (first token after the colon).
double proc_status(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream rest(line.substr(prefix.size()));
      double v = 0;
      rest >> v;
      return v;
    }
  }
  return 0;
}

}  // namespace

int os_threads() { return static_cast<int>(proc_status("Threads")); }

double peak_rss_mib() { return proc_status("VmHWM") / 1024.0; }

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const char* unit,
                    std::size_t samples) {
  metrics_[name] = {value, unit, samples};
}

void Report::info(const std::string& key, const std::string& value) {
  info_[key] = "\"" + json_escape(value) + "\"";
}

void Report::info(const std::string& key, double value) {
  info_[key] = json_number(value);
}

std::string Report::json(const Tally& tally, bool correct) const {
  std::ostringstream o;
  o << "{\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << tally.attempted.load()
    << ",\"failed\":" << tally.failed.load() << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    o << (first ? "" : ",") << "\"" << json_escape(name)
      << "\":{\"value\":" << json_number(m.value) << ",\"unit\":\""
      << json_escape(m.unit) << "\",\"samples\":" << m.samples << "}";
    first = false;
  }
  o << "},\"info\":{";
  first = true;
  for (const auto& [key, value] : info_) {
    o << (first ? "" : ",") << "\"" << json_escape(key) << "\":" << value;
    first = false;
  }
  o << "}}";
  return o.str();
}

}  // namespace piombench
