// perfbench/src/util.hpp
//
// Small helpers shared by the workloads: order statistics, process CPU and
// memory readings, and the metric list printed as the result line.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `v` with all 17 significant digits (round-trips through strtod).
inline std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Median (mean of the two middle values for even counts); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile q in (0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// User + system CPU seconds of process `pid` from /proc/<pid>/stat.
inline double proc_cpu_seconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  double utime = 0.0;
  double stime = 0.0;
  // Fields after "(comm)": state is field 3; utime/stime are fields 14/15.
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::stod(f);
    if (i == 15) stime = std::stod(f);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of process `pid`, MB.
inline double peak_rss_mb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Named metrics in insertion order, printed as one JSON object.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }

  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(10);
    os << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      os << (i ? ", " : "") << "\"" << items_[i].name
         << "\": {\"value\": " << v << ", \"unit\": \"" << items_[i].unit
         << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Every per-layer metric of the traced run, in output order. A workload
/// that does not exercise a layer reports 0 for its metrics.
inline constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"lp.pivots", "count"},
    {"lp.pivots_per_node", "count"},
    {"lp.scratch_solves", "count"},
    {"lp.dual_reopts", "count"},
    {"lp.warm_ratio", "ratio"},
    {"lp.dual_fallbacks", "count"},
    {"lp.restore_fallbacks", "count"},
    {"lp.factorizations", "count"},
    {"lp.eta_updates", "count"},
    {"lp.refactor_eta", "count"},
    {"lp.presolve_rows_removed", "count"},
    {"lp.root_cold_ms", "ms"},
    {"ilp.solve_s", "s"},
    {"ilp.solve_calls", "count"},
    {"ilp.nodes", "count"},
    {"ilp.nodes_pruned", "count"},
    {"ilp.nogoods_learned", "count"},
    {"ilp.nogood_prunings", "count"},
    {"ilp.oracle_nogoods", "count"},
    {"ilp.limit_hits", "count"},
    {"ilp.steals", "count"},
    {"ilp.worker_imbalance", "ratio"},
    {"core.mr_iterations", "count"},
    {"core.learned_rows", "count"},
    {"core.learn_s", "s"},
    {"core.ar_encode_ms", "ms"},
    {"core.model_rows", "count"},
    {"core.model_vars", "count"},
    {"rel.analysis_s", "s"},
    {"rel.cache_hits", "count"},
    {"rel.cache_misses", "count"},
    {"rel.cache_hit_rate", "ratio"},
    {"eps.template_ms", "ms"},
    {"server.queue_ms", "ms"},
    {"server.service_ms", "ms"},
    {"server.wire_ms", "ms"},
    {"server.shed", "count"},
    {"server.nogood_prunings", "count"},
    {"server.repeat_nodes_ratio", "ratio"},
    {"serialize.request_parse_us", "us"},
    {"serialize.response_write_us", "us"},
    {"serialize.request_bytes", "bytes"},
    {"trace.overhead_pct", "%"},
};

/// Per-layer metrics from `values` (missing names read 0).
inline Metrics layer_metrics(const std::map<std::string, double>& values) {
  Metrics m;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    m.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
  return m;
}

/// Final line handed to run.py (which adds setup_s and prints the result).
inline void print_result(bool correct, long attempted, long failed,
                         const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.json().c_str());
  std::fflush(stdout);
}

/// Ready marker: run.py times process start to this line as setup.
inline void announce_ready() {
  std::printf("ready\n");
  std::fflush(stdout);
}

}  // namespace perfbench
