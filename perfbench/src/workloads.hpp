// perfbench/src/workloads.hpp
//
// Entry points of the perfbench runner. Each workload prints "ready" once
// its set-up is done (run.py times process start to that line), measures
// whole passes over its operations for about `seconds`, checks every
// answer outside the timed sections, and prints one result line.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop right after set-up (run.py repeats set-up to take its median).
  bool setup_only = false;
  std::string reference_path;
  /// Directory for trace files.
  std::string out_dir;
  /// archex_server binary (serve_mix only).
  std::string server_path;
  /// Parallel B&B workers (ar_eps_par) / client connections (serve_mix).
  int workers = 4;
};

/// mr_eps, ar_eps, ar_eps_par: in-process synthesis.
int run_inprocess(const RunOptions& options);

/// serve_mix: archex_server in its own process, closed-loop client here.
int run_serve(const RunOptions& options);

/// Solve `count` generated templates (seeded, both modes) and check every
/// answer against in-process enumeration; prints each mismatch.
int run_audit(std::uint64_t seed, int count);

/// Brute-force every EPS instance the workloads use into `path`.
int make_reference(const std::string& path);

}  // namespace perfbench
