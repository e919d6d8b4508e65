// perfbench runner: runs one workload, or rebuilds the EPS reference.
//
//   perfbench_runner --workload W --seed N --seconds S --trace 0|1
//                    --reference FILE --out-dir DIR [--server BIN]
//                    [--workers N] [--setup-only]
//   perfbench_runner --make-reference FILE
//   perfbench_runner --audit COUNT [--seed N]
//
// run.py builds this binary and drives it; see README.md.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string reference_out;
  int audit = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
        return argv[++i];
      };
      if (flag == "--workload") opt.workload = value();
      else if (flag == "--seed") opt.seed = std::stoull(value());
      else if (flag == "--seconds") opt.seconds = std::stod(value());
      else if (flag == "--trace") opt.trace = value() != "0";
      else if (flag == "--setup-only") opt.setup_only = true;
      else if (flag == "--reference") opt.reference_path = value();
      else if (flag == "--out-dir") opt.out_dir = value();
      else if (flag == "--server") opt.server_path = value();
      else if (flag == "--workers") opt.workers = std::stoi(value());
      else if (flag == "--make-reference") reference_out = value();
      else if (flag == "--audit") audit = std::stoi(value());
      else throw std::runtime_error("unknown flag " + flag);
    }
    if (!reference_out.empty()) return perfbench::make_reference(reference_out);
    if (audit > 0) return perfbench::run_audit(opt.seed, audit);
    if (opt.workload == "serve_mix") return perfbench::run_serve(opt);
    if (opt.workload == "mr_eps" || opt.workload == "ar_eps" ||
        opt.workload == "ar_eps_par") {
      return perfbench::run_inprocess(opt);
    }
    throw std::runtime_error("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
