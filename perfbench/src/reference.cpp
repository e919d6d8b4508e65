// Brute-force reference for the EPS instances: every candidate-edge subset
// of each template is enumerated (see check.hpp), independently of the
// synthesis algorithms.
#include <cstdio>

#include "check.hpp"
#include "instances.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

int make_reference(const std::string& path) {
  Reference ref;
  for (const EpsCase& c : eps_cases("")) {
    const auto inst = make_eps_instance(c);
    const Clock::time_point t0 = Clock::now();
    const Truth t = enumerate_optimum(*inst);
    std::fprintf(stderr, "%s: %s cost %.0f (%ld subsets, %ld rule-feasible, %.1f s)\n",
                 inst->reference_key().c_str(),
                 t.feasible ? "optimal" : "unfeasible", t.cost, t.subsets,
                 t.rule_feasible, seconds_since(t0));
    ref[inst->reference_key()] = t;
  }
  save_reference(ref, path);
  return 0;
}

}  // namespace perfbench
