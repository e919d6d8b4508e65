// perfbench/src/instances.hpp
//
// Benchmark inputs: the EPS instances of the paper's Section V, and seeded
// generated templates from the down-selecting / connecting / assigning
// families of the system-architecture taxonomy, each small enough to
// brute-force (used by the runner's --audit command, see README.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/arch_ilp.hpp"
#include "core/arch_template.hpp"
#include "core/serialize.hpp"
#include "eps/eps_template.hpp"

namespace perfbench {

namespace core = archex::core;
namespace eps = archex::eps;

enum class Mode { kMr, kAr };

/// Where an instance comes from: the procedural EPS template with the
/// Section-V requirement pack, the same EPS template sent inline (so the
/// server parses it and applies the generic "every sink fed" rule), or a
/// generated template of one of three taxonomy families.
enum class Family { kEps, kEpsInline, kDownSelect, kConnect, kAssign };

[[nodiscard]] const char* to_string(Mode mode);
[[nodiscard]] const char* to_string(Family family);

/// One synthesis problem: a template, its requirement pack and a target.
/// Instances are immutable once built and referenced by address (the ILP
/// and the configurations keep pointers to the template), so they live in
/// a std::vector<std::unique_ptr<Instance>>.
struct Instance {
  std::string name;
  Family family = Family::kEps;
  Mode mode = Mode::kMr;
  double target = 1e-6;
  int eps_generators = 0;  // EPS families only
  core::Template tmpl;
  std::optional<eps::EpsTemplate> eps;

  /// Base ILP exactly as the archex_server builds it: the Section-V
  /// requirement pack for kEps, the generic "every sink fed" rule otherwise.
  [[nodiscard]] core::ArchitectureIlp make_base_ilp() const;

  /// Wire request for this instance (kEps by generator count, every other
  /// family as an inline template).
  [[nodiscard]] core::SolveRequest request(const std::string& id) const;

  /// Key of the reference entry ("eps2-mr-1.0e-06", "eps1i-ar-1.0e-03").
  [[nodiscard]] std::string reference_key() const;
};

using InstanceList = std::vector<std::unique_ptr<Instance>>;


/// One EPS instance of a workload.
struct EpsCase {
  int generators = 2;
  Mode mode = Mode::kMr;
  double target = 1e-6;
  bool inline_template = false;
  int copies = 1;  // requests per serve_mix round
  bool operator<(const EpsCase& o) const;
};

/// EPS instances `workload` uses; "" gives the union over all workloads
/// (what reference.json must cover).
[[nodiscard]] std::vector<EpsCase> eps_cases(const std::string& workload);

[[nodiscard]] std::unique_ptr<Instance> make_eps_instance(const EpsCase& c);

/// A generated template of `family` (at most 9 candidate edges, one
/// failure probability per type, no same-type edges) with a target drawn
/// from the same stream. `index` only names the instance.
[[nodiscard]] std::unique_ptr<Instance> make_generated_instance(
    Family family, Mode mode, std::uint64_t seed, int index);


}  // namespace perfbench
