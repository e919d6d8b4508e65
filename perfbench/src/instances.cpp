#include "instances.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>
#include <utility>

#include "core/configuration.hpp"
#include "rel/exact.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using archex::graph::NodeId;
namespace core = archex::core;

constexpr std::array<double, 4> kTypeFailure = {2e-2, 1e-2, 5e-3, 2e-3};

std::string target_label(double target) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1e", target);
  return buf;
}

class Builder {
 public:
  explicit Builder(std::uint64_t seed) : rng_(seed) {}

  /// Add one layer of `count` components of a fresh type.
  std::vector<NodeId> layer(int count, const char* tag) {
    const double p = kTypeFailure[rng_.next_below(kTypeFailure.size())];
    std::vector<NodeId> out;
    for (int i = 0; i < count; ++i) {
      core::Component c;
      c.name = std::string(tag) + std::to_string(i);
      c.type = type_;
      c.cost = 1000.0 * static_cast<double>(1 + rng_.next_below(9));
      c.failure_prob = p;
      out.push_back(tmpl_.add_component(std::move(c)));
    }
    ++type_;
    return out;
  }

  void edge(NodeId from, NodeId to) {
    const double switch_cost = 500.0 * static_cast<double>(rng_.next_below(3));
    tmpl_.add_candidate_edge(from, to, switch_cost);
  }

  /// Edges from `from` into `to` with probability `density`, keeping at
  /// least one candidate into every member of `to`.
  void connect(const std::vector<NodeId>& from, const std::vector<NodeId>& to,
               double density) {
    for (NodeId t : to) {
      const NodeId forced =
          from[static_cast<std::size_t>(rng_.next_below(from.size()))];
      for (NodeId f : from) {
        if (f == forced || rng_.next_bernoulli(density)) edge(f, t);
      }
    }
  }

  /// r* between the full template's exact worst-sink failure (the best any
  /// architecture can do) and one series path's, log-uniformly in the
  /// middle 60% — mostly reachable, never trivially.
  bool coin(double p) { return rng_.next_bernoulli(p); }

  double target() {
    const std::vector<bool> all(
        static_cast<std::size_t>(tmpl_.num_candidate_edges()), true);
    const double best = core::Configuration(tmpl_, all).worst_failure_probability(
        archex::rel::ExactMethod::kBdd);
    double path_ok = 1.0;
    for (double p : tmpl_.type_failure_probs()) path_ok *= 1.0 - p;
    const double a = 0.2 + 0.6 * rng_.next_double();
    const double t = std::exp(a * std::log(best) + (1.0 - a) * std::log(1.0 - path_ok));
    return std::stod(target_label(t));  // two significant digits
  }

  core::Template take() { return std::move(tmpl_); }

 private:
  archex::Rng rng_;
  core::Template tmpl_;
  archex::graph::TypeId type_ = 0;
};

}  // namespace

const char* to_string(Mode mode) { return mode == Mode::kMr ? "mr" : "ar"; }

const char* to_string(Family family) {
  switch (family) {
    case Family::kEps: return "eps";
    case Family::kEpsInline: return "eps-inline";
    case Family::kDownSelect: return "downselect";
    case Family::kConnect: return "connect";
    case Family::kAssign: return "assign";
  }
  return "?";
}

core::ArchitectureIlp Instance::make_base_ilp() const {
  core::ArchitectureIlp ilp(tmpl);
  if (family == Family::kEps) {
    archex::eps::apply_eps_requirements(ilp, *eps);
  } else {
    ilp.require_all_sinks_fed();
  }
  return ilp;
}

core::SolveRequest Instance::request(const std::string& id) const {
  core::SolveRequest req;
  req.id = id;
  req.mode = mode == Mode::kMr ? core::SolveMode::kMr : core::SolveMode::kAr;
  req.target_failure = target;
  if (family == Family::kEps) {
    req.eps_generators = eps_generators;
  } else {
    req.tmpl = tmpl;
  }
  return req;
}

std::string Instance::reference_key() const {
  return "eps" + std::to_string(eps_generators) +
         (family == Family::kEpsInline ? "i-" : "-") + to_string(mode) + "-" +
         target_label(target);
}

std::unique_ptr<Instance> make_eps_instance(const EpsCase& c) {
  auto inst = std::make_unique<Instance>();
  archex::eps::EpsSpec spec;
  spec.num_generators = c.generators;
  inst->eps = archex::eps::make_eps_template(spec);
  inst->tmpl = inst->eps->tmpl;
  inst->family = c.inline_template ? Family::kEpsInline : Family::kEps;
  inst->mode = c.mode;
  inst->target = c.target;
  inst->eps_generators = c.generators;
  inst->name = inst->reference_key();
  return inst;
}

std::unique_ptr<Instance> make_generated_instance(Family family, Mode mode,
                                                  std::uint64_t seed,
                                                  int index) {
  Builder b(seed);
  switch (family) {
    case Family::kDownSelect: {
      // Pick which of several candidate suppliers and relays to use.
      const auto s = b.layer(3, "S");
      const auto m = b.layer(2, "M");
      const auto t = b.layer(1, "T");
      b.connect(s, m, 0.7);
      b.connect(m, t, 1.0);
      break;
    }
    case Family::kConnect: {
      // Choose the links between three fixed stages of two.
      const auto s = b.layer(2, "S");
      const auto a = b.layer(2, "A");
      const auto t = b.layer(2, "T");
      b.connect(s, a, 0.7);
      b.connect(a, t, 0.7);
      break;
    }
    case Family::kAssign:
    default: {
      // Assign each consumer to suppliers directly or through a handler.
      const auto s = b.layer(2, "S");
      const auto h = b.layer(1, "H");
      const auto t = b.layer(3, "T");
      b.connect(s, h, 1.0);
      b.connect(h, t, 1.0);
      for (auto v : t) {
        for (auto u : s) {
          if (b.coin(0.3)) b.edge(u, v);
        }
      }
      break;
    }
  }
  auto inst = std::make_unique<Instance>();
  inst->family = family;
  inst->mode = mode;
  inst->target = b.target();
  inst->tmpl = b.take();
  inst->name = std::string("gen-") + to_string(family) + "-" +
               std::to_string(index) + "-" + to_string(mode) + "-" +
               target_label(inst->target);
  return inst;
}

bool EpsCase::operator<(const EpsCase& o) const {
  return std::tie(generators, inline_template, mode, target) <
         std::tie(o.generators, o.inline_template, o.mode, o.target);
}

std::vector<EpsCase> eps_cases(const std::string& workload) {
  constexpr Mode kMr = Mode::kMr;
  constexpr Mode kAr = Mode::kAr;
  if (workload == "mr_eps") {
    // Optimal and proven-unfeasible answers on g = 1 and g = 2.
    return {{1, kMr, 1e-3}, {1, kMr, 1e-6},  {2, kMr, 1e-2}, {2, kMr, 1e-3},
            {2, kMr, 5e-4}, {2, kMr, 1e-6}, {2, kMr, 1e-10}};
  }
  if (workload == "ar_eps" || workload == "ar_eps_par") {
    return {{2, kAr, 1e-6}};
  }
  if (workload == "serve_mix") {
    // g1 requests take about 1 ms, g2 at loose targets about 10 ms, and the
    // one g2 ILP-MR request at 5e-4 about 0.3 s. The g2 class holds more
    // than half the round, so the median request is one of them.
    return {{1, kMr, 1e-3, false, 3}, {1, kAr, 1e-3, false, 2},
            {1, kMr, 5e-4, false, 2}, {1, kMr, 1e-3, true, 2},
            {1, kAr, 1e-3, true, 2},  {2, kMr, 1e-2, false, 4},
            {2, kMr, 1e-3, false, 12}, {2, kMr, 5e-4, false, 1}};
  }
  std::set<EpsCase> all;
  for (const char* w : {"mr_eps", "ar_eps", "serve_mix"}) {
    for (EpsCase c : eps_cases(w)) {
      c.copies = 1;
      all.insert(c);
    }
  }
  return {all.begin(), all.end()};
}

}  // namespace perfbench
