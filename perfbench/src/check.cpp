#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rel/exact.hpp"
#include "support/json.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

namespace core = archex::core;
namespace json = archex::json;
using archex::graph::NodeId;

/// Completes an edge selection into a full assignment of the base ILP's
/// variables (edges, node activations, switch pairs, constants), so the
/// interconnection rules can be checked row by row.
class Completion {
 public:
  explicit Completion(const core::ArchitectureIlp& ilp) : ilp_(&ilp) {
    const core::Template& t = ilp.arch_template();
    const archex::ilp::Model& m = ilp.model();
    const int nv = m.num_variables();
    std::vector<bool> known(static_cast<std::size_t>(nv), false);
    incident_.resize(static_cast<std::size_t>(t.num_components()));
    for (int k = 0; k < t.num_candidate_edges(); ++k) {
      const int id = ilp.edge_var(k).id;
      edge_var_.push_back(id);
      known[static_cast<std::size_t>(id)] = true;
      const auto& e = t.candidate_edge(k);
      incident_[static_cast<std::size_t>(e.from)].push_back(k);
      incident_[static_cast<std::size_t>(e.to)].push_back(k);
      pair_edges_[std::minmax(e.from, e.to)].push_back(k);
    }
    for (NodeId v = 0; v < t.num_components(); ++v) {
      const int id = ilp.node_active(v).id;
      delta_var_.push_back(id);
      known[static_cast<std::size_t>(id)] = true;
    }
    for (int id = 0; id < nv; ++id) {
      if (known[static_cast<std::size_t>(id)]) continue;
      const std::string& name = m.name(archex::ilp::Var{id});
      int a = 0;
      int b = 0;
      if (name == "const_one") {
        const_one_ = id;
      } else if (name == "const_zero") {
        // stays 0
      } else if (std::sscanf(name.c_str(), "s_%d_%d", &a, &b) == 2) {
        switch_var_.emplace_back(id, std::make_pair(a, b));
      } else {
        throw std::runtime_error("cannot enumerate: base ILP variable '" +
                                 name + "' has no known meaning");
      }
    }
    x_.assign(static_cast<std::size_t>(nv), 0.0);
  }

  /// Assignment of `sel`; valid until the next call.
  const std::vector<double>& assign(const std::vector<bool>& sel) {
    for (std::size_t k = 0; k < edge_var_.size(); ++k) {
      x_[static_cast<std::size_t>(edge_var_[k])] = sel[k] ? 1.0 : 0.0;
    }
    for (std::size_t v = 0; v < delta_var_.size(); ++v) {
      bool used = false;
      for (int k : incident_[v]) used = used || sel[static_cast<std::size_t>(k)];
      x_[static_cast<std::size_t>(delta_var_[v])] = used ? 1.0 : 0.0;
    }
    for (const auto& [id, pair] : switch_var_) {
      bool any = false;
      for (int k : pair_edges_.at(pair)) any = any || sel[static_cast<std::size_t>(k)];
      x_[static_cast<std::size_t>(id)] = any ? 1.0 : 0.0;
    }
    if (const_one_ >= 0) x_[static_cast<std::size_t>(const_one_)] = 1.0;
    return x_;
  }

  [[nodiscard]] bool rules_hold(const std::vector<bool>& sel) {
    return ilp_->model().is_feasible(assign(sel));
  }

 private:
  const core::ArchitectureIlp* ilp_;
  std::vector<int> edge_var_;
  std::vector<int> delta_var_;
  std::vector<std::vector<int>> incident_;
  std::map<std::pair<NodeId, NodeId>, std::vector<int>> pair_edges_;
  std::vector<std::pair<int, std::pair<NodeId, NodeId>>> switch_var_;
  int const_one_ = -1;
  std::vector<double> x_;
};

/// Eq. (1) recomputed from the template: every component with a selected
/// incident edge, plus each selected unordered pair's switch cost once.
double recompute_cost(const core::Template& t, const std::vector<bool>& sel) {
  std::vector<bool> used(static_cast<std::size_t>(t.num_components()), false);
  std::map<std::pair<NodeId, NodeId>, double> pairs;
  for (int k = 0; k < t.num_candidate_edges(); ++k) {
    if (!sel[static_cast<std::size_t>(k)]) continue;
    const auto& e = t.candidate_edge(k);
    used[static_cast<std::size_t>(e.from)] = true;
    used[static_cast<std::size_t>(e.to)] = true;
    pairs[std::minmax(e.from, e.to)] = e.switch_cost;
  }
  double cost = 0.0;
  for (NodeId v = 0; v < t.num_components(); ++v) {
    if (used[static_cast<std::size_t>(v)]) cost += t.component(v).cost;
  }
  for (const auto& [pair, c] : pairs) cost += c;
  return cost;
}

/// Worst-sink exact failure with the BDD analyzer.
double bdd_worst_failure(const core::Configuration& cfg) {
  const core::Template& t = cfg.architecture_template();
  const archex::graph::Digraph g = cfg.analysis_graph();
  const std::vector<double> p = t.node_failure_probs();
  const std::vector<NodeId> sources = t.sources();
  double worst = 0.0;
  for (NodeId sink : t.sinks()) {
    worst = std::max(worst, archex::rel::failure_probability(
                                g, sources, sink, p,
                                archex::rel::ExactMethod::kBdd));
  }
  return worst;
}

/// Requirement comparisons allow the LP feasibility tolerance's worth of
/// slack relative to r*.
bool meets(double value, double target) {
  return value <= target * (1.0 + 1e-7);
}

bool meets_requirement(const Instance& inst, const core::Configuration& cfg) {
  if (inst.mode == Mode::kMr) return meets(bdd_worst_failure(cfg), inst.target);
  return meets(cfg.worst_approximate_failure(), inst.target);
}

bool close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b)) + 1e-300;
}

}  // namespace

Truth enumerate_optimum(const Instance& inst) {
  const core::ArchitectureIlp ilp = inst.make_base_ilp();
  Completion completion(ilp);
  const int ne = inst.tmpl.num_candidate_edges();
  if (ne > 30) throw std::runtime_error("too many candidate edges to enumerate");
  Truth truth;
  std::vector<std::pair<double, unsigned long>> feasible;
  std::vector<bool> sel(static_cast<std::size_t>(ne));
  for (unsigned long mask = 0; mask < (1ul << ne); ++mask) {
    for (int k = 0; k < ne; ++k) sel[static_cast<std::size_t>(k)] = ((mask >> k) & 1ul) != 0;
    ++truth.subsets;
    if (!completion.rules_hold(sel)) continue;
    feasible.emplace_back(recompute_cost(inst.tmpl, sel), mask);
  }
  truth.rule_feasible = static_cast<long>(feasible.size());
  std::sort(feasible.begin(), feasible.end());
  for (const auto& [cost, mask] : feasible) {
    for (int k = 0; k < ne; ++k) sel[static_cast<std::size_t>(k)] = ((mask >> k) & 1ul) != 0;
    if (meets_requirement(inst, core::Configuration(inst.tmpl, sel))) {
      truth.feasible = true;
      truth.cost = cost;
      for (int k = 0; k < ne; ++k) {
        if (sel[static_cast<std::size_t>(k)]) truth.witness.push_back(k);
      }
      break;
    }
  }
  return truth;
}

bool known_fault(const Instance& inst) {
  return inst.family == Family::kEps && inst.reference_key() == "eps2-mr-5.0e-04";
}

Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  Reference ref;
  for (const auto& [key, v] : doc.at("instances").as_object()) {
    Truth t;
    t.feasible = v.at("feasible").as_bool();
    t.cost = v.at("cost").as_number();
    t.subsets = static_cast<long>(v.at("subsets").as_number());
    t.rule_feasible = static_cast<long>(v.at("rule_feasible").as_number());
    for (const json::Value& e : v.at("witness").as_array()) t.witness.push_back(e.as_int());
    ref[key] = t;
  }
  return ref;
}

void save_reference(const Reference& ref, const std::string& path) {
  json::Object instances;
  for (const auto& [key, t] : ref) {
    instances[key] = json::Object{
        {"feasible", t.feasible},
        {"cost", t.cost},
        {"subsets", static_cast<long long>(t.subsets)},
        {"rule_feasible", static_cast<long long>(t.rule_feasible)},
        {"witness", json::Array(t.witness.begin(), t.witness.end())}};
  }
  const json::Value doc = json::Object{{"format", "perfbench-reference"},
                                       {"instances", instances}};
  std::ofstream out(path);
  out << json::dump(doc, 2) << "\n";
  if (!out) throw std::runtime_error("cannot write reference " + path);
}

const Truth& Checker::truth(const Instance& inst) {
  if (inst.family == Family::kEps) {
    const auto it = reference_.find(inst.reference_key());
    if (it == reference_.end()) {
      throw std::runtime_error("no reference entry for " + inst.reference_key() +
                               "; rerun run.py --make-reference");
    }
    return it->second;
  }
  auto it = enumerated_.find(inst.name);
  if (it == enumerated_.end()) {
    it = enumerated_.emplace(inst.name, enumerate_optimum(inst)).first;
  }
  return it->second;
}

std::string Checker::check(const Instance& inst, const Answer& answer) {
  std::string key = inst.name + (answer.unfeasible ? "|u|" : "|o|");
  for (bool b : answer.selection) key += b ? '1' : '0';
  key += "|" + fmt(answer.cost) + "|" + fmt(answer.failure) + "|" +
         fmt(answer.approx_failure);
  const auto it = verdicts_.find(key);
  if (it != verdicts_.end()) return it->second;
  std::string verdict = check_uncached(inst, answer);
  if (!verdict.empty()) verdict = inst.name + ": " + verdict;
  verdicts_.emplace(std::move(key), verdict);
  return verdict;
}

std::string Checker::check_uncached(const Instance& inst, const Answer& answer) {
  if (answer.unfeasible) {
    // ILP-MR: the full template is the most reliable architecture there is.
    const std::vector<bool> all(
        static_cast<std::size_t>(inst.tmpl.num_candidate_edges()), true);
    if (inst.mode == Mode::kMr &&
        !meets(bdd_worst_failure(core::Configuration(inst.tmpl, all)),
               inst.target)) {
      return {};
    }
    const Truth& t = truth(inst);
    if (t.feasible) {
      return "answered unfeasible, but enumeration finds cost " + fmt(t.cost);
    }
    return {};
  }
  if (answer.selection.size() !=
      static_cast<std::size_t>(inst.tmpl.num_candidate_edges())) {
    return "answer selects over the wrong number of edges";
  }
  const core::ArchitectureIlp ilp = inst.make_base_ilp();
  Completion completion(ilp);
  if (!completion.rules_hold(answer.selection)) {
    return "answer violates the interconnection rules";
  }
  const double cost = recompute_cost(inst.tmpl, answer.selection);
  if (!close(cost, answer.cost, 1e-9)) {
    return "reported cost " + fmt(answer.cost) + ", recomputed " + fmt(cost);
  }
  const core::Configuration cfg(inst.tmpl, answer.selection);
  const double failure = bdd_worst_failure(cfg);
  if (!close(failure, answer.failure, 1e-8)) {
    return "reported failure " + fmt(answer.failure) + ", BDD gives " +
           fmt(failure);
  }
  if (inst.mode == Mode::kMr) {
    if (!meets(failure, inst.target)) {
      return "failure " + fmt(failure) + " misses r* " + fmt(inst.target);
    }
  } else {
    const double approx = cfg.worst_approximate_failure();
    if (!meets(approx, inst.target)) {
      return "r~ " + fmt(approx) + " misses r* " + fmt(inst.target);
    }
    if (answer.approx_failure >= 0.0 &&
        !close(approx, answer.approx_failure, 1e-9)) {
      return "reported r~ " + fmt(answer.approx_failure) + ", recomputed " +
             fmt(approx);
    }
  }
  const Truth& t = truth(inst);
  if (!t.feasible) return "found an architecture, but enumeration finds none";
  if (!close(cost, t.cost, 1e-9)) {
    return "cost " + fmt(cost) + " is not the enumerated optimum " + fmt(t.cost);
  }
  return {};
}

}  // namespace perfbench
