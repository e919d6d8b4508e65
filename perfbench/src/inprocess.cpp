// In-process workloads: mr_eps (serial ILP-MR), ar_eps (serial ILP-AR) and
// ar_eps_par (ILP-AR with parallel B&B workers). One pass solves every
// instance of the set once; an operation is one instance solve.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hpp"
#include "core/ilp_ar.hpp"
#include "core/ilp_mr.hpp"
#include "ilp/solver.hpp"
#include "instances.hpp"
#include "lp/engine.hpp"
#include "rel/eval_cache.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = archex::core;
namespace ilp = archex::ilp;

/// Forwards to the real solver and keeps each solve's statistics. Used on
/// the ILP-AR path only: run_ilp_mr looks for a BranchAndBoundSolver by
/// dynamic_cast, so wrapping its solver would turn unified learning off.
class RecordingSolver final : public ilp::IlpSolver {
 public:
  RecordingSolver(ilp::IlpSolver& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] ilp::IlpResult solve(const ilp::Model& model) override {
    Tracer::Scope span(tracer_, "ilp.solve");
    const Clock::time_point t0 = Clock::now();
    ilp::IlpResult result = inner_.solve(model);
    seconds_ += seconds_since(t0);
    results_.push_back(result);
    results_.back().x.clear();
    return result;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] const std::vector<ilp::IlpResult>& results() const {
    return results_;
  }
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  ilp::IlpSolver& inner_;
  Tracer& tracer_;
  std::vector<ilp::IlpResult> results_;
  double seconds_ = 0.0;
};

/// Everything one instance solve produced.
struct Outcome {
  bool failed = false;
  std::string status;
  Answer answer;
  double wall_s = 0.0;
  long nodes = 0;
  std::map<std::string, double> layers;  // per-layer contributions
};

void add(std::map<std::string, double>& m, const std::string& k, double v) {
  m[k] += v;
}

Outcome solve_instance(const Instance& inst, int threads, Tracer& tracer,
                       int op) {
  Outcome out;
  Tracer::Scope op_span(tracer, "op", op);
  const Clock::time_point t0 = Clock::now();
  ilp::BranchAndBoundOptions bopt;
  bopt.threads = threads;
  bopt.time_limit_seconds = 120.0;
  ilp::BranchAndBoundSolver solver(bopt);
  archex::rel::EvalCache cache;
  core::ArchitectureIlp arch = inst.make_base_ilp();
  auto& L = out.layers;
  std::optional<core::Configuration> config;
  core::SynthesisStatus status = core::SynthesisStatus::kSolverFailure;
  if (inst.mode == Mode::kMr) {
    core::IlpMrOptions opt;
    opt.target_failure = inst.target;
    opt.cache = &cache;
    core::IlpMrReport rep;
    {
      Tracer::Scope span(tracer, "core.run_ilp_mr");
      rep = core::run_ilp_mr(arch, solver, opt);
    }
    out.wall_s = seconds_since(t0);
    status = rep.status;
    config = rep.configuration;
    out.answer.failure = rep.failure;
    out.nodes = rep.solver_nodes;
    const long iters = rep.num_iterations();
    const bool ilp_infeasible_exit =
        rep.status == core::SynthesisStatus::kUnfeasible &&
        (rep.iterations.empty() || rep.iterations.back().new_constraints != 0);
    add(L, "ilp.solve_s", rep.solver_seconds);
    add(L, "ilp.solve_calls", static_cast<double>(iters + (ilp_infeasible_exit ? 1 : 0)));
    add(L, "ilp.nodes", static_cast<double>(rep.solver_nodes));
    add(L, "ilp.nodes_pruned", static_cast<double>(rep.solver_nodes_pruned));
    add(L, "ilp.nogoods_learned", static_cast<double>(rep.solver_nogoods_learned));
    add(L, "ilp.nogood_prunings", static_cast<double>(rep.solver_nogood_prunings));
    add(L, "ilp.oracle_nogoods", static_cast<double>(rep.oracle_nogoods));
    add(L, "ilp.limit_hits", static_cast<double>(rep.solver_limit_hits));
    add(L, "ilp.steals", static_cast<double>(rep.solver_steals));
    add(L, "core.mr_iterations", static_cast<double>(iters));
    double learned = 0.0;
    for (const core::MrIteration& it : rep.iterations) learned += it.new_constraints;
    add(L, "core.learned_rows", learned);
    add(L, "core.learn_s", out.wall_s - rep.solver_seconds - rep.analysis_seconds);
    add(L, "rel.analysis_s", rep.analysis_seconds);
    L["core.model_rows"] = rep.num_rows;
    L["core.model_vars"] = rep.num_variables;
  } else {
    core::IlpArOptions opt;
    opt.target_failure = inst.target;
    opt.cache = &cache;
    RecordingSolver recorder(solver, tracer);
    core::IlpArReport rep;
    {
      Tracer::Scope span(tracer, "core.run_ilp_ar");
      rep = core::run_ilp_ar(arch, recorder, opt);
    }
    out.wall_s = seconds_since(t0);
    status = rep.status;
    config = rep.configuration;
    out.answer.failure = rep.exact_failure;
    out.answer.approx_failure = rep.approx_failure;
    out.nodes = rep.solver_nodes;
    add(L, "ilp.solve_s", recorder.seconds());
    add(L, "core.ar_encode_ms", 1e3 * rep.setup_seconds);
    add(L, "rel.analysis_s", out.wall_s - rep.setup_seconds - recorder.seconds());
    L["core.model_rows"] = rep.num_constraints;
    L["core.model_vars"] = rep.num_variables;
    for (const ilp::IlpResult& r : recorder.results()) {
      add(L, "ilp.solve_calls", 1.0);
      add(L, "ilp.nodes", static_cast<double>(r.nodes_explored));
      add(L, "ilp.nodes_pruned", static_cast<double>(r.nodes_pruned));
      add(L, "ilp.nogoods_learned", static_cast<double>(r.nogoods_learned));
      add(L, "ilp.nogood_prunings", static_cast<double>(r.nogood_prunings));
      add(L, "ilp.steals", static_cast<double>(r.steal_count));
      if (r.status == ilp::IlpStatus::kNodeLimit ||
          r.status == ilp::IlpStatus::kTimeLimit) {
        add(L, "ilp.limit_hits", 1.0);
      }
      add(L, "lp.pivots", static_cast<double>(r.lp_pivots));
      add(L, "lp.scratch_solves", static_cast<double>(r.lp_scratch_solves));
      add(L, "lp.dual_reopts", static_cast<double>(r.lp_dual_reopts));
      add(L, "lp.dual_fallbacks", static_cast<double>(r.lp_dual_fallbacks));
      add(L, "lp.restore_fallbacks", static_cast<double>(r.lp_restore_fallbacks));
      add(L, "lp.factorizations", static_cast<double>(r.lp_factorizations));
      add(L, "lp.eta_updates", static_cast<double>(r.lp_eta_updates));
      add(L, "lp.refactor_eta", static_cast<double>(r.lp_refactor_eta));
      add(L, "lp.presolve_rows_removed", static_cast<double>(r.presolve_rows_removed));
      // Worker balance of the largest solve (1 for serial searches).
      if (!r.worker_nodes.empty() &&
          static_cast<double>(r.nodes_explored) >= L["perfbench.largest_solve"]) {
        L["perfbench.largest_solve"] = static_cast<double>(r.nodes_explored);
        long max_nodes = 0;
        long sum = 0;
        for (long n : r.worker_nodes) {
          max_nodes = std::max(max_nodes, n);
          sum += n;
        }
        L["ilp.worker_imbalance"] =
            sum > 0 ? static_cast<double>(max_nodes) * static_cast<double>(r.worker_nodes.size()) /
                          static_cast<double>(sum)
                    : 1.0;
      }
    }
  }
  const archex::rel::EvalCache::Stats cs = cache.stats();
  add(L, "rel.cache_hits", static_cast<double>(cs.hits));
  add(L, "rel.cache_misses", static_cast<double>(cs.misses));

  out.status = core::to_string(status);
  if (status == core::SynthesisStatus::kSuccess && config) {
    out.answer.selection = config->selection();
    out.answer.cost = config->total_cost();
  } else if (status == core::SynthesisStatus::kUnfeasible) {
    out.answer.unfeasible = true;
  } else {
    out.failed = true;
  }
  return out;
}

/// Cold solve of the instance's root relaxation (the model the first ILP
/// solve sees) through Model::to_lp and a fresh SimplexEngine, in ms.
double root_cold_ms(const Instance& inst, Tracer& tracer) {
  core::ArchitectureIlp arch = inst.make_base_ilp();
  if (inst.mode == Mode::kAr) {
    core::IlpArOptions opt;
    opt.target_failure = inst.target;
    (void)core::encode_ilp_ar(arch, opt);
  }
  Tracer::Scope span(tracer, "lp.root_cold");
  const Clock::time_point t0 = Clock::now();
  const archex::lp::Problem problem = arch.model().to_lp();
  archex::lp::SimplexEngine engine(problem);
  (void)engine.solve_from_scratch();
  return 1e3 * seconds_since(t0);
}

struct Pass {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  double root_cold_ms = 0.0;  // traced passes only
  std::vector<Outcome> ops;
};

Pass run_pass(const InstanceList& set, int threads, Tracer& tracer,
              int first_op) {
  Pass pass;
  pass.traced = tracer.enabled();
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "pass");
    for (std::size_t i = 0; i < set.size(); ++i) {
      pass.ops.push_back(solve_instance(*set[i], threads, tracer,
                                        first_op + static_cast<int>(i)));
    }
  }
  pass.wall_s = seconds_since(t0);
  if (pass.traced) {
    for (const auto& inst : set) pass.root_cold_ms += root_cold_ms(*inst, tracer);
  }
  return pass;
}

/// Pass results as text, to carry them out of the child process.
void write_pass(const Pass& pass, const Tracer& tracer, std::ostream& out) {
  out << "pass " << fmt(pass.wall_s) << " " << fmt(pass.root_cold_ms) << "\n";
  for (const Outcome& o : pass.ops) {
    const Answer& a = o.answer;
    std::string bits;
    for (bool b : a.selection) bits += b ? '1' : '0';
    out << "op " << o.failed << " " << o.status << " " << fmt(o.wall_s) << " "
        << o.nodes << " " << a.unfeasible << " " << fmt(a.cost) << " "
        << fmt(a.failure) << " " << fmt(a.approx_failure) << " "
        << (bits.empty() ? "-" : bits) << "\n";
    for (const auto& [k, v] : o.layers) out << "layer " << k << " " << fmt(v) << "\n";
  }
  tracer.export_lines(out);
}

Pass read_pass(std::istream& in, Tracer& tracer) {
  Pass pass;
  const std::size_t batch_base = tracer.size();
  std::string tag;
  while (in >> tag) {
    if (tag == "pass") {
      in >> pass.wall_s >> pass.root_cold_ms;
    } else if (tag == "op") {
      Outcome o;
      Answer& a = o.answer;
      std::string bits;
      in >> o.failed >> o.status >> o.wall_s >> o.nodes >> a.unfeasible >>
          a.cost >> a.failure >> a.approx_failure >> bits;
      if (bits != "-") {
        for (char c : bits) a.selection.push_back(c == '1');
      }
      pass.ops.push_back(std::move(o));
    } else if (tag == "layer") {
      std::string k;
      double v = 0.0;
      in >> k >> v;
      pass.ops.back().layers[k] = v;
    } else if (tag == "span") {
      tracer.import_span(in, batch_base);
    } else {
      throw std::runtime_error("bad pass record '" + tag + "'");
    }
  }
  return pass;
}

/// Run one pass in a child process forked from the set-up state, so every
/// pass starts from the same process state, as a fresh archex_cli run
/// does (repeated ILP-AR solves in one process expand different node
/// counts, see README.md). CPU time and peak RSS are the child's.
Pass run_pass_isolated(const InstanceList& set, int threads, bool traced,
                       Tracer& tracer, int first_op) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    int code = 0;
    try {
      Tracer child_tracer(traced);
      const Pass pass = run_pass(set, threads, child_tracer, first_op);
      std::ostringstream out;
      write_pass(pass, child_tracer, out);
      const std::string text = out.str();
      for (std::size_t done = 0; done < text.size();) {
        const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
        if (n <= 0) throw std::runtime_error("write to parent failed");
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_runner: pass failed: %s\n", e.what());
      code = 1;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  wait4(pid, &status, 0, &ru);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("pass process failed");
  }
  std::istringstream in(text);
  Pass pass = read_pass(in, tracer);
  pass.traced = traced;
  pass.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  pass.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return pass;
}

/// Per-pass layer totals, with the derived ratios.
std::map<std::string, double> pass_layers(const Pass& pass) {
  std::map<std::string, double> L;
  for (const Outcome& o : pass.ops) {
    for (const auto& [k, v] : o.layers) {
      if (k == "core.model_rows" || k == "core.model_vars" ||
          k == "ilp.worker_imbalance" || k == "perfbench.largest_solve") {
        L[k] = std::max(L[k], v);
      } else {
        L[k] += v;
      }
    }
  }
  L.erase("perfbench.largest_solve");
  const double node_solves = L["lp.scratch_solves"] + L["lp.dual_reopts"];
  L["lp.warm_ratio"] = node_solves > 0 ? L["lp.dual_reopts"] / node_solves : 0.0;
  L["lp.pivots_per_node"] = L["ilp.nodes"] > 0 && L["lp.pivots"] > 0
                                ? L["lp.pivots"] / L["ilp.nodes"]
                                : 0.0;
  const double lookups = L["rel.cache_hits"] + L["rel.cache_misses"];
  L["rel.cache_hit_rate"] = lookups > 0 ? L["rel.cache_hits"] / lookups : 0.0;
  if (L.count("ilp.worker_imbalance") == 0) L["ilp.worker_imbalance"] = 1.0;
  return L;
}

}  // namespace

int run_inprocess(const RunOptions& options) {
  // ---- set-up: inputs, reference, checker --------------------------------
  Tracer tracer(options.trace);
  Checker checker(load_reference(options.reference_path));
  InstanceList set;
  std::vector<double> template_ms;
  for (const EpsCase& c : eps_cases(options.workload)) {
    const Clock::time_point t0 = Clock::now();
    set.push_back(make_eps_instance(c));
    template_ms.push_back(1e3 * seconds_since(t0));
  }
  // The instances are fixed; the seed fixes the order they are solved in.
  archex::Rng order_rng(options.seed);
  for (std::size_t i = set.size(); i > 1; --i) {
    std::swap(set[i - 1], set[order_rng.next_below(i)]);
  }
  const int threads = options.workload == "ar_eps_par" ? options.workers : 0;
  announce_ready();
  if (options.setup_only) return 0;

  // ---- measurement: whole passes until `seconds` of them are timed -------
  // With tracing on, untraced and traced passes alternate so the overhead
  // and the node-count identity can be read off the same run.
  std::vector<Pass> passes;
  double timed = 0.0;
  while (passes.size() < (options.trace ? 2u : 1u) || timed < options.seconds) {
    const bool traced = options.trace && passes.size() % 2 == 1;
    passes.push_back(run_pass_isolated(set, threads, traced, tracer,
                                       static_cast<int>(passes.size() * set.size())));
    timed += passes.back().wall_s;
  }

  // ---- checks, outside the timed passes ----------------------------------
  std::vector<std::string> problems;
  long attempted = 0;
  long failed = 0;
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const Pass& pass = passes[k];
    for (std::size_t i = 0; i < pass.ops.size(); ++i) {
      const Outcome& o = pass.ops[i];
      ++attempted;
      if (o.failed) {
        ++failed;
        std::fprintf(stderr, "FAILED: %s: status %s\n", set[i]->name.c_str(),
                     o.status.c_str());
        continue;
      }
      const std::string verdict = checker.check(*set[i], o.answer);
      if (verdict.empty()) continue;
      if (known_fault(*set[i])) {
        ++failed;
        std::fprintf(stderr, "FAILED (known fault): %s\n", verdict.c_str());
      } else {
        problems.push_back(verdict);
      }
    }
    // Spans sit outside the program, so a serial search must expand
    // exactly the nodes the untraced pass before it did.
    for (std::size_t i = 0; pass.traced && threads == 0 && i < pass.ops.size(); ++i) {
      const long untraced = passes[k - 1].ops[i].nodes;
      if (pass.ops[i].nodes != untraced) {
        problems.push_back(set[i]->name + ": traced pass expanded " +
                           std::to_string(pass.ops[i].nodes) + " nodes, untraced " +
                           std::to_string(untraced));
      }
    }
  }

  for (const std::string& p : problems) std::fprintf(stderr, "CHECK: %s\n", p.c_str());
  const bool correct = problems.empty();

  Metrics metrics;
  if (!options.trace) {
    std::vector<double> wall;
    std::vector<double> cpu;
    for (const Pass& p : passes) {
      wall.push_back(p.wall_s);
      cpu.push_back(p.cpu_s);
    }
    // A pass holds a handful of fixed instances, too few samples for a
    // tail: the percentiles run over the instances, each taken at its
    // median latency across the passes.
    std::vector<double> lat;
    for (std::size_t i = 0; i < set.size(); ++i) {
      std::vector<double> per_instance;
      for (const Pass& p : passes) per_instance.push_back(1e3 * p.ops[i].wall_s);
      lat.push_back(median(per_instance));
    }
    metrics.add("synth_s", median(wall), "s");
    metrics.add("cpu_s", median(cpu), "s");
    metrics.add("requests_per_s", static_cast<double>(set.size()) / median(wall), "req/s");
    metrics.add("latency_p50_ms", percentile(lat, 0.50), "ms");
    metrics.add("latency_p99_ms", percentile(lat, 0.99), "ms");
    double rss = 0.0;
    for (const Pass& p : passes) rss = std::max(rss, p.rss_mb);
    metrics.add("peak_rss_mb", rss, "MB");
  } else {
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<double> root_ms;
    std::vector<double> traced_wall;
    std::vector<double> untraced_wall;
    for (const Pass& p : passes) {
      (p.traced ? traced_wall : untraced_wall).push_back(p.wall_s);
      if (!p.traced) continue;
      for (const auto& [k, v] : pass_layers(p)) per_pass[k].push_back(v);
      root_ms.push_back(p.root_cold_ms);
    }
    std::map<std::string, double> values;
    for (const auto& [k, v] : per_pass) values[k] = median(v);
    values["lp.root_cold_ms"] = median(root_ms);
    values["eps.template_ms"] = median(template_ms);
    values["trace.overhead_pct"] =
        100.0 * (median(traced_wall) / median(untraced_wall) - 1.0);
    metrics = layer_metrics(values);
    tracer.write(options.out_dir + "/trace-" + options.workload + "-" +
                 std::to_string(options.seed) + ".json");
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int run_audit(std::uint64_t seed, int count) {
  constexpr Family kFamilies[] = {Family::kDownSelect, Family::kConnect,
                                  Family::kAssign};
  Checker checker({});
  archex::SplitMix64 seeds(seed);
  Tracer off(false);
  int checked = 0;
  int mismatches = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t template_seed = seeds.next();
    for (Mode mode : {Mode::kMr, Mode::kAr}) {
      const auto inst = make_generated_instance(kFamilies[i % 3], mode, template_seed, i);
      const Outcome o = solve_instance(*inst, 0, off, i);
      const std::string verdict =
          o.failed ? inst->name + ": status " + o.status : checker.check(*inst, o.answer);
      ++checked;
      if (!verdict.empty()) {
        ++mismatches;
        std::printf("MISMATCH %s\n", verdict.c_str());
      }
    }
  }
  std::printf("audit: %d answers checked, %d mismatches\n", checked, mismatches);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace perfbench
