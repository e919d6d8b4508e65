// Differential tests: the sparse LU + eta-file simplex engine against the
// dense explicit-inverse oracle (SimplexOptions::dense_basis). Same pivot
// rules, different linear algebra — statuses must match exactly and
// objectives within tolerance, on random bounded LPs, on the real
// synthesis models (EPS base ILP and ILP-AR encodings), and across
// warm-start reoptimize() sequences mimicking branch-and-bound bound flips.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/arch_ilp.hpp"
#include "core/ilp_ar.hpp"
#include "eps/eps_template.hpp"
#include "ilp/solver.hpp"
#include "lp/engine.hpp"
#include "support/rng.hpp"

namespace archex::lp {
namespace {

SimplexOptions dense_options() {
  SimplexOptions opt;
  opt.dense_basis = true;
  return opt;
}

/// Random bounded LP in the style of the engine's warm-start property test,
/// but larger and with a mix of boxed / one-sided rows.
Problem random_lp(Rng& rng) {
  const int n = 4 + static_cast<int>(rng.next_below(14));
  const int m = 3 + static_cast<int>(rng.next_below(12));
  Problem p;
  for (int j = 0; j < n; ++j) {
    p.add_variable(0.0, 1.0 + std::floor(rng.next_double() * 3.0),
                   std::floor(rng.next_double() * 21.0) - 10.0);
  }
  for (int i = 0; i < m; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.next_bernoulli(0.6)) continue;
      terms.push_back({j, std::floor(rng.next_double() * 7.0) - 3.0});
    }
    const double rhs = std::floor(rng.next_double() * 5.0) - 1.0;
    if (rng.next_bernoulli(0.4)) {
      p.add_constraint(terms, -kInf, rhs);
    } else if (rng.next_bernoulli(0.5)) {
      p.add_constraint(terms, rhs - 4.0, kInf);
    } else {
      p.add_constraint(terms, rhs - 4.0, rhs);  // boxed (range) row
    }
  }
  return p;
}

void expect_agreement(const Problem& p, const char* what) {
  const Solution sparse = solve(p, SimplexOptions{});
  const Solution dense = solve(p, dense_options());
  ASSERT_EQ(sparse.status, dense.status) << what;
  if (sparse.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6) << what;
    ASSERT_TRUE(p.is_feasible(sparse.x, 1e-6)) << what;
  }
}

class SparseDenseAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SparseDenseAgreement, ScratchSolvesMatch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151u + 17);
  const Problem p = random_lp(rng);
  expect_agreement(p, "random LP");
}

TEST_P(SparseDenseAgreement, WarmStartSequencesMatch) {
  // Branch-and-bound-style bound flips: fix a column to an extreme, later
  // relax it, reoptimizing after every change on both representations.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9973u + 5);
  const Problem p = random_lp(rng);
  SimplexEngine sparse(p);
  SimplexEngine dense(p, dense_options());
  if (sparse.solve_from_scratch().status != SolveStatus::kOptimal) return;
  (void)dense.solve_from_scratch();

  const int n = p.num_variables();
  for (int step = 0; step < 24; ++step) {
    const int j = static_cast<int>(rng.next_below(static_cast<unsigned>(n)));
    if (rng.next_bernoulli(0.3)) {
      sparse.set_variable_bounds(j, p.col_lo(j), p.col_up(j));  // relax
      dense.set_variable_bounds(j, p.col_lo(j), p.col_up(j));
    } else {
      const double v = rng.next_bernoulli(0.5) ? p.col_up(j) : p.col_lo(j);
      sparse.set_variable_bounds(j, v, v);  // fix (branching decision)
      dense.set_variable_bounds(j, v, v);
    }
    const Solution ws = sparse.reoptimize();
    const Solution wd = dense.reoptimize();
    ASSERT_EQ(ws.status, wd.status) << "step " << step;
    if (ws.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(ws.objective, wd.objective, 1e-6) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseDenseAgreement, ::testing::Range(0, 40));

TEST(SparseEngine, MatchesDenseOnEpsBaseModel) {
  for (const int generators : {1, 2}) {
    eps::EpsSpec spec;
    spec.num_generators = generators;
    const eps::EpsTemplate eps = eps::make_eps_template(spec);
    const core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
    expect_agreement(ilp.model().to_lp(), "EPS base relaxation");
  }
}

TEST(SparseEngine, MatchesDenseOnIlpArEncoding) {
  eps::EpsSpec spec;
  spec.num_generators = 1;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
  core::IlpArOptions options;
  options.target_failure = 2e-3;
  core::encode_ilp_ar(ilp, options);
  expect_agreement(ilp.model().to_lp(), "ILP-AR relaxation");
}

TEST(SparseEngine, FullPricingOptionAgrees) {
  // pricing_candidates <= 0 restores full Dantzig/Devex scans on the
  // sparse path; the optimum must not move.
  Rng rng(12345);
  const Problem p = random_lp(rng);
  SimplexOptions full;
  full.pricing_candidates = 0;
  const Solution a = solve(p, SimplexOptions{});
  const Solution b = solve(p, full);
  ASSERT_EQ(a.status, b.status);
  if (a.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6);
  }
}

TEST(SparseEngine, TightEtaBudgetForcesRefactorization) {
  // A one-eta budget must refactorize after (almost) every pivot and still
  // land on the same optimum.
  Rng rng(777);
  const Problem p = random_lp(rng);
  SimplexOptions tight;
  tight.max_eta = 1;
  SimplexEngine engine(p, tight);
  const Solution s = engine.solve_from_scratch();
  const Solution ref = solve(p, dense_options());
  ASSERT_EQ(s.status, ref.status);
  if (s.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(s.objective, ref.objective, 1e-6);
    EXPECT_GT(engine.stats().refactor_eta, 0);
  }
}

TEST(SparseEngine, StatsReportBasisMaintenance) {
  eps::EpsSpec spec;
  spec.num_generators = 1;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  const core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
  const Problem p = ilp.model().to_lp();

  SimplexEngine sparse(p);
  ASSERT_EQ(sparse.solve_from_scratch().status, SolveStatus::kOptimal);
  EXPECT_GT(sparse.stats().factorizations, 0);
  EXPECT_GT(sparse.stats().eta_updates, 0);
  // Bound-flip pivots touch no basis column, so etas never exceed pivots.
  EXPECT_LE(sparse.stats().eta_updates, sparse.stats().total_pivots);
  EXPECT_GE(sparse.stats().max_eta_len, 1);

  SimplexEngine dense(p, dense_options());
  ASSERT_EQ(dense.solve_from_scratch().status, SolveStatus::kOptimal);
  EXPECT_EQ(dense.stats().eta_updates, 0);  // the oracle keeps no eta file
}

TEST(SparseEngine, RepeatedIlpArSolvesAreIdentical) {
  // The EPS g2 ILP-AR search activates the anti-degeneracy perturbation
  // while retired phase-1 artificials are still basic; their costs must not
  // read past the perturbation vector, or the node LPs (and so the tree)
  // depend on whatever lies beyond it. Two fresh solvers in one process
  // must walk the identical tree.
  eps::EpsSpec spec;
  spec.num_generators = 2;
  const eps::EpsTemplate eps = eps::make_eps_template(spec);
  core::ArchitectureIlp ilp = eps::make_eps_ilp(eps);
  core::IlpArOptions options;
  options.target_failure = 1e-3;
  core::encode_ilp_ar(ilp, options);

  ilp::BranchAndBoundSolver first_solver;
  const ilp::IlpResult first = first_solver.solve(ilp.model());
  ASSERT_EQ(first.status, ilp::IlpStatus::kOptimal);
  ilp::BranchAndBoundSolver second_solver;
  const ilp::IlpResult second = second_solver.solve(ilp.model());
  ASSERT_EQ(second.status, ilp::IlpStatus::kOptimal);
  EXPECT_EQ(first.nodes_explored, second.nodes_explored);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_EQ(first.x, second.x);
}

}  // namespace
}  // namespace archex::lp
