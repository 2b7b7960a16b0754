#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/decompose.hpp"
#include "gen/basic.hpp"
#include "gen/grid.hpp"
#include "instances/suite.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"
#include "util/timer.hpp"

namespace mmd {
namespace {

using testing::expect_total_coloring;

// ---- the headline property: Theorem 4 end to end ----------------------

using Case = std::tuple<WeightModel, int /*k*/>;

class DecomposeTheorem4 : public ::testing::TestWithParam<Case> {};

TEST_P(DecomposeTheorem4, StrictBalanceAndBoundedBoundary) {
  const auto [model, k] = GetParam();
  const Graph g = make_grid_cube(2, 20);
  const auto w = testing::weights_for(g, model, 47);

  DecomposeOptions opt;
  opt.k = k;
  const DecomposeResult res = decompose(g, w, opt);
  expect_total_coloring(g, res.coloring);

  // Definition 1 exactly.
  EXPECT_TRUE(res.balance.strictly_balanced)
      << weight_model_name(model) << " k=" << k << ": dev "
      << res.balance.max_dev << " bound " << res.balance.strict_bound;

  // Theorem 4 with a generous empirical constant.
  EXPECT_LE(res.max_boundary, 4.0 * res.bound.b_max)
      << weight_model_name(model) << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecomposeTheorem4,
    ::testing::Combine(::testing::ValuesIn(testing::weight_models()),
                       ::testing::ValuesIn(testing::small_ks())),
    [](const ::testing::TestParamInfo<Case>& info) {
      return testing::weight_model_suffix(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

// ---- whole-suite integration -------------------------------------------

TEST(Decompose, StandardSuiteAllStrict) {
  for (const auto& inst : standard_suite(0)) {
    DecomposeOptions opt;
    opt.k = 8;
    opt.p = inst.p;
    const DecomposeResult res = decompose(inst.graph, inst.weights, opt);
    expect_total_coloring(inst.graph, res.coloring);
    EXPECT_TRUE(res.balance.strictly_balanced) << inst.name;
    EXPECT_LE(res.max_boundary, 5.0 * res.bound.b_max) << inst.name;
  }
}

// ---- edge cases ---------------------------------------------------------

TEST(Decompose, KOne) {
  const Graph g = make_grid_cube(2, 6);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 3);
  DecomposeOptions opt;
  opt.k = 1;
  const DecomposeResult res = decompose(g, w, opt);
  expect_total_coloring(g, res.coloring);
  EXPECT_DOUBLE_EQ(res.max_boundary, 0.0);
}

TEST(Decompose, KLargerThanN) {
  const Graph g = make_grid_cube(2, 3);  // 9 vertices
  const std::vector<double> w(9, 1.0);
  DecomposeOptions opt;
  opt.k = 20;
  const DecomposeResult res = decompose(g, w, opt);
  expect_total_coloring(g, res.coloring);
  EXPECT_TRUE(res.balance.strictly_balanced);
}

TEST(Decompose, SingleHeavyVertexDegenerate) {
  const Graph g = make_grid_cube(2, 8);
  std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 0.01);
  w[10] = 500.0;
  DecomposeOptions opt;
  opt.k = 8;
  const DecomposeResult res = decompose(g, w, opt);
  EXPECT_TRUE(res.balance.strictly_balanced);
}

TEST(Decompose, ZeroCosts) {
  GraphBuilder b(16);
  for (Vertex v = 0; v + 1 < 16; ++v) b.add_edge(v, v + 1, 0.0);
  const Graph g = b.build();
  const std::vector<double> w(16, 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  const DecomposeResult res = decompose(g, w, opt);
  EXPECT_TRUE(res.balance.strictly_balanced);
  EXPECT_DOUBLE_EQ(res.max_boundary, 0.0);
}

TEST(Decompose, DisconnectedGraph) {
  GraphBuilder b(20);
  for (Vertex v = 0; v < 18; v += 2) b.add_edge(v, v + 1, 1.0);
  const Graph g = b.build();
  const std::vector<double> w(20, 1.0);
  DecomposeOptions opt;
  opt.k = 5;
  const DecomposeResult res = decompose(g, w, opt);
  expect_total_coloring(g, res.coloring);
  EXPECT_TRUE(res.balance.strictly_balanced);
}

TEST(Decompose, ZeroWeights) {
  const Graph g = make_grid_cube(2, 6);
  const std::vector<double> w(36, 0.0);
  DecomposeOptions opt;
  opt.k = 4;
  const DecomposeResult res = decompose(g, w, opt);
  expect_total_coloring(g, res.coloring);
  EXPECT_TRUE(res.balance.strictly_balanced);
}

TEST(Decompose, RejectsBadOptions) {
  const Graph g = make_grid_cube(2, 4);
  const std::vector<double> w(16, 1.0);
  DecomposeOptions opt;
  opt.k = 0;
  EXPECT_THROW(decompose(g, w, opt), std::invalid_argument);
  opt.k = 2;
  opt.p = 1.0;
  EXPECT_THROW(decompose(g, w, opt), std::invalid_argument);
  opt.p = 2.0;
  const std::vector<double> short_w(3, 1.0);
  EXPECT_THROW(decompose(g, short_w, opt), std::invalid_argument);
}

// ---- splitter selection & ablations -------------------------------------

TEST(Decompose, AutoPicksGridAwareSplitterOnGrids) {
  const Graph grid = make_grid_cube(2, 4);
  EXPECT_EQ(make_default_splitter(grid, SplitterKind::Auto)->name(),
            "best-of(grid,prefix)");
  const Graph generic = testing::two_triangles();
  EXPECT_EQ(make_default_splitter(generic, SplitterKind::Auto)->name(),
            "prefix");
  EXPECT_EQ(make_default_splitter(grid, SplitterKind::Grid)->name(), "grid");
}

TEST(Decompose, GridSplitterEndToEnd) {
  CostParams cp;
  cp.model = CostModel::LogUniform;
  cp.lo = 1.0;
  cp.hi = 500.0;
  const Graph g = make_grid_cube(2, 16, cp);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 51);
  DecomposeOptions opt;
  opt.k = 6;
  opt.splitter = SplitterKind::Grid;
  const DecomposeResult res = decompose(g, w, opt);
  EXPECT_TRUE(res.balance.strictly_balanced);
  EXPECT_LE(res.max_boundary, 4.0 * res.bound.b_max);
}

TEST(Decompose, AblationsStillProduceValidColorings) {
  const Graph g = make_grid_cube(2, 12);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 53);
  for (const bool balance_boundary : {false, true}) {
    for (const bool use_strictify : {false, true}) {
      DecomposeOptions opt;
      opt.k = 6;
      opt.balance_boundary = balance_boundary;
      opt.use_strictify = use_strictify;
      const DecomposeResult res = decompose(g, w, opt);
      expect_total_coloring(g, res.coloring);
      EXPECT_TRUE(res.balance.strictly_balanced)
          << "psi=" << balance_boundary << " strictify=" << use_strictify;
    }
  }
}

TEST(Decompose, WithoutBinpack2OnlyAlmostStrict) {
  const Graph g = make_grid_cube(2, 16);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 57);
  DecomposeOptions opt;
  opt.k = 8;
  opt.use_binpack2 = false;
  const DecomposeResult res = decompose(g, w, opt);
  EXPECT_TRUE(res.balance.almost_strictly_balanced);
}

TEST(Decompose, PhaseReportsArePopulated) {
  const Graph g = make_grid_cube(2, 12);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 59);
  DecomposeOptions opt;
  opt.k = 4;
  const DecomposeResult res = decompose(g, w, opt);
  EXPECT_GT(res.sigma_p, 0.0);
  EXPECT_GT(res.bound.b_max, 0.0);
  EXPECT_GE(res.phase_multibalance.max_boundary, 0.0);
  // Strictification cannot worsen balance relative to its own phase.
  EXPECT_LE(res.phase_binpack.max_weight_dev,
            res.phase_multibalance.max_weight_dev + 1e-9);
  EXPECT_GE(res.total_seconds, 0.0);
}

TEST(Decompose, InitMethodsAllStrict) {
  const Graph g = make_grid_cube(2, 16);
  for (WeightModel model : {WeightModel::Uniform, WeightModel::Zipf}) {
    const auto w = testing::weights_for(g, model, 63);
    double boundaries[3] = {0, 0, 0};
    int idx = 0;
    for (InitMethod init :
         {InitMethod::Paper, InitMethod::Bisection, InitMethod::Best}) {
      DecomposeOptions opt;
      opt.k = 6;
      opt.init = init;
      const DecomposeResult res = decompose(g, w, opt);
      expect_total_coloring(g, res.coloring);
      EXPECT_TRUE(res.balance.strictly_balanced)
          << weight_model_name(model) << " init " << idx;
      boundaries[idx++] = res.max_boundary;
    }
    // Best-of picks the minimum of the two.
    EXPECT_LE(boundaries[2],
              std::min(boundaries[0], boundaries[1]) + 1e-9)
        << weight_model_name(model);
  }
}

TEST(Decompose, BisectionInitRespectsTheoremBoundToo) {
  // The warm start has no worst-case guarantee of its own, but the final
  // coloring must still be strict and the boundary reasonable.
  const Graph g = make_grid_cube(2, 20);
  const auto w = testing::weights_for(g, WeightModel::Bimodal, 67);
  DecomposeOptions opt;
  opt.k = 8;
  opt.init = InitMethod::Bisection;
  const DecomposeResult res = decompose(g, w, opt);
  EXPECT_TRUE(res.balance.strictly_balanced);
  EXPECT_LE(res.max_boundary, 5.0 * res.bound.b_max);
}

TEST(Decompose, RaceTotalSecondsCoversEveryArm) {
  // InitMethod::Best returns one arm's result, but total_seconds must
  // report the whole call, losing arm included: at least half of the
  // externally timed wall time.  (The winning arm alone is a small share
  // when the loser is the slow one.)
  const Graph g = make_grid_cube(2, 40);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 71);
  DecomposeOptions opt;
  opt.k = 8;
  opt.init = InitMethod::Best;
  const Timer timer;
  const DecomposeResult res = decompose(g, w, opt);
  const double wall = timer.seconds();
  EXPECT_GE(res.total_seconds, 0.5 * wall) << "init=Best";
}

TEST(Decompose, DeterministicAcrossRuns) {
  const Graph g = make_grid_cube(2, 12);
  const auto w = testing::weights_for(g, WeightModel::Bimodal, 61);
  DecomposeOptions opt;
  opt.k = 5;
  const DecomposeResult a = decompose(g, w, opt);
  const DecomposeResult b = decompose(g, w, opt);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
}

}  // namespace
}  // namespace mmd
