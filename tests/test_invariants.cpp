// Deeper paper invariants, quantitative versions of the conditions the
// proofs rely on — beyond the per-module unit tests:
//   * Definition 13 (a)/(b)/(c) for the shrinking procedure,
//   * Lemma 9's average-boundary increase bound,
//   * Lemma 15's "every class touched O(1) times" (via cut-cost budget),
//   * relation (10): pi-balance implies cheap splits everywhere,
//   * end-to-end verify_decomposition across the whole standard suite.
#include <gtest/gtest.h>

#include <cmath>

#include "core/binpack.hpp"
#include "core/decompose.hpp"
#include "core/measures.hpp"
#include "core/multibalance.hpp"
#include "core/shrink.hpp"
#include "core/verify.hpp"
#include "gen/grid.hpp"
#include "graph/subgraph.hpp"
#include "instances/suite.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/norms.hpp"

namespace mmd {
namespace {

using testing::all_vertices;

// --- Definition 13: the shrinking procedure's three conditions ----------

struct ShrinkSetup {
  Graph g = make_grid_cube(2, 24);
  std::vector<Vertex> vs = all_vertices(g);
  std::vector<double> w =
      std::vector<double>(static_cast<std::size_t>(g.num_vertices()), 1.0);
  std::vector<double> pi = splitting_cost_measure(g, 2.0, 2.0);
  PrefixSplitter splitter;
  int k = 8;

  Coloring start() {
    std::vector<MeasureRef> ms{MeasureRef(pi), MeasureRef(w)};
    PrefixSplitter s;
    return multibalance(g, k, ms, s);
  }
};

TEST(Definition13, ConditionA_Chi0AlmostStrict) {
  ShrinkSetup s;
  const auto out = shrink_once(s.g, s.vs, s.start(), s.w, s.pi, s.splitter);
  // chi0's classes all sit in a tight window around eps * Psi*.
  const auto cw = class_measure(s.w, out.chi0());
  double lo = 1e300, hi = 0.0;
  for (double x : cw) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  EXPECT_LE(hi - lo, 4.0 * norm_inf(s.w) + 4.0)
      << "chi0 classes not uniformly sized: [" << lo << ", " << hi << "]";
}

TEST(Definition13, ConditionB_PiMassShrinksGeometrically) {
  ShrinkSetup s;
  const Coloring chi = s.start();
  const double pi_before = norm_inf(class_measure(s.pi, chi));
  const auto out = shrink_once(s.g, s.vs, chi, s.w, s.pi, s.splitter);
  const double pi_after = norm_inf(class_measure(s.pi, out.chi1));
  // Every chi1 class lost a definite fraction of its pi-mass (the paper's
  // (1 - eps^10) with proof constants; a definite decrease here).
  EXPECT_LT(pi_after, pi_before);
}

TEST(Definition13, ConditionC_GraphShrinks) {
  ShrinkSetup s;
  const auto out = shrink_once(s.g, s.vs, s.start(), s.w, s.pi, s.splitter);
  // |G[W1]| <= (1 - Theta(eps)) |G[W]| measured in vertices.
  EXPECT_LT(out.w1.size(), s.vs.size());
  EXPECT_LE(static_cast<double>(out.w1.size()),
            0.90 * static_cast<double>(s.vs.size()));
}

// --- Lemma 9: average boundary increase is O(B) --------------------------

TEST(Lemma9, AvgBoundaryIncreaseWithinBudget) {
  const Graph g = make_grid_cube(2, 24);
  const int k = 12;
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  Coloring chi(k, g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) chi[v] = 0;  // worst start
  const double avg_before = avg_boundary_cost(g, chi);  // 0

  PrefixSplitter splitter;
  const std::vector<MeasureRef> ms{MeasureRef(w)};
  const Coloring out = rebalance(g, chi, ms, splitter);
  const double avg_after = avg_boundary_cost(g, out);

  // B = q k^{-1/p} sigma_p ||c||_p with sigma_p ~ 2 on the unit grid.
  const double budget = 2.0 * std::pow(k, -0.5) * 2.0 *
                        norm_p(g.edge_costs(), 2.0);
  EXPECT_LE(avg_after - avg_before, 3.0 * budget);
}

// --- relation (10): pi-balanced colorings can be split cheaply ----------

TEST(Relation10, PiBalancedClassesSplitCheaply) {
  const Graph g = make_grid_cube(2, 20);
  const int k = 8;
  const double sigma = 2.0;
  const auto pi = splitting_cost_measure(g, 2.0, sigma);
  PrefixSplitter splitter;
  std::vector<MeasureRef> ms{MeasureRef(pi)};
  const Coloring chi = multibalance(g, k, ms, splitter);

  // Every class's splitting cost pi^{1/p}(class) is O(B') — so the Move
  // step can always split any class at bounded cost.
  const double b_prime =
      std::pow(norm1(pi) / k + norm_inf(pi), 0.5);  // (relation (10))
  for (const auto& cls : color_classes(chi)) {
    if (cls.empty()) continue;
    EXPECT_LE(splitting_cost(pi, cls, 2.0), 4.0 * b_prime);
    // And an actual split achieves a cost within that budget.
    SplitRequest req;
    req.g = &g;
    req.w_list = cls;
    req.weights = pi;
    req.target = set_measure(pi, cls) / 2.0;
    const SplitResult res = splitter.split(req);
    EXPECT_LE(res.boundary_cost, 4.0 * b_prime);
  }
}

// --- Lemma 15: conquer touches every class O(1) times --------------------

TEST(Lemma15, CutCostBudgetIsConstantPerClass) {
  const Graph g = make_grid_cube(2, 20);
  const int k = 8;
  const auto w = testing::weights_for(g, WeightModel::Uniform, 5);
  PrefixSplitter splitter;
  // Start from a weakly balanced coloring (stripes).
  Coloring chi(k, g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    chi[v] = std::min(k - 1, g.coords(v)[1] * k / 20);
  double cut = 0.0;
  const std::vector<double> zero(static_cast<std::size_t>(k), 0.0);
  binpack1(g, chi, w, zero, norm_inf(w), splitter, &cut);
  // Each of the O(k) peels costs at most one splitting-set cut of a class;
  // with classes of ~n/k vertices on a grid that is O(sqrt(n/k) * wmax
  // factor). Generous budget: k * 4 * sqrt(n/k) * max cost.
  const double per_cut = 4.0 * std::sqrt(static_cast<double>(
                                   g.num_vertices() / k));
  EXPECT_LE(cut, k * 2.0 * per_cut + 1e-9);
}

// --- end-to-end verification over the whole suite ------------------------

TEST(EndToEnd, VerifyAcrossSuiteAndInits) {
  for (const auto& inst : standard_suite(0)) {
    for (InitMethod init : {InitMethod::Paper, InitMethod::Bisection}) {
      DecomposeOptions opt;
      opt.k = 10;
      opt.p = inst.p;
      opt.init = init;
      const DecomposeResult res = decompose(inst.graph, inst.weights, opt);
      const VerifyReport rep =
          verify_decomposition(inst.graph, inst.weights, res.coloring);
      EXPECT_TRUE(rep.ok) << inst.name << " init "
                          << static_cast<int>(init) << ": "
                          << (rep.failures.empty() ? "" : rep.failures[0]);
    }
  }
}

}  // namespace
}  // namespace mmd
