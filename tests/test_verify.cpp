#include <gtest/gtest.h>

#include <limits>

#include "core/decompose.hpp"
#include "core/fast.hpp"
#include "core/verify.hpp"
#include "gen/basic.hpp"
#include "gen/grid.hpp"
#include "test_helpers.hpp"

namespace mmd {
namespace {

TEST(Verify, AcceptsPipelineOutput) {
  const Graph g = make_grid_cube(2, 12);
  const auto w = testing::weights_for(g, WeightModel::Uniform, 3);
  DecomposeOptions opt;
  opt.k = 6;
  const DecomposeResult res = decompose(g, w, opt);
  const VerifyReport rep = verify_decomposition(g, w, res.coloring);
  EXPECT_TRUE(rep.ok) << (rep.failures.empty() ? "" : rep.failures.front());
  EXPECT_TRUE(rep.total);
  EXPECT_TRUE(rep.strictly_balanced);
  EXPECT_NEAR(rep.max_boundary, res.max_boundary, 1e-9);
  EXPECT_EQ(rep.nonempty_classes, 6);
}

TEST(Verify, FlagsUncoloredVertices) {
  const Graph g = make_grid_cube(2, 4);
  const std::vector<double> w(16, 1.0);
  Coloring chi(2, g.num_vertices());  // all uncolored
  const VerifyReport rep = verify_decomposition(g, w, chi);
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.total);
  EXPECT_FALSE(rep.failures.empty());
}

TEST(Verify, FlagsImbalance) {
  const Graph g = make_grid_cube(2, 4);
  const std::vector<double> w(16, 1.0);
  Coloring chi(2, g.num_vertices());
  for (Vertex v = 0; v < 16; ++v) chi[v] = v < 15 ? 0 : 1;  // 15 vs 1
  const VerifyReport rep = verify_decomposition(g, w, chi);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(rep.total);
  EXPECT_FALSE(rep.strictly_balanced);
  EXPECT_DOUBLE_EQ(rep.max_dev, 7.0);
  EXPECT_DOUBLE_EQ(rep.strict_bound, 0.5);
}

TEST(Verify, CountsFragmentedClasses) {
  const Graph g = make_grid_cube(2, 4);
  const std::vector<double> w(16, 1.0);
  // Checkerboard: both classes maximally fragmented but balanced.
  Coloring chi(2, g.num_vertices());
  for (Vertex v = 0; v < 16; ++v) {
    const auto c = g.coords(v);
    chi[v] = (c[0] + c[1]) % 2;
  }
  const VerifyReport rep = verify_decomposition(g, w, chi);
  EXPECT_TRUE(rep.ok);  // fragmentation is informational, not a failure
  EXPECT_EQ(rep.fragmented_classes, 2);
  // Halves: contiguous.
  Coloring halves(2, g.num_vertices());
  for (Vertex v = 0; v < 16; ++v) halves[v] = g.coords(v)[0] < 2 ? 0 : 1;
  EXPECT_EQ(verify_decomposition(g, w, halves).fragmented_classes, 0);
}

TEST(Verify, RejectsArityMismatch) {
  const Graph g = make_grid_cube(2, 4);
  const std::vector<double> bad(3, 1.0);
  Coloring chi(2, g.num_vertices());
  EXPECT_THROW(verify_decomposition(g, bad, chi), std::invalid_argument);
}

TEST(Verify, FailsClosedOnOverflowingClassSum) {
  // Three vertices of weight 1e308 in one class of three: the class sum
  // and ||w||_1 overflow to inf, which used to make the comparison slack
  // infinite and pass the coloring as strict.
  const Graph g = make_path(3);
  const std::vector<double> w(3, 1e308);
  Coloring chi(3, g.num_vertices());
  for (Vertex v = 0; v < 3; ++v) chi[v] = 0;
  const BalanceReport bal = balance_report(w, chi);
  EXPECT_FALSE(bal.finite);
  EXPECT_FALSE(bal.strictly_balanced);
  EXPECT_FALSE(bal.almost_strictly_balanced);
  const VerifyReport rep = verify_decomposition(g, w, chi);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(rep.total);
  EXPECT_FALSE(rep.strictly_balanced);
  EXPECT_FALSE(rep.failures.empty());

  // A NaN weight poisons the sums the same way.
  std::vector<double> nan_w(3, 1.0);
  nan_w[1] = std::numeric_limits<double>::quiet_NaN();
  for (Vertex v = 0; v < 3; ++v) chi[v] = v;
  EXPECT_FALSE(verify_decomposition(g, nan_w, chi).strictly_balanced);
}

TEST(Verify, FiniteSumsKeepTheirVerdict) {
  const Graph g = make_path(3);
  const std::vector<double> w(3, 1e307);
  Coloring chi(3, g.num_vertices());
  for (Vertex v = 0; v < 3; ++v) chi[v] = v;
  const BalanceReport bal = balance_report(w, chi);
  EXPECT_TRUE(bal.finite);
  EXPECT_TRUE(bal.strictly_balanced);
  EXPECT_TRUE(verify_decomposition(g, w, chi).ok);
}

TEST(Verify, PipelineRejectsNonFiniteTotalWeight) {
  // ||w||_1 = inf is bad input: rejected as std::invalid_argument before
  // any phase runs (k = 2 used to die inside the Lemma 9 invariant, k = 3
  // used to return a coloring that verified).
  const Graph g = make_path(3);
  const std::vector<double> w(3, 1e308);
  for (const int k : {2, 3}) {
    DecomposeOptions opt;
    opt.k = k;
    EXPECT_THROW(decompose(g, w, opt), std::invalid_argument) << "k=" << k;
    EXPECT_THROW(decompose_multi(g, w, {}, opt), std::invalid_argument)
        << "k=" << k;
    FastOptions fopt;
    fopt.inner.k = k;
    EXPECT_THROW(decompose_fast(g, w, fopt), std::invalid_argument)
        << "k=" << k;
  }
  std::vector<double> inf_w(3, 1.0);
  inf_w[0] = std::numeric_limits<double>::infinity();
  DecomposeOptions opt;
  opt.k = 2;
  EXPECT_THROW(decompose(g, inf_w, opt), std::invalid_argument);
}

}  // namespace
}  // namespace mmd
