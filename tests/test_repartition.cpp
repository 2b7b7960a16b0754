// Incremental repartitioning: the prior-solution seed threaded through
// decompose -> DecomposeContext -> service.
//
// The contract under test, layer by layer:
//   * DecomposeContext::repartition — the first call of a chain is a full
//     solve bit-identical to a cold decompose; a no-delta follow-up is a
//     cheap incremental no-op returning the prior; small drift rides the
//     seeded path and stays strictly balanced; drift a few windows out is
//     repaired locally and served; drift past the repair gate, a failed
//     repair and a wide rebind escalate to a full solve bit-identical to a
//     cold one.  Nothing outside the exact Definition 1 window is served.
//   * update_weights — validates every delta before mutating anything, so
//     a rejected batch leaves the chain exactly as it was.
//   * PartitionService — the `repartition` request mode: weights alongside
//     deltas is a BadRequest, unknown graphs are NotFound, and a served
//     chain matches a local context replaying the same deltas bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/repair.hpp"
#include "core/verify.hpp"
#include "gen/grid.hpp"
#include "service/partition_service.hpp"
#include "test_helpers.hpp"

namespace mmd {
namespace {

/// The drift workhorse: a 2-D grid whose row-major ids make contiguous id
/// windows spatial strips, so localized deltas touch few classes and the
/// dirty-fraction certificate stays quiet.
Graph drift_grid(int side) {
  CostParams costs;
  costs.model = CostModel::Uniform;
  costs.lo = 1.0;
  costs.hi = 8.0;
  costs.seed = 0x8ee7;
  return make_grid_cube(2, side, costs);
}

/// A gentle contiguous drift batch: `count` vertices from `start` nudged
/// multiplicatively, clamped near 1 so the strict window survives.
std::vector<WeightDelta> gentle_band(std::span<const double> w, int start,
                                     int count, double factor) {
  std::vector<WeightDelta> d;
  for (int v = start; v < start + count; ++v) {
    const double nw =
        std::clamp(w[static_cast<std::size_t>(v)] * factor, 0.8, 1.25);
    d.push_back({static_cast<Vertex>(v), nw});
  }
  return d;
}

void expect_verified(const Graph& g, std::span<const double> w,
                     const Coloring& chi, const char* what) {
  const VerifyReport rep = verify_decomposition(g, w, chi);
  EXPECT_TRUE(rep.ok) << what << ": "
                      << (rep.failures.empty() ? "(no failure note)"
                                               : rep.failures.front());
}

TEST(Repartition, FirstCallIsFullSolveBitIdenticalToCold) {
  const Graph g = drift_grid(16);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  DecomposeOptions opt;
  opt.k = 4;

  const DecomposeResult cold = decompose(g, w, opt);

  DecomposeContext ctx(g, opt);
  EXPECT_FALSE(ctx.has_weights());
  ctx.set_weights(w);
  EXPECT_TRUE(ctx.has_weights());
  const DecomposeResult first = ctx.repartition();

  EXPECT_FALSE(first.incremental);
  EXPECT_FALSE(first.escalated);
  EXPECT_EQ(first.migration_cost, -1);  // no prior: nothing to migrate from
  EXPECT_EQ(first.coloring.color, cold.coloring.color);
  EXPECT_DOUBLE_EQ(first.max_boundary, cold.max_boundary);
  EXPECT_EQ(ctx.stats().repartition_calls, 1);
  EXPECT_EQ(ctx.stats().incremental_served, 0);
}

TEST(Repartition, NoDeltaFollowUpIsIncrementalNoop) {
  const Graph g = drift_grid(16);
  const std::vector<double> w(static_cast<std::size_t>(g.num_vertices()), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  const DecomposeResult first = ctx.repartition();

  const DecomposeResult again = ctx.repartition();
  EXPECT_TRUE(again.incremental);
  EXPECT_FALSE(again.escalated);
  EXPECT_EQ(again.migration_cost, 0);
  EXPECT_EQ(again.coloring.color, first.coloring.color);
  EXPECT_EQ(ctx.stats().incremental_served, 1);
  EXPECT_EQ(ctx.stats().escalations, 0);
}

TEST(Repartition, SmallLocalDriftRidesSeededPathAndStaysStrict) {
  const Graph g = drift_grid(32);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 8;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  (void)ctx.repartition();

  // One ~1% strip drifting by ~5%: well inside every certificate.
  const auto deltas = gentle_band(w, n / 3, n / 100, 1.05);
  for (const WeightDelta& d : deltas)
    w[static_cast<std::size_t>(d.v)] = d.weight;
  const DecomposeResult inc = ctx.repartition(deltas);

  EXPECT_TRUE(inc.incremental);
  EXPECT_FALSE(inc.escalated);
  EXPECT_GE(inc.migration_cost, 0);
  expect_verified(g, w, inc.coloring, "incremental result");
  // The context's weight view advanced with the deltas.
  ASSERT_EQ(ctx.weights().size(), w.size());
  for (const WeightDelta& d : deltas)
    EXPECT_DOUBLE_EQ(ctx.weights()[static_cast<std::size_t>(d.v)], d.weight);
}

TEST(Repartition, BalanceDriftEscalatesBitIdenticalToFullSolve) {
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  (void)ctx.repartition();

  // One strip spikes 8x: the prior's class sums blow the Definition 1
  // window, the balance certificate fires, and the full pipeline serves.
  std::vector<WeightDelta> deltas;
  for (int v = 0; v < n / 8; ++v) {
    deltas.push_back({static_cast<Vertex>(v), 8.0});
    w[static_cast<std::size_t>(v)] = 8.0;
  }
  const DecomposeResult esc = ctx.repartition(deltas);

  EXPECT_FALSE(esc.incremental);
  EXPECT_TRUE(esc.escalated);
  EXPECT_GE(esc.migration_cost, 0);
  expect_verified(g, w, esc.coloring, "escalated result");

  // Escalation strips the prior: the result may not differ in any byte
  // from a solve that never had one.
  const DecomposeResult cold = decompose(g, w, opt);
  EXPECT_EQ(esc.coloring.color, cold.coloring.color);
  EXPECT_DOUBLE_EQ(esc.max_boundary, cold.max_boundary);
  EXPECT_EQ(ctx.stats().escalations, 1);
}

TEST(Repartition, ScatteredDriftServedIncrementally) {
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  const DecomposeResult first = ctx.repartition();

  // A tiny nudge on one vertex per class: every class is delta-touched,
  // but the dirty region is only the nudged vertices and their
  // neighbours, so the prior is served.
  std::vector<WeightDelta> deltas;
  for (int c = 0; c < 4; ++c) {
    const auto v = static_cast<Vertex>(c * (n / 4) + n / 8);
    deltas.push_back({v, 1.01});
    w[static_cast<std::size_t>(v)] = 1.01;
  }
  const DecomposeResult inc = ctx.repartition(deltas);
  EXPECT_TRUE(inc.incremental);
  EXPECT_FALSE(inc.escalated);
  EXPECT_EQ(inc.escalation, Escalation::None);
  expect_verified(g, w, inc.coloring, "scattered drift");
  EXPECT_LE(inc.max_boundary,
            opt.incremental.max_boundary_growth * first.max_boundary + 1e-9);
}

TEST(Repartition, DirtyFractionCertificateFiresOnWideRebind) {
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  (void)ctx.repartition();

  // A rebind that changes 80% of the weights by a hair: balance barely
  // moves, but the dirty region covers more than 75% of the graph.
  for (int v = 0; v < n; ++v)
    if (v % 5 != 0) w[static_cast<std::size_t>(v)] = 1.001;
  ctx.set_weights(w);
  const DecomposeResult esc = ctx.repartition();
  EXPECT_FALSE(esc.incremental);
  EXPECT_TRUE(esc.escalated);
  EXPECT_EQ(esc.escalation, Escalation::DirtyRegion);
  expect_verified(g, w, esc.coloring, "wide rebind");

  const DecomposeResult cold = decompose(g, w, opt);
  EXPECT_EQ(esc.coloring.color, cold.coloring.color);
  EXPECT_DOUBLE_EQ(esc.max_boundary, cold.max_boundary);
  EXPECT_EQ(ctx.stats().escalation_reasons[Escalation::DirtyRegion], 1);
}

TEST(Repartition, BalanceRepairRestoresStrictWindow) {
  const Graph g = drift_grid(32);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 8;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  const DecomposeResult first = ctx.repartition();

  // Twelve vertices of one class get 1.2x heavier: that class overshoots
  // the window by about twice its width.
  const std::int32_t heavy = first.coloring[0];
  std::vector<WeightDelta> deltas;
  for (int v = 0; v < n && deltas.size() < 12; ++v) {
    if (first.coloring[static_cast<Vertex>(v)] != heavy) continue;
    deltas.push_back({static_cast<Vertex>(v), 1.2});
    w[static_cast<std::size_t>(v)] = 1.2;
  }
  const BalanceReport pre = balance_report(w, first.coloring);
  ASSERT_GT(pre.max_dev, pre.strict_bound);
  ASSERT_LT(pre.max_dev, 3.0 * pre.strict_bound);

  const DecomposeResult inc = ctx.repartition(deltas);
  EXPECT_TRUE(inc.incremental);
  EXPECT_EQ(inc.escalation, Escalation::None);
  expect_verified(g, w, inc.coloring, "repaired result");
  const BalanceReport post = balance_report(w, inc.coloring);
  EXPECT_LE(post.max_dev, post.strict_bound);  // exact, no slack
  long changed = 0;
  for (int v = 0; v < n; ++v)
    changed += inc.coloring[static_cast<Vertex>(v)] !=
               first.coloring[static_cast<Vertex>(v)];
  EXPECT_GT(changed, 0);
  EXPECT_EQ(inc.migration_cost, changed);
}

TEST(Repartition, RepairFailureEscalatesBitIdentical) {
  // Two halves of a grid; the rows on either side of the cut weigh
  // nothing, so the overfull half has no boundary vertex whose move
  // changes a class sum: the repair is stuck and must escalate.
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  Coloring halves(2, n);
  for (int v = 0; v < n; ++v) {
    const int row = v / 16;
    halves[static_cast<Vertex>(v)] = row < 8 ? 0 : 1;
    if (row == 7 || row == 8) w[static_cast<std::size_t>(v)] = 0.0;
  }
  std::vector<Vertex> dirty;
  for (const Vertex v : {200, 201}) {  // interior of the lower half
    w[static_cast<std::size_t>(v)] = 0.0;
    dirty.push_back(v);
  }
  const BalanceReport pre = balance_report(w, halves);
  ASSERT_GT(pre.max_dev, pre.strict_bound);
  ASSERT_LE(pre.max_dev, 3.0 * pre.strict_bound);

  DecomposeOptions opt;
  opt.k = 2;
  PriorSolution prior;
  prior.coloring = &halves;
  prior.dirty = dirty;
  DecomposeOptions seeded = opt;
  seeded.prior = &prior;
  const DecomposeResult esc = decompose(g, w, seeded);
  EXPECT_FALSE(esc.incremental);
  EXPECT_TRUE(esc.escalated);
  EXPECT_EQ(esc.escalation, Escalation::RepairFailed);
  expect_verified(g, w, esc.coloring, "repair-failure escalation");

  const DecomposeResult cold = decompose(g, w, opt);
  EXPECT_EQ(esc.coloring.color, cold.coloring.color);
  EXPECT_DOUBLE_EQ(esc.max_boundary, cold.max_boundary);
}

TEST(Repartition, PriorInsideOldSlackIsNeverServedAsIs) {
  // Class 0 sits 1e-8 past the Definition 1 window: inside the 1e-9 * avg
  // slack the balance certificate once allowed, outside the exact window.
  // With no deltas the seeded refinement would not touch it, so serving
  // the prior unrepaired is the failure this pins.
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  Coloring prior_chi(2, n);
  for (int v = 0; v < n; ++v) prior_chi[static_cast<Vertex>(v)] = v < 129 ? 0 : 1;
  w[0] = 2e-8;  // class 0: 128 + 2e-8, class 1: 127
  const BalanceReport pre = balance_report(w, prior_chi);
  ASSERT_GT(pre.max_dev, pre.strict_bound);
  ASSERT_LE(pre.max_dev, pre.strict_bound + 1e-9 * pre.avg);

  DecomposeOptions opt;
  opt.k = 2;
  PriorSolution prior;
  prior.coloring = &prior_chi;
  DecomposeOptions seeded = opt;
  seeded.prior = &prior;
  const DecomposeResult res = decompose(g, w, seeded);
  EXPECT_NE(res.coloring.color, prior_chi.color);
  EXPECT_LE(res.balance.max_dev, res.balance.strict_bound);
  const BalanceReport post = balance_report(w, res.coloring);
  EXPECT_LE(post.max_dev, post.strict_bound);
  if (res.escalated) {
    const DecomposeResult cold = decompose(g, w, opt);
    EXPECT_EQ(res.coloring.color, cold.coloring.color);
  } else {
    EXPECT_TRUE(res.incremental);
    EXPECT_GT(res.migration_cost, 0);
  }
}

TEST(Repartition, RepairBalanceTakesLeastCutRiseLowestIdFirst) {
  // A 2x4 ladder (ids r*4+c, unit costs and weights) with columns 0-2 in
  // class 0 and column 3 in class 1: class 0 is 2 over W/k = 4.  Move 1:
  // vertices 2 and 6 tie at cut rise +1, the lower id goes.  Move 2:
  // vertex 6 now lowers the cut (rise -1) and wins over vertex 1 (+1).
  GraphBuilder b(8);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 4; ++c) {
      const int v = r * 4 + c;
      if (c + 1 < 4) b.add_edge(v, v + 1, 1.0);
      if (r == 0) b.add_edge(v, v + 4, 1.0);
    }
  const Graph g = b.build();
  const std::vector<double> w(8, 1.0);
  Coloring chi(2, 8);
  for (int v = 0; v < 8; ++v) chi[v] = v % 4 == 3 ? 1 : 0;

  RefineWorkspace ws;
  Coloring stuck = chi;
  EXPECT_FALSE(repair_balance(g, stuck, w, 1, ws).ok);  // over budget
  EXPECT_EQ(ws.moved, std::vector<Vertex>{2});

  const RepairStats st = repair_balance(g, chi, w, 64, ws);
  EXPECT_TRUE(st.ok);
  EXPECT_EQ(st.moves, 2);
  EXPECT_EQ(ws.moved, (std::vector<Vertex>{2, 6}));
  EXPECT_EQ(chi.color, (std::vector<std::int32_t>{0, 0, 1, 1, 0, 0, 1, 1}));
}

TEST(Repartition, UpdateWeightsValidatesBeforeMutating) {
  const Graph g = drift_grid(8);
  const int n = g.num_vertices();
  const std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);

  // Chain not bound yet: misuse.
  EXPECT_THROW((void)ctx.update_weights({}), std::invalid_argument);

  ctx.set_weights(w);
  const DecomposeResult base = ctx.repartition();

  // A batch with one bad delta anywhere must apply nothing: good deltas
  // ahead of the bad one included.
  const std::vector<WeightDelta> out_of_range{{0, 2.0},
                                              {static_cast<Vertex>(n), 1.0}};
  EXPECT_THROW((void)ctx.update_weights(out_of_range), std::invalid_argument);
  const std::vector<WeightDelta> negative{{1, 2.0}, {2, -0.5}};
  EXPECT_THROW((void)ctx.update_weights(negative), std::invalid_argument);
  const std::vector<WeightDelta> non_finite{
      {3, std::numeric_limits<double>::infinity()}};
  EXPECT_THROW((void)ctx.update_weights(non_finite), std::invalid_argument);

  for (int v = 0; v < n; ++v)
    EXPECT_DOUBLE_EQ(ctx.weights()[static_cast<std::size_t>(v)], 1.0)
        << "rejected batch mutated vertex " << v;

  // The chain is untouched: a clean no-delta call still serves the prior.
  const DecomposeResult after = ctx.repartition();
  EXPECT_TRUE(after.incremental);
  EXPECT_EQ(after.coloring.color, base.coloring.color);
}

TEST(Repartition, SetWeightsRebindActsAsOneBigDeltaBatch) {
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext ctx(g, opt);
  ctx.set_weights(w);
  (void)ctx.repartition();

  // Rebind with a gently drifted copy of the whole vector; the changed
  // vertices become the pending dirty set of the next call.
  for (int v = n / 4; v < n / 4 + n / 50; ++v)
    w[static_cast<std::size_t>(v)] = 1.1;
  ctx.set_weights(w);
  const DecomposeResult res = ctx.repartition();
  expect_verified(g, w, res.coloring, "rebind result");
  if (res.escalated) {
    const DecomposeResult cold = decompose(g, w, opt);
    EXPECT_EQ(res.coloring.color, cold.coloring.color);
  }
}

TEST(Repartition, ServiceRequestFlowMatchesLocalChain) {
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);

  PartitionService service;
  service.load_graph("drift", Graph(g), w);

  ServiceRequest req;
  req.graph = "drift";
  req.mode = RequestMode::Repartition;
  req.options.k = 4;

  // Weights alongside a repartition request: caller misuse, typed.
  ServiceRequest bad = req;
  bad.weights = w;
  const ServiceResponse rejected = service.execute(bad);
  EXPECT_EQ(rejected.status, ServiceStatus::BadRequest);

  // Unknown graph: NotFound, not an exception.
  ServiceRequest missing = req;
  missing.graph = "no-such-graph";
  EXPECT_EQ(service.execute(missing).status, ServiceStatus::NotFound);

  // The chain itself, raced against a local context fed the same deltas.
  DecomposeOptions opt;
  opt.k = 4;
  DecomposeContext local(g, opt);
  local.set_weights(w);

  const ServiceResponse first = service.execute(req);
  ASSERT_EQ(first.status, ServiceStatus::Ok);
  EXPECT_FALSE(first.incremental);
  const DecomposeResult lfirst = local.repartition();
  EXPECT_EQ(first.coloring.color, lfirst.coloring.color);

  ServiceRequest drift = req;
  drift.deltas = gentle_band(w, n / 3, n / 100, 1.05);
  for (const WeightDelta& d : drift.deltas)
    w[static_cast<std::size_t>(d.v)] = d.weight;
  const ServiceResponse second = service.execute(drift);
  ASSERT_EQ(second.status, ServiceStatus::Ok);
  const DecomposeResult lsecond = local.repartition(drift.deltas);
  EXPECT_EQ(second.incremental, lsecond.incremental);
  EXPECT_EQ(second.escalated, lsecond.escalated);
  EXPECT_EQ(second.migration_cost, lsecond.migration_cost);
  EXPECT_EQ(second.coloring.color, lsecond.coloring.color);
  expect_verified(g, w, second.coloring, "service repartition");

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.repartitions, 2);
  // The rejected/missing requests must not have counted.
  EXPECT_EQ(stats.errors, 2);
}

TEST(Repartition, StandalonePriorSolutionThroughConvenienceOverload) {
  // The PriorSolution plumbing is usable without a context: assemble one
  // by hand and hand it to the convenience decompose overload.
  const Graph g = drift_grid(16);
  const int n = g.num_vertices();
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  DecomposeOptions opt;
  opt.k = 4;
  const DecomposeResult base = decompose(g, w, opt);

  std::vector<Vertex> dirty;
  for (int v = n / 3; v < n / 3 + n / 100; ++v) {
    w[static_cast<std::size_t>(v)] = 1.05;
    dirty.push_back(static_cast<Vertex>(v));
  }

  PriorSolution prior;
  prior.coloring = &base.coloring;
  prior.max_boundary = base.max_boundary;
  prior.baseline_max_boundary = base.max_boundary;
  prior.dirty = dirty;
  DecomposeOptions seeded = opt;
  seeded.prior = &prior;

  const DecomposeResult res = decompose(g, w, seeded);
  EXPECT_TRUE(res.incremental || res.escalated);
  EXPECT_GE(res.migration_cost, 0);
  expect_verified(g, w, res.coloring, "standalone prior");
}

}  // namespace
}  // namespace mmd
