// shrink_once step (5) class fan-out: with a thread pool reachable through
// the splitter, the per-class Corollary 18 extractions run on
// L = min(pool threads, k) splitter lanes (lane j takes classes j, j+L,
// ...) and merge in class order, so strictify's colorings, cut costs and
// stats — and every decompose answer built on them — must stay
// bit-identical to the serial loop for every thread count and every k,
// including k below the lane count and k not a multiple of it.  A fault
// thrown inside a lane must surface typed and leave the splitter, its
// lanes and the workspace reusable.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/measures.hpp"
#include "core/shrink.hpp"
#include "core/strictify.hpp"
#include "gen/costs.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

namespace mmd {
namespace {

using testing::all_vertices;

constexpr long kCountOnly = 1L << 40;

/// PrefixSplitter decorator that counts the splits run inside a pooled
/// task.  strictify_almost and shrink_once fork nowhere but step (5), so
/// around those calls a pooled split is a step (5) lane split.  Lanes are
/// fresh probes around fresh PrefixSplitters sharing the counters: a
/// bit-identical replica of the parent by the ISplitter lane contract.
class PooledSplitProbe final : public ISplitter {
 public:
  struct Counters {
    std::atomic<long> pooled{0};         ///< splits entered on a lane
    std::atomic<long> pooled_faults{0};  ///< InjectedFaults thrown there
  };

  explicit PooledSplitProbe(std::shared_ptr<Counters> counters)
      : inner_(std::make_unique<PrefixSplitter>()),
        counters_(std::move(counters)) {}

  SplitResult split(const SplitRequest& request) override {
    const bool pooled = ThreadPool::on_worker_thread();
    if (pooled) ++counters_->pooled;
    try {
      return inner_->split(request);
    } catch (const fault::InjectedFault&) {
      if (pooled) ++counters_->pooled_faults;
      throw;
    }
  }
  std::string name() const override { return "pooled-split-probe"; }
  bool supports_sweep_mode(SweepMode mode) const override {
    return inner_->supports_sweep_mode(mode);
  }
  std::unique_ptr<ISplitter> make_lane() override {
    return std::make_unique<PooledSplitProbe>(counters_);
  }

 protected:
  void on_thread_pool_changed(ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  void on_exec_control_changed(const ExecControl& exec) override {
    inner_->set_exec_control(exec);
  }
  void on_diagnostics_changed(DecomposeDiagnostics* diag) override {
    inner_->set_diagnostics(diag);
  }
  void on_sweep_mode_changed(SweepMode mode) override {
    inner_->set_sweep_mode(mode);
  }
  void on_adaptive_margin_changed(double margin) override {
    inner_->set_adaptive_margin(margin);
  }

 private:
  std::unique_ptr<PrefixSplitter> inner_;
  std::shared_ptr<Counters> counters_;
};

/// Deterministic weights in [1, 2): small enough against the average
/// class weight that strictify recurses instead of taking its base case.
std::vector<double> mild_weights(const Graph& g) {
  std::vector<double> w(static_cast<std::size_t>(g.num_vertices()));
  for (std::size_t v = 0; v < w.size(); ++v)
    w[v] = 1.0 + static_cast<double>((v * 2654435761u) % 97u) / 97.0;
  return w;
}

/// Contiguous id ranges: a total, weakly balanced start coloring.
Coloring id_stripes(const Graph& g, int k) {
  Coloring chi(k, g.num_vertices());
  const long n = g.num_vertices();
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    chi[v] = static_cast<std::int32_t>(static_cast<long>(v) * k / n);
  return chi;
}

struct Instance {
  std::string name;
  Graph graph;
};

/// Non-integer edge costs, so a cut-cost sum taken in another order would
/// differ in its low bits.
const CostParams kUniformCosts{CostModel::Uniform, 0.5, 2.0, 7};
const CostParams kLogCosts{CostModel::LogUniform, 0.1, 10.0, 11};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back({"grid32", make_grid_cube(2, 32, kUniformCosts)});
  out.push_back({"trimesh32", make_tri_mesh(32, 32, kLogCosts)});
  return out;
}

constexpr int kThreads[] = {1, 2, 3, 4, 8};
constexpr int kClassCounts[] = {2, 3, 5, 16, 17};

TEST(ShrinkThreads, StrictifyBitIdenticalAcrossThreadsAndK) {
  for (const Instance& inst : instances()) {
    const Graph& g = inst.graph;
    const std::vector<double> w = mild_weights(g);
    const std::vector<double> pi = splitting_cost_measure(g, 2.0, 2.0);
    for (const int k : kClassCounts) {
      const Coloring start = id_stripes(g, k);
      PrefixSplitter serial;
      StrictifyStats ref_stats;
      const Coloring ref =
          strictify_almost(g, start, w, pi, serial, {}, &ref_stats);
      ASSERT_GE(ref_stats.levels, 2) << inst.name << " k=" << k
                                     << ": strictify never shrank";

      for (const int threads : kThreads) {
        SCOPED_TRACE(inst.name + " k=" + std::to_string(k) +
                     " threads=" + std::to_string(threads));
        ThreadPool pool(threads);
        auto counters = std::make_shared<PooledSplitProbe::Counters>();
        PooledSplitProbe probe(counters);
        probe.set_thread_pool(&pool);
        DecomposeWorkspace ws;
        // Cold, then warm on the same splitter, lanes and workspace.
        for (int rep = 0; rep < 2; ++rep) {
          StrictifyStats stats;
          const Coloring got =
              strictify_almost(g, start, w, pi, probe, {}, &stats, {}, &ws);
          EXPECT_EQ(got.color, ref.color) << "rep " << rep;
          EXPECT_EQ(stats.cut_cost, ref_stats.cut_cost) << "rep " << rep;
          EXPECT_EQ(stats.levels, ref_stats.levels) << "rep " << rep;
        }
        // The fan-out ran exactly when the pool has workers.
        if (threads > 1) {
          EXPECT_GT(counters->pooled.load(), 0);
        } else {
          EXPECT_EQ(counters->pooled.load(), 0);
        }
      }
    }
  }
}

TEST(ShrinkThreads, ContextDecomposeBitIdenticalAcrossThreadsAndK) {
  const Graph g = make_tri_mesh(32, 32, kLogCosts);
  const std::vector<double> w = mild_weights(g);
  for (const int k : kClassCounts) {
    DecomposeOptions opt;
    opt.k = k;
    const DecomposeResult ref = decompose(g, w, opt);
    for (const int threads : kThreads) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " threads=" + std::to_string(threads));
      DecomposeOptions topt = opt;
      topt.num_threads = threads;
      DecomposeContext ctx(g, topt);
      for (int rep = 0; rep < 2; ++rep) {
        const DecomposeResult got = ctx.decompose(w);
        EXPECT_EQ(got.coloring.color, ref.coloring.color) << "rep " << rep;
        EXPECT_EQ(got.max_boundary, ref.max_boundary) << "rep " << rep;
      }
    }
  }
}

class ShrinkThreadsFault : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

TEST_F(ShrinkThreadsFault, StepFiveLaneFaultFailsTypedAndRetriesBitIdentical) {
  // Unit weights and equal round-robin classes: every class already sits
  // in [eps Psi*, M/2 Psi*], so steps (2)-(4) split nothing and every
  // split of the call is a step (5) extraction.
  const Graph g = make_grid_cube(2, 24);
  const std::vector<Vertex> vs = all_vertices(g);
  const std::vector<double> w(vs.size(), 1.0);
  const std::vector<double> pi = splitting_cost_measure(g, 2.0, 2.0);
  const int k = 4;
  Coloring chi(k, g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) chi[v] = v % k;

  PrefixSplitter cold_splitter;
  const ShrinkOutput cold = shrink_once(g, vs, chi, w, pi, cold_splitter);

  ThreadPool pool(4);
  auto counters = std::make_shared<PooledSplitProbe::Counters>();
  PooledSplitProbe probe(counters);
  probe.set_thread_pool(&pool);
  DecomposeWorkspace ws;

  fault::arm_splitter_fault(kCountOnly);
  (void)shrink_once(g, vs, chi, w, pi, probe, {}, {}, &ws);
  const long sites = fault::splits_seen();
  fault::disarm();
  ASSERT_GT(sites, 0);
  ASSERT_EQ(counters->pooled.load(), sites)
      << "a split ran outside the step (5) lanes";

  for (const long nth : {0L, sites / 3, 2 * sites / 3, sites - 1}) {
    SCOPED_TRACE("fault at split " + std::to_string(nth));
    const long lane_faults = counters->pooled_faults.load();
    fault::arm_splitter_fault(nth);
    EXPECT_THROW((void)shrink_once(g, vs, chi, w, pi, probe, {}, {}, &ws),
                 fault::InjectedFault);
    fault::disarm();
    EXPECT_EQ(counters->pooled_faults.load(), lane_faults + 1)
        << "the fault did not fire inside a lane";

    // The same splitter, lanes and workspace serve the retry exactly like
    // a cold serial call.
    const ShrinkOutput retry = shrink_once(g, vs, chi, w, pi, probe, {}, {}, &ws);
    EXPECT_EQ(retry.w0, cold.w0);
    EXPECT_EQ(retry.c0, cold.c0);
    EXPECT_EQ(retry.w1, cold.w1);
    EXPECT_EQ(retry.chi1.color, cold.chi1.color);
    EXPECT_EQ(retry.cut_cost, cold.cut_cost);
  }
}

TEST_F(ShrinkThreadsFault, ContextRetryAfterSplitterFaultMatchesCold) {
  const Graph g = make_tri_mesh(24, 24, kUniformCosts);
  const std::vector<double> w = mild_weights(g);
  DecomposeOptions opt;
  opt.k = 8;
  const DecomposeResult cold = decompose(g, w, opt);

  DecomposeOptions topt = opt;
  topt.num_threads = 4;
  DecomposeContext ctx(g, topt);
  fault::arm_splitter_fault(kCountOnly);
  (void)ctx.decompose(w);
  const long sites = fault::splits_seen();
  fault::disarm();
  ASSERT_GT(sites, 0);

  // Evenly spread split indices: most of a Paper-arm call's splits are
  // strictify's step (5) extractions, so several land in its lanes.
  constexpr long kSamples = 12;
  for (long s = 0; s < kSamples; ++s) {
    const long nth = s * (sites - 1) / (kSamples - 1);
    SCOPED_TRACE("fault at split " + std::to_string(nth));
    fault::arm_splitter_fault(nth);
    EXPECT_THROW((void)ctx.decompose(w), fault::InjectedFault);
    fault::disarm();
    const DecomposeResult retry = ctx.decompose(w);
    EXPECT_EQ(retry.coloring.color, cold.coloring.color);
    EXPECT_EQ(retry.max_boundary, cold.max_boundary);
  }
}

}  // namespace
}  // namespace mmd
