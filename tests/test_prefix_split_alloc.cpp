// Counting-allocator pins for PrefixSplitter::split itself (serial and
// parallel paths, both SweepMode rules), matching the existing refine /
// multi_split steady-state allocator tests: once the splitter's persistent
// scratch — memberships, order buffers, evaluation slots, SweepEval
// engines — has grown to steady state, the per-call allocation count must
// be flat (the unavoidable result-vector allocations of SplitResult, and
// nothing that creeps per call).  The same shim also pins strictify's
// O(n) working memory: a warm shrink_once / extract_hitting_part that
// leases from a DecomposeWorkspace makes no graph-sized allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>

#include "core/measures.hpp"
#include "core/parts.hpp"
#include "core/shrink.hpp"
#include "gen/grid.hpp"
#include "separators/prefix_splitter.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

// ---- counting allocator ---------------------------------------------------

namespace {
std::atomic<long> g_alloc_count{0};
// Allocations of at least g_big_bytes (off unless a test sets it).
std::atomic<std::size_t> g_big_bytes{std::numeric_limits<std::size_t>::max()};
std::atomic<long> g_big_count{0};

void count_allocation(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size >= g_big_bytes.load(std::memory_order_relaxed))
    g_big_count.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mmd {
namespace {

/// Warm the splitter, then assert the per-split allocation count is flat
/// across repeated identical calls.
void expect_flat_split_allocations(PrefixSplitter& splitter,
                                   const SplitRequest& req) {
  (void)splitter.split(req);
  (void)splitter.split(req);

  const long before_a = g_alloc_count.load();
  const SplitResult a = splitter.split(req);
  const long cost_a = g_alloc_count.load() - before_a;

  const long before_b = g_alloc_count.load();
  const SplitResult b = splitter.split(req);
  const long cost_b = g_alloc_count.load() - before_b;

  EXPECT_EQ(cost_a, cost_b) << "per-split allocation count not flat";
  EXPECT_EQ(a.inside, b.inside);
  EXPECT_EQ(a.boundary_cost, b.boundary_cost);
}

class PrefixSplitAlloc : public ::testing::Test {
 protected:
  PrefixSplitAlloc()
      : g_(make_grid_cube(2, 14)),
        vs_(testing::all_vertices(g_)),
        w_(vs_.size(), 1.0) {
    req_.g = &g_;
    req_.w_list = vs_;
    req_.weights = w_;
    req_.target = static_cast<double>(vs_.size()) / 2.0;
  }

  Graph g_;
  std::vector<Vertex> vs_;
  std::vector<double> w_;
  SplitRequest req_;
};

TEST_F(PrefixSplitAlloc, SerialSteadyStateIsFlat) {
  for (const SweepMode mode : {SweepMode::BetterOfTwo, SweepMode::WindowMin}) {
    PrefixSplitter splitter;
    splitter.set_sweep_mode(mode);
    expect_flat_split_allocations(splitter, req_);
  }
}

TEST_F(PrefixSplitAlloc, ParallelSteadyStateIsFlat) {
  for (const SweepMode mode : {SweepMode::BetterOfTwo, SweepMode::WindowMin}) {
    ThreadPool pool(2);
    PrefixSplitter splitter;
    splitter.set_sweep_mode(mode);
    splitter.set_thread_pool(&pool);
    expect_flat_split_allocations(splitter, req_);
  }
}

TEST_F(PrefixSplitAlloc, RefineDisabledSerialEvaluationAllocatesOnlyResult) {
  // Without FM (whose result rebuild path reallocates inside), the warm
  // serial split allocates exactly the SplitResult vector it returns: the
  // whole evaluation pipeline — orders, memberships, sweep scans — runs
  // on persistent scratch.
  PrefixSplitterOptions opts;
  opts.refine = false;
  PrefixSplitter splitter(opts);
  (void)splitter.split(req_);
  (void)splitter.split(req_);

  const long before = g_alloc_count.load();
  const SplitResult res = splitter.split(req_);
  const long cost = g_alloc_count.load() - before;
  EXPECT_FALSE(res.inside.empty());
  EXPECT_LE(cost, 1) << "warm serial split must allocate at most the "
                        "returned inside vector";
}

/// Graph-sized allocations (at least one 32-bit word per vertex of `g`)
/// made by `fn`.
template <typename Fn>
long graph_sized_allocations(const Graph& g, Fn&& fn) {
  g_big_count.store(0);
  g_big_bytes.store(static_cast<std::size_t>(g.num_vertices()) *
                    sizeof(std::int32_t));
  fn();
  g_big_bytes.store(std::numeric_limits<std::size_t>::max());
  return g_big_count.load();
}

/// A 40x40 grid with unit weights and an uneven column coloring: one
/// class is light enough that AddTo has to extract from a donor, so the
/// warm call walks steps (3)-(5).
struct ShrinkInput {
  Graph g = make_grid_cube(2, 40);
  std::vector<Vertex> vs = testing::all_vertices(g);
  std::vector<double> w = std::vector<double>(vs.size(), 1.0);
  std::vector<double> pi = splitting_cost_measure(g, 2.0, 2.0);
  Coloring chi = Coloring(4, g.num_vertices());

  ShrinkInput() {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const int col = g.coords(v)[1];
      chi[v] = col < 4 ? 3 : (col - 4) / 12;
    }
  }
};

TEST(PrefixSplitAllocShrink, WarmShrinkOnceMakesNoGraphSizedAllocation) {
  ShrinkInput in;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    PrefixSplitter splitter;
    splitter.set_thread_pool(&pool);
    DecomposeWorkspace ws;
    for (int warm = 0; warm < 2; ++warm)
      (void)shrink_once(in.g, in.vs, in.chi, in.w, in.pi, splitter, {}, {}, &ws);

    // The input coloring is moved in: its storage becomes chi1.
    Coloring chi = in.chi;
    ShrinkOutput out;
    const long big = graph_sized_allocations(in.g, [&] {
      out = shrink_once(in.g, in.vs, std::move(chi), in.w, in.pi, splitter,
                        {}, {}, &ws);
    });
    EXPECT_EQ(big, 0) << "warm shrink_once made a graph-sized allocation";
    EXPECT_EQ(out.w0.size() + out.w1.size(), in.vs.size());
  }
}

TEST(PrefixSplitAllocShrink, WarmExtractHittingPartMakesNoGraphSizedAllocation) {
  ShrinkInput in;
  std::vector<Vertex> u;  // the left half of the grid
  for (Vertex v : in.vs)
    if (in.g.coords(v)[1] < 20) u.push_back(v);
  const std::vector<MeasureRef> aux{in.pi};
  PrefixSplitter splitter;
  DecomposeWorkspace ws;
  for (int warm = 0; warm < 2; ++warm)
    (void)extract_hitting_part(in.g, u, in.w, 200.0, aux, splitter, &ws);

  ExtractedPart x;
  const long big = graph_sized_allocations(in.g, [&] {
    x = extract_hitting_part(in.g, u, in.w, 200.0, aux, splitter, &ws);
  });
  EXPECT_EQ(big, 0) << "warm extract_hitting_part made a graph-sized allocation";
  EXPECT_GE(x.psi_weight, 200.0);
}

}  // namespace
}  // namespace mmd
