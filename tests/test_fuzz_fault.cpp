// Fault-injection differential fuzzing: the crash-only contract of the
// whole decompose stack under deterministic faults.
//
// The matrix: random instances x threads {1,2,4,8} x lane-tree depths
// {1,2,3} x fault plans (allocation failure at the i-th allocation,
// splitter fault at the n-th split entry, cancel / deadline at the n-th
// checkpoint).  Every single run must end in exactly one of two ways:
//   * a typed error — std::bad_alloc, fault::InjectedFault, Cancelled, or
//     DeadlineExceeded — with nothing leaked and nothing torn, or
//   * a result bitwise identical to the unfaulted serial reference (the
//     armed index lay beyond the run's sites; counting must not perturb).
// And after every outcome, the SAME warm context must serve a clean call
// bit-identically — reuse-after-failure is the point of the exercise.
//
// Fault indices are sampled from per-shape site counts probed by arming
// an unreachable target (counters advance, nothing fires).  Under
// concurrent lanes "the i-th site" is schedule-dependent; the asserted
// contract (typed error or bitwise-correct, then clean reuse) is not.
//
// This test binary overrides operator new to consult the fault plan; the
// library itself never does (see util/fault.hpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/decompose.hpp"
#include "core/fast.hpp"
#include "core/verify.hpp"
#include "gen/grid.hpp"
#include "service/partition_service.hpp"
#include "test_helpers.hpp"
#include "util/exec_control.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

// ---- fault-consulting allocator (test binary only) -------------------------

void* operator new(std::size_t size) {
  if (mmd::fault::should_fail_alloc()) throw std::bad_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (mmd::fault::should_fail_alloc()) throw std::bad_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mmd {
namespace {

constexpr long kCountOnly = 1L << 40;

/// Same shapeless-instance generator as test_fuzz.cpp (kept in sync by
/// seed arithmetic, not shared code: each harness stays self-contained).
struct FuzzInstance {
  Graph graph;
  std::vector<double> weights;
  int k;
};

FuzzInstance random_instance(std::uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.uniform_int(2, 120));
  const int m = static_cast<int>(rng.uniform_int(0, 4 * n));
  GraphBuilder builder(static_cast<Vertex>(n));
  for (int i = 0; i < m; ++i) {
    const auto u =
        static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v =
        static_cast<Vertex>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    double cost = 0.0;
    switch (rng.next_below(4)) {
      case 0: cost = 0.0; break;
      case 1: cost = rng.uniform(1e-9, 1e-6); break;
      case 2: cost = rng.uniform(0.1, 10.0); break;
      default: cost = rng.log_uniform(1.0, 1e6); break;
    }
    builder.add_edge(u, v, cost);
  }
  FuzzInstance inst;
  inst.graph = builder.build();
  inst.weights.resize(static_cast<std::size_t>(n));
  for (auto& w : inst.weights) {
    switch (rng.next_below(4)) {
      case 0: w = 0.0; break;
      case 1: w = 1.0; break;
      case 2: w = rng.uniform(0.0, 5.0); break;
      default: w = rng.log_uniform(1.0, 1e4); break;
    }
  }
  inst.k = static_cast<int>(rng.uniform_int(1, 2 * n > 24 ? 24 : 2 * n));
  return inst;
}

void expect_verified(const FuzzInstance& inst, const Coloring& chi,
                     const std::string& what) {
  const VerifyReport rep = verify_decomposition(inst.graph, inst.weights, chi);
  EXPECT_TRUE(rep.ok) << what << ": "
                      << (rep.failures.empty() ? "(no failure note)"
                                               : rep.failures.front());
}

/// Sample a handful of injection indices across a probed site count.
std::vector<long> sample_indices(long total) {
  std::vector<long> idx{0};
  if (total > 1) idx.push_back(total / 4);
  if (total > 2) idx.push_back(total / 2);
  if (total > 3) idx.push_back(total - 1);
  idx.push_back(total + 7);  // beyond every site: must complete untouched
  return idx;
}

enum class Plan { Alloc, Split, Cancel, Deadline };
constexpr Plan kPlans[] = {Plan::Alloc, Plan::Split, Plan::Cancel,
                           Plan::Deadline};

const char* plan_name(Plan p) {
  switch (p) {
    case Plan::Alloc: return "alloc";
    case Plan::Split: return "split";
    case Plan::Cancel: return "cancel";
    case Plan::Deadline: return "deadline";
  }
  return "?";
}

void arm(Plan p, long nth) {
  switch (p) {
    case Plan::Alloc: fault::arm_alloc_failure(nth); break;
    case Plan::Split: fault::arm_splitter_fault(nth); break;
    case Plan::Cancel:
      fault::arm_checkpoint_fault(nth, fault::CheckpointFault::Cancel);
      break;
    case Plan::Deadline:
      fault::arm_checkpoint_fault(nth, fault::CheckpointFault::Deadline);
      break;
  }
}

/// Probe the site count of `p` for one run shape by arming an unreachable
/// target and running the shape once.
template <typename Run>
long probe_sites(Plan p, Run&& run) {
  arm(p, kCountOnly);
  run();
  long seen = 0;
  switch (p) {
    case Plan::Alloc: seen = fault::allocs_seen(); break;
    case Plan::Split: seen = fault::splits_seen(); break;
    case Plan::Cancel:
    case Plan::Deadline: seen = fault::checkpoints_seen(); break;
  }
  fault::disarm();
  return seen;
}

class FuzzFault : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { fault::disarm(); }
};

TEST_P(FuzzFault, DecomposeThreadMatrixFailsTypedAndReusesWarm) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 48611ull + 5;
  const FuzzInstance inst = random_instance(seed);
  SCOPED_TRACE("seed " + std::to_string(seed) + " n=" +
               std::to_string(inst.graph.num_vertices()) + " m=" +
               std::to_string(inst.graph.num_edges()) + " k=" +
               std::to_string(inst.k));

  DecomposeOptions opt;
  opt.k = inst.k;
  const DecomposeResult reference = decompose(inst.graph, inst.weights, opt);
  expect_verified(inst, reference.coloring, "serial reference");

  for (const int threads : {1, 2, 4, 8}) {
    for (const int depth : {1, 2, 3}) {
      DecomposeOptions topt = opt;
      topt.num_threads = threads;
      topt.fork_depth = depth;
      DecomposeContext ctx(inst.graph, topt);
      const std::string shape = "threads=" + std::to_string(threads) +
                                " fork_depth=" + std::to_string(depth);

      for (const Plan plan : kPlans) {
        const long sites =
            probe_sites(plan, [&] { (void)ctx.decompose(inst.weights); });
        if (sites == 0) continue;  // e.g. k == 1 never enters a splitter

        for (const long nth : sample_indices(sites)) {
          arm(plan, nth);
          bool faulted = false;
          try {
            const DecomposeResult res = ctx.decompose(inst.weights);
            fault::disarm();
            // No fault fired (index beyond this run's sites, or a
            // checkpoint/alloc count shifted under concurrency): the
            // result must be exactly the unfaulted answer.
            expect_verified(inst, res.coloring,
                            shape + " unfired " + plan_name(plan));
            ASSERT_EQ(res.coloring.color, reference.coloring.color)
                << shape << " " << plan_name(plan) << " nth=" << nth;
          } catch (const std::bad_alloc&) {
            faulted = true;
          } catch (const fault::InjectedFault&) {
            faulted = true;
          } catch (const Cancelled&) {
            faulted = true;
          } catch (const DeadlineExceeded&) {
            faulted = true;
          }
          // Anything else (InvariantViolation, invalid_argument, a raw
          // crash) escapes and fails the test — that is the contract.
          fault::disarm();
          if (faulted) {
            // Warm reuse after the failure, on the very same context.
            const DecomposeResult retry = ctx.decompose(inst.weights);
            ASSERT_EQ(retry.coloring.color, reference.coloring.color)
                << shape << ": warm retry diverged after " << plan_name(plan)
                << " fault at " << nth;
          }
        }
      }
    }
  }
}

TEST_P(FuzzFault, FastContextFailsTypedDegradesOrMatches) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 93911ull + 11;
  const FuzzInstance inst = random_instance(seed);
  SCOPED_TRACE("seed " + std::to_string(seed));

  FastOptions opt;
  opt.inner.k = inst.k;
  opt.coarse_target = 32;
  const FastResult reference = decompose_fast(inst.graph, inst.weights, opt);
  expect_verified(inst, reference.coloring, "fast serial reference");

  for (const int threads : {1, 4}) {
    FastOptions topt = opt;
    topt.inner.num_threads = threads;
    FastContext ctx(inst.graph, topt);
    const std::string shape = "fast threads=" + std::to_string(threads);

    for (const Plan plan : kPlans) {
      const long sites =
          probe_sites(plan, [&] { (void)ctx.decompose(inst.weights); });
      if (sites == 0) continue;  // e.g. k == 1 never enters a splitter

      for (const long nth : sample_indices(sites)) {
        arm(plan, nth);
        bool faulted = false;
        try {
          const FastResult res = ctx.decompose(inst.weights);
          fault::disarm();
          if (res.degraded) {
            // Legal only for deadline plans: best complete solution,
            // projected and certified.
            EXPECT_EQ(plan, Plan::Deadline) << shape;
            testing::expect_total_coloring(inst.graph, res.coloring);
            EXPECT_TRUE(res.certificate.total);
          } else {
            ASSERT_EQ(res.coloring.color, reference.coloring.color)
                << shape << " " << plan_name(plan) << " nth=" << nth;
          }
        } catch (const std::bad_alloc&) {
          faulted = true;
        } catch (const fault::InjectedFault&) {
          faulted = true;
        } catch (const Cancelled&) {
          faulted = true;
        } catch (const DeadlineExceeded&) {
          faulted = true;
        }
        fault::disarm();
        if (faulted) {
          const FastResult retry = ctx.decompose(inst.weights);
          ASSERT_FALSE(retry.degraded);
          ASSERT_EQ(retry.coloring.color, reference.coloring.color)
              << shape << ": warm retry diverged after " << plan_name(plan)
              << " fault at " << nth;
        }
      }
    }
  }
}

TEST_P(FuzzFault, MultiMeasureLaneTreeFailsTypedAndReusesWarm) {
  const auto seed = static_cast<std::uint64_t>(GetParam()) * 15131ull + 3;
  const FuzzInstance inst = random_instance(seed);
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed ^ 0xfa1117ull);
  std::vector<double> extra(inst.weights.size());
  for (auto& x : extra) x = rng.uniform(0.0, 3.0);
  const std::vector<MeasureRef> refs(1, MeasureRef(extra));

  DecomposeOptions opt;
  opt.k = inst.k;
  const MultiDecomposeResult reference =
      decompose_multi(inst.graph, inst.weights, refs, opt);
  expect_verified(inst, reference.coloring, "multi serial reference");

  // The deepest lane tree on the widest pool: the shape where a lane task
  // throwing mid-batch is most likely to wedge a buggy claim guard.
  DecomposeOptions topt = opt;
  topt.num_threads = 8;
  topt.fork_depth = 3;
  DecomposeContext ctx(inst.graph, topt);

  for (const Plan plan : kPlans) {
    const long sites = probe_sites(
        plan, [&] { (void)ctx.decompose_multi(inst.weights, refs); });
    if (sites == 0) continue;  // e.g. k == 1 never enters a splitter

    for (const long nth : sample_indices(sites)) {
      arm(plan, nth);
      bool faulted = false;
      try {
        const MultiDecomposeResult res =
            ctx.decompose_multi(inst.weights, refs);
        fault::disarm();
        ASSERT_EQ(res.coloring.color, reference.coloring.color)
            << "multi " << plan_name(plan) << " nth=" << nth;
      } catch (const std::bad_alloc&) {
        faulted = true;
      } catch (const fault::InjectedFault&) {
        faulted = true;
      } catch (const Cancelled&) {
        faulted = true;
      } catch (const DeadlineExceeded&) {
        faulted = true;
      }
      fault::disarm();
      if (faulted) {
        const MultiDecomposeResult retry =
            ctx.decompose_multi(inst.weights, refs);
        ASSERT_EQ(retry.coloring.color, reference.coloring.color)
            << "multi warm retry diverged after " << plan_name(plan)
            << " fault at " << nth;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFault, ::testing::Range(0, 6));

// ---- thread-pool construction failure --------------------------------------
// make_thread_pool is the one place a failed ThreadPool build is caught
// and reported.  An allocation failure inside it must leave each pool
// owner on the serial path: one PoolConstructFailed report, the owner's
// own counter bumped, and answers bit-identical to num_threads = 1.

/// Arms an allocation failure at indices 0, 1, 2, ... until `build`
/// returns instead of throwing: an index before the pool construction
/// fails the build itself, the first one inside it is absorbed by
/// make_thread_pool.  Returns that index (-1 if none survived).
template <typename Build>
long build_with_failed_pool(Build&& build) {
  for (long nth = 0; nth < 4096; ++nth) {
    fault::arm_alloc_failure(nth);
    try {
      build();
      fault::disarm();
      return nth;
    } catch (const std::bad_alloc&) {
      fault::disarm();
    }
  }
  return -1;
}

Graph pool_fallback_grid() {
  CostParams costs;
  costs.model = CostModel::Uniform;
  costs.hi = 6.0;
  return make_grid_cube(2, 24, costs);
}

TEST(ThreadPoolFallback, MakeThreadPoolReturnsNullAndReportsOnce) {
  DecomposeDiagnostics diag;
  fault::arm_alloc_failure(0);
  std::unique_ptr<ThreadPool> pool = make_thread_pool(4, &diag);
  fault::disarm();
  EXPECT_EQ(pool, nullptr);
  EXPECT_EQ(diag.pool_construct_failures.load(), 1);

  fault::arm_alloc_failure(0);
  EXPECT_EQ(make_thread_pool(4, nullptr), nullptr);  // null sink is legal
  fault::disarm();

  pool = make_thread_pool(4, &diag);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 4);
  EXPECT_EQ(diag.pool_construct_failures.load(), 1);
}

TEST(ThreadPoolFallback, DecomposeContextDegradesToSerial) {
  const Graph g = pool_fallback_grid();
  const auto w = testing::weights_for(g, WeightModel::Bimodal, 19);
  DecomposeDiagnostics diag;
  DecomposeOptions opt;
  opt.k = 6;
  opt.num_threads = 4;
  opt.diagnostics = &diag;
  std::unique_ptr<DecomposeContext> ctx;
  ASSERT_GE(build_with_failed_pool(
                [&] { ctx = std::make_unique<DecomposeContext>(g, opt); }),
            0);
  EXPECT_EQ(ctx->thread_pool(), nullptr);
  EXPECT_EQ(ctx->stats().pool_builds, 0);
  EXPECT_EQ(ctx->stats().pool_construct_failures, 1);

  DecomposeOptions serial = opt;
  serial.num_threads = 1;
  serial.diagnostics = nullptr;
  const DecomposeResult want = DecomposeContext(g, serial).decompose(w);
  EXPECT_EQ(ctx->decompose(w).coloring.color, want.coloring.color);
  EXPECT_EQ(ctx->decompose(w).coloring.color, want.coloring.color);
  EXPECT_EQ(diag.pool_construct_failures.load(), 1);
  EXPECT_EQ(ctx->stats().pool_construct_failures, 1);
}

TEST(ThreadPoolFallback, FastContextDegradesToSerial) {
  const Graph g = pool_fallback_grid();
  const auto w = testing::weights_for(g, WeightModel::Bimodal, 23);
  DecomposeDiagnostics diag;
  FastOptions opt;
  opt.inner.k = 6;
  opt.inner.num_threads = 4;
  opt.inner.diagnostics = &diag;
  opt.coarse_target = 64;  // genuinely coarsen: both levels' splitters run
  std::unique_ptr<FastContext> ctx;
  ASSERT_GE(build_with_failed_pool(
                [&] { ctx = std::make_unique<FastContext>(g, opt); }),
            0);
  EXPECT_EQ(ctx->stats().pool_builds, 0);
  EXPECT_EQ(ctx->stats().pool_construct_failures, 1);

  FastOptions serial = opt;
  serial.inner.num_threads = 1;
  serial.inner.diagnostics = nullptr;
  const FastResult want = FastContext(g, serial).decompose(w);
  const FastResult got = ctx->decompose(w);
  EXPECT_GT(got.levels, 0);
  EXPECT_EQ(got.coloring.color, want.coloring.color);
  EXPECT_EQ(ctx->coarse_context().thread_pool(), nullptr);
  EXPECT_EQ(diag.pool_construct_failures.load(), 1);
}

TEST(ThreadPoolFallback, PartitionServiceWorkersMatchSerial) {
  // The service builds no pool: its callers serve the lanes.  Four
  // workers fed by four concurrent clients answer bit-identically to one
  // worker, including a request whose num_threads forks on its context's
  // own pool from the serving caller's thread, and no pool build fails.
  const Graph g = pool_fallback_grid();
  const auto w = testing::weights_for(g, WeightModel::Bimodal, 29);
  PartitionServiceOptions so;
  so.num_workers = 4;
  PartitionService service(so);
  so.num_workers = 1;
  PartitionService serial(so);
  const char* names[] = {"a", "b", "c", "d"};
  for (const char* name : names) {
    service.load_graph(name, Graph(g), w);
    serial.load_graph(name, Graph(g), w);
  }
  const auto request = [&](int i, const RequestMode mode) {
    ServiceRequest req;
    req.graph = names[i];
    req.mode = mode;
    req.options.k = 6;
    req.options.num_threads = i == 3 ? 4 : 1;
    return req;
  };
  for (const RequestMode mode : {RequestMode::Decompose, RequestMode::Fast}) {
    std::vector<ServiceResponse> got(4);
    std::vector<std::thread> clients;
    for (int i = 0; i < 4; ++i)
      clients.emplace_back([&, i] { got[i] = service.execute(request(i, mode)); });
    for (std::thread& t : clients) t.join();
    for (int i = 0; i < 4; ++i) {
      const ServiceResponse want = serial.execute(request(i, mode));
      ASSERT_EQ(got[i].status, ServiceStatus::Ok) << got[i].error;
      ASSERT_EQ(want.status, ServiceStatus::Ok) << want.error;
      EXPECT_EQ(got[i].coloring.color, want.coloring.color) << names[i];
      EXPECT_EQ(got[i].max_boundary, want.max_boundary) << names[i];
    }
  }
  EXPECT_EQ(service.diagnostics().pool_construct_failures.load(), 0);
  EXPECT_EQ(serial.diagnostics().pool_construct_failures.load(), 0);
}

}  // namespace
}  // namespace mmd
