// PartitionService under concurrency and faults: N client threads with
// mixed graphs/k/modes (run under TSan in CI), every response replayed
// against a serial oracle and required bit-identical — including while
// graphs are evicted and reloaded underneath the traffic — plus
// deterministic fault sweeps (allocation failure and injected
// cancellation at every index) proving a fault poisons exactly the one
// request it hits and never the cached context serving it.  The dispatch
// pins: a short request on one graph is answered while a long one on
// another graph is still running, one graph's requests are served in
// admission order, shutdown drains every lane, and a repartition chain
// carries on across context evictions.
//
// Like test_oom.cpp, the binary owns a counting operator new that
// consults the process-global fault plan; the library never overrides
// the allocator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/decompose.hpp"
#include "core/fast.hpp"
#include "gen/grid.hpp"
#include "service/partition_service.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"
#include "util/prng.hpp"

// ---- counting, fault-consulting allocator (test binary only) ---------------

namespace {
std::atomic<long> g_new_calls{0};
}

void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (mmd::fault::should_fail_alloc()) throw std::bad_alloc();
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
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

std::vector<double> ones(const Graph& g) {
  return std::vector<double>(static_cast<std::size_t>(g.num_vertices()), 1.0);
}

struct TraceItem {
  int graph;
  RequestMode mode;
  int k;
  bool custom_weights;
};

class ServiceConcurrent : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

TEST_F(ServiceConcurrent, MixedTrafficBitIdenticalToSerialOracle) {
  // Three distinct instances so several lanes are in service at once and
  // the byte budget actually churns.
  std::vector<Graph> graphs;
  graphs.push_back(make_grid_cube(2, 5));
  graphs.push_back(make_grid_cube(2, 6));
  graphs.push_back(make_grid_cube(2, 7));
  std::vector<std::vector<double>> alt_weights;
  for (const Graph& g : graphs)
    alt_weights.push_back(testing::weights_for(g, WeightModel::Exponential, 9));

  // A deterministic trace: every combination a production mix would see.
  std::vector<TraceItem> trace;
  const int ks[] = {2, 3, 4};
  for (int i = 0; i < 36; ++i) {
    TraceItem item;
    item.graph = i % 3;
    item.k = ks[(i / 3) % 3];
    item.mode = i % 7 == 0 ? RequestMode::Fast : RequestMode::Decompose;
    item.custom_weights = i % 5 == 0;
    trace.push_back(item);
  }

  PartitionServiceOptions so;
  so.num_workers = 2;
  // Roomy enough to keep some contexts, tight enough to force evictions
  // (three graphs x two context kinds never all fit).
  so.context_budget_bytes = 64 << 10;
  PartitionService service(so);
  for (std::size_t gi = 0; gi < graphs.size(); ++gi)
    service.load_graph("g" + std::to_string(gi), Graph(graphs[gi]),
                       ones(graphs[gi]));

  std::vector<ServiceResponse> responses(trace.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop_chaos{false};

  // Chaos: keep replacing g0 (an atomic evict + reload) under traffic —
  // contexts are dropped and rebuilt mid-run, responses must not notice.
  std::thread chaos([&] {
    while (!stop_chaos.load(std::memory_order_relaxed)) {
      service.load_graph("g0", Graph(graphs[0]), ones(graphs[0]));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int ci = 0; ci < 4; ++ci) {
    clients.emplace_back([&] {
      while (true) {
        const std::size_t idx = next.fetch_add(1);
        if (idx >= trace.size()) break;
        const TraceItem& item = trace[idx];
        ServiceRequest req;
        req.graph = "g" + std::to_string(item.graph);
        req.mode = item.mode;
        req.options.k = item.k;
        if (item.custom_weights)
          req.weights = alt_weights[static_cast<std::size_t>(item.graph)];
        responses[idx] = service.execute(req);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop_chaos.store(true, std::memory_order_relaxed);
  chaos.join();

  // Serial oracle replay: a fresh transient call per request — no shared
  // contexts, no cache, no threads — must reproduce every response bit
  // for bit.  (Warm == cold == threaded is pinned upstream; this pins
  // that the *service* adds no fourth variant.)
  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const TraceItem& item = trace[idx];
    const ServiceResponse& got = responses[idx];
    ASSERT_EQ(got.status, ServiceStatus::Ok)
        << "request " << idx << ": " << got.error;
    const Graph& g = graphs[static_cast<std::size_t>(item.graph)];
    const std::vector<double> w =
        item.custom_weights
            ? alt_weights[static_cast<std::size_t>(item.graph)]
            : ones(g);
    if (item.mode == RequestMode::Decompose) {
      DecomposeOptions opt;
      opt.k = item.k;
      const DecomposeResult expect = decompose(g, w, opt);
      EXPECT_EQ(got.coloring.color, expect.coloring.color) << "request " << idx;
      EXPECT_EQ(got.max_boundary, expect.max_boundary) << "request " << idx;
    } else {
      FastOptions opt;
      opt.inner.k = item.k;
      const FastResult expect = decompose_fast(g, w, opt);
      EXPECT_EQ(got.coloring.color, expect.coloring.color) << "request " << idx;
      EXPECT_EQ(got.max_boundary, expect.max_boundary) << "request " << idx;
    }
  }

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<long>(trace.size()));
  EXPECT_EQ(stats.ok, static_cast<long>(trace.size()));
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<long>(trace.size()));
}

TEST_F(ServiceConcurrent, EvictReloadCyclesUnderTrafficNeverCorruptResults) {
  const Graph g = make_grid_cube(2, 5);
  PartitionService service;
  service.load_graph("g", Graph(g), ones(g));

  DecomposeOptions opt;
  opt.k = 3;
  const DecomposeResult reference = decompose(g, ones(g), opt);

  constexpr int kClients = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> clients_ready{0};
  std::atomic<long> ok_count{0}, not_found_count{0}, other_count{0};
  std::vector<std::thread> clients;
  for (int ci = 0; ci < kClients; ++ci) {
    clients.emplace_back([&] {
      bool seen_ok = false;
      while (!stop.load(std::memory_order_relaxed)) {
        ServiceRequest req;
        req.graph = "g";
        req.options.k = 3;
        const ServiceResponse resp = service.execute(req);
        if (resp.status == ServiceStatus::Ok && !seen_ok) {
          seen_ok = true;
          ++clients_ready;
        }
        if (resp.status == ServiceStatus::Ok) {
          // Bit-identity survives any interleaving with evict/reload.
          if (resp.coloring.color == reference.coloring.color) ++ok_count;
          else ++other_count;
        } else if (resp.status == ServiceStatus::NotFound) {
          ++not_found_count;  // raced into the evicted window: typed, clean
        } else {
          ++other_count;
        }
      }
    });
  }
  // Start the cycles only once every client is in its request loop (has
  // seen one Ok): otherwise the 25 cycles can finish before any client is
  // scheduled, and the test exercises nothing.  The wait is bounded so a
  // service that never answers Ok fails the assertions below, not by hang.
  const auto ready_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (clients_ready.load() < kClients &&
         std::chrono::steady_clock::now() < ready_deadline)
    std::this_thread::yield();
  // Hard evict/reload cycles (not atomic replacement): requests race into
  // real not-loaded windows and must come back NotFound, nothing worse.
  for (int cycle = 0; cycle < 25; ++cycle) {
    service.evict_graph("g");
    std::this_thread::yield();
    service.load_graph("g", Graph(g), ones(g));
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  EXPECT_GT(ok_count.load(), 0) << "no request ever succeeded";
  EXPECT_EQ(other_count.load(), 0)
      << "a response was neither bit-identical Ok nor a clean NotFound";
}

TEST_F(ServiceConcurrent, AllocFaultSweepPoisonsOnlyTheFaultedRequest) {
  const Graph g = make_grid_cube(2, 4);
  PartitionService service;
  service.load_graph("g", Graph(g), ones(g));

  ServiceRequest req;
  req.graph = "g";
  req.options.k = 3;

  // Reference + warm-request allocation count (deterministic: same warm
  // context, same request, single thread).
  const ServiceResponse reference = service.execute(req);
  ASSERT_EQ(reference.status, ServiceStatus::Ok);
  const long before = g_new_calls.load();
  const ServiceResponse probe = service.execute(req);
  const long total = g_new_calls.load() - before;
  ASSERT_EQ(probe.coloring.color, reference.coloring.color);
  ASSERT_GT(total, 0);

  long faulted = 0, completed = 0;
  for (long i = 0; i < total + 2; ++i) {
    fault::arm_alloc_failure(i);
    try {
      const ServiceResponse resp = service.execute(req);
      fault::disarm();
      if (resp.status == ServiceStatus::Ok) {
        EXPECT_EQ(resp.coloring.color, reference.coloring.color) << "i=" << i;
        ++completed;
      } else {
        // The injected bad_alloc must surface as a typed error — never a
        // crash, never a wrong answer.  (ResourceExhausted from admission
        // or the request path; InternalError if the failure surfaced as
        // another error type.)
        EXPECT_TRUE(resp.status == ServiceStatus::ResourceExhausted ||
                    resp.status == ServiceStatus::InternalError)
            << "i=" << i << " status=" << to_string(resp.status);
        ++faulted;
      }
    } catch (const std::bad_alloc&) {
      // The failure escaped before the request entered the service:
      // acceptable, nothing was admitted.
      fault::disarm();
      ++faulted;
    }
    // Whatever happened, the cached context must be unpoisoned: the very
    // next clean request returns the reference bytes, warm.
    const ServiceResponse clean = service.execute(req);
    ASSERT_EQ(clean.status, ServiceStatus::Ok) << "after fault at i=" << i;
    ASSERT_EQ(clean.coloring.color, reference.coloring.color)
        << "context poisoned by fault at allocation " << i;
  }
  EXPECT_GT(faulted, 0) << "sweep never injected a failure";
  EXPECT_GT(completed, 0) << "sweep indices beyond the call never completed";
}

TEST_F(ServiceConcurrent, CancelFaultSweepPoisonsOnlyTheFaultedRequest) {
  const Graph g = make_grid_cube(2, 4);
  PartitionService service;
  service.load_graph("g", Graph(g), ones(g));

  ServiceRequest req;
  req.graph = "g";
  req.options.k = 3;
  const ServiceResponse reference = service.execute(req);
  ASSERT_EQ(reference.status, ServiceStatus::Ok);

  // Checkpoint count of one warm request: arm an unreachable target so
  // the counter advances without ever firing.
  fault::arm_checkpoint_fault(1L << 40, fault::CheckpointFault::Cancel);
  const ServiceResponse counted = service.execute(req);
  const long checkpoints = fault::checkpoints_seen();
  fault::disarm();
  ASSERT_EQ(counted.status, ServiceStatus::Ok);
  ASSERT_GT(checkpoints, 0);

  for (long i = 0; i < checkpoints + 2; ++i) {
    fault::arm_checkpoint_fault(i, fault::CheckpointFault::Cancel);
    const ServiceResponse resp = service.execute(req);
    fault::disarm();
    if (resp.status == ServiceStatus::Ok) {
      EXPECT_EQ(resp.coloring.color, reference.coloring.color) << "i=" << i;
    } else {
      EXPECT_EQ(resp.status, ServiceStatus::Cancelled) << "i=" << i;
    }
    const ServiceResponse clean = service.execute(req);
    ASSERT_EQ(clean.status, ServiceStatus::Ok);
    ASSERT_EQ(clean.coloring.color, reference.coloring.color)
        << "context poisoned by cancellation at checkpoint " << i;
  }
}

// ---- lane dispatch ------------------------------------------------------------

/// A decompose long enough (hundreds of ms in Release) that a short
/// request on another graph is served many times over while it runs.
const Graph& long_graph() {
  static const Graph g = make_grid_cube(2, 256);
  return g;
}

ServiceRequest request_for(const std::string& graph, int k) {
  ServiceRequest req;
  req.graph = graph;
  req.options.k = k;
  return req;
}

/// Block until some request has reached an ExecControl checkpoint, i.e.
/// is being served (the plan is armed with an unreachable target, so it
/// only counts).  Bounded, so a broken dispatch fails instead of hanging.
bool wait_until_serving() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (fault::checkpoints_seen() == 0) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST_F(ServiceConcurrent, ShortRequestIsNotHeldBehindALongOneOnAnotherGraph) {
  PartitionServiceOptions so;
  so.num_workers = 2;
  PartitionService service(so);
  service.load_graph("long", Graph(long_graph()), ones(long_graph()));
  const Graph small = make_grid_cube(2, 5);
  service.load_graph("short", Graph(small), ones(small));

  CancelToken token;
  ServiceRequest long_req = request_for("long", 64);
  long_req.options.exec.cancel = &token;
  ServiceResponse long_resp;
  fault::arm_checkpoint_fault(1L << 40, fault::CheckpointFault::Cancel);
  std::thread client([&] { long_resp = service.execute(long_req); });
  ASSERT_TRUE(wait_until_serving());

  // The long request is in service on one slot; the short one takes the
  // free slot at once.  Only after it returns is the long one cancelled,
  // so the long one can end Cancelled only if the short one did not wait
  // for it.
  const ServiceResponse short_resp = service.execute(request_for("short", 3));
  token.request_cancel();
  client.join();
  fault::disarm();
  EXPECT_EQ(short_resp.status, ServiceStatus::Ok) << short_resp.error;
  EXPECT_EQ(long_resp.status, ServiceStatus::Cancelled)
      << "the short request was held until the long one finished";
}

TEST_F(ServiceConcurrent, SameGraphRepartitionsServeInAdmissionOrder) {
  // Every request raises its own marker vertex by 100, more than all the
  // shared-vertex changes together can lower the total, so the total
  // weight each answer was balanced for (k * balance.avg) grows strictly
  // in service order.  Sorting by it recovers the order the service
  // applied the chain in; a serial replay of that order on a direct
  // DecomposeContext must reproduce every answer bit for bit.
  constexpr int kClients = 4;
  constexpr int kPerClient = 5;
  constexpr int kK = 4;
  const Graph g = make_grid_cube(2, 10);
  const std::vector<double> base = ones(g);
  const int shared[] = {44, 45, 54, 55};

  std::vector<std::vector<WeightDelta>> deltas(kClients * kPerClient);
  for (int c = 0; c < kClients; ++c) {
    for (int j = 0; j < kPerClient; ++j) {
      std::vector<WeightDelta>& d = deltas[static_cast<std::size_t>(c * kPerClient + j)];
      d.push_back({static_cast<Vertex>(c * kPerClient + j), 101.0});
      for (const int v : shared)
        d.push_back({static_cast<Vertex>(v), 1.0 + 0.25 * ((c + j + v) % 3)});
    }
  }

  PartitionServiceOptions so;
  so.num_workers = 4;
  PartitionService service(so);
  service.load_graph("g", Graph(g), base);
  std::vector<ServiceResponse> got(deltas.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j < kPerClient; ++j) {
        const std::size_t i = static_cast<std::size_t>(c * kPerClient + j);
        ServiceRequest req = request_for("g", kK);
        req.mode = RequestMode::Repartition;
        req.deltas = deltas[i];
        got[i] = service.execute(req);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::vector<std::size_t> order(deltas.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(got[i].status, ServiceStatus::Ok) << got[i].error;
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return got[a].balance.avg < got[b].balance.avg;
  });

  DecomposeOptions opt;
  opt.k = kK;
  DecomposeContext replay(g, opt);
  replay.set_weights(base);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t i = order[pos];
    const DecomposeResult want = replay.repartition(deltas[i]);
    EXPECT_EQ(got[i].balance.avg, want.balance.avg) << "position " << pos;
    EXPECT_EQ(got[i].coloring.color, want.coloring.color) << "position " << pos;
    EXPECT_EQ(got[i].max_boundary, want.max_boundary) << "position " << pos;
    EXPECT_EQ(got[i].migration_cost, want.migration_cost) << "position " << pos;
  }
}

TEST_F(ServiceConcurrent, AllocFaultSweepWithTwoGraphsInFlight) {
  const Graph g = make_grid_cube(2, 4);
  const Graph h = make_grid_cube(2, 5);
  PartitionServiceOptions so;
  so.num_workers = 4;
  PartitionService service(so);
  service.load_graph("g", Graph(g), ones(g));
  service.load_graph("h", Graph(h), ones(h));
  const ServiceRequest reqs[] = {request_for("g", 3), request_for("h", 3)};
  const ServiceResponse reference[] = {service.execute(reqs[0]),
                                       service.execute(reqs[1])};
  ASSERT_EQ(reference[0].status, ServiceStatus::Ok);
  ASSERT_EQ(reference[1].status, ServiceStatus::Ok);

  // Both requests in flight at once, released together after the plan is
  // armed; nothing of the test's own allocates inside the window.
  std::vector<ServiceResponse> got(2);
  const auto run_pair = [&](long fail_at) {
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c) {
      clients.emplace_back([&, c] {
        while (!go.load()) std::this_thread::yield();
        got[static_cast<std::size_t>(c)] = service.execute(reqs[c]);
      });
    }
    const long before = g_new_calls.load();
    if (fail_at >= 0) fault::arm_alloc_failure(fail_at);
    go.store(true);
    for (std::thread& t : clients) t.join();
    fault::disarm();
    return g_new_calls.load() - before;
  };
  const long total = run_pair(-1);
  ASSERT_GT(total, 0);

  long faulted = 0;
  for (long i = 0; i < total + 2; ++i) {
    run_pair(i);
    for (int c = 0; c < 2; ++c) {
      const ServiceResponse& resp = got[static_cast<std::size_t>(c)];
      if (resp.status == ServiceStatus::Ok) {
        EXPECT_EQ(resp.coloring.color, reference[c].coloring.color)
            << "i=" << i << " graph " << reqs[c].graph;
      } else {
        EXPECT_TRUE(resp.status == ServiceStatus::ResourceExhausted ||
                    resp.status == ServiceStatus::InternalError)
            << "i=" << i << " status=" << to_string(resp.status);
        ++faulted;
      }
    }
    for (int c = 0; c < 2; ++c) {
      const ServiceResponse clean = service.execute(reqs[c]);
      ASSERT_EQ(clean.status, ServiceStatus::Ok) << "after fault at i=" << i;
      ASSERT_EQ(clean.coloring.color, reference[c].coloring.color)
          << "context poisoned by fault at allocation " << i;
    }
  }
  EXPECT_GT(faulted, 0) << "sweep never injected a failure";
  EXPECT_EQ(service.stats().queued, 0u);
}

TEST_F(ServiceConcurrent, ShutdownDrainsRequestsQueuedOnSeveralLanes) {
  PartitionServiceOptions so;
  so.num_workers = 1;
  so.queue_capacity = 3;
  PartitionService service(so);
  service.load_graph("long", Graph(long_graph()), ones(long_graph()));
  const char* names[] = {"a", "b", "c", "d"};
  const Graph small = make_grid_cube(2, 5);
  for (const char* name : names) service.load_graph(name, Graph(small), ones(small));

  ServiceResponse long_resp;
  fault::arm_checkpoint_fault(1L << 40, fault::CheckpointFault::Cancel);
  std::thread long_client([&] { long_resp = service.execute(request_for("long", 64)); });
  ASSERT_TRUE(wait_until_serving());

  // The only slot is busy, so a, b and c queue on three lanes and fill
  // the admission bound; d blocks before admission.
  std::vector<ServiceResponse> got(4);
  std::vector<std::thread> clients;
  const auto send = [&](int i) {
    clients.emplace_back([&, i] {
      got[static_cast<std::size_t>(i)] = service.execute(request_for(names[i], 3));
    });
  };
  for (int i = 0; i < 3; ++i) send(i);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (service.stats().queued < 3 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_EQ(service.stats().queued, 3u) << "the long request ended too soon";
  send(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(service.stats().queued, 3u) << "admitted past queue_capacity";

  service.shutdown();
  // shutdown() returned: every admitted request has been served.
  EXPECT_EQ(service.stats().queued, 0u);
  EXPECT_EQ(service.stats().requests, 4);
  long_client.join();
  for (std::thread& t : clients) t.join();
  fault::disarm();
  EXPECT_EQ(long_resp.status, ServiceStatus::Ok) << long_resp.error;
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)].status, ServiceStatus::Ok)
        << names[i] << ": " << got[static_cast<std::size_t>(i)].error;
  EXPECT_EQ(got[3].status, ServiceStatus::ShuttingDown) << "d was never admitted";
  EXPECT_EQ(service.execute(request_for("a", 3)).status,
            ServiceStatus::ShuttingDown);
}

TEST_F(ServiceConcurrent, RepartitionChainSurvivesEviction) {
  // A zero budget drops every context at every checkin, so each request
  // below runs on a rebuilt context.  The chain lives with the graph: the
  // answers, incremental ones included, equal a never-evicted service's.
  const Graph g = make_grid_cube(2, 12);
  const Graph h = make_grid_cube(2, 9);
  PartitionServiceOptions evicting;
  evicting.context_budget_bytes = 0;
  PartitionService cold(evicting);
  PartitionService warm;
  for (PartitionService* s : {&cold, &warm}) {
    s->load_graph("g", Graph(g), ones(g));
    s->load_graph("h", Graph(h), ones(h));
  }

  Rng rng(41);
  long incremental = 0;
  for (int step = 0; step < 12; ++step) {
    ServiceRequest req = request_for("g", 4);
    req.mode = RequestMode::Repartition;
    for (int i = 0; i < 3 && step > 0; ++i)
      req.deltas.push_back({static_cast<Vertex>(rng.next_below(144)),
                            rng.uniform(0.8, 1.25)});
    const ServiceResponse got = cold.execute(req);
    const ServiceResponse want = warm.execute(req);
    ASSERT_EQ(got.status, ServiceStatus::Ok) << got.error;
    ASSERT_EQ(want.status, ServiceStatus::Ok) << want.error;
    EXPECT_FALSE(got.warm) << "step " << step;
    EXPECT_EQ(got.coloring.color, want.coloring.color) << "step " << step;
    EXPECT_EQ(got.max_boundary, want.max_boundary) << "step " << step;
    EXPECT_EQ(got.migration_cost, want.migration_cost) << "step " << step;
    EXPECT_EQ(got.incremental, want.incremental) << "step " << step;
    EXPECT_EQ(got.escalated, want.escalated) << "step " << step;
    if (step > 0) {
      EXPECT_GE(got.migration_cost, 0) << "chain lost its prior";
    }
    incremental += got.incremental;
    // Traffic on another graph between deltas.
    ASSERT_EQ(cold.execute(request_for("h", 3)).status, ServiceStatus::Ok);
  }
  EXPECT_GT(incremental, 0);
  EXPECT_GE(cold.stats().context_evictions, 24);
  EXPECT_EQ(warm.stats().context_evictions, 0);
  // The chain is pinned graph state, outside the context budget.
  EXPECT_EQ(cold.stats().cached_bytes, 0u);
  EXPECT_GT(cold.stats().graph_bytes,
            g.memory_bytes() + h.memory_bytes() + 144 * (sizeof(double) + sizeof(std::int32_t)));
}

}  // namespace
}  // namespace mmd
