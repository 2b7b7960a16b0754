// service-mix: an in-process PartitionService (4 workers) driven by 4
// closed-loop client threads over a fixed fleet of 12 graphs with
// Zipf(1.1) popularity.  The context byte budget holds about half of the
// fleet's warm contexts, so the LRU cache evicts throughout the run.
//
// Every response is checked against the weights its client holds.  For
// Repartition requests that is the client-side drift ledger: registered
// weights plus every delta sent so far.  When an eviction makes the
// service rebind a chain from the registered weights, earlier deltas are
// lost and the answer is balanced for the wrong weights; those responses
// are counted as stale-chain failures, a known defect of the service, apart
// from the unexpected failures in `failed` (see README.md).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/fast.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "service/partition_service.hpp"

namespace bench {
namespace {

constexpr int kClients = 4;
constexpr int kWorkers = 4;
/// Fixed byte budget: about half of the fleet's warm DecomposeContext +
/// FastContext estimates at the commit that introduced this benchmark.  A
/// later change that makes contexts leaner shows up as fewer evictions.
constexpr std::size_t kBudgetBytes = std::size_t(12) << 20;
constexpr double kZipf = 1.1;
/// k of the warm-up and Repartition requests and of the fast.levels probe.
constexpr int kFixedK = 16;
const std::vector<int> kKs = {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};

struct FleetGraph {
  std::string name;
  mmd::Graph graph;
  std::vector<double> weights;  ///< registered weights
  std::vector<double> b_max;    ///< per kKs entry
};

/// The fleet in popularity order (rank 1 first): sizes 1k-64k, mixed
/// families, so neither the hottest nor the coldest graph is the largest.
std::vector<std::unique_ptr<FleetGraph>> build_fleet() {
  std::vector<std::unique_ptr<FleetGraph>> fleet;
  const auto add = [&](std::string name, mmd::Graph g, std::vector<double> w) {
    auto f = std::make_unique<FleetGraph>();
    f->name = std::move(name);
    if (w.empty()) w.assign(static_cast<std::size_t>(g.num_vertices()), 1.0);
    f->graph = std::move(g);
    f->weights = std::move(w);
    fleet.push_back(std::move(f));
  };
  const auto climate = [](int rows, int cols, std::uint64_t seed) {
    mmd::ClimateParams p;
    p.rows = rows;
    p.cols = cols;
    p.seed = seed;
    return mmd::make_climate_instance(p);
  };
  add("grid64", mmd::make_grid_cube(2, 64), {});
  {
    auto c = climate(64, 128, 7);
    add("climate64x128", std::move(c.graph), std::move(c.weights));
  }
  add("tri48", mmd::make_tri_mesh(48, 48), {});
  add("grid128", mmd::make_grid_cube(2, 128), {});
  {
    auto c = climate(32, 64, 11);
    add("climate32x64", std::move(c.graph), std::move(c.weights));
  }
  add("tri128", mmd::make_tri_mesh(128, 128), {});
  add("grid32", mmd::make_grid_cube(2, 32), {});
  {
    auto c = climate(96, 192, 13);
    add("climate96x192", std::move(c.graph), std::move(c.weights));
  }
  add("tri80", mmd::make_tri_mesh(80, 80), {});
  add("grid256", mmd::make_grid_cube(2, 256), {});
  add("tri181", mmd::make_tri_mesh(181, 181), {});
  {
    auto c = climate(128, 256, 17);
    add("climate128x256", std::move(c.graph), std::move(c.weights));
  }
  return fleet;
}

/// Client-side record of what the client believes a graph's chain holds.
struct Ledger {
  std::mutex mu;  ///< held across a Repartition round trip: one chain writer
  std::vector<double> weights;
  bool drifted = false;  ///< deltas have been sent
  bool stale = false;    ///< the service rebound the chain and lost deltas
};

struct Sample {
  int client = 0;
  long idx = 0;
  std::size_t graph = 0;
  mmd::RequestMode mode = mmd::RequestMode::Decompose;
  double latency_s = 0.0;
  double exec_s = 0.0;
  bool served = false;  ///< status ok (stale-chain answers included)
  bool warm = false;
  bool incremental = false;
  bool escalated = false;
  bool custom = false;
  double ratio = 0.0;
  std::uint64_t hash = 0;
};

struct Phase {
  std::vector<Sample> samples;
  double wall_s = 0.0;
  mmd::ServiceStats before, after;
  long stale_failures = 0;
};

struct Setup {
  std::unique_ptr<mmd::PartitionService> service;
  std::vector<std::unique_ptr<Ledger>> ledgers;
  double setup_s = 0.0;
  double build_s = 0.0;
};

Setup set_up(std::vector<std::unique_ptr<FleetGraph>>& fleet_out, Tracer& tracer,
             Report& report) {
  Setup s;
  const auto t0 = Clock::now();
  const std::int64_t b0 = tracer.now_ns();
  fleet_out = build_fleet();
  tracer.record("graph.build", b0, tracer.now_ns(), 0, 0);
  s.build_s = seconds_since(t0);
  mmd::PartitionServiceOptions so;
  so.num_workers = kWorkers;
  so.context_budget_bytes = kBudgetBytes;
  s.service = std::make_unique<mmd::PartitionService>(so);
  for (const auto& f : fleet_out) {
    const std::int64_t l0 = tracer.now_ns();
    s.service->load_graph(f->name, f->graph, f->weights);
    tracer.record("service.load_graph", l0, tracer.now_ns(), 0, 0);
    auto led = std::make_unique<Ledger>();
    led->weights = f->weights;
    s.ledgers.push_back(std::move(led));
  }
  // One warm-up request per graph, coldest first, so the hot graphs hold
  // the budget when the timed phase starts.
  for (std::size_t i = fleet_out.size(); i-- > 0;) {
    mmd::ServiceRequest req;
    req.graph = fleet_out[i]->name;
    req.options.k = kFixedK;
    const std::int64_t w0 = tracer.now_ns();
    const mmd::ServiceResponse resp = s.service->execute(req);
    tracer.record("service.warmup", w0, tracer.now_ns(), 0, 0);
    ++report.attempted;
    if (!resp.ok()) report.fail(req.graph + " warm-up: " + resp.error);
  }
  s.setup_s = seconds_since(t0);
  return s;
}

/// Bookkeeping for boundary_ratio, outside every timed region.
void fill_b_max(std::vector<std::unique_ptr<FleetGraph>>& fleet) {
  for (auto& f : fleet)
    for (const int k : kKs) f->b_max.push_back(theorem4_b_max(f->graph, k));
}

std::vector<double> zipf_cdf(std::size_t n) {
  std::vector<double> cdf(n);
  double s = 0.0;
  for (std::size_t r = 0; r < n; ++r) cdf[r] = (s += std::pow(double(r + 1), -kZipf));
  for (double& x : cdf) x /= s;
  return cdf;
}

/// Run the closed loop for `budget_s` seconds.  `slots` (traced run) gets
/// one span per request from each client.
Phase run_phase(Setup& setup, const std::vector<std::unique_ptr<FleetGraph>>& fleet,
                std::uint64_t seed, double budget_s, Report& report, std::mutex& report_mu,
                Tracer& tracer, const std::vector<SpanSlot*>& slots) {
  Phase phase;
  phase.before = setup.service->stats();
  const std::vector<double> cdf = zipf_cdf(fleet.size());
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<long> stale(kClients, 0), attempted(kClients, 0);
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(budget_s));

  const auto client = [&](int c) {
    // One request object per client, refilled in place: the client's own
    // buffers do not churn the allocator the service's memory is measured on.
    mmd::ServiceRequest req;
    for (long idx = 0; Clock::now() < deadline; ++idx) {
      // Everything about request idx of client c comes from its own
      // stream, so both runs of a traced invocation send the same requests.
      Rng r(substream(seed, 1000 + static_cast<std::uint64_t>(c), static_cast<std::uint64_t>(idx)));
      const double u = r.uniform();
      std::size_t gi = 0;
      while (gi + 1 < cdf.size() && u > cdf[gi]) ++gi;
      const FleetGraph& fg = *fleet[gi];
      const double m = r.uniform();
      req.graph = fg.name;
      req.weights.clear();
      req.deltas.clear();
      req.mode = m < 0.7   ? mmd::RequestMode::Decompose
                 : m < 0.8 ? mmd::RequestMode::Fast
                           : mmd::RequestMode::Repartition;
      std::size_t ki = r.below(kKs.size());
      Sample smp;
      smp.client = c;
      smp.idx = idx;
      smp.graph = gi;
      smp.mode = req.mode;
      Ledger& led = *setup.ledgers[gi];
      std::unique_lock<std::mutex> chain_lock;
      if (req.mode == mmd::RequestMode::Repartition) {
        ki = static_cast<std::size_t>(std::find(kKs.begin(), kKs.end(), kFixedK) - kKs.begin());
        chain_lock = std::unique_lock<std::mutex>(led.mu);
        const std::size_t n = fg.weights.size();
        const std::size_t count = std::max<std::size_t>(1, n / 100);
        for (std::size_t i = 0; i < count; ++i) {
          const auto v = static_cast<mmd::Vertex>(r.below(n));
          const double nw = fg.weights[static_cast<std::size_t>(v)] * (0.5 + r.uniform());
          req.deltas.push_back({v, nw});
          led.weights[static_cast<std::size_t>(v)] = nw;
        }
      } else if (r.uniform() < 0.25) {
        smp.custom = true;
        req.weights.resize(fg.weights.size());
        for (std::size_t v = 0; v < fg.weights.size(); ++v)
          req.weights[v] = fg.weights[v] * (1.0 + 0.05 * r.uniform());
      }
      const int k = kKs[ki];
      req.options.k = k;

      ++attempted[static_cast<std::size_t>(c)];
      const std::int64_t s0 = tracer.now_ns();
      const auto c0 = Clock::now();
      const mmd::ServiceResponse resp = setup.service->execute(req);
      smp.latency_s = seconds_since(c0);
      if (!slots.empty())
        tracer.record(*slots[static_cast<std::size_t>(c)], "service.request", s0,
                      tracer.now_ns(), 0, 0);
      smp.exec_s = resp.seconds;
      smp.warm = resp.warm;
      smp.incremental = resp.incremental;
      smp.escalated = resp.escalated;

      const std::span<const double> held =
          req.mode == mmd::RequestMode::Repartition ? std::span<const double>(led.weights)
          : smp.custom                              ? std::span<const double>(req.weights)
                                                    : std::span<const double>(fg.weights);
      std::string why;
      if (!resp.ok()) {
        why = std::string("status ") + mmd::to_string(resp.status) + ": " + resp.error;
      } else {
        const CheckResult chk = check_output(fg.graph, held, resp.coloring, k, resp.max_boundary);
        if (!chk.ok) why = chk.why;
        smp.ratio = resp.max_boundary / fg.b_max[ki];
        smp.hash = answer_hash(resp.coloring, resp.max_boundary);
      }
      smp.served = resp.ok();
      if (req.mode == mmd::RequestMode::Repartition) {
        // A repartition without a prior (migration_cost < 0) on a drifted
        // graph means the service rebound the chain from the registered
        // weights: every earlier delta is gone.  The client resends
        // nothing, as a real client that trusts an ok status would not.
        if (resp.ok() && resp.migration_cost < 0 && led.drifted) led.stale = true;
        led.drifted = true;
        if (!why.empty() && led.stale && resp.ok()) {
          ++stale[static_cast<std::size_t>(c)];
          why.clear();
        }
      }
      if (!why.empty()) {
        std::lock_guard<std::mutex> lock(report_mu);
        report.fail(fg.name + " k=" + std::to_string(k) + " client " + std::to_string(c) +
                    " request " + std::to_string(idx) + ": " + why);
      }
      if (smp.served) per_client[static_cast<std::size_t>(c)].push_back(smp);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  phase.wall_s = seconds_since(t0);
  phase.after = setup.service->stats();
  for (int c = 0; c < kClients; ++c) {
    auto& v = per_client[static_cast<std::size_t>(c)];
    phase.samples.insert(phase.samples.end(), v.begin(), v.end());
    phase.stale_failures += stale[static_cast<std::size_t>(c)];
    report.attempted += attempted[static_cast<std::size_t>(c)];
  }
  report.known_failed += phase.stale_failures;
  return phase;
}

/// Served requests (status ok); stale-chain answers count here too.
long completed(const Phase& p) { return static_cast<long>(p.samples.size()); }

double throughput(const Phase& p) { return static_cast<double>(completed(p)) / p.wall_s; }

}  // namespace

Report run_service_mix(const Args& args) {
  Report report;
  std::mutex report_mu;
  Tracer tracer(args.trace);

  constexpr int kSetups = 3;
  std::vector<double> setup_s, build_s;
  std::vector<std::unique_ptr<FleetGraph>> fleet;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup{};  // the service is stopped before the next one starts
    fleet.clear();
    setup = set_up(fleet, tracer, report);
    setup_s.push_back(setup.setup_s);
    build_s.push_back(setup.build_s);
  }
  fill_b_max(fleet);

  const double setup_rss_mib = peak_rss_mib();
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const Phase plain = run_phase(setup, fleet, args.seed, budget, report, report_mu, tracer, {});

  EndToEnd e2e{setup_s, {}, throughput(plain), {}, setup_rss_mib};
  std::vector<double> rlat;
  for (const Sample& s : plain.samples) {
    e2e.latency_ms.push_back(s.latency_s * 1e3);
    e2e.ratios.push_back(s.ratio);
    if (s.mode == mmd::RequestMode::Repartition) rlat.push_back(s.latency_s * 1e3);
  }
  const mmd::ServiceStats& st = plain.after;
  report.note("service-mix: " + std::to_string(fleet.size()) + " graphs, " +
              std::to_string(kClients) + " clients, " + std::to_string(kWorkers) +
              " workers, " + std::to_string(completed(plain)) + " served requests in " +
              fmt(plain.wall_s, 4) + " s");
  report.note("repartition_p50_ms " + fmt(quantile(rlat, 0.5), 6) + " ms (n=" +
              std::to_string(rlat.size()) + ")");
  report.note(std::to_string(plain.stale_failures) +
              " stale-chain repartitions (the known baseline failure, outside failed)");
  report.note("cache: " + std::to_string(st.cache_hits - plain.before.cache_hits) + " hits, " +
              std::to_string(st.cache_misses - plain.before.cache_misses) + " misses, " +
              std::to_string(st.context_evictions - plain.before.context_evictions) +
              " evictions");
  report_end_to_end(report, e2e, args.trace);
  if (!args.trace) return report;

  // ---- traced run: a fresh service replays the same client streams -------
  std::map<std::pair<int, long>, std::uint64_t> plain_hash;
  for (const Sample& s : plain.samples)
    if (s.mode != mmd::RequestMode::Repartition) plain_hash[{s.client, s.idx}] = s.hash;
  setup = Setup{};
  fleet.clear();
  setup = set_up(fleet, tracer, report);
  fill_b_max(fleet);
  std::vector<SpanSlot*> slots;
  for (int c = 0; c < kClients; ++c) slots.push_back(tracer.new_slot());
  const Phase traced =
      run_phase(setup, fleet, args.seed, args.seconds / 2, report, report_mu, tracer, slots);

  long neutral = 0;
  for (const Sample& s : traced.samples) {
    // Repartition answers depend on each chain's history (evictions
    // included), so only the stateless requests are compared.
    if (s.mode == mmd::RequestMode::Repartition) continue;
    const auto it = plain_hash.find({s.client, s.idx});
    if (it == plain_hash.end()) continue;
    ++neutral;
    if (it->second != s.hash)
      report.fail("client " + std::to_string(s.client) + " request " + std::to_string(s.idx) +
                  ": traced answer differs from untraced");
  }

  std::vector<double> wait, exec, fast_exec;
  // Per graph: Decompose exec times on a cold (cache miss) and a warm context.
  std::vector<std::vector<double>> miss_exec(fleet.size()), hit_exec(fleet.size());
  long reps = 0, incr = 0, esc = 0;
  for (const Sample& s : traced.samples) {
    wait.push_back((s.latency_s - s.exec_s) * 1e3);
    exec.push_back(s.exec_s * 1e3);
    if (s.mode == mmd::RequestMode::Fast) fast_exec.push_back(s.exec_s * 1e3);
    if (s.mode == mmd::RequestMode::Decompose)
      (s.warm ? hit_exec : miss_exec)[s.graph].push_back(s.exec_s * 1e3);
    if (s.mode == mmd::RequestMode::Repartition) {
      ++reps;
      incr += s.incremental;
      esc += s.escalated;
    }
  }
  std::vector<double> warmup_extra;
  for (std::size_t gi = 0; gi < fleet.size(); ++gi)
    if (!miss_exec[gi].empty() && !hit_exec[gi].empty())
      warmup_extra.push_back(median(miss_exec[gi]) - median(hit_exec[gi]));
  const mmd::ServiceStats& a = traced.after;
  const mmd::ServiceStats& b = traced.before;
  const long hits = a.cache_hits - b.cache_hits, misses = a.cache_misses - b.cache_misses;
  const long rounds = a.rounds - b.rounds, requests = a.requests - b.requests;

  // FastResult::levels is not part of the service response; read it from
  // one FastContext call per graph with the service's fast defaults,
  // weighted by how often each graph served a Fast request.
  double levels = 0.0, level_weight = 0.0;
  {
    std::vector<long> per_graph(fleet.size(), 0);
    for (const Sample& s : traced.samples)
      if (s.mode == mmd::RequestMode::Fast) ++per_graph[s.graph];
    for (std::size_t gi = 0; gi < fleet.size(); ++gi) {
      if (per_graph[gi] == 0) continue;
      mmd::FastOptions fo;
      fo.inner.k = kFixedK;
      mmd::FastContext fctx(fleet[gi]->graph, fo);
      const mmd::FastResult fr = fctx.decompose(fleet[gi]->weights);
      levels += static_cast<double>(fr.levels * per_graph[gi]);
      level_weight += static_cast<double>(per_graph[gi]);
    }
  }

  std::vector<std::pair<std::string, double>> layer = {
      {"service.queue_wait_p50_ms", quantile(wait, 0.5)},
      {"service.queue_wait_p99_ms", quantile(wait, 0.99)},
      {"service.exec_p50_ms", quantile(exec, 0.5)},
      {"service.exec_p99_ms", quantile(exec, 0.99)},
      {"service.cache_hit_rate", hits + misses ? double(hits) / double(hits + misses) : 0.0},
      {"service.context_evictions", double(a.context_evictions - b.context_evictions)},
      {"service.mean_batch", rounds ? double(requests) / double(rounds) : 0.0},
      {"service.incremental_frac", reps ? double(incr) / double(reps) : 0.0},
      {"service.escalation_frac", reps ? double(esc) / double(reps) : 0.0},
      {"service.stale_chain_failures", double(plain.stale_failures + traced.stale_failures)},
      {"fast.levels", level_weight > 0 ? levels / level_weight : 0.0},
      {"fast.p50_ms", quantile(fast_exec, 0.5)},
      {"context.warmup_extra_ms", mean(warmup_extra)},
      {"context.memory_mb", double(a.cached_bytes) / (1024.0 * 1024.0)},
      {"graph.build_s", median(build_s)},
      {"trace.throughput_ratio", throughput(traced) / throughput(plain)},
      {"trace.neutral_calls", double(neutral)},
  };
  double g_bytes = 0.0, g_edges = 0.0;
  for (const auto& f : fleet) {
    g_bytes += static_cast<double>(f->graph.memory_bytes());
    g_edges += static_cast<double>(f->graph.num_edges());
  }
  layer.emplace_back("graph.bytes_per_edge", g_bytes / g_edges);
  report.note("traced: " + std::to_string(completed(traced)) + " served requests, " +
              std::to_string(neutral) + " compared bit-for-bit with untraced, " +
              std::to_string(tracer.span_count()) + " spans");
  emit_per_layer(report, layer);
  std::filesystem::create_directories(".bench_out");
  tracer.write_chrome_trace(".bench_out/trace-service-mix-" + std::to_string(args.seed) + ".json");
  return report;
}

}  // namespace bench
