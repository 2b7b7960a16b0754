// The two closed-loop decompose workloads: mesh-corpus (15 small weighted
// meshes x k, one serial caller) and grid-1m (two ~1M-vertex instances at
// k = 16 on a 4-lane pool).  Both run whole passes over a fixed list of
// (instance, k) cells, so every pass has the same mix and the median is
// taken over a stable population; every call gets fresh seeded weights.
//
// Untraced, the timed calls go through one warm DecomposeContext per cell.
// Traced, the same call sequence is replayed through the external-splitter
// decompose() overload with a TimingSplitter around make_default_splitter,
// and every answer must match the untraced one bit for bit.
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <map>

#include "bench.hpp"
#include "core/context.hpp"
#include "gen/geometric.hpp"
#include "gen/grid.hpp"
#include "gen/mesh.hpp"
#include "io/metis_io.hpp"
#include "util/thread_pool.hpp"

namespace bench {
namespace {

/// How each call's weights are drawn from its stream.
enum class WeightKind {
  NarrowUnit,  ///< unit-weight instance: U[1, 1.05] (narrow-window regime)
  Jitter,      ///< base field x U[1, 1.05]
  Smooth,      ///< fresh smooth field over the side x side lattice
};

struct Instance {
  std::string name;
  mmd::Graph graph;
  std::vector<double> base;
  WeightKind kind = WeightKind::NarrowUnit;
  int side = 0;  ///< Smooth: vertex v sits at (v / side, v % side)
};

struct Cell {
  std::size_t inst = 0;
  int k = 0;
  double b_max = 0.0;
};

/// Everything set-up builds; the timed loop starts from here.
struct World {
  std::vector<std::unique_ptr<Instance>> instances;
  std::vector<Cell> cells;
  std::vector<std::unique_ptr<mmd::DecomposeContext>> contexts;  ///< per cell
  std::vector<double> first_call_ms;     ///< per cell: the warm-up call
  std::vector<std::uint64_t> warm_hash;  ///< per cell: warm-up answer
  double build_s = 0.0;      ///< generators + GraphBuilder
  double read_metis_s = 0.0;
  double setup_s = 0.0;
};

struct Spec {
  int num_threads = 1;
  std::vector<int> ks;
  /// Cells of one pass, in call order (cells are instance-major over ks);
  /// empty = every cell once.
  std::vector<std::size_t> pass_order;
  /// Builds the instances, adding generator and reader time to the world.
  std::function<void(World&, Tracer&)> build;
};

/// Weights of call `slot` of pass `pass`; pass -1 is the warm-up call of
/// cell `slot`.  The warm-up weights do not depend on the seed, so set-up
/// does the same work in every run.
std::vector<double> draw_weights(const Instance& in, std::uint64_t seed, int pass,
                                 std::size_t slot) {
  if (pass < 0) seed = 0;
  Rng r(substream(seed, static_cast<std::uint64_t>(pass + 1), slot));
  const auto n = static_cast<std::size_t>(in.graph.num_vertices());
  std::vector<double> w(n);
  switch (in.kind) {
    case WeightKind::NarrowUnit:
      for (auto& x : w) x = 1.0 + 0.05 * r.uniform();
      break;
    case WeightKind::Jitter:
      for (std::size_t v = 0; v < n; ++v) w[v] = in.base[v] * (1.0 + 0.05 * r.uniform());
      break;
    case WeightKind::Smooth: {
      // Fixed shape, fresh phases.  The phases walk a golden-ratio
      // sequence from a seeded start, so the few passes a run makes cover
      // the phase plane evenly and the work per run stays comparable.
      constexpr double kTwoPi = 6.283185307179586;
      constexpr double fx = 2.0, fy = 3.0, amp = 0.5;
      Rng start(substream(seed, 0, slot));
      const double k = pass + 1;
      const double px = std::fmod(start.uniform() + k * 0.6180339887498949, 1.0);
      const double py = std::fmod(start.uniform() + k * 0.7548776662466927, 1.0);
      const double side = in.side;
      for (std::size_t v = 0; v < n; ++v) {
        const double x = static_cast<double>(v / static_cast<std::size_t>(in.side)) / side;
        const double y = static_cast<double>(v % static_cast<std::size_t>(in.side)) / side;
        w[v] = 1.0 + amp * std::sin(kTwoPi * (fx * x + px)) * std::sin(kTwoPi * (fy * y + py));
      }
      break;
    }
  }
  return w;
}

/// The E13 heavy-tailed field: one vertex in eight carries `heavy`.
std::vector<double> heavy_field(int n, double heavy, std::uint64_t seed) {
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  std::uint64_t x = seed;
  for (int i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    if ((x >> 33) % 8 == 0) w[static_cast<std::size_t>(i)] = heavy;
  }
  return w;
}

/// Time `fn` as a calling-thread span named `name`; returns seconds.
template <class Fn>
double timed(Tracer& tracer, const char* name, Fn&& fn) {
  const std::int64_t t0 = tracer.now_ns();
  fn();
  const std::int64_t t1 = tracer.now_ns();
  tracer.record(name, t0, t1, 0, 0);
  return static_cast<double>(t1 - t0) * 1e-9;
}

Instance& add_instance(World& w, std::string name, WeightKind kind) {
  w.instances.push_back(std::make_unique<Instance>());
  Instance& in = *w.instances.back();
  in.name = std::move(name);
  in.kind = kind;
  return in;
}

void build_mesh_corpus(World& w, Tracer& tracer) {
  w.build_s += timed(tracer, "graph.build", [&] {
    {
      Instance& in = add_instance(w, "tri-mesh96", WeightKind::NarrowUnit);
      in.graph = mmd::make_tri_mesh(96, 96);
    }
    {
      Instance& in = add_instance(w, "climate64x128", WeightKind::Jitter);
      mmd::ClimateInstance c = mmd::make_climate_instance({});
      in.graph = std::move(c.graph);
      in.base = std::move(c.weights);
    }
    {
      Instance& in = add_instance(w, "tri-heavy8", WeightKind::Jitter);
      in.graph = mmd::make_tri_mesh(64, 64);
      in.base = heavy_field(in.graph.num_vertices(), 8.0, 271);
    }
    {
      Instance& in = add_instance(w, "aniso8", WeightKind::Jitter);
      const int n = 20000;
      const double radius = std::sqrt(10.0 * (1.0 / 8.0) / (3.14159265358979 * n));
      in.graph = mmd::make_aniso_geometric(n, radius, 8.0);
      in.base = heavy_field(in.graph.num_vertices(), 4.0, 997);
    }
    {
      Instance& in = add_instance(w, "geo3", WeightKind::Jitter);
      const int n = 12000;
      const double radius = std::cbrt(10.0 * 3.0 / (4.0 * 3.14159265358979 * n));
      in.graph = mmd::make_random_geometric3(n, radius);
      in.base = heavy_field(in.graph.num_vertices(), 6.0, 613);
    }
  });
}

void build_grid_1m(World& w, Tracer& tracer) {
  constexpr int kSide = 1024;
  {
    Instance& in = add_instance(w, "grid1024", WeightKind::Smooth);
    in.side = kSide;
    w.build_s += timed(tracer, "graph.build",
                       [&] { in.graph = mmd::make_grid_cube(2, kSide); });
  }
  std::filesystem::create_directories(".bench_out");
  const std::string path =
      ".bench_out/mesh1024." + std::to_string(::getpid()) + ".graph";
  {
    mmd::Graph mesh;
    w.build_s += timed(tracer, "graph.build",
                       [&] { mesh = mmd::make_tri_mesh(kSide, kSide); });
    const std::vector<double> unit(static_cast<std::size_t>(mesh.num_vertices()), 1.0);
    timed(tracer, "io.write_metis", [&] { mmd::write_metis_file(mesh, unit, path); });
  }  // the written graph is gone before the read starts
  Instance& in = add_instance(w, "mesh1024-metis", WeightKind::Smooth);
  in.side = kSide;
  w.read_metis_s += timed(tracer, "io.read_metis", [&] {
    in.graph = mmd::read_metis_file(path).graph;
  });
  std::filesystem::remove(path);
}

mmd::DecomposeOptions options_for(const Spec& spec, int k) {
  mmd::DecomposeOptions opt;  // library defaults except k and num_threads
  opt.k = k;
  opt.num_threads = spec.num_threads;
  return opt;
}

std::unique_ptr<World> set_up(const Spec& spec, Tracer& tracer,
                              Report& report) {
  const auto t0 = Clock::now();
  auto w = std::make_unique<World>();
  spec.build(*w, tracer);
  for (std::size_t i = 0; i < w->instances.size(); ++i)
    for (const int k : spec.ks) w->cells.push_back({i, k, 0.0});
  for (std::size_t c = 0; c < w->cells.size(); ++c) {
    const Cell& cell = w->cells[c];
    const Instance& in = *w->instances[cell.inst];
    const mmd::DecomposeOptions opt = options_for(spec, cell.k);
    timed(tracer, "context.build", [&] {
      w->contexts.push_back(std::make_unique<mmd::DecomposeContext>(in.graph, opt));
    });
    const std::vector<double> wt = draw_weights(in, 0, -1, c);
    mmd::DecomposeResult r;
    w->first_call_ms.push_back(
        1e3 * timed(tracer, "context.warmup", [&] { r = w->contexts.back()->decompose(wt); }));
    w->warm_hash.push_back(answer_hash(r.coloring, r.max_boundary));
    const CheckResult chk = check_output(in.graph, wt, r.coloring, cell.k, r.max_boundary);
    ++report.attempted;
    if (!chk.ok) report.fail(in.name + " k=" + std::to_string(cell.k) + " warm-up: " + chk.why);
  }
  w->setup_s = seconds_since(t0);
  return w;
}

struct CallRecord {
  int pass = 0;
  std::size_t slot = 0;  ///< position in the pass
  std::size_t cell = 0;
  double seconds = 0.0;
  double ratio = 0.0;  ///< max_boundary / b_max
  std::uint64_t hash = 0;
  mmd::DecomposeResult result;  ///< traced loop only (coloring dropped)
  TimingSplitter::Totals split;  ///< traced loop only
};

struct LoopOut {
  std::vector<CallRecord> calls;
};

/// Whole passes over `order` until `budget_s` is spent (at least one).
/// `call` runs one decompose on a cell and returns its result.
template <class CallFn>
LoopOut run_passes(World& w, const std::vector<std::size_t>& order, std::uint64_t seed,
                   double budget_s, Report& report, bool keep_results, CallFn&& call) {
  LoopOut out;
  const auto t0 = Clock::now();
  for (int pass = 0; pass == 0 || seconds_since(t0) < budget_s; ++pass) {
    for (std::size_t j = 0; j < order.size(); ++j) {
      const std::size_t c = order[j];
      const Cell& cell = w.cells[c];
      const Instance& in = *w.instances[cell.inst];
      const std::vector<double> wt = draw_weights(in, seed, pass, j);
      CallRecord rec;
      rec.pass = pass;
      rec.slot = j;
      rec.cell = c;
      ++report.attempted;
      try {
        const auto c0 = Clock::now();
        mmd::DecomposeResult r = call(c, wt, rec);
        rec.seconds = seconds_since(c0);
        const CheckResult chk = check_output(in.graph, wt, r.coloring, cell.k, r.max_boundary);
        if (!chk.ok) {
          report.fail(in.name + " k=" + std::to_string(cell.k) + " pass " +
                      std::to_string(pass) + ": " + chk.why);
          continue;
        }
        rec.ratio = r.max_boundary / cell.b_max;
        rec.hash = answer_hash(r.coloring, r.max_boundary);
        if (keep_results) {
          r.coloring = {};
          rec.result = std::move(r);
        }
        out.calls.push_back(std::move(rec));
      } catch (const std::exception& e) {
        report.fail(in.name + " k=" + std::to_string(cell.k) + " threw: " + e.what());
      }
    }
  }
  return out;
}

std::vector<double> latencies_ms(const LoopOut& loop) {
  std::vector<double> v;
  for (const CallRecord& r : loop.calls) v.push_back(r.seconds * 1e3);
  return v;
}

double busy_seconds(const LoopOut& loop) {
  double s = 0.0;
  for (const CallRecord& r : loop.calls) s += r.seconds;
  return s;
}

double throughput(const LoopOut& loop) {
  const double s = busy_seconds(loop);
  return s > 0.0 ? static_cast<double>(loop.calls.size()) / s : 0.0;
}

Report run_serial(const Spec& spec, const Args& args, const char* workload) {
  Report report;
  Tracer tracer(args.trace);

  // Set up several times and report the median, so set-up time is steady
  // enough to bound; the last world is the one that is measured.
  constexpr int kSetups = 3;
  std::vector<double> setup_s, build_s, read_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    world = set_up(spec, tracer, report);
    setup_s.push_back(world->setup_s);
    build_s.push_back(world->build_s);
    read_s.push_back(world->read_metis_s);
  }
  World& w = *world;
  const double setup_rss_mib = peak_rss_mib();
  // Bookkeeping for boundary_ratio, outside every timed region.
  for (Cell& cell : w.cells) cell.b_max = theorem4_b_max(w.instances[cell.inst]->graph, cell.k);
  std::vector<std::size_t> order = spec.pass_order;
  if (order.empty())
    for (std::size_t c = 0; c < w.cells.size(); ++c) order.push_back(c);

  // Untraced loop: the end-to-end numbers.  A traced run spends half its
  // budget here and half replaying the same calls traced.
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const LoopOut plain = run_passes(
      w, order, args.seed, budget, report, false,
      [&](std::size_t c, const std::vector<double>& wt, CallRecord&) {
        return w.contexts[c]->decompose(wt);
      });

  EndToEnd e2e{setup_s, latencies_ms(plain), throughput(plain), {}, setup_rss_mib};
  for (const CallRecord& r : plain.calls) e2e.ratios.push_back(r.ratio);
  report.note(std::string(workload) + ": " + std::to_string(w.cells.size()) + " cells, " +
              std::to_string(plain.calls.size()) + " timed calls in " +
              fmt(busy_seconds(plain), 4) + " s busy");
  for (std::size_t i = 0; i < w.instances.size(); ++i) {
    std::vector<double> v, q;
    for (const CallRecord& r : plain.calls) {
      if (w.cells[r.cell].inst != i) continue;
      v.push_back(r.seconds * 1e3);
      q.push_back(r.ratio);
    }
    report.note("  " + w.instances[i]->name + ": p50 " + fmt(median(v), 5) + " ms [" +
                fmt(quantile(v, 0), 5) + ", " + fmt(quantile(v, 1), 5) + "] (n=" +
                std::to_string(v.size()) + "), boundary_ratio " + fmt(geomean(q), 5) +
                " [" + fmt(quantile(q, 0), 4) + ", " + fmt(quantile(q, 1), 4) + "]");
  }
  report_end_to_end(report, e2e, args.trace);
  if (!args.trace) return report;

  // ---- traced run ----------------------------------------------------------
  std::vector<std::pair<std::string, double>> layer;
  {
    // Warm-up premium per context: first call minus its later median.
    std::map<std::size_t, std::vector<double>> per_cell;
    for (const CallRecord& r : plain.calls) per_cell[r.cell].push_back(r.seconds * 1e3);
    std::vector<double> extra;
    for (std::size_t c = 0; c < w.cells.size(); ++c)
      if (!per_cell[c].empty()) extra.push_back(w.first_call_ms[c] - median(per_cell[c]));
    layer.emplace_back("context.warmup_extra_ms", mean(extra));
    double ctx_bytes = 0.0;
    for (const auto& ctx : w.contexts) ctx_bytes += static_cast<double>(ctx->memory_estimate_bytes());
    layer.emplace_back("context.memory_mb", ctx_bytes / (1024.0 * 1024.0));
    double g_bytes = 0.0, g_edges = 0.0;
    for (const auto& in : w.instances) {
      g_bytes += static_cast<double>(in->graph.memory_bytes());
      g_edges += static_cast<double>(in->graph.num_edges());
    }
    layer.emplace_back("graph.bytes_per_edge", g_bytes / g_edges);
    layer.emplace_back("graph.build_s", median(build_s));
    layer.emplace_back("io.read_metis_s", median(read_s));
  }
  w.contexts.clear();  // the traced path holds its own splitters

  std::map<std::pair<int, std::size_t>, std::uint64_t> plain_hash;
  for (const CallRecord& r : plain.calls) plain_hash[{r.pass, r.slot}] = r.hash;

  std::unique_ptr<mmd::ThreadPool> pool;
  if (spec.num_threads > 1) pool = std::make_unique<mmd::ThreadPool>(spec.num_threads);
  std::vector<std::unique_ptr<TimingSplitter>> splitters;
  std::vector<std::unique_ptr<mmd::DecomposeWorkspace>> workspaces;
  long neutral = 0;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    const Cell& cell = w.cells[c];
    const Instance& in = *w.instances[cell.inst];
    const mmd::DecomposeOptions opt = options_for(spec, cell.k);
    // Stamp the splitter the way DecomposeContext does.
    auto ts = std::make_unique<TimingSplitter>(mmd::make_default_splitter(in.graph, opt), tracer);
    ts->set_thread_pool(pool.get());
    ts->set_fork_depth(opt.fork_depth);
    ts->set_sweep_mode(mmd::effective_sweep_mode(opt));
    ts->set_adaptive_margin(opt.adaptive_margin);
    workspaces.push_back(std::make_unique<mmd::DecomposeWorkspace>());
    const std::vector<double> wt = draw_weights(in, 0, -1, c);
    const mmd::DecomposeResult r = mmd::decompose(in.graph, wt, opt, *ts, workspaces.back().get());
    if (answer_hash(r.coloring, r.max_boundary) != w.warm_hash[c])
      report.fail(in.name + " k=" + std::to_string(cell.k) + ": traced warm-up differs from untraced");
    ++neutral;
    splitters.push_back(std::move(ts));
  }

  const auto traced_call = [&](std::size_t c, const std::vector<double>& wt, CallRecord& rec) {
    const Cell& cell = w.cells[c];
    const Instance& in = *w.instances[cell.inst];
    const mmd::DecomposeOptions opt = options_for(spec, cell.k);
    const TimingSplitter::Totals before = splitters[c]->split_totals();
    const std::int64_t t0 = tracer.now_ns();
    const std::uint64_t id = tracer.main_slot().new_id();
    tracer.set_current_call(id);
    mmd::DecomposeResult r = mmd::decompose(in.graph, wt, opt, *splitters[c], workspaces[c].get());
    tracer.set_current_call(0);
    tracer.record(tracer.main_slot(), "core.decompose", t0, tracer.now_ns(), 0, id, id);
    const TimingSplitter::Totals after = splitters[c]->split_totals();
    rec.split = {after.calls - before.calls, after.seconds - before.seconds,
                 after.vertices - before.vertices};
    return r;
  };
  const LoopOut traced =
      run_passes(w, order, args.seed, args.seconds / 2, report, true, traced_call);
  for (const CallRecord& r : traced.calls) {
    const auto it = plain_hash.find({r.pass, r.slot});
    if (it == plain_hash.end()) continue;
    ++neutral;
    if (it->second != r.hash)
      report.fail("pass " + std::to_string(r.pass) + " call " + std::to_string(r.slot) +
                  ": traced answer differs from untraced");
  }

  double call_s = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0, p4 = 0.0, split_s = 0.0;
  double moves = 0.0, pops = 0.0, split_calls = 0.0, offered = 0.0;
  std::vector<double> growth;
  for (const CallRecord& r : traced.calls) {
    const mmd::DecomposeResult& d = r.result;
    call_s += r.seconds;
    p1 += d.phase_multibalance.seconds;
    p2 += d.phase_strictify.seconds;
    p3 += d.phase_binpack.seconds;
    p4 += d.phase_refine.seconds;
    moves += d.refine_stats.moves;
    pops += static_cast<double>(d.refine_stats.pops);
    split_calls += static_cast<double>(r.split.calls);
    split_s += r.split.seconds;
    offered += static_cast<double>(r.split.vertices);
    if (d.phase_multibalance.max_boundary > 0.0)
      growth.push_back(d.phase_strictify.max_boundary / d.phase_multibalance.max_boundary);
  }
  const double nc = static_cast<double>(std::max<std::size_t>(1, traced.calls.size()));
  layer.emplace_back("core.phase1_ms", 1e3 * p1 / nc);
  layer.emplace_back("core.strictify_ms", 1e3 * p2 / nc);
  layer.emplace_back("core.binpack_ms", 1e3 * p3 / nc);
  layer.emplace_back("core.refine_ms", 1e3 * p4 / nc);
  layer.emplace_back("core.strictify_share", p2 / call_s);
  layer.emplace_back("core.strictify_boundary_growth", geomean(growth));
  layer.emplace_back("core.phase_coverage", (p1 + p2 + p3 + p4) / call_s);
  layer.emplace_back("core.refine_moves", moves / nc);
  layer.emplace_back("core.refine_pops", pops / nc);
  layer.emplace_back("separators.split_calls", split_calls / nc);
  layer.emplace_back("separators.split_ms", 1e3 * split_s / nc);
  layer.emplace_back("separators.vertices_offered", offered / nc);
  layer.emplace_back("separators.split_share", split_s / call_s);
  layer.emplace_back("trace.throughput_ratio", throughput(traced) / throughput(plain));

  if (spec.num_threads > 1) {
    // The first traced call of each cell again, on the serial path.
    double t_multi = 0.0, t_serial = 0.0;
    std::vector<bool> seen(w.cells.size(), false);
    for (std::size_t c = 0; c < w.cells.size(); ++c) splitters[c]->set_thread_pool(nullptr);
    for (const CallRecord& r : traced.calls) {
      if (r.pass != 0 || seen[r.cell]) continue;
      seen[r.cell] = true;
      const Cell& cell = w.cells[r.cell];
      const Instance& in = *w.instances[cell.inst];
      const std::vector<double> wt = draw_weights(in, args.seed, 0, r.slot);
      mmd::DecomposeOptions opt = options_for(spec, cell.k);
      opt.num_threads = 1;
      const auto c0 = Clock::now();
      const mmd::DecomposeResult d =
          mmd::decompose(in.graph, wt, opt, *splitters[r.cell], workspaces[r.cell].get());
      t_serial += seconds_since(c0);
      t_multi += r.seconds;
      ++neutral;
      if (answer_hash(d.coloring, d.max_boundary) != r.hash)
        report.fail(in.name + ": serial answer differs from the " +
                    std::to_string(spec.num_threads) + "-lane answer");
    }
    layer.emplace_back("threads.speedup_4v1", t_serial / t_multi);
  }
  layer.emplace_back("trace.neutral_calls", static_cast<double>(neutral));

  report.note("traced: " + std::to_string(traced.calls.size()) + " calls, " +
              std::to_string(neutral) + " compared bit-for-bit with untraced, " +
              std::to_string(tracer.span_count()) + " spans");
  emit_per_layer(report, layer);
  std::filesystem::create_directories(".bench_out");
  tracer.write_chrome_trace(".bench_out/trace-" + std::string(workload) + "-" +
                            std::to_string(args.seed) + ".json");
  return report;
}

}  // namespace

Report run_mesh_corpus(const Args& args) {
  Spec spec;
  spec.num_threads = 1;
  spec.ks = {4, 16, 64};
  spec.build = build_mesh_corpus;
  return run_serial(spec, args, "mesh-corpus");
}

Report run_grid_1m(const Args& args) {
  Spec spec;
  spec.num_threads = 4;
  spec.ks = {16};
  // Grid, mesh, grid: a 50/50 mix of two well-separated call times puts
  // the median in the gap between them, where it rests on two extreme
  // samples; two grid calls per mesh call keep it inside the grid mode.
  spec.pass_order = {0, 1, 0};
  spec.build = build_grid_1m;
  return run_serial(spec, args, "grid-1m");
}

}  // namespace bench
