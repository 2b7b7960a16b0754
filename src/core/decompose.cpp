#include "core/decompose.hpp"

#include <algorithm>
#include <cmath>

#include "core/binpack.hpp"
#include "core/bisection.hpp"
#include "core/context.hpp"
#include "core/repair.hpp"
#include "separators/composite.hpp"
#include "separators/grid_split.hpp"
#include "separators/prefix_splitter.hpp"
#include "separators/splittability.hpp"
#include "util/norms.hpp"
#include "util/timer.hpp"

namespace mmd {

std::unique_ptr<ISplitter> make_default_splitter(const Graph& g,
                                                 SplitterKind kind) {
  switch (kind) {
    case SplitterKind::Prefix:
      return std::make_unique<PrefixSplitter>();
    case SplitterKind::Grid:
      return std::make_unique<GridSplitter>();
    case SplitterKind::Auto:
      break;
  }
  if (g.has_coords() && g.is_grid_graph()) {
    // Keep Theorem 19's guarantee *and* the sweeps' practical quality.
    std::vector<std::unique_ptr<ISplitter>> children;
    children.push_back(std::make_unique<GridSplitter>());
    children.push_back(std::make_unique<PrefixSplitter>());
    return std::make_unique<CompositeSplitter>(std::move(children));
  }
  return std::make_unique<PrefixSplitter>();
}

std::unique_ptr<ISplitter> make_default_splitter(const Graph& g,
                                                 const DecomposeOptions& options) {
  std::unique_ptr<ISplitter> s = make_default_splitter(g, options.splitter);
  // Stamp the sweep mode on the splitter itself, whatever its kind, so the
  // grid, composite and every coordinate-driven path honor it too.
  s->set_sweep_mode(options.sweep_mode);
  return s;
}

double default_sigma_p(const Graph& g, double p) {
  if (g.has_coords() && g.is_grid_graph()) {
    const auto costs = g.edge_costs();
    double lo = 0.0, hi = 0.0;
    for (double c : costs) {
      if (c <= 0.0) continue;
      lo = lo == 0.0 ? c : std::min(lo, c);
      hi = std::max(hi, c);
    }
    const double phi = (lo > 0.0) ? hi / lo : 1.0;
    return grid_splittability_bound(g.dim(), phi);
  }
  (void)p;
  return 2.0;
}

const char* to_string(Escalation e) {
  switch (e) {
    case Escalation::None:
      return "none";
    case Escalation::Structure:
      return "structure";
    case Escalation::BalanceGate:
      return "balance_gate";
    case Escalation::RepairFailed:
      return "repair_failed";
    case Escalation::DirtyRegion:
      return "dirty_region";
    case Escalation::BoundaryGrowth:
      return "boundary_growth";
  }
  return "unknown";
}

namespace {

PhaseReport report_phase(const Graph& g, std::span<const double> w,
                         const Coloring& chi, double seconds) {
  PhaseReport rep;
  rep.seconds = seconds;
  const auto bc = class_boundary_costs(g, chi);
  rep.max_boundary = norm_inf(bc);
  rep.avg_boundary = chi.k > 0 ? norm1(bc) / chi.k : 0.0;
  rep.max_weight_dev = balance_report(w, chi).max_dev;
  return rep;
}

/// Entry checks shared by decompose() and decompose_multi(): validate,
/// stamp the execution control and diagnostics sink on the splitter tree
/// (they propagate to lanes), then checkpoint before doing any work — an
/// already-expired deadline must throw here, not after a phase ran.
void begin_call(const Graph& g, std::span<const double> w,
                const DecomposeOptions& options, ISplitter& splitter) {
  MMD_REQUIRE(options.k >= 1, "k must be >= 1");
  MMD_REQUIRE(options.p > 1.0, "p must exceed 1");
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  MMD_REQUIRE(std::isfinite(norm1(w)), "total vertex weight must be finite");
  splitter.set_exec_control(options.exec);
  splitter.set_diagnostics(options.diagnostics);
  options.exec.check();
}

long count_migration(const Coloring& prior, const Coloring& now) {
  long moved = 0;
  const std::size_t n = std::min(prior.color.size(), now.color.size());
  for (std::size_t v = 0; v < n; ++v)
    if (prior.color[v] != now.color[v]) ++moved;
  return moved;
}

/// Phases 1-4 of Theorem 4, one arm.  `extra` are the Conclusion's weakly
/// balanced measures, added to phase 1 and carried through strictify;
/// decompose() passes none.
DecomposeResult run_phases(const Graph& g, std::span<const double> w,
                           std::span<const MeasureRef> extra,
                           const DecomposeOptions& options, ISplitter& splitter,
                           DecomposeWorkspace& wsr) {
  DecomposeResult out;
  Timer total_timer;

  out.sigma_p = options.sigma_p > 0.0 ? options.sigma_p
                                      : default_sigma_p(g, options.p);
  out.bound = theorem4_bound(g, options.p, out.sigma_p, options.k);

  const std::vector<double> pi =
      splitting_cost_measure(g, options.p, out.sigma_p);

  // Phase 1: Proposition 7 over {w, extra...} (or plain Lemma 6 when the
  // Psi pass is ablated, or a Simon–Teng warm start when requested).
  Timer phase_timer;
  Coloring chi;
  if (options.init == InitMethod::Bisection) {
    chi = recursive_bisection_coloring(g, w, options.k, splitter);
  } else {
    std::vector<MeasureRef> user{MeasureRef(w)};
    user.insert(user.end(), extra.begin(), extra.end());
    if (options.balance_boundary) {
      chi = minmax_balance(g, options.k, pi, user, splitter, options.rebalance,
                           nullptr, &wsr);
    } else {
      user.insert(user.begin(), MeasureRef(pi));
      chi = multibalance(g, options.k, user, splitter, options.rebalance,
                         nullptr, &wsr);
    }
  }
  out.phase_multibalance = report_phase(g, w, chi, phase_timer.seconds());

  // Phase 2: Proposition 11, keeping the extra measures light in moved
  // parts.  Its whole purpose is to reach *almost* strict balance; when
  // phase 1 already delivers that (common for the bisection warm start,
  // occasional for benign instances), skipping the shrink-and-conquer
  // recursion is both valid and cheaper.
  options.exec.check();  // phase boundary checkpoint
  phase_timer.reset();
  if (options.use_strictify && options.k > 1 &&
      !balance_report(w, chi).almost_strictly_balanced) {
    chi = strictify_almost(g, chi, w, pi, splitter, options.strictify,
                           nullptr, extra, &wsr);
  }
  out.phase_strictify = report_phase(g, w, chi, phase_timer.seconds());

  // Phase 3: Proposition 12.
  options.exec.check();
  phase_timer.reset();
  if (options.use_binpack2 && options.k > 1) {
    chi = binpack2(g, chi, w, splitter, nullptr, &wsr);
  }
  out.phase_binpack = report_phase(g, w, chi, phase_timer.seconds());

  // Phase 4 (extension): min-max hill climbing.  Only applied once the
  // coloring is strictly balanced, so the Definition 1 window it must
  // preserve is the one the caller asked for.
  options.exec.check();
  phase_timer.reset();
  if (options.use_refinement && options.use_binpack2 && options.k > 1) {
    MinmaxRefineOptions refine = options.refine;
    refine.exec = options.exec;  // round-boundary checkpoints inside
    out.refine_stats = minmax_refine(g, chi, w, refine, &wsr.refine);
  }
  out.phase_refine = report_phase(g, w, chi, phase_timer.seconds());

  out.coloring = std::move(chi);
  out.balance = balance_report(w, out.coloring);
  const auto bc = class_boundary_costs(g, out.coloring);
  out.max_boundary = norm_inf(bc);
  out.avg_boundary = norm1(bc) / options.k;
  out.total_seconds = total_timer.seconds();
  return out;
}

}  // namespace

DecomposeResult decompose(const Graph& g, std::span<const double> w,
                          const DecomposeOptions& options, ISplitter& splitter,
                          DecomposeWorkspace* ws) {
  begin_call(g, w, options, splitter);

  // The race layers below (incremental escalation, InitMethod::Best)
  // return one arm's result; its total_seconds is overwritten with this
  // call's wall time, so the report covers the work of every arm, the
  // losing ones included.
  Timer call_timer;

  if (options.prior != nullptr) {
    // Incremental-first: balance repair, then seeded refinement over the
    // dirty region.  When
    // the escalation certificate fires, fall back to a full solve with the
    // prior stripped — that path is the ordinary pipeline, so it keeps the
    // bit-identical warm/cold/threaded contract — and report the migration
    // the caller is about to pay.
    Escalation why = Escalation::None;
    if (auto inc = try_incremental_repartition(g, w, options, ws, &why))
      return *inc;
    DecomposeOptions full = options;
    full.prior = nullptr;
    DecomposeResult out = decompose(g, w, full, splitter, ws);
    out.total_seconds = call_timer.seconds();  // incremental attempt included
    out.escalated = true;
    out.escalation = why;
    out.migration_cost = count_migration(*options.prior->coloring, out.coloring);
    return out;
  }

  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;

  if (options.init == InitMethod::Best) {
    DecomposeOptions paper = options;
    paper.init = InitMethod::Paper;
    DecomposeOptions bisect = options;
    bisect.init = InitMethod::Bisection;
    DecomposeResult a = decompose(g, w, paper, splitter, &wsr);
    DecomposeResult b = decompose(g, w, bisect, splitter, &wsr);
    // Both are strictly balanced (or throw); keep the cheaper boundary.
    DecomposeResult& won = a.max_boundary <= b.max_boundary ? a : b;
    won.total_seconds = call_timer.seconds();
    return std::move(won);
  }

  return run_phases(g, w, {}, options, splitter, wsr);
}

std::optional<DecomposeResult> try_incremental_repartition(
    const Graph& g, std::span<const double> w, const DecomposeOptions& options,
    DecomposeWorkspace* ws, Escalation* escalation) {
  MMD_REQUIRE(options.prior != nullptr,
              "incremental repartition requires options.prior");
  const PriorSolution& prior = *options.prior;
  MMD_REQUIRE(prior.coloring != nullptr, "prior solution has no coloring");
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  options.exec.check();
  const auto escalate = [&](Escalation why) -> std::optional<DecomposeResult> {
    if (escalation != nullptr) *escalation = why;
    return std::nullopt;
  };

  const Coloring& pc = *prior.coloring;
  const Vertex n = g.num_vertices();
  // Structural certificate: the prior must be a total k-coloring of this
  // exact graph with the requested k (and k > 1 — nothing to refine below
  // that).  Any mismatch escalates rather than throws: a stale prior is a
  // served-request condition, not a caller bug.
  if (pc.k != options.k || options.k <= 1 ||
      static_cast<Vertex>(pc.color.size()) != n || !pc.is_total())
    return escalate(Escalation::Structure);

  // Repair gate: a prior within balance_headroom x the Definition 1 window
  // under the NEW weights is repaired below; one past it is solved cold.
  const BalanceReport pre = balance_report(w, pc);
  if (!pre.finite ||
      pre.max_dev > options.incremental.balance_headroom * pre.strict_bound)
    return escalate(Escalation::BalanceGate);

  Timer total_timer;
  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;
  RefineWorkspace& rw = wsr.refine;

  // Dirty region = the delta vertices and the vertices the repair moves,
  // plus their neighbours (duplicates removed).  The delta part is checked
  // against the cap first, so a wide rebind escalates before any repair.
  const auto add_to_seed = [&](std::span<const Vertex> from) {
    for (const Vertex v : from) {
      MMD_REQUIRE(v >= 0 && v < n, "dirty vertex out of range");
      rw.seed.push_back(v);
      for (const HalfEdge& h : g.incidence(v)) rw.seed.push_back(h.to);
    }
    std::sort(rw.seed.begin(), rw.seed.end());
    rw.seed.erase(std::unique(rw.seed.begin(), rw.seed.end()), rw.seed.end());
  };
  const double seed_cap =
      options.incremental.max_dirty_fraction * static_cast<double>(n);
  rw.seed.clear();
  add_to_seed(prior.dirty);
  if (static_cast<double>(rw.seed.size()) > seed_cap)
    return escalate(Escalation::DirtyRegion);

  DecomposeResult out;
  out.coloring = pc;  // repaired and refined in place below

  // Balance repair: boundary moves back into the strict window, within a
  // budget fixed by the delta count.
  if (pre.max_dev > pre.strict_bound) {
    const long budget =
        std::max<long>(64, 4 * static_cast<long>(prior.dirty.size()));
    if (!repair_balance(g, out.coloring, w, budget, rw).ok)
      return escalate(Escalation::RepairFailed);
    add_to_seed(rw.moved);
    if (static_cast<double>(rw.seed.size()) > seed_cap)
      return escalate(Escalation::DirtyRegion);
  }

  out.sigma_p = options.sigma_p > 0.0 ? options.sigma_p
                                      : default_sigma_p(g, options.p);
  out.bound = theorem4_bound(g, options.p, out.sigma_p, options.k);

  Timer phase_timer;
  MinmaxRefineOptions refine = options.refine;
  refine.exec = options.exec;
  // Seeded mode is a worklist-engine feature; force it so a Sweep-
  // configured caller still gets the localized (and empty-seed no-op)
  // semantics the incremental contract promises.
  refine.engine = RefineEngine::Worklist;
  refine.seeded = true;
  refine.seed = std::span<const Vertex>(rw.seed);
  out.refine_stats = minmax_refine(g, out.coloring, w, refine, &rw);

  // Served only when strictly balanced under freshly summed class weights,
  // with no slack: refinement's own window test carries a rounding
  // tolerance, and a prior just outside the exact window must not pass.
  out.balance = balance_report(w, out.coloring);
  if (!out.balance.finite || out.balance.max_dev > out.balance.strict_bound)
    return escalate(Escalation::RepairFailed);
  const auto bc = class_boundary_costs(g, out.coloring);
  out.max_boundary = norm_inf(bc);
  out.avg_boundary = norm1(bc) / options.k;
  out.phase_refine = {phase_timer.seconds(), out.max_boundary,
                      out.avg_boundary, out.balance.max_dev};

  // Boundary-growth envelope against the last FULL solve.  Boundary cost
  // is weight-independent and seeded refinement never raises it, but the
  // balance repair's moves can, so along an incremental chain this fires
  // when the repairs have pushed the boundary past the envelope.
  const double baseline = prior.baseline_max_boundary > 0.0
                              ? prior.baseline_max_boundary
                              : prior.max_boundary;
  if (baseline > 0.0 && out.max_boundary >
                            options.incremental.max_boundary_growth * baseline +
                                1e-9)
    return escalate(Escalation::BoundaryGrowth);

  out.migration_cost = count_migration(pc, out.coloring);
  out.incremental = true;
  out.total_seconds = total_timer.seconds();
  return out;
}

DecomposeResult decompose(const Graph& g, std::span<const double> w,
                          const DecomposeOptions& options,
                          DecomposeWorkspace* ws) {
  // A transient context: one splitter + pool build, torn down on return.
  // Callers that decompose the same graph repeatedly should hold a
  // DecomposeContext instead and get this build cost exactly once.
  DecomposeContext ctx(g, options, ws);
  if (options.prior != nullptr) {
    // The context strips `prior` from its cached options (a borrowed
    // pointer must not outlive this call), so route prior-bearing options
    // through the splitter overload against the context's wired splitter.
    return mmd::decompose(g, w, options, ctx.splitter(), &ctx.workspace());
  }
  return ctx.decompose(w);
}

MultiDecomposeResult decompose_multi(const Graph& g, std::span<const double> psi,
                                     std::span<const MeasureRef> extra_measures,
                                     const DecomposeOptions& options,
                                     ISplitter& splitter,
                                     DecomposeWorkspace* ws) {
  for (const MeasureRef& m : extra_measures)
    MMD_REQUIRE(static_cast<Vertex>(m.size()) == g.num_vertices(),
                "extra measure arity mismatch");
  begin_call(g, psi, options, splitter);
  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;
  // A bisection warm start cannot balance the extra measures, so phase 1
  // is always Proposition 7 here, whatever options.init says.
  DecomposeOptions paper = options;
  paper.init = InitMethod::Paper;
  DecomposeResult r = run_phases(g, psi, extra_measures, paper, splitter, wsr);

  MultiDecomposeResult out;
  out.coloring = std::move(r.coloring);
  out.psi_balance = r.balance;
  for (const MeasureRef& m : extra_measures)
    out.weak_factors.push_back(weak_balance_factor(m, out.coloring));
  out.max_boundary = r.max_boundary;
  out.avg_boundary = r.avg_boundary;
  out.bound = r.bound;
  out.sigma_p = r.sigma_p;
  return out;
}

MultiDecomposeResult decompose_multi(const Graph& g, std::span<const double> psi,
                                     std::span<const MeasureRef> extra_measures,
                                     const DecomposeOptions& options,
                                     DecomposeWorkspace* ws) {
  DecomposeContext ctx(g, options, ws);
  return ctx.decompose_multi(psi, extra_measures);
}

}  // namespace mmd
