#include "core/context.hpp"

#include <cmath>

namespace mmd {

DecomposeContext::DecomposeContext(const Graph& g,
                                   const DecomposeOptions& options,
                                   DecomposeWorkspace* external_ws,
                                   ThreadPool* external_pool)
    : g_(&g), options_(options), external_pool_(external_pool),
      ws_(external_ws ? external_ws : &own_ws_) {
  MMD_REQUIRE(options.num_threads >= 1, "num_threads must be >= 1");
  reconcile(options);
}

DecomposeContext::~DecomposeContext() = default;

void DecomposeContext::reconcile(const DecomposeOptions& options) {
  MMD_REQUIRE(options.num_threads >= 1, "num_threads must be >= 1");
  MMD_REQUIRE(options.fork_depth >= 0, "fork_depth must be >= 0");
  // The sweep mode is runtime splitter state re-stamped below, not a
  // structural property — changing it never forces a splitter rebuild.
  const bool splitter_stale =
      splitter_ == nullptr || options.splitter != options_.splitter;
  // A borrowed external pool overrides the num_threads ownership logic:
  // the caller decides the pool's lifetime and lane count.
  const bool pool_stale =
      external_pool_ == nullptr &&
      ((options.num_threads > 1) != (pool_ != nullptr) ||
       (pool_ != nullptr && pool_->num_threads() != options.num_threads));

  if (pool_stale) {
    pool_.reset();
    if (options.num_threads > 1) {
      pool_ = make_thread_pool(options.num_threads, options.diagnostics);
      if (pool_ != nullptr) {
        ++stats_.pool_builds;
      } else {
        ++stats_.pool_construct_failures;
      }
    }
  }
  if (splitter_stale) {
    splitter_ = make_default_splitter(*g_, options);
    ++stats_.splitter_builds;
  }
  if (splitter_stale || pool_stale) splitter_->set_thread_pool(thread_pool());
  // Pure scheduling state: changing the lane-tree depth invalidates
  // nothing (results are bit-identical for every value), so it is simply
  // re-stamped on the splitter on every reconcile.
  splitter_->set_fork_depth(options.fork_depth);
  splitter_->set_sweep_mode(options.sweep_mode);
  options_ = options;
  // Never cache a caller's prior pointer: it borrows storage that only has
  // to outlive the one call that carried it.  The context's own repartition
  // chain re-injects its cached prior per call instead.
  options_.prior = nullptr;
}

DecomposeResult DecomposeContext::decompose(std::span<const double> w) {
  ExclusiveUse::Claim claim = claim_use();
  ++stats_.decompose_calls;
  return mmd::decompose(*g_, w, options_, *splitter_, ws_);
}

DecomposeResult DecomposeContext::decompose(std::span<const double> w,
                                            const DecomposeOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  return decompose(w);
}

void DecomposeContext::set_weights(std::span<const double> w) {
  ExclusiveUse::Claim claim = claim_use();
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g_->num_vertices(),
              "weight arity mismatch");
  for (const double x : w)
    MMD_REQUIRE(std::isfinite(x) && x >= 0.0,
                "weights must be finite and non-negative");
  if (weights_bound_ && prior_valid_) {
    // A rebind is one big delta batch: record which vertices changed so
    // the next repartition's dirty region covers them.  reserve() first —
    // the only throwing step — so a failed rebind leaves the old binding
    // intact (the reassignment below keeps the size, so it cannot
    // allocate).
    std::vector<Vertex> changed;
    for (std::size_t v = 0; v < w.size(); ++v)
      if (w[v] != weights_[v]) changed.push_back(static_cast<Vertex>(v));
    pending_dirty_.reserve(pending_dirty_.size() + changed.size());
    pending_dirty_.insert(pending_dirty_.end(), changed.begin(), changed.end());
  }
  weights_.assign(w.begin(), w.end());
  weights_bound_ = true;
}

std::size_t DecomposeContext::update_weights(std::span<const WeightDelta> deltas) {
  ExclusiveUse::Claim claim = claim_use();
  MMD_REQUIRE(weights_bound_,
              "update_weights requires set_weights (no base weight vector "
              "is bound to this context)");
  const auto n = static_cast<Vertex>(weights_.size());
  // Validate everything, then reserve (the one throwing operation), then
  // apply through a loop that cannot throw: a failed call mutates nothing.
  for (const WeightDelta& d : deltas) {
    MMD_REQUIRE(d.v >= 0 && d.v < n, "weight delta vertex out of range");
    MMD_REQUIRE(std::isfinite(d.weight) && d.weight >= 0.0,
                "weight delta must be finite and non-negative");
  }
  pending_dirty_.reserve(pending_dirty_.size() + deltas.size());
  for (const WeightDelta& d : deltas) {
    weights_[static_cast<std::size_t>(d.v)] = d.weight;
    pending_dirty_.push_back(d.v);  // no alloc: reserved above
  }
  return deltas.size();
}

DecomposeResult DecomposeContext::do_repartition() {
  MMD_REQUIRE(weights_bound_,
              "repartition requires set_weights (no base weight vector is "
              "bound to this context)");
  ++stats_.repartition_calls;
  DecomposeResult r;
  if (prior_valid_) {
    PriorSolution ps;
    ps.coloring = &prior_coloring_;
    ps.max_boundary = prior_max_boundary_;
    ps.baseline_max_boundary = prior_baseline_boundary_;
    ps.dirty = pending_dirty_;
    DecomposeOptions opt = options_;
    opt.prior = &ps;
    r = mmd::decompose(*g_, weights_, opt, *splitter_, ws_);
    if (r.incremental) ++stats_.incremental_served;
    if (r.escalated) ++stats_.escalations;
  } else {
    r = mmd::decompose(*g_, weights_, options_, *splitter_, ws_);
  }
  // Adopt the solution as the new prior.  Stage the throwing copy first,
  // commit with a nothrow move: a mid-adoption allocation failure leaves
  // the previous prior (and the accumulated dirty set) intact, so a retry
  // re-solves from identical state.
  Coloring adopted = r.coloring;
  prior_coloring_ = std::move(adopted);
  prior_max_boundary_ = r.max_boundary;
  if (!r.incremental) prior_baseline_boundary_ = r.max_boundary;
  prior_valid_ = true;
  pending_dirty_.clear();
  return r;
}

DecomposeResult DecomposeContext::repartition(
    std::span<const WeightDelta> deltas) {
  ExclusiveUse::Claim claim = claim_use();
  update_weights(deltas);
  return do_repartition();
}

DecomposeResult DecomposeContext::repartition(
    std::span<const WeightDelta> deltas, const DecomposeOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  update_weights(deltas);
  return do_repartition();
}

MultiDecomposeResult DecomposeContext::decompose_multi(
    std::span<const double> psi, std::span<const MeasureRef> extra_measures) {
  ExclusiveUse::Claim claim = claim_use();
  ++stats_.decompose_calls;
  return mmd::decompose_multi(*g_, psi, extra_measures, options_, *splitter_,
                              ws_);
}

MultiDecomposeResult DecomposeContext::decompose_multi(
    std::span<const double> psi, std::span<const MeasureRef> extra_measures,
    const DecomposeOptions& options) {
  ExclusiveUse::Claim claim = claim_use();
  reconcile(options);
  return decompose_multi(psi, extra_measures);
}

std::size_t splitter_estimate_bytes(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const int axes = g.has_coords() ? g.dim() : 0;
  // The OrderingCache's global orders (one perm + rank block of n per
  // cached axis order) dominate; the lane-private scratch (memberships,
  // BFS state, order/radix buffers) is a handful of n-sized integer
  // arrays.  Not instrumented exactly — the estimate only has to rank
  // contexts for eviction and sum to the right order of magnitude.
  return static_cast<std::size_t>(axes) * n *
             (sizeof(Vertex) + sizeof(std::int32_t)) +
         8 * n * sizeof(std::int32_t);
}

std::size_t DecomposeContext::memory_estimate_bytes() const {
  const std::size_t repartition_bytes =
      weights_.capacity() * sizeof(double) +
      prior_coloring_.color.capacity() * sizeof(std::int32_t) +
      pending_dirty_.capacity() * sizeof(Vertex);
  return sizeof(*this) + splitter_estimate_bytes(*g_) + repartition_bytes +
         own_ws_.memory_bytes();
}

}  // namespace mmd
