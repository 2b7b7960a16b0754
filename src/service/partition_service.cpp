#include "service/partition_service.hpp"

#include <algorithm>

#include "io/metis_io.hpp"
#include "util/timer.hpp"

namespace mmd {

const char* to_string(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::Ok: return "ok";
    case ServiceStatus::Degraded: return "degraded";
    case ServiceStatus::BadRequest: return "bad_request";
    case ServiceStatus::NotFound: return "not_found";
    case ServiceStatus::DeadlineExceeded: return "deadline_exceeded";
    case ServiceStatus::Cancelled: return "cancelled";
    case ServiceStatus::ResourceExhausted: return "resource_exhausted";
    case ServiceStatus::InternalError: return "internal_error";
    case ServiceStatus::ShuttingDown: return "shutting_down";
  }
  return "internal_error";
}

PartitionService::PartitionService(const PartitionServiceOptions& options)
    : options_(options) {
  MMD_REQUIRE(options.num_workers >= 1, "num_workers must be >= 1");
  MMD_REQUIRE(options.queue_capacity >= 1, "queue capacity must be >= 1");
}

PartitionService::~PartitionService() { shutdown(); }

void PartitionService::load_graph(const std::string& name, Graph g,
                                  std::vector<double> weights) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (weights.empty()) {
    const std::span<const double> embedded = g.vertex_weights();
    if (embedded.size() == n) {
      weights.assign(embedded.begin(), embedded.end());
    } else {
      weights.assign(n, 1.0);
    }
  }
  MMD_REQUIRE(weights.size() == n, "weight arity mismatch for graph '" + name + "'");

  auto state = std::make_shared<GraphState>();
  state->name = name;
  state->graph = std::move(g);
  state->weights = std::move(weights);
  state->graph_bytes = state->pinned_bytes();

  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = graphs_.find(name);
  if (it != graphs_.end()) {
    // Replace: unlink the old state; a batch still pinning it keeps it
    // alive (doomed) until checkin.
    unlink_locked(*it->second);
    graphs_.erase(it);
  }
  state->last_use = ++lru_tick_;
  graph_bytes_ += state->graph_bytes;
  graphs_.emplace(name, std::move(state));
}

void PartitionService::load_graph_file(const std::string& name,
                                       const std::string& path) {
  GraphWithWeights gw = read_metis_file(path);
  load_graph(name, std::move(gw.graph), std::move(gw.weights));
}

bool PartitionService::evict_graph(const std::string& name) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = graphs_.find(name);
  if (it == graphs_.end()) return false;
  unlink_locked(*it->second);  // a pinning batch frees it at checkin
  graphs_.erase(it);
  return true;
}

bool PartitionService::has_graph(const std::string& name) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return graphs_.find(name) != graphs_.end();
}

ServiceResponse PartitionService::execute(const ServiceRequest& request) {
  Pending pending;
  pending.request = &request;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return shutdown_ || queued_ < options_.queue_capacity; });
  if (shutdown_) {
    pending.response.status = ServiceStatus::ShuttingDown;
    pending.response.error = "mmd: service is shutting down";
    return std::move(pending.response);
  }
  // Admission is the dispatch's only allocation, so a failure here leaves
  // every lane as it was.
  try {
    const auto [lane, inserted] = lanes_.try_emplace(request.graph);
    try {
      lane->second.queue.push_back(&pending);
    } catch (...) {
      if (inserted) lanes_.erase(lane);
      throw;
    }
    pending.lane = lane;
  } catch (const std::bad_alloc&) {
    pending.response.status = ServiceStatus::ResourceExhausted;
    return std::move(pending.response);
  }
  pending.seq = ++seq_;
  pending.admitted = ExecControl::Clock::now();
  ++queued_;

  // While this request's lane is idle, its caller may take a lane: the
  // ready one whose front request is oldest (its own lane is ready, so
  // there is one).  Otherwise it waits for its request to finish or for
  // a slot to free up.
  while (!pending.done) {
    if (!pending.lane->second.active && active_ < options_.num_workers) {
      Lanes::iterator oldest = lanes_.end();
      for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
        const Lane& l = it->second;
        if (l.active || l.queue.empty()) continue;
        if (oldest == lanes_.end() ||
            l.queue.front()->seq < oldest->second.queue.front()->seq)
          oldest = it;
      }
      serve_batch(lock, oldest);
    } else {
      cv_.wait(lock);
    }
  }
  return std::move(pending.response);
}

void PartitionService::serve_batch(std::unique_lock<std::mutex>& lock,
                                   Lanes::iterator lane) {
  // Claim the lane.  Nothing from here to the end allocates outside the
  // contained execute_one calls, so the lane is always checked back in.
  std::vector<Pending*> batch;
  batch.swap(lane->second.queue);
  lane->second.active = true;
  ++active_;
  queued_ -= batch.size();
  cv_.notify_all();  // admission room
  lock.unlock();

  // Pin the graph so an evict_graph racing the batch unlinks but never
  // destroys the state mid-use.  The key is immutable and the lane node
  // stays put while it is active.
  std::shared_ptr<GraphState> gs;
  {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    const auto it = graphs_.find(lane->first);
    if (it != graphs_.end()) {
      gs = it->second;
      ++gs->pins;
      gs->last_use = ++lru_tick_;
    }
  }

  for (Pending* p : batch) {
    try {
      execute_one(gs.get(), *p);
    } catch (...) {
      // Only execute_one's bookkeeping can get here, after the response
      // holds its typed status.
    }
    std::lock_guard<std::mutex> done_lock(mu_);
    p->done = true;  // p belongs to its caller from here on
    cv_.notify_all();
  }

  if (gs != nullptr) {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    checkin_locked(*gs);
    evict_until_within_budget_locked();
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.rounds;
    if (batch.size() > 1)
      stats_.batched_requests += static_cast<long>(batch.size());
  }

  lock.lock();
  --active_;
  if (lane->second.queue.empty()) {
    lanes_.erase(lane);
  } else {
    lane->second.active = false;
  }
  cv_.notify_all();  // a free slot, and maybe a ready lane
}

void PartitionService::execute_one(GraphState* gs, Pending& p) {
  const ServiceRequest& req = *p.request;
  ServiceResponse& resp = p.response;
  const std::chrono::duration<double> wait =
      ExecControl::Clock::now() - p.admitted;
  Timer timer;
  bool warm = false;
  if (gs == nullptr) {
    resp.status = ServiceStatus::NotFound;
    resp.error = "mmd: graph not loaded: '" + req.graph + "'";
  } else try {
    const std::span<const double> w =
        req.weights.empty() ? std::span<const double>(gs->weights)
                            : std::span<const double>(req.weights);
    MMD_REQUIRE(w.size() == static_cast<std::size_t>(gs->graph.num_vertices()),
                "weight arity mismatch for graph '" + req.graph + "'");

    // Per-call options: the service owns the diagnostics sink, and the
    // relative timeout is armed *now* (execution start), combining with
    // any absolute deadline the caller set (earlier wins).  The caller's
    // CancelToken flows through untouched.
    DecomposeOptions opt = req.options;
    opt.diagnostics = &diag_;
    if (req.timeout_ms >= 0) {
      opt.exec.deadline = std::min(
          opt.exec.deadline,
          ExecControl::Clock::now() + std::chrono::milliseconds(req.timeout_ms));
    }

    // Construct without the per-call exec state; the call below
    // reconciles the full options (construction itself is cheap —
    // splitter caches fill lazily inside the first call).  A rebuilt
    // context borrows the graph's chain, so an evicted repartition chain
    // continues from its prior.
    const auto ensure_ctx = [&] {
      warm = gs->ctx != nullptr;
      if (warm) return;
      DecomposeOptions copt = opt;
      copt.exec = ExecControl{};
      gs->ctx = std::make_unique<DecomposeContext>(gs->graph, copt, nullptr,
                                                   nullptr, &gs->chain);
    };

    if (req.mode == RequestMode::Decompose) {
      ensure_ctx();
      DecomposeResult r = gs->ctx->decompose(w, opt);
      resp.coloring = std::move(r.coloring);
      resp.balance = r.balance;
      resp.max_boundary = r.max_boundary;
      resp.avg_boundary = r.avg_boundary;
      resp.status = ServiceStatus::Ok;
    } else if (req.mode == RequestMode::Repartition) {
      MMD_REQUIRE(req.weights.empty(),
                  "repartition expresses drift via deltas; a full weight "
                  "vector is not accepted (use mode decompose, or rebind "
                  "by reloading the graph)");
      ensure_ctx();
      // First repartition on this graph: bind the chain's base weights
      // from the graph's registered weights.
      if (!gs->ctx->has_weights()) gs->ctx->set_weights(gs->weights);
      DecomposeResult r = gs->ctx->repartition(req.deltas, opt);
      resp.coloring = std::move(r.coloring);
      resp.balance = r.balance;
      resp.max_boundary = r.max_boundary;
      resp.avg_boundary = r.avg_boundary;
      resp.migration_cost = r.migration_cost;
      resp.incremental = r.incremental;
      resp.escalated = r.escalated;
      resp.escalation = r.escalation;
      resp.status = ServiceStatus::Ok;
    } else {
      warm = gs->fctx != nullptr;
      FastOptions fo;
      fo.inner = opt;
      fo.coarse_target = req.fast_coarse_target;
      fo.max_levels = req.fast_max_levels;
      fo.refine_passes_per_level = req.fast_refine_passes;
      fo.seed = req.fast_seed;
      if (!warm) {
        FastOptions co = fo;
        co.inner.exec = ExecControl{};
        gs->fctx = std::make_unique<FastContext>(gs->graph, co);
      }
      FastResult r = gs->fctx->decompose(w, fo);
      resp.coloring = std::move(r.coloring);
      resp.balance = r.balance;
      resp.max_boundary = r.max_boundary;
      resp.avg_boundary = r.avg_boundary;
      resp.degraded = r.degraded;
      resp.status = r.degraded ? ServiceStatus::Degraded : ServiceStatus::Ok;
    }
    resp.warm = warm;
    resp.error.clear();
  } catch (const DeadlineExceeded& e) {
    resp.status = ServiceStatus::DeadlineExceeded;
    resp.error = e.what();
  } catch (const Cancelled& e) {
    resp.status = ServiceStatus::Cancelled;
    resp.error = e.what();
  } catch (const fault::InjectedFault& e) {
    resp.status = ServiceStatus::InternalError;
    resp.error = e.what();
  } catch (const InvariantViolation& e) {
    resp.status = ServiceStatus::InternalError;
    resp.error = e.what();
  } catch (const std::bad_alloc& e) {
    resp.status = ServiceStatus::ResourceExhausted;
    resp.error = e.what();
  } catch (const std::invalid_argument& e) {
    // ParseError and every MMD_REQUIRE (bad k, weight arity, ...).
    resp.status = ServiceStatus::BadRequest;
    resp.error = e.what();
  } catch (const std::exception& e) {
    resp.status = ServiceStatus::InternalError;
    resp.error = e.what();
  }
  resp.seconds = timer.seconds();

  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.requests;
  if (resp.ok()) {
    ++stats_.ok;
  } else {
    ++stats_.errors;
  }
  if (req.mode == RequestMode::Repartition && resp.ok()) {
    ++stats_.repartitions;
    if (resp.escalated) {
      ++stats_.repartition_escalations;
      ++stats_.escalation_reasons[resp.escalation];
    }
  }
  if (gs != nullptr) {
    if (warm) {
      ++stats_.cache_hits;
    } else {
      ++stats_.cache_misses;
    }
  }
  latency_.record(resp.seconds);
  queue_wait_.record(wait.count());
}

void PartitionService::unlink_locked(GraphState& gs) {
  cached_bytes_ -= gs.cached_bytes;
  graph_bytes_ -= gs.graph_bytes;
  gs.doomed = true;
}

void PartitionService::checkin_locked(GraphState& gs) {
  --gs.pins;
  if (gs.doomed) return;  // unlinked; freed when the last shared_ptr drops
  std::size_t now_bytes = 0;
  if (gs.ctx != nullptr) now_bytes += gs.ctx->memory_estimate_bytes();
  if (gs.fctx != nullptr) now_bytes += gs.fctx->memory_estimate_bytes();
  cached_bytes_ += now_bytes;
  cached_bytes_ -= gs.cached_bytes;
  gs.cached_bytes = now_bytes;
  const std::size_t now_graph_bytes = gs.pinned_bytes();
  graph_bytes_ += now_graph_bytes;
  graph_bytes_ -= gs.graph_bytes;
  gs.graph_bytes = now_graph_bytes;
}

void PartitionService::evict_until_within_budget_locked() {
  while (cached_bytes_ > options_.context_budget_bytes) {
    GraphState* coldest = nullptr;
    for (auto& [name, state] : graphs_) {
      if (state->pins > 0 || state->cached_bytes == 0) continue;
      if (coldest == nullptr || state->last_use < coldest->last_use) {
        coldest = state.get();
      }
    }
    if (coldest == nullptr) break;  // everything evictable is gone or pinned
    coldest->ctx.reset();
    coldest->fctx.reset();
    cached_bytes_ -= coldest->cached_bytes;
    coldest->cached_bytes = 0;
    ++evictions_;
  }
}

ServiceStats PartitionService::stats() const {
  std::size_t queued = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued = queued_;
  }
  ServiceStats out;
  // Lock order: cache_mu_ before stats_mu_, everywhere.
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  out = stats_;
  out.context_evictions = evictions_;
  out.cached_bytes = cached_bytes_;
  out.graph_bytes = graph_bytes_;
  out.graphs_loaded = graphs_.size();
  out.queued = queued;
  out.p50_seconds = latency_.percentile(0.50);
  out.p95_seconds = latency_.percentile(0.95);
  out.p99_seconds = latency_.percentile(0.99);
  out.queue_wait_p50_seconds = queue_wait_.percentile(0.50);
  out.queue_wait_p95_seconds = queue_wait_.percentile(0.95);
  out.queue_wait_p99_seconds = queue_wait_.percentile(0.99);
  return out;
}

void PartitionService::shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  cv_.notify_all();  // callers blocked on admission give up
  // Every queued request has its caller waiting in execute(), and those
  // callers serve their lanes, so the lanes drain themselves.
  cv_.wait(lock, [&] { return queued_ == 0 && active_ == 0; });
}

}  // namespace mmd
