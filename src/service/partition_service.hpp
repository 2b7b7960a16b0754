// PartitionService: a long-lived fleet of warm contexts behind per-graph
// request lanes.
//
// Everything below the service layer is built for exactly this embedding:
// DecomposeContext / FastContext keep splitters, OrderingCaches, and
// coarsening hierarchies warm across calls (PR 2/6), ExecControl gives
// every request a deadline and typed errors that leave the warm state
// reusable (PR 6), and the bit-identity pins (warm == cold == threaded,
// PR 2/3/5) are what make a *shared* context legal at all: a request
// served from a warm context returns exactly the bytes a fresh transient
// call would.  The service adds the three things a single context cannot
// provide:
//
//   * a registry of graphs, each owning at most one DecomposeContext and
//     one FastContext, behind an LRU cache with a byte budget
//     (memory_estimate_bytes ranks contexts; eviction drops *contexts*,
//     never registered graphs or their repartition chains — graphs
//     leave only via evict_graph),
//   * per-graph FIFO lanes with request batching: execute() admits the
//     request to its graph's lane (bounded: backpressure), and the
//     waiting callers serve the lanes themselves — a caller whose lane is
//     idle takes the ready lane with the oldest front request, swaps out
//     its whole queue as one batch, and serves it back to back on the
//     graph's warm context (the group-commit shape), releasing each
//     response the moment that request finishes,
//   * per-request isolation: each request's outcome — including
//     DeadlineExceeded, Cancelled, injected faults, and allocation
//     failure — is caught at the request boundary and returned as a typed
//     ServiceResponse; the context the request ran on stays cached and
//     healthy (the PR 6 fault-injection fuzz pins that contexts survive
//     every such exception).
//
// Concurrency shape: the callers supply every thread — there is no
// service pool.  Up to num_workers lanes are in service at once, each
// by one caller, so different graphs run in parallel while a graph's
// requests run serially in arrival order (contexts are exclusive
// resources, ExclusiveUse, and repartition chains see their deltas in
// order).  A free slot never waits while a lane has queued work: the
// callers of a ready lane are awake and eligible to take it.  A request
// with num_threads > 1 forks on its context's own pool from the serving
// caller's thread; its answer is bit-identical to num_threads == 1.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/context.hpp"
#include "core/fast.hpp"
#include "util/latency.hpp"

namespace mmd {

/// Typed outcome of one service request.  Every library exception a
/// request can raise maps onto exactly one of these (docs/API.md, "Error
/// model"); the service itself never throws out of execute().
enum class ServiceStatus {
  Ok,                ///< request served; full guarantees
  Degraded,          ///< fast-mode deadline after the coarse level;
                     ///< best-effort coloring + certificate (not an error)
  BadRequest,        ///< invalid_argument / ParseError: caller misuse
  NotFound,          ///< request names a graph that is not loaded
  DeadlineExceeded,  ///< ExecControl deadline hit (retryable)
  Cancelled,         ///< the request's CancelToken fired
  ResourceExhausted, ///< std::bad_alloc during the request
  InternalError,     ///< InvariantViolation / injected fault / unknown
  ShuttingDown,      ///< service closed before the request was admitted
};

/// Stable lowercase identifier ("ok", "bad_request", ...) used by the
/// JSONL protocol and logs.
const char* to_string(ServiceStatus status);

enum class RequestMode {
  Decompose,    ///< full Theorem 4 pipeline (DecomposeContext)
  Fast,         ///< multilevel fast mode (FastContext)
  Repartition,  ///< incremental solve seeded from the graph's cached prior
                ///< (DecomposeContext::repartition; see `deltas`)
};

/// One decomposition request against a registered graph.
struct ServiceRequest {
  std::string graph;  ///< registry name (see PartitionService::load_graph)
  RequestMode mode = RequestMode::Decompose;
  /// Pipeline knobs.  `options.exec.cancel` is honored (borrowed; must
  /// outlive the request); `options.exec.deadline` is honored as an
  /// absolute deadline, and `timeout_ms` below is the relative form.
  /// `options.diagnostics` is ignored — the service wires its own sink.
  DecomposeOptions options;
  /// Relative deadline, armed when the request *starts executing* (not
  /// when it is enqueued), so queueing delay does not eat the budget.
  /// < 0 = none.  Combines with options.exec.deadline: the earlier wins.
  long timeout_ms = -1;
  /// Vertex weights; empty = the graph's registered weights.  Must stay
  /// empty for RequestMode::Repartition (drift is expressed via `deltas`;
  /// mixing both is a BadRequest).
  std::vector<double> weights;
  /// Weight deltas of a Repartition request, applied to the graph's
  /// repartition chain before solving.  The chain's base weights are bound
  /// from the registered weights on the first repartition; the chain
  /// belongs to the graph, not to its context, so it survives context
  /// eviction (only a reload of the graph restarts it).  Deltas carry absolute
  /// weights and the context clears its dirty set only on success, so a
  /// request that fails with a retryable status (deadline, cancel,
  /// resource_exhausted) leaves the chain consistent: re-sending the same
  /// request returns the bit-identical result of an unfaulted first try.
  std::vector<WeightDelta> deltas;
  // Fast-mode knobs (RequestMode::Fast only); defaults match FastOptions.
  int fast_coarse_target = 4096;
  int fast_max_levels = 24;
  int fast_refine_passes = 4;
  std::uint64_t fast_seed = 0xfa57;
};

struct ServiceResponse {
  ServiceStatus status = ServiceStatus::InternalError;
  std::string error;  ///< exception what() when !ok()
  // Valid when ok():
  Coloring coloring;
  BalanceReport balance;
  double max_boundary = 0.0;
  double avg_boundary = 0.0;
  bool warm = false;      ///< the serving context existed before this request
  bool degraded = false;  ///< fast-mode best-effort result (status Degraded)
  double seconds = 0.0;   ///< service-side execution time (excludes queueing)
  // Repartition outcome (RequestMode::Repartition only):
  long migration_cost = -1;  ///< vertices that changed class vs the prior
  bool incremental = false;  ///< served by the repair + seeded path
  bool escalated = false;    ///< certificate fired; full solve served
  Escalation escalation = Escalation::None;  ///< why, when escalated

  bool ok() const {
    return status == ServiceStatus::Ok || status == ServiceStatus::Degraded;
  }
};

/// Aggregate counters; stats() returns a consistent snapshot.
struct ServiceStats {
  long requests = 0;        ///< requests executed (admitted and run)
  long ok = 0;              ///< status Ok or Degraded
  long errors = 0;          ///< everything else
  long cache_hits = 0;      ///< requests served by a pre-existing context
  long cache_misses = 0;    ///< requests that had to build their context
  long context_evictions = 0;  ///< contexts dropped by the byte budget
  long rounds = 0;          ///< lane batches served (one graph each)
  long batched_requests = 0;   ///< requests that shared a lane batch with others
  long repartitions = 0;           ///< Repartition requests executed
  long repartition_escalations = 0;  ///< of those, escalated to full solves
  EscalationCounts escalation_reasons;  ///< those escalations by reason
  std::size_t cached_bytes = 0;   ///< current context-budget usage
  /// Registered graphs with their weights and repartition chains: outside
  /// the context budget, never evicted.
  std::size_t graph_bytes = 0;
  std::size_t graphs_loaded = 0;  ///< registry size
  std::size_t queued = 0;  ///< requests admitted, not yet taken into a batch
  /// Execution time per request (start of service to response).
  double p50_seconds = 0.0, p95_seconds = 0.0, p99_seconds = 0.0;
  /// Queue wait per request (admission to start of service).
  double queue_wait_p50_seconds = 0.0, queue_wait_p95_seconds = 0.0,
         queue_wait_p99_seconds = 0.0;

  double hit_rate() const {
    const long total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

struct PartitionServiceOptions {
  /// Byte budget for cached contexts (memory_estimate_bytes sum).  When a
  /// finished lane batch pushes the total past the budget, cold (least
  /// recently used, unpinned) graphs lose their contexts until the total
  /// fits; the graphs themselves stay registered.  A single context
  /// larger than the whole budget is still admitted while in use and
  /// evicted at the next opportunity — the budget bounds *retained* warm
  /// state, it never fails a request.
  std::size_t context_budget_bytes = std::size_t(256) << 20;
  /// Admission bound: execute() blocks (backpressure) while this many
  /// requests are queued on the lanes, not yet taken into a batch.
  std::size_t queue_capacity = 256;
  /// Most graph lanes in service at once, each served by one of its own
  /// waiting callers (the service starts no threads); 1 = one batch at a
  /// time.  Independent of (and composing with) per-request
  /// DecomposeOptions::num_threads.
  int num_workers = 1;
};

/// See the file comment.  Thread safety: every public method may be
/// called from any thread at any time, except the destructor, which
/// requires that no execute() call is in flight (join your clients
/// first — the usual server teardown order).
class PartitionService {
 public:
  explicit PartitionService(const PartitionServiceOptions& options = {});
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Register `g` under `name` (replacing any previous graph of that
  /// name, contexts included).  `weights` empty = the graph's embedded
  /// vertex weights, or all-ones if it has none.
  /// \throws std::invalid_argument on a weight arity mismatch
  void load_graph(const std::string& name, Graph g,
                  std::vector<double> weights = {});
  /// read_metis_file + load_graph.  Propagates ParseError untouched.
  void load_graph_file(const std::string& name, const std::string& path);
  /// Unregister `name` (graph + contexts).  A graph pinned by an
  /// in-flight batch is unlinked immediately and destroyed when the batch
  /// finishes.  Returns false if no such graph was loaded.
  bool evict_graph(const std::string& name);
  bool has_graph(const std::string& name) const;

  /// Execute one request: admit it to its graph's lane (blocking while
  /// queue_capacity requests are queued), serve lane batches until it is
  /// done, return the typed outcome.  Never throws a library error — see
  /// ServiceStatus.  Safe from any number of client threads.
  ServiceResponse execute(const ServiceRequest& request);

  ServiceStats stats() const;

  /// The service-owned diagnostics sink every request reports into.
  DecomposeDiagnostics& diagnostics() { return diag_; }

  /// Stop admitting (queued and in-flight requests still complete; new
  /// execute() calls return ShuttingDown) and wait for every lane to
  /// drain.  Idempotent; the destructor calls it.
  void shutdown();

 private:
  /// One registered graph and its (lazily built) warm contexts.
  struct GraphState {
    std::string name;
    Graph graph;
    std::vector<double> weights;  ///< default weights of the graph
    /// Owned here and lent to ctx, so it outlives every evicted context.
    RepartitionChain chain;
    std::unique_ptr<DecomposeContext> ctx;
    std::unique_ptr<FastContext> fctx;
    std::size_t cached_bytes = 0;  ///< last accounted context estimate
    std::size_t graph_bytes = 0;   ///< last accounted pinned_bytes()
    int pins = 0;                  ///< batches currently using this graph
    std::uint64_t last_use = 0;    ///< LRU tick
    bool doomed = false;           ///< evicted while pinned; free on unpin

    /// Graph, weights and chain: the bytes no eviction frees.
    std::size_t pinned_bytes() const {
      return graph.memory_bytes() + weights.capacity() * sizeof(double) +
             chain.memory_bytes();
    }
  };

  struct Pending;
  /// One graph's FIFO of admitted requests.  A lane exists while it has
  /// queued requests or a batch in service.
  struct Lane {
    std::vector<Pending*> queue;  ///< swapped out whole as one batch
    bool active = false;          ///< a caller is serving a batch of it
  };
  /// Node-based, so a lane's iterator stays valid while other lanes come
  /// and go.
  using Lanes = std::map<std::string, Lane>;

  /// A client's admitted request (stack-owned by its execute() frame).
  struct Pending {
    const ServiceRequest* request = nullptr;
    Lanes::iterator lane;  ///< valid until done
    std::uint64_t seq = 0;  ///< admission order across lanes
    ExecControl::Clock::time_point admitted;
    ServiceResponse response;
    bool done = false;
  };

  /// Take `lane`'s whole queue as one batch and serve it on the graph's
  /// warm context.  Called and returns with `lock` (on mu_) held.
  void serve_batch(std::unique_lock<std::mutex>& lock, Lanes::iterator lane);
  /// Serve one request on `gs` (null = graph not loaded), mapping every
  /// request failure to a typed status.
  void execute_one(GraphState* gs, Pending& p);
  /// Unlink accounting of an unregistered state, checkin, and LRU
  /// eviction; all under cache_mu_.
  void unlink_locked(GraphState& gs);
  void checkin_locked(GraphState& gs);
  void evict_until_within_budget_locked();

  const PartitionServiceOptions options_;
  DecomposeDiagnostics diag_;

  // Lanes.  mu_ guards every lane, the counters below and every
  // Pending::done flag.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Lanes lanes_;
  std::size_t queued_ = 0;  ///< admitted requests not yet in a batch
  int active_ = 0;          ///< lanes in service
  std::uint64_t seq_ = 0;
  bool shutdown_ = false;

  // Graph registry + context cache.
  mutable std::mutex cache_mu_;
  std::unordered_map<std::string, std::shared_ptr<GraphState>> graphs_;
  std::size_t cached_bytes_ = 0;
  std::size_t graph_bytes_ = 0;
  std::uint64_t lru_tick_ = 0;
  long evictions_ = 0;

  // Counters + latency reservoirs.
  mutable std::mutex stats_mu_;
  ServiceStats stats_;
  LatencyRecorder latency_;
  LatencyRecorder queue_wait_;
};

}  // namespace mmd
