// Reusable scratch arenas for the decomposition pipeline.
//
// The recursive phases (rebalance, shrink-and-conquer, multi_split,
// binpack) all need graph-sized Membership markers and class-sized cost
// vectors.  Allocating them per recursion level turns the paper's
// O(t(|G|) log k) running time into an allocator benchmark; a
// DecomposeWorkspace owns a pool of these objects so that every level —
// and every repeated decompose() call that reuses the workspace — runs
// allocation-free in steady state.  Leases are RAII: the object returns to
// the pool at scope exit, which matches the recursion's stack discipline.
//
// The split-evaluation scratch (SweepEval engines, evaluation slots,
// ordering/radix buffers) deliberately lives inside the splitter and its
// lanes rather than here: a splitter is already the unit that one
// concurrent task owns exclusively (ISplitter::make_lane), so keeping its
// scratch with it preserves the one-arena-per-task discipline the lane
// workspaces below establish for the recursion's own buffers — and split()
// stays allocation-free in steady state (pinned by the counting-allocator
// test in tests/test_prefix_split_alloc.cpp) without any cross-wiring.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "graph/subgraph.hpp"

namespace mmd {

struct MultiSplitTreeScratch;  // multi_split.hpp; owned via tree_scratch()

/// Scratch state of the min-max refinement engines (refine.hpp).  All
/// buffers grow monotonically; repeated refinement of instances of the
/// same size performs no heap allocation after the first call.
struct RefineWorkspace {
  std::vector<double> bc;                 ///< per-class boundary costs
  std::vector<double> cw;                 ///< per-class weights
  std::vector<double> toward;             ///< per-class incident edge mass
  std::vector<std::int32_t> touched;      ///< classes seen around a vertex
  std::vector<std::uint32_t> class_seen;  ///< epoch stamps over classes
  std::uint32_t class_epoch = 0;
  std::vector<Vertex> queue;              ///< per-round boundary seeds
  std::vector<Vertex> heap;               ///< id-ordered re-enqueue heap
  std::vector<Vertex> dirty;              ///< vertices dirtied this round
  std::vector<Vertex> cand;               ///< seed candidates, next round
  std::vector<std::uint32_t> in_queue;    ///< epoch stamps over vertices
  std::uint32_t queue_epoch = 0;
  // Scratch of the incremental repartition path (repair_balance and
  // try_incremental_repartition).  The Refiner itself never touches these
  // two, so the seed built here can be passed into minmax_refine by span
  // while the same workspace serves the refinement.
  std::vector<Vertex> moved;  ///< vertices repair_balance moved, in order
  std::vector<Vertex> seed;   ///< dirty region handed to round 0
};

/// Vertex-indexed scratch of one shrink_once call (shrink.hpp): the
/// deg_W and boundary extraction measures and the class-id map the
/// boundary measure is computed from.  Sized to n on first use and reused,
/// so strictify's working memory stays O(n) in total instead of O(n) per
/// level.  Only entries of the current W are meaningful.
struct ShrinkWorkspace {
  std::vector<double> deg;                ///< deg_W measure
  std::vector<double> bnd;                ///< per-class boundary measure
  std::vector<std::int32_t> class_of;     ///< current class of v in W
};

class DecomposeWorkspace {
 public:
  // Both out-of-line (workspace.cpp): tree_scratch_ points to a type
  // that is incomplete here.
  DecomposeWorkspace();
  ~DecomposeWorkspace();
  // Non-copyable: leases hold stable pointers into the pool.
  DecomposeWorkspace(const DecomposeWorkspace&) = delete;
  DecomposeWorkspace& operator=(const DecomposeWorkspace&) = delete;

  /// RAII lease of a pooled Membership, cleared and sized for n vertices.
  class MembershipLease {
   public:
    MembershipLease(DecomposeWorkspace& ws, Vertex n) : ws_(ws), m_(ws.acquire(n)) {}
    ~MembershipLease() { ws_.release(m_); }
    MembershipLease(const MembershipLease&) = delete;
    MembershipLease& operator=(const MembershipLease&) = delete;
    Membership& operator*() const { return *m_; }
    Membership* operator->() const { return m_; }

   private:
    DecomposeWorkspace& ws_;
    Membership* m_;
  };

  /// Lease a Membership able to mark vertices 0..n-1 (empty on acquire).
  MembershipLease membership(Vertex n) { return MembershipLease(*this, n); }

  /// RAII lease of a pooled vertex-list buffer (empty on acquire, capacity
  /// kept across leases).  The recursive phases use these for sub-instance
  /// vertex lists that do not escape their recursion level — multi_split's
  /// complement halves being the prime case — so levels reuse capacity
  /// instead of allocating a fresh vector each.
  class VertexListLease {
   public:
    explicit VertexListLease(DecomposeWorkspace& ws)
        : ws_(ws), v_(ws.acquire_list()) {}
    ~VertexListLease() { ws_.release_list(v_); }
    VertexListLease(const VertexListLease&) = delete;
    VertexListLease& operator=(const VertexListLease&) = delete;
    std::vector<Vertex>& operator*() const { return *v_; }
    std::vector<Vertex>* operator->() const { return v_; }

   private:
    DecomposeWorkspace& ws_;
    std::vector<Vertex>* v_;
  };

  /// Lease a cleared vertex-list buffer.
  VertexListLease vertex_list() { return VertexListLease(*this); }

  /// Arena of deterministic fork-join lane `i` (multi_split's lane tree):
  /// each concurrent task leases from its own child workspace, so the
  /// lane pools are never touched from two threads.  The pool is sized by
  /// use — the lane tree materializes workspaces 0..2^fork_depth-1 before
  /// forking — created on demand and persistent, which keeps repeated
  /// forked calls allocation-free in steady state.  Call from the
  /// orchestration thread (before forking), never from inside a pooled
  /// task.
  DecomposeWorkspace& lane_workspace(int i) {
    while (static_cast<std::size_t>(i) >= lane_ws_.size())
      lane_ws_.push_back(std::make_unique<DecomposeWorkspace>());
    return *lane_ws_[static_cast<std::size_t>(i)];
  }

  /// Index-addressed persistent vertex-list slot `i` of multi_split's lane
  /// tree (one per tree node).  Unlike the LIFO vertex_list() leases these
  /// are keyed by position: the orchestration thread materializes every
  /// slot before forking a level (growth mutates the table below, which
  /// must never happen concurrently) and each pooled task then fills only
  /// the slots of its own children.  Slots keep their capacity across
  /// calls, so the steady-state tree expansion reuses buffers instead of
  /// allocating per level.
  std::vector<Vertex>& tree_list(std::size_t i) {
    while (tree_lists_.size() <= i)
      tree_lists_.push_back(std::make_unique<std::vector<Vertex>>());
    return *tree_lists_[i];
  }

  /// Persistent bookkeeping of the multi_split lane-tree driver (pointer
  /// tables, per-node split costs, per-leaf results — see
  /// MultiSplitTreeScratch in multi_split.hpp): created on the first
  /// forked call and reused, so a warm forked multi_split performs no
  /// driver-side allocation.  Orchestration thread only.
  MultiSplitTreeScratch& tree_scratch();

  /// Heap footprint of every pool this workspace owns (memberships, list
  /// buffers, lane workspaces recursively, tree slots, refine and shrink
  /// scratch).
  /// Grows monotonically with use, like the pools themselves; the service
  /// context cache reads it at request checkin to account warm state
  /// against its byte budget.
  std::size_t memory_bytes() const;

  RefineWorkspace refine;
  ShrinkWorkspace shrink;

 private:
  friend class MembershipLease;
  friend class VertexListLease;

  Membership* acquire(Vertex n) {
    if (free_.empty()) {
      owned_.push_back(std::make_unique<Membership>(n));
      free_.push_back(owned_.back().get());
    }
    Membership* m = free_.back();
    free_.pop_back();
    m->ensure(n);
    m->clear();
    return m;
  }
  void release(Membership* m) { free_.push_back(m); }

  std::vector<Vertex>* acquire_list() {
    if (free_lists_.empty()) {
      owned_lists_.push_back(std::make_unique<std::vector<Vertex>>());
      free_lists_.push_back(owned_lists_.back().get());
    }
    std::vector<Vertex>* v = free_lists_.back();
    free_lists_.pop_back();
    v->clear();
    return v;
  }
  void release_list(std::vector<Vertex>* v) { free_lists_.push_back(v); }

  std::vector<std::unique_ptr<Membership>> owned_;
  std::vector<Membership*> free_;
  std::vector<std::unique_ptr<std::vector<Vertex>>> owned_lists_;
  std::vector<std::vector<Vertex>*> free_lists_;
  std::vector<std::unique_ptr<DecomposeWorkspace>> lane_ws_;
  std::vector<std::unique_ptr<std::vector<Vertex>>> tree_lists_;
  std::unique_ptr<MultiSplitTreeScratch> tree_scratch_;
};

}  // namespace mmd
