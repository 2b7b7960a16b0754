// Local balance repair: bring a coloring that drifted a few ||w||_inf
// outside the Definition 1 window back inside it with single-vertex moves.
//
// Boundary cost does not depend on the weights, so when only the weights
// change, the previous coloring is still as good a cut as it was; only its
// class sums are off.  repair_balance restores strict balance without
// re-solving.  Each step takes the class that deviates most from W/k
// (lowest id on ties).  An overfull class hands one of its boundary
// vertices to an adjacent class; an underfull class pulls in a vertex of an
// adjacent class.  A move may not push either class out of the window on
// the side it moves toward (the donor stays >= W/k - bound, the receiver
// <= W/k + bound), and zero-weight vertices never move.  Among the allowed
// moves the one that raises the total cut least wins, ties broken by
// vertex id, then class id.  The steps repeat until every class is within
// the window under freshly summed class weights — the same sums
// balance_report computes — or until the repair is stuck or out of moves.
//
// Serial and deterministic: the result depends only on (g, chi, w,
// max_moves), never on threads or on the workspace's history.
#pragma once

#include "core/workspace.hpp"
#include "graph/coloring.hpp"

namespace mmd {

/// Outcome of one repair_balance call.
struct RepairStats {
  bool ok = false;  ///< every class within the strict window on exit
  long moves = 0;   ///< vertex moves applied (a vertex may move twice)
};

/// Repair the balance of a total coloring in place.
///
/// \param g         host graph
/// \param chi       total k-coloring; moved vertices change class in place
///                  (on failure chi holds the moves made so far)
/// \param w         vertex weights the window is measured against
/// \param max_moves move budget; the call fails when it is spent
/// \param ws        scratch: the moved vertices are left in ws.moved in
///                  move order; cw, toward, touched and class_seen are
///                  borrowed the way minmax_refine uses them (both
///                  reinitialize them on entry)
/// \return ok = true iff balance_report(w, chi).max_dev <= strict_bound
///         with no slack
RepairStats repair_balance(const Graph& g, Coloring& chi,
                           std::span<const double> w, long max_moves,
                           RefineWorkspace& ws);

}  // namespace mmd
