// The epsilon-shrinking procedure (Section 5, Definition 13, Lemma 14).
//
// Input: a weakly balanced k-coloring chi of a vertex set W.  Output: two
// partial colorings chi0 (on W0) and chi1 (on W1) with W0 + W1 = W where
//   a) chi0 is almost strictly balanced with class weights in
//      [eps * Psi*, eps * Psi* + ||w||_inf]  (Psi* = w(W)/k),
//   b) chi1 is weakly balanced and every tracked quantity — the splitting
//      cost measure pi, the residual graph size (deg_W measure), and the
//      boundary costs — shrinks geometrically,
//   c) |G[W1]| <= (1 - Theta(eps)) |G[W]|.
//
// Procedure Shrink = CutDown* ; AddTo* ; ReduceBuffer* ; per-class
// Corollary-18 extraction.  CutDown peels cheap parts (Cor. 16) off
// over-heavy classes into a buffer; AddTo tops up under-light classes from
// the buffer (or from a heavy donor, Cor. 17); ReduceBuffer drains
// leftovers onto below-average classes; finally every class donates a
// "hitting" part (Cor. 18) that becomes its W0 class, guaranteeing the
// geometric decrease on W1.
#pragma once

#include "core/parts.hpp"
#include "graph/coloring.hpp"

namespace mmd {

struct ShrinkParams {
  double eps = 0.35;  ///< part size as a fraction of the average class weight
  double M = 8.0;     ///< weak-balance multiplier (raised to fit the input)
};

struct ShrinkOutput {
  int k = 0;      ///< number of colors
  Vertex n = 0;   ///< vertices of the graph the colorings range over
  std::vector<Vertex> w0, w1;
  std::vector<std::int32_t> c0;  ///< chi0 in compact form: color of w0[i]
  Coloring chi1;  ///< partial coloring: colored exactly on W1
  double cut_cost = 0.0;

  /// chi0 as a partial coloring of the whole graph (colored exactly on
  /// W0).  Built on demand: the recursion keeps only the compact form
  /// alive, so its levels do not each pin an n-sized coloring.
  Coloring chi0() const;
};

/// One shrinking step.  `w_list` is W; `chi` must color exactly W (all
/// other vertices kUncolored); its storage is reused for the returned
/// chi1, so a caller that moves it in pays no n-sized allocation.  `pi` is
/// the splitting cost measure.  `preserve` are additional measures the
/// moved parts should stay light in (the Conclusion's multi-balanced
/// variant feeds the user measures here).
///
/// Parallelism: step (5)'s per-class extractions are independent, so when
/// a thread pool is reachable through the splitter (and the caller is not
/// itself a pooled task) they fan out over L = min(pool threads, k)
/// splitter lanes — lane j extracts classes j, j+L, ... on its own lane
/// workspace — and merge in class order on the calling thread.  The
/// output is bit-identical for every thread count; the serial path is the
/// same loop with L = 1.
ShrinkOutput shrink_once(const Graph& g, std::span<const Vertex> w_list,
                         Coloring chi, std::span<const double> w,
                         std::span<const double> pi, ISplitter& splitter,
                         const ShrinkParams& params = {},
                         std::span<const MeasureRef> preserve = {},
                         DecomposeWorkspace* ws = nullptr);

}  // namespace mmd
