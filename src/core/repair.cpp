#include "core/repair.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/norms.hpp"

namespace mmd {

namespace {

/// One candidate move: `v` leaves its class for `to`, changing the total
/// cut by `rise` (negative = the cut shrinks).
struct Move {
  Vertex v = -1;
  std::int32_t to = -1;
  double rise = 0.0;

  /// Least rise first, then vertex id, then class id.
  bool beats(const Move& o) const {
    if (o.v < 0) return true;
    if (rise != o.rise) return rise < o.rise;
    if (v != o.v) return v < o.v;
    return to < o.to;
  }
};

class Repairer {
 public:
  Repairer(const Graph& g, Coloring& chi, std::span<const double> w,
           RefineWorkspace& ws)
      : g_(g), chi_(chi), w_(w), ws_(ws), n_(g.num_vertices()), k_(chi.k) {
    const auto k = static_cast<std::size_t>(k_);
    if (ws_.cw.size() < k) ws_.cw.resize(k);
    if (ws_.toward.size() < k) ws_.toward.resize(k);
    if (ws_.touched.size() < k) ws_.touched.resize(k);
    if (ws_.class_seen.size() < k) {
      ws_.class_seen.assign(k, 0);
      ws_.class_epoch = 0;
    }
    ws_.moved.clear();
    avg_ = norm1(w_) / k_;
    bound_ = (1.0 - 1.0 / k_) * norm_inf(w_);
    lo_ = avg_ - bound_;
    hi_ = avg_ + bound_;
  }

  RepairStats run(long max_moves) {
    RepairStats st;
    if (!std::isfinite(avg_)) return st;
    resum();
    bool fresh = true;  // cw holds freshly summed class weights
    for (;;) {
      std::int32_t c = 0;
      for (std::int32_t i = 1; i < k_; ++i)
        if (dev(i) > dev(c)) c = i;
      if (dev(c) <= bound_) {
        // Incremental sums can round across the window edge; only fresh
        // sums, the ones balance_report computes, decide success.
        if (fresh) {
          st.ok = true;
          return st;
        }
        resum();
        fresh = true;
        continue;
      }
      if (st.moves >= max_moves) return st;
      const Move m = cw(c) > avg_ ? best_shed(c) : best_pull(c);
      if (m.v < 0) return st;  // stuck
      const std::int32_t from = chi_[m.v];
      chi_[m.v] = m.to;
      cw(from) -= weight(m.v);
      cw(m.to) += weight(m.v);
      ws_.moved.push_back(m.v);
      ++st.moves;
      fresh = false;
    }
  }

 private:
  double& cw(std::int32_t c) { return ws_.cw[static_cast<std::size_t>(c)]; }
  double dev(std::int32_t c) { return std::abs(cw(c) - avg_); }
  double weight(Vertex v) const { return w_[static_cast<std::size_t>(v)]; }

  void resum() {
    std::fill_n(ws_.cw.begin(), k_, 0.0);
    for (Vertex v = 0; v < n_; ++v) cw(chi_[v]) += weight(v);
  }

  /// Overfull class c: the cheapest boundary vertex of c to hand to an
  /// adjacent class.
  Move best_shed(std::int32_t c) {
    Move best;
    for (Vertex v = 0; v < n_; ++v) {
      if (chi_[v] != c) continue;
      const double wv = weight(v);
      if (!(wv > 0.0) || cw(c) - wv < lo_) continue;
      if (++ws_.class_epoch == 0) {
        std::fill(ws_.class_seen.begin(), ws_.class_seen.end(), 0u);
        ws_.class_epoch = 1;
      }
      const std::uint32_t epoch = ws_.class_epoch;
      int ntouch = 0;
      for (const HalfEdge& h : g_.incidence(v)) {
        const auto d = static_cast<std::size_t>(chi_[h.to]);
        if (ws_.class_seen[d] != epoch) {
          ws_.class_seen[d] = epoch;
          ws_.toward[d] = 0.0;
          ws_.touched[static_cast<std::size_t>(ntouch++)] = chi_[h.to];
        }
        ws_.toward[d] += h.cost;
      }
      const auto cs = static_cast<std::size_t>(c);
      const double own = ws_.class_seen[cs] == epoch ? ws_.toward[cs] : 0.0;
      for (int t = 0; t < ntouch; ++t) {
        const std::int32_t d = ws_.touched[static_cast<std::size_t>(t)];
        if (d == c || cw(d) + wv > hi_) continue;
        const Move m{v, d, own - ws_.toward[static_cast<std::size_t>(d)]};
        if (m.beats(best)) best = m;
      }
    }
    return best;
  }

  /// Underfull class c: the cheapest foreign neighbour of c to pull in.
  /// A candidate adjacent to several members of c is evaluated once per
  /// member, always to the same move, which the tie order absorbs.
  Move best_pull(std::int32_t c) {
    Move best;
    for (Vertex v = 0; v < n_; ++v) {
      if (chi_[v] != c) continue;
      for (const HalfEdge& e : g_.incidence(v)) {
        const Vertex u = e.to;
        const std::int32_t d = chi_[u];
        if (d == c) continue;
        const double wu = weight(u);
        if (!(wu > 0.0) || cw(d) - wu < lo_ || cw(c) + wu > hi_) continue;
        double to_c = 0.0, to_d = 0.0;
        for (const HalfEdge& h : g_.incidence(u)) {
          const std::int32_t x = chi_[h.to];
          if (x == c) to_c += h.cost;
          if (x == d) to_d += h.cost;
        }
        const Move m{u, c, to_d - to_c};
        if (m.beats(best)) best = m;
      }
    }
    return best;
  }

  const Graph& g_;
  Coloring& chi_;
  std::span<const double> w_;
  RefineWorkspace& ws_;
  Vertex n_;
  std::int32_t k_;
  double avg_ = 0.0, bound_ = 0.0, lo_ = 0.0, hi_ = 0.0;
};

}  // namespace

RepairStats repair_balance(const Graph& g, Coloring& chi,
                           std::span<const double> w, long max_moves,
                           RefineWorkspace& ws) {
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices() &&
                  chi.num_vertices() == g.num_vertices(),
              "repair_balance arity mismatch");
  return Repairer(g, chi, w, ws).run(max_moves);
}

}  // namespace mmd
