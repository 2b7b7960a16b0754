#include "core/shrink.hpp"

#include <algorithm>
#include <cmath>

#include "graph/subgraph.hpp"
#include "util/thread_pool.hpp"

namespace mmd {

namespace {

/// Step (5)'s lane count: the pool's threads, capped at one lane per
/// class, when the caller may fork (a pool with workers, not already
/// inside a pooled task) and the splitter supports lanes — ensure_lanes
/// reports the unsupported case once instead of silently serializing.
int extraction_lanes(ISplitter& splitter, int k) {
  const ThreadPool* pool = splitter.thread_pool();
  if (pool == nullptr || pool->num_threads() <= 1 ||
      ThreadPool::on_worker_thread())
    return 1;
  const int lanes = std::min(pool->num_threads(), k);
  return lanes > 1 && splitter.ensure_lanes(lanes) ? lanes : 1;
}

/// Apply `body` to `lanes` contiguous blocks of `w_list`, concurrently
/// when lanes > 1.  Only for vertex passes in which each vertex's result
/// depends on shared read-only state alone and lands in its own entry, so
/// neither the blocking nor the schedule can change it.
template <typename Body>
void for_vertex_blocks(ThreadPool* pool, int lanes,
                       std::span<const Vertex> w_list, const Body& body) {
  if (lanes == 1) {
    body(w_list);
    return;
  }
  pool->run(lanes, [&](int j) {
    const std::size_t begin = w_list.size() * static_cast<std::size_t>(j) /
                              static_cast<std::size_t>(lanes);
    const std::size_t end = w_list.size() * static_cast<std::size_t>(j + 1) /
                            static_cast<std::size_t>(lanes);
    body(w_list.subspan(begin, end - begin));
  });
}

}  // namespace

Coloring ShrinkOutput::chi0() const {
  Coloring out(k, n);
  for (std::size_t i = 0; i < w0.size(); ++i) out[w0[i]] = c0[i];
  return out;
}

ShrinkOutput shrink_once(const Graph& g, std::span<const Vertex> w_list,
                         Coloring chi, std::span<const double> w,
                         std::span<const double> pi, ISplitter& splitter,
                         const ShrinkParams& params,
                         std::span<const MeasureRef> preserve,
                         DecomposeWorkspace* ws) {
  DecomposeWorkspace local_ws;
  DecomposeWorkspace& wsr = ws ? *ws : local_ws;
  MMD_REQUIRE(params.eps > 0.0 && params.eps < 1.0, "eps in (0,1)");
  const int k = chi.k;
  MMD_REQUIRE(k >= 1, "coloring must have k >= 1");
  const Vertex n = g.num_vertices();
  MMD_REQUIRE(chi.num_vertices() == n, "coloring arity mismatch");

  const double total = set_measure(w, w_list);
  const double psi_star = total / k;
  MMD_REQUIRE(psi_star > 0.0, "shrink needs positive total weight");
  const double eps = params.eps;

  // Vertex-indexed scratch, shared by every class: only entries of W are
  // ever written or read, so stale entries from earlier calls are inert.
  ShrinkWorkspace& sw = wsr.shrink;
  if (sw.deg.size() < static_cast<std::size_t>(n)) {
    sw.deg.resize(static_cast<std::size_t>(n));
    sw.bnd.resize(static_cast<std::size_t>(n));
    sw.class_of.resize(static_cast<std::size_t>(n));
  }
  std::span<std::int32_t> class_of(sw.class_of.data(), static_cast<std::size_t>(n));
  const auto in_w = wsr.membership(n);
  in_w->assign(w_list);

  // Tentative classes of chi~ restricted to W.
  std::vector<std::vector<Vertex>> cls(static_cast<std::size_t>(k));
  for (Vertex v : w_list) {
    const std::int32_t c = chi[v];
    MMD_REQUIRE(c >= 0 && c < k, "chi must color exactly W");
    cls[static_cast<std::size_t>(c)].push_back(v);
    class_of[static_cast<std::size_t>(v)] = c;
  }
  std::vector<double> cw(static_cast<std::size_t>(k), 0.0);
  for (int i = 0; i < k; ++i) cw[static_cast<std::size_t>(i)] = set_measure(w, cls[static_cast<std::size_t>(i)]);

  // Raise M if the input is more unbalanced than the caller promised.
  double big_m = params.M;
  for (double x : cw) big_m = std::max(big_m, 2.0 * x / psi_star + 1.0);

  // deg_W measure: degree of v inside G[W] (Section 5 uses it to force the
  // geometric size decrease of condition (c)).  Like the boundary pass of
  // step (5), it runs in blocks on the step (5) lanes' threads.
  const int lanes = extraction_lanes(splitter, k);
  for_vertex_blocks(splitter.thread_pool(), lanes, w_list,
                    [&](std::span<const Vertex> block) {
                      for (Vertex v : block) {
                        int d = 0;
                        for (Vertex u : g.neighbors_unchecked(v))
                          if (in_w->contains(u)) ++d;
                        sw.deg[static_cast<std::size_t>(v)] = d;
                      }
                    });

  ShrinkOutput out;
  out.k = k;
  out.n = n;
  auto erase_part = [&](int color, std::span<const Vertex> part) {
    for (Vertex v : part) class_of[static_cast<std::size_t>(v)] = kUncolored;
    std::erase_if(cls[static_cast<std::size_t>(color)], [&](Vertex v) {
      return class_of[static_cast<std::size_t>(v)] != color;
    });
    cw[static_cast<std::size_t>(color)] -= set_measure(w, part);
  };
  auto paint_part = [&](int color, std::vector<Vertex> part) {
    const double pw = set_measure(w, part);
    for (Vertex v : part) class_of[static_cast<std::size_t>(v)] = color;
    auto& c = cls[static_cast<std::size_t>(color)];
    c.insert(c.end(), part.begin(), part.end());
    cw[static_cast<std::size_t>(color)] += pw;
  };

  // The three extraction measures of Section 5: Phi(1) = pi, Phi(2) =
  // deg_W, and the boundary measure of the donor class (Cor. 16-18's
  // Phi(r)).  Extraction reads a measure only inside the donor class, so
  // the shared boundary array needs refreshing only there.
  const MeasureRef deg_w(sw.deg.data(), static_cast<std::size_t>(n));
  const std::span<double> bnd(sw.bnd.data(), static_cast<std::size_t>(n));
  std::vector<MeasureRef> aux{pi, deg_w, bnd};
  aux.insert(aux.end(), preserve.begin(), preserve.end());
  auto refresh_boundary = [&](int donor) {
    boundary_measure_by_class(g, cls[static_cast<std::size_t>(donor)], *in_w,
                              class_of, bnd);
  };

  std::vector<std::vector<Vertex>> buffer;

  // Step (2): CutDown heavy classes to <= M/2 * Psi*.
  for (int i = 0; i < k; ++i) {
    int guard = 0;
    while (cw[static_cast<std::size_t>(i)] > big_m / 2.0 * psi_star) {
      MMD_REQUIRE(++guard < 4 * static_cast<int>(w_list.size()) + 16,
                  "CutDown diverged");
      refresh_boundary(i);
      ExtractedPart x = extract_light_part(g, cls[static_cast<std::size_t>(i)], w,
                                           eps * psi_star, aux, splitter, &wsr);
      out.cut_cost += x.cut_cost;
      if (x.part.empty()) break;
      erase_part(i, x.part);
      buffer.push_back(std::move(x.part));
    }
  }

  // Step (3): AddTo light classes until >= eps * Psi*.
  for (int j = 0; j < k; ++j) {
    int guard = 0;
    while (cw[static_cast<std::size_t>(j)] < eps * psi_star) {
      MMD_REQUIRE(++guard < 4 * static_cast<int>(w_list.size()) + 16,
                  "AddTo diverged");
      std::vector<Vertex> part;
      if (!buffer.empty()) {
        part = std::move(buffer.back());
        buffer.pop_back();
      } else {
        // Donor: the heaviest class (paper: any class >= Psi*/2).
        const int donor = static_cast<int>(
            std::max_element(cw.begin(), cw.end()) - cw.begin());
        MMD_REQUIRE(donor != j && cw[static_cast<std::size_t>(donor)] >= psi_star / 2.0,
                    "AddTo found no donor class");
        refresh_boundary(donor);
        ExtractedPart x = extract_light_part(g, cls[static_cast<std::size_t>(donor)],
                                             w, eps * psi_star, aux, splitter, &wsr);
        out.cut_cost += x.cut_cost;
        MMD_REQUIRE(!x.part.empty(), "AddTo donor produced empty part");
        erase_part(donor, x.part);
        part = std::move(x.part);
      }
      paint_part(j, std::move(part));
    }
  }

  // Step (4): ReduceBuffer onto below-average classes.
  while (!buffer.empty()) {
    const int j = static_cast<int>(std::min_element(cw.begin(), cw.end()) -
                                   cw.begin());
    paint_part(j, std::move(buffer.back()));
    buffer.pop_back();
  }

  // Step (5): per-class Corollary 18 extraction -> chi0 on W0.  Every
  // vertex of W is in a class again, so one pass fills the boundary
  // measure of all k classes; the extractions then only read shared state
  // and run independently, class i writing its part to parts[i] and
  // leaving its remainder in cls[i].
  for_vertex_blocks(splitter.thread_pool(), lanes, w_list,
                    [&](std::span<const Vertex> block) {
                      boundary_measure_by_class(g, block, *in_w, class_of, bnd);
                    });
  std::vector<ExtractedPart> parts(static_cast<std::size_t>(k));
  auto run_lane = [&](int j, ISplitter& sp, DecomposeWorkspace& lws) {
    for (int i = j; i < k; i += lanes) {
      std::vector<Vertex>& c = cls[static_cast<std::size_t>(i)];
      ExtractedPart& x = parts[static_cast<std::size_t>(i)];
      x = extract_hitting_part(g, c, w, eps * psi_star, aux, sp, &lws);
      const auto in_part = lws.membership(n);
      in_part->assign(x.part);
      std::erase_if(c, [&](Vertex v) { return in_part->contains(v); });
    }
  };
  if (lanes == 1) {
    run_lane(0, splitter, wsr);
  } else {
    // Materialize the lane workspaces here: growing the lane table must
    // never happen concurrently (the lanes themselves were ensured above).
    std::vector<DecomposeWorkspace*> lane_ws(static_cast<std::size_t>(lanes));
    for (int j = 0; j < lanes; ++j)
      lane_ws[static_cast<std::size_t>(j)] = &wsr.lane_workspace(j);
    // Batch-edge checkpoint, as in multi_split's lane tree: a deadline or
    // cancel surfaces before the fork (and at every lane's split entry).
    splitter.exec_control().check();
    splitter.thread_pool()->run(lanes, [&](int j) {
      run_lane(j, *splitter.lane(j), *lane_ws[static_cast<std::size_t>(j)]);
    });
  }

  // Merge in class order on this thread: the same sums and lists the
  // serial loop builds.  chi's storage becomes chi1.
  std::size_t size0 = 0;
  for (const ExtractedPart& x : parts) size0 += x.part.size();
  out.w0.reserve(size0);
  out.c0.reserve(size0);
  out.w1.reserve(w_list.size() - size0);
  for (int i = 0; i < k; ++i) {
    const ExtractedPart& x = parts[static_cast<std::size_t>(i)];
    out.cut_cost += x.cut_cost;
    for (Vertex v : x.part) {
      chi[v] = kUncolored;
      out.w0.push_back(v);
      out.c0.push_back(i);
    }
    for (Vertex v : cls[static_cast<std::size_t>(i)]) {
      chi[v] = i;
      out.w1.push_back(v);
    }
  }
  out.chi1 = std::move(chi);
  return out;
}

}  // namespace mmd
