#include "core/verify.hpp"

#include <algorithm>

#include "graph/connectivity.hpp"
#include "graph/subgraph.hpp"
#include "util/norms.hpp"

namespace mmd {

VerifyReport verify_decomposition(const Graph& g, std::span<const double> w,
                                  const Coloring& chi) {
  MMD_REQUIRE(static_cast<Vertex>(w.size()) == g.num_vertices(),
              "weight arity mismatch");
  MMD_REQUIRE(static_cast<Vertex>(chi.color.size()) == g.num_vertices(),
              "coloring arity mismatch");
  MMD_REQUIRE(chi.k >= 1, "coloring must have k >= 1");

  VerifyReport rep;
  auto fail = [&](const std::string& msg) {
    rep.ok = false;
    rep.failures.push_back(msg);
  };

  // Totality and range.
  rep.total = true;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (chi[v] < 0 || chi[v] >= chi.k) {
      rep.total = false;
      fail("vertex " + std::to_string(v) + " has invalid color " +
           std::to_string(chi[v]));
      break;
    }
  }

  // Definition 1.
  const BalanceReport bal = balance_report(w, chi);
  rep.strictly_balanced = bal.strictly_balanced;
  rep.max_dev = bal.max_dev;
  rep.strict_bound = bal.strict_bound;
  if (!bal.finite)
    fail("strict balance unverifiable: total or class weight sum is not "
         "finite");
  else if (!bal.strictly_balanced)
    fail("strict balance violated: max deviation " +
         std::to_string(bal.max_dev) + " > (1-1/k)||w||_inf = " +
         std::to_string(bal.strict_bound));

  // Boundary costs, recomputed.
  const auto bc = class_boundary_costs(g, chi);
  rep.max_boundary = norm_inf(bc);
  rep.avg_boundary = chi.k > 0 ? norm1(bc) / chi.k : 0.0;

  // Fragmentation (informational).
  const auto classes = color_classes(chi);
  Membership in_class(g.num_vertices());
  for (const auto& cls : classes) {
    if (cls.empty()) continue;
    ++rep.nonempty_classes;
    in_class.assign(cls);
    const std::vector<double> unit(static_cast<std::size_t>(g.num_vertices()),
                                   1.0);
    if (component_weights(g, cls, in_class, unit).size() > 1)
      ++rep.fragmented_classes;
  }
  return rep;
}

}  // namespace mmd
