#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/metis_io.hpp"
#include "test_helpers.hpp"

namespace mmd {
namespace {

// ---- standard METIS format variants ----------------------------------------
// write_metis always emits fmt 011, but standard METIS files may omit the
// vertex weights and/or the edge costs.  Each variant is written by hand
// from one graph (with an isolated vertex, whose line is empty when there
// are no vertex weights, and a '%' comment between two adjacency lines)
// and must read back to it, with 1 for every weight and cost the format
// omits.

struct FormatCase {
  const char* name;
  const char* header_tail;  ///< everything after "n m" on the header line
  bool weights, costs;      ///< what the adjacency lines carry
};

// Without this, gtest names each case after the raw bytes of its pointers,
// which differ from one run to the next.
void PrintTo(const FormatCase& c, std::ostream* os) {
  *os << "header n m" << c.header_tail;
}

class MetisIoFormat : public ::testing::TestWithParam<FormatCase> {};

TEST_P(MetisIoFormat, RoundTripsWithUnitDefaults) {
  const FormatCase& c = GetParam();
  GraphBuilder builder(5);
  builder.add_edge(0, 1, 2.5);
  builder.add_edge(1, 2, 4.0);
  builder.add_edge(2, 0, 0.5);
  builder.add_edge(2, 3, 7.0);  // vertex 4 stays isolated
  const Graph g = builder.build();
  const std::vector<double> w{1.5, 2.0, 3.0, 4.0, 5.5};

  std::stringstream ss;
  ss << "% " << c.name << "\n"
     << g.num_vertices() << " " << g.num_edges() << c.header_tail << "\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v == 2) ss << "% a comment inside the adjacency section\n";
    if (c.weights) ss << w[static_cast<std::size_t>(v)];
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      ss << " " << (nbrs[i] + 1);
      if (c.costs) ss << " " << g.edge_cost(eids[i]);
    }
    ss << "\n";
  }

  const auto back = read_metis(ss);
  ASSERT_EQ(back.graph.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.graph.num_edges(), g.num_edges());
  EXPECT_EQ(back.weights,
            c.weights ? w : std::vector<double>(w.size(), 1.0));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back.graph.endpoints(e), g.endpoints(e));
    EXPECT_EQ(back.graph.edge_cost(e), c.costs ? g.edge_cost(e) : 1.0);
  }
  EXPECT_TRUE(back.graph.neighbors(4).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Variants, MetisIoFormat,
    ::testing::Values(FormatCase{"fmt_absent", "", false, false},
                      FormatCase{"fmt_0", " 0", false, false},
                      FormatCase{"fmt_1", " 1", false, true},
                      FormatCase{"fmt_10", " 10", true, false},
                      FormatCase{"fmt_11", " 11", true, true},
                      FormatCase{"fmt_000", " 000", false, false},
                      FormatCase{"fmt_001", " 001", false, true},
                      FormatCase{"fmt_010", " 010", true, false},
                      FormatCase{"fmt_011", " 011", true, true},
                      FormatCase{"fmt_010_ncon_1", " 010 1", true, false},
                      FormatCase{"fmt_011_ncon_1", " 011 1", true, true}),
    [](const ::testing::TestParamInfo<FormatCase>& info) {
      return info.param.name;
    });

// ---- headers outside the supported subset ----------------------------------
// Vertex sizes (fmt 1xx), more than one balance constraint and header or
// adjacency lines that disagree with the declared format are rejected with
// a typed ParseError carrying the 1-based line number of the offending
// line, like the malformed-file corpus in test_io.cpp.

struct RejectedCase {
  const char* name;
  const char* text;
  long line;  ///< expected ParseError::line()
};

class MetisIoRejected : public ::testing::TestWithParam<RejectedCase> {};

TEST_P(MetisIoRejected, ThrowsParseErrorWithLineNumber) {
  const RejectedCase& c = GetParam();
  std::stringstream ss(c.text);
  try {
    (void)read_metis(ss);
    FAIL() << c.name << ": expected ParseError, parsed successfully";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), c.line) << c.name << ": " << e.what();
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MetisIoRejected,
    ::testing::Values(
        RejectedCase{"trailing_after_ncon",
                     "2 1 011 1 zzz\n1.0 2 1.0\n1.0 1 1.0\n", 1},
        RejectedCase{"four_digit_format_flags",
                     "2 1 0011\n1.0 2 1.0\n1.0 1 1.0\n", 1},
        RejectedCase{"vertex_sizes", "2 1 100\n1 2\n1 1\n", 1},
        RejectedCase{"vertex_sizes_weighted",
                     "2 1 111\n1 1.0 2 1.0\n1 1.0 1 1.0\n", 1},
        RejectedCase{"multi_constraint",
                     "2 1 010 2\n1.0 1.0 2\n1.0 1.0 1\n", 1},
        RejectedCase{"zero_constraint_count", "2 1 010 0\n1.0 2\n1.0 1\n",
                     1},
        RejectedCase{"unweighted_missing_cost", "2 1 1\n2\n1 1.0\n", 2},
        RejectedCase{"unweighted_edge_count_mismatch", "2 2\n2\n1\n", 1},
        RejectedCase{"comment_does_not_count_as_vertex",
                     "2 1 011\n1.0 2 1.0\n% only a comment\n", 4}),
    [](const ::testing::TestParamInfo<RejectedCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mmd
