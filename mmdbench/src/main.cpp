// mmdbench: the repository's end-to-end and per-layer benchmark.
//
//   mmdbench --workload <mesh-corpus|grid-1m|service-mix> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Prints human-readable report lines, then one JSON object as the last
// line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics; --trace 1 replays the same inputs with tracing
// and reports the per-layer metrics (README.md lists both).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

void usage() {
  std::cerr << "usage: mmdbench --workload <mesh-corpus|grid-1m|service-mix> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
}

bench::Args parse(int argc, char** argv) {
  bench::Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value, &used);
      if (!(a.seconds > 0.0 && a.seconds <= 600.0))
        throw std::invalid_argument("--seconds must lie in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
      used = value.size();
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (flag != "--workload" && used != value.size())
      throw std::invalid_argument("malformed value for " + flag + ": " + value);
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

std::string json_metrics(const std::vector<bench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mmdbench: " << e.what() << "\n";
    usage();
    return 2;
  }

  bench::Report report;
  try {
    if (args.workload == "mesh-corpus") {
      report = bench::run_mesh_corpus(args);
    } else if (args.workload == "grid-1m") {
      report = bench::run_grid_1m(args);
    } else if (args.workload == "service-mix") {
      report = bench::run_service_mix(args);
    } else {
      std::cerr << "mmdbench: unknown workload " << args.workload << "\n";
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "mmdbench: " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  const std::vector<bench::Metric>& metrics = args.trace ? report.per_layer : report.end_to_end;
  for (const bench::Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "mmdbench: metric " << m.name << " is not finite\n";
      return 1;
    }
  }
  std::cout << "# workload " << args.workload << ", seed " << args.seed << ", "
            << args.seconds << " s, trace " << (args.trace ? 1 : 0) << "\n";
  for (const std::string& line : report.lines) std::cout << "# " << line << "\n";
  for (const bench::Metric& m : metrics)
    std::cout << "# " << m.name << " = " << bench::fmt(m.value, 8) << " " << m.unit << "\n";
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": " << json_metrics(metrics) << "}" << std::endl;
  return 0;
}
