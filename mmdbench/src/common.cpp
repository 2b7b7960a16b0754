#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>

#include "core/measures.hpp"

namespace bench {

std::uint64_t substream(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  Rng r(seed ^ (a * 0xd1b54a32d192ed03ull) ^ (b * 0x8cb92ba72f3d8dd7ull));
  r.next();
  return r.next();
}

// ---- output check ----------------------------------------------------------

CheckResult check_output(const mmd::Graph& g, std::span<const double> w,
                         const mmd::Coloring& chi, int k,
                         double reported_max_boundary) {
  CheckResult out;
  const auto fail = [&](std::string why) {
    out.ok = false;
    out.why = std::move(why);
    return out;
  };
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (chi.k != k) return fail("coloring has k=" + std::to_string(chi.k));
  if (chi.color.size() != n || w.size() != n) return fail("arity mismatch");

  // Class weights in long double with Neumaier compensation: exact enough
  // that the window test cannot pass on rounding (the failure mode of a
  // plain double sum at 1e17-scale weights).
  std::vector<long double> sum(static_cast<std::size_t>(k), 0.0L);
  std::vector<long double> comp(static_cast<std::size_t>(k), 0.0L);
  long double total = 0.0L, total_comp = 0.0L, wmax = 0.0L;
  const auto add = [](long double& s, long double& c, long double x) {
    const long double t = s + x;
    c += std::fabs(s) >= std::fabs(x) ? (s - t) + x : (x - t) + s;
    s = t;
  };
  for (std::size_t v = 0; v < n; ++v) {
    const std::int32_t c = chi.color[v];
    if (c < 0 || c >= k) return fail("vertex " + std::to_string(v) + " uncolored or out of range");
    const long double x = w[v];
    if (!std::isfinite(w[v]) || x < 0) return fail("non-finite or negative weight");
    add(sum[static_cast<std::size_t>(c)], comp[static_cast<std::size_t>(c)], x);
    add(total, total_comp, x);
    wmax = std::max(wmax, x);
  }
  total += total_comp;
  // Definition 1 scaled by k, so no division rounds:
  //   max_c |k w(class c) - W| <= (k - 1) ||w||_inf.
  // No slack: integer weights compare exactly, and any slack wide enough to
  // absorb double rounding would also pass {1e17, 1, 1, 1} at k = 2 in one
  // class (k-scaled deviation 1e17 + 3 against a window of 1e17).
  const long double window = static_cast<long double>(k - 1) * wmax;
  long double max_dev = 0.0L;
  for (int c = 0; c < k; ++c) {
    const long double cw = sum[static_cast<std::size_t>(c)] + comp[static_cast<std::size_t>(c)];
    max_dev = std::max(max_dev, std::fabs(static_cast<long double>(k) * cw - total));
  }
  if (!std::isfinite(max_dev) || !std::isfinite(window))
    return fail("non-finite class weights");
  if (max_dev > window)
    return fail("Definition 1 window violated: max_dev " +
                fmt(static_cast<double>(max_dev / k)) + " > window " +
                fmt(static_cast<double>(window / k)));

  std::vector<long double> boundary(static_cast<std::size_t>(k), 0.0L);
  for (mmd::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const std::int32_t cu = chi[u], cv = chi[v];
    if (cu == cv) continue;
    const long double c = g.edge_cost(e);
    boundary[static_cast<std::size_t>(cu)] += c;
    boundary[static_cast<std::size_t>(cv)] += c;
  }
  long double max_b = 0.0L;
  for (const long double b : boundary) max_b = std::max(max_b, b);
  const double recomputed = static_cast<double>(max_b);
  if (!std::isfinite(recomputed) || !std::isfinite(reported_max_boundary))
    return fail("non-finite max boundary");
  if (std::fabs(recomputed - reported_max_boundary) > 1e-9 * std::max(1.0, recomputed))
    return fail("reported max_boundary " + fmt(reported_max_boundary) + " != recomputed " +
                fmt(recomputed));
  return out;
}

std::uint64_t answer_hash(const mmd::Coloring& chi, double max_boundary) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const std::int32_t c : chi.color) mix(static_cast<std::uint32_t>(c));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &max_boundary, sizeof bits);
  mix(bits);
  return h;
}

double theorem4_b_max(const mmd::Graph& g, int k) {
  const double p = mmd::DecomposeOptions{}.p;
  return mmd::theorem4_bound(g, p, mmd::default_sigma_p(g, p), k).b_max;
}

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= static_cast<double>(kTailSamples);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mib() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

// ---- tracing ---------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  new_slot();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

SpanSlot* Tracer::new_slot() {
  slots_.push_back(std::make_unique<SpanSlot>());
  slots_.back()->index = static_cast<int>(slots_.size()) - 1;
  return slots_.back().get();
}

void Tracer::record(SpanSlot& slot, const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t parent,
                    std::uint64_t call, std::uint64_t id) {
  if (!enabled_) return;
  slot.spans.push_back({name, start_ns, end_ns, id != 0 ? id : slot.new_id(),
                        parent, call, slot.index});
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s->spans.size();
  return n;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[\n";
  std::size_t written = 0, total = 0;
  for (const auto& s : slots_) {
    for (const Span& sp : s->spans) {
      ++total;
      if (written >= kMaxSpans) continue;
      os << (written++ ? ",\n" : "") << "{\"name\":\"" << sp.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << sp.lane
         << ",\"ts\":" << sp.start_ns / 1000.0
         << ",\"dur\":" << (sp.end_ns - sp.start_ns) / 1000.0
         << ",\"args\":{\"id\":" << sp.id << ",\"parent\":" << sp.parent
         << ",\"call\":" << sp.call << "}}";
    }
  }
  os << "\n],\"otherData\":{\"spans\":" << total << ",\"written\":" << written
     << "}}\n";
}

// ---- timing splitter -------------------------------------------------------

TimingSplitter::TimingSplitter(std::unique_ptr<mmd::ISplitter> inner,
                               Tracer& tracer)
    : TimingSplitter(std::move(inner), tracer,
                     std::make_shared<std::vector<SpanSlot*>>()) {}

TimingSplitter::TimingSplitter(std::unique_ptr<mmd::ISplitter> inner,
                               Tracer& tracer,
                               std::shared_ptr<std::vector<SpanSlot*>> family)
    : inner_(std::move(inner)), tracer_(&tracer), slot_(tracer.new_slot()),
      family_(std::move(family)) {
  family_->push_back(slot_);
}

mmd::SplitResult TimingSplitter::split(const mmd::SplitRequest& request) {
  const std::int64_t t0 = tracer_->now_ns();
  mmd::SplitResult r = inner_->split(request);
  const std::int64_t t1 = tracer_->now_ns();
  ++slot_->split_calls;
  slot_->split_seconds += static_cast<double>(t1 - t0) * 1e-9;
  slot_->vertices_offered += static_cast<long>(request.w_list.size());
  const std::uint64_t call = tracer_->current_call();
  tracer_->record(*slot_, "separators.split", t0, t1, call, call);
  return r;
}

std::unique_ptr<mmd::ISplitter> TimingSplitter::make_lane() {
  std::unique_ptr<mmd::ISplitter> lane = inner_->make_lane();
  if (lane == nullptr) return nullptr;
  return std::unique_ptr<mmd::ISplitter>(
      new TimingSplitter(std::move(lane), *tracer_, family_));
}

TimingSplitter::Totals TimingSplitter::split_totals() const {
  Totals t;
  for (const SpanSlot* s : *family_) {
    t.calls += s->split_calls;
    t.seconds += s->split_seconds;
    t.vertices += s->vertices_offered;
  }
  return t;
}

// ---- report ----------------------------------------------------------------

void Report::fail(const std::string& what) {
  ++failed;
  correct = false;
  static constexpr int kPrinted = 5;
  if (failed <= kPrinted) note("CHECK FAILED: " + what);
}

void report_end_to_end(Report& report, const EndToEnd& e, bool traced) {
  const std::vector<double>& lat = e.latency_ms;
  const std::string n = std::to_string(lat.size());
  report.note("setup_s " + fmt(median(e.setup_s), 6) + " s (median of " +
              std::to_string(e.setup_s.size()) + " set-ups)");
  report.note("latency_p50_ms " + fmt(quantile(lat, 0.5), 6) + " ms (n=" + n + ")");
  for (const auto& [name, q] : {std::pair{"latency_p95_ms", 0.95}, std::pair{"latency_p99_ms", 0.99}}) {
    if (tail_supported(lat.size(), q))
      report.note(std::string(name) + " " + fmt(quantile(lat, q), 6) + " ms (n=" + n + ")");
    else
      report.note(std::string(name) + " not reported: n=" + n +
                  " leaves fewer than 10 samples beyond it");
  }
  report.note("throughput_per_s " + fmt(e.throughput_per_s, 6) + " 1/s");
  report.note("boundary_ratio " + fmt(geomean(e.ratios), 6) + " (geomean of " +
              std::to_string(e.ratios.size()) + ")");
  const long all_failed = report.failed + report.known_failed;
  report.note("failed_frac " +
              fmt(report.attempted ? double(all_failed) / double(report.attempted) : 0.0) + " (" +
              std::to_string(all_failed) + "/" + std::to_string(report.attempted) + ", " +
              std::to_string(report.known_failed) + " of them the known stale-chain defect)");
  if (traced) return;
  report.note("peak_rss_mb " + fmt(peak_rss_mib(), 6) + " MiB (" + fmt(e.setup_rss_mib, 6) +
              " MiB after set-up)");
  report.e2e("setup_s", median(e.setup_s), "s");
  report.e2e("latency_p50_ms", quantile(lat, 0.5), "ms");
  report.e2e("throughput_per_s", e.throughput_per_s, "1/s");
  report.e2e("boundary_ratio", geomean(e.ratios), "ratio");
  report.e2e("peak_rss_mb", peak_rss_mib(), "MiB");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"core.phase1_ms", "ms"},
      {"core.strictify_ms", "ms"},
      {"core.binpack_ms", "ms"},
      {"core.refine_ms", "ms"},
      {"core.strictify_share", "ratio"},
      {"core.strictify_boundary_growth", "ratio"},
      {"core.phase_coverage", "ratio"},
      {"core.refine_moves", "count"},
      {"core.refine_pops", "count"},
      {"separators.split_calls", "count"},
      {"separators.split_ms", "ms"},
      {"separators.vertices_offered", "count"},
      {"separators.split_share", "ratio"},
      {"threads.speedup_4v1", "ratio"},
      {"graph.build_s", "s"},
      {"io.read_metis_s", "s"},
      {"graph.bytes_per_edge", "B"},
      {"context.warmup_extra_ms", "ms"},
      {"context.memory_mb", "MiB"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.exec_p50_ms", "ms"},
      {"service.exec_p99_ms", "ms"},
      {"service.cache_hit_rate", "ratio"},
      {"service.context_evictions", "count"},
      {"service.mean_batch", "count"},
      {"service.incremental_frac", "ratio"},
      {"service.escalation_frac", "ratio"},
      {"service.stale_chain_failures", "count"},
      {"fast.levels", "count"},
      {"fast.p50_ms", "ms"},
      {"trace.throughput_ratio", "ratio"},
      {"trace.neutral_calls", "count"},
  };
  return kCatalog;
}

void emit_per_layer(Report& report,
                    const std::vector<std::pair<std::string, double>>& values) {
  for (const auto& [n, x] : values) {
    bool known = false;
    for (const auto& entry : per_layer_catalog()) known |= entry.first == n;
    if (!known) throw std::logic_error("per-layer metric missing from the catalog: " + n);
  }
  for (const auto& [name, unit] : per_layer_catalog()) {
    double v = 0.0;
    for (const auto& [n, x] : values)
      if (n == name) v = x;
    report.layer(name, v, unit);
  }
}

}  // namespace bench
