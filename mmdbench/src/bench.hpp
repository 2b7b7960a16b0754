// Shared pieces of the mmd benchmark: seeded input streams, the
// independent output check, sample statistics, the in-memory span
// recorder, the timing splitter decorator, and the report every workload
// fills in.  Only the library's public headers are used, so the benchmark
// measures the library the way an embedding program would.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/decompose.hpp"
#include "graph/coloring.hpp"
#include "graph/graph.hpp"
#include "separators/splitter.hpp"

namespace bench {

// ---- inputs ----------------------------------------------------------------

/// splitmix64 stream.  The benchmark derives every input from the run's
/// seed through this generator (never the library's own PRNG), so the
/// inputs stay fixed when the library changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Seed of an independent sub-stream (seed, a, b) -> stream.
std::uint64_t substream(std::uint64_t seed, std::uint64_t a,
                        std::uint64_t b = 0);

// ---- output check (independent of verify_decomposition) --------------------

struct CheckResult {
  bool ok = true;
  std::string why;  ///< first failed condition, empty when ok
};

/// Check a returned k-coloring against the weights the caller holds:
/// arity and color range, class weights summed in long double, the
/// Definition 1 window, the recomputed max boundary against the reported
/// one, and finiteness of every value involved.
CheckResult check_output(const mmd::Graph& g, std::span<const double> w,
                         const mmd::Coloring& chi, int k,
                         double reported_max_boundary);

/// FNV-1a over the colors and the bits of the reported max boundary: the
/// tracing-neutrality fingerprint of one answer.
std::uint64_t answer_hash(const mmd::Coloring& chi, double max_boundary);

/// Theorem 4 skeleton b_max with constant 1 for (g, k) at the library's
/// default p and sigma_p.
double theorem4_b_max(const mmd::Graph& g, int k);

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double geomean(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
constexpr long kTailSamples = 10;
bool tail_supported(std::size_t n, double q);

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point t0);
/// getrusage high-water mark of this process, MiB.
double peak_rss_mib();

// ---- tracing ---------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t call = 0;    ///< id of the call the span belongs to
  int lane = 0;              ///< recording slot (0 = the calling thread)
};

/// One recording slot: written by exactly one thread at a time (the
/// calling thread, or one splitter lane), read after the call joined.
struct SpanSlot {
  int index = 0;
  long split_calls = 0;
  double split_seconds = 0.0;
  long vertices_offered = 0;
  std::vector<Span> spans;
  std::uint64_t next_id = 0;
  std::uint64_t new_id() { return (std::uint64_t(index + 1) << 40) | ++next_id; }
};

/// In-memory span store.  Disabled tracers record nothing.  Spans are
/// kept until write_chrome_trace() at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  std::int64_t now_ns() const;

  /// A new slot (slot 0 is created by the constructor).  Call from
  /// the orchestration thread only.
  SpanSlot* new_slot();
  SpanSlot& main_slot() { return *slots_.front(); }

  /// Record a span of the calling thread.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t parent, std::uint64_t call) {
    record(main_slot(), name, start_ns, end_ns, parent, call);
  }
  /// Record a span on `slot`; `id` 0 allocates a fresh id.
  void record(SpanSlot& slot, const char* name, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t parent, std::uint64_t call,
              std::uint64_t id = 0);

  /// The call whose spans lanes attribute theirs to (set by the caller
  /// around each timed call; read by lanes inside it).
  void set_current_call(std::uint64_t id) { current_call_.store(id); }
  std::uint64_t current_call() const { return current_call_.load(); }

  std::size_t span_count() const;
  /// Chrome trace-event JSON (viewable in Perfetto / chrome://tracing).
  void write_chrome_trace(const std::string& path) const;

 private:
  static constexpr std::size_t kMaxSpans = 100000;  ///< written to the file
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<std::unique_ptr<SpanSlot>> slots_;
  std::atomic<std::uint64_t> current_call_{0};
};

/// Timing decorator around the library's default splitter.  Forwards the
/// pool, lane, exec, diagnostics and sweep-policy hooks, so the wrapped
/// splitter behaves exactly as it does inside a DecomposeContext; each
/// lane gets its own slot, and split_totals() merges them in index order.
class TimingSplitter final : public mmd::ISplitter {
 public:
  TimingSplitter(std::unique_ptr<mmd::ISplitter> inner, Tracer& tracer);

  mmd::SplitResult split(const mmd::SplitRequest& request) override;
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<mmd::ISplitter> make_lane() override;
  bool supports_sweep_mode(mmd::SweepMode mode) const override {
    return inner_->supports_sweep_mode(mode);
  }

  struct Totals {
    long calls = 0;
    double seconds = 0.0;
    long vertices = 0;
  };
  /// Sum over this splitter's slot and every lane slot, in slot order.
  Totals split_totals() const;

 protected:
  void on_thread_pool_changed(mmd::ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  void on_exec_control_changed(const mmd::ExecControl& exec) override {
    inner_->set_exec_control(exec);
  }
  void on_diagnostics_changed(mmd::DecomposeDiagnostics* diag) override {
    inner_->set_diagnostics(diag);
  }
  void on_sweep_mode_changed(mmd::SweepMode mode) override {
    inner_->set_sweep_mode(mode);
  }
  void on_adaptive_margin_changed(double margin) override {
    inner_->set_adaptive_margin(margin);
  }

 private:
  TimingSplitter(std::unique_ptr<mmd::ISplitter> inner, Tracer& tracer,
                 std::shared_ptr<std::vector<SpanSlot*>> family);

  std::unique_ptr<mmd::ISplitter> inner_;
  Tracer* tracer_;
  SpanSlot* slot_;
  /// Slots of the root and every lane made from it, in creation order.
  std::shared_ptr<std::vector<SpanSlot*>> family_;
};

// ---- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What a workload run hands back to main().
struct Report {
  bool correct = true;      ///< no unexpected check failure, traced == untraced
  long attempted = 0;
  long failed = 0;          ///< unexpected failures: the JSON `failed`
  long known_failed = 0;    ///< the documented stale-chain defect (README.md)
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> lines;  ///< human-readable report lines

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& line) { lines.push_back(line); }
  /// Record one unexpected check failure (the first few are printed).
  void fail(const std::string& what);
};

/// The end-to-end figures of one untraced phase.
struct EndToEnd {
  std::vector<double> setup_s;     ///< one per set-up
  std::vector<double> latency_ms;  ///< one per timed call or served request
  double throughput_per_s = 0.0;
  std::vector<double> ratios;      ///< max_boundary / b_max, one per result
  double setup_rss_mib = 0.0;      ///< high-water mark when set-up ended
};

/// Add the end-to-end figures to the report lines, tail percentiles only
/// where the sample supports them, and, unless `traced`, as the declared
/// end-to-end metrics.
void report_end_to_end(Report& report, const EndToEnd& e, bool traced);

/// Every per-layer metric the benchmark declares, with its unit.  Every
/// traced run prints all of them; a layer a workload does not exercise
/// reports 0 (see README.md, "Per-layer metrics").
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Fill per_layer with every catalog entry, taking values from `values`
/// (name -> value) and 0 for the rest.
void emit_per_layer(Report& report,
                    const std::vector<std::pair<std::string, double>>& values);

Report run_mesh_corpus(const Args& args);
Report run_grid_1m(const Args& args);
Report run_service_mix(const Args& args);

std::string fmt(double v, int digits = 4);

}  // namespace bench
