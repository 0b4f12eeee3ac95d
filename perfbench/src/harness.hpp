// Shared pieces of the repository benchmark: clocks, the span tracer,
// percentile helpers and the result every workload fills in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bnn/spec.hpp"
#include "bnn/tensor.hpp"

namespace pb {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ------------------------------------------------------------- clocks --
[[nodiscard]] std::uint64_t wall_ns();         ///< steady_clock.
[[nodiscard]] std::uint64_t thread_cpu_ns();   ///< Calling thread's CPU.
[[nodiscard]] std::uint64_t process_cpu_ns();  ///< Whole process user+sys.
[[nodiscard]] double peak_rss_mb();            ///< Process high-water RSS.
/// Host steal time summed over all CPUs since boot, milliseconds
/// (/proc/stat); 0 when unavailable.
[[nodiscard]] double host_steal_ms();

// -------------------------------------------------------------- stats --
/// Nearest-rank percentile (q in [0, 100]) of `v`; sorts `v` in place.
[[nodiscard]] double percentile(std::vector<double>& v, double q);
[[nodiscard]] double median(std::vector<double> v);

// ------------------------------------------------------------ windows --
/// The four timing metrics of a timed phase.
struct Timing {
  double ops_per_s = 0.0;
  double cpu_us_per_op = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t windows = 0;  ///< Whole windows the medians are taken over.
};

/// Splits a timed phase into fixed windows and reports each timing metric
/// as the median over the whole windows, so a burst of host contention in
/// a few windows does not move the result. `latencies` is the phase's
/// latency record in completion order; windows slice it by index. The
/// partial window at the end (the drain) is dropped; a phase shorter than
/// one window is summarised whole.
class Windows {
 public:
  explicit Windows(double window_s)
      : window_ns_(static_cast<std::uint64_t>(window_s * 1e9)) {}
  void start(std::uint64_t ops, std::size_t latencies);
  /// Call often during the phase; closes every window that has ended.
  void poll(std::uint64_t ops, const std::vector<double>& latencies);
  /// Summary at the end of the phase.
  [[nodiscard]] Timing finish(std::uint64_t ops,
                              const std::vector<double>& latencies) const;

 private:
  struct Mark {
    std::uint64_t wall, cpu, ops;
    std::size_t lat;
  };
  [[nodiscard]] Mark mark(std::uint64_t ops, std::size_t latencies) const;
  static Timing between(const Mark& a, const Mark& b,
                        const std::vector<double>& latencies);
  std::uint64_t window_ns_;
  std::vector<Mark> marks_;
};

// ------------------------------------------------------------- tracer --
/// One recorded span: a timed call into the program from the benchmark.
struct Span {
  std::uint32_t name = 0;   ///< Index into Tracer::names().
  std::int32_t parent = -1; ///< Index of the enclosing span, -1 = root.
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t cpu_ns = 0;  ///< Thread CPU time inside the span.
};

/// Per-name totals over every span recorded (also the ones past the
/// in-memory cap).
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t self_ns = 0;  ///< Wall time minus child spans.
};

/// Single-threaded span recorder. Disabled tracers cost one branch per
/// span. Spans nest through an explicit stack; each span's self time is
/// its duration minus its children's. Raw spans are kept in memory up to
/// a cap and written out by write_jsonl() when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  [[nodiscard]] std::uint32_t intern(const std::string& name);
  void begin(std::uint32_t name, std::uint64_t request = 0);
  void end();

  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }
  [[nodiscard]] const SpanTotals& totals(std::uint32_t name) const {
    return totals_[name];
  }
  [[nodiscard]] SpanTotals totals(const std::string& name) const;
  [[nodiscard]] std::size_t recorded() const { return spans_.size(); }
  /// Writes the kept spans, one JSON object per line. Returns false when
  /// the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Open {
    std::int32_t index;  // into spans_, or -1 past the cap
    Span span;
    std::uint64_t cpu_start;
    std::uint64_t child_ns;
  };
  static constexpr std::size_t kMaxKept = 50000;
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<SpanTotals> totals_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// RAII span; does nothing when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, std::uint32_t name, std::uint64_t request = 0)
      : t_(t.enabled() ? &t : nullptr) {
    if (t_) t_->begin(name, request);
  }
  ~Scope() {
    if (t_) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

// ------------------------------------------------------------- result --
/// Attempted / failed operations of one kind. An operation fails when it
/// ends in an error status or returns a wrong output; `wrong` counts the
/// latter. Any failure makes the run incorrect.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  void fail(bool wrong_output) {
    ++failed;
    wrong += wrong_output ? 1 : 0;
  }
};

/// What one workload run reports.
struct Report {
  /// Operation kinds in first-use order, with their counts.
  std::vector<std::pair<std::string, OpCount>> ops;
  /// Metric name -> (value, unit), end-to-end and per-layer together.
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Free-form provenance lines printed before the result.
  std::vector<std::string> notes;

  OpCount& op(const std::string& kind);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Runs `build` `n` times (tearing every instance down but the last),
/// returns the median build time in seconds and keeps the last instance.
/// Used for setup_s: set-up is repeated so its median is steady.
template <typename T, typename Build>
double repeated_setup(int n, T& keep, Build&& build) {
  std::vector<double> secs;
  for (int i = 0; i < n; ++i) {
    keep.reset();
    const std::uint64_t t0 = wall_ns();
    keep = build();
    secs.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
  }
  return median(secs);
}

// Workload entry points.
void run_wire_replica(const Options& opt, Tracer& tr, Report& rep);
void run_compute_mix(const Options& opt, Tracer& tr, Report& rep);
void run_paper_sim(const Options& opt, Tracer& tr, Report& rep);

/// Modelled (arch::CostModel) cost of serving a mix of networks on the
/// paper's designs: per-op EinsteinBarrier / TacitMap latency and
/// EinsteinBarrier energy weighted by each network's share of ops, plus
/// geo-mean Baseline-ePCM speedups and energy ratio over the networks.
struct ModelledMix {
  double eb_ns_per_op = 0.0;
  double eb_pj_per_op = 0.0;
  double tacit_ns_per_op = 0.0;
  double eb_speedup = 0.0;
  double tacit_speedup = 0.0;
  double eb_energy_ratio = 0.0;
  /// Latency ordered Baseline-ePCM > TacitMap > EinsteinBarrier on every
  /// network, and the GPU baseline evaluated.
  bool ordered = true;
};
/// `nets` pairs each network's spec with its share of the workload's ops.
[[nodiscard]] ModelledMix modelled_mix(
    const std::vector<std::pair<eb::bnn::NetworkSpec, double>>& nets);
/// Exact equality of two tensors (shape and every value bit).
[[nodiscard]] bool same_tensor(const eb::bnn::Tensor& a,
                               const eb::bnn::Tensor& b);
/// Stores the four timing metrics.
void set_timing(Report& rep, const Timing& t);
/// Adds a note with the whole-phase latency percentiles, p99.9 included.
void note_latency(Report& rep, const std::string& what,
                  std::vector<double> latencies_us);
/// Stores the six modelled end-to-end metrics (sim_*).
void set_modelled(Report& rep, const ModelledMix& m);

}  // namespace pb
