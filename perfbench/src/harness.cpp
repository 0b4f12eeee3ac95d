#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "arch/cost_model.hpp"
#include "common/stats.hpp"

namespace pb {

namespace {
std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double host_steal_ms() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  double field[8] = {};
  for (double& f : field) {
    if (!(in >> f)) return 0.0;
  }
  // user nice system idle iowait irq softirq steal -- USER_HZ ticks.
  return field[7] * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

// ------------------------------------------------------------ windows --

Windows::Mark Windows::mark(std::uint64_t ops, std::size_t latencies) const {
  return Mark{wall_ns(), process_cpu_ns(), ops, latencies};
}

void Windows::start(std::uint64_t ops, std::size_t latencies) {
  marks_.assign(1, mark(ops, latencies));
}

void Windows::poll(std::uint64_t ops, const std::vector<double>& latencies) {
  if (wall_ns() - marks_.back().wall >= window_ns_) {
    marks_.push_back(mark(ops, latencies.size()));
  }
}

Timing Windows::between(const Mark& a, const Mark& b,
                        const std::vector<double>& latencies) {
  Timing t;
  const double ops = static_cast<double>(b.ops - a.ops);
  t.ops_per_s = ops / (static_cast<double>(b.wall - a.wall) * 1e-9);
  t.cpu_us_per_op = static_cast<double>(b.cpu - a.cpu) * 1e-3 / ops;
  std::vector<double> lat(latencies.begin() + static_cast<long>(a.lat),
                          latencies.begin() + static_cast<long>(b.lat));
  t.p50_us = percentile(lat, 50.0);
  t.p99_us = percentile(lat, 99.0);
  t.windows = 1;
  return t;
}

Timing Windows::finish(std::uint64_t ops,
                       const std::vector<double>& latencies) const {
  if (marks_.size() < 2) {
    return between(marks_.front(), mark(ops, latencies.size()), latencies);
  }
  std::vector<double> rate, cpu, p50, p99;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const Timing t = between(marks_[i - 1], marks_[i], latencies);
    rate.push_back(t.ops_per_s);
    cpu.push_back(t.cpu_us_per_op);
    p50.push_back(t.p50_us);
    p99.push_back(t.p99_us);
  }
  Timing t;
  t.ops_per_s = median(rate);
  t.cpu_us_per_op = median(cpu);
  t.p50_us = median(p50);
  t.p99_us = median(p99);
  t.windows = marks_.size() - 1;
  return t;
}

// ------------------------------------------------------------- tracer --

std::uint32_t Tracer::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::begin(std::uint32_t name, std::uint64_t request) {
  Open o{};
  o.span.name = name;
  o.span.request = request;
  o.span.parent = stack_.empty() ? -1 : stack_.back().index;
  o.index = -1;
  if (spans_.size() < kMaxKept) {
    o.index = static_cast<std::int32_t>(spans_.size());
    spans_.emplace_back();
  }
  o.cpu_start = thread_cpu_ns();
  o.span.start_ns = wall_ns();
  stack_.push_back(o);
}

void Tracer::end() {
  Open o = stack_.back();
  stack_.pop_back();
  o.span.end_ns = wall_ns();
  o.span.cpu_ns = thread_cpu_ns() - o.cpu_start;
  const std::uint64_t dur = o.span.end_ns - o.span.start_ns;
  SpanTotals& t = totals_[o.span.name];
  ++t.count;
  t.wall_ns += dur;
  t.cpu_ns += o.span.cpu_ns;
  t.self_ns += dur - std::min(dur, o.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.index >= 0) spans_[static_cast<std::size_t>(o.index)] = o.span;
}

SpanTotals Tracer::totals(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return {};
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << names_[s.name]
        << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"cpu_ns\":" << s.cpu_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- result --

OpCount& Report::op(const std::string& kind) {
  for (auto& [k, c] : ops) {
    if (k == kind) return c;
  }
  ops.emplace_back(kind, OpCount{});
  return ops.back().second;
}

ModelledMix modelled_mix(
    const std::vector<std::pair<eb::bnn::NetworkSpec, double>>& nets) {
  using eb::arch::Design;
  const eb::arch::CostModel model(eb::arch::TechParams::paper_defaults());
  ModelledMix m;
  std::vector<double> eb_x, tacit_x, eb_e;
  double share_sum = 0.0;
  for (const auto& [spec, share] : nets) {
    const auto base = model.evaluate(Design::BaselineEpcm, spec);
    const auto tacit = model.evaluate(Design::TacitEpcm, spec);
    const auto eb = model.evaluate(Design::EinsteinBarrier, spec);
    const auto gpu = model.evaluate(Design::BaselineGpu, spec);
    m.ordered = m.ordered && base.latency_ns > tacit.latency_ns &&
                tacit.latency_ns > eb.latency_ns && gpu.latency_ns > 0.0;
    m.eb_ns_per_op += share * eb.latency_ns;
    m.eb_pj_per_op += share * eb.energy_pj;
    m.tacit_ns_per_op += share * tacit.latency_ns;
    share_sum += share;
    eb_x.push_back(base.latency_ns / eb.latency_ns);
    tacit_x.push_back(base.latency_ns / tacit.latency_ns);
    eb_e.push_back(eb.energy_pj / base.energy_pj);
  }
  m.eb_ns_per_op /= share_sum;
  m.eb_pj_per_op /= share_sum;
  m.tacit_ns_per_op /= share_sum;
  m.eb_speedup = eb::geometric_mean(eb_x);
  m.tacit_speedup = eb::geometric_mean(tacit_x);
  m.eb_energy_ratio = eb::geometric_mean(eb_e);
  return m;
}

bool same_tensor(const eb::bnn::Tensor& a, const eb::bnn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void set_timing(Report& rep, const Timing& t) {
  rep.set("ops_per_s", t.ops_per_s, "1/s");
  rep.set("cpu_us_per_op", t.cpu_us_per_op, "us");
  rep.set("p50_us", t.p50_us, "us");
  rep.set("p99_us", t.p99_us, "us");
}

void note_latency(Report& rep, const std::string& what,
                  std::vector<double> latencies_us) {
  char buf[256];
  const std::size_t n = latencies_us.size();
  const double p50 = percentile(latencies_us, 50.0);
  const double p99 = percentile(latencies_us, 99.0);
  const double p999 = percentile(latencies_us, 99.9);
  std::snprintf(buf, sizeof buf,
                "latency: %s over the whole timed phase: n=%zu p50=%.1f us "
                "p99=%.1f us p99.9=%.1f us",
                what.c_str(), n, p50, p99, p999);
  rep.note(buf);
}

void set_modelled(Report& rep, const ModelledMix& m) {
  rep.set("sim_ns_per_op", m.eb_ns_per_op, "sim_ns");
  rep.set("sim_pj_per_op", m.eb_pj_per_op, "sim_pJ");
  rep.set("sim_tacit_ns_per_op", m.tacit_ns_per_op, "sim_ns");
  rep.set("sim_eb_speedup_x", m.eb_speedup, "x");
  rep.set("sim_tacit_speedup_x", m.tacit_speedup, "x");
  rep.set("sim_eb_energy_ratio", m.eb_energy_ratio, "ratio");
}

}  // namespace pb
