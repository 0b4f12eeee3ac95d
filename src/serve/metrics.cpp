#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace eb::serve {

namespace {

// Nearest-rank index into a sorted sample set of size n (>= 1): the
// 1-based rank is ceil(pct/100 * n), clamped to [1, n]. The small epsilon
// counters binary-float round-up (e.g. 0.95 * 20 evaluating to
// 19.000000000000004, whose ceil would otherwise skip rank 19 for rank
// 20); the clamp makes every pct -- including p99 of a single-sample
// window -- land on a valid index instead of reading past the end.
std::size_t nearest_rank_index(std::size_t n, double pct) {
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  if (rank <= 1.0) {
    return 0;
  }
  return std::min(n - 1, static_cast<std::size_t>(rank) - 1);
}

}  // namespace

double percentile(std::vector<double> xs, double pct) {
  EB_REQUIRE(pct >= 0.0 && pct <= 100.0, "percentile must be in [0, 100]");
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  return xs[nearest_rank_index(xs.size(), pct)];
}

std::string MetricsSnapshot::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "served %zu/%zu ok (%zu deadline, %zu rejected) in %zu "
                "batches (mean %.1f) | lat us p50 %.0f p95 %.0f p99 %.0f | "
                "%.0f req/s | depth %zu (peak %zu)",
                completed, submitted, deadline_exceeded, rejected, batches,
                mean_batch_size, latency_p50_us, latency_p95_us,
                latency_p99_us, throughput_rps, queue_depth,
                peak_queue_depth);
  return buf;
}

Metrics::Metrics(Clock& clock) : clock_(&clock), epoch_(clock.now()) {}

void Metrics::record_submitted(std::size_t queue_depth_after) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++submitted_;
  peak_queue_depth_ = std::max(peak_queue_depth_, queue_depth_after);
}

void Metrics::record_rejected() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++rejected_;
}

void Metrics::record_completed(double latency_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  latencies_us_.push_back(latency_us);
}

void Metrics::record_deadline_exceeded() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++deadline_exceeded_;
}

MetricsSnapshot Metrics::snapshot(std::size_t queue_depth) const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.deadline_exceeded = deadline_exceeded_;
  s.rejected = rejected_;
  s.queue_depth = queue_depth;
  s.peak_queue_depth = peak_queue_depth_;
  if (!latencies_us_.empty()) {
    // One sorted copy serves all three percentiles (snapshot holds mu_,
    // so recorders stall while this runs -- keep it to a single sort).
    std::vector<double> sorted = latencies_us_;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = [&](double pct) {
      return sorted[nearest_rank_index(sorted.size(), pct)];
    };
    double sum = 0.0;
    for (const double x : sorted) {
      sum += x;
    }
    s.latency_mean_us = sum / static_cast<double>(sorted.size());
    s.latency_max_us = sorted.back();
    s.latency_p50_us = rank(50.0);
    s.latency_p95_us = rank(95.0);
    s.latency_p99_us = rank(99.0);
  }
  s.wall_s = std::chrono::duration<double>(clock_->now() - epoch_).count();
  s.throughput_rps =
      s.wall_s > 0.0 ? static_cast<double>(completed_) / s.wall_s : 0.0;
  return s;
}

}  // namespace eb::serve
