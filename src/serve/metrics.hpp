/// \file
/// \brief Serving metrics: the counters and distributions a
/// latency-budgeted serving layer has to expose to be tunable.
///
/// serve::Gateway records one event per request of a deadline class
/// (submitted / completed / deadline_exceeded / rejected); snapshot()
/// folds them into the numbers the load bench and the CI perf gate consume:
/// latency percentiles (p50/p95/p99 by nearest-rank over every completed
/// request -- serving benches are small enough that keeping all samples
/// beats a sketch), queue-depth gauge + high-water mark, and sustained
/// throughput. The gateway fills a model's batch counters (batches, the
/// batch-size histogram, mean batch size) into the same snapshot type.
/// docs/SERVING.md walks through every field.
///
/// Metrics is internally locked: batch workers and submit() callers
/// record concurrently, and snapshot() can be taken from any thread
/// mid-flight (it sees a consistent cut).
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"

namespace eb::serve {

/// Nearest-rank percentile (pct in [0, 100]) of an unsorted sample set.
/// Sorts a copy; empty input -> 0. The rank is clamped to [1, n] with a
/// small epsilon against binary-float round-up, so every pct of a
/// single-sample window returns that sample (never an out-of-range
/// rank). Exposed for tests and the load benches.
[[nodiscard]] double percentile(std::vector<double> xs, double pct);

/// Consistent cut of a class's (or a model's) serving counters, ready to
/// print or gate on. Counter invariant: submitted == completed +
/// deadline_exceeded + failed + in-flight; rejected submissions (queue
/// full / after shutdown) are counted separately and never enter a queue.
/// A class snapshot leaves the batch fields zero; a model snapshot fills
/// only the counters, batch fields and queue_depth.
struct MetricsSnapshot {
  std::size_t submitted = 0;          ///< Accepted into the queue.
  std::size_t completed = 0;          ///< Served with kOk.
  std::size_t deadline_exceeded = 0;  ///< Expired at batch formation.
  std::size_t rejected = 0;           ///< Backpressured / post-shutdown.
  std::size_t batches = 0;            ///< Batches formed (model only).

  /// Queue depth at snapshot time (owned by the gateway -- it knows the
  /// queues; Metrics itself tracks only the high-water mark at submit).
  std::size_t queue_depth = 0;
  std::size_t peak_queue_depth = 0;  ///< High-water mark seen at submit.

  double latency_mean_us = 0.0;  ///< Mean submit -> completion latency.
  double latency_p50_us = 0.0;   ///< Median latency, microseconds.
  double latency_p95_us = 0.0;   ///< 95th percentile latency.
  double latency_p99_us = 0.0;   ///< 99th percentile latency.
  double latency_max_us = 0.0;   ///< Worst completed-request latency.

  /// batch_size_hist[k] = formed batches that served exactly k live
  /// requests (index 0 unused). Sized to the largest batch seen.
  std::vector<std::size_t> batch_size_hist;
  double mean_batch_size = 0.0;  ///< Mean live requests per batch.

  double wall_s = 0.0;  ///< Clock time since the Metrics epoch (construction).
  double throughput_rps = 0.0;  ///< completed / wall_s.

  /// One-line human-readable digest.
  [[nodiscard]] std::string summary() const;
};

/// Internally-locked event recorder behind the gateway's class metrics.
class Metrics {
 public:
  /// Starts the epoch throughput is measured against, on `clock` (which
  /// must outlive the recorder).
  explicit Metrics(Clock& clock = Clock::real());

  /// One accepted request; `queue_depth_after` updates the high-water mark.
  void record_submitted(std::size_t queue_depth_after);
  /// One rejected submission (backpressure or post-shutdown).
  void record_rejected();
  /// One completed request: latency from submit to promise fulfil.
  void record_completed(double latency_us);
  /// One request that expired at batch formation.
  void record_deadline_exceeded();

  /// Consistent cut of everything recorded so far. `queue_depth` is the
  /// caller-observed current depth (the gateway passes its queue size).
  [[nodiscard]] MetricsSnapshot snapshot(std::size_t queue_depth) const;

 private:
  mutable std::mutex mu_;
  Clock* clock_;
  Clock::time_point epoch_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t deadline_exceeded_ = 0;
  std::size_t rejected_ = 0;
  std::size_t peak_queue_depth_ = 0;
  std::vector<double> latencies_us_;
};

}  // namespace eb::serve
