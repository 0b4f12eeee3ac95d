/// \file
/// \brief Serving vocabulary shared by the gateway, the wire protocol and
/// the mapped backends: request status and result, the batch-handler and
/// completion signatures, and a model's dynamic-batching knobs.
///
/// serve::Gateway (serve/gateway.hpp) is the one serving engine: it queues
/// every admitted request once, and each model's batch workers form
/// batches straight from those queues under the BatchingConfig below. See
/// docs/SERVING.md for the request lifecycle and a tuning guide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bnn/tensor.hpp"
#include "common/thread_pool.hpp"

namespace eb::serve {

/// Terminal state of a served request. Values are stable: the wire
/// protocol (serve/wire.hpp) carries them as a single byte.
enum class Status : std::uint8_t {
  kOk = 0,            ///< Served; Result::output is valid.
  kDeadlineExceeded,  ///< Expired before its batch was formed.
  kRejected,          ///< Class queue full, submitted after shutdown, or
                      ///< the target model is not registered.
  kInternalError,     ///< The batch handler threw.
  kInvalidArgument,   ///< Malformed request (shape gate, wire decode).
};

/// Lower-case wire/log name of a Status ("ok", "deadline_exceeded", ...).
[[nodiscard]] const char* to_string(Status s);

/// What a submitted request resolves to.
struct Result {
  Status status = Status::kRejected;  ///< Terminal state.
  bnn::Tensor output;        ///< Valid only when status == kOk.
  /// Admission -> batch formation, microseconds: the whole wait the
  /// requester saw before its batch started executing.
  double queue_us = 0.0;
  double total_us = 0.0;     ///< Admission -> completion, microseconds.
  std::size_t batch_size = 0;  ///< Live requests in the batch served with.

  /// True when the request was served (status == kOk).
  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// A batch executor: maps inputs[i] -> outputs[i] using `pool` for
/// intra-batch parallelism. Must be safe to call concurrently from several
/// worker threads (the Network path is: const net + re-entrant pool;
/// serve::make_mapped_handler builds one from any map::MappedExecutor).
using BatchHandler = std::function<std::vector<bnn::Tensor>(
    std::span<const bnn::Tensor> inputs, ThreadPool& pool)>;

/// Completion callback: invoked exactly once per request with its
/// terminal Result -- from a batch worker (served / expired / failed), or
/// inline from submit_async when the request is rejected on admission.
/// Keep callbacks cheap and never let them throw: they run on worker
/// threads, where an escaping exception terminates the process. The wire
/// frontend uses it to write responses back to sockets.
using Completion = std::function<void(Result)>;

/// Dynamic-batching knobs of one registered model.
struct BatchingConfig {
  /// A batch closes as soon as it holds max_batch requests...
  std::size_t max_batch = 64;
  /// ...or when the model's oldest queued request has waited this long.
  /// Only requests admitted within that window join, so 0 serves every
  /// request alone -- the no-batching baseline.
  std::uint64_t batching_window_us = 1000;
  /// Batch workers, each forming and executing batches independently.
  std::size_t workers = 2;
  /// Inert: no longer read. Backlog is bounded by the admitting class's
  /// ClassConfig::queue_capacity; the field stays so configurations that
  /// still set it keep compiling.
  std::size_t queue_capacity = 0;
};

}  // namespace eb::serve
