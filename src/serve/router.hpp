/// \file
/// \brief Deadline classes and the weighted-deficit round-robin scheduler
/// behind serve::Gateway's admission queues.
///
/// Two pieces live here, both deliberately free of threads so they can be
/// unit-tested deterministically:
///
///  * DeadlineClass / ClassConfig -- the three service classes every
///    gateway request is admitted under (interactive | batch |
///    besteffort), each with a scheduling weight, a default deadline and a
///    capacity partition of the gateway's admission queues.
///  * WeightedDrrQueue<Item> -- a deficit round-robin (DRR) scheduler over
///    any number of FIFO queues. Each queue accrues credit in proportion
///    to its weight; one pop costs one credit, so under sustained backlog
///    the pop stream interleaves queues in weight proportion (weights 3:1
///    => 3 pops from the first per 1 from the second, the property the
///    gateway fairness test and the gateway_load CI gate pin down).
///    A per-pop eligibility predicate lets the caller mask queues that
///    cannot take work right now; masked queues keep their credit -- they
///    are backlogged, just blocked -- while *empty* queues forfeit it
///    (idle queues must not bank credit, the classic DRR rule). The
///    gateway keeps one such scheduler per model, over its three class
///    queues.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace eb::serve {

/// Service class a gateway request is admitted under. Values are stable:
/// the wire protocol (serve/wire.hpp) carries them as a single byte.
enum class DeadlineClass : std::uint8_t {
  kInteractive = 0,  ///< Latency-sensitive; highest weight, tight deadline.
  kBatch,            ///< Throughput traffic; mid weight, loose deadline.
  kBestEffort,       ///< Scavenger; lowest weight, no default deadline.
};

/// Number of deadline classes (array extents, wire validation).
inline constexpr std::size_t kNumClasses = 3;

/// Lower-case wire/log name ("interactive", "batch", "besteffort").
[[nodiscard]] const char* to_string(DeadlineClass c);

/// Inverse of to_string; throws eb::Error on an unknown name.
[[nodiscard]] DeadlineClass parse_deadline_class(const std::string& name);

/// Per-class admission policy of a gateway.
struct ClassConfig {
  /// Scheduling weight (> 0): under saturation the class receives this
  /// share of a model's batch slots relative to the other classes'
  /// weights.
  double weight = 1.0;
  /// Deadline applied to requests submitted without an explicit one;
  /// 0 = none. Measured from gateway admission (end to end).
  std::uint64_t default_deadline_us = 0;
  /// The class's partition of the gateway's admission capacity: total
  /// queued requests of this class (across all models) beyond which
  /// submissions complete with kRejected.
  std::size_t queue_capacity = 4096;
};

/// The default class table: interactive 4x / 100 ms, batch 2x / 1 s,
/// besteffort 1x / no deadline.
[[nodiscard]] std::array<ClassConfig, kNumClasses> default_class_configs();

/// Deficit round-robin over dynamically-registered FIFO queues. Not
/// internally locked -- the gateway calls it under its admission mutex.
template <typename Item>
class WeightedDrrQueue {
 public:
  /// Registers a queue with scheduling weight `weight` (> 0); returns its
  /// handle. Slots of removed queues are reused (their handles come back),
  /// so long-lived register/unregister churn keeps the scan set at
  /// O(live queues) instead of O(queues ever created).
  std::size_t add_queue(double weight) {
    EB_REQUIRE(weight > 0.0, "DRR queue weight must be > 0");
    for (std::size_t h = 0; h < queues_.size(); ++h) {
      if (!queues_[h].live) {
        EB_ASSERT(queues_[h].items.empty(), "dead DRR queue not drained");
        queues_[h] = Q{{}, weight, 0.0, true};
        return h;
      }
    }
    queues_.push_back(Q{{}, weight, 0.0, true});
    return queues_.size() - 1;
  }

  /// Unregisters a queue and returns everything still in it (the caller
  /// owns rejecting/rerouting the drained items).
  std::vector<Item> remove_queue(std::size_t h) {
    Q& q = at(h);
    q.live = false;
    q.deficit = 0.0;
    EB_ASSERT(total_ >= q.items.size(), "DRR total/queue size out of sync");
    total_ -= q.items.size();
    std::vector<Item> out(std::make_move_iterator(q.items.begin()),
                          std::make_move_iterator(q.items.end()));
    q.items.clear();
    return out;
  }

  /// Appends to queue `h` (FIFO within a queue).
  void push(std::size_t h, Item item) {
    Q& q = at(h);
    EB_REQUIRE(q.live, "push to a removed DRR queue");
    q.items.push_back(std::move(item));
    ++total_;
  }

  [[nodiscard]] std::size_t size(std::size_t h) const {
    return at(h).items.size();
  }
  /// Queue `h`'s items, oldest first.
  [[nodiscard]] const std::deque<Item>& items(std::size_t h) const {
    return at(h).items;
  }
  [[nodiscard]] std::size_t total_size() const { return total_; }

  /// Pops the next item under DRR among non-empty queues for which
  /// eligible(handle) holds. Returns the (handle, item) pair, or nullopt
  /// when every non-empty queue is ineligible (or all are empty).
  template <typename Eligible>
  std::optional<std::pair<std::size_t, Item>> pop_next(
      Eligible&& eligible) {
    const std::size_t n = queues_.size();
    if (n == 0 || total_ == 0) {
      return std::nullopt;
    }
    // Pass 1: serve the first eligible queue (from the cursor) that
    // already holds a full credit.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t h = (cursor_ + i) % n;
        Q& q = queues_[h];
        if (!q.live || q.items.empty()) {
          q.deficit = 0.0;  // idle queues do not bank credit
          continue;
        }
        if (!eligible(h)) {
          continue;  // blocked downstream: keeps its credit
        }
        if (q.deficit >= 1.0) {
          Item item = std::move(q.items.front());
          q.items.pop_front();
          q.deficit -= 1.0;
          --total_;
          cursor_ = h;  // keep draining this queue while credit lasts
          return std::make_pair(h, std::move(item));
        }
      }
      if (pass == 1) {
        break;
      }
      // Grant round: no eligible queue had a full credit. Top every
      // eligible backlogged queue up by the smallest whole number of
      // weight-quanta that pushes at least one of them over 1.0, then
      // serve on the second pass. (One grant suffices when weights are
      // >= 1; fractional weights may need several quanta, hence the
      // explicit k.)
      double k = 0.0;
      bool any = false;
      for (std::size_t h = 0; h < n; ++h) {
        Q& q = queues_[h];
        if (!q.live || q.items.empty() || !eligible(h)) {
          continue;
        }
        const double need = (1.0 - q.deficit) / q.weight;
        k = any ? std::min(k, need) : need;
        any = true;
      }
      if (!any) {
        return std::nullopt;  // backlogged queues exist but none eligible
      }
      const double quanta = std::max(1.0, std::ceil(k));
      for (std::size_t h = 0; h < n; ++h) {
        Q& q = queues_[h];
        if (q.live && !q.items.empty() && eligible(h)) {
          q.deficit += quanta * q.weight;
        }
      }
    }
    return std::nullopt;
  }

  /// Convenience pop with every queue eligible.
  std::optional<std::pair<std::size_t, Item>> pop_next() {
    return pop_next([](std::size_t) { return true; });
  }

 private:
  struct Q {
    std::deque<Item> items;
    double weight = 1.0;
    double deficit = 0.0;
    bool live = false;
  };

  [[nodiscard]] Q& at(std::size_t h) {
    EB_REQUIRE(h < queues_.size(), "bad DRR queue handle");
    return queues_[h];
  }
  [[nodiscard]] const Q& at(std::size_t h) const {
    EB_REQUIRE(h < queues_.size(), "bad DRR queue handle");
    return queues_[h];
  }

  std::vector<Q> queues_;
  std::size_t cursor_ = 0;
  std::size_t total_ = 0;
};

}  // namespace eb::serve
