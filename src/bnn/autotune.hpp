// Per-shape empirical kernel selection over the registry in kernels.hpp.
//
// Which XNOR sweep wins depends on the call shape: weight-row count
// (short vs tall sweeps favor different row blocks), row width in words
// (vector-tail fraction), and batch size (x-stream reuse). Instead of one
// process-global choice, the Autotuner times every *supported* registry
// candidate on the first GEMM of each shape class and pins the winner in
// a concurrent shape -> kernel table. Because every candidate computes
// exact integer popcounts, tuning can never change a result -- only
// latency -- so selection is free to be empirical.
//
// Shape classes: (weight rows, words per row, batch rows) each rounded up
// to the next power of two and capped (4096 / 1024 / 64), so e.g. all
// 1000..1024-wide layers at batch 33..64 share one tuned pick. The
// real-valued GEMM (bnn/real_gemm.hpp) is not tuned: its tile shape is a
// closed-form function of the batch size.
//
// Knobs (parsed strictly via eb::Config::env_* -- a typo fails loudly):
//  * EB_KERNEL=<name>     -- force one registry kernel for every xnor
//    shape (CI determinism, A/B runs). Unknown names raise eb::Error
//    naming the accepted list; known-but-unsupported names raise too.
//  * EB_TUNE_CACHE=<path> -- load the shape table from a JSON file at
//    startup (missing file = start empty) and write it back at process
//    exit, so serving processes skip the first-use timing entirely.
//
// Eager tuning: BatchRunner construction (and therefore
// serve::Gateway::register_model for network-backed models) warms the
// table up for every binary layer's GEMM shape at registration time, so
// no live request ever pays the timing run.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bnn/kernels.hpp"

namespace eb::bnn {

/// One pinned decision, as exposed for reports, caches and tests.
struct TunedEntry {
  std::string family;  ///< Always "xnor" (sweep kernels); cache files may
                       ///< still hold legacy "real" entries, skipped on load.
  std::size_t rows = 0;   ///< Bucketed weight rows.
  std::size_t words = 0;  ///< Bucketed words per row.
  std::size_t batch = 0;  ///< Bucketed batch rows.
  std::string kernel;     ///< Winning candidate ("avx2", ...).
  double best_ns = 0.0;   ///< Winner's measured time per probe unit (0 when
                          ///< loaded from cache or forced).
};

/// The process-wide shape -> kernel table. Thread-safe: concurrent
/// pick_xnor calls from serving workers are fine; a first-use tuning run
/// serializes only callers of the same new shape class.
class Autotuner {
 public:
  /// Process-wide instance. First call parses EB_KERNEL / EB_TUNE_CACHE
  /// (throwing eb::Error on invalid values) and loads the cache file when
  /// one is named.
  [[nodiscard]] static Autotuner& instance();

  /// The sweep kernel to use for one GEMM of this shape: the forced
  /// EB_KERNEL if set, else the cached winner, else time-and-pin now.
  [[nodiscard]] const Kernel& pick_xnor(std::size_t w_rows,
                                        std::size_t words_per_row,
                                        std::size_t batch_rows);

  /// Eagerly tunes the shape class of a (w_rows x cols) binary layer hit
  /// by batches of `batch_rows` (model-registration hook; `cols` in bits).
  void warmup_xnor(std::size_t w_rows, std::size_t cols,
                   std::size_t batch_rows);

  /// The EB_KERNEL-forced kernel, or nullptr when selection is empirical.
  [[nodiscard]] const Kernel* forced() const;

  /// Serializes the table as JSON (the EB_TUNE_CACHE file format, see
  /// docs/TUNING.md).
  [[nodiscard]] std::string to_json() const;
  /// Merges entries parsed from `text` into the table. Entries naming a
  /// kernel this build/host cannot run are skipped (a cache written on an
  /// AVX-512 host must still load on an AVX2 one), and so are legacy
  /// "real" family entries; malformed JSON raises eb::Error.
  void load_json(const std::string& text);
  /// to_json() to `path` (throws on I/O failure).
  void save_cache_file(const std::string& path) const;
  /// load_json() from `path`; returns false (and changes nothing) when
  /// the file does not exist.
  bool load_cache_file(const std::string& path);

  /// Current table, deterministic order (buckets ascending).
  [[nodiscard]] std::vector<TunedEntry> table() const;
  /// Pinned decisions count (tests / reports).
  [[nodiscard]] std::size_t table_size() const;
  /// Drops every pinned decision (tests; serving code never needs this).
  void clear();

  /// Re-reads EB_KERNEL / EB_TUNE_CACHE, throwing on invalid values
  /// exactly like first use. Test hook for the env error paths; the table
  /// is kept.
  void reinit_from_env();

 private:
  Autotuner();
  struct Impl;
  Impl* impl_;  // intentionally leaked singleton state (no exit-order UB)
};

}  // namespace eb::bnn
