// Register-tiled real-valued GEMM for the non-binary network ends.
//
// The paper keeps the first and last Dense/Conv layers in higher
// precision, so batched MLP/CNN inference spends real time in plain
// double GEMMs. This kernel computes
//
//   out[i][j] = bias[j] + sum_k x[i][k] * w[j][k]
//
// against weights packed once, at layer construction, into RealPanels:
// k-major panels of 8 outputs, `[ceil(n/8)][k][8]`, zero-padded past n,
// with the bias padded the same way. One k step of a panel is one
// contiguous 8-wide weight row, so the micro-kernel vectorizes across
// outputs: a tile keeps R batch rows x P panels of accumulators in
// registers and, per k step, broadcasts x[r][k] and loads one weight row
// per panel. Every accumulator lane is an independent chain, so even a
// batch of one keeps 8 x P chains in flight.
//
// Variants are picked once per process from the host CPU:
//  * avx512   -- one zmm per panel; tiles 8x2, 4x4, 2x8, 1x8;
//  * avx2     -- two ymm halves per panel; tiles 4x1, 2x2, 1x4 (8
//                accumulators, so weights and broadcasts still fit in 16
//                registers);
//  * portable -- the same panel loop in scalar code, 4 rows at most.
// The tile shape is a closed-form function of the rows left in the
// batch (largest R that fits) and of the panels left in the row block
// (P, then halves), so nothing is timed or tuned.
//
// Determinism: every lane runs bias-first, then k ascending, with an
// unfused `acc = acc + x * w` -- exactly the order and rounding of the
// per-sample reference loops -- and rows never share accumulators. Results
// are bit-identical to DenseLayer::forward / Conv2dLayer::forward for any
// batch shape, thread count and variant. The unfused rule is why eb_core
// builds with -ffp-contract=off: inside the AVX-512 target functions
// (which enable FMA) the compiler would otherwise contract the
// multiply-add into an FMA, which rounds once instead of twice.
#pragma once

#include <cstddef>
#include <vector>

#include "common/thread_pool.hpp"

namespace eb::bnn {

/// The weights (and bias) of one real-valued layer in the micro-kernel's
/// panel layout. Immutable after construction.
class RealPanels {
 public:
  /// Outputs per panel.
  static constexpr std::size_t kWidth = 8;

  RealPanels() = default;
  /// w: n rows of k values (row-major [n][k]); bias: n values, or nullptr
  /// for none (accumulation then starts at +0.0, as the reference does).
  RealPanels(std::size_t n, std::size_t k, const double* w,
             const double* bias);

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t panels() const { return bias_.size() / kWidth; }
  /// Panel p: k rows of kWidth weights, then panel p + 1.
  [[nodiscard]] const double* panel(std::size_t p) const {
    return data_.data() + p * k_ * kWidth;
  }
  /// kWidth bias values per panel, zero-padded.
  [[nodiscard]] const double* bias(std::size_t p) const {
    return bias_.data() + p * kWidth;
  }

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  std::vector<double> data_;
  std::vector<double> bias_;
};

/// Computes output rows [r0, r1) of one GEMM (x rows are w.k() apart,
/// out rows w.n() apart).
using RealRowsFn = void (*)(std::size_t r0, std::size_t r1, const double* x,
                            const RealPanels& w, double* out);

/// One compiled micro-kernel variant and whether the host can run it.
struct RealGemmVariant {
  const char* name;  ///< "avx512", "avx2" or "portable".
  RealRowsFn rows;
  bool supported;
};

/// Every variant compiled into this build, fastest first. "portable" is
/// last and supported everywhere.
[[nodiscard]] const std::vector<RealGemmVariant>& real_gemm_variants();

/// The first supported variant: what real_gemm_bias runs by default.
[[nodiscard]] const RealGemmVariant& real_gemm_dispatched();

/// x: m rows of w.k() values; out: m x w.n() row-major. `pool` may be
/// nullptr (serial); rows go parallel in blocks of 8. `variant` must be
/// supported (eb::Error otherwise); tests and benches pass one explicitly.
void real_gemm_bias(std::size_t m, const double* x, const RealPanels& w,
                    double* out, ThreadPool* pool = nullptr,
                    const RealGemmVariant& variant = real_gemm_dispatched());

}  // namespace eb::bnn
