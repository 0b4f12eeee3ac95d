#include "bnn/real_gemm.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define EB_REAL_GEMM_X86 1
#endif

namespace eb::bnn {

namespace {

constexpr std::size_t kW = RealPanels::kWidth;

std::size_t panel_count(std::size_t n) { return (n + kW - 1) / kW; }

// One R x P tile: R batch rows against P consecutive panels.
struct Tile {
  const double* x;     // first row; rows are k apart
  const double* w;     // first panel; panels are k * kW apart
  const double* bias;  // the P panels' bias lanes (contiguous)
  double* out;         // first output of the first row; rows are n apart
  std::size_t k;
  std::size_t n;
  std::size_t lanes;  // outputs of the tile that exist: P * kW except at
                      // the last panel of a layer whose n % kW != 0
};

// Copies the first t.lanes values of each accumulator row to the output,
// skipping the zero-padded lanes past n.
template <std::size_t R, std::size_t L>
void store_partial(const double (&vals)[R][L], const Tile& t) {
  for (std::size_t r = 0; r < R; ++r) {
    std::memcpy(t.out + r * t.n, vals[r], t.lanes * sizeof(double));
  }
}

// Each ISA names its tile micro-kernel and its tile shapes: kMaxRows batch
// rows at most, and panels(R) panels for an R-row block. Every tile lane
// accumulates bias-first, k ascending, acc = acc + x * w (never fused).

struct Portable {
  static constexpr std::size_t kMaxRows = 4;
  static constexpr std::size_t panels(std::size_t /*rows*/) { return 1; }

  template <std::size_t R, std::size_t P>
  static void tile(const Tile& t) {
    constexpr std::size_t L = P * kW;
    double acc[R][L];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t l = 0; l < L; ++l) {
        acc[r][l] = t.bias[l];
      }
    }
    for (std::size_t kk = 0; kk < t.k; ++kk) {
      for (std::size_t p = 0; p < P; ++p) {
        const double* wk = t.w + (p * t.k + kk) * kW;
        for (std::size_t r = 0; r < R; ++r) {
          const double xv = t.x[r * t.k + kk];
          for (std::size_t l = 0; l < kW; ++l) {
            acc[r][p * kW + l] = acc[r][p * kW + l] + xv * wk[l];
          }
        }
      }
    }
    store_partial(acc, t);
  }
};

#ifdef EB_REAL_GEMM_X86

// GCC 12's avx512 headers expand maskless intrinsics through their masked
// forms with an undefined pass-through operand, tripping a false-positive
// -Wmaybe-uninitialized (GCC PR105593); silence it for these kernels only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// One zmm per panel. 8x2 and 4x4 keep 16 accumulators live, 2x8 and 1x8
// stream more panels per broadcast for small batches.
struct Avx512 {
  static constexpr std::size_t kMaxRows = 8;
  static constexpr std::size_t panels(std::size_t rows) {
    return rows >= 8 ? 2 : rows == 4 ? 4 : 8;
  }

  template <std::size_t R, std::size_t P>
  __attribute__((target("avx512f"))) static void tile(const Tile& t) {
    __m512d acc[R][P];
    for (std::size_t p = 0; p < P; ++p) {
      const __m512d b = _mm512_loadu_pd(t.bias + p * kW);
      for (std::size_t r = 0; r < R; ++r) {
        acc[r][p] = b;
      }
    }
    for (std::size_t kk = 0; kk < t.k; ++kk) {
      __m512d wv[P];
      for (std::size_t p = 0; p < P; ++p) {
        wv[p] = _mm512_loadu_pd(t.w + (p * t.k + kk) * kW);
      }
      for (std::size_t r = 0; r < R; ++r) {
        const __m512d xv = _mm512_set1_pd(t.x[r * t.k + kk]);
        for (std::size_t p = 0; p < P; ++p) {
          acc[r][p] = _mm512_add_pd(acc[r][p], _mm512_mul_pd(xv, wv[p]));
        }
      }
    }
    if (t.lanes == P * kW) {
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t p = 0; p < P; ++p) {
          _mm512_storeu_pd(t.out + r * t.n + p * kW, acc[r][p]);
        }
      }
      return;
    }
    double vals[R][P * kW];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t p = 0; p < P; ++p) {
        _mm512_storeu_pd(vals[r] + p * kW, acc[r][p]);
      }
    }
    store_partial(vals, t);
  }
};

#pragma GCC diagnostic pop

// Two ymm halves per panel. Every shape keeps 8 accumulators, leaving
// room in the 16 ymm registers for the weight rows and the broadcast.
struct Avx2 {
  static constexpr std::size_t kMaxRows = 4;
  static constexpr std::size_t panels(std::size_t rows) { return 4 / rows; }

  template <std::size_t R, std::size_t P>
  __attribute__((target("avx2"))) static void tile(const Tile& t) {
    constexpr std::size_t V = 2 * P;  // half-panel vectors per row
    __m256d acc[R][V];
    for (std::size_t v = 0; v < V; ++v) {
      const __m256d b = _mm256_loadu_pd(t.bias + v * 4);
      for (std::size_t r = 0; r < R; ++r) {
        acc[r][v] = b;
      }
    }
    for (std::size_t kk = 0; kk < t.k; ++kk) {
      __m256d wv[V];
      for (std::size_t p = 0; p < P; ++p) {
        const double* wk = t.w + (p * t.k + kk) * kW;
        wv[2 * p] = _mm256_loadu_pd(wk);
        wv[2 * p + 1] = _mm256_loadu_pd(wk + 4);
      }
      for (std::size_t r = 0; r < R; ++r) {
        const __m256d xv = _mm256_broadcast_sd(t.x + r * t.k + kk);
        for (std::size_t v = 0; v < V; ++v) {
          acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(xv, wv[v]));
        }
      }
    }
    if (t.lanes == P * kW) {
      for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t v = 0; v < V; ++v) {
          _mm256_storeu_pd(t.out + r * t.n + v * 4, acc[r][v]);
        }
      }
      return;
    }
    double vals[R][P * kW];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < V; ++v) {
        _mm256_storeu_pd(vals[r] + v * 4, acc[r][v]);
      }
    }
    store_partial(vals, t);
  }
};

#endif  // EB_REAL_GEMM_X86

// R rows from x/out against every panel, starting at panel p: as many
// R x P tiles as fit, then the remainder (< P panels) with P/2, P/4, ...
template <class Isa, std::size_t R, std::size_t P>
void panel_sweep(const double* x, const RealPanels& w, double* out,
                 std::size_t p) {
  for (; p + P <= w.panels(); p += P) {
    const Tile t{x,        w.panel(p), w.bias(p),
                 out + p * kW, w.k(),  w.n(),
                 std::min(P * kW, w.n() - p * kW)};
    Isa::template tile<R, P>(t);
  }
  if constexpr (P > 1) {
    panel_sweep<Isa, R, P / 2>(x, w, out, p);
  }
}

// Rows [i, r1) in blocks of R, then the remainder (< R rows) with R/2,
// R/4, ... -- the tile shape follows from the rows left, nothing is tuned.
template <class Isa, std::size_t R>
void row_sweep(std::size_t i, std::size_t r1, const double* x,
               const RealPanels& w, double* out) {
  for (; i + R <= r1; i += R) {
    panel_sweep<Isa, R, Isa::panels(R)>(x + i * w.k(), w, out + i * w.n(), 0);
  }
  if constexpr (R > 1) {
    row_sweep<Isa, R / 2>(i, r1, x, w, out);
  }
}

template <class Isa>
void gemm_rows(std::size_t r0, std::size_t r1, const double* x,
               const RealPanels& w, double* out) {
  row_sweep<Isa, Isa::kMaxRows>(r0, r1, x, w, out);
}

}  // namespace

RealPanels::RealPanels(std::size_t n, std::size_t k, const double* w,
                       const double* bias)
    : n_(n),
      k_(k),
      data_(panel_count(n) * k * kW, 0.0),
      bias_(panel_count(n) * kW, 0.0) {
  EB_REQUIRE(n * k == 0 || w != nullptr, "RealPanels needs weights");
  for (std::size_t p = 0; p < panels(); ++p) {
    double* dst = data_.data() + p * k * kW;
    const std::size_t lanes = std::min(kW, n - p * kW);
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t l = 0; l < lanes; ++l) {
        dst[kk * kW + l] = w[(p * kW + l) * k + kk];
      }
    }
  }
  if (bias != nullptr) {
    std::copy(bias, bias + n, bias_.begin());
  }
}

const std::vector<RealGemmVariant>& real_gemm_variants() {
  static const std::vector<RealGemmVariant> variants = [] {
    std::vector<RealGemmVariant> v;
#ifdef EB_REAL_GEMM_X86
    v.push_back({"avx512", gemm_rows<Avx512>,
                 __builtin_cpu_supports("avx512f") != 0});
    v.push_back({"avx2", gemm_rows<Avx2>, __builtin_cpu_supports("avx2") != 0});
#endif
    v.push_back({"portable", gemm_rows<Portable>, true});
    return v;
  }();
  return variants;
}

const RealGemmVariant& real_gemm_dispatched() {
  static const RealGemmVariant& picked = [] () -> const RealGemmVariant& {
    for (const RealGemmVariant& v : real_gemm_variants()) {
      if (v.supported) {
        return v;
      }
    }
    return real_gemm_variants().back();  // portable is always supported
  }();
  return picked;
}

void real_gemm_bias(std::size_t m, const double* x, const RealPanels& w,
                    double* out, ThreadPool* pool,
                    const RealGemmVariant& variant) {
  if (m == 0 || w.n() == 0) {
    return;  // empty batch / empty layer: nothing to write
  }
  EB_REQUIRE(variant.supported, std::string("real GEMM variant '") +
                                    variant.name +
                                    "' is not supported on this CPU");
  EB_REQUIRE(out != nullptr, "real_gemm_bias needs out");
  EB_REQUIRE(w.k() == 0 || x != nullptr, "real_gemm_bias needs x when k > 0");
  // Row chunks of the widest tile, so only the last chunk has a remainder.
  constexpr std::size_t kRowGrain = 8;
  const auto body = [&](std::size_t r0, std::size_t r1) {
    variant.rows(r0, r1, x, w, out);
  };
  if (pool != nullptr && m > kRowGrain) {
    pool->parallel_for(0, m, kRowGrain, body);
  } else {
    body(0, m);
  }
}

}  // namespace eb::bnn
