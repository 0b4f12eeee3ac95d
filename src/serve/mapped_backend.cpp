#include "serve/mapped_backend.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace eb::serve {

namespace {

// Shared by every copy of the handler std::function (the gateway may copy
// it); the mutex serializes only the per-batch split(), not the batch
// execution itself.
struct MappedHandlerState {
  std::shared_ptr<const map::MappedExecutor> exec;
  std::shared_ptr<const dev::NoiseModel> noise;
  std::mutex mu;
  RngStream rng;
};

}  // namespace

BitVec tensor_to_bits(const bnn::Tensor& t, std::size_t m) {
  EB_REQUIRE(t.size() == m,
             "mapped backend request size must equal executor dims().m");
  BitVec x(m);
  for (std::size_t k = 0; k < m; ++k) {
    x.set(k, t[k] > 0.5);
  }
  return x;
}

BatchHandler make_mapped_handler(
    std::shared_ptr<const map::MappedExecutor> exec,
    std::shared_ptr<const dev::NoiseModel> noise, std::uint64_t seed) {
  EB_REQUIRE(exec != nullptr, "mapped handler needs an executor");
  EB_REQUIRE(noise != nullptr, "mapped handler needs a noise model");
  auto state = std::make_shared<MappedHandlerState>();
  state->exec = std::move(exec);
  state->noise = std::move(noise);
  state->rng.seed(seed);
  return [state](std::span<const bnn::Tensor> batch,
                 ThreadPool& pool) -> std::vector<bnn::Tensor> {
    const std::size_t m = state->exec->dims().m;
    std::vector<BitVec> bits;
    bits.reserve(batch.size());
    for (const auto& t : batch) {
      bits.push_back(tensor_to_bits(t, m));
    }
    RngStream batch_rng;
    {
      const std::lock_guard<std::mutex> lock(state->mu);
      batch_rng = state->rng.split();
    }
    const auto counts =
        state->exec->execute_batch(bits, *state->noise, batch_rng, &pool);
    std::vector<bnn::Tensor> out;
    out.reserve(counts.size());
    for (const auto& row : counts) {
      bnn::Tensor t({row.size()});
      for (std::size_t j = 0; j < row.size(); ++j) {
        t[j] = static_cast<double>(row[j]);
      }
      out.push_back(std::move(t));
    }
    return out;
  };
}

}  // namespace eb::serve
