// Serving-layer suite: the dynamic batching policy, deadline budgets,
// drain semantics and metrics of a one-model serve::Gateway, plus the
// shared-pool plumbing it rides on (BatchRunner external-pool mode,
// TacitMapElectrical batch execution).
//
// Contracts under test:
//  * concurrent submit() from many threads is loss-free and every output
//    is bit-identical to the per-sample reference path, no matter how the
//    requests were coalesced into batches;
//  * a batch closes at max_batch or when the oldest member's window
//    expires, whichever first -- and window 0 means singleton batches;
//  * expired requests complete with kDeadlineExceeded, never dropped;
//  * shutdown() drains: every accepted request's future is fulfilled;
//  * the whole suite is run by CI under EB_THREADS=1 and 4 and under
//    ThreadSanitizer (the queues are a real producer/consumer path).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bnn/batch_runner.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/network.hpp"
#include "bnn/tensor.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "device/noise.hpp"
#include "mapping/custbinarymap.hpp"
#include "mapping/executor.hpp"
#include "mapping/tacitmap.hpp"
#include "mapping/task.hpp"
#include "serve/gateway.hpp"
#include "serve/metrics.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"

namespace eb {
namespace {

using bnn::Network;
using bnn::Tensor;
using serve::DeadlineClass;
using serve::Gateway;
using serve::GatewayConfig;
using serve::ModelConfig;
using serve::Result;
using serve::Status;

constexpr std::size_t kInputDim = 64;

Network make_net() {
  Rng rng(7);
  return bnn::build_mlp("serve-test", {kInputDim, 96, 48, 10}, rng);
}

std::vector<Tensor> make_inputs(std::size_t n) {
  Rng rng(11);
  std::vector<Tensor> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Tensor::random_uniform({kInputDim}, 1.0, rng));
  }
  return inputs;
}

void expect_tensors_equal(const Tensor& got, const Tensor& want,
                          std::size_t sample) {
  ASSERT_EQ(got.size(), want.size()) << "sample " << sample;
  for (std::size_t k = 0; k < got.size(); ++k) {
    // Bit-identical, not approximately equal: the serving path must run
    // the very same kernels as the reference path.
    EXPECT_EQ(got[k], want[k]) << "sample " << sample << " elem " << k;
  }
}

// ------------------------------------------------------------ percentile --

TEST(Percentile, NearestRank) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) {
    xs.push_back(i);
  }
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 95.0), 95.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(serve::percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(serve::percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, SingleSampleWindowReturnsThatSample) {
  // Regression: every percentile of a one-sample window is that sample --
  // the nearest rank must clamp into [1, n], never index past the end.
  for (const double pct : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(serve::percentile({42.5}, pct), 42.5) << pct;
  }
  // And a Metrics window holding one completed request reports it as
  // every latency statistic.
  serve::Metrics m;
  m.record_completed(123.0);
  const auto s = m.snapshot(0);
  EXPECT_DOUBLE_EQ(s.latency_p50_us, 123.0);
  EXPECT_DOUBLE_EQ(s.latency_p95_us, 123.0);
  EXPECT_DOUBLE_EQ(s.latency_p99_us, 123.0);
  EXPECT_DOUBLE_EQ(s.latency_max_us, 123.0);
}

TEST(Percentile, NearestRankResistsFloatRoundUp) {
  // 0.95 * 20 evaluates to 19.000000000000004 in binary floating point;
  // ceil of the raw product would skip rank 19 (sample 19.0) for rank 20.
  std::vector<double> xs;
  for (int i = 1; i <= 20; ++i) {
    xs.push_back(i);
  }
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 95.0), 19.0);
  EXPECT_DOUBLE_EQ(serve::percentile(xs, 100.0), 20.0);
}

// -------------------------------------------------- one-model gateway --

// Every test below serves one model, "m", under the best-effort class,
// which has no default deadline.
constexpr DeadlineClass kCls = DeadlineClass::kBestEffort;

GatewayConfig one_model_config(std::size_t pool_threads = 1,
                               Clock* clock = nullptr) {
  GatewayConfig gcfg;
  gcfg.pool_threads = pool_threads;
  gcfg.clock = clock;
  return gcfg;
}

std::future<Result> submit(Gateway& gw, const Tensor& x,
                           std::uint64_t deadline_us = 0) {
  return gw.submit("m", x, kCls, deadline_us);
}

// Model "m"'s batch counters and the class's latency metrics.
serve::MetricsSnapshot model_metrics(const Gateway& gw) {
  for (const auto& m : gw.metrics().models) {
    if (m.id == "m") {
      return m.server;
    }
  }
  ADD_FAILURE() << "model m is not registered";
  return {};
}
serve::MetricsSnapshot class_metrics(const Gateway& gw) {
  return gw.metrics().classes[static_cast<std::size_t>(kCls)];
}

TEST(OneModelGateway, SingleRequestMatchesForward) {
  const Network net = make_net();
  const auto inputs = make_inputs(1);
  Gateway gw(one_model_config());
  ModelConfig cfg;
  cfg.server.batching_window_us = 0;  // serve immediately
  cfg.server.workers = 1;
  gw.register_model("m", net, cfg);
  const Result res = submit(gw, inputs[0]).get();
  ASSERT_EQ(res.status, Status::kOk) << to_string(res.status);
  EXPECT_EQ(res.batch_size, 1u);
  EXPECT_GE(res.total_us, res.queue_us);
  expect_tensors_equal(res.output, net.forward(inputs[0]), 0);
}

TEST(OneModelGateway, ConcurrentSubmitIsLossFreeAndBitIdentical) {
  const Network net = make_net();
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 24;
  const auto inputs = make_inputs(kClients * kPerClient);

  // Reference outputs from the per-sample path.
  std::vector<Tensor> want;
  want.reserve(inputs.size());
  for (const auto& in : inputs) {
    want.push_back(net.forward(in));
  }

  // EB_THREADS-controlled pool: CI sweeps 1 and 4.
  Gateway gw(one_model_config(/*pool_threads=*/0));
  ModelConfig cfg;
  cfg.server.max_batch = 16;
  cfg.server.batching_window_us = 500;
  cfg.server.workers = 3;
  gw.register_model("m", net, cfg);

  std::vector<std::future<Result>> futures(inputs.size());
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t idx = c * kPerClient + i;
        futures[idx] = submit(gw, inputs[idx]);
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Result res = futures[i].get();
    ASSERT_EQ(res.status, Status::kOk)
        << "sample " << i << ": " << to_string(res.status);
    ASSERT_GE(res.batch_size, 1u);
    ASSERT_LE(res.batch_size, cfg.server.max_batch);
    expect_tensors_equal(res.output, want[i], i);
  }

  const auto snap = gw.metrics();
  EXPECT_EQ(snap.submitted, inputs.size());
  EXPECT_EQ(snap.completed, inputs.size());
  EXPECT_EQ(snap.deadline_exceeded, 0u);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.models.at(0).server.completed, inputs.size());
}

// -------------------------------------------------------- batching policy --

TEST(OneModelGateway, FullBatchClosesBeforeWindowExpires) {
  const Network net = make_net();
  const auto inputs = make_inputs(4);
  const auto t0 = std::chrono::steady_clock::now();
  Gateway gw(one_model_config());
  ModelConfig cfg;
  cfg.server.max_batch = 4;
  cfg.server.batching_window_us = 10'000'000;  // 10 s: only max_batch can close it
  cfg.server.workers = 1;
  gw.register_model("m", net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(submit(gw, in));
  }
  for (auto& f : futures) {
    const Result res = f.get();
    ASSERT_EQ(res.status, Status::kOk);
    EXPECT_EQ(res.batch_size, 4u);  // one full batch, not four singletons
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed_s, 5.0);  // nowhere near the 10 s window
}

TEST(OneModelGateway, WindowExpiryDispatchesPartialBatch) {
  const Network net = make_net();
  const auto inputs = make_inputs(3);
  // Virtual time: the 50 ms window expires because the test advances the
  // clock, not because anything sleeps 50 ms.
  VirtualClock vclock;
  Gateway gw(one_model_config(1, &vclock));
  ModelConfig cfg;
  cfg.server.max_batch = 64;
  cfg.server.batching_window_us = 50'000;  // 50 ms (virtual)
  cfg.server.workers = 1;
  gw.register_model("m", net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(submit(gw, in));
  }
  vclock.advance_us(50'000);  // expire the window
  for (auto& f : futures) {
    const Result res = f.get();
    ASSERT_EQ(res.status, Status::kOk);
    // The window closed the batch well short of max_batch, with every
    // request that arrived inside it on board.
    EXPECT_EQ(res.batch_size, 3u);
    // Latencies are measured on the injected clock: the batch formed
    // exactly one (virtual) window after admission.
    EXPECT_GE(res.queue_us, 50'000.0);
  }
}

TEST(OneModelGateway, ZeroWindowServesSingletonBatches) {
  const Network net = make_net();
  const auto inputs = make_inputs(6);
  Gateway gw(one_model_config());
  ModelConfig cfg;
  cfg.server.max_batch = 64;
  cfg.server.batching_window_us = 0;  // no coalescing
  cfg.server.workers = 1;
  gw.register_model("m", net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(submit(gw, in));
  }
  for (auto& f : futures) {
    const Result res = f.get();
    ASSERT_EQ(res.status, Status::kOk);
    EXPECT_EQ(res.batch_size, 1u);
  }
  const auto m = model_metrics(gw);
  EXPECT_EQ(m.batches, 6u);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 1.0);
}

// ------------------------------------------------------ deadlines / drain --

TEST(OneModelGateway, ExpiredRequestsCompleteWithDeadlineExceeded) {
  const Network net = make_net();
  const auto inputs = make_inputs(8);
  VirtualClock vclock;
  Gateway gw(one_model_config(1, &vclock));
  ModelConfig cfg;
  cfg.server.max_batch = 1024;
  cfg.server.batching_window_us = 30'000;  // 30 ms window...
  cfg.server.workers = 1;
  gw.register_model("m", net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(submit(gw, in, /*deadline_us=*/1000));  // ...1 ms
  }
  // One virtual step past the window: every deadline (1 ms) expired long
  // before the batch could form at the 30 ms mark.
  vclock.advance_us(30'000);
  for (auto& f : futures) {
    const Result res = f.get();  // fulfilled, not dropped
    EXPECT_EQ(res.status, Status::kDeadlineExceeded);
    EXPECT_EQ(res.output.size(), 0u);
  }
  const auto m = model_metrics(gw);
  EXPECT_EQ(m.deadline_exceeded, 8u);
  EXPECT_EQ(m.completed, 0u);
}

TEST(OneModelGateway, ShutdownDrainsEveryAcceptedRequest) {
  const Network net = make_net();
  const auto inputs = make_inputs(50);
  Gateway gw(one_model_config());
  ModelConfig cfg;
  cfg.server.max_batch = 8;
  cfg.server.batching_window_us = 1'000'000;  // 1 s: drain must not wait for it
  cfg.server.workers = 2;
  gw.register_model("m", net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(submit(gw, in));
  }
  gw.shutdown();  // returns only after the queues are drained
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Result res = futures[i].get();
    EXPECT_EQ(res.status, Status::kOk) << "sample " << i;
  }
  const auto m = model_metrics(gw);
  EXPECT_EQ(m.completed, 50u);
  EXPECT_EQ(m.queue_depth, 0u);
}

TEST(OneModelGateway, SubmitAfterShutdownIsRejected) {
  const Network net = make_net();
  Gateway gw(one_model_config());
  ModelConfig cfg;
  cfg.server.workers = 1;
  gw.register_model("m", net, cfg);
  gw.shutdown();
  auto fut = submit(gw, make_inputs(1)[0]);
  EXPECT_EQ(fut.get().status, Status::kRejected);
  EXPECT_EQ(class_metrics(gw).rejected, 1u);
}

TEST(OneModelGateway, SubmitAsyncDeliversCallbackOnTheSharedPool) {
  const Network net = make_net();
  const auto inputs = make_inputs(12);
  Gateway gw(one_model_config(/*pool_threads=*/2));
  ModelConfig cfg;
  cfg.server.max_batch = 4;
  cfg.server.batching_window_us = 300;
  cfg.server.workers = 2;
  gw.register_model("m", net, cfg);
  // A handler model on the same gateway receives the gateway's one pool.
  std::atomic<const ThreadPool*> handler_pool{nullptr};
  gw.register_model(
      "h",
      [&](std::span<const Tensor> batch, ThreadPool& pool) {
        handler_pool.store(&pool);
        return std::vector<Tensor>(batch.begin(), batch.end());
      },
      cfg);

  std::mutex mu;
  std::vector<std::pair<std::size_t, Result>> got;
  std::condition_variable cv;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    gw.submit_async("m", inputs[i], kCls, /*deadline_us=*/0,
                    [&, i](Result r) {
                      const std::lock_guard<std::mutex> lock(mu);
                      got.emplace_back(i, std::move(r));
                      cv.notify_all();
                    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return got.size() == inputs.size(); }));
  }
  for (const auto& [i, res] : got) {
    ASSERT_EQ(res.status, Status::kOk) << "sample " << i;
    expect_tensors_equal(res.output, net.forward(inputs[i]), i);
  }
  EXPECT_GE(model_metrics(gw).batches, inputs.size() / cfg.server.max_batch);
  ASSERT_EQ(gw.submit("h", inputs[0], kCls).get().status, Status::kOk);
  EXPECT_EQ(handler_pool.load(), &gw.pool());
}

TEST(OneModelGateway, HandlerExceptionBecomesInternalError) {
  Gateway gw(one_model_config());
  ModelConfig cfg;
  cfg.server.workers = 1;
  cfg.server.batching_window_us = 0;
  gw.register_model(
      "m",
      [](std::span<const Tensor>, ThreadPool&) -> std::vector<Tensor> {
        throw std::runtime_error("backend exploded");
      },
      cfg);
  std::promise<Result> done;
  gw.submit_async("m", make_inputs(1)[0], kCls, 0,
                  [&](Result r) { done.set_value(std::move(r)); });
  EXPECT_EQ(done.get_future().get().status, Status::kInternalError);
  // The future flavor resolves the same way: no exception escapes.
  EXPECT_EQ(submit(gw, make_inputs(1)[0]).get().status,
            Status::kInternalError);
  EXPECT_EQ(gw.metrics().errors[static_cast<std::size_t>(kCls)], 2u);
}

TEST(OneModelGateway, ClassQueueCapacityAppliesBackpressure) {
  const Network net = make_net();
  const auto inputs = make_inputs(6);
  // Virtual clock: the 2 s window never ticks, so the queue provably
  // backs up until shutdown() drains it.
  VirtualClock vclock;
  GatewayConfig gcfg = one_model_config(1, &vclock);
  gcfg.classes[static_cast<std::size_t>(kCls)].queue_capacity = 4;
  Gateway gw(gcfg);
  ModelConfig cfg;
  cfg.server.max_batch = 64;
  cfg.server.batching_window_us = 2'000'000;  // 2 s: requests sit queued
  cfg.server.workers = 1;
  gw.register_model("m", net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(submit(gw, in));
  }
  gw.shutdown();  // drains the 4 accepted ones immediately
  std::size_t ok = 0;
  std::size_t rejected = 0;
  for (auto& f : futures) {
    const Result res = f.get();
    if (res.status == Status::kOk) {
      ++ok;
    } else if (res.status == Status::kRejected) {
      ++rejected;
    }
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(rejected, 2u);
}

// ---------------------------------------------------------------- metrics --

TEST(OneModelGateway, MetricsSnapshotIsConsistent) {
  const Network net = make_net();
  const auto inputs = make_inputs(40);
  Gateway gw(one_model_config());
  ModelConfig cfg;
  cfg.server.max_batch = 8;
  cfg.server.batching_window_us = 300;
  cfg.server.workers = 2;
  gw.register_model("m", net, cfg);
  std::vector<std::future<Result>> futures;
  for (const auto& in : inputs) {
    futures.push_back(submit(gw, in));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.get().status, Status::kOk);
  }
  const auto m = model_metrics(gw);
  const auto c = class_metrics(gw);
  EXPECT_EQ(m.submitted, 40u);
  EXPECT_EQ(m.completed, 40u);
  EXPECT_EQ(c.submitted, 40u);
  EXPECT_EQ(c.completed, 40u);
  EXPECT_GE(m.batches, (40u + cfg.server.max_batch - 1) / cfg.server.max_batch);
  EXPECT_LE(m.batches, 40u);
  EXPECT_LE(c.latency_p50_us, c.latency_p95_us);
  EXPECT_LE(c.latency_p95_us, c.latency_p99_us);
  EXPECT_LE(c.latency_p99_us, c.latency_max_us);
  EXPECT_GT(c.latency_mean_us, 0.0);
  EXPECT_GT(c.throughput_rps, 0.0);
  EXPECT_GE(m.mean_batch_size, 1.0);
  EXPECT_GE(c.peak_queue_depth, 1u);
  std::size_t hist_batches = 0;
  std::size_t hist_requests = 0;
  for (std::size_t k = 0; k < m.batch_size_hist.size(); ++k) {
    hist_batches += m.batch_size_hist[k];
    hist_requests += k * m.batch_size_hist[k];
  }
  EXPECT_EQ(hist_batches, m.batches);
  EXPECT_EQ(hist_requests, m.completed);  // no deadline losses here
  EXPECT_FALSE(c.summary().empty());
}

// ------------------------------------------- shared-pool / mapped backend --

TEST(TacitMapElectrical, ExecuteBatchBitIdenticalToSerialLoop) {
  Rng task_rng(21);
  const auto task = map::XnorPopcountTask::random(96, 100, 8, task_rng);
  map::TacitElectricalConfig cfg;
  cfg.dims = {64, 64};  // 3 row segments x 2 col tiles = 6 shards
  const map::TacitMapElectrical mapped(task.weights, cfg);
  const dev::GaussianReadNoise noise(0.05);

  RngStream rng_serial(123);
  std::vector<std::vector<std::size_t>> want;
  want.reserve(task.inputs.size());
  for (const auto& x : task.inputs) {
    want.push_back(mapped.execute(x, noise, rng_serial));
  }

  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(width);
    RngStream rng_batch(123);
    const auto got = mapped.execute_batch(task.inputs, noise, rng_batch,
                                          &pool);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "input " << i << " width " << width;
    }
  }
}

// Drives a mapped executor through the gateway's MappedExecutor
// registration (serve::make_mapped_handler underneath): request fan-out,
// WDM passes and nested crossbar shards all share the gateway's one
// re-entrant pool, and with zero noise every served popcount equals the
// reference regardless of batching, worker count or backend.
void serve_mapped_round_trip(
    std::shared_ptr<const map::MappedExecutor> mapped,
    const map::XnorPopcountTask& task, std::size_t max_batch,
    std::size_t workers) {
  const auto want = task.reference();
  const std::size_t m = task.m();

  // EB_THREADS-controlled pool: CI sweeps 1 and 4.
  Gateway gw(one_model_config(/*pool_threads=*/0));
  ModelConfig cfg;
  cfg.server.max_batch = max_batch;
  cfg.server.batching_window_us = 500;
  cfg.server.workers = workers;  // the handler locks its stream: multi-worker safe
  gw.register_model("m", std::move(mapped), std::make_shared<dev::NoNoise>(),
                    cfg);

  std::vector<std::future<Result>> futures;
  for (const auto& x : task.inputs) {
    Tensor t({m});
    for (std::size_t k = 0; k < m; ++k) {
      t[k] = x.get(k) ? 1.0 : 0.0;
    }
    futures.push_back(submit(gw, t));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Result res = futures[i].get();
    ASSERT_EQ(res.status, Status::kOk) << "input " << i;
    ASSERT_EQ(res.output.size(), want[i].size());
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(res.output[j], static_cast<double>(want[i][j]))
          << "input " << i << " column " << j;
    }
  }
}

TEST(OneModelGateway, MappedBackendServesBitExactPopcounts) {
  Rng task_rng(33);
  const auto task = map::XnorPopcountTask::random(96, 100, 12, task_rng);
  map::TacitElectricalConfig mcfg;
  mcfg.dims = {64, 64};
  serve_mapped_round_trip(
      std::make_shared<map::TacitMapElectrical>(task.weights, mcfg), task,
      /*max_batch=*/4, /*workers=*/1);
}

TEST(OneModelGateway, OpticalBackendServesBitExactPopcounts) {
  // WDM-aware serving: max_batch exceeds wdm_capacity, so a full batch
  // spans several WDM passes inside one execute_batch call; two workers
  // exercise the handler's locked stream.
  Rng task_rng(34);
  const auto task = map::XnorPopcountTask::random(96, 80, 12, task_rng);
  map::TacitOpticalConfig mcfg;
  mcfg.dims = {64, 64};
  mcfg.wdm_capacity = 4;
  serve_mapped_round_trip(
      std::make_shared<map::TacitMapOptical>(task.weights, mcfg), task,
      /*max_batch=*/6, /*workers=*/2);
}

TEST(OneModelGateway, CustBackendServesBitExactPopcounts) {
  Rng task_rng(35);
  const auto task = map::XnorPopcountTask::random(64, 48, 8, task_rng);
  map::CustBinaryConfig ccfg;
  ccfg.rows = 32;
  ccfg.pairs = 32;
  serve_mapped_round_trip(
      std::make_shared<map::CustBinaryMap>(task.weights, ccfg), task,
      /*max_batch=*/4, /*workers=*/2);
}

TEST(BatchRunner, ConcurrentRunnersOnOneSharedPoolAreRaceFree) {
  const Network net = make_net();
  const auto inputs = make_inputs(48);
  std::vector<Tensor> want;
  want.reserve(inputs.size());
  for (const auto& in : inputs) {
    want.push_back(net.forward(in));
  }

  ThreadPool pool(4);
  bnn::BatchRunnerConfig rcfg;
  rcfg.batch_size = 16;
  const bnn::BatchRunner a(net, pool, rcfg);
  const bnn::BatchRunner b(net, pool, rcfg);

  std::vector<Tensor> out_a;
  std::vector<Tensor> out_b;
  std::thread ta([&] { out_a = a.forward_all(inputs); });
  std::thread tb([&] { out_b = b.forward_all(inputs); });
  ta.join();
  tb.join();

  ASSERT_EQ(out_a.size(), inputs.size());
  ASSERT_EQ(out_b.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_tensors_equal(out_a[i], want[i], i);
    expect_tensors_equal(out_b[i], want[i], i);
  }
  // last_stats() is a locked copy now: both runs completed, so both slots
  // hold full-run stats.
  EXPECT_EQ(a.last_stats().samples, inputs.size());
  EXPECT_EQ(b.last_stats().samples, inputs.size());
  EXPECT_EQ(a.last_stats().batches, 3u);
}

}  // namespace
}  // namespace eb
