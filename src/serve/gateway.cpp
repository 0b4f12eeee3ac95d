#include "serve/gateway.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <thread>
#include <utility>

#include "bnn/batch_runner.hpp"
#include "bnn/format.hpp"
#include "common/error.hpp"

namespace eb::serve {

namespace {

std::size_t class_index(DeadlineClass cls) {
  const auto c = static_cast<std::size_t>(cls);
  EB_REQUIRE(c < kNumClasses, "invalid deadline class");
  return c;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kDeadlineExceeded:
      return "deadline_exceeded";
    case Status::kRejected:
      return "rejected";
    case Status::kInternalError:
      return "internal_error";
    case Status::kInvalidArgument:
      return "invalid_argument";
  }
  EB_UNREACHABLE("unknown serve::Status");
}

std::string GatewaySnapshot::summary() const {
  std::size_t invalid_total = 0;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    invalid_total += invalid[c];
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "gateway: %zu models | served %zu/%zu ok (%zu deadline, "
                "%zu rejected, %zu invalid) | per-class ok i/b/e "
                "%zu/%zu/%zu",
                models.size(), completed, submitted, deadline_exceeded,
                rejected, invalid_total, classes[0].completed,
                classes[1].completed, classes[2].completed);
  return buf;
}

/// One admitted request, queued in its model's class queue.
struct Gateway::Pending {
  bnn::Tensor input;
  Clock::time_point enqueue;
  Clock::time_point deadline;  // Clock::time_point::max() = none
  DeadlineClass cls = DeadlineClass::kInteractive;
  Completion done;
};

/// One formed batch: its live members and the requests that had expired
/// by the time it formed.
struct Gateway::Batch {
  Clock::time_point formed;
  std::vector<Pending> live;
  std::vector<Pending> expired;
};

/// Registry slot: a model's backend, its class queues and its workers.
struct Gateway::ModelEntry {
  std::string id;
  std::size_t input_size = 0;  // 0 = unchecked
  BatchingConfig batching;
  /// Set only for load_model() registrations: the gateway owns the
  /// decoded network. Declared before `runners`, which borrow it.
  std::shared_ptr<const bnn::Network> owned_net;
  /// Network registrations: one runner per worker. Empty otherwise.
  std::vector<std::unique_ptr<bnn::BatchRunner>> runners;
  BatchHandler handler;  // handler registrations

  // Guarded by Gateway::mu_.
  WeightedDrrQueue<Pending> queue;  // one queue per class, handle == class
  std::condition_variable cv;       // arrivals, drain, window waits
  bool draining = false;
  std::size_t submitted = 0;
  std::size_t deadline_exceeded = 0;
  std::size_t batches = 0;
  std::size_t batched_requests = 0;
  std::vector<std::size_t> batch_size_hist;

  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> workers;
};

Gateway::Gateway(GatewayConfig cfg)
    : cfg_(cfg),
      pool_(cfg.pool_threads),
      class_metrics_{Metrics(clk()), Metrics(clk()), Metrics(clk())} {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    EB_REQUIRE(cfg_.classes[c].weight > 0.0, "class weight must be > 0");
    EB_REQUIRE(cfg_.classes[c].queue_capacity >= 1,
               "class queue capacity must be >= 1");
  }
}

Gateway::~Gateway() { shutdown(); }

void Gateway::register_model(const std::string& id, const bnn::Network& net,
                             ModelConfig mcfg) {
  if (mcfg.input_size == 0 && net.layer_count() > 0) {
    // MLP-style networks declare their input width on the first layer;
    // conv front-ends do not, so those stay unchecked unless the caller
    // sets ModelConfig::input_size.
    mcfg.input_size = net.layer(0).spec().in_features;
  }
  install_entry(id, mcfg, nullptr, &net);
}

void Gateway::register_model(const std::string& id, BatchHandler handler,
                             ModelConfig mcfg) {
  EB_REQUIRE(handler != nullptr, "handler must be callable");
  install_entry(id, mcfg, std::move(handler), nullptr);
}

void Gateway::register_model(const std::string& id,
                             std::shared_ptr<const map::MappedExecutor> exec,
                             std::shared_ptr<const dev::NoiseModel> noise,
                             ModelConfig mcfg) {
  if (mcfg.input_size == 0) {
    mcfg.input_size = exec->dims().m;  // the executors' hard requirement
  }
  register_model(id,
                 make_mapped_handler(std::move(exec), std::move(noise)),
                 mcfg);
}

void Gateway::load_model(const std::string& id, const std::string& file,
                         ModelConfig mcfg) {
  EB_REQUIRE(!cfg_.model_dir.empty(),
             "model loading is disabled: the gateway has no model_dir");
  // The wire's load op hands this name straight through, so confine it
  // to a plain file name inside model_dir -- no separators, no "..".
  EB_REQUIRE(!file.empty() && file.find('/') == std::string::npos &&
                 file.find('\\') == std::string::npos && file != "." &&
                 file != "..",
             "model file must be a plain file name, got '" + file + "'");
  auto net = std::make_shared<const bnn::Network>(
      bnn::load_network(cfg_.model_dir + "/" + file));
  if (mcfg.input_size == 0 && net->layer_count() > 0) {
    mcfg.input_size = net->layer(0).spec().in_features;
  }
  install_entry(id, mcfg, nullptr, net.get(), net);
}

void Gateway::install_entry(const std::string& id, const ModelConfig& mcfg,
                            BatchHandler handler, const bnn::Network* net,
                            std::shared_ptr<const bnn::Network> owned) {
  EB_REQUIRE(!id.empty() && id.size() <= 255,
             "model id must be 1..255 bytes");
  const BatchingConfig& bcfg = mcfg.server;
  EB_REQUIRE(bcfg.max_batch >= 1, "max_batch must be >= 1");
  EB_REQUIRE(bcfg.workers >= 1, "need at least one worker");
  auto entry = std::make_shared<ModelEntry>();
  entry->id = id;
  entry->input_size = mcfg.input_size;
  entry->batching = bcfg;
  entry->owned_net = std::move(owned);
  entry->handler = std::move(handler);
  if (net != nullptr) {
    // Per-worker BatchRunners: the bit-exact forward path, one GEMM batch
    // per formed batch. Constructing them warms the autotuner.
    bnn::BatchRunnerConfig rcfg;
    rcfg.batch_size = bcfg.max_batch;
    for (std::size_t w = 0; w < bcfg.workers; ++w) {
      entry->runners.push_back(
          std::make_unique<bnn::BatchRunner>(*net, pool_, rcfg));
    }
  }
  for (const auto& cls : cfg_.classes) {
    (void)entry->queue.add_queue(cls.weight);  // handle == class index
  }
  const std::lock_guard<std::mutex> lock(mu_);
  EB_REQUIRE(!draining_, "register_model after shutdown");
  EB_REQUIRE(models_.count(id) == 0,
             "model id '" + id + "' is already registered");
  models_[id] = entry;
  // Started under mu_, so an unregister/shutdown racing this registration
  // sees either no entry or one whose workers all exist.
  for (std::size_t w = 0; w < bcfg.workers; ++w) {
    entry->workers.emplace_back(
        [this, e = entry.get(), w] { worker_loop(*e, w); });
  }
}

bool Gateway::unregister_model(const std::string& id) {
  std::shared_ptr<ModelEntry> entry;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(id);
    if (it == models_.end()) {
      return false;
    }
    entry = it->second;
    models_.erase(it);
    entry->draining = true;
  }
  entry->cv.notify_all();
  join_workers({entry});
  return true;
}

void Gateway::shutdown() {
  std::vector<std::shared_ptr<ModelEntry>> entries;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    for (const auto& [_, e] : models_) {
      e->draining = true;
      entries.push_back(e);
    }
  }
  for (const auto& e : entries) {
    e->cv.notify_all();
  }
  join_workers(entries);
}

// The drain path unregister_model and shutdown share: the entries are
// already marked draining, so their workers skip window waits, serve
// everything still queued, and exit.
void Gateway::join_workers(
    const std::vector<std::shared_ptr<ModelEntry>>& entries) {
  const std::lock_guard<std::mutex> lock(join_mu_);
  for (const auto& e : entries) {
    for (auto& t : e->workers) {
      if (t.joinable()) {
        t.join();
      }
    }
  }
}

std::vector<std::string> Gateway::model_ids() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& [id, _] : models_) {
    ids.push_back(id);
  }
  return ids;
}

bool Gateway::has_model(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return models_.count(id) != 0;
}

std::future<Result> Gateway::submit(const std::string& model,
                                    bnn::Tensor input, DeadlineClass cls,
                                    std::uint64_t deadline_us) {
  auto p = std::make_shared<std::promise<Result>>();
  auto fut = p->get_future();
  submit_async(model, std::move(input), cls, deadline_us,
               [p](Result r) { p->set_value(std::move(r)); });
  return fut;
}

void Gateway::submit_async(const std::string& model, bnn::Tensor input,
                           DeadlineClass cls, std::uint64_t deadline_us,
                           Completion done) {
  EB_REQUIRE(done != nullptr, "submit_async needs a completion callback");
  const std::size_t c = class_index(cls);
  Status reject_status = Status::kRejected;
  bool accepted = false;
  std::size_t depth_after = 0;
  std::shared_ptr<ModelEntry> wake;  // set when a worker must re-evaluate
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = models_.find(model);
    if (it != models_.end() && it->second->input_size != 0 &&
        input.size() != it->second->input_size) {
      // Shape gate at admission: a wrong-shaped request must fail alone
      // with kInvalidArgument, never inside a batch where the handler's
      // exception would take co-batched tenants down with it.
      reject_status = Status::kInvalidArgument;
    } else if (!draining_ && it != models_.end() &&
               class_depth_[c] < cfg_.classes[c].queue_capacity) {
      ModelEntry& e = *it->second;
      // Timestamp under the lock: per-queue order == admission order.
      const auto now = clk().now();
      const std::uint64_t effective =
          deadline_us != 0 ? deadline_us : cfg_.classes[c].default_deadline_us;
      e.queue.push(c, Pending{std::move(input), now,
                              effective == 0
                                  ? Clock::time_point::max()
                                  : now + std::chrono::microseconds(effective),
                              cls, std::move(done)});
      ++e.submitted;
      depth_after = ++class_depth_[c];
      accepted = true;
      // Only two arrivals change a worker's decision: the first one (an
      // idle worker gets an anchor) and the one that fills a batch (a
      // window wait closes early). Every other arrival waits for the
      // anchor's window like the requests before it.
      const std::size_t queued = e.queue.total_size();
      if (queued == 1 || queued == e.batching.max_batch) {
        wake = it->second;
      }
    }
  }
  if (accepted) {
    class_metrics_[c].record_submitted(depth_after);
    if (wake != nullptr) {
      wake->cv.notify_all();
    }
    return;
  }
  // Unknown model, wrong request shape, class partition full, or
  // draining: terminal status, delivered inline.
  Result res;
  res.status = reject_status;
  finish(cls, done, std::move(res));
}

void Gateway::worker_loop(ModelEntry& e, std::size_t worker) {
  Batch b;
  while (form_batch(e, b)) {
    serve_batch(e, worker, b);
  }
}

bool Gateway::form_batch(ModelEntry& e, Batch& b) {
  const std::size_t max_batch = e.batching.max_batch;
  const auto window = std::chrono::microseconds(e.batching.batching_window_us);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    e.cv.wait(lock, [&] { return e.draining || e.queue.total_size() != 0; });
    const std::size_t queued = e.queue.total_size();
    if (queued == 0) {
      return false;  // draining and fully drained
    }
    const auto now = clk().now();
    std::size_t take = std::min(queued, max_batch);
    if (!e.draining) {  // a drain skips window waits and serves full batches
      // The batch is anchored on the model's oldest queued request and
      // closes at max_batch or when that request's window expires.
      auto oldest = Clock::time_point::max();
      for (std::size_t c = 0; c < kNumClasses; ++c) {
        if (!e.queue.items(c).empty()) {
          oldest = std::min(oldest, e.queue.items(c).front().enqueue);
        }
      }
      const auto close = oldest + window;
      if (now < close && queued < max_batch) {
        // Under-full inside the window: sleep until it closes or an
        // arrival fills the batch. The wait goes through the injected
        // clock so a VirtualClock can expire the window.
        clk().wait_until(lock, e.cv, close);
        continue;
      }
      if (now >= close) {
        // Only requests admitted within the window count, so window 0
        // serves each request alone. (Inside the window every queued
        // request qualifies: all were admitted before now.)
        take = 0;
        for (std::size_t c = 0; c < kNumClasses && take < max_batch; ++c) {
          for (const auto& r : e.queue.items(c)) {
            if (r.enqueue > close || take == max_batch) {
              break;
            }
            ++take;
          }
        }
      }
    }
    // The window sets the batch size; deficit round-robin at the class
    // weights picks its members. Deadlines are checked here, at formation.
    b.formed = now;
    b.live.clear();
    b.expired.clear();
    for (std::size_t i = 0; i < take; ++i) {
      auto popped = e.queue.pop_next();
      EB_ASSERT(popped.has_value(), "class queues shorter than their total");
      EB_ASSERT(class_depth_[popped->first] > 0,
                "class depth accounting underflow");
      --class_depth_[popped->first];
      Pending& r = popped->second;
      (now >= r.deadline ? b.expired : b.live).push_back(std::move(r));
    }
    e.deadline_exceeded += b.expired.size();
    if (!b.live.empty()) {
      ++e.batches;
      e.batched_requests += b.live.size();
      if (e.batch_size_hist.size() <= b.live.size()) {
        e.batch_size_hist.resize(b.live.size() + 1, 0);
      }
      ++e.batch_size_hist[b.live.size()];
    }
    if (e.queue.total_size() != 0) {
      e.cv.notify_all();  // the remainder may already form the next batch
    }
    return true;
  }
}

void Gateway::serve_batch(ModelEntry& e, std::size_t worker, Batch& b) {
  for (auto& r : b.expired) {
    Result res;
    res.status = Status::kDeadlineExceeded;
    res.queue_us = to_us(b.formed - r.enqueue);
    res.total_us = res.queue_us;
    finish(r.cls, r.done, std::move(res));
  }
  if (b.live.empty()) {
    return;
  }
  std::vector<bnn::Tensor> inputs;
  inputs.reserve(b.live.size());
  for (auto& r : b.live) {
    inputs.push_back(std::move(r.input));
  }
  std::vector<bnn::Tensor> outputs;
  try {
    outputs = e.runners.empty()
                  ? e.handler(std::span<const bnn::Tensor>(inputs), pool_)
                  : e.runners[worker]->forward_all(inputs);
    EB_ASSERT(outputs.size() == b.live.size(),
              "batch handler must produce one output per input");
  } catch (...) {
    // A failing batch fails every request in it.
    for (auto& r : b.live) {
      Result res;
      res.status = Status::kInternalError;
      finish(r.cls, r.done, std::move(res));
    }
    return;
  }
  const auto done = clk().now();
  e.completed.fetch_add(b.live.size(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < b.live.size(); ++i) {
    Pending& r = b.live[i];
    Result res;
    res.status = Status::kOk;
    res.output = std::move(outputs[i]);
    res.queue_us = to_us(b.formed - r.enqueue);
    res.total_us = to_us(done - r.enqueue);
    res.batch_size = b.live.size();
    finish(r.cls, r.done, std::move(res));
  }
}

void Gateway::finish(DeadlineClass cls, Completion& done, Result res) {
  const std::size_t c = class_index(cls);
  switch (res.status) {
    case Status::kOk:
      class_metrics_[c].record_completed(res.total_us);
      break;
    case Status::kDeadlineExceeded:
      class_metrics_[c].record_deadline_exceeded();
      break;
    case Status::kRejected:
      class_metrics_[c].record_rejected();
      break;
    case Status::kInternalError:
      class_errors_[c].fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::kInvalidArgument:
      class_invalid_[c].fetch_add(1, std::memory_order_relaxed);
      break;
  }
  done(std::move(res));
}

GatewaySnapshot Gateway::metrics() const {
  GatewaySnapshot s;
  std::array<std::size_t, kNumClasses> depth{};
  {
    const std::lock_guard<std::mutex> lock(mu_);
    depth = class_depth_;
    s.models.reserve(models_.size());
    for (const auto& [id, e] : models_) {
      ModelSnapshot m;
      m.id = id;
      m.input_size = e->input_size;
      m.server.submitted = e->submitted;
      m.server.completed = e->completed.load(std::memory_order_relaxed);
      m.server.deadline_exceeded = e->deadline_exceeded;
      m.server.batches = e->batches;
      m.server.batch_size_hist = e->batch_size_hist;
      if (e->batches > 0) {
        m.server.mean_batch_size = static_cast<double>(e->batched_requests) /
                                   static_cast<double>(e->batches);
      }
      m.server.queue_depth = e->queue.total_size();
      s.models.push_back(std::move(m));
    }
  }
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    s.classes[c] = class_metrics_[c].snapshot(depth[c]);
    s.errors[c] = class_errors_[c].load(std::memory_order_relaxed);
    s.invalid[c] = class_invalid_[c].load(std::memory_order_relaxed);
    s.submitted += s.classes[c].submitted;
    s.completed += s.classes[c].completed;
    s.deadline_exceeded += s.classes[c].deadline_exceeded;
    s.rejected += s.classes[c].rejected;
  }
  s.canaries_sent = canaries_sent_.load(std::memory_order_relaxed);
  s.canary_failures = canary_failures_.load(std::memory_order_relaxed);
  s.rewrites = rewrites_.load(std::memory_order_relaxed);
  s.rewrite_us_last = rewrite_us_last_.load(std::memory_order_relaxed);
  return s;
}

void Gateway::record_canary(bool ok) {
  canaries_sent_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) {
    canary_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Gateway::record_rewrite(std::uint64_t duration_us) {
  rewrites_.fetch_add(1, std::memory_order_relaxed);
  rewrite_us_last_.store(duration_us, std::memory_order_relaxed);
}

}  // namespace eb::serve
