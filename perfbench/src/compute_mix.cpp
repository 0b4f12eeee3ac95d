// compute_mix: in-process serve::Gateway::submit_async with no socket.
// Two tenants are deployed through the EBM path (fold_network ->
// save_network -> Gateway::load_model): folded MLP-L (784-1500-1000-500-10)
// on the interactive class with a short batching window, and folded CNN-2
// on the batch class with full batches. One generator thread issues a fixed
// tenant pattern, keeping at most a fixed count outstanding per tenant.
// Every kOk output must equal the unfolded source network's per-sample
// forward, computed on one thread before timing.
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "bnn/autotune.hpp"
#include "bnn/dataset.hpp"
#include "bnn/format.hpp"
#include "bnn/layers.hpp"
#include "bnn/model_zoo.hpp"
#include "bnn/packed.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "serve/gateway.hpp"

namespace pb {
namespace {

using eb::bnn::Network;
using eb::bnn::Tensor;

constexpr std::size_t kTenants = 2;
constexpr std::size_t kInputs = 64;  // distinct inputs per tenant
// Tenant pattern: one MLP-L request, then kCnnPerMlp CNN-2 requests.
constexpr std::size_t kCnnPerMlp = 4;
constexpr std::size_t kCap[kTenants] = {2, 128};  // outstanding per tenant
constexpr std::size_t kMlpBatch = 8;
constexpr std::size_t kCnnBatch = 64;
constexpr std::size_t kPoolThreads = 1;  // inline: 4 threads in all
constexpr std::uint64_t kDeadlineUs = 10'000'000;  // never the limiting factor
constexpr std::size_t kWarmupRequests = 576;
constexpr int kSetupReps = 9;  // setup_s is the median set-up
constexpr double kWindowS = 2.0;  // timing metrics are medians over windows

struct Tenant {
  std::string id;
  std::string file;
  eb::serve::DeadlineClass cls;
  Network net{"", ""};  // unfolded source network
  std::vector<Tensor> inputs;
  std::vector<Tensor> reference;
};

std::vector<Tenant> make_tenants(std::uint64_t seed) {
  eb::RngStream rng(seed);
  const eb::bnn::SyntheticMnist data(seed);
  std::vector<Tenant> t(kTenants);
  t[0].id = "mlp-l";
  t[0].file = "mlp-l.ebm";
  t[0].cls = eb::serve::DeadlineClass::kInteractive;
  t[0].net = eb::bnn::build_mlp("MLP-L", {784, 1500, 1000, 500, 10}, rng);
  t[1].id = "cnn-2";
  t[1].file = "cnn-2.ebm";
  t[1].cls = eb::serve::DeadlineClass::kBatch;
  t[1].net = eb::bnn::build_cnn2(rng);
  for (std::size_t k = 0; k < kTenants; ++k) {
    for (std::size_t i = 0; i < kInputs; ++i) {
      Tensor x = data.sample(k * kInputs + i).image;
      if (k == 1) x.reshape({1, 28, 28});
      t[k].reference.push_back(t[k].net.forward(x));
      t[k].inputs.push_back(std::move(x));
    }
  }
  return t;
}

struct Fixture {
  std::unique_ptr<eb::serve::Gateway> gateway;
  double load_ms = 0.0;
  std::size_t autotune_entries = 0;
};

std::unique_ptr<Fixture> set_up(const std::string& dir,
                                const std::vector<Tenant>& tenants) {
  eb::bnn::Autotuner::instance().clear();
  auto f = std::make_unique<Fixture>();
  eb::serve::GatewayConfig gcfg;
  gcfg.pool_threads = kPoolThreads;
  gcfg.model_dir = dir;
  f->gateway = std::make_unique<eb::serve::Gateway>(gcfg);
  const std::uint64_t t0 = wall_ns();
  for (std::size_t k = 0; k < kTenants; ++k) {
    eb::serve::ModelConfig mc;
    mc.server.workers = 1;
    mc.server.max_batch = k == 0 ? kMlpBatch : kCnnBatch;
    mc.server.batching_window_us = k == 0 ? 100 : 20000;
    mc.server.queue_capacity = 2 * mc.server.max_batch;
    f->gateway->load_model(tenants[k].id, tenants[k].file, mc);
  }
  f->load_ms = (wall_ns() - t0) * 1e-6;
  f->autotune_entries = eb::bnn::Autotuner::instance().table_size();
  return f;
}

struct Phase {
  std::uint64_t completed[kTenants] = {0, 0};
  std::uint64_t wall_ns = 0;
  std::vector<double> latency_us;  // interactive tenant only
  std::vector<double> queue_us;
  std::vector<double> service_us;
  Timing timing;  // end-to-end timing, medians over windows
  [[nodiscard]] std::uint64_t ops() const {
    return completed[0] + completed[1];
  }
};

// Completions handed from serving threads to the generator.
struct Done {
  std::size_t tenant;
  std::size_t input;
  std::uint64_t submit_ns;
  std::uint64_t done_ns;
  eb::serve::Result result;
};

class Generator {
 public:
  Generator(const std::vector<Tenant>& tenants, Fixture& f, Tracer& tr,
         Report& rep)
      : tenants_(tenants), f_(f), tr_(tr), rep_(rep),
        sp_submit_(tr.intern("serve.gateway.submit_async")) {}

  // Closed loop over the tenant pattern for `seconds` (or `max_requests`
  // submissions when seconds == 0), then drains.
  void run(double seconds, std::uint64_t max_requests, Phase& ph) {
    const std::uint64_t w0 = wall_ns();
    const std::uint64_t deadline =
        w0 + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t sent = 0;
    bool open = true;
    std::vector<Done> batch;
    Windows win(kWindowS);
    win.start(ph.ops(), ph.latency_us.size());
    for (;;) {
      open = open && (seconds > 0 ? wall_ns() < deadline : sent < max_requests);
      if (open) win.poll(ph.ops(), ph.latency_us);
      // Submit while the pattern's next tenant has room.
      while (open) {
        const std::size_t t = (seq_ % (kCnnPerMlp + 1)) == 0 ? 0 : 1;
        if (outstanding_[t] >= kCap[t]) break;
        submit(t);
        ++sent;
        if (seconds == 0 && sent >= max_requests) break;
      }
      if (!open && outstanding_[0] + outstanding_[1] == 0) break;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !done_.empty(); });
        batch.swap(done_);
      }
      for (Done& d : batch) finish(d, ph);
      batch.clear();
    }
    ph.wall_ns += wall_ns() - w0;
    ph.timing = win.finish(ph.ops(), ph.latency_us);
  }

 private:
  void submit(std::size_t t) {
    const std::size_t input = (seq_ / (kCnnPerMlp + 1)) % kInputs;
    ++seq_;
    ++outstanding_[t];
    ++rep_.op("data_request").attempted;
    const std::uint64_t t0 = wall_ns();
    Scope s(tr_, sp_submit_, seq_);
    f_.gateway->submit_async(
        tenants_[t].id, tenants_[t].inputs[input], tenants_[t].cls,
        kDeadlineUs, [this, t, input, t0](eb::serve::Result r) {
          const std::uint64_t now = wall_ns();
          // Notify under the lock: once the generator sees the last
          // completion it may return and destroy the condition variable.
          const std::lock_guard<std::mutex> lock(mu_);
          done_.push_back(Done{t, input, t0, now, std::move(r)});
          cv_.notify_one();
        });
  }

  void finish(Done& d, Phase& ph) {
    --outstanding_[d.tenant];
    const Tenant& t = tenants_[d.tenant];
    if (!d.result.ok() ||
        !same_tensor(d.result.output, t.reference[d.input])) {
      rep_.op("data_request").fail(d.result.ok());
      return;
    }
    ++ph.completed[d.tenant];  // only ok, reference-equal results count
    if (d.tenant == 0) {
      ph.latency_us.push_back((d.done_ns - d.submit_ns) * 1e-3);
    }
    ph.queue_us.push_back(d.result.queue_us);
    ph.service_us.push_back(d.result.total_us - d.result.queue_us);
  }

  const std::vector<Tenant>& tenants_;
  Fixture& f_;
  Tracer& tr_;
  Report& rep_;
  std::uint32_t sp_submit_;
  std::uint64_t seq_ = 0;
  std::size_t outstanding_[kTenants] = {0, 0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Done> done_;
};

// --------------------------------------------------- per-layer replay --

// Thread CPU per sample of `fn`, median of five repetitions.
template <typename Fn>
double cpu_ns_per_sample(std::size_t batch, Fn&& fn) {
  std::vector<double> v;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t c0 = thread_cpu_ns();
    fn();
    v.push_back(static_cast<double>(thread_cpu_ns() - c0) /
                static_cast<double>(batch));
  }
  return median(v);
}

// Replays each layer's forward_batch of a folded network on the activations
// it sees, inline on one thread, at batch 1 and at the bulk batch; binary
// dense layers are also split into pack, XNOR kernel and epilogue.
void replay_layers(const std::string& model, const Network& net,
                   const std::vector<Tensor>& inputs, std::size_t bulk,
                   Report& rep) {
  eb::ThreadPool inline_pool(1);
  for (const std::size_t batch : {std::size_t{1}, bulk}) {
    std::vector<Tensor> acts;
    for (std::size_t i = 0; i < batch; ++i) {
      acts.push_back(inputs[i % inputs.size()]);
    }
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      const eb::bnn::Layer& layer = net.layer(l);
      const std::string base = "bnn." + model + "." + layer.name();
      std::vector<Tensor> next;
      const double ns = cpu_ns_per_sample(batch, [&] {
        next = layer.forward_batch(acts, inline_pool);
      });
      rep.set(base + ".cpu_ns_per_sample.b" + std::to_string(batch), ns, "ns");
      const auto* bin =
          dynamic_cast<const eb::bnn::BinaryDenseLayer*>(&layer);
      if (bin != nullptr && batch == bulk && l + 1 < net.layer_count()) {
        const std::size_t in = bin->weights().cols();
        const std::size_t out = bin->weights().rows();
        const auto w = eb::bnn::PackedMatrix::from_bit_matrix(bin->weights());
        eb::bnn::PackedMatrix x(batch, in);
        std::vector<std::int32_t> raw(batch * out);
        rep.set(base + ".pack_ns", cpu_ns_per_sample(batch, [&] {
          x = eb::bnn::PackedMatrix(batch, in);
          for (std::size_t i = 0; i < batch; ++i) {
            x.set_row_signs(i, acts[i].data(), in);
          }
        }), "ns");
        rep.set(base + ".xnor_ns", cpu_ns_per_sample(batch, [&] {
          eb::bnn::xnor_signed_gemm(x, w, raw.data(), nullptr);
        }), "ns");
        std::vector<Tensor> sums(batch, Tensor({out}));
        for (std::size_t i = 0; i < batch; ++i) {
          for (std::size_t o = 0; o < out; ++o) {
            sums[i][o] = static_cast<double>(raw[i * out + o]);
          }
        }
        const eb::bnn::Layer& epilogue = net.layer(l + 1);
        rep.set(base + ".epilogue_ns", cpu_ns_per_sample(batch, [&] {
          static_cast<void>(epilogue.forward_batch(sums, inline_pool));
        }), "ns");
      }
      acts = std::move(next);
    }
  }
}

}  // namespace

void run_compute_mix(const Options& opt, Tracer& tr, Report& rep) {
  const std::vector<Tenant> tenants = make_tenants(opt.seed);
  const std::string dir =
      ".bench_build/perfbench-models-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  // Deployment artefacts: folded networks in the EBM format.
  std::vector<Network> folded;
  for (const Tenant& t : tenants) {
    folded.push_back(eb::bnn::fold_network(t.net));
    eb::bnn::save_network(folded.back(), dir + "/" + t.file);
  }

  std::unique_ptr<Fixture> f;
  const double setup_s = repeated_setup(kSetupReps, f, [&] {
    auto fx = set_up(dir, tenants);
    Tracer off(false);
    Generator warm(tenants, *fx, off, rep);
    Phase ph;
    warm.run(0.0, kWarmupRequests, ph);
    return fx;
  });

  Generator gen(tenants, *f, tr, rep);
  const double steal0 = host_steal_ms();
  Phase base;
  gen.run(opt.trace ? opt.seconds / 2 : opt.seconds, 0, base);
  Phase traced;
  if (opt.trace) {
    tr.set_enabled(true);
    gen.run(opt.seconds / 2, 0, traced);
    tr.set_enabled(false);
  }
  const double steal = host_steal_ms() - steal0;
  const std::uint64_t s0 = wall_ns();
  const eb::serve::GatewaySnapshot snap = f->gateway->metrics();
  rep.set("serve.gateway.snapshot_ms", (wall_ns() - s0) * 1e-6, "ms");

  rep.set("setup_s", setup_s, "s");
  set_timing(rep, base.timing);
  note_latency(rep, "mlp-l submit to completion", base.latency_us);
  const double share_l = 1.0 / (kCnnPerMlp + 1);
  set_modelled(rep, modelled_mix({{tenants[0].net.spec(), share_l},
                                  {tenants[1].net.spec(), 1.0 - share_l}}));

  const Phase& lp = opt.trace ? traced : base;
  std::vector<double> v = lp.queue_us;
  rep.set("serve.gateway.queue_us_p50", percentile(v, 50.0), "us");
  v = lp.service_us;
  rep.set("serve.server.service_us_p50", percentile(v, 50.0), "us");
  for (const auto& m : snap.models) {
    rep.set("serve.server." + m.id + ".mean_batch", m.server.mean_batch_size,
            "count");
  }
  rep.set("serve.gateway.register_ms", f->load_ms, "ms");
  rep.set("bnn.autotune.entries", static_cast<double>(f->autotune_entries),
          "count");
  rep.set("host.steal_ms", steal, "ms");
  if (opt.trace) {
    const SpanTotals sub = tr.totals("serve.gateway.submit_async");
    rep.set("serve.gateway.submit_ns",
            static_cast<double>(sub.wall_ns) / static_cast<double>(sub.count),
            "ns");
    rep.set("trace.overhead_cpu_us_per_op",
            traced.timing.cpu_us_per_op - base.timing.cpu_us_per_op, "us");
    // Decode cost of the deployed files, and the per-layer replay.
    double decode_ms = 0.0;
    for (const Tenant& t : tenants) {
      const std::uint64_t d0 = wall_ns();
      static_cast<void>(eb::bnn::load_network(dir + "/" + t.file));
      decode_ms += (wall_ns() - d0) * 1e-6;
    }
    rep.set("bnn.format.decode_ms", decode_ms, "ms");
    replay_layers(tenants[0].id, folded[0], tenants[0].inputs, kMlpBatch, rep);
    replay_layers(tenants[1].id, folded[1], tenants[1].inputs, kCnnBatch, rep);
  }
  f.reset();
  std::filesystem::remove_all(dir);
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "compute_mix: %llu mlp-l + %llu cnn-2 requests in %.2f s; "
                "host steal %.1f ms during timing",
                static_cast<unsigned long long>(base.completed[0]),
                static_cast<unsigned long long>(base.completed[1]),
                base.wall_ns * 1e-9, steal);
  rep.note(buf);
  rep.note("compute_mix: gateway " + snap.summary());
}

}  // namespace pb
