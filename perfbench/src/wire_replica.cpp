// wire_replica: one process runs serve::Gateway behind serve::TcpFrontend
// on loopback, serving two folded tiny MLPs shaped like gateway_replica's
// seed models (128-128-10 under the interactive class, 96-96-8 under the
// batch class). One client thread keeps a fixed number of pipelined
// requests in flight on three data connections; a fourth, control
// connection sends one ping and one type-6 stats frame after every fixed
// count of completed requests. Every kOk output must equal the unfolded
// source network's per-sample forward.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bnn/autotune.hpp"
#include "bnn/format.hpp"
#include "bnn/model_zoo.hpp"
#include "harness.hpp"
#include "serve/gateway.hpp"
#include "serve/tcp_frontend.hpp"
#include "serve/wire.hpp"

namespace pb {
namespace {

using eb::bnn::Network;
using eb::bnn::Tensor;
namespace wire = eb::serve::wire;

constexpr std::size_t kDataConns = 3;
constexpr std::size_t kPipeline = 16;         // in flight per data connection
constexpr std::size_t kInputs = 256;          // distinct inputs per model
constexpr std::uint64_t kControlEvery = 131072; // completions per ping+stats
constexpr std::uint64_t kDeadlineUs = 10'000'000;  // never the limiting factor
constexpr std::size_t kWarmupRequests = 96;
constexpr std::size_t kMaxBatch = 16;  // server batch cap per model
constexpr int kSetupReps = 25;  // ~13 ms each: many steady the median
constexpr double kWindowS = 1.0;  // timing metrics are medians over windows

struct Model {
  std::string id;
  eb::serve::DeadlineClass cls;
  Network net{"", ""};
  std::vector<wire::RequestFrame> requests;  // one template per input
  std::vector<Tensor> reference;             // unfolded per-sample forward
};

std::vector<Model> make_models(std::uint64_t seed) {
  eb::RngStream rng(seed);
  std::vector<Model> models(2);
  models[0].id = "mlp-a";
  models[0].cls = eb::serve::DeadlineClass::kInteractive;
  models[0].net = eb::bnn::build_mlp("replica-mlp-a", {128, 128, 10}, rng);
  models[1].id = "mlp-b";
  models[1].cls = eb::serve::DeadlineClass::kBatch;
  models[1].net = eb::bnn::build_mlp("replica-mlp-b", {96, 96, 8}, rng);
  for (Model& m : models) {
    const std::size_t width = m.net.layer(0).spec().in_features;
    for (std::size_t i = 0; i < kInputs; ++i) {
      wire::RequestFrame f;
      f.cls = m.cls;
      f.deadline_us = kDeadlineUs;
      f.model_id = m.id;
      f.tensor = Tensor::random_uniform({width}, 1.0, rng);
      m.reference.push_back(m.net.forward(f.tensor));
      m.requests.push_back(std::move(f));
    }
  }
  return models;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    off += static_cast<std::size_t>(n);
  }
}

// One client socket with its reassembly buffer.
struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> buf;
  std::size_t rpos = 0;

  // Reads what is available; false when the peer closed.
  bool fill() {
    if (rpos > 0 && rpos == buf.size()) {
      buf.clear();
      rpos = 0;
    }
    std::uint8_t tmp[65536];
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    buf.insert(buf.end(), tmp, tmp + n);
    return true;
  }
  [[nodiscard]] const std::uint8_t* data() const { return buf.data() + rpos; }
  [[nodiscard]] std::size_t size() const { return buf.size() - rpos; }
};

// The program under test: gateway, frontend and the client's connections.
struct Fixture {
  Network folded[2] = {Network("", ""), Network("", "")};
  std::unique_ptr<eb::serve::Gateway> gateway;
  std::unique_ptr<eb::serve::TcpFrontend> frontend;
  Conn data[kDataConns];
  Conn control;
  double register_ms = 0.0;
  std::size_t autotune_entries = 0;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    for (Conn& c : data) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (control.fd >= 0) ::close(control.fd);
    frontend.reset();
    gateway.reset();
  }
};

// Phase counters of one measured (or warm-up) pass.
struct Phase {
  std::uint64_t completed = 0;
  std::uint64_t wall_ns = 0;
  std::vector<double> rtt_us;       // data requests, client round trip
  std::vector<double> overhead_us;  // rtt - response total_us
  std::vector<double> queue_us;
  std::vector<double> service_us;
  std::vector<double> ping_us;
  std::vector<double> stats_us;
  std::uint64_t frontend_bytes = 0;
  std::uint64_t frontend_responses = 0;
  Timing timing;  // end-to-end timing, medians over windows
};

class Client {
 public:
  Client(std::vector<Model>& models, Fixture& f, Tracer& tr, Report& rep)
      : models_(models), f_(f), tr_(tr), rep_(rep),
        sp_encode_(tr.intern("serve.wire.encode")),
        sp_decode_(tr.intern("serve.wire.decode")) {}

  // Runs the closed loop until `seconds` have passed (or, with
  // seconds == 0, until `max_requests` were sent), then drains.
  void run(double seconds, std::uint64_t max_requests, bool control,
           Phase& ph) {
    const auto fe0 = f_.frontend->stats();
    const std::uint64_t w0 = wall_ns();
    const std::uint64_t deadline =
        w0 + static_cast<std::uint64_t>(seconds * 1e9);
    auto sending = [&] {
      return seconds > 0 ? wall_ns() < deadline : sent_ < max_requests;
    };
    sent_ = 0;
    for (std::size_t c = 0; c < kDataConns; ++c) {
      for (std::size_t k = 0; k < kPipeline; ++k) send_next(c);
    }
    std::uint64_t next_control = ph.completed + kControlEvery;
    pollfd fds[kDataConns + 1];
    for (std::size_t c = 0; c < kDataConns; ++c) {
      fds[c] = {f_.data[c].fd, POLLIN, 0};
    }
    fds[kDataConns] = {f_.control.fd, POLLIN, 0};
    Windows win(kWindowS);
    win.start(ph.completed, ph.rtt_us.size());
    bool open = true;
    while (!inflight_.empty() || control_inflight_ > 0) {
      open = open && sending();
      if (open) win.poll(ph.completed, ph.rtt_us);
      if (::poll(fds, kDataConns + 1, 100) < 0 && errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      for (std::size_t c = 0; c < kDataConns; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if (!f_.data[c].fill()) throw std::runtime_error("server closed");
        const std::size_t done = drain_data(c, ph);
        for (std::size_t k = 0; k < done && open; ++k) send_next(c);
      }
      if ((fds[kDataConns].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!f_.control.fill()) throw std::runtime_error("server closed");
        drain_control(ph);
      }
      if (control && open && control_inflight_ == 0 &&
          ph.completed >= next_control) {
        send_ping();
        next_control = ph.completed + kControlEvery;
      }
    }
    ph.wall_ns += wall_ns() - w0;
    ph.timing = win.finish(ph.completed, ph.rtt_us);
    const auto fe1 = f_.frontend->stats();
    ph.frontend_bytes += (fe1.bytes_read - fe0.bytes_read) +
                         (fe1.bytes_written - fe0.bytes_written);
    ph.frontend_responses += fe1.responses - fe0.responses;
  }

  // Sends `k` requests for one model in one write and waits for every
  // reply. The server batches a burst together, so bursts of 1, 2, 4, 8
  // and 16 reach every batch-size class, and every lazily tuned GEMM
  // shape, in each set-up whatever the timing.
  void burst(std::size_t model, std::size_t k, Phase& ph) {
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < k; ++i) {
      wire::RequestFrame& req = models_[model].requests[i];
      req.request_id = ++next_id_;
      const std::vector<std::uint8_t> one = wire::encode_request(req);
      bytes.insert(bytes.end(), one.begin(), one.end());
      inflight_[req.request_id] = Pending{wall_ns(), model, i};
      ++rep_.op("data_request").attempted;
    }
    send_all(f_.data[0].fd, bytes);
    pollfd pfd{f_.data[0].fd, POLLIN, 0};
    while (!inflight_.empty()) {
      if (::poll(&pfd, 1, 100) < 0 && errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      if (!f_.data[0].fill()) throw std::runtime_error("server closed");
      drain_data(0, ph);
    }
  }

 private:
  struct Pending {
    std::uint64_t send_ns;
    std::size_t model;
    std::size_t input;
  };

  void send_next(std::size_t conn) {
    const std::uint64_t k = seq_++;
    const std::size_t model = k % 2;
    const std::size_t input = (k / 2) % kInputs;
    wire::RequestFrame& req = models_[model].requests[input];
    req.request_id = ++next_id_;
    std::vector<std::uint8_t> bytes;
    {
      Scope s(tr_, sp_encode_, req.request_id);
      bytes = wire::encode_request(req);
    }
    inflight_[req.request_id] = Pending{wall_ns(), model, input};
    send_all(f_.data[conn].fd, bytes);
    ++sent_;
    ++rep_.op("data_request").attempted;
  }

  std::size_t drain_data(std::size_t conn, Phase& ph) {
    Conn& c = f_.data[conn];
    std::size_t done = 0;
    for (;;) {
      wire::ResponseFrame resp;
      std::size_t used = 0;
      wire::DecodeStatus st;
      {
        Scope s(tr_, sp_decode_);
        st = wire::decode_response(c.data(), c.size(), resp, used);
      }
      if (st == wire::DecodeStatus::kNeedMoreData) break;
      if (st != wire::DecodeStatus::kOk) {
        throw std::runtime_error(std::string("response decode: ") +
                                 wire::to_string(st));
      }
      c.rpos += used;
      const auto it = inflight_.find(resp.request_id);
      if (it == inflight_.end()) throw std::runtime_error("unknown response");
      const Pending p = it->second;
      inflight_.erase(it);
      const double rtt = (wall_ns() - p.send_ns) * 1e-3;
      ++done;
      const Model& m = models_[p.model];
      if (resp.status != eb::serve::Status::kOk ||
          !same_tensor(resp.tensor, m.reference[p.input])) {
        rep_.op("data_request").fail(resp.status == eb::serve::Status::kOk);
        continue;
      }
      ++ph.completed;  // only kOk, reference-equal replies count as ops
      ph.rtt_us.push_back(rtt);
      ph.overhead_us.push_back(rtt - resp.total_us);
      ph.queue_us.push_back(resp.queue_us);
      ph.service_us.push_back(resp.total_us - resp.queue_us);
    }
    return done;
  }

  // A control round is one ping, then -- once the pong is back -- one
  // stats frame, so each round trip is timed on its own.
  void send_ping() {
    wire::PingFrame ping;
    ping.nonce = ++next_id_;
    ping_nonce_ = ping.nonce;
    control_sent_ns_ = wall_ns();
    send_all(f_.control.fd, wire::encode_ping(ping));
    control_inflight_ = 1;
    ++rep_.op("ping").attempted;
  }

  void send_stats() {
    wire::StatsFrame stats;
    stats.request_id = ++next_id_;
    stats_id_ = stats.request_id;
    control_sent_ns_ = wall_ns();
    send_all(f_.control.fd, wire::encode_stats(stats));
    control_inflight_ = 1;
    ++rep_.op("stats").attempted;
  }

  void drain_control(Phase& ph) {
    Conn& c = f_.control;
    for (;;) {
      std::uint8_t type = 0;
      if (wire::peek_type(c.data(), c.size(), type) !=
          wire::DecodeStatus::kOk) {
        break;
      }
      std::size_t used = 0;
      const double rtt = (wall_ns() - control_sent_ns_) * 1e-3;
      if (type == wire::kTypePing) {
        wire::PingFrame pong;
        if (wire::decode_ping(c.data(), c.size(), pong, used) !=
            wire::DecodeStatus::kOk) {
          break;
        }
        c.rpos += used;
        if (!pong.pong || pong.nonce != ping_nonce_) {
          rep_.op("ping").fail(true);
        } else {
          ph.ping_us.push_back(rtt);
        }
        send_stats();
        continue;
      } else if (type == wire::kTypeStats) {
        wire::StatsFrame s;
        if (wire::decode_stats(c.data(), c.size(), s, used) !=
            wire::DecodeStatus::kOk) {
          break;
        }
        const bool ok = s.response && s.request_id == stats_id_ &&
                        s.models.size() == 2 && s.models[0].id == "mlp-a" &&
                        s.models[1].id == "mlp-b" && s.errors == 0 &&
                        s.rejected == 0;
        if (!ok) {
          rep_.op("stats").fail(true);
        } else {
          ph.stats_us.push_back(rtt);
        }
      } else {
        throw std::runtime_error("unexpected control frame");
      }
      c.rpos += used;
      --control_inflight_;
    }
  }

  std::vector<Model>& models_;
  Fixture& f_;
  Tracer& tr_;
  Report& rep_;
  std::uint32_t sp_encode_;
  std::uint32_t sp_decode_;
  std::unordered_map<std::uint64_t, Pending> inflight_;
  std::uint64_t next_id_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t sent_ = 0;
  int control_inflight_ = 0;
  std::uint64_t ping_nonce_ = 0;
  std::uint64_t stats_id_ = 0;
  std::uint64_t control_sent_ns_ = 0;
};

std::unique_ptr<Fixture> set_up(std::vector<Model>& models) {
  eb::bnn::Autotuner::instance().clear();
  auto f = std::make_unique<Fixture>();
  eb::serve::GatewayConfig gcfg;
  gcfg.pool_threads = 1;  // inline intra-batch work: threads stay <= nproc
  f->gateway = std::make_unique<eb::serve::Gateway>(gcfg);
  const std::uint64_t t0 = wall_ns();
  for (std::size_t i = 0; i < 2; ++i) {
    f->folded[i] = eb::bnn::fold_network(models[i].net);
    eb::serve::ModelConfig mc;
    mc.server.workers = 1;
    mc.server.max_batch = kMaxBatch;
    mc.server.batching_window_us = 200;
    f->gateway->register_model(models[i].id, f->folded[i], mc);
  }
  f->register_ms = (wall_ns() - t0) * 1e-6;
  f->autotune_entries = eb::bnn::Autotuner::instance().table_size();
  eb::serve::TcpFrontendConfig fcfg;
  fcfg.event_loops = 1;
  f->frontend = std::make_unique<eb::serve::TcpFrontend>(*f->gateway, fcfg);
  for (Conn& c : f->data) c.fd = connect_loopback(f->frontend->port());
  f->control.fd = connect_loopback(f->frontend->port());
  return f;
}

}  // namespace

void run_wire_replica(const Options& opt, Tracer& tr, Report& rep) {
  std::vector<Model> models = make_models(opt.seed);
  std::unique_ptr<Fixture> f;
  const double setup_s = repeated_setup(kSetupReps, f, [&] {
    auto fx = set_up(models);
    // Warm-up requests are part of set-up; their outcomes are checked
    // and counted like any other.
    Tracer off(false);
    Client warm(models, *fx, off, rep);
    Phase ph;
    for (std::size_t model = 0; model < 2; ++model) {
      for (std::size_t k = 1; k <= kMaxBatch; k *= 2) warm.burst(model, k, ph);
    }
    warm.run(0.0, kWarmupRequests, false, ph);
    return fx;
  });

  Client client(models, *f, tr, rep);
  const double steal0 = host_steal_ms();
  Phase base;
  client.run(opt.trace ? opt.seconds / 2 : opt.seconds, 0, true, base);
  Phase traced;
  if (opt.trace) {
    tr.set_enabled(true);
    client.run(opt.seconds / 2, 0, true, traced);
    tr.set_enabled(false);
  }
  const double steal = host_steal_ms() - steal0;

  // Gateway::metrics() at a fixed point: after the measured traffic.
  const std::uint64_t s0 = wall_ns();
  const eb::serve::GatewaySnapshot snap = f->gateway->metrics();
  const double snapshot_ms = (wall_ns() - s0) * 1e-6;

  const Phase& ph = base;
  rep.set("setup_s", setup_s, "s");
  set_timing(rep, ph.timing);
  note_latency(rep, "client round trip", ph.rtt_us);
  set_modelled(rep, modelled_mix({{models[0].net.spec(), 0.5},
                                  {models[1].net.spec(), 0.5}}));

  const Phase& lp = opt.trace ? traced : base;
  std::vector<double> v;
  rep.set("serve.frontend.bytes_per_op",
          static_cast<double>(lp.frontend_bytes) /
              static_cast<double>(lp.frontend_responses),
          "B");
  v = lp.overhead_us;
  rep.set("serve.frontend.overhead_us_p50", percentile(v, 50.0), "us");
  v = lp.ping_us;
  rep.set("serve.control.ping_rtt_us", percentile(v, 50.0), "us");
  v = lp.stats_us;
  rep.set("serve.control.stats_rtt_us", percentile(v, 50.0), "us");
  v = lp.queue_us;
  rep.set("serve.gateway.queue_us_p50", percentile(v, 50.0), "us");
  v = lp.service_us;
  rep.set("serve.server.service_us_p50", percentile(v, 50.0), "us");
  rep.set("serve.gateway.snapshot_ms", snapshot_ms, "ms");
  for (const auto& m : snap.models) {
    rep.set("serve.server." + m.id + ".mean_batch", m.server.mean_batch_size,
            "count");
  }
  rep.set("serve.gateway.register_ms", f->register_ms, "ms");
  rep.set("bnn.autotune.entries", static_cast<double>(f->autotune_entries),
          "count");
  rep.set("host.steal_ms", steal, "ms");
  if (opt.trace) {
    const SpanTotals enc = tr.totals("serve.wire.encode");
    const SpanTotals dec = tr.totals("serve.wire.decode");
    rep.set("serve.wire.encode_ns",
            static_cast<double>(enc.wall_ns) / static_cast<double>(enc.count),
            "ns");
    // Decode spans include the final "need more data" probe of each read.
    rep.set("serve.wire.decode_ns",
            static_cast<double>(dec.wall_ns) /
                static_cast<double>(traced.completed),
            "ns");
    rep.set("trace.overhead_cpu_us_per_op",
            traced.timing.cpu_us_per_op - base.timing.cpu_us_per_op, "us");
  }
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "wire_replica: %llu requests in %.2f s, %zu pings, %zu stats "
                "frames; gateway snapshot %.2f ms; host steal %.1f ms during "
                "timing",
                static_cast<unsigned long long>(ph.completed),
                ph.wall_ns * 1e-9, ph.ping_us.size(), ph.stats_us.size(),
                snapshot_ms, steal);
  rep.note(buf);
  rep.note("wire_replica: gateway " + snap.summary());
}

}  // namespace pb
