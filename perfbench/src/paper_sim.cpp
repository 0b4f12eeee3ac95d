// paper_sim: the paper-reproduction simulator, with no serving layer and
// no packed kernels on the path. Each round runs
//   * arch::CostModel::evaluate for the four designs on the six MlBench
//     specs (Fig. 7/8);
//   * MLP-S compiled by comp::MlpCompiler, one WDM batch of 4 samples on
//     the EinsteinBarrier machine and the same 4 samples one by one on the
//     TacitMap machine (every machine run reprograms its crossbars);
//   * the three map::MappedExecutor backends over one MLP-L hidden layer's
//     weights, a noiseless and a read-noise batch each.
// Checks: machine core bits and predictions equal the unfolded network's
// per-sample forward; noiseless popcounts equal a plain-loop XNOR
// popcount; noisy results equal the same batch executed at pool width 1;
// CostModel latency orders Baseline-ePCM > TacitMap > EinsteinBarrier.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/cost_model.hpp"
#include "arch/machine.hpp"
#include "bnn/dataset.hpp"
#include "bnn/layers.hpp"
#include "bnn/model_zoo.hpp"
#include "common/thread_pool.hpp"
#include "compiler/compiler.hpp"
#include "device/noise.hpp"
#include "harness.hpp"
#include "mapping/executor.hpp"

namespace pb {
namespace {

using eb::BitMatrix;
using eb::BitVec;
using eb::bnn::Network;
using eb::bnn::Tensor;

constexpr std::size_t kEbBatch = 4;       // WDM batch on the optical machine
constexpr std::size_t kSampleSets = 8;    // distinct 4-sample machine inputs
constexpr std::size_t kXbarBatch = 8;     // input vectors per executor call
constexpr std::size_t kXbarSets = 2;      // distinct executor batches
constexpr std::size_t kPoolWidth = 2;     // executor pool width (<= nproc)
constexpr double kReadNoise = 0.02;       // Gaussian read-noise sigma
constexpr int kLoadReps = 8;              // traced Machine::load timings
constexpr int kSetupReps = 9;             // setup_s is the median set-up

using Popcounts = std::vector<std::vector<std::size_t>>;  // [input][row]

// Benchmark inputs and the references computed apart from the program.
struct Inputs {
  Network mlp_s{"", ""};
  std::vector<std::vector<Tensor>> samples;          // [set][kEbBatch]
  std::vector<std::vector<std::size_t>> predictions;  // reference argmax
  std::vector<std::vector<BitVec>> core_bits;        // reference sign2 out
  BitMatrix xbar_weights;                             // MLP-L fc3 rows
  std::vector<std::vector<BitVec>> xbar_inputs;      // [set][kXbarBatch]
  std::vector<Popcounts> xbar_gold;                  // plain-loop, per set
};

BitVec signs_to_bits(const Tensor& t) {
  BitVec b(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) b.set(i, t[i] >= 0.0);
  return b;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  eb::RngStream rng(seed);
  in.mlp_s = eb::bnn::build_mlp_s(rng);
  const Network mlp_l = eb::bnn::build_mlp(
      "MLP-L", {784, 1500, 1000, 500, 10}, rng);
  const eb::bnn::SyntheticMnist data(seed);

  // MLP-S layers: fc1 bn1 sign1 | fc2 bn2 sign2 | fc3. The machine runs
  // the binary core; its output bits are the input of fc3 (layer 6).
  for (std::size_t s = 0; s < kSampleSets; ++s) {
    std::vector<Tensor> set;
    std::vector<std::size_t> preds;
    std::vector<BitVec> bits;
    for (std::size_t k = 0; k < kEbBatch; ++k) {
      Tensor img = data.sample(s * kEbBatch + k).image;
      std::vector<Tensor> layer_in;
      const Tensor logits = in.mlp_s.forward_trace(img, layer_in);
      preds.push_back(eb::bnn::argmax(logits));
      bits.push_back(signs_to_bits(layer_in.at(6)));
      set.push_back(std::move(img));
    }
    in.samples.push_back(std::move(set));
    in.predictions.push_back(std::move(preds));
    in.core_bits.push_back(std::move(bits));
  }

  // MLP-L layers: fc1 bn1 sign1 | fc2 bn2 sign2 | fc3 ... fc3 (layer 6) is
  // the 1000 -> 500 binary hidden layer; its inputs are real activations.
  const auto& fc3 =
      dynamic_cast<const eb::bnn::BinaryDenseLayer&>(mlp_l.layer(6));
  in.xbar_weights = fc3.weights();
  for (std::size_t s = 0; s < kXbarSets; ++s) {
    std::vector<BitVec> xs;
    Popcounts gold;
    for (std::size_t k = 0; k < kXbarBatch; ++k) {
      std::vector<Tensor> layer_in;
      static_cast<void>(mlp_l.forward_trace(
          data.sample(1000 + s * kXbarBatch + k).image, layer_in));
      BitVec x = signs_to_bits(layer_in.at(6));
      // Plain-loop XNOR popcount against every weight row.
      std::vector<std::size_t> pc(in.xbar_weights.rows(), 0);
      for (std::size_t r = 0; r < in.xbar_weights.rows(); ++r) {
        for (std::size_t c = 0; c < x.size(); ++c) {
          pc[r] += (x.get(c) == in.xbar_weights.get(r, c)) ? 1 : 0;
        }
      }
      gold.push_back(std::move(pc));
      xs.push_back(std::move(x));
    }
    in.xbar_inputs.push_back(std::move(xs));
    in.xbar_gold.push_back(std::move(gold));
  }
  return in;
}

eb::RngStream noise_stream(std::uint64_t seed, std::size_t set,
                           std::size_t backend) {
  return eb::RngStream(seed * 1000003ull + set * 31ull + backend + 7ull);
}

// The program under test, built by set-up.
struct Fixture {
  eb::arch::MachineConfig eb_cfg;
  eb::arch::MachineConfig tacit_cfg;
  eb::comp::CompiledMlp eb_prog;
  eb::comp::CompiledMlp tacit_prog;
  std::unique_ptr<eb::arch::Machine> eb_machine;
  std::unique_ptr<eb::arch::Machine> tacit_machine;
  std::vector<std::string> backends;
  std::vector<std::unique_ptr<eb::map::MappedExecutor>> execs;
  eb::ThreadPool pool{kPoolWidth};
  double compile_eb_ms = 0.0;
  double compile_tacit_ms = 0.0;
  double cost_eval_us = 0.0;
};

// Fig. 7/8 from the cost model: every net weighs the same.
ModelledMix cost_round(const std::vector<eb::bnn::NetworkSpec>& nets) {
  std::vector<std::pair<eb::bnn::NetworkSpec, double>> weighted;
  for (const auto& n : nets) weighted.emplace_back(n, 1.0);
  return modelled_mix(weighted);
}

std::unique_ptr<Fixture> set_up(const Inputs& in, std::uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  f->tacit_cfg.optical = false;
  std::uint64_t t0 = wall_ns();
  f->eb_prog = eb::comp::MlpCompiler(f->eb_cfg).compile(in.mlp_s, kEbBatch);
  std::uint64_t t1 = wall_ns();
  f->tacit_prog = eb::comp::MlpCompiler(f->tacit_cfg).compile(in.mlp_s, 1);
  std::uint64_t t2 = wall_ns();
  f->compile_eb_ms = (t1 - t0) * 1e-6;
  f->compile_tacit_ms = (t2 - t1) * 1e-6;
  f->eb_machine = std::make_unique<eb::arch::Machine>(f->eb_cfg);
  f->tacit_machine = std::make_unique<eb::arch::Machine>(f->tacit_cfg);
  eb::map::MappedExecutorOptions xo;
  xo.seed = seed;
  f->backends = eb::map::mapped_backend_names();
  for (const auto& b : f->backends) {
    f->execs.push_back(eb::map::make_mapped_executor(b, in.xbar_weights, xo));
  }
  t0 = wall_ns();
  if (!cost_round(eb::bnn::mlbench_specs()).ordered) {
    throw std::runtime_error("cost model latency ordering violated");
  }
  f->cost_eval_us = (wall_ns() - t0) * 1e-3;
  // Warm-up: one run of each machine and one batch per executor.
  static_cast<void>(eb::comp::run_mlp_on_machine(*f->eb_machine, f->eb_prog,
                                                 in.mlp_s, in.samples[0]));
  static_cast<void>(eb::comp::run_mlp_on_machine(
      *f->tacit_machine, f->tacit_prog, in.mlp_s, {in.samples[0][0]}));
  const eb::dev::NoNoise quiet;
  for (auto& e : f->execs) {
    eb::RngStream r(seed);
    static_cast<void>(e->execute_batch(in.xbar_inputs[0], quiet, r, &f->pool));
  }
  return f;
}

struct Phase {
  std::uint64_t samples = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t eb_cpu_ns = 0, eb_samples = 0;
  std::uint64_t tacit_cpu_ns = 0, tacit_samples = 0;
  std::uint64_t xbar_cpu_ns = 0, xbar_vectors = 0;
  std::vector<double> latency_us;  // per sample: its call's wall time
  eb::arch::RunResult eb_last, tacit_last;
  ModelledMix fig;
  Timing timing;  // end-to-end timing, medians over rounds
};

// Noisy executor outputs at pool width 1: the reference every noisy batch
// at the benchmark's pool width must equal.
using NoisyRef = std::vector<std::vector<Popcounts>>;     // [backend][set]

NoisyRef noisy_reference(const Inputs& in, Fixture& f, std::uint64_t seed) {
  const eb::dev::GaussianReadNoise noisy(kReadNoise);
  NoisyRef ref(f.execs.size());
  eb::ThreadPool one(1);
  for (std::size_t b = 0; b < f.execs.size(); ++b) {
    for (std::size_t s = 0; s < kXbarSets; ++s) {
      eb::RngStream r = noise_stream(seed, s, b);
      ref[b].push_back(
          f.execs[b]->execute_batch(in.xbar_inputs[s], noisy, r, &one));
    }
  }
  return ref;
}

void measure(const Inputs& in, Fixture& f, const NoisyRef& noisy_ref,
             const Options& opt, Tracer& tr, Report& rep, double seconds,
             Phase& ph) {
  const std::uint32_t sp_cost = tr.intern("arch.cost_model.evaluate");
  const std::uint32_t sp_eb_call = tr.intern("arch.machine.call.eb");
  const std::uint32_t sp_tm_call = tr.intern("arch.machine.call.tacit");
  std::vector<std::uint32_t> sp_noisy, sp_quiet;
  for (const auto& b : f.backends) {
    sp_noisy.push_back(tr.intern("mapping." + b + ".noisy"));
    sp_quiet.push_back(tr.intern("mapping." + b + ".noiseless"));
  }
  const eb::dev::NoNoise quiet;
  const eb::dev::GaussianReadNoise noisy(kReadNoise);
  const auto nets = eb::bnn::mlbench_specs();

  auto machine_call = [&](eb::arch::Machine& m, const eb::comp::CompiledMlp& p,
                          const std::vector<Tensor>& xs, std::uint32_t span) {
    Scope s(tr, span);
    return eb::comp::run_mlp_on_machine(m, p, in.mlp_s, xs);
  };
  auto check_machine = [&](const eb::comp::MlpRun& run, std::size_t set,
                           std::size_t first) {
    bool ok = run.predictions.size() == run.core_output_bits.size();
    for (std::size_t k = 0; ok && k < run.predictions.size(); ++k) {
      ok = run.predictions[k] == in.predictions[set][first + k] &&
           run.core_output_bits[k] == in.core_bits[set][first + k];
    }
    return ok;
  };

  const std::uint64_t w0 = wall_ns();
  const std::uint64_t deadline = w0 + static_cast<std::uint64_t>(seconds * 1e9);
  // Every round is one window: its timing metrics come from the same
  // calls in every round, and their medians over rounds are reported.
  Windows win(0.0);
  win.start(0, 0);
  for (std::size_t round = 0; wall_ns() < deadline; ++round) {
    if (round > 0) win.poll(ph.samples, ph.latency_us);
    // (a) cost model.
    {
      OpCount& oc = rep.op("cost_eval");
      ++oc.attempted;
      ModelledMix fig;
      {
        Scope s(tr, sp_cost);
        fig = cost_round(nets);
      }
      if (round == 0) ph.fig = fig;
      const bool ok = fig.ordered && fig.eb_speedup == ph.fig.eb_speedup &&
           fig.tacit_speedup == ph.fig.tacit_speedup &&
           fig.eb_energy_ratio == ph.fig.eb_energy_ratio;
      if (!ok) oc.fail(true);
    }
    const std::size_t set = round % kSampleSets;
    // (b) EinsteinBarrier machine: one WDM batch.
    {
      OpCount& oc = rep.op("machine_run");
      ++oc.attempted;
      const std::uint64_t t0 = wall_ns();
      const std::uint64_t cc = process_cpu_ns();
      const auto run =
          machine_call(*f.eb_machine, f.eb_prog, in.samples[set], sp_eb_call);
      ph.eb_cpu_ns += process_cpu_ns() - cc;
      const double us = (wall_ns() - t0) * 1e-3;
      ph.eb_samples += kEbBatch;
      ph.samples += kEbBatch;
      for (std::size_t k = 0; k < kEbBatch; ++k) ph.latency_us.push_back(us);
      if (!check_machine(run, set, 0)) oc.fail(true);
      ph.eb_last = run.stats;
    }
    // (c) TacitMap machine: the same samples one by one.
    for (std::size_t k = 0; k < kEbBatch; ++k) {
      OpCount& oc = rep.op("machine_run");
      ++oc.attempted;
      const std::uint64_t t0 = wall_ns();
      const std::uint64_t cc = process_cpu_ns();
      const auto run = machine_call(*f.tacit_machine, f.tacit_prog,
                                    {in.samples[set][k]}, sp_tm_call);
      ph.tacit_cpu_ns += process_cpu_ns() - cc;
      ph.latency_us.push_back((wall_ns() - t0) * 1e-3);
      ph.tacit_samples += 1;
      ph.samples += 1;
      if (!check_machine(run, set, k)) oc.fail(true);
      ph.tacit_last = run.stats;
    }
    // (d) mapped executors.
    const std::size_t xs = round % kXbarSets;
    for (std::size_t b = 0; b < f.execs.size(); ++b) {
      for (int pass = 0; pass < 2; ++pass) {
        OpCount& oc = rep.op("executor_batch");
        ++oc.attempted;
        const bool with_noise = pass == 1;
        eb::RngStream r = noise_stream(opt.seed, xs, b);
        const std::uint64_t t0 = wall_ns();
        const std::uint64_t cc = process_cpu_ns();
        Popcounts out;
        {
          Scope s(tr, with_noise ? sp_noisy[b] : sp_quiet[b]);
          out = f.execs[b]->execute_batch(
              in.xbar_inputs[xs],
              with_noise ? static_cast<const eb::dev::NoiseModel&>(noisy)
                         : static_cast<const eb::dev::NoiseModel&>(quiet),
              r, &f.pool);
        }
        ph.xbar_cpu_ns += process_cpu_ns() - cc;
        const double us = (wall_ns() - t0) * 1e-3;
        for (std::size_t k = 0; k < kXbarBatch; ++k) {
          ph.latency_us.push_back(us);
        }
        ph.xbar_vectors += kXbarBatch;
        ph.samples += kXbarBatch;
        const auto& want = with_noise ? noisy_ref[b][xs] : in.xbar_gold[xs];
        if (out != want) oc.fail(true);
      }
    }
  }
  win.poll(ph.samples, ph.latency_us);
  ph.wall_ns = wall_ns() - w0;
  ph.timing = win.finish(ph.samples, ph.latency_us);
}

}  // namespace

void run_paper_sim(const Options& opt, Tracer& tr, Report& rep) {
  const Inputs in = make_inputs(opt.seed);
  std::unique_ptr<Fixture> f;
  const double setup_s =
      repeated_setup(kSetupReps, f, [&] { return set_up(in, opt.seed); });
  const NoisyRef noisy_ref = noisy_reference(in, *f, opt.seed);

  const double steal0 = host_steal_ms();
  Phase base;
  measure(in, *f, noisy_ref, opt, tr, rep,
          opt.trace ? opt.seconds / 2 : opt.seconds, base);
  set_timing(rep, base.timing);
  if (opt.trace) {
    tr.set_enabled(true);
    Phase traced;
    measure(in, *f, noisy_ref, opt, tr, rep, opt.seconds / 2, traced);
    // Machine::load timed on its own, outside the timed phases (every
    // run_mlp_on_machine call reloads, so the extra loads change nothing):
    // a machine run's time is its whole call minus one load.
    const std::uint32_t sp_eb_load = tr.intern("arch.machine.load.eb");
    const std::uint32_t sp_tm_load = tr.intern("arch.machine.load.tacit");
    for (int i = 0; i < kLoadReps; ++i) {
      {
        Scope s(tr, sp_eb_load);
        f->eb_machine->load(f->eb_prog.program);
      }
      Scope s(tr, sp_tm_load);
      f->tacit_machine->load(f->tacit_prog.program);
    }
    tr.set_enabled(false);
    rep.set("trace.overhead_cpu_us_per_op",
            traced.timing.cpu_us_per_op - base.timing.cpu_us_per_op, "us");
    auto per = [&](const std::string& span, std::uint64_t n) {
      const SpanTotals t = tr.totals(span);
      return n == 0 ? 0.0 : static_cast<double>(t.wall_ns) / n;
    };
    auto mean_ms = [&](const std::string& span) {
      const SpanTotals t = tr.totals(span);
      return t.wall_ns * 1e-6 / static_cast<double>(t.count);
    };
    for (const std::string m : {"eb", "tacit"}) {
      const double load = mean_ms("arch.machine.load." + m);
      rep.set("arch.machine.load_ms." + m, load, "ms");
      rep.set("arch.machine.run_ms." + m, mean_ms("arch.machine.call." + m) -
              load, "ms");
    }
    const SpanTotals cost = tr.totals("arch.cost_model.evaluate");
    rep.set("arch.cost_model.evaluate_us",
            cost.wall_ns * 1e-3 / static_cast<double>(cost.count), "us");
    for (const auto& b : f->backends) {
      const std::uint64_t n = tr.totals("mapping." + b + ".noisy").count *
                              kXbarBatch;
      rep.set("mapping." + b + ".ns_per_sample",
              per("mapping." + b + ".noisy", n), "ns");
      rep.set("mapping." + b + ".noiseless_ns_per_sample",
              per("mapping." + b + ".noiseless", n), "ns");
    }
  }
  const double steal = host_steal_ms() - steal0;

  rep.set("setup_s", setup_s, "s");
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  // Modelled metrics: the machines' own RunResults for MLP-S, the cost
  // model's geo-means over the six MlBench nets.
  ModelledMix m = base.fig;
  m.eb_ns_per_op = base.eb_last.latency_ns / kEbBatch;
  m.eb_pj_per_op = base.eb_last.energy.total_pj() / kEbBatch;
  m.tacit_ns_per_op = base.tacit_last.latency_ns;
  set_modelled(rep, m);

  rep.set("arch.machine.cpu_us_per_sample.eb",
          base.eb_cpu_ns * 1e-3 / base.eb_samples, "us");
  rep.set("arch.machine.cpu_us_per_sample.tacit",
          base.tacit_cpu_ns * 1e-3 / base.tacit_samples, "us");
  rep.set("mapping.cpu_us_per_sample",
          base.xbar_cpu_ns * 1e-3 / (base.xbar_vectors / f->execs.size()),
          "us");
  rep.set("compiler.compile_ms.eb", f->compile_eb_ms, "ms");
  rep.set("compiler.compile_ms.tacit", f->compile_tacit_ms, "ms");
  rep.set("arch.cost_model.setup_evaluate_us", f->cost_eval_us, "us");
  rep.set("arch.machine.instructions.eb",
          static_cast<double>(base.eb_last.instructions), "count");
  rep.set("arch.machine.mmm_ops.eb", static_cast<double>(base.eb_last.mmm_ops),
          "count");
  rep.set("arch.machine.vmm_ops.eb", static_cast<double>(base.eb_last.vmm_ops),
          "count");
  rep.set("arch.machine.instructions.tacit",
          static_cast<double>(base.tacit_last.instructions), "count");
  rep.set("arch.machine.vmm_ops.tacit",
          static_cast<double>(base.tacit_last.vmm_ops), "count");
  eb::map::MappedExecutorOptions xo;
  rep.set("mapping.optical.wdm_passes",
          static_cast<double>((kXbarBatch + xo.wdm_capacity - 1) /
                              xo.wdm_capacity),
          "count");
  rep.set("host.steal_ms", steal, "ms");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "paper_sim: %llu samples (%llu eb, %llu tacit, %llu xbar "
                "vectors) in %.2f s; host steal %.1f ms during timing",
                static_cast<unsigned long long>(base.samples),
                static_cast<unsigned long long>(base.eb_samples),
                static_cast<unsigned long long>(base.tacit_samples),
                static_cast<unsigned long long>(base.xbar_vectors),
                base.wall_ns * 1e-9, steal);
  rep.note(buf);
}

}  // namespace pb
