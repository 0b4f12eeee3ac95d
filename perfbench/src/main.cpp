// perfbench: the repository benchmark. One workload per process:
//
//   perfbench --workload <wire_replica|compute_mix|paper_sim> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints provenance, per-kind operation counts and, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"} holding every
// metric the workload measured (end-to-end and per-layer). perfbench/run.py
// builds this binary and narrows that line to the metrics BENCHMARK.json
// names for the mode.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bnn/autotune.hpp"
#include "harness.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<wire_replica|compute_mix|paper_sim> --seed <n> --seconds "
               "<s> --trace <0|1>\n",
               msg);
  return 2;
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The CPU flags the XNOR kernel registry dispatches on.
std::string kernel_flags() {
  std::istringstream in(cpuinfo_field("flags"));
  const std::set<std::string> have{std::istream_iterator<std::string>(in),
                                   std::istream_iterator<std::string>()};
  std::string out;
  for (const char* f : {"popcnt", "avx2", "avx512f", "avx512bw",
                        "avx512_vpopcntdq", "asimd"}) {
    if (have.count(f) == 0) continue;
    if (!out.empty()) out += ',';
    out += f;
  }
  return out.empty() ? "none" : out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  long long trace = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
      const std::string val = argv[++i];
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        trace = std::stoll(val);
      } else {
        return usage(("unknown flag " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (trace != 0 && trace != 1) return usage("--trace takes 0 or 1");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  opt.trace = trace == 1;

  void (*run)(const pb::Options&, pb::Tracer&, pb::Report&) = nullptr;
  if (opt.workload == "wire_replica") run = pb::run_wire_replica;
  if (opt.workload == "compute_mix") run = pb::run_compute_mix;
  if (opt.workload == "paper_sim") run = pb::run_paper_sim;
  if (run == nullptr) return usage("unknown --workload");

  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("provenance: nproc=%d hardware_concurrency=%u\n", nproc,
              std::thread::hardware_concurrency());
  std::printf("provenance: cpu=\"%s\" flags=%s\n",
              cpuinfo_field("model name").c_str(), kernel_flags().c_str());
  std::printf("provenance: build=%s compiler=\"%s\" flags=\"%s\"\n",
              PERFBENCH_BUILD_TYPE, __VERSION__, PERFBENCH_CXX_FLAGS);

  pb::Tracer tracer(false);
  pb::Report rep;
  try {
    run(opt, tracer, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& e : eb::bnn::Autotuner::instance().table()) {
    std::printf("provenance: autotune %s rows=%zu words=%zu batch=%zu -> %s\n",
                e.family.c_str(), e.rows, e.words, e.batch, e.kernel.c_str());
  }
  for (const auto& line : rep.notes) std::printf("%s\n", line.c_str());
  if (opt.trace) {
    // Relative to the working directory: run.py runs from the repo root.
    const std::string dir = ".bench_build/traces";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    std::printf("trace: %zu spans kept, written to %s%s\n",
                tracer.recorded(), path.c_str(),
                tracer.write_jsonl(path) ? "" : " (FAILED)");
    for (std::uint32_t i = 0; i < tracer.names().size(); ++i) {
      const pb::SpanTotals& t = tracer.totals(i);
      std::printf("trace: %-40s count=%-9llu wall_ms=%-10.3f cpu_ms=%-10.3f "
                  "self_ms=%.3f\n",
                  tracer.names()[i].c_str(),
                  static_cast<unsigned long long>(t.count), t.wall_ns * 1e-6,
                  t.cpu_ns * 1e-6, t.self_ns * 1e-6);
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& [kind, c] : rep.ops) {
    std::printf("ops: %-16s attempted=%llu failed=%llu wrong_output=%llu\n",
                kind.c_str(), static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.wrong));
    attempted += c.attempted;
    failed += c.failed;
  }
  bool correct = attempted > 0;
  std::string metrics;
  for (const auto& [name, vu] : rep.metrics) {
    double v = vu.first;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      correct = false;
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!metrics.empty()) metrics += ',';
    metrics.append("\"").append(json_escape(name));
    metrics.append("\":{\"value\":").append(buf);
    metrics.append(",\"unit\":\"").append(json_escape(vu.second));
    metrics.append("\"}");
  }
  // Every workload is sized so that no operation fails on working code:
  // an error status is a fault as much as a wrong output is.
  correct = correct && failed == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
