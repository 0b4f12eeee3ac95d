#include "bnn/autotune.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"

namespace eb::bnn {

namespace {

// ------------------------------------------------------- shape classes --
// Buckets are next-power-of-two with a cap, so a handful of classes cover
// every practical layer. Probe dimensions are additionally capped (see
// probe_* below) to bound first-use timing cost.
constexpr std::size_t kRowsCap = 4096;   // weight rows
constexpr std::size_t kWordsCap = 1024;  // words per row
constexpr std::size_t kBatchCap = 64;    // x rows

std::size_t bucket(std::size_t v, std::size_t cap) {
  v = std::max<std::size_t>(1, v);
  return std::min(std::bit_ceil(v), cap);
}

// (bucketed weight rows, words per row, batch rows).
using Key = std::tuple<std::size_t, std::size_t, std::size_t>;

struct Choice {
  std::size_t index = 0;  // kernel_registry() index
  std::string kernel;     // candidate name
  double best_ns = 0.0;   // measured probe-unit time (0 = loaded/forced)
};

// --------------------------------------------------------- timing probe --
// Deterministic harness: synthetic operands from a fixed SplitMix64 fill,
// candidates timed in registry order, min-of-3 reps of a calibrated
// iteration count, strict-less comparison so ties keep the earlier
// (statically preferred) entry. Probe sizes are capped so a first-use
// tune stays in the hundreds-of-microseconds range per candidate even
// under sanitizers.
constexpr double kProbeTargetNs = 5e4;  // per measured rep
constexpr int kProbeReps = 3;
constexpr std::size_t kProbeMaxIters = 512;

std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Defeats dead-code elimination of probe results. Concurrent tuners (two
// threads first-touching different shape classes) may hit it at once, so it
// must be atomic, not volatile; the value itself is never read.
std::atomic<std::uint64_t> g_probe_sink{0};

template <typename Unit>
double time_unit_ns(Unit&& unit) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  unit();
  const auto once =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  const auto iters = static_cast<std::size_t>(std::clamp<double>(
      kProbeTargetNs / std::max(once, 1.0), 1.0,
      static_cast<double>(kProbeMaxIters)));
  double best = once;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      unit();
    }
    const auto per =
        std::chrono::duration<double, std::nano>(Clock::now() - r0).count() /
        static_cast<double>(iters);
    best = std::min(best, per);
  }
  return best;
}

Choice tune_xnor_class(std::size_t rows_b, std::size_t words_b,
                       std::size_t batch_b) {
  // Probe at the class shape, individually capped so one probe unit stays
  // well under a millisecond.
  const std::size_t wn = std::min<std::size_t>(rows_b, 256);
  const std::size_t nw = std::min<std::size_t>(words_b, 256);
  const std::size_t bn = std::min<std::size_t>(batch_b, 8);
  std::uint64_t seed = 0x5eedULL ^ (rows_b << 20) ^ (words_b << 8) ^ batch_b;
  std::vector<std::uint64_t> w(wn * nw);
  std::vector<std::uint64_t> x(bn * nw);
  for (auto& v : w) {
    v = splitmix64(seed);
  }
  for (auto& v : x) {
    v = splitmix64(seed);
  }
  std::vector<std::uint32_t> out(wn);

  const auto& registry = kernel_registry();
  Choice best;
  double best_ns = 0.0;
  bool have = false;
  for (std::size_t idx = 0; idx < registry.size(); ++idx) {
    const Kernel& k = registry[idx];
    if (!k.supported) {
      continue;
    }
    const double ns = time_unit_ns([&] {
      for (std::size_t i = 0; i < bn; ++i) {
        k.sweep(x.data() + i * nw, w.data(), wn, nw, out.data());
      }
      g_probe_sink.fetch_add(out[0], std::memory_order_relaxed);
    });
    if (!have || ns < best_ns) {
      have = true;
      best_ns = ns;
      best = Choice{idx, k.name, ns};
    }
  }
  EB_ASSERT(have, "kernel registry has no supported candidate");
  return best;
}

// ------------------------------------------------------------- JSON I/O --
// Flat format, one object per pinned decision:
//   {"version": 1, "entries": [
//     {"family": "xnor", "rows": 1024, "words": 16, "batch": 64,
//      "kernel": "avx512bw"}, ... ]}

std::string json_string_field(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  auto pos = obj.find(needle);
  EB_REQUIRE(pos != std::string::npos,
             "tune cache entry is missing \"" + key + "\": " + obj);
  pos = obj.find(':', pos + needle.size());
  EB_REQUIRE(pos != std::string::npos, "malformed tune cache entry: " + obj);
  const auto open = obj.find('"', pos);
  EB_REQUIRE(open != std::string::npos, "malformed tune cache entry: " + obj);
  const auto close = obj.find('"', open + 1);
  EB_REQUIRE(close != std::string::npos, "malformed tune cache entry: " + obj);
  return obj.substr(open + 1, close - open - 1);
}

std::size_t json_size_field(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  auto pos = obj.find(needle);
  EB_REQUIRE(pos != std::string::npos,
             "tune cache entry is missing \"" + key + "\": " + obj);
  pos = obj.find(':', pos + needle.size());
  EB_REQUIRE(pos != std::string::npos, "malformed tune cache entry: " + obj);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(obj.c_str() + pos + 1, &end, 10);
  EB_REQUIRE(end != nullptr && end != obj.c_str() + pos + 1,
             "malformed tune cache entry: " + obj);
  return static_cast<std::size_t>(v);
}

}  // namespace

// ------------------------------------------------------------ Autotuner --

struct Autotuner::Impl {
  mutable std::shared_mutex mu;
  std::map<Key, Choice> table;
  std::atomic<const Kernel*> forced{nullptr};
  std::string cache_path;  // guarded by mu
  std::atomic<bool> dirty{false};

  void init_from_env() {
    // Strict parses first: a bad EB_KERNEL must fail before any cache I/O.
    const std::string forced_name =
        Config::env_choice("EB_KERNEL", kernel_names(), "");
    const std::string path = Config::env_string("EB_TUNE_CACHE", "");
    const Kernel* f =
        forced_name.empty() ? nullptr : &kernel_by_name(forced_name);
    forced.store(f, std::memory_order_release);
    {
      const std::unique_lock<std::shared_mutex> lock(mu);
      cache_path = path;
    }
  }
};

Autotuner::Autotuner() : impl_(new Impl) {
  impl_->init_from_env();
  std::string path;
  {
    const std::shared_lock<std::shared_mutex> lock(impl_->mu);
    path = impl_->cache_path;
  }
  if (!path.empty()) {
    load_cache_file(path);
    impl_->dirty.store(false, std::memory_order_relaxed);
    // Persist whatever first-use tuning adds during this process's life,
    // so the next serving process starts fully warmed.
    std::atexit([] {
      Autotuner& t = Autotuner::instance();
      std::string p;
      {
        const std::shared_lock<std::shared_mutex> lock(t.impl_->mu);
        p = t.impl_->cache_path;
      }
      if (!p.empty() && t.impl_->dirty.load(std::memory_order_relaxed)) {
        try {
          t.save_cache_file(p);
        } catch (...) {
          // Exit-path best effort: an unwritable cache must not turn a
          // clean shutdown into an abort.
        }
      }
    });
  }
}

Autotuner& Autotuner::instance() {
  static Autotuner tuner;
  return tuner;
}

const Kernel* Autotuner::forced() const {
  return impl_->forced.load(std::memory_order_acquire);
}

const Kernel& Autotuner::pick_xnor(std::size_t w_rows,
                                   std::size_t words_per_row,
                                   std::size_t batch_rows) {
  if (const Kernel* f = forced()) {
    return *f;
  }
  const Key key{bucket(w_rows, kRowsCap), bucket(words_per_row, kWordsCap),
                bucket(batch_rows, kBatchCap)};
  {
    const std::shared_lock<std::shared_mutex> lock(impl_->mu);
    const auto it = impl_->table.find(key);
    if (it != impl_->table.end()) {
      return kernel_registry()[it->second.index];
    }
  }
  // Tune outside the lock (milliseconds-scale): concurrent first-users of
  // the same class race benignly -- every candidate is bit-identical, and
  // the first insert wins the pin.
  Choice tuned =
      tune_xnor_class(std::get<0>(key), std::get<1>(key), std::get<2>(key));
  const std::unique_lock<std::shared_mutex> lock(impl_->mu);
  const auto [it, inserted] = impl_->table.emplace(key, std::move(tuned));
  if (inserted) {
    impl_->dirty.store(true, std::memory_order_relaxed);
  }
  return kernel_registry()[it->second.index];
}

void Autotuner::warmup_xnor(std::size_t w_rows, std::size_t cols,
                            std::size_t batch_rows) {
  static_cast<void>(pick_xnor(w_rows, (cols + 63) / 64, batch_rows));
}

std::string Autotuner::to_json() const {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"entries\": [";
  const std::shared_lock<std::shared_mutex> lock(impl_->mu);
  bool first = true;
  for (const auto& [key, choice] : impl_->table) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"family\": \"xnor\", \"rows\": " << std::get<0>(key)
       << ", \"words\": " << std::get<1>(key)
       << ", \"batch\": " << std::get<2>(key) << ", \"kernel\": \""
       << choice.kernel << "\"}";
  }
  os << (first ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

void Autotuner::load_json(const std::string& text) {
  EB_REQUIRE(text.find("\"entries\"") != std::string::npos,
             "tune cache JSON is missing \"entries\"");
  std::map<Key, Choice> parsed;
  std::size_t pos = text.find('[', text.find("\"entries\""));
  EB_REQUIRE(pos != std::string::npos, "tune cache JSON has no entries array");
  while (true) {
    const auto open = text.find('{', pos);
    if (open == std::string::npos) {
      break;
    }
    const auto close = text.find('}', open);
    EB_REQUIRE(close != std::string::npos,
               "tune cache JSON has an unterminated entry");
    const std::string obj = text.substr(open, close - open + 1);
    pos = close + 1;

    const std::string family = json_string_field(obj, "family");
    const std::string kernel = json_string_field(obj, "kernel");
    const std::size_t rows = json_size_field(obj, "rows");
    const std::size_t words = json_size_field(obj, "words");
    const std::size_t batch = json_size_field(obj, "batch");
    EB_REQUIRE(family == "xnor" || family == "real",
               "tune cache entry has unknown family '" + family + "'");
    if (family == "real") {
      continue;  // legacy real-GEMM row-block pick: that GEMM needs no tuning
    }
    // Skip candidates this build/host cannot run (cache portability): the
    // shape re-tunes on first use instead.
    const auto& registry = kernel_registry();
    std::size_t idx = registry.size();
    for (std::size_t i = 0; i < registry.size(); ++i) {
      if (kernel == registry[i].name && registry[i].supported) {
        idx = i;
        break;
      }
    }
    if (idx == registry.size()) {
      continue;
    }
    parsed[Key{rows, words, batch}] = Choice{idx, kernel, 0.0};
  }
  const std::unique_lock<std::shared_mutex> lock(impl_->mu);
  for (auto& [key, choice] : parsed) {
    impl_->table[key] = std::move(choice);
  }
}

void Autotuner::save_cache_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  EB_REQUIRE(out.good(), "cannot open tune cache for writing: " + path);
  out << to_json();
  out.flush();
  EB_REQUIRE(out.good(), "failed writing tune cache: " + path);
}

bool Autotuner::load_cache_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  load_json(ss.str());
  return true;
}

std::vector<TunedEntry> Autotuner::table() const {
  std::vector<TunedEntry> out;
  const std::shared_lock<std::shared_mutex> lock(impl_->mu);
  out.reserve(impl_->table.size());
  for (const auto& [key, choice] : impl_->table) {
    TunedEntry e;
    e.family = "xnor";
    e.rows = std::get<0>(key);
    e.words = std::get<1>(key);
    e.batch = std::get<2>(key);
    e.kernel = choice.kernel;
    e.best_ns = choice.best_ns;
    out.push_back(std::move(e));
  }
  return out;
}

std::size_t Autotuner::table_size() const {
  const std::shared_lock<std::shared_mutex> lock(impl_->mu);
  return impl_->table.size();
}

void Autotuner::clear() {
  const std::unique_lock<std::shared_mutex> lock(impl_->mu);
  impl_->table.clear();
  impl_->dirty.store(true, std::memory_order_relaxed);
}

void Autotuner::reinit_from_env() { impl_->init_from_env(); }

}  // namespace eb::bnn
