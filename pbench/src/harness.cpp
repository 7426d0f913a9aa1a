#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/csv.h"
#include "data/nslkdd.h"
#include "metrics/metrics.h"
#include "serve/wire.h"

#ifndef PBENCH_BUILD_TYPE
#define PBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PBENCH_NATIVE
#define PBENCH_NATIVE 0
#endif

namespace pbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

// ---- result --------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "pbench: correctness check failed: %s\n", what.c_str());
  correct_ = false;
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

void Report::Count(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

double Report::Value(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::nan("");
}

void Report::Print() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(1, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- statistics ----------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double BestWindowQuantile(const std::vector<double>& samples,
                          std::size_t window, double q) {
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / window);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? samples.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    best = std::min(best, Quantile(std::vector<double>(begin, end), q));
  }
  return best;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- tracing -------------------------------------------------------------

std::int32_t Tracer::Begin(const char* name, std::uint64_t id) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, NowNs(), 0, parent, id});
  open_.push_back(index);
  return index;
}

void Tracer::End(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int32_t Tracer::Record(const char* name, std::int64_t start_ns,
                            std::int64_t end_ns, std::int32_t parent,
                            std::uint64_t id) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, start_ns, end_ns, parent, id});
  return index;
}

double Tracer::SelfMs(const std::string& name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::int64_t self_ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      self_ns += spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
    }
  }
  return static_cast<double>(self_ns) / 1e6;
}

void Tracer::Write(const Options& options) const {
  const std::string path = options.data_dir + "/traces/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\": [\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %llu, \"parent\": %d}}\n",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id), s.parent);
    out << buf;
  }
  out << "]}\n";
  std::printf("trace: %zu spans -> %s\n", spans_.size(), path.c_str());
}

double PrintLedger(const std::string& title, const std::vector<LedgerRow>& rows,
                   double e2e_ms, double tolerance, Report& report) {
  double sum = 0.0;
  for (const auto& row : rows) sum += row.ms;
  const double overhead = e2e_ms - sum;
  std::printf("ledger %s (ms per unit)\n", title.c_str());
  for (const auto& row : rows) {
    std::printf("  %-28s %12.4f  %6.1f%%\n", row.layer.c_str(), row.ms,
                100.0 * row.ms / e2e_ms);
  }
  std::printf("  %-28s %12.4f  %6.1f%%\n", "sum of layers", sum,
              100.0 * sum / e2e_ms);
  std::printf("  %-28s %12.4f  %6.1f%%\n", "overhead", overhead,
              100.0 * overhead / e2e_ms);
  std::printf("  %-28s %12.4f\n", "end to end", e2e_ms);
  report.Check(overhead >= -tolerance * e2e_ms,
               "ledger " + title + ": layers sum to " + JsonNumber(sum) +
                   " ms, more than end to end " + JsonNumber(e2e_ms) +
                   " ms beyond the tolerance");
  return overhead;
}

// ---- fingerprint ---------------------------------------------------------

std::string Fingerprint(const Options& options, std::size_t scorers) {
  std::string model = "unknown";
  std::string isa;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  bool have_flags = false;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" && !have_flags) {
      have_flags = true;
      std::istringstream flags(value);
      std::string flag;
      while (flags >> flag) {
        for (const char* wanted :
             {"sse2", "ssse3", "sse4_1", "sse4_2", "avx", "avx2", "fma",
              "f16c", "avx512f", "avx512bw", "avx512vl", "avx512_vnni",
              "avx_vnni", "amx_int8", "asimd", "sve"}) {
          if (flag == wanted) {
            if (!isa.empty()) isa += ' ';
            isa += flag;
          }
        }
      }
    }
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string out = "{\"fingerprint\": {";
  out += "\"workload\": " + JsonString(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + JsonNumber(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  out += ", \"nproc\": " + std::to_string(nproc);
  out += ", \"cpu\": " + JsonString(model);
  out += ", \"isa\": " + JsonString(isa);
  out += ", \"compiler\": " + JsonString(
#if defined(__clang__)
      "clang "
#elif defined(__GNUC__)
      "gcc "
#endif
      __VERSION__);
  out += ", \"build_type\": " + JsonString(PBENCH_BUILD_TYPE);
  out += ", \"pelican_native\": " + std::string(PBENCH_NATIVE ? "true" : "false");
  out += ", \"pool_threads\": " + std::to_string(pelican::EffectiveThreads());
  out += ", \"scorers\": " + std::to_string(scorers);
  out += "}}";
  return out;
}

// ---- inputs and fixtures -------------------------------------------------

pelican::data::RawDataset HeldOut() {
  pelican::Rng rng(kHeldOutSeed);
  return pelican::data::GenerateNslKdd(kHeldOutRows, rng);
}

std::string ToCsv(const pelican::data::RawDataset& records) {
  std::ostringstream out;
  pelican::data::WriteCsv(records, out);
  return std::move(out).str();
}

pelican::core::IdsConfig PelicanConfig(std::int64_t channels) {
  pelican::core::IdsConfig config;
  config.n_blocks = 10;
  config.residual = true;
  config.channels = channels;
  config.train.batch_size = 64;
  config.train.optimizer = "rmsprop";
  return config;
}

std::string EnsureFixture(const Options& options, std::int64_t channels) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(options.data_dir) / "fixtures" / ("c" + std::to_string(channels));
  const fs::path model = dir / "model.bin";
  if (fs::exists(model) && fs::exists(dir / "model.bin.pre") &&
      fs::exists(dir / "model.bin.quant")) {
    return model.string();
  }
  // The paper-width fixture trains on fewer epochs: it is ~25x the
  // FLOPs of the 24-channel deployment model per row.
  const bool paper_width = channels >= 121;
  auto config = PelicanConfig(channels);
  config.train.epochs = paper_width ? 2 : 4;
  config.train.seed = kFixtureSeed;
  pelican::Rng rng(kFixtureSeed);
  const auto train = pelican::data::GenerateNslKdd(4096, rng);
  const auto start = Clock::now();
  pelican::core::PelicanIds ids(pelican::data::NslKddSchema(), config);
  ids.Train(train);
  const fs::path tmp =
      dir.string() + ".tmp" + std::to_string(static_cast<long>(getpid()));
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  ids.Save((tmp / "model.bin").string());
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::rename(tmp, dir, ec);
  if (ec) fs::remove_all(tmp);  // another run won the race; use theirs
  std::fprintf(stderr, "pbench: trained fixture c%lld in %.2f s -> %s\n",
               static_cast<long long>(channels), SecondsSince(start),
               model.string().c_str());
  return model.string();
}

std::unique_ptr<pelican::core::PelicanIds> LoadFixture(const std::string& path,
                                                      std::int64_t channels) {
  auto ids = std::make_unique<pelican::core::PelicanIds>(
      pelican::data::NslKddSchema(), PelicanConfig(channels));
  ids->Load(path);
  return ids;
}

Quality Score(const pelican::data::RawDataset& truth,
              const std::vector<int>& predicted) {
  pelican::metrics::ConfusionMatrix cm(truth.schema().LabelCount());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    cm.Record(truth.Label(i), predicted[i]);
  }
  const auto binary = pelican::metrics::CollapseToBinary(cm, 0);
  Quality q;
  q.acc_pct = 100.0 * cm.Accuracy();
  q.dr_pct = 100.0 * binary.DetectionRate();
  q.tnr_pct = 100.0 * (1.0 - binary.FalseAlarmRate());
  return q;
}

std::uint32_t VerdictDigest(
    const std::vector<pelican::core::PelicanIds::Verdict>& verdicts) {
  std::string bytes;
  for (const auto& v : verdicts) {
    bytes += pelican::serve::RenderVerdict(v);
    bytes += '\n';
  }
  return pelican::Crc32Of(bytes);
}

std::uint32_t WeightDigest(pelican::core::PelicanIds& ids) {
  std::string bytes;
  auto& net = ids.network();
  for (const auto& p : net.Params()) {
    const auto data = p.value->data();
    bytes.append(reinterpret_cast<const char*>(data.data()),
                 data.size() * sizeof(float));
  }
  for (const auto& b : net.Buffers()) {
    const auto data = b.value->data();
    bytes.append(reinterpret_cast<const char*>(data.data()),
                 data.size() * sizeof(float));
  }
  return pelican::Crc32Of(bytes);
}

// ---- heap allocation counter ----------------------------------------------

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void CountAllocations(bool on) {
  if (on) g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(on, std::memory_order_seq_cst);
}

std::uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

namespace detail {
void* CountedAlloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants the size to be a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace detail

}  // namespace pbench

// Global replacements: every C++ heap allocation in the process goes
// through the counter above.
void* operator new(std::size_t size) {
  return pbench::detail::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return pbench::detail::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return pbench::detail::CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return pbench::detail::CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return pbench::detail::CountedAlloc(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return pbench::detail::CountedAlloc(size, alignof(std::max_align_t));
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
