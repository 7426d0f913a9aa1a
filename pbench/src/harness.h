// Shared plumbing for the pbench workloads: options, the result
// report, the span tracer, order statistics, the host/build
// fingerprint, the fixture models and the heap-allocation counter.
//
// Everything here lives in the benchmark binary. The program under
// test is driven only through its public entry points; no timer or
// counter is added inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pelican_ids.h"
#include "data/dataset.h"

namespace pbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".bench_build/pbench-data";  // fixtures, traces
};

// ---- result --------------------------------------------------------------

// The run's result: printed as the last stdout line, one JSON object
// with exactly the keys correct / attempted / failed / metrics.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Records a correctness breach (stderr) and marks the run incorrect.
  void Fail(const std::string& what);
  // Checks `ok`; on false records `what` as a breach.
  void Check(bool ok, const std::string& what);
  void Count(std::int64_t attempted, std::int64_t failed);
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] double Value(const std::string& name) const;
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ---- statistics ----------------------------------------------------------

// Linear-interpolated quantile of `v` (copied and sorted), q in [0, 1].
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);

// Interference on a shared virtual machine comes in spells: on the
// 4-vCPU host this was built on, the p99 of a 1 ms sleep's overshoot,
// taken per second, measured 0.2 ms when quiet and 1.5-5 ms for 17 to
// 36 of 60 s, and steal took up to 15% of a busy thread's time. A run
// therefore reports its best window of consecutive samples, as timeit
// reports its best repeat: a change to the program moves every window,
// a spell only the windows it covers.

// Lowest, over windows of `window` consecutive samples (a short tail
// joins the last window), of each window's quantile `q`.
double BestWindowQuantile(const std::vector<double>& samples,
                          std::size_t window, double q);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// ---- tracing -------------------------------------------------------------

// In-memory span recorder, one per thread that records (spans are
// never shared across threads). Each span has a name, start and end,
// the index of its parent span (-1 at the root) and an id that groups
// the spans of one flow (serve) or one batch (offline).
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t id;
  };

  // Opens a span nested in the innermost open one; returns its index.
  std::int32_t Begin(const char* name, std::uint64_t id);
  void End(std::int32_t index);
  // Records a finished span with explicit times (overlapping flows).
  std::int32_t Record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int32_t parent,
                      std::uint64_t id);

  // Summed self time (ms) of the spans named `name`: each span's
  // duration minus the part covered by its direct children.
  [[nodiscard]] double SelfMs(const std::string& name) const;

  // Writes Chrome trace-event JSON (loads in Perfetto) to
  // <data_dir>/traces/<workload>-seed<seed>.json and says where.
  void Write(const Options& options) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id)
      : tracer_(&tracer), index_(tracer.Begin(name, id)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

// One row of a ledger: a layer's self time per unit of work.
struct LedgerRow {
  std::string layer;
  double ms = 0.0;
};

// Prints the ledger for one workload and shape: each layer's self time
// per unit, their sum, the measured end-to-end time per unit, and the
// `overhead` remainder no layer accounts for. The remainder may not be
// negative by more than `tolerance` of end to end: layer spans sit
// inside the end-to-end interval, so a larger sum means double
// counting. Returns the remainder in ms; records a breach on `report`.
double PrintLedger(const std::string& title, const std::vector<LedgerRow>& rows,
                   double e2e_ms, double tolerance, Report& report);

// ---- fingerprint ---------------------------------------------------------

// Host/build stamp printed (one JSON line) before the result, so
// numbers from different hosts and builds are never confused.
std::string Fingerprint(const Options& options, std::size_t scorers);

// ---- inputs and fixtures -------------------------------------------------

// Seed of the labelled held-out set every workload scores for the
// paper's eqs. 3-5. Fixed, so the quality metrics move only when the
// arithmetic does.
inline constexpr std::uint64_t kHeldOutSeed = 0x5e1d0bULL;
inline constexpr std::size_t kHeldOutRows = 4096;
// Seed the fixture models are trained from (see EnsureFixture).
inline constexpr std::uint64_t kFixtureSeed = 0xf1c5ULL;

pelican::data::RawDataset HeldOut();
std::string ToCsv(const pelican::data::RawDataset& records);

// Residual-41 config at `channels` (121 = paper-faithful width).
pelican::core::IdsConfig PelicanConfig(std::int64_t channels);

// Path of the trained fixture model at `channels`. The first call in a
// checkout trains it from kFixtureSeed and saves it (with its scaler
// and int8 sidecars) under the data directory; later runs load it.
// Training is a one-time fixture cost, reported on stderr and not in
// setup_s.
std::string EnsureFixture(const Options& options, std::int64_t channels);

// Loads a fixture into a fresh PelicanIds.
std::unique_ptr<pelican::core::PelicanIds> LoadFixture(
    const std::string& path, std::int64_t channels);

// ACC / DR / TNR (%) of `labels` against the held-out truth. TNR is
// 100 - FAR (eq. 5), reported as its complement so it never reads 0.
struct Quality {
  double acc_pct = 0.0;
  double dr_pct = 0.0;
  double tnr_pct = 0.0;
};
Quality Score(const pelican::data::RawDataset& truth,
              const std::vector<int>& predicted);

// CRC32 over the rendered verdicts / the network's parameter and
// buffer bytes: digests that must repeat across repetitions.
std::uint32_t VerdictDigest(
    const std::vector<pelican::core::PelicanIds::Verdict>& verdicts);
std::uint32_t WeightDigest(pelican::core::PelicanIds& ids);

// ---- heap allocation counter ----------------------------------------------

// The binary replaces global operator new; while counting is on every
// allocation (any thread) bumps a counter. Off outside the traced
// probe that reads it.
void CountAllocations(bool on);
std::uint64_t AllocationCount();

}  // namespace pbench
