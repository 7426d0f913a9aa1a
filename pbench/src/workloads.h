// The four workloads. Each fills `report` with every end-to-end
// metric (untraced run) or every per-layer metric (traced run), and
// records any correctness breach on it.
#pragma once

#include "harness.h"

namespace pbench {

void RunServe(const Options& options, Report& report);
void RunBatch(const Options& options, bool int8, Report& report);
void RunTrain(const Options& options, Report& report);

// core.overhead_ms: one 64-row InspectAll minus the Score time of its
// network stages (encode, scale, softmax and verdict building), on the
// first 512 rows of `rows`. Spans go to `tracer`.
double CoreOverheadMs(pelican::core::PelicanIds& ids,
                      const pelican::data::RawDataset& rows, Tracer& tracer);

// Per-layer metrics that only some workloads exercise. A traced run
// starts them at 0 ("this workload bypasses the layer") and the
// workload that runs the layer overwrites them.
void AddBypassedLayerDefaults(Report& report);

// Repeats `setup` `reps` times (the last result is kept) and reports
// the median wall time as setup_s.
template <typename T, typename Fn>
T TimedSetup(int reps, Report& report, Fn&& setup) {
  std::vector<double> samples;
  T result{};
  for (int i = 0; i < reps; ++i) {
    result = T{};  // release the previous repetition first
    const auto start = Clock::now();
    result = setup();
    samples.push_back(SecondsSince(start));
  }
  report.Add("setup_s", Median(samples), "s");
  return result;
}

inline constexpr int kSetupReps = 3;

// Shared end-to-end tail: ok_pct from the attempted/failed counts and
// the process's peak resident memory.
void AddCommonEndToEnd(Report& report, std::int64_t attempted,
                       std::int64_t failed);

}  // namespace pbench
