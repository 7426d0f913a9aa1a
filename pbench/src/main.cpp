// pbench — the repository benchmark.
//
//   pbench --workload serve|batch|batch_int8|train --seed N --seconds S
//          --trace 0|1 [--data-dir DIR]
//
// Prints the host/build fingerprint, progress and ledger lines, and as
// the last stdout line one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer metrics. Exits 1 when a correctness check
// fails, 2 on bad arguments or an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "harness.h"
#include "workloads.h"

namespace pbench {

void AddBypassedLayerDefaults(Report& report) {
  static constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
      {"serve.rows_per_batch", "rows"},
      {"serve.stage.batch_p50_ms", "ms"},
      {"serve.stage.queue_p99_ms", "ms"},
      {"serve.stage.score_p99_ms", "ms"},
      {"serve.stage.reply_p99_ms", "ms"},
      {"serve.scorer_busy_ratio", "ratio"},
      {"serve.shed", "count"},
      {"serve.late", "count"},
      {"serve.quarantined", "count"},
      {"client.p50_ms.low", "ms"},
      {"client.p99_ms.low", "ms"},
      {"client.p99_ms.high", "ms"},
      {"client.gen_late_p99_ms", "ms"},
      {"core.overhead_ms", "ms"},
      {"core.fit_overhead_ms", "ms"},
  };
  for (const auto& [name, unit] : kLayerMetrics) report.Add(name, 0.0, unit);
}

}  // namespace pbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pbench --workload serve|batch|batch_int8|train "
               "--seed N --seconds S --trace 0|1 [--data-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0) return Usage();
  pbench::Report report;
  try {
    if (options.workload == "serve") {
      pbench::RunServe(options, report);
    } else if (options.workload == "batch") {
      pbench::RunBatch(options, false, report);
    } else if (options.workload == "batch_int8") {
      pbench::RunBatch(options, true, report);
    } else if (options.workload == "train") {
      pbench::RunTrain(options, report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbench: error: %s\n", e.what());
    return 2;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
