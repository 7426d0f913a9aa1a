// The offline workloads: `batch` / `batch_int8` (CSV text in memory →
// data::ReadCsv → PelicanIds::InspectAll, 64-row calls, paper-width
// model) and `train` (PelicanIds::Train, RMSprop, batch 64).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/csv.h"
#include "data/nslkdd.h"
#include "models/pelican.h"
#include "nn/loss.h"
#include "optim/optimizer.h"
#include "probes.h"
#include "workloads.h"

namespace pbench {

namespace core = pelican::core;
namespace data = pelican::data;
using pelican::Rng;
using pelican::Tensor;

namespace {

constexpr std::int64_t kPaperChannels = 121;
constexpr std::size_t kBatchRows = 64;
constexpr std::size_t kCorpusRows = 20000;
constexpr std::size_t kTrainRows = 3072;
constexpr std::size_t kTrainEvalCalls = 16;  // held-out calls per Train
constexpr std::size_t kSingleRows = 256;  // Inspect-vs-InspectAll check
// Layer times measured in separate calls on a shared host may exceed
// the time they are set against by noise alone; see README.
constexpr double kLedgerTolerance = 0.10;
constexpr int kProbeChunks = 8;        // distinct chunks in nn probes
// Timing windows (see BestWindowQuantile): 16 calls of 64 rows, about
// a quarter second of scoring.
constexpr std::size_t kWindowCalls = 16;

using Chunks = std::vector<std::vector<std::size_t>>;

Chunks ChunkIndices(std::size_t rows) {
  Chunks chunks;
  for (std::size_t start = 0; start < rows; start += kBatchRows) {
    std::vector<std::size_t> idx(std::min(kBatchRows, rows - start));
    std::iota(idx.begin(), idx.end(), start);
    chunks.push_back(std::move(idx));
  }
  return chunks;
}

// First `rows` records of a CSV text (header kept).
std::string CsvPrefix(const std::string& text, std::size_t rows) {
  std::size_t pos = 0;
  for (std::size_t line = 0; line <= rows && pos != std::string::npos; ++line) {
    pos = text.find('\n', pos);
    if (pos != std::string::npos) ++pos;
  }
  return pos == std::string::npos ? text : text.substr(0, pos);
}

std::vector<int> Labels(const std::vector<core::PelicanIds::Verdict>& v) {
  std::vector<int> out;
  out.reserve(v.size());
  for (const auto& verdict : v) out.push_back(verdict.label);
  return out;
}

// Scores `rows` in 64-row InspectAll calls; appends each call's wall
// time (ms) to `latencies` when given.
std::vector<core::PelicanIds::Verdict> InspectChunks(
    const core::PelicanIds& ids, const data::RawDataset& rows,
    const Chunks& chunks, std::vector<double>* latencies) {
  std::vector<core::PelicanIds::Verdict> out;
  out.reserve(rows.Size());
  for (const auto& chunk : chunks) {
    const auto sub = rows.Subset(chunk);
    const auto t0 = Clock::now();
    auto verdicts = ids.InspectAll(sub);
    if (latencies != nullptr) latencies->push_back(SecondsSince(t0) * 1e3);
    for (auto& v : verdicts) out.push_back(std::move(v));
  }
  return out;
}

// Held-out evaluation shared by every offline workload: p50_ms from
// the workload's 64-row call latencies `call_ms` (best window of
// `window` calls), the quality metrics, and the check that single-row
// Inspect and 64-row InspectAll agree byte for byte on the same rows.
void HeldOutEvaluation(const core::PelicanIds& ids,
                       const data::RawDataset& held,
                       const std::vector<double>& call_ms,
                       std::size_t window, Report& report) {
  const auto verdicts =
      InspectChunks(ids, held, ChunkIndices(held.Size()), nullptr);
  std::vector<core::PelicanIds::Verdict> single, head;
  for (std::size_t i = 0; i < kSingleRows; ++i) {
    single.push_back(ids.Inspect(held.Row(i)));
    head.push_back(verdicts[i]);
  }
  report.Check(VerdictDigest(single) == VerdictDigest(head),
               "Inspect and InspectAll verdicts differ on the same rows");
  report.Add("p50_ms", BestWindowQuantile(call_ms, window, 0.5), "ms");
  std::printf("64-row calls timed: %zu\n", call_ms.size());
  const Quality q = Score(held, Labels(verdicts));
  report.Add("acc_pct", q.acc_pct, "%");
  report.Add("dr_pct", q.dr_pct, "%");
  report.Add("tnr_pct", q.tnr_pct, "%");
}

// Scaled network inputs of the first kProbeChunks 64-row chunks of
// `rows`, through the public Inspect(row, &scaled) hook.
std::vector<Tensor> ScaledChunks(const core::PelicanIds& ids,
                                 const data::RawDataset& rows) {
  std::vector<Tensor> out;
  std::vector<float> scaled;
  for (int c = 0; c < kProbeChunks; ++c) {
    Tensor x;
    for (std::size_t r = 0; r < kBatchRows; ++r) {
      (void)ids.Inspect(rows.Row(static_cast<std::size_t>(c) * kBatchRows + r),
                        &scaled);
      if (x.empty()) {
        x = Tensor({static_cast<std::int64_t>(kBatchRows),
                    static_cast<std::int64_t>(scaled.size())});
      }
      std::copy(scaled.begin(), scaled.end(),
                x.Row(static_cast<std::int64_t>(r)).begin());
    }
    out.push_back(std::move(x));
  }
  return out;
}

// Per-batch Score time (ms) of each network stage: input, block (all
// residual blocks), head.
struct StageSamples {
  std::vector<double> ms[3];

  [[nodiscard]] double Median(int stage) const {
    return pbench::Median(ms[stage]);
  }
  [[nodiscard]] double MedianSum() const {
    return Median(0) + Median(1) + Median(2);
  }
};

// Scores `batches` 64-row batches layer by layer (cycling the distinct
// scaled chunks `xs`), recording spans and appending each batch's
// stage times to `out`.
void ScoreStages(core::PelicanIds& ids, const std::vector<Tensor>& xs,
                 int batches, Tracer& tracer, StageSamples& out) {
  pelican::nn::InferenceContext ctx;
  for (int b = -2; b < batches; ++b) {  // two warm-up batches
    const auto& x = xs[static_cast<std::size_t>(std::max(b, 0)) % xs.size()];
    double sum[3] = {0, 0, 0};
    ScoreLayerByLayer(ids.network(), x, ctx, b >= 0 ? &tracer : nullptr,
                      static_cast<std::uint64_t>(std::max(b, 0)),
                      [&](Stage stage, double us) {
                        sum[static_cast<int>(stage)] += us / 1e3;
                      });
    if (b < 0) continue;
    for (int i = 0; i < 3; ++i) out.ms[i].push_back(sum[i]);
  }
}

}  // namespace

double CoreOverheadMs(core::PelicanIds& ids, const data::RawDataset& rows,
                      Tracer& tracer) {
  const auto xs = ScaledChunks(ids, rows);
  Chunks chunks = ChunkIndices(kProbeChunks * kBatchRows);
  std::vector<double> inspect;
  for (int rep = 0; rep < 4; ++rep) {
    (void)InspectChunks(ids, rows, chunks, rep == 0 ? nullptr : &inspect);
  }
  StageSamples stages;
  ScoreStages(ids, xs, 32, tracer, stages);
  return Median(inspect) - stages.MedianSum();
}

namespace {

// ---- batch / batch_int8 ----------------------------------------------------

struct BatchSetup {
  std::string text;  // the corpus as CSV, held in memory
  data::RawDataset held;
  std::unique_ptr<core::PelicanIds> ids;
};

BatchSetup SetUpBatch(const Options& options, const std::string& fixture,
                      bool int8) {
  BatchSetup s;
  Rng rng(options.seed);
  s.text = ToCsv(data::GenerateNslKdd(kCorpusRows, rng));
  s.held = HeldOut();
  s.ids = LoadFixture(fixture, kPaperChannels);
  if (int8) s.ids->EnableQuantized(true);
  // Warm-up: pool threads, inference arenas, first-touch of weights.
  (void)InspectChunks(*s.ids, s.held, ChunkIndices(4 * kBatchRows), nullptr);
  return s;
}

struct Pass {
  double seconds = 0;
  std::vector<double> window_rates;  // rows/s per kWindowCalls calls
  std::uint32_t digest = 0;
};

// One pass over the corpus: parse the CSV text, score it in 64-row
// InspectAll calls (each call's time goes to `call_ms`). Each window of
// calls is charged its share of the parse.
Pass ScorePass(const BatchSetup& s, const data::Schema& schema,
               std::vector<double>& call_ms) {
  const auto t0 = Clock::now();
  std::istringstream in(s.text);
  const auto rows = data::ReadCsv(schema, in);
  const double parse_s = SecondsSince(t0);
  const Chunks chunks = ChunkIndices(rows.Size());
  std::vector<double> chunk_s;
  std::vector<core::PelicanIds::Verdict> verdicts;
  verdicts.reserve(rows.Size());
  for (const auto& chunk : chunks) {
    const auto t1 = Clock::now();
    const auto sub = rows.Subset(chunk);
    const auto t2 = Clock::now();
    auto v = s.ids->InspectAll(sub);
    call_ms.push_back(SecondsSince(t2) * 1e3);
    chunk_s.push_back(SecondsSince(t1));
    for (auto& verdict : v) verdicts.push_back(std::move(verdict));
  }
  Pass pass;
  pass.seconds = SecondsSince(t0);
  for (std::size_t c = 0; c < chunks.size();) {
    const std::size_t end = chunks.size() - c < 2 * kWindowCalls
                                ? chunks.size()  // a short tail joins
                                : c + kWindowCalls;
    double window_s = 0, window_rows = 0;
    for (; c < end; ++c) {
      window_s += chunk_s[c];
      window_rows += static_cast<double>(chunks[c].size());
    }
    window_s += parse_s * window_rows / static_cast<double>(rows.Size());
    pass.window_rates.push_back(window_rows / window_s);
  }
  pass.digest = VerdictDigest(verdicts);
  return pass;
}

void BatchEndToEnd(const Options& options, BatchSetup& s, bool int8,
                   Report& report) {
  const auto schema = data::NslKddSchema();
  std::vector<double> call_ms, rates;
  std::uint32_t digest = 0;
  int passes = 0;
  const auto start = Clock::now();
  double longest = 0;  // no pass starts unless it should end in time
  while (passes < 2 || SecondsSince(start) + longest <= options.seconds) {
    const Pass pass = ScorePass(s, schema, call_ms);
    longest = std::max(longest, pass.seconds);
    rates.insert(rates.end(), pass.window_rates.begin(),
                 pass.window_rates.end());
    if (passes++ == 0) digest = pass.digest;
    report.Check(pass.digest == digest,
                 "verdict digest changed between passes over one corpus");
    std::printf("pass %d: %.0f rows/s\n", passes,
                static_cast<double>(kCorpusRows) / pass.seconds);
  }
  const auto rows = static_cast<std::int64_t>(passes * kCorpusRows);
  std::printf("batch: %d passes of %zu rows, verdict digest %08x\n", passes,
              kCorpusRows, digest);
  report.Add("rows_per_s", *std::max_element(rates.begin(), rates.end()),
             "1/s");
  HeldOutEvaluation(*s.ids, s.held, call_ms, kWindowCalls, report);
  if (int8) {
    // The int8 contract: ACC within 0.5 pt of the fp32 engine.
    s.ids->EnableQuantized(false);
    const auto fp32 = InspectChunks(*s.ids, s.held,
                                    ChunkIndices(s.held.Size()), nullptr);
    s.ids->EnableQuantized(true);
    const double fp32_acc = Score(s.held, Labels(fp32)).acc_pct;
    std::printf("int8 acc %.3f vs fp32 acc %.3f\n", report.Value("acc_pct"),
                fp32_acc);
    report.Check(std::fabs(report.Value("acc_pct") - fp32_acc) <= 0.5,
                 "int8 ACC is more than 0.5 pt from fp32");
  }
  AddCommonEndToEnd(report, rows, 0);
}

void BatchTraced(const Options& options, BatchSetup& s, Report& report) {
  const auto schema = data::NslKddSchema();
  constexpr int kBatches = 64;
  constexpr int kReps = 3;
  const std::string text =
      CsvPrefix(s.text, static_cast<std::size_t>(kBatches) * kBatchRows);
  std::istringstream scaled_in(text);
  const auto xs = ScaledChunks(*s.ids, data::ReadCsv(schema, scaled_in));
  Tracer tracer;
  std::vector<double> untraced, traced, inspect_ms;
  StageSamples stages;
  // Each repetition: the same 64 batches untraced, then traced, then
  // layer by layer, so all three see the same host conditions.
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool on : {false, true}) {
      const auto t0 = Clock::now();
      const std::int32_t pass = on ? tracer.Begin("pass", rep) : -1;
      const std::int32_t read = on ? tracer.Begin("data.read_csv", rep) : -1;
      std::istringstream in(text);
      const auto rows = data::ReadCsv(schema, in);
      if (on) tracer.End(read);
      const Chunks chunks = ChunkIndices(rows.Size());
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        const std::int32_t batch = on ? tracer.Begin("batch", c) : -1;
        const auto sub = rows.Subset(chunks[c]);
        const std::int32_t call =
            on ? tracer.Begin("core.inspect_all", c) : -1;
        const auto t1 = Clock::now();
        (void)s.ids->InspectAll(sub);
        if (on) {
          inspect_ms.push_back(SecondsSince(t1) * 1e3);
          tracer.End(call);
          tracer.End(batch);
        }
      }
      if (on) tracer.End(pass);
      (on ? traced : untraced).push_back(SecondsSince(t0) * 1e3 / kBatches);
    }
    ScoreStages(*s.ids, xs, kBatches, tracer, stages);
  }
  // The ledger partitions the traced time per batch; the nn.score
  // stages are measured beside InspectAll, not inside it, so `core` is
  // the difference of two medians.
  const double e2e = Mean(traced);
  const double batches = static_cast<double>(kReps * kBatches);
  const double read_ms = tracer.SelfMs("data.read_csv") / batches;
  const double inspect_mean = tracer.SelfMs("core.inspect_all") / batches;
  const double core_ms = Median(inspect_ms) - stages.MedianSum();
  const double overhead = PrintLedger(
      options.workload + " b64c121",
      {{"data.read_csv", read_ms},
       {"nn.score.input", stages.Median(0)},
       {"nn.score.block (x10)", stages.Median(1)},
       {"nn.score.head", stages.Median(2)},
       {"core (InspectAll - nn.score)", inspect_mean - stages.MedianSum()}},
      e2e, kLedgerTolerance, report);
  report.Check(core_ms >= -kLedgerTolerance * Median(inspect_ms),
               "nn.score stages exceed the InspectAll that contains them by "
               "more than the ledger tolerance");
  report.Add("core.overhead_ms", core_ms, "ms");
  report.Add("ledger.e2e_ms", e2e, "ms");
  report.Add("ledger.overhead_ms", overhead, "ms");
  report.Add("ledger.tracing_overhead_pct",
             100.0 * (e2e - Mean(untraced)) / Mean(untraced), "%");
  tracer.Write(options);
}

// ---- train -----------------------------------------------------------------

core::IdsConfig TrainConfig(std::uint64_t seed) {
  auto config = PelicanConfig(kPaperChannels);
  config.train.epochs = 1;
  config.train.seed = seed;
  return config;
}

struct TrainSetup {
  data::RawDataset corpus;
  data::RawDataset held;
};

TrainSetup SetUpTrain(const Options& options) {
  TrainSetup s;
  Rng rng(options.seed);
  s.corpus = data::GenerateNslKdd(kTrainRows, rng);
  s.held = HeldOut();
  // Warm-up: one short Train call (pool, arenas, allocator).
  std::vector<std::size_t> warm(4 * kBatchRows);
  std::iota(warm.begin(), warm.end(), 0);
  core::PelicanIds ids(data::NslKddSchema(), TrainConfig(options.seed));
  ids.Train(s.corpus.Subset(warm));
  return s;
}

struct TrainCall {
  std::unique_ptr<core::PelicanIds> ids;
  double seconds = 0;
  float loss = 0;
};

TrainCall TrainOnce(const Options& options, const data::RawDataset& corpus) {
  TrainCall call;
  call.ids = std::make_unique<core::PelicanIds>(data::NslKddSchema(),
                                                TrainConfig(options.seed));
  const auto t0 = Clock::now();
  const auto history = call.ids->Train(corpus);
  call.seconds = SecondsSince(t0);
  call.loss = history.back().train_loss;
  return call;
}

void TrainEndToEnd(const Options& options, const TrainSetup& s,
                   Report& report) {
  int calls = 0;
  double best_s = 0;  // fastest Train call (best window)
  std::vector<double> call_ms;
  const Chunks chunks = ChunkIndices(s.held.Size());
  std::uint32_t digest = 0;
  TrainCall last;
  const auto start = Clock::now();
  double longest = 0;  // no call starts unless it should end in time
  while (calls < 2 || SecondsSince(start) + longest <= options.seconds) {
    const auto t0 = Clock::now();
    last = TrainOnce(options, s.corpus);
    report.Check(std::isfinite(last.loss), "train loss is not finite");
    const std::uint32_t d = WeightDigest(*last.ids);
    if (calls++ == 0) digest = d;
    report.Check(d == digest, "weight digest changed between Train calls");
    if (calls == 1 || last.seconds < best_s) best_s = last.seconds;
    // A slice of the held-out evaluation after every call, so the
    // latency samples spread over the run (the models are identical,
    // as the digest shows).
    for (std::size_t i = 0; i < kTrainEvalCalls; ++i) {
      const auto& chunk = chunks[call_ms.size() % chunks.size()];
      (void)InspectChunks(*last.ids, s.held, {chunk}, &call_ms);
    }
    longest = std::max(longest, SecondsSince(t0));
  }
  std::printf("train: %d calls of %zu rows, loss %.4f, weight digest %08x\n",
              calls, kTrainRows, static_cast<double>(last.loss), digest);
  report.Add("rows_per_s", static_cast<double>(kTrainRows) / best_s, "1/s");
  HeldOutEvaluation(*last.ids, s.held, call_ms, kTrainEvalCalls, report);
  AddCommonEndToEnd(report, calls * static_cast<std::int64_t>(kTrainRows),
                    0);
}

void TrainTraced(const Options& options, const TrainSetup& s,
                 Report& report) {
  Tracer tracer;
  const double batches =
      std::ceil(static_cast<double>(kTrainRows) / kBatchRows);
  // An untraced Train call, the pieces of one call replayed from
  // outside at its shapes, then a traced call: the ledger sets the
  // pieces against the mean of the two calls.
  TrainCall plain = TrainOnce(options, s.corpus);

  Rng rng(options.seed);
  std::unique_ptr<pelican::nn::Sequential> net;
  {
    ScopedSpan span(tracer, "models.build", 0);
    net = pelican::models::BuildPelican(121, 5, rng, kPaperChannels);
  }
  Rng dropout_rng(options.seed);
  net->SetRng(&dropout_rng);
  {
    ScopedSpan span(tracer, "quant.calibrate", 0);
    const Tensor calib = Tensor::RandomNormal({256, 121}, rng, 0, 1);
    net->SetQuantMode(pelican::quant::Mode::kCalibrate);
    (void)net->Forward(calib, /*training=*/false);
    net->SetQuantMode(pelican::quant::Mode::kInt8);
    net->SetQuantMode(pelican::quant::Mode::kOff);
  }
  auto optimizer = pelican::optim::MakeOptimizer("rmsprop", 0.01F);
  optimizer->Attach(net->Params());
  const Tensor x = Tensor::RandomNormal({64, 121}, rng, 0, 1);
  std::vector<int> labels(64);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = s.corpus.Label(i);
  }
  constexpr int kProbeBatches = 8;
  for (int b = 0; b < kProbeBatches; ++b) {
    ScopedSpan batch(tracer, "batch", b);
    {
      ScopedSpan span(tracer, "nn.zero_grad", b);
      net->ZeroGrad();
    }
    Tensor h = x;
    {
      ScopedSpan span(tracer, "nn.forward", b);
      for (std::size_t i = 0; i < net->LayerCount(); ++i) {
        ScopedSpan layer(tracer, "nn.forward.layer", b);
        h = net->LayerAt(i).Forward(h, /*training=*/true);
      }
    }
    pelican::nn::LossResult loss;
    {
      ScopedSpan span(tracer, "nn.loss", b);
      loss = pelican::nn::SoftmaxCrossEntropy(h, labels);
    }
    {
      ScopedSpan span(tracer, "nn.backward", b);
      Tensor dy = loss.dlogits;
      for (std::size_t i = net->LayerCount(); i-- > 0;) {
        ScopedSpan layer(tracer, "nn.backward.layer", b);
        dy = net->LayerAt(i).Backward(dy);
      }
    }
    {
      ScopedSpan span(tracer, "optim.step", b);
      optimizer->Step();
    }
  }
  TrainCall traced;
  {
    ScopedSpan span(tracer, "train", 0);
    traced = TrainOnce(options, s.corpus);
  }
  const double e2e = (plain.seconds + traced.seconds) * 1e3 / 2 / batches;
  const auto per_batch = [&](const char* name) {
    return tracer.SelfMs(name) / kProbeBatches;
  };
  const double fwd = per_batch("nn.forward.layer") + per_batch("nn.forward");
  const double bwd = per_batch("nn.backward.layer") + per_batch("nn.backward");
  const double overhead = PrintLedger(
      "train b64c121",
      {{"nn.zero_grad", per_batch("nn.zero_grad")},
       {"nn.forward", fwd},
       {"nn.loss", per_batch("nn.loss")},
       {"nn.backward", bwd},
       {"optim.step", per_batch("optim.step")},
       {"models.build (per call / batches)",
        tracer.SelfMs("models.build") / batches},
       {"quant.calibrate (per call / batches)",
        tracer.SelfMs("quant.calibrate") / batches}},
      e2e, kLedgerTolerance, report);
  report.Add("core.fit_overhead_ms", overhead, "ms");
  report.Add("core.overhead_ms", CoreOverheadMs(*plain.ids, s.held, tracer),
             "ms");
  report.Add("ledger.e2e_ms", e2e, "ms");
  report.Add("ledger.overhead_ms", overhead, "ms");
  report.Add("ledger.tracing_overhead_pct",
             100.0 * (traced.seconds - plain.seconds) / plain.seconds, "%");
  tracer.Write(options);
}

}  // namespace

void AddCommonEndToEnd(Report& report, std::int64_t attempted,
                       std::int64_t failed) {
  report.Count(attempted, failed);
  report.Add("ok_pct",
             100.0 * (1.0 - static_cast<double>(failed) /
                                static_cast<double>(std::max<std::int64_t>(
                                    1, attempted))),
             "%");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
}

void RunBatch(const Options& options, bool int8, Report& report) {
  pelican::SetThreads(2);
  const std::string fixture = EnsureFixture(options, kPaperChannels);
  std::printf("%s\n", Fingerprint(options, 0).c_str());
  if (options.trace) {
    AddBypassedLayerDefaults(report);
    auto s = SetUpBatch(options, fixture, int8);
    BatchTraced(options, s, report);
    RunLayerProbes(report);
    return;
  }
  auto s = TimedSetup<BatchSetup>(kSetupReps, report, [&] {
    return SetUpBatch(options, fixture, int8);
  });
  BatchEndToEnd(options, s, int8, report);
}

void RunTrain(const Options& options, Report& report) {
  pelican::SetThreads(2);
  std::printf("%s\n", Fingerprint(options, 0).c_str());
  if (options.trace) {
    AddBypassedLayerDefaults(report);
    auto s = SetUpTrain(options);
    TrainTraced(options, s, report);
    RunLayerProbes(report);
    return;
  }
  auto s = TimedSetup<TrainSetup>(kSetupReps, report,
                                  [&] { return SetUpTrain(options); });
  TrainEndToEnd(options, s, report);
}

}  // namespace pbench
