#include "probes.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/csv.h"
#include "data/nslkdd.h"
#include "models/pelican.h"
#include "optim/optimizer.h"
#include "tensor/kernels.h"

namespace pbench {

namespace nn = pelican::nn;
using pelican::Rng;
using pelican::Tensor;

double MedianUs(const std::function<void()>& fn, int min_reps,
                double min_seconds, double max_seconds) {
  fn();
  fn();
  std::vector<double> samples;
  const auto start = Clock::now();
  for (;;) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(SecondsSince(t0) * 1e6);
    const double elapsed = SecondsSince(start);
    if ((static_cast<int>(samples.size()) >= min_reps &&
         elapsed >= min_seconds) ||
        elapsed >= max_seconds) {
      break;
    }
  }
  return Median(std::move(samples));
}

Stage StageOf(nn::Sequential& net, std::size_t layer) {
  std::size_t first = net.LayerCount();
  std::size_t last = 0;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    if (net.LayerAt(i).Name() == "Residual") {
      first = std::min(first, i);
      last = i;
    }
  }
  if (layer < first) return Stage::kInput;
  if (layer <= last) return Stage::kBlock;
  return Stage::kHead;
}

void ScoreLayerByLayer(nn::Sequential& net, const Tensor& x,
                       nn::InferenceContext& ctx, Tracer* tracer,
                       std::uint64_t id,
                       const std::function<void(Stage, double)>& on_layer) {
  static constexpr const char* kSpan[] = {"nn.score.input", "nn.score.block",
                                          "nn.score.head"};
  std::int32_t outer = -1;
  if (tracer != nullptr) outer = tracer->Begin("nn.score", id);
  Tensor h = x;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    const Stage stage = StageOf(net, i);
    std::int32_t span = -1;
    if (tracer != nullptr) span = tracer->Begin(kSpan[static_cast<int>(stage)], id);
    const auto t0 = Clock::now();
    h = net.LayerAt(i).Score(h, ctx);
    const double us = SecondsSince(t0) * 1e6;
    if (tracer != nullptr) tracer->End(span);
    on_layer(stage, us);
  }
  if (tracer != nullptr) tracer->End(outer);
}

namespace {

struct Shape {
  std::int64_t batch;
  std::int64_t channels;
  std::string tag;
};

const std::vector<Shape>& ScoreShapes() {
  static const std::vector<Shape> shapes = {
      {1, 24, "b1c24"}, {64, 24, "b64c24"}, {64, 121, "b64c121"}};
  return shapes;
}

constexpr std::int64_t kFeatures = 121;  // NSL-KDD encoded width
constexpr std::int64_t kClasses = 5;

std::unique_ptr<nn::Sequential> Network(std::int64_t channels, Rng& rng) {
  return pelican::models::BuildPelican(kFeatures, kClasses, rng, channels);
}

// Median per-stage time (block = mean over the residual blocks) of a
// layer-by-layer Score of `net` on `x`.
void ProbeStages(nn::Sequential& net, const Tensor& x, const std::string& tag,
                 const std::string& prefix, Report& report) {
  nn::InferenceContext ctx;
  std::vector<double> input, block, head;
  const auto start = Clock::now();
  for (int rep = 0; rep < 200; ++rep) {
    double s_input = 0, s_block = 0, s_head = 0;
    int blocks = 0;
    ScoreLayerByLayer(net, x, ctx, nullptr, 0, [&](Stage stage, double us) {
      if (stage == Stage::kInput) s_input += us;
      if (stage == Stage::kBlock) {
        s_block += us;
        ++blocks;
      }
      if (stage == Stage::kHead) s_head += us;
    });
    if (rep < 2) continue;  // warm-up: arena growth, page faults
    input.push_back(s_input);
    block.push_back(s_block / std::max(1, blocks));
    head.push_back(s_head);
    if (rep >= 16 && SecondsSince(start) > 0.3) break;
  }
  report.Add(prefix + ".input_us." + tag, Median(input), "us");
  report.Add(prefix + ".block_us." + tag, Median(block), "us");
  report.Add(prefix + ".head_us." + tag, Median(head), "us");
}

struct Standalone {
  std::string name;
  nn::LayerPtr layer;
  Tensor x;
};

std::vector<Standalone> StandaloneLayers(const Shape& shape, Rng& rng) {
  const std::int64_t n = shape.batch, c = shape.channels;
  std::vector<Standalone> layers;
  const auto seq = [&] { return Tensor::RandomNormal({n, 1, c}, rng, 0, 1); };
  layers.push_back({"conv1d", std::make_unique<nn::Conv1D>(c, c, 10, rng), seq()});
  layers.push_back({"gru", std::make_unique<nn::Gru>(c, c, rng), seq()});
  layers.push_back({"batchnorm", std::make_unique<nn::BatchNorm>(c), seq()});
  layers.push_back({"maxpool", std::make_unique<nn::MaxPool1D>(2), seq()});
  layers.push_back({"dense", std::make_unique<nn::Dense>(c, kClasses, rng),
                    Tensor::RandomNormal({n, c}, rng, 0, 1)});
  return layers;
}

void ProbeScore(Report& report, Rng& rng) {
  for (const auto& shape : ScoreShapes()) {
    auto net = Network(shape.channels, rng);
    const Tensor x = Tensor::RandomNormal({shape.batch, kFeatures}, rng, 0, 1);
    ProbeStages(*net, x, shape.tag, "nn.score", report);
    nn::InferenceContext ctx;
    for (auto& s : StandaloneLayers(shape, rng)) {
      report.Add("nn.score." + s.name + "_us." + shape.tag,
                 MedianUs([&] { (void)s.layer->Score(s.x, ctx); }), "us");
    }
  }
  // Heap allocations of one whole-network Score after warm-up.
  for (const auto& shape : {ScoreShapes()[0], ScoreShapes()[2]}) {
    auto net = Network(shape.channels, rng);
    const Tensor x = Tensor::RandomNormal({shape.batch, kFeatures}, rng, 0, 1);
    nn::InferenceContext ctx;
    (void)net->Score(x, ctx);
    (void)net->Score(x, ctx);
    CountAllocations(true);
    (void)net->Score(x, ctx);
    CountAllocations(false);
    report.Add("nn.score.allocs_per_call." + shape.tag,
               static_cast<double>(AllocationCount()), "count");
  }
}

// Forward(training) and Backward per top-level stage and per
// standalone layer at the training shape, then one optimizer step.
void ProbeTraining(Report& report, Rng& rng) {
  const Shape shape{64, 121, "b64c121"};
  auto net = Network(shape.channels, rng);
  Rng dropout_rng(7);
  net->SetRng(&dropout_rng);
  const Tensor x = Tensor::RandomNormal({shape.batch, kFeatures}, rng, 0, 1);
  const std::size_t layers = net->LayerCount();
  std::vector<std::vector<double>> fwd(3), bwd(3);
  const auto start = Clock::now();
  for (int rep = 0; rep < 100; ++rep) {
    double f[3] = {0, 0, 0}, b[3] = {0, 0, 0};
    int blocks = 0;
    Tensor h = x;
    for (std::size_t i = 0; i < layers; ++i) {
      const auto t0 = Clock::now();
      h = net->LayerAt(i).Forward(h, /*training=*/true);
      const auto stage = static_cast<int>(StageOf(*net, i));
      f[stage] += SecondsSince(t0) * 1e6;
      if (stage == 1) ++blocks;
    }
    Tensor dy = Tensor::RandomNormal({shape.batch, kClasses}, rng, 0, 0.01F);
    for (std::size_t i = layers; i-- > 0;) {
      const auto t0 = Clock::now();
      dy = net->LayerAt(i).Backward(dy);
      b[static_cast<int>(StageOf(*net, i))] += SecondsSince(t0) * 1e6;
    }
    if (rep < 1) continue;
    for (int s = 0; s < 3; ++s) {
      const double div = s == 1 ? std::max(1, blocks) : 1;
      fwd[static_cast<std::size_t>(s)].push_back(f[s] / div);
      bwd[static_cast<std::size_t>(s)].push_back(b[s] / div);
    }
    if (rep >= 8 && SecondsSince(start) > 0.5) break;
  }
  const char* names[] = {"input", "block", "head"};
  for (int s = 0; s < 3; ++s) {
    report.Add(std::string("nn.forward.") + names[s] + "_us." + shape.tag,
               Median(fwd[static_cast<std::size_t>(s)]), "us");
    report.Add(std::string("nn.backward.") + names[s] + "_us." + shape.tag,
               Median(bwd[static_cast<std::size_t>(s)]), "us");
  }

  auto optimizer = pelican::optim::MakeOptimizer("rmsprop", 0.01F);
  optimizer->Attach(net->Params());
  report.Add("optim.step_ms.c121",
             MedianUs([&] { optimizer->Step(); }, 10, 0.05, 0.4) / 1e3, "ms");

  for (auto& s : StandaloneLayers(shape, rng)) {
    s.layer->SetRng(&dropout_rng);
    Tensor y = s.layer->Forward(s.x, true);
    const Tensor dy = Tensor::RandomNormal(y.shape(), rng, 0, 0.01F);
    report.Add("nn.forward." + s.name + "_us." + shape.tag,
               MedianUs([&] { y = s.layer->Forward(s.x, true); }), "us");
    // Backward pairs with the latest Forward; re-run it untimed.
    std::vector<double> samples;
    for (int rep = 0; rep < 17; ++rep) {
      (void)s.layer->Forward(s.x, true);
      const auto t0 = Clock::now();
      (void)s.layer->Backward(dy);
      if (rep >= 2) samples.push_back(SecondsSince(t0) * 1e6);
    }
    report.Add("nn.backward." + s.name + "_us." + shape.tag,
               Median(samples), "us");
  }
}

void ProbeQuant(Report& report, Rng& rng) {
  auto net = Network(121, rng);
  const Tensor x = Tensor::RandomNormal({64, kFeatures}, rng, 0, 1);
  net->SetQuantMode(pelican::quant::Mode::kCalibrate);
  (void)net->Forward(x, /*training=*/false);
  net->SetQuantMode(pelican::quant::Mode::kInt8);
  ProbeStages(*net, x, "b64c121", "quant.score", report);
}

// The GEMMs one block issues at sequence length 1 (only the centre
// conv tap is valid): conv and the GRU candidate (m, C, C), the GRU
// recurrent z|r panel (m, 2C, C) and the fused input panel (m, 3C, C).
void ProbeKernels(Report& report, Rng& rng) {
  for (const std::int64_t m : {1, 64}) {
    for (const std::int64_t c : {24, 121}) {
      for (const std::int64_t mult : {1, 2, 3}) {
        const std::int64_t n = mult * c, k = c;
        const std::string shape = "m" + std::to_string(m) + "n" +
                                  std::to_string(n) + "k" + std::to_string(k);
        const double flop = 2.0 * static_cast<double>(m * n * k);
        const Tensor a = Tensor::RandomNormal({m, k}, rng, 0, 1);
        const Tensor b = Tensor::RandomNormal({k, n}, rng, 0, 1);
        Tensor out({m, n});
        const double us = MedianUs([&] {
          pelican::kernels::Gemm(false, false, m, n, k, a.data().data(), k,
                                 b.data().data(), n, out.data().data(), n,
                                 false);
        });
        report.Add("kernels.gemm_us." + shape, us, "us");
        report.Add("kernels.gemm_gflops." + shape, flop / (us * 1e3),
                   "GFLOP/s");
        if (mult == 2) continue;  // the int8 path quantizes conv + GRU input
        std::vector<std::int8_t> qa(static_cast<std::size_t>(m * k));
        std::vector<std::int8_t> qb(static_cast<std::size_t>(k * n));
        for (auto& v : qa) v = static_cast<std::int8_t>(rng() % 255 - 127);
        for (auto& v : qb) v = static_cast<std::int8_t>(rng() % 255 - 127);
        std::vector<std::int32_t> qc(static_cast<std::size_t>(m * n));
        const double qus = MedianUs([&] {
          pelican::kernels::GemmInt8(m, n, k, qa.data(), k, qb.data(), n,
                                     qc.data(), n, false);
        });
        report.Add("kernels.gemm_int8_us." + shape, qus, "us");
        report.Add("kernels.gemm_int8_gops." + shape, flop / (qus * 1e3),
                   "GOP/s");
      }
    }
  }
}

void ProbeCommonAndData(Report& report) {
  // One empty ParallelFor over two shards: the split Score's loops get
  // with a 2-thread pool.
  report.Add("common.parallel_for_us",
             MedianUs([] { pelican::ParallelFor(0, 2, [](std::size_t) {}, 1); },
                      200, 0.02, 0.2),
             "us");
  const std::string text = ToCsv(HeldOut());
  const auto schema = pelican::data::NslKddSchema();
  const double us = MedianUs(
      [&] {
        std::istringstream in(text);
        (void)pelican::data::ReadCsv(schema, in);
      },
      5, 0.05, 0.5);
  report.Add("data.read_csv_ms", us / 1e3 / (kHeldOutRows / 1000.0), "ms");
}

}  // namespace

void RunLayerProbes(Report& report) {
  const auto start = Clock::now();
  // Every workload probes on the same 2-thread pool, so the per-layer
  // numbers mean the same thing in every traced run.
  pelican::SetThreads(2);
  Rng rng(0x9e0b5ULL);
  ProbeScore(report, rng);
  ProbeTraining(report, rng);
  ProbeQuant(report, rng);
  ProbeKernels(report, rng);
  ProbeCommonAndData(report);
  std::fprintf(stderr, "pbench: layer probes took %.2f s\n",
               SecondsSince(start));
}

}  // namespace pbench
