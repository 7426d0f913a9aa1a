// Per-layer probes for the traced run: single layers, kernels, the
// optimizer and the pool, timed from outside at the shapes the
// workloads run them at.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "harness.h"
#include "nn/nn.h"

namespace pbench {

// Median wall time of `fn` in microseconds: two warm-up calls, then
// samples until at least `min_reps` and `min_seconds`, at most
// `max_seconds`.
double MedianUs(const std::function<void()>& fn, int min_reps = 15,
                double min_seconds = 0.02, double max_seconds = 0.4);

// Where a top-level layer of a Pelican network sits: the input stage
// (reshape plus the projection stem), a residual block, or the head
// (global average pool plus dense).
enum class Stage { kInput, kBlock, kHead };
Stage StageOf(pelican::nn::Sequential& net, std::size_t layer);

// Times Score of each top-level layer of `net` on `x`, chaining the
// real activations; `on_layer(stage, us)` sees every layer of every
// repetition. Opens one `nn.score` span with a child per layer when a
// tracer is given.
void ScoreLayerByLayer(pelican::nn::Sequential& net,
                       const pelican::Tensor& x,
                       pelican::nn::InferenceContext& ctx, Tracer* tracer,
                       std::uint64_t id,
                       const std::function<void(Stage, double)>& on_layer);

// Adds every workload-independent per-layer metric (nn.*, quant.*,
// kernels.*, optim.*, common.*, data.*) to `report`. Resizes the pool
// to 2 threads.
void RunLayerProbes(Report& report);

}  // namespace pbench
