// Per-layer probes of the traced run for the compute layers: the tensor
// kernels at every conv shape a model runs, the nn layers per top-level
// segment, and the framework adapter's checkpoint load. Everything is timed
// from outside the library, around its public calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "measure.hpp"

namespace perfbench {

struct ProbeConfig {
  std::size_t width = 4;  ///< campaign base width (per-model rule applies)
  std::size_t train_images = 64;  ///< images the nn probe steps over
  std::size_t batch_size = 32;
  std::size_t reps = 3;  ///< repetitions per timed shape / batch
  std::uint64_t seed = 1;
};

/// Adds tensor.<m>.*, nn.<m>.* and frameworks.<m>.load_ms for every model.
void run_layer_probes(const ProbeConfig& cfg, Metrics& out);

}  // namespace perfbench
