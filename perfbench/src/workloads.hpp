// The benchmark's workloads. Each one sets up, runs its trials for the
// requested time, checks its artifact, and fills the end-to-end metrics
// (untraced) or the per-layer metrics (traced).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "measure.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< self-test scale
  std::string out_dir;        ///< artifacts, spans and the result record
  std::string expect_crc;     ///< pinned artifact crc32 (hex), "" = unpinned
  bool tamper = false;        ///< self-test hook: corrupt one artifact row
  std::string worker_binary;  ///< ckptfi_worker for the fleet probe
};

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
  std::string artifact_crc;  ///< crc32 of the first pass's artifact
};

/// Throws on an unknown workload name or a failure outside a trial.
RunResult run_workload(const RunArgs& args);

}  // namespace perfbench
