// ckptfi_bench: the benchmark driver (see perfbench/README.md).
//
//   ckptfi_bench --workload NAME --seed N --seconds S --trace 0|1
//                --out-dir DIR [--benchmark-json PATH] [--expect-crc HEX]
//                [--tiny] [--tamper]
//
// Prints a host line, the workload's human-readable figures, and as its last
// stdout line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// With --benchmark-json, a traced run prints every per-layer metric that file
// lists: those the workload does not exercise read 0.
// A full record (host fingerprint, artifact crc) goes to DIR/result.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "tensor/kernels.hpp"
#include "util/json.hpp"
#include "util/threadpool.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace ckptfi;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ckptfi_bench: %s\n"
               "usage: ckptfi_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--benchmark-json PATH] "
               "[--expect-crc HEX] [--tiny] [--tamper]\n",
               why);
  std::exit(2);
}

Json host_fingerprint() {
  Json h = Json::object();
  h["isa"] = simd_isa_name();
  h["kernels"] = kernel_backend_name();
  h["gemm"] = gemm_precision_name();
  h["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  h["threads"] = static_cast<std::int64_t>(ThreadPool::global().size());
#if defined(__clang__)
  h["compiler"] = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  h["compiler"] = std::string("gcc ") + __VERSION__;
#else
  h["compiler"] = std::string(__VERSION__);
#endif
  h["flags"] = std::string(PERFBENCH_CXX_FLAGS);
  return h;
}

/// Sets every per-layer metric of BENCHMARK.json the run did not measure to
/// 0, with the file's unit, and names them.
void fill_unmeasured(const std::string& bench_json,
                     perfbench::Metrics& metrics) {
  std::ifstream in(bench_json);
  if (!in) throw std::runtime_error("cannot read " + bench_json);
  std::ostringstream text;
  text << in.rdbuf();
  const Json bench = Json::parse(text.str());
  const Json& layers = bench.at("per_layer");
  std::string unmeasured;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const std::string& name = layers.at(i).at("name").as_string();
    if (metrics.has(name)) continue;
    metrics.set(name, 0.0, layers.at(i).at("unit").as_string());
    unmeasured += " " + name;
  }
  std::printf("not exercised by this workload (read 0):%s\n",
              unmeasured.c_str());
}

std::string worker_binary() {
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "ckptfi_worker";
  return (self.parent_path() / "ckptfi_worker").string();
}

}  // namespace

int main(int argc, char** argv) {
  // Digests are pinned for the simd backend at fp64: simd is
  // bitwise-identical across AVX2, NEON and its scalar fallback. Set before
  // anything reads them.
  setenv("CKPTFI_KERNELS", "simd", 1);
  setenv("CKPTFI_GEMM_PRECISION", "fp64", 1);
  // Kernels run on the calling thread; inter-trial parallelism comes from
  // each workload's own trial pool. These kernels are too small for a
  // fork-join pool to pay off, and one that waits on every vCPU stalls
  // whenever the hypervisor takes any of them away.
  setenv("CKPTFI_THREADS", "1", 1);

  perfbench::RunArgs args;
  std::string bench_json;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + key).c_str());
      return argv[++i];
    };
    try {
      if (key == "--workload") {
        args.workload = value();
      } else if (key == "--seed") {
        args.seed = std::stoull(value());
      } else if (key == "--seconds") {
        args.seconds = std::stod(value());
      } else if (key == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace wants 0 or 1");
        args.trace = v == "1";
        have_trace = true;
      } else if (key == "--out-dir") {
        args.out_dir = value();
      } else if (key == "--benchmark-json") {
        bench_json = value();
      } else if (key == "--expect-crc") {
        args.expect_crc = value();
      } else if (key == "--tiny") {
        args.tiny = true;
      } else if (key == "--tamper") {
        args.tamper = true;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (args.workload.empty() || args.out_dir.empty() || !have_trace) {
    usage("--workload, --trace and --out-dir are required");
  }
  args.worker_binary = worker_binary();

  const Json host = host_fingerprint();
  std::printf("host: %s\n", host.dump().c_str());
  std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.tiny ? "  scale: tiny" : "");
  std::fflush(stdout);

  perfbench::RunResult res;
  try {
    res = perfbench::run_workload(args);
    if (args.trace && !bench_json.empty()) {
      fill_unmeasured(bench_json, res.metrics);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ckptfi_bench: %s\n", e.what());
    return 1;
  }

  Json metrics = Json::object();
  for (const auto& [name, m] : res.metrics.items()) {
    Json j = Json::object();
    j["value"] = m.value;
    j["unit"] = m.unit;
    metrics[name] = std::move(j);
    std::printf("  %-40s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  const double fail_ratio =
      res.attempted > 0 ? static_cast<double>(res.failed) /
                              static_cast<double>(res.attempted)
                        : 1.0;
  std::printf("artifact crc32: %s%s  trial_fail_ratio: %.6g (%zu/%zu)\n",
              res.artifact_crc.c_str(),
              args.expect_crc.empty()
                  ? " (unpinned)"
                  : (res.artifact_crc == args.expect_crc ? " (pinned, ok)"
                                                         : " (PIN MISMATCH)"),
              fail_ratio, res.failed, res.attempted);

  Json line = Json::object();
  line["correct"] = res.correct;
  line["attempted"] = static_cast<std::int64_t>(res.attempted);
  line["failed"] = static_cast<std::int64_t>(res.failed);
  line["metrics"] = metrics;

  Json record = Json::object();
  record["workload"] = args.workload;
  record["seed"] = std::to_string(args.seed);
  record["trace"] = args.trace;
  record["tiny"] = args.tiny;
  record["host"] = host;
  record["artifact_crc"] = res.artifact_crc;
  record["pinned_crc"] = args.expect_crc;
  record["result"] = line;
  std::ofstream(std::filesystem::path(args.out_dir) / "result.json")
      << record.dump(2) << "\n";

  std::printf("%s\n", line.dump().c_str());
  return 0;
}
