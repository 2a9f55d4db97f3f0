#include "workloads.hpp"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/corrupter.hpp"
#include "core/equivalent.hpp"
#include "core/experiment.hpp"
#include "core/nev.hpp"
#include "core/scheduler.hpp"
#include "core/trial_log.hpp"
#include "fleetd.hpp"
#include "frameworks/framework.hpp"
#include "layer_probes.hpp"
#include "models/models.hpp"
#include "obs/registry.hpp"
#include "util/crc32.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/threadpool.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace ckptfi;
namespace fs = std::filesystem;

// ------------------------------------------------------------ passes --

/// One cell of trials, run on a TrialScheduler exactly as the campaign
/// benches run it.
struct Unit {
  std::string cell;
  std::uint64_t cell_seed = 0;
  std::size_t trials = 0;
};

/// A trial body returns the trial's row; `span` is the enclosing trial span
/// (-1 when untraced).
using TrialBody = std::function<Json(const std::string& cell,
                                     const core::TrialContext& trial,
                                     std::int64_t span, std::int64_t tid)>;

struct Pass {
  std::vector<std::string> rows;  ///< serialized rows, artifact order; ""
                                  ///< for a trial that threw
  /// Per-trial, per-pass time and process CPU, all without the benchmark's
  /// own digest work (Workload::digest_row).
  std::vector<double> trial_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  std::string artifact() const {
    std::string out;
    for (const std::string& r : rows) out += r + "\n";
    return out;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One full set-up: everything before the first trial can start.
  virtual void setup() = 0;
  virtual std::vector<Unit> units() const = 0;
  virtual std::size_t jobs() const = 0;
  /// Pool the trials fan out on (nullptr: the global one, for one job).
  virtual ThreadPool* trial_pool() { return nullptr; }
  /// Campaign fingerprint every row must carry.
  virtual std::string fp_hex() const = 0;
  /// The trial through the public entry point a user calls.
  virtual Json trial(const std::string& cell, const core::TrialContext& t) = 0;
  /// Adds the benchmark's own digests of the trial's outputs to its row.
  /// Runs after the trial and is not counted in its time or CPU.
  virtual void digest_row(Json& /*row*/) {}

  // Traced run.
  virtual void traced_setup(SpanRecorder& rec) = 0;
  virtual Json traced_trial(const std::string& cell,
                            const core::TrialContext& t, SpanRecorder& rec,
                            std::int64_t span, std::int64_t tid) = 0;
  virtual void layer_metrics(const SpanRecorder& rec, Metrics& m) const = 0;
  virtual ProbeConfig probe_config() const = 0;
  /// Cells the obs metrics-on/off comparison replays.
  virtual std::size_t obs_units() const = 0;
  virtual void fleet_probe(const RunArgs&, const Pass&, Metrics&, RunResult&) {}
};

Pass run_pass(Workload& w, const TrialBody& body, SpanRecorder* rec,
              std::size_t max_units = static_cast<std::size_t>(-1)) {
  const std::vector<Unit> units = w.units();
  Pass pass;
  std::mutex mu;  // guards the digest totals
  double digest_s = 0.0, digest_cpu_s = 0.0;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  std::size_t offset = 0;
  for (std::size_t u = 0; u < units.size() && u < max_units; ++u) {
    const Unit& unit = units[u];
    std::vector<std::string> rows(unit.trials);
    std::vector<double> ms(unit.trials, 0.0);
    core::TrialScheduler::Config sc;
    sc.jobs = w.jobs();
    sc.campaign_seed = unit.cell_seed;
    sc.pool = w.trial_pool();
    core::TrialScheduler(sc).run(
        unit.trials, [&](const core::TrialContext& trial) {
          const auto tid = static_cast<std::int64_t>(offset + trial.index);
          const auto ts = Clock::now();
          double own_s = 0.0;
          Span span(rec, "trial", -1, tid);
          try {
            Json row = body(unit.cell, trial, span.id(), tid);
            {
              Span d(rec, "bench.digest", span.id(), tid);
              const auto d0 = Clock::now();
              const double c0 = thread_cpu_seconds();
              w.digest_row(row);
              own_s = seconds_since(d0);
              const std::lock_guard<std::mutex> lock(mu);
              digest_s += own_s;
              digest_cpu_s += thread_cpu_seconds() - c0;
            }
            Span dump(rec, "artifact.row", span.id(), tid);
            rows[trial.index] = row.dump();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "trial %s#%zu failed: %s\n",
                         unit.cell.c_str(), trial.index, e.what());
          }
          ms[trial.index] = (seconds_since(ts) - own_s) * 1e3;
        });
    for (std::size_t i = 0; i < unit.trials; ++i) {
      pass.rows.push_back(std::move(rows[i]));
      pass.trial_ms.push_back(ms[i]);
    }
    offset += unit.trials;
  }
  // Exact at one job, the only width at which a workload digests rows.
  pass.wall_s = seconds_since(t0) - digest_s;
  pass.cpu_s = cpu_seconds() - cpu0 - digest_cpu_s;
  return pass;
}

std::string crc_hex(const std::string& bytes) {
  return core::fingerprint_hex(crc32(bytes.data(), bytes.size()));
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Cumulative (steal, total) CPU jiffies of the machine from /proc/stat:
/// time the hypervisor ran something else while this guest wanted the CPU.
std::pair<double, double> steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Process-wide bytes read/written through syscalls (/proc/self/io rchar,
/// wchar); zeros where the file does not exist.
std::pair<std::uint64_t, std::uint64_t> io_chars() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0, rchar = 0, wchar = 0;
  while (in >> key >> value) {
    if (key == "rchar:") rchar = value;
    if (key == "wchar:") wchar = value;
  }
  return {rchar, wchar};
}

double ms_p50(const SpanRecorder& rec, const std::string& name) {
  return median(rec.durations_ms(name));
}

double sum_s(const SpanRecorder& rec, const std::string& name) {
  double total = 0.0;
  for (const double ms : rec.durations_ms(name)) total += ms;
  return total * 1e-3;
}

// --------------------------------------------------------- workloads --

/// The ExperimentConfig a campaign builds for one (framework, model) — the
/// traced run builds its own runners from it so it can call their
/// decomposed entry points.
core::ExperimentConfig experiment_config(const core::CampaignOptions& o,
                                         const std::string& framework,
                                         const std::string& model) {
  core::ExperimentConfig cfg;
  cfg.framework = framework;
  cfg.model = model;
  cfg.model_cfg.width = core::campaign_model_width(o.width, model);
  cfg.data_cfg.num_train = o.train_images;
  cfg.data_cfg.num_test = o.test_images;
  cfg.total_epochs = o.total_epochs;
  cfg.restart_epoch = o.restart_epoch;
  cfg.precision_bits = 64;
  cfg.seed = o.seed;
  return cfg;
}

/// table4-train and fig4-predict: core::Campaign end to end.
class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(core::CampaignOptions opts, std::size_t jobs)
      : opts_(std::move(opts)),
        jobs_(jobs),
        trial_pool_(jobs > 1 ? std::make_unique<ThreadPool>(jobs) : nullptr) {}

  void setup() override {
    campaign_.reset();
    campaign_ = core::Campaign::make(opts_);
    for (const core::CampaignCell& c : campaign_->cells()) {
      campaign_->prepare_cell(c.name);
    }
  }

  std::vector<Unit> units() const override {
    std::vector<Unit> out;
    for (const core::CampaignCell& c : campaign_->cells()) {
      out.push_back({c.name, campaign_->cell_seed(c.name), c.trials});
    }
    return out;
  }

  std::size_t jobs() const override { return jobs_; }
  ThreadPool* trial_pool() override { return trial_pool_.get(); }
  std::string fp_hex() const override { return opts_.fingerprint_hex(); }

  Json trial(const std::string& cell, const core::TrialContext& t) override {
    return campaign_->run_trial(cell, t);
  }

  void traced_setup(SpanRecorder& rec) override {
    const bool table4 = opts_.bench == "table4";
    std::vector<std::pair<std::string, std::string>> pairs;
    if (table4) {
      for (const auto& f : fw::framework_names()) {
        for (const auto& m : models::model_names()) pairs.emplace_back(f, m);
      }
    } else {
      pairs.emplace_back("chainer", "alexnet");
    }
    for (const auto& [f, m] : pairs) {
      auto runner = std::make_unique<core::ExperimentRunner>(
          experiment_config(opts_, f, m));
      {
        Span s(&rec, "experiment.baseline_train", -1, -1);
        runner->restart_checkpoint();
      }
      if (table4) {
        Span s(&rec, "experiment.clean_probed", -1, -1);
        runner->clean_probed_run(opts_.resume_epochs);
      }
      runners_.emplace(f + "/" + m, std::move(runner));
    }
    if (!table4) {
      core::ExperimentRunner& r = *runners_.begin()->second;
      model_ = r.make_model();
      ctx_ = std::make_unique<core::ModelContext>(r.make_context(*model_));
    }
  }

  Json traced_trial(const std::string& cell, const core::TrialContext& t,
                    SpanRecorder& rec, std::int64_t span,
                    std::int64_t tid) override {
    return opts_.bench == "table4" ? table4_trial(cell, t, rec, span, tid)
                                   : fig4_trial(cell, t, rec, span, tid);
  }

  void layer_metrics(const SpanRecorder& rec, Metrics& m) const override {
    m.set("experiment.resume_ms_p50", ms_p50(rec, "experiment.resume"), "ms");
    m.set("experiment.divergence_ms_p50",
          ms_p50(rec, "experiment.divergence"), "ms");
    m.set("experiment.predict_ms_p50", ms_p50(rec, "experiment.predict"),
          "ms");
    m.set("experiment.baseline_train_s",
          sum_s(rec, "experiment.baseline_train"), "s");
    m.set("experiment.clean_probed_s", sum_s(rec, "experiment.clean_probed"),
          "s");
    m.set("corrupter.corrupt_ms_p50", ms_p50(rec, "corrupter.corrupt"), "ms");
    m.set("corrupter.injections_per_attempt",
          attempts_ > 0 ? static_cast<double>(injections_) /
                              static_cast<double>(attempts_)
                        : 0.0,
          "ratio");
    m.set("corrupter.bytes_scanned", static_cast<double>(bytes_scanned_), "B");
    m.set("mh5.clone_ms_p50", ms_p50(rec, "mh5.clone"), "ms");
    if (opts_.bench != "table4") {
      const core::PrefixCache& cache =
          runners_.begin()->second->prefix_cache();
      const double n = static_cast<double>(segs_.size());
      double skipped = 0.0;
      for (const double s : segs_) skipped += s;
      m.set("prefix.skip_ratio",
            n > 0 ? skipped / (n * static_cast<double>(
                                       model_->segment_count()))
                  : 0.0,
            "ratio");
      m.set("prefix.hits", static_cast<double>(cache.hits()), "count");
      m.set("prefix.misses", static_cast<double>(cache.misses()), "count");
      m.set("prefix.bytes_cached", static_cast<double>(cache.bytes_cached()),
            "B");
    }
  }

  ProbeConfig probe_config() const override {
    ProbeConfig p;
    p.width = opts_.width;
    p.train_images = opts_.train_images;
    p.seed = opts_.seed;
    return p;
  }

  std::size_t obs_units() const override {
    return opts_.bench == "table4" ? 2 : 1;
  }

  void fleet_probe(const RunArgs& args, const Pass& solo, Metrics& m,
                   RunResult& res) override;

 private:
  void count(const core::InjectionReport& rep) {
    const std::lock_guard<std::mutex> lock(mu_);
    attempts_ += rep.attempts;
    injections_ += rep.injections;
    bytes_scanned_ += rep.bytes_scanned;
  }

  // Mirrors core::Campaign's table4 trial body call for call, so its rows
  // must equal the campaign's byte for byte.
  Json table4_trial(const std::string& cell, const core::TrialContext& t,
                    SpanRecorder& rec, std::int64_t span, std::int64_t tid) {
    const std::vector<std::string> parts = split_path(cell);
    core::ExperimentRunner& runner = *runners_.at(parts[0] + "/" + parts[1]);
    mh5::File ckpt;
    {
      Span s(&rec, "mh5.clone", span, tid);
      ckpt = runner.restart_checkpoint();
    }
    core::CorrupterConfig cc;
    cc.injection_attempts = static_cast<double>(std::stoull(parts[2]));
    cc.corruption_mode = core::CorruptionMode::BitRange;
    cc.first_bit = 0;
    cc.last_bit = 63;
    cc.seed = t.seed;
    core::Corrupter corrupter(cc);
    core::InjectionReport rep;
    {
      Span s(&rec, "corrupter.corrupt", span, tid);
      rep = corrupter.corrupt(ckpt);
    }
    count(rep);
    core::ExperimentRunner::ProbedResume probed;
    {
      Span s(&rec, "experiment.resume", span, tid);
      probed = runner.resume_training_probed(ckpt, opts_.resume_epochs);
    }
    obs::DivergenceTrace div;
    {
      Span s(&rec, "experiment.divergence", span, tid);
      div = runner.divergence_vs_clean(probed.probes, opts_.resume_epochs);
    }
    const auto& clean = runner.clean_probed_run(opts_.resume_epochs);
    Json row = Json::object();
    row["cell"] = cell;
    row["trial"] = t.index;
    row["seed"] = std::to_string(t.seed);
    row["collapsed"] = probed.result.collapsed;
    row["final_accuracy"] = probed.result.final_accuracy;
    row["clean_accuracy"] = clean.result.final_accuracy;
    row["log"] = rep.log.to_json();
    row["divergence"] = div.to_json();
    core::stamp_fingerprint(row, fp_hex());
    return row;
  }

  // Mirrors core::Campaign's fig4 predict-mode trial body.
  Json fig4_trial(const std::string& cell, const core::TrialContext& t,
                  SpanRecorder& rec, std::int64_t span, std::int64_t tid) {
    const std::string layer = cell.substr(cell.rfind('/') + 1);
    core::ExperimentRunner& runner = *runners_.begin()->second;
    mh5::File ckpt;
    {
      Span s(&rec, "mh5.clone", span, tid);
      ckpt = runner.restart_checkpoint();
    }
    core::CorrupterConfig cc;
    cc.injection_attempts = 1000;
    cc.corruption_mode = core::CorruptionMode::BitRange;
    cc.first_bit = 0;
    cc.last_bit = 61;
    cc.use_random_locations = false;
    cc.locations_to_corrupt = {"predictor/" + layer};
    cc.seed = t.seed;
    core::Corrupter corrupter(cc);
    core::InjectionReport rep;
    {
      Span s(&rec, "corrupter.corrupt", span, tid);
      rep = corrupter.corrupt(ckpt, ctx_.get());
    }
    count(rep);
    std::size_t seg = 0;
    {
      Span s(&rec, "prefix.entry_segment", span, tid);
      seg = opts_.prefix_reuse ? runner.entry_segment(rep.log) : 0;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      segs_.push_back(static_cast<double>(seg));
    }
    nn::EvalResult ev;
    {
      Span s(&rec, "experiment.predict", span, tid);
      ev = runner.predict_from_segment(ckpt, seg);
    }
    Json row = Json::object();
    row["cell"] = cell;
    row["trial"] = t.index;
    row["seed"] = std::to_string(t.seed);
    row["accuracy"] = ev.accuracy;
    row["nev"] = ev.nev;
    row["log"] = rep.log.to_json();
    core::stamp_fingerprint(row, fp_hex());
    return row;
  }

  core::CampaignOptions opts_;
  std::size_t jobs_;
  std::unique_ptr<ThreadPool> trial_pool_;
  std::unique_ptr<core::Campaign> campaign_;

  // Traced run only.
  std::map<std::string, std::unique_ptr<core::ExperimentRunner>> runners_;
  std::unique_ptr<nn::Model> model_;  ///< keeps ctx_'s layers alive
  std::unique_ptr<core::ModelContext> ctx_;
  std::mutex mu_;  // guards the counters below
  std::uint64_t attempts_ = 0, injections_ = 0, bytes_scanned_ = 0;
  std::vector<double> segs_;
};

/// Spawns `argv` with this process's environment, `env` ("NAME=value")
/// overriding the variables it names.
pid_t spawn(const std::vector<std::string>& argv,
            const std::vector<std::string>& env) {
  std::vector<std::string> envs;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string var = *e;
    const std::string name = var.substr(0, var.find('=') + 1);
    const bool overridden =
        std::any_of(env.begin(), env.end(), [&](const std::string& o) {
          return o.compare(0, name.size(), name) == 0;
        });
    if (!overridden) envs.push_back(var);
  }
  envs.insert(envs.end(), env.begin(), env.end());
  std::vector<char*> cargv, cenv;
  for (const std::string& s : argv) {
    cargv.push_back(const_cast<char*>(s.c_str()));
  }
  for (const std::string& s : envs) {
    cenv.push_back(const_cast<char*>(s.c_str()));
  }
  cargv.push_back(nullptr);
  cenv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, argv[0].c_str(), nullptr, nullptr, cargv.data(),
                  cenv.data()) != 0) {
    throw std::runtime_error("cannot spawn " + argv[0]);
  }
  return pid;
}

/// Waits for every child, up to `deadline_s` in total; kills and reaps any
/// still running then. True when all exited with status 0.
bool reap(const std::vector<pid_t>& pids, double deadline_s) {
  const auto t0 = Clock::now();
  bool ok = true;
  for (const pid_t pid : pids) {
    int status = 0;
    while (waitpid(pid, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > deadline_s) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  return ok;
}

constexpr double kFleetDeadlineS = 90.0;

// A table4 subset (trial 0 of every cell: trainings is not part of the
// campaign identity) through an in-process coordinator and two worker
// processes over loopback. The merged artifact must equal the solo rows.
void CampaignWorkload::fleet_probe(const RunArgs& args, const Pass& solo,
                                   Metrics& m, RunResult& res) {
  if (opts_.bench != "table4") return;
  core::CampaignOptions fo = opts_;
  fo.trainings = 1;
  const auto setup0 = Clock::now();
  fleet::FleetdOptions fopt;
  fopt.manifest = core::campaign_manifest(*core::Campaign::make(fo));
  fopt.trials_out = (fs::path(args.out_dir) / "fleet.jsonl").string();
  fopt.shard_trials = 1;
  fleet::Fleetd fleetd(fopt);
  fleetd.start();
  const double setup_s = seconds_since(setup0);
  const std::string port = std::to_string(fleetd.port());

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  std::vector<pid_t> workers;
  for (int i = 0; i < 2; ++i) {
    workers.push_back(spawn({args.worker_binary, "--port=" + port,
                             "--jobs=1", "--idle-timeout=60"},
                            {"CKPTFI_THREADS=2"}));
  }
  std::atomic<bool> done{false};
  fleet::FleetdStats stats;
  std::string error;  // written by the coordinator thread, read after join
  std::thread coordinator([&] {
    try {
      stats = fleetd.run();
    } catch (const std::exception& e) {
      error = e.what();
    }
    done = true;
  });
  const bool workers_ok = reap(workers, kFleetDeadlineS);
  // The workers are gone; a coordinator still waiting for rows never gets
  // them, so bound the wait and fail the run instead of hanging.
  for (int i = 0; i < 100 && !done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!done) {
    std::fprintf(stderr, "fleet: coordinator did not finish\n");
    std::_Exit(1);
  }
  coordinator.join();
  const double wall_s = seconds_since(t0);
  const double worker_cpu_s = cpu_seconds() - cpu0;
  if (!error.empty()) throw std::runtime_error("fleet: " + error);
  if (!workers_ok) throw std::runtime_error("fleet: a worker failed");

  // Solo rows of trial 0 of every cell, in artifact order.
  std::string expected;
  std::size_t offset = 0;
  std::size_t cells = 0;
  for (const Unit& u : units()) {
    expected += solo.rows[offset] + "\n";
    offset += u.trials;
    ++cells;
  }
  const std::string merged = read_file(fopt.trials_out);
  res.attempted += cells;
  if (merged != expected) {
    std::fprintf(stderr, "fleet: merged artifact differs from the solo run\n");
    res.failed += cells;
    res.correct = false;
  }
  std::printf("fleet: %zu rows in %.2f s (coordinator setup %.4f s), "
              "merged == solo: %s\n",
              stats.rows_streamed, wall_s, setup_s,
              merged == expected ? "yes" : "NO");
  m.set("fleet.shards_issued", static_cast<double>(stats.shards_issued),
        "count");
  m.set("fleet.shards_reissued", static_cast<double>(stats.shards_reissued),
        "count");
  m.set("fleet.rows_streamed", static_cast<double>(stats.rows_streamed),
        "count");
  m.set("fleet.worker_cpu_s", worker_cpu_s, "s");
}

/// ckpt-files: the standalone corrupter on on-disk checkpoints of every
/// framework x model x precision, with equivalent replay onto another
/// framework's checkpoint.
class CkptFilesWorkload final : public Workload {
 public:
  CkptFilesWorkload(std::uint64_t seed, std::size_t width, fs::path dir)
      : seed_(seed), width_(width), dir_(std::move(dir)) {
    fp_hex_ = core::fingerprint_hex(core::campaign_fingerprint(
        "perfbench-ckpt-files-v1|seed=" + std::to_string(seed_) +
        "|w=" + std::to_string(width_)));
  }

  void setup() override {
    files_.clear();
    contexts_.clear();
    models_.clear();
    adapters_.clear();
    fs::create_directories(dir_);
    const auto& fws = fw::framework_names();
    for (const auto& f : fws) adapters_.push_back(fw::make_adapter(f));
    for (const char* m : kModels) {
      models::ModelConfig mc;
      mc.width = width_;
      models_.push_back(models::make_model(m, mc));
    }
    for (std::size_t mi = 0; mi < models_.size(); ++mi) {
      nn::Model& model = *models_[mi];
      for (std::size_t fi = 0; fi < fws.size(); ++fi) {
        const fw::FrameworkAdapter& ad = *adapters_[fi];
        contexts_.push_back(std::make_unique<core::ModelContext>(model, ad));
        model.init(ad.init_seed(seed_));
        const std::string layer =
            ad.path_map(model).at(model.params().front().name);
        for (std::size_t pi = 0; pi < std::size(kPrecisions); ++pi) {
          const int prec = kPrecisions[pi];
          FileSpec spec;
          spec.name = fws[fi] + "/" + kModels[mi] + "/" + std::to_string(prec);
          spec.fw = fi;
          spec.model = mi;
          spec.prec = prec;
          spec.path = (dir_ / (fws[fi] + "_" + kModels[mi] + "_" +
                               std::to_string(prec) + ".mh5"))
                          .string();
          spec.layer_path = layer;
          // files_ is [model][framework][precision]; replay onto the next
          // framework's checkpoint of this model and precision.
          const std::size_t next_fw = (fi + 1) % fws.size();
          spec.replay_target =
              (mi * fws.size() + next_fw) * std::size(kPrecisions) + pi;
          ad.save_checkpoint(model, spec.path, prec, 1);
          files_.push_back(spec);
        }
      }
    }
  }

  std::vector<Unit> units() const override {
    // Trial i corrupts file i % 27 in mode i % 4: as 27 and 4 are coprime,
    // every file runs in every mode once per pass.
    return {{"ckpt-files", core::trial_seed(seed_, 0),
             std::size(kModes) * files_.size()}};
  }
  std::size_t jobs() const override { return 1; }
  std::string fp_hex() const override { return fp_hex_; }

  Json trial(const std::string&, const core::TrialContext& t) override {
    return run(t, nullptr, -1, -1);
  }

  // Digests of what the trial wrote: the corrupted output file and the log
  // of the injections replayed onto the other framework's checkpoint.
  void digest_row(Json& row) override {
    row["out_crc"] = crc_hex(read_file(out_path()));
    row["replay_crc"] = crc_hex(last_replay_log_.to_json().dump());
    core::stamp_fingerprint(row, fp_hex_);
  }

  void traced_setup(SpanRecorder&) override {}

  Json traced_trial(const std::string&, const core::TrialContext& t,
                    SpanRecorder& rec, std::int64_t span,
                    std::int64_t tid) override {
    return run(t, &rec, span, tid);
  }

  void layer_metrics(const SpanRecorder& rec, Metrics& m) const override {
    m.set("corrupter.corrupt_ms_p50", ms_p50(rec, "corrupter.corrupt"), "ms");
    m.set("corrupter.injections_per_attempt",
          attempts_ > 0 ? static_cast<double>(injections_) /
                              static_cast<double>(attempts_)
                        : 0.0,
          "ratio");
    m.set("corrupter.bytes_scanned", static_cast<double>(bytes_scanned_), "B");
    m.set("mh5.load_lazy_ms_p50", ms_p50(rec, "mh5.load_lazy"), "ms");
    m.set("mh5.save_patched_ms_p50", ms_p50(rec, "mh5.save_patched"), "ms");
    m.set("mh5.bytes_read", static_cast<double>(bytes_read_), "B");
    m.set("mh5.bytes_written", static_cast<double>(bytes_written_), "B");
    m.set("equivalent.replay_ms_p50", ms_p50(rec, "equivalent.replay"), "ms");
    m.set("equivalent.replayed_ratio",
          logged_ > 0 ? static_cast<double>(replayed_) /
                            static_cast<double>(logged_)
                      : 0.0,
          "ratio");
    m.set("nev.scan_ms_p50", ms_p50(rec, "nev.scan"), "ms");
  }

  // No nn/tensor work here; probe them at the campaigns' default scale.
  ProbeConfig probe_config() const override {
    const core::CampaignOptions defaults;
    ProbeConfig p;
    p.width = defaults.width;
    p.train_images = defaults.train_images;
    p.seed = seed_;
    return p;
  }

  std::size_t obs_units() const override { return 1; }

 private:
  struct FileSpec {
    std::string name;  ///< framework/model/precision
    std::size_t fw = 0, model = 0;
    int prec = 64;
    std::string path;
    std::string layer_path;  ///< dataset of the first weight layer
    std::size_t replay_target = 0;  ///< index into files_
  };

  static constexpr const char* kModes[] = {"dense", "targeted", "bit_mask",
                                           "scaling"};

  // The paper's Table I modes, at the file's stored precision.
  static core::CorrupterConfig mode_config(std::size_t mode,
                                           const FileSpec& f,
                                           std::uint64_t seed) {
    core::CorrupterConfig cc;
    cc.seed = seed;
    cc.float_precision = f.prec;
    cc.first_bit = 0;
    cc.last_bit = f.prec - 1;
    switch (mode) {
      case 0:  // dense random flips over every dataset
        cc.injection_attempts = 1000;
        break;
      case 1:  // single-layer targeted
        cc.injection_attempts = 100;
        cc.use_random_locations = false;
        cc.locations_to_corrupt = {f.layer_path};
        break;
      case 2:
        cc.corruption_mode = core::CorruptionMode::BitMask;
        cc.bit_mask = "101";
        cc.injection_attempts = 200;
        break;
      default:
        cc.corruption_mode = core::CorruptionMode::ScalingFactor;
        cc.scaling_factor = 1e4;
        cc.injection_type = core::InjectionType::Percentage;
        cc.injection_attempts = 0.5;
        break;
    }
    return cc;
  }

  Json run(const core::TrialContext& t, SpanRecorder* rec, std::int64_t span,
           std::int64_t tid) {
    const FileSpec& f = files_[t.index % files_.size()];
    const std::size_t mode = t.index % std::size(kModes);
    const FileSpec& target = files_[f.replay_target];
    const core::ModelContext& ctx = *contexts_[f.model * 3 + f.fw];
    const std::string out = out_path();
    core::Corrupter corrupter(mode_config(mode, f, t.seed));

    core::InjectionReport rep;
    core::NevScan scan;
    core::ReplayStats replay;
    if (rec == nullptr) {
      rep = corrupter.corrupt_file(f.path, out, &ctx);
      scan = core::scan_checkpoint(mh5::File::load_lazy(out));
      mh5::File tgt = mh5::File::load_lazy(target.path);
      replay = core::replay_injection_log(
          rep.log, tgt, *models_[f.model], *adapters_[target.fw],
          core::ReplayMode::SameLayerBit, t.seed);
    } else {
      const auto io0 = io_chars();
      mh5::File file;
      {
        Span s(rec, "mh5.load_lazy", span, tid);
        file = mh5::File::load_lazy(f.path);
      }
      {
        Span s(rec, "corrupter.corrupt", span, tid);
        rep = corrupter.corrupt(file, &ctx);
      }
      {
        Span s(rec, "mh5.save_patched", span, tid);
        file.save_patched(out);
      }
      {
        Span s(rec, "nev.scan", span, tid);
        mh5::File back;
        {
          Span l(rec, "mh5.load_lazy", s.id(), tid);
          back = mh5::File::load_lazy(out);
        }
        scan = core::scan_checkpoint(back);
      }
      {
        Span s(rec, "equivalent.replay", span, tid);
        mh5::File tgt;
        {
          Span l(rec, "mh5.load_lazy", s.id(), tid);
          tgt = mh5::File::load_lazy(target.path);
        }
        replay = core::replay_injection_log(
            rep.log, tgt, *models_[f.model], *adapters_[target.fw],
            core::ReplayMode::SameLayerBit, t.seed);
      }
      const auto io1 = io_chars();
      bytes_read_ += io1.first - io0.first;
      bytes_written_ += io1.second - io0.second;
      attempts_ += rep.attempts;
      injections_ += rep.injections;
      bytes_scanned_ += rep.bytes_scanned;
      replayed_ += replay.replayed;
      logged_ += rep.log.size();
    }

    Json row = Json::object();
    row["file"] = f.name;
    row["trial"] = t.index;
    row["mode"] = kModes[mode];
    row["seed"] = std::to_string(t.seed);
    row["attempts"] = rep.attempts;
    row["injections"] = rep.injections;
    row["bytes_scanned"] = rep.bytes_scanned;
    row["nan"] = scan.nan;
    row["inf"] = scan.inf;
    row["extreme"] = scan.extreme;
    row["replay_target"] = target.name;
    row["replayed"] = replay.replayed;
    row["replay_skipped"] =
        replay.skipped_no_canonical + replay.skipped_bit_width;
    last_replay_log_ = std::move(replay.log);
    return row;
  }

  std::string out_path() const { return (dir_ / "out.mh5").string(); }

  static constexpr const char* kModels[] = {"alexnet", "vgg16", "resnet50"};
  static constexpr int kPrecisions[] = {16, 32, 64};

  std::uint64_t seed_;
  std::size_t width_;
  fs::path dir_;
  std::string fp_hex_;
  std::vector<std::unique_ptr<fw::FrameworkAdapter>> adapters_;
  std::vector<std::unique_ptr<nn::Model>> models_;
  std::vector<std::unique_ptr<core::ModelContext>> contexts_;  ///< [model][fw]
  std::vector<FileSpec> files_;  ///< [model][framework][precision]
  // The last trial's replay log, for digest_row (trials run at one job).
  core::InjectionLog last_replay_log_;
  // Traced counters (the traced pass runs at one job).
  std::uint64_t attempts_ = 0, injections_ = 0, bytes_scanned_ = 0;
  std::uint64_t bytes_read_ = 0, bytes_written_ = 0;
  std::uint64_t replayed_ = 0, logged_ = 0;
};

// Full scale is the paper benches' own campaign defaults
// (core::CampaignOptions: width 4, 160 train / 80 test images, 6 epochs,
// restart at 2, resume 1); tiny is the self-test scale.
std::unique_ptr<Workload> make_workload(const RunArgs& a) {
  core::CampaignOptions o;
  o.seed = a.seed;
  if (a.tiny) {
    o.width = 2;
    o.train_images = 32;
    o.test_images = 32;
    o.total_epochs = 2;
    o.restart_epoch = 1;
  }
  if (a.workload == "table4-train") {
    o.bench = "table4";
    o.trainings = 4;  // one trial per slot at jobs 4
    return std::make_unique<CampaignWorkload>(o, 4);
  }
  if (a.workload == "fig4-predict") {
    o.bench = "fig4";
    o.mode = "predict";
    o.trainings = a.tiny ? 8 : 64;
    return std::make_unique<CampaignWorkload>(o, 1);
  }
  if (a.workload == "ckpt-files") {
    return std::make_unique<CkptFilesWorkload>(
        a.seed, a.tiny ? 4 : 16, fs::path(a.out_dir) / "ckpt");
  }
  throw std::invalid_argument("unknown workload '" + a.workload +
                              "' (table4-train, fig4-predict, ckpt-files)");
}

// -------------------------------------------------------- correctness --

/// Checks one pass's rows: every row present and stamped with the campaign
/// fingerprint, equal to the reference rows when given, and (first pass)
/// the artifact crc equal to the pin. Returns the number of bad rows.
std::size_t check_rows(const Pass& pass, const std::string& fp_hex,
                       const std::vector<std::string>* reference,
                       const std::string& pinned_crc) {
  const std::string stamp = "\"fp\":\"" + fp_hex + "\"";
  const bool crc_ok =
      pinned_crc.empty() || crc_hex(pass.artifact()) == pinned_crc;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < pass.rows.size(); ++i) {
    const std::string& row = pass.rows[i];
    const bool ok = !row.empty() && row.find(stamp) != std::string::npos &&
                    crc_ok &&
                    (reference == nullptr || (*reference)[i] == row);
    if (!ok) ++bad;
  }
  return bad;
}

void tamper(Pass& pass) {
  std::string& row = pass.rows.front();
  const auto digit = row.find_first_of("0123456789");
  row[digit] = row[digit] == '9' ? '0' : static_cast<char>(row[digit] + 1);
}

// ---------------------------------------------------------- the runs --

/// Full set-ups per untraced run; setup_s is their median. Only two when
/// those two took over kLongSetupsS (table4-train's do), so that a run stays
/// within the benchmark's run budget.
constexpr std::size_t kSetups = 3;
constexpr double kLongSetupsS = 20.0;

void run_untraced(Workload& w, const RunArgs& a, RunResult& res) {
  std::vector<double> setups;
  double setup_total_s = 0.0;
  while (setups.size() < (a.tiny ? 1 : kSetups) &&
         !(setups.size() == 2 && setup_total_s > kLongSetupsS)) {
    const auto t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_since(t0));
    setup_total_s += setups.back();
  }
  const TrialBody body = [&](const std::string& cell,
                             const core::TrialContext& t, std::int64_t,
                             std::int64_t) { return w.trial(cell, t); };

  const auto steal0 = steal_jiffies();
  const auto phase0 = Clock::now();
  std::vector<std::string> reference;
  std::vector<double> trial_ms, pass_s;
  double busy_s = 0.0, cpu_s = 0.0;
  do {
    Pass pass = run_pass(w, body, nullptr);
    std::size_t bad = 0;
    if (reference.empty()) {
      if (a.tamper) tamper(pass);
      res.artifact_crc = crc_hex(pass.artifact());
      write_file(fs::path(a.out_dir) / "trials.jsonl", pass.artifact());
      bad = check_rows(pass, w.fp_hex(), nullptr, a.expect_crc);
      reference = pass.rows;
    } else {
      bad = check_rows(pass, w.fp_hex(), &reference, "");
    }
    res.attempted += pass.rows.size();
    res.failed += bad;
    trial_ms.insert(trial_ms.end(), pass.trial_ms.begin(),
                    pass.trial_ms.end());
    pass_s.push_back(pass.wall_s);
    busy_s += pass.wall_s;
    cpu_s += pass.cpu_s;
  } while (seconds_since(phase0) < a.seconds);
  const double phase_s = seconds_since(phase0);
  const auto steal1 = steal_jiffies();
  const double total = steal1.second - steal0.second;

  // Times and CPU are the passes' own: the digest checks between passes and
  // the digest work inside them (Workload::digest_row) are left out.
  const double n = static_cast<double>(trial_ms.size());
  Metrics& m = res.metrics;
  m.set("trials_per_s", n / busy_s, "1/s");
  m.set("wall_s", median(setups) + median(pass_s), "s");
  m.set("setup_s", median(setups), "s");
  m.set("trial_ms_p50", quantile(trial_ms, 0.5), "ms");
  m.set("trial_ms_p90", quantile(trial_ms, 0.9), "ms");
  m.set("cpu_ms_per_trial", cpu_s * 1e3 / n, "ms");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("trials: %zu in %zu passes over %.2f s (p90 has %zu samples "
              "beyond it); setups:",
              trial_ms.size(), pass_s.size(), phase_s,
              trial_ms.size() - static_cast<std::size_t>(0.9 * n) - 1);
  for (const double s : setups) std::printf(" %.3f", s);
  std::printf(" s; passes:");
  for (const double s : pass_s) std::printf(" %.3f", s);
  std::printf(" s\nhost CPU steal during the trial phase: %.1f%%\n",
              total > 0 ? 100.0 * (steal1.first - steal0.first) / total : 0.0);
}

void write_spans(const fs::path& path, const std::vector<SpanRecord>& spans) {
  Json all = Json::array();
  for (const SpanRecord& s : spans) {
    Json j = Json::object();
    j["name"] = s.name;
    j["parent"] = s.parent;
    j["trial"] = s.trial;
    j["t0_s"] = s.t0;
    j["t1_s"] = s.t1;
    all.push_back(std::move(j));
  }
  write_file(path, all.dump() + "\n");
}

void run_traced(Workload& w, const RunArgs& a, RunResult& res) {
  Metrics& m = res.metrics;
  SpanRecorder rec;
  w.traced_setup(rec);
  w.setup();

  const TrialBody plain = [&](const std::string& cell,
                              const core::TrialContext& t, std::int64_t,
                              std::int64_t) { return w.trial(cell, t); };
  const TrialBody traced = [&](const std::string& cell,
                               const core::TrialContext& t, std::int64_t span,
                               std::int64_t tid) {
    return w.traced_trial(cell, t, rec, span, tid);
  };

  Pass untraced_pass = run_pass(w, plain, nullptr);
  if (a.tamper) tamper(untraced_pass);
  res.artifact_crc = crc_hex(untraced_pass.artifact());
  const Pass traced_pass = run_pass(w, traced, &rec);
  const std::size_t bad_untraced =
      check_rows(untraced_pass, w.fp_hex(), nullptr, a.expect_crc);
  const std::size_t bad_traced =
      check_rows(traced_pass, w.fp_hex(), &untraced_pass.rows, "");
  res.attempted += 2 * untraced_pass.rows.size();
  res.failed += bad_untraced + bad_traced;
  write_file(fs::path(a.out_dir) / "trials.jsonl", untraced_pass.artifact());

  const double n = static_cast<double>(untraced_pass.rows.size());
  const double tps_untraced = n / untraced_pass.wall_s;
  const double tps_traced = n / traced_pass.wall_s;
  std::printf("traced rows == untraced rows: %s; trials_per_s untraced %.3f, "
              "traced %.3f (tracing overhead %+.1f%%)\n",
              bad_traced == 0 ? "yes" : "NO", tps_untraced, tps_traced,
              100.0 * (tps_untraced / tps_traced - 1.0));

  w.layer_metrics(rec, m);
  m.set("artifact.row_ms_p50", ms_p50(rec, "artifact.row"), "ms");
  m.set("artifact.bytes", static_cast<double>(untraced_pass.artifact().size()),
        "B");
  double busy_ms = 0.0;
  for (const double ms : untraced_pass.trial_ms) busy_ms += ms;
  m.set("scheduler.busy_ratio",
        busy_ms / (static_cast<double>(w.jobs()) * untraced_pass.wall_s * 1e3),
        "ratio");

  // Metrics-on vs off over the same cells, alternating. Enabling metrics
  // arms corrupter provenance, which changes rows, so these passes time
  // only and their rows are not checked.
  double on_s = 0.0, off_s = 0.0;
  for (int r = 0; r < 2; ++r) {
    off_s += run_pass(w, plain, nullptr, w.obs_units()).wall_s;
    obs::set_metrics_enabled(true);
    on_s += run_pass(w, plain, nullptr, w.obs_units()).wall_s;
    obs::set_metrics_enabled(false);
  }
  m.set("obs.metrics_on_ratio", on_s / off_s, "ratio");

  w.fleet_probe(a, untraced_pass, m, res);
  run_layer_probes(w.probe_config(), m);

  const std::vector<SpanRecord> spans = rec.snapshot();
  write_spans(fs::path(a.out_dir) / "spans.json", spans);
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_ms",
              "self_ms");
  for (const SelfTime& st : self_times(spans)) {
    std::printf("%-28s %8zu %12.2f %12.2f\n", st.name.c_str(), st.count,
                st.total_ms, st.self_ms);
  }
}

}  // namespace

RunResult run_workload(const RunArgs& args) {
  fs::create_directories(args.out_dir);
  const std::unique_ptr<Workload> w = make_workload(args);
  RunResult res;
  if (args.trace) {
    run_traced(*w, args, res);
  } else {
    run_untraced(*w, args, res);
  }
  if (res.failed > 0) res.correct = false;
  return res;
}

}  // namespace perfbench
