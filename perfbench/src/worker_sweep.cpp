// worker-sweep: `oracle_batch run --workers 2 --jobs 1` over a small sweep
// with a few whale jobs (20x20-grid divide-and-conquer runs among many
// tiny ones), repeated with fresh seeds for the whole run. The only
// workload through exp/shard: worker spawn, static hash shards, merge.

#include <dirent.h>
#include <unistd.h>

#include <fstream>
#include <regex>
#include <stdexcept>

#include "bench.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "exp/job.hpp"
#include "exp/result_sink.hpp"
#include "exp/shard.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

constexpr int kWorkers = 2;
constexpr std::size_t kSeeds = 4;
constexpr std::size_t kRerunSample = 2;
const std::vector<std::string> kTopologies = {"grid:5x5", "grid:6x6",
                                              "dlm:5:5x5", "grid:20x20"};
const std::vector<std::string> kStrategies = {"cwn", "gm"};
// grid:20x20 x dc:1:987 are the whales: 8 of the 64 jobs, most of the work.
const std::vector<std::string> kWorkloads = {"fib:9", "dc:1:987"};

oracle::core::SweepSpec sweep_for(std::uint64_t seed, std::uint64_t index) {
  oracle::core::SweepSpec s;
  s.topologies = kTopologies;
  s.strategies = kStrategies;
  s.workloads = kWorkloads;
  s.seeds.clear();
  for (std::size_t k = 0; k < kSeeds; ++k)
    s.seeds.push_back(1 + derive(seed, index * kSeeds + k) % 1'000'000'000);
  return s;
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += (out.empty() ? "" : ",") + s;
  return out;
}

struct SweepRun {
  double wall_s = 0;
  int exit_code = -1;
  std::string store;
  std::string stdout_text;
};

SweepRun run_sweep(const Options& opt, const oracle::core::SweepSpec& s,
                   const std::string& tag, const std::string& trace_base) {
  SweepRun run;
  run.store = opt.workdir + "/" + tag + ".jsonl";
  std::vector<std::string> seeds;
  for (const auto v : s.seeds) seeds.push_back(std::to_string(v));
  std::vector<std::string> argv = {
      opt.oracle_batch, "run", "--topologies", join(s.topologies),
      "--strategies", join(s.strategies), "--workloads", join(s.workloads),
      "--seeds", join(seeds), "--workers", std::to_string(kWorkers),
      "--jobs", "1", "--out", run.store, "--no-progress"};
  if (!trace_base.empty()) {
    argv.insert(argv.end(), {"--keep-shards", "--trace", trace_base});
  }
  const std::string out_path = opt.workdir + "/" + tag + ".out";
  const auto t0 = Clock::now();
  const int pid = spawn(argv, out_path, "");
  run.exit_code = pid < 0 ? -1 : wait_child_for(pid, 120);
  run.wall_s = seconds_since(t0);
  std::ifstream in(out_path);
  run.stdout_text.assign(std::istreambuf_iterator<char>(in), {});
  return run;
}

/// Remove every file of one sweep (store, checkpoint, shard stores).
void remove_sweep_files(const Options& opt, const std::string& tag) {
  DIR* dir = opendir(opt.workdir.c_str());
  if (dir == nullptr) return;
  while (const dirent* e = readdir(dir)) {
    const std::string name = e->d_name;
    if (name.rfind(tag + ".", 0) == 0) unlink((opt.workdir + "/" + name).c_str());
  }
  closedir(dir);
}

}  // namespace

/// The merged store holds every job of the sweep exactly once (check_store)
/// and a seeded sample of jobs, re-run in-process, reproduce their records
/// byte for byte.
std::string check_sweep(const std::vector<std::string>& lines,
                        const std::vector<oracle::core::ExperimentConfig>& configs,
                        std::uint64_t sample_seed) {
  if (auto err = check_store(lines, expected_jobs(configs)); !err.empty())
    return err;
  std::vector<const std::string*> by_job(configs.size(), nullptr);
  for (const auto& line : lines) {
    Record r;
    parse_record(line, r);
    by_job[r.job] = &line;
  }
  for (std::size_t k = 0; k < kRerunSample; ++k) {
    const std::size_t j = derive(sample_seed, k) % configs.size();
    const oracle::exp::ExperimentJob job{
        j, configs[j], oracle::exp::job_content_hash(configs[j])};
    const std::string again = oracle::exp::jsonl_record(
        job, oracle::core::run_experiment(configs[j]));
    if (again != *by_job[j])
      return fmt("job %zu re-run in-process differs from the merged store", j);
  }
  return "";
}

Outcome run_worker_sweep(const Options& opt) {
  Outcome out;
  // Set-up: one cold start of the sweep CLI (exec, loading, static
  // initialization), which every sweep's parent and workers pay again.
  if (const int code = wait_child_for(
          spawn({opt.oracle_batch, "--help"}, "", ""), 30);
      code != 0)
    throw std::runtime_error(fmt("oracle_batch --help exited with %d", code));
  out.set("setup_s", seconds_since(kProcessStart), "s");

  const auto run_checked = [&](std::uint64_t index, const std::string& trace_base) {
    const auto spec = sweep_for(opt.seed, index);
    const auto configs = spec.build();
    const std::string tag = "sweep" + std::to_string(index);
    SweepRun run;
    {
      oracle::obs::Span span("perfbench", "exp.shard.sweep");
      run = run_sweep(opt, spec, tag, trace_base);
    }
    out.attempted += configs.size();
    if (run.exit_code != 0) {
      out.failed += configs.size();
      out.fail_check(fmt("sweep %llu exited with %d",
                         (unsigned long long)index, run.exit_code));
    } else if (const auto err = check_sweep(read_lines(run.store), configs,
                                            derive(opt.seed, ~index));
               !err.empty()) {
      out.fail_check("worker-sweep: " + err);
    }
    return std::make_pair(run, configs.size());
  };
  // One warm-up sweep (checked, not timed).
  run_checked(1u << 20, "");
  remove_sweep_files(opt, "sweep" + std::to_string(1u << 20));

  Trace trace(opt.trace_out);
  std::vector<double> sweep_ms, plain;
  std::uint64_t jobs = 0;
  double busy_s = 0;
  const auto t_begin = Clock::now();
  for (std::uint64_t i = 0; i < 2 || seconds_since(t_begin) < opt.seconds; ++i) {
    // Traced runs alternate untraced sweeps with sweeps that keep their
    // shard stores and make the workers write the program's trace files.
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) trace.start();
    const std::string tag = "sweep" + std::to_string(i);
    const std::string trace_base = traced ? opt.workdir + "/" + tag + ".tr" : "";
    const auto [run, n] = run_checked(i, trace_base);
    sweep_ms.push_back(run.wall_s * 1e3);
    busy_s += run.wall_s;
    jobs += n;
    if (opt.trace && !traced) plain.push_back(run.wall_s);
    if (traced) {
      // Busy time per worker from the executor's job spans.
      std::vector<double> busy;
      for (int k = 0; k < kWorkers; ++k) {
        double sum = 0;
        for (const auto& t : read_trace_lines(
                 trace_base + "." + std::to_string(k) + "of" +
                 std::to_string(kWorkers)))
          if (t.name == "job") sum += t.dur_s;
        busy.push_back(sum);
      }
      double mean = 0, top = 0;
      for (const double b : busy) {
        mean += b / kWorkers;
        top = std::max(top, b);
      }
      if (mean > 0) count("exp.shard.imbalance", top / mean);
      // The merge, timed in-process over the kept shard stores.
      oracle::exp::ShardMerger merger;
      for (int k = 0; k < kWorkers; ++k)
        merger.add_store(run.store + ".shard" + std::to_string(k) + "of" +
                         std::to_string(kWorkers));
      {
        oracle::obs::Span span("perfbench", "exp.ShardMerger.merge_to");
        merger.merge_to(opt.workdir + "/" + tag + ".remerged.jsonl");
      }
      std::smatch m;
      if (std::regex_search(run.stdout_text, m, std::regex("(\\d+) launched")))
        count("exp.shard.spawns", std::stod(m[1]));
      trace.stop();
    }
    remove_sweep_files(opt, tag);
  }
  if (!opt.trace) {
    out.set("request_p50_ms", median(sweep_ms), "ms");
    out.set("throughput_per_s", static_cast<double>(jobs) / busy_s, "1/s");
    // The program under test is the oracle_batch parent and its workers.
    out.set("peak_rss_mb", children_peak_rss_mb(), "MB");
    return out;
  }
  trace.start();
  run_layer_probes();
  trace.load();
  out.set("exp.shard.imbalance", median(trace.values("exp.shard.imbalance")),
          "ratio");
  out.set("exp.shard.merge_s",
          median(trace.durations("exp.ShardMerger.merge_to")), "s");
  out.set("exp.shard.spawns", median(trace.values("exp.shard.spawns")),
          "count");
  out.set("obs.trace_overhead",
          median(trace.durations("exp.shard.sweep")) / median(plain), "ratio");
  set_probe_layers(out, trace);
  return out;
}

}  // namespace perfbench
