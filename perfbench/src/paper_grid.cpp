// paper-grid: Table 2's 240 sample points with the Table 1 parameters,
// one exp::run_batch pass per seed into a JSONL store with a checkpoint,
// on one executor worker. Each pass uses a fresh machine seed derived from
// the workload seed.

#include <sys/stat.h>

#include "core/presets.hpp"
#include "exp/batch.hpp"
#include "machine_run.hpp"
#include "obs/trace.hpp"
#include "topo/factory.hpp"

namespace perfbench {

namespace {

using oracle::core::ExperimentConfig;
namespace paper = oracle::core::paper;

// Seed index of the warm-up pass (measured passes use 0, 1, 2, ...).
constexpr std::uint64_t kWarmupIndex = 1u << 20;

/// Table 2's order: for each program size, grids then DLMs, each size CWN
/// then GM.
std::vector<ExperimentConfig> table2_configs() {
  std::vector<std::string> programs = paper::fib_specs();
  for (const auto& dc : paper::dc_specs()) programs.push_back(dc);
  std::vector<ExperimentConfig> configs;
  for (const auto& program : programs)
    for (const auto family : {paper::Family::Grid, paper::Family::Dlm})
      for (const auto& size : paper::size_points())
        for (const bool cwn : {true, false})
          configs.push_back(paper::sample_point(family, size, cwn, program));
  return configs;
}

std::vector<ExperimentConfig> with_seed(std::vector<ExperimentConfig> configs,
                                        std::uint64_t seed) {
  for (auto& c : configs) c.machine.seed = seed;
  return configs;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  return stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                      : 0;
}

}  // namespace

Outcome run_paper_grid(const Options& opt) {
  Outcome out;
  // Set-up: the 240 configs, and the ten topologies (and their routing
  // tables) built into the shared cache, one at a time, so no pass pays
  // for them.
  const std::vector<ExperimentConfig> base = table2_configs();
  for (const auto& size : paper::size_points()) {
    oracle::topo::make_topology_shared(size.grid_spec);
    oracle::topo::make_topology_shared(size.dlm_spec);
  }
  out.set("setup_s", seconds_since(kProcessStart), "s");

  const std::string store = opt.workdir + "/paper-grid.jsonl";
  oracle::exp::BatchOptions bopt;
  bopt.exec.workers = 1;
  bopt.exec.shard_size = 1;
  bopt.jsonl_path = store;
  bopt.collect = false;

  std::uint64_t jobs = 0, events = 0;
  const auto one_pass = [&](std::uint64_t pass) {
    const auto configs = with_seed(base, derive(opt.seed, pass));
    out.attempted += configs.size();
    const auto t0 = Clock::now();
    oracle::exp::BatchOutcome res;
    {
      oracle::obs::Span span("perfbench", "exp.run_batch");
      res = oracle::exp::run_batch(configs, bopt);
    }
    const double wall = seconds_since(t0);
    out.failed += res.report.failed;
    if (const auto err = check_store(read_lines(store), expected_jobs(configs));
        !err.empty())
      out.fail_check("paper-grid: " + err);
    jobs += res.report.executed;
    events = res.report.total_events;
    std::fprintf(stderr, "paper-grid pass %llu: %.1f ms, %zu jobs, rss %.1f MB\n",
                 (unsigned long long)pass, wall * 1e3, configs.size(),
                 current_rss_mb());
    return wall;
  };

  // One warm-up pass (checked, not timed) fills the caches. Peak RSS is
  // read after it: later passes add to it in steps that land on random
  // passes (see perfbench/README.md), so a later reading would depend on
  // chance and on how many passes fit into the run.
  one_pass(kWarmupIndex);
  const double rss_mb = self_peak_rss_mb();
  jobs = 0;
  const auto t_begin = Clock::now();

  if (!opt.trace) {
    std::vector<double> pass_ms;
    double busy_s = 0;
    for (std::uint64_t pass = 0;; ++pass) {
      if (pass > 0 && seconds_since(t_begin) >= opt.seconds) break;
      const double wall = one_pass(pass);
      busy_s += wall;
      pass_ms.push_back(wall * 1e3);
    }
    out.set("request_p50_ms", median(pass_ms), "ms");
    out.set("throughput_per_s", static_cast<double>(jobs) / busy_s, "1/s");
    out.set("peak_rss_mb", rss_mb, "MB");
    return out;
  }

  // Traced run. Passes alternate between untraced and traced; a traced
  // pass also holds the program's own spans (executor jobs with their
  // queue wait, checkpoint fsyncs). Each pair of passes runs one seed.
  Trace trace(opt.trace_out);
  std::vector<double> plain;
  for (std::uint64_t pass = 0;
       pass < 2 || seconds_since(t_begin) < opt.seconds / 2; ++pass) {
    const bool traced = pass % 2 == 1;
    if (traced) trace.start();
    const double wall = one_pass(pass / 2);
    if (!traced) {
      plain.push_back(wall);
      continue;
    }
    count("exp.store_bytes", static_cast<double>(file_size(store)));
    count("exp.events", static_cast<double>(events));
    trace.stop();
  }

  // The same 240 points assembled layer by layer, outside exp, and the
  // probes.
  trace.start();
  oracle::topo::clear_topology_cache();
  {
    oracle::obs::Span span("perfbench", "topo.build");
    for (const auto& size : paper::size_points()) {
      oracle::topo::make_topology_shared(size.grid_spec);
      oracle::topo::make_topology_shared(size.dlm_spec);
    }
  }
  for (const auto& cfg : with_seed(base, derive(opt.seed, 0))) {
    ++out.attempted;
    const MachineRun m = run_machine(cfg);
    count_machine_layers(m);
    if (const auto err = check_record(m.record, cfg.workload); !err.empty())
      out.fail_check("paper-grid (direct): " + err);
  }
  run_layer_probes();
  trace.load();

  const auto sum = [](const std::vector<double>& v) {
    double total = 0;
    for (const double d : v) total += d;
    return total;
  };
  const auto batches = trace.durations("exp.run_batch");
  const auto job_s = trace.durations("job");
  std::vector<double> wait_ms;
  for (const auto& ev : trace.events())
    if (ev.name == "job" && ev.wait_us >= 0) wait_ms.push_back(ev.wait_us / 1e3);
  out.set("obs.trace_overhead", median(batches) / median(plain), "ratio");
  out.set("exp.job_wall_p50_ms", median(job_s) * 1e3, "ms");
  out.set("exp.engine_overhead_s",
          (sum(batches) - sum(job_s)) / static_cast<double>(batches.size()), "s");
  out.set("exp.fsync_ms", median(trace.durations("checkpoint.fsync")) * 1e3, "ms");
  out.set("exp.queue_wait_ms", median(wait_ms), "ms");
  out.set("exp.store_bytes", median(trace.values("exp.store_bytes")), "bytes");
  out.set("topo.build_s", trace.durations("topo.build").at(0), "s");
  out.set("machine.init_s", sum(trace.durations("machine.init")), "s");
  out.set("machine.run_s", sum(trace.durations("machine.run")), "s");
  out.set("workload.build_s", sum(trace.durations("workload.make_workload")), "s");
  set_machine_layers(out, trace);
  // sim.events: the whole grid's events, as the batch engine counted them.
  out.set("sim.events", median(trace.values("exp.events")), "count");
  set_probe_layers(out, trace);
  return out;
}

}  // namespace perfbench
