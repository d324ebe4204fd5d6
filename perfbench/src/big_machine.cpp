// big-machine: one 4096-PE hypercube under CWN computing dc over 20000
// leaves on the serial engine, repeated for the whole run. Load-info
// broadcasts are most of its events; it never touches exp.

#include "core/presets.hpp"
#include "machine_run.hpp"
#include "obs/trace.hpp"
#include "topo/factory.hpp"

#include <ctime>

namespace perfbench {

namespace {

/// CPU time of the calling thread; logged beside each rep's wall time to
/// tell preemption apart from a slower host.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

}  // namespace

BuiltMachine build_machine(const oracle::core::ExperimentConfig& cfg) {
  BuiltMachine b;
  oracle::topo::SharedTopology topo;
  {
    oracle::obs::Span span("perfbench", "topo.make_topology_shared");
    topo = oracle::topo::make_topology_shared(cfg.topology);
  }
  {
    oracle::obs::Span span("perfbench", "workload.make_workload");
    b.workload = oracle::workload::make_workload(cfg.workload, cfg.costs);
    b.strategy = oracle::lb::make_strategy(cfg.strategy);
  }
  {
    oracle::obs::Span span("perfbench", "machine.init");
    b.machine = std::make_unique<oracle::machine::Machine>(
        topo, *b.workload, *b.strategy, cfg.machine);
  }
  return b;
}

MachineRun run_built(BuiltMachine built, const char* run_span) {
  MachineRun m;
  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  oracle::stats::RunResult r;
  {
    oracle::obs::Span span("perfbench", run_span);
    r = built.machine->run();
  }
  m.run_s = seconds_since(t0);
  m.run_cpu_s = thread_cpu_s() - cpu0;

  const auto es = built.machine->engine_stats();
  m.events = es.sched.executed;
  m.tick_batches = es.sched.tick_batches;
  m.heap_scheduled = es.sched.heap_scheduled;
  m.wheel_scheduled = es.sched.wheel_scheduled;
  m.control_tx = r.control_transmissions;
  m.goal_tx = r.goal_transmissions;
  m.response_tx = r.response_transmissions;
  // Machine::run leaves the static critical path to its caller (as
  // core::run_experiment does); check_record compares it with the
  // benchmark's own count.
  m.record.topology = r.topology;
  m.record.strategy = r.strategy;
  m.record.workload = r.workload;
  m.record.num_pes = r.num_pes;
  m.record.seed = r.seed;
  m.record.completion_time = static_cast<std::uint64_t>(r.completion_time);
  m.record.goals_executed = r.goals_executed;
  m.record.total_work = static_cast<std::uint64_t>(r.total_work);
  m.record.critical_path =
      static_cast<std::uint64_t>(built.workload->summarize().critical_path);
  m.record.speedup = r.speedup;
  return m;
}

MachineRun run_machine(const oracle::core::ExperimentConfig& cfg,
                       const char* run_span) {
  return run_built(build_machine(cfg), run_span);
}

void count_machine_layers(const MachineRun& m) {
  count("sim.events", static_cast<double>(m.events));
  count("sim.tick_batches", static_cast<double>(m.tick_batches));
  count("sim.heap_scheduled", static_cast<double>(m.heap_scheduled));
  count("sim.wheel_scheduled", static_cast<double>(m.wheel_scheduled));
  count("machine.control_tx", static_cast<double>(m.control_tx));
  count("machine.goal_tx", static_cast<double>(m.goal_tx));
  count("machine.response_tx", static_cast<double>(m.response_tx));
  count("machine.goals", static_cast<double>(m.record.goals_executed));
}

namespace {

const char* const kTopology = "hypercube:12";
const char* const kStrategy = "cwn:interval=100";
const char* const kWorkload = "dc:1:20000";
constexpr std::uint32_t kParallelThreads = 2;
constexpr std::uint32_t kParallelPartitions = 8;
// Seed index of the warm-up run (measured runs use 0, 1, 2, ...).
constexpr std::uint64_t kWarmupIndex = 1u << 20;

oracle::core::ExperimentConfig big_config(std::uint64_t seed) {
  auto cfg = oracle::core::paper::base_config();
  cfg.topology = kTopology;
  cfg.strategy = kStrategy;
  cfg.workload = kWorkload;
  cfg.machine.seed = seed;
  return cfg;
}

void check(Outcome& out, const MachineRun& m) {
  if (const auto err = check_record(m.record, kWorkload); !err.empty())
    out.fail_check("big-machine: " + err);
}

}  // namespace

/// Engine and machine figures of every traced run in the trace.
void set_machine_layers(Outcome& out, const Trace& trace) {
  const double events = trace.sum("sim.events");
  const double heap = trace.sum("sim.heap_scheduled");
  out.set("sim.events", median(trace.values("sim.events")), "count");
  out.set("sim.events_per_batch", events / trace.sum("sim.tick_batches"),
          "ratio");
  out.set("sim.heap_share", heap / (heap + trace.sum("sim.wheel_scheduled")),
          "ratio");
  out.set("machine.control_tx", median(trace.values("machine.control_tx")),
          "count");
  out.set("machine.goal_tx", median(trace.values("machine.goal_tx")), "count");
  out.set("machine.response_tx", median(trace.values("machine.response_tx")),
          "count");
  out.set("machine.events_per_goal", events / trace.sum("machine.goals"),
          "ratio");
}

Outcome run_big_machine(const Options& opt) {
  Outcome out;
  // Set-up: the topology (analytic routing past 2048 PEs) and the first
  // model built on it. The set-up ends there; that model's run is a
  // warm-up, which touches every PE's state once and is not timed.
  oracle::topo::make_topology_shared(kTopology);
  BuiltMachine warm = build_machine(big_config(derive(opt.seed, kWarmupIndex)));
  out.set("setup_s", seconds_since(kProcessStart), "s");
  ++out.attempted;
  check(out, run_built(std::move(warm)));

  // Traced runs trace every other rep only, and stop halfway to leave
  // time for the per-layer extras below.
  Trace trace(opt.trace_out);
  std::vector<double> run_ms, plain_s;
  std::uint64_t goals = 0;
  double busy_s = 0;
  const auto t_begin = Clock::now();
  for (std::uint64_t rep = 0;; ++rep) {
    const double elapsed = seconds_since(t_begin);
    if (rep >= 2 && elapsed >= (opt.trace ? opt.seconds / 2 : opt.seconds))
      break;
    const bool traced = opt.trace && rep % 2 == 1;
    if (traced) trace.start();
    ++out.attempted;
    const auto t0 = Clock::now();
    const MachineRun m = run_machine(big_config(derive(opt.seed, rep)));
    busy_s += seconds_since(t0);
    if (traced) {
      count_machine_layers(m);
      trace.stop();
    }
    run_ms.push_back(m.run_s * 1e3);
    if (opt.trace && !traced) plain_s.push_back(m.run_s);
    goals += m.record.goals_executed;
    check(out, m);
    std::fprintf(stderr, "big-machine rep %llu: run %.1f ms (cpu %.1f ms), "
                 "%llu events\n", (unsigned long long)rep, m.run_s * 1e3,
                 m.run_cpu_s * 1e3, (unsigned long long)m.events);
  }
  out.set("request_p50_ms", median(run_ms), "ms");
  out.set("throughput_per_s", static_cast<double>(goals) / busy_s, "1/s");
  out.set("peak_rss_mb", self_peak_rss_mb(), "MB");
  if (!opt.trace) return out;

  trace.start();
  {
    // First build of the topology in this process (the runs above hit
    // the cache).
    oracle::topo::clear_topology_cache();
    oracle::obs::Span span("perfbench", "topo.build");
    oracle::topo::make_topology_shared(kTopology);
  }
  {
    auto cfg = big_config(derive(opt.seed, 0));
    cfg.machine.sim_threads = kParallelThreads;
    cfg.machine.sim_partitions = kParallelPartitions;
    ++out.attempted;
    check(out, run_machine(cfg, "machine.run_parallel"));
  }
  run_layer_probes();
  trace.load();

  const auto runs = trace.durations("machine.run");
  out.set("machine.run_s", median(runs), "s");
  out.set("obs.trace_overhead", median(runs) / median(plain_s), "ratio");
  out.set("machine.init_s", median(trace.durations("machine.init")), "s");
  out.set("workload.build_s",
          median(trace.durations("workload.make_workload")), "s");
  out.set("topo.build_s", trace.durations("topo.build").at(0), "s");
  out.set("machine.parallel_run_s",
          trace.durations("machine.run_parallel").at(0), "s");
  set_machine_layers(out, trace);
  set_probe_layers(out, trace);
  return out;
}

}  // namespace perfbench
