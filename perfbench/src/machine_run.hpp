#pragma once
// One simulation assembled by hand from the program's public layers, so
// each layer's share can be timed on its own: topo::make_topology_shared,
// workload::make_workload, the machine::Machine constructor, and
// Machine::run(). This is what core::run_experiment does in one call.

#include <memory>

#include "bench.hpp"
#include "core/config.hpp"
#include "lb/strategy.hpp"
#include "machine/machine.hpp"
#include "workload/workload.hpp"

namespace perfbench {

/// A model built but not yet run.
struct BuiltMachine {
  std::unique_ptr<oracle::workload::Workload> workload;
  std::unique_ptr<oracle::lb::Strategy> strategy;
  std::unique_ptr<oracle::machine::Machine> machine;
};

struct MachineRun {
  double run_s = 0;       ///< Machine::run()
  double run_cpu_s = 0;   ///< thread CPU time of Machine::run()
  Record record;          ///< the run's outcome, for check_record
  std::uint64_t events = 0, tick_batches = 0, heap_scheduled = 0,
                wheel_scheduled = 0;
  std::uint64_t control_tx = 0, goal_tx = 0, response_tx = 0;
};

/// Build one simulation, layer by layer. Traced runs record a span per
/// layer call.
BuiltMachine build_machine(const oracle::core::ExperimentConfig& cfg);
/// Run a built simulation. Traced runs record the run under `run_span`.
MachineRun run_built(BuiltMachine built, const char* run_span = "machine.run");
/// build_machine, then run_built.
MachineRun run_machine(const oracle::core::ExperimentConfig& cfg,
                       const char* run_span = "machine.run");

/// Record a serial run's engine and machine counts in the trace.
void count_machine_layers(const MachineRun& m);
/// Engine and machine per-layer metrics (sim.events, sim.events_per_batch,
/// sim.heap_share, machine.*_tx, machine.events_per_goal) from the counts
/// count_machine_layers left in the trace.
void set_machine_layers(Outcome& out, const Trace& trace);

}  // namespace perfbench
