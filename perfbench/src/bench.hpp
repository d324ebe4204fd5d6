#pragma once
// Shared pieces of the perfbench binary: options, the result line, timing,
// the trace of traced runs, order statistics, and the
// benchmark's own correctness checks (which never call into the program
// they check).

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace oracle::core {
struct ExperimentConfig;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set during static initialization of the benchmark binary, i.e. at process start;
/// setup_s is measured from here.
extern const Clock::time_point kProcessStart;

double seconds_since(Clock::time_point t0);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;       ///< scratch directory for stores/sockets
  std::string trace_out;     ///< traced runs write their trace lines here
  std::string oracle_batch;  ///< path of the oracle_batch binary
};

/// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What every workload hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< correctness violations
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a violated check (kept short: the first few are printed).
  void fail_check(const std::string& what);
};

// ---- statistics ---------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak resident set of this process, and the largest of its reaped
/// children (daemon, sweep parent and workers), in MB.
double self_peak_rss_mb();
double children_peak_rss_mb();
/// Resident set of this process right now, in MB (progress logs).
double current_rss_mb();

// ---- traced runs ----------------------------------------------------------

/// One event line of a trace file written by obs::Tracer.
struct TraceEventLine {
  std::string name;
  char ph = '?';
  double dur_s = 0;           ///< spans ('X')
  double value = 0;           ///< counts recorded by count()
  std::int64_t wait_us = -1;  ///< "wait_us" arg of the executor's job spans
};
/// Every event of one trace-line file ("M" metadata lines skipped).
std::vector<TraceEventLine> read_trace_lines(const std::string& path);

/// A traced run's spans and counts. They are recorded by the program's own
/// tracer (obs::Tracer): the benchmark wraps each call into a layer in an
/// obs::Span of category "perfbench" and records counts at the same
/// boundaries with count(), next to the program's own spans (executor
/// jobs, checkpoint fsyncs, engine counters). Events stay in memory while
/// a traced stretch runs; stop() appends them to the run's trace file
/// (obs::Tracer::write_event_lines), outside any timed region, and load()
/// reads the one file back, from which every per-layer metric is derived.
class Trace {
 public:
  explicit Trace(std::string path) : path_(std::move(path)) {}
  void start();
  void stop();
  /// stop(), then read every event the run recorded.
  void load();

  /// Durations (seconds) of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Values of every count with this name.
  std::vector<double> values(const std::string& name) const;
  double sum(const std::string& name) const;
  const std::vector<TraceEventLine>& events() const { return events_; }

 private:
  std::string path_;
  bool on_ = false;
  bool written_ = false;
  std::vector<TraceEventLine> events_;
};

/// A count at a layer boundary, as an obs counter event (a no-op when
/// tracing is off). Stored in thousandths, so fractional values survive
/// the tracer's integer args.
void count(const char* name, double value);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
/// A traced run reports all of them; a layer the workload never calls
/// reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Micro-probes of single layers that do not depend on the workload
/// (scheduler dispatch, neighbour-load update, frame round trip, shared
/// topology cache hit). Every traced run records them while tracing is
/// on, and sets their metrics from its loaded trace.
void run_layer_probes();
void set_probe_layers(Outcome& out, const Trace& trace);

// ---- independent model of the paper's programs ----------------------------

/// Goal count, total work, and critical path of a fib/dc tree under the
/// paper's cost model (leaf 100, split 40, combine 40), computed by the
/// benchmark itself from the workload spec ("fib:N" or "dc:M:N").
struct TreeFacts {
  std::uint64_t goals = 0;
  std::uint64_t work = 0;
  std::uint64_t critical_path = 0;
};
TreeFacts tree_facts(const std::string& workload_spec);

/// The fields of one JSONL run record that the checks read, parsed by the
/// benchmark's own scanner (not the program's reader).
struct Record {
  std::uint64_t job = 0;
  std::string topology, strategy, workload;
  std::uint64_t num_pes = 0, seed = 0;
  std::uint64_t completion_time = 0, goals_executed = 0, total_work = 0,
                critical_path = 0;
  double speedup = 0;
  std::string line;  ///< the raw line
};
bool parse_record(const std::string& line, Record& out);

/// The raw value of `"key":` in one line of JSON the program wrote (string
/// values without their quotes). False when the key is absent.
bool json_field(const std::string& line, const char* key, std::string& out);

/// Read every complete line of a JSONL store.
std::vector<std::string> read_lines(const std::string& path);

/// The run-record invariants every workload checks: goals and work equal
/// the benchmark's own tree count for `workload_spec`, completion time is
/// at least max(critical path, ceil(work / PEs)), and speedup is at most
/// the PE count. Returns "" when the record holds, else what is wrong.
std::string check_record(const Record& r, const std::string& workload_spec);

/// What a sweep store must hold for job index i: a record of
/// `jobs[i].workload` run with seed `jobs[i].seed`.
struct ExpectedJob {
  std::string workload;
  std::uint64_t seed = 0;
};
/// Every job index exactly once, nothing else, each record seeded as
/// expected and passing check_record. "" when the store holds.
std::string check_store(const std::vector<std::string>& lines,
                        const std::vector<ExpectedJob>& jobs);
/// What running `configs` in order must store.
std::vector<ExpectedJob> expected_jobs(
    const std::vector<oracle::core::ExperimentConfig>& configs);

/// Mean of `metric` ("speedup", "completion_time", ...) over records,
/// rendered the way the program's summary tables print it (%.4g).
std::string render_mean(const std::vector<const Record*>& recs,
                        const std::string& metric);

/// A warm query's summary table against means the benchmark computes
/// itself from `store`: one row per grid point (expected_rows), each with
/// the run count over `seeds` and the %.4g mean the program prints.
std::string check_warm_table(const std::string& table, const std::string& metric,
                             const std::vector<Record>& store,
                             const std::set<std::uint64_t>& seeds,
                             std::size_t expected_rows);

/// A merged sweep store: check_store against `configs`, plus a seeded
/// sample of jobs re-run in-process that must reproduce their records
/// byte for byte.
std::string check_sweep(const std::vector<std::string>& lines,
                        const std::vector<oracle::core::ExperimentConfig>& configs,
                        std::uint64_t sample_seed);

// ---- small helpers --------------------------------------------------------

std::uint64_t mix64(std::uint64_t x);  ///< splitmix64 finalizer
std::uint64_t derive(std::uint64_t seed, std::uint64_t index);
std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));

/// Spawn argv (argv[0] a path) with stdout/stderr redirected to files
/// (empty = inherit /dev/null). Returns the pid, or -1.
int spawn(const std::vector<std::string>& argv, const std::string& out_path,
          const std::string& err_path);
/// Wait for a child; returns its exit code (128+signal when killed).
int wait_child(int pid);
/// Wait up to `seconds` for a child to exit, then SIGKILL and reap it.
int wait_child_for(int pid, double seconds);

// ---- workloads ------------------------------------------------------------

Outcome run_paper_grid(const Options& opt);
Outcome run_big_machine(const Options& opt);
Outcome run_oracle_service(const Options& opt);
Outcome run_worker_sweep(const Options& opt);

/// Feed every check a deliberately broken input; returns the number of
/// checks that failed to fire.
int run_self_test();

}  // namespace perfbench
