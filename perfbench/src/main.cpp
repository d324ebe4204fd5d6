// perfbench — the repository's benchmark program. One workload per process:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR --oracle-batch PATH [--trace-out FILE]
//   perfbench --self-test
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones. Exit code
// 0 only when the workload ran to its end; a failed correctness check is
// reported as "correct": false, never hidden.

#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "request_p50_ms",
                                 "throughput_per_s"};

void print_result(const Outcome& out, bool trace) {
  std::string json = fmt("{\"correct\": %s, \"attempted\": %llu, "
                         "\"failed\": %llu, \"metrics\": {",
                         out.problems.empty() ? "true" : "false",
                         static_cast<unsigned long long>(out.attempted),
                         static_cast<unsigned long long>(out.failed));
  bool first = true;
  const auto emit = [&](const std::string& name, const Metric& m) {
    json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  };
  if (trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = out.metrics.find(name);
      emit(name, it == out.metrics.end() ? Metric{0, unit} : it->second);
    }
  } else {
    for (const char* name : kEndToEnd) emit(name, out.metrics.at(name));
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR --oracle-batch PATH "
               "[--trace-out FILE]\n       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int missed = run_self_test();
      return missed == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else if (arg == "--oracle-batch") {
      opt.oracle_batch = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage();
    }
  }
  if (opt.workdir.empty() || opt.seconds <= 0) return usage();
  if (opt.trace_out.empty()) opt.trace_out = opt.workdir + "/perfbench.trace";

  try {
    Outcome out;
    if (opt.workload == "paper-grid") {
      out = run_paper_grid(opt);
    } else if (opt.workload == "big-machine") {
      out = run_big_machine(opt);
    } else if (opt.workload == "oracle-service") {
      out = run_oracle_service(opt);
    } else if (opt.workload == "worker-sweep") {
      out = run_worker_sweep(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
    if (out.attempted == 0) {
      std::fprintf(stderr, "perfbench: no operation completed\n");
      return 1;
    }
    for (const auto& p : out.problems)
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
    print_result(out, opt.trace);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
