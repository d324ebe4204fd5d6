// perfbench --self-test: every correctness check of the benchmark, fed a
// real input first (it must hold) and then deliberately broken copies (it
// must fire). A check that stays quiet on a broken input would let a wrong
// program pass the benchmark.

#include <cstdio>
#include <set>

#include "bench.hpp"
#include "core/presets.hpp"
#include "core/simulator.hpp"
#include "core/sweep.hpp"
#include "exp/aggregate.hpp"
#include "exp/job.hpp"
#include "exp/result_sink.hpp"

namespace perfbench {

namespace {

int g_missed = 0;

void expect(bool fired, bool should_fire, const std::string& what,
            const std::string& detail) {
  const bool ok = fired == should_fire;
  std::printf("%-4s %-58s %s\n", ok ? "ok" : "MISS", what.c_str(),
              detail.empty() ? "" : ("(" + detail + ")").c_str());
  if (!ok) ++g_missed;
}

/// Replace the first `"key":value` of a JSONL line.
std::string with_field(const std::string& line, const std::string& key,
                       const std::string& value) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle) + needle.size();
  auto end = at;
  while (line[end] != ',' && line[end] != '}') ++end;
  return line.substr(0, at) + value + line.substr(end);
}

std::string record_line(const oracle::core::ExperimentConfig& cfg,
                        std::size_t index) {
  const oracle::exp::ExperimentJob job{index, cfg,
                                       oracle::exp::job_content_hash(cfg)};
  return oracle::exp::jsonl_record(job, oracle::core::run_experiment(cfg));
}

std::string record_check(const std::string& line, const std::string& spec) {
  Record r;
  if (!parse_record(line, r)) return "unparseable";
  return check_record(r, spec);
}

}  // namespace

int run_self_test() {
  // ---- run records ----------------------------------------------------------
  auto cfg = oracle::core::paper::sample_point(
      oracle::core::paper::Family::Grid, oracle::core::paper::size_points()[0],
      true, "dc:1:55");
  const std::string line = record_line(cfg, 0);
  Record r;
  parse_record(line, r);
  const auto fires = [](const std::string& err) { return !err.empty(); };
  expect(fires(record_check(line, "dc:1:55")), false, "record: real run holds",
         record_check(line, "dc:1:55"));
  expect(fires(record_check(line, "dc:1:56")), true,
         "record: checked against another tree", "");
  const auto broken = [&](const std::string& key, const std::string& value) {
    return record_check(with_field(line, key, value), "dc:1:55");
  };
  expect(fires(broken("goals_executed", std::to_string(r.goals_executed + 1))),
         true, "record: goal count off by one",
         broken("goals_executed", std::to_string(r.goals_executed + 1)));
  expect(fires(broken("total_work", std::to_string(r.total_work - 40))), true,
         "record: total work short by one split", "");
  expect(fires(broken("critical_path", std::to_string(r.critical_path + 1))),
         true, "record: critical path off by one", "");
  const std::uint64_t floor_ct =
      std::max(r.critical_path, (r.total_work + r.num_pes - 1) / r.num_pes);
  expect(fires(broken("completion_time", std::to_string(floor_ct - 1))), true,
         "record: completion below max(cp, work/PEs)", "");
  expect(fires(broken("speedup", std::to_string(r.num_pes + 0.5))), true,
         "record: speedup above the PE count", "");
  expect(fires(record_check(line.substr(0, line.size() / 2), "dc:1:55")), true,
         "record: torn line", "");

  // ---- sweep stores -----------------------------------------------------------
  oracle::core::SweepSpec spec;
  spec.topologies = {"grid:5x5", "dlm:5:5x5"};
  spec.strategies = {"cwn", "gm"};
  spec.workloads = {"fib:9"};
  spec.seeds = {3, 4};
  const auto configs = spec.build();
  std::vector<std::string> store;
  for (std::size_t i = 0; i < configs.size(); ++i)
    store.push_back(record_line(configs[i], i));
  const auto jobs = expected_jobs(configs);
  expect(fires(check_store(store, jobs)), false, "store: complete sweep holds",
         check_store(store, jobs));
  {
    auto missing = store;
    missing.erase(missing.begin() + 3);
    expect(fires(check_store(missing, jobs)), true,
           "store: merged store missing one job", check_store(missing, jobs));
    auto dup = store;
    dup[3] = dup[2];
    expect(fires(check_store(dup, jobs)), true, "store: one job twice", "");
    auto reseeded = store;
    reseeded[5] = with_field(reseeded[5], "seed", "99");
    expect(fires(check_store(reseeded, jobs)), true,
           "store: job run with the wrong seed", "");
  }
  expect(fires(check_sweep(store, configs, 7)), false,
         "sweep: in-process re-runs match", check_sweep(store, configs, 7));
  {
    // Alter every record a little, so whichever jobs the sample re-runs,
    // the byte comparison must notice; the store-level checks still hold.
    auto altered = store;
    for (auto& l : altered) {
      const auto at = l.find("\"avg_goal_distance\":") + 20;
      l[at] = l[at] == '9' ? '8' : static_cast<char>(l[at] + 1);
    }
    expect(fires(check_sweep(altered, configs, 7)), true,
           "sweep: records that differ from a re-run", "");
  }

  // ---- warm tables --------------------------------------------------------------
  oracle::exp::Aggregator agg;
  std::vector<Record> recs;
  for (const auto& l : store) {
    agg.add_line(l);
    Record rec;
    parse_record(l, rec);
    recs.push_back(rec);
  }
  const std::set<std::uint64_t> seeds(spec.seeds.begin(), spec.seeds.end());
  const auto groups = agg.summarize();
  for (const std::string metric : {"speedup", "completion_time"}) {
    const std::string table = oracle::exp::Aggregator::to_table(groups, metric);
    const auto err = check_warm_table(table, metric, recs, seeds, 4);
    expect(fires(err), false, "warm table: program's " + metric + " table holds",
           err);
    // Alter the first row's mean cell.
    const auto row = table.find('\n', table.find("---")) + 1;
    std::size_t cell = row;
    for (int bar = 0; bar < 5; ++bar) cell = table.find('|', cell) + 1;
    auto altered = table;
    const auto digit = altered.find_first_of("0123456789", cell);
    altered[digit] = altered[digit] == '9' ? '1' : static_cast<char>(altered[digit] + 1);
    expect(fires(check_warm_table(altered, metric, recs, seeds, 4)), true,
           "warm table: " + metric + " mean altered",
           check_warm_table(altered, metric, recs, seeds, 4));
    expect(fires(check_warm_table(table, metric, recs, {3}, 4)), true,
           "warm table: " + metric + " over other seeds", "");
    expect(fires(check_warm_table(table, metric, recs, seeds, 5)), true,
           "warm table: " + metric + " missing a grid point", "");
  }

  std::printf("%s: %d check(s) did not behave\n",
              g_missed == 0 ? "self-test passed" : "self-test FAILED", g_missed);
  return g_missed;
}

}  // namespace perfbench
