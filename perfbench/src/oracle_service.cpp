// oracle-service: an `oracle_batch serve` daemon over a store seeded during
// set-up, driven by a closed loop of two client connections. Each client
// runs rounds of kRoundQueries queries; one query per round, at a seeded
// position, is cold (it names fresh seeds, so the daemon schedules and
// appends those runs while the other client reads), the rest are warm
// queries over random slices of the seeded sweep.

#include <signal.h>
#include <unistd.h>

#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/sweep.hpp"
#include "exp/aggregate.hpp"
#include "exp/batch.hpp"
#include "exp/service.hpp"
#include "exp/service_protocol.hpp"
#include "exp/store_index.hpp"
#include "obs/trace.hpp"
#include "util/net.hpp"

namespace perfbench {

namespace {

using oracle::core::SweepSpec;
using oracle::exp::ServiceOp;
using oracle::exp::ServiceQuery;
using oracle::exp::ServiceRequest;
using oracle::exp::ServiceResponse;
using oracle::exp::ServiceResponseKind;

constexpr int kClients = 2;
constexpr std::size_t kQueryThreads = 2;
constexpr int kRoundQueries = 20;
constexpr std::size_t kSeededSeeds = 8;
constexpr std::size_t kColdSeeds = 2;
const std::vector<std::string> kTopologies = {"grid:5x5", "grid:8x8",
                                              "dlm:5:5x5", "dlm:4:8x8"};
const std::vector<std::string> kStrategies = {"cwn", "gm"};
const std::vector<std::string> kWorkloads = {"fib:11", "dc:1:144"};
const std::vector<std::string> kMetrics = {"speedup", "completion_time"};

/// The seeded sweep: every topology x strategy x workload over
/// kSeededSeeds seeds drawn from the workload seed.
SweepSpec seeded_sweep(std::uint64_t seed) {
  SweepSpec s;
  s.topologies = kTopologies;
  s.strategies = kStrategies;
  s.workloads = kWorkloads;
  s.seeds.clear();
  for (std::size_t i = 0; i < kSeededSeeds; ++i)
    s.seeds.push_back(1 + derive(seed, 1000 + i) % 1'000'000'000);
  return s;
}

/// A random non-empty subset of `from` (at least `min_n` items, in order).
template <typename T>
std::vector<T> subset(const std::vector<T>& from, std::uint64_t& rng,
                      std::size_t min_n) {
  for (;;) {
    rng = mix64(rng);
    std::vector<T> out;
    for (std::size_t i = 0; i < from.size(); ++i)
      if ((rng >> i) & 1) out.push_back(from[i]);
    if (out.size() >= min_n) return out;
  }
}

struct QueryLog {
  bool cold = false;
  ServiceQuery query;
  double ms = 0;
  bool ok = false;  ///< a done frame arrived and no error frame
  bool traced = false;
  std::string error;
  std::string check;  ///< verify_answer's verdict ("" = correct)
  std::uint64_t total = 0, cached = 0, scheduled = 0, failed = 0;
  std::vector<std::pair<std::string, std::string>> tables;  // metric, text
};

/// One synchronous query over an open connection.
QueryLog run_query(int fd, std::uint64_t seq, const ServiceQuery& q, bool cold) {
  QueryLog log;
  log.cold = cold;
  log.query = q;
  ServiceRequest req;
  req.seq = seq;
  req.op = ServiceOp::kQuery;
  req.query = q;
  const auto deadline = oracle::util::NetClock::now() + std::chrono::seconds(60);
  const auto t0 = Clock::now();
  if (!oracle::util::send_frame(fd, req.encode(), deadline,
                                oracle::exp::kServiceMaxFrameBytes)) {
    log.error = "send failed";
    return log;
  }
  for (;;) {
    const auto frame = oracle::util::recv_frame(
        fd, deadline, oracle::exp::kServiceMaxFrameBytes);
    if (!frame) {
      log.error = "connection lost";
      return log;
    }
    const auto resp = ServiceResponse::parse(*frame);
    if (!resp || resp->seq != seq) {
      log.error = "bad response frame";
      return log;
    }
    switch (resp->kind) {
      case ServiceResponseKind::kStats:
        log.total = resp->total;
        log.cached = resp->cached;
        log.scheduled = resp->scheduled;
        log.failed = resp->failed;
        break;
      case ServiceResponseKind::kTable:
        log.tables.emplace_back(resp->metric, resp->text);
        break;
      case ServiceResponseKind::kError:
        log.error = resp->text;
        return log;
      case ServiceResponseKind::kDone:
        log.ms = seconds_since(t0) * 1e3;
        log.ok = true;
        return log;
      default:
        break;
    }
  }
}

bool ping(int fd) {
  ServiceRequest req;
  req.seq = 1;
  req.op = ServiceOp::kPing;
  const auto deadline = oracle::util::NetClock::now() + std::chrono::seconds(10);
  if (!oracle::util::send_frame(fd, req.encode(), deadline,
                                oracle::exp::kServiceMaxFrameBytes))
    return false;
  const auto frame = oracle::util::recv_frame(
      fd, deadline, oracle::exp::kServiceMaxFrameBytes);
  const auto resp = frame ? ServiceResponse::parse(*frame) : std::nullopt;
  return resp && resp->kind == ServiceResponseKind::kOk;
}

/// The serve daemon as a child process; stopped (shutdown frame, then
/// SIGKILL after a grace period) and reaped on every path out.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& store) {
    const std::string out = opt.workdir + "/serve.out";
    pid_ = spawn({opt.oracle_batch, "serve", "--store", store, "--listen",
                  "127.0.0.1:0", "--query-threads",
                  std::to_string(kQueryThreads), "--jobs", "1",
                  "--log-level", "warn"},
                 out, opt.workdir + "/serve.err");
    if (pid_ < 0) throw std::runtime_error("cannot spawn oracle_batch serve");
    // The daemon prints "serving store ... on 127.0.0.1:PORT" once bound.
    const auto t0 = Clock::now();
    while (port_ == 0 && seconds_since(t0) < 30) {
      std::ifstream in(out);
      std::string line;
      while (std::getline(in, line)) {
        const auto at = line.rfind("127.0.0.1:");
        if (line.rfind("serving store", 0) == 0 && at != std::string::npos)
          port_ = static_cast<std::uint16_t>(std::stoi(line.substr(at + 10)));
      }
      if (port_ == 0) usleep(2000);
    }
    if (port_ == 0) {
      stop(nullptr);
      throw std::runtime_error("serve daemon did not come up");
    }
  }
  ~Daemon() { stop(nullptr); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }

  /// Ask for a clean shutdown over `fd` (when given), then reap. Returns
  /// the exit code.
  int stop(const int* fd) {
    if (pid_ < 0) return code_;
    if (fd != nullptr) {
      ServiceRequest req;
      req.seq = 2;
      req.op = ServiceOp::kShutdown;
      oracle::util::send_frame(
          *fd, req.encode(),
          oracle::util::NetClock::now() + std::chrono::seconds(5),
          oracle::exp::kServiceMaxFrameBytes);
    } else {
      kill(pid_, SIGTERM);
    }
    // Grace period for a clean exit, then make sure the daemon cannot
    // outlive the run.
    code_ = wait_child_for(pid_, 5.0);
    pid_ = -1;
    return code_;
  }

 private:
  int pid_ = -1;
  int code_ = -1;
  std::uint16_t port_ = 0;
};

oracle::util::Socket connect_to(std::uint16_t port) {
  auto sock = oracle::util::connect_tcp(
      {"127.0.0.1", port},
      oracle::util::NetClock::now() + std::chrono::seconds(10));
  if (!sock.valid() || !ping(sock.fd()))
    throw std::runtime_error("cannot reach the serve daemon");
  return sock;
}

std::vector<std::string> split_cells(const std::string& row) {
  std::vector<std::string> cells;
  std::stringstream ss(row);
  std::string cell;
  while (std::getline(ss, cell, '|')) {
    const auto b = cell.find_first_not_of(' ');
    const auto e = cell.find_last_not_of(' ');
    cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
  }
  return cells;
}

}  // namespace

/// Check one warm table against means the benchmark computes itself from
/// the store's records: one row per grid point of the query, each with
/// the right run count and the mean rendered as the program renders it.
std::string check_warm_table(const std::string& table, const std::string& metric,
                             const std::vector<Record>& store,
                             const std::set<std::uint64_t>& seeds,
                             std::size_t expected_rows) {
  std::istringstream in(table);
  std::string line;
  std::size_t rows = 0;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (header) {  // column names, then a rule of dashes
      if (line.find("---") != std::string::npos) header = false;
      continue;
    }
    const auto cells = split_cells(line);
    if (cells.size() < 6) return "short table row: " + line;
    std::vector<const Record*> recs;
    for (const auto& r : store)
      if (r.topology == cells[0] && r.strategy == cells[1] &&
          r.workload == cells[2] && seeds.count(r.seed))
        recs.push_back(&r);
    if (std::to_string(recs.size()) != cells[4])
      return fmt("%s row %s/%s/%s: %s runs, store has %zu", metric.c_str(),
                 cells[0].c_str(), cells[1].c_str(), cells[2].c_str(),
                 cells[4].c_str(), recs.size());
    const std::string mean = render_mean(recs, metric);
    if (mean != cells[5])
      return fmt("%s row %s/%s/%s: mean %s, store gives %s", metric.c_str(),
                 cells[0].c_str(), cells[1].c_str(), cells[2].c_str(),
                 cells[5].c_str(), mean.c_str());
    ++rows;
  }
  if (rows != expected_rows)
    return fmt("%s table has %zu rows, query has %zu grid points",
               metric.c_str(), rows, expected_rows);
  return "";
}

namespace {

/// The per-query checks: the answer covers every requested point; a warm
/// query is answered from the index with tables that match the store; a
/// cold one schedules exactly its new points.
std::string verify_answer(const QueryLog& log, const std::vector<Record>& seeded) {
  const auto& s = log.query.sweep;
  const std::size_t points = s.topologies.size() * s.strategies.size() *
                             s.workloads.size() * s.seeds.size();
  if (log.total != points)
    return fmt("query answered %llu points, asked %zu",
               (unsigned long long)log.total, points);
  if (log.cold) {
    if (log.scheduled != points || log.cached != 0)
      return fmt("cold query scheduled %llu of %zu new points",
                 (unsigned long long)log.scheduled, points);
    return "";
  }
  if (log.scheduled != 0 || log.cached != points)
    return fmt("warm query scheduled %llu jobs", (unsigned long long)log.scheduled);
  if (log.tables.size() != kMetrics.size())
    return fmt("warm query returned %zu tables", log.tables.size());
  const std::set<std::uint64_t> seeds(s.seeds.begin(), s.seeds.end());
  for (const auto& [metric, text] : log.tables)
    if (auto err = check_warm_table(text, metric, seeded, seeds,
                                    points / s.seeds.size());
        !err.empty())
      return "warm table: " + err;
  return "";
}

}  // namespace

Outcome run_oracle_service(const Options& opt) {
  Outcome out;
  const std::string store = opt.workdir + "/service.jsonl";
  const SweepSpec seeded = seeded_sweep(opt.seed);
  std::vector<oracle::core::ExperimentConfig> seed_configs = seeded.build();
  {
    oracle::exp::BatchOptions bopt;
    bopt.exec.workers = 1;
    bopt.jsonl_path = store;
    bopt.collect = false;
    const auto res = oracle::exp::run_batch(seed_configs, bopt);
    out.attempted += seed_configs.size();
    out.failed += res.report.failed;
  }
  std::vector<Record> seeded_records;
  {
    const auto lines = read_lines(store);
    if (const auto err = check_store(lines, expected_jobs(seed_configs));
        !err.empty())
      out.fail_check("oracle-service seeding: " + err);
    for (const auto& line : lines) {
      Record r;
      if (parse_record(line, r)) seeded_records.push_back(r);
    }
  }
  const std::size_t seeded_lines = seeded_records.size();

  Daemon daemon(opt, store);
  std::vector<oracle::util::Socket> conns;
  for (int c = 0; c < kClients; ++c) conns.push_back(connect_to(daemon.port()));
  out.set("setup_s", seconds_since(kProcessStart), "s");

  // ---- the closed loop ------------------------------------------------------
  std::vector<std::vector<QueryLog>> logs(kClients);
  const auto t_begin = Clock::now();
  const double run_for = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto client = [&](int c) {
    std::uint64_t rng = derive(opt.seed, 77 + c);
    std::uint64_t seq = 10, fresh = 0;
    for (std::uint64_t round = 0; round == 0 || seconds_since(t_begin) < run_for;
         ++round) {
      const std::uint64_t cold_at = derive(opt.seed, round * 31 + c) % kRoundQueries;
      for (int i = 0; i < kRoundQueries; ++i) {
        ServiceQuery q;
        q.metrics = kMetrics;
        const bool cold = static_cast<std::uint64_t>(i) == cold_at;
        if (cold) {
          rng = mix64(rng);
          q.sweep.topologies = {kTopologies[rng % kTopologies.size()]};
          q.sweep.strategies = {kStrategies[(rng >> 8) % kStrategies.size()]};
          q.sweep.workloads = {"fib:11"};
          q.sweep.seeds.clear();
          // Seeds no other query names: above the seeded range, unique
          // per client and query.
          for (std::size_t k = 0; k < kColdSeeds; ++k)
            q.sweep.seeds.push_back(2'000'000'000ULL + c * 100'000'000ULL +
                                    fresh++);
        } else {
          q.sweep.topologies = subset(kTopologies, rng, 1);
          q.sweep.strategies = subset(kStrategies, rng, 1);
          q.sweep.workloads = {kWorkloads[(rng >> 16) % kWorkloads.size()]};
          q.sweep.seeds = subset(seeded.seeds, rng, 4);
        }
        {
          // Traced runs wrap every other round's queries in a span, so the
          // tracer's own cost shows as obs.trace_overhead.
          std::optional<oracle::obs::Span> span;
          if (opt.trace && round % 2 == 1)
            span.emplace("perfbench",
                         cold ? "client.cold_query" : "client.warm_query");
          logs[c].push_back(run_query(conns[c].fd(), seq++, q, cold));
          logs[c].back().traced = span.has_value();
          if (span && cold)
            count("exp.jobs_scheduled",
                  static_cast<double>(logs[c].back().scheduled));
        }
        QueryLog& log = logs[c].back();
        if (!log.ok) return;  // the connection is unusable
        log.check = verify_answer(log, seeded_records);
        log.tables.clear();  // checked; keep the client's memory flat
      }
    }
  };
  Trace trace(opt.trace_out);
  if (opt.trace) trace.start();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  const double wall = seconds_since(t_begin);

  // ---- traced: in-process layers over the same store --------------------------
  if (opt.trace) {
    {
      oracle::obs::Span span("perfbench", "exp.StoreIndex.add_store");
      oracle::exp::StoreIndex index;
      index.add_store(store);
    }
    {
      oracle::obs::Span span("perfbench", "exp.aggregate");
      const auto agg = oracle::exp::Aggregator::from_jsonl_file(store);
      const auto groups = agg.summarize();
      for (const auto& m : kMetrics) (void)oracle::exp::Aggregator::to_table(groups, m);
    }
    // Warm queries answered by an in-process Service (no socket, no
    // framing): the serving path minus the daemon.
    oracle::exp::ServiceOptions so;
    so.store = store;
    so.exec_threads = 1;
    so.query_threads = 1;
    oracle::exp::Service svc(so);
    svc.open();
    oracle::exp::ServiceSink sink;
    std::size_t asked = 0;
    for (const auto& log : logs[0]) {
      if (log.cold || asked++ >= 200) continue;
      oracle::obs::Span span("perfbench", "exp.Service.query");
      svc.query(log.query, sink);
    }
  }

  const int control_fd = conns[0].fd();
  const int exit_code = daemon.stop(&control_fd);
  if (exit_code != 0)
    out.fail_check(fmt("serve daemon exited with %d", exit_code));

  // ---- checks -----------------------------------------------------------------
  std::vector<double> warm_ms, plain_ms;
  std::uint64_t new_points = 0;
  std::multiset<std::uint64_t> cold_seeds;  // each names one new point
  for (const auto& client_logs : logs) {
    for (const auto& log : client_logs) {
      ++out.attempted;
      if (!log.ok || log.failed != 0) {
        ++out.failed;
        continue;
      }
      if (!log.check.empty()) out.fail_check(log.check);
      const auto& s = log.query.sweep;
      const std::size_t points = s.topologies.size() * s.strategies.size() *
                                 s.workloads.size() * s.seeds.size();
      if (log.cold) {
        new_points += points;
        cold_seeds.insert(s.seeds.begin(), s.seeds.end());
        continue;
      }
      warm_ms.push_back(log.ms);
      if (!log.traced) plain_ms.push_back(log.ms);
    }
  }
  // The store grew by exactly the cold points: one correct record per
  // requested new seed (each cold query names one grid point per seed).
  {
    const auto lines = read_lines(store);
    if (lines.size() != seeded_lines + new_points)
      out.fail_check(fmt("store has %zu lines, expected %zu seeded + %llu new",
                         lines.size(), seeded_lines,
                         (unsigned long long)new_points));
    std::multiset<std::uint64_t> appended;
    for (std::size_t i = seeded_lines; i < lines.size(); ++i) {
      Record r;
      if (!parse_record(lines[i], r)) {
        out.fail_check("unparseable appended record");
        break;
      }
      appended.insert(r.seed);
      if (const auto err = check_record(r, "fib:11"); !err.empty())
        out.fail_check("cold record: " + err);
    }
    if (appended != cold_seeds)
      out.fail_check("appended records do not match the cold queries' seeds");
  }

  if (!opt.trace) {
    out.set("request_p50_ms", median(warm_ms), "ms");
    // Warm queries answered per second of the loop, both clients.
    out.set("throughput_per_s", static_cast<double>(warm_ms.size()) / wall,
            "1/s");
    // The program under test is the daemon, a reaped child by now.
    out.set("peak_rss_mb", children_peak_rss_mb(), "MB");
    return out;
  }
  count("exp.store_bytes",
        static_cast<double>(std::ifstream(store, std::ios::ate).tellg()));
  run_layer_probes();
  trace.load();
  out.set("exp.index_open_s",
          trace.durations("exp.StoreIndex.add_store").at(0), "s");
  out.set("exp.aggregate_s", trace.durations("exp.aggregate").at(0), "s");
  out.set("exp.query_inproc_ms",
          median(trace.durations("exp.Service.query")) * 1e3, "ms");
  out.set("exp.store_bytes", trace.values("exp.store_bytes").at(0), "bytes");
  out.set("exp.jobs_scheduled", trace.sum("exp.jobs_scheduled"), "count");
  out.set("exp.cold_query_s", median(trace.durations("client.cold_query")), "s");
  out.set("obs.trace_overhead",
          median(trace.durations("client.warm_query")) * 1e3 / median(plain_ms),
          "ratio");
  set_probe_layers(out, trace);
  return out;
}

}  // namespace perfbench
