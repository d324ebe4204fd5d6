#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/config.hpp"
#include "obs/trace.hpp"

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void Outcome::fail_check(const std::string& what) {
  if (problems.size() < 16) problems.push_back(what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

double max_rss_mb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

double self_peak_rss_mb() { return max_rss_mb(RUSAGE_SELF); }
double children_peak_rss_mb() { return max_rss_mb(RUSAGE_CHILDREN); }

double current_rss_mb() {
  std::ifstream in("/proc/self/statm");
  double pages_total = 0, pages_resident = 0;
  in >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

// ---- traces ---------------------------------------------------------------

namespace {

// Per-thread event buffers of a traced run; every stretch recorded here is
// far below this.
constexpr std::size_t kTraceCapacity = 1 << 15;

}  // namespace

std::vector<TraceEventLine> read_trace_lines(const std::string& path) {
  std::vector<TraceEventLine> out;
  for (const auto& line : read_lines(path)) {
    std::string ph, v;
    if (!json_field(line, "ph", ph) || ph.size() != 1 || ph == "M") continue;
    TraceEventLine t;
    t.ph = ph[0];
    json_field(line, "name", t.name);
    if (json_field(line, "dur", v)) t.dur_s = std::strtod(v.c_str(), nullptr) * 1e-6;
    if (json_field(line, "milli", v))
      t.value = static_cast<double>(std::strtoll(v.c_str(), nullptr, 10)) / 1000;
    if (json_field(line, "wait_us", v))
      t.wait_us = std::strtoll(v.c_str(), nullptr, 10);
    out.push_back(std::move(t));
  }
  return out;
}

void Trace::start() {
  oracle::obs::Tracer::enable(0, "perfbench", kTraceCapacity);
  on_ = true;
}

void Trace::stop() {
  if (!on_) return;
  oracle::obs::Tracer::disable();
  on_ = false;
  if (oracle::obs::Tracer::dropped() != 0)
    throw std::runtime_error("trace buffer overflow: events dropped");
  oracle::obs::Tracer::write_event_lines(path_, written_);
  written_ = true;
}

void Trace::load() {
  stop();
  events_ = read_trace_lines(path_);
}

std::vector<double> Trace::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& ev : events_)
    if (ev.ph == 'X' && ev.name == name) out.push_back(ev.dur_s);
  return out;
}

std::vector<double> Trace::values(const std::string& name) const {
  std::vector<double> out;
  for (const auto& ev : events_)
    if (ev.ph == 'C' && ev.name == name) out.push_back(ev.value);
  return out;
}

double Trace::sum(const std::string& name) const {
  double total = 0;
  for (const double v : values(name)) total += v;
  return total;
}

void count(const char* name, double value) {
  oracle::obs::counter("perfbench", name, "milli",
                       static_cast<std::int64_t>(std::llround(value * 1000)));
}

// ---- the paper's programs, counted independently ------------------------------

namespace {

constexpr std::uint64_t kLeaf = 100, kSplit = 40, kCombine = 40;

TreeFacts fib_facts(unsigned n, std::vector<TreeFacts>& memo) {
  if (memo.size() > n && memo[n].goals != 0) return memo[n];
  TreeFacts f;
  if (n < 2) {
    f = TreeFacts{1, kLeaf, kLeaf};
  } else {
    const TreeFacts a = fib_facts(n - 1, memo);
    const TreeFacts b = fib_facts(n - 2, memo);
    f.goals = 1 + a.goals + b.goals;
    f.work = kSplit + kCombine + a.work + b.work;
    f.critical_path =
        kSplit + kCombine + std::max(a.critical_path, b.critical_path);
  }
  if (memo.size() <= n) memo.resize(n + 1);
  memo[n] = f;
  return f;
}

// dc(M,N) splits [M,N] at (M+N)/2; the tree shape depends only on the
// interval length, so memoize by length.
TreeFacts dc_facts(std::int64_t len, std::map<std::int64_t, TreeFacts>& memo) {
  if (len == 1) return TreeFacts{1, kLeaf, kLeaf};
  if (const auto it = memo.find(len); it != memo.end()) return it->second;
  const std::int64_t left = (len + 1) / 2;  // [M, (M+N)/2] for M = 0
  const TreeFacts a = dc_facts(left, memo);
  const TreeFacts b = dc_facts(len - left, memo);
  const TreeFacts f{1 + a.goals + b.goals, kSplit + kCombine + a.work + b.work,
                    kSplit + kCombine + std::max(a.critical_path, b.critical_path)};
  memo[len] = f;
  return f;
}

}  // namespace

TreeFacts tree_facts(const std::string& spec) {
  if (spec.rfind("fib:", 0) == 0) {
    std::vector<TreeFacts> memo;
    return fib_facts(static_cast<unsigned>(std::stoul(spec.substr(4))), memo);
  }
  if (spec.rfind("dc:", 0) == 0) {
    const auto colon = spec.find(':', 3);
    const std::int64_t m = std::stoll(spec.substr(3, colon - 3));
    const std::int64_t n = std::stoll(spec.substr(colon + 1));
    // Splitting [M,N] at floor((M+N)/2) gives a left part of
    // floor((N-M)/2)+1 elements whatever M is (M, N >= 0), so the shape
    // is that of [0, N-M].
    std::map<std::int64_t, TreeFacts> memo;
    return dc_facts(n - m + 1, memo);
  }
  return TreeFacts{};
}

// ---- JSONL records -----------------------------------------------------------

bool json_field(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t b = at + needle.size();
  if (b < line.size() && line[b] == '"') {
    const std::size_t e = line.find('"', b + 1);
    if (e == std::string::npos) return false;
    out = line.substr(b + 1, e - b - 1);
    return true;
  }
  std::size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  if (e >= line.size() || e == b) return false;
  out = line.substr(b, e - b);
  return true;
}

namespace {

bool u64_field(const std::string& line, const char* key, std::uint64_t& out) {
  std::string raw;
  if (!json_field(line, key, raw)) return false;
  char* end = nullptr;
  out = std::strtoull(raw.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace

bool parse_record(const std::string& line, Record& r) {
  if (line.empty() || line.front() != '{' || line.back() != '}') return false;
  std::string speed;
  r.line = line;
  return u64_field(line, "job", r.job) &&
         json_field(line, "topology", r.topology) &&
         json_field(line, "strategy", r.strategy) &&
         json_field(line, "workload", r.workload) &&
         u64_field(line, "num_pes", r.num_pes) &&
         u64_field(line, "seed", r.seed) &&
         u64_field(line, "completion_time", r.completion_time) &&
         u64_field(line, "goals_executed", r.goals_executed) &&
         u64_field(line, "total_work", r.total_work) &&
         u64_field(line, "critical_path", r.critical_path) &&
         json_field(line, "speedup", speed) &&
         (r.speedup = std::strtod(speed.c_str(), nullptr), true);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

std::string check_record(const Record& r, const std::string& spec) {
  const TreeFacts t = tree_facts(spec);
  if (t.goals == 0) return "unknown workload spec " + spec;
  if (r.goals_executed != t.goals)
    return fmt("job %llu: goals_executed %llu, tree has %llu",
               (unsigned long long)r.job, (unsigned long long)r.goals_executed,
               (unsigned long long)t.goals);
  if (r.total_work != t.work)
    return fmt("job %llu: total_work %llu, tree has %llu",
               (unsigned long long)r.job, (unsigned long long)r.total_work,
               (unsigned long long)t.work);
  if (r.critical_path != t.critical_path)
    return fmt("job %llu: critical_path %llu, tree has %llu",
               (unsigned long long)r.job, (unsigned long long)r.critical_path,
               (unsigned long long)t.critical_path);
  if (r.num_pes == 0) return fmt("job %llu: zero PEs", (unsigned long long)r.job);
  const std::uint64_t bound = std::max<std::uint64_t>(
      t.critical_path, (t.work + r.num_pes - 1) / r.num_pes);
  if (r.completion_time < bound)
    return fmt("job %llu: completion_time %llu below lower bound %llu",
               (unsigned long long)r.job,
               (unsigned long long)r.completion_time,
               (unsigned long long)bound);
  if (!(r.speedup > 0) || r.speedup > static_cast<double>(r.num_pes))
    return fmt("job %llu: speedup %g outside (0, %llu]",
               (unsigned long long)r.job, r.speedup,
               (unsigned long long)r.num_pes);
  return "";
}

std::string check_store(const std::vector<std::string>& lines,
                        const std::vector<ExpectedJob>& jobs) {
  if (lines.size() != jobs.size())
    return fmt("store has %zu records, sweep has %zu jobs", lines.size(),
               jobs.size());
  std::vector<bool> seen(jobs.size(), false);
  for (const auto& line : lines) {
    Record r;
    if (!parse_record(line, r))
      return "unparseable record: " + line.substr(0, 80);
    if (r.job >= jobs.size() || seen[r.job])
      return fmt("job index %llu duplicated or out of range",
                 (unsigned long long)r.job);
    seen[r.job] = true;
    if (r.seed != jobs[r.job].seed)
      return fmt("job %llu ran with seed %llu, expected %llu",
                 (unsigned long long)r.job, (unsigned long long)r.seed,
                 (unsigned long long)jobs[r.job].seed);
    if (const auto err = check_record(r, jobs[r.job].workload); !err.empty())
      return err;
  }
  return "";
}

std::vector<ExpectedJob> expected_jobs(
    const std::vector<oracle::core::ExperimentConfig>& configs) {
  std::vector<ExpectedJob> jobs;
  for (const auto& c : configs) jobs.push_back({c.workload, c.machine.seed});
  return jobs;
}

namespace {

double record_metric(const Record& r, const std::string& metric) {
  if (metric == "speedup") return r.speedup;
  if (metric == "completion_time") return static_cast<double>(r.completion_time);
  return NAN;
}

}  // namespace

std::string render_mean(const std::vector<const Record*>& recs,
                        const std::string& metric) {
  if (recs.empty()) return "";
  double sum = 0;
  for (const Record* r : recs) sum += record_metric(*r, metric);
  return fmt("%.4g", sum / static_cast<double>(recs.size()));
}

// ---- helpers -------------------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
  return mix64(mix64(seed) ^ (index * 0x632be59bd9b4e019ULL));
}

std::string fmt(const char* f, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

int spawn(const std::vector<std::string>& argv, const std::string& out_path,
          const std::string& err_path) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const auto redirect = [](const std::string& path, int fd) {
    const int to = open(path.empty() ? "/dev/null" : path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (to >= 0) dup2(to, fd);
  };
  redirect(out_path, STDOUT_FILENO);
  redirect(err_path, STDERR_FILENO);
  execv(args[0], args.data());
  _exit(127);
}

int wait_child(int pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}

int wait_child_for(int pid, double seconds) {
  const auto t0 = Clock::now();
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) return -1;
    if (seconds_since(t0) >= seconds) {
      kill(pid, SIGKILL);
      return wait_child(pid);
    }
    usleep(5000);
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}

}  // namespace perfbench
