// Per-layer metric vocabulary and the workload-independent layer probes.

#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "bench.hpp"
#include "lb/load_info.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "topo/factory.hpp"
#include "util/net.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"sim.events", "count"},
      {"sim.events_per_batch", "ratio"},
      {"sim.heap_share", "ratio"},
      {"sim.dispatch_ns", "ns"},
      {"machine.control_tx", "count"},
      {"machine.goal_tx", "count"},
      {"machine.response_tx", "count"},
      {"machine.events_per_goal", "ratio"},
      {"machine.run_s", "s"},
      {"machine.parallel_run_s", "s"},
      {"lb.load_update_ns", "ns"},
      {"machine.init_s", "s"},
      {"topo.build_s", "s"},
      {"workload.build_s", "s"},
      {"topo.cache_hit_us", "us"},
      {"exp.job_wall_p50_ms", "ms"},
      {"exp.engine_overhead_s", "s"},
      {"exp.queue_wait_ms", "ms"},
      {"exp.fsync_ms", "ms"},
      {"exp.store_bytes", "bytes"},
      {"exp.index_open_s", "s"},
      {"exp.aggregate_s", "s"},
      {"exp.query_inproc_ms", "ms"},
      {"util.frame_rtt_us", "us"},
      {"exp.jobs_scheduled", "count"},
      {"exp.cold_query_s", "s"},
      {"exp.shard.imbalance", "ratio"},
      {"exp.shard.merge_s", "s"},
      {"exp.shard.spawns", "count"},
      {"obs.trace_overhead", "ratio"},
  };
  return names;
}

namespace {

/// Host nanoseconds per dispatched event of a self-rescheduling event
/// cascade: 4096 actors, each re-arming itself 1..64 ticks ahead, until
/// two million events have run. Median of five passes.
double dispatch_ns() {
  std::vector<double> per_event;
  for (int pass = 0; pass < 5; ++pass) {
    oracle::sim::Scheduler sched;
    constexpr std::uint64_t kEvents = 2'000'000;
    std::uint64_t fired = 0;
    std::uint64_t state = 12345 + static_cast<std::uint64_t>(pass);
    struct Actor {
      oracle::sim::Scheduler* s;
      std::uint64_t* fired;
      std::uint64_t* state;
      void operator()() const {
        if (++*fired >= kEvents) return;
        *state = mix64(*state);
        s->schedule_after(1 + static_cast<oracle::sim::Duration>(*state & 63),
                          Actor{s, fired, state});
      }
    };
    for (int a = 0; a < 4096; ++a)
      sched.schedule_after(1 + a % 64, Actor{&sched, &fired, &state});
    const auto t0 = Clock::now();
    sched.run();
    per_event.push_back(seconds_since(t0) * 1e9 /
                        static_cast<double>(sched.executed()));
  }
  return median(per_event);
}

/// Host nanoseconds per NeighborLoadTable::update on a 4096-PE hypercube
/// (the big-machine topology), over a fixed pseudo-random stream of
/// (pe, neighbour, load) triples. Median of five passes.
double load_update_ns() {
  const auto topo = oracle::topo::make_topology("hypercube:12");
  oracle::lb::NeighborLoadTable table;
  table.init(*topo);
  struct Upd {
    std::uint32_t pe, from;
    std::int64_t load;
  };
  std::vector<Upd> ups(1 << 20);
  std::uint64_t s = 99;
  for (auto& u : ups) {
    s = mix64(s);
    u.pe = static_cast<std::uint32_t>(s % topo->num_nodes());
    const auto& nb = topo->neighbors(u.pe);
    u.from = nb[(s >> 20) % nb.size()];
    u.load = static_cast<std::int64_t>((s >> 40) & 15);
  }
  std::vector<double> per_update;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    for (const auto& u : ups) table.update(u.pe, u.from, u.load);
    per_update.push_back(seconds_since(t0) * 1e9 /
                         static_cast<double>(ups.size()));
  }
  // Keep the table observable so the loop cannot be dropped.
  if (table.min_load(0) < 0) std::fprintf(stderr, "impossible load\n");
  return median(per_update);
}

/// Round trip of one 256-byte frame through util::send_frame/recv_frame
/// over a local socket pair with an echo thread, in microseconds (median
/// of 2000).
double frame_rtt_us() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0;
  const auto far = [] {
    return oracle::util::NetClock::now() + std::chrono::seconds(10);
  };
  std::thread echo([&] {
    while (auto f = oracle::util::recv_frame(fds[1], far()))
      if (!oracle::util::send_frame(fds[1], *f, far())) break;
  });
  const std::string payload(256, 'x');
  std::vector<double> rtt;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    if (!oracle::util::send_frame(fds[0], payload, far())) break;
    const auto back = oracle::util::recv_frame(fds[0], far());
    if (!back || *back != payload) break;
    rtt.push_back(seconds_since(t0) * 1e6);
  }
  shutdown(fds[0], SHUT_RDWR);
  echo.join();
  close(fds[0]);
  close(fds[1]);
  return rtt.size() == 2000 ? median(rtt) : 0;
}

/// A hit in the shared topology cache, in microseconds (median of 2000).
double cache_hit_us() {
  oracle::topo::make_topology_shared("grid:20x20");
  std::vector<double> t;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    const auto shared = oracle::topo::make_topology_shared("grid:20x20");
    t.push_back(seconds_since(t0) * 1e6);
    if (!shared.topology) return 0;
  }
  return median(t);
}

}  // namespace

namespace {

struct Probe {
  const char* span;
  const char* metric;
  const char* unit;
  double (*measure)();
};

const Probe kProbes[] = {
    {"probe.dispatch", "sim.dispatch_ns", "ns", dispatch_ns},
    {"probe.load_update", "lb.load_update_ns", "ns", load_update_ns},
    {"probe.frame_rtt", "util.frame_rtt_us", "us", frame_rtt_us},
    {"probe.cache_hit", "topo.cache_hit_us", "us", cache_hit_us},
};

}  // namespace

void run_layer_probes() {
  for (const Probe& p : kProbes) {
    oracle::obs::Span span("perfbench", p.span);
    count(p.metric, p.measure());
  }
}

void set_probe_layers(Outcome& out, const Trace& trace) {
  for (const Probe& p : kProbes)
    out.set(p.metric, trace.values(p.metric).at(0), p.unit);
}

}  // namespace perfbench
