// Network front-end evaluation: a multi-connection load-test client
// driving a server::basic_server over loopback TCP. Each cell of the
// (mix, connections, pipeline) grid hammers the server from
// `connections` client threads each keeping `pipeline` requests in
// flight, and reports client-observed throughput, the uncontended ping
// RTT floor (min over a short burst, measured before the load starts),
// plus the server-side per-request latency ladder (p50/p99/p999)
// recorded by obs::latency_observer on the execution path.
//
// Two server placements:
//
//   in-process (default): each cell starts a fresh set + server, so
//   cells are independent and the server-side latency observer is
//   readable after quiesce.
//   --connect host:port : drive an already-running lfbst_serve instead
//   (the CI telemetry smoke uses this to put real load behind the
//   Prometheus endpoint). The key space is pre-populated over the wire
//   with batch inserts; server-side latency columns read 0 because the
//   observer lives in the other process — scrape its /metrics for the
//   window quantiles instead.
//
// Two mixes bracket the design space (--mix selects one, default both):
//
//   membership : the read-dominated session-table scenario (90% get,
//                5% insert, 5% erase) — the live-membership demo this
//                bench absorbed, now measured over real sockets.
//   mixed      : the paper's 50/25/25 soup, where pipelining lets the
//                server coalesce same-opcode runs into *_batch calls.
//
// Defaults are laptop-sized; scale with flags:
//   bench_server --millis 2000 --connections 1,4,16 --pipeline 1,16,64
// --json <path> writes the lfbst-bench-v1 document
// (tools/check_bench_json.py validates it; check_perf_regression.py
// gates the pipelined p99 against bench/baseline_server.json).
//
// --keys sequential|bit_reversed|adaptive_attack replays an adversarial
// insertion order (src/harness/key_streams.hpp) during pre-population
// instead of the uniform draw — the nightly attack-stream soak drives
// an external lfbst_serve this way and gates the seek-depth columns of
// the server's own --json report (docs/RESILIENCE.md). The load phase
// itself still draws request keys uniformly: the attack is the
// insertion ORDER that shapes the tree, and uniform probes then pay
// (or, scrambled, don't pay) the degenerate depth.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "harness/flags.hpp"
#include "harness/key_streams.hpp"
#include "harness/table.hpp"
#include "lfbst/lfbst.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "shard/sharded_set.hpp"

namespace {

using namespace lfbst;

using set_type = shard::sharded_set<
    nm_tree<std::int64_t, std::less<std::int64_t>, reclaim::epoch,
            obs::recording>>;

struct mix_spec {
  const char* name;
  unsigned get_pct;
  unsigned insert_pct;  // remainder after get+insert is erase
};

constexpr mix_spec kMixes[] = {
    {"membership", 90, 5},
    {"mixed", 50, 25},
};

struct cell_result {
  std::uint64_t ops = 0;
  double mops_per_sec = 0;
  std::uint64_t rtt_us = 0;  // min ping RTT before the load started
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  std::uint64_t coalesced_groups = 0;
};

/// Where a cell's server lives: in-process (host empty) or an external
/// lfbst_serve reached over --connect host:port.
struct endpoint {
  std::string host;  // empty = start an in-process server per cell
  std::uint16_t port = 0;

  [[nodiscard]] bool external() const noexcept { return !host.empty(); }
};

/// Pre-populates half the key space through the wire with batch
/// inserts — the external-server counterpart of filling the in-process
/// set directly. Idempotent across cells (inserting a present key is a
/// cheap no-op).
bool prepopulate_external(const endpoint& ep, std::int64_t key_range,
                          std::uint64_t seed,
                          harness::key_stream_kind kind) {
  server::client cli;
  if (!cli.connect(ep.host, ep.port)) return false;
  pcg32 rng(seed);
  constexpr std::size_t chunk = 512;
  std::vector<std::int64_t> keys;
  std::vector<bool> results;
  keys.reserve(chunk);
  std::uint64_t stream_index = 0;
  for (std::int64_t remaining = key_range / 2; remaining > 0;) {
    keys.clear();
    const std::size_t n =
        remaining < static_cast<std::int64_t>(chunk)
            ? static_cast<std::size_t>(remaining)
            : chunk;
    for (std::size_t i = 0; i < n; ++i) {
      // Batch boundaries don't disturb the attack: the server executes
      // each batch's inserts in order, so the stream's insertion order
      // reaches the trees intact.
      keys.push_back(
          kind == harness::key_stream_kind::uniform
              ? static_cast<std::int64_t>(
                    rng.next64() % static_cast<std::uint64_t>(key_range))
              : static_cast<std::int64_t>(harness::key_stream_at(
                    kind, stream_index++,
                    static_cast<std::uint64_t>(key_range))));
    }
    if (!cli.batch(server::opcode::insert, keys, results)) return false;
    remaining -= static_cast<std::int64_t>(n);
  }
  return true;
}

/// One grid cell: `connections` threads each keeping a `pipeline`-deep
/// window of point requests in flight for `duration` against either a
/// fresh in-process server or the --connect endpoint. Throughput is
/// client-counted completed responses; latencies come from the
/// in-process server's observer after the loops quiesce (0 in external
/// mode).
cell_result run_cell(const mix_spec& mix, unsigned connections,
                     unsigned pipeline, unsigned event_threads,
                     std::size_t shards, std::int64_t key_range,
                     std::chrono::milliseconds duration, std::uint64_t seed,
                     const endpoint& external,
                     harness::key_stream_kind kind) {
  set_type* set = nullptr;
  server::basic_server<set_type>* srv = nullptr;
  endpoint ep = external;
  if (!external.external()) {
    set = new set_type(shards, 0, key_range);
    // Pre-populate half the key space so gets actually hit — uniform
    // draw by default, or the requested adversarial insertion order.
    if (kind == harness::key_stream_kind::uniform) {
      pcg32 seed_rng(seed);
      for (std::int64_t filled = 0; filled < key_range / 2;) {
        if (set->insert(static_cast<std::int64_t>(
                seed_rng.next64() %
                static_cast<std::uint64_t>(key_range)))) {
          ++filled;
        }
      }
    } else {
      for (std::int64_t i = 0; i < key_range / 2; ++i) {
        set->insert(static_cast<std::int64_t>(harness::key_stream_at(
            kind, static_cast<std::uint64_t>(i),
            static_cast<std::uint64_t>(key_range))));
      }
    }

    server::server_config cfg;
    cfg.event_threads = event_threads;
    srv = new server::basic_server<set_type>(*set, cfg);
    if (!srv->start()) {
      std::fprintf(stderr, "bench_server: server failed to start\n");
      std::exit(1);
    }
    ep.host = "127.0.0.1";
    ep.port = srv->port();
  }

  cell_result r;
  {
    // The RTT floor: min over a quiet burst, before the load starts.
    server::client probe;
    if (probe.connect(ep.host, ep.port)) {
      (void)probe.ping_rtt_min(16, r.rtt_us);
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (unsigned c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      server::client cli;
      if (!cli.connect(ep.host, ep.port)) return;
      pcg32 rng = pcg32::for_thread(seed, c);
      std::uint64_t local = 0;
      std::vector<server::request> window(pipeline);
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& req : window) {
          const unsigned roll = rng.bounded(100);
          req.op = roll < mix.get_pct ? server::opcode::get
                   : roll < mix.get_pct + mix.insert_pct
                       ? server::opcode::insert
                       : server::opcode::erase;
          req.id = cli.next_id();
          req.key = static_cast<std::int64_t>(
              rng.next64() % static_cast<std::uint64_t>(key_range));
          if (!cli.send_request(req)) return;
        }
        server::response resp;
        for (unsigned i = 0; i < pipeline; ++i) {
          if (!cli.recv_response(resp)) return;
          ++local;
        }
        completed.fetch_add(local, std::memory_order_relaxed);
        local = 0;
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(duration);
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  r.ops = completed.load();
  r.mops_per_sec = static_cast<double>(r.ops) / secs / 1e6;
  if (srv != nullptr) {
    srv->stop();
    srv->join();
    const obs::histogram lat = srv->latency().merged_all();
    r.p50_ns = lat.value_at_percentile(50);
    r.p99_ns = lat.value_at_percentile(99);
    r.p999_ns = lat.value_at_percentile(99.9);
    r.coalesced_groups = srv->stats().coalesced_groups.load();
    delete srv;
    delete set;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::flags flags(argc, argv, {
      "connect", "connections", "csv", "json", "keyrange", "keys", "millis",
      "mix", "pipeline", "seed", "shards", "threads"});
  const bool csv_only = flags.has("csv");
  const auto millis = flags.get_int("millis", 200);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto key_range = flags.get_int("keyrange", 1 << 16);
  const auto shards =
      static_cast<std::size_t>(flags.get_int("shards", 8));
  const auto event_threads =
      static_cast<unsigned>(flags.get_int("threads", 2));
  const auto connections = flags.get_int_list("connections", {1, 4});
  const auto pipelines = flags.get_int_list("pipeline", {1, 16});
  const auto duration = std::chrono::milliseconds(millis);
  const std::string only_mix = flags.get("mix", "");

  harness::key_stream_kind kind = harness::key_stream_kind::uniform;
  const std::string keys_flag = flags.get("keys", "uniform");
  if (!harness::parse_key_stream(keys_flag, kind)) {
    std::fprintf(stderr,
                 "bench_server: --keys wants uniform|sequential|"
                 "bit_reversed|adaptive_attack, got '%s'\n",
                 keys_flag.c_str());
    return 1;
  }

  // --connect host:port drives an external lfbst_serve instead of
  // per-cell in-process servers (CI's telemetry smoke load generator).
  endpoint external;
  const std::string connect = flags.get("connect", "");
  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == connect.size()) {
      std::fprintf(stderr,
                   "bench_server: --connect wants host:port, got '%s'\n",
                   connect.c_str());
      return 1;
    }
    external.host = connect.substr(0, colon);
    external.port = static_cast<std::uint16_t>(
        std::strtoul(connect.c_str() + colon + 1, nullptr, 10));
    if (!prepopulate_external(external, key_range, seed, kind)) {
      std::fprintf(stderr,
                   "bench_server: cannot reach/populate %s:%u\n",
                   external.host.c_str(),
                   static_cast<unsigned>(external.port));
      return 1;
    }
  }

  harness::text_table tbl({"study", "mix", "connections", "pipeline",
                           "event_threads", "shards", "ops", "mops_per_sec",
                           "rtt_us", "p50_ns", "p99_ns", "p999_ns",
                           "coalesced_groups"});

  if (!csv_only) {
    if (external.external()) {
      std::printf("=== TCP front-end: external server %s:%u (%lld keys) "
                  "===\n",
                  external.host.c_str(),
                  static_cast<unsigned>(external.port),
                  static_cast<long long>(key_range));
    } else {
      std::printf("=== TCP front-end over sharded NM-BST (%u event "
                  "threads, %zu shards, %lld keys) ===\n",
                  event_threads, shards,
                  static_cast<long long>(key_range));
    }
  }
  for (const mix_spec& mix : kMixes) {
    if (!only_mix.empty() && only_mix != mix.name) continue;
    for (const std::int64_t conns : connections) {
      for (const std::int64_t pipe : pipelines) {
        const cell_result r = run_cell(
            mix, static_cast<unsigned>(conns), static_cast<unsigned>(pipe),
            event_threads, shards, key_range, duration, seed, external,
            kind);
        tbl.add_row({"server", mix.name, std::to_string(conns),
                     std::to_string(pipe), std::to_string(event_threads),
                     std::to_string(shards), std::to_string(r.ops),
                     harness::format("%.4f", r.mops_per_sec),
                     std::to_string(r.rtt_us), std::to_string(r.p50_ns),
                     std::to_string(r.p99_ns), std::to_string(r.p999_ns),
                     std::to_string(r.coalesced_groups)});
        if (!csv_only) {
          std::printf("  %-10s conns=%-3lld pipeline=%-3lld %8.3f Mops/s  "
                      "rtt=%4llu us  p50=%6llu ns  p99=%7llu ns  "
                      "p999=%8llu ns\n",
                      mix.name, static_cast<long long>(conns),
                      static_cast<long long>(pipe), r.mops_per_sec,
                      static_cast<unsigned long long>(r.rtt_us),
                      static_cast<unsigned long long>(r.p50_ns),
                      static_cast<unsigned long long>(r.p99_ns),
                      static_cast<unsigned long long>(r.p999_ns));
        }
      }
    }
  }

  if (!csv_only) std::printf("\n=== CSV ===\n");
  tbl.print_csv(stdout);

  if (flags.has("json")) {
    const std::string path = flags.get("json", "server.json");
    obs::bench_report report("server");
    report.config.set("millis", millis);
    report.config.set("seed", seed);
    report.config.set("key_range", key_range);
    report.config.set("shards", static_cast<std::uint64_t>(shards));
    report.config.set("event_threads",
                      static_cast<std::uint64_t>(event_threads));
    report.config.set("external", external.external());
    report.config.set("keys", harness::key_stream_name(kind));
    report.results = obs::rows_from_table(tbl.header(), tbl.rows());
    if (!report.write_file(path)) return 1;
    if (!csv_only) std::printf("\nJSON report: %s\n", path.c_str());
  }
  return 0;
}
