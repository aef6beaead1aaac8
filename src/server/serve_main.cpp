// lfbst_serve: the server binary. An int64 membership set, sharded over
// NM-BSTs with epoch reclamation and recording stats, behind the TCP
// wire protocol — plus the live-telemetry plane (docs/TELEMETRY.md):
// a background sampler publishing windowed metric deltas, a key-range
// hotness heatmap, a Prometheus exposition endpoint, the stat opcode,
// and a continuously armed flight recorder whose last --flight-ms of
// trace events dump to a Perfetto file on SIGUSR1 (or a stat request
// with the dump flag).
//
// SIGTERM (and SIGINT) trigger a graceful drain: everything already
// received is answered, late frames are NACKed with status
// shutting_down, buffers are flushed, then the process exits and
// prints its wire-level counters (and, with --json, an lfbst-bench-v1
// document of server-side latency percentiles).
//
//   lfbst_serve --port=7171 --threads=2 --shards=8 --metrics-port=9187
//   curl -s http://127.0.0.1:9187/metrics | head
//   kill -USR1 $(pidof lfbst_serve)   # dump lfbst_flight.json
//
// Flags: --host (default 127.0.0.1), --port (default 7171; 0 picks an
// ephemeral port, printed on stdout), --threads event loops, --shards
// power-of-two shard count, --scan-page default range-scan page size,
// --drain-ms drain deadline, --json[=path] latency report on exit.
// Telemetry flags: --metrics-port (-1 = exposition disabled, 0 =
// ephemeral, printed), --telemetry-ms sampling interval, --flight-file
// dump path, --flight-ms dump window, --heatmap-lo/--heatmap-hi the
// heatmap's key interval.
// Shape-resilience flag (docs/RESILIENCE.md): --scramble=SEED wraps the
// sharded set in lfbst::scrambled_set, bijectively mixing every key at
// the protocol boundary so adversarial insertion orders (sequential
// scans, outside-in zigzags) cannot degenerate the shard trees into
// spines. Under --scramble the heatmap, splitters and range scans all
// live in scrambled key space; range_scan is lowered to a filtered
// full-domain walk (see the scan-contract caveat in the doc).
#include <signal.h>  // NOLINT: sigaction needs the POSIX header

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "core/key_scramble.hpp"
#include "core/natarajan_tree.hpp"
#include "harness/flags.hpp"
#include "obs/export.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "server/stat_endpoint.hpp"
#include "shard/sharded_set.hpp"

namespace {

using tree_type = lfbst::nm_tree<std::int64_t, std::less<std::int64_t>,
                                 lfbst::reclaim::epoch, lfbst::obs::recording>;
using sharded_type = lfbst::shard::sharded_set<tree_type>;
// The scramble adapter sits ABOVE the router (never below it): the
// router partitions the scrambled key space, so attack streams load
// every shard uniformly and the static_assert in sharded_set holds.
using scrambled_type = lfbst::scrambled_set<sharded_type>;

// SIGUSR1 → flight dump. request_flight_dump is one relaxed atomic
// store, so the handler may call it directly (same pattern as
// drain_on_sigterm's trampoline). The sampler's concrete type depends
// on the --scramble mode, so the handler goes through an erased
// pointer + dispatch fn (written before the handler is installed).
std::atomic<void*> g_sampler{nullptr};
void (*g_sampler_dump)(void*) = nullptr;

void sigusr1_handler(int) {
  if (void* s = g_sampler.load(std::memory_order_acquire)) {
    g_sampler_dump(s);
  }
}

/// Everything after set construction, generic over the set layering
/// (raw sharded vs scrambled-over-sharded): telemetry plane, stat
/// opcode, serve loop, drain, and the exit report.
template <typename SetT>
int run_server(const lfbst::bench::flags& flags,
               lfbst::server::server_config cfg, SetT& set, bool scrambled) {
  using sampler_type = lfbst::obs::sampler<SetT>;

  // Telemetry plane: one shared heatmap + flight-recorder trace ring
  // attached to every shard's recording stats, a background sampler
  // ticking every --telemetry-ms, and (optionally) the exposition
  // endpoint. All of it reads racy-monotone state, so it rides along
  // without touching the data plane's hot path.
  lfbst::obs::key_heatmap heatmap(
      flags.get_int("heatmap-lo", 0),
      flags.get_int("heatmap-hi", std::int64_t{1} << 20));
  lfbst::obs::trace_log flight_log(
      static_cast<std::size_t>(flags.get_int("flight-capacity", 1 << 14)));
  set.for_each_shard_stats([&](lfbst::obs::recording& stats) {
    stats.attach_heatmap(&heatmap);
    stats.attach_trace(&flight_log);
  });
  lfbst::obs::set_global_trace_sink(&flight_log);

  lfbst::obs::telemetry_options topts;
  topts.interval_ms =
      static_cast<std::uint64_t>(flags.get_int("telemetry-ms", 100));
  topts.flight_path = flags.get("flight-file", "lfbst_flight.json");
  topts.flight_window_ms =
      static_cast<std::uint64_t>(flags.get_int("flight-ms", 2000));
  sampler_type sampler(set, topts);
  sampler.attach_flight_recorder(&flight_log);
  sampler.attach_heatmap(&heatmap);

  lfbst::server::basic_server<SetT> server(set, cfg);
  server.set_stat_handler([&](std::uint32_t request_flags,
                              lfbst::server::stat_result& out) {
    if ((request_flags & lfbst::server::stat_flag_flight_dump) != 0) {
      sampler.request_flight_dump();
      out.flight_dumped = true;
    }
    lfbst::obs::telemetry_window win;
    if (sampler.latest(win)) {
      out.window_ns = win.t1_ns - win.t0_ns;
      out.window_ops = win.point_ops();
      out.lat_p50_ns = win.lat_p50_ns;
      out.lat_p99_ns = win.lat_p99_ns;
      out.seek_p50 = win.seek_p50;
      out.seek_p99 = win.seek_p99;
      out.shard_window_ops.assign(win.shard_ops.begin(),
                                  win.shard_ops.begin() + win.shard_count);
    }
    out.windows_published = sampler.windows_published();
    lfbst::obs::metrics_snapshot total;
    out.shard_ops.reserve(set.shard_count());
    for (std::size_t i = 0; i < set.shard_count(); ++i) {
      const lfbst::obs::metrics_snapshot snap = set.shard_counters(i);
      out.shard_ops.push_back(snap.point_ops());
      total.merge(snap);
    }
    out.shard_window_ops.resize(out.shard_ops.size(), 0);
    out.counters.assign(total.values.begin(), total.values.end());
  });
  if (!server.start()) {
    std::fprintf(stderr, "lfbst_serve: cannot listen on %s:%u\n",
                 cfg.host.c_str(), static_cast<unsigned>(cfg.port));
    return 1;
  }
  std::printf("lfbst_serve: listening on %s:%u (%u event threads)\n",
              cfg.host.c_str(), static_cast<unsigned>(server.port()),
              cfg.event_threads);

  sampler.start();
  g_sampler_dump = [](void* p) {
    static_cast<sampler_type*>(p)->request_flight_dump();
  };
  g_sampler.store(&sampler, std::memory_order_release);
  {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = sigusr1_handler;
    (void)sigaction(SIGUSR1, &sa, nullptr);
  }

  lfbst::server::metrics_endpoint exposition([&] {
    lfbst::obs::prometheus_writer w;
    sampler.render_prometheus(w);
    lfbst::server::render_prometheus(w, server.stats());
    return w.text();
  });
  const std::int64_t metrics_port = flags.get_int("metrics-port", -1);
  if (metrics_port >= 0) {
    if (!exposition.start(cfg.host,
                          static_cast<std::uint16_t>(metrics_port))) {
      std::fprintf(stderr, "lfbst_serve: cannot expose metrics on %s:%lld\n",
                   cfg.host.c_str(), static_cast<long long>(metrics_port));
      server.stop();
      server.join();
      return 1;
    }
    std::printf("lfbst_serve: metrics on http://%s:%u/metrics\n",
                cfg.host.c_str(), static_cast<unsigned>(exposition.port()));
  }
  std::fflush(stdout);

  // SIGTERM drains the server directly from the handler (begin_drain is
  // async-signal-safe); SIGINT takes the same path for interactive use.
  // The event threads do all the work, so the main thread just blocks
  // in join() — it returns once the drain (or a hard stop) finishes.
  lfbst::server::drain_on_sigterm(server);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = lfbst::server::detail::sigterm_trampoline;
  (void)sigaction(SIGINT, &sa, nullptr);
  server.join();

  exposition.stop();
  g_sampler.store(nullptr, std::memory_order_release);
  sampler.stop();
  lfbst::obs::set_global_trace_sink(nullptr);

  const auto& st = server.stats();
  std::fprintf(
      stderr,
      "lfbst_serve: conns=%llu/%llu frames=%llu responses=%llu "
      "bytes=%llu/%llu proto_errors=%llu nack_drain=%llu "
      "coalesced=%llu/%llu backpressure=%llu stat=%llu "
      "windows=%llu flight_dumps=%llu\n",
      static_cast<unsigned long long>(st.connections_accepted.load()),
      static_cast<unsigned long long>(st.connections_closed.load()),
      static_cast<unsigned long long>(st.frames_in.load()),
      static_cast<unsigned long long>(st.responses_out.load()),
      static_cast<unsigned long long>(st.bytes_in.load()),
      static_cast<unsigned long long>(st.bytes_out.load()),
      static_cast<unsigned long long>(st.protocol_errors.load()),
      static_cast<unsigned long long>(st.rejected_shutting_down.load()),
      static_cast<unsigned long long>(st.coalesced_groups.load()),
      static_cast<unsigned long long>(st.coalesced_ops.load()),
      static_cast<unsigned long long>(st.backpressure_pauses.load()),
      static_cast<unsigned long long>(st.stat_requests.load()),
      static_cast<unsigned long long>(sampler.windows_published()),
      static_cast<unsigned long long>(sampler.flight_dumps()));

  if (flags.has("json")) {
    lfbst::obs::bench_report report("lfbst_serve");
    report.config.set("host", cfg.host);
    report.config.set("port", static_cast<std::int64_t>(server.port()));
    report.config.set("threads",
                      static_cast<std::int64_t>(cfg.event_threads));
    const auto h = server.latency().merged_all();
    // The shape telemetry the nightly attack-stream soak gates on
    // (tools/check_perf_regression.py --serve-report): seek-depth
    // percentiles over the whole run plus the final key count, so the
    // gate can compare p99 against 2*log2(keys).
    const auto seek = set.merged_seek_depth_histogram();
    lfbst::obs::json::value row = lfbst::obs::json::value::object();
    row.set("study", "server_lifetime");
    row.set("scramble", static_cast<std::int64_t>(scrambled ? 1 : 0));
    row.set("shards", static_cast<std::int64_t>(set.shard_count()));
    row.set("keys", static_cast<std::int64_t>(set.size_slow()));
    row.set("ops", static_cast<std::int64_t>(h.count()));
    row.set("p50_ns", static_cast<std::int64_t>(h.value_at_percentile(50)));
    row.set("p99_ns", static_cast<std::int64_t>(h.value_at_percentile(99)));
    row.set("p999_ns",
            static_cast<std::int64_t>(h.value_at_percentile(99.9)));
    row.set("seeks", static_cast<std::int64_t>(seek.count()));
    row.set("seek_p50",
            static_cast<std::int64_t>(seek.value_at_percentile(50)));
    row.set("seek_p99",
            static_cast<std::int64_t>(seek.value_at_percentile(99)));
    row.set("seek_max", static_cast<std::int64_t>(seek.max()));
    report.add_result(std::move(row));
    const std::string path = flags.get("json", "serve_report.json");
    if (!report.write_file(path.empty() ? "serve_report.json" : path)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const lfbst::bench::flags flags(argc, argv, {
      "drain-ms", "flight-capacity", "flight-file", "flight-ms", "heatmap-hi",
      "heatmap-lo", "host", "json", "metrics-port", "port", "scan-page",
      "scramble", "shards", "telemetry-ms", "threads"});
  lfbst::server::server_config cfg;
  cfg.host = flags.get("host", "127.0.0.1");
  cfg.port = static_cast<std::uint16_t>(flags.get_int("port", 7171));
  cfg.event_threads = static_cast<unsigned>(flags.get_int("threads", 2));
  cfg.default_scan_items =
      static_cast<std::uint32_t>(flags.get_int("scan-page", 4096));
  cfg.drain_deadline_ms =
      static_cast<std::uint64_t>(flags.get_int("drain-ms", 5000));

  sharded_type::router_type router(
      static_cast<std::size_t>(flags.get_int("shards", 8)),
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max());

  if (flags.has("scramble")) {
    const auto seed =
        static_cast<std::uint64_t>(flags.get_int("scramble", 1));
    std::printf("lfbst_serve: key scrambling on (seed %llu)\n",
                static_cast<unsigned long long>(seed));
    scrambled_type set(seed, router);
    return run_server(flags, cfg, set, /*scrambled=*/true);
  }
  sharded_type set(router);
  return run_server(flags, cfg, set, /*scrambled=*/false);
}
