// Pins the live-telemetry plane (obs/telemetry.hpp, obs/heatmap.hpp;
// docs/TELEMETRY.md): the seqlock window ring's publish/read protocol,
// the sampler's window algebra against a workload of known size, shard
// shares summing to one, heatmap attribution through the recording
// policy's on_op_key hook, the Prometheus rendering, and the flight
// recorder's time-windowed dump. The concurrent cases (scraping and
// sampling while writers run) are part of the TSan suite.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/natarajan_tree.hpp"
#include "obs/heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "shard/sharded_set.hpp"

namespace lfbst::obs {
namespace {

using set_type = shard::sharded_set<
    nm_tree<std::int64_t, std::less<std::int64_t>, reclaim::epoch,
            recording>>;

telemetry_window make_window(std::uint64_t seq) {
  telemetry_window w;
  w.seq = seq;
  w.t0_ns = seq * 100;
  w.t1_ns = seq * 100 + 100;
  w.shard_count = 4;
  for (std::size_t c = 0; c < counter_count; ++c) {
    w.delta.values[c] = seq + c;
  }
  for (std::size_t s = 0; s < 4; ++s) w.shard_ops[s] = seq * 10 + s;
  w.lat_p50_ns = seq + 1;
  w.lat_p99_ns = seq + 2;
  w.seek_p50 = seq + 3;
  w.seek_p99 = seq + 4;
  return w;
}

TEST(TelemetryRing, PublishReadRoundTrip) {
  telemetry_ring ring;
  telemetry_window out;
  EXPECT_FALSE(ring.latest(out)) << "nothing published yet";
  EXPECT_EQ(ring.published(), 0u);

  const telemetry_window w = make_window(0);
  ring.publish(w);
  EXPECT_EQ(ring.published(), 1u);
  ASSERT_TRUE(ring.read(0, out));
  EXPECT_EQ(out.seq, w.seq);
  EXPECT_EQ(out.t0_ns, w.t0_ns);
  EXPECT_EQ(out.t1_ns, w.t1_ns);
  EXPECT_EQ(out.shard_count, w.shard_count);
  EXPECT_EQ(out.delta.values, w.delta.values);
  EXPECT_EQ(out.shard_ops, w.shard_ops);
  EXPECT_EQ(out.lat_p50_ns, w.lat_p50_ns);
  EXPECT_EQ(out.lat_p99_ns, w.lat_p99_ns);
  EXPECT_EQ(out.seek_p50, w.seek_p50);
  EXPECT_EQ(out.seek_p99, w.seek_p99);
}

TEST(TelemetryRing, WrapRetainsOnlyLastCapacityWindows) {
  telemetry_ring ring;
  const std::uint64_t total = 3 * telemetry_ring::capacity + 5;
  for (std::uint64_t s = 0; s < total; ++s) ring.publish(make_window(s));
  EXPECT_EQ(ring.published(), total);

  telemetry_window out;
  // Overwritten windows refuse to read...
  EXPECT_FALSE(ring.read(0, out));
  EXPECT_FALSE(ring.read(total - telemetry_ring::capacity - 1, out));
  // ...retained ones read back exactly.
  for (std::uint64_t s = total - telemetry_ring::capacity; s < total; ++s) {
    ASSERT_TRUE(ring.read(s, out)) << "seq " << s;
    EXPECT_EQ(out.t0_ns, s * 100);
  }
  ASSERT_TRUE(ring.latest(out));
  EXPECT_EQ(out.seq, total - 1);
}

TEST(TelemetryRing, ConcurrentReadersNeverSeeTornWindows) {
  // The seqlock invariant: whatever a reader successfully returns must
  // be one of the windows the writer actually published — the
  // per-window checksum relation (shard_ops derived from seq) holds.
  // The writer publishes at least 50 000 windows and then keeps going
  // until every reader has returned one, so on an oversubscribed host
  // a reader that is scheduled late still races live publishes.
  constexpr int kReaders = 3;
  telemetry_ring ring;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> good_reads{0};
  std::atomic<int> readers_served{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      telemetry_window out;
      bool served = false;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!ring.latest(out)) continue;
        // Every field of a valid window is derived from its seq.
        ASSERT_EQ(out.t0_ns, out.seq * 100);
        ASSERT_EQ(out.t1_ns, out.seq * 100 + 100);
        ASSERT_EQ(out.lat_p50_ns, out.seq + 1);
        ASSERT_EQ(out.shard_ops[3], out.seq * 10 + 3);
        good_reads.fetch_add(1, std::memory_order_relaxed);
        if (!served) {
          served = true;
          readers_served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t s = 0;
  while (s < 50'000 ||
         (readers_served.load(std::memory_order_relaxed) < kReaders &&
          std::chrono::steady_clock::now() < deadline)) {
    ring.publish(make_window(s++));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  EXPECT_EQ(readers_served.load(), kReaders)
      << "a reader returned no window within 30 s of publishing";
  EXPECT_GT(good_reads.load(), 0u);
}

TEST(Sampler, WindowDeltaMatchesExecutedOps) {
  set_type set(4, 0, 1 << 16);
  sampler<set_type> smp(set);  // baseline primed at construction

  constexpr std::uint64_t inserts = 500, searches = 300, erases = 100;
  for (std::uint64_t i = 0; i < inserts; ++i) {
    set.insert(static_cast<std::int64_t>(i * 13 % (1 << 16)));
  }
  for (std::uint64_t i = 0; i < searches; ++i) {
    (void)set.contains(static_cast<std::int64_t>(i));
  }
  for (std::uint64_t i = 0; i < erases; ++i) {
    (void)set.erase(static_cast<std::int64_t>(i * 13 % (1 << 16)));
  }
  smp.sample_now();

  telemetry_window w;
  ASSERT_TRUE(smp.latest(w));
  EXPECT_EQ(w.delta.values[static_cast<std::size_t>(counter::ops_insert)],
            inserts);
  EXPECT_EQ(w.delta.values[static_cast<std::size_t>(counter::ops_search)],
            searches);
  EXPECT_EQ(w.delta.values[static_cast<std::size_t>(counter::ops_erase)],
            erases);
  EXPECT_EQ(w.point_ops(), inserts + searches + erases);
  EXPECT_GT(w.t1_ns, w.t0_ns);
  EXPECT_GT(w.ops_per_sec(), 0.0);
  // Single-threaded windows have real latency samples too.
  EXPECT_GT(w.lat_p99_ns, 0u);
  EXPECT_GE(w.lat_p99_ns, w.lat_p50_ns);
  EXPECT_GE(w.seek_p99, w.seek_p50);

  // The per-shard deltas decompose the total and the shares sum to 1.
  ASSERT_EQ(w.shard_count, 4u);
  std::uint64_t shard_sum = 0;
  double share_sum = 0.0;
  for (std::size_t s = 0; s < w.shard_count; ++s) {
    shard_sum += w.shard_ops[s];
    share_sum += w.shard_share(s);
  }
  EXPECT_EQ(shard_sum, w.point_ops());
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
  EXPECT_GE(w.max_shard_share(), 1.0 / 4);
  EXPECT_LE(w.max_shard_share(), 1.0);

  // A quiet second window: deltas are rates, so they drop back to zero.
  smp.sample_now();
  ASSERT_TRUE(smp.latest(w));
  EXPECT_EQ(w.point_ops(), 0u);
  EXPECT_EQ(smp.windows_published(), 2u);
}

TEST(Sampler, BackgroundThreadPublishesWindows) {
  set_type set(2, 0, 1 << 12);
  telemetry_options opts;
  opts.interval_ms = 5;
  sampler<set_type> smp(set, opts);
  smp.start();
  pcg32 rng(3);
  const auto deadline = trace_log::now_ns() + 2'000'000'000ull;
  while (smp.windows_published() < 3 && trace_log::now_ns() < deadline) {
    (void)set.insert(static_cast<std::int64_t>(rng.bounded(1 << 12)));
  }
  smp.stop();  // publishes one final window
  EXPECT_GE(smp.windows_published(), 3u);
  telemetry_window w;
  EXPECT_TRUE(smp.latest(w));
}

TEST(Heatmap, AttributesKeysToBuckets) {
  // shift 0 = record every op: attribution is exact.
  key_heatmap hm(0, 6400, /*sample_shift=*/0);
  EXPECT_EQ(hm.ops_per_sample(), 1u);
  for (std::int64_t k = 0; k < 100; ++k) hm.record(k);  // bucket 0
  for (std::int64_t k = 0; k < 50; ++k) hm.record(6399);  // top bucket
  EXPECT_EQ(hm.samples(), 150u);
  EXPECT_EQ(hm.bucket(0), 100u);
  EXPECT_EQ(hm.bucket(key_heatmap::bucket_count - 1), 50u);
  // Out-of-range keys clamp to the top bucket instead of vanishing.
  hm.record(1 << 20);
  hm.record(-5);
  EXPECT_EQ(hm.bucket(key_heatmap::bucket_count - 1), 52u);
  EXPECT_EQ(hm.bucket_lo(0), 0);
  EXPECT_LE(hm.bucket_lo(1), 6400 / 64 + 1);
  hm.reset();
  EXPECT_EQ(hm.samples(), 0u);
}

TEST(Heatmap, RecordingPolicyFeedsAttachedHeatmap) {
  // The full hook chain: tree op -> note_key -> recording::on_op_key ->
  // heatmap. Exact with shift 0.
  key_heatmap hm(0, 1 << 12, /*sample_shift=*/0);
  set_type set(2, 0, 1 << 12);
  set.for_each_shard_stats(
      [&](recording& st) { st.attach_heatmap(&hm); });
  constexpr std::uint64_t ops = 400;
  for (std::uint64_t i = 0; i < ops; ++i) {
    (void)set.insert(static_cast<std::int64_t>(i % (1 << 12)));
  }
  EXPECT_EQ(hm.samples(), ops);
  std::uint64_t across = 0;
  for (std::size_t b = 0; b < key_heatmap::bucket_count; ++b) {
    across += hm.bucket(b);
  }
  EXPECT_EQ(across, ops);
  set.for_each_shard_stats(
      [&](recording& st) { st.attach_heatmap(nullptr); });
  (void)set.insert(1);
  EXPECT_EQ(hm.samples(), ops) << "detached heatmap must stop recording";
}

TEST(Sampler, PrometheusTextCarriesTheFamilySet) {
  set_type set(2, 0, 1 << 12);
  key_heatmap hm(0, 1 << 12, 0);
  set.for_each_shard_stats(
      [&](recording& st) { st.attach_heatmap(&hm); });
  sampler<set_type> smp(set);
  smp.attach_heatmap(&hm);
  for (std::int64_t k = 0; k < 200; ++k) (void)set.insert(k);
  smp.sample_now();

  const std::string text = smp.prometheus_text();
  for (const char* needle :
       {"# TYPE lfbst_ops_insert_total counter",
        "lfbst_ops_search_total", "lfbst_ops_erase_total",
        "lfbst_shard_ops_total{shard=\"0\"}",
        "lfbst_windows_published_total 1",
        "lfbst_window_ops 200", "lfbst_window_ops_per_sec",
        "lfbst_shard_share{shard=\"1\"}", "lfbst_shard_share_max",
        "lfbst_latency_window_ns{quantile=\"0.5\"}",
        "lfbst_latency_window_ns{quantile=\"0.99\"}",
        "lfbst_seek_depth_window{quantile=\"0.5\"}",
        "lfbst_heatmap_samples_total 200",
        "lfbst_heatmap_ops_total{bucket=\"0\",lo=\"0\"}",
        "lfbst_flight_dumps_total 0"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing: " << needle << "\n"
        << text;
  }
}

/// Sum of the samples of `family` in a Prometheus text body.
std::uint64_t sum_of(const std::string& text, const std::string& family) {
  std::uint64_t sum = 0;
  const std::string prefix = "\n" + family + "{";
  for (std::size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    const std::size_t value = text.find("} ", at) + 2;
    sum += std::stoull(text.substr(value, text.find('\n', value) - value));
  }
  return sum;
}

TEST(Sampler, PoolGaugesSumToTheShardFootprints) {
  set_type set(4, 0, 1 << 14);
  for (std::int64_t k = 0; k < 5000; ++k) (void)set.insert(k * 3 % 16384);
  for (std::int64_t k = 0; k < 2000; ++k) (void)set.erase(k * 3 % 16384);
  sampler<set_type> smp(set);
  const std::string text = smp.prometheus_text();
  std::uint64_t footprint = 0, pending = 0;
  for (std::size_t i = 0; i < set.shard_count(); ++i) {
    footprint += set.shard(i).footprint_bytes();
    pending += set.shard(i).reclaimer_pending();
  }
  EXPECT_GT(footprint, 0u);
  EXPECT_NE(text.find("# TYPE lfbst_shard_pool_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("lfbst_shard_pool_bytes{shard=\"3\"}"),
            std::string::npos);
  EXPECT_EQ(sum_of(text, "lfbst_shard_pool_bytes"), footprint) << text;
  EXPECT_EQ(sum_of(text, "lfbst_shard_reclaim_pending"), pending) << text;
}

TEST(TraceLog, MinTimestampFilterCutsOldEvents) {
  trace_log log(1 << 8);
  log.emit(event_type::cas_fail, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t cut = trace_log::now_ns();
  log.emit(event_type::bts, 2);
  const std::string all = log.chrome_trace_json();
  const std::string recent = log.chrome_trace_json(cut);
  EXPECT_NE(all.find("cas_fail"), std::string::npos);
  EXPECT_NE(all.find("bts"), std::string::npos);
  EXPECT_EQ(recent.find("cas_fail"), std::string::npos)
      << "pre-cut event must be filtered";
  EXPECT_NE(recent.find("bts"), std::string::npos);
}

TEST(Sampler, FlightDumpWritesWindowedTraceFile) {
  set_type set(2, 0, 1 << 12);
  trace_log flight(1 << 10);
  set.for_each_shard_stats(
      [&](recording& st) { st.attach_trace(&flight); });
  const std::string path =
      ::testing::TempDir() + "lfbst_telemetry_flight.json";
  telemetry_options opts;
  opts.flight_path = path;
  opts.flight_window_ms = 60'000;  // keep everything this test emits
  sampler<set_type> smp(set, opts);
  smp.attach_flight_recorder(&flight);

  for (std::int64_t k = 0; k < 100; ++k) (void)set.insert(k);
  EXPECT_EQ(smp.flight_dumps(), 0u);
  smp.request_flight_dump();
  smp.sample_now();  // services the request synchronously
  EXPECT_EQ(smp.flight_dumps(), 1u);

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "dump file missing: " << path;
  std::string body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"B\""), std::string::npos)
      << "expected op spans from the recording hooks";
  EXPECT_EQ(body.back(), '}');
}

TEST(Sampler, ConcurrentScrapeWhileSamplingAndWriting) {
  // The TSan target: writers mutate, the sampler ticks, and a scraper
  // renders concurrently. Nothing to assert beyond "no race, valid
  // text" — the seqlock and racy-monotone reads carry the proof.
  set_type set(4, 0, 1 << 14);
  key_heatmap hm(0, 1 << 14);
  trace_log flight(1 << 8);
  set.for_each_shard_stats([&](recording& st) {
    st.attach_heatmap(&hm);
    st.attach_trace(&flight);
  });
  telemetry_options opts;
  opts.interval_ms = 2;
  sampler<set_type> smp(set, opts);
  smp.attach_heatmap(&hm);
  smp.attach_flight_recorder(&flight);
  smp.start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      pcg32 rng(static_cast<std::uint64_t>(t) + 17);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k = static_cast<std::int64_t>(rng.bounded(1 << 14));
        if (rng.bounded(2) == 0) {
          (void)set.insert(k);
        } else {
          (void)set.erase(k);
        }
      }
    });
  }
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = smp.prometheus_text();
      ASSERT_NE(text.find("lfbst_window_ops"), std::string::npos);
    }
  });
  smp.request_flight_dump();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  scraper.join();
  smp.stop();
  EXPECT_GT(smp.windows_published(), 0u);
  std::remove(smp.flight_path().c_str());
}

}  // namespace
}  // namespace lfbst::obs
