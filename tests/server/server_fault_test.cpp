// Fault injection against the TCP server: mid-request disconnects,
// half-written frames at close, RST teardowns, malformed framing,
// backpressure saturation from a slow reader, and graceful drain under
// load. The invariants under attack are always the same — the event
// loop never wedges (every join completes within a deadline), no
// connection leaks (accepted == closed after quiescence), a misbehaving
// connection harms only itself, and the set underneath keeps recording
// sane merged counters.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/natarajan_tree.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "shard/sharded_set.hpp"

namespace lfbst::server {
namespace {

using tree_type = nm_tree<std::int64_t, std::less<std::int64_t>,
                          reclaim::epoch, obs::recording>;
using set_type = shard::sharded_set<tree_type>;

constexpr std::int64_t kKeyRange = 1 << 14;

/// Polls `cond` until it holds or the deadline passes. The fault tests
/// assert liveness, so every wait is bounded.
template <typename Cond>
[[nodiscard]] bool eventually(Cond&& cond, int deadline_ms = 10'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// join() bounded by a watchdog: a wedged event loop fails the test
/// instead of hanging the suite until the ctest TIMEOUT kill.
template <typename Set>
[[nodiscard]] bool join_within(basic_server<Set>& server, int deadline_ms) {
  std::atomic<bool> joined{false};
  std::thread joiner([&] {
    server.join();
    joined.store(true, std::memory_order_release);
  });
  const bool ok = eventually(
      [&] { return joined.load(std::memory_order_acquire); }, deadline_ms);
  if (!ok) server.stop();  // unwedge so the joiner thread can finish
  joiner.join();
  return ok;
}

TEST(ServerFault, MidRequestDisconnectsDoNotLeakOrWedge) {
  set_type set(8, 0, kKeyRange);
  basic_server<set_type> server(set, {.event_threads = 2});
  ASSERT_TRUE(server.start());
  constexpr unsigned kConns = 48;
  request req;
  req.op = opcode::insert;
  req.id = 1;
  req.key = 77;
  std::vector<std::uint8_t> frame;
  encode_request(frame, req);
  for (unsigned i = 0; i < kConns; ++i) {
    client c;
    ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
    switch (i % 4) {
      case 0:  // nothing at all — connect and vanish
        break;
      case 1:  // half a length prefix
        ASSERT_TRUE(c.send_raw(frame.data(), 2));
        break;
      case 2:  // full prefix, half a body
        ASSERT_TRUE(c.send_raw(frame.data(), frame.size() - 5));
        break;
      default: {  // one complete frame plus a torn second one
        ASSERT_TRUE(c.send_raw(frame.data(), frame.size()));
        response resp;  // consume the response so the close is a clean
        ASSERT_TRUE(c.recv_response(resp));  // FIN, not an RST that could
        EXPECT_EQ(resp.op, opcode::insert);  // discard the insert
        ASSERT_TRUE(c.send_raw(frame.data(), 7));
        break;
      }
    }
    c.close();  // abrupt, mid-frame for cases 1-3
  }
  // Every connection must be reaped without any drain being requested.
  ASSERT_TRUE(eventually([&] {
    return server.stats().connections_accepted.load() == kConns &&
           server.stats().connections_closed.load() == kConns;
  })) << "leaked connections: accepted "
      << server.stats().connections_accepted.load() << ", closed "
      << server.stats().connections_closed.load();
  // A torn frame is not a protocol error — just an unfinished one.
  EXPECT_EQ(server.stats().protocol_errors.load(), 0u);
  // The loop is still alive and serving.
  client probe;
  ASSERT_TRUE(probe.connect("127.0.0.1", server.port()));
  bool present = false;
  ASSERT_TRUE(probe.get(77, present));
  EXPECT_TRUE(present);  // the complete frames did execute
  probe.close();
  server.stop();
  ASSERT_TRUE(join_within(server, 10'000));
  EXPECT_EQ(server.stats().connections_accepted.load(),
            server.stats().connections_closed.load());
}

TEST(ServerFault, MalformedFrameGetsNackedThenClosed) {
  set_type set(8, 0, kKeyRange);
  basic_server<set_type> server(set, {.event_threads = 1});
  ASSERT_TRUE(server.start());
  client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  // A well-formed request first: its response must arrive before the
  // NACK (responses never overtake each other on one connection).
  bool inserted = false;
  ASSERT_TRUE(c.insert(5, inserted));
  request good;
  good.op = opcode::get;
  good.id = 1000;
  good.key = 5;
  ASSERT_TRUE(c.send_request(good));
  std::vector<std::uint8_t> bad;
  const std::size_t frame = detail::begin_frame(bad);
  wire::put_u8(bad, 99);  // unknown opcode
  wire::put_u64(bad, 2000);
  detail::end_frame(bad, frame);
  ASSERT_TRUE(c.send_raw(bad.data(), bad.size()));
  response resp;
  ASSERT_TRUE(c.recv_response(resp));
  EXPECT_EQ(resp.id, 1000u);
  EXPECT_EQ(resp.status, status_code::ok);
  EXPECT_TRUE(resp.result);
  ASSERT_TRUE(c.recv_response(resp));
  EXPECT_EQ(resp.status, status_code::malformed);
  EXPECT_EQ(resp.id, 2000u);  // id salvaged from the bad frame's prefix
  EXPECT_FALSE(c.recv_response(resp));  // then the stream is closed
  EXPECT_EQ(server.stats().protocol_errors.load(), 1u);
  ASSERT_TRUE(eventually([&] {
    return server.stats().connections_closed.load() == 1u;
  }));
  server.stop();
  ASSERT_TRUE(join_within(server, 10'000));
}

TEST(ServerFault, SlowReaderHitsBackpressureWithoutStallingOthers) {
  set_type set(8, 0, kKeyRange);
  server_config cfg;
  cfg.event_threads = 1;  // same loop serves both clients: the stronger claim
  cfg.write_buffer_cap = 64 * 1024;
  cfg.write_buffer_resume = 16 * 1024;
  ASSERT_LT(cfg.write_buffer_cap, static_cast<std::size_t>(500) * 8 * 1024);
  basic_server<set_type> server(set, cfg);
  ASSERT_TRUE(server.start());

  {  // ~1024 keys so every scan response is ~8 KiB
    client seed;
    ASSERT_TRUE(seed.connect("127.0.0.1", server.port()));
    std::vector<std::int64_t> keys;
    for (std::int64_t k = 0; k < kKeyRange; k += 16) keys.push_back(k);
    std::vector<bool> results;
    ASSERT_TRUE(seed.batch(opcode::insert, keys, results));
  }

  client slow;
  ASSERT_TRUE(slow.connect("127.0.0.1", server.port()));
  constexpr int kScans = 500;
  for (int i = 0; i < kScans; ++i) {
    request req;
    req.op = opcode::range_scan;
    req.id = static_cast<std::uint64_t>(i);
    req.lo = 0;
    req.hi = kKeyRange;
    req.max_items = max_scan_items;
    ASSERT_TRUE(slow.send_request(req));  // ...and never read
  }
  // The server must stop reading/serving this connection once its write
  // buffer crosses the cap instead of buffering ~4 MB of responses.
  ASSERT_TRUE(eventually([&] {
    return server.stats().backpressure_pauses.load() > 0;
  })) << "slow reader never tripped backpressure";

  // A well-behaved client on the SAME event loop stays fully served
  // while the slow one is saturated.
  client nimble;
  ASSERT_TRUE(nimble.connect("127.0.0.1", server.port()));
  for (int i = 0; i < 50; ++i) {
    bool r = false;
    ASSERT_TRUE(nimble.insert(1 + 16 * i + 8, r)) << "iteration " << i;
  }
  nimble.close();

  // Now drain the slow connection: every response arrives, in order,
  // each the full sorted page.
  slow.set_recv_timeout_ms(60'000);
  for (int i = 0; i < kScans; ++i) {
    response resp;
    ASSERT_TRUE(slow.recv_response(resp)) << "response " << i;
    ASSERT_EQ(resp.id, static_cast<std::uint64_t>(i));
    ASSERT_EQ(resp.status, status_code::ok);
    ASSERT_GE(resp.keys.size(), 1024u);
    ASSERT_FALSE(resp.truncated);
  }
  slow.close();
  server.stop();
  ASSERT_TRUE(join_within(server, 10'000));
  EXPECT_GT(server.stats().backpressure_pauses.load(), 0u);
  EXPECT_EQ(server.stats().connections_accepted.load(),
            server.stats().connections_closed.load());
}

TEST(ServerFault, GracefulDrainUnderLoadAnswersOrNacksEverything) {
  set_type set(8, 0, kKeyRange);
  server_config cfg;
  cfg.event_threads = 2;
  cfg.drain_deadline_ms = 5000;
  basic_server<set_type> server(set, cfg);
  ASSERT_TRUE(server.start());

  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> nacked{0};
  std::vector<std::thread> threads;
  std::atomic<bool> drain_now{false};
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      client c;
      if (!c.connect("127.0.0.1", server.port())) {
        ++failures;
        return;
      }
      pcg32 rng = pcg32::for_thread(5, static_cast<unsigned>(t));
      std::uint64_t sent = 0;
      // Pipeline writes in bursts until the drain flag rises, then
      // half-close and read the tail.
      while (!drain_now.load(std::memory_order_acquire)) {
        for (int burst = 0; burst < 32; ++burst) {
          request req;
          req.op = static_cast<opcode>(1 + rng.bounded(3));
          req.id = sent;
          req.key = rng.bounded(static_cast<std::uint32_t>(kKeyRange));
          if (!c.send_request(req)) {
            // The server may already have closed the socket mid-drain;
            // that is a legal outcome, not a failure.
            c.shutdown_send();
            goto read_tail;
          }
          ++sent;
        }
        // Read a few to keep the pipe moving (but stay behind).
        for (int burst = 0; burst < 16; ++burst) {
          response resp;
          if (!c.recv_response(resp)) {
            ++failures;  // before the drain, responses must flow
            return;
          }
          ++answered;
        }
      }
      c.shutdown_send();
    read_tail:
      // Every remaining response is either ok or shutting_down, ids
      // strictly in send order; then clean EOF. Nothing hangs.
      for (;;) {
        response resp;
        if (!c.recv_response(resp)) break;  // EOF (or deadline close)
        if (resp.status == status_code::ok) {
          ++answered;
        } else if (resp.status == status_code::shutting_down) {
          ++nacked;
        } else {
          ++failures;
        }
      }
    });
  }

  // Let the load build, then drain mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  drain_now.store(true, std::memory_order_release);
  server.begin_drain();
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(join_within(server, 15'000)) << "drain wedged the loop";
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            10'000);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answered.load(), 0u);
  // After join, accounting is quiescent and exact.
  const auto& st = server.stats();
  EXPECT_EQ(st.connections_accepted.load(), st.connections_closed.load());
  EXPECT_EQ(st.frames_in.load() + st.rejected_shutting_down.load() +
                st.protocol_errors.load(),
            st.responses_out.load());
  // The post-drain listener is really closed.
  client late;
  EXPECT_FALSE(late.connect("127.0.0.1", server.port()) && late.ping());
  // merged_counters sees the applied load (frames admitted -> tree ops).
  const auto counters = set.merged_counters();
  EXPECT_GT(counters[obs::counter::ops_search] +
                counters[obs::counter::ops_insert] +
                counters[obs::counter::ops_erase],
            0u);
}

TEST(ServerFault, HardStopClosesEverythingImmediately) {
  set_type set(8, 0, kKeyRange);
  basic_server<set_type> server(set, {.event_threads = 3});
  ASSERT_TRUE(server.start());
  std::vector<client> clients(8);
  for (auto& c : clients) {
    ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
    ASSERT_TRUE(c.ping());
  }
  server.stop();
  ASSERT_TRUE(join_within(server, 10'000));
  EXPECT_EQ(server.stats().connections_accepted.load(), 8u);
  EXPECT_EQ(server.stats().connections_closed.load(), 8u);
  // Clients observe EOF, not a hang.
  for (auto& c : clients) {
    response resp;
    EXPECT_FALSE(c.recv_response(resp));
  }
}

TEST(ServerFault, DrainOnAnIdleServerTerminatesPromptly) {
  set_type set(8, 0, kKeyRange);
  basic_server<set_type> server(set, {});
  ASSERT_TRUE(server.start());
  server.begin_drain();
  ASSERT_TRUE(join_within(server, 5'000));
  EXPECT_EQ(server.stats().connections_accepted.load(), 0u);
}

/// `n` get frames with ids 0..n-1, encoded back to back.
std::vector<std::uint8_t> pipelined_gets(int n) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < n; ++i) {
    request req;
    req.op = opcode::get;
    req.id = static_cast<std::uint64_t>(i);
    req.key = i;
    encode_request(bytes, req);
  }
  return bytes;
}

/// Reads `n` responses and checks they answer ids 0..n-1 in order.
void expect_answers_in_order(client& c, int n) {
  for (int i = 0; i < n; ++i) {
    response resp;
    ASSERT_TRUE(c.recv_response(resp)) << "response " << i << " of " << n;
    ASSERT_EQ(resp.id, static_cast<std::uint64_t>(i));
    ASSERT_EQ(resp.op, opcode::get);
    ASSERT_EQ(resp.status, status_code::ok);
  }
}

TEST(ServerFault, PipelineDeeperThanMaxInflightIsFullyAnswered) {
  // Frames past the inflight cap wait in the read buffer; they must be
  // decoded as the inbox empties, not only when more bytes arrive.
  set_type set(8, 0, kKeyRange);
  basic_server<set_type> server(set, {.event_threads = 1, .max_inflight = 8});
  ASSERT_TRUE(server.start());
  client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  c.set_recv_timeout_ms(2'000);
  constexpr int kFrames = 100;
  const std::vector<std::uint8_t> bytes = pipelined_gets(kFrames);
  ASSERT_TRUE(c.send_raw(bytes.data(), bytes.size()));  // one write
  expect_answers_in_order(c, kFrames);
  c.close();
  server.stop();
  ASSERT_TRUE(join_within(server, 10'000));
  EXPECT_EQ(server.stats().frames_in.load(), static_cast<unsigned>(kFrames));
}

TEST(ServerFault, HalfCloseAfterPipelineAnswersEverythingThenCloses) {
  // The server may see the frames and the EOF in separate reads; every
  // frame is still answered, in order, before the close.
  set_type set(8, 0, kKeyRange);
  basic_server<set_type> server(set, {.event_threads = 1});
  ASSERT_TRUE(server.start());
  client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  constexpr int kFrames = 300;
  const std::vector<std::uint8_t> bytes = pipelined_gets(kFrames);
  ASSERT_TRUE(c.send_raw(bytes.data(), bytes.size()));
  c.shutdown_send();
  expect_answers_in_order(c, kFrames);
  response extra;
  EXPECT_FALSE(c.recv_response(extra));  // then EOF
  ASSERT_TRUE(eventually([&] {
    return server.stats().connections_closed.load() == 1u;
  }));
  server.stop();
  ASSERT_TRUE(join_within(server, 10'000));
  EXPECT_EQ(server.stats().responses_out.load(),
            static_cast<unsigned>(kFrames));
}

TEST(ServerFault, FrameSplitAcrossWritesIsAnsweredOnceComplete) {
  set_type set(8, 0, kKeyRange);
  basic_server<set_type> server(set, {.event_threads = 1});
  ASSERT_TRUE(server.start());
  client c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  // One whole frame and the first half of a second in one write.
  const std::vector<std::uint8_t> bytes = pipelined_gets(2);
  const std::size_t frame = bytes.size() / 2;
  const std::size_t cut = frame + frame / 2;
  ASSERT_TRUE(c.send_raw(bytes.data(), cut));
  expect_answers_in_order(c, 1);
  // The torn frame gets no answer while it stays torn...
  pollfd pfd{};
  pfd.fd = c.fd();
  pfd.events = POLLIN;
  EXPECT_EQ(::poll(&pfd, 1, 50), 0);
  // ...and exactly one once the rest arrives.
  ASSERT_TRUE(c.send_raw(bytes.data() + cut, bytes.size() - cut));
  response resp;
  ASSERT_TRUE(c.recv_response(resp));
  EXPECT_EQ(resp.id, 1u);
  EXPECT_EQ(resp.status, status_code::ok);
  EXPECT_EQ(::poll(&pfd, 1, 50), 0);
  c.close();
  server.stop();
  ASSERT_TRUE(join_within(server, 10'000));
  EXPECT_EQ(server.stats().frames_in.load(), 2u);
}

}  // namespace
}  // namespace lfbst::server
