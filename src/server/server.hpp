// lfbst server: a TCP front-end that serves a concurrent set over the
// length-prefixed wire protocol of src/server/protocol.hpp — the layer
// that turns the NM-BST reproduction into a network service and forces
// honest answers about batching, admission and tail latency.
//
// Architecture (Linux epoll, level-agnostic one-shot-free design):
//
//   * `event_threads` event loops, each with its own epoll instance and
//     its own set of connections (no connection is ever touched by two
//     loops, so per-connection state needs no locks). Loop 0 owns the
//     listening socket and hands accepted connections out round-robin
//     via per-loop eventfd-signalled inboxes.
//   * Per connection: a read buffer fed by non-blocking reads (a read
//     pass stops at the first short read; level-triggered epoll reports
//     later bytes and EOF), a decoded-request inbox (the *bounded
//     per-connection queue*, cap `max_inflight`, refilled from the read
//     buffer whenever it has room), and a write buffer flushed
//     opportunistically and then by EPOLLOUT.
//   * Request coalescing: the inbox is drained in maximal runs of
//     same-opcode point requests (get/get/get...), and each run is
//     executed through one contains_batch / insert_batch / erase_batch
//     call, so the set's per-call work amortizes across the whole
//     pipelined run. Responses are emitted in input
//     order (the protocol has request ids, but order is guaranteed per
//     connection anyway).
//   * Backpressure: when a connection's unflushed write bytes exceed
//     `write_buffer_cap`, the loop stops draining its inbox and stops
//     reading from its socket (EPOLLIN disarmed) until EPOLLOUT flushes
//     it below `write_buffer_resume` — a slow reader throttles only
//     itself; TCP pushes the backpressure to the client.
//   * Spin-then-block: after a batch of events a loop polls with
//     timeout 0 (yielding between empty polls) until `idle_spin_ns`
//     passes idle, then blocks in epoll_wait — closely spaced requests
//     find the loop awake instead of each paying a vCPU wake-up.
//   * Graceful drain (begin_drain(), async-signal-safe; see
//     drain_on_sigterm): stop accepting, answer every request received
//     before the drain, NACK (status shutting_down) frames that were
//     still in the kernel socket buffer, flush, close. A drain deadline
//     force-closes stragglers so join() always returns.
//
// Scan requests use shard::sharded_set::range_scan_limit — the
// bounded-result form — so one scan of a huge subrange returns one
// clamped page plus a continuation key instead of head-of-line-blocking
// the connection behind a multi-megabyte response.
//
// Observability: per-request service latency (from the read pass that
// admitted the request to the end of its executed run; one clock read
// per decode pass and one per run) flows through an
// obs::latency_observer (get and range_scan record as op_kind::search;
// a batch frame records one sample under its sub-op), and the server
// keeps its own wire-level counters
// (server_stats). The tree-level attribution lives in the set itself
// (e.g. sharded_set::merged_counters() when the inner tree records).
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>  // NOLINT: sigaction needs the POSIX header
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "server/protocol.hpp"

namespace lfbst::server {

struct server_config {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral port
  unsigned event_threads = 1;
  /// Backpressure: pause reading/executing above cap, resume below.
  std::size_t write_buffer_cap = 4u << 20;
  std::size_t write_buffer_resume = 1u << 20;
  /// Bounded per-connection queue of decoded-but-unexecuted requests.
  std::size_t max_inflight = 1024;
  /// Page size used when a scan request leaves max_items = 0.
  std::uint32_t default_scan_items = 4096;
  /// Grace period for flushing during drain before force-closing.
  std::uint64_t drain_deadline_ms = 5000;
  int listen_backlog = 128;
};

/// Wire-level counters. Monotonic, relaxed; read them after join() (or
/// accept racy monotonic reads, as with obs::metrics).
struct server_stats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> responses_out{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> rejected_shutting_down{0};
  std::atomic<std::uint64_t> coalesced_groups{0};
  std::atomic<std::uint64_t> coalesced_ops{0};
  std::atomic<std::uint64_t> backpressure_pauses{0};
  std::atomic<std::uint64_t> stat_requests{0};
  /// Event batches by how the loop found them: a blocking epoll_wait
  /// that returned events (the loop was asleep), or a zero-timeout poll
  /// inside the spin window (no wake-up paid).
  std::atomic<std::uint64_t> loop_blocking_wakeups{0};
  std::atomic<std::uint64_t> loop_spin_hits{0};
};

/// Renders the wire-level counters as Prometheus families
/// (lfbst_server_* name table in docs/TELEMETRY.md); composed with the
/// telemetry sampler's families by the exposition endpoint.
inline void render_prometheus(obs::prometheus_writer& w,
                              const server_stats& s) {
  const auto emit = [&w](const char* name, const char* help,
                         const std::atomic<std::uint64_t>& v) {
    w.family(name, help, "counter");
    w.sample(name, "", v.load(std::memory_order_relaxed));
  };
  emit("lfbst_server_connections_accepted_total", "Accepted connections.",
       s.connections_accepted);
  emit("lfbst_server_connections_closed_total", "Closed connections.",
       s.connections_closed);
  emit("lfbst_server_frames_in_total", "Request frames decoded.",
       s.frames_in);
  emit("lfbst_server_responses_out_total", "Response frames encoded.",
       s.responses_out);
  emit("lfbst_server_bytes_in_total", "Bytes read from sockets.",
       s.bytes_in);
  emit("lfbst_server_bytes_out_total", "Bytes written to sockets.",
       s.bytes_out);
  emit("lfbst_server_protocol_errors_total",
       "Connections dropped on bad frames.", s.protocol_errors);
  emit("lfbst_server_rejected_shutting_down_total",
       "Requests NACKed during drain.", s.rejected_shutting_down);
  emit("lfbst_server_coalesced_groups_total",
       "Pipelined runs coalesced into batch calls.", s.coalesced_groups);
  emit("lfbst_server_coalesced_ops_total", "Ops inside coalesced runs.",
       s.coalesced_ops);
  emit("lfbst_server_backpressure_pauses_total",
       "Reads paused on write-buffer cap.", s.backpressure_pauses);
  emit("lfbst_server_stat_requests_total", "stat-opcode requests served.",
       s.stat_requests);
  emit("lfbst_server_loop_blocking_wakeups_total",
       "Blocking epoll waits that returned events.", s.loop_blocking_wakeups);
  emit("lfbst_server_loop_spin_hits_total",
       "Spin-window polls that returned events.", s.loop_spin_hits);
}

/// TCP server over any set exposing the sharded_set surface:
/// contains/insert/erase (+ the *_batch forms) and range_scan_limit.
/// The server borrows the set — callers keep ownership so they can
/// read merged metrics or keep using it after the server stops.
template <typename Set>
class basic_server {
 public:
  using set_type = Set;

  explicit basic_server(Set& set, server_config cfg = {})
      : set_(&set), cfg_(std::move(cfg)) {
    if (cfg_.event_threads == 0) cfg_.event_threads = 1;
    if (cfg_.write_buffer_resume > cfg_.write_buffer_cap) {
      cfg_.write_buffer_resume = cfg_.write_buffer_cap;
    }
    if (cfg_.max_inflight == 0) cfg_.max_inflight = 1;
  }

  basic_server(const basic_server&) = delete;
  basic_server& operator=(const basic_server&) = delete;

  ~basic_server() {
    stop();
    join();
  }

  /// Binds, listens, spawns the event threads. False on socket errors
  /// (port in use, exhausted fds); the server is then inert.
  [[nodiscard]] bool start() {
    if (started_) return false;
    listen_fd_ = make_listener();
    if (listen_fd_ < 0) return false;
    loops_.reserve(cfg_.event_threads);
    for (unsigned i = 0; i < cfg_.event_threads; ++i) {
      auto lp = std::make_unique<loop>();
      lp->epfd = epoll_create1(EPOLL_CLOEXEC);
      lp->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (lp->epfd < 0 || lp->wake_fd < 0) {
        if (lp->epfd >= 0) ::close(lp->epfd);
        if (lp->wake_fd >= 0) ::close(lp->wake_fd);
        teardown_sockets();
        return false;
      }
      add_interest(lp->epfd, lp->wake_fd, EPOLLIN);
      loops_.push_back(std::move(lp));
    }
    add_interest(loops_[0]->epfd, listen_fd_, EPOLLIN);
    started_ = true;
    for (unsigned i = 0; i < cfg_.event_threads; ++i) {
      loops_[i]->thr = std::thread([this, i] { run(i); });
    }
    return true;
  }

  /// The bound port (useful with cfg.port = 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Begins a graceful drain: stop accepting, answer everything
  /// received so far, NACK late frames, flush, close, exit the loops.
  /// Async-signal-safe (an atomic store plus eventfd writes) so a
  /// SIGTERM handler may call it directly.
  void begin_drain() noexcept {
    drain_.store(true, std::memory_order_release);
    wake_all();
  }

  /// Hard stop: close every connection immediately, flushed or not.
  void stop() noexcept {
    stop_.store(true, std::memory_order_release);
    wake_all();
  }

  /// Joins the event threads (returns immediately if never started).
  /// After join() all sockets are closed and stats are final.
  void join() {
    for (auto& lp : loops_) {
      if (lp->thr.joinable()) lp->thr.join();
    }
    teardown_sockets();
  }

  [[nodiscard]] const server_stats& stats() const noexcept { return stats_; }

  /// Per-request service latency (admitting read pass to the end of the
  /// executed run), striped per event thread. Quiescence (join)
  /// required for merged reads.
  [[nodiscard]] obs::latency_observer& latency() noexcept {
    return latency_;
  }

  [[nodiscard]] const server_config& config() const noexcept { return cfg_; }

  /// Fills a stat response's snapshot from the live telemetry (flags
  /// are the request's stat_flag_* bits). Install before start(); with
  /// no handler the stat opcode still answers, with a zeroed snapshot
  /// (version and now_ns only), so the opcode's availability does not
  /// depend on telemetry wiring.
  using stat_handler = std::function<void(std::uint32_t, stat_result&)>;
  void set_stat_handler(stat_handler h) { stat_handler_ = std::move(h); }

 private:
  struct pending_request {
    request req;
    std::uint64_t t0_ns = 0;  // the decode pass that admitted it
  };

  struct connection {
    int fd = -1;
    std::vector<std::uint8_t> rbuf;
    std::size_t rpos = 0;  // consumed prefix of rbuf
    std::deque<pending_request> inbox;
    std::vector<std::int64_t> run_keys;  // reused by every coalesced run
    std::vector<std::uint8_t> wbuf;
    std::size_t wpos = 0;  // flushed prefix of wbuf
    std::uint32_t armed = 0;  // epoll interest currently registered
    bool paused = false;      // reading suspended by backpressure
    bool eof = false;         // peer half-closed; answer then close
    bool closing = false;     // flush wbuf, then close
    bool drained = false;     // this connection saw the drain sweep
  };

  struct loop {
    int epfd = -1;
    int wake_fd = -1;
    std::thread thr;
    std::unordered_map<int, std::unique_ptr<connection>> conns;
    std::mutex inbox_mu;
    std::vector<int> inbox;  // fds handed over by the acceptor
  };

  // --- socket plumbing -----------------------------------------------

  [[nodiscard]] int make_listener() {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    const int one = 1;
    (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return -1;
    }
    if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(fd, cfg_.listen_backlog) != 0) {
      ::close(fd);
      return -1;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
      port_ = ntohs(bound.sin_port);
    }
    return fd;
  }

  void teardown_sockets() {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (auto& lp : loops_) {
      for (auto& [fd, conn] : lp->conns) {
        (void)conn;
        ::close(fd);
        stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
      }
      lp->conns.clear();
      if (lp->epfd >= 0) {
        ::close(lp->epfd);
        lp->epfd = -1;
      }
      if (lp->wake_fd >= 0) {
        ::close(lp->wake_fd);
        lp->wake_fd = -1;
      }
    }
  }

  static void add_interest(int epfd, int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    (void)epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  }

  void wake_all() noexcept {
    const std::uint64_t one = 1;
    for (auto& lp : loops_) {
      if (lp->wake_fd >= 0) {
        [[maybe_unused]] ssize_t n = ::write(lp->wake_fd, &one, sizeof(one));
      }
    }
  }

  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // --- the event loop -------------------------------------------------

  /// After a batch of events a loop keeps polling with timeout 0 until
  /// this long passes with nothing ready, and only then blocks. The
  /// window must exceed a vCPU wake-up (about 10 us on a 4-vCPU VM),
  /// so a request that follows its predecessor within it finds the loop
  /// awake; 50 us is what the kernel's net.core.busy_read documentation
  /// recommends. Cost: at most 50 us of CPU per busy-to-idle transition
  /// per loop (a loop whose requests arrive closer than that never
  /// sleeps while they keep coming).
  static constexpr std::uint64_t idle_spin_ns = 50'000;

  void run(unsigned index) {
    loop& lp = *loops_[index];
    std::vector<epoll_event> events(128);
    std::uint64_t drain_started_ns = 0;
    bool draining_seen = false;
    std::uint64_t spin_until_ns = 0;
    for (;;) {
      const bool stopping = stop_.load(std::memory_order_acquire);
      const bool draining = drain_.load(std::memory_order_acquire);
      if (stopping) {
        close_all(lp);
        return;
      }
      if (draining) {
        if (!draining_seen) {
          draining_seen = true;
          drain_started_ns = now_ns();
          begin_drain_on_loop(lp, index);
        } else if (now_ns() - drain_started_ns >
                   cfg_.drain_deadline_ms * 1'000'000ull) {
          close_all(lp);  // deadline: abandon unflushed bytes
          return;
        }
        if (lp.conns.empty()) return;
      }
      const bool spinning = now_ns() < spin_until_ns;
      const int timeout_ms = spinning ? 0 : draining ? 20 : 200;
      const int n = epoll_wait(lp.epfd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        close_all(lp);
        return;
      }
      if (n == 0) {
        // An empty poll hands a shared core to its other threads
        // instead of holding it for the rest of the window.
        if (spinning) std::this_thread::yield();
        continue;
      }
      (spinning ? stats_.loop_spin_hits : stats_.loop_blocking_wakeups)
          .fetch_add(1, std::memory_order_relaxed);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const std::uint32_t ev = events[i].events;
        if (fd == lp.wake_fd) {
          drain_wakeups(lp);
          continue;
        }
        if (fd == listen_fd_) {
          if (!draining) accept_ready(lp);
          continue;
        }
        auto it = lp.conns.find(fd);
        if (it == lp.conns.end()) continue;
        connection& conn = *it->second;
        bool alive = true;
        if ((ev & (EPOLLERR | EPOLLHUP)) != 0 && (ev & EPOLLIN) == 0) {
          alive = false;
        }
        if (alive && (ev & EPOLLOUT) != 0) alive = on_writable(conn);
        if (alive && (ev & EPOLLIN) != 0) alive = on_readable(conn);
        if (alive && (ev & (EPOLLERR | EPOLLHUP)) != 0) alive = false;
        if (alive && conn.closing && write_bytes(conn) == 0 &&
            conn.inbox.empty()) {
          alive = false;
        }
        if (!alive) {
          close_connection(lp, fd);
        } else {
          update_interest(lp, conn);
        }
      }
      spin_until_ns = now_ns() + idle_spin_ns;
    }
  }

  void drain_wakeups(loop& lp) {
    std::uint64_t junk = 0;
    while (::read(lp.wake_fd, &junk, sizeof(junk)) > 0) {
    }
    std::vector<int> handed;
    {
      std::lock_guard<std::mutex> guard(lp.inbox_mu);
      handed.swap(lp.inbox);
    }
    for (int fd : handed) adopt_connection(lp, fd);
  }

  void accept_ready(loop& lp0) {
    for (;;) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN and friends: nothing more to accept
      const int one = 1;
      (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      const unsigned target = next_loop_++ % cfg_.event_threads;
      if (target == 0) {
        adopt_connection(lp0, fd);
      } else {
        loop& lp = *loops_[target];
        {
          std::lock_guard<std::mutex> guard(lp.inbox_mu);
          lp.inbox.push_back(fd);
        }
        const std::uint64_t one64 = 1;
        [[maybe_unused]] ssize_t n =
            ::write(lp.wake_fd, &one64, sizeof(one64));
      }
    }
  }

  void adopt_connection(loop& lp, int fd) {
    auto conn = std::make_unique<connection>();
    conn->fd = fd;
    conn->armed = EPOLLIN;
    add_interest(lp.epfd, fd, EPOLLIN);
    connection& ref = *conn;
    lp.conns.emplace(fd, std::move(conn));
    // A connection handed over after the drain began still gets the
    // drain protocol instead of lingering until the deadline.
    if (drain_.load(std::memory_order_acquire)) {
      if (!drain_sweep(ref)) {
        close_connection(lp, fd);
      } else {
        update_interest(lp, ref);
      }
    }
  }

  void close_connection(loop& lp, int fd) {
    auto it = lp.conns.find(fd);
    if (it == lp.conns.end()) return;
    (void)epoll_ctl(lp.epfd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
    lp.conns.erase(it);
    stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  }

  void close_all(loop& lp) {
    while (!lp.conns.empty()) {
      close_connection(lp, lp.conns.begin()->first);
    }
  }

  /// Drain entry per loop: close the listener once (loop 0), then give
  /// every connection the drain sweep: answer what was received, NACK
  /// what was still in flight, flush-and-close.
  void begin_drain_on_loop(loop& lp, unsigned index) {
    if (index == 0 && listen_fd_ >= 0) {
      (void)epoll_ctl(lp.epfd, EPOLL_CTL_DEL, listen_fd_, nullptr);
    }
    std::vector<int> dead;
    for (auto& [fd, conn_ptr] : lp.conns) {
      connection& conn = *conn_ptr;
      if (!drain_sweep(conn)) {
        dead.push_back(fd);
      } else {
        update_interest(lp, conn);
      }
    }
    for (int fd : dead) close_connection(lp, fd);
  }

  /// One connection's graceful-drain protocol. Returns false when the
  /// connection is finished and should be closed now.
  [[nodiscard]] bool drain_sweep(connection& conn) {
    conn.drained = true;
    // 1. Frames already in user space were admitted: decode the read
    //    buffer without the inflight bound and answer every one, in
    //    input order, before any NACK can overtake them.
    const bool stream_ok = decode_into_inbox(conn, /*bounded=*/false);
    execute_inbox(conn, /*respect_cap=*/false);
    if (!stream_ok) conn.inbox.clear();
    // 2. One final sweep of the kernel socket buffer: those frames
    //    raced the drain and are NACKed so the client knows to retry
    //    elsewhere rather than time out on silence.
    if (!conn.closing) (void)read_available(conn);
    for (;;) {
      request req;
      std::size_t consumed = 0;
      const decode_status st = try_decode_request(
          conn.rbuf.data() + conn.rpos, conn.rbuf.size() - conn.rpos, req,
          consumed);
      if (st != decode_status::ok) break;
      conn.rpos += consumed;
      response resp;
      resp.op = req.op;
      resp.id = req.id;
      resp.status = status_code::shutting_down;
      encode_response(conn.wbuf, resp);
      stats_.rejected_shutting_down.fetch_add(1, std::memory_order_relaxed);
      stats_.responses_out.fetch_add(1, std::memory_order_relaxed);
    }
    // 3. Flush; keep the connection only while bytes remain queued.
    conn.closing = true;
    if (!flush_writes(conn)) return false;
    return write_bytes(conn) > 0;
  }

  // --- per-connection read/decode/execute/write ----------------------

  [[nodiscard]] std::size_t write_bytes(const connection& conn) const {
    return conn.wbuf.size() - conn.wpos;
  }

  /// Non-blocking read into rbuf until a short read, EOF, or a full
  /// buffer's worth. A short read means the socket was empty: the read
  /// that would only return EAGAIN is skipped, since level-triggered
  /// epoll reports later bytes and EOF on a later pass. Returns false on
  /// a fatal socket error.
  [[nodiscard]] bool read_available(connection& conn) {
    std::uint8_t chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
      if (n > 0) {
        conn.rbuf.insert(conn.rbuf.end(), chunk, chunk + n);
        stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
        if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
        // One frame + one max frame of lookahead bounds the buffer.
        if (conn.rbuf.size() - conn.rpos > 2 * (max_frame_bytes + 4)) {
          return true;
        }
        continue;
      }
      if (n == 0) {
        conn.eof = true;
        return true;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // ECONNRESET and friends
    }
  }

  /// Moves complete frames from rbuf into the inbox; the pass reads the
  /// clock once and counts its frames once. Returns false on a protocol
  /// error (a malformed NACK is queued and the connection is marked
  /// closing).
  [[nodiscard]] bool decode_into_inbox(connection& conn, bool bounded) {
    std::uint64_t admitted = 0;
    std::uint64_t t0_ns = 0;
    bool stream_ok = true;
    while (!bounded || conn.inbox.size() < cfg_.max_inflight) {
      request req;
      std::size_t consumed = 0;
      const decode_status st = try_decode_request(
          conn.rbuf.data() + conn.rpos, conn.rbuf.size() - conn.rpos, req,
          consumed);
      if (st == decode_status::need_more) break;
      if (st == decode_status::bad_frame) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        // Answer everything admitted before the bad frame first so the
        // NACK cannot overtake an in-order response, then salvage the
        // (opcode, id) prefix when present so the client can correlate
        // the NACK; after that the stream is unusable.
        execute_inbox(conn, /*respect_cap=*/false);
        response resp;
        resp.status = status_code::malformed;
        if (conn.rbuf.size() - conn.rpos >= 13) {
          const std::uint8_t* p = conn.rbuf.data() + conn.rpos;
          if (valid_opcode(p[4])) resp.op = static_cast<opcode>(p[4]);
          wire::reader idr(p + 5, 8);
          resp.id = idr.take_u64();
        }
        encode_response(conn.wbuf, resp);
        stats_.responses_out.fetch_add(1, std::memory_order_relaxed);
        conn.closing = true;
        conn.rpos = conn.rbuf.size();
        stream_ok = false;
        break;
      }
      conn.rpos += consumed;
      if (admitted++ == 0) t0_ns = now_ns();
      conn.inbox.push_back(pending_request{std::move(req), t0_ns});
    }
    if (admitted != 0) {
      stats_.frames_in.fetch_add(admitted, std::memory_order_relaxed);
    }
    compact_rbuf(conn);
    return stream_ok;
  }

  void compact_rbuf(connection& conn) {
    if (conn.rpos == conn.rbuf.size()) {
      conn.rbuf.clear();
      conn.rpos = 0;
    } else if (conn.rpos >= 64 * 1024) {
      conn.rbuf.erase(conn.rbuf.begin(),
                      conn.rbuf.begin() +
                          static_cast<std::ptrdiff_t>(conn.rpos));
      conn.rpos = 0;
    }
  }

  /// Drains the inbox into the write buffer, coalescing maximal runs of
  /// same-opcode point requests through the batch API. Stops early when
  /// the write buffer crosses the backpressure cap (unless the
  /// connection is past caring, i.e. draining or at EOF).
  void execute_inbox(connection& conn, bool respect_cap) {
    while (!conn.inbox.empty()) {
      if (respect_cap && write_bytes(conn) > cfg_.write_buffer_cap) {
        // Suspending execution with admitted requests still queued is
        // the observable backpressure event (the EPOLLIN disarm in
        // update_interest only shows up when the kernel also backs up).
        stats_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      const opcode front_op = conn.inbox.front().req.op;
      if (front_op == opcode::get || front_op == opcode::insert ||
          front_op == opcode::erase) {
        std::size_t run = 1;
        while (run < conn.inbox.size() &&
               conn.inbox[run].req.op == front_op) {
          ++run;
        }
        execute_point_run(conn, front_op, run);
      } else {
        execute_one(conn, conn.inbox.front());
        conn.inbox.pop_front();
      }
    }
  }

  static stats::op_kind kind_of(opcode op) noexcept {
    switch (op) {
      case opcode::insert: return stats::op_kind::insert;
      case opcode::erase: return stats::op_kind::erase;
      default: return stats::op_kind::search;  // get, scan, ping, batch-get
    }
  }

  /// A pipelined run of `run` identical point ops leaves as one batch
  /// call (a point call when run == 1), its keys gathered into the
  /// connection's reused buffer. The run's responses share one clock
  /// read, taken once they are all encoded.
  void execute_point_run(connection& conn, opcode op, std::size_t run) {
    bool single = false;
    std::vector<bool> results;
    if (run == 1) {
      const std::int64_t key = conn.inbox.front().req.key;
      switch (op) {
        case opcode::get: single = set_->contains(key); break;
        case opcode::insert: single = set_->insert(key); break;
        case opcode::erase: single = set_->erase(key); break;
        default: break;
      }
    } else {
      conn.run_keys.clear();
      for (std::size_t i = 0; i < run; ++i) {
        conn.run_keys.push_back(conn.inbox[i].req.key);
      }
      switch (op) {
        case opcode::get: results = set_->contains_batch(conn.run_keys); break;
        case opcode::insert: results = set_->insert_batch(conn.run_keys); break;
        case opcode::erase: results = set_->erase_batch(conn.run_keys); break;
        default: break;
      }
      stats_.coalesced_groups.fetch_add(1, std::memory_order_relaxed);
      stats_.coalesced_ops.fetch_add(run, std::memory_order_relaxed);
    }
    const auto result_at = [&](std::size_t i) {
      return run == 1 ? single : static_cast<bool>(results[i]);
    };
    response resp;
    resp.op = op;
    for (std::size_t i = 0; i < run; ++i) {
      resp.id = conn.inbox[i].req.id;
      resp.result = result_at(i);
      encode_response(conn.wbuf, resp);
    }
    stats_.responses_out.fetch_add(run, std::memory_order_relaxed);
    const std::uint64_t t1_ns = now_ns();
    const stats::op_kind kind = kind_of(op);
    for (std::size_t i = 0; i < run; ++i) {
      latency_.on_op(0, kind, result_at(i), t1_ns - conn.inbox.front().t0_ns);
      conn.inbox.pop_front();
    }
  }

  void execute_one(connection& conn, const pending_request& p) {
    response resp;
    resp.op = p.req.op;
    resp.id = p.req.id;
    stats::op_kind kind = stats::op_kind::search;
    bool result = true;
    switch (p.req.op) {
      case opcode::batch: {
        kind = kind_of(p.req.batch_op);
        std::vector<bool> results;
        switch (p.req.batch_op) {
          case opcode::get: results = set_->contains_batch(p.req.keys); break;
          case opcode::insert: results = set_->insert_batch(p.req.keys); break;
          case opcode::erase: results = set_->erase_batch(p.req.keys); break;
          default: break;
        }
        resp.results.reserve(results.size());
        for (const bool r : results) {
          resp.results.push_back(r ? 1 : 0);
        }
        stats_.coalesced_groups.fetch_add(1, std::memory_order_relaxed);
        stats_.coalesced_ops.fetch_add(results.size(),
                                       std::memory_order_relaxed);
        break;
      }
      case opcode::range_scan: {
        const std::uint32_t page =
            p.req.max_items == 0
                ? cfg_.default_scan_items
                : std::min(p.req.max_items, max_scan_items);
        auto scanned = set_->range_scan_limit(p.req.lo, p.req.hi, page);
        resp.truncated = scanned.truncated;
        resp.resume_key = scanned.resume_key;
        resp.keys = std::move(scanned.keys);
        break;
      }
      case opcode::ping: break;
      case opcode::stat:
        stats_.stat_requests.fetch_add(1, std::memory_order_relaxed);
        resp.stat.now_ns = now_ns();
        if (stat_handler_) stat_handler_(p.req.stat_flags, resp.stat);
        break;
      default: break;
    }
    encode_response(conn.wbuf, resp);
    stats_.responses_out.fetch_add(1, std::memory_order_relaxed);
    latency_.on_op(0, kind, result, now_ns() - p.t0_ns);
  }

  /// Writes as much of wbuf as the socket accepts. False on fatal
  /// errors (peer reset mid-response).
  [[nodiscard]] bool flush_writes(connection& conn) {
    while (write_bytes(conn) > 0) {
      const ssize_t n =
          ::write(conn.fd, conn.wbuf.data() + conn.wpos, write_bytes(conn));
      if (n > 0) {
        conn.wpos += static_cast<std::size_t>(n);
        stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                   std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET: the reader is gone
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    return true;
  }

  /// Serves buffered requests for as long as the socket keeps up: refill
  /// the inbox from rbuf, execute until the cap, flush, and if the
  /// kernel drained the buffer below the low-water mark, go again. Exits
  /// with either no work left (empty inbox, no complete frame in rbuf)
  /// or bytes pending (so EPOLLOUT is armed and on_writable continues
  /// later) — a connection can never wedge with received requests and
  /// no event to finish them. A protocol error queues its NACK, marks
  /// the connection closing and empties rbuf, so the pump just flushes.
  [[nodiscard]] bool pump_inbox(connection& conn) {
    for (;;) {
      // A drained connection's buffered frames were NACKed already.
      if (!conn.drained) (void)decode_into_inbox(conn, /*bounded=*/true);
      // A full inbox means decoding stopped at the cap, not at the end
      // of the buffered frames.
      const bool more_buffered = conn.inbox.size() >= cfg_.max_inflight;
      execute_inbox(conn, /*respect_cap=*/!(conn.eof || conn.drained));
      if (!flush_writes(conn)) return false;
      if (write_bytes(conn) > cfg_.write_buffer_resume ||
          (conn.inbox.empty() && !more_buffered)) {
        return true;
      }
    }
  }

  [[nodiscard]] bool on_readable(connection& conn) {
    if (conn.closing || conn.drained) return true;  // no longer reading
    if (!read_available(conn)) return false;
    if (!pump_inbox(conn)) return false;
    if (conn.eof) {
      conn.closing = true;
      if (write_bytes(conn) == 0 && conn.inbox.empty()) return false;
    }
    return true;
  }

  [[nodiscard]] bool on_writable(connection& conn) {
    if (!flush_writes(conn)) return false;
    // Flushed below the low-water mark: resume serving queued and
    // buffered work (and, via update_interest, resume reading).
    if (write_bytes(conn) <= cfg_.write_buffer_resume &&
        !pump_inbox(conn)) {
      return false;
    }
    if (conn.closing && write_bytes(conn) == 0 && conn.inbox.empty()) {
      return false;
    }
    return true;
  }

  void update_interest(loop& lp, connection& conn) {
    std::uint32_t want = 0;
    const bool backpressured = write_bytes(conn) > cfg_.write_buffer_cap ||
                               conn.inbox.size() >= cfg_.max_inflight;
    if (!conn.closing && !conn.eof && !conn.drained && !backpressured) {
      want |= EPOLLIN;
    }
    if (write_bytes(conn) > 0) want |= EPOLLOUT;
    if (backpressured && !conn.paused) {
      conn.paused = true;
      stats_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
    } else if (!backpressured) {
      conn.paused = false;
    }
    if (want == conn.armed) return;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = conn.fd;
    (void)epoll_ctl(lp.epfd, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.armed = want;
  }

  Set* set_;
  server_config cfg_;
  server_stats stats_;
  obs::latency_observer latency_;
  std::vector<std::unique_ptr<loop>> loops_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  stat_handler stat_handler_;  // set before start(); event threads read
  std::atomic<unsigned> next_loop_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
};

namespace detail {

inline std::atomic<void*> sigterm_target{nullptr};
inline std::atomic<void (*)(void*)> sigterm_fn{nullptr};

inline void sigterm_trampoline(int) {
  void (*fn)(void*) = sigterm_fn.load(std::memory_order_acquire);
  void* target = sigterm_target.load(std::memory_order_acquire);
  if (fn != nullptr && target != nullptr) fn(target);
}

}  // namespace detail

/// Installs a SIGTERM handler that gracefully drains `s` (begin_drain
/// is async-signal-safe). One server at a time; the caller keeps `s`
/// alive until the process exits or the handler is replaced.
template <typename Set>
inline void drain_on_sigterm(basic_server<Set>& s) {
  detail::sigterm_target.store(&s, std::memory_order_release);
  detail::sigterm_fn.store(
      [](void* p) { static_cast<basic_server<Set>*>(p)->begin_drain(); },
      std::memory_order_release);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = detail::sigterm_trampoline;
  (void)sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace lfbst::server
