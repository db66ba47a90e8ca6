// epoll-based I/O event loop for the serving engine.
//
// One EventLoop owns one epoll instance, one thread, and a set of
// nonblocking connections adopted from the acceptor. Each connection
// runs a frame state machine mirroring net::TcpConnection::recv_frame's
// semantics — accumulate bytes, read the header's payload length (via
// the net:: frame layout constants), reject lengths beyond
// kMaxFieldLength, deliver complete frames — but without a thread parked
// per socket: a single thread multiplexes hundreds of devices.
//
// Threading model: every connection is touched only by its loop thread.
// Other threads talk to the loop through post() (a task queue flushed by
// an eventfd wakeup); send() and adopt() are post()-based and therefore
// safe from anywhere. Frame delivery (the FrameHandler) runs on the loop
// thread and must not block — the engine's handler either serves a
// pre-encoded snapshot frame or enqueues the request for the applier.
//
// Deadline semantics: the per-connection receive deadline is an idle
// sweep — a connection with no inbound bytes for idle_timeout_ms is
// closed and counted, with no timer per socket.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crowdml::engine {

class EventLoop {
 public:
  struct Options {
    /// Close connections silent for this long (<= 0 disables).
    int idle_timeout_ms = -1;
    /// Registry for frame/protocol-error counters (null =
    /// obs::default_registry()). Must outlive the loop.
    obs::MetricsRegistry* metrics = nullptr;
    /// Counter bumped per idle-swept connection (the engine passes its
    /// NetCounters::idle_closed). Null disables. Must outlive the loop.
    obs::Counter* idle_closed = nullptr;
    /// Lifecycle trace events (idle_close, protocol_error). Null
    /// disables. Must outlive the loop.
    obs::TraceSink* trace = nullptr;
    /// Called on the loop thread with the id of each connection it
    /// closes while running (EOF, socket error, idle sweep). Null
    /// disables.
    std::function<void(std::uint64_t conn_id)> on_close;
  };

  /// Called on the loop thread with each complete inbound frame. The
  /// id is stable for the connection's lifetime; respond via send().
  using FrameHandler =
      std::function<void(std::uint64_t conn_id, net::Bytes&& frame)>;

  /// Starts the loop thread. Throws std::runtime_error when epoll or
  /// eventfd creation fails.
  EventLoop(Options options, FrameHandler on_frame);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Take ownership of a connected socket (e.g. from
  /// net::TcpConnection::release_fd). The fd counts toward connections()
  /// at once; it is made nonblocking and registered on the loop thread.
  /// Thread-safe. After stop() the fd is closed instead.
  void adopt(int fd);

  /// Queue `frame` for `conn_id` and flush as far as the socket allows.
  /// Thread-safe; silently dropped when the connection is already gone
  /// (the device sees a close and retries — Remark 1).
  void send(std::uint64_t conn_id, net::Bytes frame);

  /// send() for a whole batch in one loop-thread task — one eventfd
  /// wakeup for all of an applier batch's responses instead of one per
  /// response. Same dropped-when-gone semantics per item.
  void send_many(std::vector<std::pair<std::uint64_t, net::Bytes>> items);

  /// Run `fn` on the loop thread (immediately when already on it).
  /// Thread-safe; dropped after stop().
  void post(std::function<void()> fn);

  /// Stop the loop, close every connection, and join the thread. Sends
  /// posted before stop() are written (as far as the socket takes them
  /// without blocking) before the connections close.
  void stop();

  /// Connections adopted and not yet closed, including adopts still
  /// queued for the loop thread.
  std::size_t connections() const { return conn_count_.load(); }
  long long frames_received() const { return frames_in_.value(); }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    net::Bytes in;              ///< unparsed inbound bytes
    std::deque<net::Bytes> out; ///< pending outbound frames
    std::size_t out_offset = 0; ///< bytes of out.front() already written
    bool want_write = false;    ///< EPOLLOUT currently armed
    std::chrono::steady_clock::time_point last_activity;
  };

  void run();
  void run_tasks();
  /// Register `fd` with epoll; false (fd untouched) on failure.
  bool do_adopt(int fd);
  /// Read until EAGAIN, delivering complete frames. False = close.
  bool handle_readable(Conn& conn);
  /// Write queued frames until EAGAIN. False = fatal socket error.
  bool flush_writes(Conn& conn);
  void set_want_write(Conn& conn, bool want);
  void close_conn(std::uint64_t id);
  void sweep_idle();
  bool on_loop_thread() const;

  Options opts_;
  FrameHandler on_frame_;
  int epfd_ = -1;
  int wakeup_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex tasks_mu_;
  std::vector<std::function<void()>> tasks_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_id_ = 1;  ///< loop-thread only
  std::atomic<std::size_t> conn_count_{0};
  std::thread thread_;

  obs::Counter& frames_in_;
  obs::Counter& protocol_errors_;
};

}  // namespace crowdml::engine
