#include "engine/event_loop.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace crowdml::engine {

namespace {

obs::MetricsRegistry& registry_of(obs::MetricsRegistry* metrics) {
  return metrics ? *metrics : obs::default_registry();
}

/// epoll_data.u64 id reserved for the eventfd wakeup.
constexpr std::uint64_t kWakeupId = 0;

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

EventLoop::EventLoop(Options options, FrameHandler on_frame)
    : opts_(options),
      on_frame_(std::move(on_frame)),
      frames_in_(registry_of(opts_.metrics).counter(
          "crowdml_engine_frames_in_total",
          "Complete frames received by the epoll event loops",
          obs::Provenance::kTransportEvent)),
      protocol_errors_(registry_of(opts_.metrics).counter(
          "crowdml_engine_protocol_errors_total",
          "Connections closed for framing abuse (oversized payload length)",
          obs::Provenance::kTransportEvent)) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("EventLoop: epoll_create1 failed");
  wakeup_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakeup_fd_ < 0) {
    ::close(epfd_);
    throw std::runtime_error("EventLoop: eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeupId;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) != 0) {
    ::close(wakeup_fd_);
    ::close(epfd_);
    throw std::runtime_error("EventLoop: epoll_ctl(wakeup) failed");
  }
  thread_ = std::thread([this] { run(); });
}

EventLoop::~EventLoop() { stop(); }

bool EventLoop::on_loop_thread() const {
  return std::this_thread::get_id() == thread_.get_id();
}

void EventLoop::post(std::function<void()> fn) {
  if (on_loop_thread()) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    if (stopping_.load()) return;  // stop() runs the leftovers
    tasks_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wakeup_fd_, &one, sizeof(one));
}

void EventLoop::adopt(int fd) {
  if (fd < 0) return;
  // Counted here, on the caller's thread, not when the loop registers the
  // fd: an acceptor checking a connection cap must see the connection it
  // has just handed over.
  conn_count_.fetch_add(1);
  post([this, fd] {
    if (stopping_.load() || !do_adopt(fd)) {
      ::close(fd);
      conn_count_.fetch_sub(1);
    }
  });
}

bool EventLoop::do_adopt(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->id = next_id_++;
  conn->last_activity = std::chrono::steady_clock::now();

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  conns_.emplace(conn->id, std::move(conn));
  return true;
}

void EventLoop::send(std::uint64_t conn_id, net::Bytes frame) {
  post([this, conn_id, frame = std::move(frame)]() mutable {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // connection already gone
    Conn& conn = *it->second;
    conn.out.push_back(std::move(frame));
    if (!flush_writes(conn)) close_conn(conn_id);
  });
}

void EventLoop::send_many(std::vector<std::pair<std::uint64_t, net::Bytes>> items) {
  post([this, items = std::move(items)]() mutable {
    for (auto& [conn_id, frame] : items) {
      auto it = conns_.find(conn_id);
      if (it == conns_.end()) continue;  // connection already gone
      Conn& conn = *it->second;
      conn.out.push_back(std::move(frame));
      if (!flush_writes(conn)) close_conn(conn_id);
    }
  });
}

void EventLoop::set_want_write(Conn& conn, bool want) {
  if (conn.want_write == want) return;
  conn.want_write = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

bool EventLoop::flush_writes(Conn& conn) {
  while (!conn.out.empty()) {
    const net::Bytes& front = conn.out.front();
    while (conn.out_offset < front.size()) {
      const auto n =
          ::send(conn.fd, front.data() + conn.out_offset,
                 front.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          set_want_write(conn, true);
          return true;  // kernel buffer full; resume on EPOLLOUT
        }
        if (errno == EINTR) continue;
        return false;  // reset/broken pipe: close
      }
      conn.out_offset += static_cast<std::size_t>(n);
    }
    conn.out.pop_front();
    conn.out_offset = 0;
  }
  set_want_write(conn, false);
  return true;
}

bool EventLoop::handle_readable(Conn& conn) {
  std::uint8_t buf[16384];
  bool got_bytes = false;
  for (;;) {
    const auto n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), buf, buf + n);
      got_bytes = true;
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  if (got_bytes) conn.last_activity = std::chrono::steady_clock::now();

  // Deliver every complete frame, mirroring recv_frame's header-driven
  // read: payload length from the header, bounded by kMaxFieldLength
  // (an absurd length is protocol abuse, not a frame to buffer for).
  std::size_t off = 0;
  while (conn.in.size() - off >= net::kFrameHeaderSize) {
    const std::uint32_t payload_len =
        read_le32(conn.in.data() + off + net::kFrameLenOffset);
    if (payload_len > net::kMaxFieldLength) {
      ++protocol_errors_;
      if (opts_.trace)
        opts_.trace->event("protocol_error",
                           {{"reason", "oversized payload length"}});
      return false;
    }
    const std::size_t total =
        net::kFrameHeaderSize + payload_len + net::kFrameTrailerSize;
    if (conn.in.size() - off < total) break;
    net::Bytes frame(conn.in.begin() + static_cast<std::ptrdiff_t>(off),
                     conn.in.begin() + static_cast<std::ptrdiff_t>(off + total));
    off += total;
    ++frames_in_;
    on_frame_(conn.id, std::move(frame));
  }
  if (off > 0)
    conn.in.erase(conn.in.begin(), conn.in.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

void EventLoop::close_conn(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::close(it->second->fd);
  conns_.erase(it);
  conn_count_.fetch_sub(1);
  if (opts_.on_close) opts_.on_close(id);
}

void EventLoop::sweep_idle() {
  if (opts_.idle_timeout_ms <= 0) return;
  const auto cutoff = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(opts_.idle_timeout_ms);
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : conns_)
    if (conn->last_activity < cutoff) idle.push_back(id);
  for (const auto id : idle) {
    if (opts_.idle_closed) ++*opts_.idle_closed;
    if (opts_.trace) opts_.trace->event("idle_close");
    close_conn(id);
  }
}

void EventLoop::run_tasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    tasks.swap(tasks_);
  }
  for (auto& t : tasks) t();
}

void EventLoop::run() {
  // Wait granularity: short enough that the idle sweep stays timely,
  // long enough not to spin. Tasks interrupt it via the eventfd.
  int wait_ms = 200;
  if (opts_.idle_timeout_ms > 0)
    wait_ms = std::clamp(opts_.idle_timeout_ms / 4, 10, 200);

  epoll_event events[64];
  while (!stopping_.load()) {
    run_tasks();
    const int n = ::epoll_wait(epfd_, events, 64, wait_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kWakeupId) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const auto r =
            ::read(wakeup_fd_, &drain, sizeof(drain));
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this round
      Conn& conn = *it->second;
      bool alive = true;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) alive = false;
      if (alive && (events[i].events & EPOLLIN)) alive = handle_readable(conn);
      if (alive && (events[i].events & EPOLLOUT)) alive = flush_writes(conn);
      if (!alive) close_conn(id);
    }
    sweep_idle();
  }
  // Responses posted before stop() still go out: post() refuses new
  // tasks once stopping_ is set, so this drains everything owed.
  run_tasks();
  for (auto& [id, conn] : conns_) ::close(conn->fd);
  conn_count_.fetch_sub(conns_.size());
  conns_.clear();
}

void EventLoop::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wakeup_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  // Leftover tasks: adopts close their fd (stopping_ is set); sends find
  // no connections and drop.
  run_tasks();
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
  if (epfd_ >= 0) ::close(epfd_);
  wakeup_fd_ = epfd_ = -1;
}

}  // namespace crowdml::engine
