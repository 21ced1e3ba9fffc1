#include "src/serve/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

namespace pnn {
namespace serve {

namespace {

constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

}  // namespace

Server::Server(api::EngineRef ref, ServerOptions options)
    : ref_(ref), options_(options) {
  if (options_.queue_limit == 0) options_.queue_limit = 1;
  if (options_.batch_max == 0) options_.batch_max = 1;
  batch_ = std::make_unique<exec::BatchEngine>(ref_, options_.batch);
}

Server::~Server() { Stop(); }

bool Server::Start() {
  if (running_ || !ref_.valid()) return false;
  stopping_ = false;

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  bool ok = bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
            listen(listen_fd_, options_.listen_backlog) == 0;
  socklen_t len = sizeof(addr);
  ok = ok && getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  if (ok) port_ = ntohs(addr.sin_port);

  epoll_fd_ = ok ? epoll_create1(EPOLL_CLOEXEC) : -1;
  wake_fd_ = epoll_fd_ >= 0 ? eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) : -1;
  if (wake_fd_ < 0) {
    if (epoll_fd_ >= 0) close(epoll_fd_);
    close(listen_fd_);
    listen_fd_ = epoll_fd_ = -1;
    return false;
  }

  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_ = true;
  io_thread_ = std::thread([this] { IoLoop(); });
  worker_thread_ = std::thread([this] { WorkerLoop(); });
  return true;
}

void Server::Stop() {
  if (!running_) return;
  stopping_ = true;
  // Worker first: it drains the queue (every admitted request gets its
  // response) and exits; then the IO loop gets a bounded grace window to
  // flush outboxes before closing.
  queue_cv_.notify_all();
  if (worker_thread_.joinable()) worker_thread_.join();
  // Anything admitted after the worker's last pass (frames that were still
  // in a socket buffer when Stop began) is answered kOverloaded here, so a
  // received request is never silently dropped even across shutdown.
  {
    std::lock_guard<std::mutex> qlock(queue_mu_);
    std::lock_guard<std::mutex> clock(completion_mu_);
    for (Pending& p : queue_) {
      Completion c;
      c.conn_id = p.conn_id;
      AppendResponseFrame(
          p.request_id,
          api::QueryResponse::Error(api::StatusCode::kOverloaded, p.request.kind,
                                    "server shutting down"),
          &c.bytes);
      shed_overloaded_.fetch_add(1);
      completions_.push_back(std::move(c));
    }
    queue_.clear();
  }
  WakeIo();
  if (io_thread_.joinable()) io_thread_.join();

  conns_.clear();  // Connection fds were closed by the IO loop.
  if (listen_fd_ >= 0) close(listen_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  running_ = false;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.requests_received = requests_received_.load();
  s.responses_ok = responses_ok_.load();
  s.responses_error = responses_error_.load();
  s.shed_overloaded = shed_overloaded_.load();
  s.deadline_exceeded = deadline_exceeded_.load();
  s.protocol_errors = protocol_errors_.load();
  s.batches_executed = batches_executed_.load();
  s.requests_executed = requests_executed_.load();
  return s;
}

void Server::WakeIo() {
  uint64_t one = 1;
  ssize_t ignored = write(wake_fd_, &one, sizeof(one));
  (void)ignored;  // A full eventfd counter still wakes the loop.
}

// ---------------------------------------------------------------------
// Worker: coalesced execution through the batch engine.
// ---------------------------------------------------------------------

void Server::WorkerLoop() {
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty() && stopping_) return;
      size_t take = std::min(options_.batch_max, queue_.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }

    // Deadline check happens at dispatch, after the queue wait: a request
    // whose budget elapsed while queued is answered, never executed and
    // never dropped.
    Clock::time_point now = Clock::now();
    std::vector<api::QueryRequest> to_exec;
    std::vector<size_t> exec_slot(batch.size(), SIZE_MAX);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].deadline <= now) continue;
      exec_slot[i] = to_exec.size();
      to_exec.push_back(batch[i].request);
    }

    exec::BatchResult<api::QueryResponse> executed;
    if (!to_exec.empty()) {
      executed = batch_->RequestBatch(to_exec);
      batches_executed_.fetch_add(1);
      requests_executed_.fetch_add(to_exec.size());
    }

    std::vector<Completion> done;
    done.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      api::QueryResponse response;
      if (exec_slot[i] == SIZE_MAX) {
        response = api::QueryResponse::Error(api::StatusCode::kDeadlineExceeded,
                                             batch[i].request.kind,
                                             "deadline expired before execution");
        deadline_exceeded_.fetch_add(1);
      } else {
        response = std::move(executed.values[exec_slot[i]]);
        if (response.ok()) {
          responses_ok_.fetch_add(1);
        } else {
          responses_error_.fetch_add(1);
        }
      }
      Completion c;
      c.conn_id = batch[i].conn_id;
      AppendResponseFrame(batch[i].request_id, response, &c.bytes);
      done.push_back(std::move(c));
    }
    {
      std::lock_guard<std::mutex> lock(completion_mu_);
      for (Completion& c : done) completions_.push_back(std::move(c));
    }
    WakeIo();
  }
}

// ---------------------------------------------------------------------
// IO loop: accept, read/decode/admit, write.
// ---------------------------------------------------------------------

void Server::IoLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // Shutdown grace: after stopping_, keep flushing for up to this long.
  constexpr auto kDrainGrace = std::chrono::seconds(1);
  Clock::time_point drain_deadline{};
  bool draining = false;

  for (;;) {
    int timeout_ms = draining ? 10 : 500;
    int n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        if (!stopping_) AcceptReady();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t counter;
        while (read(wake_fd_, &counter, sizeof(counter)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(tag);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) ReadReady(tag);
      // Re-check: ReadReady may have closed the connection.
      if ((events[i].events & EPOLLOUT) != 0 && conns_.count(tag) != 0) {
        WriteReady(tag);
      }
    }

    DrainCompletions();

    if (stopping_) {
      if (!draining) {
        draining = true;
        drain_deadline = Clock::now() + kDrainGrace;
      }
      // Exit once every outbox is flushed (the worker has already
      // drained the queue before Stop() woke us), or the grace expires.
      bool flushed = true;
      {
        std::lock_guard<std::mutex> lock(completion_mu_);
        flushed = completions_.empty();
      }
      if (flushed) {
        for (auto& [id, conn] : conns_) {
          if (conn->tx_sent < conn->tx.size()) {
            flushed = false;
            break;
          }
        }
      }
      if (flushed || Clock::now() >= drain_deadline) break;
    }
  }

  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  conns_.clear();
}

void Server::AcceptReady() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: nothing more to take.
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t conn_id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
    conn->fd = fd;
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.u64 = conn_id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    conns_.emplace(conn_id, std::move(conn));
    connections_accepted_.fetch_add(1);
  }
}

void Server::ReadReady(uint64_t conn_id) {
  Connection* conn = conns_.at(conn_id).get();
  char buf[16384];
  for (;;) {
    ssize_t r = read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      conn->rx.Append(buf, static_cast<size_t>(r));
      if (static_cast<size_t>(r) < sizeof(buf)) break;
      continue;
    }
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (r < 0 && errno == EINTR) continue;
    // EOF or hard error: a disconnect mid-request just drops the
    // connection — any queued work for it completes and its responses
    // are discarded at completion-drain time.
    CloseConnection(conn_id);
    return;
  }
  DrainFrames(conn_id, conn);
}

void Server::DrainFrames(uint64_t conn_id, Connection* conn) {
  std::string payload;
  for (;;) {
    if (conn->close_after_flush) return;  // Already poisoned; stop parsing.
    FrameBuffer::Result res = conn->rx.Next(&payload);
    if (res == FrameBuffer::Result::kNeedMore) return;
    if (res == FrameBuffer::Result::kTooLarge) {
      protocol_errors_.fetch_add(1);
      QueueResponse(conn, 0,
                    api::QueryResponse::Error(api::StatusCode::kInvalidArgument,
                                              api::QueryKind::kNonzeroNN,
                                              "frame exceeds max_frame_bytes"));
      conn->close_after_flush = true;
      FlushConnection(conn_id, conn);
      return;
    }
    RequestFrame frame;
    if (!DecodeRequestPayload(payload.data(), payload.size(), &frame)) {
      protocol_errors_.fetch_add(1);
      QueueResponse(conn, PeekRequestId(payload.data(), payload.size()),
                    api::QueryResponse::Error(api::StatusCode::kInvalidArgument,
                                              api::QueryKind::kNonzeroNN,
                                              "malformed request frame"));
      conn->close_after_flush = true;
      FlushConnection(conn_id, conn);
      return;
    }
    requests_received_.fetch_add(1);
    EnqueueOrShed(conn_id, std::move(frame));
    if (conns_.count(conn_id) == 0) return;  // Closed during enqueue flush.
  }
}

void Server::EnqueueOrShed(uint64_t conn_id, RequestFrame frame) {
  Connection* conn = conns_.at(conn_id).get();
  Pending p;
  p.conn_id = conn_id;
  p.request_id = frame.request_id;
  if (frame.request.deadline_micros > 0) {
    p.deadline =
        Clock::now() + std::chrono::microseconds(frame.request.deadline_micros);
  }
  p.request = std::move(frame.request);

  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // During shutdown the worker may already be gone; shed instead of
    // admitting work nothing will execute.
    if (!stopping_ && queue_.size() < options_.queue_limit) {
      queue_.push_back(std::move(p));
      admitted = true;
    }
  }
  if (admitted) {
    queue_cv_.notify_one();
    return;
  }
  // Shed with an explicit status: the client learns immediately instead
  // of the queue growing without bound. Sheds bypass the worker, so this
  // response can overtake earlier admitted ones — ids disambiguate.
  shed_overloaded_.fetch_add(1);
  QueueResponse(conn, p.request_id,
                api::QueryResponse::Error(api::StatusCode::kOverloaded,
                                          p.request.kind, "pending queue full"));
  FlushConnection(conn_id, conn);
}

void Server::QueueResponse(Connection* conn, uint64_t request_id,
                           const api::QueryResponse& response) {
  AppendResponseFrame(request_id, response, &conn->tx);
}

void Server::FlushConnection(uint64_t conn_id, Connection* conn) {
  while (conn->tx_sent < conn->tx.size()) {
    // MSG_NOSIGNAL: a peer that reset the connection must cost only this
    // connection (EPIPE below), never SIGPIPE the whole server process.
    ssize_t w = send(conn->fd, conn->tx.data() + conn->tx_sent,
                     conn->tx.size() - conn->tx_sent, MSG_NOSIGNAL);
    if (w > 0) {
      conn->tx_sent += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpollInterest(conn_id, conn);
      return;
    }
    CloseConnection(conn_id);  // Peer vanished mid-write.
    return;
  }
  if (conn->tx_sent == conn->tx.size() && conn->tx_sent > 0) {
    conn->tx.clear();
    conn->tx_sent = 0;
  }
  if (conn->close_after_flush) {
    CloseConnection(conn_id);
    return;
  }
  UpdateEpollInterest(conn_id, conn);
}

void Server::WriteReady(uint64_t conn_id) {
  FlushConnection(conn_id, conns_.at(conn_id).get());
}

void Server::UpdateEpollInterest(uint64_t conn_id, Connection* conn) {
  bool want_write = conn->tx_sent < conn->tx.size();
  if (want_write == conn->want_write) return;
  conn->want_write = want_write;
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn_id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  close(it->second->fd);
  conns_.erase(it);
}

void Server::DrainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // Client disconnected; drop.
    it->second->tx.append(c.bytes);
    FlushConnection(c.conn_id, it->second.get());
  }
}

}  // namespace serve
}  // namespace pnn
