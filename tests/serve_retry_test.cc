// serve::Client transport-error taxonomy and retry loop:
//   * Call() distinguishes never-connected, timeout (connection up, no
//     answer yet), disconnect (EOF mid-call), and a healthy response;
//   * CallWithRetry() reconnects to a restarted server on the same port
//     and resends under the SAME request id;
//   * kUnavailable responses from a degraded store are retried until the
//     disk heals, turning an outage into latency;
//   * updates are NOT resent after a timeout by default (the op may have
//     applied server-side), queries are; retry_updates opts into
//     at-least-once.

#include "src/serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine_ref.h"
#include "src/api/query.h"
#include "src/fault/fault.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/shard/sharded_engine.h"
#include "src/store/sharded_store.h"
#include "src/workload/generators.h"

namespace pnn {
namespace serve {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<shard::ShardedEngine> MakeBackend(int points = 20) {
  shard::Options sopt;
  sopt.num_shards = 2;
  sopt.shard.engine.seed = 77;
  sopt.shard.engine.mc_rounds_override = 48;
  auto engine = std::make_unique<shard::ShardedEngine>(sopt);
  Rng rng(901);
  auto locs = RandomDiscreteLocations(points, 3, 25, 4, &rng);
  for (const auto& l : locs) {
    std::vector<double> w(l.size(), 1.0 / static_cast<double>(l.size()));
    engine->Insert(UncertainPoint::Discrete(l, w));
  }
  return engine;
}

UncertainPoint OnePoint() {
  return UncertainPoint::Discrete({{1, 1}, {2, 2}}, {0.5, 0.5});
}

/// A listener that accepts one connection, counts the request frames it
/// receives, and never answers — the "hung server" for timeout tests.
class BlackHole {
 public:
  bool Start() {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        listen(listen_fd_, 4) != 0) {
      return false;
    }
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Run(); });
    return true;
  }

  ~BlackHole() {
    shutdown(listen_fd_, SHUT_RDWR);
    close(listen_fd_);
    if (int fd = conn_fd_.load(); fd >= 0) shutdown(fd, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (int fd = conn_fd_.load(); fd >= 0) close(fd);
  }

  uint16_t port() const { return port_; }
  int frames_seen() const { return frames_.load(); }

 private:
  void Run() {
    int fd = accept(listen_fd_, nullptr, nullptr);
    conn_fd_.store(fd);
    if (fd < 0) return;
    FrameBuffer rx;
    std::string payload;
    char buf[4096];
    for (;;) {
      while (rx.Next(&payload) == FrameBuffer::Result::kFrame) ++frames_;
      ssize_t r = read(fd, buf, sizeof(buf));
      if (r <= 0) return;
      rx.Append(buf, static_cast<size_t>(r));
    }
  }

  int listen_fd_ = -1;
  // Written by the accept thread, read by the destructor.
  std::atomic<int> conn_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<int> frames_{0};
  std::thread thread_;
};

TEST(ServeRetry, NeverConnectedIsNotConnected) {
  Client client;
  CallResult r = client.Call(api::QueryRequest::NonzeroNN({0, 0}));
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error(), TransportError::kNotConnected);
  EXPECT_EQ(client.last_transport_error(), TransportError::kNotConnected);
  EXPECT_STREQ(TransportErrorName(r.error()), "NOT_CONNECTED");
}

TEST(ServeRetry, HungServerIsTimeoutAndConnectionSurvives) {
  BlackHole hole;
  ASSERT_TRUE(hole.Start());
  ClientOptions copt;
  copt.recv_timeout_ms = 100;
  Client client(copt);
  ASSERT_TRUE(client.Connect(hole.port()));
  CallResult r = client.Call(api::QueryRequest::NonzeroNN({0, 0}));
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error(), TransportError::kTimeout);
  // A timeout does not tear the connection down.
  EXPECT_TRUE(client.connected());
}

TEST(ServeRetry, PeerCloseIsDisconnected) {
  auto backend = MakeBackend();
  auto server = std::make_unique<Server>(api::EngineRef(backend.get()));
  ASSERT_TRUE(server->Start());
  Client client;
  ASSERT_TRUE(client.Connect(server->port()));
  ASSERT_TRUE(client.Call(api::QueryRequest::NonzeroNN({0, 0})));
  server.reset();  // Stop: the server closes every connection.
  CallResult r = client.Call(api::QueryRequest::NonzeroNN({0, 0}));
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error(), TransportError::kDisconnected);
  EXPECT_FALSE(client.connected());
}

TEST(ServeRetry, RetryReconnectsToRestartedServer) {
  auto backend = MakeBackend();
  uint16_t port = 0;
  auto server = std::make_unique<Server>(api::EngineRef(backend.get()));
  ASSERT_TRUE(server->Start());
  port = server->port();

  Client client;
  ASSERT_TRUE(client.Connect(port));
  ASSERT_TRUE(client.Call(api::QueryRequest::NonzeroNN({0, 0})));

  // Kill and restart on the same port (SO_REUSEADDR), then retry: the
  // client must notice the dead connection and redial.
  server.reset();
  ServerOptions sopt;
  sopt.port = port;
  Server restarted(api::EngineRef(backend.get()), sopt);
  ASSERT_TRUE(restarted.Start());

  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 10;
  Point2 q{3, 4};
  CallResult r = client.CallWithRetry(api::QueryRequest::NonzeroNN(q), policy);
  ASSERT_TRUE(r) << TransportErrorName(r.error());
  EXPECT_TRUE(r->ok());
  EXPECT_EQ(r->ids, backend->View()->NonzeroNN(q));
}

TEST(ServeRetry, UnavailableIsRetriedUntilTheStoreHeals) {
  std::string dir = testing::TempDir() + "/serve_retry_store";
  fs::remove_all(dir);
  store::ShardedStore::Options sopt;
  sopt.sharded.num_shards = 1;
  sopt.sharded.shard.engine.seed = 77;
  sopt.sharded.shard.engine.mc_rounds_override = 48;
  auto db = store::ShardedStore::Open(dir, sopt);
  Server server(api::EngineRef(db.get()));
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.Call(api::QueryRequest::Insert(OnePoint()))->ok());

  // Two fdatasync failures: attempt 1 degrades the store (kUnavailable),
  // attempt 2's heal probe fails too, attempt 3 heals and applies. A
  // plain Call would surface the outage; the retry loop rides it out.
  fault::Arm("store.fdatasync", fault::FireTimesThenHeal(2));
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  CallResult r = client.CallWithRetry(api::QueryRequest::Insert(OnePoint()), policy);
  fault::DisarmAll();
  ASSERT_TRUE(r) << TransportErrorName(r.error());
  EXPECT_EQ(r->status, api::StatusCode::kOk) << r->message;
  EXPECT_GE(r->id, 1);
  EXPECT_TRUE(db->healthy());
}

TEST(ServeRetry, TimedOutUpdateIsNotResentByDefault) {
  BlackHole hole;
  ASSERT_TRUE(hole.Start());
  ClientOptions copt;
  copt.recv_timeout_ms = 100;
  Client client(copt);
  ASSERT_TRUE(client.Connect(hole.port()));

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  CallResult r = client.CallWithRetry(api::QueryRequest::Insert(OnePoint()), policy);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error(), TransportError::kTimeout);
  // The insert hit the wire once and was never resent: it MAY have
  // applied, and at-most-once is the default.
  EXPECT_EQ(hole.frames_seen(), 1);
}

TEST(ServeRetry, TimedOutQueryIsResent) {
  BlackHole hole;
  ASSERT_TRUE(hole.Start());
  ClientOptions copt;
  copt.recv_timeout_ms = 100;
  Client client(copt);
  ASSERT_TRUE(client.Connect(hole.port()));

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  CallResult r = client.CallWithRetry(api::QueryRequest::NonzeroNN({0, 0}), policy);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error(), TransportError::kTimeout);
  EXPECT_EQ(hole.frames_seen(), 3) << "idempotent queries retry every attempt";
}

TEST(ServeRetry, RetryUpdatesOptsIntoAtLeastOnce) {
  BlackHole hole;
  ASSERT_TRUE(hole.Start());
  ClientOptions copt;
  copt.recv_timeout_ms = 100;
  Client client(copt);
  ASSERT_TRUE(client.Connect(hole.port()));

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 5;
  policy.retry_updates = true;
  CallResult r = client.CallWithRetry(api::QueryRequest::Insert(OnePoint()), policy);
  ASSERT_FALSE(r);
  EXPECT_EQ(hole.frames_seen(), 2);
}

TEST(ServeRetry, PipelinedSendReceiveStillWork) {
  auto backend = MakeBackend();
  Server server(api::EngineRef(backend.get()));
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));

  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    std::optional<uint64_t> id = client.Send(api::QueryRequest::NonzeroNN({0, 0}));
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  std::vector<uint64_t> got;
  for (int i = 0; i < 8; ++i) {
    std::optional<ResponseFrame> frame = client.Receive();
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frame->response.ok());
    got.push_back(frame->request_id);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, ids);
}

}  // namespace
}  // namespace serve
}  // namespace pnn
