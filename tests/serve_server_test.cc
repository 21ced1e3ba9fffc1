// End-to-end tests for pnn::serve::Server over loopback TCP: smoke RPCs
// on every query kind (answers bit-identical to direct engine calls),
// pipelining, protocol-error handling (malformed / oversized frames,
// partial writes, disconnect mid-request), already-expired deadlines, and
// admission-control shedding, and a durable StoreServer restart
// recovering exactly the updates acked over the wire. The suite runs
// under ASan and TSan in CI —
// the server must never crash or leak, whatever the client does.

#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine_ref.h"
#include "src/api/query.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/store_server.h"
#include "src/shard/sharded_engine.h"
#include "src/workload/generators.h"

namespace pnn {
namespace serve {
namespace {

// A small sharded backend with deterministic contents.
std::unique_ptr<shard::ShardedEngine> MakeBackend(int points = 40) {
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

// Continuous points, so every Quantify runs Monte Carlo; the first one
// builds all `rounds` round structures inside the worker (about 0.1 s
// for 2,000 points and 256 rounds in an optimized build).
std::unique_ptr<shard::ShardedEngine> MakeDiskBackend(int points, size_t rounds) {
  shard::Options sopt;
  sopt.num_shards = 2;
  sopt.shard.engine.seed = 78;
  sopt.shard.engine.mc_rounds_override = rounds;
  auto engine = std::make_unique<shard::ShardedEngine>(sopt);
  Rng rng(903);
  for (int i = 0; i < points; ++i) {
    engine->Insert(UncertainPoint::UniformDisk(
        {rng.Uniform(-100, 100), rng.Uniform(-100, 100)}, rng.Uniform(0.5, 2)));
  }
  return engine;
}

// Polls `done` every millisecond for up to ten seconds.
template <typename Pred>
bool WaitFor(Pred done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Raw loopback socket for protocol-abuse tests (Client is too polite).
class RawConn {
 public:
  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() { Close(); }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }
  bool SendAll(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t w = write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (w <= 0) return false;
      sent += static_cast<size_t>(w);
    }
    return true;
  }
  /// Sends `bytes` corked, then closes: the bytes and the FIN leave in one
  /// segment, so the server reads every frame before it can see the EOF.
  bool SendAllThenClose(const std::string& bytes) {
    int one = 1;
    if (setsockopt(fd_, IPPROTO_TCP, TCP_CORK, &one, sizeof(one)) != 0) return false;
    bool sent = SendAll(bytes);
    Close();
    return sent;
  }
  /// Reads until one full frame is buffered or the peer closes; true with
  /// the payload on success, false on EOF.
  bool ReadFrame(std::string* payload) {
    char buf[4096];
    for (;;) {
      if (rx_.Next(payload) == FrameBuffer::Result::kFrame) return true;
      ssize_t r = read(fd_, buf, sizeof(buf));
      if (r <= 0) return false;
      rx_.Append(buf, static_cast<size_t>(r));
    }
  }
  /// True when the peer closes the connection (EOF) within the socket's
  /// lifetime; drains any pending responses first.
  bool ReadUntilEof() {
    char buf[4096];
    for (;;) {
      ssize_t r = read(fd_, buf, sizeof(buf));
      if (r == 0) return true;
      if (r < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  FrameBuffer rx_;
};

TEST(ServeServer, SmokeAllKindsMatchDirectCalls) {
  auto backend = MakeBackend();
  Server server(api::EngineRef(backend.get()));
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));

  Rng rng(902);
  for (int i = 0; i < 20; ++i) {
    Point2 q{rng.Uniform(-30, 30), rng.Uniform(-30, 30)};

    auto nn = client.Call(api::QueryRequest::NonzeroNN(q));
    ASSERT_TRUE(nn && nn->ok());
    EXPECT_EQ(nn->ids, backend->View()->NonzeroNN(q));

    auto quant = client.Call(api::QueryRequest::Quantify(q, 0.1));
    ASSERT_TRUE(quant && quant->ok());
    auto want = backend->View()->Quantify(q, 0.1);
    ASSERT_EQ(quant->quants.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(quant->quants[k].index, want[k].index);
      EXPECT_EQ(quant->quants[k].probability, want[k].probability);
    }

    auto ml = client.Call(api::QueryRequest::MostLikelyNN(q, 0.1));
    ASSERT_TRUE(ml && ml->ok());
    EXPECT_EQ(ml->id, backend->View()->MostLikelyNN(q, 0.1));
    EXPECT_GE(ml->server_micros, 0.0);
  }

  // Updates through the wire mutate the backend.
  auto ins = client.Call(api::QueryRequest::Insert(
      UncertainPoint::Discrete({{0, 0}, {1, 1}}, {0.5, 0.5})));
  ASSERT_TRUE(ins && ins->ok());
  EXPECT_GE(ins->id, 0);
  auto del = client.Call(api::QueryRequest::Erase(ins->id));
  ASSERT_TRUE(del && del->ok());
  EXPECT_EQ(del->id, ins->id);

  ServerStats stats = server.stats();
  EXPECT_GT(stats.requests_received, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.shed_overloaded, 0u);
  server.Stop();
}

TEST(ServeServer, InvalidRequestGetsStatusNotAbort) {
  auto backend = MakeBackend(10);
  Server server(api::EngineRef(backend.get()));
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  auto resp = client.Call(api::QueryRequest::Quantify({0, 0}, 2.0));
  ASSERT_TRUE(resp);
  EXPECT_EQ(resp->status, api::StatusCode::kInvalidArgument);
  // The connection stays usable after an application-level error.
  auto ok = client.Call(api::QueryRequest::NonzeroNN({0, 0}));
  ASSERT_TRUE(ok);
  EXPECT_TRUE(ok->ok());
}

TEST(ServeServer, PipeliningMatchesByRequestId) {
  auto backend = MakeBackend();
  Server server(api::EngineRef(backend.get()));
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));

  const int kInFlight = 64;
  std::vector<uint64_t> ids;
  Rng rng(903);
  for (int i = 0; i < kInFlight; ++i) {
    auto id = client.Send(api::QueryRequest::NonzeroNN(
        {rng.Uniform(-30, 30), rng.Uniform(-30, 30)}));
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  std::vector<uint64_t> got;
  for (int i = 0; i < kInFlight; ++i) {
    auto frame = client.Receive();
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frame->response.ok());
    got.push_back(frame->request_id);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, ids);  // Every request answered exactly once.
  // Concurrent requests should coalesce into fewer backend dispatches.
  EXPECT_GE(server.stats().coalescing_factor(), 1.0);
}

TEST(ServeServer, MalformedFrameAnsweredThenClosed) {
  auto backend = MakeBackend(10);
  Server server(api::EngineRef(backend.get()));
  ASSERT_TRUE(server.Start());
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));

  // A syntactically framed but semantically garbage payload (bad kind).
  std::string frame;
  AppendRequestFrame(123, api::QueryRequest::NonzeroNN({0, 0}), &frame);
  frame[kFramePrefixBytes + 14] = 99;  // Corrupt the kind byte.
  ASSERT_TRUE(conn.SendAll(frame));

  std::string payload;
  ASSERT_TRUE(conn.ReadFrame(&payload));
  ResponseFrame resp;
  ASSERT_TRUE(DecodeResponsePayload(payload.data(), payload.size(), &resp));
  EXPECT_EQ(resp.request_id, 123u);  // PeekRequestId still addressed it.
  EXPECT_EQ(resp.response.status, api::StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn.ReadUntilEof());  // Server closes after the error.
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST(ServeServer, OversizedFrameClosedCleanly) {
  auto backend = MakeBackend(10);
  ServerOptions opts;
  opts.max_frame_bytes = 256;
  Server server(api::EngineRef(backend.get()), opts);
  ASSERT_TRUE(server.Start());
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));
  uint32_t huge = 1u << 20;
  std::string prefix(4, '\0');
  std::memcpy(prefix.data(), &huge, 4);
  ASSERT_TRUE(conn.SendAll(prefix));
  std::string payload;
  // One error response (addressed to id 0), then EOF.
  ASSERT_TRUE(conn.ReadFrame(&payload));
  ResponseFrame resp;
  ASSERT_TRUE(DecodeResponsePayload(payload.data(), payload.size(), &resp));
  EXPECT_EQ(resp.response.status, api::StatusCode::kInvalidArgument);
  EXPECT_TRUE(conn.ReadUntilEof());
}

TEST(ServeServer, PartialFrameThenCompletionIsAnswered) {
  auto backend = MakeBackend(10);
  Server server(api::EngineRef(backend.get()));
  ASSERT_TRUE(server.Start());
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server.port()));

  std::string frame;
  AppendRequestFrame(5, api::QueryRequest::NonzeroNN({1, 1}), &frame);
  // Trickle the frame in three chunks with pauses: the server must wait
  // for completion, not treat the partial buffer as malformed.
  size_t third = frame.size() / 3;
  ASSERT_TRUE(conn.SendAll(frame.substr(0, third)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(conn.SendAll(frame.substr(third, third)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(conn.SendAll(frame.substr(2 * third)));

  std::string payload;
  ASSERT_TRUE(conn.ReadFrame(&payload));
  ResponseFrame resp;
  ASSERT_TRUE(DecodeResponsePayload(payload.data(), payload.size(), &resp));
  EXPECT_EQ(resp.request_id, 5u);
  EXPECT_TRUE(resp.response.ok());
}

// A vanished peer costs only its own connection. The reset case is
// deterministic: while the worker is busy and the one-slot queue is full,
// a peer sends frames and its FIN in one segment, so the server sheds the
// frames one by one before it reads the EOF. The first shed response hits
// the closed peer, which answers with a reset; the next one is written to
// a reset connection, where a plain write() raises SIGPIPE and kills the
// whole process.
TEST(ServeServer, DisconnectMidRequestDoesNotCrash) {
  auto backend = MakeDiskBackend(2000, 256);
  ServerOptions opts;
  opts.queue_limit = 1;
  opts.batch_max = 1;
  Server server(api::EngineRef(backend.get()), opts);
  ASSERT_TRUE(server.Start());

  // Occupy the worker with the first Quantify (it builds every round),
  // then fill the queue: a filler admitted without a shed means the
  // worker has taken the slow request.
  RawConn busy;
  ASSERT_TRUE(busy.Connect(server.port()));
  std::string frame;
  AppendRequestFrame(0, api::QueryRequest::Quantify({0, 0}, 0.1), &frame);
  ASSERT_TRUE(busy.SendAll(frame));
  ASSERT_TRUE(WaitFor([&] { return server.stats().requests_received == 1; }));
  uint64_t busy_requests = 1;
  for (;;) {
    uint64_t shed_before = server.stats().shed_overloaded;
    frame.clear();
    AppendRequestFrame(busy_requests, api::QueryRequest::NonzeroNN({0, 0}), &frame);
    ASSERT_TRUE(busy.SendAll(frame));
    ++busy_requests;
    ASSERT_TRUE(
        WaitFor([&] { return server.stats().requests_received == busy_requests; }));
    if (server.stats().shed_overloaded == shed_before) break;
  }

  // Frames plus FIN in one segment, then vanish.
  {
    uint64_t shed_before = server.stats().shed_overloaded;
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::string frames;
    for (int i = 0; i < 8; ++i) {
      AppendRequestFrame(static_cast<uint64_t>(i), api::QueryRequest::NonzeroNN({0, 0}),
                         &frames);
    }
    ASSERT_TRUE(conn.SendAllThenClose(frames));
    // The server has answered at least two of them with kOverloaded.
    ASSERT_TRUE(
        WaitFor([&] { return server.stats().shed_overloaded >= shed_before + 2; }));
  }
  // The busy connection still gets every response.
  for (uint64_t i = 0; i < busy_requests; ++i) {
    std::string payload;
    ASSERT_TRUE(busy.ReadFrame(&payload)) << "response " << i;
  }

  // Half a frame, then vanish.
  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    frame.clear();
    AppendRequestFrame(1, api::QueryRequest::Quantify({0, 0}, 0.1), &frame);
    ASSERT_TRUE(conn.SendAll(frame.substr(0, frame.size() / 2)));
  }
  // Full frames, then vanish before reading responses: the queued work
  // completes and its responses are dropped at completion drain.
  {
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server.port()));
    std::string frames;
    for (int i = 0; i < 8; ++i) {
      AppendRequestFrame(static_cast<uint64_t>(i),
                         api::QueryRequest::Quantify({0, 0}, 0.1), &frames);
    }
    ASSERT_TRUE(conn.SendAll(frames));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The server is still healthy for a fresh client.
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  auto resp = client.Call(api::QueryRequest::NonzeroNN({0, 0}));
  ASSERT_TRUE(resp);
  EXPECT_TRUE(resp->ok());
  server.Stop();
}

TEST(ServeServer, ExpiredDeadlineAnsweredNotDropped) {
  auto backend = MakeBackend();
  Server server(api::EngineRef(backend.get()));
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));

  api::QueryRequest req = api::QueryRequest::Quantify({0, 0}, 0.1);
  req.deadline_micros = 1;  // Expires essentially immediately.
  int exceeded = 0;
  for (int i = 0; i < 32; ++i) {
    auto resp = client.Call(req);
    ASSERT_TRUE(resp.has_value());  // ALWAYS answered, never dropped.
    if (resp->status == api::StatusCode::kDeadlineExceeded) ++exceeded;
  }
  // With a 1us budget, at least some (in practice all) must expire
  // between receipt and dispatch.
  EXPECT_GT(exceeded, 0);
  EXPECT_EQ(server.stats().deadline_exceeded, static_cast<uint64_t>(exceeded));
  server.Stop();
}

TEST(ServeServer, OverloadShedsWithExplicitStatus) {
  auto backend = MakeBackend();
  ServerOptions opts;
  opts.queue_limit = 4;  // Tiny admission bound.
  opts.batch_max = 2;
  Server server(api::EngineRef(backend.get()), opts);
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));

  // Blast expensive requests open-loop; with a queue of 4 most must shed.
  const int kBurst = 256;
  Rng rng(904);
  int sent = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto id = client.Send(api::QueryRequest::Quantify(
        {rng.Uniform(-30, 30), rng.Uniform(-30, 30)}, 0.05));
    if (!id) break;
    ++sent;
  }
  int ok = 0, shed = 0, other = 0;
  for (int i = 0; i < sent; ++i) {
    auto frame = client.Receive();
    ASSERT_TRUE(frame.has_value()) << "response " << i << " of " << sent;
    if (frame->response.status == api::StatusCode::kOk) {
      ++ok;
    } else if (frame->response.status == api::StatusCode::kOverloaded) {
      ++shed;
    } else {
      ++other;
    }
  }
  // Every request answered: admitted ones with kOk, the overflow with
  // kOverloaded, nothing lost or crashed.
  EXPECT_EQ(ok + shed + other, sent);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(other, 0);
  EXPECT_EQ(server.stats().shed_overloaded, static_cast<uint64_t>(shed));
  server.Stop();
}

TEST(ServeServer, StopIsGracefulAndIdempotent) {
  auto backend = MakeBackend(10);
  Server server(api::EngineRef(backend.get()));
  ASSERT_TRUE(server.Start());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Queue work, then stop: everything admitted is answered before close.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    auto id = client.Send(api::QueryRequest::Quantify({0, 0}, 0.1));
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  // Wait until the server has decoded every frame (they may still sit in
  // the socket buffer right after Send returns), then stop concurrently
  // with receiving: all admitted work must be answered before close.
  while (server.stats().requests_received < ids.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread stopper([&] { server.Stop(); });
  size_t answered = 0;
  while (answered < ids.size()) {
    auto frame = client.Receive();
    if (!frame) break;  // EOF after the flush is legal.
    ++answered;
  }
  stopper.join();
  EXPECT_EQ(answered, ids.size());
  server.Stop();  // Idempotent.
  EXPECT_FALSE(server.running());
}

TEST(ServeServer, ManyConnectionsConcurrently) {
  auto backend = MakeBackend();
  Server server(api::EngineRef(backend.get()));
  ASSERT_TRUE(server.Start());
  const int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (!client.Connect(server.port())) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(1000 + static_cast<uint64_t>(c));
      for (int i = 0; i < 25; ++i) {
        auto resp = client.Call(api::QueryRequest::NonzeroNN(
            {rng.Uniform(-30, 30), rng.Uniform(-30, 30)}));
        if (!resp || !resp->ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().connections_accepted, static_cast<uint64_t>(kClients));
  server.Stop();
}

// Inserts and erases acked over the wire survive a StoreServer restart:
// the reopened store holds exactly the acked live set and serves answers
// bit-identical to a fresh static Engine over it.
TEST(ServeStoreServer, RestartRecoversAckedUpdates) {
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    std::string dir =
        testing::TempDir() + "/serve_store_restart_" + std::to_string(shards);
    std::filesystem::remove_all(dir);
    StoreServer::Options options;
    options.num_shards = shards;
    options.sharded.sharded.shard.engine.seed = 77;
    options.sharded.sharded.shard.engine.mc_rounds_override = 48;
    options.sharded.sharded.shard.tail_limit = 8;  // Merges -> segments.

    std::vector<dyn::Id> acked;
    {
      auto store_server = StoreServer::Open(dir, options);
      ASSERT_TRUE(store_server->Start());
      Client client;
      ASSERT_TRUE(client.Connect(store_server->port()));
      Rng rng(1200 + shards);
      auto locs = RandomDiscreteLocations(60, 3, 25, 4, &rng);
      for (const auto& l : locs) {
        if (acked.empty() || rng.Bernoulli(0.7)) {
          std::vector<double> w(l.size(), 1.0 / static_cast<double>(l.size()));
          auto ins =
              client.Call(api::QueryRequest::Insert(UncertainPoint::Discrete(l, w)));
          ASSERT_TRUE(ins && ins->ok());
          acked.push_back(ins->id);
        } else {
          size_t pick = static_cast<size_t>(rng.UniformInt(0, acked.size() - 1));
          auto del = client.Call(api::QueryRequest::Erase(acked[pick]));
          ASSERT_TRUE(del && del->ok());
          EXPECT_EQ(del->id, acked[pick]);
          acked.erase(acked.begin() + static_cast<long>(pick));
        }
      }
      store_server->Stop();
    }
    std::sort(acked.begin(), acked.end());

    auto store_server = StoreServer::Open(dir, options);
    ASSERT_TRUE(store_server->Start());
    const shard::ShardedEngine& engine = store_server->sharded_store()->engine();
    EXPECT_EQ(engine.num_shards(), shards);
    std::vector<dyn::Id> ids;
    UncertainSet live = engine.LiveSet(&ids);
    ASSERT_EQ(ids, acked);
    Engine reference(live, engine.ReferenceEngineOptions());
    Client client;
    ASSERT_TRUE(client.Connect(store_server->port()));
    Rng rng(1300 + shards);
    for (int t = 0; t < 15; ++t) {
      Point2 q{rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
      auto nn = client.Call(api::QueryRequest::NonzeroNN(q));
      ASSERT_TRUE(nn && nn->ok());
      std::vector<dyn::Id> want_nn;
      for (int i : reference.NonzeroNN(q)) want_nn.push_back(ids[i]);
      EXPECT_EQ(nn->ids, want_nn);
      auto quant = client.Call(api::QueryRequest::Quantify(q, 0.1));
      ASSERT_TRUE(quant && quant->ok());
      std::vector<Quantification> want = reference.Quantify(q, 0.1);
      ASSERT_EQ(quant->quants.size(), want.size());
      for (size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(quant->quants[k].index, ids[want[k].index]);
        EXPECT_EQ(quant->quants[k].probability, want[k].probability);
      }
    }
    store_server->Stop();
  }
}

}  // namespace
}  // namespace serve
}  // namespace pnn
