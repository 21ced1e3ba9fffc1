// pnn::serve::StoreServer — open-from-dir serving: recovers (or
// initializes) a durable store::ShardedStore at a directory and serves it
// over the RPC protocol. This is the production startup path: a process
// restart is Open() + Start(), and every Insert/Erase acked over the wire
// was fsync'd to the owning shard's op log first (the store's write-ahead
// contract), so the served live set survives the next crash. One shard
// (the default) is the durable single engine.

#ifndef PNN_SERVE_STORE_SERVER_H_
#define PNN_SERVE_STORE_SERVER_H_

#include <memory>
#include <string>

#include "src/serve/server.h"
#include "src/store/sharded_store.h"

namespace pnn {
namespace serve {

class StoreServer {
 public:
  struct Options {
    /// Shard count of the durable router; >= 1 (checked). Overrides
    /// sharded.sharded.num_shards.
    uint32_t num_shards = 1;
    store::ShardedStore::Options sharded;
    ServerOptions server;
  };

  /// Recovers or initializes the store, then builds the server over it
  /// (not yet started). Aborts on disk corruption, like
  /// store::ShardedStore::Open.
  static std::unique_ptr<StoreServer> Open(const std::string& dir,
                                           Options options);

  ~StoreServer();

  bool Start() { return server_->Start(); }
  void Stop() { server_->Stop(); }
  uint16_t port() const { return server_->port(); }

  Server& server() { return *server_; }
  store::ShardedStore* sharded_store() { return sharded_store_.get(); }

 private:
  StoreServer() = default;

  std::unique_ptr<store::ShardedStore> sharded_store_;
  /// Declared last: the server stops before the store it reads closes.
  std::unique_ptr<Server> server_;
};

}  // namespace serve
}  // namespace pnn

#endif  // PNN_SERVE_STORE_SERVER_H_
