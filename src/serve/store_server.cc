#include "src/serve/store_server.h"

#include <utility>

namespace pnn {
namespace serve {

std::unique_ptr<StoreServer> StoreServer::Open(const std::string& dir,
                                               Options options) {
  std::unique_ptr<StoreServer> s(new StoreServer());
  options.sharded.sharded.num_shards = options.num_shards;
  s->sharded_store_ = store::ShardedStore::Open(dir, std::move(options.sharded));
  s->server_ = std::make_unique<Server>(api::EngineRef(s->sharded_store_.get()),
                                        options.server);
  return s;
}

StoreServer::~StoreServer() { server_->Stop(); }

}  // namespace serve
}  // namespace pnn
