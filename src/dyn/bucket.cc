#include "src/dyn/bucket.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace pnn {
namespace dyn {

namespace {

// The bucket engine samples each point's rounds under its stable id.
Engine::Options SampledById(Engine::Options options, const std::vector<Id>& ids) {
  options.mc_stream_ids.assign(ids.begin(), ids.end());
  return options;
}

}  // namespace

Bucket::Bucket(const std::vector<Id>& ids, UncertainSet points, Engine::Options options)
    : Bucket(std::make_shared<const Engine>(std::move(points),
                                            SampledById(std::move(options), ids))) {}

Bucket::Bucket(std::shared_ptr<const Engine> engine, bool by_index)
    : engine_(std::move(engine)),
      ids_(by_index ? nullptr : engine_->options().mc_stream_ids.data()) {
  if (by_index) return;
  const std::vector<uint64_t>& ids = engine_->options().mc_stream_ids;
  PNN_CHECK_MSG(ids.size() == engine_->points().size(),
                "bucket ids/points size mismatch");
  PNN_CHECK_MSG(std::is_sorted(ids.begin(), ids.end()), "bucket ids must ascend");
}

int Bucket::LocalIndex(Id id) const {
  if (ids_ == nullptr) return id >= 0 && static_cast<size_t>(id) < size() ? id : -1;
  const uint64_t* end = ids_ + size();
  const uint64_t* it = std::lower_bound(ids_, end, static_cast<uint64_t>(id));
  if (it == end || *it != static_cast<uint64_t>(id)) return -1;
  return static_cast<int>(it - ids_);
}

}  // namespace dyn
}  // namespace pnn
