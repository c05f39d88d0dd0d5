#ifndef WLM_TELEMETRY_BOUNDED_STORE_H_
#define WLM_TELEMETRY_BOUNDED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

namespace wlm {

/// Insert step shared by the bounded per-query stores (Tracer,
/// ProfileStore). While `map` holds `cap` or more entries and some entry
/// has finished, the oldest finished one (front of `finished_order`) is
/// evicted and counted in `evicted`; live entries are never dropped. The
/// last evicted node is re-keyed to `key` and reused, so the steady state
/// allocates nothing: `reset` must return its value to the default state
/// (keeping whatever buffer capacity it likes). Without an eviction the
/// value is default-constructed. `key` must not already be present. The
/// insert is hinted at end(), so an ordered map whose keys only grow
/// (JourneyLog's journey ids) inserts in amortized constant time.
template <typename Map, typename Reset>
typename Map::mapped_type& EmplaceRecycled(
    Map& map, std::deque<typename Map::key_type>& finished_order, size_t cap,
    int64_t& evicted, const typename Map::key_type& key, Reset reset) {
  typename Map::node_type node;
  while (map.size() >= cap && !finished_order.empty()) {
    node = map.extract(finished_order.front());
    finished_order.pop_front();
    ++evicted;
  }
  if (node.empty()) return map.try_emplace(map.end(), key)->second;
  node.key() = key;
  reset(node.mapped());
  return map.insert(map.end(), std::move(node))->second;
}

}  // namespace wlm

#endif  // WLM_TELEMETRY_BOUNDED_STORE_H_
