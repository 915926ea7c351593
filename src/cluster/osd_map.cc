#include "cluster/osd_map.h"

#include <algorithm>
#include <cassert>

#include "common/random.h"

namespace gdedup {

void OsdMap::add_osd(OsdId id, HostId host, double weight) {
  crush_.add_device(id, host, weight);
  osd_ids_.insert(std::lower_bound(osd_ids_.begin(), osd_ids_.end(), id), id);
  up_[id] = true;
  epoch_++;
  rebuild_placement();
}

void OsdMap::mark_down(OsdId id) {
  assert(up_.count(id));
  if (up_[id]) {
    up_[id] = false;
    epoch_++;
    rebuild_placement();
  }
}

void OsdMap::mark_up(OsdId id) {
  assert(up_.count(id));
  if (!up_[id]) {
    up_[id] = true;
    epoch_++;
    rebuild_placement();
  }
}

bool OsdMap::is_up(OsdId id) const {
  auto it = up_.find(id);
  return it != up_.end() && it->second;
}

std::vector<OsdId> OsdMap::up_osds() const {
  std::vector<OsdId> out;
  for (const auto& [id, up] : up_) {
    if (up) out.push_back(id);
  }
  return out;
}

PoolId OsdMap::create_pool(PoolConfig cfg) {
  assert(cfg.pg_num > 0);
  const PoolId id = next_pool_++;
  pools_[id] = std::move(cfg);
  epoch_++;
  rebuild_placement();
  return id;
}

const PoolConfig& OsdMap::pool(PoolId id) const {
  auto it = pools_.find(id);
  assert(it != pools_.end());
  return it->second;
}

void OsdMap::set_dedup_config(PoolId id, const DedupTierConfig& dedup) {
  auto it = pools_.find(id);
  assert(it != pools_.end());
  it->second.dedup = dedup;
  epoch_++;  // placement is unchanged, so the table stays valid
}

std::optional<PoolId> OsdMap::pool_by_name(const std::string& name) const {
  for (const auto& [id, cfg] : pools_) {
    if (cfg.name == name) return id;
  }
  return std::nullopt;
}

std::vector<PoolId> OsdMap::pool_ids() const {
  std::vector<PoolId> out;
  out.reserve(pools_.size());
  for (const auto& [id, cfg] : pools_) out.push_back(id);
  return out;
}

uint32_t OsdMap::pg_of(PoolId pool, const std::string& oid) const {
  const PoolConfig& cfg = this->pool(pool);
  return static_cast<uint32_t>(fnv1a(oid) % cfg.pg_num);
}

uint64_t OsdMap::placement_seed(PoolId pool, uint32_t pg) const {
  return mix64((static_cast<uint64_t>(pool) << 32) | pg);
}

void OsdMap::rebuild_placement() {
  std::vector<OsdId> down;
  for (const auto& [id, up] : up_) {
    if (!up) down.push_back(id);
  }
  // Update in place: a set never outgrows the capacity reserved at its
  // first build, so references handed out stay valid across epochs (only
  // the contents change), and a new pool only appends a table.
  placement_.resize(static_cast<size_t>(next_pool_));
  for (const auto& [pool, cfg] : pools_) {
    auto& table = placement_[static_cast<size_t>(pool)];
    table.resize(cfg.pg_num);
    for (uint32_t pg = 0; pg < cfg.pg_num; pg++) {
      const auto sel =
          crush_.select(placement_seed(pool, pg), cfg.size(), down);
      table[pg].reserve(static_cast<size_t>(cfg.size()));
      table[pg].assign(sel.begin(), sel.end());
    }
  }
}

const std::vector<OsdId>& OsdMap::acting_for_pg(PoolId pool,
                                                uint32_t pg) const {
  assert(has_pool(pool) && pg < placement_[static_cast<size_t>(pool)].size());
  return placement_[static_cast<size_t>(pool)][pg];
}

}  // namespace gdedup
