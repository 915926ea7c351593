#include "dedup/recipe.h"

#include <algorithm>
#include <optional>

#include "common/encoding.h"
#include "ec/reed_solomon.h"
#include "osd/cluster_context.h"
#include "osd/object_store.h"
#include "osd/osd.h"

namespace gdedup {

Buffer encode_recipe_chunk(const std::vector<ChunkMapEntry>& entries) {
  Encoder e;
  e.put_u32(kRecipeChunkMagic);
  e.put_u8(1);  // version
  e.put_varint(entries.size());
  for (const ChunkMapEntry& ent : entries) {
    Buffer packed = ChunkMap::encode_entry_packed(ent);
    e.put_varint(packed.size());
    for (size_t i = 0; i < packed.size(); i++) e.put_u8(packed.data()[i]);
  }
  return e.finish();
}

Result<std::vector<ChunkMapEntry>> decode_recipe_chunk(const Buffer& b) {
  Decoder d(b);
  uint32_t magic = 0;
  uint8_t ver = 0;
  uint64_t count = 0;
  if (auto s = d.get_u32(&magic); !s.is_ok()) return s;
  if (magic != kRecipeChunkMagic) return Status::corruption("bad recipe magic");
  if (auto s = d.get_u8(&ver); !s.is_ok()) return s;
  if (ver != 1) return Status::corruption("bad recipe version");
  if (auto s = d.get_varint(&count); !s.is_ok()) return s;
  std::vector<ChunkMapEntry> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; i++) {
    uint64_t n = 0;
    if (auto s = d.get_varint(&n); !s.is_ok()) return s;
    if (d.remaining() < n) return Status::corruption("short recipe entry");
    Buffer packed(n);
    for (uint64_t j = 0; j < n; j++) {
      uint8_t byte = 0;
      if (auto s = d.get_u8(&byte); !s.is_ok()) return s;
      packed.mutable_data()[j] = byte;
    }
    auto ent = ChunkMap::decode_entry_packed(packed);
    if (!ent.is_ok()) return ent.status();
    out.push_back(std::move(ent).value());
  }
  return out;
}

namespace {

// Stores to consult for (pool, oid): acting order first so the common
// case reads the primary's copy, then every other up OSD — a degraded
// placement can leave the only surviving copy outside the acting set
// until recovery backfills it.
std::vector<const ObjectStore*> candidate_stores(ClusterContext* ctx,
                                                 PoolId pool,
                                                 const std::string& oid) {
  std::vector<const ObjectStore*> out;
  std::vector<OsdId> order = ctx->osdmap().acting(pool, oid);
  for (OsdId id : ctx->osdmap().all_osds()) {
    if (std::find(order.begin(), order.end(), id) == order.end()) {
      order.push_back(id);
    }
  }
  for (OsdId id : order) {
    Osd* o = ctx->osd(id);
    if (o == nullptr || !o->is_up()) continue;
    const ObjectStore* st = o->store_if_exists(pool);
    if (st != nullptr) out.push_back(st);
  }
  return out;
}

}  // namespace

Result<Buffer> peek_chunk_content(ClusterContext* ctx, PoolId pool,
                                  const std::string& oid) {
  const PoolConfig& pcfg = ctx->osdmap().pool(pool);
  const ObjectKey key{pool, oid};
  if (pcfg.scheme == RedundancyScheme::kReplicated) {
    for (const ObjectStore* st : candidate_stores(ctx, pool, oid)) {
      auto data = st->read(key, 0, 0);
      if (data.is_ok()) return data;
    }
    return Status::not_found(oid);
  }
  // EC: gather shards from whichever up holders have them and decode.
  ReedSolomon rs(pcfg.ec_k, pcfg.ec_m);
  std::vector<std::optional<Buffer>> shards(
      static_cast<size_t>(pcfg.ec_k + pcfg.ec_m));
  uint64_t orig_len = 0;
  bool any = false;
  for (const ObjectStore* st : candidate_stores(ctx, pool, oid)) {
    auto data = st->read(key, 0, 0);
    auto shard_attr = st->getxattr(key, "ec.shard");
    if (!data.is_ok() || !shard_attr.is_ok()) continue;
    Decoder d(shard_attr.value());
    uint32_t idx = 0;
    if (!d.get_u32(&idx).is_ok() ||
        idx >= static_cast<uint32_t>(pcfg.ec_k + pcfg.ec_m)) {
      continue;
    }
    if (shards[idx].has_value()) continue;
    shards[idx] = std::move(data).value();
    any = true;
    auto len_attr = st->getxattr(key, "ec.orig_len");
    if (len_attr.is_ok()) {
      Decoder ld(len_attr.value());
      uint64_t v = 0;
      if (ld.get_u64(&v).is_ok()) orig_len = v;
    }
  }
  if (!any) return Status::not_found(oid);
  return rs.decode(shards, orig_len);
}

bool peek_chunk_exists(ClusterContext* ctx, PoolId pool,
                       const std::string& oid) {
  const OsdId primary = ctx->osdmap().primary(pool, oid);
  if (primary < 0) return false;
  Osd* o = ctx->osd(primary);
  return o != nullptr && o->is_up() && o->local_exists(pool, oid);
}

Result<ChunkMap> load_chunk_map_resolved(ClusterContext* ctx,
                                         const ObjectStore& store,
                                         const ObjectKey& key,
                                         uint64_t* bytes_read) {
  ChunkMap cm;
  for (const auto& [k, v] : store.omap_list(key, kChunkEntryPrefix)) {
    auto ent = ChunkMap::decode_entry_auto(v);
    if (!ent.is_ok()) return ent.status();
    ChunkMapEntry e = std::move(ent).value();
    e.inline_rec = true;
    if (bytes_read != nullptr) *bytes_read += k.size() + v.size();
    cm.put(std::move(e));
  }
  for (const auto& [k, v] : store.omap_list(key, kRecipeRecordPrefix)) {
    auto rec = RecipeRecord::decode(v);
    if (!rec.is_ok()) return rec.status();
    if (bytes_read != nullptr) *bytes_read += k.size() + v.size();
    RecipeRecord r = std::move(rec).value();
    const uint64_t base = r.base;
    cm.recipes()[base] = std::move(r);
  }
  for (const auto& [base, rec] : cm.recipes()) {
    auto content = peek_chunk_content(ctx, rec.chunk_pool, rec.chunk_id);
    if (!content.is_ok()) {
      // Every holder of the recipe chunk is down.  The inline entries are
      // still authoritative for their offsets, but the map is incomplete:
      // flag it so ref enumerators (GC, invariants) act conservatively.
      cm.set_unresolved(true);
      continue;
    }
    if (bytes_read != nullptr) *bytes_read += content->size();
    auto members = decode_recipe_chunk(content.value());
    if (!members.is_ok()) return members.status();
    for (ChunkMapEntry& e : members.value()) {
      // Inline overlay wins: a shadowed member was mutated after the
      // recipe was written and its inline record carries the truth.
      if (cm.find(e.offset) != nullptr) continue;
      e.inline_rec = false;
      cm.put(std::move(e));
    }
  }
  return cm;
}

}  // namespace gdedup
