#include "dedup/invariants.h"

#include <algorithm>

#include "common/encoding.h"
#include "dedup/chunk_map.h"
#include "dedup/recipe.h"
#include "osd/osd.h"

namespace gdedup {

namespace dedup_walk {

std::map<ObjectKey, std::vector<OsdId>> holders(ClusterContext* ctx,
                                                PoolId pool) {
  std::map<ObjectKey, std::vector<OsdId>> out;
  for (OsdId id : ctx->osdmap().all_osds()) {
    Osd* o = ctx->osd(id);
    if (o == nullptr || !o->is_up()) continue;
    const ObjectStore* st = o->store_if_exists(pool);
    if (st == nullptr) continue;
    for (const auto& key : st->list(pool)) {
      out[key].push_back(id);
    }
  }
  return out;
}

std::map<std::string, std::set<ChunkRef>> live_refs(ClusterContext* ctx,
                                                    PoolId meta_pool,
                                                    bool any_holder,
                                                    bool* any_unresolved) {
  std::map<std::string, std::set<ChunkRef>> live;
  for (OsdId id : ctx->osdmap().all_osds()) {
    Osd* o = ctx->osd(id);
    if (o == nullptr || !o->is_up()) continue;
    const ObjectStore* st = o->store_if_exists(meta_pool);
    if (st == nullptr) continue;
    for (const auto& key : st->list(meta_pool)) {
      // Primary copies are authoritative; replica copies are unioned in
      // only when the caller asked for the conservative degraded-state
      // view (see the header comment).
      if (!any_holder && ctx->osdmap().primary(meta_pool, key.oid) != id) {
        continue;
      }
      auto cm = load_chunk_map_resolved(ctx, *st, key);
      if (!cm.is_ok()) continue;
      if (cm->unresolved() && any_unresolved != nullptr) {
        *any_unresolved = true;
      }
      for (const auto& [off, e] : cm->entries()) {
        if (e.flushed()) {
          live[e.chunk_id].insert(ChunkRef{meta_pool, key.oid, off});
        }
      }
      for (const auto& [base, rec] : cm->recipes()) {
        live[rec.chunk_id].insert(
            ChunkRef{meta_pool, key.oid, kRecipeRefBit | base});
      }
    }
  }
  return live;
}

bool object_busy(ClusterContext* ctx, PoolId meta_pool,
                 const std::string& oid) {
  for (OsdId id : ctx->osdmap().all_osds()) {
    Osd* o = ctx->osd(id);
    if (o == nullptr || !o->is_up()) continue;
    TierService* t = o->tier(meta_pool);
    if (t != nullptr && t->object_busy(oid)) return true;
  }
  return false;
}

size_t total_backlog(ClusterContext* ctx, PoolId meta_pool) {
  size_t total = 0;
  for (OsdId id : ctx->osdmap().all_osds()) {
    Osd* o = ctx->osd(id);
    if (o == nullptr || !o->is_up()) continue;
    TierService* t = o->tier(meta_pool);
    if (t != nullptr) total += t->dirty_backlog();
  }
  return total;
}

}  // namespace dedup_walk

std::string InvariantReport::to_string() const {
  std::string out = "invariants: objects=" + std::to_string(objects_checked) +
                    " entries=" + std::to_string(entries_checked) +
                    " chunks=" + std::to_string(chunks_checked) +
                    " refs=" + std::to_string(refs_checked) +
                    " bytes_compared=" + std::to_string(bytes_compared) +
                    " stray_copies=" + std::to_string(stray_copies) +
                    " violations=" + std::to_string(violations.size()) + "\n";
  for (const auto& v : violations) out += "  VIOLATION: " + v + "\n";
  return out;
}

void InvariantChecker::check_conservation(InvariantReport* rep) const {
  bool unresolved = false;
  const auto live = dedup_walk::live_refs(ctx_, meta_, /*any_holder=*/false,
                                          &unresolved);

  // Metadata side: every primary chunk map must be quiesced, and every
  // flushed entry must find its chunk (with the matching ref recorded) on
  // the chunk's primary.
  for (const auto& [key, who] : dedup_walk::holders(ctx_, meta_)) {
    const auto& acting = ctx_->osdmap().acting(meta_, key.oid);
    for (OsdId id : who) {
      if (std::find(acting.begin(), acting.end(), id) == acting.end()) {
        rep->stray_copies++;
      }
    }
    const OsdId prim = ctx_->osdmap().primary(meta_, key.oid);
    if (prim < 0 || std::find(who.begin(), who.end(), prim) == who.end()) {
      rep->violations.push_back("object " + key.oid +
                                " has no copy on its primary");
      continue;
    }
    Osd* po = ctx_->osd(prim);
    const ObjectStore* st = po ? po->store_if_exists(meta_) : nullptr;
    if (st == nullptr) continue;
    rep->objects_checked++;
    auto cm = load_chunk_map_resolved(ctx_, *st, key);
    if (!cm.is_ok()) {
      rep->violations.push_back("object " + key.oid +
                                " chunk map undecodable");
      continue;
    }
    if (cm->unresolved()) {
      rep->violations.push_back("object " + key.oid +
                                " has unresolvable recipe chunks");
      continue;
    }
    for (const auto& [base, rec] : cm->recipes()) {
      rep->entries_checked++;
      const std::string at =
          key.oid + "@recipe:" + std::to_string(base);
      const OsdId rprim = ctx_->osdmap().primary(chunks_, rec.chunk_id);
      Osd* ro = rprim >= 0 ? ctx_->osd(rprim) : nullptr;
      if (ro == nullptr || !ro->local_exists(chunks_, rec.chunk_id)) {
        rep->violations.push_back("lost recipe chunk: " + at +
                                  " references " + rec.chunk_id +
                                  " which is not on its primary");
        continue;
      }
      std::vector<ChunkRef> rrefs;
      if (auto raw = ro->local_getxattr(chunks_, rec.chunk_id, kRefsXattr);
          raw.is_ok()) {
        if (auto dec = decode_refs(raw.value()); dec.is_ok()) {
          rrefs = std::move(dec).value();
        }
      }
      const ChunkRef want{meta_, key.oid, kRecipeRefBit | base};
      if (std::find(rrefs.begin(), rrefs.end(), want) == rrefs.end()) {
        rep->violations.push_back("missing ref: recipe chunk " +
                                  rec.chunk_id + " does not record holder " +
                                  at);
      }
    }
    for (const auto& [off, e] : cm->entries()) {
      rep->entries_checked++;
      const std::string at = key.oid + "@" + std::to_string(off);
      if (e.dirty) {
        rep->violations.push_back("not quiesced: entry " + at +
                                  " still dirty");
      }
      if (!e.flushed()) continue;
      const OsdId cprim = ctx_->osdmap().primary(chunks_, e.chunk_id);
      Osd* co = cprim >= 0 ? ctx_->osd(cprim) : nullptr;
      if (co == nullptr || !co->local_exists(chunks_, e.chunk_id)) {
        rep->violations.push_back("lost chunk: entry " + at + " references " +
                                  e.chunk_id + " which is not on its primary");
        continue;
      }
      std::vector<ChunkRef> refs;
      if (auto raw = co->local_getxattr(chunks_, e.chunk_id, kRefsXattr);
          raw.is_ok()) {
        if (auto dec = decode_refs(raw.value()); dec.is_ok()) {
          refs = std::move(dec).value();
        }
      }
      const ChunkRef want{meta_, key.oid, off};
      if (std::find(refs.begin(), refs.end(), want) == refs.end()) {
        rep->violations.push_back("missing ref: chunk " + e.chunk_id +
                                  " does not record holder " + at);
      }
    }
  }

  // Chunk side: every chunk must be reachable (non-empty refs) and every
  // recorded ref must match a flushed entry.
  for (const auto& [key, who] : dedup_walk::holders(ctx_, chunks_)) {
    rep->chunks_checked++;
    const auto& acting = ctx_->osdmap().acting(chunks_, key.oid);
    for (OsdId id : who) {
      if (std::find(acting.begin(), acting.end(), id) == acting.end()) {
        rep->stray_copies++;
      }
    }
    const OsdId prim = ctx_->osdmap().primary(chunks_, key.oid);
    if (prim < 0 || std::find(who.begin(), who.end(), prim) == who.end()) {
      rep->violations.push_back("chunk " + key.oid +
                                " has no copy on its primary");
      continue;
    }
    Osd* o = ctx_->osd(prim);
    std::vector<ChunkRef> refs;
    bool decoded = false;
    if (auto raw = o->local_getxattr(chunks_, key.oid, kRefsXattr);
        raw.is_ok()) {
      if (auto dec = decode_refs(raw.value()); dec.is_ok()) {
        refs = std::move(dec).value();
        decoded = true;
      }
    }
    if (!decoded || refs.empty()) {
      rep->violations.push_back("unreachable chunk: " + key.oid +
                                " has no recorded refs");
      continue;
    }
    const auto live_it = live.find(key.oid);
    for (const auto& r : refs) {
      rep->refs_checked++;
      const bool ok = r.pool == meta_ && live_it != live.end() &&
                      live_it->second.count(r) > 0;
      // An unresolved map elsewhere means `live` is incomplete — absence
      // from it no longer proves staleness, so skip the accusation.
      if (!ok && !unresolved) {
        rep->violations.push_back("stale ref: chunk " + key.oid +
                                  " records absent holder " + r.oid + "@" +
                                  std::to_string(r.offset));
      }
    }
  }
}

InvariantReport InvariantChecker::check_metadata() const {
  InvariantReport rep;
  check_conservation(&rep);
  std::sort(rep.violations.begin(), rep.violations.end());
  return rep;
}

InvariantReport InvariantChecker::check(
    const std::map<std::string, Buffer>& oracle,
    const std::set<std::string>& removed, const ReadFn& read_fn) const {
  InvariantReport rep;
  check_conservation(&rep);

  for (const auto& [oid, want] : oracle) {
    auto r = read_fn(oid);
    if (!r.is_ok()) {
      rep.violations.push_back("readback failed: " + oid + " (" +
                               std::string(code_name(r.status().code())) +
                               ")");
      continue;
    }
    rep.bytes_compared += want.size();
    if (!r.value().content_equals(want)) {
      // Locate the divergence: a chunk-aligned run points at the dedup
      // layer, a sub-chunk run at the overlay/merge path.
      const Buffer& got = r.value();
      const size_t n = std::min<size_t>(got.size(), want.size());
      size_t first = n;
      size_t last = 0;
      for (size_t i = 0; i < n; i++) {
        if (got.data()[i] != want.data()[i]) {
          if (first == n) first = i;
          last = i;
        }
      }
      size_t zeros = 0;
      for (size_t i = first; i <= last && i < n; i++) {
        if (got.data()[i] == 0) zeros++;
      }
      rep.violations.push_back(
          "readback mismatch: " + oid + " (got " +
          std::to_string(got.size()) + " bytes, want " +
          std::to_string(want.size()) + ", diff bytes [" +
          std::to_string(first) + ", " + std::to_string(last) +
          "], got[first]=" + std::to_string(got.data()[first]) +
          " want[first]=" + std::to_string(want.data()[first]) +
          " zeros_in_got_range=" + std::to_string(zeros) + ")");
    }
  }
  for (const auto& oid : removed) {
    if (auto r = read_fn(oid); r.is_ok()) {
      rep.violations.push_back("removed object still readable: " + oid);
    }
  }

  std::sort(rep.violations.begin(), rep.violations.end());
  return rep;
}

}  // namespace gdedup
