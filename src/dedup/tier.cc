#include "dedup/tier.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "dedup/recipe.h"
#include "hash/fingerprint.h"
#include "hash/weak_hash.h"
#include "osd/messages.h"

namespace gdedup {

namespace {

// Gather helper for multi-part async assembly (reads / pre-reads).
struct Gather {
  std::vector<Buffer> parts;
  int outstanding = 0;
  Status worst;
  StatusFn done;

  void arrive(size_t idx, Result<Buffer> r) {
    if (r.is_ok()) {
      if (idx < parts.size()) parts[idx] = std::move(r).value();
    } else if (worst.is_ok()) {
      worst = r.status();
    }
    if (--outstanding == 0) {
      // Move out before invoking: `done` routinely captures the Gather's
      // own shared_ptr (via a locked weak ref), and leaving it stored
      // would keep the parts alive past completion.
      StatusFn fn = std::move(done);
      fn(worst);
    }
  }
};

}  // namespace

DedupTier::DedupTier(Osd* osd, PoolId pool)
    : osd_(osd),
      pool_(pool),
      chunker_(osd->ctx().osdmap().pool(pool).dedup.chunk_size),
      hitset_(osd->ctx().osdmap().pool(pool).dedup.hitset_period,
              osd->ctx().osdmap().pool(pool).dedup.hitset_count,
              osd->ctx().osdmap().pool(pool).dedup.hitcount_threshold),
      rate_(osd->ctx().osdmap().pool(pool).dedup) {
  obs::PerfCountersBuilder b("tier.osd" + std::to_string(osd->id()) + ".pool" +
                                 std::to_string(pool),
                             l_tier_first, l_tier_last);
  b.add_counter(l_tier_writes, "writes");
  b.add_counter(l_tier_reads, "reads");
  b.add_counter(l_tier_removes, "removes");
  b.add_counter(l_tier_prereads, "prereads");
  b.add_counter(l_tier_flush_merges, "flush_merges");
  b.add_counter(l_tier_cached_read_chunks, "cached_read_chunks");
  b.add_counter(l_tier_redirected_read_chunks, "redirected_read_chunks");
  b.add_counter(l_tier_chunks_flushed, "chunks_flushed");
  b.add_counter(l_tier_flush_bytes, "flush_bytes");
  b.add_counter(l_tier_noop_flushes, "noop_flushes");
  b.add_counter(l_tier_derefs, "derefs");
  b.add_counter(l_tier_evictions, "evictions");
  b.add_counter(l_tier_capacity_evictions, "capacity_evictions");
  b.add_counter(l_tier_promotions, "promotions");
  b.add_counter(l_tier_hot_skips, "hot_skips");
  b.add_counter(l_tier_racy_flushes, "racy_flushes");
  b.add_counter(l_tier_degraded_pulls, "degraded_pulls");
  b.add_counter(l_tier_orphan_adoptions, "orphan_adoptions");
  b.add_counter(l_tier_engine_ticks, "engine_ticks");
  b.add_counter(l_tier_engine_aborts, "engine_aborts");
  b.add_counter(l_tier_fingerprint_cache_hits, "fingerprint_cache_hits");
  b.add_counter(l_tier_weak_hash_hits, "weak_hash_hits");
  b.add_counter(l_tier_weak_hash_misses, "weak_hash_misses");
  b.add_counter(l_tier_weak_collisions, "weak_collisions");
  b.add_counter(l_tier_bloom_negative_hits, "bloom_negative_hits");
  b.add_counter(l_tier_sha_computed, "sha_computed");
  b.add_counter(l_tier_sha_avoided, "sha_avoided");
  b.add_counter(l_tier_read_logical_bytes, "read_logical_bytes");
  b.add_counter(l_tier_read_chunk_objects, "read_chunk_objects");
  b.add_counter(l_tier_read_chunk_rpcs, "read_chunk_rpcs");
  b.add_counter(l_tier_asm_window_opens, "asm_window_opens");
  b.add_counter(l_tier_asm_hits, "asm_hits");
  b.add_counter(l_tier_asm_prefetched_refs, "asm_prefetched_refs");
  b.add_counter(l_tier_asm_wasted_refs, "asm_wasted_refs");
  b.add_counter(l_tier_rewrite_runs, "rewrite_runs");
  b.add_counter(l_tier_rewrite_chunks, "rewrite_chunks");
  b.add_counter(l_tier_rewrite_bytes, "rewrite_bytes");
  b.add_counter(l_tier_recipe_chunks, "recipe_chunks");
  b.add_counter(l_tier_recipe_hits, "recipe_hits");
  b.add_counter(l_tier_meta_txns, "meta_txns");
  b.add_counter(l_tier_meta_bytes_baseline, "meta_bytes_baseline");
  b.add_counter(l_tier_meta_bytes_actual, "meta_bytes_actual");
  b.add_gauge(l_tier_backlog, "backlog");
  b.add_gauge(l_tier_backlog_derefs, "backlog_derefs");
  b.add_gauge(l_tier_rate_credits_x1000, "rate_credits_x1000");
  b.add_gauge(l_tier_rate_demand, "rate_demand");
  b.add_gauge(l_tier_rate_regime, "rate_regime");
  b.add_gauge(l_tier_recipe_inline_tail, "recipe_inline_tail");
  b.add_gauge(l_tier_bloom_rebuilds, "bloom_rebuilds");
  b.add_gauge(l_tier_bloom_rebuild_ns, "bloom_rebuild_ns");
  b.add_histogram(l_tier_write_lat, "write_lat");
  b.add_histogram(l_tier_read_lat, "read_lat");
  b.add_histogram(l_tier_fingerprint_lat, "fingerprint_lat");
  b.add_histogram(l_tier_chunk_put_lat, "chunk_put_lat");
  b.add_histogram(l_tier_chunk_deref_lat, "chunk_deref_lat");
  b.add_histogram(l_tier_merge_read_lat, "merge_read_lat");
  b.add_histogram(l_tier_flush_lat, "flush_lat");
  b.add_histogram(l_tier_read_gap, "read_gap");
  perf_ = b.create();
  if (auto* reg = osd_->ctx().perf_registry()) reg->add(perf_);
}

void DedupTier::sync_telemetry_gauges() {
  perf_->set_gauge(l_tier_backlog, static_cast<int64_t>(dirty_backlog()));
  perf_->set_gauge(l_tier_backlog_derefs,
                   static_cast<int64_t>(pending_derefs_.size()));
  perf_->set_gauge(l_tier_rate_credits_x1000,
                   static_cast<int64_t>(rate_.credits() * 1000.0));
  const SimTime now = sched().now();
  perf_->set_gauge(l_tier_rate_demand,
                   static_cast<int64_t>(rate_.current_demand(now)));
  perf_->set_gauge(l_tier_rate_regime, rate_.regime(now));
  // Inline tail: loaded map entries whose on-disk form is still an inline
  // omap record (not yet absorbed into a recipe chunk).  Pure cache scan.
  int64_t tail = 0;
  for (const auto& [oid, cm] : map_cache_) {
    for (const auto& [off, e] : cm.entries()) {
      if (e.inline_rec) tail++;
    }
  }
  perf_->set_gauge(l_tier_recipe_inline_tail, tail);
  // Bloom-rebuild visibility for the node-shared fingerprint index; every
  // tier of the node mirrors the same totals (aggregate with max).
  FingerprintIndex* idx = fp_index();
  perf_->set_gauge(l_tier_bloom_rebuilds,
                   static_cast<int64_t>(idx->stats().bloom_rebuilds));
  perf_->set_gauge(l_tier_bloom_rebuild_ns,
                   static_cast<int64_t>(idx->bloom_rebuild_cost_ns()));
}

// --------------------------------------------------------- object context

ChunkMap& DedupTier::cached_map(const ObjectName& oid) {
  auto it = map_cache_.find(oid);
  if (it != map_cache_.end()) return it->second;
  const ObjectKey key{pool_, oid};
  const ObjectStore* st = osd_->store_if_exists(pool_);
  if ((st == nullptr || st->find(key) == nullptr) &&
      osd_->ctx().osdmap().primary(pool_, oid) == osd_->id()) {
    // Degraded object: this OSD became primary (a crash rotated the acting
    // set) before recovery delivered its copy.  Building the object
    // context from nothing would misclassify the next write — a partial
    // write over an evicted chunk would look like a write to a brand-new
    // object, be marked cached, and the next flush would replace the
    // flushed chunk with zero-padded local bytes.  Do what Ceph does for a
    // degraded object: recover it before serving ops, here by pulling the
    // freshest copy any up peer holds into the local store.
    const ObjectState* best = nullptr;
    for (OsdId pid : osd_->ctx().osdmap().all_osds()) {
      if (pid == osd_->id()) continue;
      Osd* peer = osd_->ctx().osd(pid);
      if (peer == nullptr || !peer->is_up()) continue;
      const ObjectStore* ps = peer->store_if_exists(pool_);
      const ObjectState* os = ps != nullptr ? ps->find(key) : nullptr;
      if (os != nullptr && (best == nullptr || os->version > best->version)) {
        best = os;
      }
    }
    if (best != nullptr) {
      osd_->store(pool_).install(key, *best);
      perf_->inc(l_tier_degraded_pulls);
      st = osd_->store_if_exists(pool_);
    }
  }
  ChunkMap cm;
  if (st != nullptr) {
    // The resolved loader is a strict superset of load_chunk_map: with no
    // recipe records on disk (default mode) it reads the same omap and
    // yields the same map, and the meta-read accounting is host-side.
    uint64_t meta_read = 0;
    auto loaded = load_chunk_map_resolved(&osd_->ctx(), *st, key, &meta_read);
    if (loaded.is_ok()) {
      cm = std::move(loaded).value();
      osd_->perf().inc(l_osd_meta_bytes_read, meta_read);
    } else {
      LOG_ERROR("corrupt chunk map on %s: %s", oid.c_str(),
                loaded.status().to_string().c_str());
    }
  }
  return map_cache_.emplace(oid, std::move(cm)).first->second;
}

void DedupTier::overlay_local(const ObjectName& oid, uint64_t off,
                              Buffer* buf) const {
  const ObjectStore* st = osd_->store_if_exists(pool_);
  if (st == nullptr) return;
  const ObjectState* os = st->find({pool_, oid});
  if (os == nullptr) return;
  const uint64_t end = off + buf->size();
  const auto& exts = os->data.extents();
  auto it = exts.lower_bound(off);
  if (it != exts.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > off) it = prev;
  }
  for (; it != exts.end() && it->first < end; ++it) {
    const uint64_t b = std::max(off, it->first);
    const uint64_t e = std::min(end, it->first + it->second.size());
    if (b >= e) continue;
    std::memcpy(buf->mutable_data() + (b - off),
                it->second.data() + (b - it->first), e - b);
  }
}

const ChunkMap* DedupTier::cached_map_if_loaded(const ObjectName& oid) const {
  auto it = map_cache_.find(oid);
  return it == map_cache_.end() ? nullptr : &it->second;
}

uint64_t DedupTier::logical_size(const ObjectName& oid) const {
  const ObjectStore* st = osd_->store_if_exists(pool_);
  const ObjectState* o =
      st == nullptr ? nullptr : st->find({pool_, oid});
  return o == nullptr ? 0 : o->logical_size;
}

void DedupTier::mark_dirty(const ObjectName& oid) {
  if (inflight_oids_.count(oid)) return;  // will requeue after its flush
  if (dirty_set_.insert(oid).second) dirty_list_.push_back(oid);
}

void DedupTier::rescan_dirty() {
  const ObjectStore* st = osd_->store_if_exists(pool_);
  if (st == nullptr) return;
  for (const auto& key : st->list(pool_)) {
    if (is_dirty(key.oid) || pending_writes_.count(key.oid) > 0) continue;
    auto cm = load_chunk_map(*st, key);
    if (!cm.is_ok() || !cm.value().any_dirty()) continue;
    drop_context(key.oid);
    mark_dirty(key.oid);
  }
}

bool DedupTier::fail_at(FailurePoint p, const ObjectName& oid) {
  if (failure_hook_ && failure_hook_(p, oid)) {
    perf_->inc(l_tier_engine_aborts);
    return true;
  }
  return false;
}

void DedupTier::rebuild_dirty_list() {
  // A restart loses the volatile context; the persisted chunk maps inside
  // the self-contained objects are the source of truth.  Everything
  // volatile goes: in-flight flush markers, queued derefs and promotions,
  // unapplied-write counters — callbacks from ops that were in flight at
  // crash time may still land afterwards and must not resurrect state (the
  // pending-writes decrement below is find()-based for the same reason).
  dirty_list_.clear();
  dirty_set_.clear();
  map_cache_.clear();
  inflight_oids_.clear();
  pending_derefs_.clear();
  pending_writes_.clear();
  promote_queue_.clear();
  promote_set_.clear();
  asm_windows_.clear();
  rewrite_queue_.clear();
  rewrite_set_.clear();
  meta_batches_.clear();
  bump_map_stamp();
  in_tick_ = false;
  const ObjectStore* st = osd_->store_if_exists(pool_);
  if (st == nullptr) return;
  for (const auto& key : st->list(pool_)) {
    // Dirty entries always have inline omap records (every mutation path
    // writes an inline shadow), so the plain loader sees all of them
    // without fetching recipe chunks.
    auto cm = load_chunk_map(*st, key);
    if (cm.is_ok() && cm.value().any_dirty()) mark_dirty(key.oid);
  }
}

// ------------------------------------------------- recipe metadata layer
//
// In recipe mode (ClusterConfig.recipe_dedup / GDEDUP_RECIPE_DEDUP) the
// per-slot chunk-map records of an object are compacted into fixed
// offset-aligned windows of `recipe_entries` slots.  Each fully-flushed
// window serializes to a content-addressed "recipe chunk" stored through
// the ordinary chunk-pool put path, so identical recipes across objects —
// e.g. the same backup image written by many tenants — deduplicate exactly
// like data chunks do.  The object's omap keeps one ~60-byte RecipeRecord
// per window plus an inline tail of recently mutated entries; inline
// records always overlay recipe members, so absorbing a window never has
// to be undone to mutate a single slot.  All metadata mutations of one
// flush cycle coalesce into one buffered transaction (MetaBatch), applied
// once per object per cycle, with chunk derefs released strictly after it
// (Figure 9's deref-last ordering survives the batching).

Buffer DedupTier::encode_entry_record(const ChunkMapEntry& e) const {
  return recipe_on() ? ChunkMap::encode_entry_packed(e)
                     : ChunkMap::encode_entry(e);
}

void DedupTier::account_meta_entry_write(size_t key_bytes,
                                         size_t value_bytes) {
  const uint64_t actual = key_bytes + value_bytes;
  osd_->perf().inc(l_osd_meta_bytes_written, actual);
  perf_->inc(l_tier_meta_bytes_actual, actual);
  perf_->inc(l_tier_meta_bytes_baseline,
             key_bytes + ChunkMap::kEntryEncodedBytes);
}

void DedupTier::put_entry_record(Transaction* txn, const ObjectKey& key,
                                 ChunkMapEntry* e) {
  const std::string k = ChunkMap::omap_key(e->offset);
  Buffer v;
  if (recipe_on() && e->dirty && e->cached && e->flushed()) {
    // A fully-cached dirty slot re-derives everything from its local bytes
    // on redo; the superseded chunk id is only consulted by the in-memory
    // deref, whose snapshot keeps it.  Persist the slot id-less (a packed
    // dirty record is ~8 bytes, not ~41).  If a crash does lose the deref,
    // the old ref is a dangling false positive the GC sweep already
    // handles — the same window as a crash after the chunk put.
    ChunkMapEntry stripped = *e;
    stripped.chunk_id = ObjectName();
    stripped.chunk_off = 0;
    stripped.container = false;
    v = encode_entry_record(stripped);
  } else {
    v = encode_entry_record(*e);
  }
  account_meta_entry_write(k.size(), v.size());
  e->inline_rec = true;
  txn->omap_set(key, k, std::move(v));
}

void DedupTier::queue_deferred_deref(const ObjectName& oid,
                                     const ObjectName& chunk_id,
                                     const ChunkRef& ref) {
  if (MetaBatch* b = meta_batch(oid)) {
    b->derefs.push_back({chunk_id, ref});
  } else {
    pending_derefs_.push_back({chunk_id, ref});
  }
}

void DedupTier::break_recipes(const ObjectName& oid, ChunkMap* cm,
                              Transaction* txn) {
  const ObjectKey key{pool_, oid};
  for (const auto& [base, rec] : cm->recipes()) {
    const std::string rk = RecipeRecord::omap_key(base);
    osd_->perf().inc(l_osd_meta_bytes_written, rk.size());
    perf_->inc(l_tier_meta_bytes_actual, rk.size());
    txn->omap_rm(key, rk);
    queue_deferred_deref(oid, rec.chunk_id,
                         ChunkRef{pool_, oid, kRecipeRefBit | base});
  }
  cm->recipes().clear();
}

void DedupTier::persist_pending_slots(const ObjectName& oid,
                                      const std::vector<uint64_t>& members) {
  MetaBatch* b = meta_batch(oid);
  if (b == nullptr) return;
  auto it = map_cache_.find(oid);
  const ObjectKey key{pool_, oid};
  for (uint64_t off : members) {
    if (b->pending.erase(off) == 0) continue;
    if (it == map_cache_.end()) continue;  // context dropped; record is moot
    ChunkMapEntry* e = it->second.find(off);
    if (e != nullptr) put_entry_record(&b->txn, key, e);
  }
}

void DedupTier::compact_recipes(const ObjectName& oid,
                                std::function<void()> done) {
  MetaBatch* b = meta_batch(oid);
  if (b == nullptr || !osd_->local_exists(pool_, oid)) {
    sched().after(0, std::move(done));
    return;
  }
  const ObjectKey key{pool_, oid};
  const uint64_t span = recipe_window_span();
  const int want =
      std::max(1, (cfg().recipe_entries > 0 ? cfg().recipe_entries : 32) / 2);

  // Fixed offset-aligned windows in ascending order (std::map iteration),
  // snapshotted up front: the walk below is asynchronous and re-validates
  // every member when it acts.
  struct Window {
    uint64_t base = 0;
    std::vector<uint64_t> members;
  };
  auto wins = std::make_shared<std::vector<Window>>();
  {
    ChunkMap& cm = cached_map(oid);
    for (const auto& [off, e] : cm.entries()) {
      const uint64_t base = off / span * span;
      if (wins->empty() || wins->back().base != base) {
        wins->push_back({base, {}});
      }
      wins->back().members.push_back(off);
    }
  }

  auto idx = std::make_shared<size_t>(0);
  auto done_sp = std::make_shared<std::function<void()>>(std::move(done));
  auto step = std::make_shared<std::function<void()>>();
  // Weak self-reference: see post_process_write's `proceed`.
  std::weak_ptr<std::function<void()>> step_weak = step;
  *step = [this, oid, key, wins, idx, want, step_weak, done_sp]() {
    auto self = step_weak.lock();
    if (!self) return;
    // Re-resolve the batch each step: meta_batches_ may rehash while this
    // walk is parked in a fingerprint or chunk put.
    if (meta_batch(oid) == nullptr || *idx >= wins->size() ||
        !osd_->local_exists(pool_, oid)) {
      (*done_sp)();
      return;
    }
    const Window& w = (*wins)[(*idx)++];
    MetaBatch* b = meta_batch(oid);
    ChunkMap& cm = cached_map(oid);

    // Eligibility: >= 2 members, all flushed, clean and evicted — the
    // canonical state whose packed form is identical across objects
    // holding the same content (cached/dirty flags and dirty_gen never
    // leak into a recipe payload).
    std::vector<ChunkMapEntry> canon;
    canon.reserve(w.members.size());
    bool eligible = w.members.size() >= 2;
    int shadows = 0;  // members inline on disk or pending this cycle
    for (uint64_t off : w.members) {
      ChunkMapEntry* e = cm.find(off);
      if (e == nullptr) {
        eligible = false;
        continue;
      }
      if (e->inline_rec || b->pending.count(off) > 0) shadows++;
      if (!e->flushed() || e->dirty || e->cached) {
        eligible = false;
        continue;
      }
      ChunkMapEntry c = *e;
      c.dirty_gen = 0;
      c.inline_rec = false;
      canon.push_back(std::move(c));
    }
    if (!eligible) {
      // Hot/partial window: stays (or goes back) inline.
      persist_pending_slots(oid, w.members);
      (*self)();
      return;
    }
    if (shadows == 0) {
      // Fully absorbed and untouched since — nothing to recompute.
      (*self)();
      return;
    }

    Buffer payload = encode_recipe_chunk(canon);
    const size_t payload_bytes = payload.size();
    fingerprint_async(
        payload,
        [this, oid, key, base = w.base, members = w.members,
         canon = std::move(canon), payload, payload_bytes, shadows, want,
         self, done_sp](const Fingerprint& fp) mutable {
          MetaBatch* b = meta_batch(oid);
          auto mit = map_cache_.find(oid);
          if (b == nullptr) {
            (*done_sp)();
            return;
          }
          if (mit == map_cache_.end() || !osd_->local_exists(pool_, oid)) {
            (*self)();
            return;
          }
          ChunkMap& cm = mit->second;
          const ObjectName rid = fp.hex();
          auto account_rm = [this](const std::string& k) {
            osd_->perf().inc(l_osd_meta_bytes_written, k.size());
            perf_->inc(l_tier_meta_bytes_actual, k.size());
          };
          auto member_matches = [&cm](const ChunkMapEntry& c) {
            const ChunkMapEntry* e = cm.find(c.offset);
            return e != nullptr && !e->dirty && !e->cached &&
                   e->chunk_id == c.chunk_id && e->chunk_off == c.chunk_off &&
                   e->length == c.length && e->container == c.container;
          };

          auto rit = cm.recipes().find(base);
          if (rit != cm.recipes().end() && rit->second.chunk_id == rid) {
            // The recipe already holds exactly this content; the inline
            // shadows are redundant copies — drop them.
            for (const ChunkMapEntry& c : canon) {
              ChunkMapEntry* e = cm.find(c.offset);
              if (e == nullptr || !member_matches(c)) continue;
              b->pending.erase(c.offset);
              if (e->inline_rec) {
                const std::string k = ChunkMap::omap_key(c.offset);
                account_rm(k);
                b->txn.omap_rm(key, k);
                e->inline_rec = false;
              }
            }
            (*self)();
            return;
          }
          if (rit != cm.recipes().end() && shadows < want) {
            // Hysteresis: a lightly diverged window is cheaper served by
            // its inline overlay than by rewriting the recipe chunk every
            // cycle.  Rebuild once at least half the window has shadows.
            persist_pending_slots(oid, members);
            (*self)();
            return;
          }

          // Absorb or rebuild: content-address the packed window and put
          // it through the ordinary chunk-pool path — identical windows
          // across objects and tenants deduplicate here.
          const PoolId cp = cfg().chunk_pool;
          const bool hit = peek_chunk_exists(&osd_->ctx(), cp, rid);
          const ChunkRef rref{pool_, oid, kRecipeRefBit | base};
          send_chunk_put(
              rid, payload, rref, /*foreground=*/false,
              [this, oid, key, base, members, canon = std::move(canon), rid,
               cp, hit, payload_bytes, rref, self, done_sp,
               account_rm](Status s) mutable {
                MetaBatch* b = meta_batch(oid);
                auto mit = map_cache_.find(oid);
                if (b == nullptr) {
                  if (s.is_ok()) {
                    pending_derefs_.push_back({rid, rref});
                  }
                  (*done_sp)();
                  return;
                }
                if (!s.is_ok() || mit == map_cache_.end() ||
                    !osd_->local_exists(pool_, oid)) {
                  if (s.is_ok()) queue_deferred_deref(oid, rid, rref);
                  persist_pending_slots(oid, members);
                  (*self)();
                  return;
                }
                ChunkMap& cm = mit->second;
                // A foreground write may have raced the put; install the
                // record only if every member still matches the snapshot
                // (diverged members would be masked by inline overlay, but
                // a fully re-validated install keeps record and map in
                // lockstep).
                bool all_match = true;
                for (const ChunkMapEntry& c : canon) {
                  const ChunkMapEntry* e = cm.find(c.offset);
                  if (e == nullptr || e->dirty || e->cached ||
                      e->chunk_id != c.chunk_id ||
                      e->chunk_off != c.chunk_off || e->length != c.length ||
                      e->container != c.container) {
                    all_match = false;
                    break;
                  }
                }
                if (!all_match) {
                  queue_deferred_deref(oid, rid, rref);
                  persist_pending_slots(oid, members);
                  (*self)();
                  return;
                }
                perf_->inc(hit ? l_tier_recipe_hits : l_tier_recipe_chunks);
                if (!hit) {
                  // The payload only costs write bytes when the chunk is
                  // new; a hit is the metadata dedup paying off.
                  osd_->perf().inc(l_osd_meta_bytes_written, payload_bytes);
                  perf_->inc(l_tier_meta_bytes_actual, payload_bytes);
                }
                RecipeRecord nr;
                nr.base = base;
                nr.count = static_cast<uint32_t>(canon.size());
                nr.chunk_pool = cp;
                nr.chunk_id = rid;
                const std::string rk = RecipeRecord::omap_key(base);
                Buffer rv = nr.encode();
                osd_->perf().inc(l_osd_meta_bytes_written,
                                 rk.size() + rv.size());
                perf_->inc(l_tier_meta_bytes_actual, rk.size() + rv.size());
                b->txn.omap_set(key, rk, std::move(rv));
                auto rit = cm.recipes().find(base);
                if (rit != cm.recipes().end() &&
                    rit->second.chunk_id != rid) {
                  queue_deferred_deref(
                      oid, rit->second.chunk_id,
                      ChunkRef{pool_, oid, kRecipeRefBit | base});
                }
                cm.recipes()[base] = std::move(nr);
                for (const ChunkMapEntry& c : canon) {
                  b->pending.erase(c.offset);
                  ChunkMapEntry* e = cm.find(c.offset);
                  if (e != nullptr && e->inline_rec) {
                    const std::string k = ChunkMap::omap_key(c.offset);
                    account_rm(k);
                    b->txn.omap_rm(key, k);
                    e->inline_rec = false;
                  }
                }
                (*self)();
              });
        });
  };
  (*step)();
}

void DedupTier::apply_meta_batch(const ObjectName& oid, bool any_dirty,
                                 std::function<void(bool)> done) {
  auto it = meta_batches_.find(oid);
  if (it == meta_batches_.end()) {
    sched().after(0, [any_dirty, done = std::move(done)] { done(any_dirty); });
    return;
  }
  if (!it->second.pending.empty() && osd_->local_exists(pool_, oid)) {
    // Safety net for slots no compaction path persisted (the walk was cut
    // short): their clean state must still reach disk.
    const std::vector<uint64_t> rest(it->second.pending.begin(),
                                     it->second.pending.end());
    persist_pending_slots(oid, rest);
  }
  if (!it->second.evicts.empty() && osd_->local_exists(pool_, oid)) {
    // Materialize the deferred data-part evictions, re-validated against
    // the live map: a foreground write that re-dirtied a slot since its
    // flush decided to evict holds the only copy of its bytes — punching
    // it now would destroy them, so its eviction is simply dropped (the
    // next flush decides again).
    auto mit = map_cache_.find(oid);
    if (mit != map_cache_.end()) {
      ChunkMap& cm = mit->second;
      const ObjectKey key{pool_, oid};
      bool punched = false;
      for (uint64_t off : it->second.evicts) {
        const ChunkMapEntry* e = cm.find(off);
        if (e == nullptr || e->dirty || e->cached || !e->flushed()) continue;
        it->second.txn.punch_hole(key, off, e->length);
        punched = true;
      }
      if (punched && !cm.any_local()) it->second.txn.truncate(key, 0);
    }
  }
  MetaBatch batch = std::move(it->second);
  meta_batches_.erase(it);
  auto derefs = std::make_shared<std::vector<std::pair<ObjectName, ChunkRef>>>(
      std::move(batch.derefs));
  auto release = [this, derefs] {
    // Deref-last: the queued releases only run once the batched map apply
    // is durable (or moot, for a removed object whose refs the chunks
    // still hold until GC or the queued deref lands).
    for (auto& d : *derefs) pending_derefs_.push_back(std::move(d));
  };
  if (batch.txn.empty() || !osd_->local_exists(pool_, oid)) {
    sched().after(0, [release = std::move(release), any_dirty,
                      done = std::move(done)]() mutable {
      release();
      done(any_dirty);
    });
    return;
  }
  perf_->inc(l_tier_meta_txns);
  osd_->submit_write(pool_, oid, std::move(batch.txn),
                     [release = std::move(release), any_dirty,
                      done = std::move(done)](Status) mutable {
                       release();
                       done(any_dirty);
                     },
                     /*foreground=*/false);
}

// ------------------------------------------------------- chunk-pool I/O

void DedupTier::read_chunk_from_pool(const ObjectName& chunk_oid,
                                     uint64_t off, uint64_t len,
                                     bool foreground,
                                     std::function<void(Result<Buffer>)> done,
                                     obs::OpTraceRef trace) {
  const PoolId cp = cfg().chunk_pool;
  const OsdId primary = osd_->ctx().osdmap().primary(cp, chunk_oid);
  const SimTime t0 = sched().now();
  const size_t sp = trace ? trace->span_begin("chunk_pool_read", t0) : 0;
  OsdOp op;
  op.type = OsdOpType::kRead;
  op.pool = cp;
  op.oid = chunk_oid;
  op.off = off;
  op.len = len;
  op.foreground = foreground;
  send_osd_op(osd_->ctx(), osd_->node(), primary, std::move(op),
              [this, t0, trace = std::move(trace), sp,
               done = std::move(done)](OsdOpReply rep) {
                const SimTime now = sched().now();
                perf_->record(l_tier_merge_read_lat,
                              static_cast<uint64_t>(now - t0));
                if (trace) trace->span_end(sp, now);
                if (!rep.status.is_ok()) {
                  done(rep.status);
                } else {
                  done(std::move(rep.data));
                }
              });
}

ObjectName DedupTier::find_chunk_recording_ref(
    const ObjectName& oid, uint64_t offset,
    const ObjectName& not_this) const {
  // Only one other chunk can legitimately record this entry's ref: the one
  // a crashed flush attempt put before losing its map update.  Scan every
  // up holder so EC shards and degraded placements are both covered; the
  // walk is deterministic (ordered OSD ids, ordered stores) and only runs
  // on the rare superseded-chunk-vanished path.
  const ChunkRef want{pool_, oid, offset};
  const PoolId cp = cfg().chunk_pool;
  for (OsdId id : osd_->ctx().osdmap().all_osds()) {
    Osd* o = osd_->ctx().osd(id);
    if (o == nullptr || !o->is_up()) continue;
    const ObjectStore* st = o->store_if_exists(cp);
    if (st == nullptr) continue;
    for (const auto& key : st->list(cp)) {
      if (key.oid == not_this) continue;
      auto raw = st->getxattr(key, kRefsXattr);
      if (!raw.is_ok()) continue;
      auto dec = decode_refs(raw.value());
      if (!dec.is_ok()) continue;
      if (std::find(dec->begin(), dec->end(), want) != dec->end()) {
        return key.oid;
      }
    }
  }
  return {};
}

void DedupTier::send_chunk_put(const ObjectName& chunk_oid, Buffer data,
                               const ChunkRef& ref, bool foreground,
                               std::function<void(Status)> done,
                               obs::OpTraceRef trace,
                               std::vector<ChunkRef> extra_refs) {
  const PoolId cp = cfg().chunk_pool;
  const OsdId primary = osd_->ctx().osdmap().primary(cp, chunk_oid);
  const SimTime t0 = sched().now();
  const size_t sp = trace ? trace->span_begin("chunk_put", t0) : 0;
  OsdOp op;
  op.type = OsdOpType::kChunkPutRef;
  op.pool = cp;
  op.oid = chunk_oid;
  op.data = std::move(data);
  op.ref = ref;
  op.extra_refs = std::move(extra_refs);
  op.foreground = foreground;
  send_osd_op(osd_->ctx(), osd_->node(), primary, std::move(op),
              [this, t0, trace = std::move(trace), sp,
               done = std::move(done)](OsdOpReply rep) {
                const SimTime now = sched().now();
                perf_->record(l_tier_chunk_put_lat,
                              static_cast<uint64_t>(now - t0));
                if (trace) trace->span_end(sp, now);
                done(rep.status);
              });
}

void DedupTier::send_chunk_deref(const ObjectName& chunk_oid,
                                 const ChunkRef& ref, bool foreground,
                                 std::function<void(Status)> done,
                                 obs::OpTraceRef trace) {
  perf_->inc(l_tier_derefs);
  const PoolId cp = cfg().chunk_pool;
  const OsdId primary = osd_->ctx().osdmap().primary(cp, chunk_oid);
  const SimTime t0 = sched().now();
  const size_t sp = trace ? trace->span_begin("chunk_deref", t0) : 0;
  OsdOp op;
  op.type = OsdOpType::kChunkDeref;
  op.pool = cp;
  op.oid = chunk_oid;
  op.ref = ref;
  op.foreground = foreground;
  send_osd_op(osd_->ctx(), osd_->node(), primary, std::move(op),
              [this, t0, trace = std::move(trace), sp,
               done = std::move(done)](OsdOpReply rep) {
                const SimTime now = sched().now();
                perf_->record(l_tier_chunk_deref_lat,
                              static_cast<uint64_t>(now - t0));
                if (trace) trace->span_end(sp, now);
                done(rep.status);
              });
}

// ------------------------------------------------------------ write path

void DedupTier::handle_write(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_tier_writes);
  {
    const SimTime t0 = sched().now();
    const size_t sp = op.trace ? op.trace->span_begin("tier_write", t0) : 0;
    reply = [this, t0, sp, trace = op.trace,
             inner = std::move(reply)](OsdOpReply rep) mutable {
      const SimTime now = sched().now();
      perf_->record(l_tier_write_lat, static_cast<uint64_t>(now - t0));
      if (trace) trace->span_end(sp, now);
      inner(std::move(rep));
    };
  }
  hitset_.access(op.oid, sched().now());
  touch_cache_lru(op.oid);
  rate_.on_foreground(sched().now(), op.data.size());
  // Tiering bookkeeping (chunk-map maintenance, hitset, policy checks)
  // burns CPU on every op — the paper's Figure 10 shows the dedup path
  // roughly doubling per-op CPU.
  CpuModel& cpu = osd_->ctx().node_cpu(osd_->node());
  cpu.execute(cpu.op_fixed_cost());
  if (cfg().mode == DedupMode::kInline) {
    inline_write(op, std::move(reply));
  } else {
    post_process_write(op, std::move(reply));
  }
}

void DedupTier::post_process_write(const OsdOp& op, ReplyFn reply) {
  const ObjectName& oid = op.oid;
  const uint64_t off = op.type == OsdOpType::kWriteFull ? 0 : op.off;
  const Buffer data = op.data;
  const uint64_t wlen = data.size();
  ChunkMap& cm = cached_map(oid);
  // The store's logical size understates the object once eviction dropped
  // the data part; the chunk map tracks the user-visible size.
  const uint64_t old_size = std::max(logical_size(oid), cm.logical_end());
  const uint64_t new_end = off + wlen;
  const bool full = op.type == OsdOpType::kWriteFull;
  const uint64_t new_size = full ? wlen : std::max(old_size, new_end);
  const uint32_t cs = chunker_.chunk_size();
  // Erasure-coded base pools densify extents on every re-encode, so the
  // partial-dirty overlay state cannot be reconstructed later; for them
  // the missing chunk bytes are pre-read on the foreground path (the EC
  // data path is read-modify-write anyway).
  const bool ec_base = osd_->ctx().osdmap().pool(pool_).scheme ==
                       RedundancyScheme::kErasure;

  struct Preread {
    uint64_t chunk_off;   // logical slot offset in the object
    ObjectName chunk_oid;
    uint32_t length;
    uint64_t src_off;     // offset of the slot inside the chunk object
  };
  std::vector<Preread> prereads;
  if (ec_base && !full) {
    for (uint64_t c : chunker_.covering(off, wlen)) {
      const ChunkMapEntry* e = cm.find(c);
      if (e == nullptr || e->cached || !e->flushed()) continue;
      const uint64_t cov_b = std::max(off, c);
      const uint64_t cov_e = std::min(new_end, c + e->length);
      if (cov_b <= c && cov_e >= c + e->length) continue;  // fully replaced
      prereads.push_back({c, e->chunk_id, e->length, e->chunk_off});
    }
  }
  auto g = std::make_shared<Gather>();
  g->parts.resize(prereads.size());
  g->outstanding = static_cast<int>(prereads.size()) + 1;  // +1 sentinel
  // Stored as g->done, so it must not hold g strongly (refcount cycle —
  // the Gather would leak its buffered parts whenever a crash abandons
  // the in-flight reads).  arrive() runs from a continuation that owns a
  // strong ref, so the lock always succeeds when the gather completes.
  std::weak_ptr<Gather> gw = g;
  // The key is the continuation's one copy of the OID.
  auto proceed = [this, key = ObjectKey{pool_, oid}, off, data, wlen, full,
                  new_size, new_end, cs, gw, prereads,
                  reply = std::move(reply)](Status ps) mutable {
    auto g = gw.lock();
    if (!g) return;
    const ObjectName& oid = key.oid;
    if (!ps.is_ok()) {
      reply(OsdOpReply{ps, {}, 0, {}, nullptr});
      return;
    }
    ChunkMap& cm = cached_map(oid);

    Transaction txn;
    if (full) {
      // Drop map entries beyond the new end; their chunk references are
      // released by the background engine.
      std::vector<uint64_t> stale;
      for (const auto& [eoff, e] : cm.entries()) {
        if (eoff >= new_size && e.flushed()) {
          pending_derefs_.push_back({e.chunk_id, ChunkRef{pool_, oid, eoff}});
        }
        if (eoff >= new_size) stale.push_back(eoff);
      }
      for (uint64_t soff : stale) {
        cm.erase(soff);
        txn.omap_rm(key, ChunkMap::omap_key(soff));
      }
      // Every recipe of the old content is invalid now: drop the records
      // and release the recipe chunks.  Survivors below the new end are
      // re-inlined by the covering loop (write_full covers every slot).
      break_recipes(oid, &cm, &txn);
      txn.create(key);
      txn.truncate(key, new_size);
    }
    for (size_t i = 0; i < prereads.size(); i++) {
      // Install the fetched chunk if its slot still references it.
      ChunkMapEntry* e = cm.find(prereads[i].chunk_off);
      if (e != nullptr && e->chunk_id == prereads[i].chunk_oid && !e->cached) {
        txn.write(key, prereads[i].chunk_off, g->parts[i]);
        cm.set_cached(*e, true);
      }
    }
    txn.write(key, off, data);
    for (uint64_t c : chunker_.covering(off, wlen)) {
      const uint32_t clen = static_cast<uint32_t>(
          std::min<uint64_t>(cs, new_size > c ? new_size - c : 0));
      if (clen == 0) continue;
      ChunkMapEntry& e = cm.obtain(c, clen);
      e.length = clen;  // may shrink on write_full
      const bool fully_covered = off <= c && new_end >= c + clen;
      if (fully_covered || !e.flushed()) {
        // The data part now holds the whole chunk (holes read as zeros for
        // never-flushed chunks).
        cm.set_cached(e, true);
      }
      // Otherwise this is a partial write over an evicted chunk: the data
      // part holds only the new bytes (Figure 8's cached=false, dirty=true
      // state); the background flush merges the rest from the chunk pool,
      // keeping the read-modify-write OFF the foreground path.
      cm.set_dirty(e, true);
      e.dirty_gen = dirty_gen_counter_++;
      put_entry_record(&txn, key, &e);
    }

    bump_map_stamp();  // assembly plans over the old map are stale now
    mark_dirty(oid);
    perf_->inc(l_tier_meta_txns);
    pending_writes_[oid]++;
    osd_->submit_write(pool_, oid, std::move(txn),
                       [this, oid, reply = std::move(reply)](Status s) {
                         // find()-based: a crash-rebuild may have cleared
                         // the counter while this write was in flight.
                         auto it = pending_writes_.find(oid);
                         if (it != pending_writes_.end() && --it->second <= 0) {
                           pending_writes_.erase(it);
                         }
                         reply(OsdOpReply{s, {}, 0, {}, nullptr});
                       },
                       /*foreground=*/true);
  };
  g->done = std::move(proceed);
  for (size_t i = 0; i < prereads.size(); i++) {
    perf_->inc(l_tier_prereads);
    read_chunk_from_pool(prereads[i].chunk_oid, prereads[i].src_off,
                         prereads[i].length,
                         /*foreground=*/true,
                         [g, i](Result<Buffer> r) { g->arrive(i, std::move(r)); },
                         op.trace);
  }
  g->arrive(SIZE_MAX, Buffer());  // sentinel
}

void DedupTier::inline_write(const OsdOp& op, ReplyFn reply) {
  const ObjectName oid = op.oid;
  const ObjectKey key{pool_, oid};
  const uint64_t off = op.type == OsdOpType::kWriteFull ? 0 : op.off;
  const Buffer data = op.data;
  const uint64_t wlen = data.size();
  const uint64_t old_size =
      std::max(logical_size(oid), cached_map(oid).logical_end());
  const uint64_t new_end = off + wlen;
  const uint64_t new_size =
      op.type == OsdOpType::kWriteFull ? wlen : std::max(old_size, new_end);
  const uint32_t cs = chunker_.chunk_size();

  auto chunks =
      std::make_shared<std::vector<uint64_t>>(chunker_.covering(off, wlen));
  auto idx = std::make_shared<size_t>(0);

  // Sequential per-chunk pipeline: RMW assemble -> fingerprint -> deref old
  // -> put new -> next.  This serial, on-the-write-path processing is
  // exactly what Figure 5(a) measures.
  auto step = std::make_shared<std::function<void()>>();
  // `finish` is copied into every step, so the move-only reply is shared.
  auto shared_reply = std::make_shared<ReplyFn>(std::move(reply));
  auto finish = [this, key, oid, new_size, old_size,
                 reply = shared_reply](Status s) {
    if (!s.is_ok()) {
      (*reply)(OsdOpReply{s, {}, 0, {}, nullptr});
      return;
    }
    Transaction txn;
    txn.create(key);
    if (new_size != old_size) txn.truncate(key, new_size);
    ChunkMap& cm = cached_map(oid);
    for (auto& [eoff, ent] : cm.entries()) {
      put_entry_record(&txn, key, &ent);
    }
    perf_->inc(l_tier_meta_txns);
    osd_->submit_write(pool_, oid, std::move(txn),
                       [reply](Status s2) {
                         (*reply)(OsdOpReply{s2, {}, 0, {}, nullptr});
                       },
                       /*foreground=*/true);
  };

  // The stored function holds only a weak ref to itself: a self-capturing
  // shared_ptr would be a refcount cycle, leaking every Buffer the write
  // pipeline captured.  Each invocation re-locks; the async continuations
  // below carry the strong refs, so the state lives exactly as long as
  // work is in flight.
  std::weak_ptr<std::function<void()>> step_weak = step;
  *step = [this, key, oid, off, data, wlen, new_size, cs, chunks, idx,
           step_weak, finish, trace = op.trace]() mutable {
    auto step = step_weak.lock();
    if (!step) return;  // caller holds a strong ref for every invocation
    if (*idx >= chunks->size()) {
      finish(Status::ok());
      return;
    }
    const uint64_t c = (*chunks)[(*idx)++];
    const uint32_t clen = static_cast<uint32_t>(
        std::min<uint64_t>(cs, new_size > c ? new_size - c : 0));
    if (clen == 0) {
      (*step)();
      return;
    }
    const ChunkMapEntry* e = cached_map(oid).find(c);
    const uint64_t cov_b = std::max(off, c);
    const uint64_t cov_e = std::min(off + wlen, c + static_cast<uint64_t>(clen));
    const bool fully_covered = cov_b <= c && cov_e >= c + clen;

    auto assemble = [this, c, clen, cov_b, cov_e, off, data, oid, step,
                     finish, trace](Result<Buffer> oldr) mutable {
      if (!oldr.is_ok()) {
        finish(oldr.status());
        return;
      }
      Buffer content = std::move(oldr).value();
      content.resize(clen);
      // Splice in the newly written range.
      content.write_at(cov_b - c, data.slice(cov_b - off, cov_e - cov_b));

      // Fingerprint on the foreground path: CPU is costed and the hash is
      // really computed (it becomes the chunk OID), unless the fingerprint
      // index verifies this exact content.
      fingerprint_async(
          content,
          [this, c, clen, content, oid, step, finish,
           trace](const Fingerprint& fp) mutable {
            const ObjectName new_id = fp.hex();
            ChunkMapEntry& ent = cached_map(oid).obtain(c, clen);
            ent.length = clen;
            const ObjectName old_id = ent.chunk_id;
            const ChunkRef ref{pool_, oid, c};
            auto commit = [this, oid, c, clen, new_id, step](Status) {
              ChunkMap& cm2 = cached_map(oid);
              ChunkMapEntry& ent2 = cm2.obtain(c, clen);
              ent2.chunk_id = new_id;
              ent2.chunk_off = 0;
              ent2.container = false;
              cm2.set_cached(ent2, false);
              cm2.set_dirty(ent2, false);
              bump_map_stamp();
              (*step)();
            };
            if (old_id == new_id) {
              commit(Status::ok());
              return;
            }
            auto put = [this, new_id, content, ref, commit,
                        trace]() mutable {
              perf_->inc(l_tier_chunks_flushed);
              perf_->inc(l_tier_flush_bytes, content.size());
              send_chunk_put(new_id, std::move(content), ref,
                             /*foreground=*/true, commit, trace);
            };
            if (!old_id.empty()) {
              send_chunk_deref(old_id, ref, /*foreground=*/true,
                               [put](Status) mutable { put(); }, trace);
            } else {
              put();
            }
          },
          trace);
    };

    if (fully_covered) {
      Buffer zeros(clen);
      assemble(zeros);
    } else if (e != nullptr && e->cached) {
      osd_->submit_read(pool_, oid, c, clen, assemble, /*foreground=*/true);
    } else if (e != nullptr && e->flushed()) {
      // The Figure 5(a) read-modify-write: fetch the 32KB chunk to apply a
      // 16KB write.
      perf_->inc(l_tier_prereads);
      read_chunk_from_pool(e->chunk_id, e->chunk_off, e->length,
                           /*foreground=*/true, assemble, trace);
    } else {
      Buffer zeros(clen);
      assemble(zeros);
    }
  };
  (*step)();
}

// ------------------------------------------------------------- read path

void DedupTier::handle_read(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_tier_reads);
  {
    const SimTime t0 = sched().now();
    const size_t sp = op.trace ? op.trace->span_begin("tier_read", t0) : 0;
    reply = [this, t0, sp, trace = op.trace,
             inner = std::move(reply)](OsdOpReply rep) mutable {
      const SimTime now = sched().now();
      perf_->record(l_tier_read_lat, static_cast<uint64_t>(now - t0));
      if (trace) trace->span_end(sp, now);
      inner(std::move(rep));
    };
  }
  hitset_.access(op.oid, sched().now());
  touch_cache_lru(op.oid);
  rate_.on_foreground(sched().now(), std::max<uint64_t>(op.len, 1));
  CpuModel& cpu = osd_->ctx().node_cpu(osd_->node());
  cpu.execute(cpu.op_fixed_cost());  // tiering bookkeeping (see above)
  handle_read_attempt(op, std::move(reply), 0);
}

void DedupTier::handle_read_attempt(const OsdOp& op, ReplyFn reply,
                                    int attempt) {
  const ObjectName oid = op.oid;
  if (!osd_->local_exists(pool_, oid)) {
    reply(OsdOpReply{Status::not_found(oid), {}, 0, {}, nullptr});
    return;
  }
  ChunkMap& cm = cached_map(oid);
  const uint64_t size = std::max(logical_size(oid), cm.logical_end());
  const uint64_t off = op.off;
  if (off >= size) {
    reply(OsdOpReply{Status::ok(), Buffer(), 0, {}, nullptr});
    return;
  }
  const uint64_t len =
      op.len == 0 ? size - off : std::min<uint64_t>(op.len, size - off);
  perf_->inc(l_tier_read_logical_bytes, len);

  // Forward-assembly window bookkeeping (host-side accounting only — the
  // window changes neither the RPCs issued, the reply bytes nor any
  // digested counter).  Retries rebuild the map view, so only the first
  // attempt consults the window.
  AssemblyWindow* win = nullptr;
  const uint32_t cs = chunker_.chunk_size();
  if (attempt == 0) {
    AssemblyWindow& w = asm_windows_[oid];
    if (w.streak > 0 && off == w.expect_off) {
      w.streak++;
    } else {
      close_assembly_window(&w);  // sequentiality broke
      w.streak = 1;
    }
    w.expect_off = off + len;
    if (w.open && (w.stamp != map_mutation_stamp_ || off < w.win_begin ||
                   off + len > w.win_end)) {
      close_assembly_window(&w);  // plan stale or read left the window
    }
    if (!w.open && w.streak >= kAsmStreakThreshold) {
      const uint64_t first = off / cs * cs;
      const uint64_t wend = std::min<uint64_t>(
          size, first + static_cast<uint64_t>(kAsmWindowChunks) * cs);
      if (wend > off) {
        w.open = true;
        w.stamp = map_mutation_stamp_;
        w.win_begin = off;
        w.win_end = wend;
        w.planned = 0;
        w.consumed = 0;
        for (uint64_t c = first; c < wend; c += cs) {
          const ChunkMapEntry* ent = cm.find(c);
          if (ent != nullptr && !ent->cached && ent->flushed()) w.planned++;
        }
        perf_->inc(l_tier_asm_window_opens);
        perf_->inc(l_tier_asm_prefetched_refs, w.planned);
      }
    }
    if (w.open && w.stamp == map_mutation_stamp_ && off >= w.win_begin &&
        off + len <= w.win_end) {
      win = &w;
    }
  }
  // Build segments: coalesced local spans, per-chunk remote reads.
  struct Segment {
    bool remote;
    bool merge_local;  // overlay newer local extents over remote content
    uint64_t begin;
    uint64_t end;
    ObjectName chunk_oid;
    uint64_t chunk_off;  // offset within the chunk object
  };
  std::vector<Segment> segs;
  // Read-amplification bookkeeping: distinct chunk-pool objects touched
  // and the pg distance between consecutive remote placements (the
  // seek-locality signal restore fragmentation destroys).
  // A read touches a handful of chunks: a scan of borrowed ids (the map
  // is not mutated in this loop) beats hashing 64-character copies.
  std::vector<std::string_view> touched_chunks;
  int64_t prev_pg = -1;
  for (uint64_t c : chunker_.covering(off, len)) {
    const uint64_t b = std::max(off, c);
    const uint64_t e = std::min(off + len, c + static_cast<uint64_t>(cs));
    const ChunkMapEntry* ent = cm.find(c);
    const bool remote = ent != nullptr && !ent->cached && ent->flushed();
    if (remote) {
      perf_->inc(l_tier_redirected_read_chunks);
      if (std::find(touched_chunks.begin(), touched_chunks.end(),
                    ent->chunk_id) == touched_chunks.end()) {
        touched_chunks.push_back(ent->chunk_id);
        perf_->inc(l_tier_read_chunk_objects);
      }
      const int64_t pg = static_cast<int64_t>(
          osd_->ctx().osdmap().pg_of(cfg().chunk_pool, ent->chunk_id));
      if (prev_pg >= 0) {
        perf_->record(l_tier_read_gap,
                      static_cast<uint64_t>(pg > prev_pg ? pg - prev_pg
                                                         : prev_pg - pg));
      }
      prev_pg = pg;
      if (win != nullptr) {
        perf_->inc(l_tier_asm_hits);
        win->consumed++;
      }
      const uint64_t in_obj = ent->chunk_off + (b - c);
      // Adjacent slots coalesced into one container object read back as
      // ONE batched chunk-pool RPC.  Ordinary chunks can never merge
      // here: their in-object offset restarts at 0 every slot, so the
      // contiguity test fails — with restore_rewrite off this branch is
      // digest-neutral by construction.
      if (!segs.empty() && segs.back().remote && !segs.back().merge_local &&
          !ent->dirty && segs.back().chunk_oid == ent->chunk_id &&
          segs.back().end == b &&
          segs.back().chunk_off + (segs.back().end - segs.back().begin) ==
              in_obj) {
        segs.back().end = e;
      } else {
        // A dirty non-cached chunk holds its newest bytes in local extents
        // over older chunk-pool content: fetch remote, overlay local.
        segs.push_back({true, ent->dirty, b, e, ent->chunk_id, in_obj});
      }
    } else {
      perf_->inc(l_tier_cached_read_chunks);
      if (!segs.empty() && !segs.back().remote && segs.back().end == b) {
        segs.back().end = e;  // coalesce adjacent local spans
      } else {
        segs.push_back({false, false, b, e, {}, 0});
      }
    }
  }
  for (const Segment& s : segs) {
    if (s.remote) perf_->inc(l_tier_read_chunk_rpcs);
  }

  const bool any_remote =
      std::any_of(segs.begin(), segs.end(), [](const Segment& s) { return s.remote; });

  auto g = std::make_shared<Gather>();
  g->parts.resize(segs.size());
  g->outstanding = static_cast<int>(segs.size());
  // Weak self-reference: see post_process_write's `proceed`.
  std::weak_ptr<Gather> gw = g;
  g->done = [this, gw, op, attempt,
             reply = std::move(reply)](Status s) mutable {
    auto g = gw.lock();
    if (!g) return;
    if (!s.is_ok()) {
      // A chunk may vanish mid-flush (deref of the superseded copy races
      // the redirect); the refreshed map resolves it.  Retry briefly.
      if (s.code() == Code::kNotFound && attempt < 3) {
        sched().after(msec(1), [this, op = std::move(op), attempt,
                                reply = std::move(reply)]() mutable {
          handle_read_attempt(op, std::move(reply), attempt + 1);
        });
        return;
      }
      reply(OsdOpReply{s, {}, 0, {}, nullptr});
      return;
    }
    Buffer out;
    if (g->parts.size() == 1) {
      out = std::move(g->parts[0]);
    } else {
      size_t total = 0;
      for (const auto& p : g->parts) total += p.size();
      out.resize(total);
      size_t pos = 0;
      for (const auto& p : g->parts) {
        out.write_at(pos, p);
        pos += p.size();
      }
    }
    reply(OsdOpReply{Status::ok(), std::move(out), 0, {}, nullptr});
  };

  for (size_t i = 0; i < segs.size(); i++) {
    const Segment& s = segs[i];
    if (s.remote) {
      const bool merge = s.merge_local;
      const uint64_t b = s.begin;
      const uint64_t n = s.end - s.begin;
      read_chunk_from_pool(
          s.chunk_oid, s.chunk_off, n,
          /*foreground=*/true,
          [this, g, i, merge, oid, b, n](Result<Buffer> r) {
            if (!r.is_ok()) {
              g->arrive(i, std::move(r));
              return;
            }
            // Chunk objects can be shorter than the slot (tail chunks
            // fingerprinted before the object grew): zero-fill.
            Buffer part = std::move(r).value();
            part.resize(n);
            if (merge) overlay_local(oid, b, &part);
            g->arrive(i, std::move(part));
          },
          op.trace);
    } else {
      const uint64_t b = s.begin;
      const uint64_t n = s.end - s.begin;
      osd_->submit_read(pool_, oid, b, n,
                        [g, i, n](Result<Buffer> r) {
                          if (!r.is_ok()) {
                            g->arrive(i, std::move(r));
                            return;
                          }
                          Buffer part = std::move(r).value();
                          if (part.size() < n) {
                            // Hole past the store's (possibly truncated)
                            // logical size: zeros by definition.
                            part.resize(n);
                          }
                          g->arrive(i, std::move(part));
                        },
                        /*foreground=*/true);
    }
  }

  // Cache manager: hot objects with redirected chunks get promoted.
  if (any_remote && cfg().cache_enabled && cfg().promote_on_read &&
      hitset_.is_hot(oid, sched().now()) && promote_set_.insert(oid).second) {
    promote_queue_.push_back(oid);
  }
}

void DedupTier::handle_remove(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_tier_removes);
  const ObjectName oid = op.oid;
  if (!osd_->local_exists(pool_, oid)) {
    reply(OsdOpReply{Status::not_found(oid), {}, 0, {}, nullptr});
    return;
  }
  ChunkMap& cm = cached_map(oid);
  for (const auto& [eoff, e] : cm.entries()) {
    if (e.flushed()) {
      pending_derefs_.push_back({e.chunk_id, ChunkRef{pool_, oid, eoff}});
    }
  }
  for (const auto& [base, rec] : cm.recipes()) {
    pending_derefs_.push_back(
        {rec.chunk_id, ChunkRef{pool_, oid, kRecipeRefBit | base}});
  }
  dirty_set_.erase(oid);
  drop_context(oid);
  asm_windows_.erase(oid);
  rewrite_set_.erase(oid);
  bump_map_stamp();
  osd_->submit_remove(pool_, oid, [reply = std::move(reply)](Status s) {
    reply(OsdOpReply{s, {}, 0, {}, nullptr});
  });
}

// ---------------------------------------------------------------- engine

void DedupTier::start() {
  if (running_) return;
  running_ = true;
  schedule_tick();
}

void DedupTier::stop() {
  running_ = false;
  if (tick_event_ != 0) {
    sched().cancel(tick_event_);
    tick_event_ = 0;
  }
}

void DedupTier::schedule_tick() {
  if (!running_) return;
  // start() runs from control-plane code; pin the tick chain to the
  // owning OSD's shard (re-arms from within a tick stay there anyway).
  tick_event_ = sched().after_node(osd_->node(), cfg().engine_tick,
                                   [this] { tick(); });
}

void DedupTier::kick() {
  if (!in_tick_) tick();
}

void DedupTier::tick() {
  if (in_tick_) return;
  in_tick_ = true;
  perf_->inc(l_tier_engine_ticks);
  enforce_cache_capacity();
  auto st = std::make_shared<TickState>();
  st->budget = rate_.take(sched().now(), cfg().max_dedup_per_tick);
  pump(std::move(st));
}

void DedupTier::pump(std::shared_ptr<TickState> st) {
  // Launch work until the tick budget or the parallelism window is spent.
  // The tiering agent flushes several objects concurrently, which is what
  // makes an *uncontrolled* engine genuinely hurt foreground I/O
  // (Figure 5(b)) — and what the rate controller then tames.
  while (running_ && st->budget > 0 &&
         st->inflight < cfg().engine_parallelism) {
    if (!launch_one(st)) break;
  }
  if (st->inflight == 0) {
    in_tick_ = false;
    schedule_tick();
  }
}

bool DedupTier::launch_one(const std::shared_ptr<TickState>& st) {
  auto on_done = [this, st]() {
    st->inflight--;
    pump(st);
  };

  // Deferred dereferences (from write_full shrinks / removes) first.
  if (!pending_derefs_.empty()) {
    auto [cid, ref] = pending_derefs_.front();
    pending_derefs_.pop_front();
    st->budget--;
    st->inflight++;
    send_chunk_deref(cid, ref, /*foreground=*/false,
                     [on_done](Status) { on_done(); });
    return true;
  }

  if (!promote_queue_.empty()) {
    const ObjectName oid = promote_queue_.front();
    promote_queue_.pop_front();
    promote_set_.erase(oid);
    st->budget--;
    st->inflight++;
    promote_object(oid, on_done);
    return true;
  }

  // Dirty list: skip vanished objects, rotate hot ones, flush the first
  // eligible object with a slice of the tick budget.
  size_t scanned = 0;
  const size_t limit = dirty_list_.size();
  while (!dirty_list_.empty() && scanned <= limit) {
    const ObjectName oid = dirty_list_.front();
    if (!dirty_set_.count(oid)) {
      dirty_list_.pop_front();
      continue;
    }
    if (!osd_->local_exists(pool_, oid)) {
      if (pending_writes_.count(oid)) {
        // Freshly written object whose create has not applied yet — it is
        // real, just not durable; revisit after the write lands.
        dirty_list_.pop_front();
        dirty_list_.push_back(oid);
        scanned++;
        continue;
      }
      dirty_list_.pop_front();
      dirty_set_.erase(oid);
      continue;
    }
    const OsdId prim = osd_->ctx().osdmap().primary(pool_, oid);
    if (prim >= 0 && prim != osd_->id()) {
      // Another up OSD is the authoritative engine for this object; two
      // concurrent flush pipelines would race (one's eviction punches the
      // data part out from under the other's content read).  Re-derive our
      // view from the store: once the primary's flush replicates here the
      // entry goes clean and the object leaves our backlog — and if the
      // primary dies first, a later pass finds us authoritative.
      if (pending_writes_.count(oid) == 0) {
        drop_context(oid);
        if (!cached_map(oid).any_dirty()) {
          dirty_list_.pop_front();
          dirty_set_.erase(oid);
          continue;
        }
      }
      dirty_list_.pop_front();
      dirty_list_.push_back(oid);
      scanned++;
      continue;
    }
    if (hitset_.is_hot(oid, sched().now())) {
      // Hot object: not deduplicated until it cools down (key idea 3).
      perf_->inc(l_tier_hot_skips);
      dirty_list_.pop_front();
      dirty_list_.push_back(oid);
      scanned++;
      continue;
    }
    dirty_list_.pop_front();
    dirty_set_.erase(oid);
    inflight_oids_.insert(oid);
    // Charge the tick budget per chunk, capped so one object cannot hog
    // the whole tick while others wait.
    const int n_dirty = static_cast<int>(cached_map(oid).dirty_count());
    const int chunk_budget = std::clamp(n_dirty, 1, std::min(st->budget, 32));
    st->budget -= chunk_budget;
    st->inflight++;
    flush_object(oid, chunk_budget, [this, oid, on_done](bool any_left) {
      inflight_oids_.erase(oid);
      if (any_left) {
        mark_dirty(oid);  // take another pass later
      } else {
        // Fully clean: the fragmentation this flush produced is now
        // measurable — queue a selective rewrite if it crossed the line.
        maybe_enqueue_rewrite(oid);
      }
      on_done();
    });
    return true;
  }

  // Selective-rewrite queue, after the dirty backlog: defragmentation is
  // strictly lower priority than getting dirty data deduplicated.
  while (!rewrite_queue_.empty()) {
    const ObjectName oid = rewrite_queue_.front();
    rewrite_queue_.pop_front();
    if (!rewrite_set_.erase(oid)) continue;  // cancelled (remove/forget)
    if (!osd_->local_exists(pool_, oid) || is_dirty(oid) ||
        pending_writes_.count(oid) > 0) {
      continue;  // went dirty again; a later clean flush re-queues it
    }
    st->budget--;
    st->inflight++;
    inflight_oids_.insert(oid);  // marks the object busy for scrub/GC
    rewrite_object(oid, [this, oid, on_done] {
      inflight_oids_.erase(oid);
      on_done();
    });
    return true;
  }
  return false;
}

void DedupTier::flush_object(const ObjectName& oid, int max_chunks,
                             std::function<void(bool)> done) {
  // Never read the data part while a client write to this object is still
  // applying — the context learns of dirtiness at submit time, the extents
  // only at durability.  Retry on a later pass.
  if (pending_writes_.count(oid)) {
    sched().after(0, [done = std::move(done)] { done(true); });
    return;
  }
  // Snapshot the dirty offsets; flush several chunks of this object in
  // parallel (the tiering agent flushes whole objects, not single chunks).
  std::vector<uint64_t> offsets;
  {
    ChunkMap& cm = cached_map(oid);
    for (const auto& [off, e] : cm.entries()) {
      if (e.dirty) {
        offsets.push_back(off);
        if (static_cast<int>(offsets.size()) >= max_chunks) break;
      }
    }
  }
  if (offsets.empty()) {
    sched().after(0, [done = std::move(done)] { done(false); });
    return;
  }
  if (recipe_on()) {
    // One buffered metadata apply per object per flush cycle: finish_flush
    // and the recipe compactor stage into this batch, apply_meta_batch
    // submits it once at cycle end.
    meta_batches_.try_emplace(oid);
  }

  struct FlushState {
    std::vector<uint64_t> offsets;
    size_t next = 0;
    int inflight = 0;
    std::function<void(bool)> done;
  };
  auto fs = std::make_shared<FlushState>();
  fs->offsets = std::move(offsets);
  fs->done = std::move(done);

  constexpr int kChunkParallelism = 8;
  auto pump_chunks = std::make_shared<std::function<void()>>();
  // Weak self-reference, same reason as handle_write's `step`: the flush
  // completions hold the strong refs, the stored function must not.
  std::weak_ptr<std::function<void()>> pump_weak = pump_chunks;
  *pump_chunks = [this, oid, fs, pump_weak]() {
    auto pump_chunks = pump_weak.lock();
    if (!pump_chunks) return;
    while (fs->next < fs->offsets.size() && fs->inflight < kChunkParallelism) {
      const uint64_t off = fs->offsets[fs->next++];
      fs->inflight++;
      flush_chunk_at(oid, off, [fs, pump_chunks] {
        fs->inflight--;
        (*pump_chunks)();
      });
    }
    if (fs->inflight == 0 && fs->next >= fs->offsets.size()) {
      auto done = std::move(fs->done);
      fs->done = [](bool) {};  // fire once
      if (meta_batch(oid) != nullptr) {
        // Recipe cycle: compact windows into recipe chunks, then apply
        // the one buffered metadata transaction; dirtiness is re-read
        // after both (a racy flush keeps its slot dirty).
        auto done_sp =
            std::make_shared<std::function<void(bool)>>(std::move(done));
        compact_recipes(oid, [this, oid, done_sp] {
          const ChunkMap* cm = cached_map_if_loaded(oid);
          apply_meta_batch(oid, cm != nullptr && cm->any_dirty(),
                           [done_sp](bool any) { (*done_sp)(any); });
        });
      } else {
        const ChunkMap* cm = cached_map_if_loaded(oid);
        done(cm != nullptr && cm->any_dirty());
      }
    }
  };
  (*pump_chunks)();
}

void DedupTier::flush_chunk_at(const ObjectName& oid, uint64_t offset,
                               std::function<void()> done) {
  ChunkMap& cm = cached_map(oid);
  ChunkMapEntry* e = cm.find(offset);
  if (e == nullptr || !e->dirty) {
    sched().after(0, std::move(done));
    return;
  }
  const ChunkMapEntry entry = *e;  // snapshot (incl. dirty_gen)

  // Background trace, born per flush attempt and finished when the
  // pipeline's continuation runs; an attempt abandoned by a crash drops it
  // unfinished (the tracker holds no reference until finish).
  obs::OpTraceRef trace;
  if (obs::OpTracker* trk = osd_->ctx().op_tracker()) {
    trace = trk->start("flush " + oid + "@" + std::to_string(offset),
                       sched().now());
  }
  done = [this, t0 = sched().now(), trace,
          inner = std::move(done)]() mutable {
    const SimTime now = sched().now();
    perf_->record(l_tier_flush_lat, static_cast<uint64_t>(now - t0));
    if (obs::OpTracker* trk = osd_->ctx().op_tracker()) {
      trk->finish(trace, now);
    }
    inner();
  };

  auto with_content = [this, oid, entry, trace](std::function<void()> done,
                                                Buffer content) mutable {
    run_flush_pipeline(oid, entry, std::move(content), std::move(done),
                       trace);
  };

  if (!entry.cached && entry.flushed()) {
    // Figure 8's cached=false/dirty=true state: the data part holds only
    // the newly written bytes.  The *background* flush performs the
    // read-modify-write the paper keeps off the foreground path: fetch the
    // superseded chunk, overlay the local extents, then continue.
    perf_->inc(l_tier_flush_merges);
    read_chunk_from_pool(
        entry.chunk_id, entry.chunk_off, entry.length, /*foreground=*/false,
        [this, oid, entry, with_content, trace,
         done = std::move(done)](Result<Buffer> r) mutable {
          if (!r.is_ok()) {
            // The superseded chunk can be gone for good: a crash between
            // the chunk put and the map update (Figure 9 steps 4-5) leaves
            // this entry pointing at a chunk whose reference the crashed
            // pipeline had already dropped, so GC may reclaim it before the
            // redo runs.  The replacement chunk from that crashed attempt
            // still records this entry's ref and holds the superseded
            // content merged with every extent flushed then — adopt it as
            // the merge base (the local extents overlaid below are a
            // superset of what it absorbed) instead of retrying a read that
            // can never succeed.
            const ObjectName adopt = find_chunk_recording_ref(
                oid, entry.offset, entry.chunk_id);
            if (adopt.empty()) {
              done();  // transient (e.g. chunk primary down); later pass
              return;
            }
            perf_->inc(l_tier_orphan_adoptions);
            ChunkMapEntry rebased = entry;
            rebased.chunk_id = adopt;
            read_chunk_from_pool(
                adopt, 0, entry.length, /*foreground=*/false,
                [this, oid, rebased, trace,
                 done = std::move(done)](Result<Buffer> r2) mutable {
                  if (!r2.is_ok()) {
                    done();
                    return;
                  }
                  Buffer content = std::move(r2).value();
                  content.resize(rebased.length);
                  overlay_local(oid, rebased.offset, &content);
                  run_flush_pipeline(oid, rebased, std::move(content),
                                     std::move(done), trace);
                },
                trace);
            return;
          }
          Buffer content = std::move(r).value();
          content.resize(entry.length);
          overlay_local(oid, entry.offset, &content);
          with_content(std::move(done), std::move(content));
        },
        trace);
    return;
  }

  // Whole chunk is local (cached, or never flushed): read the data part.
  // The store may return short when the logical size sits mid-chunk (or
  // was truncated by eviction); the chunk's tail is zeros by definition.
  osd_->submit_read(
      pool_, oid, entry.offset, entry.length,
      [with_content, len = entry.length,
       done = std::move(done)](Result<Buffer> r) mutable {
        if (!r.is_ok()) {
          done();
          return;
        }
        Buffer content = std::move(r).value();
        content.resize(len);
        with_content(std::move(done), std::move(content));
      },
      /*foreground=*/false);
}

FingerprintIndex* DedupTier::fp_index() {
  if (FingerprintIndex* idx = osd_->ctx().fp_index(osd_->node())) return idx;
  if (!own_fp_index_) own_fp_index_ = std::make_unique<FingerprintIndex>();
  return own_fp_index_.get();
}

void DedupTier::fingerprint_async(const Buffer& content,
                                  std::function<void(const Fingerprint&)> k,
                                  obs::OpTraceRef trace) {
  const FingerprintAlgo algo = cfg().fp_algo;
  FingerprintIndex* idx = fp_index();
  const SimTime t0 = sched().now();
  const size_t sp = trace ? trace->span_begin("fingerprint", t0) : 0;
  CpuModel& cpu = osd_->ctx().node_cpu(osd_->node());

  // Tier 1 of the fast path: weak-hash the bytes (an order of magnitude
  // cheaper than SHA) and probe the node index.
  const uint64_t weak = weak_hash_hook_ ? weak_hash_hook_(content)
                                        : WeakHasher::oneshot(content.span());
  const FingerprintIndex::ProbeResult pr = idx->probe(weak, content);
  switch (pr.outcome) {
    case FingerprintIndex::Outcome::kVerifiedHit:
      perf_->inc(l_tier_weak_hash_hits);
      break;
    case FingerprintIndex::Outcome::kCollision:
      perf_->inc(l_tier_weak_hash_hits);
      perf_->inc(l_tier_weak_collisions);
      break;
    case FingerprintIndex::Outcome::kBloomNegative:
      perf_->inc(l_tier_bloom_negative_hits);
      perf_->inc(l_tier_weak_hash_misses);
      break;
    case FingerprintIndex::Outcome::kMiss:
      perf_->inc(l_tier_weak_hash_misses);
      break;
  }
  // A verified hit takes the miss path's virtual-time trajectory exactly —
  // same costed CPU execute, latency record and trace span — minus the
  // host-side SHA kernel; a collision or miss runs the real hash.
  Fingerprint fp;
  KernelFuture<Fingerprint> fp_fut;
  if (pr.hit()) {
    perf_->inc(l_tier_sha_avoided);
    fp = *pr.fp;  // copy out: the entry can be evicted before completion
  } else {
    perf_->inc(l_tier_sha_computed);
    // Submit the real hash at issue time; a worker overlaps it with the
    // simulated cost below, and take() inside the completion callback is
    // where the result becomes observable (inline there in serial mode).
    fp_fut = kernel_async<Fingerprint>(
        osd_->ctx().exec_pool(), Kernel::kFingerprint,
        [algo, content] { return Fingerprint::compute(algo, content.span()); });
  }
  cpu.execute(
      cpu.fingerprint_cost(content.size(), algo == FingerprintAlgo::kSha1),
      [this, content, weak, idx, t0, trace = std::move(trace), sp, fp,
       fp_fut = std::move(fp_fut), k = std::move(k)]() mutable {
        const SimTime now = sched().now();
        perf_->record(l_tier_fingerprint_lat,
                      static_cast<uint64_t>(now - t0));
        if (trace) trace->span_end(sp, now);
        if (fp_fut.valid()) {
          fp = fp_fut.take();
          idx->insert(weak, content, fp);
        }
        k(fp);
      });
}

void DedupTier::run_flush_pipeline(const ObjectName& oid,
                                   const ChunkMapEntry& entry, Buffer content,
                                   std::function<void()> done,
                                   obs::OpTraceRef trace) {
  {
        fingerprint_async(
            content,
            [this, oid, entry, content, trace, done = std::move(done)](
                const Fingerprint& fp) mutable {
              ObjectName new_id = fp.hex();

              ChunkRef ref{pool_, oid, entry.offset};

              if (entry.chunk_id == new_id) {
                // Rewrite with identical content: if the reference is
                // genuinely still held, clear dirty locally with no
                // chunk-pool traffic.  The premise must be verified — an
                // overwrite/overwrite-back sequence across a crash schedule
                // can deref and reclaim this chunk while the entry was
                // dirty, and a blind noop would then mark clean a map entry
                // whose chunk no longer exists.  On any doubt fall through
                // to the full put, which re-creates chunk and reference
                // idempotently.
                bool premise = false;
                const PoolId cp = cfg().chunk_pool;
                const OsdId cprim = osd_->ctx().osdmap().primary(cp, new_id);
                Osd* co = cprim >= 0 ? osd_->ctx().osd(cprim) : nullptr;
                if (co != nullptr && co->is_up() &&
                    co->local_exists(cp, new_id)) {
                  if (auto raw = co->local_getxattr(cp, new_id, kRefsXattr);
                      raw.is_ok()) {
                    if (auto dec = decode_refs(raw.value()); dec.is_ok()) {
                      premise = std::find(dec->begin(), dec->end(), ref) !=
                                dec->end();
                    }
                  }
                }
                if (premise) {
                  perf_->inc(l_tier_noop_flushes);
                  finish_flush(oid, entry.offset, new_id, entry.dirty_gen,
                               /*was_noop=*/true, std::move(done));
                  return;
                }
              }
              // The put, the map update and the deref run once each, in
              // that order, so they share one state.
              struct Flush {
                ObjectName oid;
                ChunkMapEntry entry;
                ObjectName new_id;
                ChunkRef ref;
                obs::OpTraceRef trace;
                std::function<void()> done;
              };
              auto f = std::make_shared<Flush>(
                  Flush{std::move(oid), std::move(entry), std::move(new_id),
                        std::move(ref), std::move(trace), std::move(done)});

              // De-reference of the superseded chunk runs LAST, only after
              // the map durably names the replacement.  The reverse order
              // (deref before put) has an unrecoverable crash window: the
              // deref can drop the old chunk's final reference and destroy
              // it while the map still points at it, and a crash before
              // the new chunk lands then loses the only copy of the
              // non-overlaid bytes — the redo's merge read can never
              // succeed.  With deref last, every crash point leaves either
              // (a) the old chunk referenced and the entry dirty (redo
              // converges via the idempotent put), or (b) the new chunk
              // mapped and the old one holding a stale ref that GC's
              // dangling-ref sweep drops (the paper's false-positive
              // refcounting, Section 4.6).
              auto deref_old = [this, f]() {
                // Probed whether or not an old chunk exists, so the
                // consistency sweep covers first flushes too.
                if (fail_at(FailurePoint::kBeforeDeref, f->oid)) {
                  f->done();
                  return;
                }
                // A re-put of the entry's own chunk (failed noop premise:
                // the chunk had been reclaimed) supersedes nothing — a
                // deref here would drop the reference just re-taken.
                if (!f->entry.flushed() || f->entry.chunk_id == f->new_id) {
                  if (fail_at(FailurePoint::kAfterDeref, f->oid)) {
                    f->done();
                    return;
                  }
                  f->done();
                  return;
                }
                if (meta_batch(f->oid) != nullptr) {
                  // Batched cycle: the deref must not reach the chunk pool
                  // before the buffered map apply does — queue it on the
                  // batch (deref-last survives the batching; a crash that
                  // drops the queue leaves a dangling ref for GC, the same
                  // contract as a lost async deref).
                  queue_deferred_deref(f->oid, f->entry.chunk_id, f->ref);
                  if (fail_at(FailurePoint::kAfterDeref, f->oid)) {
                    f->done();
                    return;
                  }
                  f->done();
                  return;
                }
                if (cfg().async_deref) {
                  // False-positive refcounting (Section 4.6): fire the
                  // de-reference without waiting; the GC mops up if it is
                  // lost.
                  send_chunk_deref(f->entry.chunk_id, f->ref,
                                   /*foreground=*/false, [](Status) {},
                                   f->trace);
                  if (fail_at(FailurePoint::kAfterDeref, f->oid)) {
                    f->done();
                    return;
                  }
                  f->done();
                } else {
                  send_chunk_deref(f->entry.chunk_id, f->ref,
                                   /*foreground=*/false,
                                   [this, f](Status) {
                                     if (fail_at(FailurePoint::kAfterDeref,
                                                 f->oid)) {
                                       f->done();
                                       return;
                                     }
                                     f->done();
                                   },
                                   f->trace);
                }
              };

              auto after_put = [this, f, deref_old = std::move(deref_old)](
                                   Status s) mutable {
                if (!s.is_ok()) {
                  f->done();
                  return;
                }
                if (fail_at(FailurePoint::kAfterChunkPut, f->oid) ||
                    fail_at(FailurePoint::kBeforeMapUpdate, f->oid)) {
                  // Chunk persisted but the map update is lost: the object
                  // stays dirty and a redo finds the reference already
                  // present (idempotent put).
                  f->done();
                  return;
                }
                finish_flush(f->oid, f->entry.offset, f->new_id,
                             f->entry.dirty_gen, /*was_noop=*/false,
                             std::move(deref_old));
              };

              perf_->inc(l_tier_chunks_flushed);
              perf_->inc(l_tier_flush_bytes, content.size());
              send_chunk_put(f->new_id, std::move(content), f->ref,
                             /*foreground=*/false, std::move(after_put),
                             f->trace);
            },
            trace);
  }
}

void DedupTier::finish_flush(const ObjectName& oid, uint64_t offset,
                             const ObjectName& new_id, uint64_t snapshot_gen,
                             bool was_noop, std::function<void()> done) {
  const ObjectKey key{pool_, oid};
  if (!osd_->local_exists(pool_, oid)) {
    // Object removed while the flush flew; its refs were queued by
    // handle_remove, but the chunk we just put took a fresh reference that
    // remove could not have seen.
    if (!was_noop) {
      pending_derefs_.push_back({new_id, ChunkRef{pool_, oid, offset}});
    }
    sched().after(0, std::move(done));
    return;
  }
  ChunkMap& cm = cached_map(oid);
  ChunkMapEntry* e = cm.find(offset);
  if (e == nullptr) {
    // The slot vanished (write_full shrink raced the flush): release the
    // reference we just took so the chunk is not leaked.
    if (!was_noop) {
      pending_derefs_.push_back({new_id, ChunkRef{pool_, oid, offset}});
    }
    sched().after(0, std::move(done));
    return;
  }

  Transaction txn;
  MetaBatch* batch = meta_batch(oid);
  const bool racy = e->dirty_gen != snapshot_gen;
  // Unconditional: a noop flush normally implies chunk_id == new_id, but a
  // redo re-based onto an adopted chunk (see flush_chunk_at) reaches here
  // with the entry still naming its reclaimed predecessor.
  e->chunk_id = new_id;
  // A flush always produces (or re-affirms) an ordinary chunk whose object
  // starts at the slot content; container membership ended when the slot
  // went dirty.
  e->chunk_off = 0;
  e->container = false;
  bump_map_stamp();
  if (racy) {
    // A client write landed mid-flush; the local data is newer than what
    // we pushed.  Keep the chunk dirty so the engine reprocesses it.
    perf_->inc(l_tier_racy_flushes);
    cm.set_dirty(*e, true);
  } else {
    cm.set_dirty(*e, false);
    const bool hot =
        cfg().cache_enabled && hitset_.is_hot(oid, sched().now());
    if (cfg().evict_after_flush && !hot) {
      // Reclaim the local copy: cached chunks drop their whole extent,
      // partial-dirty chunks drop the overlay bytes that just merged into
      // the chunk pool.
      if (e->cached) perf_->inc(l_tier_evictions);
      cm.set_cached(*e, false);
      if (batch != nullptr) {
        // Batched cycle: the punch must land in the same transaction as
        // the record that clears `cached` (see MetaBatch::evicts), so it
        // is deferred to the apply, which re-validates against the live
        // map first.
        batch->evicts.insert(e->offset);
      } else {
        txn.punch_hole(key, e->offset, e->length);
        // Once no chunk is cached or dirty, the object "contains no data
        // but only metadata" (Figure 8, object 2): drop the data part
        // entirely.  Hole-punching cannot reclaim space on erasure-coded
        // pools (re-encoding densifies), but an empty object can.
        if (!cm.any_local()) txn.truncate(key, 0);
      }
    }
  }
  if (batch != nullptr) {
    // Defer the inline record too — the compactor may absorb this slot
    // into a recipe and never write it at all.  Baseline charges what the
    // unbatched engine would write right now.
    perf_->inc(l_tier_meta_bytes_baseline,
               ChunkMap::omap_key(e->offset).size() +
                   ChunkMap::kEntryEncodedBytes);
    batch->pending.insert(e->offset);
    sched().after(0, std::move(done));
    return;
  }
  put_entry_record(&txn, key, e);
  perf_->inc(l_tier_meta_txns);
  osd_->submit_write(pool_, oid, std::move(txn),
                     [done = std::move(done)](Status) { done(); },
                     /*foreground=*/false);
}

void DedupTier::enforce_cache_capacity() {
  const uint64_t cap = cfg().cache_capacity_bytes;
  if (cap == 0) return;

  // Clean cached bytes per object (dirty chunks are not evictable — their
  // only copy is local).  Contexts live in memory, so this scan is cheap
  // relative to the flush work a tick performs.
  auto clean_cached_bytes = [](const ChunkMap& cm) {
    uint64_t n = 0;
    for (const auto& [off, e] : cm.entries()) {
      if (e.cached && !e.dirty && e.flushed()) n += e.length;
    }
    return n;
  };
  uint64_t total = 0;
  for (const auto& [oid, cm] : map_cache_) total += clean_cached_bytes(cm);
  if (total <= cap) return;

  // Walk victims coldest-first.  Objects without evictable bytes just
  // leave the recency list.
  std::vector<ObjectName> order;
  for (const auto& [oid, unused] : cache_lru_) order.push_back(oid);
  for (auto it = order.rbegin(); it != order.rend() && total > cap; ++it) {
    const ObjectName& oid = *it;
    auto mit = map_cache_.find(oid);
    if (mit == map_cache_.end() || !osd_->local_exists(pool_, oid)) {
      cache_lru_.erase(oid);
      continue;
    }
    ChunkMap& cm = mit->second;
    const ObjectKey key{pool_, oid};
    Transaction txn;
    uint64_t reclaimed = 0;
    bool any_local = false;
    for (auto& [off, e] : cm.entries()) {
      if (e.cached && !e.dirty && e.flushed()) {
        cm.set_cached(e, false);
        txn.punch_hole(key, e.offset, e.length);
        put_entry_record(&txn, key, &e);
        reclaimed += e.length;
        perf_->inc(l_tier_capacity_evictions);
      } else if (e.cached || e.dirty) {
        any_local = true;
      }
    }
    cache_lru_.erase(oid);
    if (reclaimed == 0) continue;
    bump_map_stamp();  // cached flags changed under any open window plans
    if (!any_local) txn.truncate(key, 0);
    total -= reclaimed;
    perf_->inc(l_tier_meta_txns);
    osd_->submit_write(pool_, oid, std::move(txn), [](Status) {},
                       /*foreground=*/false);
  }
}

void DedupTier::promote_object(const ObjectName& oid,
                               std::function<void()> done) {
  struct Target {
    uint64_t offset;
    uint32_t length;
    ObjectName chunk_oid;
    uint64_t chunk_off;
  };
  auto targets = std::make_shared<std::vector<Target>>();
  {
    ChunkMap& cm = cached_map(oid);
    for (const auto& [off, e] : cm.entries()) {
      if (!e.cached && e.flushed() && !e.dirty) {
        targets->push_back({off, e.length, e.chunk_id, e.chunk_off});
      }
    }
  }
  if (targets->empty()) {
    sched().after(0, std::move(done));
    return;
  }
  perf_->inc(l_tier_promotions);

  auto g = std::make_shared<Gather>();
  g->parts.resize(targets->size());
  g->outstanding = static_cast<int>(targets->size());
  // Weak self-reference: see post_process_write's `proceed`.
  std::weak_ptr<Gather> gw = g;
  g->done = [this, oid, targets, gw, done = std::move(done)](Status s) mutable {
    auto g = gw.lock();
    if (!g) return;
    if (!s.is_ok() || !osd_->local_exists(pool_, oid)) {
      done();
      return;
    }
    const ObjectKey key{pool_, oid};
    ChunkMap& cm = cached_map(oid);
    Transaction txn;
    for (size_t i = 0; i < targets->size(); i++) {
      const Target& t = (*targets)[i];
      ChunkMapEntry* e = cm.find(t.offset);
      // Only install if the chunk still references what we fetched.
      if (e != nullptr && e->chunk_id == t.chunk_oid &&
          e->chunk_off == t.chunk_off && !e->dirty) {
        txn.write(key, t.offset, g->parts[i]);
        cm.set_cached(*e, true);
        put_entry_record(&txn, key, e);
      }
    }
    bump_map_stamp();
    perf_->inc(l_tier_meta_txns);
    osd_->submit_write(pool_, oid, std::move(txn),
                       [done = std::move(done)](Status) { done(); },
                       /*foreground=*/false);
  };
  for (size_t i = 0; i < targets->size(); i++) {
    read_chunk_from_pool((*targets)[i].chunk_oid, (*targets)[i].chunk_off,
                         (*targets)[i].length,
                         /*foreground=*/false, [g, i](Result<Buffer> r) {
                           g->arrive(i, std::move(r));
                         });
  }
}

// --------------------------------------- fragmentation-aware restore path

void DedupTier::close_assembly_window(AssemblyWindow* w) {
  if (!w->open) return;
  if (w->planned > w->consumed) {
    perf_->inc(l_tier_asm_wasted_refs, w->planned - w->consumed);
  }
  w->open = false;
  w->planned = 0;
  w->consumed = 0;
}

double DedupTier::fragmentation_of(const ChunkMap& cm) const {
  uint64_t chunks = 0;
  uint64_t extents = 0;
  const ChunkMapEntry* prev = nullptr;
  for (const auto& [off, e] : cm.entries()) {
    if (!e.flushed() || e.cached || e.dirty) {
      prev = nullptr;  // locally served slots break no remote extent
      continue;
    }
    chunks++;
    const bool contiguous = prev != nullptr && prev->chunk_id == e.chunk_id &&
                            prev->offset + prev->length == e.offset &&
                            prev->chunk_off + prev->length == e.chunk_off;
    if (!contiguous) extents++;
    prev = &e;
  }
  if (chunks == 0) return 0.0;
  return static_cast<double>(extents) / static_cast<double>(chunks);
}

void DedupTier::maybe_enqueue_rewrite(const ObjectName& oid) {
  if (!cfg().restore_rewrite) return;
  if (rewrite_set_.count(oid) > 0) return;
  if (!osd_->local_exists(pool_, oid)) return;
  if (hitset_.is_hot(oid, sched().now())) return;  // promotion serves it
  const ChunkMap& cm = cached_map(oid);
  if (fragmentation_of(cm) <= cfg().rewrite_frag_threshold) return;
  rewrite_set_.insert(oid);
  rewrite_queue_.push_back(oid);
}

void DedupTier::rewrite_object(const ObjectName& oid,
                               std::function<void()> done) {
  if (!osd_->local_exists(pool_, oid) ||
      osd_->ctx().osdmap().primary(pool_, oid) != osd_->id() ||
      hitset_.is_hot(oid, sched().now())) {
    sched().after(0, std::move(done));
    return;
  }
  ChunkMap& cm = cached_map(oid);

  // Select runs of 2..rewrite_run_len adjacent cold flushed slots, capped
  // at rewrite_max_pct of the object's eligible chunks.  Container members
  // are excluded, so a rewritten object converges instead of re-coalescing
  // forever.
  struct Slot {
    uint64_t offset;
    uint32_t length;
    ObjectName chunk_id;
    uint64_t chunk_off;
  };
  using Run = std::vector<Slot>;
  auto runs = std::make_shared<std::vector<Run>>();
  {
    const size_t run_cap =
        static_cast<size_t>(std::max(2, cfg().rewrite_run_len));
    uint64_t eligible = 0;
    for (const auto& [off, e] : cm.entries()) {
      if (e.flushed() && !e.cached && !e.dirty && !e.container &&
          e.length > 0) {
        eligible++;
      }
    }
    const uint64_t chunk_cap = std::max<uint64_t>(
        2, eligible *
               static_cast<uint64_t>(std::clamp(cfg().rewrite_max_pct, 0, 100)) /
               100);
    uint64_t taken = 0;
    Run cur;
    auto close_run = [&] {
      if (cur.size() >= 2) {
        runs->push_back(cur);
      } else {
        taken -= cur.size();  // a single slot gains nothing; return budget
      }
      cur.clear();
    };
    for (const auto& [off, e] : cm.entries()) {
      const bool ok = e.flushed() && !e.cached && !e.dirty && !e.container &&
                      e.length > 0 && taken < chunk_cap;
      const bool adjacent =
          !cur.empty() && cur.back().offset + cur.back().length == e.offset;
      if (!ok || !adjacent) close_run();
      if (!ok) continue;
      cur.push_back({e.offset, e.length, e.chunk_id, e.chunk_off});
      taken++;
      if (cur.size() >= run_cap) close_run();
    }
    close_run();
  }
  if (runs->empty()) {
    sched().after(0, std::move(done));
    return;
  }

  // One run at a time: read the slots, fingerprint the concatenation (the
  // container OID is content-addressed like any chunk, so deep scrub's
  // recompute holds), put it carrying one ref per slot, update the map,
  // then — deref-last, the Figure 9 ordering — release the old chunks.
  auto idx = std::make_shared<size_t>(0);
  auto step = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> step_weak = step;
  *step = [this, oid, runs, idx, step_weak,
           done = std::move(done)]() mutable {
    auto step = step_weak.lock();
    if (!step) return;
    if (*idx >= runs->size() || !osd_->local_exists(pool_, oid)) {
      done();
      return;
    }
    const Run run = (*runs)[(*idx)++];
    auto g = std::make_shared<Gather>();
    g->parts.resize(run.size());
    g->outstanding = static_cast<int>(run.size());
    // Weak self-reference: see post_process_write's `proceed`.
    std::weak_ptr<Gather> gw = g;
    g->done = [this, oid, run, gw, step](Status s) mutable {
      auto g = gw.lock();
      if (!g) return;
      if (!s.is_ok()) {
        (*step)();  // a slot vanished mid-read; skip this run
        return;
      }
      size_t total = 0;
      for (const auto& sl : run) total += sl.length;
      Buffer content(total);
      size_t pos = 0;
      for (size_t i = 0; i < run.size(); i++) {
        Buffer p = std::move(g->parts[i]);
        p.resize(run[i].length);  // short tail chunks zero-fill
        content.write_at(pos, p);
        pos += run[i].length;
      }
      fingerprint_async(
          content,
          [this, oid, run, content, step](const Fingerprint& fp) mutable {
            const ObjectName cid = fp.hex();
            std::vector<ChunkRef> extras;
            extras.reserve(run.size() - 1);
            for (size_t i = 1; i < run.size(); i++) {
              extras.push_back({pool_, oid, run[i].offset});
            }
            const ChunkRef ref0{pool_, oid, run.front().offset};
            auto after_put = [this, oid, run, cid, step](Status ps) mutable {
              if (!ps.is_ok() || !osd_->local_exists(pool_, oid)) {
                // Container may exist with refs no map names; the GC
                // dangling-ref sweep reclaims it.
                (*step)();
                return;
              }
              ChunkMap& cm2 = cached_map(oid);
              const ObjectKey key{pool_, oid};
              Transaction txn;
              auto derefs = std::make_shared<
                  std::vector<std::pair<ObjectName, ChunkRef>>>();
              uint64_t cum = 0;
              for (const auto& sl : run) {
                ChunkMapEntry* e = cm2.find(sl.offset);
                const ChunkRef r{pool_, oid, sl.offset};
                if (e != nullptr && !e->dirty && e->chunk_id == sl.chunk_id &&
                    e->chunk_off == sl.chunk_off) {
                  e->chunk_id = cid;
                  e->chunk_off = cum;
                  e->container = true;
                  put_entry_record(&txn, key, e);
                  derefs->push_back({sl.chunk_id, r});
                  perf_->inc(l_tier_rewrite_chunks);
                  perf_->inc(l_tier_rewrite_bytes, sl.length);
                } else {
                  // The slot changed mid-rewrite: the container's ref for
                  // it is already stale — release it instead.
                  derefs->push_back({cid, r});
                }
                cum += sl.length;
              }
              perf_->inc(l_tier_rewrite_runs);
              bump_map_stamp();
              perf_->inc(l_tier_meta_txns);
              osd_->submit_write(
                  pool_, oid, std::move(txn),
                  [this, derefs, step](Status) {
                    // Deref-last: only once the map durably names the
                    // container may the old chunks lose their refs.
                    for (auto& d : *derefs) {
                      pending_derefs_.push_back(std::move(d));
                    }
                    (*step)();
                  },
                  /*foreground=*/false);
            };
            send_chunk_put(cid, content, ref0, /*foreground=*/false,
                           std::move(after_put), nullptr, std::move(extras));
          });
    };
    for (size_t i = 0; i < run.size(); i++) {
      read_chunk_from_pool(run[i].chunk_id, run[i].chunk_off, run[i].length,
                           /*foreground=*/false, [g, i](Result<Buffer> r) {
                             g->arrive(i, std::move(r));
                           });
    }
  };
  (*step)();
}

}  // namespace gdedup
