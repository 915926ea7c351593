#include "rados/cluster.h"

#include <atomic>
#include <cassert>

#include "common/encoding.h"
#include "common/logging.h"
#include "dedup/fingerprint_index.h"
#include "ec/reed_solomon.h"

namespace gdedup {

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      sched_(cfg.sim_shards > 0 ? cfg.sim_shards : Scheduler::env_shards()),
      exec_pool_(cfg.exec_threads > 0 ? cfg.exec_threads
                                      : ExecPool::env_threads()),
      op_tracker_(obs::OpTracker::resolve_historic_cap(cfg.ops_history),
                  obs::OpTracker::resolve_slow_cap(cfg.ops_slow_board)),
      net_(&sched_, cfg.storage_nodes + cfg.client_nodes, cfg.net),
      recipe_dedup_(cfg.recipe_dedup < 0 ? ClusterContext::env_recipe_dedup()
                                         : cfg.recipe_dedup != 0) {
  // Storage nodes spread round-robin over shards; client nodes pin to
  // shard 0 so the bench harnesses' shared completion counters stay
  // single-shard.  The map is part of the determinism contract only in
  // that it is a pure function of the topology, never of timing.
  {
    std::vector<int> node_shard(static_cast<size_t>(num_nodes()), 0);
    for (int n = 0; n < cfg_.storage_nodes; n++) {
      node_shard[static_cast<size_t>(n)] = n % sched_.shards();
    }
    sched_.set_node_shard_map(std::move(node_shard));
  }
  {
    obs::PerfCountersBuilder b("sim", l_sim_first, l_sim_last);
    b.add_gauge(l_sim_shards, "shards");
    b.add_gauge(l_sim_events_dispatched, "events_dispatched");
    b.add_gauge(l_sim_events_batched, "events_batched");
    b.add_gauge(l_sim_ingress_messages, "ingress_messages");
    b.add_gauge(l_sim_shard_sync_barriers, "shard_sync_barriers");
    b.add_gauge(l_sim_windows, "windows");
    b.add_gauge(l_sim_arena_bytes, "arena_bytes");
    sim_pc_ = b.create();
    perf_registry_.add(sim_pc_);
    sync_sim_counters();
  }
  {
    obs::PerfCountersBuilder b("derived", l_derived_first, l_derived_last);
    b.add_gauge(l_derived_dedup_ratio_ppm, "dedup_ratio_ppm");
    b.add_gauge(l_derived_read_amp_objs_per_gb, "read_amp_objs_per_gb");
    b.add_gauge(l_derived_read_rpcs, "read_rpcs");
    b.add_gauge(l_derived_asm_hit_ppm, "asm_hit_ppm");
    b.add_gauge(l_derived_sha_avoided_ppm, "sha_avoided_ppm");
    b.add_gauge(l_derived_meta_read_amp_ppm, "meta_read_amp_ppm");
    b.add_gauge(l_derived_meta_dedup_ratio_ppm, "meta_dedup_ratio_ppm");
    derived_pc_ = b.create();
    perf_registry_.add(derived_pc_);
  }
  for (int n = 0; n < num_nodes(); n++) {
    node_cpus_.push_back(std::make_unique<CpuModel>(&sched_, cfg_.cpu));
  }
  for (int n = 0; n < cfg_.storage_nodes; n++) {
    node_fp_indexes_.push_back(std::make_unique<FingerprintIndex>());
  }
  int osd_id = 0;
  for (int n = 0; n < cfg_.storage_nodes; n++) {
    for (int d = 0; d < cfg_.osds_per_node; d++) {
      osdmap_.add_osd(osd_id, /*host=*/n);
      osds_.push_back(std::make_unique<Osd>(this, osd_id, n, cfg_.ssd));
      osd_node_[osd_id] = n;
      osd_id++;
    }
  }
}

Cluster::~Cluster() {
  // Stop engines before members tear down.
  for (auto& o : osds_) {
    for (PoolId p : osdmap_.pool_ids()) {
      if (TierService* t = o->tier(p)) t->stop();
    }
  }
}

Osd* Cluster::osd(OsdId id) {
  if (id < 0 || id >= static_cast<OsdId>(osds_.size())) return nullptr;
  return osds_[static_cast<size_t>(id)].get();
}

FingerprintIndex* Cluster::fp_index(NodeId node) {
  if (node < 0 || node >= static_cast<NodeId>(node_fp_indexes_.size())) {
    return nullptr;  // client nodes run no tiers
  }
  return node_fp_indexes_[static_cast<size_t>(node)].get();
}

NodeId Cluster::node_of_osd(OsdId id) const {
  auto it = osd_node_.find(id);
  assert(it != osd_node_.end());
  return it->second;
}

std::vector<Osd*> Cluster::osds() {
  std::vector<Osd*> out;
  out.reserve(osds_.size());
  for (auto& o : osds_) out.push_back(o.get());
  return out;
}

PoolId Cluster::create_pool(PoolConfig cfg) {
  return osdmap_.create_pool(std::move(cfg));
}

PoolId Cluster::create_replicated_pool(const std::string& name, int replicas,
                                       uint32_t pg_num, bool compress) {
  PoolConfig cfg;
  cfg.name = name;
  cfg.scheme = RedundancyScheme::kReplicated;
  cfg.replicas = replicas;
  cfg.pg_num = pg_num;
  cfg.compress_at_rest = compress;
  return create_pool(std::move(cfg));
}

PoolId Cluster::create_ec_pool(const std::string& name, int k, int m,
                               uint32_t pg_num, bool compress) {
  PoolConfig cfg;
  cfg.name = name;
  cfg.scheme = RedundancyScheme::kErasure;
  cfg.ec_k = k;
  cfg.ec_m = m;
  cfg.pg_num = pg_num;
  cfg.compress_at_rest = compress;
  return create_pool(std::move(cfg));
}

void Cluster::enable_dedup(PoolId metadata_pool, PoolId chunk_pool,
                           DedupTierConfig params) {
  assert(params.mode != DedupMode::kOff);
  params.chunk_pool = chunk_pool;
  osdmap_.set_dedup_config(metadata_pool, params);
  for (auto& o : osds_) {
    auto tier = std::make_unique<DedupTier>(o.get(), metadata_pool);
    tier->start();
    o->set_tier(metadata_pool, std::move(tier));
  }
}

DedupTier* Cluster::tier_of(OsdId osd_id, PoolId metadata_pool) {
  Osd* o = osd(osd_id);
  if (o == nullptr) return nullptr;
  return static_cast<DedupTier*>(o->tier(metadata_pool));
}

uint64_t Cluster::perf_sum(int idx, PoolId metadata_pool) {
  uint64_t sum = 0;
  if (idx > l_osd_first && idx < l_osd_last) {
    for (auto& o : osds_) sum += o->perf().get(idx);
    return sum;
  }
  assert(idx > l_tier_first && idx < l_tier_last);
  const std::vector<PoolId> pools = metadata_pool >= 0
                                        ? std::vector<PoolId>{metadata_pool}
                                        : osdmap_.pool_ids();
  for (auto& o : osds_) {
    for (PoolId p : pools) {
      if (auto* t = static_cast<DedupTier*>(o->tier(p))) {
        sum += t->perf().get(idx);
      }
    }
  }
  return sum;
}

OsdId Cluster::add_osd(NodeId host, double weight) {
  assert(host >= 0 && host < cfg_.storage_nodes);
  const OsdId id = static_cast<OsdId>(osds_.size());
  osdmap_.add_osd(id, host, weight);
  osds_.push_back(std::make_unique<Osd>(this, id, host, cfg_.ssd));
  osd_node_[id] = host;
  // Dedup tiers are per-OSD services: give the newcomer its own.
  for (PoolId p : osdmap_.pool_ids()) {
    if (osdmap_.pool(p).dedup.enabled()) {
      auto tier = std::make_unique<DedupTier>(osds_.back().get(), p);
      tier->start();
      osds_.back()->set_tier(p, std::move(tier));
    }
  }
  return id;
}

void Cluster::fail_osd(OsdId id) {
  Osd* o = osd(id);
  assert(o != nullptr);
  o->set_drop_when_down(false);
  o->set_up(false);
  osdmap_.mark_down(id);
}

void Cluster::crash_osd(OsdId id) {
  Osd* o = osd(id);
  assert(o != nullptr);
  o->set_drop_when_down(true);
  o->set_up(false);
  osdmap_.mark_down(id);
  // A crash takes the process with it: engines stop and every queue the
  // daemon held in memory is gone.  (Idempotent when the OSD already
  // crashed itself via an injected failure point.)
  for (PoolId p : osdmap_.pool_ids()) {
    if (TierService* t = o->tier(p)) t->stop();
  }
  o->reset_volatile();
}

void Cluster::revive_osd(OsdId id, bool wipe_store) {
  Osd* o = osd(id);
  assert(o != nullptr);
  // drop_when_down distinguishes a crash (volatile state lost) from an
  // administrative fail_osd; compute before flipping up_.
  const bool crashed = !o->is_up() && o->drop_when_down();
  if (wipe_store) {
    for (PoolId p : osdmap_.pool_ids()) {
      ObjectStore& st = o->store(p);
      for (const auto& key : st.list(p)) {
        (void)st.remove_object(key);
      }
    }
    // Every object this OSD held is gone; decoded-refs entries bound to
    // the wiped xattr buffers must not survive into the recreated world.
    o->drop_refs_cache();
  }
  o->set_up(true);
  osdmap_.mark_up(id);
  if (crashed) {
    // Daemon restart: tiers rebuild their dirty knowledge from the local
    // store (the crash dropped their in-memory lists) and resume ticking.
    // The store may still hold copies older than the ones written during
    // the outage; recover() installs those and has the tiers rescan.
    for (PoolId p : osdmap_.pool_ids()) {
      if (auto* t = static_cast<DedupTier*>(o->tier(p))) {
        t->rebuild_dirty_list();
        t->start();
      }
    }
    revived_since_recover_.insert(id);
  }
}

SimTime Cluster::recover(uint64_t* objects_recovered,
                         uint64_t* bytes_recovered) {
  const SimTime start = sched_.now();

  // Discover holders by scanning surviving OSD stores — no central catalog,
  // matching the shared-nothing design.
  std::map<ObjectKey, std::vector<OsdId>> holders;
  for (auto& o : osds_) {
    if (!o->is_up()) continue;
    for (PoolId p : osdmap_.pool_ids()) {
      const ObjectStore* st = o->store_if_exists(p);
      if (st == nullptr) continue;
      for (const auto& key : st->list(p)) {
        holders[key].push_back(o->id());
      }
    }
  }

  // Decrements land in per-shard completion callbacks, which may run on
  // worker threads during parallel windows; the totals are commutative
  // sums, so relaxed atomics keep them exact at any shard count.
  struct Tally {
    std::atomic<int> outstanding{0};
    bool launched_all = false;
    std::atomic<uint64_t> objects{0};
    std::atomic<uint64_t> bytes{0};
  };
  auto tally = std::make_shared<Tally>();

  // The EC read/write paths identify a copy's shard by its ec.shard xattr,
  // but placement is by acting-set position.  Rotations while a member was
  // down leave shards duplicated or mislabeled relative to the current
  // order, which position-blind "pull what is missing" cannot repair.
  auto shard_label = [this](const ObjectKey& key, OsdId id, int km) -> int {
    Osd* o = osd(id);
    const ObjectStore* st =
        (o != nullptr && o->is_up()) ? o->store_if_exists(key.pool) : nullptr;
    if (st == nullptr) return -1;
    auto attr = st->getxattr(key, "ec.shard");
    if (!attr.is_ok()) return -1;
    Decoder d(attr.value());
    uint32_t v = 0;
    if (!d.get_u32(&v).is_ok() || v >= static_cast<uint32_t>(km)) return -1;
    return static_cast<int>(v);
  };

  // Pre-pass for EC realignment: the decode + re-encode below is pure CPU
  // over store state that nothing mutates until the drive loop runs, so
  // gather the shards and submit every rebuild to the exec pool up front,
  // then join each one at its original position in the launch loop.  Same
  // results in the same order; workers overlap the parity math with the
  // rest of the scan.
  struct EcPrep {
    uint64_t orig_len = 0;
    ObjectState donor;
    KernelFuture<std::vector<Buffer>> shards_out;  // empty = < k shards
  };
  std::map<ObjectKey, EcPrep> ec_prep;
  for (const auto& [key, who] : holders) {
    const PoolConfig& pcfg = osdmap_.pool(key.pool);
    if (pcfg.scheme == RedundancyScheme::kReplicated) continue;
    auto acting = osdmap_.acting(key.pool, key.oid);
    const int k = pcfg.ec_k;
    const int m = pcfg.ec_m;
    bool need_any = false;
    for (size_t i = 0; i < acting.size(); i++) {
      Osd* t = osd(acting[i]);
      if (t == nullptr || !t->is_up()) continue;
      if (shard_label(key, acting[i], k + m) != static_cast<int>(i)) {
        need_any = true;
        break;
      }
    }
    if (!need_any) continue;

    // Gather k distinct shards from every up holder — strays included,
    // since a bumped member can hold the only copy of a shard index.
    EcPrep prep;
    bool have_donor = false;
    std::vector<std::optional<Buffer>> shards(static_cast<size_t>(k + m));
    for (const OsdId h : who) {
      const int idx = shard_label(key, h, k + m);
      if (idx < 0) continue;
      const ObjectStore* st = osd(h)->store_if_exists(key.pool);
      auto data = st->read(key, 0, 0);
      if (!data.is_ok()) continue;
      if (!have_donor) {
        if (auto snap = st->snapshot(key); snap.is_ok()) {
          prep.donor = std::move(snap).value();
          have_donor = true;
        }
      }
      if (auto len_attr = st->getxattr(key, "ec.orig_len");
          len_attr.is_ok()) {
        Decoder ld(len_attr.value());
        uint64_t v = 0;
        if (ld.get_u64(&v).is_ok()) prep.orig_len = v;
      }
      if (!shards[static_cast<size_t>(idx)]) {
        shards[static_cast<size_t>(idx)] = std::move(data).value();
      }
    }
    const uint64_t orig_len = prep.orig_len;
    prep.shards_out = kernel_async<std::vector<Buffer>>(
        &exec_pool_, Kernel::kEcDecode,
        [k, m, orig_len, shards = std::move(shards)] {
          ReedSolomon rs(k, m);
          auto decoded = rs.decode(shards, orig_len);
          if (!decoded.is_ok()) return std::vector<Buffer>{};
          return rs.encode(decoded.value());
        });
    ec_prep.emplace(key, std::move(prep));
  }

  for (const auto& [key, who] : holders) {
    const PoolConfig& pcfg = osdmap_.pool(key.pool);
    auto acting = osdmap_.acting(key.pool, key.oid);

    if (pcfg.scheme == RedundancyScheme::kReplicated) {
      // Fanout auto-creates the object on a freshly rotated-in member, so
      // a holder may be a partial "husk" carrying only the extents and
      // omap keys of the writes it happened to see.  Every applied write
      // bumps the copy's version, and every write reaches every acting
      // member, so the highest-version holder has applied a superset of
      // the transactions any lower-version holder saw: pull from it, and
      // also refresh acting members whose copy lags it.
      auto copy_version = [this, &key](OsdId id) -> int64_t {
        Osd* o = osd(id);
        const ObjectStore* st =
            (o != nullptr && o->is_up()) ? o->store_if_exists(key.pool)
                                         : nullptr;
        const ObjectState* os = st != nullptr ? st->find(key) : nullptr;
        return os == nullptr ? -1 : static_cast<int64_t>(os->version);
      };
      OsdId src = -1;
      int64_t best_v = -1;
      for (const OsdId h : who) {
        const int64_t v = copy_version(h);
        if (v > best_v) {
          best_v = v;
          src = h;
        }
      }
      if (src < 0) continue;
      for (const OsdId target : acting) {
        if (target == src || copy_version(target) >= best_v) continue;
        Osd* t = osd(target);
        if (t == nullptr || !t->is_up()) continue;
        tally->outstanding++;
        tally->objects++;
        // Pull the full object state from the chosen replica, then write
        // it locally (backfill initiated by the target).
        OsdOp pull;
        pull.type = OsdOpType::kPull;
        pull.pool = key.pool;
        pull.oid = key.oid;
        pull.foreground = false;
        pull.trace = op_tracker_.start(
            "recovery_pull " + std::to_string(key.pool) + "/" + key.oid,
            sched_.now());
        Osd* tptr = t;
        // Install is compare-and-swap on the target's version: between the
        // pull launch and the snapshot landing, an in-flight client write
        // can apply at the target, and blindly installing the (older)
        // snapshot would erase it — an acked write lost to recovery.  On a
        // raced install we skip; the caller's next pass re-evaluates with
        // fresh versions.
        const int64_t tv_launch = copy_version(target);
        auto pull_trace = pull.trace;
        send_osd_op(*this, t->node(), src, std::move(pull),
                    [this, tptr, key, tally, tv_launch,
                     pull_trace](OsdOpReply rep) {
                      if (!rep.status.is_ok() || !rep.state) {
                        tally->outstanding--;
                        op_tracker_.finish(pull_trace, sched_.now());
                        return;
                      }
                      auto state = rep.state;
                      const uint64_t bytes = object_state_bytes(*state);
                      tally->bytes += bytes;
                      tptr->disk().write(
                          bytes, [this, tptr, key, state, tally, tv_launch,
                                  pull_trace] {
                            const ObjectStore* st =
                                tptr->store_if_exists(key.pool);
                            const ObjectState* cur =
                                st != nullptr ? st->find(key) : nullptr;
                            const int64_t now_v =
                                cur == nullptr
                                    ? -1
                                    : static_cast<int64_t>(cur->version);
                            if (tptr->is_up() && now_v == tv_launch) {
                              tptr->store(key.pool).install(key, *state);
                            }
                            tally->outstanding--;
                            op_tracker_.finish(pull_trace, sched_.now());
                          });
                    });
      }
      continue;
    }

    // EC realignment: every acting position i must end up holding shard i.
    const int k = pcfg.ec_k;
    const int m = pcfg.ec_m;
    std::vector<size_t> need;
    for (size_t i = 0; i < acting.size(); i++) {
      Osd* t = osd(acting[i]);
      if (t == nullptr || !t->is_up()) continue;
      if (shard_label(key, acting[i], k + m) != static_cast<int>(i)) {
        need.push_back(i);
      }
    }
    if (need.empty()) continue;

    auto prep_it = ec_prep.find(key);
    if (prep_it == ec_prep.end()) continue;  // raced away; next pass
    EcPrep& prep = prep_it->second;
    auto out = prep.shards_out.take();
    if (out.empty()) continue;  // < k distinct shards; retry next pass
    const uint64_t orig_len = prep.orig_len;
    const ObjectState& donor = prep.donor;
    for (const size_t i : need) {
      Osd* t = osd(acting[i]);
      tally->outstanding++;
      tally->objects++;
      ObjectState st;
      st.data.write(0, out[i]);
      st.logical_size = out[i].size();
      st.xattrs = donor.xattrs;
      st.omap = donor.omap;
      Encoder se;
      se.put_u32(static_cast<uint32_t>(i));
      st.xattrs["ec.shard"] = se.finish();
      Encoder ol;
      ol.put_u64(orig_len);
      st.xattrs["ec.orig_len"] = ol.finish();
      const uint64_t bytes = object_state_bytes(st);
      tally->bytes += bytes;
      auto stp = std::make_shared<ObjectState>(std::move(st));
      t->disk().write(bytes, [t, key, stp, tally] {
        t->store(key.pool).install(key, *stp);
        tally->outstanding--;
      });
    }
  }
  tally->launched_all = true;

  // Drive the simulation until every transfer lands.  The deadline is a
  // backstop for fault campaigns: if a source dies mid-pull its ack never
  // comes, and the next recover() pass will pick the object up again.
  const SimTime deadline = sched_.now() + sec(600);
  while (tally->outstanding > 0 && sched_.now() < deadline) {
    if (!sched_.step()) break;
  }

  // Trim stray copies.  An OSD bumped out of an object's acting set by a
  // revive holds a copy that will never see another update: map-update
  // fanout and removes address the acting set only.  Left alone, a stray
  // can wedge an engine on a dirty flag no flush will ever clear, shadow
  // a reclaimed chunk, or resurrect a removed object through a later
  // recovery pull.  A copy is only trimmed once every acting member holds
  // the object, so a stray that is still the sole survivor stays put for
  // the next pass to pull from.
  std::map<ObjectKey, std::vector<OsdId>> post;
  for (auto& o : osds_) {
    if (!o->is_up()) continue;
    for (PoolId p : osdmap_.pool_ids()) {
      const ObjectStore* st = o->store_if_exists(p);
      if (st == nullptr) continue;
      for (const auto& key : st->list(p)) post[key].push_back(o->id());
    }
  }
  for (const auto& [key, who] : post) {
    const PoolConfig& pcfg = osdmap_.pool(key.pool);
    const auto acting = osdmap_.acting(key.pool, key.oid);
    if (acting.empty()) continue;
    // For replicated pools, presence is not enough either: an acting
    // member may hold a partial husk (fanout auto-created it), and a
    // stray may be the most-complete copy until the version-directed
    // refresh above lands.  Only trim once every acting copy has caught
    // up to the best version any holder has.
    uint64_t max_v = 0;
    for (const OsdId h : who) {
      const ObjectStore* st = osd(h)->store_if_exists(key.pool);
      const ObjectState* os = st != nullptr ? st->find(key) : nullptr;
      if (os != nullptr) max_v = std::max(max_v, os->version);
    }
    bool covered = true;
    for (size_t i = 0; i < acting.size(); i++) {
      const OsdId a = acting[i];
      Osd* ao = osd(a);
      if (ao == nullptr || !ao->is_up() ||
          std::find(who.begin(), who.end(), a) == who.end()) {
        covered = false;
        break;
      }
      if (pcfg.scheme == RedundancyScheme::kReplicated) {
        const ObjectStore* st = ao->store_if_exists(key.pool);
        const ObjectState* os = st != nullptr ? st->find(key) : nullptr;
        if (os == nullptr || os->version < max_v) {
          covered = false;
          break;
        }
      }
      // For EC, a stray may hold the only copy of a shard index until
      // realignment lands, so require every acting position to hold its
      // own correctly-labeled shard first.
      if (pcfg.scheme != RedundancyScheme::kReplicated &&
          shard_label(key, a, pcfg.ec_k + pcfg.ec_m) !=
              static_cast<int>(i)) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;
    for (OsdId id : who) {
      if (std::find(acting.begin(), acting.end(), id) != acting.end()) {
        continue;
      }
      Osd* so = osd(id);
      (void)so->store(key.pool).remove_object(key);
      if (TierService* t = so->tier(key.pool)) t->forget_object(key.oid);
    }
  }

  // Tiers of crash-revived OSDs rebuilt their dirty lists before these
  // installs: pick up what the installed copies leave dirty.  A pass whose
  // transfers did not all land keeps them listed for the next pass.
  for (auto it = revived_since_recover_.begin();
       it != revived_since_recover_.end();) {
    Osd* o = osd(*it);
    if (o == nullptr || !o->is_up()) {
      ++it;
      continue;
    }
    for (PoolId p : osdmap_.pool_ids()) {
      if (auto* t = static_cast<DedupTier*>(o->tier(p))) t->rescan_dirty();
    }
    it = tally->outstanding == 0 ? revived_since_recover_.erase(it)
                                 : std::next(it);
  }

  if (objects_recovered != nullptr) *objects_recovered = tally->objects;
  if (bytes_recovered != nullptr) *bytes_recovered = tally->bytes;
  return sched_.now() - start;
}

bool Cluster::drain_dedup(SimTime max_wait) {
  const SimTime deadline = sched_.now() + max_wait;
  while (sched_.now() < deadline) {
    bool busy_up = false;
    bool busy_down = false;
    for (auto& o : osds_) {
      for (PoolId p : osdmap_.pool_ids()) {
        if (TierService* t = o->tier(p); t != nullptr && t->dirty_backlog() > 0) {
          (o->is_up() ? busy_up : busy_down) = true;
        }
      }
    }
    if (!busy_up) return !busy_down;
    sched_.run_for(msec(200));
  }
  return false;
}

ObjectStore::Stats Cluster::pool_stats(PoolId pool) const {
  ObjectStore::Stats agg;
  for (const auto& o : osds_) {
    const ObjectStore* st = o->store_if_exists(pool);
    if (st == nullptr) continue;
    const auto s = st->stats(pool);
    agg.objects += s.objects;
    agg.logical_bytes += s.logical_bytes;
    agg.stored_data_bytes += s.stored_data_bytes;
    agg.xattr_bytes += s.xattr_bytes;
    agg.omap_bytes += s.omap_bytes;
    agg.physical_bytes += s.physical_bytes;
  }
  return agg;
}

uint64_t Cluster::total_physical_bytes() const {
  uint64_t n = 0;
  for (PoolId p : osdmap_.pool_ids()) n += pool_stats(p).physical_bytes;
  return n;
}

void Cluster::sync_sim_counters() {
  const Scheduler::Stats st = sched_.stats();
  sim_pc_->set_gauge(l_sim_shards, sched_.shards());
  sim_pc_->set_gauge(l_sim_events_dispatched,
                     static_cast<int64_t>(st.events_dispatched));
  sim_pc_->set_gauge(l_sim_events_batched,
                     static_cast<int64_t>(st.events_batched));
  sim_pc_->set_gauge(l_sim_ingress_messages,
                     static_cast<int64_t>(st.ingress_messages));
  sim_pc_->set_gauge(l_sim_shard_sync_barriers,
                     static_cast<int64_t>(st.shard_sync_barriers));
  sim_pc_->set_gauge(l_sim_windows, static_cast<int64_t>(st.windows));
  sim_pc_->set_gauge(l_sim_arena_bytes, static_cast<int64_t>(st.arena_bytes));
}

void Cluster::sync_pool_counters() {
  for (PoolId pid : osdmap_.pool_ids()) {
    auto it = pool_pcs_.find(pid);
    if (it == pool_pcs_.end()) {
      obs::PerfCountersBuilder b(
          "pool." + std::to_string(pid) + "." + osdmap_.pool(pid).name,
          l_pool_first, l_pool_last);
      b.add_gauge(l_pool_objects, "objects");
      b.add_gauge(l_pool_logical_bytes, "logical_bytes");
      b.add_gauge(l_pool_stored_data_bytes, "stored_data_bytes");
      b.add_gauge(l_pool_xattr_bytes, "xattr_bytes");
      b.add_gauge(l_pool_omap_bytes, "omap_bytes");
      b.add_gauge(l_pool_physical_bytes, "physical_bytes");
      it = pool_pcs_.emplace(pid, b.create()).first;
      perf_registry_.add(it->second);
    }
    const ObjectStore::Stats st = pool_stats(pid);
    obs::PerfCounters& pc = *it->second;
    pc.set_gauge(l_pool_objects, static_cast<int64_t>(st.objects));
    pc.set_gauge(l_pool_logical_bytes, static_cast<int64_t>(st.logical_bytes));
    pc.set_gauge(l_pool_stored_data_bytes,
                 static_cast<int64_t>(st.stored_data_bytes));
    pc.set_gauge(l_pool_xattr_bytes, static_cast<int64_t>(st.xattr_bytes));
    pc.set_gauge(l_pool_omap_bytes, static_cast<int64_t>(st.omap_bytes));
    pc.set_gauge(l_pool_physical_bytes,
                 static_cast<int64_t>(st.physical_bytes));
  }
}

void Cluster::sync_derived_counters() {
  // The same sums obs::summary_line prints, promoted to gauges so the
  // telemetry sampler and the JSON dump see them as first-class series.
  // Gauges are int64, hence the fixed-point units.
  const uint64_t sha_computed = perf_sum(l_tier_sha_computed);
  const uint64_t sha_avoided = perf_sum(l_tier_sha_avoided);
  const uint64_t read_bytes = perf_sum(l_tier_read_logical_bytes);
  const uint64_t read_objects = perf_sum(l_tier_read_chunk_objects);
  const uint64_t remote_chunks = perf_sum(l_tier_redirected_read_chunks);
  const uint64_t meta_baseline = perf_sum(l_tier_meta_bytes_baseline);
  const uint64_t meta_actual = perf_sum(l_tier_meta_bytes_actual);
  const uint64_t read_rpcs = perf_sum(l_tier_read_chunk_rpcs);
  const uint64_t asm_hits = perf_sum(l_tier_asm_hits);
  const uint64_t meta_read = perf_sum(l_osd_meta_bytes_read);
  uint64_t logical = 0, physical = 0;
  for (PoolId pid : osdmap_.pool_ids()) {
    const ObjectStore::Stats st = pool_stats(pid);
    logical += st.logical_bytes;
    physical += st.physical_bytes;
  }
  const auto ppm = [](uint64_t num, uint64_t den) -> int64_t {
    return den > 0 ? static_cast<int64_t>(num * 1'000'000 / den) : 0;
  };
  // Can go negative under replication (physical > logical); that is the
  // honest space-efficiency number, so no clamping.
  derived_pc_->set_gauge(
      l_derived_dedup_ratio_ppm,
      logical > 0 ? 1'000'000 - static_cast<int64_t>(physical * 1'000'000 /
                                                     logical)
                  : 0);
  derived_pc_->set_gauge(
      l_derived_read_amp_objs_per_gb,
      read_bytes > 0
          ? static_cast<int64_t>(read_objects * (1ull << 30) / read_bytes)
          : 0);
  derived_pc_->set_gauge(l_derived_read_rpcs,
                         static_cast<int64_t>(read_rpcs));
  derived_pc_->set_gauge(l_derived_asm_hit_ppm, ppm(asm_hits, remote_chunks));
  derived_pc_->set_gauge(l_derived_sha_avoided_ppm,
                         ppm(sha_avoided, sha_computed + sha_avoided));
  derived_pc_->set_gauge(l_derived_meta_read_amp_ppm, ppm(meta_read, logical));
  // How many bytes of fixed-format metadata one actually-written byte
  // stands in for (1e6 = parity; recipe mode pushes this well above 1e6).
  derived_pc_->set_gauge(l_derived_meta_dedup_ratio_ppm,
                         ppm(meta_baseline, meta_actual));
}

void Cluster::sync_telemetry_gauges() {
  sync_sim_counters();
  for (auto& o : osds_) {
    for (PoolId p : osdmap_.pool_ids()) {
      if (auto* t = static_cast<DedupTier*>(o->tier(p))) {
        t->sync_telemetry_gauges();
      }
    }
  }
  sync_pool_counters();
  sync_derived_counters();
}

uint64_t Cluster::storage_cpu_busy_ns() const {
  uint64_t n = 0;
  for (int i = 0; i < cfg_.storage_nodes; i++) {
    n += node_cpus_[static_cast<size_t>(i)]->cumulative_busy_ns();
  }
  return n;
}

double Cluster::storage_cpu_utilization(uint64_t busy_before, SimTime t0,
                                        SimTime t1) const {
  if (t1 <= t0) return 0.0;
  const uint64_t busy_after = storage_cpu_busy_ns();
  const double denom = static_cast<double>(t1 - t0) *
                       cfg_.storage_nodes * cfg_.cpu.cores;
  return static_cast<double>(busy_after - busy_before) / denom;
}

}  // namespace gdedup
