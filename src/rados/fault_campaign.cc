#include "rados/fault_campaign.h"

#include <algorithm>
#include <memory>
#include <set>

#include "common/random.h"
#include "dedup/invariants.h"
#include "dedup/scrub.h"
#include "dedup/tier.h"
#include "rados/sync.h"

namespace gdedup {

FaultScheduleConfig schedule_config_for_seed(uint64_t seed) {
  FaultScheduleConfig cfg;
  cfg.seed = seed;
  cfg.ec_chunks = (seed % 2) == 1;
  cfg.async_deref = (seed / 2) % 2 == 1;
  cfg.rate_control = (seed / 4) % 2 == 1;
  return cfg;
}

namespace {

constexpr uint32_t kChunk = 8 * 1024;

// One client op of the storm, kept so a failed (possibly half-applied) op
// can be replayed verbatim after heal.
struct Intent {
  std::string oid;
  bool remove_op = false;
  bool full = false;
  uint64_t off = 0;
  Buffer data;
};

// Acked-state oracle: what the cluster must read back at the end.
struct Oracle {
  std::map<std::string, Buffer> data;
  std::set<std::string> removed;

  void apply(const Intent& in) {
    if (in.remove_op) {
      data.erase(in.oid);
      removed.insert(in.oid);
      return;
    }
    removed.erase(in.oid);
    if (in.full) {
      data[in.oid] = Buffer::copy_of(in.data.span());
    } else {
      data[in.oid].write_at(in.off, in.data);
    }
  }
};

class ScheduleRunner {
 public:
  explicit ScheduleRunner(const FaultScheduleConfig& cfg)
      : cfg_(cfg), rng_(mix64(cfg.seed ^ 0x5eedface5eedfaceULL)) {
    ClusterConfig ccfg;
    ccfg.storage_nodes = cfg.storage_nodes;
    ccfg.osds_per_node = cfg.osds_per_node;
    ccfg.client_nodes = 1;
    ccfg.op_timeout = cfg.op_timeout;
    cluster_ = std::make_unique<Cluster>(ccfg);
    // Fault events mutate state that other nodes' events peek at event
    // granularity (crash hooks flip OSDMap entries mid-window, dropped
    // messages change rx queueing), so the windowed-lookahead execution
    // is not safe here: run the whole schedule in lockstep windows.
    cluster_->sched().set_lockstep(true);
    cluster_->sched().set_parallel(false);

    meta_ = cluster_->create_replicated_pool("meta", 2, 64);
    chunks_ = cfg.ec_chunks ? cluster_->create_ec_pool("chunks", 2, 1, 64)
                            : cluster_->create_replicated_pool("chunks", 2, 64);

    DedupTierConfig d;
    d.mode = DedupMode::kPostProcess;
    d.chunk_size = kChunk;
    d.engine_tick = msec(10);
    d.max_dedup_per_tick = 128;
    d.async_deref = cfg.async_deref;
    d.rate_control = cfg.rate_control;
    if (cfg.rate_control) {
      // Keep the throttle in the game without starving the heal drain.
      d.low_watermark_iops = 5;
      d.high_watermark_iops = 100000;
    }
    cluster_->enable_dedup(meta_, chunks_, d);

    client_ = std::make_unique<RadosClient>(cluster_.get(),
                                            cluster_->client_node());
  }

  ScheduleResult run() {
    res_.seed = cfg_.seed;
    res_.ec_chunks = cfg_.ec_chunks;
    line("schedule seed=" + std::to_string(cfg_.seed) +
         " chunks=" + std::string(cfg_.ec_chunks ? "ec21" : "rep2") +
         " async_deref=" + std::to_string(cfg_.async_deref ? 1 : 0) +
         " rate_control=" + std::to_string(cfg_.rate_control ? 1 : 0));

    preload();
    const FaultPlan plan =
        plan_faults(cluster_->osdmap(), cfg_.seed, cfg_.plan);
    report_ += plan.describe();
    storm(plan);
    heal();
    verdict();
    finish();
    return res_;
  }

 private:
  Scheduler& sched() { return cluster_->sched(); }

  void line(const std::string& s) { report_ += s + "\n"; }

  void violation(const std::string& v) { res_.violations.push_back(v); }

  std::string oid_of(int i) { return "obj-" + std::to_string(i); }

  // Dup-heavy deterministic content: bodies assembled from a small palette
  // of 4 KB blocks, so overwrites constantly re-reference existing chunks
  // and the deref / refcount machinery stays hot.
  Buffer gen_content(size_t len) {
    Buffer out(len);
    uint8_t* p = out.mutable_data();
    size_t off = 0;
    while (off < len) {
      const size_t n = std::min<size_t>(4096, len - off);
      Rng block(mix64(0xC0FFEEULL * 31 + rng_.below(12)));
      block.fill(p + off, n);
      off += n;
    }
    return out;
  }

  Intent random_intent() {
    Intent in;
    in.oid = oid_of(static_cast<int>(rng_.below(cfg_.objects)));
    const uint64_t roll = rng_.below(100);
    if (roll < 6) {
      in.remove_op = true;
      return in;
    }
    // A partial write to a removed / never-written object would depend on
    // hole semantics; recreate it whole instead.
    const bool must_full = oracle_.data.count(in.oid) == 0;
    if (must_full || roll < 31) {
      in.full = true;
      in.data = gen_content(kChunk + rng_.below(2 * kChunk));
      return in;
    }
    in.off = rng_.below(3) * kChunk;
    if (rng_.chance(0.4)) {
      // Sub-chunk write: exercises the flush-merge (RMW) path.
      in.off += rng_.below(kChunk / 2);
      in.data = gen_content(512 + rng_.below(kChunk / 2));
    } else {
      in.data = gen_content(kChunk * (1 + rng_.below(2)));
    }
    return in;
  }

  bool try_once(const Intent& in) {
    Status s;
    if (in.remove_op) {
      s = sync_remove(*cluster_, *client_, meta_, in.oid);
      if (s.code() == Code::kNotFound) s = Status::ok();
    } else if (in.full) {
      s = sync_write_full(*cluster_, *client_, meta_, in.oid, in.data);
    } else {
      s = sync_write(*cluster_, *client_, meta_, in.oid, in.off, in.data);
    }
    if (s.is_ok()) {
      oracle_.apply(in);
      return true;
    }
    return false;
  }

  void issue(const Intent& in, int attempts) {
    for (int a = 0; a < attempts; a++) {
      if (try_once(in)) return;
      res_.write_retries++;
      sched().run_for(msec(20));
    }
    // Could not get an ack; the op may or may not have partially applied.
    // Replaying it verbatim after heal makes oracle and cluster agree
    // either way (rewriting identical bytes is idempotent).
    stash_.push_back(in);
    res_.stashed_ops++;
  }

  void preload() {
    for (int i = 0; i < cfg_.objects; i++) {
      Intent in;
      in.oid = oid_of(i);
      in.full = true;
      in.data = gen_content(2 * kChunk + kChunk / 2);
      issue(in, 5);
    }
    const bool drained = cluster_->drain_dedup(sec(60));
    line("preload objects=" + std::to_string(cfg_.objects) +
         " drained=" + std::to_string(drained ? 1 : 0));
  }

  void storm(const FaultPlan& plan) {
    const SimTime start = sched().now();
    for (const FaultEvent& ev : plan.events) {
      sched().at(start + ev.at, [this, ev] { apply_event(ev); });
    }
    const SimTime horizon = cfg_.plan.horizon;
    for (int b = 0; b < cfg_.bursts; b++) {
      const SimTime t_b = start + horizon * b / cfg_.bursts;
      if (sched().now() < t_b) sched().run_until(t_b);
      for (int i = 0; i < cfg_.ops_per_burst; i++) {
        issue(random_intent(), 5);
      }
    }
    if (sched().now() < start + horizon) sched().run_until(start + horizon);
  }

  void apply_event(const FaultEvent& ev) {
    line("  apply at=" + std::to_string(sched().now() / kMicrosecond) + "us " +
         ev.describe());
    switch (ev.action) {
      case FaultAction::kCrashOsd: {
        Osd* o = cluster_->osd(ev.osd);
        if (o != nullptr && o->is_up()) cluster_->crash_osd(ev.osd);
        break;
      }
      case FaultAction::kReviveOsd: {
        disarm_all();
        const OsdId v = ev.osd >= 0 ? ev.osd : armed_victim_;
        armed_victim_ = -1;
        Osd* o = v >= 0 ? cluster_->osd(v) : nullptr;
        if (o == nullptr || o->is_up()) break;
        const bool wipe = (ev.arg & 1) != 0;
        cluster_->revive_osd(v, wipe);
        if (wipe) {
          // Backfill *inside* this event: between an empty revived store
          // and its recovery, a read through the revived primary would
          // cache an empty chunk map and poison later writes.
          cluster_->recover();
          for (PoolId p : cluster_->osdmap().pool_ids()) {
            if (auto* t = cluster_->tier_of(v, p)) t->rebuild_dirty_list();
          }
        }
        break;
      }
      case FaultAction::kRecover:
        cluster_->recover();
        break;
      case FaultAction::kGc: {
        Scrubber s(cluster_.get(), meta_, chunks_);
        (void)s.collect_garbage();  // mid-storm pass: adversarial, unchecked
        break;
      }
      case FaultAction::kDeepScrub: {
        Scrubber s(cluster_.get(), meta_, chunks_);
        (void)s.deep_scrub(/*repair=*/!cfg_.ec_chunks);
        break;
      }
      case FaultAction::kArmEnginePoint:
        arm_engine(ev.arg, ev.mode);
        break;
      case FaultAction::kArmOsdPoint:
        arm_osd(ev.arg);
        break;
      case FaultAction::kNetDelay:
        cluster_->net().set_extra_latency(ev.dur);
        break;
      case FaultAction::kNetDrop:
        cluster_->net().set_drop_every(static_cast<uint32_t>(ev.arg));
        break;
      case FaultAction::kNetHeal:
        cluster_->net().set_extra_latency(0);
        cluster_->net().set_drop_every(0);
        break;
    }
  }

  void arm_engine(int point, int mode) {
    disarm_all();
    auto armed = std::make_shared<bool>(false);
    for (Osd* o : cluster_->osds()) {
      auto* t = cluster_->tier_of(o->id(), meta_);
      if (t == nullptr) continue;
      const OsdId vid = o->id();
      t->set_failure_hook(
          [this, armed, point, mode, vid](FailurePoint p, const std::string&) {
            if (*armed || static_cast<int>(p) != point) return false;
            *armed = true;
            res_.fired_points["engine:" +
                              std::string(failure_point_name(p))]++;
            if (mode == 1) {
              // Crash the whole OSD at the engine point (not just the
              // flush): the strongest Figure 9 interpretation.
              armed_victim_ = vid;
              cluster_->crash_osd(vid);
            }
            return true;
          });
    }
  }

  void arm_osd(int point) {
    disarm_all();
    auto armed = std::make_shared<bool>(false);
    for (Osd* o : cluster_->osds()) {
      const OsdId vid = o->id();
      o->set_failure_hook(
          [this, armed, point, vid](OsdFailurePoint p, const ObjectKey&) {
            if (*armed || static_cast<int>(p) != point) return false;
            *armed = true;
            res_.fired_points["osd:" +
                              std::string(osd_failure_point_name(p))]++;
            armed_victim_ = vid;
            // fail_at already marked the OSD down; the cluster-level
            // cleanup (stopping its engines) must wait until the crashing
            // op's stack unwinds.
            sched().after(0, [this, vid] { cluster_->crash_osd(vid); });
            return true;
          });
    }
  }

  void disarm_all() {
    for (Osd* o : cluster_->osds()) {
      o->set_failure_hook(nullptr);
      if (auto* t = cluster_->tier_of(o->id(), meta_)) {
        t->set_failure_hook(nullptr);
      }
    }
  }

  void heal() {
    cluster_->net().set_extra_latency(0);
    cluster_->net().set_drop_every(0);
    disarm_all();

    // Revive stragglers (an armed point can fire after its episode's revive
    // event has already passed).  Wiped: see fault_planner.cc.
    for (Osd* o : cluster_->osds()) {
      if (!o->is_up()) {
        line("  heal revive osd=" + std::to_string(o->id()));
        cluster_->revive_osd(o->id(), /*wipe_store=*/true);
      }
    }
    uint64_t objs = 0;
    for (int pass = 0; pass < 4; pass++) {
      cluster_->recover(&objs);
      if (objs == 0) break;
    }

    // Quiesce and restart every engine from its on-disk state: the storm
    // can leave volatile tier state on ex-temporary primaries that no
    // longer own the objects it describes.
    for (Osd* o : cluster_->osds()) {
      for (PoolId p : cluster_->osdmap().pool_ids()) {
        if (TierService* t = o->tier(p)) t->stop();
      }
    }
    sched().run_for(sec(1));
    for (Osd* o : cluster_->osds()) {
      for (PoolId p : cluster_->osdmap().pool_ids()) {
        if (auto* t = cluster_->tier_of(o->id(), p)) {
          t->rebuild_dirty_list();
          t->start();
        }
      }
    }

    for (const Intent& in : stash_) {
      bool ok = false;
      for (int a = 0; a < 10 && !ok; a++) {
        ok = try_once(in);
        if (!ok) sched().run_for(msec(50));
      }
      if (!ok) {
        violation("stash replay failed: " + in.oid);
      }
    }
    stash_.clear();

    if (!cluster_->drain_dedup(sec(120))) {
      violation("engines failed to drain after heal");
      for (Osd* o : cluster_->osds()) {
        for (PoolId p : cluster_->osdmap().pool_ids()) {
          auto* t = cluster_->tier_of(o->id(), p);
          if (t == nullptr || t->dirty_backlog() == 0) continue;
          line("  WEDGE osd=" + std::to_string(o->id()) + " pool=" +
               std::to_string(p) + " backlog=" +
               std::to_string(t->dirty_backlog()));
          const ObjectStore* st = o->store_if_exists(p);
          if (st == nullptr) continue;
          for (const auto& key : st->list(p)) {
            if (!t->is_dirty(key.oid)) continue;
            line("    dirty oid=" + key.oid + " primary=" +
                 std::to_string(cluster_->osdmap().primary(p, key.oid)));
          }
        }
      }
    }
  }

  void verdict() {
    Scrubber scrub(cluster_.get(), meta_, chunks_);
    const ScrubReport gc1 = scrub.collect_garbage();
    line("gc1 refs=" + std::to_string(gc1.refs_checked) +
         " dangling=" + std::to_string(gc1.dangling_refs_dropped) +
         " leaked=" + std::to_string(gc1.leaked_chunks_reclaimed) +
         " repaired=" + std::to_string(gc1.refs_repaired) +
         " busy_skips=" + std::to_string(gc1.busy_ref_skips));
    const ScrubReport gc2 = scrub.collect_garbage();
    line("gc2 refs=" + std::to_string(gc2.refs_checked) +
         " dangling=" + std::to_string(gc2.dangling_refs_dropped) +
         " leaked=" + std::to_string(gc2.leaked_chunks_reclaimed) +
         " repaired=" + std::to_string(gc2.refs_repaired));
    if (!gc2.clean()) {
      violation("gc did not converge in one pass");
    }

    const ScrubReport ds = scrub.deep_scrub(/*repair=*/!cfg_.ec_chunks);
    line("scrub chunks=" + std::to_string(ds.chunks_checked) +
         " fp_mismatch=" + std::to_string(ds.fingerprint_mismatches) +
         " replica_mismatch=" + std::to_string(ds.replica_mismatches));
    if (ds.fingerprint_mismatches != 0 || ds.replica_mismatches != 0) {
      violation("deep scrub found corrupt chunks");
    }

    InvariantChecker checker(cluster_.get(), meta_, chunks_);
    const InvariantReport inv = checker.check(
        oracle_.data, oracle_.removed, [this](const std::string& oid) {
          return sync_read(*cluster_, *client_, meta_, oid, 0, 0);
        });
    report_ += inv.to_string();
    for (const std::string& v : inv.violations) violation(v);
  }

  void finish() {
    res_.engine_aborts = cluster_->perf_sum(l_tier_engine_aborts, meta_);
    for (Osd* o : cluster_->osds()) {
      res_.injected_osd_crashes += o->injected_crashes();
    }
    res_.dropped_messages = cluster_->net().dropped_messages();

    std::sort(res_.violations.begin(), res_.violations.end());
    line("counters aborts=" + std::to_string(res_.engine_aborts) +
         " osd_crashes=" + std::to_string(res_.injected_osd_crashes) +
         " dropped=" + std::to_string(res_.dropped_messages) +
         " retries=" + std::to_string(res_.write_retries) +
         " stashed=" + std::to_string(res_.stashed_ops));
    for (const auto& [k, n] : res_.fired_points) {
      line("fired " + k + "=" + std::to_string(n));
    }
    for (const std::string& v : res_.violations) {
      line("VIOLATION " + v);
    }
    if (!res_.violations.empty()) {
      // Flight recorder: attach the slowest completed ops of the schedule
      // so a failure report carries latency context without a rerun.
      report_ += cluster_->op_tracker()->slow_ops_text(8);
    }
    line(res_.violations.empty() ? "verdict CLEAN" : "verdict FAILED");
    res_.report = report_;
  }

  FaultScheduleConfig cfg_;
  Rng rng_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<RadosClient> client_;
  PoolId meta_ = -1;
  PoolId chunks_ = -1;
  Oracle oracle_;
  std::vector<Intent> stash_;
  OsdId armed_victim_ = -1;
  std::string report_;
  ScheduleResult res_;
};

}  // namespace

ScheduleResult run_fault_schedule(const FaultScheduleConfig& cfg) {
  ScheduleRunner runner(cfg);
  return runner.run();
}

CampaignSummary run_fault_campaign(const CampaignConfig& cfg) {
  CampaignSummary sum;
  for (int i = 0; i < cfg.schedules; i++) {
    const uint64_t seed = cfg.first_seed + static_cast<uint64_t>(i);
    ScheduleResult r = run_fault_schedule(schedule_config_for_seed(seed));
    sum.schedules++;
    if (!r.clean()) {
      sum.failed++;
      sum.failures.push_back("seed=" + std::to_string(seed) + ": " +
                             r.violations.front());
    }
    sum.engine_aborts += r.engine_aborts;
    sum.injected_osd_crashes += r.injected_osd_crashes;
    sum.write_retries += r.write_retries;
    for (const auto& [k, n] : r.fired_points) sum.fired_points[k] += n;
  }
  return sum;
}

std::string CampaignSummary::to_string() const {
  std::string out = "campaign schedules=" + std::to_string(schedules) +
                    " failed=" + std::to_string(failed) +
                    " engine_aborts=" + std::to_string(engine_aborts) +
                    " osd_crashes=" + std::to_string(injected_osd_crashes) +
                    " retries=" + std::to_string(write_retries) + "\n";
  for (const auto& [k, n] : fired_points) {
    out += "  fired " + k + "=" + std::to_string(n) + "\n";
  }
  for (const auto& f : failures) out += "  FAILED " + f + "\n";
  return out;
}

}  // namespace gdedup
