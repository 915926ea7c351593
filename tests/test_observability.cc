// Tests for the observability layer: perf counters + registry, op
// tracing (historic ring + slow board), the deterministic JSON dump,
// and the metric primitives they build on (Histogram percentiles,
// SlidingWindowCounter eviction).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "dedup/tier.h"
#include "obs/dump.h"
#include "obs/json.h"
#include "obs/op_tracker.h"
#include "obs/perf_counters.h"
#include "sim/metrics.h"
#include "test_util.h"

using namespace gdedup;
using namespace gdedup::testutil;

namespace {

enum {
  l_test_first = 100,
  l_test_ops,
  l_test_depth,
  l_test_lat,
  l_test_last,
};

obs::PerfCountersRef make_test_counters(const std::string& name) {
  obs::PerfCountersBuilder b(name, l_test_first, l_test_last);
  b.add_counter(l_test_ops, "ops");
  b.add_gauge(l_test_depth, "depth");
  b.add_histogram(l_test_lat, "op_lat");
  return b.create();
}

std::string dump_one(const obs::PerfCountersRef& pc) {
  obs::JsonWriter w;
  pc->dump(w);
  return w.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// PerfCounters / PerfRegistry

TEST(PerfCounters, BasicAccessAndTypes) {
  auto pc = make_test_counters("test.0");
  EXPECT_EQ(pc->name(), "test.0");
  EXPECT_EQ(pc->size(), 3u);

  pc->inc(l_test_ops);
  pc->inc(l_test_ops, 4);
  EXPECT_EQ(pc->get(l_test_ops), 5u);

  pc->set_gauge(l_test_depth, 7);
  pc->dec(l_test_depth, 2);
  pc->inc(l_test_depth, 1);
  EXPECT_EQ(pc->gauge(l_test_depth), 6);

  pc->record(l_test_lat, 1000);
  pc->record(l_test_lat, 3000);
  const Histogram* h = pc->histogram(l_test_lat);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(pc->histogram(l_test_ops), nullptr);
}

TEST(PerfCounters, DumpIsDeterministic) {
  auto a = make_test_counters("test.a");
  auto b = make_test_counters("test.a");
  for (int i = 0; i < 10; i++) {
    a->inc(l_test_ops);
    b->inc(l_test_ops);
    a->record(l_test_lat, 100u * (i + 1));
    b->record(l_test_lat, 100u * (i + 1));
  }
  EXPECT_EQ(dump_one(a), dump_one(b));
  // Declaration order in the dump, not alphabetical.
  const std::string d = dump_one(a);
  EXPECT_LT(d.find("\"ops\""), d.find("\"depth\""));
  EXPECT_LT(d.find("\"depth\""), d.find("\"op_lat\""));
}

TEST(PerfRegistry, SortedIterationAndLookup) {
  obs::PerfRegistry reg;
  reg.add(make_test_counters("osd.2"));
  reg.add(make_test_counters("client.node0"));
  reg.add(make_test_counters("osd.10"));
  ASSERT_EQ(reg.num_entities(), 3u);
  EXPECT_EQ(reg.num_counters(), 9u);

  auto sorted = reg.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  // Lexicographic entity order (so "osd.10" < "osd.2").
  EXPECT_EQ(sorted[0]->name(), "client.node0");
  EXPECT_EQ(sorted[1]->name(), "osd.10");
  EXPECT_EQ(sorted[2]->name(), "osd.2");

  ASSERT_NE(reg.get("osd.2"), nullptr);
  EXPECT_EQ(reg.get("osd.99"), nullptr);

  // unique_name suffixes deterministically: the base is taken, so the
  // first call yields ".1", the next ".2".
  EXPECT_EQ(reg.unique_name("client.node0"), "client.node0.1");
  reg.add(make_test_counters("client.node0.1"));
  EXPECT_EQ(reg.unique_name("client.node0"), "client.node0.2");
  EXPECT_EQ(reg.unique_name("fresh"), "fresh");

  reg.remove("osd.10");
  EXPECT_EQ(reg.num_entities(), 3u);
  EXPECT_EQ(reg.get("osd.10"), nullptr);
}

// ---------------------------------------------------------------------------
// Histogram satellites: empty min() contract, batch percentiles, json().

TEST(Histogram, EmptyMinReturnsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // documented contract: 0 when empty, check count()
  h.record(42);
  EXPECT_EQ(h.min(), 42u);
}

TEST(Histogram, BatchPercentilesMatchSingleQueries) {
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 5000; i++) h.record(1 + rng.below(1'000'000));
  const auto batch = h.percentiles({0.5, 0.9, 0.99, 1.0});
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0], h.percentile(0.5));
  EXPECT_EQ(batch[1], h.percentile(0.9));
  EXPECT_EQ(batch[2], h.percentile(0.99));
  EXPECT_EQ(batch[3], h.percentile(1.0));
  EXPECT_LE(batch[0], batch[1]);
  EXPECT_LE(batch[1], batch[2]);
  EXPECT_LE(batch[2], batch[3]);
}

TEST(Histogram, JsonIsStable) {
  Histogram a, b;
  for (uint64_t v : {10u, 100u, 1000u, 1000u}) {
    a.record(v);
    b.record(v);
  }
  EXPECT_EQ(a.json(), b.json());
  EXPECT_NE(a.json().find("\"count\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// SlidingWindowCounter satellite: explicit advance() + out-of-order add().

TEST(SlidingWindow, AdvanceEvictsAndAgreesWithCount) {
  SlidingWindowCounter win(kSecond);
  for (int i = 0; i < 10; i++) win.add(msec(100) * i, 1);
  EXPECT_EQ(win.count(msec(900)), 10u);
  // advance() then count(): entries older than now - window retire.
  win.advance(msec(1500));
  EXPECT_EQ(win.count(msec(1500)), 5u);  // 500..900ms still inside the window
  // count() without advance() reads the same value.
  SlidingWindowCounter lazy(kSecond);
  for (int i = 0; i < 10; i++) lazy.add(msec(100) * i, 1);
  EXPECT_EQ(lazy.count(msec(1500)), 5u);
}

TEST(SlidingWindow, OutOfOrderAddNeverUndercounts) {
  // FIFO eviction contract: a stale timestamp inserted late stays alive
  // until everything inserted before it has expired, so out-of-order
  // arrivals can only over-count, never under-count.
  SlidingWindowCounter win(kSecond);
  win.add(msec(2000), 3);
  win.add(msec(500), 1);  // stale straggler, inserted after a newer entry
  win.add(msec(2100), 2);
  // At t=2.2s the window is (1.2s, 2.2s]; the straggler's timestamp is
  // outside it but it was inserted after the t=2.0s entry, which is still
  // live, so it must still be counted.
  EXPECT_EQ(win.count(msec(2200)), 6u);
  win.advance(msec(2200));
  EXPECT_EQ(win.count(msec(2200)), 6u);
  // Once the window slides past every entry inserted before it, the
  // straggler finally retires along with them.
  win.advance(msec(3500));
  EXPECT_EQ(win.count(msec(3500)), 0u);
}

// ---------------------------------------------------------------------------
// OpTracker: ring eviction order, slow board ordering, text dump.

TEST(OpTracker, HistoricRingEvictsFifo) {
  obs::OpTracker trk(/*historic_cap=*/4, /*slow_cap=*/16);
  for (int i = 0; i < 7; i++) {
    auto t = trk.start("op-" + std::to_string(i), usec(i));
    trk.finish(t, usec(i) + usec(10));
  }
  EXPECT_EQ(trk.started(), 7u);
  EXPECT_EQ(trk.finished(), 7u);
  const auto& hist = trk.historic();
  ASSERT_EQ(hist.size(), 4u);
  // Oldest-first, the first three evicted.
  EXPECT_EQ(hist.front()->description(), "op-3");
  EXPECT_EQ(hist.back()->description(), "op-6");
}

TEST(OpTracker, SlowBoardOrdersByDurationThenId) {
  obs::OpTracker trk(/*historic_cap=*/128, /*slow_cap=*/3);
  // Durations: 5us, 40us, 10us, 40us, 1us.  Board keeps the 3 slowest;
  // the two 40us ops tie and must rank by ascending id.
  const SimTime durs[] = {usec(5), usec(40), usec(10), usec(40), usec(1)};
  for (int i = 0; i < 5; i++) {
    auto t = trk.start("op-" + std::to_string(i), 0);
    trk.finish(t, durs[i]);
  }
  auto slow = trk.dump_historic_slow_ops(10);
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_EQ(slow[0]->description(), "op-1");  // 40us, lower id first
  EXPECT_EQ(slow[1]->description(), "op-3");  // 40us
  EXPECT_EQ(slow[2]->description(), "op-2");  // 10us
  // The 5us and 1us ops fell off the bounded board.
  const std::string text = trk.slow_ops_text(2);
  EXPECT_NE(text.find("op-1"), std::string::npos);
  EXPECT_NE(text.find("op-3"), std::string::npos);
  EXPECT_EQ(text.find("op-2"), std::string::npos);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(OpTracker, SpansNestAndFinishIsIdempotent) {
  obs::OpTracker trk;
  auto t = trk.start("write p/obj", usec(100));
  const size_t outer = t->span_begin("tier_write", usec(100));
  const size_t inner = t->span_begin("fingerprint", usec(110));
  t->event("weak_hash_hit", usec(115));
  t->span_end(inner, usec(130));
  t->span_end(outer, usec(150));
  EXPECT_EQ(t->duration(), -1);  // unfinished
  trk.finish(t, usec(160));
  trk.finish(t, usec(999));  // double-finish ignored
  trk.finish(nullptr, usec(1));  // null-safe
  EXPECT_EQ(t->duration(), usec(60));
  ASSERT_EQ(t->spans().size(), 3u);
  EXPECT_EQ(t->spans()[0].stage, "tier_write");
  EXPECT_EQ(t->spans()[1].stage, "fingerprint");
  EXPECT_EQ(t->spans()[2].stage, "weak_hash_hit");
  EXPECT_EQ(t->spans()[1].end - t->spans()[1].begin, usec(20));
  EXPECT_EQ(t->spans()[2].begin, t->spans()[2].end);  // zero-duration marker
  EXPECT_EQ(trk.finished(), 1u);
}

// ---------------------------------------------------------------------------
// Cluster-level: span nesting through a real write -> flush -> read cycle,
// cluster counter sums, and byte-identical same-seed dumps.

namespace {

// Tiny dedup cluster + one client; runs writes, drains the engine so
// flushes happen, then reads everything back.  Returns the metadata pool
// via *meta_out for tests that need to look the tier back up.
std::string run_traced_workload(Cluster& c, PoolId* meta_out = nullptr) {
  const PoolId meta = c.create_replicated_pool("meta", 2, 32);
  if (meta_out != nullptr) *meta_out = meta;
  const PoolId chunks = c.create_replicated_pool("chunks", 2, 32);
  c.enable_dedup(meta, chunks, test_tier_config());

  RadosClient client(&c, c.client_node(0));
  for (int i = 0; i < 6; i++) {
    Buffer data = random_buffer(96 * 1024, 40 + (i % 2));  // dup pairs
    EXPECT_TRUE(
        sync_write(c, client, meta, "o" + std::to_string(i), 0, data).is_ok());
  }
  c.drain_dedup();
  for (int i = 0; i < 6; i++) {
    auto r = sync_read(c, client, meta, "o" + std::to_string(i), 0, 0);
    EXPECT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().size(), 96u * 1024);
  }
  return obs::dump(c);
}

std::set<std::string> span_stages(const obs::OpTraceRef& t) {
  std::set<std::string> s;
  for (const auto& sp : t->spans()) s.insert(sp.stage);
  return s;
}

}  // namespace

TEST(ObservabilityCluster, TracesCoverWriteFlushRead) {
  ClusterConfig cfg;
  cfg.storage_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  Cluster c(cfg);
  run_traced_workload(c);

  obs::OpTracker* trk = c.op_tracker();
  EXPECT_EQ(trk->started(), trk->finished());  // nothing left in flight
  bool saw_write = false, saw_flush = false, saw_read = false;
  for (const auto& t : trk->historic()) {
    ASSERT_GE(t->duration(), 0);
    const auto stages = span_stages(t);
    const std::string& d = t->description();
    if (d.rfind("write ", 0) == 0) {
      // Client write trace carries the tier's handling span.
      EXPECT_TRUE(stages.count("tier_write")) << d;
      saw_write = true;
    } else if (d.rfind("flush ", 0) == 0) {
      // Background flush trace: fingerprint + chunk-pool put stages.
      EXPECT_TRUE(stages.count("fingerprint")) << d;
      EXPECT_TRUE(stages.count("chunk_put")) << d;
      saw_flush = true;
    } else if (d.rfind("read ", 0) == 0) {
      EXPECT_TRUE(stages.count("tier_read")) << d;
      // Flushed objects resolve through the chunk pool.
      if (stages.count("chunk_pool_read")) saw_read = true;
    }
    // Every closed span lies inside [start, finish].
    for (const auto& sp : t->spans()) {
      EXPECT_GE(sp.begin, t->start());
      if (sp.end >= 0) {
        EXPECT_LE(sp.end, t->finish_time());
      }
    }
  }
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_flush);
  EXPECT_TRUE(saw_read);
}

TEST(ObservabilityCluster, PerfSumMatchesRegistry) {
  ClusterConfig cfg;
  cfg.storage_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  Cluster c(cfg);
  PoolId meta = -1;
  run_traced_workload(c, &meta);

  // The registry entity is the tier's own counter set.
  DedupTier* tier = c.tier_of(0, meta);
  ASSERT_NE(tier, nullptr);
  auto pc = c.perf_registry()->get("tier.osd0.pool" + std::to_string(meta));
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(pc.get(), &tier->perf());
  // Cluster sums equal sums over the registry's entities by prefix.
  for (int idx : {l_tier_writes, l_tier_chunks_flushed, l_tier_flush_bytes}) {
    uint64_t by_prefix = 0;
    for (const auto& e : c.perf_registry()->sorted()) {
      if (e->name().rfind("tier.", 0) == 0) by_prefix += e->get(idx);
    }
    EXPECT_GT(by_prefix, 0u) << pc->entry_name(idx);
    EXPECT_EQ(c.perf_sum(idx), by_prefix) << pc->entry_name(idx);
    EXPECT_EQ(c.perf_sum(idx, meta), by_prefix) << pc->entry_name(idx);
  }
  uint64_t osd_ops = 0;
  for (const auto& e : c.perf_registry()->sorted()) {
    if (e->name().rfind("osd.", 0) == 0) osd_ops += e->get(l_osd_client_ops);
  }
  EXPECT_GT(osd_ops, 0u);
  EXPECT_EQ(c.perf_sum(l_osd_client_ops), osd_ops);

  // Per-stage latency histograms populated by the cycle.
  const Histogram* wl = pc->histogram(l_tier_write_lat);
  ASSERT_NE(wl, nullptr);
  EXPECT_GT(wl->count(), 0u);
  uint64_t flushes = 0, puts = 0;
  for (const auto& e : c.perf_registry()->sorted()) {
    if (e->name().rfind("tier.", 0) == 0) {
      const Histogram* fl = e->histogram(l_tier_flush_lat);
      ASSERT_NE(fl, nullptr);
      flushes += fl->count();
      puts += e->histogram(l_tier_chunk_put_lat)->count();
    }
  }
  EXPECT_GT(flushes, 0u);
  EXPECT_GT(puts, 0u);
}

TEST(ObservabilityCluster, PerfSumCoversEveryTierCounterAfterCrash) {
  // An OSD crashes and restarts with a wiped store, so before recovery it
  // is primary for objects it no longer holds and pulls each one from a
  // peer before serving an op on it.  The cluster sum of every tier
  // counter must equal the hand sum over the tiers — including the
  // crash-only counters (degraded_pulls, orphan_adoptions) that a
  // hand-written field-by-field aggregate is prone to drop.
  ClusterConfig ccfg = small_cluster_config();
  ccfg.op_timeout = msec(200);  // ops lost with the crashed OSD time out
  DedupHarness h(test_tier_config(), ccfg);
  constexpr int kObjects = 32;
  for (int i = 0; i < kObjects; i++) {
    ASSERT_TRUE(h.write("o" + std::to_string(i), 0,
                        random_buffer(64 * 1024, 300 + i))
                    .is_ok());
  }
  ASSERT_TRUE(h.drain());
  const OsdId victim = h.cluster->osdmap().primary(h.meta, "o0");
  h.cluster->crash_osd(victim);
  h.cluster->revive_osd(victim, /*wipe_store=*/true);
  for (int i = 0; i < kObjects; i++) {
    ASSERT_TRUE(h.write("o" + std::to_string(i), 16 * 1024,
                        random_buffer(16 * 1024, 400 + i))
                    .is_ok());
  }
  ASSERT_GT(h.cluster->perf_sum(l_tier_degraded_pulls, h.meta), 0u);

  const obs::PerfCounters& pc0 = h.cluster->tier_of(0, h.meta)->perf();
  int counters = 0;
  for (int idx = pc0.first_index(); idx < pc0.last_index(); idx++) {
    if (pc0.entry_type(idx) != obs::CounterType::kCounter) continue;
    counters++;
    uint64_t hand = 0;
    for (Osd* o : h.cluster->osds()) {
      hand += h.cluster->tier_of(o->id(), h.meta)->perf().get(idx);
    }
    EXPECT_EQ(h.cluster->perf_sum(idx, h.meta), hand) << pc0.entry_name(idx);
    EXPECT_EQ(h.cluster->perf_sum(idx), hand) << pc0.entry_name(idx);
  }
  EXPECT_EQ(counters, l_tier_backlog - l_tier_first - 1);
}

TEST(ObservabilityCluster, DumpIsByteIdenticalAcrossSameSeedRuns) {
  auto run = [] {
    ClusterConfig cfg;
    cfg.storage_nodes = 2;
    cfg.osds_per_node = 2;
    cfg.client_nodes = 1;
    Cluster c(cfg);
    return run_traced_workload(c);
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // Structural spot checks: top-level sections present and counters named.
  for (const char* key :
       {"\"sim_time_ns\"", "\"counters\"", "\"pools\"", "\"ops\"",
        "\"tier.osd0.", "\"write_lat\"", "\"slow\""}) {
    EXPECT_NE(a.find(key), std::string::npos) << key;
  }
}

TEST(ObservabilityCluster, SummaryLineIsFiniteOnIdleCluster) {
  // Regression: with zero I/O every ratio in the one-line summary has a
  // zero denominator.  Each must print as 0.000 (or 0.00), never "nan" /
  // "inf" — the line is grepped by scripts, and NaN also poisoned the
  // sha_avoided segment which used to be skipped entirely when idle.
  ClusterConfig cfg;
  cfg.storage_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  Cluster c(cfg);
  const PoolId base = c.create_replicated_pool("base", 2);
  const PoolId chunks = c.create_replicated_pool("chunks", 2);
  c.enable_dedup(base, chunks, testutil::test_tier_config());

  const std::string line = obs::summary_line(c);
  EXPECT_EQ(line.find("nan"), std::string::npos) << line;
  EXPECT_EQ(line.find("inf"), std::string::npos) << line;
  // The divide-guarded segments are present even with all-zero inputs.
  for (const char* key : {"sha_avoided=0.000", "meta_read_amp=0.0000",
                          "read_amp=0.00/MB", "asm_hit=0.000", "rpc=0"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << " in: " << line;
  }
}
