// CRUSH placement: determinism, failure domains, weight proportionality,
// minimal movement; OsdMap pools, acting sets, epochs.

#include "cluster/crush.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cluster/osd_map.h"
#include "common/random.h"

namespace gdedup {
namespace {

CrushMap paper_map() {
  // 4 hosts x 4 OSDs, the paper's testbed.
  CrushMap m;
  for (int h = 0; h < 4; h++) {
    for (int d = 0; d < 4; d++) m.add_device(h * 4 + d, h);
  }
  return m;
}

TEST(Crush, Deterministic) {
  CrushMap m = paper_map();
  for (uint64_t x = 0; x < 100; x++) {
    EXPECT_EQ(m.select(x, 3), m.select(x, 3));
  }
}

TEST(Crush, DistinctDevices) {
  CrushMap m = paper_map();
  for (uint64_t x = 0; x < 500; x++) {
    auto sel = m.select(x, 3);
    std::set<OsdId> uniq(sel.begin(), sel.end());
    EXPECT_EQ(uniq.size(), sel.size());
  }
}

TEST(Crush, SpreadsAcrossHosts) {
  CrushMap m = paper_map();
  for (uint64_t x = 0; x < 500; x++) {
    auto sel = m.select(x, 3);
    std::set<HostId> hosts;
    for (OsdId o : sel) hosts.insert(o / 4);
    EXPECT_EQ(hosts.size(), sel.size()) << "replicas share a host at x=" << x;
  }
}

TEST(Crush, FallsBackWhenFewHosts) {
  CrushMap m;
  m.add_device(0, 0);
  m.add_device(1, 0);
  m.add_device(2, 0);  // one host only
  auto sel = m.select(42, 2);
  EXPECT_EQ(sel.size(), 2u);  // still finds two distinct devices
}

TEST(Crush, LoadIsBalanced) {
  CrushMap m = paper_map();
  std::map<OsdId, int> primary_count;
  const int n = 20000;
  for (int x = 0; x < n; x++) {
    primary_count[m.select(static_cast<uint64_t>(x), 1)[0]]++;
  }
  for (const auto& [osd, c] : primary_count) {
    EXPECT_NEAR(c, n / 16, n / 16 * 0.2) << "osd " << osd;
  }
}

TEST(Crush, WeightProportionality) {
  CrushMap m;
  m.add_device(0, 0, 1.0);
  m.add_device(1, 1, 2.0);  // double weight
  std::map<OsdId, int> count;
  const int n = 30000;
  for (int x = 0; x < n; x++) {
    count[m.select(static_cast<uint64_t>(x), 1)[0]]++;
  }
  const double frac1 = static_cast<double>(count[1]) / n;
  EXPECT_NEAR(frac1, 2.0 / 3.0, 0.03);
}

TEST(Crush, ZeroWeightExcluded) {
  CrushMap m = paper_map();
  ASSERT_TRUE(m.set_weight(5, 0.0).is_ok());
  for (int x = 0; x < 2000; x++) {
    auto sel = m.select(static_cast<uint64_t>(x), 3);
    for (OsdId o : sel) EXPECT_NE(o, 5);
  }
}

TEST(Crush, ExcludeListRespected) {
  CrushMap m = paper_map();
  for (int x = 0; x < 1000; x++) {
    auto sel = m.select(static_cast<uint64_t>(x), 3, {0, 1, 2, 3});
    for (OsdId o : sel) EXPECT_GE(o, 4);
  }
}

// The property that justifies straw2: removing one device only remaps
// inputs that previously chose it.
TEST(Crush, MinimalMovementOnDeviceLoss) {
  CrushMap m = paper_map();
  const int n = 5000;
  std::vector<OsdId> before(n);
  for (int x = 0; x < n; x++) {
    before[static_cast<size_t>(x)] = m.select(static_cast<uint64_t>(x), 1)[0];
  }
  int moved = 0;
  for (int x = 0; x < n; x++) {
    const OsdId after = m.select(static_cast<uint64_t>(x), 1, {7})[0];
    if (after != before[static_cast<size_t>(x)]) {
      moved++;
      EXPECT_EQ(before[static_cast<size_t>(x)], 7)
          << "input moved although its device survived";
    }
  }
  // Roughly 1/16 of inputs lived on the removed device.
  EXPECT_NEAR(moved, n / 16, n / 16 * 0.35);
}

TEST(Crush, MinimalMovementOnWeightChange) {
  CrushMap m = paper_map();
  const int n = 5000;
  std::vector<OsdId> before(n);
  for (int x = 0; x < n; x++) {
    before[static_cast<size_t>(x)] = m.select(static_cast<uint64_t>(x), 1)[0];
  }
  ASSERT_TRUE(m.set_weight(3, 0.5).is_ok());
  int moved_to_other = 0;
  for (int x = 0; x < n; x++) {
    const OsdId after = m.select(static_cast<uint64_t>(x), 1)[0];
    if (after != before[static_cast<size_t>(x)]) {
      // Only inputs leaving the deweighted device may move.
      EXPECT_EQ(before[static_cast<size_t>(x)], 3);
      moved_to_other++;
    }
  }
  EXPECT_GT(moved_to_other, 0);
  EXPECT_LT(moved_to_other, n / 16);  // about half of osd 3's share
}

// --------------------------------------------------------------- OsdMap

OsdMap paper_osdmap() {
  OsdMap m;
  for (int h = 0; h < 4; h++) {
    for (int d = 0; d < 4; d++) m.add_osd(h * 4 + d, h);
  }
  return m;
}

TEST(OsdMap, PoolCreationAndLookup) {
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "meta";
  cfg.replicas = 2;
  const PoolId id = m.create_pool(cfg);
  EXPECT_TRUE(m.has_pool(id));
  EXPECT_EQ(m.pool(id).name, "meta");
  EXPECT_EQ(m.pool_by_name("meta"), id);
  EXPECT_FALSE(m.pool_by_name("nope").has_value());
}

TEST(OsdMap, ActingSizeMatchesScheme) {
  OsdMap m = paper_osdmap();
  PoolConfig rep;
  rep.name = "rep";
  rep.replicas = 2;
  PoolConfig ec;
  ec.name = "ec";
  ec.scheme = RedundancyScheme::kErasure;
  ec.ec_k = 2;
  ec.ec_m = 1;
  const PoolId pr = m.create_pool(rep);
  const PoolId pe = m.create_pool(ec);
  EXPECT_EQ(m.acting(pr, "obj1").size(), 2u);
  EXPECT_EQ(m.acting(pe, "obj1").size(), 3u);
}

TEST(OsdMap, SpaceAmplification) {
  PoolConfig rep;
  rep.replicas = 3;
  EXPECT_DOUBLE_EQ(rep.space_amplification(), 3.0);
  PoolConfig ec;
  ec.scheme = RedundancyScheme::kErasure;
  ec.ec_k = 2;
  ec.ec_m = 1;
  EXPECT_DOUBLE_EQ(ec.space_amplification(), 1.5);
}

TEST(OsdMap, DownOsdLeavesActing) {
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "p";
  const PoolId p = m.create_pool(cfg);
  // Find an object whose primary is OSD 0.
  std::string victim;
  for (int i = 0; i < 1000; i++) {
    std::string oid = "obj" + std::to_string(i);
    if (m.primary(p, oid) == 0) {
      victim = oid;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  m.mark_down(0);
  auto acting = m.acting(p, victim);
  for (OsdId o : acting) EXPECT_NE(o, 0);
  EXPECT_EQ(acting.size(), 2u);
  m.mark_up(0);
  EXPECT_EQ(m.primary(p, victim), 0);  // mapping restored
}

TEST(OsdMap, EpochAdvancesOnChange) {
  OsdMap m = paper_osdmap();
  const uint64_t e0 = m.epoch();
  m.mark_down(3);
  EXPECT_GT(m.epoch(), e0);
  const uint64_t e1 = m.epoch();
  m.mark_down(3);  // no-op
  EXPECT_EQ(m.epoch(), e1);
}

TEST(OsdMap, SameContentIdSamePlacement) {
  // The heart of double hashing: a chunk OID derived from content maps to
  // the same acting set no matter who computes it.
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "chunks";
  const PoolId p = m.create_pool(cfg);
  const std::string chunk_oid = "sha256:abcdef0123456789";
  EXPECT_EQ(m.acting(p, chunk_oid), m.acting(p, chunk_oid));
  EXPECT_EQ(m.pg_of(p, chunk_oid), m.pg_of(p, chunk_oid));
}

// The placement table must hold exactly what CRUSH computes for every
// (pool, pg) under the map's current liveness.
void expect_table_matches_crush(const OsdMap& m, const std::set<OsdId>& down) {
  const std::vector<OsdId> excl(down.begin(), down.end());
  for (PoolId p : m.pool_ids()) {
    const PoolConfig& cfg = m.pool(p);
    for (uint32_t pg = 0; pg < cfg.pg_num; pg++) {
      const uint64_t seed = mix64((static_cast<uint64_t>(p) << 32) | pg);
      ASSERT_EQ(m.acting_for_pg(p, pg), m.crush().select(seed, cfg.size(), excl))
          << "pool " << p << " pg " << pg << " epoch " << m.epoch();
    }
  }
}

TEST(OsdMap, PlacementTableMatchesCrushAcrossMutations) {
  OsdMap m;
  std::set<OsdId> down;
  for (int h = 0; h < 3; h++) {
    for (int d = 0; d < 2; d++) m.add_osd(h * 2 + d, h);
  }
  PoolConfig rep;
  rep.name = "rep";
  rep.pg_num = 64;
  const PoolId pr = m.create_pool(rep);
  expect_table_matches_crush(m, down);
  // Handed-out sets are updated in place, never reallocated.
  const std::vector<OsdId>* pg0 = &m.acting_for_pg(pr, 0);

  m.mark_down(2);
  down.insert(2);
  expect_table_matches_crush(m, down);

  // A pool created while an OSD is down is placed around it.
  PoolConfig ec;
  ec.name = "ec";
  ec.scheme = RedundancyScheme::kErasure;
  ec.pg_num = 32;
  const PoolId pe = m.create_pool(ec);
  expect_table_matches_crush(m, down);
  for (uint32_t pg = 0; pg < 32; pg++) {
    for (OsdId o : m.acting_for_pg(pe, pg)) EXPECT_NE(o, 2);
  }

  // Growing the cluster while an OSD is down, then more failures.
  m.add_osd(6, 3);
  m.add_osd(7, 3);
  expect_table_matches_crush(m, down);
  m.mark_down(6);
  down.insert(6);
  m.mark_down(0);
  down.insert(0);
  expect_table_matches_crush(m, down);

  // The OSD that went down first comes back: its old PGs return to it.
  m.mark_up(2);
  down.erase(2);
  expect_table_matches_crush(m, down);
  m.mark_up(6);
  m.mark_up(0);
  down.clear();
  expect_table_matches_crush(m, down);

  EXPECT_EQ(pg0, &m.acting_for_pg(pr, 0));

  // Per-object lookups go through the same table.
  for (int i = 0; i < 200; i++) {
    const std::string oid = "o" + std::to_string(i);
    EXPECT_EQ(m.acting(pr, oid), m.acting_for_pg(pr, m.pg_of(pr, oid)));
    EXPECT_EQ(m.primary(pr, oid), m.acting(pr, oid).front());
  }
}

TEST(OsdMap, DedupConfigChangeKeepsPlacement) {
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "meta";
  const PoolId p = m.create_pool(cfg);
  const uint64_t e0 = m.epoch();
  DedupTierConfig d;
  d.mode = DedupMode::kPostProcess;
  m.set_dedup_config(p, d);
  EXPECT_GT(m.epoch(), e0);
  EXPECT_TRUE(m.pool(p).dedup.enabled());
  expect_table_matches_crush(m, {});
}

TEST(OsdMap, PgWithinBounds) {
  OsdMap m = paper_osdmap();
  PoolConfig cfg;
  cfg.name = "p";
  cfg.pg_num = 64;
  const PoolId p = m.create_pool(cfg);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(m.pg_of(p, "o" + std::to_string(i)), 64u);
  }
}

TEST(OsdMap, UpOsdsTracksState) {
  OsdMap m = paper_osdmap();
  EXPECT_EQ(m.up_osds().size(), 16u);
  m.mark_down(1);
  m.mark_down(2);
  EXPECT_EQ(m.up_osds().size(), 14u);
  EXPECT_FALSE(m.is_up(1));
  EXPECT_TRUE(m.is_up(0));
}

}  // namespace
}  // namespace gdedup
