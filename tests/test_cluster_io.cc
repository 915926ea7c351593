// End-to-end cluster I/O without dedup: replicated and EC pools through
// the client, replica consistency, xattrs, block-device striping, and the
// chunk-pool verbs (put-ref / deref) in isolation.

#include <gtest/gtest.h>

#include <algorithm>

#include "test_util.h"

namespace gdedup {
namespace {

using testutil::random_buffer;

class ClusterIo : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(testutil::small_cluster_config());
    rep_ = cluster_->create_replicated_pool("rep", 2);
    ec_ = cluster_->create_ec_pool("ec", 2, 1);
    client_ = std::make_unique<RadosClient>(cluster_.get(),
                                            cluster_->client_node(0));
  }

  std::unique_ptr<Cluster> cluster_;
  PoolId rep_ = -1;
  PoolId ec_ = -1;
  std::unique_ptr<RadosClient> client_;
};

TEST_F(ClusterIo, ReplicatedWriteReadRoundTrip) {
  Buffer data = random_buffer(64 * 1024, 1);
  ASSERT_TRUE(sync_write(*cluster_, *client_, rep_, "obj", 0, data).is_ok());
  auto r = sync_read(*cluster_, *client_, rep_, "obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
}

TEST_F(ClusterIo, PartialReadAndOffsetWrite) {
  ASSERT_TRUE(sync_write(*cluster_, *client_, rep_, "obj", 0,
                         Buffer::copy_of("0123456789"))
                  .is_ok());
  ASSERT_TRUE(sync_write(*cluster_, *client_, rep_, "obj", 4,
                         Buffer::copy_of("XY"))
                  .is_ok());
  auto r = sync_read(*cluster_, *client_, rep_, "obj", 2, 6);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->view(), "23XY67");
}

TEST_F(ClusterIo, ReadMissingObjectFails) {
  auto r = sync_read(*cluster_, *client_, rep_, "ghost", 0, 0);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kNotFound);
}

TEST_F(ClusterIo, WritesLandOnAllReplicas) {
  Buffer data = random_buffer(8 * 1024, 2);
  ASSERT_TRUE(sync_write(*cluster_, *client_, rep_, "obj", 0, data).is_ok());
  auto acting = cluster_->osdmap().acting(rep_, "obj");
  ASSERT_EQ(acting.size(), 2u);
  for (OsdId o : acting) {
    const ObjectStore* st = cluster_->osd(o)->store_if_exists(rep_);
    ASSERT_NE(st, nullptr) << "osd " << o;
    auto local = st->read({rep_, "obj"}, 0, 0);
    ASSERT_TRUE(local.is_ok()) << "osd " << o;
    EXPECT_TRUE(local->content_equals(data)) << "osd " << o;
  }
  // Replicas live on distinct hosts.
  EXPECT_NE(cluster_->node_of_osd(acting[0]), cluster_->node_of_osd(acting[1]));
}

TEST_F(ClusterIo, RemoveDeletesAllReplicas) {
  ASSERT_TRUE(sync_write(*cluster_, *client_, rep_, "obj", 0,
                         Buffer::copy_of("bye"))
                  .is_ok());
  auto acting = cluster_->osdmap().acting(rep_, "obj");
  ASSERT_TRUE(sync_remove(*cluster_, *client_, rep_, "obj").is_ok());
  for (OsdId o : acting) {
    EXPECT_FALSE(cluster_->osd(o)->local_exists(rep_, "obj"));
  }
  EXPECT_FALSE(sync_read(*cluster_, *client_, rep_, "obj", 0, 0).is_ok());
}

TEST_F(ClusterIo, StatReportsSize) {
  ASSERT_TRUE(sync_write(*cluster_, *client_, rep_, "obj", 100,
                         Buffer::copy_of("xxxx"))
                  .is_ok());
  auto r = sync_stat(*cluster_, *client_, rep_, "obj");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 104u);
}

TEST_F(ClusterIo, LatencyIsPlausible) {
  // One 8KB replicated write: two network hops + journal writes; at the
  // calibrated constants this lands in the sub-2ms band the paper reports
  // for its Original configuration.
  const SimTime before = cluster_->sched().now();
  ASSERT_TRUE(
      sync_write(*cluster_, *client_, rep_, "obj", 0, random_buffer(8192, 3))
          .is_ok());
  const SimTime lat = cluster_->sched().now() - before;
  EXPECT_GT(lat, usec(100));
  EXPECT_LT(lat, msec(5));
}

// ------------------------------------------------------------------- EC

TEST_F(ClusterIo, EcWriteReadRoundTrip) {
  Buffer data = random_buffer(100 * 1024, 4);
  ASSERT_TRUE(sync_write(*cluster_, *client_, ec_, "obj", 0, data).is_ok());
  auto r = sync_read(*cluster_, *client_, ec_, "obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
}

TEST_F(ClusterIo, EcShardsAreSpreadAndSmaller) {
  Buffer data = random_buffer(90 * 1024, 5);
  ASSERT_TRUE(sync_write(*cluster_, *client_, ec_, "obj", 0, data).is_ok());
  auto acting = cluster_->osdmap().acting(ec_, "obj");
  ASSERT_EQ(acting.size(), 3u);  // k=2, m=1
  uint64_t total_stored = 0;
  for (OsdId o : acting) {
    const ObjectStore* st = cluster_->osd(o)->store_if_exists(ec_);
    ASSERT_NE(st, nullptr);
    auto sz = st->size({ec_, "obj"});
    ASSERT_TRUE(sz.is_ok());
    EXPECT_EQ(sz.value(), 45u * 1024);  // data/k
    total_stored += sz.value();
  }
  // 1.5x amplification instead of 2x.
  EXPECT_EQ(total_stored, data.size() * 3 / 2);
}

TEST_F(ClusterIo, EcPartialOverwrite) {
  Buffer data = random_buffer(64 * 1024, 6);
  ASSERT_TRUE(sync_write(*cluster_, *client_, ec_, "obj", 0, data).is_ok());
  Buffer patch = random_buffer(1000, 7);
  ASSERT_TRUE(sync_write(*cluster_, *client_, ec_, "obj", 10000, patch).is_ok());
  auto r = sync_read(*cluster_, *client_, ec_, "obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  Buffer expect = data;
  expect.write_at(10000, patch);
  EXPECT_TRUE(r->content_equals(expect));
}

TEST_F(ClusterIo, EcReadSurvivesOneOsdDown) {
  Buffer data = random_buffer(80 * 1024, 8);
  ASSERT_TRUE(sync_write(*cluster_, *client_, ec_, "obj", 0, data).is_ok());
  auto acting = cluster_->osdmap().acting(ec_, "obj");
  cluster_->fail_osd(acting[1]);
  auto r = sync_read(*cluster_, *client_, ec_, "obj", 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
  cluster_->revive_osd(acting[1], /*wipe_store=*/false);
}

TEST_F(ClusterIo, EcRemove) {
  ASSERT_TRUE(
      sync_write(*cluster_, *client_, ec_, "obj", 0, random_buffer(4096, 9))
          .is_ok());
  ASSERT_TRUE(sync_remove(*cluster_, *client_, ec_, "obj").is_ok());
  EXPECT_FALSE(sync_read(*cluster_, *client_, ec_, "obj", 0, 0).is_ok());
}

TEST_F(ClusterIo, EcSmallWriteCostsMoreThanReplicated) {
  // The Figure 12 mechanism: EC random small writes pay read-modify-write
  // plus parity; replicated writes do not.
  Buffer big = random_buffer(1 << 20, 10);
  ASSERT_TRUE(sync_write(*cluster_, *client_, rep_, "r", 0, big).is_ok());
  ASSERT_TRUE(sync_write(*cluster_, *client_, ec_, "e", 0, big).is_ok());

  Buffer small = random_buffer(8 * 1024, 11);
  SimTime t0 = cluster_->sched().now();
  ASSERT_TRUE(sync_write(*cluster_, *client_, rep_, "r", 64 * 1024, small).is_ok());
  const SimTime rep_lat = cluster_->sched().now() - t0;
  t0 = cluster_->sched().now();
  ASSERT_TRUE(sync_write(*cluster_, *client_, ec_, "e", 64 * 1024, small).is_ok());
  const SimTime ec_lat = cluster_->sched().now() - t0;
  EXPECT_GT(ec_lat, rep_lat * 2);
}

// ----------------------------------------------------------- chunk verbs

OsdOp make_put(PoolId pool, const std::string& cid, Buffer data,
               const ChunkRef& ref) {
  OsdOp op;
  op.type = OsdOpType::kChunkPutRef;
  op.pool = pool;
  op.oid = cid;
  op.data = std::move(data);
  op.ref = ref;
  return op;
}

OsdOp make_deref(PoolId pool, const std::string& cid, const ChunkRef& ref) {
  OsdOp op;
  op.type = OsdOpType::kChunkDeref;
  op.pool = pool;
  op.oid = cid;
  op.ref = ref;
  return op;
}

class ChunkVerbs : public ClusterIo {
 protected:
  Status run_op(OsdOp op) {
    const OsdId primary = cluster_->osdmap().primary(op.pool, op.oid);
    Status out = Status::timed_out("no reply");
    bool done = false;
    send_osd_op(*cluster_, cluster_->client_node(0), primary, std::move(op),
                [&](OsdOpReply rep) {
                  out = rep.status;
                  done = true;
                });
    while (!done && cluster_->sched().step()) {
    }
    return out;
  }

  std::vector<ChunkRef> refs_of(const std::string& cid) {
    const OsdId primary = cluster_->osdmap().primary(rep_, cid);
    auto raw = cluster_->osd(primary)->local_getxattr(rep_, cid, kRefsXattr);
    if (!raw.is_ok()) return {};
    auto refs = decode_refs(raw.value());
    return refs.is_ok() ? refs.value() : std::vector<ChunkRef>{};
  }
};

TEST_F(ChunkVerbs, PutCreatesWithOneRef) {
  Buffer data = random_buffer(32 * 1024, 20);
  ASSERT_TRUE(run_op(make_put(rep_, "sha256:c1", data, {0, "src", 0})).is_ok());
  EXPECT_EQ(refs_of("sha256:c1").size(), 1u);
  const OsdId primary = cluster_->osdmap().primary(rep_, "sha256:c1");
  auto stored = cluster_->osd(primary)->store(rep_).read({rep_, "sha256:c1"}, 0, 0);
  ASSERT_TRUE(stored.is_ok());
  EXPECT_TRUE(stored->content_equals(data));
}

TEST_F(ChunkVerbs, DuplicatePutAddsRefNotData) {
  Buffer data = random_buffer(32 * 1024, 21);
  ASSERT_TRUE(run_op(make_put(rep_, "sha256:c2", data, {0, "a", 0})).is_ok());
  const auto before = cluster_->pool_stats(rep_);
  ASSERT_TRUE(run_op(make_put(rep_, "sha256:c2", data, {0, "b", 0})).is_ok());
  const auto after = cluster_->pool_stats(rep_);
  EXPECT_EQ(refs_of("sha256:c2").size(), 2u);
  EXPECT_EQ(before.stored_data_bytes, after.stored_data_bytes);
  EXPECT_EQ(before.objects, after.objects);
}

TEST_F(ChunkVerbs, PutIsIdempotentPerRef) {
  Buffer data = random_buffer(1024, 22);
  const ChunkRef ref{0, "same", 64};
  ASSERT_TRUE(run_op(make_put(rep_, "sha256:c3", data, ref)).is_ok());
  ASSERT_TRUE(run_op(make_put(rep_, "sha256:c3", data, ref)).is_ok());
  EXPECT_EQ(refs_of("sha256:c3").size(), 1u);
}

TEST_F(ChunkVerbs, DerefRemovesAtZero) {
  Buffer data = random_buffer(1024, 23);
  ASSERT_TRUE(run_op(make_put(rep_, "sha256:c4", data, {0, "a", 0})).is_ok());
  ASSERT_TRUE(run_op(make_put(rep_, "sha256:c4", data, {0, "b", 0})).is_ok());
  ASSERT_TRUE(run_op(make_deref(rep_, "sha256:c4", {0, "a", 0})).is_ok());
  EXPECT_EQ(refs_of("sha256:c4").size(), 1u);
  const OsdId primary = cluster_->osdmap().primary(rep_, "sha256:c4");
  EXPECT_TRUE(cluster_->osd(primary)->local_exists(rep_, "sha256:c4"));
  ASSERT_TRUE(run_op(make_deref(rep_, "sha256:c4", {0, "b", 0})).is_ok());
  EXPECT_FALSE(cluster_->osd(primary)->local_exists(rep_, "sha256:c4"));
}

TEST_F(ChunkVerbs, DerefIsIdempotent) {
  Buffer data = random_buffer(1024, 24);
  ASSERT_TRUE(run_op(make_put(rep_, "sha256:c5", data, {0, "a", 0})).is_ok());
  ASSERT_TRUE(run_op(make_deref(rep_, "sha256:c5", {0, "ghost", 0})).is_ok());
  EXPECT_EQ(refs_of("sha256:c5").size(), 1u);
  ASSERT_TRUE(run_op(make_deref(rep_, "sha256:c5", {0, "a", 0})).is_ok());
  ASSERT_TRUE(run_op(make_deref(rep_, "sha256:c5", {0, "a", 0})).is_ok());
}

TEST_F(ChunkVerbs, DedupPutAppendsOnlyMissingRefs) {
  // A dedup-hit put whose own ref is already recorded but which carries
  // extra refs (a rewrite container) appends just the missing ones, once
  // each and in order; the stored xattr is byte-identical to a fresh
  // encode of the full list.
  Buffer data = random_buffer(1024, 27);
  const std::string cid = "sha256:c8";
  const std::string long_oid(500, 'q');
  ASSERT_TRUE(run_op(make_put(rep_, cid, data, {0, "a", 0})).is_ok());
  OsdOp op = make_put(rep_, cid, data, {0, "a", 0});
  op.extra_refs = {{0, long_oid, 65536}, {0, "a", 0}, {0, long_oid, 65536},
                   {0, "b", 32768}};
  ASSERT_TRUE(run_op(std::move(op)).is_ok());
  const std::vector<ChunkRef> want = {
      {0, "a", 0}, {0, long_oid, 65536}, {0, "b", 32768}};
  EXPECT_EQ(refs_of(cid), want);
  for (OsdId id : cluster_->osdmap().acting(rep_, cid)) {
    auto raw = cluster_->osd(id)->local_getxattr(rep_, cid, kRefsXattr);
    ASSERT_TRUE(raw.is_ok()) << "osd " << id;
    EXPECT_TRUE(raw->content_equals(encode_refs(want))) << "osd " << id;
  }
}

TEST_F(ChunkVerbs, PutWhoseTxnNeverLandsLeavesNoStaleRef) {
  // The dedup-hit put appends its ref to the cached list in place and
  // rebinds the cache to the appended bytes before the write is
  // submitted.  If the primary dies before the write fans out, the store
  // keeps the old bytes: the next put must decode them, not reuse the
  // edited list, or the lost ref would resurface.
  Buffer data = random_buffer(1024, 26);
  const std::string cid = "sha256:c7";
  ASSERT_TRUE(run_op(make_put(rep_, cid, data, {0, "a", 0})).is_ok());
  const OsdId primary = cluster_->osdmap().primary(rep_, cid);
  Osd* p = cluster_->osd(primary);
  p->set_failure_hook([&](OsdFailurePoint pt, const ObjectKey& k) {
    return pt == OsdFailurePoint::kBeforeReplicatedFanout && k.oid == cid;
  });
  EXPECT_FALSE(run_op(make_put(rep_, cid, data, {0, "b", 0})).is_ok());
  p->set_failure_hook(nullptr);
  cluster_->revive_osd(primary, /*wipe_store=*/false);
  ASSERT_EQ(cluster_->osdmap().primary(rep_, cid), primary);

  const uint64_t decodes = p->perf().get(l_osd_refs_decodes);
  ASSERT_TRUE(run_op(make_put(rep_, cid, data, {0, "c", 0})).is_ok());
  EXPECT_EQ(p->perf().get(l_osd_refs_decodes), decodes + 1);
  const std::vector<ChunkRef> want = {{0, "a", 0}, {0, "c", 0}};
  EXPECT_EQ(refs_of(cid), want);
}

TEST_F(ChunkVerbs, CreateUnionsRefsFromEveryUpPeer) {
  // A primary that lost its copy "creates" the chunk again.  The refs it
  // seeds must include every ref a surviving holder recorded, including a
  // stray copy off the acting set, or a later deref-to-zero would destroy
  // a chunk those refs still name.
  Buffer data = random_buffer(4096, 28);
  const std::string cid = "sha256:c9";
  const ChunkRef a{0, "a", 0}, b{0, "b", 4096}, c{0, "c", 8192};
  ASSERT_TRUE(run_op(make_put(rep_, cid, data, a)).is_ok());
  const std::vector<OsdId> acting = cluster_->osdmap().acting(rep_, cid);
  ASSERT_EQ(acting.size(), 2u);
  const ObjectKey key{rep_, cid};
  Osd* primary = cluster_->osd(acting[0]);
  ASSERT_TRUE(primary->store(rep_).remove_object(key).is_ok());
  ASSERT_TRUE(cluster_->osd(acting[1])->local_exists(rep_, cid));

  OsdId stray = -1;
  for (OsdId id : cluster_->osdmap().all_osds()) {
    if (std::find(acting.begin(), acting.end(), id) == acting.end()) {
      stray = id;
      break;
    }
  }
  ASSERT_GE(stray, 0);
  ObjectState copy;
  copy.data.write(0, data);
  copy.logical_size = data.size();
  copy.xattrs[kRefsXattr] = encode_refs({b});
  copy.version = 1;
  cluster_->osd(stray)->store(rep_).install(key, std::move(copy));

  ASSERT_TRUE(run_op(make_put(rep_, cid, data, c)).is_ok());
  std::vector<ChunkRef> got = refs_of(cid);
  std::sort(got.begin(), got.end());
  const std::vector<ChunkRef> want = {a, b, c};
  EXPECT_EQ(got, want);
}

TEST_F(ChunkVerbs, ConcurrentPutsOfSameNewChunkSerialize) {
  // Two puts of the same brand-new chunk racing: both must survive as
  // refs — the per-object op queue prevents the create/create race.
  Buffer data = random_buffer(32 * 1024, 25);
  const OsdId primary = cluster_->osdmap().primary(rep_, "sha256:c6");
  int done = 0;
  for (int i = 0; i < 2; i++) {
    OsdOp op = make_put(rep_, "sha256:c6", data,
                        {0, "src" + std::to_string(i), 0});
    send_osd_op(*cluster_, cluster_->client_node(i), primary, std::move(op),
                [&](OsdOpReply rep) {
                  EXPECT_TRUE(rep.status.is_ok());
                  done++;
                });
  }
  while (done < 2 && cluster_->sched().step()) {
  }
  EXPECT_EQ(refs_of("sha256:c6").size(), 2u);
}

// ----------------------------------------------------------- BlockDevice

TEST_F(ClusterIo, BlockDeviceStripesAcrossObjects) {
  BlockDevice bd(client_.get(), rep_, "img", 32ull << 20, 4 << 20);
  Buffer data = random_buffer(6 << 20, 30);  // spans two objects
  ASSERT_TRUE(sync_bdev_write(*cluster_, bd, 3 << 20, data).is_ok());
  auto r = sync_bdev_read(*cluster_, bd, 3 << 20, data.size());
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r->content_equals(data));
  EXPECT_NE(bd.object_for(0), bd.object_for(5 << 20));
}

TEST_F(ClusterIo, BlockDeviceUnwrittenReadsZero) {
  BlockDevice bd(client_.get(), rep_, "img2", 8ull << 20);
  ASSERT_TRUE(
      sync_bdev_write(*cluster_, bd, 0, Buffer::copy_of("head")).is_ok());
  auto r = sync_bdev_read(*cluster_, bd, 1 << 20, 4096);
  ASSERT_TRUE(r.is_ok());
  for (size_t i = 0; i < r->size(); i++) ASSERT_EQ((*r)[i], 0);
}

TEST_F(ClusterIo, BlockDeviceNeverWrittenObjectReadsZero) {
  BlockDevice bd(client_.get(), rep_, "img3", 8ull << 20);
  auto r = sync_bdev_read(*cluster_, bd, 12345, 8192);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r->size(), 8192u);
  for (size_t i = 0; i < r->size(); i++) ASSERT_EQ((*r)[i], 0);
}

TEST_F(ClusterIo, BlockDeviceSingleAndCrossObjectReadsAgree) {
  // A read inside one object takes the reply buffer as is; a read across
  // a boundary assembles the pieces.  Both must see the same bytes,
  // including the zero tail past an object's written end.
  BlockDevice bd(client_.get(), rep_, "img4", 8ull << 20, 1 << 20);
  Buffer data = random_buffer(96 * 1024, 31);
  const uint64_t base = (1 << 20) - 64 * 1024;  // 64 KiB before the boundary
  ASSERT_TRUE(sync_bdev_write(*cluster_, bd, base, data).is_ok());
  auto cross = sync_bdev_read(*cluster_, bd, base - 4096, 128 * 1024);
  ASSERT_TRUE(cross.is_ok());
  ASSERT_EQ(cross->size(), 128u * 1024);
  for (uint64_t off = base - 4096; off + 8192 <= base - 4096 + 128 * 1024;
       off += 8192) {
    if (off / (1 << 20) != (off + 8191) / (1 << 20)) continue;
    auto one = sync_bdev_read(*cluster_, bd, off, 8192);
    ASSERT_TRUE(one.is_ok()) << off;
    EXPECT_TRUE(one->content_equals(cross->slice(off - (base - 4096), 8192)))
        << off;
  }
  EXPECT_TRUE(cross->slice(4096, data.size()).content_equals(data));
}

TEST_F(ClusterIo, BlockDeviceReadFailsWithEveryOsdDown) {
  BlockDevice bd(client_.get(), rep_, "img5", 8ull << 20, 1 << 20);
  Buffer data = random_buffer(64 * 1024, 32);
  const uint64_t base = (1 << 20) - 32 * 1024;
  ASSERT_TRUE(sync_bdev_write(*cluster_, bd, base, data).is_ok());
  // Placement re-maps around a down OSD, so only a cluster with every OSD
  // down leaves both objects without a live acting member.
  for (OsdId id : cluster_->osdmap().all_osds()) cluster_->fail_osd(id);
  auto one = sync_bdev_read(*cluster_, bd, base, 8192);
  EXPECT_FALSE(one.is_ok());
  auto cross = sync_bdev_read(*cluster_, bd, base, data.size());
  EXPECT_FALSE(cross.is_ok());
}

}  // namespace
}  // namespace gdedup
