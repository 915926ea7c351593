// OSD-layer internals: message encodings, omap listing, recovery verbs,
// chunk-verb serialization, down-OSD behaviour, wire-size accounting.

#include <gtest/gtest.h>

#include "common/encoding.h"
#include "common/random.h"
#include "test_util.h"

namespace gdedup {
namespace {

using testutil::random_buffer;

// ------------------------------------------------------------- encodings

TEST(Messages, RefsRoundTrip) {
  std::vector<ChunkRef> refs = {
      {0, "object-a", 0},
      {0, "object-a", 32768},
      {3, "pool3/obj", 1234567890123ull},
  };
  auto decoded = decode_refs(encode_refs(refs));
  ASSERT_TRUE(decoded.is_ok());
  ASSERT_EQ(decoded->size(), 3u);
  for (size_t i = 0; i < refs.size(); i++) {
    EXPECT_TRUE((*decoded)[i] == refs[i]) << i;
  }
}

TEST(Messages, RefsEmptyAndCorrupt) {
  auto empty = decode_refs(encode_refs({}));
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_FALSE(decode_refs(Buffer::copy_of("xx")).is_ok());
  Encoder e;
  e.put_u32(5);  // claims 5 refs, provides none
  EXPECT_FALSE(decode_refs(e.finish()).is_ok());
}

// The refs xattr layout written field by field, independent of the
// production encoder.
Buffer reference_refs_encoding(const std::vector<ChunkRef>& refs) {
  Encoder e;
  e.put_u32(static_cast<uint32_t>(refs.size()));
  for (const auto& r : refs) {
    e.put_u32(static_cast<uint32_t>(r.pool));
    e.put_string(r.oid);
    e.put_u64(r.offset);
  }
  return e.finish();
}

ChunkRef random_ref(Rng& rng) {
  // Mostly short holder names, sometimes far past any small-string size.
  const size_t len = rng.below(8) == 0 ? rng.between(100, 4000)
                                       : rng.between(0, 24);
  std::string oid(len, 'a');
  for (char& c : oid) c = static_cast<char>('a' + rng.below(26));
  return {static_cast<PoolId>(rng.below(4)), oid, rng.next()};
}

TEST(Messages, AppendRefsByteIdenticalToFullEncode) {
  Rng rng(1234);
  for (int trial = 0; trial < 300; trial++) {
    std::vector<ChunkRef> refs;
    for (uint64_t i = rng.below(40); i > 0; i--) refs.push_back(random_ref(rng));
    const size_t from = static_cast<size_t>(rng.below(refs.size() + 1));
    const std::vector<ChunkRef> prefix(refs.begin(),
                                       refs.begin() + static_cast<long>(from));
    const Buffer want = reference_refs_encoding(refs);
    ASSERT_TRUE(encode_refs(refs).content_equals(want)) << trial;
    ASSERT_TRUE(append_refs(encode_refs(prefix), refs, from).content_equals(want))
        << "trial " << trial << " from " << from;
    // Appending from an absent xattr is a fresh encode.
    ASSERT_TRUE(append_refs(Buffer(), refs, 0).content_equals(want));
    // Nothing new: the stored bytes come back unchanged.
    ASSERT_TRUE(append_refs(want, refs, refs.size()).content_equals(want));
  }
}

TEST(Messages, AppendRefsExtraAndDuplicateRefs) {
  // Several records appended at once, including a long holder name and a
  // duplicate of a stored ref: the codec encodes whatever list it is
  // given (dropping duplicates is the OSD put path's job).
  const std::vector<ChunkRef> stored = {{0, "a", 0}, {0, "b", 32768}};
  std::vector<ChunkRef> refs = stored;
  refs.push_back({0, "c", 0});
  refs.push_back({0, "c", 32768});
  refs.push_back({0, std::string(300, 'z'), 1ULL << 40});
  refs.push_back(stored[0]);
  const Buffer enc = append_refs(encode_refs(stored), refs, stored.size());
  EXPECT_TRUE(enc.content_equals(reference_refs_encoding(refs)));
  auto dec = decode_refs(enc);
  ASSERT_TRUE(dec.is_ok());
  ASSERT_EQ(dec->size(), refs.size());
  for (size_t i = 0; i < refs.size(); i++) EXPECT_TRUE((*dec)[i] == refs[i]);
}

TEST(Messages, WireBytesScaleWithPayload) {
  OsdOp small;
  small.type = OsdOpType::kWrite;
  small.oid = "o";
  small.data = Buffer(100);
  OsdOp big = small;
  big.data = Buffer(100000);
  EXPECT_GT(big.wire_bytes(), small.wire_bytes() + 99000);

  OsdOpReply rep;
  rep.data = Buffer(5000);
  EXPECT_GE(rep.wire_bytes(), 5000u);
}

TEST(Messages, OpTypeNamesComplete) {
  for (auto t : {OsdOpType::kRead, OsdOpType::kWrite, OsdOpType::kWriteFull,
                 OsdOpType::kRemove, OsdOpType::kStat, OsdOpType::kGetXattr,
                 OsdOpType::kSetXattr, OsdOpType::kChunkPutRef,
                 OsdOpType::kChunkDeref, OsdOpType::kSubWrite,
                 OsdOpType::kShardRead, OsdOpType::kPull, OsdOpType::kPush}) {
    EXPECT_NE(osd_op_type_name(t), "unknown");
  }
}

// ------------------------------------------------------------- omap list

TEST(ObjectStoreOmap, ListByPrefix) {
  ObjectStore st;
  Transaction t;
  const ObjectKey k{0, "obj"};
  t.omap_set(k, "dedup.ck.0001", Buffer::copy_of("a"));
  t.omap_set(k, "dedup.ck.0002", Buffer::copy_of("b"));
  t.omap_set(k, "other.key", Buffer::copy_of("c"));
  t.omap_set(k, "dedup.ck", Buffer::copy_of("short"));  // not under prefix+sep
  ASSERT_TRUE(st.apply(t).is_ok());

  auto got = st.omap_list(k, "dedup.ck.");
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].first, "dedup.ck.0001");
  EXPECT_EQ(got[1].first, "dedup.ck.0002");
  EXPECT_EQ(got[0].second.view(), "a");

  EXPECT_TRUE(st.omap_list(k, "zzz").empty());
  EXPECT_TRUE(st.omap_list({0, "ghost"}, "dedup.").empty());
}

TEST(ObjectStoreOmap, OmapKeyOrderingIsOffsetOrder) {
  // Chunk-map omap keys are zero-padded hex so lexicographic order equals
  // numeric offset order — the loader depends on this.
  ObjectStore st;
  Transaction t;
  const ObjectKey k{0, "obj"};
  for (uint64_t off : {1ull << 40, 0ull, 32768ull, 1ull << 20}) {
    ChunkMapEntry e;
    e.offset = off;
    e.length = 1;
    t.omap_set(k, ChunkMap::omap_key(off), ChunkMap::encode_entry(e));
  }
  ASSERT_TRUE(st.apply(t).is_ok());
  auto got = st.omap_list(k, kChunkEntryPrefix);
  ASSERT_EQ(got.size(), 4u);
  uint64_t prev = 0;
  for (size_t i = 0; i < got.size(); i++) {
    auto e = ChunkMap::decode_entry(got[i].second);
    ASSERT_TRUE(e.is_ok());
    if (i > 0) {
      EXPECT_GT(e->offset, prev);
    }
    prev = e->offset;
  }
}

// --------------------------------------------------------- recovery verbs

class OsdVerbs : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(testutil::small_cluster_config());
    pool_ = cluster_->create_replicated_pool("p", 2);
    client_ = std::make_unique<RadosClient>(cluster_.get(),
                                            cluster_->client_node(0));
  }

  OsdOpReply run_on(OsdId target, OsdOp op) {
    OsdOpReply out;
    bool done = false;
    send_osd_op(*cluster_, cluster_->client_node(0), target, std::move(op),
                [&](OsdOpReply rep) {
                  out = std::move(rep);
                  done = true;
                });
    while (!done && cluster_->sched().step()) {
    }
    return out;
  }

  std::unique_ptr<Cluster> cluster_;
  PoolId pool_ = -1;
  std::unique_ptr<RadosClient> client_;
};

TEST_F(OsdVerbs, PullReturnsFullState) {
  Buffer data = random_buffer(10000, 1);
  ASSERT_TRUE(sync_write(*cluster_, *client_, pool_, "obj", 0, data).is_ok());
  bool done = false;
  client_->setxattr(pool_, "obj", "m", Buffer::copy_of("v"), [&](Status) {
    done = true;
  });
  while (!done) ASSERT_TRUE(cluster_->sched().step());

  const OsdId primary = cluster_->osdmap().primary(pool_, "obj");
  OsdOp pull;
  pull.type = OsdOpType::kPull;
  pull.pool = pool_;
  pull.oid = "obj";
  auto rep = run_on(primary, std::move(pull));
  ASSERT_TRUE(rep.status.is_ok());
  ASSERT_NE(rep.state, nullptr);
  EXPECT_EQ(rep.state->logical_size, 10000u);
  EXPECT_TRUE(rep.state->data.read(0, 10000).content_equals(data));
  EXPECT_EQ(rep.state->xattrs.at("m").view(), "v");
}

TEST_F(OsdVerbs, PushInstallsState) {
  auto state = std::make_shared<ObjectState>();
  state->data.write(0, Buffer::copy_of("installed"));
  state->logical_size = 9;
  state->xattrs["k"] = Buffer::copy_of("v");

  OsdOp push;
  push.type = OsdOpType::kPush;
  push.pool = pool_;
  push.oid = "pushed";
  push.state = state;
  auto rep = run_on(3, std::move(push));
  ASSERT_TRUE(rep.status.is_ok());
  EXPECT_TRUE(cluster_->osd(3)->local_exists(pool_, "pushed"));
  auto r = cluster_->osd(3)->store(pool_).read({pool_, "pushed"}, 0, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->view(), "installed");
}

TEST_F(OsdVerbs, PullMissingObjectFails) {
  OsdOp pull;
  pull.type = OsdOpType::kPull;
  pull.pool = pool_;
  pull.oid = "ghost";
  auto rep = run_on(0, std::move(pull));
  EXPECT_FALSE(rep.status.is_ok());
}

TEST_F(OsdVerbs, DownOsdAnswersUnavailable) {
  cluster_->osd(2)->set_up(false);  // down but not yet marked in the map
  OsdOp read;
  read.type = OsdOpType::kRead;
  read.pool = pool_;
  read.oid = "x";
  auto rep = run_on(2, std::move(read));
  EXPECT_EQ(rep.status.code(), Code::kUnavailable);
  cluster_->osd(2)->set_up(true);
}

TEST_F(OsdVerbs, CrashedOsdDropsSilently) {
  cluster_->osd(2)->set_drop_when_down(true);
  cluster_->osd(2)->set_up(false);
  OsdOp read;
  read.type = OsdOpType::kRead;
  read.pool = pool_;
  read.oid = "x";
  bool replied = false;
  send_osd_op(*cluster_, cluster_->client_node(0), 2, std::move(read),
              [&](OsdOpReply) { replied = true; });
  cluster_->sched().run_for(sec(2));
  EXPECT_FALSE(replied);
  cluster_->osd(2)->set_up(true);
}

TEST_F(OsdVerbs, StatReflectsLogicalSize) {
  ASSERT_TRUE(sync_write(*cluster_, *client_, pool_, "obj", 5000,
                         random_buffer(1000, 2))
                  .is_ok());
  auto r = sync_stat(*cluster_, *client_, pool_, "obj");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 6000u);
}

TEST_F(OsdVerbs, ChunkVerbQueueKeepsFifoPerObject) {
  // Interleave puts and derefs on one chunk object; the per-object queue
  // must apply them in order, ending with refcount exactly 1.
  const std::string cid = "sha256:feed";
  const OsdId primary = cluster_->osdmap().primary(pool_, cid);
  Buffer data = random_buffer(4096, 3);
  int done = 0;
  auto fire = [&](OsdOpType type, const ChunkRef& ref) {
    OsdOp op;
    op.type = type;
    op.pool = pool_;
    op.oid = cid;
    op.data = data;
    op.ref = ref;
    send_osd_op(*cluster_, cluster_->client_node(0), primary, std::move(op),
                [&](OsdOpReply rep) {
                  EXPECT_TRUE(rep.status.is_ok());
                  done++;
                });
  };
  fire(OsdOpType::kChunkPutRef, {0, "s1", 0});
  fire(OsdOpType::kChunkPutRef, {0, "s2", 0});
  fire(OsdOpType::kChunkDeref, {0, "s1", 0});
  fire(OsdOpType::kChunkPutRef, {0, "s3", 0});
  fire(OsdOpType::kChunkDeref, {0, "s3", 0});
  while (done < 5 && cluster_->sched().step()) {
  }
  ASSERT_EQ(done, 5);
  auto raw = cluster_->osd(primary)->local_getxattr(pool_, cid, kRefsXattr);
  ASSERT_TRUE(raw.is_ok());
  auto refs = decode_refs(raw.value());
  ASSERT_TRUE(refs.is_ok());
  ASSERT_EQ(refs->size(), 1u);
  EXPECT_EQ((*refs)[0].oid, "s2");
}

TEST_F(OsdVerbs, ForegroundWindowCountsClientOps) {
  const OsdId primary = cluster_->osdmap().primary(pool_, "counted");
  const uint64_t before =
      cluster_->osd(primary)->foreground_window().count(
          cluster_->sched().now());
  ASSERT_TRUE(sync_write(*cluster_, *client_, pool_, "counted", 0,
                         random_buffer(100, 4))
                  .is_ok());
  EXPECT_GT(cluster_->osd(primary)->foreground_window().count(
                cluster_->sched().now()),
            before);
}

}  // namespace
}  // namespace gdedup
