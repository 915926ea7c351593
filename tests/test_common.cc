// Status/Result, encoding, histogram, bloom filter, LRU, CRC32C, options,
// object names and the move-only event callable.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/bloom_filter.h"
#include "common/crc32.h"
#include "common/encoding.h"
#include "common/histogram.h"
#include "common/inline_function.h"
#include "common/lru.h"
#include "common/object_name.h"
#include "common/random.h"
#include "common/options.h"
#include "common/status.h"
#include "hash/fingerprint.h"
#include "osd/object_store.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace gdedup {
namespace {

// ---------------------------------------------------------------- Status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kOk);
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  auto s = Status::not_found("obj x");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.message(), "obj x");
  EXPECT_EQ(s.to_string(), "NotFound: obj x");
}

TEST(Status, AllCodesHaveNames) {
  for (Code c : {Code::kOk, Code::kNotFound, Code::kExists,
                 Code::kInvalidArgument, Code::kOutOfRange, Code::kIoError,
                 Code::kUnavailable, Code::kCorruption, Code::kBusy,
                 Code::kTimedOut, Code::kAborted}) {
    EXPECT_NE(code_name(c), "Unknown");
  }
}

TEST(Result, ValueAccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(Result, ErrorAccess) {
  Result<int> r(Status::io_error("disk gone"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Code::kIoError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// -------------------------------------------------------------- Encoding

TEST(Encoding, RoundTripScalars) {
  Encoder e;
  e.put_u8(7);
  e.put_u16(0xBEEF);
  e.put_u32(0xDEADBEEF);
  e.put_u64(0x0123456789ABCDEFull);
  e.put_bool(true);
  e.put_string("hello");
  e.put_bytes(Buffer::copy_of("raw"));
  Buffer b = e.finish();

  Decoder d(b);
  uint8_t v8;
  uint16_t v16;
  uint32_t v32;
  uint64_t v64;
  bool vb;
  std::string vs;
  Buffer vbuf;
  ASSERT_TRUE(d.get_u8(&v8).is_ok());
  ASSERT_TRUE(d.get_u16(&v16).is_ok());
  ASSERT_TRUE(d.get_u32(&v32).is_ok());
  ASSERT_TRUE(d.get_u64(&v64).is_ok());
  ASSERT_TRUE(d.get_bool(&vb).is_ok());
  ASSERT_TRUE(d.get_string(&vs).is_ok());
  ASSERT_TRUE(d.get_bytes(&vbuf).is_ok());
  EXPECT_EQ(v8, 7);
  EXPECT_EQ(v16, 0xBEEF);
  EXPECT_EQ(v32, 0xDEADBEEFu);
  EXPECT_EQ(v64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(vb);
  EXPECT_EQ(vs, "hello");
  EXPECT_EQ(vbuf.view(), "raw");
  EXPECT_TRUE(d.at_end());
}

TEST(Encoding, ShortInputIsCorruption) {
  Encoder e;
  e.put_u32(10);  // claims 10-byte string follows
  Buffer b = e.finish();
  Decoder d(b);
  std::string s;
  auto st = d.get_string(&s);
  EXPECT_EQ(st.code(), Code::kCorruption);
}

TEST(Encoding, TruncatedScalar) {
  Buffer b = Buffer::copy_of("ab");
  Decoder d(b);
  uint64_t v;
  EXPECT_EQ(d.get_u64(&v).code(), Code::kCorruption);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  for (uint64_t v = 0; v < 32; v++) h.record(v);
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_NEAR(h.mean(), 15.5, 1e-9);
}

TEST(Histogram, PercentileAccuracy) {
  Histogram h;
  Rng rng(1);
  std::vector<uint64_t> vals;
  for (int i = 0; i < 100000; i++) {
    const uint64_t v = rng.below(10'000'000) + 1;
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const uint64_t exact = vals[static_cast<size_t>(q * (vals.size() - 1))];
    const uint64_t approx = h.percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.05 * exact)
        << "q=" << q;
  }
}

TEST(Histogram, Merge) {
  Histogram a, b;
  a.record(100);
  b.record(200);
  b.record(300);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 100u);
  EXPECT_EQ(a.max(), 300u);
  EXPECT_NEAR(a.mean(), 200.0, 1e-9);
}

TEST(Histogram, FormatHelpers) {
  EXPECT_EQ(format_duration_ns(500), "500 ns");
  EXPECT_EQ(format_duration_ns(1.26e6), "1.26 ms");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
}

// ------------------------------------------------------------ BloomFilter

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf(1000, 0.01);
  for (uint64_t k = 0; k < 1000; k++) bf.insert(mix64(k));
  for (uint64_t k = 0; k < 1000; k++) {
    EXPECT_TRUE(bf.maybe_contains(mix64(k)));
  }
}

TEST(BloomFilter, FalsePositiveRateNearTarget) {
  BloomFilter bf(10000, 0.01);
  for (uint64_t k = 0; k < 10000; k++) bf.insert(mix64(k));
  int fp = 0;
  const int probes = 50000;
  for (int k = 0; k < probes; k++) {
    if (bf.maybe_contains(mix64(0xF00D0000ull + k))) fp++;
  }
  const double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, 0.03);
  EXPECT_NEAR(bf.estimated_fp_rate(), 0.01, 0.01);
}

TEST(BloomFilter, ClearResets) {
  BloomFilter bf(100, 0.01);
  bf.insert(12345);
  bf.clear();
  EXPECT_FALSE(bf.maybe_contains(12345));
  EXPECT_EQ(bf.inserted(), 0u);
}

// ------------------------------------------------------------------ LRU

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruMap<int, std::string> lru(2);
  EXPECT_FALSE(lru.put(1, "a").has_value());
  EXPECT_FALSE(lru.put(2, "b").has_value());
  auto evicted = lru.put(3, "c");
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1);
}

TEST(Lru, GetRefreshesRecency) {
  LruMap<int, int> lru(2);
  lru.put(1, 10);
  lru.put(2, 20);
  ASSERT_NE(lru.get(1), nullptr);
  auto evicted = lru.put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 2);  // 1 was refreshed, 2 is the victim
}

TEST(Lru, PeekDoesNotRefresh) {
  LruMap<int, int> lru(2);
  lru.put(1, 10);
  lru.put(2, 20);
  EXPECT_NE(lru.peek(1), nullptr);
  auto evicted = lru.put(3, 30);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->first, 1);  // peek kept 1 cold
}

TEST(Lru, OverwriteKeepsSize) {
  LruMap<int, int> lru(2);
  lru.put(1, 10);
  lru.put(1, 11);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(*lru.get(1), 11);
}

TEST(Lru, EraseAndColdest) {
  LruMap<int, int> lru(3);
  lru.put(1, 10);
  lru.put(2, 20);
  ASSERT_NE(lru.coldest(), nullptr);
  EXPECT_EQ(lru.coldest()->first, 1);
  EXPECT_TRUE(lru.erase(1));
  EXPECT_FALSE(lru.erase(1));
  EXPECT_EQ(lru.coldest()->first, 2);
}

// ---------------------------------------------------------------- CRC32C

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  // "123456789"
  const char* digits = "123456789";
  EXPECT_EQ(crc32c({reinterpret_cast<const uint8_t*>(digits), 9}),
            0xe3069283u);
}

TEST(Crc32c, Rfc3720Vectors) {
  // The remaining RFC 3720 B.4 check values.
  std::vector<uint8_t> ones(32, 0xff);
  EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < 32; i++) ascending[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(crc32c(ascending), 0x46dd794eu);
  std::vector<uint8_t> descending(32);
  for (size_t i = 0; i < 32; i++) descending[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(crc32c(descending), 0x113fdb5cu);
}

TEST(Crc32c, SplitAnywhereMatchesOneShot) {
  // Chaining through the seed must equal the one-shot CRC for every split
  // point; the sweep drags the slicing-by-8 / hardware 8-byte inner loop
  // across every alignment and remainder length.
  Rng rng(13);
  Buffer data(100);
  rng.fill(data.mutable_data(), data.size());
  const uint32_t whole = crc32c(data.span());
  for (size_t cut = 0; cut <= data.size(); cut++) {
    const uint32_t head = crc32c({data.data(), cut});
    EXPECT_EQ(crc32c({data.data() + cut, data.size() - cut}, head), whole)
        << "cut " << cut;
  }
}

TEST(Crc32c, DetectsBitFlip) {
  Buffer b = Buffer::copy_of("some payload for checksum");
  const uint32_t before = crc32c(b.span());
  b.mutable_data()[5] ^= 0x40;
  EXPECT_NE(crc32c(b.span()), before);
}

TEST(Crc32c, SeedChaining) {
  Buffer whole = Buffer::copy_of("abcdefgh");
  // CRC of the whole differs from CRC of a part — sanity on seed plumbing.
  EXPECT_NE(crc32c(whole.span()), crc32c(whole.slice(0, 4).span()));
}

// ---------------------------------------------------------------- Options

TEST(Options, ParsesKeyValues) {
  const char* argv[] = {"prog", "alpha=1", "name=hello", "rate=2.5",
                        "flag=true", "hex=0x10"};
  Options o(6, const_cast<char**>(argv));
  EXPECT_TRUE(o.has("alpha"));
  EXPECT_FALSE(o.has("missing"));
  EXPECT_EQ(o.get_int("alpha", 0), 1);
  EXPECT_EQ(o.get("name", ""), "hello");
  EXPECT_DOUBLE_EQ(o.get_double("rate", 0.0), 2.5);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_EQ(o.get_int("hex", 0), 16);
  o.check_unused();  // everything queried: must not abort
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Options o(1, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("n", 42), 42);
  EXPECT_EQ(o.get("s", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(o.get_double("d", 1.5), 1.5);
  EXPECT_FALSE(o.get_bool("b", false));
  o.check_unused();
}

TEST(Options, BoolSpellings) {
  const char* argv[] = {"prog", "a=1", "b=yes", "c=true", "d=0", "e=no"};
  Options o(6, const_cast<char**>(argv));
  EXPECT_TRUE(o.get_bool("a", false));
  EXPECT_TRUE(o.get_bool("b", false));
  EXPECT_TRUE(o.get_bool("c", false));
  EXPECT_FALSE(o.get_bool("d", true));
  EXPECT_FALSE(o.get_bool("e", true));
  o.check_unused();
}

TEST(Options, ValueMayContainEquals) {
  const char* argv[] = {"prog", "expr=a=b"};
  Options o(2, const_cast<char**>(argv));
  EXPECT_EQ(o.get("expr", ""), "a=b");
  o.check_unused();
}

// ------------------------------------------------------------ ObjectName

std::vector<std::string> sample_names() {
  std::vector<std::string> out = {"", "a", "ab", "b", "vol.obj.1",
                                  "vol.obj.10", "vol.obj.2"};
  Rng rng(5);
  for (int i = 0; i < 200; i++) {
    std::string s(static_cast<size_t>(rng.below(70)), 'x');
    for (char& c : s) c = "0123456789abcdef"[rng.below(16)];
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ObjectName, HashesMatchTheBytesHashes) {
  for (const std::string& s : sample_names()) {
    const ObjectName n(s);
    EXPECT_EQ(n.hash(), std::hash<std::string_view>{}(s)) << s;
    EXPECT_EQ(n.hash(), std::hash<std::string>{}(s)) << s;
    EXPECT_EQ(std::hash<ObjectName>{}(n), n.hash()) << s;
    EXPECT_EQ(n.fnv(), fnv1a(std::string_view(s))) << s;
  }
  const ObjectName empty;
  EXPECT_EQ(empty.hash(), std::hash<std::string>{}(std::string()));
  EXPECT_EQ(empty.fnv(), fnv1a(std::string_view()));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty, ObjectName(""));
}

TEST(ObjectName, OrderingAndEqualityMatchStdString) {
  const auto names = sample_names();
  for (const std::string& a : names) {
    for (const std::string& b : names) {
      const ObjectName na(a);
      const ObjectName nb(b);
      EXPECT_EQ(na < nb, a < b) << a << " " << b;
      EXPECT_EQ(na == nb, a == b) << a << " " << b;
      EXPECT_EQ(na == b, a == b) << a << " " << b;
      EXPECT_EQ(na == std::string_view(b), a == b) << a << " " << b;
    }
  }
  // Keyed containers iterate as they did with string keys.
  std::map<ObjectKey, int> by_name;
  std::map<std::pair<PoolId, std::string>, int> by_string;
  for (size_t i = 0; i < names.size(); i++) {
    const PoolId pool = static_cast<PoolId>(i % 3);
    by_name[ObjectKey{pool, names[i]}] = static_cast<int>(i);
    by_string[{pool, names[i]}] = static_cast<int>(i);
  }
  std::vector<int> a;
  std::vector<int> b;
  for (const auto& [k, v] : by_name) a.push_back(v);
  for (const auto& [k, v] : by_string) b.push_back(v);
  EXPECT_EQ(a, b);
  std::unordered_set<ObjectName> hashed_names;
  std::unordered_set<std::string> hashed_strings;
  for (const std::string& s : names) {
    hashed_names.insert(ObjectName(s));
    hashed_strings.insert(s);
  }
  std::vector<std::string> ia(hashed_names.begin(), hashed_names.end());
  std::vector<std::string> ib(hashed_strings.begin(), hashed_strings.end());
  EXPECT_EQ(ia, ib);
}

TEST(ObjectName, CopiesShareStorage) {
  const ObjectName a(std::string(64, 'f'));
  const ObjectName b = a;
  ObjectName c;
  c = b;
  EXPECT_TRUE(b.shares_storage_with(a));
  EXPECT_TRUE(c.shares_storage_with(a));
  EXPECT_EQ(c.data(), a.data());
  const ObjectName d(std::string(64, 'f'));
  EXPECT_FALSE(d.shares_storage_with(a));
  EXPECT_EQ(d, a);
  ObjectName moved = std::move(c);
  EXPECT_TRUE(moved.shares_storage_with(a));
  EXPECT_TRUE(c.empty());  // NOLINT: moved-from names are empty
  const std::string& as_string = a;
  EXPECT_EQ(as_string, std::string(64, 'f'));
  EXPECT_EQ("x" + a, "x" + std::string(64, 'f'));
}

TEST(ObjectName, CopiesAcrossThreads) {
  // Exec-pool workers and parallel shard windows copy names: the refcount
  // must survive concurrent copies and drops of one name.
  const ObjectName shared(std::string(64, 'c'));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&shared] {
      std::vector<ObjectName> held;
      for (int i = 0; i < 20000; i++) {
        held.push_back(shared);
        if (held.size() > 16) held.clear();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared.str(), std::string(64, 'c'));
  EXPECT_EQ(ObjectName(shared), shared);
}

// -------------------------------------------------------- InlineFunction

// Counts live copies of itself, so a test sees every capture destroyed.
struct Token {
  explicit Token(int* live) : live(live) { ++*live; }
  Token(const Token& o) : live(o.live) { ++*live; }
  Token(Token&& o) noexcept : live(o.live) { ++*live; }
  ~Token() { --*live; }
  int* live;
};

TEST(InlineFunction, SmallCapturesInlineLargeOnHeapBothRun) {
  int live = 0;
  int ran = 0;
  {
    Token t(&live);
    InlineFunction<void(), 48> small = [t, &ran] { ran += 1; };
    std::array<char, 200> pad{};
    InlineFunction<void(), 48> big = [t, pad, &ran] { ran += 10 + pad[0]; };
    static_assert(InlineFunction<void(), 48>::stored_inline<Token>());
    static_assert(!InlineFunction<void(), 48>::stored_inline<decltype(pad)>());
    EXPECT_EQ(live, 3);
    InlineFunction<void(), 48> moved = std::move(small);
    EXPECT_FALSE(small);  // NOLINT: moved-from is empty
    EXPECT_EQ(live, 3);
    moved();
    big();
    EXPECT_EQ(ran, 11);
    moved = nullptr;
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 0);
  InlineFunction<int(int), 16> add = [](int x) { return x + 1; };
  EXPECT_EQ(add(41), 42);
  EXPECT_FALSE(InlineFunction<void()>(std::function<void()>()));
  EXPECT_FALSE(InlineFunction<void()>(nullptr));
}

TEST(InlineFunction, CapturesOfCancelledAndDroppedEventsAreDestroyed) {
  int live = 0;
  int ran = 0;
  std::array<char, 200> pad{};
  {
    Scheduler s;
    const Token t(&live);
    s.after(10, [t, &ran] { ran++; });
    const auto cancelled = s.after(20, [t, &ran] { ran += 100; });
    s.after(30, [t, pad, &ran] { ran += 100 + pad[0]; });  // heap-boxed
    s.after(40, [t, &ran] { ran += 100; });
    EXPECT_TRUE(s.cancel(cancelled));
    s.run_until(25);
    EXPECT_EQ(ran, 1);
    // The run event and the cancelled one are gone; two stay queued.
    EXPECT_EQ(live, 3);
    // Control-lane events, one run and one left queued.
    s.at(26, [t, &ran] { ran += 1000; });
    EXPECT_EQ(live, 4);
  }
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(live, 0);  // the scheduler's teardown destroyed the rest
}

TEST(InlineFunction, LostMessageDestroysItsDelivery) {
  int live = 0;
  Scheduler s;
  Network net(&s, 2, NetworkConfig{});
  net.set_drop_every(1);
  {
    const Token t(&live);
    net.send(0, 1, 100, [t] {});
  }
  EXPECT_EQ(live, 0);
  EXPECT_EQ(net.dropped_messages(), 1u);
}

}  // namespace
}  // namespace gdedup
