#pragma once

// Node-local fingerprint index — tier 1 of the two-tier fingerprint fast
// path (tier 0 is the COW-generation memo in fingerprint_cache.h).
//
// Maps the weak 64-bit content hash (hash/weak_hash.h) of recently
// fingerprinted chunks to their full SHA fingerprint *and* their real
// bytes.  A probe verifies the candidate by byte comparison before
// trusting it, so weak-hash collisions can never leak a wrong fingerprint
// into a chunk OID: a collision fails verification and falls back to the
// full SHA (the collision-injection test forces exactly this).  A hit
// costs the weak hash plus a memcmp, each about one pass over the bytes,
// where SHA-256 of a 32 KiB chunk costs some 30x that even with SHA-NI;
// that is the saving on dedup-heavy workloads.  A miss costs the weak
// hash and a Bloom probe.
//
// Shape: sharded by the low bits of the weak hash; each shard is an LRU
// of weak64 -> {content, fingerprint} plus a Bloom filter so the common
// unique-chunk case (negative lookup) answers without touching the map.
// Bloom filters cannot delete, so each shard rebuilds its filter from the
// surviving LRU keys once insertions outnumber capacity enough to degrade
// the false-positive rate.  Capacity is bounded both by entry count and
// by retained content bytes — entries pin their chunk's Buffer (cheap
// when the store read was zero-copy, a real copy after overlay merges).
//
// Concurrency: one index per storage node, shared by that node's OSD
// tiers.  The event engine runs every event of a node on that node's
// shard (DESIGN.md §9), and probes/inserts happen only from tier code on
// the owning node's event thread — never from exec-pool workers — so the
// index is thread-confined and lock-free by construction.  Index state
// feeds *host-side* decisions only (whether to run the SHA kernel); the
// verified fingerprint is identical either way, so nothing virtual-time
// observable depends on its contents.

#include <cstdint>
#include <vector>

#include "common/bloom_filter.h"
#include "common/buffer.h"
#include "common/lru.h"
#include "hash/fingerprint.h"

namespace gdedup {

class FingerprintIndex {
 public:
  struct Config {
    size_t max_entries = 8192;         // across all shards
    uint64_t max_bytes = 48ull << 20;  // retained chunk content cap
    int shards = 4;
    double bloom_fp_rate = 0.01;
  };

  // Probe outcome, most interesting first.  The caller (the tier) maps
  // these onto its per-entity perf counters; the index also keeps its own
  // totals for standalone use (bench_fp_lookup).
  enum class Outcome {
    kVerifiedHit,    // candidate found, bytes equal: fingerprint returned
    kCollision,      // candidate found, bytes differ: full SHA required
    kMiss,           // no candidate under this weak hash
    kBloomNegative,  // filter proved absence without a map lookup
  };

  struct Stats {
    uint64_t probes = 0;
    uint64_t verified_hits = 0;
    uint64_t collisions = 0;
    uint64_t misses = 0;           // map misses (bloom negatives included)
    uint64_t bloom_negatives = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t bloom_rebuilds = 0;
    uint64_t bloom_rebuild_keys = 0;  // keys re-inserted across rebuilds
  };

  // Modeled cost of the rebuilds so far, in ns: keys re-inserted times a
  // fixed per-key constant.  Deterministic by construction (a wall-clock
  // measurement would differ run to run and across shard/thread counts),
  // which is what lets the telemetry timeline stay byte-identical.
  static constexpr uint64_t kBloomRebuildNsPerKey = 50;
  uint64_t bloom_rebuild_cost_ns() const {
    return stats_.bloom_rebuild_keys * kBloomRebuildNsPerKey;
  }

  struct ProbeResult {
    Outcome outcome = Outcome::kMiss;
    const Fingerprint* fp = nullptr;  // valid only on kVerifiedHit, and
                                      // only until the next insert()
    bool hit() const { return fp != nullptr; }
  };

  FingerprintIndex();  // default Config
  explicit FingerprintIndex(Config cfg);

  ProbeResult probe(uint64_t weak, const Buffer& content);
  void insert(uint64_t weak, const Buffer& content, const Fingerprint& fp);

  const Stats& stats() const { return stats_; }
  size_t size() const;
  uint64_t retained_bytes() const;
  void clear();

 private:
  struct Entry {
    Buffer content;
    Fingerprint fp;
  };
  struct Shard {
    LruMap<uint64_t, Entry> lru;
    BloomFilter bloom;
    uint64_t bytes = 0;
    uint64_t bloom_inserts = 0;

    Shard(size_t cap, double fp_rate)
        : lru(cap), bloom(cap, fp_rate) {}
  };

  Shard& shard_of(uint64_t weak) {
    return shards_[weak & (shards_.size() - 1)];
  }
  void maybe_rebuild_bloom(Shard& s);

  Config cfg_;
  size_t shard_entry_cap_;
  uint64_t shard_byte_cap_;
  std::vector<Shard> shards_;
  Stats stats_;
};

}  // namespace gdedup
