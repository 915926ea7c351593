#pragma once

// The chunk map — the metadata half of the paper's self-contained object.
//
// Stored as an xattr *inside* the metadata object it describes (Figure 8),
// so replication, erasure coding and recovery carry it along with the data
// for free.  Each entry maps an offset range of the user-visible object to
// a chunk object (by content-derived OID) plus the cached/dirty state bits
// that drive the post-processing engine:
//
//   cached  — the chunk's bytes are present in this object's data part
//   dirty   — the chunk has writes not yet flushed to the chunk pool
//
// Entries encode to a fixed 150 bytes, the per-entry footprint the paper
// reports (Section 5), so the Table 2 metadata-overhead accounting matches.

#include <cstdint>
#include <map>
#include <string>

#include "common/buffer.h"
#include "common/status.h"

namespace gdedup {

class ObjectStore;
struct ObjectKey;

// Whole-map xattr (legacy wire form; kept for snapshot-style encodes).
inline constexpr const char* kChunkMapXattr = "dedup.chunkmap";
// Per-entry omap keys: "dedup.ck.<offset hex>".  Persisting entries
// individually means a small write updates ~150 bytes of metadata, not
// the whole map — the same reason Ceph keeps per-chunk state in omap.
inline constexpr const char* kChunkEntryPrefix = "dedup.ck.";
// Recipe-record omap keys: "dedup.rcp.<window base hex>".  Each record
// names a content-addressed recipe chunk in the chunk pool holding the
// packed entries of one fixed offset-aligned window (Metadedup-style
// metadata indirection).  Inline "dedup.ck." entries overlay the recipe
// content: an inline entry for an offset always wins over the recipe's
// copy, so recipes never need rewriting to absorb a single hot slot.
inline constexpr const char* kRecipeRecordPrefix = "dedup.rcp.";
// Refs a recipe chunk carries use the window base with this bit set as
// the ref offset, so recipe refs can never collide with data-slot refs
// (logical object offsets stay far below 2^63).
inline constexpr uint64_t kRecipeRefBit = 1ULL << 63;

struct ChunkMapEntry {
  uint64_t offset = 0;
  uint32_t length = 0;
  std::string chunk_id;  // fingerprint-hex OID; empty until first flush
  bool cached = false;
  bool dirty = false;
  // Offset of this slot's bytes inside the chunk object.  0 for ordinary
  // chunks (the chunk object IS the slot content); nonzero only for slots
  // the selective-rewrite pass coalesced into a shared container object.
  // Encodes as trailing zeros when 0, so default-mode omap bytes are
  // byte-identical to the pre-container format.
  uint64_t chunk_off = 0;
  // Slot is a member of a rewrite container (chunk_id names the container
  // object; chunk_off locates the slot inside it).  Container members are
  // never re-selected by the rewrite pass.
  bool container = false;
  // Volatile (not encoded): bumped on every dirtying write, so a flush
  // can detect that newer data landed while it was in flight.
  uint64_t dirty_gen = 0;
  // Volatile (not encoded): this entry has an inline "dedup.ck." omap
  // record on disk.  False only for entries materialized purely from a
  // recipe chunk; the recipe compactor uses it to count the inline tail
  // and to know which shadow records a rebuild may drop.
  bool inline_rec = false;

  bool flushed() const { return !chunk_id.empty(); }
};

// One persisted recipe record: the entries of window [base, base+span)
// live packed inside recipe chunk `chunk_id` in `chunk_pool`.
struct RecipeRecord {
  uint64_t base = 0;
  uint32_t count = 0;       // member entries at write time
  int chunk_pool = -1;      // PoolId of the recipe chunk object's pool
                            // (plain int: this header predates osd types)
  std::string chunk_id;     // fingerprint-hex OID of the recipe chunk

  static std::string omap_key(uint64_t base);
  Buffer encode() const;
  static Result<RecipeRecord> decode(const Buffer& b);
};

class ChunkMap {
 public:
  // Fixed on-disk entry footprint (paper Section 5: "each chunk entry in
  // chunk map uses 150 bytes").
  static constexpr size_t kEntryEncodedBytes = 150;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  const ChunkMapEntry* find(uint64_t offset) const;
  ChunkMapEntry* find(uint64_t offset);

  // Get-or-create the entry at `offset`; `length` updates the stored
  // length (chunk growth when the object's tail extends).
  ChunkMapEntry& obtain(uint64_t offset, uint32_t length);

  bool erase(uint64_t offset);

  bool any_dirty() const;
  uint64_t logical_end() const;  // max(offset + length), in O(1)

  std::map<uint64_t, ChunkMapEntry>& entries() { return entries_; }
  const std::map<uint64_t, ChunkMapEntry>& entries() const { return entries_; }

  Buffer encode() const;
  static Result<ChunkMap> decode(const Buffer& b);

  // Per-entry persistence (omap form).
  static std::string omap_key(uint64_t offset);
  static Buffer encode_entry(const ChunkMapEntry& e);
  static Result<ChunkMapEntry> decode_entry(const Buffer& b);

  // Varint-packed entry form (recipe mode).  A dirty unflushed entry
  // packs to ~6 bytes and a flushed sha256 entry to ~40, vs the fixed
  // 150-byte legacy form.  The packed encoder never emits exactly
  // kEntryEncodedBytes (it pads by one byte if it would), so
  // decode_entry_auto can dispatch on value size alone and legacy
  // records written before the feature flipped on keep decoding.
  static Buffer encode_entry_packed(const ChunkMapEntry& e);
  static Result<ChunkMapEntry> decode_entry_packed(const Buffer& b);
  static Result<ChunkMapEntry> decode_entry_auto(const Buffer& b);

  // Recipe records loaded from / destined for this object's omap, keyed
  // by window base.  Populated only by the recipe-aware loader.
  std::map<uint64_t, RecipeRecord>& recipes() { return recipes_; }
  const std::map<uint64_t, RecipeRecord>& recipes() const { return recipes_; }

  // Set when the recipe-aware loader could not fetch some recipe chunk
  // (e.g. every holder down).  Consumers that enumerate refs must treat
  // the map as incomplete and act conservatively.
  bool unresolved() const { return unresolved_; }
  void set_unresolved(bool v) { unresolved_ = v; }

 private:
  std::map<uint64_t, ChunkMapEntry> entries_;
  std::map<uint64_t, RecipeRecord> recipes_;
  bool unresolved_ = false;
};

// Load a chunk map from an object's per-entry omap records.
Result<ChunkMap> load_chunk_map(const ObjectStore& store,
                                const ObjectKey& key);

}  // namespace gdedup
