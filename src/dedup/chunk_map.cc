#include "dedup/chunk_map.h"

#include <algorithm>
#include <cstdio>

#include "common/encoding.h"
#include "hash/fingerprint.h"
#include "osd/object_store.h"

namespace gdedup {

namespace {
// Packed-entry flag byte: low bits mirror the legacy flags, high bits
// describe which optional fields follow.
constexpr uint8_t kPkCached = 1;
constexpr uint8_t kPkDirty = 2;
constexpr uint8_t kPkContainer = 4;
constexpr uint8_t kPkHasChunkOff = 8;
// Chunk-id kind in bits 4-5: 0 = empty (unflushed), 1 = binary
// fingerprint (algo byte + raw digest), 2 = verbatim string.
constexpr uint8_t kPkIdShift = 4;
constexpr uint8_t kPkIdMask = 0x30;
constexpr uint8_t kPkIdNone = 0;
constexpr uint8_t kPkIdFp = 1;
constexpr uint8_t kPkIdRaw = 2;

size_t algo_digest_len(FingerprintAlgo a) {
  switch (a) {
    case FingerprintAlgo::kSha1:
      return 20;
    case FingerprintAlgo::kSha256:
      return 32;
  }
  return 0;
}
}  // namespace

const ChunkMapEntry* ChunkMap::find(uint64_t offset) const {
  auto it = entries_.find(offset);
  return it == entries_.end() ? nullptr : &it->second;
}

ChunkMapEntry* ChunkMap::find(uint64_t offset) {
  auto it = entries_.find(offset);
  return it == entries_.end() ? nullptr : &it->second;
}

ChunkMapEntry& ChunkMap::obtain(uint64_t offset, uint32_t length) {
  ChunkMapEntry& e = entries_[offset];
  e.offset = offset;
  e.length = std::max(e.length, length);
  return e;
}

ChunkMapEntry& ChunkMap::put(ChunkMapEntry e) {
  const uint64_t offset = e.offset;
  auto [it, inserted] = entries_.try_emplace(offset);
  if (!inserted) count(it->second, -1);
  it->second = std::move(e);
  count(it->second, +1);
  return it->second;
}

bool ChunkMap::erase(uint64_t offset) {
  auto it = entries_.find(offset);
  if (it == entries_.end()) return false;
  count(it->second, -1);
  entries_.erase(it);
  return true;
}

void ChunkMap::set_cached(ChunkMapEntry& e, bool v) {
  count(e, -1);
  e.cached = v;
  count(e, +1);
}

void ChunkMap::set_dirty(ChunkMapEntry& e, bool v) {
  count(e, -1);
  e.dirty = v;
  count(e, +1);
}

uint64_t ChunkMap::logical_end() const {
  // Entries are keyed by offset and never overlap, so the last one ends
  // the map.
  if (entries_.empty()) return 0;
  const ChunkMapEntry& last = entries_.rbegin()->second;
  return last.offset + last.length;
}

Buffer ChunkMap::encode() const {
  Encoder e;
  e.put_u32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [off, ent] : entries_) {
    e.put_bytes(encode_entry(ent));
  }
  return e.finish();
}

std::string ChunkMap::omap_key(uint64_t offset) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s%016llx", kChunkEntryPrefix,
                static_cast<unsigned long long>(offset));
  return buf;
}

Buffer ChunkMap::encode_entry(const ChunkMapEntry& ent) {
  Encoder ee;
  ee.reserve(kEntryEncodedBytes);
  ee.put_u64(ent.offset);
  ee.put_u32(ent.length);
  ee.put_u8(static_cast<uint8_t>((ent.cached ? 1 : 0) | (ent.dirty ? 2 : 0) |
                                 (ent.container ? 4 : 0)));
  ee.put_string(ent.chunk_id);
  // Trailing container offset: encodes as zeros for ordinary chunks, which
  // is byte-identical to the fixed-footprint padding below — the on-disk
  // format (and the omap-bytes accounting the determinism digest folds in)
  // only changes for container members.
  ee.put_u64(ent.chunk_off);
  // Fixed per-entry footprint (the paper's 150 bytes per chunk entry).
  return ee.finish_padded(kEntryEncodedBytes);
}

Result<ChunkMapEntry> ChunkMap::decode_entry(const Buffer& b) {
  Decoder ed(b);
  ChunkMapEntry ent;
  uint8_t flags = 0;
  if (auto s = ed.get_u64(&ent.offset); !s.is_ok()) return s;
  if (auto s = ed.get_u32(&ent.length); !s.is_ok()) return s;
  if (auto s = ed.get_u8(&flags); !s.is_ok()) return s;
  std::string chunk_id;
  if (auto s = ed.get_string(&chunk_id); !s.is_ok()) return s;
  if (!chunk_id.empty()) ent.chunk_id = std::move(chunk_id);
  // Container offset rides after the chunk id; entries written before the
  // field existed (or handed to tests unpadded) decode it as absent = 0.
  if (auto s = ed.get_u64(&ent.chunk_off); !s.is_ok()) ent.chunk_off = 0;
  ent.cached = (flags & 1) != 0;
  ent.dirty = (flags & 2) != 0;
  ent.container = (flags & 4) != 0;
  return ent;
}

Buffer ChunkMap::encode_entry_packed(const ChunkMapEntry& ent) {
  Encoder ee;
  uint8_t flags = static_cast<uint8_t>((ent.cached ? kPkCached : 0) |
                                       (ent.dirty ? kPkDirty : 0) |
                                       (ent.container ? kPkContainer : 0));
  if (ent.chunk_off != 0) flags |= kPkHasChunkOff;
  auto fp = ent.chunk_id.empty() ? Result<Fingerprint>(Status::not_found(""))
                                 : Fingerprint::from_hex(ent.chunk_id);
  const uint8_t idkind = ent.chunk_id.empty() ? kPkIdNone
                         : fp.is_ok()        ? kPkIdFp
                                             : kPkIdRaw;
  flags |= static_cast<uint8_t>(idkind << kPkIdShift);
  ee.put_u8(flags);
  ee.put_varint(ent.offset);
  ee.put_varint(ent.length);
  if (idkind == kPkIdFp) {
    const Fingerprint& f = fp.value();
    ee.put_u8(static_cast<uint8_t>(f.algo()));
    for (uint8_t b : f.digest()) ee.put_u8(b);
  } else if (idkind == kPkIdRaw) {
    ee.put_varint(ent.chunk_id.size());
    for (char c : ent.chunk_id.str()) ee.put_u8(static_cast<uint8_t>(c));
  }
  if (ent.chunk_off != 0) ee.put_varint(ent.chunk_off);
  // Size is the legacy/packed format discriminator, so a packed entry
  // must never land on exactly the legacy footprint.
  if (ee.size() == kEntryEncodedBytes) ee.put_u8(0);
  return ee.finish();
}

Result<ChunkMapEntry> ChunkMap::decode_entry_packed(const Buffer& b) {
  Decoder ed(b);
  ChunkMapEntry ent;
  uint8_t flags = 0;
  uint64_t len = 0;
  if (auto s = ed.get_u8(&flags); !s.is_ok()) return s;
  if (auto s = ed.get_varint(&ent.offset); !s.is_ok()) return s;
  if (auto s = ed.get_varint(&len); !s.is_ok()) return s;
  ent.length = static_cast<uint32_t>(len);
  const uint8_t idkind = (flags & kPkIdMask) >> kPkIdShift;
  if (idkind == kPkIdFp) {
    uint8_t algo = 0;
    if (auto s = ed.get_u8(&algo); !s.is_ok()) return s;
    const size_t dlen = algo_digest_len(static_cast<FingerprintAlgo>(algo));
    if (dlen == 0 || ed.remaining() < dlen) {
      return Status::corruption("bad packed fingerprint");
    }
    std::string hx(fingerprint_algo_name(static_cast<FingerprintAlgo>(algo)));
    hx.push_back(':');
    static const char* kHex = "0123456789abcdef";
    for (size_t i = 0; i < dlen; i++) {
      uint8_t byte = 0;
      if (auto s = ed.get_u8(&byte); !s.is_ok()) return s;
      hx.push_back(kHex[byte >> 4]);
      hx.push_back(kHex[byte & 0xf]);
    }
    ent.chunk_id = std::move(hx);
  } else if (idkind == kPkIdRaw) {
    uint64_t n = 0;
    if (auto s = ed.get_varint(&n); !s.is_ok()) return s;
    if (ed.remaining() < n) return Status::corruption("short packed id");
    std::string id;
    id.reserve(n);
    for (uint64_t i = 0; i < n; i++) {
      uint8_t c = 0;
      if (auto s = ed.get_u8(&c); !s.is_ok()) return s;
      id.push_back(static_cast<char>(c));
    }
    ent.chunk_id = std::move(id);
  } else if (idkind != kPkIdNone) {
    return Status::corruption("bad packed id kind");
  }
  if (flags & kPkHasChunkOff) {
    if (auto s = ed.get_varint(&ent.chunk_off); !s.is_ok()) return s;
  }
  ent.cached = (flags & kPkCached) != 0;
  ent.dirty = (flags & kPkDirty) != 0;
  ent.container = (flags & kPkContainer) != 0;
  return ent;
}

Result<ChunkMapEntry> ChunkMap::decode_entry_auto(const Buffer& b) {
  // The packed encoder guarantees it never emits kEntryEncodedBytes.
  if (b.size() == kEntryEncodedBytes) return decode_entry(b);
  return decode_entry_packed(b);
}

std::string RecipeRecord::omap_key(uint64_t base) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s%016llx", kRecipeRecordPrefix,
                static_cast<unsigned long long>(base));
  return buf;
}

Buffer RecipeRecord::encode() const {
  Encoder e;
  e.put_u8(1);  // version
  e.put_varint(static_cast<uint64_t>(chunk_pool));
  e.put_varint(base);
  e.put_varint(count);
  // Recipe chunk ids are always fingerprint hex (the content address of
  // the packed window); store them binary like packed entries do.
  auto fp = Fingerprint::from_hex(chunk_id);
  if (fp.is_ok()) {
    e.put_u8(1);
    e.put_u8(static_cast<uint8_t>(fp.value().algo()));
    for (uint8_t b : fp.value().digest()) e.put_u8(b);
  } else {
    e.put_u8(2);
    e.put_string(chunk_id);
  }
  return e.finish();
}

Result<RecipeRecord> RecipeRecord::decode(const Buffer& b) {
  Decoder d(b);
  RecipeRecord r;
  uint8_t ver = 0;
  if (auto s = d.get_u8(&ver); !s.is_ok()) return s;
  if (ver != 1) return Status::corruption("bad recipe record version");
  uint64_t pool = 0, count = 0;
  if (auto s = d.get_varint(&pool); !s.is_ok()) return s;
  if (auto s = d.get_varint(&r.base); !s.is_ok()) return s;
  if (auto s = d.get_varint(&count); !s.is_ok()) return s;
  r.chunk_pool = static_cast<PoolId>(pool);
  r.count = static_cast<uint32_t>(count);
  uint8_t idkind = 0;
  if (auto s = d.get_u8(&idkind); !s.is_ok()) return s;
  if (idkind == 1) {
    uint8_t algo = 0;
    if (auto s = d.get_u8(&algo); !s.is_ok()) return s;
    const size_t dlen = algo_digest_len(static_cast<FingerprintAlgo>(algo));
    if (dlen == 0 || d.remaining() < dlen) {
      return Status::corruption("bad recipe fingerprint");
    }
    std::string hx(fingerprint_algo_name(static_cast<FingerprintAlgo>(algo)));
    hx.push_back(':');
    static const char* kHex = "0123456789abcdef";
    for (size_t i = 0; i < dlen; i++) {
      uint8_t byte = 0;
      if (auto s = d.get_u8(&byte); !s.is_ok()) return s;
      hx.push_back(kHex[byte >> 4]);
      hx.push_back(kHex[byte & 0xf]);
    }
    r.chunk_id = std::move(hx);
  } else if (idkind == 2) {
    if (auto s = d.get_string(&r.chunk_id); !s.is_ok()) return s;
  } else {
    return Status::corruption("bad recipe id kind");
  }
  return r;
}

Result<ChunkMap> load_chunk_map(const ObjectStore& store,
                                const ObjectKey& key) {
  ChunkMap cm;
  for (const auto& [k, v] : store.omap_list(key, kChunkEntryPrefix)) {
    auto ent = ChunkMap::decode_entry_auto(v);
    if (!ent.is_ok()) return ent.status();
    ChunkMapEntry e = std::move(ent).value();
    e.inline_rec = true;
    cm.put(std::move(e));
  }
  return cm;
}

Result<ChunkMap> ChunkMap::decode(const Buffer& b) {
  ChunkMap cm;
  Decoder d(b);
  uint32_t n = 0;
  if (auto s = d.get_u32(&n); !s.is_ok()) return s;
  for (uint32_t i = 0; i < n; i++) {
    Buffer padded;
    if (auto s = d.get_bytes(&padded); !s.is_ok()) return s;
    auto ent = decode_entry(padded);
    if (!ent.is_ok()) return ent.status();
    cm.put(std::move(ent).value());
  }
  return cm;
}

}  // namespace gdedup
