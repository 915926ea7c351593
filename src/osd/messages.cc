#include "osd/messages.h"

#include <cassert>
#include <cstring>

#include "common/encoding.h"

namespace gdedup {

std::string_view osd_op_type_name(OsdOpType t) {
  switch (t) {
    case OsdOpType::kRead:
      return "read";
    case OsdOpType::kWrite:
      return "write";
    case OsdOpType::kWriteFull:
      return "write_full";
    case OsdOpType::kRemove:
      return "remove";
    case OsdOpType::kStat:
      return "stat";
    case OsdOpType::kGetXattr:
      return "getxattr";
    case OsdOpType::kSetXattr:
      return "setxattr";
    case OsdOpType::kChunkPutRef:
      return "chunk_put_ref";
    case OsdOpType::kChunkDeref:
      return "chunk_deref";
    case OsdOpType::kSubWrite:
      return "sub_write";
    case OsdOpType::kShardRead:
      return "shard_read";
    case OsdOpType::kPull:
      return "pull";
    case OsdOpType::kPush:
      return "push";
  }
  return "unknown";
}

Buffer encode_refs(const std::vector<ChunkRef>& refs) {
  return append_refs(Buffer(), refs, 0);
}

Buffer append_refs(const Buffer& stored, const std::vector<ChunkRef>& refs,
                   size_t from) {
  // Layout (little-endian, as Encoder writes it): u32 count, then per ref
  // u32 pool, u32 oid length, oid bytes, u64 offset.
  assert(from <= refs.size() && (from == 0 || !stored.empty()));
  const size_t head = stored.empty() ? sizeof(uint32_t) : stored.size();
  size_t len = head;
  for (size_t i = from; i < refs.size(); i++) len += 16 + refs[i].oid.size();
  Buffer out(len);
  uint8_t* p = out.mutable_data();
  if (!stored.empty()) std::memcpy(p, stored.data(), stored.size());
  size_t pos = head;
  auto put = [&](const void* src, size_t n) {
    std::memcpy(p + pos, src, n);
    pos += n;
  };
  for (size_t i = from; i < refs.size(); i++) {
    const ChunkRef& r = refs[i];
    const auto pool = static_cast<uint32_t>(r.pool);
    const auto n = static_cast<uint32_t>(r.oid.size());
    put(&pool, sizeof pool);
    put(&n, sizeof n);
    put(r.oid.data(), n);
    put(&r.offset, sizeof r.offset);
  }
  const auto count = static_cast<uint32_t>(refs.size());
  std::memcpy(p, &count, sizeof count);
  return out;
}

Result<std::vector<ChunkRef>> decode_refs(const Buffer& b) {
  Decoder d(b);
  uint32_t n = 0;
  if (auto s = d.get_u32(&n); !s.is_ok()) return s;
  std::vector<ChunkRef> refs;
  refs.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    ChunkRef r;
    uint32_t pool = 0;
    if (auto s = d.get_u32(&pool); !s.is_ok()) return s;
    r.pool = static_cast<PoolId>(pool);
    if (auto s = d.get_string(&r.oid); !s.is_ok()) return s;
    if (auto s = d.get_u64(&r.offset); !s.is_ok()) return s;
    refs.push_back(std::move(r));
  }
  return refs;
}

uint64_t object_state_bytes(const ObjectState& st) {
  uint64_t n = st.data.stored_bytes();
  for (const auto& [k, v] : st.xattrs) n += k.size() + v.size();
  for (const auto& [k, v] : st.omap) n += k.size() + v.size();
  return n + 64;
}

uint64_t OsdOp::wire_bytes() const {
  uint64_t n = 64 + oid.size() + name.size();  // op header
  n += data.size();
  if (txn) n += txn->byte_size();
  if (state) n += object_state_bytes(*state);
  if (type == OsdOpType::kChunkPutRef || type == OsdOpType::kChunkDeref) {
    n += 16 + ref.oid.size();
    for (const auto& r : extra_refs) n += 16 + r.oid.size();
  }
  return n;
}

uint64_t OsdOpReply::wire_bytes() const {
  uint64_t n = 32 + data.size();
  for (const auto& [k, v] : attrs) n += k.size() + v.size();
  if (state) n += object_state_bytes(*state);
  return n;
}

}  // namespace gdedup
