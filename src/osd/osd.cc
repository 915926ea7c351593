#include "osd/osd.h"

#include <algorithm>
#include <cassert>

#include "common/crc32.h"
#include "common/encoding.h"
#include "common/logging.h"
#include "ec/reed_solomon.h"
#include "obs/op_tracker.h"

namespace gdedup {

namespace {

constexpr const char* kEcShardXattr = "ec.shard";
constexpr const char* kEcOrigLenXattr = "ec.orig_len";

// Encoder's fixed-width layout, written straight into one allocation.
Buffer encode_u32(uint32_t v) { return Buffer::copy_of(&v, sizeof v); }
Buffer encode_u64(uint64_t v) { return Buffer::copy_of(&v, sizeof v); }

Result<uint64_t> decode_u64(const Buffer& b) {
  Decoder d(b);
  uint64_t v = 0;
  if (auto s = d.get_u64(&v); !s.is_ok()) return s;
  return v;
}

// Shared completion barrier: runs `done(worst_status)` after `expected`
// arms have completed.
struct Barrier {
  int remaining;
  Status worst;
  StatusFn done;

  void arrive(Status s) {
    if (!s.is_ok() && worst.is_ok()) worst = s;
    if (--remaining == 0) done(worst);
  }
};

}  // namespace

const char* osd_failure_point_name(OsdFailurePoint p) {
  switch (p) {
    case OsdFailurePoint::kBeforeReplicatedFanout:
      return "before_replicated_fanout";
    case OsdFailurePoint::kAfterLocalApply:
      return "after_local_apply";
    case OsdFailurePoint::kBeforeSubWriteApply:
      return "before_sub_write_apply";
    case OsdFailurePoint::kBeforeRecoveryPull:
      return "before_recovery_pull";
    case OsdFailurePoint::kBeforeChunkRefWrite:
      return "before_chunk_ref_write";
  }
  return "?";
}

Osd::Osd(ClusterContext* ctx, OsdId id, NodeId node, const SsdConfig& disk_cfg)
    : ctx_(ctx), id_(id), node_(node), disk_(&ctx->sched(), disk_cfg) {
  obs::PerfCountersBuilder b("osd." + std::to_string(id), l_osd_first,
                             l_osd_last);
  b.add_counter(l_osd_client_ops, "client_ops");
  b.add_counter(l_osd_reads, "reads");
  b.add_counter(l_osd_writes, "writes");
  b.add_counter(l_osd_sub_writes, "sub_writes");
  b.add_counter(l_osd_chunk_puts, "chunk_puts");
  b.add_counter(l_osd_chunk_created, "chunk_created");
  b.add_counter(l_osd_chunk_dedup_hits, "chunk_dedup_hits");
  b.add_counter(l_osd_chunk_derefs, "chunk_derefs");
  b.add_counter(l_osd_chunks_reclaimed, "chunks_reclaimed");
  b.add_counter(l_osd_pulls, "pulls");
  b.add_counter(l_osd_pushes, "pushes");
  b.add_histogram(l_osd_op_r_lat, "op_r_lat");
  b.add_histogram(l_osd_op_w_lat, "op_w_lat");
  b.add_counter(l_osd_bytes_zero_copied, "bytes_zero_copied");
  b.add_counter(l_osd_crc_verifies, "crc_verifies");
  b.add_counter(l_osd_crc_verify_failures, "crc_verify_failures");
  b.add_counter(l_osd_meta_bytes_read, "meta_bytes_read");
  b.add_counter(l_osd_meta_bytes_written, "meta_bytes_written");
  b.add_counter(l_osd_refs_decodes, "refs_decodes");
  b.add_counter(l_osd_refs_cache_hits, "refs_cache_hits");
  perf_ = b.create();
  if (auto* reg = ctx_->perf_registry()) reg->add(perf_);
}

bool Osd::fail_at(OsdFailurePoint p, PoolId pool, const ObjectName& oid) {
  // Only fault campaigns arm a hook; build its key only then.
  if (!failure_hook_ || !failure_hook_(p, ObjectKey{pool, oid})) return false;
  injected_crashes_++;
  // Self-crash with kill -9 semantics.  Cluster-level cleanup (stopping
  // tier services, scheduling the restart) belongs to whoever armed the
  // hook — this layer only knows about the OSD itself.
  drop_when_down_ = true;
  up_ = false;
  ctx_->osdmap().mark_down(id_);
  reset_volatile();
  return true;
}

void Osd::reset_volatile() {
  // The live queues are empty immediately.  The parked ops are buried by
  // a zero-delay event after the stack unwinds, scheduled whenever any
  // object was busy.
  auto graveyard = std::make_shared<std::vector<OpQueue::Parked>>();
  const bool chunk_busy = chunk_op_queue_.reset(graveyard.get());
  const bool ec_busy = ec_write_queue_.reset(graveyard.get());
  if (chunk_busy || ec_busy) {
    ctx_->sched().after(0, [graveyard] {});
  }
}

ObjectStore& Osd::store(PoolId pool) {
  // First touch creates the store; a cross-shard store_if_exists during a
  // parallel window must not race the map insert.
  MaybeUniqueLock g(stores_mu_);
  auto it = stores_.find(pool);
  if (it == stores_.end()) {
    const bool compress = ctx_->osdmap().pool(pool).compress_at_rest;
    it = stores_.emplace(pool, std::make_unique<ObjectStore>(compress)).first;
    it->second->set_exec_pool(ctx_->exec_pool());
  }
  return *it->second;
}

const ObjectStore* Osd::store_if_exists(PoolId pool) const {
  MaybeSharedLock g(stores_mu_);
  auto it = stores_.find(pool);
  return it == stores_.end() ? nullptr : it->second.get();
}

void Osd::set_tier(PoolId pool, std::unique_ptr<TierService> tier) {
  tiers_[pool] = std::move(tier);
}

TierService* Osd::tier(PoolId pool) {
  auto it = tiers_.find(pool);
  return it == tiers_.end() ? nullptr : it->second.get();
}

Result<Buffer> Osd::local_getxattr(PoolId pool, const ObjectName& oid,
                                   const std::string& name) const {
  const ObjectStore* st = store_if_exists(pool);
  if (st == nullptr) return Status::not_found(oid);
  return st->getxattr({pool, oid}, name);
}

bool Osd::local_exists(PoolId pool, const ObjectName& oid) const {
  const ObjectStore* st = store_if_exists(pool);
  return st != nullptr && st->find({pool, oid}) != nullptr;
}

namespace {

// The reply wrapper of a hop: send `rep` back to the sender's node, where
// the hop's continuation gets it.
void send_reply(std::unique_ptr<OsdOpHop> hop, OsdOpReply rep) {
  const uint64_t rep_bytes = rep.wire_bytes();
  hop->rep = std::move(rep);
  OsdOpHop* h = hop.get();
  h->ctx->net().send(h->to, h->from, rep_bytes,
                     [hop = std::move(hop)]() mutable {
                       hop->cb(std::move(hop->rep));
                     });
}

ReplyFn reply_wrapper(std::unique_ptr<OsdOpHop> hop) {
  return [hop = std::move(hop)](OsdOpReply rep) mutable {
    send_reply(std::move(hop), std::move(rep));
  };
}

}  // namespace

void Osd::handle_op(std::unique_ptr<OsdOpHop> hop) {
  if (!up_) {
    if (!drop_when_down_) {
      ctx_->sched().after(usec(1), [hop = std::move(hop)]() mutable {
        send_reply(std::move(hop), OsdOpReply{Status::unavailable("osd down"),
                                              {}, 0, {}, nullptr});
      });
    }
    return;  // crashed: message silently lost
  }
  const OsdOp& op = hop->op;

  // Request-processing CPU: fixed dispatch cost + checksumming of payload.
  // The virtual CRC cost has always been charged here; with a parallel
  // exec pool the checksum is now really computed — a worker overlaps it
  // with the virtual delay, and the result rides on the op so downstream
  // dedup hits can cross-check payload-vs-stored-chunk integrity.  Gated
  // on parallel(): serial runs keep the checksum virtual-only, exactly
  // the pre-offload event-loop work.
  KernelFuture<uint32_t> crc;
  ExecPool* xp = ctx_->exec_pool();
  if (xp != nullptr && xp->parallel() && !op.data.empty()) {
    Buffer payload = op.data;
    crc = kernel_async<uint32_t>(xp, Kernel::kCrc, [payload = std::move(
                                                        payload)] {
      return crc32c(payload.span());
    });
  }
  const SimTime cost =
      cpu().op_fixed_cost() + cpu().crc_cost(op.data.size());
  cpu().execute(cost, [this, hop = std::move(hop),
                       crc = std::move(crc)]() mutable {
    OsdOp op = std::move(hop->op);
    if (crc.valid()) {
      op.payload_crc = crc.take();
      op.has_payload_crc = true;
    }
    dispatch(std::move(op), reply_wrapper(std::move(hop)));
  });
}

void Osd::dispatch(OsdOp op, ReplyFn reply) {
  const bool client_facing =
      op.type == OsdOpType::kRead || op.type == OsdOpType::kWrite ||
      op.type == OsdOpType::kWriteFull || op.type == OsdOpType::kRemove ||
      op.type == OsdOpType::kStat || op.type == OsdOpType::kGetXattr ||
      op.type == OsdOpType::kSetXattr;
  if (client_facing) {
    perf_->inc(l_osd_client_ops);
    if (op.foreground) {
      fg_window_.advance(ctx_->sched().now());
      fg_window_.add(ctx_->sched().now());
    }
    // End-to-end OSD-side data-op latency (covers the tier path too).
    if (op.type == OsdOpType::kRead || op.type == OsdOpType::kWrite ||
        op.type == OsdOpType::kWriteFull) {
      const int idx =
          op.type == OsdOpType::kRead ? l_osd_op_r_lat : l_osd_op_w_lat;
      Scheduler* sched = &ctx_->sched();
      const SimTime t0 = sched->now();
      reply = [perf = perf_, idx, t0, sched,
               inner = std::move(reply)](OsdOpReply rep) {
        perf->record(idx, static_cast<uint64_t>(sched->now() - t0));
        inner(std::move(rep));
      };
    }
  }

  // Dedup tier interposes on client data ops for its pool.
  if (client_facing && ctx_->osdmap().pool(op.pool).dedup.enabled()) {
    TierService* t = tier(op.pool);
    if (t != nullptr) {
      if (op.type == OsdOpType::kRead) {
        t->handle_read(op, std::move(reply));
        return;
      }
      if (op.type == OsdOpType::kWrite || op.type == OsdOpType::kWriteFull) {
        t->handle_write(op, std::move(reply));
        return;
      }
      if (op.type == OsdOpType::kRemove) {
        t->handle_remove(op, std::move(reply));
        return;
      }
    }
  }

  switch (op.type) {
    case OsdOpType::kRead:
      handle_read(op, std::move(reply));
      break;
    case OsdOpType::kWrite:
    case OsdOpType::kWriteFull:
      handle_write(op, std::move(reply));
      break;
    case OsdOpType::kRemove:
      handle_remove(op, std::move(reply));
      break;
    case OsdOpType::kStat:
      handle_stat(op, std::move(reply));
      break;
    case OsdOpType::kGetXattr:
      handle_getxattr(op, std::move(reply));
      break;
    case OsdOpType::kSetXattr:
      handle_setxattr(op, std::move(reply));
      break;
    case OsdOpType::kSubWrite:
      handle_sub_write(op, std::move(reply));
      break;
    case OsdOpType::kShardRead:
      handle_shard_read(op, std::move(reply));
      break;
    case OsdOpType::kPull:
      handle_pull(op, std::move(reply));
      break;
    case OsdOpType::kPush:
      handle_push(op, std::move(reply));
      break;
    case OsdOpType::kChunkPutRef:
      handle_chunk_put_ref(op, std::move(reply));
      break;
    case OsdOpType::kChunkDeref:
      handle_chunk_deref(op, std::move(reply));
      break;
  }
}

// ------------------------------------------------------------- plain ops

void Osd::handle_read(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_osd_reads);
  submit_read(op.pool, op.oid, op.off, op.len,
              [reply = std::move(reply)](Result<Buffer> r) {
                if (!r.is_ok()) {
                  reply(OsdOpReply{r.status(), {}, 0, {}, nullptr});
                } else {
                  reply(OsdOpReply{Status::ok(), std::move(r).value(), 0, {},
                                   nullptr});
                }
              },
              op.foreground);
}

void Osd::handle_write(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_osd_writes);
  Transaction txn;
  const ObjectKey key{op.pool, op.oid};
  if (op.type == OsdOpType::kWriteFull) {
    txn.write_full(key, op.data);
  } else {
    txn.write(key, op.off, op.data);
  }
  submit_write(op.pool, op.oid, std::move(txn),
               [reply = std::move(reply)](Status s) {
                 reply(OsdOpReply{s, {}, 0, {}, nullptr});
               },
               op.foreground);
}

void Osd::handle_remove(const OsdOp& op, ReplyFn reply) {
  submit_remove(op.pool, op.oid,
                [reply = std::move(reply)](Status s) {
                  reply(OsdOpReply{s, {}, 0, {}, nullptr});
                },
                op.foreground);
}

void Osd::handle_stat(const OsdOp& op, ReplyFn reply) {
  OsdOpReply rep;
  auto r = store(op.pool).size({op.pool, op.oid});
  if (r.is_ok()) {
    rep.size = r.value();
  } else {
    rep.status = r.status();
  }
  reply(std::move(rep));
}

void Osd::handle_getxattr(const OsdOp& op, ReplyFn reply) {
  OsdOpReply rep;
  auto r = store(op.pool).getxattr({op.pool, op.oid}, op.name);
  if (r.is_ok()) {
    rep.data = std::move(r).value();
  } else {
    rep.status = r.status();
  }
  reply(std::move(rep));
}

void Osd::handle_setxattr(const OsdOp& op, ReplyFn reply) {
  Transaction txn;
  txn.setxattr({op.pool, op.oid}, op.name, op.data);
  submit_write(op.pool, op.oid, std::move(txn),
               [reply = std::move(reply)](Status s) {
                 reply(OsdOpReply{s, {}, 0, {}, nullptr});
               },
               op.foreground);
}

template <typename Done>
void Osd::local_apply(PoolId pool, std::shared_ptr<const Transaction> txn,
                      Done done) {
  const uint64_t bytes = txn->byte_size();
  // Zero-copy accounting: the store keeps payload Buffers by value, so
  // every payload byte (client message, tier cache, peer shard) lands as
  // a refcount bump on storage the transaction shares, not a byte copy.
  uint64_t shared_bytes = 0;
  for (const auto& op : txn->ops()) shared_bytes += op.data.size();
  if (shared_bytes > 0) perf_->inc(l_osd_bytes_zero_copied, shared_bytes);
  disk_.write(bytes, [this, pool, txn = std::move(txn),
                      done = std::move(done)]() mutable {
    done(store(pool).apply(*txn));
  });
}

void Osd::handle_sub_write(const OsdOp& op, ReplyFn reply) {
  if (fail_at(OsdFailurePoint::kBeforeSubWriteApply, op.pool, op.oid)) {
    return;  // crashed: the primary never hears back
  }
  perf_->inc(l_osd_sub_writes);
  assert(op.txn);
  local_apply(op.pool, op.txn, [reply = std::move(reply)](Status s) {
    reply(OsdOpReply{s, {}, 0, {}, nullptr});
  });
}

void Osd::handle_shard_read(const OsdOp& op, ReplyFn reply) {
  // One index probe; the shard's state is read in place, as local_exists
  // reads it.
  const ObjectState* st = store(op.pool).find({op.pool, op.oid});
  if (st == nullptr) {
    reply(OsdOpReply{Status::not_found(op.oid), {}, 0, {}, nullptr});
    return;
  }
  OsdOpReply rep;
  if (st->logical_size > 0) rep.data = st->data.read(0, st->logical_size);
  rep.size = st->logical_size;
  rep.attrs.reserve(2);
  for (const char* name : {kEcOrigLenXattr, kEcShardXattr}) {
    auto it = st->xattrs.find(name);
    if (it != st->xattrs.end()) rep.attrs.emplace_back(name, it->second);
  }
  const uint64_t bytes = rep.data.size();
  disk_.read(bytes, [reply = std::move(reply), rep = std::move(rep)]() mutable {
    reply(std::move(rep));
  });
}

void Osd::handle_pull(const OsdOp& op, ReplyFn reply) {
  if (fail_at(OsdFailurePoint::kBeforeRecoveryPull, op.pool, op.oid)) {
    return;  // crashed: recovery must route around this holder
  }
  perf_->inc(l_osd_pulls);
  auto snap = store(op.pool).snapshot({op.pool, op.oid});
  if (!snap.is_ok()) {
    reply(OsdOpReply{snap.status(), {}, 0, {}, nullptr});
    return;
  }
  auto state = std::make_shared<ObjectState>(std::move(snap).value());
  const uint64_t bytes = object_state_bytes(*state);
  // The serve side of a recovery pull: snapshot + disk read of the full
  // object state.
  size_t sp = 0;
  if (op.trace) sp = op.trace->span_begin("pull_serve", ctx_->sched().now());
  disk_.read(bytes, [this, trace = op.trace, sp, reply = std::move(reply),
                     state]() mutable {
    if (trace) trace->span_end(sp, ctx_->sched().now());
    OsdOpReply rep;
    rep.state = state;
    reply(std::move(rep));
  });
}

void Osd::handle_push(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_osd_pushes);
  assert(op.state);
  const uint64_t bytes = object_state_bytes(*op.state);
  auto state = op.state;
  const ObjectKey key{op.pool, op.oid};
  disk_.write(bytes, [this, key, state, reply = std::move(reply)]() mutable {
    store(key.pool).install(key, *state);
    reply(OsdOpReply{});
  });
}

// ----------------------------------------------------------- chunk verbs

void Osd::handle_chunk_put_ref(const OsdOp& op, ReplyFn reply) {
  run_chunk_op(op, std::move(reply), &Osd::chunk_put_ref_locked);
}

void Osd::handle_chunk_deref(const OsdOp& op, ReplyFn reply) {
  run_chunk_op(op, std::move(reply), &Osd::chunk_deref_locked);
}

void Osd::run_chunk_op(const OsdOp& op, ReplyFn reply,
                       void (Osd::*locked)(const OsdOp&, ReplyFn)) {
  const ObjectKey key{op.pool, op.oid};
  if (chunk_op_queue_.try_acquire(key)) {
    (this->*locked)(op, std::move(reply));
    return;
  }
  // Parked: the op outlives this frame, so it is copied.
  chunk_op_queue_.park(
      key, [this, op, reply = std::move(reply), locked]() mutable {
        (this->*locked)(op, std::move(reply));
      });
}

Osd::OpQueue::Slot* Osd::OpQueue::find(const ObjectKey& key) {
  for (Slot& s : slots_) {
    if (s.busy && s.key == key) return &s;
  }
  return nullptr;
}

bool Osd::OpQueue::try_acquire(const ObjectKey& key) {
  if (find(key) != nullptr) return false;
  auto it = std::find_if(slots_.begin(), slots_.end(),
                         [](const Slot& s) { return !s.busy; });
  Slot& s = it == slots_.end() ? slots_.emplace_back() : *it;
  s.busy = true;
  s.key = key;
  return true;
}

void Osd::OpQueue::park(const ObjectKey& key, Parked fn) {
  Slot* s = find(key);
  assert(s != nullptr);
  s->parked.push_back(std::move(fn));
}

Osd::OpQueue::Parked Osd::OpQueue::release(const ObjectKey& key) {
  Slot* s = find(key);
  if (s == nullptr) return {};
  if (s->parked.empty()) {
    s->busy = false;
    return {};
  }
  Parked next = std::move(s->parked.front());
  s->parked.erase(s->parked.begin());
  return next;
}

bool Osd::OpQueue::reset(std::vector<Parked>* out) {
  bool any = false;
  for (Slot& s : slots_) {
    any = any || s.busy;
    s.busy = false;
    for (auto& fn : s.parked) out->push_back(std::move(fn));
    s.parked.clear();
  }
  return any;
}

void Osd::finish_object_op(OpQueue& q, const ObjectKey& key) {
  // A crash resets the queues; an op that was in flight when it happened
  // may still complete afterwards and must find its key simply idle.
  if (auto next = q.release(key)) {
    // Defer to a fresh event so the stack unwinds.
    ctx_->sched().after(0, std::move(next));
  }
}

Status Osd::load_refs(const ObjectKey& key, RefsView* v) {
  auto raw = local_getxattr(key.pool, key.oid, kRefsXattr);
  if (!raw.is_ok()) return Status::ok();  // no refs recorded yet
  v->raw = std::move(raw).value();
  perf_->inc(l_osd_meta_bytes_read, v->raw.size());
  if ((v->cached = refs_cache_.find(key, v->raw)) != nullptr) {
    perf_->inc(l_osd_refs_cache_hits);
    return Status::ok();
  }
  perf_->inc(l_osd_refs_decodes);
  auto dec = decode_refs(v->raw);
  if (!dec.is_ok()) return dec.status();
  v->owned = std::move(dec).value();
  v->cached = refs_cache_.put(key, v->raw, std::move(v->owned));
  return Status::ok();
}

Buffer Osd::store_refs(const ObjectKey& key, RefsView* v, size_t from) {
  Buffer enc = append_refs(from == 0 ? Buffer() : v->raw, v->refs(), from);
  perf_->inc(l_osd_meta_bytes_written, enc.size());
  if (v->cached != nullptr) {
    refs_cache_.rebind(key, enc);
  } else {
    v->cached = refs_cache_.put(key, enc, std::move(v->owned));
  }
  return enc;
}

void Osd::chunk_put_ref_locked(const OsdOp& op, ReplyFn reply) {
  if (fail_at(OsdFailurePoint::kBeforeChunkRefWrite, op.pool, op.oid)) {
    return;  // crashed mid-refcount-update; queue already reset
  }
  perf_->inc(l_osd_chunk_puts);
  const ObjectKey key{op.pool, op.oid};

  // Double-hashing integrity tripwire, free when workers exist: on a
  // dedup hit the OID promises the incoming payload equals the stored
  // chunk.  Cross-check the receive-time payload CRC against the stored
  // bytes on a worker; the verdict is consumed (joined) when the op
  // finishes.  Counters only — never part of the determinism digest.
  KernelFuture<bool> crc_ok;
  ExecPool* xp = ctx_->exec_pool();
  if (xp != nullptr && xp->parallel() && op.has_payload_crc &&
      !op.data.empty() && local_exists(op.pool, op.oid)) {
    if (auto stored = store(op.pool).read(key, 0, 0); stored.is_ok()) {
      perf_->inc(l_osd_crc_verifies);
      crc_ok = kernel_async<bool>(
          xp, Kernel::kCrc,
          [sb = std::move(stored).value(), want = op.payload_crc] {
            return crc32c(sb.span()) == want;
          });
    }
  }

  auto finish = [this, key, crc_ok = std::move(crc_ok),
                 reply = std::move(reply)](Status s) mutable {
    if (crc_ok.valid() && !crc_ok.take()) {
      perf_->inc(l_osd_crc_verify_failures);
    }
    reply(OsdOpReply{s, {}, 0, {}, nullptr});
    finish_object_op(chunk_op_queue_, key);
  };

  if (local_exists(op.pool, op.oid)) {
    // Double hashing at work: same OID == same content, so this put is a
    // duplicate.  Normally only reference bookkeeping is written.
    RefsView v;
    if (Status s = load_refs(key, &v); !s.is_ok()) {
      finish(s);
      return;
    }
    std::vector<ChunkRef>& refs = v.refs();
    const size_t stored = refs.size();
    auto recorded = [&refs](const ChunkRef& r) {
      return std::find(refs.begin(), refs.end(), r) != refs.end();
    };
    // The local copy alone does not make the put durable: a prior attempt
    // can have created the chunk here while its replica fanout was lost to
    // a network fault, and acking a retry off local state would leave the
    // chunk one disk-wipe away from vanishing under a recorded reference.
    // If any acting member lacks a copy, rewrite the data so the fanout
    // re-places it — the ack then means what the client thinks it means.
    bool fully_placed = true;
    for (OsdId t : ctx_->osdmap().acting(op.pool, op.oid)) {
      Osd* to = ctx_->osd(t);
      if (to == nullptr || !to->is_up() || !to->local_exists(op.pool, op.oid)) {
        fully_placed = false;
        break;
      }
    }
    const bool ref_recorded = recorded(op.ref);
    if (ref_recorded && fully_placed &&
        std::all_of(op.extra_refs.begin(), op.extra_refs.end(), recorded)) {
      // Retried flush; the reference is already recorded everywhere.
      finish(Status::ok());
      return;
    }
    // Append only what is missing, in place, then append the same records
    // to the stored bytes: no copy or re-encode of the recorded list.
    if (!ref_recorded) {
      perf_->inc(l_osd_chunk_dedup_hits);
      refs.push_back(op.ref);
    }
    for (const auto& r : op.extra_refs) {
      if (!recorded(r)) refs.push_back(r);
    }
    Transaction txn;
    if (!fully_placed) txn.write_full(key, op.data);
    txn.setxattr(key, kRefsXattr, store_refs(key, &v, stored));
    submit_write(op.pool, op.oid, std::move(txn), std::move(finish),
                 op.foreground);
    return;
  }

  perf_->inc(l_osd_chunk_created);
  // A rotated-in primary can be "creating" over a degraded placement:
  // other holders may still carry this content-addressed chunk with refs
  // this primary cannot see locally.  The content is identical by
  // construction (the OID is its fingerprint), but seeding the refs list
  // with only the new reference would orphan every peer-recorded one — a
  // later deref-to-zero would then destroy a chunk another object's map
  // still names.  Union the surviving refs in.
  //
  // Every create runs this scan, and on unique-heavy workloads nearly
  // every put is a create, almost always over peers that hold nothing.
  // So the key is hashed once and each peer costs one index probe; a miss
  // builds nothing.
  RefsView v;
  std::vector<ChunkRef>& refs = v.owned;
  refs.push_back(op.ref);
  for (const auto& r : op.extra_refs) {
    if (std::find(refs.begin(), refs.end(), r) == refs.end()) refs.push_back(r);
  }
  for (OsdId pid : ctx_->osdmap().all_osds()) {
    if (pid == id_) continue;
    Osd* peer = ctx_->osd(pid);
    if (peer == nullptr || !peer->is_up()) continue;
    const ObjectStore* ps = peer->store_if_exists(op.pool);
    const ObjectState* pst = ps == nullptr ? nullptr : ps->find(key);
    if (pst == nullptr) continue;
    auto xit = pst->xattrs.find(kRefsXattr);
    if (xit == pst->xattrs.end()) continue;
    const Buffer& praw = xit->second;
    // Peer reads stay uncached — they cross OSDs and rarely find
    // anything — but their metadata traffic is still accounted.
    perf_->inc(l_osd_meta_bytes_read, praw.size());
    perf_->inc(l_osd_refs_decodes);
    auto pdec = decode_refs(praw);
    if (!pdec.is_ok()) continue;
    for (const auto& r : pdec.value()) {
      if (std::find(refs.begin(), refs.end(), r) == refs.end()) {
        refs.push_back(r);
      }
    }
  }
  Transaction txn;
  txn.write_full(key, op.data);
  txn.setxattr(key, kRefsXattr, store_refs(key, &v, 0));
  submit_write(op.pool, op.oid, std::move(txn), std::move(finish),
               op.foreground);
}

void Osd::chunk_deref_locked(const OsdOp& op, ReplyFn reply) {
  perf_->inc(l_osd_chunk_derefs);
  const ObjectKey key{op.pool, op.oid};
  auto finish = [this, key, reply = std::move(reply)](Status s) mutable {
    reply(OsdOpReply{s, {}, 0, {}, nullptr});
    finish_object_op(chunk_op_queue_, key);
  };

  if (!local_exists(op.pool, op.oid)) {
    finish(Status::ok());  // already reclaimed — deref is idempotent
    return;
  }
  RefsView v;
  if (Status s = load_refs(key, &v); !s.is_ok()) {
    finish(s);
    return;
  }
  std::vector<ChunkRef>& refs = v.refs();
  auto it = std::find(refs.begin(), refs.end(), op.ref);
  if (it == refs.end()) {
    finish(Status::ok());  // reference already dropped
    return;
  }
  refs.erase(it);
  if (refs.empty()) {
    perf_->inc(l_osd_chunks_reclaimed);
    refs_cache_.erase(key);  // chunk object is going away
    submit_remove(op.pool, op.oid, std::move(finish), op.foreground);
    return;
  }
  Transaction txn;
  txn.setxattr(key, kRefsXattr, store_refs(key, &v, 0));
  submit_write(op.pool, op.oid, std::move(txn), std::move(finish),
               op.foreground);
}

// ----------------------------------------------------- redundancy engines

void Osd::submit_write(PoolId pool, const ObjectName& oid, Transaction txn,
                       StatusFn done, bool foreground) {
  if (!up_ && drop_when_down_) {
    // Crashed process: nothing this OSD coordinates can make progress.
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("osd crashed"));
    });
    return;
  }
  const PoolConfig& cfg = ctx_->osdmap().pool(pool);
  if (cfg.scheme == RedundancyScheme::kReplicated) {
    replicated_write(pool, oid, std::move(txn), std::move(done), foreground);
  } else {
    ec_write(pool, oid, std::move(txn), std::move(done), foreground);
  }
}

void Osd::submit_read(PoolId pool, const ObjectName& oid, uint64_t off,
                      uint64_t len, ReadFn done, bool foreground) {
  if (!up_ && drop_when_down_) {
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("osd crashed"));
    });
    return;
  }
  const PoolConfig& cfg = ctx_->osdmap().pool(pool);
  if (cfg.scheme == RedundancyScheme::kReplicated) {
    auto r = store(pool).read({pool, oid}, off, len);
    if (!r.is_ok()) {
      ctx_->sched().after(0, [done = std::move(done), s = r.status()] {
        done(s);
      });
      return;
    }
    Buffer data = std::move(r).value();
    const uint64_t bytes = data.size();
    disk_.read(bytes, [done = std::move(done), data = std::move(data)]() mutable {
      done(std::move(data));
    });
    return;
  }
  ec_read(pool, oid, off, len, std::move(done), foreground);
}

void Osd::submit_remove(PoolId pool, const ObjectName& oid, StatusFn done,
                        bool foreground) {
  Transaction txn;
  txn.remove({pool, oid});
  submit_write(pool, oid, std::move(txn), std::move(done), foreground);
}

void Osd::replicated_write(PoolId pool, const ObjectName& oid,
                           Transaction txn, StatusFn done, bool foreground) {
  if (fail_at(OsdFailurePoint::kBeforeReplicatedFanout, pool, oid)) {
    return;  // crashed: no replica ever sees this write
  }
  // By reference: nothing in the loop below changes liveness (local
  // apply and sends only schedule events).
  const std::vector<OsdId>& acting = ctx_->osdmap().acting(pool, oid);
  if (acting.empty()) {
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("no acting set"));
    });
    return;
  }

  // One allocation for the whole fanout: its barrier and the one
  // immutable transaction that the local apply and every replica's
  // sub-write share.
  struct Fanout {
    Barrier barrier;
    Transaction txn;
  };
  auto fanout = std::make_shared<Fanout>(
      Fanout{{static_cast<int>(acting.size()), Status(), std::move(done)},
             std::move(txn)});
  std::shared_ptr<Barrier> barrier(fanout, &fanout->barrier);
  std::shared_ptr<const Transaction> shared_txn(fanout, &fanout->txn);
  for (OsdId target : acting) {
    if (target == id_) {
      local_apply(pool, shared_txn, [this, pool, oid, barrier](Status s) {
        if (fail_at(OsdFailurePoint::kAfterLocalApply, pool, oid)) {
          return;  // crashed between the local commit and the peer acks
        }
        barrier->arrive(s);
      });
    } else {
      OsdOp sub;
      sub.type = OsdOpType::kSubWrite;
      sub.pool = pool;
      sub.oid = oid;
      sub.txn = shared_txn;
      sub.foreground = foreground;
      send_osd_op(*ctx_, node_, target, std::move(sub),
                  [barrier](OsdOpReply rep) { barrier->arrive(rep.status); });
    }
  }
}

void Osd::ec_write(PoolId pool, const ObjectName& oid, Transaction txn,
                   StatusFn done, bool foreground) {
  // Serialize per object: a partial EC write reads, re-encodes and
  // rewrites the whole object — concurrent RMWs would lose updates and
  // each holds a full object image while in flight.
  const ObjectKey key{pool, oid};
  StatusFn unlocking = [this, key, done = std::move(done)](Status s) {
    done(s);
    finish_object_op(ec_write_queue_, key);
  };
  if (ec_write_queue_.try_acquire(key)) {
    ec_write_locked(pool, oid, std::move(txn), std::move(unlocking),
                    foreground);
    return;
  }
  ec_write_queue_.park(key, [this, pool, oid, txn = std::move(txn),
                            unlocking = std::move(unlocking),
                            foreground]() mutable {
    ec_write_locked(pool, oid, std::move(txn), std::move(unlocking),
                    foreground);
  });
}

void Osd::ec_write_locked(PoolId pool, const ObjectName& oid, Transaction txn,
                          StatusFn done, bool foreground) {
  const PoolConfig& cfg = ctx_->osdmap().pool(pool);
  // A copy: a data write broadcasts to the members it was admitted with,
  // after the encode cost has elapsed.
  std::vector<OsdId> acting = ctx_->osdmap().acting(pool, oid);
  if (static_cast<int>(acting.size()) < cfg.ec_k + cfg.ec_m) {
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("not enough shards up"));
    });
    return;
  }
  const ObjectKey key{pool, oid};

  // Classify the transaction.
  bool has_data_op = false;
  bool full_rewrite_only = true;
  bool removes = false;
  for (const auto& op : txn.ops()) {
    switch (op.type) {
      case Transaction::OpType::kWriteFull:
        has_data_op = true;
        break;
      case Transaction::OpType::kWrite:
      case Transaction::OpType::kTruncate:
      case Transaction::OpType::kPunchHole:
        has_data_op = true;
        full_rewrite_only = false;
        break;
      case Transaction::OpType::kRemove:
        removes = true;
        break;
      default:
        break;
    }
  }

  if (removes || !has_data_op) {
    // Remove, or a metadata-only update: every shard applies the same
    // ops (no re-encode), so they all share one transaction.
    auto same = std::make_shared<Transaction>();
    if (removes) {
      same->remove(key);
    } else {
      *same = std::move(txn);
    }
    ec_broadcast(pool, oid, acting, {std::move(same)}, std::move(done),
                 foreground);
    return;
  }

  // Data write: produce the new full object image, encode, distribute.
  const bool exists_locally = local_exists(pool, oid);
  if (full_rewrite_only || !exists_locally) {
    // No read-modify-write needed (fresh object or whole-object rewrite).
    ObjectState base;
    bool existed = false;
    if (exists_locally) {
      // Keep existing xattrs/omap: they are mirrored on our local shard.
      auto snap = store(pool).snapshot(key);
      assert(snap.is_ok());
      base.xattrs = snap.value().xattrs;
      base.omap = snap.value().omap;
      base.xattrs.erase(kEcShardXattr);
      base.xattrs.erase(kEcOrigLenXattr);
      existed = true;
    }
    ec_encode_and_send(key, std::move(acting), txn, std::move(base), existed,
                       std::move(done), foreground);
    return;
  }

  // Partial write to an existing EC object: gather, rebuild, re-encode.
  ec_read(pool, oid, 0, 0,
          [this, key, acting = std::move(acting), txn = std::move(txn),
           done = std::move(done), foreground](Result<Buffer> r) mutable {
            if (!r.is_ok()) {
              // Cannot reconstruct the old image; surface the error.
              done(r.status());
              return;
            }
            ObjectState base;
            base.data.write(0, r.value());
            base.logical_size = r.value().size();
            auto snap = store(key.pool).snapshot(key);
            if (snap.is_ok()) {
              base.xattrs = snap.value().xattrs;
              base.omap = snap.value().omap;
              base.xattrs.erase(kEcShardXattr);
              base.xattrs.erase(kEcOrigLenXattr);
            }
            ec_encode_and_send(key, std::move(acting), txn, std::move(base),
                               true, std::move(done), foreground);
          },
          foreground);
}

void Osd::ec_encode_and_send(const ObjectKey& key, std::vector<OsdId> acting,
                             const Transaction& txn, ObjectState base,
                             bool existed, StatusFn done, bool foreground) {
  bool exists = existed;
  if (auto s = ObjectStore::apply_to_state(txn, key, &base, &exists);
      !s.is_ok()) {
    done(s);
    return;
  }
  if (!exists) {
    done(Status::invalid("ec txn removed object mid-write"));
    return;
  }
  const PoolConfig& cfg = ctx_->osdmap().pool(key.pool);
  Buffer full = base.data.read(0, base.logical_size);
  const uint64_t parity_cost_bytes = full.size();
  // Parity math runs on the exec pool while the virtual cost elapses;
  // the shards are joined exactly when the cost model says the encode
  // completes (inline there in serial mode).
  auto shards_fut = kernel_async<std::vector<Buffer>>(
      ctx_->exec_pool(), Kernel::kEcEncode,
      [ec_k = cfg.ec_k, ec_m = cfg.ec_m, full = std::move(full)] {
        ReedSolomon rs(ec_k, ec_m);
        return rs.encode(full);
      });
  cpu().execute(
      cpu().ec_parity_cost(parity_cost_bytes),
      [this, key, acting = std::move(acting), base = std::move(base),
       shards_fut = std::move(shards_fut), done = std::move(done),
       foreground]() mutable {
        auto shards = shards_fut.take();
        const Buffer orig_len = encode_u64(base.logical_size);
        std::vector<std::shared_ptr<const Transaction>> shard_txns;
        shard_txns.reserve(acting.size());
        for (size_t i = 0; i < acting.size(); i++) {
          auto st = std::make_shared<Transaction>();
          st->write_full(key, shards[i]);
          st->setxattr(key, kEcShardXattr,
                       encode_u32(static_cast<uint32_t>(i)));
          st->setxattr(key, kEcOrigLenXattr, orig_len);
          for (const auto& [name, value] : base.xattrs) {
            st->setxattr(key, name, value);
          }
          for (const auto& [k2, v2] : base.omap) {
            st->omap_set(key, k2, v2);
          }
          shard_txns.push_back(std::move(st));
        }
        ec_broadcast(key.pool, key.oid, acting, std::move(shard_txns),
                     std::move(done), foreground);
      });
}

void Osd::ec_broadcast(PoolId pool, const ObjectName& oid,
                       const std::vector<OsdId>& acting,
                       std::vector<std::shared_ptr<const Transaction>> txns,
                       StatusFn done, bool foreground) {
  auto barrier = std::make_shared<Barrier>();
  barrier->remaining = static_cast<int>(acting.size());
  barrier->done = std::move(done);
  for (size_t i = 0; i < acting.size(); i++) {
    const auto& txn = txns[txns.size() == 1 ? 0 : i];
    if (acting[i] == id_) {
      local_apply(pool, txn, [barrier](Status s) { barrier->arrive(s); });
    } else {
      OsdOp sub;
      sub.type = OsdOpType::kSubWrite;
      sub.pool = pool;
      sub.oid = oid;
      sub.txn = txn;
      sub.foreground = foreground;
      send_osd_op(*ctx_, node_, acting[i], std::move(sub),
                  [barrier](OsdOpReply rep) { barrier->arrive(rep.status); });
    }
  }
}

void Osd::ec_read(PoolId pool, const ObjectName& oid, uint64_t off,
                  uint64_t len, ReadFn done, bool foreground) {
  const PoolConfig& cfg = ctx_->osdmap().pool(pool);
  auto acting = ctx_->osdmap().acting(pool, oid);
  const int k = cfg.ec_k;
  const int m = cfg.ec_m;
  if (acting.empty()) {
    ctx_->sched().after(0, [done = std::move(done)] {
      done(Status::unavailable("no acting set"));
    });
    return;
  }

  struct GatherState {
    std::vector<std::optional<Buffer>> shards;
    uint64_t orig_len = 0;
    bool have_orig_len = false;
    int outstanding = 0;
    int successes = 0;
    bool reconstructed_needed = false;
    ReadFn done;
  };
  auto gs = std::make_shared<GatherState>();
  gs->shards.assign(static_cast<size_t>(k + m), std::nullopt);
  gs->outstanding = static_cast<int>(acting.size());
  gs->done = std::move(done);

  auto finish = [this, gs, k, m, off, len]() {
    if (gs->successes < k) {
      gs->done(Status::unavailable("fewer than k shards readable"));
      return;
    }
    // Count available data shards; reconstruction costs decode CPU.
    int data_present = 0;
    for (int i = 0; i < k; i++) {
      if (gs->shards[static_cast<size_t>(i)].has_value()) data_present++;
    }
    ReedSolomon rs(k, m);
    auto deliver = [gs, off, len](Result<Buffer> decoded) {
      if (!decoded.is_ok()) {
        gs->done(decoded.status());
        return;
      }
      Buffer full = std::move(decoded).value();
      if (off >= full.size()) {
        gs->done(Buffer());
        return;
      }
      const uint64_t n =
          len == 0 ? full.size() - off : std::min<uint64_t>(len, full.size() - off);
      gs->done(full.slice(off, n));
    };
    if (data_present < k) {
      uint64_t bytes = 0;
      for (const auto& s : gs->shards) {
        if (s.has_value()) bytes += s->size();
      }
      // Degraded read: reconstruct on the exec pool under the virtual
      // decode cost.  All replies are in (outstanding == 0), so
      // gs->shards is immutable from here on — safe to share with the
      // worker.
      auto fut = kernel_async<Result<Buffer>>(
          ctx_->exec_pool(), Kernel::kEcDecode,
          [gs, rs] { return rs.decode(gs->shards, gs->orig_len); });
      cpu().execute(cpu().ec_parity_cost(bytes),
                    [fut = std::move(fut), deliver]() mutable {
                      deliver(fut.take());
                    });
    } else {
      // All k data shards local-fast-path: no virtual gap to hide the
      // decode in, so it stays synchronous (it is a cheap concatenation).
      deliver(rs.decode(gs->shards, gs->orig_len));
    }
  };

  for (size_t i = 0; i < acting.size(); i++) {
    OsdOp sub;
    sub.type = OsdOpType::kShardRead;
    sub.pool = pool;
    sub.oid = oid;
    sub.foreground = foreground;
    auto on_reply = [gs, finish, k, m](OsdOpReply rep) {
      if (rep.status.is_ok()) {
        int shard_idx = -1;
        if (const Buffer* idx = rep.attr(kEcShardXattr)) {
          Decoder d(*idx);
          uint32_t v = 0;
          if (d.get_u32(&v).is_ok() && v < static_cast<uint32_t>(k + m)) {
            shard_idx = static_cast<int>(v);
          }
        }
        if (const Buffer* ol = rep.attr(kEcOrigLenXattr)) {
          if (auto v = decode_u64(*ol); v.is_ok()) {
            gs->orig_len = v.value();
            gs->have_orig_len = true;
          }
        }
        if (shard_idx >= 0 && !gs->shards[static_cast<size_t>(shard_idx)]) {
          gs->shards[static_cast<size_t>(shard_idx)] = std::move(rep.data);
          gs->successes++;
        }
      }
      if (--gs->outstanding == 0) finish();
    };
    if (acting[i] == id_) {
      handle_shard_read(sub, on_reply);
    } else {
      send_osd_op(*ctx_, node_, acting[i], std::move(sub), on_reply);
    }
  }
}

// ------------------------------------------------------------- messaging

void send_osd_op(ClusterContext& ctx, NodeId from_node, OsdId target, OsdOp op,
                 ReplyFn cb) {
  Osd* osd = ctx.osd(target);
  if (osd == nullptr) {
    // Client-side state lives on the caller's node; pin the synthetic
    // reply (and the timeout timer below) to that shard so the reply path
    // never crosses shards outside the network.
    ctx.sched().after_node(from_node, usec(1), [cb = std::move(cb)] {
      cb(OsdOpReply{Status::unavailable("unknown osd"), {}, 0, {}, nullptr});
    });
    return;
  }
  if (const SimTime timeout = ctx.op_timeout(); timeout > 0) {
    // The reply races a timer; first arrival wins, the loser is dropped.
    // Needed for liveness once OSDs can crash (silently eating requests)
    // or the fabric can lose messages.  Both sides share one state, and
    // the winner moves the continuation out of it.
    struct Race {
      bool fired = false;
      ReplyFn inner;
      void finish(OsdOpReply rep) {
        if (fired) return;
        fired = true;
        ReplyFn f = std::move(inner);
        f(std::move(rep));
      }
    };
    auto race = std::make_shared<Race>();
    race->inner = std::move(cb);
    cb = [race](OsdOpReply rep) { race->finish(std::move(rep)); };
    ctx.sched().after_node(from_node, timeout, [race] {
      race->finish(OsdOpReply{Status::unavailable("osd op timed out"), {}, 0,
                              {}, nullptr});
    });
  }
  const uint64_t req_bytes = op.wire_bytes();
  auto hop = std::make_unique<OsdOpHop>();
  hop->op = std::move(op);
  hop->cb = std::move(cb);
  hop->ctx = &ctx;
  hop->from = from_node;
  hop->to = ctx.node_of_osd(target);
  const NodeId tnode = hop->to;
  ctx.net().send(from_node, tnode, req_bytes,
                 [osd, hop = std::move(hop)]() mutable {
                   osd->handle_op(std::move(hop));
                 });
}

}  // namespace gdedup
