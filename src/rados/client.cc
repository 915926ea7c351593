#include "rados/client.h"

#include <cassert>

#include "obs/op_tracker.h"

namespace gdedup {

RadosClient::RadosClient(ClusterContext* ctx, NodeId node)
    : ctx_(ctx), node_(node) {
  auto* reg = ctx_->perf_registry();
  const std::string base = "client.node" + std::to_string(node);
  obs::PerfCountersBuilder b(reg != nullptr ? reg->unique_name(base) : base,
                             l_client_first, l_client_last);
  b.add_counter(l_client_ops, "ops");
  b.add_counter(l_client_reads, "reads");
  b.add_counter(l_client_writes, "writes");
  b.add_counter(l_client_removes, "removes");
  b.add_counter(l_client_bytes_read, "bytes_read");
  b.add_counter(l_client_bytes_written, "bytes_written");
  b.add_counter(l_client_errors, "errors");
  b.add_histogram(l_client_read_lat, "read_lat");
  b.add_histogram(l_client_write_lat, "write_lat");
  perf_ = b.create();
  if (reg != nullptr) reg->add(perf_);
}

void RadosClient::submit(OsdOp op, ReplyFn cb) {
  Scheduler* sched = &ctx_->sched();
  const SimTime t0 = sched->now();
  perf_->inc(l_client_ops);
  int lat_idx = -1;
  bool count_read_bytes = false;
  switch (op.type) {
    case OsdOpType::kRead:
      perf_->inc(l_client_reads);
      lat_idx = l_client_read_lat;
      count_read_bytes = true;
      break;
    case OsdOpType::kWrite:
    case OsdOpType::kWriteFull:
      perf_->inc(l_client_writes);
      perf_->inc(l_client_bytes_written, op.data.size());
      lat_idx = l_client_write_lat;
      break;
    case OsdOpType::kRemove:
      perf_->inc(l_client_removes);
      break;
    default:
      break;
  }
  obs::OpTracker* trk = ctx_->op_tracker();
  if (trk != nullptr) {
    op.trace = trk->start(std::string(osd_op_type_name(op.type)) + " " +
                              std::to_string(op.pool) + "/" + op.oid,
                          t0);
  }
  // The wrapper captures everything it needs by value / stable pointer
  // (scheduler, tracker and counters all outlive in-flight ops) — never
  // `this`, since clients may be shorter-lived than their last reply.
  cb = [perf = perf_, trk, sched, t0, lat_idx, count_read_bytes,
        trace = op.trace, inner = std::move(cb)](OsdOpReply rep) mutable {
    const SimTime now = sched->now();
    if (lat_idx >= 0) perf->record(lat_idx, static_cast<uint64_t>(now - t0));
    if (!rep.status.is_ok()) {
      perf->inc(l_client_errors);
    } else if (count_read_bytes) {
      perf->inc(l_client_bytes_read, rep.data.size());
    }
    if (trk != nullptr) trk->finish(trace, now);
    inner(std::move(rep));
  };

  const OsdId primary = ctx_->osdmap().primary(op.pool, op.oid);
  if (primary < 0) {
    ctx_->sched().after(usec(1), [cb = std::move(cb)] {
      cb(OsdOpReply{Status::unavailable("no primary"), {}, 0, {}, nullptr});
    });
    return;
  }
  send_osd_op(*ctx_, node_, primary, std::move(op), std::move(cb));
}

void RadosClient::write(PoolId pool, const std::string& oid, uint64_t off,
                        Buffer data, std::function<void(Status)> cb) {
  OsdOp op;
  op.type = OsdOpType::kWrite;
  op.pool = pool;
  op.oid = oid;
  op.off = off;
  op.len = data.size();
  op.data = std::move(data);
  submit(std::move(op),
         [cb = std::move(cb)](OsdOpReply rep) { cb(rep.status); });
}

void RadosClient::write_full(PoolId pool, const std::string& oid, Buffer data,
                             std::function<void(Status)> cb) {
  OsdOp op;
  op.type = OsdOpType::kWriteFull;
  op.pool = pool;
  op.oid = oid;
  op.len = data.size();
  op.data = std::move(data);
  submit(std::move(op),
         [cb = std::move(cb)](OsdOpReply rep) { cb(rep.status); });
}

void RadosClient::read(PoolId pool, const std::string& oid, uint64_t off,
                       uint64_t len, std::function<void(Result<Buffer>)> cb) {
  OsdOp op;
  op.type = OsdOpType::kRead;
  op.pool = pool;
  op.oid = oid;
  op.off = off;
  op.len = len;
  submit(std::move(op), [cb = std::move(cb)](OsdOpReply rep) {
    if (!rep.status.is_ok()) {
      cb(rep.status);
    } else {
      cb(std::move(rep.data));
    }
  });
}

void RadosClient::remove(PoolId pool, const std::string& oid,
                         std::function<void(Status)> cb) {
  OsdOp op;
  op.type = OsdOpType::kRemove;
  op.pool = pool;
  op.oid = oid;
  submit(std::move(op),
         [cb = std::move(cb)](OsdOpReply rep) { cb(rep.status); });
}

void RadosClient::stat(PoolId pool, const std::string& oid,
                       std::function<void(Result<uint64_t>)> cb) {
  OsdOp op;
  op.type = OsdOpType::kStat;
  op.pool = pool;
  op.oid = oid;
  submit(std::move(op), [cb = std::move(cb)](OsdOpReply rep) {
    if (!rep.status.is_ok()) {
      cb(rep.status);
    } else {
      cb(rep.size);
    }
  });
}

void RadosClient::getxattr(PoolId pool, const std::string& oid,
                           const std::string& name,
                           std::function<void(Result<Buffer>)> cb) {
  OsdOp op;
  op.type = OsdOpType::kGetXattr;
  op.pool = pool;
  op.oid = oid;
  op.name = name;
  submit(std::move(op), [cb = std::move(cb)](OsdOpReply rep) {
    if (!rep.status.is_ok()) {
      cb(rep.status);
    } else {
      cb(std::move(rep.data));
    }
  });
}

void RadosClient::setxattr(PoolId pool, const std::string& oid,
                           const std::string& name, Buffer value,
                           std::function<void(Status)> cb) {
  OsdOp op;
  op.type = OsdOpType::kSetXattr;
  op.pool = pool;
  op.oid = oid;
  op.name = name;
  op.data = std::move(value);
  submit(std::move(op),
         [cb = std::move(cb)](OsdOpReply rep) { cb(rep.status); });
}

// ---------------------------------------------------------- BlockDevice

BlockDevice::BlockDevice(RadosClient* client, PoolId pool,
                         std::string image_name, uint64_t size_bytes,
                         uint32_t object_size)
    : client_(client),
      pool_(pool),
      name_(std::move(image_name)),
      size_(size_bytes),
      object_size_(object_size) {
  assert(object_size_ > 0);
}

std::string BlockDevice::object_for(uint64_t off) const {
  return name_ + ".obj." + std::to_string(off / object_size_);
}

void BlockDevice::write(uint64_t off, Buffer data,
                        std::function<void(Status)> cb) {
  assert(off + data.size() <= size_);
  struct State {
    int outstanding = 0;
    Status worst;
    std::function<void(Status)> cb;
  };
  auto st = std::make_shared<State>();
  st->cb = std::move(cb);

  uint64_t pos = 0;
  const uint64_t len = data.size();
  st->outstanding = 1;  // sentinel
  while (pos < len) {
    const uint64_t abs = off + pos;
    const uint64_t obj_off = abs % object_size_;
    const uint64_t n = std::min<uint64_t>(object_size_ - obj_off, len - pos);
    st->outstanding++;
    client_->write(pool_, object_for(abs), obj_off, data.slice(pos, n),
                   [st](Status s) {
                     if (!s.is_ok() && st->worst.is_ok()) st->worst = s;
                     if (--st->outstanding == 0) st->cb(st->worst);
                   });
    pos += n;
  }
  if (--st->outstanding == 0) st->cb(st->worst);
}

void BlockDevice::read(uint64_t off, uint64_t len,
                       std::function<void(Result<Buffer>)> cb) {
  assert(off + len <= size_);
  const uint64_t obj_off = off % object_size_;
  if (len > 0 && obj_off + len <= object_size_) {
    // Inside one object: the reply buffer is the result.
    client_->read(pool_, object_for(off), obj_off, len,
                  [len, cb = std::move(cb)](Result<Buffer> r) {
                    if (r.is_ok()) {
                      Buffer b = std::move(r).value();
                      b.resize(len);  // short reads (holes) zero-fill
                      cb(std::move(b));
                    } else if (r.status().code() == Code::kNotFound) {
                      cb(Buffer(len));
                    } else {
                      cb(r.status());
                    }
                  });
    return;
  }
  struct State {
    Buffer out;
    int outstanding = 0;
    Status worst;
    std::function<void(Result<Buffer>)> cb;
  };
  auto st = std::make_shared<State>();
  st->out.resize(len);
  st->cb = std::move(cb);

  uint64_t pos = 0;
  st->outstanding = 1;  // sentinel
  while (pos < len) {
    const uint64_t abs = off + pos;
    const uint64_t obj_off = abs % object_size_;
    const uint64_t n = std::min<uint64_t>(object_size_ - obj_off, len - pos);
    st->outstanding++;
    const uint64_t dst = pos;
    client_->read(pool_, object_for(abs), obj_off, n,
                  [st, dst, n](Result<Buffer> r) {
                    if (r.is_ok()) {
                      Buffer b = std::move(r).value();
                      b.resize(n);  // short reads (holes) zero-fill
                      st->out.write_at(dst, b);
                    } else if (st->worst.is_ok() &&
                               r.status().code() != Code::kNotFound) {
                      st->worst = r.status();
                    }
                    if (--st->outstanding == 0) {
                      if (st->worst.is_ok()) {
                        st->cb(std::move(st->out));
                      } else {
                        st->cb(st->worst);
                      }
                    }
                  });
    pos += n;
  }
  if (--st->outstanding == 0) {
    if (st->worst.is_ok()) {
      st->cb(std::move(st->out));
    } else {
      st->cb(st->worst);
    }
  }
}

}  // namespace gdedup
