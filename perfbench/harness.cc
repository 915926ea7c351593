#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

#include "common/crc32.h"
#include "dedup/invariants.h"
#include "dedup/tier.h"
#include "osd/osd.h"
#include "rados/sync.h"

namespace gdedup::perfbench {

int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

void add_write(Phase& ph, uint32_t object, uint64_t offset, Buffer data,
               uint32_t granule) {
  Op op;
  op.kind = OpKind::kWrite;
  op.object = object;
  op.offset = offset;
  op.length = static_cast<uint32_t>(data.size());
  op.crc_at = static_cast<uint32_t>(ph.crcs.size());
  for (size_t g = 0; g < data.size(); g += granule) {
    ph.crcs.push_back(crc32c(data.span().subspan(g, granule)));
  }
  op.data = std::move(data);
  ph.ops.push_back(std::move(op));
}

namespace {

// Closed-loop outstanding ops per client, as in the paper's fio runs.
constexpr size_t kDepth = 16;

double seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }


// The paper's post-process tier parameters, as every bench in the repo
// configures them.  Promotion on read is off unless asked for: while
// DedupTier::promote_object marks slots cached before its install
// transaction applies, a read in that window returns zero-filled bytes
// (NOTES.md, "Known program defects"), and every full-size workload fails
// its readback gate.
DedupTierConfig tier_config(bool promote_on_read) {
  DedupTierConfig t;
  t.promote_on_read = promote_on_read;
  t.mode = DedupMode::kPostProcess;
  t.chunk_size = kChunkSize;
  t.rate_control = true;
  t.low_watermark_iops = 500;
  t.high_watermark_iops = 4000;
  t.engine_tick = msec(50);
  t.max_dedup_per_tick = 256;
  t.hitcount_threshold = 4;
  return t;
}

LayerCounters read_layers(Cluster& c, RadosClient& client, PoolId meta) {
  LayerCounters l;
  const Scheduler::Stats st = c.sched().stats();
  l.events = st.events_dispatched;
  l.arena_bytes = st.arena_bytes;
  l.net_bytes = c.net().total_bytes_sent();
  for (int k = 0; k < static_cast<int>(Kernel::kCount); k++) {
    const ExecPool::KernelStats ks =
        c.exec_pool()->kernel_stats(static_cast<Kernel>(k));
    l.kernel_jobs[k] = ks.jobs;
    l.kernel_ns[k] = ks.busy_ns;
  }
  l.client_errors = client.perf().get(l_client_errors);
  Histogram flush;
  for (Osd* o : c.osds()) {
    const obs::PerfCounters& p = o->perf();
    l.sub_writes += p.get(l_osd_sub_writes);
    l.chunk_puts += p.get(l_osd_chunk_puts);
    l.chunk_dedup_hits += p.get(l_osd_chunk_dedup_hits);
    l.meta_bytes_read += p.get(l_osd_meta_bytes_read);
    l.meta_bytes_written += p.get(l_osd_meta_bytes_written);
    l.refs_decodes += p.get(l_osd_refs_decodes);
    l.refs_cache_hits += p.get(l_osd_refs_cache_hits);
    DedupTier* t = c.tier_of(o->id(), meta);
    if (t == nullptr) continue;
    const obs::PerfCounters& tp = t->perf();
    l.sha_computed += tp.get(l_tier_sha_computed);
    l.sha_avoided += tp.get(l_tier_sha_avoided);
    l.fp_memo_hits += tp.get(l_tier_fingerprint_cache_hits);
    l.evictions += tp.get(l_tier_evictions);
    l.read_logical_bytes += tp.get(l_tier_read_logical_bytes);
    l.read_chunk_objects += tp.get(l_tier_read_chunk_objects);
    l.read_chunk_rpcs += tp.get(l_tier_read_chunk_rpcs);
    l.redirected_read_chunks += tp.get(l_tier_redirected_read_chunks);
    l.asm_hits += tp.get(l_tier_asm_hits);
    if (const Histogram* h = tp.histogram(l_tier_flush_lat)) flush.merge(*h);
  }
  l.flush_lat_p99_ns = flush.percentile(0.99);
  return l;
}

// Rolling CRC32C over 64-bit observables: same seed, same trajectory,
// same digest.
class Digest {
 public:
  void add(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; i++) b[i] = static_cast<uint8_t>(v >> (8 * i));
    crc_ = crc32c({b, sizeof(b)}, crc_);
  }
  std::string hex() const {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc_);
    return buf;
  }

 private:
  uint32_t crc_ = 0;
};

// What the image / objects must read back as, updated in ack order.
class Oracle {
 public:
  explicit Oracle(const Inputs& in)
      : g_(in.granule),
        per_object_(in.object_bytes / in.granule),
        crc_(in.oids.size() * per_object_, 0),
        size_(in.oids.size(), in.block ? in.object_bytes : 0),
        exists_(in.oids.size(), in.block) {
    const Buffer zeros(g_);
    zero_crc_ = crc32c(zeros.span());
    std::fill(crc_.begin(), crc_.end(), zero_crc_);
  }

  void write(const Op& op, const uint32_t* crcs) {
    exists_[op.object] = true;
    size_[op.object] = std::max(size_[op.object], op.offset + op.length);
    const size_t base = slot(op.object, op.offset);
    for (uint32_t k = 0; k < op.length / g_; k++) crc_[base + k] = crcs[k];
  }

  void remove(uint32_t object) {
    exists_[object] = false;
    size_[object] = 0;
    const size_t base = slot(object, 0);
    std::fill(crc_.begin() + base, crc_.begin() + base + per_object_,
              zero_crc_);
  }

  struct Expect {
    bool found = false;
    uint32_t length = 0;
    uint32_t crc = 0;
  };
  // Reads are granule-sized and granule-aligned.
  Expect read(const Op& op) const {
    Expect e;
    e.found = exists_[op.object];
    if (!e.found || op.offset >= size_[op.object]) return e;
    e.length = op.length;
    e.crc = crc_[slot(op.object, op.offset)];
    return e;
  }

  uint32_t zero_crc() const { return zero_crc_; }

  uint64_t live_bytes() const {
    uint64_t n = 0;
    for (size_t i = 0; i < size_.size(); i++) n += exists_[i] ? size_[i] : 0;
    return n;
  }

 private:
  size_t slot(uint32_t object, uint64_t offset) const {
    return object * per_object_ + offset / g_;
  }

  uint32_t g_;
  size_t per_object_;
  uint32_t zero_crc_ = 0;
  std::vector<uint32_t> crc_;
  std::vector<uint64_t> size_;
  std::vector<bool> exists_;
};

struct ReadRecord {
  bool done = false;
  Code code = Code::kOk;
  uint32_t length = 0;
  uint32_t crc = 0;
};

// Per-op host spans and virtual completion records of a traced iteration.
struct Span {
  uint64_t id;
  uint64_t parent;
  uint64_t op;  // client op id for submit spans, else 0
  int64_t t0;
  int64_t dur;
  std::string name;
};
struct Completion {
  uint64_t op;
  SimTime t_ref;  // issue time (closed loop) or due time (open loop)
  SimTime done;
  int code;
};

class Runner {
 public:
  Runner(Cluster& c, RadosClient& client, BlockDevice* bdev, PoolId meta,
         PoolId chunks, Inputs& in, const IterOptions& opt, IterResult& r)
      : c_(c),
        client_(client),
        bdev_(bdev),
        meta_(meta),
        chunks_(chunks),
        in_(in),
        opt_(opt),
        r_(r),
        oracle_(in),
        reads_(in.phases.size()) {}

  void run_timed() {
    const bool traced = opt_.traced;
    if (traced) alloc_counting(true);
    const uint64_t allocs0 = alloc_count();
    const double cpu0 = cpu_seconds();
    const int64_t t0 = host_ns();
    root_t0_ = t0;
    for (Phase& ph : in_.phases) run_phase(ph);
    const int64_t t1 = host_ns();
    r_.timed_s = seconds(t1 - t0);
    r_.timed_cpu_s = cpu_seconds() - cpu0;
    if (traced) {
      r_.trace.allocs = alloc_count() - allocs0;
      alloc_counting(false);
      span("root", 0, 0, 0, t0, t1);
    }
    r_.layers = read_layers(c_, client_, meta_);
  }

  void check() {
    for (size_t p = 0; p < in_.phases.size(); p++) {
      const Phase& ph = in_.phases[p];
      if (!ph.verify_reads) continue;
      for (size_t i = 0; i < ph.ops.size(); i++) {
        if (ph.ops[i].kind != OpKind::kRead) continue;
        const ReadRecord& rec = reads_[p][i];
        Oracle::Expect e = oracle_.read(ph.ops[i]);
        if (opt_.inject == Inject::kReadback && !injected_) {
          e.crc ^= 1;
          injected_ = true;
        }
        const bool ok = rec.done &&
                        (e.found ? rec.code == Code::kOk &&
                                       rec.length == e.length &&
                                       rec.crc == e.crc
                                 : rec.code == Code::kNotFound);
        if (!ok) {
          char what[160];
          std::snprintf(what, sizeof(what),
                        ": expected %s len %u crc %08x, got status %d len %u "
                        "crc %08x%s",
                        e.found ? "data" : "not-found", e.length, e.crc,
                        static_cast<int>(rec.code), rec.length, rec.crc,
                        rec.crc == oracle_.zero_crc() ? " (zero-filled)" : "");
          fail("readback mismatch: " + ph.name + " op " + std::to_string(i) +
               " object " + in_.oids[ph.ops[i].object] + " offset " +
               std::to_string(ph.ops[i].offset) + what);
        }
      }
    }
    if (!r_.drained) fail("drain_dedup did not drain the backlog");
    // Reads feed the HitSet and may promote (--promote-on-read); quiesce
    // again before the walk.
    if (!c_.drain_dedup()) fail("backlog did not drain after the reads");
    if (opt_.inject == Inject::kConservation) {
      sync_write_full(c_, client_, chunks_, "planted-orphan-chunk",
                      Buffer(4096, 0x5A));
    }
    const InvariantReport rep =
        InvariantChecker(&c_, meta_, chunks_).check_metadata();
    for (const std::string& v : rep.violations) fail("invariant: " + v);

    digest_.add(c_.sched().events_executed());
    digest_.add(static_cast<uint64_t>(c_.sched().now()));
    digest_.add(c_.net().total_bytes_sent());
    for (PoolId p : {meta_, chunks_}) {
      const ObjectStore::Stats s = c_.pool_stats(p);
      digest_.add(s.objects);
      digest_.add(s.physical_bytes);
    }
    r_.digest = digest_.hex();
    if (opt_.keep_spans) r_.trace_json = trace_json();
  }

 private:
  struct PhaseState {
    Phase* ph = nullptr;
    size_t index = 0;
    size_t done = 0;
    std::function<void()> refill;  // closed loop: top the window back up
  };

  void fail(std::string what) {
    r_.failed++;
    if (r_.problems.size() < 20) r_.problems.push_back(std::move(what));
  }

  SimTime now() { return c_.sched().now(); }

  bool step() {
    if (!opt_.traced) return c_.sched().step();
    const int64_t t0 = host_ns();
    in_step_ = true;
    const bool progressed = c_.sched().step();
    in_step_ = false;
    r_.trace.step_ns += host_ns() - t0;
    return progressed;
  }

  void run_phase(Phase& ph) {
    const size_t index = static_cast<size_t>(&ph - in_.phases.data());
    const uint64_t phase_span = index + 1;
    const int64_t h0 = host_ns();
    const uint64_t k0 = read_kernel_ns();
    if (opt_.keep_spans) snapshot(ph.name, "begin");
    if (ph.kind == PhaseKind::kDrain) {
      run_drain();
      r_.drain_s = seconds(host_ns() - h0);
      if (opt_.traced) r_.trace.drain_kernel_ns += read_kernel_ns() - k0;
      r_.meta_physical = c_.pool_stats(meta_).physical_bytes;
      r_.chunk_physical = c_.pool_stats(chunks_).physical_bytes;
      r_.live_bytes = oracle_.live_bytes();
      r_.space_amp =
          r_.live_bytes == 0
              ? 0.0
              : static_cast<double>(r_.meta_physical + r_.chunk_physical) /
                    static_cast<double>(r_.live_bytes);
    } else {
      if (ph.verify_reads) reads_[index].resize(ph.ops.size());
      PhaseState ps;
      ps.ph = &ph;
      ps.index = index;
      const SimTime v0 = now();
      if (ph.open_iops > 0) {
        run_open(ps);
      } else {
        run_closed(ps);
      }
      r_.client_virtual += now() - v0;
      if (opt_.traced) r_.trace.client_kernel_ns += read_kernel_ns() - k0;
    }
    if (opt_.keep_spans) snapshot(ph.name, "end");
    if (opt_.traced) span(ph.name, phase_span, 0, 0, h0, host_ns());
  }

  uint64_t read_kernel_ns() {
    uint64_t n = 0;
    for (int k = 0; k < static_cast<int>(Kernel::kCount); k++) {
      n += c_.exec_pool()->kernel_stats(static_cast<Kernel>(k)).busy_ns;
    }
    return n;
  }

  // Closed loop: kDepth ops outstanding (fio iodepth).
  void run_closed(PhaseState& ps) {
    const size_t n = ps.ph->ops.size();
    size_t next = 0;
    ps.refill = [&] {
      while (next < n && next - ps.done < kDepth) issue(ps, next++, now());
    };
    ps.refill();
    wait_all(ps);
  }

  // Open loop: op i is due at start + i / rate whatever the completions;
  // latency runs from the due time.  A chained generator event keeps only
  // the next arrival queued.
  void run_open(PhaseState& ps) {
    const size_t n = ps.ph->ops.size();
    if (n == 0) return;
    const SimTime start = now();
    const double gap = static_cast<double>(kSecond) / ps.ph->open_iops;
    auto due = [&](size_t i) {
      return start + static_cast<SimTime>(gap * static_cast<double>(i));
    };
    size_t next = 0;
    std::function<void()> gen = [&] {
      const SimTime t = due(next);
      r_.open_lateness = std::max(r_.open_lateness, now() - t);
      issue(ps, next++, t);
      if (next < n) c_.sched().at(due(next), gen);
    };
    c_.sched().at(start, gen);
    wait_all(ps);
  }

  void wait_all(PhaseState& ps) {
    while (ps.done < ps.ph->ops.size()) {
      if (!step()) {
        fail("scheduler went idle during " + ps.ph->name);
        return;
      }
    }
  }

  void run_drain() {
    // Poll the backlog finely so drain_virtual_s is not quantised to
    // drain_dedup's 200 ms steps; drain_dedup then confirms the drain.
    if (opt_.inject != Inject::kUndrained) {
      const SimTime deadline = now() + sec(7200);
      while (dedup_walk::total_backlog(&c_, meta_) > 0 && now() < deadline) {
        c_.sched().run_for(msec(1));
      }
    }
    r_.drained = c_.drain_dedup(opt_.inject == Inject::kUndrained ? 1
                                                                  : sec(7200));
    r_.drain_virtual = now() - last_write_done_;
  }

  void issue(PhaseState& ps, size_t i, SimTime t_ref) {
    Op& op = ps.ph->ops[i];
    const uint64_t id = ++op_ids_;
    const int64_t t0 = opt_.traced ? host_ns() : 0;
    const std::string& oid = in_.oids[op.object];
    switch (op.kind) {
      case OpKind::kWrite: {
        auto cb = [this, &ps, i, t_ref, id](Status s) {
          on_write(ps, i, t_ref, id, s);
        };
        if (in_.block) {
          bdev_->write(op.offset, std::move(op.data), std::move(cb));
        } else {
          client_.write(meta_, oid, op.offset, std::move(op.data),
                        std::move(cb));
        }
        break;
      }
      case OpKind::kRead: {
        auto cb = [this, &ps, i, t_ref, id](Result<Buffer> res) {
          on_read(ps, i, t_ref, id, res);
        };
        if (in_.block) {
          bdev_->read(op.offset, op.length, std::move(cb));
        } else {
          client_.read(meta_, oid, op.offset, op.length, std::move(cb));
        }
        break;
      }
      case OpKind::kRemove:
        client_.remove(meta_, oid, [this, &ps, i, t_ref, id](Status s) {
          on_remove(ps, i, t_ref, id, s);
        });
        break;
    }
    if (opt_.traced) {
      const int64_t t1 = host_ns();
      r_.trace.submit_ns += t1 - t0;
      if (in_step_) r_.trace.submit_in_step_ns += t1 - t0;
      if (opt_.keep_spans) {
        span("submit", in_.phases.size() + id, ps.index + 1, id, t0, t1);
      }
    }
  }

  // Bookkeeping shared by every completion; returns the op's latency.
  SimTime complete(PhaseState& ps, SimTime t_ref, uint64_t id, Code code) {
    const SimTime lat = now() - t_ref;
    digest_.add(static_cast<uint64_t>(lat));
    r_.attempted++;
    if (opt_.keep_spans) {
      completions_.push_back({id, t_ref, now(), static_cast<int>(code)});
    }
    ps.done++;
    return lat;
  }

  void on_write(PhaseState& ps, size_t i, SimTime t_ref, uint64_t id,
                const Status& s) {
    const Op& op = ps.ph->ops[i];
    const SimTime lat = complete(ps, t_ref, id, s.code());
    if (s.is_ok()) {
      oracle_.write(op, &ps.ph->crcs[op.crc_at]);
      r_.client_bytes += op.length;
      last_write_done_ = now();
      if (ps.ph->write_latency) r_.write_lat.push_back(lat);
    } else {
      fail("write failed in " + ps.ph->name + ": " + s.to_string());
    }
    if (ps.refill) ps.refill();
  }

  void on_read(PhaseState& ps, size_t i, SimTime t_ref, uint64_t id,
               const Result<Buffer>& res) {
    const Code code = res.status().code();
    const SimTime lat = complete(ps, t_ref, id, code);
    ReadRecord rec;
    rec.done = true;
    rec.code = code;
    if (res.is_ok()) {
      const int64_t t0 = opt_.traced ? host_ns() : 0;
      rec.length = static_cast<uint32_t>(res->size());
      rec.crc = crc32c(res->span());
      if (opt_.traced) r_.trace.read_crc_ns += host_ns() - t0;
      r_.client_bytes += rec.length;
    }
    if (ps.ph->verify_reads) {
      reads_[ps.index][i] = rec;
    } else if (code != Code::kOk && code != Code::kNotFound) {
      fail("read failed in " + ps.ph->name + ": " + res.status().to_string());
    }
    if (ps.ph->read_latency) r_.read_lat.push_back(lat);
    if (ps.refill) ps.refill();
  }

  void on_remove(PhaseState& ps, size_t i, SimTime t_ref, uint64_t id,
                 const Status& s) {
    complete(ps, t_ref, id, s.code());
    if (s.is_ok() || s.code() == Code::kNotFound) {
      oracle_.remove(ps.ph->ops[i].object);
    } else {
      fail("remove failed in " + ps.ph->name + ": " + s.to_string());
    }
    if (ps.refill) ps.refill();
  }

  void span(const std::string& name, uint64_t id, uint64_t parent,
            uint64_t op, int64_t t0, int64_t t1) {
    r_.trace.spans++;
    if (opt_.keep_spans) spans_.push_back({id, parent, op, t0, t1 - t0, name});
  }

  void snapshot(const std::string& phase, const char* at) {
    const LayerCounters l = read_layers(c_, client_, meta_);
    std::string s = "{\"phase\":\"" + phase + "\",\"at\":\"" + at +
                    "\",\"host_ns\":" + std::to_string(host_ns() - root_t0_) +
                    ",\"virtual_ns\":" + std::to_string(now()) +
                    ",\"events\":" + std::to_string(l.events) +
                    ",\"client_ops\":" + std::to_string(r_.attempted) +
                    ",\"kernels\":{";
    for (int k = 0; k < static_cast<int>(Kernel::kCount); k++) {
      char kernel[128];
      std::snprintf(kernel, sizeof(kernel),
                    "%s\"%s\":{\"jobs\":%llu,\"busy_ns\":%llu}",
                    k > 0 ? "," : "", kernel_name(static_cast<Kernel>(k)),
                    static_cast<unsigned long long>(l.kernel_jobs[k]),
                    static_cast<unsigned long long>(l.kernel_ns[k]));
      s += kernel;
    }
    s += "},\"sha_computed\":" + std::to_string(l.sha_computed) +
         ",\"sha_avoided\":" + std::to_string(l.sha_avoided) +
         ",\"chunk_puts\":" + std::to_string(l.chunk_puts) + "}";
    snapshots_.push_back(std::move(s));
  }

  std::string trace_json() const {
    std::string s = "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& sp = spans_[i];
      if (i > 0) s += ",\n";
      s += "{\"name\":\"" + sp.name + "\",\"id\":" + std::to_string(sp.id) +
           ",\"parent\":" + std::to_string(sp.parent) +
           ",\"op\":" + std::to_string(sp.op) +
           ",\"t0_ns\":" + std::to_string(sp.t0 - root_t0_) +
           ",\"dur_ns\":" + std::to_string(sp.dur) + "}";
    }
    s += "],\n\"completions\":[";
    for (size_t i = 0; i < completions_.size(); i++) {
      const Completion& cp = completions_[i];
      if (i > 0) s += ",\n";
      s += "{\"op\":" + std::to_string(cp.op) +
           ",\"ref_vt\":" + std::to_string(cp.t_ref) +
           ",\"done_vt\":" + std::to_string(cp.done) +
           ",\"code\":" + std::to_string(cp.code) + "}";
    }
    s += "],\n\"snapshots\":[";
    for (size_t i = 0; i < snapshots_.size(); i++) {
      if (i > 0) s += ",\n";
      s += snapshots_[i];
    }
    return s + "]}\n";
  }

  Cluster& c_;
  RadosClient& client_;
  BlockDevice* bdev_;
  PoolId meta_;
  PoolId chunks_;
  Inputs& in_;
  const IterOptions& opt_;
  IterResult& r_;
  Oracle oracle_;
  Digest digest_;
  std::vector<std::vector<ReadRecord>> reads_;
  SimTime last_write_done_ = 0;
  uint64_t op_ids_ = 0;
  bool in_step_ = false;
  bool injected_ = false;
  int64_t root_t0_ = 0;
  std::vector<Span> spans_;
  std::vector<Completion> completions_;
  std::vector<std::string> snapshots_;
};

}  // namespace

bool run_iteration(const std::string& workload, const IterOptions& opt,
                   IterResult* out) {
  IterResult& r = *out;
  const int64_t t0 = host_ns();
  Shape shape;
  Inputs in;
  if (!make_workload(workload, opt.seed, opt.tiny, &shape, &in)) return false;
  r.gen_s = seconds(host_ns() - t0);

  ClusterConfig cc;
  cc.storage_nodes = shape.storage_nodes;
  cc.osds_per_node = shape.osds_per_node;
  cc.client_nodes = 1;
  cc.exec_threads = 1;
  cc.sim_shards = 1;
  auto cluster = std::make_unique<Cluster>(cc);
  Cluster& c = *cluster;
  const PoolId meta = c.create_replicated_pool("meta", 2);
  const PoolId chunks = shape.ec_chunk_pool
                            ? c.create_ec_pool("chunks", 2, 1)
                            : c.create_replicated_pool("chunks", 2);
  c.enable_dedup(meta, chunks, tier_config(opt.promote_on_read));
  RadosClient client(&c, c.client_node(0));
  std::unique_ptr<BlockDevice> bdev;
  if (in.block) {
    bdev = std::make_unique<BlockDevice>(&client, meta, in.oids[0],
                                         in.object_bytes);
  }
  r.setup_s = seconds(host_ns() - t0);

  Runner runner(c, client, bdev.get(), meta, chunks, in, opt, r);
  runner.run_timed();
  runner.check();
  return true;
}

}  // namespace gdedup::perfbench
