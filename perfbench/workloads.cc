// The three benchmark workloads.  Each one fixes a cluster shape and
// generates every payload before the timer starts; NOTES.md records why
// each workload exists and how its sizes relate to the program's caches.

#include <unordered_map>

#include "harness.h"
#include "workload/churn.h"
#include "workload/content.h"
#include "workload/fio_gen.h"

namespace gdedup::perfbench {
namespace {

constexpr uint64_t kMiB = 1ull << 20;

Phase client_phase(std::string name) {
  Phase ph;
  ph.name = std::move(name);
  return ph;
}

Phase drain_phase() {
  Phase ph;
  ph.name = "drain";
  ph.kind = PhaseKind::kDrain;
  return ph;
}

void add_read(Phase& ph, uint32_t object, uint64_t offset, uint32_t length) {
  Op op;
  op.kind = OpKind::kRead;
  op.object = object;
  op.offset = offset;
  op.length = length;
  ph.ops.push_back(std::move(op));
}

// Sequential fio-style preload of the whole image (fio dedupe_percentage
// semantics), one fresh Buffer per block.
Phase preload(uint64_t image, uint32_t block, double dedupe, uint64_t seed,
              uint32_t granule) {
  workload::FioConfig fio;
  fio.total_bytes = image;
  fio.block_size = block;
  fio.dedupe_ratio = dedupe;
  fio.seed = seed;
  workload::FioGenerator gen(fio);
  Phase ph = client_phase("preload");
  ph.ops.reserve(gen.num_blocks());
  for (uint64_t i = 0; i < gen.num_blocks(); i++) {
    add_write(ph, 0, i * block, gen.block(i), granule);
  }
  return ph;
}

Phase random_writes(const char* name, uint64_t image, uint32_t block,
                    size_t count, double dedupe, uint64_t seed,
                    uint32_t granule) {
  Phase ph = client_phase(name);
  ph.write_latency = true;
  ph.ops.reserve(count);
  for (const workload::IoOp& io : workload::make_random_ops(
           image, block, count, /*writes=*/true, dedupe, seed)) {
    add_write(ph, 0, io.offset,
              workload::BlockContent::make(io.content_seed, io.length),
              granule);
  }
  return ph;
}

Phase read_phase(const char* name) {
  Phase ph = client_phase(name);
  ph.read_latency = true;
  ph.verify_reads = true;
  return ph;
}

// mixed_rw: the paper's Fig. 10/11 block path, larger than the
// fingerprint index (see NOTES.md).
void mixed_rw(uint64_t seed, bool tiny, Shape* shape, Inputs* in) {
  shape->storage_nodes = 4;
  shape->osds_per_node = 4;
  const uint64_t image = tiny ? 16 * kMiB : 512 * kMiB;
  const size_t overwrites = tiny ? 1024 : 32768;
  const size_t reads = tiny ? 1024 : 32768;
  const uint32_t small = 8 * 1024;

  in->block = true;
  in->object_bytes = image;
  in->granule = small;
  in->oids = {"mixed-image"};
  in->phases.push_back(preload(image, 32 * 1024, 0.5, seed, small));
  in->phases.push_back(random_writes("overwrite", image, small, overwrites,
                                     0.5, seed ^ 0x5EED, small));
  in->phases.push_back(drain_phase());
  Phase rd = read_phase("read");
  for (const workload::IoOp& io : workload::make_random_ops(
           image, small, reads, /*writes=*/false, 0.0, seed ^ 0xBEEF)) {
    add_read(rd, 0, io.offset, io.length);
  }
  in->phases.push_back(std::move(rd));
}

// dup_heavy_ec: the redundancy-preserving layout (replicated metadata,
// EC chunk pool) at dedupe 0.95, where the fingerprint fast path and
// chunk refcount hits do the work.
void dup_heavy_ec(uint64_t seed, bool tiny, Shape* shape, Inputs* in) {
  shape->storage_nodes = 4;
  shape->osds_per_node = 4;
  shape->ec_chunk_pool = true;
  const uint64_t image = tiny ? 16 * kMiB : 128 * kMiB;
  const size_t overwrites = tiny ? 256 : 4096;
  const uint32_t chunk = kChunkSize;

  in->block = true;
  in->object_bytes = image;
  in->granule = chunk;
  in->oids = {"restore-image"};
  in->phases.push_back(preload(image, chunk, 0.95, seed, chunk));
  in->phases.push_back(random_writes("overwrite", image, chunk, overwrites,
                                     0.95, seed ^ 0x5EED, chunk));
  in->phases.push_back(drain_phase());
  Phase rd = read_phase("restore");
  for (uint64_t off = 0; off < image; off += chunk) add_read(rd, 0, off, chunk);
  in->phases.push_back(std::move(rd));
}

// churn: bench_churn's tenant mix and rates on its 3x2 shape, telemetry
// off, with the phases shortened to fit a run.
void churn(uint64_t seed, bool tiny, Shape* shape, Inputs* in) {
  shape->storage_nodes = 3;
  shape->osds_per_node = 2;
  workload::ChurnConfig cfg;
  cfg.seed = seed;
  int tenants_onboarded = 12;
  double steady_s = 80;
  double storm_s = 40;
  size_t sweep = 8192;
  if (tiny) {
    cfg.tenants = 6;
    cfg.objects_per_tenant = 12;
    cfg.object_bytes = 128 * 1024;
    tenants_onboarded = 4;
    steady_s = 10;
    storm_s = 5;
    sweep = 256;
  }
  workload::ChurnWorkload wl(cfg);

  in->block = false;
  in->object_bytes = cfg.object_bytes;
  in->granule = cfg.io_bytes;
  std::unordered_map<std::string, uint32_t> index;
  for (int t = 0; t < cfg.tenants; t++) {
    for (int o = 0; o < cfg.objects_per_tenant; o++) {
      index.emplace(wl.oid(t, o), static_cast<uint32_t>(in->oids.size()));
      in->oids.push_back(wl.oid(t, o));
    }
  }

  auto add_ops = [&](Phase& ph, const std::vector<workload::ChurnOp>& ops) {
    for (const workload::ChurnOp& c : ops) {
      const uint32_t obj = index.at(c.oid);
      switch (c.kind) {
        case workload::ChurnOpKind::kWrite:
          add_write(ph, obj, c.offset,
                    workload::BlockContent::make(c.content_seed, c.length),
                    cfg.io_bytes);
          break;
        case workload::ChurnOpKind::kRead:
          add_read(ph, obj, c.offset, c.length);
          break;
        case workload::ChurnOpKind::kRemove: {
          Op op;
          op.kind = OpKind::kRemove;
          op.object = obj;
          ph.ops.push_back(std::move(op));
          break;
        }
      }
    }
  };
  Phase onboard = client_phase("onboard");
  onboard.write_latency = true;
  add_ops(onboard, wl.onboarding_plan(0, tenants_onboarded));
  in->phases.push_back(std::move(onboard));

  // Open-loop zipf churn; steady traffic also reaches the tenants not yet
  // onboarded, whose objects the first write creates.
  auto open = [&](const char* name, double iops, double seconds,
                  double write_frac, double delete_frac) {
    Phase ph = client_phase(name);
    ph.write_latency = true;
    ph.open_iops = iops;
    std::vector<workload::ChurnOp> ops;
    const auto n = static_cast<size_t>(iops * seconds);
    for (size_t i = 0; i < n; i++) {
      ops.push_back(wl.next_op(write_frac, delete_frac));
    }
    add_ops(ph, ops);
    in->phases.push_back(std::move(ph));
  };
  open("steady", 50, steady_s, -1.0, -1.0);
  open("overwrite-storm", 200, storm_s, 0.95, 0.01);
  open("delete-storm", 100, storm_s, 0.5, 0.15);
  in->phases.push_back(drain_phase());
  Phase rd = read_phase("read-sweep");
  std::vector<workload::ChurnOp> reads;
  for (size_t i = 0; i < sweep; i++) reads.push_back(wl.next_op(0.0, 0.0));
  add_ops(rd, reads);
  in->phases.push_back(std::move(rd));
}

}  // namespace

bool make_workload(const std::string& name, uint64_t seed, bool tiny,
                   Shape* shape, Inputs* in) {
  if (name == "mixed_rw") {
    mixed_rw(seed, tiny, shape, in);
  } else if (name == "dup_heavy_ec") {
    dup_heavy_ec(seed, tiny, shape, in);
  } else if (name == "churn") {
    churn(seed, tiny, shape, in);
  } else {
    return false;
  }
  return true;
}

size_t input_sets(const std::string& name) {
  // dup_heavy_ec's restore latency varies from one input set to the next
  // and churn's drain time is bimodal, so they pool more (cheaper) sets;
  // see NOTES.md.
  if (name == "dup_heavy_ec" || name == "churn") return 8;
  if (name == "mixed_rw") return 4;
  return 0;
}

}  // namespace gdedup::perfbench
