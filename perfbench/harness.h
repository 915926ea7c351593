#pragma once

// Benchmark harness: drives one workload through a freshly built cluster,
// timing only the client phases and checking every read against an oracle.
//
// The harness sits outside the program.  It calls public entry points only
// (RadosClient / BlockDevice ops, Scheduler::step, Cluster::drain_dedup)
// and reads the public counters (ExecPool::kernel_stats, OSD and tier
// perf counters, Cluster::pool_stats, Scheduler::stats).  In a traced
// iteration it also times its own calls into those entry points, which is
// how the per-layer split is measured without spans inside the program.

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "rados/cluster.h"
#include "sim/exec_pool.h"

namespace gdedup::perfbench {

// Host monotonic clock in nanoseconds.
int64_t host_ns();

// User + system CPU seconds of this process.
double cpu_seconds();

// ------------------------------------------------------------- inputs

enum class OpKind : uint8_t { kWrite, kRead, kRemove };

struct Op {
  OpKind kind = OpKind::kWrite;
  uint32_t object = 0;   // index into Inputs::oids (block workloads: 0)
  uint64_t offset = 0;   // within the object (block workloads: the image)
  uint32_t length = 0;
  Buffer data;           // writes: own freshly generated payload
  uint32_t crc_at = 0;   // writes: first of length/granule CRCs in Phase::crcs
};

enum class PhaseKind : uint8_t { kClient, kDrain };

struct Phase {
  std::string name;
  PhaseKind kind = PhaseKind::kClient;
  std::vector<Op> ops;
  std::vector<uint32_t> crcs;  // per-granule CRC32C of every write payload
  double open_iops = 0;        // > 0: open loop at this rate; else closed
  bool write_latency = false;  // writes count toward write_p50/p99
  bool read_latency = false;   // reads count toward read_p50/p99
  bool verify_reads = false;   // reads are checked against the oracle
};

// Everything a workload generates before the timer starts.
struct Inputs {
  bool block = true;               // BlockDevice over one image vs objects
  uint64_t object_bytes = 0;       // image size / per-object size cap
  uint32_t granule = 0;            // oracle granularity (aligned I/O unit)
  std::vector<std::string> oids;   // object names (block: the image name)
  std::vector<Phase> phases;
};

// Dedup chunk size of every workload (the paper's default).
constexpr uint32_t kChunkSize = 32 * 1024;

struct Shape {
  int storage_nodes = 4;
  int osds_per_node = 4;
  bool ec_chunk_pool = false;  // EC(2,1) chunk pool; metadata stays 2x
};

// Appends the payload's per-granule CRCs to `ph` and the op to its list.
void add_write(Phase& ph, uint32_t object, uint64_t offset, Buffer data,
               uint32_t granule);

// ------------------------------------------------------------- results

enum class Inject : uint8_t { kNone, kReadback, kUndrained, kConservation };

// Counters summed over the cluster, read through the public interfaces.
struct LayerCounters {
  uint64_t events = 0;
  uint64_t arena_bytes = 0;
  uint64_t net_bytes = 0;
  uint64_t kernel_jobs[static_cast<int>(Kernel::kCount)] = {};
  uint64_t kernel_ns[static_cast<int>(Kernel::kCount)] = {};
  uint64_t sub_writes = 0;
  uint64_t chunk_puts = 0;
  uint64_t chunk_dedup_hits = 0;
  uint64_t meta_bytes_read = 0;
  uint64_t meta_bytes_written = 0;
  uint64_t refs_decodes = 0;
  uint64_t refs_cache_hits = 0;
  uint64_t client_errors = 0;
  uint64_t sha_computed = 0;
  uint64_t sha_avoided = 0;
  uint64_t fp_memo_hits = 0;
  uint64_t evictions = 0;
  uint64_t read_logical_bytes = 0;
  uint64_t read_chunk_objects = 0;
  uint64_t read_chunk_rpcs = 0;
  uint64_t redirected_read_chunks = 0;
  uint64_t asm_hits = 0;
  uint64_t flush_lat_p99_ns = 0;
};

// Host-time split of a traced iteration (nanoseconds).
struct TraceTotals {
  int64_t step_ns = 0;            // inside Scheduler::step, client phases
  int64_t submit_ns = 0;          // inside client submit calls, all
  int64_t submit_in_step_ns = 0;  // ... of which ran inside step()
  int64_t read_crc_ns = 0;        // harness CRC of returned read bytes
  int64_t client_kernel_ns = 0;   // ExecPool kernels during client phases
  int64_t drain_kernel_ns = 0;    // ExecPool kernels during the drain
  uint64_t allocs = 0;            // operator new calls in the timed region
  uint64_t spans = 0;
};

struct IterResult {
  // host
  double setup_s = 0;
  double gen_s = 0;
  double timed_s = 0;
  double timed_cpu_s = 0;  // user + system CPU over the timed region
  double drain_s = 0;
  // virtual
  uint64_t client_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  SimTime client_virtual = 0;
  SimTime drain_virtual = 0;
  std::vector<SimTime> write_lat;
  std::vector<SimTime> read_lat;
  SimTime open_lateness = 0;      // worst generator lateness (open loop)
  uint64_t meta_physical = 0;   // pool bytes right after the drain
  uint64_t chunk_physical = 0;
  uint64_t live_bytes = 0;      // user bytes the oracle holds then
  double space_amp = 0;
  bool drained = false;
  std::vector<std::string> problems;  // gate failures, human readable
  std::string digest;
  LayerCounters layers;
  TraceTotals trace;
  std::string trace_json;  // spans + completions + snapshots (traced only)
};

struct IterOptions {
  uint64_t seed = 1;
  bool tiny = false;
  bool traced = false;
  bool keep_spans = false;
  bool promote_on_read = false;  // see tier_config() in harness.cc
  Inject inject = Inject::kNone;
};

// Fills the shape and inputs of a named workload (workloads.cc).  Returns
// false for an unknown name.
bool make_workload(const std::string& name, uint64_t seed, bool tiny,
                   Shape* shape, Inputs* in);

// Number of input sets (seeds derived from --seed) a run of `name` pools
// its virtual-time metrics over; 0 for an unknown name.
size_t input_sets(const std::string& name);

// Runs one iteration of `workload`: set-up, the timed phases, then the
// correctness gate.  Returns false for an unknown workload name.
bool run_iteration(const std::string& workload, const IterOptions& opt,
                   IterResult* out);

// Operator-new call counter (counting is enabled only in traced runs).
void alloc_counting(bool on);
uint64_t alloc_count();

}  // namespace gdedup::perfbench
