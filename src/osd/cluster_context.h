#pragma once

// Services an OSD (and the dedup tier running inside it) needs from the
// cluster: the scheduler, the network fabric, the shared OsdMap, peer OSD
// lookup and per-node device models.  Implemented by rados::Cluster;
// kept abstract here so osd/ and dedup/ stay independent of bring-up code.

#include <cstdlib>

#include "cluster/osd_map.h"
#include "sim/cpu.h"
#include "sim/exec_pool.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace gdedup {

class Osd;
class FingerprintIndex;

namespace obs {
class PerfRegistry;
class OpTracker;
}

class ClusterContext {
 public:
  virtual ~ClusterContext() = default;

  virtual Scheduler& sched() = 0;
  virtual Network& net() = 0;
  virtual OsdMap& osdmap() = 0;

  virtual Osd* osd(OsdId id) = 0;
  virtual NodeId node_of_osd(OsdId id) const = 0;
  virtual CpuModel& node_cpu(NodeId node) = 0;

  // When > 0, remote OsdOps give up after this much virtual time and the
  // reply callback fires with a timeout status — required for liveness when
  // OSDs can crash (silently dropping requests) or the fabric loses
  // messages.  0 (the default) preserves wait-forever semantics.
  virtual SimTime op_timeout() const { return 0; }

  // Observability hooks (obs/).  Default nullptr: contexts without an
  // observability layer (unit-test fixtures) cost nothing, and every
  // instrumentation site null-checks.  rados::Cluster returns its own.
  virtual obs::PerfRegistry* perf_registry() { return nullptr; }
  virtual obs::OpTracker* op_tracker() { return nullptr; }

  // Worker pool for the real-byte kernels (sim/exec_pool.h).  Default
  // nullptr: kernel_async() then runs the job inline at take(), which is
  // exactly the serial path — fixtures without a cluster need no pool.
  virtual ExecPool* exec_pool() { return nullptr; }

  // Recipe-chunk metadata dedup (dedup/recipe.h).  This knob changes
  // persisted bytes — chunk maps compact into content-addressed recipe
  // chunks and omap writes batch per flush cycle — so it carries its own
  // frozen determinism digest (byte-identical at any shards×threads, but
  // different from default mode).
  // Default: the GDEDUP_RECIPE_DEDUP environment variable, OFF unless
  // set non-empty and not "0".  rados::Cluster overrides with its
  // ClusterConfig knob.
  static bool env_recipe_dedup() {
    const char* v = std::getenv("GDEDUP_RECIPE_DEDUP");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }
  virtual bool recipe_dedup() const { return env_recipe_dedup(); }

  // Node-local fingerprint index shared by the dedup tiers of one storage
  // node (every event of a node runs on that node's engine shard, so the
  // index needs no lock).  Default nullptr: tiers in cluster-less
  // fixtures fall back to a private per-tier index.
  virtual FingerprintIndex* fp_index(NodeId node) {
    (void)node;
    return nullptr;
  }
};

}  // namespace gdedup
