#pragma once

// librados-style asynchronous client.
//
// Stateless: each op resolves the current primary from the shared OsdMap
// (the decentralized translation of Figure 2(b)) and ships the op over the
// network.  Completion callbacks fire on the client node after the reply
// lands.  Synchronous wrappers (which drive the scheduler) live in
// rados/sync.h for tests and setup code.

#include <functional>
#include <string>
#include <vector>

#include "obs/perf_counters.h"
#include "osd/cluster_context.h"
#include "osd/messages.h"
#include "osd/osd.h"

namespace gdedup {

// Perf-counter indices for one client (registry entity
// "client.node<N>[.k]"; the suffix disambiguates multiple clients on one
// node in construction order).
enum {
  l_client_first = 3000,
  l_client_ops,
  l_client_reads,
  l_client_writes,
  l_client_removes,
  l_client_bytes_read,
  l_client_bytes_written,
  l_client_errors,      // replies with a non-OK status
  l_client_read_lat,    // submit -> reply, ns, client side
  l_client_write_lat,
  l_client_last,
};

class RadosClient {
 public:
  RadosClient(ClusterContext* ctx, NodeId node);

  NodeId node() const { return node_; }
  obs::PerfCounters& perf() { return *perf_; }
  const obs::PerfCounters& perf() const { return *perf_; }

  // The OID moves into the message; an ObjectName argument is a refcount
  // bump, a string builds the name.
  void write(PoolId pool, ObjectName oid, uint64_t off, Buffer data,
             std::function<void(Status)> cb);
  void write_full(PoolId pool, ObjectName oid, Buffer data,
                  std::function<void(Status)> cb);
  void read(PoolId pool, ObjectName oid, uint64_t off, uint64_t len,
            std::function<void(Result<Buffer>)> cb);
  void remove(PoolId pool, ObjectName oid, std::function<void(Status)> cb);
  void stat(PoolId pool, ObjectName oid,
            std::function<void(Result<uint64_t>)> cb);
  void getxattr(PoolId pool, ObjectName oid, const std::string& name,
                std::function<void(Result<Buffer>)> cb);
  void setxattr(PoolId pool, ObjectName oid, const std::string& name,
                Buffer value, std::function<void(Status)> cb);

 private:
  void submit(OsdOp op, ReplyFn cb);

  ClusterContext* ctx_;
  NodeId node_;
  obs::PerfCountersRef perf_;
};

// Client-side striping over fixed-size RADOS objects — the role the KRBD
// block device plays in the paper's block-storage experiments.
class BlockDevice {
 public:
  BlockDevice(RadosClient* client, PoolId pool, std::string image_name,
              uint64_t size_bytes, uint32_t object_size = 4 * 1024 * 1024);

  uint64_t size() const { return size_; }
  uint32_t object_size() const { return object_size_; }
  const std::string& name() const { return name_; }

  void write(uint64_t off, Buffer data, std::function<void(Status)> cb);
  void read(uint64_t off, uint64_t len,
            std::function<void(Result<Buffer>)> cb);

  // Object backing a block offset.  Each object's name is built on first
  // use and kept, so an op copies it instead of formatting it.
  ObjectName object_for(uint64_t off) const;

 private:
  RadosClient* client_;
  PoolId pool_;
  std::string name_;
  uint64_t size_;
  uint32_t object_size_;
  mutable std::vector<ObjectName> names_;  // by object index
};

}  // namespace gdedup
