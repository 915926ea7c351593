#pragma once

// Op tracing in simulated time (Ceph's OpTracker / dump_historic_ops
// analog).
//
// A trace is created where an operation is born (a client submit, a flush
// pipeline launch, a recovery pull), threaded by shared_ptr through the
// async callback chain (OsdOp carries one across message hops), and
// annotated with named spans per stage: chunking, fingerprint, chunk-pool
// put, deref, flush, recovery pull.  Because the callback style here is
// explicit continuation-passing rather than RAII scopes, spans are opened
// with span_begin() (returning an index) and closed with span_end().
//
// The tracker never retains in-flight traces: an op abandoned by a crash
// simply drops its trace when the last closure holding it is destroyed.
// finish() moves a trace into (a) a bounded ring of recently completed
// ops, evicted FIFO, and (b) a bounded "slowest N" board ordered by
// duration (ties broken by op id, so same-seed runs rank identically).
// dump_historic_slow_ops() is the flight-recorder view the fault campaign
// attaches to failure reports.
//
// All timestamps are sim-time nanoseconds supplied by the caller; the
// tracker itself never consults a clock, which keeps it trivially
// deterministic and usable from any layer.

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/scheduler.h"

namespace gdedup::obs {

struct TraceSpan {
  std::string stage;
  SimTime begin = 0;
  SimTime end = -1;  // -1 while open
};

class OpTrace {
 public:
  // Room for a client op's usual stages (tier, fingerprint, chunk
  // put/deref or read), so span growth does not reallocate.
  OpTrace(uint64_t id, std::string desc, SimTime start)
      : id_(id), desc_(std::move(desc)), start_(start) {
    spans_.reserve(4);
  }

  // Open a named stage; returns an index for span_end().  Spans may nest
  // or overlap freely (they are intervals, not a stack).
  size_t span_begin(std::string stage, SimTime now);
  void span_end(size_t idx, SimTime now);
  // Zero-duration marker span.
  void event(std::string stage, SimTime now);

  uint64_t id() const { return id_; }
  const std::string& description() const { return desc_; }
  SimTime start() const { return start_; }
  SimTime finish_time() const { return finish_; }
  // Total latency; -1 while unfinished.
  SimTime duration() const { return finish_ < 0 ? -1 : finish_ - start_; }
  const std::vector<TraceSpan>& spans() const { return spans_; }

  // "id=12 dur=34.00 us write bench/obj-1 [rpc 0+34.00us; ...]"
  std::string text() const;
  void dump(JsonWriter& w) const;

 private:
  friend class OpTracker;

  uint64_t id_;
  std::string desc_;
  SimTime start_;
  SimTime finish_ = -1;
  std::vector<TraceSpan> spans_;
};

using OpTraceRef = std::shared_ptr<OpTrace>;

class OpTracker {
 public:
  // Bounds for the configurable rings.  Oversized boards would make every
  // finish() pay a large sorted-insert; zero-sized ones would silently
  // drop the flight recorder, so both ends are validated loudly.
  static constexpr size_t kDefaultHistoricCap = 128;
  static constexpr size_t kDefaultSlowCap = 16;
  static constexpr size_t kMaxHistoricCap = 1u << 20;
  static constexpr size_t kMaxSlowCap = 4096;

  explicit OpTracker(size_t historic_cap = kDefaultHistoricCap,
                     size_t slow_cap = kDefaultSlowCap)
      : historic_cap_(historic_cap), slow_cap_(slow_cap) {}

  size_t historic_cap() const { return historic_cap_; }
  size_t slow_cap() const { return slow_cap_; }

  // Resolve the historic-ring cap: `configured` (ClusterConfig, > 0) wins,
  // else the GDEDUP_OPS_HISTORY env var, else kDefaultHistoricCap.
  // Unparseable values warn and fall back to the default; out-of-range
  // values warn and clamp to [1, kMaxHistoricCap] — never a silent
  // truncation.
  static size_t resolve_historic_cap(int configured);
  // Same for the slow board (ClusterConfig only; clamps to
  // [1, kMaxSlowCap]).
  static size_t resolve_slow_cap(int configured);

  // Create a trace.  Never fails; the tracker keeps no reference until
  // finish().
  OpTraceRef start(std::string desc, SimTime now);

  // Record completion.  Null-safe so call sites can pass an optional
  // trace unconditionally.  Double-finish is ignored.
  void finish(const OpTraceRef& t, SimTime now);

  uint64_t started() const { return started_; }
  uint64_t finished() const { return finished_; }

  // Most recent completions, oldest first (bounded by historic_cap).
  const std::deque<OpTraceRef>& historic() const { return historic_; }

  // The n slowest completed ops, slowest first; ties by ascending id.
  std::vector<OpTraceRef> dump_historic_slow_ops(size_t n) const;

  // Deterministic flight-recorder tail for plain-text reports.
  std::string slow_ops_text(size_t n) const;

  void dump(JsonWriter& w, size_t slow_n = 16) const;

 private:
  // start()/finish() run on whichever shard hosts the op; the lock keeps
  // the rings exact during parallel windows (uncontended in serial runs).
  // Trace ids may interleave differently across thread schedules — they
  // are debugging handles, never digested.
  mutable std::mutex mu_;
  size_t historic_cap_;
  size_t slow_cap_;
  uint64_t next_id_ = 1;
  uint64_t started_ = 0;
  uint64_t finished_ = 0;
  std::deque<OpTraceRef> historic_;
  std::vector<OpTraceRef> slow_;  // sorted: duration desc, id asc
};

}  // namespace gdedup::obs
