#pragma once

// Sharded discrete-event scheduler with a virtual nanosecond clock.
//
// The whole cluster runs inside one Scheduler: client ops, OSD service
// loops, background dedup passes and recovery are all events.  Events are
// partitioned into per-node *shards* (conservative parallel DES): each
// shard owns a calendar queue and executes its events in strict (time,
// sequence) order, and shards only advance together through bounded
// *windows* [W, W+L) where L is the network lookahead (the minimum
// non-loopback link latency).  Cross-node messages never touch another
// shard's queue directly: they are posted as *ingress* records sequenced
// at the receiver by (arrival time, sender, per-sender message sequence),
// so delivery order — and therefore every virtual-time observable — is a
// pure function of virtual time, independent of the shard count and of
// host-thread timing.  DESIGN.md §9 develops the determinism argument.
//
// Control-plane code (bench harnesses, Cluster::recover, fault planners)
// schedules from outside any shard; those events land on a *global lane*
// that executes exclusively, with every shard synced at the event's
// timestamp, so configuration changes are atomic across shards.
//
// The default is one shard — byte-identical behaviour at any shard count
// is the contract, enforced by ctest (test_sim_shards).  Shard windows
// execute serially unless GDEDUP_SIM_PARALLEL enables the worker threads.

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "sim/calendar_queue.h"
#include "sim/time.h"

namespace gdedup {

using NodeId = int;

// True while shard workers are concurrently executing a window.  Gates the
// cross-shard read locks in the object store / OSD (serial execution pays
// only this one relaxed load per access).
bool sim_parallel_phase();

class Scheduler {
 public:
  // Move-only: an event runs its callback once (calendar_queue.h).
  using Callback = EventFn;
  using EventId = uint64_t;

  Scheduler() : Scheduler(1) {}
  explicit Scheduler(int shards);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // GDEDUP_SIM_SHARDS (default 1, clamped to [1, 64]).
  static int env_shards();
  // GDEDUP_SIM_PARALLEL: run shard windows on worker threads.
  static bool env_parallel();

  int shards() const { return static_cast<int>(shards_.size()); }

  // Node -> shard placement.  Unset: node % shards().
  void set_node_shard_map(std::vector<int> node_to_shard);
  int shard_of_node(NodeId n) const;

  // Inside an event: that event's virtual time.  Outside: the high-water
  // mark of executed virtual time (== the `until` of the last run_until).
  SimTime now() const;

  // Schedule `cb` at absolute time t (clamped to now).  From inside an
  // event the new event joins the calling shard; from control-plane code
  // it lands on the global lane.
  EventId at(SimTime t, Callback cb);

  // Schedule `cb` after a relative delay (>= 0).
  EventId after(SimTime delay, Callback cb) {
    return at(now() + (delay < 0 ? 0 : delay), std::move(cb));
  }

  // Schedule onto `node`'s shard regardless of the calling context (used
  // where control-plane code starts node-affine services: engine ticks,
  // client op timeout timers).
  EventId at_node(NodeId node, SimTime t, Callback cb);
  EventId after_node(NodeId node, SimTime delay, Callback cb) {
    return at_node(node, now() + (delay < 0 ? 0 : delay), std::move(cb));
  }

  // Best-effort cancel; returns false if unknown.  Lazy: the event is
  // skipped when popped.
  bool cancel(EventId id);

  bool empty() const { return pending() == 0; }
  size_t pending() const;

  // Advance one quantum: either every global-lane event at the next
  // control timestamp, or one shard window.  Returns false if idle.
  bool step();

  // Drain every event (stops when all queues empty).
  void run();

  // Run events with t <= until; afterwards now() == until (even if idle).
  void run_until(SimTime until);

  void run_for(SimTime duration) { run_until(now() + duration); }

  // Callbacks dispatched so far (cancelled events and internal ingress-
  // sequencing records don't count, so the number stays comparable across
  // engine generations).  Part of the determinism contract: two runs of
  // the same seed must match, at any shard count.
  uint64_t events_executed() const;

  // --- sharded-engine controls ---

  // Conservative lookahead: cross-node messages arrive at least this much
  // after their send time, so shards may run `lookahead` ahead of each
  // other inside a window.  Registered by the Network from its minimum
  // hop latency; 0 / unset forces single-timestamp (lockstep) windows.
  void set_lookahead(SimTime l);
  SimTime lookahead() const { return lookahead_; }

  // Lockstep: windows cover exactly one timestamp.  Required whenever
  // in-window code may mutate state that another shard's events peek at
  // event granularity (fault injection hooks, recovery installs).
  void set_lockstep(bool on) { lockstep_ = on; }
  bool lockstep() const { return lockstep_; }

  // Force worker threads on/off (overrides GDEDUP_SIM_PARALLEL).
  void set_parallel(bool on) { parallel_ = on; }

  // --- receiver-sequenced message ingress (used by Network) ---
  // The sink resolves receiver-side resource contention: it runs on the
  // destination shard, in (arrival, sender, msg_seq) order among all of
  // that node's ingress, and schedules the actual delivery callback.
  using IngressSink =
      std::function<void(NodeId to, SimTime arrival, uint64_t service_ns,
                         Callback deliver)>;
  void set_ingress_sink(IngressSink sink) { ingress_sink_ = std::move(sink); }

  // Post a cross-node message for delivery at `arrival` (must be >= the
  // caller's now() + lookahead).  `msg_seq` must be monotone per sender.
  void post_message(NodeId from, NodeId to, SimTime arrival,
                    uint64_t service_ns, uint64_t msg_seq, Callback deliver);

  struct Stats {
    uint64_t events_dispatched = 0;  // callbacks + ingress dispatches
    uint64_t events_batched = 0;     // dispatched in a same-timestamp run
    uint64_t ingress_messages = 0;   // receiver-sequenced message records
    uint64_t shard_sync_barriers = 0;  // windows synced across > 1 shard
    uint64_t windows = 0;            // shard windows pumped
    uint64_t arena_bytes = 0;        // event-slab bytes reserved
  };
  Stats stats() const;

 private:
  static constexpr uint64_t kIngressKeyBit = 1ull << 62;
  static constexpr int kGlobalLane = -1;
  enum NodeKind : uint8_t { kCallback = 0, kIngress = 1 };

  struct PostedMsg {  // parallel-mode inbox record (drained at barriers)
    SimTime t;
    uint64_t key;
    uint64_t aux;
    int32_t node;
    Callback cb;
  };

  struct Shard {
    explicit Shard(int idx) : index(idx), q(&arena) {}
    int index;
    EventArena arena;
    CalendarQueue q;
    SimTime clock = 0;
    uint64_t next_seq = 1;
    uint64_t executed = 0;
    uint64_t batched = 0;
    uint64_t ingress = 0;
    std::unordered_set<uint64_t> cancelled;
    std::mutex inbox_mu;
    std::vector<PostedMsg> inbox;
  };

  struct GlobalEvent {
    SimTime t;
    uint64_t seq;
    Callback cb;
  };
  struct GlobalLater {
    bool operator()(const GlobalEvent& a, const GlobalEvent& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  EventId insert_into_shard(Shard& sh, SimTime t, Callback cb);
  EventId insert_global(SimTime t, Callback cb);
  SimTime global_min();  // purges cancelled heads
  GlobalEvent pop_global();
  void run_global_at(SimTime t);
  void run_shard_window(Shard& sh, SimTime h);
  void run_window(SimTime w, SimTime h);
  void drain_inboxes();
  bool pump(SimTime limit);
  void start_workers();
  void stop_workers();
  void worker_main(int shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<int> node_shard_;
  SimTime lookahead_ = 0;
  bool lockstep_ = false;
  bool parallel_ = false;

  // Global (control) lane.
  // A binary heap under GlobalLater (std::push_heap / std::pop_heap), so
  // the popped event's callback can be moved out.
  std::vector<GlobalEvent> global_q_;
  uint64_t global_next_seq_ = 1;
  uint64_t global_executed_ = 0;
  SimTime global_clock_ = 0;
  std::unordered_set<uint64_t> global_cancelled_;

  SimTime hwm_ = 0;  // max(virtual time executed, explicit run_until marks)
  uint64_t windows_ = 0;
  uint64_t barriers_ = 0;

  IngressSink ingress_sink_;

  // Parallel window execution (lazy-started persistent workers).
  std::vector<std::thread> workers_;
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t work_generation_ = 0;
  SimTime work_h_ = 0;
  int work_remaining_ = 0;
  bool stopping_ = false;
};

// Gated locks: no-ops unless a parallel window is executing.  Cross-shard
// readers (peeks documented in DESIGN.md §9) take the shared side; owners
// take the exclusive side around structural mutation.
class MaybeSharedLock {
 public:
  explicit MaybeSharedLock(std::shared_mutex& m) {
    if (sim_parallel_phase()) {
      m_ = &m;
      m_->lock_shared();
    }
  }
  ~MaybeSharedLock() {
    if (m_ != nullptr) m_->unlock_shared();
  }
  MaybeSharedLock(const MaybeSharedLock&) = delete;
  MaybeSharedLock& operator=(const MaybeSharedLock&) = delete;

 private:
  std::shared_mutex* m_ = nullptr;
};

class MaybeUniqueLock {
 public:
  explicit MaybeUniqueLock(std::shared_mutex& m) {
    if (sim_parallel_phase()) {
      m_ = &m;
      m_->lock();
    }
  }
  ~MaybeUniqueLock() {
    if (m_ != nullptr) m_->unlock();
  }
  MaybeUniqueLock(const MaybeUniqueLock&) = delete;
  MaybeUniqueLock& operator=(const MaybeUniqueLock&) = delete;

 private:
  std::shared_mutex* m_ = nullptr;
};

}  // namespace gdedup
