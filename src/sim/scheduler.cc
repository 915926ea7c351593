#include "sim/scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace gdedup {

namespace {

// Execution context of the current host thread: which scheduler (if any)
// is dispatching an event here, and on which lane.  Shard workers and the
// serial pump both set it around dispatch, so at()/now() route by context.
struct ExecCtx {
  const Scheduler* sched = nullptr;
  int shard = 0;
};
thread_local ExecCtx t_ctx;

std::atomic<bool> g_parallel_phase{false};

constexpr uint64_t kGlobalLaneByte = 0xFF;
constexpr uint64_t kSeqMask = (1ull << 56) - 1;

}  // namespace

bool sim_parallel_phase() {
  return g_parallel_phase.load(std::memory_order_relaxed);
}

Scheduler::Scheduler(int shards) {
  if (shards < 1) shards = 1;
  if (shards > 64) shards = 64;
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; i++) {
    shards_.push_back(std::make_unique<Shard>(i));
  }
  parallel_ = env_parallel();
}

Scheduler::~Scheduler() { stop_workers(); }

int Scheduler::env_shards() {
  const char* s = std::getenv("GDEDUP_SIM_SHARDS");
  if (s == nullptr || *s == '\0') return 1;
  const int n = std::atoi(s);
  if (n < 1) return 1;
  if (n > 64) return 64;
  return n;
}

bool Scheduler::env_parallel() {
  const char* s = std::getenv("GDEDUP_SIM_PARALLEL");
  if (s == nullptr) return false;
  return std::strcmp(s, "0") != 0 && std::strcmp(s, "") != 0;
}

void Scheduler::set_node_shard_map(std::vector<int> node_to_shard) {
  for (int s : node_to_shard) {
    assert(s >= 0 && s < shards());
    (void)s;
  }
  node_shard_ = std::move(node_to_shard);
}

int Scheduler::shard_of_node(NodeId n) const {
  assert(n >= 0);
  if (static_cast<size_t>(n) < node_shard_.size()) {
    return node_shard_[static_cast<size_t>(n)];
  }
  return n % shards();
}

SimTime Scheduler::now() const {
  if (t_ctx.sched == this) {
    if (t_ctx.shard == kGlobalLane) return global_clock_;
    return shards_[static_cast<size_t>(t_ctx.shard)]->clock;
  }
  return hwm_;
}

Scheduler::EventId Scheduler::insert_into_shard(Shard& sh, SimTime t,
                                                Callback cb) {
  const uint64_t seq = sh.next_seq++;
  sh.q.insert(sh.arena.make(t, seq, nullptr, std::move(cb), uint64_t{0},
                            int32_t{-1}, static_cast<uint8_t>(kCallback)));
  return ((static_cast<uint64_t>(sh.index) + 1) << 56) | seq;
}

Scheduler::EventId Scheduler::insert_global(SimTime t, Callback cb) {
  const uint64_t seq = global_next_seq_++;
  global_q_.push_back(GlobalEvent{t, seq, std::move(cb)});
  std::push_heap(global_q_.begin(), global_q_.end(), GlobalLater{});
  return (kGlobalLaneByte << 56) | seq;
}

Scheduler::EventId Scheduler::at(SimTime t, Callback cb) {
  const SimTime floor = now();
  if (t < floor) t = floor;
  if (t_ctx.sched == this && t_ctx.shard != kGlobalLane) {
    return insert_into_shard(*shards_[static_cast<size_t>(t_ctx.shard)], t,
                             std::move(cb));
  }
  return insert_global(t, std::move(cb));
}

Scheduler::EventId Scheduler::at_node(NodeId node, SimTime t, Callback cb) {
  const SimTime floor = now();
  if (t < floor) t = floor;
  const int s = shard_of_node(node);
  // Legal callers: the target shard itself, or control / the global lane
  // (which runs with every shard quiescent).  A *different* shard must go
  // through the network instead — its insertion order would otherwise
  // depend on host timing.
  assert(t_ctx.sched != this || t_ctx.shard == kGlobalLane ||
         t_ctx.shard == s);
  return insert_into_shard(*shards_[static_cast<size_t>(s)], t,
                           std::move(cb));
}

bool Scheduler::cancel(EventId id) {
  if (id == 0) return false;
  const uint64_t lane = id >> 56;
  const uint64_t seq = id & kSeqMask;
  if (lane == kGlobalLaneByte) {
    if (seq == 0 || seq >= global_next_seq_) return false;
    return global_cancelled_.insert(seq).second;
  }
  const int s = static_cast<int>(lane) - 1;
  if (s < 0 || s >= shards()) return false;
  Shard& sh = *shards_[static_cast<size_t>(s)];
  // Only the owning shard or quiescent control may cancel.
  assert(!sim_parallel_phase() || (t_ctx.sched == this && t_ctx.shard == s));
  if (seq == 0 || seq >= sh.next_seq) return false;
  return sh.cancelled.insert(seq).second;
}

size_t Scheduler::pending() const {
  size_t queued = global_q_.size();
  size_t cancelled = global_cancelled_.size();
  for (const auto& sh : shards_) {
    queued += sh->q.size();
    cancelled += sh->cancelled.size();
  }
  return queued > cancelled ? queued - cancelled : 0;
}

uint64_t Scheduler::events_executed() const {
  uint64_t n = global_executed_;
  for (const auto& sh : shards_) n += sh->executed;
  return n;
}

Scheduler::GlobalEvent Scheduler::pop_global() {
  std::pop_heap(global_q_.begin(), global_q_.end(), GlobalLater{});
  GlobalEvent ev = std::move(global_q_.back());
  global_q_.pop_back();
  return ev;
}

SimTime Scheduler::global_min() {
  while (!global_q_.empty() &&
         global_cancelled_.erase(global_q_.front().seq) > 0) {
    pop_global();
  }
  return global_q_.empty() ? CalendarQueue::kNoEvent : global_q_.front().t;
}

void Scheduler::run_global_at(SimTime t) {
  const ExecCtx saved = t_ctx;
  t_ctx = {this, kGlobalLane};
  global_clock_ = t;
  for (;;) {
    if (global_min() != t) break;
    GlobalEvent ev = pop_global();
    global_executed_++;
    ev.cb();
  }
  t_ctx = saved;
}

void Scheduler::run_shard_window(Shard& sh, SimTime h) {
  const ExecCtx saved = t_ctx;
  t_ctx = {this, sh.index};
  SimTime batch_t = -1;
  EventNode* n;
  while ((n = sh.q.peek_min()) != nullptr && n->t < h) {
    sh.q.pop_min();
    if (n->kind == kCallback && !sh.cancelled.empty() &&
        sh.cancelled.erase(n->key) > 0) {
      sh.arena.destroy(n);
      continue;
    }
    assert(n->t >= sh.clock);
    sh.clock = n->t;
    if (n->t == batch_t) {
      sh.batched++;
    } else {
      batch_t = n->t;
    }
    if (n->kind == kIngress) {
      // Ingress sequencing is engine bookkeeping, not a simulation
      // callback: counted separately so events_executed() stays
      // comparable across engine generations.
      sh.ingress++;
      Callback deliver = std::move(n->cb);
      const NodeId to = n->node;
      const SimTime arrival = n->t;
      const uint64_t service = n->aux;
      sh.arena.destroy(n);
      ingress_sink_(to, arrival, service, std::move(deliver));
    } else {
      sh.executed++;
      Callback cb = std::move(n->cb);
      sh.arena.destroy(n);
      cb();
    }
  }
  t_ctx = saved;
}

void Scheduler::run_window(SimTime w, SimTime h) {
  windows_++;
  const int s = shards();
  int active = 0;
  if (s > 1) {
    for (auto& sh : shards_) {
      if (sh->q.min_time() < h) active++;
    }
    barriers_++;
  }
  (void)w;
  if (parallel_ && s > 1 && !lockstep_ && active > 1) {
    start_workers();
    {
      std::unique_lock<std::mutex> lk(work_mu_);
      work_h_ = h;
      work_remaining_ = s;
      work_generation_++;
      g_parallel_phase.store(true, std::memory_order_relaxed);
      work_cv_.notify_all();
      done_cv_.wait(lk, [this] { return work_remaining_ == 0; });
      g_parallel_phase.store(false, std::memory_order_relaxed);
    }
    // Serial execution inserts cross-shard posts directly (keyed, so the
    // insertion moment is irrelevant); only parallel windows buffer them.
    drain_inboxes();
  } else {
    for (auto& sh : shards_) run_shard_window(*sh, h);
  }
}

void Scheduler::drain_inboxes() {
  for (auto& sh : shards_) {
    std::vector<PostedMsg> msgs;
    {
      std::lock_guard<std::mutex> lk(sh->inbox_mu);
      msgs.swap(sh->inbox);
    }
    for (PostedMsg& m : msgs) {
      sh->q.insert(sh->arena.make(m.t, m.key, nullptr, std::move(m.cb),
                                  m.aux, m.node,
                                  static_cast<uint8_t>(kIngress)));
    }
  }
}

void Scheduler::post_message(NodeId from, NodeId to, SimTime arrival,
                             uint64_t service_ns, uint64_t msg_seq,
                             Callback deliver) {
  assert(from >= 0 && from < (1 << 18));
  assert(arrival >= now());
  const int s = shard_of_node(to);
  const uint64_t key = kIngressKeyBit |
                       (static_cast<uint64_t>(from) << 44) |
                       (msg_seq & ((1ull << 44) - 1));
  Shard& sh = *shards_[static_cast<size_t>(s)];
  if (sim_parallel_phase() &&
      !(t_ctx.sched == this && t_ctx.shard == s)) {
    std::lock_guard<std::mutex> lk(sh.inbox_mu);
    sh.inbox.push_back(PostedMsg{arrival, key, service_ns,
                                 static_cast<int32_t>(to),
                                 std::move(deliver)});
    return;
  }
  sh.q.insert(sh.arena.make(arrival, key, nullptr, std::move(deliver),
                            service_ns, static_cast<int32_t>(to),
                            static_cast<uint8_t>(kIngress)));
}

void Scheduler::set_lookahead(SimTime l) {
  if (l < 0) l = 0;
  if (lookahead_ == 0 || (l > 0 && l < lookahead_)) lookahead_ = l;
}

bool Scheduler::pump(SimTime limit) {
  const SimTime gmin = global_min();
  SimTime w = CalendarQueue::kNoEvent;
  for (auto& sh : shards_) w = std::min(w, sh->q.min_time());
  const SimTime first = std::min(gmin, w);
  if (first == CalendarQueue::kNoEvent || first > limit) return false;
  if (gmin <= w) {
    // Control quantum: every global-lane event at this timestamp runs
    // with all shards synced (they are strictly behind or at gmin).
    run_global_at(gmin);
    if (gmin > hwm_) hwm_ = gmin;
    return true;
  }
  SimTime h;
  if (lockstep_ || lookahead_ <= 0) {
    h = w + 1;
  } else {
    h = w + lookahead_;
  }
  if (gmin != CalendarQueue::kNoEvent) h = std::min(h, gmin);
  if (limit != CalendarQueue::kNoEvent) h = std::min(h, limit + 1);
  run_window(w, h);
  for (auto& sh : shards_) hwm_ = std::max(hwm_, sh->clock);
  return true;
}

bool Scheduler::step() { return pump(CalendarQueue::kNoEvent); }

void Scheduler::run() {
  while (pump(CalendarQueue::kNoEvent)) {
  }
}

void Scheduler::run_until(SimTime until) {
  while (pump(until)) {
  }
  if (hwm_ < until) hwm_ = until;
}

Scheduler::Stats Scheduler::stats() const {
  Stats st;
  st.shard_sync_barriers = barriers_;
  st.windows = windows_;
  for (const auto& sh : shards_) {
    st.events_dispatched += sh->executed + sh->ingress;
    st.events_batched += sh->batched;
    st.ingress_messages += sh->ingress;
    st.arena_bytes += sh->arena.bytes_reserved();
  }
  st.events_dispatched += global_executed_;
  return st;
}

void Scheduler::start_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(shards_.size());
  for (int i = 0; i < shards(); i++) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void Scheduler::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(work_mu_);
    stopping_ = true;
    work_cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  stopping_ = false;
}

void Scheduler::worker_main(int shard) {
  uint64_t seen = 0;
  for (;;) {
    SimTime h;
    {
      std::unique_lock<std::mutex> lk(work_mu_);
      work_cv_.wait(lk, [&] { return stopping_ || work_generation_ != seen; });
      if (stopping_) return;
      seen = work_generation_;
      h = work_h_;
    }
    run_shard_window(*shards_[static_cast<size_t>(shard)], h);
    {
      std::lock_guard<std::mutex> lk(work_mu_);
      if (--work_remaining_ == 0) done_cv_.notify_one();
    }
  }
}

}  // namespace gdedup
