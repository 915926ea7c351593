#pragma once

// Calendar queue + slab arena for the event engine.
//
// The scheduler's hot loop is insert/pop-min over a pending-event set whose
// timestamps cluster tightly around the current virtual time (device
// completions, network hops) with a sparse far tail (engine ticks, client
// timeouts).  A classic calendar queue fits that shape: events hash into a
// ring of `width`-wide time buckets, so insert and pop-min are O(1)
// amortized instead of the O(log n) of a binary heap, and the bucket width
// self-tunes from an EMA of inter-dequeue gaps.
//
// Ordering contract: pop order is strictly (t, key) ascending.  Keys are
// unique per queue (the scheduler assigns monotone per-shard sequence
// numbers, so FIFO among same-time events), which makes pop order a pure
// function of the queue *contents* — bucket geometry, resizes and width
// retunes can never affect it.  The determinism tests lean on that.
//
// Monotonicity contract: after pop_min() returns a node with time T, every
// subsequent insert must carry t >= T (the scheduler clamps to the shard
// clock).  This keeps the lap scan in peek_min() sound.
//
// Event nodes are allocated from a slab arena (EventArena): fixed-size
// blocks carved into EventNode slots threaded on a free list.  A node is
// freed back to its shard's arena as soon as it is dispatched, so steady
// state runs allocation-free; the blocks themselves live until the arena
// dies with the shard.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#include "common/inline_function.h"
#include "sim/time.h"

namespace gdedup {

// An event's callback.  Its captures live inline in the arena node up to
// this many bytes, so a steady-state event allocates nothing: an OSD
// message hop captures one pointer, and a disk completion a few pointers
// plus a reply continuation (osd/messages.h: ReplyFn, 80 bytes).
inline constexpr size_t kEventInlineBytes = 112;
using EventFn = InlineFunction<void(), kEventInlineBytes>;

struct EventNode {
  SimTime t = 0;
  uint64_t key = 0;  // total tie-break order among same-time events
  EventNode* next = nullptr;
  EventFn cb{};
  uint64_t aux = 0;    // ingress: rx service time (ns)
  int32_t node = -1;   // ingress: destination node
  uint8_t kind = 0;    // Scheduler dispatch tag (callback / ingress)
};

// Slab allocator for EventNode.  Blocks are never returned individually;
// freed nodes go on a free list for reuse.  Not thread-safe: each shard
// owns one arena and only allocates/frees from its own execution context.
class EventArena {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  ~EventArena() {
    // All nodes must have been destroyed (CalendarQueue's destructor runs
    // first and frees its remaining nodes); only the raw blocks are left.
    for (void* b : blocks_) ::operator delete(b);
  }

  template <typename... Args>
  EventNode* make(Args&&... args) {
    void* p = free_;
    if (p != nullptr) {
      free_ = *static_cast<void**>(p);
    } else {
      if (bump_ == bump_end_) grow();
      p = bump_;
      bump_ += kSlotBytes;
    }
    return new (p) EventNode{std::forward<Args>(args)...};
  }

  void destroy(EventNode* n) {
    n->~EventNode();
    void* p = n;
    *static_cast<void**>(p) = free_;
    free_ = p;
  }

  uint64_t bytes_reserved() const {
    return static_cast<uint64_t>(blocks_.size()) * kBlockBytes;
  }

 private:
  static constexpr size_t kSlotBytes =
      (sizeof(EventNode) + alignof(std::max_align_t) - 1) &
      ~(alignof(std::max_align_t) - 1);
  static constexpr size_t kNodesPerBlock = 1024;
  static constexpr size_t kBlockBytes = kSlotBytes * kNodesPerBlock;

  void grow() {
    void* b = ::operator new(kBlockBytes);
    blocks_.push_back(b);
    bump_ = static_cast<char*>(b);
    bump_end_ = bump_ + kBlockBytes;
  }

  std::vector<void*> blocks_;
  char* bump_ = nullptr;
  char* bump_end_ = nullptr;
  void* free_ = nullptr;  // intrusive free list through the slot storage
};

class CalendarQueue {
 public:
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  explicit CalendarQueue(EventArena* arena) : arena_(arena) {
    buckets_.resize(kInitialBuckets);
    mask_ = kInitialBuckets - 1;
  }
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;

  ~CalendarQueue() {
    for (Bucket& b : buckets_) {
      EventNode* n = b.head;
      while (n != nullptr) {
        EventNode* next = n->next;
        arena_->destroy(n);
        n = next;
      }
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Takes ownership of `n` (allocated from this queue's arena).
  void insert(EventNode* n) {
    assert(n->t >= 0);
    size_++;
    bucket_insert(n);
    if (cached_min_ != nullptr && before(n, cached_min_)) cached_min_ = n;
    if (size_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) {
      resize(buckets_.size() * 2);
    }
  }

  // Earliest node by (t, key), or nullptr.  Does not remove.
  EventNode* peek_min() {
    if (size_ == 0) return nullptr;
    if (cached_min_ != nullptr) return cached_min_;
    // Lap scan: walk one calendar year of buckets starting at the bucket
    // of the last dispatch time.  Bucket b in lap position i covers
    // [(lap0+i)*width, (lap0+i+1)*width); the first head that falls inside
    // its slice is the global min (bucket lists are (t,key)-sorted).
    const SimTime lap0 = scan_t_ / width_;
    const size_t n = buckets_.size();
    for (size_t i = 0; i < n; i++) {
      const size_t b = static_cast<size_t>(lap0 + static_cast<SimTime>(i)) & mask_;
      EventNode* h = buckets_[b].head;
      if (h != nullptr &&
          h->t < (lap0 + static_cast<SimTime>(i) + 1) * width_) {
        cached_min_ = h;
        return h;
      }
    }
    // Sparse tail: nothing within a year of the scan point.  Take the min
    // over all bucket heads directly and jump the scan point to it.
    EventNode* best = nullptr;
    for (Bucket& bk : buckets_) {
      if (bk.head != nullptr && (best == nullptr || before(bk.head, best))) {
        best = bk.head;
      }
    }
    assert(best != nullptr);
    scan_t_ = best->t;
    cached_min_ = best;
    return best;
  }

  SimTime min_time() {
    EventNode* n = peek_min();
    return n == nullptr ? kNoEvent : n->t;
  }

  // Removes and returns the earliest node; caller dispatches and returns
  // it to the arena.  nullptr if empty.
  EventNode* pop_min() {
    EventNode* n = peek_min();
    if (n == nullptr) return nullptr;
    Bucket& bk = buckets_[bucket_of(n->t)];
    assert(bk.head == n);
    bk.head = n->next;
    if (bk.head == nullptr) bk.tail = nullptr;
    size_--;
    // Same-slice continuation: anything left in this bucket's current
    // calendar slice is the global min (earlier buckets of this lap were
    // already empty, later buckets/laps cover later times), so batches of
    // near-time events pop without rescanning.
    if (bk.head != nullptr &&
        bk.head->t / width_ == n->t / width_) {
      cached_min_ = bk.head;
    } else {
      cached_min_ = nullptr;
    }
    // Width tuning signal: EMA of *advancing* inter-dequeue gaps.  Zero
    // gaps (same-timestamp batches) say nothing about how far apart the
    // calendar slices should be and would collapse the width, so only
    // nonzero gaps feed the estimate.
    const SimTime gap = n->t - scan_t_;
    if (gap > 0) gap_ema_ += (gap - gap_ema_) / 8;
    scan_t_ = n->t;
    if (size_ > kInitialBuckets && size_ < buckets_.size() / 4) {
      resize(buckets_.size() / 2);
    } else if (++pops_since_retune_ >= kRetunePeriod) {
      // Steady-state width retune: the size-triggered resizes above never
      // fire while the population is stable, but the dequeue-gap estimate
      // keeps moving (the initial fill runs with no pops at all, so the
      // first-resize width can be arbitrarily stale).  A width much wider
      // than the gap packs whole event cohorts into a few buckets and the
      // sorted bucket insert goes linear; much narrower and the lap scan
      // walks mostly-empty slices.  Re-bucket in place when the target
      // drifts 4x from the current width — O(n), amortized over the
      // retune period.
      pops_since_retune_ = 0;
      const SimTime target = target_width();
      if (width_ > 4 * target || 4 * width_ < target) {
        resize(buckets_.size());
      }
    }
    return n;
  }

  SimTime width() const { return width_; }
  size_t num_buckets() const { return buckets_.size(); }

 private:
  struct Bucket {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  static constexpr size_t kInitialBuckets = 256;
  static constexpr size_t kMaxBuckets = 1 << 20;
  static constexpr SimTime kMinWidth = 4;  // ns; dense queues want ~1 gap/slot
  static constexpr uint64_t kRetunePeriod = 4096;  // pops between width checks

  static bool before(const EventNode* a, const EventNode* b) {
    if (a->t != b->t) return a->t < b->t;
    return a->key < b->key;
  }

  size_t bucket_of(SimTime t) const {
    return static_cast<size_t>(t / width_) & mask_;
  }

  void bucket_insert(EventNode* n) {
    Bucket& bk = buckets_[bucket_of(n->t)];
    if (bk.head == nullptr) {
      n->next = nullptr;
      bk.head = bk.tail = n;
      return;
    }
    if (before(bk.tail, n)) {  // common case: append (FIFO / rising t)
      n->next = nullptr;
      bk.tail->next = n;
      bk.tail = n;
      return;
    }
    if (before(n, bk.head)) {
      n->next = bk.head;
      bk.head = n;
      return;
    }
    EventNode* p = bk.head;
    while (p->next != nullptr && before(p->next, n)) p = p->next;
    n->next = p->next;
    p->next = n;
    if (n->next == nullptr) bk.tail = n;
  }

  SimTime target_width() const {
    return gap_ema_ * 2 < kMinWidth ? kMinWidth : gap_ema_ * 2;
  }

  void resize(size_t nbuckets) {
    std::vector<EventNode*> all;
    all.reserve(size_);
    for (Bucket& b : buckets_) {
      EventNode* n = b.head;
      while (n != nullptr) {
        all.push_back(n);
        n = n->next;
      }
    }
    buckets_.assign(nbuckets, Bucket{});
    mask_ = nbuckets - 1;
    width_ = target_width();
    for (EventNode* n : all) bucket_insert(n);
    cached_min_ = nullptr;
  }

  EventArena* arena_;
  std::vector<Bucket> buckets_;
  size_t mask_ = 0;
  SimTime width_ = kMicrosecond;
  SimTime scan_t_ = 0;       // last dispatch time; lap scans start here
  SimTime gap_ema_ = kMicrosecond;
  uint64_t pops_since_retune_ = 0;
  EventNode* cached_min_ = nullptr;  // always the head of its bucket
  size_t size_ = 0;
};

}  // namespace gdedup
