#pragma once

// Deterministic worker-pool offload for the real-byte kernels.
//
// The simulator carries real bytes, so fingerprinting, CDC chunking, CRC,
// EC parity and compression cost host wall-clock even though their
// *virtual* cost is already modelled by CpuModel::execute().  ExecPool
// decouples the two: the event loop submits a pure kernel job at issue
// time (when the virtual cost is charged) and joins its result inside the
// scheduler callback that dispatches the virtual-time completion — never
// earlier, never from a new event.  Host threads race ahead on the byte
// work while virtual time advances exactly as in serial mode.
//
// Determinism contract (see DESIGN.md §8):
//   * Jobs are pure: closures over immutable COW `common::Buffer` slices
//     producing a result blob.  No scheduler, RNG, or perf-counter access
//     from workers.
//   * Joins piggyback *pre-existing* scheduler callbacks.  Thread count
//     must never create, cancel or reorder events.
//   * With threads <= 1 there are no workers at all: submit() defers the
//     closure and join() runs it inline — byte-for-byte today's serial
//     compute-at-completion path.
//   * The closure is destroyed at join(), on the event-loop thread, in
//     both modes, so Buffer refcounts (observed by COW detach) evolve
//     identically regardless of worker timing.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace gdedup {

// The five offloadable kernels (plus CDC chunking split out from
// fingerprinting); indexes the per-kernel stats breakdown.
enum class Kernel : int {
  kFingerprint = 0,
  kCdcChunk,
  kCrc,
  kEcEncode,
  kEcDecode,
  kCompress,
  kWeakHash,
  kCount,
};

const char* kernel_name(Kernel k);

class ExecPool {
 public:
  // Job lifecycle: queued -> claimed (by a worker, or stolen by join) ->
  // done.  The CAS from queued to claimed is what makes join() safe to
  // call at any point relative to worker progress.  A job is its closure
  // and its result slot too (see KernelFuture), so one allocation holds
  // all of it.
  struct Job {
    Job() = default;
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;
    virtual ~Job() = default;
    virtual void run() = 0;
    virtual void release() = 0;  // destroy the closure
    std::atomic<int> state{0};   // kQueued / kClaimed / kDone
    Kernel kernel = Kernel::kFingerprint;
  };
  using Token = std::shared_ptr<Job>;

  struct KernelStats {
    uint64_t jobs = 0;     // jobs submitted for this kernel
    uint64_t busy_ns = 0;  // host wall-clock spent executing them
  };

  // threads <= 1 builds a serial pool: no worker threads are spawned and
  // every job runs inline at join time.
  explicit ExecPool(int threads = 1);

  // Parallel pools drain: every submitted job has executed (and its
  // result is visible) by the time the destructor returns.  Unjoined
  // tokens stay valid — Job state is owned by shared_ptr — but join() on
  // a destroyed pool is undefined; owners must outlive their futures.
  ~ExecPool();

  ExecPool(const ExecPool&) = delete;
  ExecPool& operator=(const ExecPool&) = delete;

  // GDEDUP_EXEC_THREADS, clamped to [1, 64]; default 1 (serial).
  static int env_threads();

  int threads() const { return threads_; }
  bool parallel() const { return !workers_.empty(); }

  // Submit a pure job.  In parallel mode a worker may start it
  // immediately, so everything it reads must already be immutable.
  void submit(Kernel k, Token job);

  // Block until the job has run (stealing it onto the caller if no worker
  // claimed it yet), then destroy the closure.  Event-loop thread only.
  void join(const Token& t);

  KernelStats kernel_stats(Kernel k) const;
  // Jobs that actually ran on a worker thread (0 in serial mode).
  uint64_t jobs_offloaded() const {
    return jobs_offloaded_.load(std::memory_order_relaxed);
  }

 private:
  enum : int { kQueued = 0, kClaimed = 1, kDone = 2 };

  void worker_loop();
  void run_job(Job& j);

  int threads_ = 1;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for queue / stop
  std::condition_variable done_cv_;  // join waits for a claimed job
  std::deque<Token> queue_;
  bool stop_ = false;

  std::atomic<uint64_t> jobs_offloaded_{0};
  std::atomic<uint64_t> kernel_jobs_[static_cast<int>(Kernel::kCount)] = {};
  std::atomic<uint64_t> kernel_busy_ns_[static_cast<int>(Kernel::kCount)] = {};
};

// Typed future over an ExecPool job.  Handles the null-pool case (unit
// fixtures without a cluster) with the same deferred-to-take semantics as
// a serial pool, so call sites read identically everywhere.
template <typename T>
class KernelFuture {
 public:
  KernelFuture() = default;

  template <typename Fn>
  KernelFuture(ExecPool* pool, Kernel k, Fn fn) : pool_(pool) {
    auto job = std::make_shared<Job<Fn>>(std::move(fn));
    out_ = &job->out;
    job_ = std::move(job);
    if (pool != nullptr) pool->submit(k, job_);
  }

  bool valid() const { return job_ != nullptr; }

  // Join (or run inline) and move the result out.  Call exactly once, on
  // the event-loop thread, inside the virtual-time completion callback.
  T take() {
    if (pool_ != nullptr) {
      pool_->join(job_);
    } else {
      job_->run();
      job_->release();
    }
    T v = std::move(**out_);
    job_.reset();
    return v;
  }

 private:
  template <typename Fn>
  struct Job final : ExecPool::Job {
    explicit Job(Fn f) : fn(std::move(f)) {}
    void run() override { out.emplace((*fn)()); }
    void release() override { fn.reset(); }
    std::optional<Fn> fn;
    std::optional<T> out;
  };

  ExecPool* pool_ = nullptr;
  ExecPool::Token job_;
  std::optional<T>* out_ = nullptr;  // inside *job_
};

template <typename T, typename Fn>
KernelFuture<T> kernel_async(ExecPool* pool, Kernel k, Fn fn) {
  return KernelFuture<T>(pool, k, std::move(fn));
}

}  // namespace gdedup
