#include "sim/exec_pool.h"

#include <chrono>
#include <cstdlib>

namespace gdedup {

namespace {
uint64_t host_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kFingerprint:
      return "fingerprint";
    case Kernel::kCdcChunk:
      return "cdc_chunk";
    case Kernel::kCrc:
      return "crc";
    case Kernel::kEcEncode:
      return "ec_encode";
    case Kernel::kEcDecode:
      return "ec_decode";
    case Kernel::kCompress:
      return "compress";
    case Kernel::kWeakHash:
      return "weak_hash";
    default:
      return "?";
  }
}

int ExecPool::env_threads() {
  const char* v = std::getenv("GDEDUP_EXEC_THREADS");
  if (v == nullptr || *v == '\0') return 1;
  int n = std::atoi(v);
  if (n < 1) n = 1;
  if (n > 64) n = 64;
  return n;
}

ExecPool::ExecPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  if (threads_ > 1) {
    workers_.reserve(threads_);
    for (int i = 0; i < threads_; i++) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

ExecPool::~ExecPool() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    // worker_loop drains before exiting, so every job submitted to a
    // parallel pool has executed by now.
  }
}

void ExecPool::submit(Kernel k, Token job) {
  job->kernel = k;
  kernel_jobs_[static_cast<int>(k)].fetch_add(1, std::memory_order_relaxed);
  if (parallel()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      queue_.push_back(std::move(job));
    }
    work_cv_.notify_one();
  }
  // Serial: nothing to enqueue — join() steals the token and runs it
  // inline, i.e. the compute lands exactly where the pre-offload code
  // ran it (and, as before, never runs if the completion never fires).
}

void ExecPool::join(const Token& t) {
  if (!t) return;
  int expected = kQueued;
  if (t->state.compare_exchange_strong(expected, kClaimed,
                                       std::memory_order_acq_rel)) {
    // Not started yet: steal it and run inline on the caller.  Workers
    // that later pop the token see kClaimed and skip it.
    run_job(*t);
  } else if (t->state.load(std::memory_order_acquire) != kDone) {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(
        lk, [&] { return t->state.load(std::memory_order_acquire) == kDone; });
  }
  // Destroy the closure here, on the joining (event-loop) thread: Buffer
  // refcounts captured by the job drop at a deterministic point instead
  // of whenever a worker happens to finish.
  t->release();
}

void ExecPool::run_job(Job& j) {
  const uint64_t t0 = host_now_ns();
  j.run();
  kernel_busy_ns_[static_cast<int>(j.kernel)].fetch_add(
      host_now_ns() - t0, std::memory_order_relaxed);
  {
    // Publish under the mutex so a join() blocked in done_cv_.wait cannot
    // miss the transition.
    std::lock_guard<std::mutex> lk(mu_);
    j.state.store(kDone, std::memory_order_release);
  }
  done_cv_.notify_all();
}

void ExecPool::worker_loop() {
  for (;;) {
    Token t;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;  // drained: exit only with an empty queue
        continue;
      }
      t = std::move(queue_.front());
      queue_.pop_front();
    }
    int expected = kQueued;
    if (t->state.compare_exchange_strong(expected, kClaimed,
                                         std::memory_order_acq_rel)) {
      jobs_offloaded_.fetch_add(1, std::memory_order_relaxed);
      run_job(*t);
    }
  }
}

ExecPool::KernelStats ExecPool::kernel_stats(Kernel k) const {
  KernelStats s;
  s.jobs = kernel_jobs_[static_cast<int>(k)].load(std::memory_order_relaxed);
  s.busy_ns =
      kernel_busy_ns_[static_cast<int>(k)].load(std::memory_order_relaxed);
  return s;
}

}  // namespace gdedup
