// Shared host worker pool for the vGPU execution substrate.
//
// The simulator's "kernels" are real host loops; this pool is the raw
// parallel substrate they run on. Two invariants make it safe to drop
// into the cost-modeled pipelines (see docs/architecture.md §12):
//
//   1. Chunking is static and deterministic: the number of chunks and
//      every chunk boundary are pure functions of the work size —
//      never of the worker count, never of which thread claims which
//      chunk. A body that writes only chunk-indexed state therefore
//      produces bit-identical results at any --host-threads value,
//      including 1.
//
//   2. Execution is best-effort parallel, deterministic in effect:
//      chunk→thread assignment is racy (atomic claiming), so bodies
//      must not communicate across chunks; results are combined by the
//      caller in ascending chunk order after run_chunks returns.
//
// Error protocol: every chunk always runs, even after another chunk
// throws; exceptions are captured per chunk and the one with the
// lowest chunk index is rethrown (deterministic regardless of timing).
// The pool remains fully usable after a throw.
//
// Nesting / contention: run_chunks from inside a pool task — or while
// another thread is mid-job — falls back to running all chunks inline
// on the caller. Same chunks, same order of effects, no deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mgg::util {

class ThreadPool {
 public:
  /// Hard cap on configured width (hardware_concurrency is clamped to
  /// this when Config::host_threads = 0 asks for "auto").
  static constexpr int kMaxWorkers = 64;
  /// Hard cap on chunks per job; chunk planning never exceeds it.
  static constexpr std::size_t kMaxChunks = 64;

  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool the enactor and benches share. Width is
  /// whatever the last set_workers call configured (initially 1).
  static ThreadPool& shared();

  /// Resolve a Config::host_threads value: 0 = auto = hardware
  /// concurrency capped at 8 (the range the determinism suite covers);
  /// anything else is clamped to [1, kMaxWorkers].
  static int resolve_width(int host_threads);

  /// Configure the pool to `n` workers total (the caller of run_chunks
  /// participates, so n-1 helper threads are kept). Quiesces the
  /// current helpers first; safe to call repeatedly, cheap when the
  /// width is unchanged.
  void set_workers(int n);
  int workers() const;

  /// Deterministic chunk plan: ceil(total/grain) chunks, clamped to
  /// [1, kMaxChunks]. Pure function of the work size — the same plan
  /// at every pool width.
  static std::size_t chunk_count(std::size_t total, std::size_t grain) {
    if (total == 0) return 1;
    const std::size_t want = (total + grain - 1) / grain;
    return want < kMaxChunks ? want : kMaxChunks;
  }
  /// Boundary of chunk `c` in an even split of [0, total) into
  /// n_chunks ranges: chunk c covers [begin(c), begin(c+1)).
  static std::size_t chunk_begin(std::size_t total, std::size_t n_chunks,
                                 std::size_t c) {
    return c * (total / n_chunks) + (c < total % n_chunks
                                         ? c
                                         : total % n_chunks);
  }

  /// Run body(chunk) for every chunk in [0, n_chunks); blocks until
  /// all chunks completed. n_chunks must come from chunk_count (at most
  /// kMaxChunks); a larger count throws kInvalidArgument and runs
  /// nothing. See the header comment for the error and nesting
  /// protocol.
  template <typename F>
  void run_chunks(std::size_t n_chunks, F&& body) {
    if (n_chunks == 0) return;
    auto invoke = [](void* ctx, std::size_t c) {
      (*static_cast<std::remove_reference_t<F>*>(ctx))(c);
    };
    run_chunks_impl(n_chunks, invoke, &body);
  }

 private:
  using InvokeFn = void (*)(void* ctx, std::size_t chunk);

  void run_chunks_impl(std::size_t n_chunks, InvokeFn invoke, void* ctx);
  static void run_serial(std::size_t n_chunks, InvokeFn invoke, void* ctx);
  void claim_loop();
  void worker_main();
  void stop_helpers_locked();

  /// Serializes jobs: one run_chunks at a time; try_lock failure means
  /// nesting or cross-thread contention → inline fallback.
  std::mutex job_mutex_;

  /// Guards the wake/done/idle protocol below.
  mutable std::mutex mutex_;
  std::condition_variable cv_wake_;
  std::condition_variable cv_done_;
  std::condition_variable cv_idle_;
  std::vector<std::thread> helpers_;
  int width_ = 1;          ///< configured total workers (helpers + caller)
  bool stop_ = false;
  std::uint64_t generation_ = 0;  ///< bumped per published job
  int active_helpers_ = 0;        ///< helpers inside claim_loop

  // Current job (mutated only under mutex_ while no helper is active;
  // read racily by the claim loop, which is why jobs quiesce first).
  InvokeFn job_invoke_ = nullptr;
  void* job_ctx_ = nullptr;
  std::size_t job_chunks_ = 0;
  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<std::size_t> done_chunks_{0};
  /// Per-chunk captured exceptions, reused across jobs (slot writes
  /// are disjoint per chunk).
  std::vector<std::exception_ptr> errors_{kMaxChunks};
};

/// Convenience: split [0, total) into deterministic ranges of roughly
/// `grain` items and run body(begin, end, chunk_index) for each. A null
/// pool (or width 1) runs inline — same ranges, same order of effects.
template <typename F>
void parallel_for(ThreadPool* pool, std::size_t total, std::size_t grain,
                  F&& body) {
  if (total == 0) return;
  const std::size_t n_chunks = ThreadPool::chunk_count(total, grain);
  auto run_chunk = [&](std::size_t c) {
    const std::size_t begin = ThreadPool::chunk_begin(total, n_chunks, c);
    const std::size_t end = ThreadPool::chunk_begin(total, n_chunks, c + 1);
    body(begin, end, c);
  };
  if (pool == nullptr || n_chunks == 1) {
    for (std::size_t c = 0; c < n_chunks; ++c) run_chunk(c);
    return;
  }
  pool->run_chunks(n_chunks, run_chunk);
}

}  // namespace mgg::util
