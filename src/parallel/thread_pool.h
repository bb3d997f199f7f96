#pragma once

// Intra-op parallelism: a fixed-partition thread pool + parallel_for.
//
// This is the CPU stand-in for the intra-device parallelism a real GPU kernel
// gets for free: every simulated device in this reproduction used to run its
// matmuls and softmax passes on a single core. The pool lets the hot kernels
// in tensor_ops / core split their row ranges across VOCAB_NUM_THREADS OS
// threads while keeping results *bit-identical* for any thread count.
//
// Determinism contract
// --------------------
//   parallel_for partitions [begin, end) into chunks whose boundaries depend
//   only on the range size and the grain — never on the number of threads.
//   Kernels built on it assign each output element to exactly one chunk and
//   accumulate in a fixed order within the chunk, so the bytes produced are
//   identical whether the chunks run on 1 thread or 16. This keeps the
//   PipelineTrainer-vs-ReferenceTrainer equivalence checks exact.
//
// Nested-parallelism rule
// -----------------------
//   The PipelineTrainer already runs p device threads; each of them may call
//   into these kernels concurrently. The pool therefore (a) falls back to
//   serial execution when called from one of its own workers (no nested
//   fan-out, no deadlock), and (b) falls back to serial when another thread
//   currently owns the pool (device threads never serialize on each other's
//   math). Serial fallback runs the exact same chunks in chunk order, so the
//   determinism contract is unaffected.
//
// Lifetime: the pool is a lazily-created process-wide singleton; its worker
// count comes from the VOCAB_NUM_THREADS environment variable (default:
// std::thread::hardware_concurrency()). Workers are joined at process exit.
//
// Pool partitioning
// -----------------
//   The schedule executor gives each of its p device threads a *private*
//   pool of width floor(VOCAB_NUM_THREADS / p) so intra-op parallelism
//   composes with inter-device parallelism instead of oversubscribing the
//   machine. A device thread installs its pool with a ScopedPool; while the
//   scope is active, parallel_for on that thread uses the private pool
//   instead of the singleton. ScopedPool(nullptr) forces serial execution
//   (used when p exceeds the pool width). Chunk boundaries are shape-only,
//   so routing through a different pool never changes the bytes produced.

#include <cstdint>
#include <functional>

namespace vocab::parallel {

class ThreadPool {
 public:
  /// The process-wide pool. First call reads VOCAB_NUM_THREADS and spawns
  /// workers; subsequent calls are cheap.
  static ThreadPool& instance();

  /// A private pool of `total_threads` execution width (total_threads - 1
  /// workers + the submitting thread). Install on a device thread with
  /// ScopedPool so parallel_for routes to it instead of the singleton.
  explicit ThreadPool(int total_threads);

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (worker threads + the calling thread).
  [[nodiscard]] int num_threads() const;

  /// Reconfigure the pool to `n` total threads (n-1 workers). Waits for any
  /// in-flight job. Primarily a test hook for the determinism sweep; the
  /// normal configuration path is the VOCAB_NUM_THREADS environment variable.
  void set_num_threads(int n);

  /// Run fn(chunk) for every chunk in [0, num_chunks), using the workers plus
  /// the calling thread. Returns false — without running anything — when the
  /// job cannot be parallelized (no workers, called from a pool worker, or
  /// the pool is busy with another caller's job); the caller must then run
  /// the chunks serially. The first exception thrown by any chunk is
  /// rethrown on the calling thread after all chunks finish.
  [[nodiscard]] bool try_run(std::int64_t num_chunks,
                             const std::function<void(std::int64_t)>& fn);

  /// True when the current thread is one of this process's pool workers.
  [[nodiscard]] static bool on_worker_thread();

 private:
  ThreadPool();
  struct Impl;
  Impl* impl_;
};

/// RAII override of the pool parallel_for uses on the *current thread*.
/// While alive, parallel_for submits to `pool` instead of the process-wide
/// singleton; a null pool forces serial chunk execution (same chunks, same
/// order, same bytes). Scopes nest; destruction restores the previous
/// routing. Used by the schedule executor to give each pipeline device
/// thread its own slice of the machine.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool* pool);
  ~ScopedPool();
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  bool prev_override_;
  ThreadPool* prev_pool_;
};

/// Deterministically partition [begin, end) into chunks of at least `grain`
/// iterations (at most an implementation-fixed chunk count) and run
/// body(chunk_begin, chunk_end) over them, in parallel when the pool is
/// available and serially (in ascending chunk order) otherwise. Chunk
/// boundaries depend only on (end - begin) and grain. Empty ranges return
/// immediately; exceptions from `body` propagate to the caller.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// parallel_for for bodies whose bytes do not depend on how the range is
/// split (each row computed on its own, as in the matmul kernels). When the
/// chunks would run serially — under ScopedPool(nullptr), on a pool worker,
/// or while the pool is busy — the body runs once over the whole range
/// instead of once per chunk, so a kernel that streams an operand once per
/// call streams it once.
void parallel_for_rows(std::int64_t begin, std::int64_t end, std::int64_t grain,
                       const std::function<void(std::int64_t, std::int64_t)>& body);

/// Like parallel_for, but the body also receives the chunk index
/// (0-based, in partition order). Reduction kernels use it to write one
/// partial result per chunk and combine the partials in ascending chunk
/// order on the calling thread — deterministic for any pool width, since
/// the partition is the same shape-only one parallel_for uses.
void parallel_for_chunked(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& body);

/// Number of chunks the shape-only partition produces for (end - begin,
/// grain) — the partial-slot count a chunked reduction must allocate.
[[nodiscard]] std::int64_t num_chunks(std::int64_t begin, std::int64_t end,
                                      std::int64_t grain);

/// Current total execution width (== ThreadPool::instance().num_threads()).
[[nodiscard]] int num_threads();

/// Test hook: reconfigure the pool width at runtime.
void set_num_threads(int n);

}  // namespace vocab::parallel
