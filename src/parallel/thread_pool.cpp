#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/error.h"

namespace vocab::parallel {

namespace {

thread_local bool t_on_worker = false;

// ScopedPool routing state for the current thread: when t_pool_override is
// set, parallel_for uses t_scoped_pool (null = forced serial) instead of the
// process singleton.
thread_local bool t_pool_override = false;
thread_local ThreadPool* t_scoped_pool = nullptr;

// Upper bound on chunks per parallel_for. A fixed constant (not a function of
// the thread count!) so partition boundaries are shape-only; large enough
// that even a wide pool load-balances via the shared chunk counter.
constexpr std::int64_t kMaxChunks = 256;

int env_num_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw == 0 ? 1 : static_cast<int>(hw);
  return static_cast<int>(int_from_env("VOCAB_NUM_THREADS", fallback, 1, 1024));
}

}  // namespace

struct ThreadPool::Impl {
  // One fan-out job. Heap-allocated and shared_ptr-held by every thread that
  // works on it, so a worker that wakes late (or drains slowly) can never
  // touch a newer job's counters: its own job's `next` is monotonically past
  // `total` once the job is complete, and `fn` is only dereferenced for
  // chunks claimed before that point.
  struct Job {
    std::int64_t total = 0;
    const std::function<void(std::int64_t)>* fn = nullptr;
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> done{0};
    std::exception_ptr error;  // first failure; guarded by the pool mutex
  };

  // Serializes callers: one job in flight at a time. try_run uses try_lock so
  // a busy pool makes concurrent callers (e.g. pipeline device threads) fall
  // back to serial instead of queueing.
  std::mutex submit_mutex;

  // Guards job publication, stop flag, Job::error, and both condition vars.
  std::mutex m;
  std::condition_variable cv_work;
  std::condition_variable cv_done;

  std::uint64_t job_id = 0;
  std::shared_ptr<Job> current_job;
  bool stop = false;

  std::vector<std::thread> workers;

  // Pull chunks off the job's counter until it is drained. Runs on both the
  // workers and the submitting thread.
  void drain(Job& job) {
    for (;;) {
      const std::int64_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.total) break;
      try {
        (*job.fn)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(m);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.total) {
        std::lock_guard<std::mutex> lk(m);
        cv_done.notify_all();
      }
    }
  }

  void worker_main() {
    t_on_worker = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      cv_work.wait(lk, [&] { return stop || job_id != seen; });
      if (stop) return;
      seen = job_id;
      const std::shared_ptr<Job> job = current_job;
      lk.unlock();
      if (job) drain(*job);
      lk.lock();
    }
  }

  void start_workers(int n_workers) {
    workers.reserve(static_cast<std::size_t>(n_workers));
    for (int i = 0; i < n_workers; ++i) {
      workers.emplace_back([this] { worker_main(); });
    }
  }

  void join_workers() {
    {
      std::lock_guard<std::mutex> lk(m);
      stop = true;
    }
    cv_work.notify_all();
    for (auto& w : workers) w.join();
    workers.clear();
    std::lock_guard<std::mutex> lk(m);
    stop = false;
  }
};

ThreadPool::ThreadPool() : impl_(new Impl) {
  impl_->start_workers(env_num_threads() - 1);
}

ThreadPool::ThreadPool(int total_threads) : impl_(new Impl) {
  VOCAB_CHECK(total_threads >= 1, "thread pool needs at least one thread, got " << total_threads);
  impl_->start_workers(total_threads - 1);
}

ThreadPool::~ThreadPool() {
  impl_->join_workers();
  delete impl_;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

int ThreadPool::num_threads() const {
  return static_cast<int>(impl_->workers.size()) + 1;
}

void ThreadPool::set_num_threads(int n) {
  VOCAB_CHECK(n >= 1, "thread pool needs at least one thread, got " << n);
  // Take the submit lock so no job is in flight while workers are replaced.
  std::lock_guard<std::mutex> submit(impl_->submit_mutex);
  impl_->join_workers();
  impl_->start_workers(n - 1);
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

bool ThreadPool::try_run(std::int64_t num_chunks,
                         const std::function<void(std::int64_t)>& fn) {
  if (num_chunks <= 1 || t_on_worker || impl_->workers.empty()) return false;
  if (!impl_->submit_mutex.try_lock()) return false;
  std::lock_guard<std::mutex> submit(impl_->submit_mutex, std::adopt_lock);

  auto job = std::make_shared<Impl::Job>();
  job->total = num_chunks;
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->current_job = job;
    ++impl_->job_id;
  }
  impl_->cv_work.notify_all();
  // The submitting thread is a full participant.
  impl_->drain(*job);
  std::unique_lock<std::mutex> lk(impl_->m);
  impl_->cv_done.wait(
      lk, [&] { return job->done.load(std::memory_order_acquire) == num_chunks; });
  impl_->current_job.reset();
  if (job->error) {
    std::exception_ptr e = job->error;
    lk.unlock();
    std::rethrow_exception(e);
  }
  return true;
}

namespace {

// Shape-only chunking: boundaries are a function of (n, grain) alone.
// Returns {chunk_size, num_chunks}.
std::pair<std::int64_t, std::int64_t> partition(std::int64_t n, std::int64_t grain) {
  const std::int64_t g = std::max<std::int64_t>(grain, 1);
  std::int64_t chunks = std::min((n + g - 1) / g, kMaxChunks);
  const std::int64_t chunk = (n + chunks - 1) / chunks;
  chunks = (n + chunk - 1) / chunk;
  return {chunk, chunks};
}

}  // namespace

std::int64_t num_chunks(std::int64_t begin, std::int64_t end, std::int64_t grain) {
  const std::int64_t n = end - begin;
  if (n <= 0) return 0;
  return partition(n, grain).second;
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const auto [chunk, chunks] = partition(n, grain);
  if (chunks == 1) {
    body(begin, end);
    return;
  }
  const auto run_chunk = [&](std::int64_t c) {
    const std::int64_t b = begin + c * chunk;
    body(b, std::min(b + chunk, end));
  };
  ThreadPool* pool = t_pool_override ? t_scoped_pool : &ThreadPool::instance();
  if (pool == nullptr || !pool->try_run(chunks, run_chunk)) {
    for (std::int64_t c = 0; c < chunks; ++c) run_chunk(c);
  }
}

void parallel_for_rows(std::int64_t begin, std::int64_t end, std::int64_t grain,
                       const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const auto [chunk, chunks] = partition(n, grain);
  const auto run_chunk = [&](std::int64_t c) {
    const std::int64_t b = begin + c * chunk;
    body(b, std::min(b + chunk, end));
  };
  ThreadPool* pool = t_pool_override ? t_scoped_pool : &ThreadPool::instance();
  if (chunks == 1 || pool == nullptr || !pool->try_run(chunks, run_chunk)) body(begin, end);
}

void parallel_for_chunked(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const auto [chunk, chunks] = partition(n, grain);
  const auto run_chunk = [&](std::int64_t c) {
    const std::int64_t b = begin + c * chunk;
    body(c, b, std::min(b + chunk, end));
  };
  if (chunks == 1) {
    run_chunk(0);
    return;
  }
  ThreadPool* pool = t_pool_override ? t_scoped_pool : &ThreadPool::instance();
  if (pool == nullptr || !pool->try_run(chunks, run_chunk)) {
    for (std::int64_t c = 0; c < chunks; ++c) run_chunk(c);
  }
}

ScopedPool::ScopedPool(ThreadPool* pool)
    : prev_override_(t_pool_override), prev_pool_(t_scoped_pool) {
  t_pool_override = true;
  t_scoped_pool = pool;
}

ScopedPool::~ScopedPool() {
  t_pool_override = prev_override_;
  t_scoped_pool = prev_pool_;
}

int num_threads() { return ThreadPool::instance().num_threads(); }

void set_num_threads(int n) { ThreadPool::instance().set_num_threads(n); }

}  // namespace vocab::parallel
