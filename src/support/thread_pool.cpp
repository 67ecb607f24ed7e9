#include "support/thread_pool.hpp"

#include <chrono>

namespace v2d {

namespace {

/// True while the current thread is draining a pool job; nested run()
/// calls from such a thread execute inline to avoid deadlocking the pool.
thread_local bool t_in_pool_task = false;

int default_host_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Poll `ready` for up to ThreadPool::kSpinWindow when `enabled`; returns
/// its last value.  Callers still block on their condition variable when
/// this returns false, so the spin only ever shortens a wait.
template <typename Ready>
bool spin_until(bool enabled, Ready ready) {
  if (!enabled) return ready();
  const auto end = std::chrono::steady_clock::now() + ThreadPool::kSpinWindow;
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    cpu_relax();
    if (i % 32 == 0 && std::chrono::steady_clock::now() >= end)
      return ready();
  }
}

}  // namespace

ThreadPool::ThreadPool(int threads)
    : size_(threads < 1 ? 1 : threads),
      spin_(size_ <= default_host_threads()) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int t = 0; t + 1 < size_; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    posted_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::execute(Job& job) {
  t_in_pool_task = true;
  for (;;) {
    const int i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    try {
      job.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last index done: wake the caller blocked in run().
      std::lock_guard<std::mutex> lk(mu_);
      done_cv_.notify_all();
    }
  }
  t_in_pool_task = false;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;  // posted_ when this worker last took the lock
  for (;;) {
    spin_until(spin_, [&] {
      return posted_.load(std::memory_order_acquire) != seen;
    });
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_cv_.wait(lk, [&] {
        return stop_ ||
               (job_ && job_->next.load(std::memory_order_relaxed) < job_->n) ||
               (spin_ && posted_.load(std::memory_order_relaxed) != seen);
      });
      if (stop_) return;
      seen = posted_.load(std::memory_order_relaxed);
      // The caller may have claimed every index already: spin again.
      if (!job_ || job_->next.load(std::memory_order_relaxed) >= job_->n)
        continue;
      job = job_;
    }
    execute(*job);
  }
}

std::shared_ptr<ThreadPool::Job> ThreadPool::post(
    int n, const std::function<void(int)>& fn) {
  if (n <= 0 || workers_.empty()) return nullptr;
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->n = n;
  job->remaining.store(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
    posted_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  // Wait (workers are idle, so briefly) until every index has been
  // claimed: once job_ can be replaced by a later run()/post(), an
  // unclaimed index would never execute and wait() would hang.
  while (job->next.load(std::memory_order_acquire) < n)
    std::this_thread::yield();
  std::lock_guard<std::mutex> lk(mu_);
  if (job_ == job) job_.reset();
  return job;
}

void ThreadPool::wait(const std::shared_ptr<Job>& job) {
  if (!job) return;
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] {
    return job->remaining.load(std::memory_order_acquire) == 0;
  });
  if (job->error) {
    std::exception_ptr e = job->error;
    job->error = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::run(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1 || t_in_pool_task) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->n = n;
  job->remaining.store(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
    posted_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_all();
  execute(*job);  // the calling thread is a pool lane too
  spin_until(spin_, [&] {
    return job->remaining.load(std::memory_order_acquire) == 0;
  });
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] {
    return job->remaining.load(std::memory_order_acquire) == 0;
  });
  if (job_ == job) job_.reset();
  if (job->error) {
    std::exception_ptr e = job->error;
    job->error = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

namespace {

std::mutex g_host_pool_mu;
std::shared_ptr<ThreadPool> g_host_pool;

}  // namespace

std::shared_ptr<ThreadPool> host_pool() {
  std::lock_guard<std::mutex> lk(g_host_pool_mu);
  if (!g_host_pool)
    g_host_pool = std::make_shared<ThreadPool>(default_host_threads());
  return g_host_pool;
}

void set_host_threads(int threads) {
  const int n = threads > 0 ? threads : default_host_threads();
  std::lock_guard<std::mutex> lk(g_host_pool_mu);
  if (g_host_pool && g_host_pool->size() == n) return;
  // Drop our reference only: regions that pinned the old pool via
  // host_pool() finish on it and destroy it when the last one releases.
  g_host_pool = std::make_shared<ThreadPool>(n);
}

int host_threads() { return host_pool()->size(); }

bool in_pool_task() { return t_in_pool_task; }

namespace detail {

thread_local void* t_graph_session = nullptr;
thread_local bool t_in_graph_task = false;
void (*g_session_run)(void*, int, const std::function<void(int)>&) = nullptr;

}  // namespace detail

}  // namespace v2d
