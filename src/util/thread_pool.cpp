#include "util/thread_pool.hpp"

namespace mmd {

namespace {
thread_local bool tls_on_worker = false;
}  // namespace

bool ThreadPool::on_worker_thread() { return tls_on_worker; }

ThreadPool::ThreadPool(int num_threads) {
  const int workers = num_threads - 1;
  workers_.reserve(workers > 0 ? static_cast<std::size_t>(workers) : 0);
  try {
    for (int i = 0; i < workers; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // Thread exhaustion / allocation failure mid-spawn: stop and join the
    // workers that did start before the exception escapes — a half-built
    // pool must never reach ~thread() joinable and terminate the process.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::work(const std::function<void(int)>* fn, int count,
                      std::uint64_t batch) {
  // `*fn` lives in the frame of the run() call; two rules keep it alive:
  // an index is claimed only while batch_ still equals this task set's
  // generation (a stale lane re-entering after the next run() started
  // must bow out, not claim the new batch's indices through the old
  // pointer), and run() cannot return while a claimed index has not been
  // counted done.
  for (;;) {
    int i;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (batch_ != batch || next_ >= count) return;
      i = next_++;
    }
    try {
      (*fn)(i);
    } catch (...) {
      // Lowest task index wins, independent of arrival order: the serial
      // loop would have surfaced exactly that exception, so fork-join
      // failure is as deterministic as fork-join success.
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_ || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++done_ == count) cv_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  tls_on_worker = true;
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* fn;
    int count;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || batch_ != seen; });
      if (stop_) return;
      seen = batch_;
      fn = fn_;
      count = count_;
      if (fn == nullptr) continue;
    }
    work(fn, count, seen);
  }
}

void ThreadPool::run(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  // Serial fast paths: trivial batch, no workers, or a nested call from
  // inside a pooled task (running it inline keeps the pool deadlock-free
  // and, because tasks are index-addressed, equally deterministic).
  if (count == 1 || workers_.empty() || tls_on_worker) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }

  std::uint64_t batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    count_ = count;
    next_ = 0;
    done_ = 0;
    error_ = nullptr;
    error_index_ = count;  // sentinel above any real task index
    batch = ++batch_;
  }
  cv_work_.notify_all();

  // The caller is a lane too: claim indices until none are left, then wait
  // for straggler workers to finish theirs.
  tls_on_worker = true;
  work(&fn, count, batch);
  tls_on_worker = false;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return done_ == count; });
    fn_ = nullptr;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

std::unique_ptr<ThreadPool> make_thread_pool(int num_threads,
                                             DecomposeDiagnostics* diag) {
  try {
    return std::make_unique<ThreadPool>(num_threads);
  } catch (...) {
    diag_report(diag, DiagEvent::PoolConstructFailed,
                "ThreadPool construction failed (thread or memory "
                "exhaustion); degraded to the serial path");
    return nullptr;
  }
}

}  // namespace mmd
