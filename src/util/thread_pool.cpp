#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"

namespace pregel {

ThreadPool::ThreadPool(unsigned workers) : workers_(std::max(workers, 1u)) {
  lanes_.reserve(workers_);
  for (unsigned i = 0; i < workers_; ++i) lanes_.push_back(std::make_unique<Lane>());
  threads_.reserve(workers_ - 1);
  // Lane 0 belongs to the caller; spawned thread i owns lane i + 1.
  for (unsigned i = 0; i + 1 < workers_; ++i)
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

unsigned ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::vector<std::vector<std::size_t>> queues(workers_);
  for (std::size_t i = 0; i < n; ++i) queues[i % workers_].push_back(i);
  parallel_steal(std::move(queues), body);
}

ThreadPool::StealOutcome ThreadPool::parallel_steal(
    std::vector<std::vector<std::size_t>> queues,
    const std::function<void(std::size_t)>& body) {
  PREGEL_CHECK_MSG(queues.size() == workers_,
                   "ThreadPool::parallel_steal: need one queue per lane");
  std::size_t total = 0;
  for (const auto& q : queues) total += q.size();
  if (total == 0) return {};
  if (threads_.empty() || total == 1) {
    for (const auto& q : queues)
      for (const std::size_t item : q) body(item);
    return {};
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    PREGEL_CHECK_MSG(body_ == nullptr, "ThreadPool: barrier entered with a stale job");
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      // No lane lock needed: every worker is parked between epochs.
      PREGEL_DCHECK(lanes_[l]->q.empty());
      lanes_[l]->q.assign(queues[l].begin(), queues[l].end());
    }
    body_ = &body;
    remaining_.store(total, std::memory_order_relaxed);
    steals_.store(0, std::memory_order_relaxed);
    stolen_items_.store(0, std::memory_order_relaxed);
    finished_ = 0;
    error_ = nullptr;
    ++epoch_;
  }
  start_cv_.notify_all();

  run_steal(0);

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return finished_ == threads_.size(); });
  finish_barrier_locked();
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
  return {steals_.load(std::memory_order_relaxed),
          stolen_items_.load(std::memory_order_relaxed)};
}

void ThreadPool::finish_barrier_locked() {
  // Clean-epoch invariants: every worker has retired from this job, and no
  // job state leaks into the next barrier. A body that threw must still
  // have decremented remaining_, or these would trip.
  PREGEL_CHECK_MSG(finished_ == threads_.size(),
                   "ThreadPool: barrier exited with workers still busy");
  PREGEL_CHECK_MSG(remaining_.load(std::memory_order_relaxed) == 0,
                   "ThreadPool: barrier exited with items pending");
  for (const auto& lane : lanes_)
    PREGEL_CHECK_MSG(lane->q.empty(), "ThreadPool: lane queue not drained");
  body_ = nullptr;
}

void ThreadPool::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    if (stop_) return;
    seen = epoch_;
    lock.unlock();
    run_steal(lane);
    lock.lock();
    if (++finished_ == threads_.size()) done_cv_.notify_one();
  }
}

void ThreadPool::record_exception() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!error_) {
    error_ = std::current_exception();
    return;
  }
  // A second lane failed while the first exception was already queued for
  // rethrow. Dropping it silently would hide a multi-lane failure mid-
  // superstep; count it and say so.
  suppressed_.fetch_add(1, std::memory_order_relaxed);
  try {
    std::rethrow_exception(std::current_exception());
  } catch (const std::exception& e) {
    log_warn("thread_pool") << "suppressed secondary exception from parallel body: "
                            << e.what();
  } catch (...) {
    log_warn("thread_pool") << "suppressed secondary non-std exception from parallel body";
  }
}

void ThreadPool::run_steal(std::size_t lane) {
  Lane& own = *lanes_[lane];
  for (;;) {
    std::size_t item = 0;
    bool got = false;
    {
      std::lock_guard<std::mutex> lock(own.m);
      if (!own.q.empty()) {
        item = own.q.front();
        own.q.pop_front();
        got = true;
      }
    }
    if (!got) {
      if (remaining_.load(std::memory_order_acquire) == 0) return;
      // Own queue dry: steal the back half of the fullest victim. Taking
      // from the back leaves the victim its front (the items it is about to
      // touch) and keeps each moved run in its original relative order.
      std::size_t best = lanes_.size(), best_n = 0;
      for (std::size_t j = 0; j < lanes_.size(); ++j) {
        if (j == lane) continue;
        std::lock_guard<std::mutex> lock(lanes_[j]->m);
        if (lanes_[j]->q.size() > best_n) {
          best_n = lanes_[j]->q.size();
          best = j;
        }
      }
      if (best == lanes_.size()) {
        // Everything is claimed but not finished; wait for stragglers.
        std::this_thread::yield();
        continue;
      }
      std::size_t took = 0;
      {
        Lane& victim = *lanes_[best];
        std::scoped_lock lock(own.m, victim.m);
        const std::size_t take = (victim.q.size() + 1) / 2;
        for (std::size_t k = victim.q.size() - take; k < victim.q.size(); ++k)
          own.q.push_back(victim.q[k]);
        victim.q.resize(victim.q.size() - take);
        took = take;
      }
      if (took > 0) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        stolen_items_.fetch_add(took, std::memory_order_relaxed);
      }
      continue;
    }
    try {
      (*body_)(item);
    } catch (...) {
      record_exception();
    }
    // Decrement even on failure, or the barrier would never drain.
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace pregel
