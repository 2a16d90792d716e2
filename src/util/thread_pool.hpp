// Persistent fork-join worker pool for superstep execution.
//
// The engine keeps one pool alive across supersteps and issues two barriers
// per superstep (compute, then merge), so the pool is built for cheap
// repeated dispatch rather than general task scheduling: one mutex, one
// epoch counter, and one dispatch loop — per-lane queues with work
// stealing (parallel_steal); parallel_for seeds its indices round-robin
// onto those queues. Work distribution is dynamic, which is safe for the
// engine's determinism contract because each item owns a disjoint slice of
// state — *what* runs where never affects results, only wall-clock time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pregel {

class ThreadPool {
 public:
  /// Host-scheduling observability from one parallel_steal barrier. Steal
  /// counts are wall-clock artifacts of the OS scheduler: two runs of the
  /// same job may steal differently, so these must never feed modeled
  /// metrics that the bit-identity contract compares.
  struct StealOutcome {
    std::uint64_t steals = 0;        ///< transfer events (victim -> thief)
    std::uint64_t stolen_items = 0;  ///< items moved across all transfers
  };

  /// `workers` total execution lanes, including the caller's thread during
  /// parallel_for/parallel_steal; workers - 1 OS threads are spawned.
  /// Clamped to >= 1.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return workers_; }

  /// std::thread::hardware_concurrency with the unknown (0) case mapped to 1.
  static unsigned hardware_threads() noexcept;

  /// Run body(i) for every i in [0, n): parallel_steal with index i seeded
  /// onto lane i % size(), steal counts discarded. The calling thread
  /// participates and the call returns only after every index completed.
  /// The first exception thrown by any body is rethrown here after the
  /// barrier; later ones are counted in suppressed_exceptions() and logged,
  /// never silently dropped. Not reentrant: body must not call back into
  /// the same pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Work-stealing barrier: queues[l] seeds lane l's deque (queues.size()
  /// must equal size(); lane 0 is the caller). Each lane drains its own
  /// queue front-to-back; a lane that runs dry steals the back half of the
  /// fullest remaining queue instead of idling at the barrier. Every item
  /// runs exactly once; exceptions behave as in parallel_for. A one-lane
  /// pool or a single item runs inline on the caller, in queue order.
  /// Returns how much stealing the OS schedule induced this barrier.
  StealOutcome parallel_steal(std::vector<std::vector<std::size_t>> queues,
                              const std::function<void(std::size_t)>& body);

  /// Exceptions swallowed after the first one of a barrier, cumulative over
  /// the pool's lifetime. A nonzero delta across a superstep means compute
  /// failed on more than one lane and only the first failure propagated.
  std::uint64_t suppressed_exceptions() const noexcept {
    return suppressed_.load(std::memory_order_relaxed);
  }

 private:
  /// One work-stealing lane: its deque of pending items, guarded by its own
  /// mutex so thieves can inspect and split it without stopping the pool.
  struct Lane {
    std::mutex m;
    std::deque<std::size_t> q;
  };

  void worker_loop(std::size_t lane);
  /// Drain lane `lane`'s queue, stealing from the fullest victim when dry,
  /// until every item of the current job has completed.
  void run_steal(std::size_t lane);
  void record_exception();
  /// Epoch hygiene (checked after every barrier): a stale body pointer or a
  /// lane still marked busy here would let the *next* superstep observe this
  /// one's job. The bugfix this pins: the pool must hand back a clean epoch
  /// even when bodies threw on several lanes at once.
  void finish_barrier_locked();

  unsigned workers_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable start_cv_, done_cv_;
  const std::function<void(std::size_t)>* body_ = nullptr;  // guarded by mutex_
  std::size_t finished_ = 0;   ///< workers done with the current epoch
  std::uint64_t epoch_ = 0;    ///< bumped per job; workers wait on a change
  bool stop_ = false;
  std::exception_ptr error_;   // guarded by mutex_; first failure wins
  std::atomic<std::uint64_t> suppressed_{0};

  // -- per-job dispatch state ------------------------------------------------
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< sized workers_ at build
  std::atomic<std::size_t> remaining_{0};     ///< items not yet completed
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> stolen_items_{0};
};

}  // namespace pregel
