// Structured tracing + perf-counter registry for the whole stack.
//
// Two recording planes, independently switchable through TraceConfig:
//
//   Spans/instants — wall-clock timeline events captured into per-thread
//   buffers (one steady_clock read at span begin and one at end; no locks
//   on the hot path after a thread's first event). Exported as Chrome
//   trace_event JSON, loadable in chrome://tracing or https://ui.perfetto.dev.
//   Alongside the host-thread timeline, callers may emit events on *virtual*
//   tracks (explicit pid/tid/timestamps): the engine uses this to draw the
//   modeled cluster — per-VM busy/barrier spans in simulated seconds, the
//   view Figures 9/12 of the paper are projections of.
//
//   Counters — named monotonic uint64 totals (messages, bytes, retries,
//   faults, queue ops). Registration is mutex-guarded but returns a
//   pointer-stable handle; hot paths cache the handle and pay one relaxed
//   atomic add. Exported as a flat JSON summary and consumed by the
//   bench-report layer.
//
// Disabled (the default) both planes cost one relaxed atomic load per call
// site — no allocation, no clock read, no locks — and recording changes no
// observable program state, so tracing on/off cannot perturb the engine's
// deterministic merge (tests/core/test_trace_determinism.cpp proves it
// bit-for-bit).
//
// Threading contract: events may be recorded concurrently from any number
// of threads. Export/reset/configure must not race with recording — call
// them from quiescent points (after Engine::run returns, after a pool
// parallel_for joined), which is the only place the exporters are used.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace pregel::trace {

struct TraceConfig {
  bool spans = false;     ///< record timeline events
  bool counters = false;  ///< record perf counters
  std::string process_name = "pregelpp";
};

/// A registered perf counter. Obtained once via Tracer::counter(name);
/// the reference stays valid for the life of the process (reset() zeroes
/// values but never deallocates), so call sites may cache it.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Tracer;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

class Tracer {
 public:
  /// Process-wide tracer (the engine, cloud services, and harness all feed
  /// one timeline; a per-run tracer would lose the cross-layer correlation
  /// the timeline exists to show).
  static Tracer& instance();

  /// Swap configuration and clear previously recorded events/counter values.
  void configure(const TraceConfig& cfg);

  bool spans_on() const noexcept { return spans_.load(std::memory_order_relaxed); }
  bool counters_on() const noexcept { return counters_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the tracer epoch (configure() resets the epoch).
  std::uint64_t now_ns() const noexcept;

  // ---- timeline events (host threads; real wall clock) ---------------------

  /// Record a completed span [start_ns, end_ns] on the calling thread's track.
  /// `args_json` is either empty or a complete JSON object literal.
  void complete(std::string name, const char* cat, std::uint64_t start_ns,
                std::uint64_t end_ns, std::string args_json = {});

  /// Record an instantaneous event on the calling thread's track.
  void instant(std::string name, const char* cat, std::string args_json = {});

  /// Sample a counter track at the current time (Chrome 'C' event).
  void counter_sample(std::string name, std::uint64_t value);

  // ---- virtual tracks (modeled time; explicit placement) -------------------
  // The engine draws the simulated cluster here: pid kVirtualPid, tid =
  // worker VM index, timestamps in modeled microseconds.

  static constexpr std::uint32_t kVirtualPid = 2;

  void virtual_complete(std::string name, const char* cat, std::uint32_t track,
                        double ts_us, double dur_us, std::string args_json = {});
  void virtual_instant(std::string name, const char* cat, double ts_us,
                       std::string args_json = {});
  void virtual_counter(std::string name, double ts_us, double value);
  /// Label a virtual track (thread_name metadata for pid kVirtualPid).
  void name_virtual_track(std::uint32_t track, std::string name);

  // ---- counters ------------------------------------------------------------

  /// Find-or-register a counter; the returned reference never moves.
  Counter& counter(const std::string& name);
  /// Snapshot of all counters with non-zero totals, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counter_totals() const;

  // ---- export --------------------------------------------------------------

  /// Chrome trace_event JSON: {"traceEvents": [...], ...}. Includes
  /// process/thread metadata; events of one thread appear in record order.
  void write_chrome_trace(std::ostream& out) const;
  /// Flat counter summary: {"schema": ..., "counters": {name: total, ...}}.
  void write_counter_summary(std::ostream& out) const;

  std::size_t event_count() const;
  /// Drop all recorded events and zero every counter (handles stay valid).
  void reset();

 private:
  Tracer();

  struct Event {
    std::string name;
    const char* cat;        ///< static string supplied by the call site
    char phase;             ///< 'X' complete, 'i' instant, 'C' counter
    std::uint64_t ts_ns;    ///< host events: ns since epoch
    std::uint64_t dur_ns;   ///< 'X' only
    std::uint64_t counter_value;  ///< 'C' only
    std::string args;       ///< pre-rendered JSON object, may be empty
  };
  struct VirtualEvent {
    std::string name;
    const char* cat;
    char phase;
    std::uint32_t track;
    double ts_us, dur_us;
    double counter_value;
    std::string args;
  };
  struct ThreadBuffer {
    std::uint32_t tid = 0;  ///< dense id assigned at registration, stable per thread
    std::vector<Event> events;
  };

  ThreadBuffer& local_buffer();
  void write_event_json(std::ostream& out, const Event& e, std::uint32_t tid,
                        bool& first) const;

  std::atomic<bool> spans_{false};
  std::atomic<bool> counters_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::string process_name_ = "pregelpp";

  mutable std::mutex mu_;  ///< registration, counters registry, virtual events, export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<VirtualEvent> virtual_events_;
  std::vector<std::pair<std::uint32_t, std::string>> virtual_track_names_;
  std::vector<std::unique_ptr<Counter>> counters_store_;
};

/// Convenience accessors for guarded call sites.
inline bool spans_on() noexcept { return Tracer::instance().spans_on(); }
inline bool counters_on() noexcept { return Tracer::instance().counters_on(); }

/// Mark a barrier decision on both timelines: an instant on the calling
/// thread's host track and one at `virtual_us` on the modeled-cluster
/// track. Callers build `args_json` only under spans_on().
void mark(const char* name, const char* cat, double virtual_us, std::string args_json);

/// Add to a counter by name; registry lookup per call, so use on cold or
/// per-superstep paths. Hot paths cache Tracer::counter() instead.
inline void add(const std::string& name, std::uint64_t delta) {
  Tracer& t = Tracer::instance();
  if (t.counters_on()) t.counter(name).add(delta);
}

/// RAII span: records a complete event on the calling thread's track from
/// construction to destruction. When tracing is disabled the constructor is
/// one relaxed load and the destructor a branch.
class Span {
 public:
  Span(const char* name, const char* cat) : active_(spans_on()) {
    if (active_) start(name, cat);
  }
  /// Span with one numeric argument, e.g. Span("compute", "superstep",
  /// "part", p). The args JSON is built only when tracing is on.
  Span(const char* name, const char* cat, const char* arg_key, std::uint64_t arg_value)
      : active_(spans_on()) {
    if (active_) {
      start(name, cat);
      args_ = std::string("{\"") + arg_key + "\":" + std::to_string(arg_value) + "}";
    }
  }
  /// Span with two numeric arguments, e.g. Span("compute", "superstep",
  /// "part", p, "chunk", c).
  Span(const char* name, const char* cat, const char* key1, std::uint64_t value1,
       const char* key2, std::uint64_t value2)
      : active_(spans_on()) {
    if (active_) {
      start(name, cat);
      args_ = std::string("{\"") + key1 + "\":" + std::to_string(value1) + ",\"" + key2 +
              "\":" + std::to_string(value2) + "}";
    }
  }
  ~Span() {
    if (active_) finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void start(const char* name, const char* cat);
  void finish();

  bool active_;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::string args_;
};

}  // namespace pregel::trace
