// Structured tracing for the whole stack: one timeline recording plane.
//
// Spans and instants are wall-clock events captured into per-thread buffers
// (one steady_clock read at span begin and one at end; no locks on the hot
// path after a thread's first event). Exported as Chrome trace_event JSON,
// loadable in chrome://tracing or https://ui.perfetto.dev. Alongside the
// host-thread timeline, callers may emit events on *virtual* tracks
// (explicit pid/tid/timestamps): the engine uses this to draw the modeled
// cluster — per-VM busy/barrier spans in simulated seconds, the view
// Figures 9/12 of the paper are projections of, plus one counter track per
// modeled superstep metric. Totals live in the metric records
// (runtime/metrics.hpp), not here.
//
// Disabled (the default) every call site costs one relaxed atomic load — no
// allocation, no clock read, no locks — and recording changes no observable
// program state, so tracing on/off cannot perturb the engine's deterministic
// merge (tests/core/test_trace_determinism.cpp proves it bit-for-bit).
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
  bool spans = false;  ///< record timeline events
  std::string process_name = "pregelpp";
};

class Tracer {
 public:
  /// Process-wide tracer (the engine, cloud services, and harness all feed
  /// one timeline; a per-run tracer would lose the cross-layer correlation
  /// the timeline exists to show).
  static Tracer& instance();

  /// Swap configuration and clear previously recorded events.
  void configure(const TraceConfig& cfg);

  bool spans_on() const noexcept { return spans_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the tracer epoch (configure() resets the epoch).
  std::uint64_t now_ns() const noexcept;

  // ---- timeline events (host threads; real wall clock) ---------------------

  /// Record a completed span [start_ns, end_ns] on the calling thread's track.
  /// `args_json` is either empty or a complete JSON object literal.
  void complete(std::string name, const char* cat, std::uint64_t start_ns,
                std::uint64_t end_ns, std::string args_json = {});

  /// Record an instantaneous event on the calling thread's track.
  void instant(std::string name, const char* cat, std::string args_json = {});

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

  // ---- export --------------------------------------------------------------

  /// Chrome trace_event JSON: {"traceEvents": [...], ...}. Includes
  /// process/thread metadata; events of one thread appear in record order.
  void write_chrome_trace(std::ostream& out) const;

  std::size_t event_count() const;
  /// Drop all recorded events (thread registrations stay).
  void reset();

 private:
  Tracer();

  struct Event {
    std::string name;
    const char* cat;        ///< static string supplied by the call site
    char phase;             ///< 'X' complete, 'i' instant
    std::uint64_t ts_ns;    ///< host events: ns since epoch
    std::uint64_t dur_ns;   ///< 'X' only
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
  std::chrono::steady_clock::time_point epoch_;
  std::string process_name_ = "pregelpp";

  mutable std::mutex mu_;  ///< registration, virtual events, export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<VirtualEvent> virtual_events_;
  std::vector<std::pair<std::uint32_t, std::string>> virtual_track_names_;
};

/// Convenience accessor for guarded call sites.
inline bool spans_on() noexcept { return Tracer::instance().spans_on(); }

/// Mark a barrier decision on both timelines: an instant on the calling
/// thread's host track and one at `virtual_us` on the modeled-cluster
/// track. Callers build `args_json` only under spans_on().
void mark(const char* name, const char* cat, double virtual_us, std::string args_json);

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
