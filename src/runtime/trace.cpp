#include "runtime/trace.hpp"

#include "util/json.hpp"

namespace pregel::trace {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::configure(const TraceConfig& cfg) {
  reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    process_name_ = cfg.process_name;
    epoch_ = std::chrono::steady_clock::now();
  }
  spans_.store(cfg.spans, std::memory_order_relaxed);
}

std::uint64_t Tracer::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // Per-thread cached buffer pointer. ThreadBuffers are never deallocated
  // (reset() only clears their event vectors), so a cached pointer stays
  // valid for the life of the process even across configure()/reset().
  static thread_local ThreadBuffer* t_buffer = nullptr;
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->tid = static_cast<std::uint32_t>(buffers_.size());
    t_buffer = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return *t_buffer;
}

void Tracer::complete(std::string name, const char* cat, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::string args_json) {
  if (!spans_on()) return;
  Event e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = 'X';
  e.ts_ns = start_ns;
  e.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  e.args = std::move(args_json);
  local_buffer().events.push_back(std::move(e));
}

void Tracer::instant(std::string name, const char* cat, std::string args_json) {
  if (!spans_on()) return;
  Event e;
  e.name = std::move(name);
  e.cat = cat;
  e.phase = 'i';
  e.ts_ns = now_ns();
  e.dur_ns = 0;
  e.args = std::move(args_json);
  local_buffer().events.push_back(std::move(e));
}

void Tracer::virtual_complete(std::string name, const char* cat, std::uint32_t track,
                              double ts_us, double dur_us, std::string args_json) {
  if (!spans_on()) return;
  std::lock_guard<std::mutex> lock(mu_);
  virtual_events_.push_back(VirtualEvent{std::move(name), cat, 'X', track, ts_us,
                                         dur_us < 0.0 ? 0.0 : dur_us, 0.0,
                                         std::move(args_json)});
}

void Tracer::virtual_instant(std::string name, const char* cat, double ts_us,
                             std::string args_json) {
  if (!spans_on()) return;
  std::lock_guard<std::mutex> lock(mu_);
  virtual_events_.push_back(
      VirtualEvent{std::move(name), cat, 'i', 0, ts_us, 0.0, 0.0, std::move(args_json)});
}

void Tracer::virtual_counter(std::string name, double ts_us, double value) {
  if (!spans_on()) return;
  std::lock_guard<std::mutex> lock(mu_);
  virtual_events_.push_back(
      VirtualEvent{std::move(name), "counter", 'C', 0, ts_us, 0.0, value, {}});
}

void Tracer::name_virtual_track(std::uint32_t track, std::string name) {
  if (!spans_on()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [t, n] : virtual_track_names_)
    if (t == track) {
      n = std::move(name);
      return;
    }
  virtual_track_names_.emplace_back(track, std::move(name));
}

void Tracer::write_event_json(std::ostream& out, const Event& e, std::uint32_t tid,
                              bool& first) const {
  if (!first) out << ",\n";
  first = false;
  JsonWriter w(out);
  w.begin_object();
  w.key("name").value(e.name);
  w.key("cat").value(e.cat);
  w.key("ph").value(std::string_view(&e.phase, 1));
  w.key("pid").value(std::uint64_t{1});
  w.key("tid").value(std::uint64_t{tid});
  // Chrome trace timestamps are microseconds; keep sub-microsecond precision.
  w.key("ts").value(static_cast<double>(e.ts_ns) / 1000.0);
  if (e.phase == 'X') w.key("dur").value(static_cast<double>(e.dur_ns) / 1000.0);
  if (e.phase == 'i') w.key("s").value("t");
  if (!e.args.empty()) w.key("args").raw(e.args);
  w.end_object();
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // Process/thread metadata so Perfetto labels the tracks.
  auto metadata = [&](const char* what, std::uint32_t pid, std::uint32_t tid,
                      const std::string& label, bool thread_level) {
    if (!first) out << ",\n";
    first = false;
    JsonWriter w(out);
    w.begin_object();
    w.key("name").value(what);
    w.key("ph").value("M");
    w.key("pid").value(std::uint64_t{pid});
    if (thread_level) w.key("tid").value(std::uint64_t{tid});
    w.key("args").begin_object();
    w.key("name").value(label);
    w.end_object();
    w.end_object();
  };
  metadata("process_name", 1, 0, process_name_ + " (host)", false);
  metadata("process_name", kVirtualPid, 0, process_name_ + " (modeled cluster)", false);
  for (const auto& buf : buffers_)
    metadata("thread_name", 1, buf->tid, "host thread " + std::to_string(buf->tid), true);
  for (const auto& [track, label] : virtual_track_names_)
    metadata("thread_name", kVirtualPid, track, label, true);

  for (const auto& buf : buffers_)
    for (const Event& e : buf->events) write_event_json(out, e, buf->tid, first);

  for (const VirtualEvent& e : virtual_events_) {
    if (!first) out << ",\n";
    first = false;
    JsonWriter w(out);
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value(e.cat);
    w.key("ph").value(std::string_view(&e.phase, 1));
    w.key("pid").value(std::uint64_t{kVirtualPid});
    w.key("tid").value(std::uint64_t{e.track});
    w.key("ts").value(e.ts_us);
    if (e.phase == 'X') w.key("dur").value(e.dur_us);
    if (e.phase == 'i') w.key("s").value("p");
    if (e.phase == 'C') {
      w.key("args").begin_object();
      w.key("value").value(e.counter_value);
      w.end_object();
    } else if (!e.args.empty()) {
      w.key("args").raw(e.args);
    }
    w.end_object();
  }
  out << "\n]}\n";
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = virtual_events_.size();
  for (const auto& buf : buffers_) n += buf->events.size();
  return n;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) buf->events.clear();
  virtual_events_.clear();
  virtual_track_names_.clear();
}

void Span::start(const char* name, const char* cat) {
  name_ = name;
  cat_ = cat;
  start_ns_ = Tracer::instance().now_ns();
}

void Span::finish() {
  Tracer& t = Tracer::instance();
  t.complete(name_, cat_, start_ns_, t.now_ns(), std::move(args_));
}

void mark(const char* name, const char* cat, double virtual_us, std::string args_json) {
  Tracer& t = Tracer::instance();
  t.instant(name, cat, args_json);
  t.virtual_instant(name, cat, virtual_us, std::move(args_json));
}

}  // namespace pregel::trace
