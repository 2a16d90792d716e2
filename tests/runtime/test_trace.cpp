// Round-trip tests of the tracing layer's exporter: the Chrome trace JSON
// must parse, per-thread timelines must be time-ordered, and thread ids must
// be stable across batches. The JSON is checked with the small parser in
// tests/support/json_parser.hpp (no external JSON dependency in the repo).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "runtime/trace.hpp"
#include "support/json_parser.hpp"

namespace pregel {
namespace {

using test::JsonArray;
using test::JsonParser;
using test::JsonValue;

// ---- fixtures --------------------------------------------------------------

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::TraceConfig cfg;
    cfg.spans = true;
    cfg.process_name = "test_trace";
    trace::Tracer::instance().configure(cfg);
  }
  void TearDown() override {
    trace::Tracer::instance().configure(trace::TraceConfig{});  // all off, cleared
  }

  static JsonValue export_trace() {
    std::ostringstream out;
    trace::Tracer::instance().write_chrome_trace(out);
    return JsonParser(out.str()).parse();
  }
};

TEST_F(TraceTest, ChromeExportIsValidJsonWithExpectedShape) {
  {
    trace::Span outer("outer", "test");
    trace::Span inner("inner", "test", "part", 7);
  }
  trace::Tracer::instance().instant("tick", "test", "{\"superstep\":3}");

  const JsonValue doc = export_trace();
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.has("displayTimeUnit"));
  ASSERT_TRUE(doc.has("traceEvents"));
  const JsonArray& events = doc.at("traceEvents").array();
  ASSERT_FALSE(events.empty());

  bool saw_outer = false, saw_inner = false, saw_tick = false, saw_meta = false;
  for (const JsonValue& e : events) {
    ASSERT_TRUE(e.is_object());
    ASSERT_TRUE(e.has("ph"));
    ASSERT_TRUE(e.has("name"));
    const std::string ph = e.at("ph").str();
    const std::string name = e.at("name").str();
    if (ph == "M") saw_meta = true;
    if (ph == "X" && name == "outer") saw_outer = true;
    if (ph == "X" && name == "inner") {
      saw_inner = true;
      ASSERT_TRUE(e.has("args"));
      EXPECT_EQ(e.at("args").at("part").number(), 7.0);
    }
    if (ph == "i" && name == "tick") {
      saw_tick = true;
      EXPECT_EQ(e.at("args").at("superstep").number(), 3.0);
    }
    if (ph == "X" || ph == "i") {
      ASSERT_TRUE(e.has("ts"));
      ASSERT_TRUE(e.has("pid"));
      ASSERT_TRUE(e.has("tid"));
    }
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_tick);
  EXPECT_TRUE(saw_meta);
}

TEST_F(TraceTest, SpanEndTimesAreMonotonicPerThread) {
  auto burst = [] {
    for (int i = 0; i < 50; ++i) {
      trace::Span s("span", "test", "i", static_cast<std::uint64_t>(i));
    }
  };
  std::thread a(burst), b(burst);
  burst();
  a.join();
  b.join();

  const JsonValue doc = export_trace();
  // Complete events are recorded when the span *ends*, so within one host
  // thread's buffer (pid 1, fixed tid) end timestamps ts+dur never decrease.
  std::map<double, double> last_end_by_tid;
  std::size_t spans_seen = 0;
  for (const JsonValue& e : doc.at("traceEvents").array()) {
    if (e.at("ph").str() != "X" || e.at("pid").number() != 1.0) continue;
    ++spans_seen;
    const double tid = e.at("tid").number();
    const double end = e.at("ts").number() + e.at("dur").number();
    auto [it, inserted] = last_end_by_tid.emplace(tid, end);
    if (!inserted) {
      EXPECT_GE(end, it->second) << "tid " << tid;
      it->second = end;
    }
  }
  EXPECT_EQ(spans_seen, 150u);
  EXPECT_EQ(last_end_by_tid.size(), 3u);  // three distinct host threads
}

TEST_F(TraceTest, ThreadIdsAreStableAcrossBatchesAndReset) {
  auto my_tid = [this] {
    const JsonValue doc = export_trace();
    for (const JsonValue& e : doc.at("traceEvents").array())
      if (e.at("ph").str() == "X" && e.at("name").str() == "probe")
        return e.at("tid").number();
    ADD_FAILURE() << "probe span not exported";
    return -1.0;
  };

  { trace::Span s("probe", "test"); }
  const double first = my_tid();

  { trace::Span s("probe", "test"); }  // second batch, same thread
  EXPECT_EQ(my_tid(), first);

  trace::Tracer::instance().reset();  // clears events, keeps registrations
  { trace::Span s("probe", "test"); }
  EXPECT_EQ(my_tid(), first);
}

TEST_F(TraceTest, VirtualTrackEventsCarryExplicitPlacement) {
  trace::Tracer& t = trace::Tracer::instance();
  t.name_virtual_track(2, "worker VM 2");
  t.virtual_complete("compute", "modeled", 2, 1000.0, 250.0, "{\"superstep\":1}");
  t.virtual_instant("swath.initiate", "swath", 1000.0);
  t.virtual_counter("messages", 1250.0, 99.0);

  const JsonValue doc = export_trace();
  bool saw_span = false, saw_name = false, saw_counter = false;
  for (const JsonValue& e : doc.at("traceEvents").array()) {
    if (e.at("ph").str() == "X" && e.at("name").str() == "compute") {
      saw_span = true;
      EXPECT_EQ(e.at("pid").number(), double(trace::Tracer::kVirtualPid));
      EXPECT_EQ(e.at("tid").number(), 2.0);
      EXPECT_EQ(e.at("ts").number(), 1000.0);
      EXPECT_EQ(e.at("dur").number(), 250.0);
    }
    if (e.at("ph").str() == "M" && e.has("args") && e.at("args").has("name") &&
        e.at("args").at("name").str() == "worker VM 2")
      saw_name = true;
    if (e.at("ph").str() == "C" && e.at("name").str() == "messages") saw_counter = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_name);
  EXPECT_TRUE(saw_counter);
}

TEST_F(TraceTest, NamesNeedingEscapesStayValidJson) {
  trace::Tracer::instance().instant("quote\" backslash\\ newline\n tab\t", "test");
  const JsonValue doc = export_trace();
  bool found = false;
  for (const JsonValue& e : doc.at("traceEvents").array())
    if (e.at("ph").str() == "i" &&
        e.at("name").str() == "quote\" backslash\\ newline\n tab\t")
      found = true;
  EXPECT_TRUE(found);
}

TEST(TraceDisabled, RecordsNothingAndReportsOff) {
  trace::Tracer::instance().configure(trace::TraceConfig{});
  EXPECT_FALSE(trace::spans_on());
  { trace::Span s("ignored", "test"); }
  EXPECT_EQ(trace::Tracer::instance().event_count(), 0u);
}

}  // namespace
}  // namespace pregel
