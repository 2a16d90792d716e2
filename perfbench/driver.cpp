// perfbench — the repository benchmark.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--out-dir DIR] [--perturb]
//
// One workload per process, run as a closed loop with one client:
//   1. set-up, at least 3 times and for at least 3 s: generate the dataset
//      analog from the seed, partition it, construct the first Engine
//      (setup_s is the median);
//   2. the sequential oracle for the last input;
//   3. one untimed warm-up job, checked against the oracle;
//   4. warm jobs back to back for S seconds, each checked against the oracle
//      and for bit-identity with the warm-up job.
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it alternates untraced and traced jobs and reports the
// per-layer metrics: spans recorded here, around the public calls into each
// layer, and JobMetrics counter deltas read between Engine::advance calls.
// Nothing inside src/ is instrumented.
//
// Every metric names its clock: "host" (this machine's time and memory),
// "modeled" (the simulated cluster's seconds, bytes and dollars) or "count".
// Modeled quantities also carry it in their unit ("modeled-s",
// "modeled-MiB"), so a host field never holds a modeled number. The
// last line of stdout is the JSON result; a human-readable table, the
// hardware and build stamp, and the full report precede it, and the report
// (plus the spans, when traced) is also written under --out-dir.
//
// --perturb corrupts one vertex value of the first timed job, to show that
// the correctness gate fails the run. Exit status: 0 when every job was
// right, 1 when any job or the checks' self-test failed, 2 on bad usage.
#include <sys/resource.h>
#include <sys/sysinfo.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "harness/bench_report.hpp"
#include "harness/experiment.hpp"
#include "partition/quality.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace pregel;

constexpr unsigned kScaleDiv = 10;
constexpr PartitionId kPartitions = 8;
constexpr double kMiB = 1024.0 * 1024.0;
// Set-up repeats: cheap set-ups get more samples, the median steadies.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupSeconds = 3.0;

// ---- clocks -----------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process user + system CPU seconds, all threads.
double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) + upper) /
         2.0;
}

// ---- the reference kernel --------------------------------------------------

/// Host times are reported in seconds of a reference machine: the machine
/// on which one pass of the kernel below takes kReferenceSeconds.
constexpr double kReferenceSeconds = 0.05;

/// A frozen kernel that shares no code with src/: push-style rank sweeps
/// over a fixed random graph in CSR form, on one thread. It is timed just
/// before each piece of single-threaded work, and that work's host times
/// are scaled by kReferenceSeconds / its time.
///
/// The virtual machines this benchmark runs on change speed by tens of
/// percent over tens of seconds with their neighbours' load, and a single
/// thread feels the neighbours of whichever vCPU it sits on. That drift
/// moves the kernel and the work on the same thread alike and cancels,
/// while a change to the simulator moves only the work. Multi-lane jobs
/// spread over every vCPU and average the drift themselves; a parallel
/// kernel pass, which waits for its slowest thread, was noisier than they
/// are, so they are reported unscaled.
class Reference {
 public:
  Reference() : dst_(std::size_t{kN} * kDeg), cur_(kN, 1.0 / kN), next_(kN) {
    std::uint32_t x = 12345;
    for (auto& e : dst_) e = (x = x * 1664525u + 1013904223u) >> 14;
  }

  /// Raw seconds of one pass now.
  double seconds() {
    const double t0 = now_s();
    for (int it = 0; it < kSweeps; ++it) {
      std::fill(next_.begin(), next_.end(), 0.0);
      for (std::uint32_t v = 0; v < kN; ++v) {
        const double share = cur_[v] / kDeg;
        for (std::size_t e = std::size_t{v} * kDeg; e < std::size_t{v + 1} * kDeg; ++e)
          next_[dst_[e]] += share;
      }
      std::swap(cur_, next_);
    }
    return now_s() - t0;
  }

 private:
  static constexpr std::uint32_t kN = 1u << 18;
  static constexpr std::uint32_t kDeg = 8;
  static constexpr int kSweeps = 10;

  std::vector<std::uint32_t> dst_;
  std::vector<double> cur_, next_;
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---- spans --------------------------------------------------------------------

/// In-memory span log. Spans of one set-up or one job share a unit id; the
/// log is written out once the run ends.
struct Span {
  std::string name;  ///< "<layer>.<call>"
  std::uint64_t unit = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for a root
  double t0 = 0.0;
  double t1 = 0.0;
  unsigned cls = 0;  ///< Engine::advance attribution, AdvanceClass bits
};

class SpanLog {
 public:
  void enable(bool on) { on_ = on; }
  bool on() const noexcept { return on_; }

  std::int64_t begin(std::string name, std::uint64_t unit, std::int64_t parent) {
    if (!on_) return -1;
    spans_.push_back(Span{std::move(name), unit, parent, now_s(), 0.0, {}});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void end(std::int64_t i) {
    if (i >= 0) spans_[static_cast<std::size_t>(i)].t1 = now_s();
  }
  void tag(std::int64_t i, unsigned cls) {
    if (i >= 0) spans_[static_cast<std::size_t>(i)].cls = cls;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
};

// ---- advance() attribution ----------------------------------------------------

/// JobMetrics counters read before and after each Engine::advance. Which of
/// them moved says what barrier work that call did.
struct Counters {
  std::uint64_t checkpoints = 0;
  std::uint64_t failures = 0;
  std::uint64_t replayed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t swaths = 0;
  std::uint64_t pulls = 0;
};

Counters read_counters(const JobReport& r) {
  const JobMetrics& m = r.metrics;
  return {static_cast<std::uint64_t>(m.checkpoint_bases) + m.checkpoint_deltas,
          m.worker_failures,
          m.replayed_supersteps,
          m.migrations,
          r.swaths_initiated,
          m.pull_supersteps};
}

enum AdvanceClass : unsigned { kCkpt = 1, kRecovery = 2, kMigration = 4, kSwath = 8, kPull = 16 };

/// Which barrier work an advance() call did, from the counters that moved.
unsigned classify(const Counters& a, const Counters& b) {
  return (b.checkpoints != a.checkpoints ? kCkpt : 0u) |
         (b.failures != a.failures || b.replayed != a.replayed ? kRecovery : 0u) |
         (b.migrations != a.migrations ? kMigration : 0u) | (b.swaths != a.swaths ? kSwath : 0u) |
         (b.pulls != a.pulls ? kPull : 0u);
}

/// "ckpt", "recovery", "migration", "swath", "pull" joined by '+', or
/// "plain" when none moved.
std::string class_name(unsigned cls) {
  std::string out;
  for (const auto& [bit, name] : {std::pair{kCkpt, "ckpt"}, std::pair{kRecovery, "recovery"},
                                  std::pair{kMigration, "migration"}, std::pair{kSwath, "swath"},
                                  std::pair{kPull, "pull"}})
    if (cls & bit) out += (out.empty() ? "" : "+") + std::string(name);
  return out.empty() ? "plain" : out;
}

// ---- jobs ---------------------------------------------------------------------

struct JobRun {
  std::uint64_t unit = 0;
  double wall_s = 0.0;  ///< Engine construction through finish(), raw
  double cpu_s = 0.0;   ///< process CPU over the same interval, raw
  double scale = 1.0;   ///< to reference-machine seconds (see Reference)
  std::string error;    ///< set when the job threw
  JobReport report;
  std::vector<double> values;
};

JobRun run_job(const Workload& w, const Input& in, SpanLog& log, std::uint64_t unit,
               double scale) {
  JobRun r;
  r.unit = unit;
  r.scale = scale;
  const double c0 = cpu_s();
  const double t0 = now_s();
  const std::int64_t root = log.begin("bench.job", unit, -1);
  try {
    std::int64_t s = log.begin("core.construct", unit, root);
    std::unique_ptr<Job> job = w.make_job(in);
    log.end(s);
    s = log.begin("core.start", unit, root);
    bool running = job->start();
    log.end(s);
    while (running) {
      if (!log.on()) {
        running = job->advance();
        continue;
      }
      const Counters before = read_counters(job->report());
      s = log.begin("core.advance", unit, root);
      running = job->advance();
      log.end(s);
      log.tag(s, classify(before, read_counters(job->report())));
    }
    s = log.begin("core.finish", unit, root);
    job->finish();
    log.end(s);
    r.wall_s = now_s() - t0;
    r.cpu_s = cpu_s() - c0;
    log.end(root);
    r.report = job->report();
    r.values = job->values();
  } catch (const std::exception& e) {
    r.wall_s = now_s() - t0;
    r.cpu_s = cpu_s() - c0;
    log.end(root);
    r.error = e.what();
  }
  return r;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Empty when `r` matches the oracle and, given a reference, is
/// bit-identical to it in values, modeled time and dollars, supersteps and
/// messages; otherwise what differs first.
std::string check_job(const Workload& w, const JobRun& r, const std::vector<double>& oracle,
                      const JobRun* reference) {
  if (!r.error.empty()) return "threw: " + r.error;
  if (r.report.failed) return "job failed: " + r.report.failure_reason;
  if (r.values.size() != oracle.size())
    return "value count " + std::to_string(r.values.size()) + " != oracle's " +
           std::to_string(oracle.size());
  for (std::size_t v = 0; v < oracle.size(); ++v)
    if (!w.within_tolerance(r.values[v], oracle[v])) {
      std::ostringstream os;
      os.precision(17);
      os << "vertex " << v << ": got " << r.values[v] << ", oracle " << oracle[v] << " ("
         << w.tolerance << ")";
      return os.str();
    }
  if (reference == nullptr) return {};
  const JobMetrics& a = r.report.metrics;
  const JobMetrics& b = reference->report.metrics;
  if (!same_bits(a.total_time, b.total_time)) return "modeled_s differs from the warm-up job";
  if (!same_bits(a.cost_usd, b.cost_usd)) return "modeled_usd differs from the warm-up job";
  if (a.total_supersteps() != b.total_supersteps())
    return "superstep count differs from the warm-up job";
  if (a.total_messages() != b.total_messages())
    return "message count differs from the warm-up job";
  for (std::size_t v = 0; v < r.values.size(); ++v)
    if (!same_bits(r.values[v], reference->values[v]))
      return "vertex " + std::to_string(v) + " differs from the warm-up job";
  return {};
}

/// Shows that both checks fire: one value pushed past the oracle's
/// tolerance, then one value and the modeled time each moved by one ulp
/// against the warm-up job, must each be reported.
bool checks_fire(const Workload& w, const JobRun& warm, const std::vector<double>& oracle) {
  if (oracle.empty() || warm.values.size() != oracle.size()) return false;
  const std::size_t v = oracle.size() / 2;
  JobRun off = warm;
  off.error.clear();
  off.report.failed = false;
  off.values = oracle;
  off.values[v] = oracle[v] + std::max(std::fabs(oracle[v]), 1.0) * 1e-6;
  if (check_job(w, off, oracle, nullptr).empty()) return false;
  JobRun ulp = warm;
  ulp.values[v] = std::nextafter(ulp.values[v], HUGE_VAL);
  if (check_job(w, ulp, ulp.values, &warm).empty()) return false;
  ulp = warm;
  ulp.report.metrics.total_time = std::nextafter(ulp.report.metrics.total_time, HUGE_VAL);
  return !check_job(w, ulp, warm.values, &warm).empty();
}

// ---- provenance -----------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s.empty() ? "unknown" : s;
#else
  return "unknown";
#endif
}

std::string load_average() {
  struct sysinfo si {};
  if (sysinfo(&si) != 0) return "unknown";
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  for (int i = 0; i < 3; ++i)
    os << (i ? " " : "") << static_cast<double>(si.loads[i]) / (1 << SI_LOAD_SHIFT);
  return os.str();
}

bool optimised_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

struct Stamp {
  long nproc = 0;
  std::string cpu;
  std::string load_before;
  std::string load_after;
  std::string git_sha;
  std::string build_type;
  bool optimised = false;
};

// ---- metrics --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  ///< "host" | "modeled" | "count"
};

/// {"<name>": {"value": v, "unit": u[, "clock": c]}, ...}; the result line
/// leaves the clock out (its units already name it for modeled values).
void write_metrics(JsonWriter& j, const std::vector<Metric>& metrics, bool with_clock) {
  j.begin_object();
  for (const Metric& m : metrics) {
    j.key(m.name).begin_object();
    j.key("value").value(std::isfinite(m.value) ? m.value : 0.0);
    j.key("unit").value(m.unit);
    if (with_clock) j.key("clock").value(m.clock);
    j.end_object();
  }
  j.end_object();
}

/// Highest standard percentile with at least ten samples above it, or 0.
int tail_percentile(std::size_t n) {
  for (int p : {99, 95, 90, 75})
    if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0) return p;
  return 0;
}

double percentile(std::vector<double> v, int p) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// ---- the run ----------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 2013;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  bool perturb = false;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {pagerank_wg_serial(), bc_wg_adaptive(),
                                            sssp_cp_ckpt_migrate()};
  return all;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
            << "                 [--out-dir DIR] [--perturb]\n"
            << "workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  auto number = [&](int& i) {
    const std::string flag = argv[i];
    const std::string v = value(i);
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || !std::isfinite(x) || x < 0)
      usage("bad value for " + flag + ": " + v);
    return x;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--workload") {
      o.workload = value(i);
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(number(i));
    } else if (a == "--seconds") {
      o.seconds = number(i);
    } else if (a == "--trace") {
      o.trace = number(i) != 0.0;
    } else if (a == "--out-dir") {
      o.out_dir = value(i);
    } else if (a == "--perturb") {
      o.perturb = true;
    } else {
      usage("unknown argument " + std::string(a));
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

int run(const Options& o) {
  const Workload* found = nullptr;
  for (const Workload& w : workloads())
    if (w.name == o.workload) found = &w;
  if (found == nullptr) usage("unknown workload " + o.workload);
  const Workload& w = *found;

  Stamp stamp;
  stamp.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  stamp.cpu = cpu_model();
  stamp.load_before = load_average();
  stamp.git_sha = harness::build_git_sha();
  stamp.build_type = harness::build_type();
  stamp.optimised = optimised_build();

  SpanLog log;
  log.enable(o.trace);
  std::uint64_t next_unit = 1;

  // Host times of single-threaded work are scaled to the reference machine
  // by the factor measured just before it (see Reference).
  Reference reference;
  reference.seconds();  // first touch of its tables
  std::vector<double> reference_s;  // raw kernel times
  auto scale = [&] {
    reference_s.push_back(reference.seconds());
    return kReferenceSeconds / reference_s.back();
  };
  auto job_scale = [&] { return w.lanes == 1 ? scale() : 1.0; };

  // 1. Set-up, repeated; the last input is kept.
  std::vector<double> setup_s, generate_s, partition_s, construct_s;
  Input in;
  const double setup0 = now_s();
  for (int k = 0; k < kMaxSetups && (k < kMinSetups || now_s() - setup0 < kSetupSeconds);
       ++k) {
    const std::uint64_t unit = next_unit++;
    const double f = scale();
    const std::int64_t root = log.begin("bench.setup", unit, -1);
    const double t0 = now_s();
    std::int64_t s = log.begin("graph.generate", unit, root);
    Graph g = dataset_analog(w.dataset, kScaleDiv, o.seed);
    log.end(s);
    const double t1 = now_s();
    s = log.begin("partition.partition", unit, root);
    Partitioning parts = harness::make_partitioner(w.partitioner, o.seed)->partition(g, kPartitions);
    log.end(s);
    const double t2 = now_s();
    std::vector<VertexId> roots = w.pick_roots ? w.pick_roots(g, o.seed) : std::vector<VertexId>{};
    in = Input{std::move(g), std::move(parts), std::move(roots)};
    s = log.begin("core.construct", unit, root);
    double t3 = 0.0;
    {
      const std::unique_ptr<Job> first = w.make_job(in);
      t3 = now_s();
    }
    log.end(s);
    log.end(root);
    setup_s.push_back((t3 - t0) * f);
    generate_s.push_back((t1 - t0) * f);
    partition_s.push_back((t2 - t1) * f);
    construct_s.push_back((t3 - t2) * f);
  }
  const PartitionQuality quality = evaluate_partition(in.graph, in.parts);

  // 2. The sequential oracle, once for the kept input.
  const std::uint64_t oracle_unit = next_unit++;
  const double oracle_scale = scale();
  const std::int64_t oracle_span = log.begin("graph.oracle", oracle_unit, -1);
  const double o0 = now_s();
  const std::vector<double> oracle = w.oracle(in);
  const double oracle_s = (now_s() - o0) * oracle_scale;
  log.end(oracle_span);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> check_s;
  auto verdict = [&](JobRun& r, const JobRun* reference) {
    ++attempted;
    const std::int64_t span = log.begin("graph.check", r.unit, -1);
    const double c0 = now_s();
    std::string why = check_job(w, r, oracle, reference);
    check_s.push_back((now_s() - c0) * r.scale);
    log.end(span);
    if (why.empty()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back("job " + std::to_string(r.unit) + ": " + why);
  };

  // 3. The warm-up job: untimed, checked against the oracle only.
  JobRun warm = run_job(w, in, log, next_unit++, job_scale());
  verdict(warm, nullptr);
  const bool self_test_ok = checks_fire(w, warm, oracle);
  if (!self_test_ok) errors.push_back("self-test: a perturbed value passed the checks");

  // 4. Warm jobs, back to back. A traced run alternates untraced and traced
  // jobs, so the two sets see the same machine and their ratio is what
  // tracing costs.
  std::vector<JobRun> plain, traced;
  const double loop0 = now_s();
  for (std::uint64_t i = 0;; ++i) {
    const bool done_one = !plain.empty() && (!o.trace || !traced.empty());
    if (done_one && now_s() - loop0 >= o.seconds) break;
    const bool tracing = o.trace && i % 2 == 1;
    log.enable(tracing);
    JobRun r = run_job(w, in, log, next_unit++, job_scale());
    if (o.perturb && i == 0 && !r.values.empty()) r.values[r.values.size() / 2] += 1.0;
    verdict(r, &warm);
    r.values.clear();
    (tracing ? traced : plain).push_back(std::move(r));
  }
  stamp.load_after = load_average();

  const JobMetrics& m = warm.report.metrics;
  const bool correct = failed == 0 && self_test_ok;
  std::vector<double> plain_wall, plain_cpu, raw_wall;
  for (const JobRun& r : plain) {
    plain_wall.push_back(r.wall_s * r.scale);
    plain_cpu.push_back(r.cpu_s * r.scale);
    raw_wall.push_back(r.wall_s);
  }
  const double job_s = median(plain_wall);

  // End-to-end metrics (tracing off), then the per-layer ones.
  std::vector<Metric> e2e = {
      {"job_s", job_s, "s", "host"},
      {"job_cpu_s", median(plain_cpu), "s", "host"},
      {"msgs_per_s", static_cast<double>(m.total_messages()) / job_s, "1/s", "host"},
      {"setup_s", median(setup_s), "s", "host"},
      {"peak_rss_mib", peak_rss_mib(), "MiB", "host"},
      {"modeled_s", m.total_time, "modeled-s", "modeled"},
      {"modeled_usd", m.cost_usd, "USD", "modeled"},
  };
  const double error_rate = static_cast<double>(failed) / static_cast<double>(attempted);
  const int tail_p = tail_percentile(plain_wall.size());

  std::vector<Metric> layers;
  if (o.trace) {
    // Per traced job: the host time of each call kind, and the share of the
    // job spent in advance() calls by what they did. Shares, not seconds:
    // a workload that never checkpoints reads 0, not a frozen time.
    std::vector<double> construct, start, advance, finish, p50, pmax, ckpt, recovery, migration,
        busy, unattributed, steals, stolen, wall;
    std::uint64_t ckpt_calls = 0, recovery_calls = 0, migration_calls = 0;
    const auto& spans = log.spans();
    for (const JobRun& r : traced) {
      double c = 0, st = 0, fi = 0, ck = 0, re = 0, mi = 0, job = 0, children = 0;
      std::vector<double> steps;
      for (const Span& sp : spans) {
        if (sp.unit != r.unit) continue;
        const double d = (sp.t1 - sp.t0) * r.scale;
        if (sp.name == "bench.job") job = d;
        if (sp.parent >= 0) children += d;
        if (sp.name == "core.construct") c += d;
        if (sp.name == "core.start") st += d;
        if (sp.name == "core.finish") fi += d;
        if (sp.name != "core.advance") continue;
        steps.push_back(d);
        if (sp.cls & kCkpt) ck += d;
        if (sp.cls & kRecovery) re += d;
        if (sp.cls & kMigration) mi += d;
        if (&r == &traced.front()) {
          ckpt_calls += (sp.cls & kCkpt) != 0;
          recovery_calls += (sp.cls & kRecovery) != 0;
          migration_calls += (sp.cls & kMigration) != 0;
        }
      }
      construct.push_back(c);
      start.push_back(st);
      finish.push_back(fi);
      advance.push_back(sum(steps));
      p50.push_back(median(steps));
      pmax.push_back(steps.empty() ? 0.0 : *std::max_element(steps.begin(), steps.end()));
      ckpt.push_back(ck / job);
      recovery.push_back(re / job);
      migration.push_back(mi / job);
      unattributed.push_back(job - children);
      wall.push_back(r.wall_s * r.scale);
      busy.push_back(r.cpu_s / (r.wall_s * w.lanes));
      steals.push_back(static_cast<double>(r.report.metrics.work_steals));
      stolen.push_back(static_cast<double>(r.report.metrics.stolen_chunks));
    }
    std::uint64_t remote = 0;
    for (const auto& step : m.supersteps) remote += step.messages_sent_remote();
    const double ckpt_bytes =
        static_cast<double>(m.checkpoint_base_bytes + m.checkpoint_delta_bytes);
    layers = {
        {"graph.generate_s", median(generate_s), "s", "host"},
        {"graph.oracle_s", oracle_s, "s", "host"},
        {"graph.check_s", median(check_s), "s", "host"},
        {"partition.partition_s", median(partition_s), "s", "host"},
        {"partition.remote_edge_fraction", quality.remote_edge_fraction, "fraction", "count"},
        {"core.first_construct_s", median(construct_s), "s", "host"},
        {"core.construct_s", median(construct), "s", "host"},
        {"core.start_s", median(start), "s", "host"},
        {"core.advance_s", median(advance), "s", "host"},
        {"core.finish_s", median(finish), "s", "host"},
        {"core.superstep_p50_s", median(p50), "s", "host"},
        {"core.superstep_max_s", median(pmax), "s", "host"},
        {"core.lane_busy_frac", median(busy), "fraction", "host"},
        {"core.steals", median(steals), "count", "count"},
        {"core.stolen_chunks", median(stolen), "count", "count"},
        {"core.supersteps", static_cast<double>(m.total_supersteps()), "count", "count"},
        {"core.messages", static_cast<double>(m.total_messages()), "count", "count"},
        {"core.remote_messages", static_cast<double>(remote), "count", "count"},
        {"core.pull_supersteps", static_cast<double>(m.pull_supersteps), "count", "count"},
        {"core.cold_job_s", warm.wall_s * warm.scale, "s", "host"},
        {"swath.swaths_initiated", static_cast<double>(warm.report.swaths_initiated), "count",
         "count"},
        {"swath.peak_worker_mib", static_cast<double>(m.peak_worker_memory()) / kMiB,
         "modeled-MiB", "modeled"},
        {"cloud.ckpt_step_frac", median(ckpt), "fraction", "host"},
        {"cloud.ckpt_steps", static_cast<double>(ckpt_calls), "count", "count"},
        {"cloud.recovery_step_frac", median(recovery), "fraction", "host"},
        {"cloud.recovery_steps", static_cast<double>(recovery_calls), "count", "count"},
        {"migration.step_frac", median(migration), "fraction", "host"},
        {"migration.steps", static_cast<double>(migration_calls), "count", "count"},
        {"cloud.ckpt_mib", ckpt_bytes / kMiB, "modeled-MiB", "modeled"},
        {"cloud.ckpt_modeled_s", m.checkpoint_time, "modeled-s", "modeled"},
        {"cloud.recovery_modeled_s", m.recovery_time, "modeled-s", "modeled"},
        {"cloud.replayed_supersteps", static_cast<double>(m.replayed_supersteps), "count",
         "count"},
        {"migration.migrated_mib", static_cast<double>(m.migrated_bytes) / kMiB,
         "modeled-MiB", "modeled"},
        {"migration.modeled_s", m.migration_time, "modeled-s", "modeled"},
        {"cloud.control_queue_ops", static_cast<double>(m.control_queue_ops), "count", "count"},
        {"runtime.modeled_utilization", m.utilization(), "fraction", "modeled"},
        {"trace.overhead_frac", median(wall) / job_s - 1.0, "fraction", "host"},
        {"trace.unattributed_s", median(unattributed), "s", "host"},
        {"bench.reference_s", median(reference_s), "s", "host"},
        {"bench.job_wall_s", median(raw_wall), "s", "host"},
    };
  }

  // Human-readable report.
  std::cout << "perfbench " << w.name << "  seed " << o.seed << "  trace " << o.trace << "\n"
            << "  config:   " << w.config << "\n"
            << "  input:    " << w.dataset << " analog 1/" << kScaleDiv << ", "
            << in.graph.num_vertices() << " vertices, " << in.graph.num_arcs() << " arcs, "
            << w.partitioner << " partitioned\n"
            << "  oracle:   " << w.tolerance << "\n"
            << "  host:     " << stamp.nproc << " CPUs, " << stamp.cpu << ", load "
            << stamp.load_before << " -> " << stamp.load_after << "\n"
            << "  build:    " << stamp.git_sha << " " << stamp.build_type
            << (stamp.optimised ? "" : "  WARNING: unoptimised build") << "\n"
            << "  jobs:     1 warm-up + " << plain.size() << " timed"
            << (o.trace ? " + " + std::to_string(traced.size()) + " traced" : std::string())
            << ", closed loop, 1 client, " << w.lanes << " lane(s)\n";
  auto print = [](const Metric& x) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-32s %20.9g  %-8s %s\n", x.name.c_str(), x.value,
                  x.unit.c_str(), x.clock.c_str());
    std::cout << line;
  };
  for (const Metric& x : e2e) print(x);
  print({"job_error_rate", error_rate, "fraction", "count"});
  if (tail_p > 0) print({"job_p" + std::to_string(tail_p) + "_s", percentile(plain_wall, tail_p),
                         "s", "host"});
  if (!o.trace) {
    print({"job_wall_s (unscaled)", median(raw_wall), "s", "host"});
    print({"reference_s (unscaled)", median(reference_s), "s", "host"});
  }
  for (const Metric& x : layers) print(x);
  for (const std::string& e : errors) std::cout << "  ERROR " << e << "\n";

  // Full report and spans, kept beside the build.
  namespace fs = std::filesystem;
  const std::string stem = w.name + "-seed" + std::to_string(o.seed) + "-trace" +
                           std::to_string(o.trace ? 1 : 0);
  std::error_code ec;
  fs::create_directories(o.out_dir, ec);
  if (std::ofstream out(fs::path(o.out_dir) / (stem + ".json")); out) {
    JsonWriter j(out);
    j.begin_object();
    j.key("workload").value(w.name);
    j.key("seed").value(o.seed);
    j.key("config").value(w.config);
    j.key("oracle_tolerance").value(w.tolerance);
    j.key("host").begin_object();
    j.key("nproc").value(static_cast<std::int64_t>(stamp.nproc));
    j.key("cpu_model").value(stamp.cpu);
    j.key("load_before").value(stamp.load_before);
    j.key("load_after").value(stamp.load_after);
    j.end_object();
    j.key("build").begin_object();
    j.key("git_sha").value(stamp.git_sha);
    j.key("build_type").value(stamp.build_type);
    j.key("optimised").value(stamp.optimised);
    j.end_object();
    j.key("attempted").value(attempted);
    j.key("failed").value(failed);
    j.key("job_error_rate").value(error_rate);
    j.key("reference_seconds").value(kReferenceSeconds);
    j.key("job_s_samples").begin_array();
    for (double x : plain_wall) j.value(x);
    j.end_array();
    j.key("job_wall_s_samples").begin_array();
    for (double x : raw_wall) j.value(x);
    j.end_array();
    j.key("reference_s_samples").begin_array();
    for (double x : reference_s) j.value(x);
    j.end_array();
    j.key("end_to_end");
    write_metrics(j, e2e, true);
    j.key("per_layer");
    write_metrics(j, layers, true);
    j.end_object();
    out << "\n";
  }
  if (o.trace) {
    if (std::ofstream out(fs::path(o.out_dir) / (stem + "-spans.json")); out) {
      JsonWriter j(out);
      j.begin_object();
      j.key("traceEvents").begin_array();
      const double base = log.spans().empty() ? 0.0 : log.spans().front().t0;
      for (const Span& sp : log.spans()) {
        j.begin_object();
        j.key("name").value(sp.name);
        j.key("cat").value(sp.name.substr(0, sp.name.find('.')));
        j.key("ph").value("X");
        j.key("ts").value((sp.t0 - base) * 1e6);
        j.key("dur").value((sp.t1 - sp.t0) * 1e6);
        j.key("pid").value(1);
        j.key("tid").value(1);
        j.key("args").begin_object();
        j.key("unit").value(sp.unit);
        if (sp.name == "core.advance") j.key("class").value(class_name(sp.cls));
        j.end_object();
        j.end_object();
      }
      j.end_array();
      j.end_object();
      out << "\n";
    }
  }

  // The result line.
  std::ostringstream line;
  {
    JsonWriter j(line);
    j.begin_object();
    j.key("correct").value(correct);
    j.key("attempted").value(attempted);
    j.key("failed").value(failed);
    j.key("metrics");
    write_metrics(j, o.trace ? layers : e2e, false);
    j.end_object();
  }
  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
