#include "runtime/metrics.hpp"

#include <algorithm>
#include <bit>
#include <iomanip>
#include <sstream>

#include "runtime/metric_fields.hpp"

namespace pregel {
namespace {

/// Doubles compared by bit pattern: -0.0 differs from 0.0, a NaN equals itself.
MetricValue bits(const MetricValue& v) {
  const double* d = std::get_if<double>(&v);
  return d ? MetricValue(std::bit_cast<std::uint64_t>(*d)) : v;
}

std::string show(const MetricValue& v) {
  std::ostringstream out;
  out << std::setprecision(17);
  std::visit([&out](const auto& x) { out << x; }, v);
  return out.str();
}

/// First modeled stored field of `table` where `a` and `b` differ, as
/// "<prefix><name>: <a> vs <b>"; "" when none does.
template <class R, std::size_t N>
std::string first_difference(const MetricField<R> (&table)[N], const R& a, const R& b,
                             const std::string& prefix) {
  for (const auto& f : table) {
    if (!f.stored() || f.coverage == Coverage::host_only) continue;
    const MetricValue x = f.read(a), y = f.read(b);
    if (bits(x) != bits(y)) return prefix + std::string(f.name) + ": " + show(x) + " vs " + show(y);
  }
  return {};
}

std::string size_difference(const std::string& path, std::size_t a, std::size_t b) {
  return a == b ? std::string{} : path + ".size: " + std::to_string(a) + " vs " + std::to_string(b);
}

}  // namespace

std::string first_modeled_difference(const JobMetrics& a, const JobMetrics& b) {
  std::string diff = size_difference("supersteps", a.supersteps.size(), b.supersteps.size());
  for (std::size_t s = 0; diff.empty() && s < a.supersteps.size(); ++s) {
    const SuperstepMetrics& x = a.supersteps[s];
    const SuperstepMetrics& y = b.supersteps[s];
    const std::string step = "supersteps[" + std::to_string(s) + "]";
    diff = size_difference(step + ".workers", x.workers.size(), y.workers.size());
    if (diff.empty()) diff = first_difference(kSuperstepFields, x, y, step + ".");
    for (std::size_t w = 0; diff.empty() && w < x.workers.size(); ++w)
      diff = first_difference(kWorkerFields, x.workers[w], y.workers[w],
                              step + ".workers[" + std::to_string(w) + "].");
  }
  return diff.empty() ? first_difference(kJobFields, a, b, "") : diff;
}

std::uint64_t SuperstepMetrics::messages_sent_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& w : workers) total += w.messages_sent_total();
  return total;
}

std::uint64_t SuperstepMetrics::messages_sent_remote() const noexcept {
  std::uint64_t total = 0;
  for (const auto& w : workers) total += w.messages_sent_remote;
  return total;
}

Bytes SuperstepMetrics::max_worker_memory() const noexcept {
  Bytes peak = 0;
  for (const auto& w : workers) peak = std::max(peak, w.memory_peak);
  return peak;
}

double SuperstepMetrics::utilization() const noexcept {
  Seconds busy = 0.0, total = 0.0;
  for (const auto& w : workers) {
    busy += w.busy_time();
    total += w.busy_time() + w.barrier_wait;
  }
  return total > 0.0 ? busy / total : 1.0;
}

std::uint64_t JobMetrics::total_messages() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : supersteps) total += s.messages_sent_total();
  return total;
}

Bytes JobMetrics::peak_worker_memory() const noexcept {
  Bytes peak = 0;
  for (const auto& s : supersteps) peak = std::max(peak, s.max_worker_memory());
  return peak;
}

Seconds JobMetrics::total_barrier_wait() const noexcept {
  Seconds total = 0.0;
  for (const auto& s : supersteps)
    for (const auto& w : s.workers) total += w.barrier_wait;
  return total;
}

Seconds JobMetrics::total_busy_time() const noexcept {
  Seconds total = 0.0;
  for (const auto& s : supersteps)
    for (const auto& w : s.workers) total += w.busy_time();
  return total;
}

double JobMetrics::utilization() const noexcept {
  const Seconds busy = total_busy_time();
  const Seconds total = busy + total_barrier_wait();
  return total > 0.0 ? busy / total : 1.0;
}

}  // namespace pregel
