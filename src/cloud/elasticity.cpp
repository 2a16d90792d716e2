#include "cloud/elasticity.hpp"

#include "util/check.hpp"

namespace pregel::cloud {

ActiveVertexScaling::ActiveVertexScaling(std::uint32_t low, std::uint32_t high,
                                         double threshold)
    : low_(low), high_(high), threshold_(threshold) {
  PREGEL_CHECK_MSG(low >= 1, "ActiveVertexScaling: low must be >= 1");
  PREGEL_CHECK_MSG(high >= low, "ActiveVertexScaling: high must be >= low");
  PREGEL_CHECK_MSG(threshold >= 0.0 && threshold <= 1.0,
                   "ActiveVertexScaling: threshold in [0,1]");
}

std::uint32_t ActiveVertexScaling::decide(const ScalingSignals& s) {
  const double frac = s.total_vertices == 0
                          ? 0.0
                          : static_cast<double>(s.active_vertices) /
                                static_cast<double>(s.total_vertices);
  return s.total_vertices != 0 && frac >= threshold_ ? high_ : low_;
}

std::string ActiveVertexScaling::name() const {
  return "active>=" + std::to_string(static_cast<int>(threshold_ * 100)) + "%:" +
         std::to_string(low_) + "<->" + std::to_string(high_);
}

HysteresisScaling::HysteresisScaling(std::uint32_t low, std::uint32_t high,
                                     double in_threshold, double out_threshold)
    : low_(low), high_(high), in_(in_threshold), out_(out_threshold) {
  PREGEL_CHECK_MSG(low >= 1, "HysteresisScaling: low must be >= 1");
  PREGEL_CHECK_MSG(high >= low, "HysteresisScaling: high must be >= low");
  PREGEL_CHECK_MSG(0.0 <= in_threshold && in_threshold < out_threshold &&
                       out_threshold <= 1.0,
                   "HysteresisScaling: need 0 <= in < out <= 1");
}

std::uint32_t HysteresisScaling::decide(const ScalingSignals& s) {
  if (s.total_vertices != 0) {
    const double frac =
        static_cast<double>(s.active_vertices) / static_cast<double>(s.total_vertices);
    if (!scaled_out_ && frac >= out_) scaled_out_ = true;
    else if (scaled_out_ && frac <= in_) scaled_out_ = false;
  }
  return scaled_out_ ? high_ : low_;
}

std::string HysteresisScaling::name() const {
  return "hysteresis[" + std::to_string(static_cast<int>(in_ * 100)) + "%," +
         std::to_string(static_cast<int>(out_ * 100)) + "%]:" + std::to_string(low_) +
         "<->" + std::to_string(high_);
}

MemoryPressureScaling::MemoryPressureScaling(std::uint32_t low, std::uint32_t high,
                                             Bytes memory_target, double out_fraction,
                                             double in_fraction)
    : low_(low), high_(high), target_(memory_target), out_(out_fraction), in_(in_fraction) {
  PREGEL_CHECK_MSG(low >= 1, "MemoryPressureScaling: low must be >= 1");
  PREGEL_CHECK_MSG(high >= low, "MemoryPressureScaling: high must be >= low");
  PREGEL_CHECK_MSG(memory_target > 0, "MemoryPressureScaling: memory_target must be > 0");
  PREGEL_CHECK_MSG(0.0 < in_fraction && in_fraction < out_fraction,
                   "MemoryPressureScaling: need 0 < in < out");
}

std::uint32_t MemoryPressureScaling::decide(const ScalingSignals& s) {
  const double pressure =
      static_cast<double>(s.max_worker_memory) / static_cast<double>(target_);
  if (!scaled_out_ && pressure >= out_) scaled_out_ = true;
  else if (scaled_out_ && pressure <= in_) scaled_out_ = false;
  return scaled_out_ ? high_ : low_;
}

std::string MemoryPressureScaling::name() const {
  return "mem-pressure[" + std::to_string(static_cast<int>(in_ * 100)) + "%," +
         std::to_string(static_cast<int>(out_ * 100)) + "%]:" + std::to_string(low_) +
         "<->" + std::to_string(high_);
}

OracleScaling::OracleScaling(std::uint32_t low, std::uint32_t high,
                             std::vector<Seconds> times_low, std::vector<Seconds> times_high)
    : low_(low),
      high_(high),
      times_low_(std::move(times_low)),
      times_high_(std::move(times_high)) {
  PREGEL_CHECK_MSG(times_low_.size() == times_high_.size(),
                   "OracleScaling: recorded runs must have equal superstep counts");
}

std::uint32_t OracleScaling::decide(const ScalingSignals& s) {
  // The decision at the barrier before superstep s+1 uses that superstep's
  // recorded costs (the oracle knows the future — that is the point).
  const std::uint64_t next = s.superstep + 1;
  return next < times_low_.size() && times_high_[next] < times_low_[next] ? high_ : low_;
}

}  // namespace pregel::cloud
