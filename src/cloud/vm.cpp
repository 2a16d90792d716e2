#include "cloud/vm.hpp"

#include "util/check.hpp"

namespace pregel::cloud {

VmSpec azure_large_2012() {
  return {.name = "azure-large-2012",
          .cores = 4,
          .clock_ghz = 1.6,
          .ram = 7_GiB,
          .network_bps = mbps(400),
          .price_per_hour = 0.48};
}

VmSpec azure_small_2012() {
  return {.name = "azure-small-2012",
          .cores = 1,
          .clock_ghz = 1.6,
          .ram = 1_GiB + 768_MiB,  // 1.75 GB = one fourth of 7 GB
          .network_bps = mbps(100),
          .price_per_hour = 0.12};
}

VmSpec with_scaled_ram(VmSpec vm, double factor) {
  PREGEL_CHECK_MSG(factor > 0.0, "with_scaled_ram: factor must be positive");
  vm.ram = static_cast<Bytes>(static_cast<double>(vm.ram) * factor);
  vm.name += "/ram*" + std::to_string(factor);
  return vm;
}

void CostMeter::charge(const VmSpec& vm, std::uint32_t count, Seconds duration) {
  PREGEL_CHECK_MSG(duration >= 0.0, "CostMeter::charge: negative duration");
  const Seconds vmsec = duration * count;
  vm_seconds_ += vmsec;
  usd_ += vmsec / 3600.0 * vm.price_per_hour;
}

}  // namespace pregel::cloud
