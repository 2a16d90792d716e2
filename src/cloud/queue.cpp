#include "cloud/queue.hpp"

#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>

#include "util/crc32c.hpp"

namespace pregel::cloud {

std::optional<std::uint64_t> parse_prefixed_count(std::string_view body,
                                                  std::string_view prefix) {
  if (body.size() <= prefix.size() || body.substr(0, prefix.size()) != prefix)
    return std::nullopt;
  const std::string_view digits = body.substr(prefix.size());
  // Canonical decimal only — exactly what std::to_string emits. Hand-rolled
  // instead of from_chars because the underlying conversion is laxer than
  // the protocol: it accepts redundant leading zeros ("active:007"), which
  // would let two distinct bodies decode to the same count and defeat the
  // barrier's dedupe-by-body invariants. Rejected here: empty digits, any
  // non-[0-9] byte (signs, whitespace, embedded NUL, UTF-8 digits), a
  // leading zero on a multi-digit string, and anything past uint64_t's
  // range (checked per digit, so a 100-digit flood can't wrap).
  if (digits.empty()) return std::nullopt;
  if (digits.size() > 1 && digits.front() == '0') return std::nullopt;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (value > (kMax - d) / 10) return std::nullopt;  // would overflow
    value = value * 10 + d;
  }
  return value;
}

std::uint32_t queue_body_checksum(std::string_view body) noexcept {
  return util::crc32c(
      std::span(reinterpret_cast<const std::byte*>(body.data()), body.size()));
}

bool verify_queue_message(const QueueMessage& m) noexcept {
  return m.crc == queue_body_checksum(m.body);
}

std::uint64_t AzureQueue::put(std::string body) {
  ++ops_;
  const std::uint64_t id = next_id_++;
  const std::uint32_t crc = queue_body_checksum(body);
  visible_.push_back({id, std::move(body), crc});
  return id;
}

std::optional<QueueMessage> AzureQueue::get() {
  ++ops_;
  if (visible_.empty()) return std::nullopt;
  QueueMessage m = std::move(visible_.front());
  visible_.pop_front();
  const std::uint64_t id = m.id;
  inflight_.emplace(id, m);
  return m;
}

void AzureQueue::remove(std::uint64_t id) {
  ++ops_;
  if (inflight_.erase(id) == 0)
    throw std::logic_error("AzureQueue::remove: message not in flight");
}

void AzureQueue::release(std::uint64_t id) {
  auto it = inflight_.find(id);
  if (it == inflight_.end())
    throw std::logic_error("AzureQueue::release: message not in flight");
  visible_.push_front(std::move(it->second));
  inflight_.erase(it);
}

AzureQueue& QueueService::queue(const std::string& name) { return queues_[name]; }

bool QueueService::has_queue(const std::string& name) const {
  return queues_.contains(name);
}

std::uint64_t QueueService::total_ops() const {
  std::uint64_t total = 0;
  for (const auto& [name, q] : queues_) total += q.total_ops();
  return total;
}

}  // namespace pregel::cloud
