// One partition's flat inbox: an arrival log sealed into a CSR arena.
//
// During a superstep every message delivered to one of the partition's
// vertices is appended, with its target's local index, to the partition's
// *arrival log* in delivery order. At the start of the next superstep the
// log is *sealed*: a stable counting sort by target local turns it into a
// CSR arena — offsets `off[locals + 1]` and one contiguous message array —
// and compute reads vertex l's inbox as the span [off[l], off[l + 1]).
// Stability is the whole correctness argument: each inbox holds exactly the
// messages, in exactly the order, a per-vertex vector appended in delivery
// order would hold. A log that is already grouped by target (a pull-mode
// merge delivers target by target) is detected by the count pass and
// becomes the arena as it stands.
//
// Combining needs "the first buffered message for this target from this
// source domain with this key" at delivery time. While chains are on, each
// arrival also records its source domain and a link to the next arrival for
// the same target, so that lookup walks only the target's own arrivals.
//
// Capacity rule: buffers keep their capacity across supersteps, and a
// partition holds at most two message buffers. An unsorted log is scattered
// into the buffer the previous arena drained, so a run of scatters reuses
// the same two buffers. A sorted log becomes the arena as it is, and takes
// the drained arena's buffer as its own; if nothing arrives while compute
// reads that arena (a staged superstep delivers only in the merge), the
// arena's buffer goes straight back to the log when drained and the spare
// is released — pull-mode supersteps, whose logs arrive sorted and are the
// densest, run on one message buffer per partition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/bulk_allocator.hpp"
#include "util/check.hpp"

namespace pregel {

/// Source domain of a manager-injected seed. No worker VM id equals it, so
/// under a combiner a worker message never merges into a seed.
inline constexpr std::uint8_t kSeedSource = 0xFF;

template <class M>
class InboxArena {
 public:
  /// Empty the inbox and size it for `locals` target vertices. With
  /// `chains`, appends also maintain the per-target combiner chains.
  void reset(std::uint32_t locals, bool chains) {
    locals_ = locals;
    chains_ = chains;
    to_.clear();
    log_.clear();
    src_.clear();
    next_.clear();
    head_.assign(chains ? locals : 0, kNone);
    tail_.resize(chains ? locals : 0);
    off_.clear();
    msgs_.clear();
    spare_ = false;
  }

  std::uint32_t locals() const noexcept { return locals_; }

  // ---- arrival log ----------------------------------------------------------

  /// Append one arrival for target `local`; `src` is its combining domain
  /// (recorded only while chains are on).
  void append(std::uint32_t local, M message, std::uint8_t src = 0) {
    PREGEL_DCHECK(local < locals_);
    const auto i = static_cast<std::uint32_t>(log_.size());
    to_.push_back(local);
    log_.push_back(std::move(message));
    if (!chains_) return;
    src_.push_back(src);
    next_.push_back(kNone);
    if (head_[local] == kNone)
      head_[local] = i;
    else
      next_[tail_[local]] = i;
    tail_[local] = i;
  }

  /// The first buffered arrival for `local` from source domain `src` whose
  /// `key_of` equals `key`, in arrival order; nullptr when none does.
  /// Requires chains.
  template <class KeyOf>
  M* match(std::uint32_t local, std::uint8_t src, std::uint64_t key, KeyOf&& key_of) {
    PREGEL_DCHECK(chains_);
    for (std::uint32_t i = head_[local]; i != kNone; i = next_[i])
      if (src_[i] == src && key_of(log_[i]) == key) return &log_[i];
    return nullptr;
  }

  /// Make room for `more` further arrivals without regrowing the log.
  void reserve(std::size_t more) {
    to_.reserve(to_.size() + more);
    log_.reserve(log_.size() + more);
    if (!chains_) return;
    src_.reserve(src_.size() + more);
    next_.reserve(next_.size() + more);
  }

  std::size_t arrivals() const noexcept { return log_.size(); }
  std::uint32_t arrival_local(std::size_t i) const { return to_[i]; }
  M& arrival(std::size_t i) { return log_[i]; }
  const M& arrival(std::size_t i) const { return log_[i]; }
  std::uint8_t arrival_src(std::size_t i) const { return chains_ ? src_[i] : 0; }

  // ---- seal and the sealed arena --------------------------------------------

  /// Stable counting sort of the log by target local into the arena; the
  /// log is left empty. The arena must have been drained.
  void seal() {
    PREGEL_DCHECK(msgs_.empty());
    // off_[t + 2] counts target t; after the prefix sum off_[t + 1] is the
    // first slot of t, and handing out slots advances it to the first of t + 1.
    off_.assign(static_cast<std::size_t>(locals_) + 2, 0);
    bool sorted = true;
    std::uint32_t prev = 0;
    for (const std::uint32_t t : to_) {
      ++off_[t + 2];
      sorted = sorted && t >= prev;
      prev = t;
    }
    for (std::size_t k = 2; k < off_.size(); ++k) off_[k] += off_[k - 1];
    spare_ = sorted;
    if (sorted) {
      off_.erase(off_.begin());
      msgs_.swap(log_);
    } else {
      msgs_.resize(log_.size());
      for (std::size_t i = 0; i < log_.size(); ++i)
        msgs_[off_[to_[i] + 1]++] = std::move(log_[i]);
      off_.pop_back();
      log_.clear();
    }
    PREGEL_CHECK(off_.back() == msgs_.size());
    to_.clear();
    src_.clear();
    next_.clear();
    if (chains_) head_.assign(locals_, kNone);
  }

  /// Vertex `local`'s sealed inbox.
  std::span<const M> messages(std::uint32_t local) const {
    return {msgs_.data() + off_[local], off_[local + 1] - off_[local]};
  }

  /// Compute has consumed the sealed messages: empty the arena. An arena
  /// that was a sorted log goes back to the log if nothing arrived
  /// meanwhile, and the log's spare buffer is released.
  void drain() {
    msgs_.clear();
    off_.clear();
    if (spare_ && log_.empty()) {
      log_.swap(msgs_);
      Bulk<M>().swap(msgs_);
    }
    spare_ = false;
  }
  bool drained() const noexcept { return msgs_.empty(); }

 private:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  /// Per-arrival buffers, sized by traffic rather than by vertex count; the
  /// large ones bypass malloc (util/bulk_allocator.hpp).
  template <class T>
  using Bulk = std::vector<T, BulkAllocator<T>>;

  std::uint32_t locals_ = 0;
  bool chains_ = false;
  bool spare_ = false;  ///< the last seal swapped a sorted log in as the arena
  // Arrival log, in delivery order.
  Bulk<std::uint32_t> to_;  ///< target local per arrival
  Bulk<M> log_;             ///< message per arrival
  // Combiner chains (only while chains are on).
  Bulk<std::uint8_t> src_;           ///< combining domain per arrival
  Bulk<std::uint32_t> next_;         ///< next arrival for the same target
  std::vector<std::uint32_t> head_;  ///< first arrival per target, or kNone
  std::vector<std::uint32_t> tail_;  ///< last arrival per target (valid when head is)
  // Sealed CSR arena.
  std::vector<std::uint32_t> off_;
  Bulk<M> msgs_;
};

}  // namespace pregel
