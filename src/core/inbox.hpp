// One partition's flat inbox: an arrival log sealed into a CSR arena.
//
// During a superstep every message delivered to one of the partition's
// vertices is appended to the partition's *arrival log* in delivery order.
// At the start of the next superstep the log is *sealed*: a stable counting
// sort by target local turns it into a CSR arena — offsets `off[locals + 1]`
// and one contiguous array — and compute reads vertex l's inbox as the span
// [off[l], off[l + 1]). Stability is the whole correctness argument: each
// inbox holds exactly the messages, in exactly the order, a per-vertex
// vector appended in delivery order would hold.
//
// One log, InboxArena<T>. While arrivals come in target order (a pull-mode
// merge delivers target by target) the log keeps only a count per target.
// From the first out-of-order arrival on (a barrier-time seed, a push
// superstep) each arrival also records its target. The seal copies the
// grouped prefix target by target and stably scatters the recorded tail
// behind it; a log with no tail becomes the arena as it stands. A copy of
// the log (a checkpoint snapshot) copies the per-target counts with it.
//
// Two message stores over that log, chosen per program at compile time
// (core/engine.hpp):
//   - InboxArena<M> itself: the log's items are the messages.
//   - RefInboxArena<M>: the log's items are 4-byte slots. A slot either
//     names a message kept inline beside the log (seeds, pointwise sends,
//     anything a combiner may merge into) or references a record of one
//     pull superstep's broadcast RecordTable. Compute gathers a vertex's
//     slots into a caller-owned buffer, so a program still reads a span of
//     messages.
//
// Combining needs "the first buffered message for this target from this
// source domain with this key" at delivery time. While chains are on, each
// arrival also records its source domain and a link to the next arrival for
// the same target, so that lookup walks only the target's own arrivals.
//
// One capacity rule, for every buffer that follows traffic:
//   - refit: an empty log buffer holding more than twice what a merge
//     reserves is released first, so a burst (a push superstep's inline
//     messages ahead of pull supersteps that deliver almost nothing inline)
//     does not stay resident after it.
//   - reclaim: a log with no recorded tail is sealed by swapping it in as
//     the arena. If nothing arrives while compute reads that arena (a
//     staged superstep delivers only in the merge), its buffer goes back to
//     the log when drained and the spare is released, so pull supersteps,
//     whose logs arrive grouped and are the densest, run on one buffer per
//     partition. A reference store's inline messages are never scattered
//     (the sealed slots index them where they arrived), so they always take
//     this path. A scattered log keeps two buffers, its own and the arena's.
// A RecordTable is immutable and shared: the engine builds one per pull
// superstep, each log that references it holds it until the arena sealed
// from that log is drained, and a copy of the store holds it for as long as
// the copy lives.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/bulk_allocator.hpp"
#include "util/check.hpp"

namespace pregel {

/// Source domain of a manager-injected seed. No worker VM id equals it, so
/// under a combiner a worker message never merges into a seed.
inline constexpr std::uint8_t kSeedSource = 0xFF;

namespace inbox_capacity {

/// Make room for `more` further elements in `v`; an empty `v` holding more
/// than twice that is released first.
template <class T>
void refit(BulkVector<T>& v, std::size_t more) {
  if (v.empty() && v.capacity() > 2 * more) BulkVector<T>().swap(v);
  v.reserve(v.size() + more);
}

/// `arena` was swapped in from `log` at the seal and is drained: hand its
/// buffer back if nothing arrived meanwhile, and release the spare.
template <class T>
void reclaim(BulkVector<T>& log, BulkVector<T>& arena) {
  arena.clear();
  if (log.empty()) log = std::exchange(arena, {});
}

}  // namespace inbox_capacity

template <class T>
class InboxArena {
 public:
  /// Empty the inbox and size it for `locals` target vertices. With
  /// `chains`, appends also maintain the per-target combiner chains.
  void reset(std::uint32_t locals, bool chains) {
    locals_ = locals;
    chains_ = chains;
    last_ = 0;
    count_.assign(locals, 0);
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
  bool chains() const noexcept { return chains_; }

  // ---- arrival log ----------------------------------------------------------

  /// Append one arrival for target `local`; `src` is its combining domain
  /// (recorded only while chains are on). Forced inline: a push superstep
  /// runs it once per message.
  [[gnu::always_inline]] void append(std::uint32_t local, T item, std::uint8_t src = 0) {
    PREGEL_DCHECK(local < locals_);
    const auto i = static_cast<std::uint32_t>(log_.size());
    if (local < last_) {
      last_ = kNone;  // every later arrival lands here too
      to_.push_back(local);
    } else {
      ++count_[local];
      last_ = local;
    }
    log_.push_back(std::move(item));
    if (!chains_) return;
    src_.push_back(src);
    next_.push_back(kNone);
    (head_[local] == kNone ? head_[local] : next_[tail_[local]]) = i;
    tail_[local] = i;
  }

  /// The first buffered arrival for `local` from source domain `src` whose
  /// `key_of` equals `key`, in arrival order; nullptr when none does.
  /// Requires chains.
  template <class KeyOf>
  T* match(std::uint32_t local, std::uint8_t src, std::uint64_t key, KeyOf&& key_of) {
    PREGEL_DCHECK(chains_);
    for (std::uint32_t i = head_[local]; i != kNone; i = next_[i])
      if (src_[i] == src && key_of(log_[i]) == key) return &log_[i];
    return nullptr;
  }

  /// Make room for `more` further arrivals in any target order.
  void reserve(std::size_t more) {
    inbox_capacity::refit(to_, more);
    reserve_grouped(more);
  }
  /// Make room for `more` further arrivals in target order, which record no
  /// targets. Of those, `sends` are pointwise sends; the split matters only
  /// to a reference store, whose other arrivals need no inline message.
  void reserve_grouped(std::size_t more, std::size_t /*sends*/ = 0) {
    inbox_capacity::refit(log_, more);
    if (!chains_) return;
    src_.reserve(src_.size() + more);
    next_.reserve(next_.size() + more);
  }

  /// Move arrival `i` of `from`'s log to target `local` of this log.
  void append_from(InboxArena& from, std::size_t i, std::uint32_t local) {
    append(local, std::move(from.log_[i]), from.arrival_src(i));
  }

  std::size_t arrivals() const noexcept { return log_.size(); }
  const T& arrival(std::size_t i) const { return log_[i]; }
  std::uint8_t arrival_src(std::size_t i) const { return chains_ ? src_[i] : 0; }
  /// Call `f(local, i)` for every arrival i of the log, in log order.
  template <class F>
  void for_each_arrival(F&& f) const {
    std::size_t i = 0;
    for (std::uint32_t t = 0; t < locals_; ++t)
      for (std::uint32_t j = 0; j < count_[t]; ++j) f(t, i++);
    for (const std::uint32_t t : to_) f(t, i++);
  }

  // ---- seal and the sealed arena --------------------------------------------

  /// Stable counting sort of the log by target local into the arena; the
  /// log is left empty. The arena must have been drained.
  void seal() {
    PREGEL_DCHECK(msgs_.empty());
    // off_[t + 2] counts target t, the grouped prefix and the recorded tail;
    // after the prefix sum off_[t + 1] is the first slot of t, and handing
    // out slots advances it to the first of t + 1.
    off_.assign(static_cast<std::size_t>(locals_) + 2, 0);
    std::copy(count_.begin(), count_.end(), off_.begin() + 2);
    for (const std::uint32_t t : to_) ++off_[t + 2];
    for (std::size_t k = 2; k < off_.size(); ++k) off_[k] += off_[k - 1];
    spare_ = to_.empty();
    if (spare_) {
      off_.erase(off_.begin());
      msgs_.swap(log_);
    } else {
      msgs_.resize(log_.size());
      auto in = log_.begin();
      for (std::uint32_t t = 0; t < locals_; ++t)
        for (std::uint32_t j = 0; j < count_[t]; ++j) msgs_[off_[t + 1]++] = std::move(*in++);
      for (const std::uint32_t t : to_) msgs_[off_[t + 1]++] = std::move(*in++);
      off_.pop_back();
      log_.clear();
    }
    PREGEL_CHECK(off_.back() == msgs_.size());
    std::fill(count_.begin(), count_.end(), 0u);
    last_ = 0;
    to_.clear();
    src_.clear();
    next_.clear();
    if (chains_) head_.assign(locals_, kNone);
  }

  /// Vertex `local`'s sealed inbox.
  std::span<const T> messages(std::uint32_t local) const {
    return {msgs_.data() + off_[local], off_[local + 1] - off_[local]};
  }
  /// The same span: these items are the messages, so nothing is gathered
  /// into the scratch buffer a reference store needs.
  std::span<const T> gather(std::uint32_t local, std::vector<T>&) const { return messages(local); }

  /// Compute has consumed the sealed messages: empty the arena. Buffers
  /// follow the capacity rule in the header.
  void drain() {
    off_.clear();
    msgs_.clear();
    if (spare_) inbox_capacity::reclaim(log_, msgs_);
    spare_ = false;
  }
  bool drained() const noexcept { return msgs_.empty(); }

 private:
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  std::uint32_t locals_ = 0;
  bool chains_ = false;
  bool spare_ = false;  ///< the last seal swapped the log in as the arena
  // Arrival log, in delivery order: a target-ordered prefix, counted per
  // target, then the arrivals that recorded their targets.
  std::uint32_t last_ = 0;            ///< target of the last prefix arrival
  std::vector<std::uint32_t> count_;  ///< prefix arrivals per target
  BulkVector<std::uint32_t> to_;      ///< target local per arrival after the prefix
  BulkVector<T> log_;                 ///< item per arrival
  // Combiner chains (only while chains are on).
  BulkVector<std::uint8_t> src_;     ///< combining domain per arrival
  BulkVector<std::uint32_t> next_;   ///< next arrival for the same target
  std::vector<std::uint32_t> head_;  ///< first arrival per target, or kNone
  std::vector<std::uint32_t> tail_;  ///< last arrival per target (valid when head is)
  // Sealed CSR arena.
  std::vector<std::uint32_t> off_;
  BulkVector<T> msgs_;
};

/// One pull superstep's broadcast records, compacted and immutable. A
/// reference arrival names a record by its index; every store holding
/// references shares ownership of the table.
template <class M>
using RecordTable = std::shared_ptr<const BulkVector<M>>;

/// The reference store: an arrival log of slots, the inline messages they
/// name and the record table their references name.
template <class M>
class RefInboxArena {
 public:
  /// Slots with this bit set name an inline message; the others name a
  /// record of the table. Record and inline indices stay below it.
  static constexpr std::uint32_t kInline = std::uint32_t{1} << 31;

  /// Empty the inbox and size it for `locals` target vertices. With
  /// `chains`, appends also maintain the per-target combiner chains, and
  /// every arrival must be inline.
  void reset(std::uint32_t locals, bool chains) {
    slots_.reset(locals, chains);
    inline_.clear();
    sealed_inline_.clear();
    table_ = sealed_table_ = nullptr;
  }

  std::uint32_t locals() const noexcept { return slots_.locals(); }

  // ---- arrival log ----------------------------------------------------------

  /// Append one inline arrival for target `local`; `src` is its combining
  /// domain. Forced inline: a push superstep runs it once per message.
  [[gnu::always_inline]] void append(std::uint32_t local, M message, std::uint8_t src = 0) {
    const auto k = static_cast<std::uint32_t>(inline_.size());
    PREGEL_DCHECK(k < kInline);
    inline_.push_back(std::move(message));
    slots_.append(local, kInline | k, src);
  }

  /// Append a reference to record `record` of `table` for target `local`. A
  /// log references at most one table, one superstep's records. References
  /// never combine, so chains must be off. Forced inline: a pull merge runs
  /// it once per delivery.
  [[gnu::always_inline]] void append_ref(std::uint32_t local, const RecordTable<M>& table,
                                         std::uint32_t record) {
    if (table_ != table) [[unlikely]] {
      PREGEL_CHECK_MSG(table_ == nullptr, "an arrival log references two record tables");
      table_ = table;
    }
    PREGEL_DCHECK(!slots_.chains() && record < table_->size());
    slots_.append(local, record);
  }

  /// Re-home arrival `i` of `from`'s log to target `local` of this log: an
  /// inline message moves, a reference keeps naming its shared record.
  void append_from(RefInboxArena& from, std::size_t i, std::uint32_t local) {
    const std::uint32_t slot = from.slots_.arrival(i);
    if (slot & kInline)
      append(local, std::move(from.inline_[slot & ~kInline]), from.arrival_src(i));
    else
      append_ref(local, from.table_, slot);
  }

  /// As InboxArena::match, over the inline messages (under a combiner every
  /// arrival is inline).
  template <class KeyOf>
  M* match(std::uint32_t local, std::uint8_t src, std::uint64_t key, KeyOf&& key_of) {
    const std::uint32_t* slot = slots_.match(
        local, src, key, [&](std::uint32_t s) { return key_of(inline_[s & ~kInline]); });
    return slot == nullptr ? nullptr : &inline_[*slot & ~kInline];
  }

  /// Make room for `more` further inline arrivals in any target order.
  void reserve(std::size_t more) {
    slots_.reserve(more);
    inbox_capacity::refit(inline_, more);
  }
  /// Make room for `more` further arrivals in target order, `sends` of them
  /// pointwise sends. Only those are inline, unless a combiner may merge
  /// into the others.
  void reserve_grouped(std::size_t more, std::size_t sends) {
    slots_.reserve_grouped(more);
    inbox_capacity::refit(inline_, slots_.chains() ? more : sends);
  }

  std::size_t arrivals() const noexcept { return slots_.arrivals(); }
  /// Arrival `i`'s message, its reference resolved.
  const M& arrival(std::size_t i) const { return resolve(slots_.arrival(i), inline_, table_); }
  std::uint8_t arrival_src(std::size_t i) const { return slots_.arrival_src(i); }
  template <class F>
  void for_each_arrival(F&& f) const { slots_.for_each_arrival(std::forward<F>(f)); }

  // ---- seal and the sealed arena --------------------------------------------

  /// Seal the slots; the inline messages and the table move to the arena as
  /// they stand.
  void seal() {
    slots_.seal();
    sealed_inline_.swap(inline_);
    sealed_table_ = std::move(table_);
  }

  /// Vertex `local`'s sealed inbox, its references resolved into the front
  /// of `out`, which only ever grows (its elements are scratch). Runs once
  /// per computed vertex.
  [[gnu::always_inline]] std::span<const M> gather(std::uint32_t local,
                                                   std::vector<M>& out) const {
    const std::span<const std::uint32_t> slots = slots_.messages(local);
    if (out.size() < slots.size()) out.resize(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i)
      out[i] = resolve(slots[i], sealed_inline_, sealed_table_);
    return {out.data(), slots.size()};
  }

  /// Compute has consumed the sealed messages: empty the arena and release
  /// its record table.
  void drain() {
    slots_.drain();
    inbox_capacity::reclaim(inline_, sealed_inline_);
    sealed_table_ = nullptr;
  }
  bool drained() const noexcept { return slots_.drained(); }

 private:
  static const M& resolve(std::uint32_t slot, const BulkVector<M>& inl,
                          const RecordTable<M>& table) {
    return slot & kInline ? inl[slot & ~kInline] : (*table)[slot];
  }

  InboxArena<std::uint32_t> slots_;
  BulkVector<M> inline_;          ///< inline messages, in arrival order
  RecordTable<M> table_;          ///< what the log's references name
  BulkVector<M> sealed_inline_;   ///< the arena's inline messages
  RecordTable<M> sealed_table_;   ///< what the arena's references name
};

}  // namespace pregel
