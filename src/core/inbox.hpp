// One partition's flat inbox: an arrival log sealed into a CSR arena.
//
// During a superstep every message delivered to one of the partition's
// vertices is appended, with its target's local index, to the partition's
// *arrival log* in delivery order. At the start of the next superstep the
// log is *sealed*: a stable counting sort by target local turns it into a
// CSR arena — offsets `off[locals + 1]` and one contiguous array — and
// compute reads vertex l's inbox as the span [off[l], off[l + 1]).
// Stability is the whole correctness argument: each inbox holds exactly the
// messages, in exactly the order, a per-vertex vector appended in delivery
// order would hold. A log that is already grouped by target (a pull-mode
// merge delivers target by target) is detected by the count pass and
// becomes the arena as it stands.
//
// Two layouts, chosen per program at compile time (core/engine.hpp):
//   - InboxArena<M> stores every arrival inline: the message itself plus
//     its target local.
//   - RefInboxArena<M> stores a 4-byte slot per arrival. A slot either
//     names a message kept inline beside the log (seeds, pointwise sends,
//     anything a combiner may merge into) or references a record of one
//     pull superstep's broadcast RecordTable. The log needs no per-arrival
//     target index while arrivals come in target order, as a pull merge
//     delivers them; only the arrivals after the first out-of-order one (a
//     barrier-time seed, a push superstep) record their target. Compute
//     gathers a vertex's slots into a caller-owned buffer, so a program
//     still reads a span of messages.
//
// Combining needs "the first buffered message for this target from this
// source domain with this key" at delivery time. While chains are on, each
// arrival also records its source domain and a link to the next arrival for
// the same target, so that lookup walks only the target's own arrivals.
//
// Capacity rule: buffers keep their capacity across supersteps, and a
// partition holds at most two buffers of each kind (messages, and for the
// reference layout slots and inline messages). An unsorted log is scattered
// into the buffer the previous arena drained, so a run of scatters reuses
// the same two buffers. A sorted log becomes the arena as it is, and takes
// the drained arena's buffer as its own; if nothing arrives while compute
// reads that arena (a staged superstep delivers only in the merge), the
// arena's buffer goes straight back to the log when drained and the spare
// is released — pull-mode supersteps, whose logs arrive sorted and are the
// densest, run on one buffer per partition. A reference layout's inline
// messages are never scattered: the sealed slots index them where they
// arrived, and the log's inline buffer follows the same one-spare rule.
// A reference layout's empty log also gives back capacity beyond twice
// what a merge reserves, so the inline buffer of a push superstep does not
// stay resident through the pull supersteps that follow it.
// A RecordTable is immutable and shared: the engine builds one per pull
// superstep, each log that references it holds it until the arena sealed
// from that log is drained, and a copy of the arena (a checkpoint
// snapshot) holds it for as long as the copy lives.
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

  /// Move arrival `i` of `from`'s log to target `local` of this log.
  void append_from(InboxArena& from, std::size_t i, std::uint32_t local) {
    append(local, std::move(from.log_[i]), from.arrival_src(i));
  }

  std::size_t arrivals() const noexcept { return log_.size(); }
  const M& arrival(std::size_t i) const { return log_[i]; }
  std::uint8_t arrival_src(std::size_t i) const { return chains_ ? src_[i] : 0; }
  /// Call `f(local, i)` for every arrival i of the log, in log order.
  template <class F>
  void for_each_arrival(F&& f) const {
    for (std::size_t i = 0; i < to_.size(); ++i) f(to_[i], i);
  }

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

/// One pull superstep's broadcast records, compacted and immutable. A
/// reference arrival names a record by its index; every arena holding
/// references shares ownership of the table.
template <class M>
using RecordTable = std::shared_ptr<const BulkVector<M>>;

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
    locals_ = locals;
    chains_ = chains;
    last_ = 0;
    count_.assign(locals, 0);
    to_.clear();
    slots_.clear();
    inline_.clear();
    table_.reset();
    src_.clear();
    next_.clear();
    head_.assign(chains ? locals : 0, kNone);
    tail_.resize(chains ? locals : 0);
    off_.clear();
    sealed_.clear();
    sealed_inline_.clear();
    sealed_table_.reset();
    spare_ = false;
  }

  std::uint32_t locals() const noexcept { return locals_; }

  // ---- arrival log ----------------------------------------------------------

  /// Append one inline arrival for target `local`; `src` is its combining
  /// domain (recorded only while chains are on). Forced inline, like
  /// append_ref: a push superstep runs it once per message.
  [[gnu::always_inline]] void append(std::uint32_t local, M message, std::uint8_t src = 0) {
    const auto k = static_cast<std::uint32_t>(inline_.size());
    PREGEL_DCHECK(k < kInline);
    inline_.push_back(std::move(message));
    push(local, kInline | k, src);
  }

  /// The table that later append_ref calls name records of. A log
  /// references at most one table: one superstep's records.
  void refer_to(const RecordTable<M>& table) {
    PREGEL_CHECK_MSG(table_ == nullptr || table_ == table,
                     "an arrival log references two record tables");
    table_ = table;
  }

  /// Append a reference to record `record` of the refer_to table for target
  /// `local`. References never combine, so chains must be off.
  [[gnu::always_inline]] void append_ref(std::uint32_t local, std::uint32_t record) {
    PREGEL_DCHECK(!chains_ && table_ != nullptr && record < table_->size());
    push(local, record, 0);
  }

  /// Re-home arrival `i` of `from`'s log to target `local` of this log: an
  /// inline message moves, a reference keeps naming its shared record.
  void append_from(RefInboxArena& from, std::size_t i, std::uint32_t local) {
    const std::uint32_t slot = from.slots_[i];
    if (slot & kInline) {
      append(local, std::move(from.inline_[slot & ~kInline]), from.arrival_src(i));
    } else {
      refer_to(from.table_);
      append_ref(local, slot);
    }
  }

  /// The first buffered arrival for `local` from source domain `src` whose
  /// `key_of` equals `key`, in arrival order; nullptr when none does.
  /// Requires chains.
  template <class KeyOf>
  M* match(std::uint32_t local, std::uint8_t src, std::uint64_t key, KeyOf&& key_of) {
    PREGEL_DCHECK(chains_);
    for (std::uint32_t i = head_[local]; i != kNone; i = next_[i]) {
      if (src_[i] != src) continue;
      M& m = inline_[slots_[i] & ~kInline];
      if (key_of(m) == key) return &m;
    }
    return nullptr;
  }

  /// Make room for `more` further inline arrivals in any target order.
  void reserve(std::size_t more) {
    refit(to_, more);
    reserve_grouped(more, more);
  }
  /// Make room for `slots` further arrivals in target order, `inlines` of
  /// them inline.
  void reserve_grouped(std::size_t slots, std::size_t inlines) {
    refit(slots_, slots);
    refit(inline_, inlines);
    if (!chains_) return;
    src_.reserve(src_.size() + slots);
    next_.reserve(next_.size() + slots);
  }

  std::size_t arrivals() const noexcept { return slots_.size(); }
  /// Arrival `i`'s message, its reference resolved.
  const M& arrival(std::size_t i) const { return resolve(slots_[i], inline_, table_); }
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

  /// Stable counting sort of the log's slots by target local into the
  /// arena; the log is left empty. The arena must have been drained.
  void seal() {
    PREGEL_DCHECK(sealed_.empty());
    // As in InboxArena::seal: off_[t + 2] counts target t, the target-ordered
    // prefix first and the recorded targets after it.
    off_.assign(static_cast<std::size_t>(locals_) + 2, 0);
    for (std::uint32_t t = 0; t < locals_; ++t) off_[t + 2] = count_[t];
    for (const std::uint32_t t : to_) ++off_[t + 2];
    for (std::size_t k = 2; k < off_.size(); ++k) off_[k] += off_[k - 1];
    spare_ = to_.empty();
    if (spare_) {
      off_.erase(off_.begin());
      sealed_.swap(slots_);
    } else {
      sealed_.resize(slots_.size());
      std::size_t i = 0;
      for (std::uint32_t t = 0; t < locals_; ++t) {
        std::copy_n(slots_.data() + i, count_[t], sealed_.data() + off_[t + 1]);
        off_[t + 1] += count_[t];
        i += count_[t];
      }
      for (const std::uint32_t t : to_) sealed_[off_[t + 1]++] = slots_[i++];
      off_.pop_back();
      slots_.clear();
    }
    PREGEL_CHECK(off_.back() == sealed_.size());
    sealed_inline_.swap(inline_);
    sealed_table_ = std::move(table_);
    to_.clear();
    count_.assign(locals_, 0);
    last_ = 0;
    src_.clear();
    next_.clear();
    if (chains_) head_.assign(locals_, kNone);
  }

  /// Vertex `local`'s sealed inbox, its references resolved into the front
  /// of `out`, which only ever grows (its elements are scratch). Runs once
  /// per computed vertex.
  [[gnu::always_inline]] std::span<const M> gather(std::uint32_t local,
                                                   std::vector<M>& out) const {
    const std::uint32_t first = off_[local];
    const std::uint32_t n = off_[local + 1] - first;
    if (out.size() < n) out.resize(n);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i] = resolve(sealed_[first + i], sealed_inline_, sealed_table_);
    return {out.data(), n};
  }

  /// Compute has consumed the sealed messages: empty the arena and release
  /// its record table. Buffers follow the capacity rule in the header.
  void drain() {
    sealed_.clear();
    sealed_inline_.clear();
    off_.clear();
    sealed_table_ = nullptr;
    if (spare_ && slots_.empty()) {
      slots_.swap(sealed_);
      BulkVector<std::uint32_t>().swap(sealed_);
    }
    if (inline_.empty()) {
      inline_.swap(sealed_inline_);
      BulkVector<M>().swap(sealed_inline_);
    }
    spare_ = false;
  }
  bool drained() const noexcept { return sealed_.empty(); }

 private:
  /// Make room for `more` further elements in `v`. An empty buffer holding
  /// more than twice that is released first: capacity a push superstep's
  /// inline messages left behind would otherwise stay resident through the
  /// pull supersteps after it, which deliver almost nothing inline.
  template <class T>
  static void refit(BulkVector<T>& v, std::size_t more) {
    if (v.empty() && v.capacity() > 2 * more) BulkVector<T>().swap(v);
    v.reserve(v.size() + more);
  }

  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  static const M& resolve(std::uint32_t slot, const BulkVector<M>& inl,
                          const RecordTable<M>& table) {
    return slot & kInline ? inl[slot & ~kInline] : (*table)[slot];
  }

  /// Log one slot for target `local`. While targets arrive in order only
  /// their counts are kept; from the first out-of-order arrival on, every
  /// arrival records its target.
  [[gnu::always_inline]] void push(std::uint32_t local, std::uint32_t slot, std::uint8_t src) {
    PREGEL_DCHECK(local < locals_);
    const auto i = static_cast<std::uint32_t>(slots_.size());
    if (local < last_) {
      last_ = kNone;  // every later arrival lands here too
      to_.push_back(local);
    } else {
      ++count_[local];
      last_ = local;
    }
    slots_.push_back(slot);
    if (!chains_) return;
    src_.push_back(src);
    next_.push_back(kNone);
    if (head_[local] == kNone)
      head_[local] = i;
    else
      next_[tail_[local]] = i;
    tail_[local] = i;
  }

  std::uint32_t locals_ = 0;
  bool chains_ = false;
  bool spare_ = false;  ///< the last seal swapped a sorted log in as the arena
  // Arrival log, in delivery order: a target-ordered prefix, counted per
  // target, then the arrivals that recorded their targets.
  std::uint32_t last_ = 0;              ///< target of the last prefix arrival
  std::vector<std::uint32_t> count_;    ///< prefix arrivals per target
  BulkVector<std::uint32_t> to_;        ///< target local per arrival after the prefix
  BulkVector<std::uint32_t> slots_;     ///< slot per arrival
  BulkVector<M> inline_;                ///< inline messages, in arrival order
  RecordTable<M> table_;                ///< what the log's references name
  // Combiner chains (only while chains are on), as in InboxArena.
  BulkVector<std::uint8_t> src_;
  BulkVector<std::uint32_t> next_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> tail_;
  // Sealed CSR arena.
  std::vector<std::uint32_t> off_;
  BulkVector<std::uint32_t> sealed_;
  BulkVector<M> sealed_inline_;
  RecordTable<M> sealed_table_;
};

}  // namespace pregel
