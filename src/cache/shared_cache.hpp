// Shared version-validated block cache (the inter-transaction cache of the
// ROADMAP): a process-wide, read-mostly cache of *assembled holders* that
// survives across transactions.
//
// Each entry is keyed by the holder's primary-block DPtr and stores the
// holder's flat buffer (primary + continuation blocks, exactly the bytes a
// fetch would assemble) stamped with the *version* field of the primary's
// lock word at fill time (see BlockStore: bits 32..62 of the lock word count
// completed write critical sections). Validation is the whole protocol:
//
//   * fill under a read lock: the bytes cannot change while the lock is
//     held, so the version observed by the lock-acquisition FAA dates the
//     snapshot exactly;
//   * fill without a lock (kReadShared): bracket the block reads with two
//     lock-word peeks; cache only if both peeks agree on the version and
//     neither shows the write bit (seqlock discipline);
//   * hit under a read lock: free -- the acquisition FAA already observed
//     the current word; version equal to the stamp proves no writer
//     completed since the fill, so the cached bytes are the bytes a fetch
//     would return *under this very lock* (kRead serializability is
//     untouched);
//   * hit without a lock: one 8-byte lock-word peek (batched through the
//     nonblocking engine) replaces the holder's block fetches;
//   * any write intent on a holder bypasses the cache and invalidates its
//     entry; deletion invalidates too. Remote writers need no notification:
//     their write_unlock bumps the version, so the next validation misses;
//   * *write-through* (local commit writeback): instead of dying by
//     invalidation, the writer's own entry is re-stamped with the committed
//     holder bytes under the version its write_unlock_fetch published --
//     valid because the write bit excluded every other agent between the
//     writeback and the unlock, so those bytes at that version are exactly
//     what a fetch-under-lock would return. A rank's own write set thus
//     stays warm across transactions (Transaction::release_locks).
//
// The cache is *per process* (per rank): in the target deployment each rank
// is a process with private memory, so rank r's cache must not serve rank s
// -- Database owns one instance per rank and hands each rank its own. One
// rank's transactions are sequential, so the cache needs no synchronization.
//
// Capacity is accounted in *bytes* (each entry charged its assembled-holder
// size -- a 4-block holder costs 4x what a singleton does), evicted FIFO
// beyond `max_bytes`; refreshing an entry re-arms its slot. An entry never
// expires by time: it is as fresh as its last validation, which is the point
// of stamping versions instead of clocks.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/dptr.hpp"

namespace gdi::cache {

/// Admission policy for the holder cache (DatabaseConfig::scache_policy).
///
///  * kFifo -- every fill is admitted straight into one FIFO (the PR 4/5
///    behaviour, bit-exact). One OLAP scan larger than the budget washes out
///    the whole OLTP hot set.
///  * k2Q -- scan-resistant 2Q-style admission: a *first* fill lands in a
///    small probationary FIFO (probation_fraction of the byte budget); only a
///    *second* touch -- a validated hit or a refresh of a live entry --
///    promotes it into the resident FIFO that owns the rest of the budget.
///    A scan references each holder exactly once, so scan traffic churns only
///    the probationary quarter and the twice-touched hot set survives.
enum class ScachePolicy : std::uint8_t { kFifo = 0, k2Q };

struct SharedCacheConfig {
  /// Holder bytes kept per rank (entries charged assembled-holder size,
  /// FIFO-evicted beyond). 0 disables the cache entirely.
  std::size_t max_bytes = 4096 * 512;
  /// Translation-memo entries kept per rank (app id -> {DPtr, epoch} pairs;
  /// bounded by count, their size is uniform). Database derives this from
  /// the byte budget (max_bytes / 64, roughly the per-entry map + FIFO
  /// footprint), so one knob bounds the whole cache's memory.
  std::size_t max_translations = (4096 * 512) / 64;
  /// Admission policy; kFifo keeps the historical single-queue behaviour.
  ScachePolicy policy = ScachePolicy::kFifo;
  /// k2Q only: byte share of the probationary queue. Eviction drains
  /// probation beyond this share before it touches the resident queue.
  double probation_fraction = 0.25;
};

class SharedBlockCache {
 public:
  struct Entry {
    std::vector<std::byte> buf;   ///< assembled holder bytes (all blocks)
    std::uint64_t version = 0;    ///< lock-word version bits at fill time
    bool is_edge = false;         ///< EdgeView holder (vs VertexView)
    bool probation = false;       ///< k2Q: still in the probationary queue
    std::uint64_t seq = 0;        ///< internal: FIFO re-arm stamp
  };

  explicit SharedBlockCache(SharedCacheConfig cfg = {}) : cfg_(cfg) {}

  /// Entry for `primary`, or nullptr. The caller owns validating the stamp
  /// against a freshly observed lock word before trusting the bytes.
  [[nodiscard]] const Entry* find(DPtr primary) const {
    auto it = map_.find(primary.raw());
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Insert or refresh the holder snapshot for `primary`. Under k2Q a fresh
  /// key starts on probation; refreshing a live entry counts as its second
  /// touch and promotes it to the resident queue.
  void insert(DPtr primary, std::span<const std::byte> buf, std::uint64_t version,
              bool is_edge);

  /// Reference feedback for the admission policy: the caller validated a hit
  /// on `primary`. Under k2Q this is the second touch that promotes a
  /// probationary entry to the resident queue; kFifo ignores it. Never
  /// invalidates Entry pointers (no insertion or eviction happens here).
  void note_hit(DPtr primary);

  /// Drop `primary`'s entry (write intent / deletion / observed remote
  /// change). Returns true if an entry existed.
  bool erase(DPtr primary);

  // --- application-ID translation memo --------------------------------------
  //
  // app id -> holder primary DPtr, remembered from successful find()s and
  // validated bare translates. Each memo carries the DHT *erase epoch*
  // observed no later than the moment the translation was proven true.
  // Two validation routes:
  //   * find(): fetch the named holder and compare its stored app id against
  //     the query (the existing stale-DHT guard) -- epoch not needed;
  //   * bare translate: one read of the DHT's erase-epoch counter covers a
  //     whole batch; epoch equal to the memo's proves no erase happened
  //     since the translation was verified, and GDI never creates live
  //     duplicate keys, so the mapping must still hold. Mismatch falls back
  //     to the real DHT walk (and re-teaches on success).
  // A stale memo therefore costs one wasted fetch or one epoch read, never a
  // wrong answer; a fresh one saves the whole DHT chain walk.
  struct Translation {
    DPtr vid;
    std::uint64_t epoch = 0;  ///< DHT erase epoch at (or before) verification
    std::uint64_t seq = 0;    ///< internal: FIFO re-arm stamp
  };
  [[nodiscard]] const Translation* find_translation(std::uint64_t app_id) const {
    auto it = xlate_.find(app_id);
    return it == xlate_.end() ? nullptr : &it->second;
  }
  void remember_translation(std::uint64_t app_id, DPtr vid, std::uint64_t epoch);
  void forget_translation(std::uint64_t app_id) { xlate_.erase(app_id); }

  // --- block-table memo -----------------------------------------------------
  //
  // holder primary DPtr -> its continuation blocks on the primary's rank,
  // remembered whenever a locking transaction materializes or writes back
  // the holder. A read lock whose round carries the primary GET also posts
  // GETs for these (BlockStore::try_read_lock(_many)'s tails); the primary's
  // block table, read in that same round under the lock, then confirms or
  // refutes each. A stale memo costs wasted GETs and the usual second round
  // for the blocks it missed, never a wrong byte. Bounded by the same count
  // as the translation memo.
  struct BlockTable {
    std::vector<DPtr> tails;
    std::uint64_t seq = 0;  ///< internal: FIFO re-arm stamp
  };
  /// The remembered tails of `primary` (empty when none are known).
  [[nodiscard]] std::span<const DPtr> find_block_table(DPtr primary) const {
    auto it = tables_.find(primary.raw());
    return it == tables_.end() ? std::span<const DPtr>{} : it->second.tails;
  }
  /// Remember `primary`'s tails; an empty list forgets the entry.
  void remember_block_table(DPtr primary, std::span<const DPtr> tails);

  void clear() {
    map_.clear();
    fifo_.clear();
    prob_fifo_.clear();
    bytes_ = 0;
    prob_bytes_ = 0;
    xlate_.clear();
    xlate_fifo_.clear();
    tables_.clear();
    tables_fifo_.clear();
  }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] std::size_t probation_bytes() const { return prob_bytes_; }
  [[nodiscard]] std::size_t max_bytes() const { return cfg_.max_bytes; }
  [[nodiscard]] const SharedCacheConfig& config() const { return cfg_; }

 private:
  /// Evict the oldest *live* entry of one queue; false if no live slot left.
  bool pop_live(std::deque<std::pair<std::uint64_t, std::uint64_t>>& fifo);
  /// Enforce the byte budget (and, under k2Q, the probation share).
  void bound();

  SharedCacheConfig cfg_;
  std::unordered_map<std::uint64_t, Entry> map_;
  std::size_t bytes_ = 0;       ///< sum of map_ entries' buf sizes
  std::size_t prob_bytes_ = 0;  ///< subset of bytes_ still on probation (k2Q)
  /// Eviction order of the resident queue; stale (key, seq) pairs of
  /// refreshed/erased entries are skipped lazily at eviction time.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> fifo_;
  /// k2Q probationary queue (same lazy (key, seq) discipline).
  std::deque<std::pair<std::uint64_t, std::uint64_t>> prob_fifo_;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<std::uint64_t, Translation> xlate_;
  /// Same lazy (key, seq) discipline as fifo_: forget + re-teach cycles
  /// leave stale slots that eviction skips and the sweep reclaims.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> xlate_fifo_;
  std::uint64_t xlate_seq_ = 0;
  std::unordered_map<std::uint64_t, BlockTable> tables_;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> tables_fifo_;  ///< as xlate_fifo_
  std::uint64_t tables_seq_ = 0;
};

}  // namespace gdi::cache
