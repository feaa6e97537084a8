// Fully-offloaded lock-free distributed hash table (paper Section 5.7,
// Listing 4), hash-partitioned across growable shards.
//
// GDA resolves application-vertex-ID -> internal-DPtr translation (and other
// internal indexing) with a DHT whose *every* operation -- including delete,
// capacity growth, and compaction -- is one-sided: RDMA gets, puts, atomics,
// flushes only; the owner rank of a bucket never participates.
//
// Structure: the bucket space is *partitioned* by hash across an ordered list
// of shards. Each shard contributes, on every rank, one bucket segment (one
// 64-bit head word per bucket) and one entry-heap segment (64-byte entries
// chained into per-bucket linked lists). A key's home shard is chosen by
// linear hashing over the published shard count S:
//
//     home(h, S) = h mod 2^(L+1)   where L = floor(log2 S),
//                  or h mod 2^L when that lands >= S
//
// so growing S -> S+1 splits exactly one existing shard's key range and every
// other key keeps its home -- the extendible-hashing-style stable split. In
// the compacted steady state a key lives in exactly one bucket of exactly one
// shard, so lookup/erase/lookup_many pay ONE bucket probe round regardless of
// shard count. Entry *heap* placement is independent of bucket placement
// (chain references are full DPtrs): allocation prefers the key's home
// shard's free stack / watermark but spills into any shard with space, so
// entries freed in older shards are reusable by construction -- the table
// only grows when every published shard is exhausted.
//
// Shard directory (rank 0, one-sided): published shard count S, *clean
// count* C, *pending-clean count* P, the erase epoch, and a migration stamp.
// The partition invariant is
//
//     every completed insert's bucket shard is home(h, m) for some m in [C, S]
//
// so a reader resolves a key by probing the (deduplicated) candidate buckets
// {home(h, m) : m in [C, S]}, newest placement first -- computed locally, no
// wire traffic. C == S (steady state after compaction) means exactly one
// candidate. Inserts take their placement count from a fresh directory read
// (batched into the insert's existing flush rounds), and after linking
// re-check the directory: if a concurrent compaction pass published a
// pending-clean count P above the entry's placement and its bucket fell out
// of the covered range, the inserter relocates its own entry before
// returning. That closes the race between an in-flight insert and a
// compaction pass advancing C, and it is why the PR 3 "stale shard count may
// resolve a duplicate from an older shard" relaxation no longer exists: a
// key's placement count is a fresh global read, not a per-rank cache, and
// once compaction catches up every copy of a key shares one bucket.
//
// Online compaction (compact()): any rank may run a migration pass, fully
// one-sided and concurrent with traffic. The pass publishes P = S0 (pass
// target), scans every bucket of shards [0, S0), and rehomes each entry whose
// home(h, S0) differs from the shard it sits in: allocate a destination slot,
// mark the source entry (freezing it -- readers treat a marked entry as
// in-progress and retry; the slot is allocated first so the mark never spans
// a heap scan), revalidate generation+key under the mark (the mark CAS alone
// can land on a recycled slot whose next word matches), publish the copy into
// the home bucket with a head CAS, bump the migration stamp, unlink the
// source, free its slot. Mark-before-publish means a completed chain walk
// never observes two live copies of a moved entry. Each published copy then
// pays the same post-publish directory fence as inserts (ensure_covered):
// concurrent passes may target *different* counts (the directory can grow
// mid-pass or while a budgeted pass is parked), and a fresh-target pass that
// already swept the copy's bucket would otherwise strand it outside the
// candidate set once that pass advances C. A parked pass whose target the
// directory outgrew abandons its cursor and retargets on resume. After a
// full scan the pass advances C to S0 with one CAS. Readers that miss while
// C < S re-validate against the migration stamp (read only in that dirty
// window), so a concurrent rehome between two candidate probes forces a
// re-walk instead of a lost key. Passes are idempotent and restartable: a
// budgeted pass keeps a local cursor and never advances C early, and a pass
// killed mid-flight leaves only a marked source entry that
// checkpoint/recovery (or teardown) discards.
//
// Collision resolution is distributed chaining. ABA protection uses the
// paper's "established tagged pointer technique": entries are 64-byte aligned
// so the low 6 bits of every reference are free -- bits 0..4 carry a 5-bit
// generation tag (validated against the entry's generation word on every
// dereference) and bit 5 is the deletion mark (the listing's
// "next pointer points to itself" state). Deletion follows Listing 4's
// two-CAS protocol, with one robustness addition: if the unlink CAS fails,
// the deleter *reverts* its mark before restarting, which removes the
// livelock window of the pseudocode.
//
// Write batching: insert_many / insert_if_absent_many are the write-side
// peers of lookup_many. A batch of k inserts pays
//   1 overlapped round of field reads/writes (gens, heads, keys, values,
//     plus the shared directory read that fixes the batch's placement count)
// + ceil(k/Q) * max(alpha) per head-CAS round (same round-by-round shape as
//   BlockStore::try_write_lock_many)
// instead of k serial insert latency chains.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/dptr.hpp"
#include "common/hash.hpp"
#include "rma/window.hpp"

namespace gdi::dht {

struct DhtConfig {
  std::size_t buckets_per_rank = 1024;  ///< per shard
  std::size_t entries_per_rank = 4096;  ///< per shard
  std::uint64_t salt = 0x9E3779B97F4A7C15ull;  ///< hash salt (per-DHT instance)
  /// Growth cap: total capacity is max_shards * entries_per_rank entries per
  /// rank. 1 = fixed capacity (the pre-growth behaviour: insert returns
  /// false on heap exhaustion). Clamped to 64 (the linear-hash directory and
  /// the per-rank shard bitmasks are sized for 64 shards).
  std::size_t max_shards = 64;
  /// Maintain the erase-epoch counter (one extra remote FAA to rank 0 per
  /// successful erase). Off by default so tables without epoch-validated
  /// memo consumers keep the exact pre-epoch op counts and no shared hot
  /// word; Database switches it on together with the shared cache (the only
  /// consumer). MUST be on whenever translations are memoized -- with it
  /// off the epoch never moves and a stale memo would validate forever.
  bool track_erase_epoch = false;
};

class DistributedHashTable {
 public:
  /// Hard shard-count ceiling (directory math + per-rank bitmask width).
  static constexpr std::size_t kMaxShardCap = 64;

  [[nodiscard]] static std::shared_ptr<DistributedHashTable> create(
      rma::Rank& self, const DhtConfig& cfg);

  DistributedHashTable(int nranks, const DhtConfig& cfg);

  /// Prepend (key, value); duplicates are allowed (Listing 4 semantics) --
  /// a later lookup returns the most recent insert. Grows the table when
  /// every published shard's heap is exhausted; returns false iff the shard
  /// cap (DhtConfig::max_shards) is reached with every shard full.
  [[nodiscard]] bool insert(rma::Rank& self, std::uint64_t key, std::uint64_t value);

  /// Insert only if no entry with `key` is currently visible. Best-effort
  /// uniqueness under concurrent same-key inserts (GDI serializes same-key
  /// creators through locks before calling this).
  [[nodiscard]] bool insert_if_absent(rma::Rank& self, std::uint64_t key,
                                      std::uint64_t value);

  /// Batched insert: result[i] is insert(keys[i], values[i]). Allocates all
  /// entries first, writes every entry's fields through the nonblocking
  /// engine with one flush, then resolves all bucket-head CAS rounds
  /// overlapped (one flush per round instead of one latency per insert).
  [[nodiscard]] std::vector<std::uint8_t> insert_many(
      rma::Rank& self, std::span<const std::uint64_t> keys,
      std::span<const std::uint64_t> values);

  /// Batched insert_if_absent: one lookup_many for the whole key set, then
  /// one insert_many for the misses. result[i] is true iff this call
  /// inserted keys[i]; a key occurring twice in the batch is inserted once
  /// (the first occurrence wins).
  [[nodiscard]] std::vector<std::uint8_t> insert_if_absent_many(
      rma::Rank& self, std::span<const std::uint64_t> keys,
      std::span<const std::uint64_t> values);

  /// Find the value for `key`, or nullopt.
  [[nodiscard]] std::optional<std::uint64_t> lookup(rma::Rank& self, std::uint64_t key);

  /// Batched multi-lookup: resolves every key with the same candidate-bucket
  /// protocol as lookup(), but overlaps the independent remote reads of all
  /// keys round by round through the nonblocking engine (one flush_all() per
  /// traversal round instead of one latency per word). Results are identical
  /// to calling lookup() per key.
  [[nodiscard]] std::vector<std::optional<std::uint64_t>> lookup_many(
      rma::Rank& self, std::span<const std::uint64_t> keys);

  /// Remove one entry with `key`; returns false if no such entry. A
  /// successful erase bumps the table's *erase epoch* (below).
  [[nodiscard]] bool erase(rma::Rank& self, std::uint64_t key);

  // --- online migration / compaction ---------------------------------------

  /// Run (or continue) a migration pass: rehome every entry whose home shard
  /// under the current shard count differs from the shard it sits in, then
  /// advance the directory's clean count so readers drop back to one
  /// candidate bucket. Fully one-sided and safe to run concurrently with
  /// traffic on any rank; idempotent (a second pass over a compacted table
  /// migrates nothing). `budget` > 0 caps the number of migrations performed
  /// by this call -- the pass keeps a per-rank cursor and a later call
  /// resumes where it stopped, only advancing the clean count once a full
  /// scan completes (the incremental mode Database::checkpoint uses).
  /// Returns the number of entries migrated by this call.
  std::uint64_t compact(rma::Rank& self, std::uint64_t budget = 0);

  // --- erase epoch ----------------------------------------------------------
  //
  // A single monotone counter (one word in the shard directory on rank 0)
  // bumped by every successful erase. It exists so consumers that memoize
  // lookups (the shared cache's translation memo) can validate a remembered
  // key -> value *without* probing the table: a mapping proven true while
  // the epoch read E stays true as long as the epoch still reads E, because
  // only an erase can invalidate it -- GDI inserts each application key at
  // most once while it is live (create/insert_if_absent check existence
  // first), so without an erase no newer duplicate can shadow it. One
  // 8-byte atomic read thus replaces the candidate-bucket probe. (Migration
  // does not bump the epoch: rehoming an entry never changes key -> value.)
  //
  // Stamping with an epoch observed *before* the mapping was verified is
  // always safe (the covered no-erase interval only grows); it merely makes
  // a future mismatch -- and the resulting fallback probe -- more likely.

  /// Read the current erase epoch (one remote atomic; refreshes this rank's
  /// cached copy).
  [[nodiscard]] std::uint64_t erase_epoch(rma::Rank& self);
  /// This rank's last *observed* epoch -- no wire traffic. Conservative to
  /// stamp memos with: it was read at some point no later than now.
  [[nodiscard]] std::uint64_t cached_erase_epoch(rma::Rank& self) const {
    return local_[static_cast<std::size_t>(self.id())].erase_epoch;
  }

  /// Number of live entries on `rank`: the sum of the per-shard live
  /// counters, so the count stays exact across shard growth and migration
  /// (diagnostic; eventually consistent under concurrent mutation).
  [[nodiscard]] std::uint64_t live_entries(rma::Rank& self, std::uint32_t rank);

  /// Published shard count (refreshes this rank's cached view).
  [[nodiscard]] std::uint32_t shard_count(rma::Rank& self);

  /// Directory clean count (refreshes this rank's cached view). Equal to
  /// shard_count() in the compacted steady state; lower while a split has
  /// not been fully migrated yet.
  [[nodiscard]] std::uint32_t clean_shard_count(rma::Rank& self);

  [[nodiscard]] const DhtConfig& config() const { return cfg_; }

  /// Diagnostic / test hook: number of *unmarked, generation-valid* copies
  /// of `key` across every published shard's candidate bucket. Quiescent
  /// callers see the live-copy invariant (<= 1 for unique-key usage; exactly
  /// one visible copy mid-migration).
  [[nodiscard]] std::uint64_t debug_copies(rma::Rank& self, std::uint64_t key);

  // --- checkpoint / recovery support (src/wal/) -----------------------------

  /// Append a raw dump of rank `r`'s committed table + heap segments (and,
  /// for rank 0, the shard directory: counts, erase epoch, migration stamp)
  /// to `out`. Quiescent state only: the WAL checkpoint calls this inside a
  /// barrier.
  void serialize_rank(int r, std::vector<std::byte>& out);
  /// Restore rank `r` from a serialize_rank dump, committing window segments
  /// as needed; false on a layout/cap mismatch. Call refresh_local afterwards
  /// (after a barrier covering every rank's restore).
  [[nodiscard]] bool restore_rank(rma::Rank& self, int r, std::span<const std::byte> in);
  /// Re-prime this rank's cached directory view from the restored state, so
  /// replay places entries exactly the way the original run did. Also drops
  /// the allocator's local full/empty hints (the restored watermarks and
  /// free stacks may differ from what this rank last observed).
  void refresh_local(rma::Rank& self) {
    auto& rl = local_[static_cast<std::size_t>(self.id())];
    // Reset before re-reading: refresh_dir() merges monotonically, and a
    // restored directory may be *smaller* than what this rank last saw.
    rl.shards = 1;
    rl.clean = 1;
    rl.pending = 1;
    rl.wm_full = 0;
    rl.free_empty = 0;
    rl.comp_target = kNoPass;
    refresh_dir(self);
    (void)erase_epoch(self);
  }

 private:
  // Entry layout in the heap window (64-byte slots).
  static constexpr std::uint64_t kEntrySize = 64;
  static constexpr std::uint64_t kKeyOff = 0;
  static constexpr std::uint64_t kValOff = 8;
  static constexpr std::uint64_t kNextOff = 16;
  static constexpr std::uint64_t kGenOff = 24;

  // Reference word encoding: entry DPtr (64-aligned) | gen-tag(bits 0..4)
  // | mark(bit 5). A zero word is the null reference.
  static constexpr std::uint64_t kTagMask = 0x1F;
  static constexpr std::uint64_t kMarkBit = 0x20;
  static constexpr std::uint64_t kPtrMask = ~std::uint64_t{0x3F};

  // Per-shard control block: slot 0 of every rank's heap segment (so a fresh
  // all-zero segment is a valid empty shard). Free-stack head encodes
  // tag(high 16) | slot idx(low 48); idx 0 -- the control slot itself --
  // doubles as the empty sentinel. The watermark counts never-recycled slots
  // handed out by bump allocation.
  static constexpr std::uint64_t kFreeHeadOff = 0;
  static constexpr std::uint64_t kWatermarkOff = 8;
  static constexpr std::uint64_t kLiveCountOff = 16;
  static constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << 48) - 1;

  struct Ref {
    std::uint64_t word = 0;
    [[nodiscard]] bool is_null() const { return (word & kPtrMask) == 0; }
    [[nodiscard]] DPtr ptr() const { return DPtr{word & kPtrMask}; }
    [[nodiscard]] std::uint64_t tag() const { return word & kTagMask; }
    [[nodiscard]] bool marked() const { return (word & kMarkBit) != 0; }
    [[nodiscard]] Ref unmarked() const { return Ref{word & ~kMarkBit}; }
    [[nodiscard]] Ref marked_ref() const { return Ref{word | kMarkBit}; }
  };
  [[nodiscard]] static Ref make_ref(DPtr e, std::uint64_t gen) {
    return Ref{e.raw() | (gen & kTagMask)};
  }

  struct BucketLoc {
    std::uint32_t rank;
    std::uint64_t offset;  ///< byte offset of the head word *within a segment*
  };
  [[nodiscard]] BucketLoc locate(std::uint64_t key) const;
  /// Second hash stream steering shard placement (independent of the bucket
  /// position bits consumed by locate()).
  [[nodiscard]] std::uint64_t shard_hash(std::uint64_t key) const {
    return splitmix64(splitmix64(key ^ cfg_.salt));
  }
  /// Linear-hash home shard of hash `h2` under a published count of `n`.
  [[nodiscard]] static std::uint32_t home_shard(std::uint64_t h2, std::uint32_t n);

  /// Deduplicated candidate buckets of a key, newest placement first:
  /// {home(h2, m) : m in [clean, shards]}.
  struct Candidates {
    std::array<std::uint32_t, kMaxShardCap> shard;
    std::uint32_t n = 0;
  };
  [[nodiscard]] Candidates candidates(std::uint64_t h2, std::uint32_t clean,
                                      std::uint32_t shards) const;

  [[nodiscard]] std::uint64_t bucket_off(std::uint32_t shard, const BucketLoc& b) const {
    return static_cast<std::uint64_t>(shard) * table_seg_ + b.offset;
  }
  [[nodiscard]] std::uint64_t ctrl_off(std::uint32_t shard) const {
    return static_cast<std::uint64_t>(shard) * heap_seg_;
  }
  [[nodiscard]] std::uint64_t entry_off(std::uint32_t shard, std::uint64_t idx) const {
    return static_cast<std::uint64_t>(shard) * heap_seg_ + idx * kEntrySize;
  }
  /// Heap shard an entry slot lives in (independent of its bucket shard).
  [[nodiscard]] std::uint32_t shard_of(DPtr e) const {
    return static_cast<std::uint32_t>(e.offset() / heap_seg_);
  }

  // Directory maintenance. refresh_dir() reads counts + migration stamp in
  // one overlapped round, commits newly published window segments, and
  // updates this rank's cache; it returns the stamp (callers in the dirty
  // window validate misses against it).
  std::uint64_t refresh_dir(rma::Rank& self);
  std::uint32_t refresh_shards(rma::Rank& self) {
    (void)refresh_dir(self);
    return local_[static_cast<std::size_t>(self.id())].shards;
  }
  /// Publish one more shard (or observe a racer publishing it). False iff
  /// the shard cap is reached.
  bool grow(rma::Rank& self);

  // Entry heap allocation: per (rank, shard) bump watermark + lock-free
  // recycled-entry stack. Prefers `prefer` (the key's home shard), spills
  // into any published shard with space, re-probes every free stack before
  // growing (freed capacity is always consumed before new capacity).
  // allow_grow=false (migration) returns null at capacity instead of
  // publishing a fresh shard, so compaction never inflates the directory.
  [[nodiscard]] DPtr alloc_entry(rma::Rank& self, std::uint32_t prefer,
                                 bool allow_grow = true);
  [[nodiscard]] DPtr pop_free(rma::Rank& self, std::uint32_t target,
                              std::uint32_t shard);
  void dealloc_entry(rma::Rank& self, DPtr e);

  // One bucket's chain operations (the Listing 4 state machines).
  [[nodiscard]] std::optional<std::uint64_t> lookup_in_bucket(rma::Rank& self,
                                                              std::uint64_t key,
                                                              const BucketLoc& b,
                                                              std::uint32_t shard);
  [[nodiscard]] bool erase_in_bucket(rma::Rank& self, std::uint64_t key,
                                     const BucketLoc& b, std::uint32_t shard);

  // Migration primitive shared by compact() and insert's self-relocation:
  // move the entry `e` -- currently linked in bucket (`b`, src_shard) with
  // reference word `ref` and unmarked next word `next` -- into bucket
  // (`b`, dst_shard). Allocates the destination slot before taking the mark
  // (so readers of the source bucket never spin across a heap scan),
  // revalidates generation+key after winning the mark CAS (the CAS alone
  // can succeed on a recycled slot whose next word matches), and on kMoved
  // stores the published copy through `moved` so callers can run the
  // post-publish coverage fence on it.
  enum class MigrateResult { kMoved, kRaced, kNoSpace };
  MigrateResult migrate_entry(rma::Rank& self, const BucketLoc& b,
                              std::uint32_t src_shard, std::uint32_t dst_shard,
                              DPtr e, Ref ref, std::uint64_t next,
                              std::uint64_t key, DPtr* moved = nullptr);

  /// Post-link insert fence: make sure the entry `e` for `key`, linked into
  /// bucket (`b`, home(h2, placed)) under placement count `placed`, is
  /// covered by the directory's [pending, shards] range -- relocating it if a
  /// concurrent compaction pass outran the placement. One overlapped
  /// directory read in the common case.
  void ensure_covered(rma::Rank& self, std::uint64_t key, std::uint64_t h2,
                      const BucketLoc& b, DPtr e, std::uint32_t placed);

  // Field accessors.
  [[nodiscard]] std::uint64_t field(rma::Rank& self, DPtr e, std::uint64_t off) {
    return heap_.atomic_get_u64(self, e.rank(), e.offset() + off);
  }
  void set_field(rma::Rank& self, DPtr e, std::uint64_t off, std::uint64_t v) {
    heap_.atomic_put_u64(self, e.rank(), e.offset() + off, v);
  }

  DhtConfig cfg_;
  int nranks_;
  std::uint64_t table_seg_;  ///< bucket-segment bytes per rank per shard
  std::uint64_t heap_seg_;   ///< heap-segment bytes per rank per shard
  rma::Window table_;  ///< bucket head words, one segment per shard
  rma::Window heap_;   ///< control slot + entry slots, one segment per shard
  rma::Window dir_;    ///< shard directory (rank 0)

  // Directory-window layout (rank 0): published shard count S, clean count C
  // (every completed insert sits at home(h, m) for some m in [C, S]),
  // pending-clean count P (a pass targeting P is or was in flight; inserts
  // self-cover against it), the erase epoch, and the migration stamp (bumped
  // once per rehomed entry, between publish and unlink -- readers in the
  // dirty window re-validate misses against it).
  static constexpr std::uint64_t kDirShardsOff = 0;
  static constexpr std::uint64_t kDirCleanOff = 8;
  static constexpr std::uint64_t kDirPendingOff = 16;
  static constexpr std::uint64_t kDirEpochOff = 24;
  static constexpr std::uint64_t kDirStampOff = 32;
  static constexpr std::uint64_t kDirBytes = 40;

  static constexpr std::uint32_t kNoPass = ~std::uint32_t{0};

  /// Per-rank cached directory view + allocator hints + compaction cursor;
  /// each slot is only touched by its own rank (the distributed
  /// implementation's per-process cache of the directory).
  struct alignas(64) RankLocal {
    std::uint32_t shards = 1;
    std::uint32_t clean = 1;
    std::uint32_t pending = 1;
    std::uint64_t erase_epoch = 0;
    std::uint64_t wm_full = 0;     ///< bitmask: shard's watermark observed full
    std::uint64_t free_empty = 0;  ///< bitmask: shard's free stack observed empty
    std::uint32_t alloc_tick = 0;  ///< periodic free_empty re-probe trigger
    std::uint32_t comp_target = kNoPass;  ///< in-flight budgeted pass target
    std::uint64_t comp_pos = 0;           ///< linearized scan cursor of that pass
  };
  mutable std::vector<RankLocal> local_;
};

}  // namespace gdi::dht
