// Epoch write-ahead log: per-rank segmented redo log + checkpoint files.
//
// Durability unit = the commit pipeline's flush epoch (ROADMAP "Durability
// and recovery"; the exemplar shape is SPEEDEX's block-structured
// persistence, where hash-chained committed blocks are persisted with
// group-amortized fsyncs). Each rank owns one WalWriter:
//
//  * Transaction::commit_local builds a CommitRecord -- the commit's redo
//    ops in execution order (block-pool acquires, dirty-block images keyed
//    by DPtr, DHT insert/erase intents, lock-word version bumps, block
//    releases) -- and appends it to the writer *before* issuing the unlock
//    FAAs that make the commit observable (write-ahead rule).
//  * Appends buffer into the writer's open epoch. seal() stamps the buffer
//    with the next monotone epoch sequence number, writes it as one
//    CRC-framed record to the current log segment, and pays a single fsync
//    for the whole epoch (group durability, amortized exactly like the
//    pipeline's group flush). Seal points: the pipeline's epoch close hook,
//    pipeline-ineligible commits (eager path), checkpoints, and teardown.
//  * Segments rotate at wal_segment_bytes; checkpoints truncate segments
//    that lie entirely behind the checkpointed epoch.
//
// Recovery (Database::recover) restores each rank from the newest
// checkpoint, then replays its log tail strictly in epoch order, skipping
// epochs the checkpoint already covers and cutting the tail at the first
// torn frame (bad magic, short header/payload, or CRC mismatch). Replay
// re-executes acquires/inserts against the live structures, which reproduces
// allocator state (free-list tags, heap watermarks) byte-for-byte; see
// README "Durability protocol" for the exact invariants and the single-
// driver no-abort contract under which byte equality holds.
//
// File IO is real (the log must survive the process); its *cost* is modeled
// on the simulated clock via wal_fsync_ns / wal_append_ns_per_byte, so
// benches measure durability overhead machine-independently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/dptr.hpp"
#include "rma/runtime.hpp"

namespace gdi::wal {

/// CRC-32 (IEEE 802.3, reflected). Frames and checkpoints are validated with
/// it; a mismatch marks the torn tail.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n,
                                  std::uint32_t seed = 0);

struct WalConfig {
  std::string dir;                       ///< log directory (one per database)
  std::size_t segment_bytes = 4u << 20;  ///< rotate segments past this size
  double fsync_ns = 20000.0;             ///< modeled cost of one group fsync
  double append_ns_per_byte = 0.25;      ///< modeled CRC+memcpy streaming cost
};

/// Redo op codes (one byte on the wire).
enum class OpType : std::uint8_t {
  kAcquire = 1,   ///< pop the target rank's block free list; verify the DPtr
  kRelease = 2,   ///< push a block back onto its free list
  kImage = 3,     ///< dirty-block image: overwrite [off, off+len) of a block
  kDhtInsert = 4, ///< app-id translation publish
  kDhtErase = 5,  ///< app-id translation retract
  kLockBump = 6,  ///< one write-unlock's +1 version increment on a lock word
  kTenantAck = 7, ///< networked tenant's completed-write acknowledgement:
                  ///< {tenant, tag, reply status/values}. Replay rebuilds the
                  ///< listener's per-tenant watermark + reply cache so a write
                  ///< replayed across a restart is answered, never re-executed.
};

/// One committed transaction's redo ops, accumulated in execution order.
class CommitRecord {
 public:
  void acquire(DPtr got);
  void release(DPtr blk);
  void image(DPtr blk, std::uint32_t off, std::span<const std::byte> bytes);
  void dht_insert(std::uint64_t key, std::uint64_t value);
  void dht_erase(std::uint64_t key);
  void lock_bump(DPtr blk);
  void tenant_ack(std::uint64_t tenant, std::uint64_t tag, std::uint8_t status,
                  std::int64_t v0, std::int64_t v1);

  [[nodiscard]] bool empty() const { return ops_ == 0; }
  [[nodiscard]] std::uint32_t op_count() const { return ops_; }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return bytes_; }
  void clear() {
    bytes_.clear();
    ops_ = 0;
  }

 private:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  std::vector<std::byte> bytes_;
  std::uint32_t ops_ = 0;
};

/// Decoded redo op; `data` references the epoch payload it was parsed from.
struct Op {
  OpType type{};
  DPtr blk;                          ///< kAcquire/kRelease/kImage/kLockBump
  std::uint32_t off = 0;             ///< kImage
  std::span<const std::byte> data;   ///< kImage
  std::uint64_t key = 0, value = 0;  ///< kDhtInsert/kDhtErase
  std::uint64_t tenant = 0, tag = 0;         ///< kTenantAck
  std::uint8_t ack_status = 0;               ///< kTenantAck: Reply status
  std::int64_t ack_v0 = 0, ack_v1 = 0;       ///< kTenantAck: Reply values
};

struct CommitView {
  std::uint64_t commit_id = 0;
  std::vector<Op> ops;
};

struct EpochView {
  std::uint64_t seq = 0;
  std::vector<CommitView> commits;
};

/// One on-disk log segment holding at least one intact frame.
struct SegmentInfo {
  std::uint64_t first_epoch = 0;  ///< first intact epoch seq in the file
  std::uint64_t last_epoch = 0;   ///< last intact epoch seq in the file
  std::string path;
};

/// One rank's readable log suffix. `epochs` hold only seqs strictly above the
/// requested skip point; the high-water marks cover every intact frame seen.
struct RecoveredLog {
  std::vector<EpochView> epochs;
  std::vector<std::vector<std::byte>> payloads;  ///< backing store for `epochs`
  std::vector<SegmentInfo> segments;  ///< scanned segments with intact frames
  std::uint64_t epoch_hw = 0;   ///< last intact epoch seq (0 = none)
  std::uint64_t commit_hw = 0;  ///< last commit id in an intact epoch
  bool torn_tail = false;       ///< a torn/corrupt frame cut the tail
  std::string torn_path;        ///< segment file holding the torn frame
  std::uint64_t torn_offset = 0;  ///< byte offset of the cut inside torn_path
};

/// Global consistent-cut snapshot: every rank's serialized state plus each
/// rank's WAL high-water marks at the cut. One file per database
/// (checkpoint.bin, written via temp + atomic rename) -- per-rank files would
/// be unsound for truncation, because any rank's log may contain redo for
/// *other* ranks' regions (cross-rank writebacks). Rank 0's section embeds
/// the DHT shard directory (shard/clean/pending counts, erase epoch,
/// migration stamp), so recovery restores the partition's split state and a
/// paused compaction pass simply re-runs against it -- migrations are
/// physical moves, never logged, and re-applying them is idempotent.
struct Checkpoint {
  std::vector<std::vector<std::byte>> sections;  ///< [rank] Database payload
  std::vector<std::uint64_t> epoch_hw;           ///< [rank]
  std::vector<std::uint64_t> commit_hw;          ///< [rank]
  /// [rank] listener replay state (per-tenant watermark + reply cache),
  /// serialized by net::Listener. Kept OUT of `sections`: serialize_rank is
  /// the byte-for-byte oracle comparator and tenant replies carry
  /// timing-dependent fields. Written as a trailing block after the per-rank
  /// loop (and only when non-empty), so pre-PR10 checkpoints read back fine.
  std::vector<std::vector<std::byte>> net_sections;
};

/// Per-rank segmented log writer. Owned by Database; only ever driven by its
/// own rank's thread (same contract as rma::Rank).
class WalWriter {
 public:
  WalWriter(int rank, WalConfig cfg);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffer one commit's record into the open epoch and assign its monotone
  /// commit id. Charges the modeled append cost. No-op (returns 0) on a
  /// fault-killed rank.
  std::uint64_t append(rma::Rank& self, const CommitRecord& rec);

  /// Frame + write + group-fsync the open epoch under the next epoch seq;
  /// no-op when the epoch is empty or the rank is fault-killed. Rotates the
  /// segment past segment_bytes first. `allow_kill=false` suppresses the
  /// kEpochSeal / kMidAppend kill switches (teardown drain must not arm a
  /// kill point that the run itself never reached).
  void seal(rma::Rank& self, bool allow_kill = true);

  [[nodiscard]] bool has_open_epoch() const { return !open_.empty(); }
  [[nodiscard]] std::uint64_t epoch_hw() const { return next_epoch_ - 1; }
  [[nodiscard]] std::uint64_t commit_hw() const { return next_commit_ - 1; }
  [[nodiscard]] std::uint64_t sealed_since_checkpoint() const {
    return sealed_since_ckpt_;
  }

  /// Recovery hand-off: position the writer after a restored checkpoint/log
  /// (next epoch = epoch+1, next commit id = commit+1). Must precede the
  /// first append; starts a fresh segment so torn remnants are never
  /// appended to. `existing` (RecoveredLog::segments) seeds the closed-
  /// segment list so later checkpoints truncate pre-restart segments too --
  /// without it the log directory would grow without bound across
  /// crash/recover cycles.
  void reset_hw(std::uint64_t epoch, std::uint64_t commit,
                std::vector<SegmentInfo> existing = {});

  /// Drop closed segments that lie entirely at or behind `epoch` (called
  /// behind a durable checkpoint covering that epoch); rotates the current
  /// segment first so it can be collected too. Resets the auto-checkpoint
  /// cadence counter.
  void truncate_through(std::uint64_t epoch);

  /// Rank this writer was last driven by (set on append/seal); teardown
  /// drains through it. Null until the first append.
  [[nodiscard]] rma::Rank* bound() const { return bound_; }

  [[nodiscard]] const WalConfig& config() const { return cfg_; }

 private:
  [[nodiscard]] bool rank_killed(rma::Rank& self) const;
  void rotate(std::uint64_t next_first_epoch);
  void open_segment(std::uint64_t first_epoch);
  /// Close the current segment: kept if it holds an intact frame, else
  /// removed. `cut_tail` first truncates it back to its intact frames (a
  /// failed seal may have left part of one); false if that fails.
  bool close_segment(bool cut_tail);

  struct ClosedSeg {
    std::uint64_t first_epoch = 0, last_epoch = 0;
    std::string path;
  };

  WalConfig cfg_;
  int rank_;
  std::vector<std::byte> open_;  ///< concatenated records of the open epoch
  std::uint64_t next_commit_ = 1;
  std::uint64_t next_epoch_ = 1;
  std::uint64_t sealed_since_ckpt_ = 0;
  std::FILE* file_ = nullptr;
  std::size_t file_bytes_ = 0;
  std::uint64_t seg_first_epoch_ = 1;
  std::uint64_t seg_last_epoch_ = 0;  ///< 0 while the segment holds no frame
  bool seg_entry_synced_ = false;     ///< directory fsynced since the segment's creation
  std::string cur_path_;
  std::vector<ClosedSeg> closed_;
  rma::Rank* bound_ = nullptr;
};

/// Read one rank's log segments in epoch order, skipping (but accounting)
/// epochs <= skip_through_epoch and cutting at the first torn frame. The cut
/// position (file + byte offset) is reported in torn_path/torn_offset.
[[nodiscard]] RecoveredLog read_log(const std::string& dir, int rank,
                                    std::uint64_t skip_through_epoch);

/// Erase a torn remnant from disk: truncate torn_path at torn_offset
/// (deleting the file when no intact frame precedes the cut). Must run
/// during recovery, before the rank resumes sealing -- a stale torn frame
/// left at a segment tail would cut the NEXT recovery's scan short and
/// silently shadow every intact segment sealed after this one. No-op (true)
/// when the log has no torn tail; false on filesystem errors.
[[nodiscard]] bool truncate_torn_tail(const RecoveredLog& log);

/// Write the global checkpoint (temp file + atomic rename + directory
/// fsync). Consults `self`'s FaultInjector at the kMidCheckpoint kill point.
/// Charges the modeled serialize + fsync cost. Returns false on filesystem
/// errors, each counted in `self`'s wal_io_errors.
[[nodiscard]] bool write_checkpoint(rma::Rank& self, const WalConfig& cfg,
                                    const Checkpoint& ck);

/// Read + validate the checkpoint; nullopt when absent or corrupt (a partial
/// temp file from a mid-checkpoint death is ignored by construction).
[[nodiscard]] std::optional<Checkpoint> read_checkpoint(const std::string& dir);

}  // namespace gdi::wal
