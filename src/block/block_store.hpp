// Blocked Graph Data Layout (BGDL) -- paper Section 5.5.
//
// A large distributed memory pool divided into fixed-size blocks. Three RMA
// windows implement it exactly as the paper describes:
//   * data window   -- the blocks themselves (vertex/edge holder payloads),
//   * usage window  -- a linked free-list: one word per block holding the
//                      index of the next free block,
//   * system window -- the free-list head (entry point for acquiring blocks)
//                      plus one reader-writer lock word per block.
//
// acquireBlock/releaseBlock are lock-free Treiber-stack operations on the
// free-list head; the head word carries a 16-bit tag to defeat the ABA
// problem ("tagged pointer technique", paper Section 5.5). The RW lock word
// (paper Section 5.6, Figure 3) packs a write bit, a version and a read
// counter into one 64-bit word, so a read lock is one remote FAA and an
// upgrade or a write lock of known version one remote CAS.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/dptr.hpp"
#include "rma/window.hpp"

namespace gdi::block {

struct BlockStoreConfig {
  std::size_t block_size = 512;       ///< bytes per block (user tunable, paper 5.5)
  std::size_t blocks_per_rank = 4096; ///< pool capacity per rank
};

class BlockStore {
 public:
  /// Collective constructor: every rank calls, all receive the same store.
  [[nodiscard]] static std::shared_ptr<BlockStore> create(rma::Rank& self,
                                                          const BlockStoreConfig& cfg);

  BlockStore(int nranks, const BlockStoreConfig& cfg);

  [[nodiscard]] std::size_t block_size() const { return cfg_.block_size; }
  [[nodiscard]] std::size_t blocks_per_rank() const { return cfg_.blocks_per_rank; }

  // --- block allocation (lock-free, fully one-sided) ------------------------

  /// Try to allocate one block on `target`; returns a null DPtr if that rank's
  /// pool is exhausted. The returned DPtr addresses the block's first byte in
  /// the data window.
  [[nodiscard]] DPtr acquire(rma::Rank& self, std::uint32_t target);

  /// Return `blk` to its owner's free list.
  void release(rma::Rank& self, DPtr blk);

  /// Number of currently allocated blocks on `target` (diagnostic).
  [[nodiscard]] std::uint64_t allocated_count(rma::Rank& self, std::uint32_t target);

  // --- block data access -----------------------------------------------------

  void read_block(rma::Rank& self, DPtr blk, void* dst) {
    data_.get(self, dst, cfg_.block_size, blk);
  }
  /// One scatter-read destination for the vectored read path.
  struct BlockReadOp {
    DPtr blk;
    void* dst = nullptr;
  };
  /// Vectored block read: issues one nonblocking GET per op and completes the
  /// whole set with a single Rank::flush_all(), so an overlapped batch is
  /// charged max(alpha) + sum(beta*bytes) instead of paying every latency
  /// serially. Results are byte-identical to calling read_block per op.
  void read_blocks(rma::Rank& self, std::span<const BlockReadOp> ops) {
    for (const auto& op : ops) (void)data_.get_nb(self, op.dst, cfg_.block_size, op.blk);
    if (!ops.empty()) (void)self.flush_all();
  }
  void write_block(rma::Rank& self, DPtr blk, const void* src) {
    data_.put(self, src, cfg_.block_size, blk);
  }
  /// Sub-block access (offset within the block).
  void read(rma::Rank& self, DPtr blk, std::size_t off, void* dst, std::size_t n) {
    data_.get(self, dst, n, blk.rank(), blk.offset() + off);
  }
  void write(rma::Rank& self, DPtr blk, std::size_t off, const void* src, std::size_t n) {
    data_.put(self, src, n, blk.rank(), blk.offset() + off);
  }
  /// Nonblocking sub-block access: the transfer joins the issuing rank's
  /// pending batch and completes at its next Rank::flush_all(). Commit-time
  /// writeback enqueues every dirty block with write_nb and pays one
  /// overlapped flush for the whole transaction instead of one per holder.
  void read_nb(rma::Rank& self, DPtr blk, std::size_t off, void* dst, std::size_t n) {
    (void)data_.get_nb(self, dst, n, blk.rank(), blk.offset() + off);
  }
  void write_nb(rma::Rank& self, DPtr blk, std::size_t off, const void* src,
                std::size_t n) {
    (void)data_.put_nb(self, src, n, blk.rank(), blk.offset() + off);
  }
  void flush(rma::Rank& self, std::uint32_t target) { data_.flush(self, target); }

  // --- per-vertex reader/writer locks (paper Section 5.6) -------------------
  //
  // One lock word per block; only primary blocks of holders are locked. The
  // word packs three fields:
  //   `(write_bit << 63) | (version << 32) | read_counter`
  // The 31-bit *version* counts completed write critical sections: every
  // write_unlock bumps it by one. Readers add to the low counter and leave
  // the version untouched, so a reader that acquired the word at version v
  // and later re-observes version v knows the block bytes cannot have
  // changed in between -- the validation rule of the shared block cache
  // (src/cache/). The version wraps after 2^31 writes to one block
  // (write_unlock repairs the increment's carry with one extra atomic at the
  // wrap point); a wrap-around ABA needs exactly 2^31 commits between two
  // validations of one cache entry, which we accept (and the entry-count
  // bound makes even less likely).
  //
  // Readers FAA(+1): the displaced word dates the lock, and one showing the
  // write bit makes the reader withdraw with a nonblocking FAA(-1) and fail.
  // That transient increment may sit on a write-locked word: CAS bids
  // (writers, upgraders) just fail on it, and the unlock paths leave it for
  // the withdrawal. Writers bid on a free word at the hinted version (else
  // 0; a free word at another version costs a second CAS); upgraders bid on
  // their acquisition word's version, which cannot move while they hold a
  // read lock.
  //
  // A read lock may carry its block's GET (`dst`): the GET is posted behind
  // the FAA to the same target in the same round. This relies on the
  // ordering every one-sided layer here already assumes -- ops one rank
  // posts to one target take effect in issue order (the commit pipeline's
  // PUT -> unlock FAA is the writer-side twin). So a granted word's GET
  // lands while its read lock is held and reads exactly the bytes the FAA's
  // version bits name, as a GET issued after the lock round would:
  // shared-cache fills still stamp them with the FAA's word. Only a granted
  // word's bytes are copied; a denied word's GET is charged (the NIC posted
  // it) but its bytes, which a writer may be changing, are dropped.
  //
  // The same round may also carry GETs of `tails`: blocks on the locked
  // block's rank that the caller expects to belong to the same holder (the
  // block-table memo of src/cache/ names them). Only the caller can tell
  // whether the lock covers them -- the locked primary's own block table,
  // read in this round, must list them -- so their bytes are not copied
  // here: a confirmed tail is taken afterwards with take_posted_block, a
  // refuted one is never looked at. Same-rank is what makes a confirmed
  // tail exact: its GET lands behind the FAA, under the lock.

  /// One FAA(+1). On success, *word_out (if non-null) receives the word the
  /// FAA displaced -- its version bits date the acquired read lock. A
  /// visible writer makes the attempt withdraw and fail at once. A non-null
  /// `dst` also fetches the block into it on success: for a remote block the
  /// GET joins the FAA in one flushed round; a local block stays blocking
  /// (a local FAA then GET undercuts one overlapped round plus its fence).
  /// `tails` ride only that remote round (empty for a local block).
  [[nodiscard]] bool try_read_lock(rma::Rank& self, DPtr blk,
                                   std::uint64_t* word_out = nullptr,
                                   void* dst = nullptr,
                                   std::span<const DPtr> tails = {});
  void read_unlock(rma::Rank& self, DPtr blk);
  /// `version_hint` (masked version bits, e.g. a shared-cache entry's stamp)
  /// is the version the CAS bids on instead of the fresh-block 0, saving the
  /// learn-the-version CAS on previously-written blocks whose version the
  /// caller already knows (the write-through cache keeps a writer's own
  /// rows' versions current).
  [[nodiscard]] bool try_write_lock(rma::Rank& self, DPtr blk,
                                    std::uint64_t version_hint = 0);
  /// Batched try_read_lock: one nonblocking FAA(+1) per word and one
  /// flush_all. result[i] == 1 iff blks[i] was acquired; withdrawals complete
  /// at the caller's next flush. words_out (if non-null) receives every
  /// displaced word. `dsts` is empty or one per word: a non-null dsts[i]
  /// posts blks[i]'s block GET right behind its FAA, in the same round, and
  /// receives the bytes iff the word was acquired (untouched otherwise).
  /// `tails` is empty or one span per word, posted behind that word's GET.
  [[nodiscard]] std::vector<std::uint8_t> try_read_lock_many(
      rma::Rank& self, std::span<const DPtr> blks,
      std::vector<std::uint64_t>* words_out = nullptr,
      std::span<void* const> dsts = {},
      std::span<const std::span<const DPtr>> tails = {});
  /// Copy a tail block whose GET rode a granted read lock's round, once the
  /// caller has confirmed the lock covers it. Charges nothing: the GET was
  /// paid in its round.
  void take_posted_block(DPtr blk, void* dst) {
    data_.take_posted(dst, cfg_.block_size, blk);
  }
  /// Batched write locks: one nonblocking CAS per word per round, each round
  /// completed by one flush_all; contended words retry up to `attempts`
  /// rounds. `hints` (empty, or one per block) carries try_write_lock's
  /// version hint per word; a stale one costs one round, whose failed CAS
  /// fetches the word the next bid needs.
  [[nodiscard]] std::vector<std::uint8_t> try_write_lock_many(
      rma::Rank& self, std::span<const DPtr> blks, int attempts = 16,
      std::span<const std::uint64_t> hints = {});
  /// Upgrade a held read lock to a write lock with one CAS: succeeds only if
  /// this is the sole reader and no withdrawing reader is in flight.
  /// `acq_word` is the word the read lock observed (try_read_lock's
  /// word_out); 0 is exact for a never-written block.
  [[nodiscard]] bool try_upgrade_lock(rma::Rank& self, DPtr blk,
                                      std::uint64_t acq_word = 0);
  /// Batched try_upgrade_lock: one nonblocking CAS per word per round, each
  /// round completed by one flush_all; words whose other readers have not
  /// drained retry up to `attempts` rounds. `acq_words` is empty or one per
  /// block (empty costs a written word one round to learn its version).
  [[nodiscard]] std::vector<std::uint8_t> try_upgrade_many(
      rma::Rank& self, std::span<const DPtr> blks, int attempts = 16,
      std::span<const std::uint64_t> acq_words = {});
  void write_unlock(rma::Rank& self, DPtr blk);
  /// Nonblocking unlocks: the atomic joins the rank's pending batch and
  /// completes (cost-wise) at the next flush_all. Release order is irrelevant
  /// to other agents -- a racing CAS that lands before the unlock simply
  /// retries -- so commit/abort fire these and let the next completion point
  /// absorb the round, instead of paying one serial latency per held lock.
  void read_unlock_nb(rma::Rank& self, DPtr blk);
  void write_unlock_nb(rma::Rank& self, DPtr blk);
  /// Fetch-flavored write unlock: same single-FAA release (and the same wrap
  /// repair), but the word the FAA displaced is fetched, so the releasing
  /// writer learns the version its own unlock published -- the version the
  /// next validator of this block will observe. Returns those post-unlock
  /// version bits (already in lock-word position, i.e. comparable to
  /// version_of()); 0 at the 2^31 wrap, where the repair clears the carried
  /// write bit. With `nonblocking` the FAA (and any wrap repair) joins the
  /// rank's pending batch -- the fetched value is acted on locally only
  /// (shared-cache re-stamp), which a real backend would defer to the
  /// enclosing epoch's flush. The write-through protocol is built on this
  /// call: holding the write bit excludes every other agent's bytes and
  /// version, so the fetched word is `held_version | write_bit` plus at most
  /// some withdrawing readers' transient counts, which version_of() masks;
  /// the re-stamped version is tamper-proof.
  std::uint64_t write_unlock_fetch(rma::Rank& self, DPtr blk, bool nonblocking);
  /// Batched 8-byte lock-word peeks: with `batched` one nonblocking atomic
  /// per word completed by a single flush_all, otherwise one blocking atomic
  /// each. out[i] receives blks[i]'s word. The shared block cache rides this
  /// to validate lock-free (kReadShared) hits and to bracket lock-free fills.
  void peek_lock_words(rma::Rank& self, std::span<const DPtr> blks,
                       std::span<std::uint64_t> out, bool batched);
  /// Raw lock word (tests/diagnostics).
  [[nodiscard]] std::uint64_t lock_word(rma::Rank& self, DPtr blk);
  /// Test-only: overwrite a block's raw lock word. Exists to drive the 2^31
  /// version-wrap path without 2^31 commits; never called by production code.
  void poke_lock_word(rma::Rank& self, DPtr blk, std::uint64_t word);

  static constexpr std::uint64_t kWriteBit = std::uint64_t{1} << 63;
  static constexpr int kVersionShift = 32;
  static constexpr std::uint64_t kReadMask = (std::uint64_t{1} << kVersionShift) - 1;
  static constexpr std::uint64_t kVersionMask = ~(kWriteBit | kReadMask);
  /// write_unlock = one FAA of this delta: +1 version, -write_bit. The writer
  /// holds the word at `version | write_bit`; the low counter holds only
  /// withdrawing readers' transient counts (no reader acquires while the bit
  /// is set), which the add leaves for their own FAA(-1)s to remove.
  static constexpr std::uint64_t kWriteUnlockDelta =
      (std::uint64_t{1} << kVersionShift) - kWriteBit;
  [[nodiscard]] static constexpr std::uint64_t version_of(std::uint64_t word) {
    return word & kVersionMask;
  }
  [[nodiscard]] static constexpr bool write_locked(std::uint64_t word) {
    return (word & kWriteBit) != 0;
  }

  /// Data-window object for direct holder IO by higher layers.
  [[nodiscard]] rma::Window& data_window() { return data_; }

  // --- checkpoint / recovery support (src/wal/) -----------------------------

  /// Append a raw dump of rank `r`'s data/usage/system regions (including
  /// free-list words, the tagged head, and every lock word) to `out`.
  /// Quiescent state only: the WAL checkpoint calls this inside a barrier.
  void serialize_rank(int r, std::vector<std::byte>& out);
  /// Restore rank `r`'s regions from a serialize_rank dump; false on a
  /// layout mismatch (different block_size/blocks_per_rank than the dump).
  [[nodiscard]] bool restore_rank(int r, std::span<const std::byte> in);

  /// Recovery-only: re-apply one committed write-unlock's +1 version
  /// increment to a lock word (no write bit is held during replay -- redo
  /// mutates bytes directly, so only the version history must be reproduced
  /// for byte-for-byte convergence of the system window).
  void bump_version(rma::Rank& self, DPtr blk) {
    const std::uint64_t prev =
        system_.faa_u64(self, blk.rank(), lock_offset(block_index(blk)),
                        static_cast<std::int64_t>(std::uint64_t{1} << kVersionShift));
    if (version_of(prev) == kVersionMask) [[unlikely]]
      system_.atomic_put_u64(self, blk.rank(), lock_offset(block_index(blk)), 0);
  }

 private:
  /// Post the block GET (and the tail GETs) that ride a read-lock FAA which
  /// displaced `faa_word` (the FAA executes at issue in-process; a real
  /// backend would drop a denied word's bytes at completion instead).
  void post_locked_get(rma::Rank& self, DPtr blk, std::uint64_t faa_word, void* dst,
                       std::span<const DPtr> tails);

  // System-window layout per rank.
  static constexpr std::uint64_t kHeadOffset = 0;    // tagged free-list head
  static constexpr std::uint64_t kCountOffset = 8;   // allocated-block counter
  static constexpr std::uint64_t kLocksOffset = 16;  // lock words, one per block

  // Tagged head encoding: (tag << 48) | block_index. Index kNilIdx = empty.
  static constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << 48) - 1;
  static constexpr std::uint64_t kNilIdx = kIdxMask;

  [[nodiscard]] std::uint64_t block_index(DPtr blk) const {
    return blk.offset() / cfg_.block_size;
  }
  [[nodiscard]] std::uint64_t lock_offset(std::uint64_t idx) const {
    return kLocksOffset + idx * 8;
  }

  BlockStoreConfig cfg_;
  rma::Window data_;
  rma::Window usage_;
  rma::Window system_;
};

}  // namespace gdi::block
