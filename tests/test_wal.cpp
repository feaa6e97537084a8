// Tests for the PR 6 durability layer: the epoch write-ahead log
// (src/wal/), its checkpoint/truncation protocol, the deterministic fault
// injector (src/rma/fault.hpp), and the teardown-drain fix.
//
// Invariants pinned here:
//  * frame fidelity: a CommitRecord's ops survive append -> seal -> read_log
//    byte-for-byte, and the skip point excludes covered epochs without
//    regressing the high-water marks;
//  * torn-tail safety: truncating the log at EVERY byte offset of the last
//    record never surfaces a partial epoch -- recovery applies exactly the
//    intact prefix (satellite: torn-tail recovery loop);
//  * byte-identical traffic: with the WAL off, every window op counter equals
//    the WAL-on run's (the log adds file IO + modeled time, zero RMA);
//  * teardown drain: destroying a database with an open pipeline epoch loses
//    none of its deferred commits (the graceful-shutdown bugfix);
//  * the commit_max_delay_ns close condition seals one WAL epoch per
//    delay-closed flush epoch, and those epochs recover;
//  * checkpoints truncate segments behind them and bound replay to the tail;
//    the auto-cadence writes checkpoints without a manual call; segments
//    that predate a restart are truncated too (recovery seeds the writer's
//    closed-segment list from its scan);
//  * a segment-open failure drops the buffered epoch *boundedly* and counts
//    it in wal_io_errors instead of silently accumulating;
//  * FaultInjector decisions are a pure function of (seed, order), kill
//    switches gate on their epoch, and a dropped PUT loses the data while
//    still paying the modeled cost;
//  * OpCounters::snapshot()/delta() isolate a phase's counters.
//
// NOTE: inside Runtime::run all assertions must be EXPECT_* (non-fatal);
// a fatal ASSERT would return from one rank's lambda and deadlock the team.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gdi/gdi.hpp"
#include "rma/fault.hpp"
#include "rma/window.hpp"
#include "stats/stats.hpp"
#include "wal/wal.hpp"

namespace gdi {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("gdi_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

DatabaseConfig wal_cfg(const std::string& dir, bool wal = true) {
  DatabaseConfig c;
  c.block.block_size = 512;
  c.block.blocks_per_rank = 2048;
  c.dht.entries_per_rank = 4096;
  c.dht.buckets_per_rank = 512;
  c.wal = wal;
  c.wal_dir = dir;
  return c;
}

/// Recovery runs start from a fresh metadata replica (the WAL logs block/DHT
/// redo only; registries come from the checkpoint, or are re-created by the
/// resuming workload at their original deterministic ids).
std::uint32_t ensure_ptype(const std::shared_ptr<Database>& db, rma::Rank& self) {
  auto existing = db->ptype_from_name(self, "p");
  if (existing.ok()) return *existing;
  return *db->create_ptype(self,
                           PropertyType{.name = "p", .dtype = Datatype::kInt64});
}

// ---------------------------------------------------------------------------
// Frame fidelity: CommitRecord -> segment -> read_log roundtrip
// ---------------------------------------------------------------------------

TEST(WalLog, FrameRoundtripThroughReadLog) {
  const std::string dir = fresh_dir("wal_roundtrip");
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    wal::WalConfig wc;
    wc.dir = dir;
    wal::WalWriter w(0, wc);
    const DPtr blk{0, 512};
    wal::CommitRecord rec;
    rec.acquire(blk);
    const std::byte img[3] = {std::byte{1}, std::byte{2}, std::byte{3}};
    rec.image(blk, 8, img);
    rec.dht_insert(42, 0xdeadbeefULL);
    rec.dht_erase(7);
    rec.lock_bump(blk);
    rec.release(DPtr{0, 1024});
    EXPECT_EQ(w.append(self, rec), 1u);
    rec.clear();
    w.seal(self);
    EXPECT_EQ(w.epoch_hw(), 1u);
    EXPECT_FALSE(w.has_open_epoch());

    // Second epoch groups two commits under one seal (group durability).
    rec.dht_insert(8, 9);
    EXPECT_EQ(w.append(self, rec), 2u);
    EXPECT_EQ(w.append(self, rec), 3u);
    rec.clear();
    w.seal(self);
    EXPECT_EQ(self.counters().wal_appends, 3u);
    EXPECT_EQ(self.counters().wal_fsyncs, 2u);

    // An empty seal is a no-op: no frame, no fsync.
    w.seal(self);
    EXPECT_EQ(self.counters().wal_fsyncs, 2u);
  });

  const wal::RecoveredLog log = wal::read_log(dir, 0, 0);
  EXPECT_FALSE(log.torn_tail);
  EXPECT_EQ(log.epoch_hw, 2u);
  EXPECT_EQ(log.commit_hw, 3u);
  ASSERT_EQ(log.epochs.size(), 2u);
  EXPECT_EQ(log.epochs[0].seq, 1u);
  ASSERT_EQ(log.epochs[0].commits.size(), 1u);
  const wal::CommitView& c = log.epochs[0].commits[0];
  EXPECT_EQ(c.commit_id, 1u);
  ASSERT_EQ(c.ops.size(), 6u);
  EXPECT_EQ(c.ops[0].type, wal::OpType::kAcquire);
  EXPECT_EQ(c.ops[0].blk.raw(), DPtr(0, 512).raw());
  EXPECT_EQ(c.ops[1].type, wal::OpType::kImage);
  EXPECT_EQ(c.ops[1].blk.raw(), DPtr(0, 512).raw());
  EXPECT_EQ(c.ops[1].off, 8u);
  ASSERT_EQ(c.ops[1].data.size(), 3u);
  EXPECT_EQ(std::to_integer<int>(c.ops[1].data[0]), 1);
  EXPECT_EQ(std::to_integer<int>(c.ops[1].data[2]), 3);
  EXPECT_EQ(c.ops[2].type, wal::OpType::kDhtInsert);
  EXPECT_EQ(c.ops[2].key, 42u);
  EXPECT_EQ(c.ops[2].value, 0xdeadbeefULL);
  EXPECT_EQ(c.ops[3].type, wal::OpType::kDhtErase);
  EXPECT_EQ(c.ops[3].key, 7u);
  EXPECT_EQ(c.ops[4].type, wal::OpType::kLockBump);
  EXPECT_EQ(c.ops[5].type, wal::OpType::kRelease);
  EXPECT_EQ(c.ops[5].blk.raw(), DPtr(0, 1024).raw());
  EXPECT_EQ(log.epochs[1].seq, 2u);
  ASSERT_EQ(log.epochs[1].commits.size(), 2u);
  EXPECT_EQ(log.epochs[1].commits[0].commit_id, 2u);
  EXPECT_EQ(log.epochs[1].commits[1].commit_id, 3u);

  // Skip point: epochs a checkpoint already covers are excluded from the
  // replay set but still advance the high-water marks.
  const wal::RecoveredLog tail = wal::read_log(dir, 0, 1);
  ASSERT_EQ(tail.epochs.size(), 1u);
  EXPECT_EQ(tail.epochs[0].seq, 2u);
  EXPECT_EQ(tail.epoch_hw, 2u);
  EXPECT_EQ(tail.commit_hw, 3u);
}

// ---------------------------------------------------------------------------
// Torn-tail recovery loop: cut the log at every byte of the last record
// ---------------------------------------------------------------------------

TEST(WalTornTail, EveryTruncationOfLastRecordRecoversExactlyTheIntactPrefix) {
  const std::string src = fresh_dir("wal_torn_src");
  // Eager (pipeline-off) commits: one epoch per commit -> epochs 1..4 hold
  // the create and updates p=1,2,3 respectively.
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto db = Database::create(self, wal_cfg(src));
      const std::uint32_t pt = ensure_ptype(db, self);
      DPtr vid;
      {
        Transaction txn(db, self, TxnMode::kWrite);
        auto v = txn.create_vertex(1);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(txn.update_property(*v, pt, PropValue{std::int64_t{0}}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
        vid = v->vid;
      }
      for (std::int64_t i = 1; i <= 3; ++i) {
        Transaction txn(db, self, TxnMode::kWrite);
        EXPECT_EQ(txn.update_property(VertexHandle{vid}, pt, PropValue{i}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
      }
    });
  }

  // Locate the single segment and the last frame's start offset (frame
  // header: magic u32, rank u32, seq u64, payload_len u32 @16, crc u32).
  fs::path seg;
  for (const auto& e : fs::directory_iterator(src))
    if (e.path().extension() == ".seg") {
      EXPECT_TRUE(seg.empty()) << "expected a single segment";
      seg = e.path();
    }
  ASSERT_FALSE(seg.empty());
  std::vector<char> bytes;
  {
    std::ifstream in(seg, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::size_t last_off = 0, off = 0;
  while (off + 24 <= bytes.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + off + 16, 4);
    if (off + 24 + len > bytes.size()) break;
    last_off = off;
    off += 24 + len;
  }
  ASSERT_EQ(off, bytes.size()) << "seed log itself is torn";
  ASSERT_GT(last_off, 0u);

  const std::string scratch = fresh_dir("wal_torn_cut");
  DatabaseConfig rcfg = wal_cfg(scratch);
  rma::Runtime rrt(1);
  for (std::size_t cut = last_off; cut <= bytes.size(); ++cut) {
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    {
      std::ofstream out(fs::path(scratch) / seg.filename(), std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    std::uint64_t recovered = 0, replayed = 0;
    std::int64_t val = -1;
    rrt.run([&](rma::Rank& self) {
      const std::uint64_t replayed0 = self.counters().wal_replayed_epochs;
      auto db = Database::recover(self, rcfg);
      EXPECT_TRUE(db != nullptr) << "cut=" << cut;
      if (db == nullptr) return;
      recovered = db->wal_recovered_commits(self);
      replayed = self.counters().wal_replayed_epochs - replayed0;
      const std::uint32_t pt = ensure_ptype(db, self);
      Transaction r(db, self, TxnMode::kRead);
      auto vh = r.find_vertex(1);
      EXPECT_TRUE(vh.ok()) << "cut=" << cut;
      if (vh.ok()) {
        auto p = r.get_properties(*vh, pt);
        EXPECT_TRUE(p.ok());
        if (p.ok() && !p->empty()) val = std::get<std::int64_t>((*p)[0]);
      }
      (void)r.commit();
    });
    // A cut anywhere inside the last record must recover exactly epochs
    // 1..3 (value 2) -- never a partial fourth epoch. The full file is the
    // intact control (value 3).
    const bool full = cut == bytes.size();
    EXPECT_EQ(recovered, full ? 4u : 3u) << "cut=" << cut;
    EXPECT_EQ(replayed, full ? 4u : 3u) << "cut=" << cut;
    EXPECT_EQ(val, full ? 3 : 2) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Byte-identical traffic: WAL off vs on
// ---------------------------------------------------------------------------

TEST(WalParity, WalOffWindowTrafficIsIdenticalToWalOn) {
  auto run_variant = [](bool wal_on, const std::string& dir) {
    DatabaseConfig cfg = wal_cfg(dir, wal_on);
    cfg.commit_pipeline = true;
    cfg.commit_epoch_txns = 4;
    rma::OpCounters out;
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto db = Database::create(self, cfg);
      const std::uint32_t pt = ensure_ptype(db, self);
      DPtr vid;
      {
        Transaction txn(db, self, TxnMode::kWrite);
        auto v = txn.create_vertex(1);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(txn.update_property(*v, pt, PropValue{std::int64_t{0}}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
        vid = v->vid;
      }
      for (std::int64_t i = 1; i <= 12; ++i) {
        Transaction txn(db, self, TxnMode::kWrite);
        EXPECT_EQ(txn.update_property(VertexHandle{vid}, pt, PropValue{i}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
      }
      db->commit_pipeline(self)->sync(self);
      out = self.counters().snapshot();
    });
    return out;
  };

  const rma::OpCounters off = run_variant(false, "");
  const rma::OpCounters on = run_variant(true, fresh_dir("wal_parity"));

  // The WAL adds zero window operations: every RMA counter matches exactly.
  EXPECT_EQ(off.puts, on.puts);
  EXPECT_EQ(off.gets, on.gets);
  EXPECT_EQ(off.atomics, on.atomics);
  EXPECT_EQ(off.flushes, on.flushes);
  EXPECT_EQ(off.collectives, on.collectives);
  EXPECT_EQ(off.bytes_put, on.bytes_put);
  EXPECT_EQ(off.bytes_get, on.bytes_get);
  EXPECT_EQ(off.remote_ops, on.remote_ops);
  EXPECT_EQ(off.nb_gets, on.nb_gets);
  EXPECT_EQ(off.nb_puts, on.nb_puts);
  EXPECT_EQ(off.nb_atomics, on.nb_atomics);
  EXPECT_EQ(off.batches, on.batches);
  EXPECT_EQ(off.max_batch_ops, on.max_batch_ops);
  EXPECT_EQ(off.gc_epochs, on.gc_epochs);
  EXPECT_EQ(off.gc_enrolled, on.gc_enrolled);

  // Only the log's own counters differ: 13 appended commits, one fsync for
  // the eager create + one per closed 4-commit epoch.
  EXPECT_EQ(off.wal_appends, 0u);
  EXPECT_EQ(off.wal_fsyncs, 0u);
  EXPECT_EQ(on.wal_appends, 13u);
  EXPECT_EQ(on.wal_fsyncs, 4u);
}

// ---------------------------------------------------------------------------
// Teardown drain: destroying a db with an open epoch loses nothing
// ---------------------------------------------------------------------------

TEST(WalTeardown, DestroyingDatabaseWithOpenEpochLosesNoWrites) {
  const std::string dir = fresh_dir("wal_teardown");
  DatabaseConfig cfg = wal_cfg(dir);
  cfg.commit_pipeline = true;
  cfg.commit_epoch_txns = 1000;  // the epoch never closes on its own
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto db = Database::create(self, cfg);
      const std::uint32_t pt = ensure_ptype(db, self);
      DPtr vid;
      {
        Transaction txn(db, self, TxnMode::kWrite);
        auto v = txn.create_vertex(1);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(txn.update_property(*v, pt, PropValue{std::int64_t{0}}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);  // publishes -> eager, sealed
        vid = v->vid;
      }
      for (std::int64_t i = 1; i <= 5; ++i) {
        Transaction txn(db, self, TxnMode::kWrite);
        EXPECT_EQ(txn.update_property(VertexHandle{vid}, pt, PropValue{i}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);  // deferred into the open epoch
      }
      // Regression (graceful-shutdown bugfix): the pipeline epoch is open
      // and the WAL tail unsealed right now; the teardown lease must drain
      // both when db goes out of scope at the end of this lambda.
      EXPECT_EQ(self.counters().gc_epochs, 0u);
      EXPECT_TRUE(db->wal(self)->has_open_epoch());
    });
  }
  rma::Runtime rt2(1);
  rt2.run([&](rma::Rank& self) {
    auto db = Database::recover(self, cfg);
    EXPECT_TRUE(db != nullptr);
    if (db == nullptr) return;
    EXPECT_EQ(db->wal_recovered_commits(self), 6u);
    const std::uint32_t pt = ensure_ptype(db, self);
    Transaction r(db, self, TxnMode::kRead);
    auto vh = r.find_vertex(1);
    EXPECT_TRUE(vh.ok());
    if (vh.ok()) {
      auto p = r.get_properties(*vh, pt);
      EXPECT_TRUE(p.ok());
      if (p.ok() && !p->empty())
        EXPECT_EQ(std::get<std::int64_t>((*p)[0]), 5)
            << "deferred commits lost at teardown";
    }
    (void)r.commit();
  });
}

// ---------------------------------------------------------------------------
// commit_max_delay_ns close condition seals WAL epochs (and they recover)
// ---------------------------------------------------------------------------

TEST(WalSeal, MaxDelayEpochCloseSealsOneWalEpochPerFlushEpoch) {
  const std::string dir = fresh_dir("wal_maxdelay");
  DatabaseConfig cfg = wal_cfg(dir);
  cfg.commit_pipeline = true;
  cfg.commit_epoch_txns = 1000;
  cfg.commit_max_delay_ns = 1000.0;
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto db = Database::create(self, cfg);
      const std::uint32_t pt = ensure_ptype(db, self);
      DPtr vid;
      {
        Transaction txn(db, self, TxnMode::kWrite);
        auto v = txn.create_vertex(1);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(txn.update_property(*v, pt, PropValue{std::int64_t{0}}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
        vid = v->vid;
      }
      const std::uint64_t epochs0 = self.counters().gc_epochs;
      const std::uint64_t fsyncs0 = self.counters().wal_fsyncs;
      // Commits 2k and 2k+1 share an epoch: the first opens it (age 0), the
      // simulated clock ages past the knob, the second closes it.
      for (std::int64_t i = 0; i < 10; ++i) {
        Transaction txn(db, self, TxnMode::kWrite);
        EXPECT_EQ(txn.update_property(VertexHandle{vid}, pt, PropValue{i}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
        self.charge(2000.0);  // modeled idle time between commits
      }
      EXPECT_EQ(self.counters().gc_epochs - epochs0, 5u);
      // One group fsync per delay-closed flush epoch, none elsewhere.
      EXPECT_EQ(self.counters().wal_fsyncs - fsyncs0, 5u);
    });
  }
  // Everything the delay-closed epochs sealed is recoverable.
  rma::Runtime rt2(1);
  rt2.run([&](rma::Rank& self) {
    auto db = Database::recover(self, cfg);
    EXPECT_TRUE(db != nullptr);
    if (db == nullptr) return;
    EXPECT_EQ(db->wal_recovered_commits(self), 11u);
    const std::uint32_t pt = ensure_ptype(db, self);
    Transaction r(db, self, TxnMode::kRead);
    auto vh = r.find_vertex(1);
    EXPECT_TRUE(vh.ok());
    if (vh.ok()) {
      auto p = r.get_properties(*vh, pt);
      EXPECT_TRUE(p.ok());
      if (p.ok() && !p->empty()) EXPECT_EQ(std::get<std::int64_t>((*p)[0]), 9);
    }
    (void)r.commit();
  });
}

// ---------------------------------------------------------------------------
// Checkpoints: truncation behind the snapshot, replay bounded to the tail
// ---------------------------------------------------------------------------

TEST(WalCheckpoint, CheckpointTruncatesLogAndBoundsReplayToTail) {
  const std::string dir = fresh_dir("wal_ckpt");
  const DatabaseConfig cfg = wal_cfg(dir);
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto db = Database::create(self, cfg);
      const std::uint32_t pt = ensure_ptype(db, self);
      for (std::uint64_t i = 1; i <= 4; ++i) {
        Transaction txn(db, self, TxnMode::kWrite);
        auto v = txn.create_vertex(i);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(txn.update_property(*v, pt,
                                      PropValue{static_cast<std::int64_t>(i)}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
      }
      EXPECT_EQ(db->checkpoint(self), Status::kOk);
      for (std::uint64_t i = 5; i <= 6; ++i) {
        Transaction txn(db, self, TxnMode::kWrite);
        auto v = txn.create_vertex(i);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(txn.update_property(*v, pt,
                                      PropValue{static_cast<std::int64_t>(i)}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
      }
    });
  }
  // The snapshot exists and every surviving segment starts after it
  // (filenames encode the first epoch: wal-r0-e%020llu.seg).
  EXPECT_TRUE(fs::exists(fs::path(dir) / "checkpoint.bin"));
  bool any_seg = false;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".seg") continue;
    any_seg = true;
    const std::string stem = e.path().stem().string();  // wal-r0-e<epoch>
    const std::size_t at = stem.rfind('e');
    ASSERT_NE(at, std::string::npos);
    EXPECT_GE(std::stoull(stem.substr(at + 1)), 5u)
        << "segment behind the checkpoint survived truncation: " << stem;
  }
  EXPECT_TRUE(any_seg);

  rma::Runtime rt2(1);
  rt2.run([&](rma::Rank& self) {
    const std::uint64_t replayed0 = self.counters().wal_replayed_epochs;
    auto db = Database::recover(self, cfg);
    EXPECT_TRUE(db != nullptr);
    if (db == nullptr) return;
    // Only the two post-checkpoint epochs replay; the rest restore from the
    // snapshot (including the metadata registry: the ptype must pre-exist).
    EXPECT_EQ(self.counters().wal_replayed_epochs - replayed0, 2u);
    EXPECT_EQ(db->wal_recovered_commits(self), 6u);
    auto pre = db->ptype_from_name(self, "p");
    EXPECT_TRUE(pre.ok()) << "checkpoint lost the metadata registry";
    const std::uint32_t pt = ensure_ptype(db, self);
    for (std::uint64_t i = 1; i <= 6; ++i) {
      Transaction r(db, self, TxnMode::kRead);
      auto vh = r.find_vertex(i);
      EXPECT_TRUE(vh.ok()) << "vertex " << i;
      if (vh.ok()) {
        auto p = r.get_properties(*vh, pt);
        EXPECT_TRUE(p.ok());
        if (p.ok() && !p->empty())
          EXPECT_EQ(std::get<std::int64_t>((*p)[0]),
                    static_cast<std::int64_t>(i));
      }
      (void)r.commit();
    }
  });
}

TEST(WalCheckpoint, CheckpointAfterRecoveryTruncatesPreRestartSegments) {
  const std::string dir = fresh_dir("wal_ckpt_restart");
  const DatabaseConfig cfg = wal_cfg(dir);
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto db = Database::create(self, cfg);
      const std::uint32_t pt = ensure_ptype(db, self);
      for (std::uint64_t i = 1; i <= 4; ++i) {
        Transaction txn(db, self, TxnMode::kWrite);
        auto v = txn.create_vertex(i);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(txn.update_property(*v, pt,
                                      PropValue{static_cast<std::int64_t>(i)}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
      }
    });
  }
  // Restart, recover, checkpoint: the segment that predates the restart was
  // only ever known to the dead writer, so truncation must work off the
  // recovery scan (reset_hw's adopted-segment list), not in-memory state.
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto db = Database::recover(self, cfg);
      EXPECT_TRUE(db != nullptr);
      if (db == nullptr) return;
      EXPECT_EQ(db->wal_recovered_commits(self), 4u);
      EXPECT_EQ(db->checkpoint(self), Status::kOk);
    });
  }
  EXPECT_TRUE(fs::exists(fs::path(dir) / "checkpoint.bin"));
  for (const auto& e : fs::directory_iterator(dir))
    EXPECT_NE(e.path().extension(), ".seg")
        << "pre-restart segment survived the post-recovery checkpoint: "
        << e.path();
  // Third incarnation: the checkpoint alone carries the full state.
  rma::Runtime rt3(1);
  rt3.run([&](rma::Rank& self) {
    const std::uint64_t replayed0 = self.counters().wal_replayed_epochs;
    auto db = Database::recover(self, cfg);
    EXPECT_TRUE(db != nullptr);
    if (db == nullptr) return;
    EXPECT_EQ(self.counters().wal_replayed_epochs - replayed0, 0u);
    EXPECT_EQ(db->wal_recovered_commits(self), 4u);
    const std::uint32_t pt = ensure_ptype(db, self);
    for (std::uint64_t i = 1; i <= 4; ++i) {
      Transaction r(db, self, TxnMode::kRead);
      auto vh = r.find_vertex(i);
      EXPECT_TRUE(vh.ok()) << "vertex " << i;
      if (vh.ok()) {
        auto p = r.get_properties(*vh, pt);
        EXPECT_TRUE(p.ok());
        if (p.ok() && !p->empty())
          EXPECT_EQ(std::get<std::int64_t>((*p)[0]),
                    static_cast<std::int64_t>(i));
      }
      (void)r.commit();
    }
  });
}

TEST(WalCheckpoint, CadenceWritesCheckpointsAutomatically) {
  const std::string dir = fresh_dir("wal_cadence");
  DatabaseConfig cfg = wal_cfg(dir);
  cfg.wal_checkpoint_epochs = 2;  // single-driver stream: cadence is safe
  {
    rma::Runtime rt(1);
    rt.run([&](rma::Rank& self) {
      auto db = Database::create(self, cfg);
      const std::uint32_t pt = ensure_ptype(db, self);
      for (std::uint64_t i = 1; i <= 5; ++i) {
        Transaction txn(db, self, TxnMode::kWrite);
        auto v = txn.create_vertex(i);
        EXPECT_TRUE(v.ok());
        EXPECT_EQ(txn.update_property(*v, pt,
                                      PropValue{static_cast<std::int64_t>(i)}),
                  Status::kOk);
        EXPECT_EQ(txn.commit(), Status::kOk);
      }
    });
  }
  EXPECT_TRUE(fs::exists(fs::path(dir) / "checkpoint.bin"));
  rma::Runtime rt2(1);
  rt2.run([&](rma::Rank& self) {
    const std::uint64_t replayed0 = self.counters().wal_replayed_epochs;
    auto db = Database::recover(self, cfg);
    EXPECT_TRUE(db != nullptr);
    if (db == nullptr) return;
    // Checkpoints landed at epochs 2 and 4: only epoch 5 replays.
    EXPECT_EQ(self.counters().wal_replayed_epochs - replayed0, 1u);
    EXPECT_EQ(db->wal_recovered_commits(self), 5u);
    const std::uint32_t pt = ensure_ptype(db, self);
    for (std::uint64_t i = 1; i <= 5; ++i) {
      Transaction r(db, self, TxnMode::kRead);
      auto vh = r.find_vertex(i);
      EXPECT_TRUE(vh.ok()) << "vertex " << i;
      (void)pt;
      (void)r.commit();
    }
  });
}

// ---------------------------------------------------------------------------
// Segment-open failure: bounded, visible durability loss
// ---------------------------------------------------------------------------

TEST(WalSeal, SegmentOpenFailureDropsTheEpochBoundedlyAndCountsIt) {
  // A log directory that cannot exist: its parent is a regular file.
  const fs::path parent = fs::temp_directory_path() / "gdi_wal_badparent";
  fs::remove_all(parent);
  {
    std::ofstream out(parent);
    out << "x";
  }
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    wal::WalConfig wc;
    wc.dir = (parent / "wal").string();
    wal::WalWriter w(0, wc);
    wal::CommitRecord rec;
    rec.dht_insert(1, 2);
    EXPECT_EQ(w.append(self, rec), 1u);
    w.seal(self);
    // The epoch is dropped -- not silently retained: open_ must not grow
    // across failed seals, and the loss is counted.
    EXPECT_FALSE(w.has_open_epoch());
    EXPECT_EQ(w.epoch_hw(), 0u);
    EXPECT_EQ(self.counters().wal_io_errors, 1u);
    EXPECT_EQ(self.counters().wal_fsyncs, 0u);
    // The run continues: later appends still get commit ids, later seals
    // retry the open and keep accounting the loss.
    EXPECT_EQ(w.append(self, rec), 2u);
    w.seal(self);
    EXPECT_FALSE(w.has_open_epoch());
    EXPECT_EQ(self.counters().wal_io_errors, 2u);
  });
  fs::remove_all(parent);
}

TEST(WalSeal, SegmentWriteFailureDropsTheEpochAndTheNextSealRecovers) {
  // The next segment is a symlink to /dev/full: it opens, but every write
  // (flush) fails with ENOSPC.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const fs::path dir = fs::temp_directory_path() / "gdi_wal_devfull";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::create_symlink("/dev/full", dir / "wal-r0-e00000000000000000001.seg");
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    wal::WalConfig wc;
    wc.dir = dir.string();
    wal::WalWriter w(0, wc);
    wal::CommitRecord rec;
    rec.dht_insert(1, 2);
    EXPECT_EQ(w.append(self, rec), 1u);
    w.seal(self);
    EXPECT_GT(self.counters().wal_io_errors, 0u);
    EXPECT_FALSE(w.has_open_epoch());
    EXPECT_EQ(w.epoch_hw(), 0u) << "the failed epoch is not reported sealed";
    EXPECT_EQ(self.counters().wal_fsyncs, 0u);
    // The failed segment held no intact frame and is gone; the next seal
    // writes a fresh one that recovery reads back.
    const std::uint64_t errors = self.counters().wal_io_errors;
    EXPECT_EQ(w.append(self, rec), 2u);
    w.seal(self);
    EXPECT_EQ(self.counters().wal_io_errors, errors);
    EXPECT_EQ(w.epoch_hw(), 1u);
    const wal::RecoveredLog log = wal::read_log(wc.dir, 0, 0);
    EXPECT_FALSE(log.torn_tail);
    EXPECT_EQ(log.epoch_hw, 1u);
    EXPECT_EQ(log.commit_hw, 2u);

    // A checkpoint whose temp file cannot be written is refused and counted.
    fs::create_symlink("/dev/full", dir / "checkpoint.tmp");
    wal::Checkpoint ck;
    ck.sections.push_back({std::byte{1}});
    ck.epoch_hw.push_back(1);
    ck.commit_hw.push_back(2);
    EXPECT_FALSE(wal::write_checkpoint(self, wc, ck));
    EXPECT_EQ(self.counters().wal_io_errors, errors + 1);
    EXPECT_FALSE(fs::exists(dir / "checkpoint.bin"));
  });
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// FaultInjector semantics
// ---------------------------------------------------------------------------

TEST(FaultInjector, DecisionsAreAPureFunctionOfSeedAndOrder) {
  rma::FaultConfig fc;
  fc.seed = 7;
  fc.drop_put_p = 0.3;
  fc.delay_p = 0.2;
  rma::FaultInjector a(fc), b(fc);
  constexpr rma::FaultOp kOps[] = {rma::FaultOp::kPut, rma::FaultOp::kFaa,
                                   rma::FaultOp::kFlush};
  bool any = false;
  for (int i = 0; i < 1000; ++i) {
    const auto ra = a.on_op(kOps[i % 3]);
    const auto rb = b.on_op(kOps[i % 3]);
    EXPECT_EQ(ra.drop, rb.drop);
    EXPECT_EQ(ra.delay_ns, rb.delay_ns);
    EXPECT_EQ(ra.fail, rb.fail);
    any = any || ra.any();
  }
  EXPECT_TRUE(any);

  // A different seed diverges somewhere in the sequence.
  rma::FaultConfig fc2 = fc;
  fc2.seed = 8;
  rma::FaultInjector c(fc2), d(fc);
  bool diverged = false;
  for (int i = 0; i < 1000 && !diverged; ++i) {
    const auto rc = c.on_op(kOps[i % 3]);
    const auto rd = d.on_op(kOps[i % 3]);
    diverged = rc.drop != rd.drop || rc.delay_ns != rd.delay_ns;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, KillSwitchGatesOnItsEpochAndPoisonsAfterFiring) {
  rma::FaultConfig fc;
  fc.kill_at = rma::KillPoint::kEpochSeal;
  fc.kill_epoch = 3;
  rma::FaultInjector f(fc);
  EXPECT_FALSE(f.should_kill(rma::KillPoint::kEpochSeal, 2));
  EXPECT_FALSE(f.should_kill(rma::KillPoint::kMidAppend, 3));  // wrong point
  EXPECT_TRUE(f.should_kill(rma::KillPoint::kEpochSeal, 3));
  EXPECT_TRUE(f.should_kill(rma::KillPoint::kEpochSeal, 4));  // >= arms too
  f.mark_killed();
  EXPECT_TRUE(f.killed());
  EXPECT_FALSE(f.should_kill(rma::KillPoint::kEpochSeal, 3)) << "fires once";
  EXPECT_FALSE(f.on_op(rma::FaultOp::kPut).any()) << "poisoned injector acts";

  // Mid-checkpoint kills are not epoch-gated (checkpoints have no seq).
  rma::FaultConfig g;
  g.kill_at = rma::KillPoint::kMidCheckpoint;
  rma::FaultInjector h(g);
  EXPECT_TRUE(h.should_kill(rma::KillPoint::kMidCheckpoint, 0));
}

TEST(FaultInjector, DroppedPutLosesTheDataButStillPaysTheCost) {
  rma::Runtime rt(1);
  rt.run([&](rma::Rank& self) {
    auto win = rma::Window::create(self, 4096);
    rma::FaultConfig fc;
    fc.drop_put_p = 1.0;
    rma::FaultInjector inj(fc);
    self.set_fault_injector(&inj);
    const std::uint64_t v = 0x1122334455667788ULL;
    win->put(self, &v, sizeof v, 0, 0);
    // The write was "sent" (counted + charged) and lost (memory untouched).
    EXPECT_EQ(self.counters().puts, 1u);
    EXPECT_EQ(self.counters().bytes_put, 8u);
    EXPECT_EQ(self.counters().faults_injected, 1u);
    std::uint64_t back = 1;
    std::memcpy(&back, win->local_base(0), sizeof back);
    EXPECT_EQ(back, 0u) << "dropped PUT still moved data";

    self.set_fault_injector(nullptr);
    win->put(self, &v, sizeof v, 0, 0);
    std::memcpy(&back, win->local_base(0), sizeof back);
    EXPECT_EQ(back, v);
  });
}

// ---------------------------------------------------------------------------
// OpCounters snapshot/delta
// ---------------------------------------------------------------------------

TEST(OpCounters, SnapshotDeltaIsolatesAPhase) {
  rma::OpCounters c;
  c.puts = 10;
  c.bytes_put = 100;
  c.max_batch_ops = 4;
  c.wal_appends = 2;
  const rma::OpCounters phase0 = c.snapshot();
  c.puts += 5;
  c.bytes_put += 50;
  c.atomics = 3;
  c.max_batch_ops = 9;
  c.wal_appends += 1;
  c.wal_fsyncs = 1;
  c.faults_injected = 2;
  const rma::OpCounters d = c.delta(phase0);
  EXPECT_EQ(d.puts, 5u);
  EXPECT_EQ(d.bytes_put, 50u);
  EXPECT_EQ(d.atomics, 3u);
  EXPECT_EQ(d.gets, 0u);
  // High-water marks cannot be recovered by subtraction; delta keeps the
  // current value.
  EXPECT_EQ(d.max_batch_ops, 9u);
  EXPECT_EQ(d.wal_appends, 1u);
  EXPECT_EQ(d.wal_fsyncs, 1u);
  EXPECT_EQ(d.faults_injected, 2u);
}

TEST(OpCounters, EveryTableEntryFoldsSubtractsAndPrints) {
  // Distinct values per entry; every entry of `a` exceeds every entry of `b`,
  // so delta never wraps and the Max entry's maximum is `a`'s value.
  rma::OpCounters a, b;
  std::uint64_t i = 0;
  for (const rma::OpCounterField& f : rma::kOpCounterFields) {
    a.*f.member = 1000 + 2 * i;
    b.*f.member = 1 + i;
    ++i;
  }
  rma::OpCounters ab = a;
  ab += b;
  rma::OpCounters ba = b;
  ba += a;
  const rma::OpCounters d = a.delta(b);
  for (const rma::OpCounterField& f : rma::kOpCounterFields) {
    SCOPED_TRACE(f.name);
    const bool is_max = f.kind == rma::CounterKind::Max;
    EXPECT_EQ(is_max, std::string(f.name) == "max_batch_ops");
    const std::uint64_t folded = is_max ? a.*f.member : a.*f.member + b.*f.member;
    EXPECT_EQ(ab.*f.member, folded);
    EXPECT_EQ(ba.*f.member, folded);
    EXPECT_EQ(d.*f.member, is_max ? a.*f.member : a.*f.member - b.*f.member);
  }

  auto printed_names = [](const rma::OpCounters& c) {
    std::vector<std::string> names;
    std::istringstream line(stats::counters_line(c));
    for (std::string tok; line >> tok;) names.push_back(tok.substr(0, tok.find('=')));
    return names;
  };
  std::vector<std::string> all;
  for (const rma::OpCounterField& f : rma::kOpCounterFields) all.emplace_back(f.name);
  EXPECT_EQ(printed_names(a), all);
  a.gets = 0;
  all.erase(std::find(all.begin(), all.end(), "gets"));
  EXPECT_EQ(printed_names(a), all);
}

}  // namespace
}  // namespace gdi
