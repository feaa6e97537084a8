// RMA windows: registered memory regions addressable by one-sided operations.
//
// Mirrors MPI-3 RMA windows as used by the paper (puts, gets, remote atomics,
// flushes -- paper Section 5.1). Each rank contributes `bytes_per_rank` of
// registered memory; any rank may read/write/CAS any other rank's region
// without that rank's participation ("fully-offloaded one-sided").
//
// Synchronization contract (same as real RDMA): 64-bit words manipulated with
// the atomic_* operations are linearizable; plain put/get data must be
// protected by a higher-level protocol (the paper's RW locks / lock-free
// publication), which all code in this repository follows.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/dptr.hpp"
#include "rma/fault.hpp"
#include "rma/runtime.hpp"

namespace gdi::rma {

class Window {
 public:
  /// Collective constructor: all ranks call; all receive the same window.
  [[nodiscard]] static std::shared_ptr<Window> create(Rank& self,
                                                      std::size_t bytes_per_rank) {
    auto win = self.collective_make<Window>([&] {
      return std::make_shared<Window>(self.nranks(), bytes_per_rank);
    });
    return win;
  }

  /// Fixed-size window: one segment per rank, fully committed up front.
  Window(int nranks, std::size_t bytes_per_rank)
      : Window(nranks, bytes_per_rank, 1) {}

  /// Growable window: every rank's region is a *reserved* address range of
  /// `max_segments` segments of `seg_bytes_per_rank` bytes, of which only
  /// segment 0 is committed (allocated + registered) up front. Any rank may
  /// later commit further segments with ensure_segments(); committed memory
  /// is zero-filled and immediately addressable by every rank's one-sided
  /// operations. This mirrors MPI dynamic windows / pre-registered reserved
  /// VA on real RDMA hardware: *publication* of grown structures stays
  /// one-sided (a remote CAS on some directory word owned by the data
  /// structure); only the local registration bookkeeping is internal.
  Window(int nranks, std::size_t seg_bytes_per_rank, std::size_t max_segments)
      : nranks_(nranks),
        seg_bytes_(align_up(seg_bytes_per_rank)),
        max_segments_(max_segments == 0 ? 1 : max_segments),
        segments_(std::make_unique<std::atomic<Segment*>[]>(
            max_segments == 0 ? 1 : max_segments)) {
    for (std::size_t s = 0; s < max_segments_; ++s)
      segments_[s].store(nullptr, std::memory_order_relaxed);
    commit_segment_locked(0);
    committed_.store(1, std::memory_order_release);
  }

  ~Window() {
    for (std::size_t s = 0; s < max_segments_; ++s)
      delete segments_[s].load(std::memory_order_acquire);
  }
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  /// Committed bytes per rank (grows with ensure_segments).
  [[nodiscard]] std::size_t bytes_per_rank() const {
    return committed_.load(std::memory_order_acquire) * seg_bytes_;
  }
  [[nodiscard]] std::size_t segment_bytes() const { return seg_bytes_; }
  [[nodiscard]] std::size_t max_segments() const { return max_segments_; }
  [[nodiscard]] std::size_t committed_segments() const {
    return committed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int nranks() const { return nranks_; }

  /// Commit (allocate + register + zero-fill) segments so that at least
  /// `count` are available, clamped to max_segments(); returns the committed
  /// segment count. Idempotent and safe to race: registration is serialized
  /// internally, remote accesses never block. The caller still owns making
  /// the new memory *reachable* (publishing a reference via a remote atomic).
  std::size_t ensure_segments(Rank& self, std::size_t count) {
    if (count > max_segments_) count = max_segments_;
    std::size_t cur = committed_.load(std::memory_order_acquire);
    if (cur >= count) return cur;
    std::lock_guard<std::mutex> lk(grow_mu_);
    cur = committed_.load(std::memory_order_relaxed);
    while (cur < count) {
      commit_segment_locked(cur);
      committed_.store(cur + 1, std::memory_order_release);
      ++cur;
      // Registration cost stand-in (memory pinning + rkey exchange would be
      // local work plus one control message on real hardware).
      self.charge(self.net().alpha_remote_ns);
    }
    return cur;
  }

  /// Direct pointer into a rank's region. Only valid for the owning rank's
  /// own initialization or for test assertions -- real accesses go through
  /// the one-sided operations below.
  [[nodiscard]] std::byte* local_base(int rank, std::size_t segment = 0) {
    Segment* seg = segments_[segment].load(std::memory_order_acquire);
    assert(seg != nullptr);
    return seg->regions[static_cast<std::size_t>(rank)].get();
  }

  // --- one-sided data movement ---------------------------------------------

  void get(Rank& self, void* dst, std::size_t n, std::uint32_t target,
           std::uint64_t offset) {
    assert(in_one_segment(offset, n));
    std::memcpy(dst, addr(target, offset), n);
    charge_data(self, n, target, /*is_put=*/false);
  }

  void put(Rank& self, const void* src, std::size_t n, std::uint32_t target,
           std::uint64_t offset) {
    assert(in_one_segment(offset, n));
    if (!inject(self, FaultOp::kPut)) std::memcpy(addr(target, offset), src, n);
    charge_data(self, n, target, /*is_put=*/true);
  }

  void get(Rank& self, void* dst, std::size_t n, DPtr p) {
    get(self, dst, n, p.rank(), p.offset());
  }
  void put(Rank& self, const void* src, std::size_t n, DPtr p) {
    put(self, src, n, p.rank(), p.offset());
  }

  // --- nonblocking data movement (batch engine) ----------------------------
  //
  // Same one-sided semantics as get/put, but the latency/bandwidth cost is
  // deferred to the issuing rank's next Rank::flush_all(), which charges the
  // whole outstanding batch the *overlapped* cost max(alpha) + sum(beta*bytes)
  // (per NIC queue round) instead of sum(alpha + beta*bytes). Data movement
  // happens eagerly in-process; as with real RDMA, the caller must not rely
  // on completion (reads valid / writes visible-in-order) before the flush.

  NbRequest get_nb(Rank& self, void* dst, std::size_t n, std::uint32_t target,
                   std::uint64_t offset) {
    assert(in_one_segment(offset, n));
    std::memcpy(dst, addr(target, offset), n);
    return enqueue_data(self, n, target, /*is_put=*/false);
  }

  NbRequest put_nb(Rank& self, const void* src, std::size_t n, std::uint32_t target,
                   std::uint64_t offset) {
    assert(in_one_segment(offset, n));
    if (!inject(self, FaultOp::kPut)) std::memcpy(addr(target, offset), src, n);
    return enqueue_data(self, n, target, /*is_put=*/true);
  }

  NbRequest get_nb(Rank& self, void* dst, std::size_t n, DPtr p) {
    return get_nb(self, dst, n, p.rank(), p.offset());
  }
  NbRequest put_nb(Rank& self, const void* src, std::size_t n, DPtr p) {
    return put_nb(self, src, n, p.rank(), p.offset());
  }

  /// A GET that was posted but whose bytes are unwanted: charged and counted
  /// exactly like get_nb, copies nothing. A read lock that rode its block
  /// GET in the same round and was denied ends here -- the NIC sent the
  /// read, but bytes a writer may be changing are never looked at.
  NbRequest get_nb_discard(Rank& self, std::size_t n, std::uint32_t target) {
    return enqueue_data(self, n, target, /*is_put=*/false);
  }

  /// The bytes of a GET posted with get_nb_discard, taken after its round
  /// completed, at no further charge. A speculative read posts first and
  /// learns later whether its bytes are wanted; in-process the copy waits
  /// for that answer, which is exact as long as the caller's lock has kept
  /// the bytes still since the post. A refuted read is never looked at.
  void take_posted(void* dst, std::size_t n, DPtr p) {
    assert(in_one_segment(p.offset(), n));
    std::memcpy(dst, addr(p.rank(), p.offset()), n);
  }

  /// Nonblocking 64-bit atomic read: the value is loaded (linearizably) at
  /// issue time into *out; the latency joins the current batch. Used by
  /// read-side multi-lookups that overlap many independent atomic fetches.
  NbRequest atomic_get_u64_nb(Rank& self, std::uint32_t target, std::uint64_t offset,
                              std::uint64_t* out) {
    *out = word(target, offset).load(std::memory_order_acquire);
    const auto& p = self.net();
    const bool remote = target != static_cast<std::uint32_t>(self.id());
    auto& c = self.counters();
    c.atomics += 1;
    c.nb_atomics += 1;
    if (remote) c.remote_ops += 1;
    return self.enqueue_nb(remote ? p.alpha_atomic_remote_ns : p.alpha_atomic_local_ns,
                           0.0);
  }
  NbRequest atomic_get_u64_nb(Rank& self, DPtr p, std::uint64_t* out) {
    return atomic_get_u64_nb(self, p.rank(), p.offset(), out);
  }

  /// Nonblocking 64-bit atomic write: the store happens (linearizably) at
  /// issue time; the latency joins the current batch. Used by batched DHT
  /// inserts to write entry fields of many independent entries with one
  /// overlapped round instead of one latency per word.
  NbRequest atomic_put_u64_nb(Rank& self, std::uint32_t target, std::uint64_t offset,
                              std::uint64_t v) {
    word(target, offset).store(v, std::memory_order_release);
    const auto& p = self.net();
    const bool remote = target != static_cast<std::uint32_t>(self.id());
    auto& c = self.counters();
    c.atomics += 1;
    c.nb_atomics += 1;
    if (remote) c.remote_ops += 1;
    return self.enqueue_nb(remote ? p.alpha_atomic_remote_ns : p.alpha_atomic_local_ns,
                           0.0);
  }
  NbRequest atomic_put_u64_nb(Rank& self, DPtr p, std::uint64_t v) {
    return atomic_put_u64_nb(self, p.rank(), p.offset(), v);
  }

  /// Nonblocking fetch-and-add: executes (linearizably) at issue time,
  /// writing the previous value to *prev_out (if non-null); the latency
  /// joins the current batch. Lock releases ride this -- a commit drops all
  /// its read locks in one overlapped round instead of one serial atomic per
  /// held lock.
  NbRequest faa_u64_nb(Rank& self, std::uint32_t target, std::uint64_t offset,
                       std::int64_t add, std::uint64_t* prev_out = nullptr) {
    (void)inject(self, FaultOp::kFaa);
    const std::uint64_t prev = word(target, offset)
                                   .fetch_add(static_cast<std::uint64_t>(add),
                                              std::memory_order_acq_rel);
    if (prev_out != nullptr) *prev_out = prev;
    const auto& p = self.net();
    const bool remote = target != static_cast<std::uint32_t>(self.id());
    auto& c = self.counters();
    c.atomics += 1;
    c.nb_atomics += 1;
    if (remote) c.remote_ops += 1;
    return self.enqueue_nb(remote ? p.alpha_atomic_remote_ns : p.alpha_atomic_local_ns,
                           0.0);
  }
  NbRequest faa_u64_nb(Rank& self, DPtr p, std::int64_t add) {
    return faa_u64_nb(self, p.rank(), p.offset(), add);
  }

  /// Fetch-flavored nonblocking FAA (MPI_Fetch_and_op shape): like faa_u64_nb,
  /// but the caller depends on the fetched previous value, so *prev_out is
  /// mandatory and -- on a real backend -- only valid after the enclosing
  /// flush completes. In-process the atomic executes at issue time, so the
  /// value is stable immediately; call sites still treat the next completion
  /// point as the earliest moment they may act on it remotely. The write-side
  /// cache protocol rides this: a committing writer's unlock fetches the lock
  /// word it released, learning the post-unlock version it re-stamps its
  /// shared-cache entry with (BlockStore::write_unlock_fetch).
  NbRequest faa_fetch_u64_nb(Rank& self, std::uint32_t target, std::uint64_t offset,
                             std::int64_t add, std::uint64_t* prev_out) {
    assert(prev_out != nullptr);
    return faa_u64_nb(self, target, offset, add, prev_out);
  }
  NbRequest faa_fetch_u64_nb(Rank& self, DPtr p, std::int64_t add,
                             std::uint64_t* prev_out) {
    return faa_fetch_u64_nb(self, p.rank(), p.offset(), add, prev_out);
  }

  /// Nonblocking compare-and-swap: executes (linearizably) at issue time,
  /// writing the previous value to *prev_out; the latency joins the current
  /// batch. Success iff *prev_out == expected after the next flush_all().
  /// Used by batched lock acquisition, which overlaps one CAS round across
  /// many independent lock words.
  NbRequest cas_u64_nb(Rank& self, std::uint32_t target, std::uint64_t offset,
                       std::uint64_t expected, std::uint64_t desired,
                       std::uint64_t* prev_out) {
    std::uint64_t e = expected;
    word(target, offset).compare_exchange_strong(e, desired, std::memory_order_acq_rel,
                                                 std::memory_order_acquire);
    *prev_out = e;
    const auto& p = self.net();
    const bool remote = target != static_cast<std::uint32_t>(self.id());
    auto& c = self.counters();
    c.atomics += 1;
    c.nb_atomics += 1;
    if (remote) c.remote_ops += 1;
    return self.enqueue_nb(remote ? p.alpha_atomic_remote_ns : p.alpha_atomic_local_ns,
                           0.0);
  }
  NbRequest cas_u64_nb(Rank& self, DPtr p, std::uint64_t expected,
                       std::uint64_t desired, std::uint64_t* prev_out) {
    return cas_u64_nb(self, p.rank(), p.offset(), expected, desired, prev_out);
  }

  // --- remote atomics (AGET / APUT / CAS / FAA on 64-bit words) ------------

  [[nodiscard]] std::uint64_t atomic_get_u64(Rank& self, std::uint32_t target,
                                             std::uint64_t offset) {
    charge_atomic(self, target);
    return word(target, offset).load(std::memory_order_acquire);
  }

  void atomic_put_u64(Rank& self, std::uint32_t target, std::uint64_t offset,
                      std::uint64_t v) {
    charge_atomic(self, target);
    word(target, offset).store(v, std::memory_order_release);
  }

  /// Compare-and-swap; returns the previous value (paper's CAS semantics:
  /// success iff the return value equals `expected`).
  [[nodiscard]] std::uint64_t cas_u64(Rank& self, std::uint32_t target,
                                      std::uint64_t offset, std::uint64_t expected,
                                      std::uint64_t desired) {
    charge_atomic(self, target);
    std::uint64_t e = expected;
    word(target, offset).compare_exchange_strong(e, desired, std::memory_order_acq_rel,
                                                 std::memory_order_acquire);
    return e;
  }

  /// Fetch-and-add; returns the previous value.
  [[nodiscard]] std::uint64_t faa_u64(Rank& self, std::uint32_t target,
                                      std::uint64_t offset, std::int64_t add) {
    (void)inject(self, FaultOp::kFaa);
    charge_atomic(self, target);
    return word(target, offset).fetch_add(static_cast<std::uint64_t>(add),
                                          std::memory_order_acq_rel);
  }

  [[nodiscard]] std::uint64_t atomic_get_u64(Rank& self, DPtr p) {
    return atomic_get_u64(self, p.rank(), p.offset());
  }
  void atomic_put_u64(Rank& self, DPtr p, std::uint64_t v) {
    atomic_put_u64(self, p.rank(), p.offset(), v);
  }
  [[nodiscard]] std::uint64_t cas_u64(Rank& self, DPtr p, std::uint64_t expected,
                                      std::uint64_t desired) {
    return cas_u64(self, p.rank(), p.offset(), expected, desired);
  }
  [[nodiscard]] std::uint64_t faa_u64(Rank& self, DPtr p, std::int64_t add) {
    return faa_u64(self, p.rank(), p.offset(), add);
  }

  /// Completion fence for outstanding (conceptually non-blocking) operations
  /// targeting `target`. In-process operations complete eagerly, so the fence
  /// only charges the cost model, but call sites keep the same structure a
  /// real RDMA implementation requires.
  void flush(Rank& self, std::uint32_t target) {
    (void)target;
    (void)inject(self, FaultOp::kFlush);
    self.charge(self.net().alpha_flush_ns);
    self.counters().flushes += 1;
  }
  void flush_all(Rank& self) { flush(self, static_cast<std::uint32_t>(self.id())); }

 private:
  /// Fault-injection hook (rma/fault.hpp). Consults the rank's injector, if
  /// any, for this op; charges delays, raises FaultKill on a fail decision,
  /// and returns true when a PUT's data movement must be dropped (the cost is
  /// still charged by the caller -- the write was "sent" and lost).
  static bool inject(Rank& self, FaultOp op) {
    FaultInjector* f = self.faults();
    if (f == nullptr) [[likely]]
      return false;
    const FaultInjector::Action a = f->on_op(op);
    if (a.any()) self.counters().faults_injected += 1;
    if (a.delay_ns > 0.0) self.charge(a.delay_ns);
    if (a.fail) {
      f->mark_killed();
      throw FaultKill("injected data-plane failure");
    }
    return a.drop;
  }

  /// One committed slab: every rank's `seg_bytes_` region for one segment.
  struct Segment {
    std::vector<std::unique_ptr<std::byte[]>> regions;
  };

  [[nodiscard]] static std::size_t align_up(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

  /// Accesses must not straddle a segment boundary (segments are distinct
  /// registered regions; fixed windows have one segment, so any in-bounds
  /// access qualifies).
  [[nodiscard]] bool in_one_segment(std::uint64_t offset, std::size_t n) const {
    if (n == 0) return offset <= bytes_per_rank();
    return offset + n <= bytes_per_rank() &&
           offset / seg_bytes_ == (offset + n - 1) / seg_bytes_;
  }

  // Requires grow_mu_ (or single-threaded construction).
  void commit_segment_locked(std::size_t s) {
    auto* seg = new Segment;
    seg->regions.reserve(static_cast<std::size_t>(nranks_));
    for (int r = 0; r < nranks_; ++r) {
      seg->regions.push_back(std::make_unique<std::byte[]>(seg_bytes_));
      std::memset(seg->regions.back().get(), 0, seg_bytes_);
    }
    segments_[s].store(seg, std::memory_order_release);
  }

  [[nodiscard]] std::byte* addr(std::uint32_t rank, std::uint64_t offset) {
    assert(rank < static_cast<std::uint32_t>(nranks_));
    const std::size_t s = offset / seg_bytes_;
    assert(s < max_segments_);
    Segment* seg = segments_[s].load(std::memory_order_acquire);
    assert(seg != nullptr && "access to an uncommitted window segment");
    return seg->regions[rank].get() + offset % seg_bytes_;
  }

  [[nodiscard]] std::atomic_ref<std::uint64_t> word(std::uint32_t rank,
                                                    std::uint64_t offset) {
    assert(offset % 8 == 0 && "remote atomics require 8-byte alignment");
    return std::atomic_ref<std::uint64_t>(
        *reinterpret_cast<std::uint64_t*>(addr(rank, offset)));
  }

  NbRequest enqueue_data(Rank& self, std::size_t n, std::uint32_t target, bool is_put) {
    const auto& p = self.net();
    const bool remote = target != static_cast<std::uint32_t>(self.id());
    auto& c = self.counters();
    if (is_put) {
      c.puts += 1;
      c.bytes_put += n;
      c.nb_puts += 1;
    } else {
      c.gets += 1;
      c.bytes_get += n;
      c.nb_gets += 1;
    }
    if (remote) c.remote_ops += 1;
    return self.enqueue_nb(remote ? p.alpha_remote_ns : p.alpha_local_ns,
                           remote ? p.beta_ns_per_byte * static_cast<double>(n) : 0.0);
  }

  void charge_data(Rank& self, std::size_t n, std::uint32_t target, bool is_put) {
    const auto& p = self.net();
    const bool remote = target != static_cast<std::uint32_t>(self.id());
    self.charge((remote ? p.alpha_remote_ns : p.alpha_local_ns) +
                (remote ? p.beta_ns_per_byte * static_cast<double>(n) : 0.0));
    auto& c = self.counters();
    if (is_put) {
      c.puts += 1;
      c.bytes_put += n;
    } else {
      c.gets += 1;
      c.bytes_get += n;
    }
    if (remote) c.remote_ops += 1;
  }

  void charge_atomic(Rank& self, std::uint32_t target) {
    const auto& p = self.net();
    const bool remote = target != static_cast<std::uint32_t>(self.id());
    self.charge(remote ? p.alpha_atomic_remote_ns : p.alpha_atomic_local_ns);
    self.counters().atomics += 1;
    if (remote) self.counters().remote_ops += 1;
  }

  int nranks_;
  std::size_t seg_bytes_;
  std::size_t max_segments_;
  std::unique_ptr<std::atomic<Segment*>[]> segments_;  ///< [max_segments_] slots
  std::atomic<std::size_t> committed_{0};
  std::mutex grow_mu_;  ///< serializes registration only; accesses never block
};

}  // namespace gdi::rma
