// Network cost model for the simulated RMA fabric.
//
// The paper evaluates on Piz Daint's Aries interconnect. We reproduce the
// *shape* of its results with a LogGP-style model: every one-sided operation
// charges its origin rank a latency term plus a bandwidth term, and
// collectives charge a logarithmic tree term. Two presets, xc40() and xc50(),
// mirror the two Piz Daint node types (the paper conjectures XC50's advantage
// comes from more network bandwidth per core; the presets encode exactly
// that). See DESIGN.md section 2 for the substitution rationale.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace gdi::rma {

struct NetParams {
  double alpha_local_ns = 0.0;          ///< latency of a local window access
  double alpha_remote_ns = 0.0;         ///< latency of a remote put/get
  double alpha_atomic_local_ns = 0.0;   ///< latency of a local atomic
  double alpha_atomic_remote_ns = 0.0;  ///< latency of a remote atomic (HW offload)
  double beta_ns_per_byte = 0.0;        ///< inverse bandwidth for remote transfers
  double alpha_flush_ns = 0.0;          ///< cost of a flush (completion fence)
  double alpha_collective_ns = 0.0;     ///< per-tree-stage cost of a collective
  /// NIC queue depth for nonblocking batches: up to this many outstanding
  /// operations overlap, paying a single latency term per "round" of the
  /// queue (paper Section 5.1: fully-offloaded ops are pipelined by the NIC).
  /// 0 = unlimited depth. A completed batch of k operations charges
  ///   ceil(k / depth) * max(alpha_i) + sum(beta * bytes_i)
  /// instead of the blocking sum(alpha_i + beta * bytes_i).
  std::uint32_t nic_queue_depth = 0;

  /// Free model: every operation costs nothing (used by unit tests).
  [[nodiscard]] static constexpr NetParams zero() { return NetParams{}; }

  /// Cray XC40 preset (2x18-core Broadwell per Aries NIC -> less BW per core).
  [[nodiscard]] static constexpr NetParams xc40() {
    return NetParams{
        .alpha_local_ns = 90.0,
        .alpha_remote_ns = 1500.0,
        .alpha_atomic_local_ns = 250.0,
        .alpha_atomic_remote_ns = 1900.0,
        .beta_ns_per_byte = 0.085,
        .alpha_flush_ns = 320.0,
        .alpha_collective_ns = 1200.0,
        .nic_queue_depth = 64,
    };
  }

  /// Cray XC50 preset (12-core Haswell per Aries NIC -> more BW per core).
  [[nodiscard]] static constexpr NetParams xc50() {
    return NetParams{
        .alpha_local_ns = 90.0,
        .alpha_remote_ns = 1350.0,
        .alpha_atomic_local_ns = 250.0,
        .alpha_atomic_remote_ns = 1700.0,
        .beta_ns_per_byte = 0.055,
        .alpha_flush_ns = 300.0,
        .alpha_collective_ns = 1100.0,
        .nic_queue_depth = 64,
    };
  }
};

// The one list of per-rank operation counters, the raw material of the cost
// model and of the block-size / communication-volume ablations. Every other
// list is generated from it: the OpCounters members (same order, zeroed), the
// `+=` and `delta` folds, stats::counters_line, and the kOpCounterFields table
// tools enumerate. An entry is X(name, kind): kind Sum is a monotone event
// count (adds across ranks, subtracts across snapshots); kind Max is a
// high-water mark (takes the max across ranks, and `delta` keeps the current
// value, because a per-phase maximum cannot be recovered by subtraction).
#define GDI_OP_COUNTERS(X)                                                    \
  /* One-sided traffic, blocking and nonblocking alike; remote_ops is the     \
     subset of puts/gets/atomics that crossed ranks. */                       \
  X(puts, Sum)                                                                \
  X(gets, Sum)                                                                \
  X(atomics, Sum)                                                             \
  X(flushes, Sum)                                                             \
  X(collectives, Sum)                                                         \
  X(bytes_put, Sum)                                                           \
  X(bytes_get, Sum)                                                           \
  X(remote_ops, Sum)                                                          \
  /* Nonblocking engine: nb_* ops are also counted in puts/gets/atomics       \
     (the same logical operations, just overlapped); batches are nonempty     \
     flush_all() completion points, max_batch_ops the high-water count of     \
     outstanding ops in one batch. */                                         \
  X(nb_gets, Sum)                                                             \
  X(nb_puts, Sum)                                                             \
  X(nb_atomics, Sum)                                                          \
  X(batches, Sum)                                                             \
  X(max_batch_ops, Max)                                                       \
  /* Per-transaction block cache (maintained by the GDI layer). */            \
  X(cache_hits, Sum)                                                          \
  X(cache_misses, Sum)                                                        \
  /* Block-table memo speculation: continuation-block GETs that rode a read   \
     lock's round on the memo's word, then confirmed by the primary's block   \
     table read in that round (used; each also counts as a cache_misses: it   \
     crossed the wire) or not (wasted: refuted by the table, or posted behind \
     a lock a writer denied). */                                              \
  X(tail_spec_used, Sum)                                                      \
  X(tail_spec_wasted, Sum)                                                    \
  /* Shared (inter-transaction) holder cache: hits skipped a whole holder     \
     fetch, misses went to the wire, validations are lock-word checks         \
     performed (every hit implies one), invalidations count dropped entries   \
     (local write intent/writeback or an observed remote version change). */  \
  X(scache_hits, Sum)                                                         \
  X(scache_misses, Sum)                                                       \
  X(scache_validations, Sum)                                                  \
  X(scache_invalidations, Sum)                                                \
  /* Batched heavy-edge fetch: completed multi-holder fetch_batch calls over  \
     edge holders and the holders they covered (items / batches = mean edge   \
     batch size). */                                                          \
  X(edge_batches, Sum)                                                        \
  X(edge_batch_items, Sum)                                                    \
  /* Group-commit pipeline: epochs closed (each paid at most one overlapped   \
     flush for every enrolled commit's writeback + unlocks) and commits       \
     enrolled (enrolled / epochs = commits amortized per flush). */           \
  X(gc_epochs, Sum)                                                           \
  X(gc_enrolled, Sum)                                                         \
  /* Write-through: shared-cache entries re-stamped at write_unlock_fetch     \
     time (a rank's own write set staying warm instead of dying by            \
     invalidation). */                                                        \
  X(scache_restamps, Sum)                                                     \
  /* Translation-memo epoch validation: bare translates served by the memo    \
     under a matching DHT erase epoch (hits skip the whole DHT walk) vs memo  \
     entries refuted by an epoch mismatch (fell back to the walk). */         \
  X(xlate_hits, Sum)                                                          \
  X(xlate_fallbacks, Sum)                                                     \
  /* Epoch write-ahead log (src/wal/): commit records buffered into the open  \
     epoch, group fsyncs paid at epoch seal (appends / fsyncs =               \
     amortization), and epochs re-applied by log-replay recovery.             \
     wal_io_errors counts failed log and checkpoint IO: sealed epochs         \
     DROPPED because the segment could not be opened, written, flushed or     \
     fsynced, failed directory fsyncs and failed checkpoint writes -- nonzero \
     means the run was not fully durable. faults_injected counts              \
     drop/delay/fail decisions taken by the rank's FaultInjector, if any. */  \
  X(wal_appends, Sum)                                                         \
  X(wal_fsyncs, Sum)                                                          \
  X(wal_replayed_epochs, Sum)                                                 \
  X(wal_io_errors, Sum)                                                       \
  X(faults_injected, Sum)                                                     \
  /* Multi-tenant front end (src/server/): requests the per-rank scheduler    \
     completed, requests that shared a coalesced BatchScope execute with at   \
     least one other client's request (coalesced / served = cross-client      \
     batching rate), submissions shed by admission control (bounded           \
     per-tenant in-flight or the global byte budget), and commit-pipeline     \
     epochs whose close completed at least one scheduler-deferred commit      \
     reply. */                                                                \
  X(sched_served, Sum)                                                        \
  X(sched_coalesced, Sum)                                                     \
  X(sched_admission_rejects, Sum)                                             \
  X(sched_epochs, Sum)                                                        \
  /* Hash-partitioned DHT (src/dht/): bucket-head probe rounds issued by      \
     lookup/erase walks (probe_rounds / lookups == 1 in the compacted steady  \
     state, independent of shard count), entries rehomed by the online        \
     migration pass, and freed entry slots reused by allocation (free-stack   \
     pops -- reclaimed / frees is the capacity-recovery rate under churn). */ \
  X(dht_probe_rounds, Sum)                                                    \
  X(dht_migrated, Sum)                                                        \
  X(dht_reclaimed, Sum)                                                       \
  /* Socket front end (src/net/): connections accepted, frames decoded off /  \
     fully written to the wire, malformed frames (bad magic/version/CRC,      \
     oversize length, wrong-shaped body, credit overrun), write-blocked       \
     transitions under credit-based backpressure (a slow reader stalling      \
     only itself), and non-orderly connection drops (errors, timeouts,        \
     supersedes, forced drain closes). */                                     \
  X(net_accepted, Sum)                                                        \
  X(net_frames_rx, Sum)                                                       \
  X(net_frames_tx, Sum)                                                       \
  X(net_bad_frames, Sum)                                                      \
  X(net_backpressure_stalls, Sum)                                             \
  X(net_disconnects, Sum)                                                     \
  /* Exactly-once replay outcomes: a replayed completed write answered from   \
     the reply cache (hit) vs one whose cached reply was already pruned       \
     (miss -> typed Bye(kStaleReplay), never silent re-execution). */         \
  X(net_replay_hits, Sum)                                                     \
  X(net_replay_cache_misses, Sum)

enum class CounterKind : std::uint8_t { Sum, Max };

/// Per-rank operation counters: one zeroed std::uint64_t per GDI_OP_COUNTERS
/// entry, in table order.
struct OpCounters {
#define GDI_OP_COUNTER_MEMBER(name, kind) std::uint64_t name = 0;
  GDI_OP_COUNTERS(GDI_OP_COUNTER_MEMBER)
#undef GDI_OP_COUNTER_MEMBER

  /// Sum-kind counters add, Max-kind counters take the maximum.
  OpCounters& operator+=(const OpCounters& o);

  [[nodiscard]] std::uint64_t total_ops() const {
    return puts + gets + atomics + flushes + collectives;
  }

  /// Copy of the current counter values, for per-phase deltas in benches.
  [[nodiscard]] OpCounters snapshot() const { return *this; }

  /// Counters accumulated since `since` (an earlier snapshot of this struct):
  /// Sum-kind counters subtract, Max-kind counters keep their current value.
  [[nodiscard]] OpCounters delta(const OpCounters& since) const;
};

/// One GDI_OP_COUNTERS entry, for code that enumerates the counters.
struct OpCounterField {
  const char* name;
  std::uint64_t OpCounters::*member;
  CounterKind kind;
};

inline constexpr OpCounterField kOpCounterFields[] = {
#define GDI_OP_COUNTER_FIELD(name, kind) {#name, &OpCounters::name, CounterKind::kind},
    GDI_OP_COUNTERS(GDI_OP_COUNTER_FIELD)
#undef GDI_OP_COUNTER_FIELD
};

// Every member comes from the table: a field declared outside it fails here.
static_assert(sizeof(OpCounters) == std::size(kOpCounterFields) * sizeof(std::uint64_t));

inline OpCounters& OpCounters::operator+=(const OpCounters& o) {
  for (const OpCounterField& f : kOpCounterFields)
    this->*f.member = f.kind == CounterKind::Max ? std::max(this->*f.member, o.*f.member)
                                                 : this->*f.member + o.*f.member;
  return *this;
}

inline OpCounters OpCounters::delta(const OpCounters& since) const {
  OpCounters d = *this;
  for (const OpCounterField& f : kOpCounterFields)
    if (f.kind == CounterKind::Sum) d.*f.member -= since.*f.member;
  return d;
}

}  // namespace gdi::rma
