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

#include <cstdint>

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

/// Per-rank operation counters; the raw material of the cost model and of the
/// block-size / communication-volume ablations.
struct OpCounters {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t atomics = 0;
  std::uint64_t flushes = 0;
  std::uint64_t collectives = 0;
  std::uint64_t bytes_put = 0;
  std::uint64_t bytes_get = 0;
  std::uint64_t remote_ops = 0;  ///< subset of the above that crossed ranks

  // Nonblocking-engine counters. nb_* ops are also counted in puts/gets/
  // atomics above (they are the same logical operations, just overlapped).
  std::uint64_t nb_gets = 0;       ///< gets issued through the batch engine
  std::uint64_t nb_puts = 0;       ///< puts issued through the batch engine
  std::uint64_t nb_atomics = 0;    ///< atomics issued through the batch engine
  std::uint64_t batches = 0;       ///< nonempty flush_all() completion points
  std::uint64_t max_batch_ops = 0; ///< high-water outstanding ops in one batch

  // Per-transaction block-cache counters (maintained by the GDI layer).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  // Shared (inter-transaction) holder-cache counters: hits skipped a whole
  // holder fetch, misses went to the wire, validations are lock-word checks
  // performed (every hit implies one), invalidations count dropped entries
  // (local write intent/writeback or an observed remote version change).
  std::uint64_t scache_hits = 0;
  std::uint64_t scache_misses = 0;
  std::uint64_t scache_validations = 0;
  std::uint64_t scache_invalidations = 0;

  // Batched heavy-edge fetch: completed multi-holder Transaction::fetch_batch
  // calls over edge holders and the holders they covered (items/batches =
  // mean edge batch size).
  std::uint64_t edge_batches = 0;
  std::uint64_t edge_batch_items = 0;

  // Group-commit pipeline: epochs closed (each paid at most one overlapped
  // flush for every enrolled commit's writeback + unlocks) and commits
  // enrolled (epochs/enrolled = mean commits amortized per flush).
  std::uint64_t gc_epochs = 0;
  std::uint64_t gc_enrolled = 0;

  // Write-through: shared-cache entries re-stamped at write_unlock_fetch time
  // (a rank's own write set staying warm instead of dying by invalidation).
  std::uint64_t scache_restamps = 0;

  // Translation-memo epoch validation: bare translates served by the memo
  // under a matching DHT erase epoch (hits skip the whole DHT walk) vs
  // memo entries refuted by an epoch mismatch (fell back to the walk).
  std::uint64_t xlate_hits = 0;
  std::uint64_t xlate_fallbacks = 0;

  // Epoch write-ahead log (src/wal/): commit records buffered into the open
  // epoch, group fsyncs paid at epoch seal (appends/fsyncs = amortization),
  // and epochs re-applied by log-replay recovery. wal_io_errors counts
  // failed log and checkpoint IO: sealed epochs DROPPED because the segment
  // could not be opened, written, flushed or fsynced, failed directory
  // fsyncs and failed checkpoint writes -- nonzero means the run was not
  // fully durable. faults_injected counts
  // drop/delay/fail decisions taken by the rank's FaultInjector, if any.
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_replayed_epochs = 0;
  std::uint64_t wal_io_errors = 0;
  std::uint64_t faults_injected = 0;

  // Multi-tenant front end (src/server/): requests the per-rank scheduler
  // completed, requests that shared a coalesced BatchScope execute with at
  // least one other client's request (coalesced/served = cross-client batching
  // rate), submissions shed by admission control (bounded per-tenant in-flight
  // or the global byte budget), and commit-pipeline epochs whose close
  // completed at least one scheduler-deferred commit reply.
  std::uint64_t sched_served = 0;
  std::uint64_t sched_coalesced = 0;
  std::uint64_t sched_admission_rejects = 0;
  std::uint64_t sched_epochs = 0;

  // Hash-partitioned DHT (src/dht/): bucket-head probe rounds issued by
  // lookup/erase walks (probe_rounds / lookups == 1 in the compacted steady
  // state, independent of shard count), entries rehomed by the online
  // migration pass, and freed entry slots reused by allocation (free-stack
  // pops -- reclaimed / frees is the capacity-recovery rate under churn).
  std::uint64_t dht_probe_rounds = 0;
  std::uint64_t dht_migrated = 0;
  std::uint64_t dht_reclaimed = 0;

  // Socket front end (src/net/): connections accepted, frames decoded off /
  // fully written to the wire, malformed frames (bad magic/version/CRC,
  // oversize length, wrong-shaped body, credit overrun), write-blocked
  // transitions under credit-based backpressure (a slow reader stalling only
  // itself), and non-orderly connection drops (errors, timeouts, supersedes,
  // forced drain closes).
  std::uint64_t net_accepted = 0;
  std::uint64_t net_frames_rx = 0;
  std::uint64_t net_frames_tx = 0;
  std::uint64_t net_bad_frames = 0;
  std::uint64_t net_backpressure_stalls = 0;
  std::uint64_t net_disconnects = 0;
  // Exactly-once replay outcomes: a replayed completed write answered from
  // the reply cache (hit) vs. one whose cached reply was already pruned
  // (miss -> typed Bye(kStaleReplay), never silent re-execution).
  std::uint64_t net_replay_hits = 0;
  std::uint64_t net_replay_cache_misses = 0;

  OpCounters& operator+=(const OpCounters& o) {
    puts += o.puts;
    gets += o.gets;
    atomics += o.atomics;
    flushes += o.flushes;
    collectives += o.collectives;
    bytes_put += o.bytes_put;
    bytes_get += o.bytes_get;
    remote_ops += o.remote_ops;
    nb_gets += o.nb_gets;
    nb_puts += o.nb_puts;
    nb_atomics += o.nb_atomics;
    batches += o.batches;
    max_batch_ops = max_batch_ops > o.max_batch_ops ? max_batch_ops : o.max_batch_ops;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    scache_hits += o.scache_hits;
    scache_misses += o.scache_misses;
    scache_validations += o.scache_validations;
    scache_invalidations += o.scache_invalidations;
    edge_batches += o.edge_batches;
    edge_batch_items += o.edge_batch_items;
    gc_epochs += o.gc_epochs;
    gc_enrolled += o.gc_enrolled;
    scache_restamps += o.scache_restamps;
    xlate_hits += o.xlate_hits;
    xlate_fallbacks += o.xlate_fallbacks;
    wal_appends += o.wal_appends;
    wal_fsyncs += o.wal_fsyncs;
    wal_replayed_epochs += o.wal_replayed_epochs;
    wal_io_errors += o.wal_io_errors;
    faults_injected += o.faults_injected;
    sched_served += o.sched_served;
    sched_coalesced += o.sched_coalesced;
    sched_admission_rejects += o.sched_admission_rejects;
    sched_epochs += o.sched_epochs;
    dht_probe_rounds += o.dht_probe_rounds;
    dht_migrated += o.dht_migrated;
    dht_reclaimed += o.dht_reclaimed;
    net_accepted += o.net_accepted;
    net_frames_rx += o.net_frames_rx;
    net_frames_tx += o.net_frames_tx;
    net_bad_frames += o.net_bad_frames;
    net_backpressure_stalls += o.net_backpressure_stalls;
    net_disconnects += o.net_disconnects;
    net_replay_hits += o.net_replay_hits;
    net_replay_cache_misses += o.net_replay_cache_misses;
    return *this;
  }

  [[nodiscard]] std::uint64_t total_ops() const {
    return puts + gets + atomics + flushes + collectives;
  }

  /// Copy of the current counter values, for per-phase deltas in benches.
  [[nodiscard]] OpCounters snapshot() const { return *this; }

  /// Counters accumulated since `since` (an earlier snapshot of this struct).
  /// Monotone counters subtract; max_batch_ops is a high-water mark and keeps
  /// its current value (a per-phase maximum cannot be recovered by
  /// subtraction).
  [[nodiscard]] OpCounters delta(const OpCounters& since) const {
    OpCounters d;
    d.puts = puts - since.puts;
    d.gets = gets - since.gets;
    d.atomics = atomics - since.atomics;
    d.flushes = flushes - since.flushes;
    d.collectives = collectives - since.collectives;
    d.bytes_put = bytes_put - since.bytes_put;
    d.bytes_get = bytes_get - since.bytes_get;
    d.remote_ops = remote_ops - since.remote_ops;
    d.nb_gets = nb_gets - since.nb_gets;
    d.nb_puts = nb_puts - since.nb_puts;
    d.nb_atomics = nb_atomics - since.nb_atomics;
    d.batches = batches - since.batches;
    d.max_batch_ops = max_batch_ops;
    d.cache_hits = cache_hits - since.cache_hits;
    d.cache_misses = cache_misses - since.cache_misses;
    d.scache_hits = scache_hits - since.scache_hits;
    d.scache_misses = scache_misses - since.scache_misses;
    d.scache_validations = scache_validations - since.scache_validations;
    d.scache_invalidations = scache_invalidations - since.scache_invalidations;
    d.edge_batches = edge_batches - since.edge_batches;
    d.edge_batch_items = edge_batch_items - since.edge_batch_items;
    d.gc_epochs = gc_epochs - since.gc_epochs;
    d.gc_enrolled = gc_enrolled - since.gc_enrolled;
    d.scache_restamps = scache_restamps - since.scache_restamps;
    d.xlate_hits = xlate_hits - since.xlate_hits;
    d.xlate_fallbacks = xlate_fallbacks - since.xlate_fallbacks;
    d.wal_appends = wal_appends - since.wal_appends;
    d.wal_fsyncs = wal_fsyncs - since.wal_fsyncs;
    d.wal_replayed_epochs = wal_replayed_epochs - since.wal_replayed_epochs;
    d.wal_io_errors = wal_io_errors - since.wal_io_errors;
    d.faults_injected = faults_injected - since.faults_injected;
    d.sched_served = sched_served - since.sched_served;
    d.sched_coalesced = sched_coalesced - since.sched_coalesced;
    d.sched_admission_rejects = sched_admission_rejects - since.sched_admission_rejects;
    d.sched_epochs = sched_epochs - since.sched_epochs;
    d.dht_probe_rounds = dht_probe_rounds - since.dht_probe_rounds;
    d.dht_migrated = dht_migrated - since.dht_migrated;
    d.dht_reclaimed = dht_reclaimed - since.dht_reclaimed;
    d.net_accepted = net_accepted - since.net_accepted;
    d.net_frames_rx = net_frames_rx - since.net_frames_rx;
    d.net_frames_tx = net_frames_tx - since.net_frames_tx;
    d.net_bad_frames = net_bad_frames - since.net_bad_frames;
    d.net_backpressure_stalls = net_backpressure_stalls - since.net_backpressure_stalls;
    d.net_disconnects = net_disconnects - since.net_disconnects;
    d.net_replay_hits = net_replay_hits - since.net_replay_hits;
    d.net_replay_cache_misses =
        net_replay_cache_misses - since.net_replay_cache_misses;
    return d;
  }
};

}  // namespace gdi::rma
