// GDI transactions (paper Sections 3.3-3.5, 5.6).
//
// A Transaction provides serializable CRUD over graph data. Design follows
// the paper's GDA implementation:
//  * all changes are buffered locally (cached holder buffers) and become
//    visible only at commit, when dirty blocks are written back with PUTs;
//  * ACI is enforced with two-phase reader/writer locking on each vertex's
//    primary block (one lock word per vertex, paper Section 5.6). Lock
//    acquisition is bounded-retry: failure raises a *transaction critical*
//    error (kTxnConflict) and the whole transaction is doomed -- GDI offers
//    no retry-inside-a-transaction, the user starts a new one (Section 3.3);
//  * per-transaction bookkeeping uses hashmaps keyed by internal IDs plus
//    vectors of dirty state, giving O(1) amortized tracking (the paper's
//    "fast intra-transaction block management" design choice);
//  * local transactions involve one calling process; collective transactions
//    are entered and committed by all ranks, with a commit-time agreement
//    allreduce (any failed rank aborts everyone).
//
// Transaction modes:
//  * kRead        -- read-only, takes read locks (serializable);
//  * kReadShared  -- read-only, lock-free; the paper's optimized read-only
//                    transaction that assumes no concurrent writer (used for
//                    large OLAP scans);
//  * kWrite       -- read/write; reads take read locks, first write to a
//                    vertex upgrades to (or directly takes) the write lock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/dptr.hpp"
#include "common/status.hpp"
#include "common/value.hpp"
#include "gdi/constraint.hpp"
#include "gdi/database.hpp"
#include "layout/holder.hpp"

namespace gdi {

class BatchScope;

enum class TxnMode : std::uint8_t { kRead = 0, kReadShared, kWrite };
enum class TxnScope : std::uint8_t { kLocal = 0, kCollective };

/// Opaque per-process access object for a vertex (paper Section 3.5).
struct VertexHandle {
  DPtr vid;
  [[nodiscard]] bool valid() const { return !vid.is_null(); }
  friend constexpr auto operator<=>(const VertexHandle&, const VertexHandle&) = default;
};

/// Opaque per-process access object for a heavy edge's holder.
struct EdgeHandle {
  DPtr eid;
  [[nodiscard]] bool valid() const { return !eid.is_null(); }
  friend constexpr auto operator<=>(const EdgeHandle&, const EdgeHandle&) = default;
};

/// Direction filter for edge/neighbor retrieval (GDI_EDGE_* constants).
enum class DirFilter : std::uint8_t {
  kOut = 0,       ///< directed, this vertex is the origin
  kIn,            ///< directed, this vertex is the target
  kUndirected,    ///< undirected edges only
  kOutgoing,      ///< kOut + kUndirected (traversal "forward")
  kIncoming,      ///< kIn + kUndirected
  kAll,
};

[[nodiscard]] inline bool dir_matches(DirFilter f, layout::Dir d) {
  switch (f) {
    case DirFilter::kOut: return d == layout::Dir::kOut;
    case DirFilter::kIn: return d == layout::Dir::kIn;
    case DirFilter::kUndirected: return d == layout::Dir::kUndirected;
    case DirFilter::kOutgoing:
      return d == layout::Dir::kOut || d == layout::Dir::kUndirected;
    case DirFilter::kIncoming:
      return d == layout::Dir::kIn || d == layout::Dir::kUndirected;
    case DirFilter::kAll: return true;
  }
  return false;
}

/// One retrieved edge, as seen from the base vertex it was read from.
struct EdgeDesc {
  EdgeUid uid;
  DPtr neighbor;
  layout::Dir dir = layout::Dir::kOut;
  std::uint32_t label_id = 0;  ///< lightweight label (0 = none / heavy)
  DPtr heavy;                  ///< heavy-edge holder, null if lightweight
};

class Transaction {
 public:
  /// GDI_StartTransaction (local) / GDI_StartCollectiveTransaction.
  Transaction(std::shared_ptr<Database> db, rma::Rank& self, TxnMode mode,
              TxnScope scope = TxnScope::kLocal);
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  [[nodiscard]] TxnMode mode() const { return mode_; }
  [[nodiscard]] TxnScope scope() const { return scope_; }
  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] bool failed() const { return failed_; }

  /// Async-first surface (see gdi/async.hpp): returns a BatchScope on which
  /// typed operations are enqueued and resolved together by one execute()
  /// that overlaps DHT lookups, lock rounds, and block fetches. The
  /// blocking methods below are thin wrappers over this path.
  [[nodiscard]] BatchScope batch();

  // --- vertex CRUD ----------------------------------------------------------
  Result<VertexHandle> create_vertex(std::uint64_t app_id);
  /// GDI_TranslateVertexID: application-level ID -> internal ID.
  Result<DPtr> translate_vertex_id(std::uint64_t app_id);
  /// GDI_AssociateVertex: internal ID -> handle (fetches + locks the holder).
  Result<VertexHandle> associate_vertex(DPtr vid);
  /// translate + associate in one step.
  Result<VertexHandle> find_vertex(std::uint64_t app_id);
  /// Deletes the vertex and all its incident edges (mirrors included).
  Status delete_vertex(VertexHandle v);

  Result<std::uint64_t> app_id_of(VertexHandle v);
  /// Optimized read of just the application ID of a (possibly remote) vertex:
  /// served from the per-transaction block cache when the holder's primary
  /// block was already fetched/prefetched, otherwise one 8-byte GET. No lock.
  /// Intended for kReadShared scans (GDI allows implementations such
  /// sub-holder reads through handles).
  Result<std::uint64_t> peek_app_id(DPtr vid);

  /// Batched GDI_TranslateVertexID over many application IDs: one DHT
  /// multi-lookup instead of one serial lookup per ID. result[i] is the
  /// internal ID for app_ids[i], or a null DPtr when unknown.
  Result<std::vector<DPtr>> translate_vertex_ids(std::span<const std::uint64_t> app_ids);

  /// Edge-side frontier prefetch: batch-fetches (and, in locking modes,
  /// read-locks) the heavy-edge holders in `eids` so subsequent
  /// associate_edge / get_edge_properties / constraint evaluation on them are
  /// served locally. Mode dispatch mirrors prefetch_vertices: kReadShared is
  /// lock-free, kRead locks-then-fetches (failures soft), kWrite ignores the
  /// hint.
  void prefetch_edges(std::span<const DPtr> eids);

  /// Read-side frontier prefetch: batch-fetches the holder blocks of every
  /// not-yet-cached vertex in `vids` so subsequent associate_vertex /
  /// edges_of / peek_app_id on them are served locally. In kReadShared mode
  /// (the paper's lock-free read-only transactions) this populates the
  /// per-transaction block cache with no locking (primary blocks in one
  /// overlapped batch, continuation blocks in a second). In kRead mode the
  /// hint routes through the batched lock-then-validate path: read locks for
  /// the whole set are acquired in one overlapped FAA round, then the holders
  /// are fetched in the same two overlapped batches -- a lock failure skips
  /// that vertex (a hint never dooms the transaction). kWrite ignores the
  /// hint (speculative read locks would poison later lock upgrades), so call
  /// sites need not branch on mode.
  void prefetch_vertices(std::span<const DPtr> vids);
  Status add_label(VertexHandle v, std::uint32_t label_id);
  Status remove_label(VertexHandle v, std::uint32_t label_id);
  Result<std::vector<std::uint32_t>> labels_of(VertexHandle v);

  Status add_property(VertexHandle v, std::uint32_t ptype, const PropValue& value);
  /// Single-entry update: removes existing entries of `ptype`, then adds.
  Status update_property(VertexHandle v, std::uint32_t ptype, const PropValue& value);
  Status remove_properties(VertexHandle v, std::uint32_t ptype);
  /// GDI "remove all properties from a vertex": drops every user property
  /// entry; labels are retained.
  Status remove_all_properties(VertexHandle v);
  Result<std::vector<PropValue>> get_properties(VertexHandle v, std::uint32_t ptype);
  Result<std::vector<std::uint32_t>> ptypes_of(VertexHandle v);

  // --- edges ------------------------------------------------------------------
  /// Create a lightweight edge (paper 5.4.2): stored inline in both endpoint
  /// holders; at most one label. Returns the EdgeUid relative to `origin`.
  Result<EdgeUid> create_edge(VertexHandle origin, VertexHandle target,
                              layout::Dir dir, std::uint32_t label_id = 0);
  /// Remove an edge given its UID relative to `base` (mirror removed too).
  Status delete_edge(VertexHandle base, const EdgeUid& uid);
  Result<std::vector<EdgeDesc>> edges_of(VertexHandle v, DirFilter f,
                                         const Constraint* c = nullptr);
  Result<std::vector<DPtr>> neighbors_of(VertexHandle v, DirFilter f,
                                         const Constraint* c = nullptr);
  Result<std::size_t> count_edges(VertexHandle v, DirFilter f);

  // --- heavy edges (own holder, arbitrary labels/properties) -----------------
  Result<EdgeHandle> create_heavy_edge(VertexHandle origin, VertexHandle target,
                                       layout::Dir dir);
  Result<EdgeHandle> associate_edge(DPtr eid);
  Result<std::pair<DPtr, DPtr>> edge_endpoints(EdgeHandle e);
  Status add_edge_label(EdgeHandle e, std::uint32_t label_id);
  Status remove_edge_label(EdgeHandle e, std::uint32_t label_id);
  Result<std::vector<std::uint32_t>> edge_labels_of(EdgeHandle e);
  Status add_edge_property(EdgeHandle e, std::uint32_t ptype, const PropValue& value);
  Status update_edge_property(EdgeHandle e, std::uint32_t ptype, const PropValue& value);
  Result<std::vector<PropValue>> get_edge_properties(EdgeHandle e, std::uint32_t ptype);

  // --- explicit indexes --------------------------------------------------------
  /// GDI_GetLocalVerticesOfIndex: this rank's shard, validated against the
  /// index definition and an optional extra constraint.
  Result<std::vector<DPtr>> local_index_vertices(Index& idx, const Constraint* c = nullptr);

  // --- lifecycle -----------------------------------------------------------------
  /// GDI_CloseTransaction: commit. Collective scope: all ranks call; commit
  /// succeeds only if every rank's local part succeeded.
  Status commit();
  /// Abort: drop all buffered changes, release locks and created blocks.
  void abort();

  /// Arm a networked tenant's acknowledgement for WAL piggybacking: if this
  /// transaction commits AND logs a redo record, a kTenantAck op carrying the
  /// reply the client will be sent rides the same record. A crash after the
  /// record is durable but before the reply leaves the socket then recovers
  /// the reply into the listener's cache -- the replayed write is answered,
  /// never re-executed. `status`/`v0`/`v1` must be the reply the caller would
  /// send on commit success (exec_write knows them before commit()). No-op
  /// for tenant 0.
  void arm_commit_ack(std::uint64_t tenant, std::uint64_t tag, Status status,
                      std::int64_t v0, std::int64_t v1) {
    ack_tenant_ = tenant;
    ack_tag_ = tag;
    ack_status_ = status;
    ack_v0_ = v0;
    ack_v1_ = v1;
  }

 private:
  friend class BatchScope;

  enum class LockState : std::uint8_t { kNone = 0, kRead, kWrite };

  // --- holder kinds -----------------------------------------------------------
  //
  // Vertices and heavy edges share one holder layout (paper 5.3-5.4): a
  // primary block that carries the lock word and the block-address table,
  // plus continuation blocks. Locking, fetching, caching and writeback are
  // one protocol, written once as templates over the state type; each state
  // type states at compile time the few facts in which the kinds differ.
  struct VertexState {
    using View = layout::VertexView;
    static constexpr bool kIsEdge = false;  ///< shared-cache entry tag
    static constexpr EntityType kEntity = EntityType::kVertex;
    /// Holder bytes the header accounts for.
    [[nodiscard]] static std::size_t required_size(const View& v) {
      return View::required_size(v.table_capacity(), v.edge_capacity(), v.prop_capacity());
    }
    /// Most blocks the primary block can address: the table's capacity,
    /// clamped to what fits in one block (a stale DPtr may point at a reused
    /// block whose header bytes are arbitrary).
    [[nodiscard]] static std::size_t max_blocks(const View& v, std::size_t block_size) {
      return std::min<std::size_t>(v.table_capacity(),
                                   (block_size - View::kBlockTableOff) / 8);
    }
    /// Bytes published at commit to retire a deleted holder: the whole
    /// (now invalid) primary block.
    [[nodiscard]] static std::pair<std::size_t, std::size_t> tombstone(
        std::size_t block_size, std::size_t buf_size) {
      return {0, std::min(block_size, buf_size)};
    }

    std::vector<std::byte> buf;
    View view{buf};
    LockState lock = LockState::kNone;
    std::uint64_t lock_word = 0;  ///< word the read lock observed (upgrade bid)
    bool created = false;
    bool deleted = false;
    std::vector<std::uint8_t> orig_index_match;  ///< per-db-index, at fetch time
  };

  struct EdgeState {
    using View = layout::EdgeView;
    static constexpr bool kIsEdge = true;
    static constexpr EntityType kEntity = EntityType::kEdge;
    [[nodiscard]] static std::size_t required_size(const View& v) {
      return View::required_size(v.prop_capacity());
    }
    /// The edge block table is fixed-size.
    [[nodiscard]] static std::size_t max_blocks(const View&, std::size_t) {
      return View::kMaxBlocks;
    }
    /// Only the 4-byte valid flag at header offset 16.
    [[nodiscard]] static std::pair<std::size_t, std::size_t> tombstone(std::size_t,
                                                                       std::size_t) {
      return {16, 4};
    }

    std::vector<std::byte> buf;
    View view{buf};
    LockState lock = LockState::kNone;  ///< lock on the *edge holder* block
    std::uint64_t lock_word = 0;
    bool created = false;
    bool deleted = false;
  };

  /// Does a primary block's header describe a holder it can be? Counts
  /// within their capacities, 1 <= num_blocks <= what the block can address,
  /// and the bytes the header accounts for within num_blocks blocks. A stale
  /// DPtr can land on a reused block whose valid bit is set by chance; this
  /// check turns such bytes into kNotFound instead of a walk driven by
  /// arbitrary capacities and block addresses.
  template <class S>
  [[nodiscard]] static bool well_formed(const typename S::View& v, std::size_t block_size);

  template <class S>
  using HolderMap = std::unordered_map<std::uint64_t, std::unique_ptr<S>>;
  /// The per-transaction states of one holder kind (vcache_ / ecache_).
  template <class S>
  HolderMap<S>& holders() {
    if constexpr (S::kIsEdge) return ecache_;
    else return vcache_;
  }
  /// Deletion is buffered like any write; commit publishes the tombstone
  /// range of the invalidated buffer.
  template <class S>
  static void mark_deleted(S& st) {
    st.view.set_valid(false);
    st.deleted = true;
  }
  /// f(DPtr, state&) over every buffered holder: vertices first, then edges.
  template <class F>
  void for_each_holder(F&& f) {
    for (auto& [raw, st] : vcache_) f(DPtr{raw}, *st);
    for (auto& [raw, st] : ecache_) f(DPtr{raw}, *st);
  }

  // Access path: the holder's state, fetched (and locked) on first touch.
  // for_write takes or upgrades the write lock and drops the holder's cached
  // blocks, which are about to diverge from the buffer.
  template <class S>
  Result<S*> state(DPtr id, bool for_write);
  Result<VertexState*> state(VertexHandle v, bool for_write) {
    return state<VertexState>(v.vid, for_write);
  }
  Result<EdgeState*> state(EdgeHandle e, bool for_write) {
    return state<EdgeState>(e.eid, for_write);
  }
  /// What a read lock's round fetched for one holder: the primary block's
  /// bytes (null if it did not ride) and the continuation blocks whose GETs
  /// the block-table memo added -- speculative until the primary's own
  /// table lists them (then taken with BlockStore::take_posted_block and
  /// counted tail_spec_used; the rest are never looked at).
  struct Primed {
    const std::byte* primary = nullptr;
    std::span<const DPtr> tails;
  };
  /// Read one holder (primary, then its continuation blocks) into `st`.
  /// `primed` carries what the read lock's round already fetched under this
  /// transaction's lock.
  template <class S>
  Status fetch_holder(DPtr id, S& st, const Primed& primed = {});
  /// Remember `id`'s continuation blocks on its rank in the shared cache's
  /// block-table memo (locking modes only: only their read locks use it).
  template <class S>
  void memo_block_table(DPtr id, const typename S::View& v);
  /// Record which db indexes the vertex matches (commit-time index deltas).
  void snapshot_index_match(VertexState& st);

  // --- the single lock/fetch path -------------------------------------------
  //
  // Every holder materialization in the system -- blocking associate/find and
  // edge access, BatchScope::execute (vertex ops, then the heavy holders of
  // edge ops and constraint-filtered edges_of), kRead prefetch hints, index
  // scans -- funnels through fetch_batch. It acquires all still-needed locks
  // in overlapped rounds, pulls every primary block in one nonblocking
  // batch and every continuation block in a second, and installs the
  // resulting states in vcache_ / ecache_. A one-element call degenerates to
  // the blocking path (no extra flush), so single-op wrappers cost what they
  // did before batching existed.
  struct FetchSpec {
    DPtr id;
    bool write = false;    ///< take/upgrade to the write lock
    bool required = false; ///< lock failure dooms the txn (false for hints)
  };
  /// per[i] receives specs[i]'s outcome (kOk = state available in the
  /// holder map; kNotFound / kTxnConflict / ... otherwise). Returns kOk
  /// unless a *required* spec hit a transaction-critical failure, in which
  /// case the transaction is doomed and that status is returned.
  template <class S>
  Status fetch_batch(std::span<const FetchSpec> specs, std::span<Status> per);

  // Internal (non-wrapper) implementations used by BatchScope resolution and
  // by the blocking wrappers; bodies predate the async surface.
  Result<std::vector<DPtr>> translate_ids_impl(std::span<const std::uint64_t> app_ids);
  /// create_vertex body; `dht_checked` skips the per-call DHT existence
  /// lookup (BatchScope::create already resolved it through the batch's one
  /// multi-lookup).
  Result<VertexHandle> create_vertex_impl(std::uint64_t app_id, bool dht_checked);
  Result<std::vector<EdgeDesc>> edges_of_impl(VertexHandle v, DirFilter f,
                                              const Constraint* c);
  /// Batch-populate the block cache with the holders of `ids` (primaries in
  /// one overlapped batch, continuations in a second). Callers must hold the
  /// needed locks (or run lock-free in kReadShared). No-op unless both the
  /// cache and batching are enabled; returns whether it ran. When `tainted`
  /// is non-null it receives the primary of every holder that had a
  /// continuation block *already* in the per-transaction cache -- bytes that
  /// predate the caller's seqlock bracket and therefore disqualify the
  /// holder from a lock-free shared-cache fill. `primed` is empty or one per
  /// id: what ids[i]'s read lock round already fetched, so only the
  /// continuation blocks it did not confirm are read.
  template <class S>
  bool populate_block_cache(std::span<const DPtr> ids,
                            std::unordered_set<std::uint64_t>* tainted = nullptr,
                            std::span<const Primed> primed = {});
  /// Serve an app-ID peek from vcache_/blk_cache_; false = caller must read.
  [[nodiscard]] bool peek_cached(DPtr vid, std::uint64_t* out);

  // Per-transaction block cache (tentpole: read-through, keyed by block DPtr;
  // entries are whole blocks). Populated by fetches and prefetches, consulted
  // before any window GET, invalidated for a holder's blocks the moment this
  // transaction takes write intent on it, dropped wholesale at commit/abort.
  [[nodiscard]] bool cache_enabled() const;
  [[nodiscard]] bool batching_enabled() const;
  /// Read one block through the cache (counts hits/misses). A non-null
  /// `fetched` is the block's bytes already off the wire: a miss copies them
  /// instead of reading.
  void cache_read_block(DPtr blk, void* dst, const std::byte* fetched = nullptr);
  /// Read a holder's continuation blocks [1, num_blocks) into `buf`:
  /// cache-served where possible, then taken from the speculative `spec`
  /// GETs the table confirms, remaining misses fetched as one overlapped
  /// batch (or serially when batching is disabled).
  void read_tail_blocks(std::vector<std::byte>& buf, std::size_t total,
                        std::uint32_t num_blocks,
                        const std::function<DPtr(std::uint32_t)>& addr_of,
                        std::span<const DPtr> spec = {});
  /// If `blk` is one of the speculative `spec` GETs, copy its block into
  /// `dst`, count it used (and a per-transaction cache miss) and return
  /// true. Callers ask only for blocks a locked primary's table lists.
  bool take_spec_tail(std::span<const DPtr> spec, DPtr blk, std::vector<std::byte>& dst);
  /// Drop a holder's blocks from the cache (same-transaction write intent).
  void invalidate_cached_blocks(DPtr primary, std::uint32_t num_blocks,
                                const std::function<DPtr(std::uint32_t)>& addr_of);

  // --- shared (inter-transaction) holder cache ------------------------------
  //
  // Process-wide cache of assembled holders, validated by the primary block's
  // lock-word version (src/cache/shared_cache.hpp documents the protocol).
  // All three helpers are no-ops / nullptr when DatabaseConfig::shared_cache
  // is off, which keeps the uncached op counts bit-exact.
  [[nodiscard]] cache::SharedBlockCache* scache() {
    return db_->shared_cache(self_);
  }
  /// Drop `primary`'s entry (local write intent / writeback / deletion /
  /// block recycling); counts an invalidation when an entry existed.
  void scache_invalidate(DPtr primary);
  /// Stamp `buf` into the shared cache under `word`'s version bits.
  void scache_fill(DPtr primary, std::span<const std::byte> buf, std::uint64_t word,
                   bool is_edge);
  /// Write-through: re-stamp `buf` under the already-masked version bits the
  /// committing writer's write_unlock_fetch published (counts a restamp).
  void scache_restamp(DPtr primary, std::span<const std::byte> buf,
                      std::uint64_t version_bits, bool is_edge);
  /// Consult + validate an entry against a freshly observed lock word.
  /// Returns the entry if it proves current, nullptr otherwise (a stale or
  /// type-confused entry is erased). Counts validations/hits/invalidations.
  [[nodiscard]] const cache::SharedBlockCache::Entry* scache_lookup(
      DPtr primary, std::uint64_t observed_word, bool want_edge);

  // Label and property bodies shared by the vertex and heavy-edge API.
  template <class S>
  Status add_label_to(DPtr id, std::uint32_t label_id);
  template <class S>
  Status remove_label_from(DPtr id, std::uint32_t label_id);
  template <class S>
  Result<std::vector<std::uint32_t>> labels_on(DPtr id);
  /// add_* (replace = false) and update_* (replace = true): both check the
  /// property type's entity type and size class before touching the holder,
  /// and an update that cannot get room leaves the old entries in place.
  template <class S>
  Status put_property(DPtr id, std::uint32_t ptype, const PropValue& value, bool replace);
  template <class S>
  Result<std::vector<PropValue>> properties_on(DPtr id, std::uint32_t ptype);

  // Capacity management.
  Status ensure_edge_capacity(VertexState& st, std::uint32_t extra_slots);
  Status ensure_prop_capacity(VertexState& st, std::uint32_t extra_bytes);
  Status ensure_prop_capacity(EdgeState& st, std::uint32_t extra_bytes);

  // Commit helpers.
  Status commit_local();
  template <class S>
  void writeback(DPtr id, S& st);
  /// Release every held lock. With `write_through`, write unlocks go through
  /// BlockStore::write_unlock_fetch and the committed holder bytes are
  /// re-stamped into the shared cache under the fetched post-unlock version
  /// (the rank's own write set stays warm); commit passes the config knob,
  /// abort always passes false -- an aborted buffer diverged from the window
  /// bytes and must not be stamped.
  void release_locks(bool write_through);
  [[nodiscard]] std::uint32_t max_table_cap() const;
  /// Acquire / shed blocks so the holder's block count matches its size.
  template <class S>
  Status sync_blocks(DPtr id, S& st);

  Status fail(Status s) {
    if (is_transaction_critical(s)) failed_ = true;
    return s;
  }
  [[nodiscard]] Status check_writable() const;

  std::shared_ptr<Database> db_;
  rma::Rank& self_;
  TxnMode mode_;
  TxnScope scope_;
  bool active_ = true;
  bool failed_ = false;
  /// Set by writeback when a dirty block lives on a different rank than its
  /// holder's lock word: such a commit must flush before unlocking (the
  /// group-commit pipeline's same-destination ordering argument fails).
  bool wb_cross_rank_ = false;
  /// Blocks shed by holder shrinks (sync_blocks): recycled in commit phase
  /// 5 with the deletion releases -- after the writeback fence (a freed
  /// block's next owner may rewrite it, so no PUT to it may remain in
  /// flight, ours or an open epoch's) and after the shrunk header is
  /// published. On abort the list is discarded: the writeback never ran, so
  /// the window holder still references these blocks. Accepted tradeoff: a
  /// commit that shrinks one holder and grows another can no longer reuse
  /// the shed blocks intra-commit, so it may report kOutOfMemory in a pool
  /// with zero headroom where the old (ordering- and abort-unsafe) eager
  /// release would have squeaked by.
  std::vector<DPtr> shrink_release_;

  /// Redo record for the WAL (empty unless DatabaseConfig::wal): block-pool
  /// acquires are logged as they happen; images, DHT intents, lock-version
  /// bumps, and releases are added by commit_local in execution order. The
  /// record is appended to the rank's WalWriter after the writeback PUTs are
  /// issued and *before* the unlock FAAs (write-ahead rule); abort clears it.
  wal::CommitRecord wal_rec_;

  /// Armed tenant acknowledgement (arm_commit_ack); emitted into wal_rec_ by
  /// commit_local just before the record is appended. 0 = not armed.
  std::uint64_t ack_tenant_ = 0;
  std::uint64_t ack_tag_ = 0;
  Status ack_status_ = Status::kOk;
  std::int64_t ack_v0_ = 0;
  std::int64_t ack_v1_ = 0;

  std::unordered_map<std::uint64_t, std::unique_ptr<VertexState>> vcache_;
  std::unordered_map<std::uint64_t, std::unique_ptr<EdgeState>> ecache_;
  std::unordered_map<std::uint64_t, DPtr> created_ids_;  ///< app_id -> DPtr
  /// Block cache: block DPtr raw -> block bytes (block_size each).
  std::unordered_map<std::uint64_t, std::vector<std::byte>> blk_cache_;
};

}  // namespace gdi
