// Async-first transaction surface: typed futures + batch scopes.
//
// The paper's GDA implementation wins at scale by overlapping independent RMA
// operations (Section 5.1); this header makes that overlap the *default shape*
// of the transaction API instead of a side door. A BatchScope collects typed
// operations -- translate(app_id), find(app_id), associate(vid), peek_app_id,
// edges_of, get_properties, set_property, prefetch -- and resolves all of them
// with one execute() that:
//   * translates every application ID through one DHT multi-lookup,
//   * acquires all needed vertex locks in overlapped rounds: one FAA round
//     for read locks (BlockStore::try_read_lock_many), CAS rounds for write
//     locks (try_write_lock_many),
//   * fetches every holder block through get_nb + a single flush_all per round
//     (primary blocks in one overlapped batch, continuation blocks in a
//     second),
//   * resolves remaining 8-byte app-ID peeks as one final overlapped batch.
//
// The pre-existing blocking Transaction methods (find_vertex, edges_of,
// translate_vertex_ids, prefetch_vertices, associate_vertex) are thin one-op
// or n-op wrappers over this path, so there is exactly one fetch/lock code
// path in the system and spec-era call sites compile unchanged.
//
// Write side: a batch-built transaction commits through the same
// Transaction::commit() as everything else, so its writeback + unlock round
// rides the rank's group-commit pipeline (src/gdi/commit_pipeline.hpp) when
// that is enabled -- a stream of BatchScope transactions shares flush epochs
// exactly like a stream of blocking ones.
//
// Error model (mirrors GDI's transaction-critical split, Section 3.3):
//   * a *soft* per-operation failure (e.g. find() of an unknown ID ->
//     kNotFound) fails only that operation's Future; the transaction and the
//     rest of the batch proceed;
//   * a *transaction-critical* failure (lock conflict, read-only violation,
//     out of memory) dooms the whole transaction: the offending Future
//     carries the critical status, every other unresolved Future resolves to
//     kTxnAborted, and execute() returns the critical status.
//
// A Future read before execute() reports Status::kStale ("not yet
// converged"); value() is valid only when ok(). A BatchScope borrows its
// Transaction and must not outlive it; execute() may be called repeatedly,
// each call resolving the operations enqueued since the previous one.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "gdi/transaction.hpp"

namespace gdi {

namespace detail {
template <class T>
struct FutureState {
  Status status = Status::kStale;
  bool ready = false;
  T value{};
};
}  // namespace detail

/// Typed handle to the result of one batched operation. Cheap to copy
/// (shared state); resolved by the owning BatchScope's execute().
template <class T>
class Future {
 public:
  Future() = default;

  /// False for a default-constructed future not attached to any operation.
  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  /// True once execute() has resolved this operation (success or failure).
  [[nodiscard]] bool ready() const { return st_ != nullptr && st_->ready; }
  [[nodiscard]] bool ok() const { return ready() && st_->status == Status::kOk; }
  /// kStale until execute() runs; the operation's outcome afterwards.
  [[nodiscard]] Status status() const {
    if (st_ == nullptr) return Status::kInvalidArgument;
    return st_->ready ? st_->status : Status::kStale;
  }
  /// The resolved value; meaningful only when ok().
  [[nodiscard]] const T& value() const { return st_->value; }
  [[nodiscard]] const T& operator*() const { return st_->value; }
  [[nodiscard]] const T* operator->() const { return &st_->value; }

 private:
  friend class BatchScope;
  explicit Future(std::shared_ptr<detail::FutureState<T>> st) : st_(std::move(st)) {}
  std::shared_ptr<detail::FutureState<T>> st_;
};

/// Builder for one batch of independent transaction operations. Obtained from
/// Transaction::batch(); movable; enqueue ops, then execute() once.
class BatchScope {
 public:
  BatchScope() = default;
  BatchScope(BatchScope&&) = default;
  BatchScope& operator=(BatchScope&&) = default;
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

  // --- typed operations ------------------------------------------------------
  /// GDI_TranslateVertexIDNb: application ID -> internal ID.
  Future<DPtr> translate(std::uint64_t app_id);
  /// translate + associate + stale-DHT validation (find_vertex semantics).
  Future<VertexHandle> find(std::uint64_t app_id);
  /// GDI_CreateVertexNb: create_vertex whose DHT existence check rides the
  /// batch's one multi-lookup -- the write-side peer of find(). A batch of k
  /// creates pays one overlapped lookup round instead of k serial chain
  /// walks; the new vertices publish to the DHT at commit through one
  /// insert_many. kAlreadyExists is soft (only this future fails).
  Future<VertexHandle> create(std::uint64_t app_id);
  /// GDI_AssociateVertexNb: fetch + lock the holder of an internal ID.
  Future<VertexHandle> associate(DPtr vid);
  /// Lock-free 8-byte application-ID read (peek_app_id semantics).
  Future<std::uint64_t> peek_app_id(DPtr vid);
  Future<std::vector<EdgeDesc>> edges_of(DPtr vid, DirFilter f,
                                         const Constraint* c = nullptr);
  Future<std::vector<EdgeDesc>> edges_of(VertexHandle v, DirFilter f,
                                         const Constraint* c = nullptr) {
    return edges_of(v.vid, f, c);
  }
  Future<std::vector<PropValue>> get_properties(DPtr vid, std::uint32_t ptype);
  Future<std::vector<PropValue>> get_properties(VertexHandle v, std::uint32_t ptype) {
    return get_properties(v.vid, ptype);
  }
  /// GDI_AssociateEdgeNb: fetch + lock a heavy edge's holder. All edge
  /// holders of one execute() -- these, get_edge_properties targets, and the
  /// heavy edges behind constraint-filtered edges_of -- ride one fetch_batch
  /// over edge holders: one overlapped lock round set plus one primary
  /// and one continuation block round for the whole set, the same treatment
  /// vertices get (and the same shared-cache eligibility).
  Future<EdgeHandle> associate_edge(DPtr eid);
  Future<std::vector<PropValue>> get_edge_properties(DPtr eid, std::uint32_t ptype);
  Future<std::vector<PropValue>> get_edge_properties(EdgeHandle e, std::uint32_t ptype) {
    return get_edge_properties(e.eid, ptype);
  }
  /// Write intent: single-entry property update (update_property semantics).
  /// The write is buffered in the transaction and written back at commit
  /// through put_nb + one flush per target rank.
  Future<std::monostate> set_property(DPtr vid, std::uint32_t ptype, PropValue value);
  Future<std::monostate> set_property(VertexHandle v, std::uint32_t ptype,
                                      PropValue value) {
    return set_property(v.vid, ptype, std::move(value));
  }
  /// Fetch hint without a result: kReadShared populates the block cache
  /// lock-free; kRead routes through the batched lock-then-validate path
  /// (lock failures are soft -- a hint never dooms the transaction); kWrite
  /// ignores the hint (speculative read locks would poison later upgrades).
  void prefetch(DPtr vid);
  void prefetch(std::span<const DPtr> vids);
  /// Heavy-edge fetch hints, dispatched by mode exactly like prefetch():
  /// kReadShared populates lock-free, kRead locks-then-fetches (soft
  /// failures), kWrite ignores the hint.
  void prefetch_edges(std::span<const DPtr> eids);

  /// Number of operations enqueued since the last execute().
  [[nodiscard]] std::size_t pending_ops() const { return ops_.size(); }

  /// Resolve every enqueued operation. Returns kOk (individual soft failures
  /// are reported only on their futures) or the transaction-critical status
  /// that doomed the transaction.
  Status execute();

 private:
  friend class Transaction;
  explicit BatchScope(Transaction* txn) : txn_(txn) {}

  struct Op {
    enum class Kind : std::uint8_t {
      kTranslate,
      kFind,
      kCreate,
      kAssociate,
      kPeek,
      kEdges,
      kGetProps,
      kSetProp,
      kPrefetch,
      kAssocEdge,
      kEdgeProps,
      kPrefetchEdge,
    };
    Kind kind;
    bool hint_done = false;  ///< kPrefetch only (hints carry no future)
    /// kFind only: vid came from the shared cache's translation memo, not
    /// the DHT; a failed holder validation must fall back to the DHT
    /// instead of reporting kNotFound.
    bool memo_translated = false;
    std::uint64_t app_id = 0;
    DPtr vid{};
    DirFilter filter = DirFilter::kAll;
    const Constraint* cnstr = nullptr;
    std::uint32_t ptype = 0;
    PropValue value{};
    // Exactly one of these is non-null, matching `kind`.
    std::shared_ptr<detail::FutureState<DPtr>> f_vid;
    std::shared_ptr<detail::FutureState<VertexHandle>> f_vh;
    std::shared_ptr<detail::FutureState<EdgeHandle>> f_eh;
    std::shared_ptr<detail::FutureState<std::uint64_t>> f_u64;
    std::shared_ptr<detail::FutureState<std::vector<EdgeDesc>>> f_edges;
    std::shared_ptr<detail::FutureState<std::vector<PropValue>>> f_props;
    std::shared_ptr<detail::FutureState<std::monostate>> f_done;

    [[nodiscard]] bool resolved() const;
    void resolve_status(Status s);
  };

  Transaction* txn_ = nullptr;
  std::vector<Op> ops_;
};

}  // namespace gdi
