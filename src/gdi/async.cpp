#include "gdi/async.hpp"

#include <cassert>

namespace gdi {

BatchScope Transaction::batch() { return BatchScope(this); }

// ---------------------------------------------------------------------------
// Enqueue
// ---------------------------------------------------------------------------

bool BatchScope::Op::resolved() const {
  switch (kind) {
    case Kind::kTranslate: return f_vid->ready;
    case Kind::kFind:
    case Kind::kCreate:
    case Kind::kAssociate: return f_vh->ready;
    case Kind::kAssocEdge: return f_eh->ready;
    case Kind::kPeek: return f_u64->ready;
    case Kind::kEdges: return f_edges->ready;
    case Kind::kGetProps:
    case Kind::kEdgeProps: return f_props->ready;
    case Kind::kSetProp: return f_done->ready;
    case Kind::kPrefetch:
    case Kind::kPrefetchEdge: return hint_done;
  }
  return true;
}

void BatchScope::Op::resolve_status(Status s) {
  hint_done = true;
  auto set = [&](auto& st) {
    if (st && !st->ready) {
      st->status = s;
      st->ready = true;
    }
  };
  set(f_vid);
  set(f_vh);
  set(f_eh);
  set(f_u64);
  set(f_edges);
  set(f_props);
  set(f_done);
}

Future<DPtr> BatchScope::translate(std::uint64_t app_id) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kTranslate;
  op.app_id = app_id;
  op.f_vid = std::make_shared<detail::FutureState<DPtr>>();
  Future<DPtr> f(op.f_vid);
  return f;
}

Future<VertexHandle> BatchScope::find(std::uint64_t app_id) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kFind;
  op.app_id = app_id;
  op.f_vh = std::make_shared<detail::FutureState<VertexHandle>>();
  Future<VertexHandle> f(op.f_vh);
  return f;
}

Future<VertexHandle> BatchScope::create(std::uint64_t app_id) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kCreate;
  op.app_id = app_id;
  op.f_vh = std::make_shared<detail::FutureState<VertexHandle>>();
  Future<VertexHandle> f(op.f_vh);
  return f;
}

Future<VertexHandle> BatchScope::associate(DPtr vid) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kAssociate;
  op.vid = vid;
  op.f_vh = std::make_shared<detail::FutureState<VertexHandle>>();
  Future<VertexHandle> f(op.f_vh);
  return f;
}

Future<std::uint64_t> BatchScope::peek_app_id(DPtr vid) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kPeek;
  op.vid = vid;
  op.f_u64 = std::make_shared<detail::FutureState<std::uint64_t>>();
  Future<std::uint64_t> f(op.f_u64);
  return f;
}

Future<std::vector<EdgeDesc>> BatchScope::edges_of(DPtr vid, DirFilter f,
                                                   const Constraint* c) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kEdges;
  op.vid = vid;
  op.filter = f;
  op.cnstr = c;
  op.f_edges = std::make_shared<detail::FutureState<std::vector<EdgeDesc>>>();
  Future<std::vector<EdgeDesc>> fut(op.f_edges);
  return fut;
}

Future<std::vector<PropValue>> BatchScope::get_properties(DPtr vid,
                                                          std::uint32_t ptype) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kGetProps;
  op.vid = vid;
  op.ptype = ptype;
  op.f_props = std::make_shared<detail::FutureState<std::vector<PropValue>>>();
  Future<std::vector<PropValue>> fut(op.f_props);
  return fut;
}

Future<std::monostate> BatchScope::set_property(DPtr vid, std::uint32_t ptype,
                                                PropValue value) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kSetProp;
  op.vid = vid;
  op.ptype = ptype;
  op.value = std::move(value);
  op.f_done = std::make_shared<detail::FutureState<std::monostate>>();
  Future<std::monostate> fut(op.f_done);
  return fut;
}

Future<EdgeHandle> BatchScope::associate_edge(DPtr eid) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kAssocEdge;
  op.vid = eid;  // vid doubles as the holder DPtr for edge ops
  op.f_eh = std::make_shared<detail::FutureState<EdgeHandle>>();
  Future<EdgeHandle> f(op.f_eh);
  return f;
}

Future<std::vector<PropValue>> BatchScope::get_edge_properties(DPtr eid,
                                                               std::uint32_t ptype) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kEdgeProps;
  op.vid = eid;
  op.ptype = ptype;
  op.f_props = std::make_shared<detail::FutureState<std::vector<PropValue>>>();
  Future<std::vector<PropValue>> fut(op.f_props);
  return fut;
}

void BatchScope::prefetch(DPtr vid) {
  ops_.emplace_back();
  Op& op = ops_.back();
  op.kind = Op::Kind::kPrefetch;
  op.vid = vid;
}

void BatchScope::prefetch(std::span<const DPtr> vids) {
  ops_.reserve(ops_.size() + vids.size());
  for (DPtr v : vids) prefetch(v);
}

void BatchScope::prefetch_edges(std::span<const DPtr> eids) {
  ops_.reserve(ops_.size() + eids.size());
  for (DPtr e : eids) {
    ops_.emplace_back();
    Op& op = ops_.back();
    op.kind = Op::Kind::kPrefetchEdge;
    op.vid = e;
  }
}

// ---------------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------------

Status BatchScope::execute() {
  if (txn_ == nullptr) return Status::kInvalidArgument;
  Transaction& t = *txn_;
  std::vector<Op> ops = std::move(ops_);
  ops_.clear();
  if (ops.empty()) return Status::kOk;

  auto resolve_rest = [&](Status s) {
    for (auto& op : ops)
      if (!op.resolved()) op.resolve_status(s);
  };
  if (!t.active_ || t.failed_) {
    resolve_rest(Status::kTxnAborted);
    return Status::kTxnAborted;
  }

  // Phase 1: ID translation -- one DHT multi-lookup for every translate/find,
  // and for every create's existence check (a create *expects* a miss).
  // find() consults the shared cache's translation memo first: a memo hit
  // skips the DHT walk entirely, because find's own holder validation
  // (fetched app id must equal the queried one) already proves or refutes
  // the translation -- refuted ones fall back to the DHT in phase 4.5.
  {
    auto* sc = t.scache();
    std::vector<std::uint64_t> app_ids;
    std::vector<std::size_t> pos;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind == Op::Kind::kFind && sc != nullptr) {
        // No epoch check here: find()'s own holder validation (fetched app id
        // must equal the queried one) proves or refutes the memo for free.
        if (const auto* tr = sc->find_translation(ops[i].app_id)) {
          ops[i].vid = tr->vid;
          ops[i].memo_translated = true;
          continue;
        }
      }
      if (ops[i].kind == Op::Kind::kTranslate || ops[i].kind == Op::Kind::kFind ||
          ops[i].kind == Op::Kind::kCreate) {
        app_ids.push_back(ops[i].app_id);
        pos.push_back(i);
      }
    }
    if (!app_ids.empty()) {
      auto vids = t.translate_ids_impl(app_ids);
      if (!vids.ok()) {  // only an aborted/doomed txn fails translation
        resolve_rest(vids.status());
        return vids.status();
      }
      for (std::size_t j = 0; j < pos.size(); ++j) {
        Op& op = ops[pos[j]];
        const DPtr v = (*vids)[j];
        if (op.kind == Op::Kind::kTranslate) {
          if (v.is_null()) {
            op.resolve_status(Status::kNotFound);
          } else {
            op.f_vid->value = v;
            op.resolve_status(Status::kOk);
          }
        } else if (op.kind == Op::Kind::kCreate) {
          // A hit fails only this create; a miss defers to resolution time
          // (create_vertex_impl with the existence check already done).
          if (!v.is_null()) op.resolve_status(Status::kAlreadyExists);
        } else if (v.is_null()) {
          op.resolve_status(Status::kNotFound);
        } else {
          op.vid = v;
        }
      }
    }
  }

  // Phase 2: collect the holder set. Reads and the write intents share one
  // spec list; kReadShared prefetch hints bypass specs (lock-free cache
  // population), kWrite ignores hints entirely.
  std::vector<Transaction::FetchSpec> specs;
  std::vector<std::size_t> op_spec(ops.size(), SIZE_MAX);
  std::vector<DPtr> lockfree_hints;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    if (op.resolved()) continue;
    switch (op.kind) {
      case Op::Kind::kFind:
      case Op::Kind::kAssociate:
      case Op::Kind::kEdges:
      case Op::Kind::kGetProps:
        if (op.vid.is_null()) {
          op.resolve_status(Status::kInvalidArgument);
          break;
        }
        op_spec[i] = specs.size();
        specs.push_back({op.vid, /*write=*/false, /*required=*/true});
        break;
      case Op::Kind::kSetProp:
        if (op.vid.is_null()) {
          op.resolve_status(Status::kInvalidArgument);
          break;
        }
        op_spec[i] = specs.size();
        specs.push_back({op.vid, /*write=*/true, /*required=*/true});
        break;
      case Op::Kind::kPrefetch:
        if (op.vid.is_null()) break;
        if (t.mode_ == TxnMode::kReadShared) lockfree_hints.push_back(op.vid);
        else if (t.mode_ == TxnMode::kRead)
          specs.push_back({op.vid, /*write=*/false, /*required=*/false});
        break;
      case Op::Kind::kTranslate:
      case Op::Kind::kCreate:
      case Op::Kind::kPeek:
      case Op::Kind::kAssocEdge:
      case Op::Kind::kEdgeProps:
      case Op::Kind::kPrefetchEdge:
        break;  // no vertex holder needed (edge ops batch in phase 3.5)
    }
  }

  // Phase 3: hints first (so spec fetches hit the freshly populated cache),
  // then the single lock/fetch path for everything that needs a state.
  if (!lockfree_hints.empty())
    t.populate_block_cache<Transaction::VertexState>(lockfree_hints);
  std::vector<Status> per(specs.size(), Status::kOk);
  const Status doom =
      specs.empty()
          ? Status::kOk
          : t.fetch_batch<Transaction::VertexState>(
                specs, std::span<Status>(per.data(), per.size()));
  if (!ok(doom)) {
    // Transaction-critical failure: the offending ops carry their own status,
    // everything else unresolved aborts.
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].resolved()) continue;
      const std::size_t s = op_spec[i];
      if (s != SIZE_MAX && !ok(per[s])) ops[i].resolve_status(per[s]);
      else ops[i].resolve_status(Status::kTxnAborted);
    }
    return doom;
  }

  // Phase 3.5: heavy-edge holders. Explicit edge ops know their holder up
  // front; constraint-filtered edges_of ops contribute the heavy holders of
  // every direction-matching record of their now-materialized vertex (the
  // records a serial edges_of would have locked-and-fetched one by one).
  // One fetch_batch over the edge holders gives the whole set one overlapped
  // lock round and one primary + one continuation block round.
  std::vector<Transaction::FetchSpec> especs;
  std::vector<std::size_t> op_espec(ops.size(), SIZE_MAX);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    if (op.resolved()) continue;
    switch (op.kind) {
      case Op::Kind::kAssocEdge:
      case Op::Kind::kEdgeProps:
        if (op.vid.is_null()) {
          op.resolve_status(Status::kInvalidArgument);
          break;
        }
        op_espec[i] = especs.size();
        especs.push_back({op.vid, /*write=*/false, /*required=*/true});
        break;
      case Op::Kind::kPrefetchEdge:
        // Hints are soft and never carry a future; kWrite ignores them for
        // the same reason it ignores vertex hints (speculative read locks
        // would poison later upgrades).
        if (!op.vid.is_null() && t.mode_ != TxnMode::kWrite)
          especs.push_back({op.vid, /*write=*/false, /*required=*/false});
        op.hint_done = true;
        break;
      case Op::Kind::kEdges: {
        if (op.cnstr == nullptr || op.cnstr->empty()) break;
        const std::size_t s = op_spec[i];
        if (s != SIZE_MAX && !ok(per[s])) break;  // vertex itself failed
        auto vit = t.vcache_.find(op.vid.raw());
        if (vit == t.vcache_.end()) break;
        vit->second->view.for_each_edge(
            [&](std::uint32_t, const layout::EdgeRecord& rec) {
              if (rec.heavy.is_null() || !dir_matches(op.filter, rec.dir)) return;
              if (t.ecache_.contains(rec.heavy.raw())) return;
              especs.push_back({rec.heavy, /*write=*/false, /*required=*/true});
            });
        break;
      }
      default:
        break;
    }
  }
  if (!especs.empty()) {
    std::vector<Status> eper(especs.size(), Status::kOk);
    const Status edoom = t.fetch_batch<Transaction::EdgeState>(
        especs, std::span<Status>(eper.data(), eper.size()));
    if (!ok(edoom)) {
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].resolved()) continue;
        const std::size_t s = op_espec[i];
        if (s != SIZE_MAX && !ok(eper[s])) ops[i].resolve_status(eper[s]);
        else ops[i].resolve_status(Status::kTxnAborted);
      }
      return edoom;
    }
    // Soft per-holder failures (e.g. a racing delete) fail only the explicit
    // edge ops that named the holder; edges_of ops just skip the record.
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::size_t s = op_espec[i];
      if (s != SIZE_MAX && !ops[i].resolved() && !ok(eper[s]))
        ops[i].resolve_status(eper[s]);
    }
  }

  // Phase 4: resolution, in enqueue order. Holder-based ops are now local
  // (vcache_/ecache_/block-cache hits); app-ID peeks that miss queue up for
  // one final overlapped 8-byte batch.
  struct PendingPeek {
    std::size_t op;
    std::uint64_t id = 0;
  };
  std::vector<PendingPeek> peeks;
  std::vector<std::size_t> memo_fallback;  ///< finds whose memo vid was refuted
  Status final_status = Status::kOk;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    if (op.resolved()) continue;
    if (!ok(final_status)) {
      // A resolution-time critical failure (e.g. a read-only violation from a
      // write intent) doomed the transaction: everything still unresolved
      // aborts, matching the documented error model.
      op.resolve_status(Status::kTxnAborted);
      continue;
    }
    const std::size_t s = op_spec[i];
    if (s != SIZE_MAX && !ok(per[s])) {
      // A memo-translated find whose holder failed softly (deleted or
      // recycled block) retries through the real DHT in phase 4.5; anything
      // else reports here.
      if (op.kind == Op::Kind::kFind && op.memo_translated &&
          !is_transaction_critical(per[s]))
        memo_fallback.push_back(i);
      else
        op.resolve_status(per[s]);
      continue;
    }
    switch (op.kind) {
      case Op::Kind::kFind: {
        // Stale-DHT guard (the blocking find_vertex's app-id check): the
        // holder we fetched must actually be the vertex we looked up. The
        // same check is what makes memo translations safe to trust.
        auto it = t.vcache_.find(op.vid.raw());
        assert(it != t.vcache_.end());
        if (it->second->view.app_id() != op.app_id) {
          if (op.memo_translated) {
            memo_fallback.push_back(i);
          } else {
            op.resolve_status(Status::kNotFound);
          }
        } else {
          op.f_vh->value = VertexHandle{op.vid};
          op.resolve_status(Status::kOk);
          // Stamped with the rank's last *observed* erase epoch -- read at
          // some point no later than this verification, the conservative
          // direction for bare-translate epoch validation.
          if (auto* sc = t.scache())
            sc->remember_translation(op.app_id, op.vid,
                                     t.db_->id_index().cached_erase_epoch(t.self_));
        }
        break;
      }
      case Op::Kind::kAssociate:
        op.f_vh->value = VertexHandle{op.vid};
        op.resolve_status(Status::kOk);
        break;
      case Op::Kind::kCreate: {
        auto r = t.create_vertex_impl(op.app_id, /*dht_checked=*/true);
        if (r.ok()) op.f_vh->value = *r;
        op.resolve_status(r.status());
        if (is_transaction_critical(r.status())) final_status = r.status();
        break;
      }
      case Op::Kind::kEdges: {
        auto r = t.edges_of_impl(VertexHandle{op.vid}, op.filter, op.cnstr);
        if (r.ok()) op.f_edges->value = std::move(r.value());
        op.resolve_status(r.status());
        if (is_transaction_critical(r.status())) final_status = r.status();
        break;
      }
      case Op::Kind::kGetProps: {
        auto r = t.get_properties(VertexHandle{op.vid}, op.ptype);
        if (r.ok()) op.f_props->value = std::move(r.value());
        op.resolve_status(r.status());
        if (is_transaction_critical(r.status())) final_status = r.status();
        break;
      }
      case Op::Kind::kSetProp: {
        const Status s2 = t.update_property(VertexHandle{op.vid}, op.ptype, op.value);
        op.resolve_status(s2);
        if (is_transaction_critical(s2)) final_status = s2;
        break;
      }
      case Op::Kind::kPeek: {
        if (op.vid.is_null()) {
          op.resolve_status(Status::kInvalidArgument);
          break;
        }
        std::uint64_t id = 0;
        if (t.peek_cached(op.vid, &id)) {
          op.f_u64->value = id;
          op.resolve_status(Status::kOk);
        } else {
          peeks.push_back({i});
        }
        break;
      }
      case Op::Kind::kAssocEdge:
        op.f_eh->value = EdgeHandle{op.vid};
        op.resolve_status(Status::kOk);
        break;
      case Op::Kind::kEdgeProps: {
        auto r = t.get_edge_properties(EdgeHandle{op.vid}, op.ptype);
        if (r.ok()) op.f_props->value = std::move(r.value());
        op.resolve_status(r.status());
        if (is_transaction_critical(r.status())) final_status = r.status();
        break;
      }
      case Op::Kind::kTranslate:
      case Op::Kind::kPrefetch:
      case Op::Kind::kPrefetchEdge:
        break;
    }
  }

  if (!ok(final_status)) {
    for (auto& p : peeks) ops[p.op].resolve_status(Status::kTxnAborted);
    for (std::size_t i : memo_fallback) ops[i].resolve_status(Status::kTxnAborted);
    return final_status;
  }

  // Phase 4.5: DHT fallback for refuted memo translations (the id was
  // deleted, or relocated by a delete + re-create). Rare by construction:
  // costs one real multi-lookup plus one fetch round for just the refuted
  // subset, and re-teaches the memo on success.
  if (!memo_fallback.empty()) {
    auto* sc = t.scache();
    std::vector<std::uint64_t> ids;
    ids.reserve(memo_fallback.size());
    for (std::size_t i : memo_fallback) {
      if (sc != nullptr) sc->forget_translation(ops[i].app_id);
      ids.push_back(ops[i].app_id);
    }
    auto vids = t.translate_ids_impl(ids);
    if (!vids.ok()) {
      for (std::size_t i : memo_fallback) ops[i].resolve_status(vids.status());
      for (auto& p : peeks) ops[p.op].resolve_status(Status::kTxnAborted);
      return vids.status();
    }
    std::vector<Transaction::FetchSpec> fspecs;
    std::vector<std::size_t> fmap;
    for (std::size_t j = 0; j < memo_fallback.size(); ++j) {
      Op& op = ops[memo_fallback[j]];
      const DPtr v = (*vids)[j];
      // Null: the id is gone. Equal to the refuted holder: the DHT agrees
      // with the memo, so the blocking path would report the same miss.
      if (v.is_null() || v == op.vid) {
        op.resolve_status(Status::kNotFound);
        continue;
      }
      op.vid = v;
      fmap.push_back(memo_fallback[j]);
      fspecs.push_back({v, /*write=*/false, /*required=*/true});
    }
    if (!fspecs.empty()) {
      std::vector<Status> fper(fspecs.size(), Status::kOk);
      const Status fdoom = t.fetch_batch<Transaction::VertexState>(
          fspecs, std::span<Status>(fper.data(), fper.size()));
      for (std::size_t k = 0; k < fmap.size(); ++k) {
        Op& op = ops[fmap[k]];
        if (!ok(fper[k])) {
          op.resolve_status(fper[k]);
          continue;
        }
        auto it = t.vcache_.find(op.vid.raw());
        if (it == t.vcache_.end() || it->second->view.app_id() != op.app_id) {
          op.resolve_status(Status::kNotFound);
        } else {
          op.f_vh->value = VertexHandle{op.vid};
          op.resolve_status(Status::kOk);
          if (sc != nullptr)
            sc->remember_translation(op.app_id, op.vid,
                                     t.db_->id_index().cached_erase_epoch(t.self_));
        }
      }
      if (!ok(fdoom)) {
        for (auto& p : peeks) ops[p.op].resolve_status(Status::kTxnAborted);
        return fdoom;
      }
    }
  }

  // Phase 5: overlapped 8-byte peeks (blocking reads when batching is off --
  // identical bytes, serial latency). A doomed transaction issues no further
  // RMA: queued peeks abort like any other unresolved future.
  if (!peeks.empty()) {
    auto& blocks = t.db_->blocks();
    if (t.batching_enabled()) {
      for (auto& p : peeks) blocks.read_nb(t.self_, ops[p.op].vid, 0, &p.id, 8);
      (void)t.self_.flush_all();
    } else {
      for (auto& p : peeks) blocks.read(t.self_, ops[p.op].vid, 0, &p.id, 8);
    }
    if (t.cache_enabled()) t.self_.counters().cache_misses += peeks.size();
    for (auto& p : peeks) {
      ops[p.op].f_u64->value = p.id;
      ops[p.op].resolve_status(Status::kOk);
    }
  }
  return final_status;
}

}  // namespace gdi
