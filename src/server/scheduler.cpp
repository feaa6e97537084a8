#include "server/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "gdi/async.hpp"
#include "gdi/database.hpp"
#include "gdi/transaction.hpp"

namespace gdi::server {

// ---------------------------------------------------------------------------
// Session (client-thread surface)
// ---------------------------------------------------------------------------

Status Session::submit(const Request& r) {
  TenantScheduler* o = owner_;
  const auto shed = [&](Status s) {
    rejects_.fetch_add(1, std::memory_order_relaxed);
    o->rejects_.fetch_add(1, std::memory_order_relaxed);
    return s;
  };
  if (!o->accepting_.load(std::memory_order_acquire)) return shed(Status::kShutdown);
  std::lock_guard<std::mutex> lk(mu_);
  if (closed_) return shed(Status::kShutdown);
  if (inflight_ >= o->cfg_.inflight_per_tenant) return shed(Status::kOverloaded);
  constexpr std::size_t cost = sizeof(Request);
  // Reserve-then-check keeps the global budget exact under concurrent
  // submitters: the loser of a photo-finish gives its reservation back.
  const std::size_t prev =
      o->admitted_bytes_.fetch_add(cost, std::memory_order_acq_rel);
  if (prev + cost > o->cfg_.admission_bytes) {
    o->admitted_bytes_.fetch_sub(cost, std::memory_order_acq_rel);
    return shed(Status::kOverloaded);
  }
  inflight_ += 1;
  q_.push_back(r);
  return Status::kOk;
}

void Session::close() {
  std::lock_guard<std::mutex> lk(mu_);
  closed_ = true;
}

std::vector<Reply> Session::take_replies() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Reply> out;
  out.swap(replies_);
  return out;
}

bool Session::quiesced() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_ && q_.empty() && inflight_ == 0 && replies_.empty();
}

// ---------------------------------------------------------------------------
// TenantScheduler (rank-thread surface)
// ---------------------------------------------------------------------------

Session* TenantScheduler::open_session() {
  // Revive a recycled slot first: under connection churn the roster stays
  // bounded by peak concurrency. Recycled sessions are quiesced by contract,
  // so flipping their flags needs no lock ordering care beyond the mutex.
  for (auto& up : sessions_) {
    Session* s = up.get();
    if (!s->recycled_) continue;
    std::lock_guard<std::mutex> lk(s->mu_);
    s->recycled_ = false;
    s->closed_ = false;
    s->deficit_ = 0;
    s->durable_tenant_ = 0;
    return s;
  }
  const int id = static_cast<int>(sessions_.size());
  sessions_.emplace_back(std::unique_ptr<Session>(new Session(this, id)));
  served_of_.push_back(0);
  hists_.emplace_back();
  return sessions_.back().get();
}

void TenantScheduler::recycle(Session* s) {
  std::lock_guard<std::mutex> lk(s->mu_);
  // Contract: closed and drained. A non-quiesced recycle would lose queued
  // work, so refuse it (the listener only recycles after quiesced()).
  if (!s->closed_ || !s->q_.empty() || s->inflight_ != 0 || !s->replies_.empty())
    return;
  s->recycled_ = true;
}

bool TenantScheduler::idle() const {
  if (!pending_.empty()) return false;
  for (const auto& up : sessions_) {
    Session* s = up.get();
    std::lock_guard<std::mutex> lk(s->mu_);
    if (!s->q_.empty() || s->inflight_ != 0) return false;
  }
  return true;
}

stats::LatencyHist TenantScheduler::merged_latency() const {
  stats::LatencyHist all;
  for (const auto& h : hists_) all.merge(h);
  return all;
}

void TenantScheduler::flush_rejects(rma::Rank& self) {
  const std::uint64_t r = rejects_.exchange(0, std::memory_order_relaxed);
  if (r != 0) self.counters().sched_admission_rejects += r;
}

void TenantScheduler::complete(Session* s, Reply rep, double arrival_ns,
                               double now_ns, rma::Rank& self) {
  rep.complete_ns = now_ns;
  // Open-loop latency: from the request's arrival stamp, so time spent queued
  // behind other tenants (and waiting for an epoch to close) is in the tail.
  hists_[static_cast<std::size_t>(s->id_)].add(std::max(0.0, now_ns - arrival_ns));
  self.counters().sched_served += 1;
  std::lock_guard<std::mutex> lk(s->mu_);
  s->replies_.push_back(rep);
  if (s->inflight_ > 0) s->inflight_ -= 1;
}

void TenantScheduler::on_epoch_close(rma::Rank& self) {
  if (pending_.empty()) return;
  self.counters().sched_epochs += 1;
  const double now = self.sim_time_ns();
  // Swap out first: complete() takes session mutexes, and a future observer
  // firing reentrantly (it cannot today -- commits never run inside
  // complete()) must not see half-consumed state.
  std::vector<PendingReply> done;
  done.swap(pending_);
  for (auto& p : done) complete(p.s, p.rep, p.arrival_ns, now, self);
}

namespace {

/// Decode the first kInt64 entry of (vh, ptype); soft/critical failures are
/// reported through `st` (left untouched on success).
std::int64_t prop_int(Transaction& txn, VertexHandle vh, std::uint32_t ptype,
                      Status* st) {
  auto props = txn.get_properties(vh, ptype);
  if (!props.ok()) {
    *st = props.status();
    return 0;
  }
  if (props->empty()) return 0;
  if (const auto* p = std::get_if<std::int64_t>(&props->front())) return *p;
  return 0;
}

}  // namespace

void TenantScheduler::exec_read_single(const std::shared_ptr<Database>& db,
                                       rma::Rank& self, Dispatch& d) {
  const Request& r = d.r;
  Status outcome = Status::kOk;
  std::int64_t v0 = 0;
  std::int64_t v1 = 0;
  {
    Transaction txn(db, self, TxnMode::kRead);
    BatchScope scope = txn.batch();
    Future<VertexHandle> fa = scope.find(r.a);
    Future<VertexHandle> fb;
    if (r.op == OpKind::kReadPair) fb = scope.find(r.b);
    const Status es = scope.execute();
    if (is_transaction_critical(es)) {
      outcome = es;
      txn.abort();
    } else {
      if (!fa.ok()) {
        outcome = fa.status();
      } else {
        v0 = prop_int(txn, *fa, r.ptype, &outcome);
        if (r.op == OpKind::kReadPair) {
          if (!fb.ok())
            outcome = fb.status();
          else
            v1 = prop_int(txn, *fb, r.ptype, &outcome);
        }
      }
      const Status cs = txn.commit();
      if (is_transaction_critical(cs)) outcome = cs;
    }
  }
  complete(d.s, Reply{r.client_tag, outcome, v0, v1, 0}, r.arrival_ns,
           self.sim_time_ns(), self);
}

void TenantScheduler::exec_reads(const std::shared_ptr<Database>& db,
                                 rma::Rank& self, Dispatch* group, std::size_t n) {
  // One kRead transaction, one BatchScope::execute for the whole run: the
  // same frontier grouping the OLTP driver applies within one client, here
  // merging reads from *different tenants* into one overlapped round.
  std::vector<Status> outcomes(n, Status::kOk);
  std::vector<std::int64_t> v0(n, 0);
  std::vector<std::int64_t> v1(n, 0);
  bool doomed = false;
  {
    Transaction txn(db, self, TxnMode::kRead);
    BatchScope scope = txn.batch();
    std::vector<Future<VertexHandle>> fa(n);
    std::vector<Future<VertexHandle>> fb(n);
    for (std::size_t i = 0; i < n; ++i) {
      fa[i] = scope.find(group[i].r.a);
      if (group[i].r.op == OpKind::kReadPair) fb[i] = scope.find(group[i].r.b);
    }
    doomed = is_transaction_critical(scope.execute());
    if (!doomed) {
      for (std::size_t i = 0; i < n; ++i) {
        const Request& r = group[i].r;
        if (!fa[i].ok()) {
          outcomes[i] = fa[i].status();
          continue;
        }
        v0[i] = prop_int(txn, *fa[i], r.ptype, &outcomes[i]);
        if (r.op == OpKind::kReadPair) {
          if (!fb[i].ok())
            outcomes[i] = fb[i].status();
          else
            v1[i] = prop_int(txn, *fb[i], r.ptype, &outcomes[i]);
        }
      }
      doomed = is_transaction_critical(txn.commit());
    }
  }
  if (doomed) {
    // A writer doomed the shared transaction: retry every request in its own
    // transaction so one conflicted vertex cannot fail its group siblings.
    for (std::size_t i = 0; i < n; ++i) exec_read_single(db, self, group[i]);
    return;
  }
  self.counters().sched_coalesced += n;
  const double now = self.sim_time_ns();
  for (std::size_t i = 0; i < n; ++i)
    complete(group[i].s, Reply{group[i].r.client_tag, outcomes[i], v0[i], v1[i], 0},
             group[i].r.arrival_ns, now, self);
}

void TenantScheduler::exec_write(const std::shared_ptr<Database>& db,
                                 rma::Rank& self, Dispatch& d) {
  const Request& r = d.r;
  CommitPipeline* cp = db->commit_pipeline(self);
  Status outcome = Status::kOk;
  std::int64_t v0 = 0;
  std::uint64_t enrolled_before = 0;
  for (std::size_t attempt = 0;; ++attempt) {
    outcome = Status::kOk;
    v0 = 0;
    enrolled_before = self.counters().gc_enrolled;
    {
      Transaction txn(db, self, TxnMode::kWrite);
      switch (r.op) {
        case OpKind::kUpdateProp: {
          auto vh = txn.find_vertex(r.a);
          if (!vh.ok()) {
            outcome = vh.status();
            txn.abort();
            break;
          }
          const Status s = txn.update_property(*vh, r.ptype, PropValue{r.value});
          if (is_transaction_critical(s)) {
            outcome = s;
            txn.abort();
            break;
          }
          // The reply a successful commit will carry (the non-critical `s`
          // merge below) is known now -- arm it so it rides the WAL record.
          txn.arm_commit_ack(d.s->durable_tenant(), r.client_tag,
                             ok(s) ? Status::kOk : s, r.value, 0);
          outcome = txn.commit();
          if (!ok(s) && ok(outcome)) outcome = s;
          v0 = r.value;
          break;
        }
        case OpKind::kIncrement: {
          // Serializable read-modify-write: the read takes the read lock, the
          // update upgrades it, so two increments can never both read the old
          // value -- this is the lost-update shape the ACID audit hammers.
          auto vh = txn.find_vertex(r.a);
          if (!vh.ok()) {
            outcome = vh.status();
            txn.abort();
            break;
          }
          // Any failure -- critical or not -- aborts and is the reply: a
          // failed read has no value to increment, and committing after a
          // failed update would acknowledge a write that did not happen.
          Status s = Status::kOk;
          const std::int64_t cur = prop_int(txn, *vh, r.ptype, &s);
          if (ok(s)) s = txn.update_property(*vh, r.ptype, PropValue{cur + 1});
          if (!ok(s)) {
            outcome = s;
            txn.abort();
            break;
          }
          txn.arm_commit_ack(d.s->durable_tenant(), r.client_tag, Status::kOk,
                             cur + 1, 0);
          outcome = txn.commit();
          v0 = cur + 1;
          break;
        }
        case OpKind::kWritePair: {
          auto va = txn.find_vertex(r.a);
          auto vb = va.ok() ? txn.find_vertex(r.b)
                            : Result<VertexHandle>(va.status());
          if (!va.ok() || !vb.ok()) {
            outcome = va.ok() ? vb.status() : va.status();
            txn.abort();
            break;
          }
          // Both writes or neither: any failure aborts and is the reply.
          Status s = txn.update_property(*va, r.ptype, PropValue{r.value});
          if (ok(s)) s = txn.update_property(*vb, r.ptype, PropValue{r.value});
          if (!ok(s)) {
            outcome = s;
            txn.abort();
            break;
          }
          txn.arm_commit_ack(d.s->durable_tenant(), r.client_tag, Status::kOk,
                             r.value, 0);
          outcome = txn.commit();
          v0 = r.value;
          break;
        }
        case OpKind::kAddEdge: {
          auto va = txn.find_vertex(r.a);
          auto vb = va.ok() ? txn.find_vertex(r.b)
                            : Result<VertexHandle>(va.status());
          if (!va.ok() || !vb.ok()) {
            outcome = va.ok() ? vb.status() : va.status();
            txn.abort();
            break;
          }
          auto uid = txn.create_edge(*va, *vb, layout::Dir::kOut);
          if (is_transaction_critical(uid.status()) && !uid.ok()) {
            outcome = uid.status();
            txn.abort();
            break;
          }
          txn.arm_commit_ack(d.s->durable_tenant(), r.client_tag, Status::kOk,
                             0, 0);
          outcome = txn.commit();
          break;
        }
        case OpKind::kGetProps:
        case OpKind::kReadPair:
          outcome = Status::kInvalidArgument;  // reads never reach here
          txn.abort();
          break;
      }
    }
    if (outcome != Status::kTxnConflict || attempt >= cfg_.write_retries) break;
  }
  Reply rep{r.client_tag, outcome, v0, 0, 0};
  // Deferral detection: commit() enrolled into the pipeline (gc_enrolled
  // moved) and the epoch is still open -- the writeback's completion fence
  // has not run, so the acknowledgement waits for the epoch observer. A
  // commit that *closed* its own epoch finds epoch_open() false (the
  // observer already fired, completing earlier pending replies) and is
  // acknowledged here, after the fence.
  const bool deferred = outcome == Status::kOk && cp != nullptr &&
                        cp->epoch_open() &&
                        self.counters().gc_enrolled > enrolled_before;
  if (deferred)
    pending_.push_back({d.s, rep, r.arrival_ns});
  else
    complete(d.s, rep, r.arrival_ns, self.sim_time_ns(), self);
}

bool TenantScheduler::pump(const std::shared_ptr<Database>& db, rma::Rank& self) {
  flush_rejects(self);
  const std::size_t n = sessions_.size();
  if (n == 0) return false;
  const double now = self.sim_time_ns();
  constexpr std::size_t cost = sizeof(Request);
  const std::size_t quantum = std::max<std::size_t>(cfg_.drr_quantum_bytes, 1);

  // Deficit round-robin dispatch: each visited session with runnable work
  // earns `quantum` bytes and dispatches FIFO while the deficit covers a
  // request. The plan preserves per-session program order; across sessions
  // it interleaves at quantum granularity, which is the fairness bound.
  std::vector<Dispatch> plan;
  for (std::size_t k = 0; k < n; ++k) {
    Session* s = sessions_[(rr_next_ + k) % n].get();
    std::lock_guard<std::mutex> lk(s->mu_);
    if (s->q_.empty()) {
      s->deficit_ = 0;  // classic DRR: an idle session banks no credit
      continue;
    }
    if (s->q_.front().arrival_ns > now) continue;  // not yet arrived
    s->deficit_ += quantum;
    while (!s->q_.empty() && s->q_.front().arrival_ns <= now &&
           s->deficit_ >= cost) {
      plan.push_back({s, s->q_.front()});
      s->q_.pop_front();
      s->deficit_ -= cost;
      served_of_[static_cast<std::size_t>(s->id_)] += 1;
      admitted_bytes_.fetch_sub(cost, std::memory_order_acq_rel);
    }
    if (s->q_.empty()) s->deficit_ = 0;
  }
  rr_next_ = (rr_next_ + 1) % n;
  if (plan.empty()) return false;

  // Execute the plan: maximal runs of consecutive reads share one
  // transaction (a write ends the run -- it may depend on the reads' targets
  // and per-session order must hold); everything else runs on its own.
  const std::size_t max_group = std::max<std::size_t>(cfg_.read_coalesce, 1);
  std::size_t i = 0;
  while (i < plan.size()) {
    if (is_read(plan[i].r.op) && max_group > 1) {
      std::size_t j = i;
      while (j < plan.size() && is_read(plan[j].r.op) && j - i < max_group) ++j;
      if (j - i == 1)
        exec_read_single(db, self, plan[i]);
      else
        exec_reads(db, self, plan.data() + i, j - i);
      i = j;
    } else if (is_read(plan[i].r.op)) {
      exec_read_single(db, self, plan[i]);
      ++i;
    } else {
      exec_write(db, self, plan[i]);
      ++i;
    }
  }
  return true;
}

void TenantScheduler::drain_loop(const std::shared_ptr<Database>& db,
                                 rma::Rank& self, bool until_closed) {
  CommitPipeline* cp = db->commit_pipeline(self);
  for (;;) {
    if (pump(db, self)) continue;
    // Nothing runnable at the current simulated time. Decide between done /
    // wait for clients (real time) / idle forward (simulated time).
    bool all_empty = true;
    bool all_closed = true;
    bool can_advance = true;
    double earliest = std::numeric_limits<double>::infinity();
    for (const auto& up : sessions_) {
      Session* s = up.get();
      std::lock_guard<std::mutex> lk(s->mu_);
      if (!s->q_.empty()) {
        all_empty = false;
        earliest = std::min(earliest, s->q_.front().arrival_ns);
      } else if (!s->closed_ && until_closed) {
        // An open, empty session may still submit a stamp earlier than any
        // queued one; advancing past it would reorder arrivals. Conservative
        // time advance: wait (real time) until it queues or closes.
        can_advance = false;
      }
      if (!s->closed_) all_closed = false;
    }
    if (all_empty && (!until_closed || all_closed)) break;
    if (all_empty || !can_advance) {
      std::this_thread::yield();
      continue;
    }
    const double now = self.sim_time_ns();
    if (earliest > now) {
      // Idle gap with nothing to amortize against: fence the open epoch so
      // deferred acknowledgements do not wait out the idle period too.
      if (cp != nullptr) cp->sync(self);
      self.charge(earliest - now);
    }
    // earliest <= now with an empty plan: deficits below one request's cost
    // accumulate across pump rounds; just pump again.
  }
  if (cp != nullptr) cp->sync(self);  // completes pending_ via the observer
  flush_rejects(self);
}

void TenantScheduler::run(const std::shared_ptr<Database>& db, rma::Rank& self) {
  drain_loop(db, self, /*until_closed=*/true);
}

void TenantScheduler::shutdown(const std::shared_ptr<Database>& db,
                               rma::Rank& self) {
  accepting_.store(false, std::memory_order_release);
  drain_loop(db, self, /*until_closed=*/false);
}

}  // namespace gdi::server
