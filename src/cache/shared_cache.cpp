#include "cache/shared_cache.hpp"

namespace gdi::cache {

namespace {

// One copy of the lazy (key, seq) FIFO discipline shared by holder entries
// and the translation memo: pop-evict the oldest *live* slot while `over`
// holds (slots whose entry was refreshed under a newer seq, or erased, are
// skipped -- evicting by a stale slot would drop a live hot entry), then
// sweep stale slots once they dominate the deque (refresh/forget cycles
// accumulate them without ever crossing the eviction threshold).
template <class Map, class OverFn, class OnEvict>
void bound_fifo(Map& map, std::deque<std::pair<std::uint64_t, std::uint64_t>>& fifo,
                OverFn over, OnEvict on_evict) {
  while (over() && !fifo.empty()) {
    const auto [key, seq] = fifo.front();
    fifo.pop_front();
    auto it = map.find(key);
    if (it != map.end() && it->second.seq == seq) {
      on_evict(it);
      map.erase(it);
    }
  }
  if (fifo.size() > 4 * (map.size() + 64)) {
    std::deque<std::pair<std::uint64_t, std::uint64_t>> live;
    for (const auto& [key, seq] : fifo) {
      auto it = map.find(key);
      if (it != map.end() && it->second.seq == seq) live.emplace_back(key, seq);
    }
    fifo = std::move(live);
  }
}

}  // namespace

bool SharedBlockCache::pop_live(
    std::deque<std::pair<std::uint64_t, std::uint64_t>>& fifo) {
  while (!fifo.empty()) {
    const auto [key, seq] = fifo.front();
    fifo.pop_front();
    auto it = map_.find(key);
    if (it != map_.end() && it->second.seq == seq) {
      bytes_ -= it->second.buf.size();
      if (it->second.probation) prob_bytes_ -= it->second.buf.size();
      map_.erase(it);
      return true;
    }
  }
  return false;
}

void SharedBlockCache::bound() {
  while (bytes_ > cfg_.max_bytes) {
    if (cfg_.policy == ScachePolicy::k2Q) {
      // Probation pays first once it exceeds its share -- that is the scan
      // resistance: a one-touch flood evicts other one-touch entries, not
      // the twice-touched residents. Either queue covers for the other when
      // it has no live slot left.
      const auto prob_budget = static_cast<std::size_t>(
          cfg_.probation_fraction * static_cast<double>(cfg_.max_bytes));
      if (prob_bytes_ > prob_budget && pop_live(prob_fifo_)) continue;
      if (pop_live(fifo_)) continue;
      if (pop_live(prob_fifo_)) continue;
      break;  // nothing live anywhere (bytes_ must be 0; defensive)
    }
    if (!pop_live(fifo_)) break;
  }
  const auto sweep = [&](std::deque<std::pair<std::uint64_t, std::uint64_t>>& fifo) {
    if (fifo.size() <= 4 * (map_.size() + 64)) return;
    std::deque<std::pair<std::uint64_t, std::uint64_t>> live;
    for (const auto& [key, seq] : fifo) {
      auto it = map_.find(key);
      if (it != map_.end() && it->second.seq == seq) live.emplace_back(key, seq);
    }
    fifo = std::move(live);
  };
  sweep(fifo_);
  sweep(prob_fifo_);
}

void SharedBlockCache::insert(DPtr primary, std::span<const std::byte> buf,
                              std::uint64_t version, bool is_edge) {
  if (cfg_.max_bytes == 0) return;
  if (buf.size() > cfg_.max_bytes) {
    // A holder larger than the whole budget can never be retained; admitting
    // it would FIFO-wipe every warm entry just to evict it again. Drop any
    // stale prior snapshot of it and keep the rest of the cache intact.
    (void)erase(primary);
    return;
  }
  auto [it, fresh] = map_.try_emplace(primary.raw());
  Entry& e = it->second;
  bytes_ -= e.buf.size();  // 0 for a fresh entry
  if (e.probation) prob_bytes_ -= e.buf.size();
  e.buf.assign(buf.begin(), buf.end());
  e.version = version;
  e.is_edge = is_edge;
  e.seq = ++next_seq_;
  bytes_ += e.buf.size();
  if (cfg_.policy == ScachePolicy::k2Q && fresh) {
    // First touch: park on probation. A refresh of a live entry is a second
    // touch and joins the residents below, as does a note_hit.
    e.probation = true;
    prob_bytes_ += e.buf.size();
    prob_fifo_.emplace_back(primary.raw(), e.seq);
  } else {
    e.probation = false;
    fifo_.emplace_back(primary.raw(), e.seq);
  }
  bound();
}

void SharedBlockCache::note_hit(DPtr primary) {
  if (cfg_.policy != ScachePolicy::k2Q) return;
  auto it = map_.find(primary.raw());
  if (it == map_.end() || !it->second.probation) return;
  Entry& e = it->second;
  e.probation = false;
  prob_bytes_ -= e.buf.size();
  e.seq = ++next_seq_;  // the old probation slot goes stale by seq mismatch
  fifo_.emplace_back(primary.raw(), e.seq);
  // No bound(): bytes_ is unchanged and the caller may hold the Entry*.
}

bool SharedBlockCache::erase(DPtr primary) {
  auto it = map_.find(primary.raw());
  if (it == map_.end()) return false;
  bytes_ -= it->second.buf.size();
  if (it->second.probation) prob_bytes_ -= it->second.buf.size();
  map_.erase(it);
  return true;
}

void SharedBlockCache::remember_translation(std::uint64_t app_id, DPtr vid,
                                            std::uint64_t epoch) {
  if (cfg_.max_translations == 0 || vid.is_null()) return;
  auto [it, fresh] = xlate_.try_emplace(app_id, Translation{vid, epoch, 0});
  if (!fresh) {
    // Refreshed in place; the FIFO slot (and its seq) stays armed.
    it->second.vid = vid;
    it->second.epoch = epoch;
    return;
  }
  it->second.seq = ++xlate_seq_;
  xlate_fifo_.emplace_back(app_id, it->second.seq);
  bound_fifo(
      xlate_, xlate_fifo_,
      [&] { return xlate_.size() > cfg_.max_translations; }, [](auto) {});
}

void SharedBlockCache::remember_block_table(DPtr primary, std::span<const DPtr> tails) {
  if (tails.empty()) {
    tables_.erase(primary.raw());
    return;
  }
  if (cfg_.max_translations == 0) return;
  auto [it, fresh] = tables_.try_emplace(primary.raw());
  it->second.tails.assign(tails.begin(), tails.end());
  if (!fresh) return;  // refreshed in place, like a translation
  it->second.seq = ++tables_seq_;
  tables_fifo_.emplace_back(primary.raw(), it->second.seq);
  bound_fifo(
      tables_, tables_fifo_,
      [&] { return tables_.size() > cfg_.max_translations; }, [](auto) {});
}

}  // namespace gdi::cache
