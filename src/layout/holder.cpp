#include "layout/holder.hpp"

#include <algorithm>
#include <cassert>

namespace gdi::layout {
namespace {

constexpr std::size_t stride(std::uint32_t len) { return 8 + ((len + 7) & ~7u); }

std::uint32_t rd32(const std::vector<std::byte>& buf, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, buf.data() + off, 4);
  return v;
}
void wr32(std::vector<std::byte>& buf, std::size_t off, std::uint32_t v) {
  std::memcpy(buf.data() + off, &v, 4);
}

/// Append an (id, payload) entry at `base+used`; returns the new used size or
/// kNoSpace when it does not fit in `cap`.
Result<std::uint32_t> entry_add(std::vector<std::byte>& buf, std::size_t base,
                                std::uint32_t used, std::uint32_t cap, std::uint32_t id,
                                std::span<const std::byte> payload) {
  const std::size_t need = stride(static_cast<std::uint32_t>(payload.size()));
  if (used + need > cap) return Status::kNoSpace;
  wr32(buf, base + used, id);
  wr32(buf, base + used + 4, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) std::memcpy(buf.data() + base + used + 8, payload.data(), payload.size());
  // Zero the alignment padding so holders are byte-deterministic.
  const std::size_t pad = need - 8 - payload.size();
  if (pad) std::memset(buf.data() + base + used + 8 + payload.size(), 0, pad);
  return static_cast<std::uint32_t>(used + need);
}

/// Tombstone the first entry with `id` (and payload, when given).
bool entry_remove_first(std::vector<std::byte>& buf, std::size_t base, std::uint32_t used,
                        std::uint32_t id, const std::byte* payload, std::size_t n) {
  std::size_t off = 0;
  while (off + 8 <= used) {
    const std::uint32_t eid = rd32(buf, base + off);
    const std::uint32_t len = rd32(buf, base + off + 4);
    if (eid == id && (payload == nullptr ||
                      (len == n && std::memcmp(buf.data() + base + off + 8, payload, n) == 0))) {
      wr32(buf, base + off, kEntryFree);
      return true;
    }
    off += stride(len);
  }
  return false;
}

int entry_remove_all(std::vector<std::byte>& buf, std::size_t base, std::uint32_t used,
                     std::uint32_t id) {
  int removed = 0;
  std::size_t off = 0;
  while (off + 8 <= used) {
    const std::uint32_t eid = rd32(buf, base + off);
    const std::uint32_t len = rd32(buf, base + off + 4);
    if (eid == id) {
      wr32(buf, base + off, kEntryFree);
      ++removed;
    }
    off += stride(len);
  }
  return removed;
}

/// Slide live entries over tombstones; returns the compacted used size.
std::uint32_t entry_compact(std::vector<std::byte>& buf, std::size_t base,
                            std::uint32_t used) {
  std::size_t src = 0;
  std::size_t dst = 0;
  while (src + 8 <= used) {
    const std::uint32_t id = rd32(buf, base + src);
    const std::uint32_t len = rd32(buf, base + src + 4);
    const std::size_t s = stride(len);
    if (id != kEntryFree) {
      if (dst != src) std::memmove(buf.data() + base + dst, buf.data() + base + src, s);
      dst += s;
    }
    src += s;
  }
  return static_cast<std::uint32_t>(dst);
}

}  // namespace

// ---------------------------------------------------------------------------
// VertexView
// ---------------------------------------------------------------------------

void VertexView::init(std::vector<std::byte>& buf, std::uint64_t app_id,
                      std::size_t total_size, std::uint32_t table_cap) {
  const std::size_t edge_base = kHeaderSize + table_cap * 8;
  assert(total_size >= edge_base);
  buf.assign(total_size, std::byte{0});
  VertexView v(buf);
  v.put64(0, app_id);
  v.put32(8, 1u);  // valid
  v.put32(12, 0);  // num_blocks (set by the block mapper)
  v.put32(16, 0);  // edge_slots
  v.put32(32, table_cap);
  const auto payload = total_size - edge_base;
  // Default split: give edges ~half the payload, properties the rest. The
  // transaction layer reshapes on demand, so this is only a starting point.
  const auto edge_cap = static_cast<std::uint32_t>(payload / 2 / kEdgeRecSize);
  v.put32(20, edge_cap);
  v.put32(24, 0);  // prop_used
  v.put32(28, static_cast<std::uint32_t>(payload - edge_cap * kEdgeRecSize));
  v.mark_all_dirty();
}

void VertexView::set_valid(bool val) { put32(8, val ? 1u : 0u); }
void VertexView::set_num_blocks(std::uint32_t n) { put32(12, n); }
void VertexView::set_block_addr(std::size_t i, DPtr p) {
  assert(i < table_capacity());
  put64(kBlockTableOff + i * 8, p.raw());
}

EdgeRecord VertexView::edge_at(std::uint32_t slot) const {
  assert(slot < edge_slots());
  const std::size_t off = edge_base() + slot * kEdgeRecSize;
  EdgeRecord r;
  r.neighbor = DPtr{get64(off)};
  r.heavy = DPtr{get64(off + 8)};
  r.label_id = get32(off + 16);
  const std::uint32_t meta = get32(off + 20);
  r.dir = static_cast<Dir>(meta & 0xFF);
  r.in_use = (meta & 0x100) != 0;
  return r;
}

void VertexView::set_edge(std::uint32_t slot, const EdgeRecord& rec) {
  const std::size_t off = edge_base() + slot * kEdgeRecSize;
  put64(off, rec.neighbor.raw());
  put64(off + 8, rec.heavy.raw());
  put32(off + 16, rec.label_id);
  put32(off + 20, static_cast<std::uint32_t>(rec.dir) | (rec.in_use ? 0x100u : 0u));
}

Result<std::uint32_t> VertexView::add_edge(const EdgeRecord& rec) {
  EdgeRecord r = rec;
  r.in_use = true;
  for (std::uint32_t s = 0; s < edge_slots(); ++s) {
    if (!edge_at(s).in_use) {  // reuse a tombstoned slot
      set_edge(s, r);
      return s;
    }
  }
  if (edge_slots() >= edge_capacity()) return Status::kNoSpace;
  const std::uint32_t s = edge_slots();
  put32(16, s + 1);
  set_edge(s, r);
  return s;
}

bool VertexView::remove_edge(std::uint32_t slot) {
  if (slot >= edge_slots()) return false;
  EdgeRecord r = edge_at(slot);
  if (!r.in_use) return false;
  r.in_use = false;
  set_edge(slot, r);
  return true;
}

int VertexView::find_edge(DPtr neighbor, Dir dir) const {
  for (std::uint32_t s = 0; s < edge_slots(); ++s) {
    const EdgeRecord r = edge_at(s);
    if (r.in_use && r.neighbor == neighbor && r.dir == dir) return static_cast<int>(s);
  }
  return -1;
}

std::uint32_t VertexView::live_edge_count() const {
  std::uint32_t n = 0;
  for (std::uint32_t s = 0; s < edge_slots(); ++s)
    if (edge_at(s).in_use) ++n;
  return n;
}

Status VertexView::add_entry(std::uint32_t id, std::span<const std::byte> payload) {
  auto r = entry_add(buf_, prop_base(), prop_used(), prop_capacity(), id, payload);
  if (!r.ok()) {
    // One compaction attempt before reporting NoSpace.
    const std::uint32_t compacted = entry_compact(buf_, prop_base(), prop_used());
    if (compacted == prop_used()) return r.status();
    put32(24, compacted);
    mark(prop_base(), prop_base() + prop_capacity());
    r = entry_add(buf_, prop_base(), prop_used(), prop_capacity(), id, payload);
    if (!r.ok()) return r.status();
  }
  mark(prop_base() + prop_used(), prop_base() + r.value());
  put32(24, r.value());
  return Status::kOk;
}

bool VertexView::remove_entry(std::uint32_t id, const std::byte* payload, std::size_t n) {
  const bool hit = entry_remove_first(buf_, prop_base(), prop_used(), id, payload, n);
  if (hit) mark(prop_base(), prop_base() + prop_used());
  return hit;
}

int VertexView::remove_entries(std::uint32_t id) {
  const int n = entry_remove_all(buf_, prop_base(), prop_used(), id);
  if (n) mark(prop_base(), prop_base() + prop_used());
  return n;
}

std::size_t VertexView::compact_entries() {
  const std::uint32_t before = prop_used();
  const std::uint32_t after = entry_compact(buf_, prop_base(), before);
  put32(24, after);
  mark(prop_base(), prop_base() + before);
  return before - after;
}

bool VertexView::has_label(std::uint32_t label_id) const {
  bool found = false;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte> p) {
    if (id == kEntryLabel && p.size() == 4) {
      std::uint32_t l;
      std::memcpy(&l, p.data(), 4);
      if (l == label_id) found = true;
    }
  });
  return found;
}

Status VertexView::add_label(std::uint32_t label_id) {
  if (has_label(label_id)) return Status::kAlreadyExists;
  std::byte payload[4];
  std::memcpy(payload, &label_id, 4);
  return add_entry(kEntryLabel, std::span<const std::byte>(payload, 4));
}

bool VertexView::remove_label(std::uint32_t label_id) {
  std::byte payload[4];
  std::memcpy(payload, &label_id, 4);
  return remove_entry(kEntryLabel, payload, 4);
}

std::vector<std::uint32_t> VertexView::labels() const {
  std::vector<std::uint32_t> out;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte> p) {
    if (id == kEntryLabel && p.size() == 4) {
      std::uint32_t l;
      std::memcpy(&l, p.data(), 4);
      out.push_back(l);
    }
  });
  return out;
}

std::vector<std::vector<std::byte>> VertexView::get_props(std::uint32_t ptype) const {
  std::vector<std::vector<std::byte>> out;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte> p) {
    if (id == ptype) out.emplace_back(p.begin(), p.end());
  });
  return out;
}

int VertexView::count_props(std::uint32_t ptype) const {
  int n = 0;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte>) {
    if (id == ptype) ++n;
  });
  return n;
}

std::vector<std::uint32_t> VertexView::ptypes() const {
  std::vector<std::uint32_t> out;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte>) {
    if (id >= kFirstUserPtype && std::find(out.begin(), out.end(), id) == out.end())
      out.push_back(id);
  });
  return out;
}

Status VertexView::reshape(std::uint32_t new_table_cap, std::uint32_t new_edge_cap,
                           std::uint32_t new_prop_cap) {
  new_prop_cap = (new_prop_cap + 7) & ~7u;
  if (new_table_cap < num_blocks() || new_edge_cap < edge_slots() ||
      new_prop_cap < prop_used())
    return Status::kInvalidArgument;

  // Snapshot the live regions, then rebuild the buffer at the new geometry.
  const std::uint32_t n_slots = edge_slots();
  const std::uint32_t n_blocks = num_blocks();
  std::vector<std::byte> table(buf_.begin() + kBlockTableOff,
                               buf_.begin() + kBlockTableOff + n_blocks * 8);
  std::vector<std::byte> edges(
      buf_.begin() + static_cast<std::ptrdiff_t>(edge_base()),
      buf_.begin() + static_cast<std::ptrdiff_t>(edge_base() + n_slots * kEdgeRecSize));
  std::vector<std::byte> props(
      buf_.begin() + static_cast<std::ptrdiff_t>(prop_base()),
      buf_.begin() + static_cast<std::ptrdiff_t>(prop_base() + prop_used()));

  const std::size_t new_edge_base = kHeaderSize + new_table_cap * 8;
  const std::size_t new_prop_base = new_edge_base + new_edge_cap * kEdgeRecSize;
  const std::size_t new_total = new_prop_base + new_prop_cap;

  std::vector<std::byte> header(buf_.begin(), buf_.begin() + kHeaderSize);
  buf_.assign(new_total, std::byte{0});
  std::memcpy(buf_.data(), header.data(), kHeaderSize);
  // Empty segments have a null data(); memcpy requires non-null even for n=0.
  if (!table.empty()) std::memcpy(buf_.data() + kBlockTableOff, table.data(), table.size());
  if (!edges.empty()) std::memcpy(buf_.data() + new_edge_base, edges.data(), edges.size());
  if (!props.empty()) std::memcpy(buf_.data() + new_prop_base, props.data(), props.size());

  put32(20, new_edge_cap);
  put32(28, new_prop_cap);
  put32(32, new_table_cap);
  mark_all_dirty();
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// EdgeView
// ---------------------------------------------------------------------------

void EdgeView::init(std::vector<std::byte>& buf, DPtr origin, DPtr target,
                    std::size_t total_size) {
  assert(total_size >= kPropBase);
  buf.assign(total_size, std::byte{0});
  EdgeView e(buf);
  e.put64(0, origin.raw());
  e.put64(8, target.raw());
  e.put32(16, 1u);  // valid
  e.put32(20, 0);   // num_blocks
  e.put32(24, 0);   // prop_used
  e.put32(28, static_cast<std::uint32_t>(total_size - kPropBase));
  e.mark_all_dirty();
}

void EdgeView::set_endpoints(DPtr origin, DPtr target) {
  put64(0, origin.raw());
  put64(8, target.raw());
}
void EdgeView::set_valid(bool v) { put32(16, v ? 1u : 0u); }
void EdgeView::set_num_blocks(std::uint32_t n) { put32(20, n); }
void EdgeView::set_block_addr(std::size_t i, DPtr p) {
  assert(i < kMaxBlocks);
  put64(kBlockTableOff + i * 8, p.raw());
}

Status EdgeView::add_entry(std::uint32_t id, std::span<const std::byte> payload) {
  auto r = entry_add(buf_, kPropBase, prop_used(), prop_capacity(), id, payload);
  if (!r.ok()) {
    const std::uint32_t compacted = entry_compact(buf_, kPropBase, prop_used());
    if (compacted == prop_used()) return r.status();
    put32(24, compacted);
    mark(kPropBase, kPropBase + prop_capacity());
    r = entry_add(buf_, kPropBase, prop_used(), prop_capacity(), id, payload);
    if (!r.ok()) return r.status();
  }
  mark(kPropBase + prop_used(), kPropBase + r.value());
  put32(24, r.value());
  return Status::kOk;
}

bool EdgeView::remove_entry(std::uint32_t id, const std::byte* payload, std::size_t n) {
  const bool hit = entry_remove_first(buf_, kPropBase, prop_used(), id, payload, n);
  if (hit) mark(kPropBase, kPropBase + prop_used());
  return hit;
}

int EdgeView::remove_entries(std::uint32_t id) {
  const int n = entry_remove_all(buf_, kPropBase, prop_used(), id);
  if (n) mark(kPropBase, kPropBase + prop_used());
  return n;
}

bool EdgeView::has_label(std::uint32_t label_id) const {
  bool found = false;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte> p) {
    if (id == kEntryLabel && p.size() == 4) {
      std::uint32_t l;
      std::memcpy(&l, p.data(), 4);
      if (l == label_id) found = true;
    }
  });
  return found;
}

Status EdgeView::add_label(std::uint32_t label_id) {
  if (has_label(label_id)) return Status::kAlreadyExists;
  std::byte payload[4];
  std::memcpy(payload, &label_id, 4);
  return add_entry(kEntryLabel, std::span<const std::byte>(payload, 4));
}

bool EdgeView::remove_label(std::uint32_t label_id) {
  std::byte payload[4];
  std::memcpy(payload, &label_id, 4);
  return remove_entry(kEntryLabel, payload, 4);
}

std::vector<std::uint32_t> EdgeView::labels() const {
  std::vector<std::uint32_t> out;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte> p) {
    if (id == kEntryLabel && p.size() == 4) {
      std::uint32_t l;
      std::memcpy(&l, p.data(), 4);
      out.push_back(l);
    }
  });
  return out;
}

std::vector<std::vector<std::byte>> EdgeView::get_props(std::uint32_t ptype) const {
  std::vector<std::vector<std::byte>> out;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte> p) {
    if (id == ptype) out.emplace_back(p.begin(), p.end());
  });
  return out;
}

int EdgeView::count_props(std::uint32_t ptype) const {
  int n = 0;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte>) {
    if (id == ptype) ++n;
  });
  return n;
}

std::vector<std::uint32_t> EdgeView::ptypes() const {
  std::vector<std::uint32_t> out;
  for_each_entry([&](std::uint32_t id, std::span<const std::byte>) {
    if (id >= kFirstUserPtype && std::find(out.begin(), out.end(), id) == out.end())
      out.push_back(id);
  });
  return out;
}

Status EdgeView::reshape(std::uint32_t new_prop_cap) {
  new_prop_cap = (new_prop_cap + 7) & ~7u;
  if (new_prop_cap < prop_used()) return Status::kInvalidArgument;
  buf_.resize(kPropBase + new_prop_cap, std::byte{0});
  put32(28, new_prop_cap);
  mark_all_dirty();
  return Status::kOk;
}

}  // namespace gdi::layout
