// Logical Layout (LL) level: vertex and edge *holders* (paper Section 5.4).
//
// A holder is the logically contiguous, data-driven-size structure of one
// vertex or edge: metadata, a table of block addresses, lightweight edges,
// and label/property entries. Physically it is stored as fixed-size BGDL
// blocks; this module implements the codec over the *assembled* flat buffer,
// so all layout knowledge lives here and the transaction layer only moves
// blocks (the paper's LL/BGDL separation, a "Major Design Choice").
//
// Vertex holder layout (byte offsets within the flat buffer):
//   [0,  48)       header: app id, flags, block count, table capacity,
//                  edge/property bookkeeping
//   [48, 48+T*8)   block-address table (T x u64 DPtr; entry 0 = primary
//                  block). T is per-holder and grows on demand, bounded by
//                  what fits in the primary block.
//   [E0, E0+E*24)  lightweight-edge records (24 B each), E0 = 48+T*8
//   [P0, P0+P)     label/property entries (8-byte aligned)
//
// Label/property entries use the paper's integer-ID scheme (Section 5.4.3):
// id 0 marks a free/tombstoned entry, id 2 is a label entry (payload = the
// label's integer ID), ids >= 16 are user property types.
//
// Lightweight edges (Section 5.4.2) live inline in the source holder; an edge
// promoted to a *heavy* edge (rich labels/properties) additionally points to
// its own edge holder.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/dptr.hpp"
#include "common/status.hpp"

namespace gdi::layout {

enum class Dir : std::uint8_t { kOut = 0, kIn = 1, kUndirected = 2 };

/// Reserved property-entry IDs (paper Section 5.4.3).
inline constexpr std::uint32_t kEntryFree = 0;
inline constexpr std::uint32_t kEntryLabel = 2;
inline constexpr std::uint32_t kFirstUserPtype = 16;

struct EdgeRecord {
  DPtr neighbor;               ///< primary block of the other endpoint
  DPtr heavy;                  ///< edge holder (null for lightweight edges)
  std::uint32_t label_id = 0;  ///< at most one label on a lightweight edge
  Dir dir = Dir::kOut;         ///< direction relative to the *owning* vertex
  bool in_use = false;
};

/// A half-open byte range [lo, hi) of a holder buffer written since the last
/// reset_dirty(); empty when hi <= lo.
struct DirtyRange {
  std::size_t lo = static_cast<std::size_t>(-1);
  std::size_t hi = 0;
  [[nodiscard]] bool empty() const { return hi <= lo; }
};

/// Codec over a vertex holder's flat buffer. The view does not own the
/// buffer; the transaction layer owns it and writes back the dirty ranges
/// the view reports via dirty_ranges().
class VertexView {
 public:
  static constexpr std::size_t kHeaderSize = 48;
  static constexpr std::size_t kBlockTableOff = kHeaderSize;
  static constexpr std::size_t kEdgeRecSize = 24;

  explicit VertexView(std::vector<std::byte>& buf) : buf_(buf) {}

  /// Format a fresh holder into `buf` (resizes it to `total_size`) with a
  /// block-address table of `table_cap` slots.
  static void init(std::vector<std::byte>& buf, std::uint64_t app_id,
                   std::size_t total_size, std::uint32_t table_cap);

  /// Total holder size for a given capacity, 8-byte aligned. Summed in 64
  /// bits: header words read from a reused block can be arbitrary, and a
  /// 32-bit sum of them can wrap to a small size.
  [[nodiscard]] static std::size_t required_size(std::uint32_t table_cap,
                                                 std::uint32_t edge_slots,
                                                 std::uint32_t prop_bytes) {
    return kHeaderSize + std::size_t{table_cap} * 8 + edge_slots * kEdgeRecSize +
           ((std::size_t{prop_bytes} + 7) & ~std::size_t{7});
  }

  // --- header ---------------------------------------------------------------
  [[nodiscard]] std::uint64_t app_id() const { return get64(0); }
  [[nodiscard]] bool valid() const { return (get32(8) & 1u) != 0; }
  void set_valid(bool v);
  [[nodiscard]] std::uint32_t num_blocks() const { return get32(12); }
  void set_num_blocks(std::uint32_t n);
  [[nodiscard]] std::uint32_t edge_slots() const { return get32(16); }      // used slots
  [[nodiscard]] std::uint32_t edge_capacity() const { return get32(20); }
  [[nodiscard]] std::uint32_t prop_used() const { return get32(24); }
  [[nodiscard]] std::uint32_t prop_capacity() const { return get32(28); }
  [[nodiscard]] std::uint32_t table_capacity() const { return get32(32); }
  /// Start of the lightweight-edge region.
  [[nodiscard]] std::size_t edge_base() const {
    return kBlockTableOff + std::size_t{table_capacity()} * 8;
  }

  [[nodiscard]] DPtr block_addr(std::size_t i) const {
    return DPtr{get64(kBlockTableOff + i * 8)};
  }
  void set_block_addr(std::size_t i, DPtr p);

  // --- lightweight edges ------------------------------------------------------
  [[nodiscard]] EdgeRecord edge_at(std::uint32_t slot) const;
  /// Byte offset of a slot's record (the EdgeUid offset, paper 5.4.2).
  [[nodiscard]] std::uint32_t edge_offset(std::uint32_t slot) const {
    return static_cast<std::uint32_t>(edge_base() + slot * kEdgeRecSize);
  }
  [[nodiscard]] std::uint32_t slot_of_offset(std::uint32_t off) const {
    return static_cast<std::uint32_t>((off - edge_base()) / kEdgeRecSize);
  }

  /// Add an edge record; reuses a tombstoned slot when possible. Returns the
  /// slot index, or kNoSpace if capacity is exhausted (caller must grow).
  [[nodiscard]] Result<std::uint32_t> add_edge(const EdgeRecord& rec);
  /// Tombstone a slot; returns false if it was not in use.
  bool remove_edge(std::uint32_t slot);
  /// Replace a slot's record in place (slot must be in use).
  void set_edge(std::uint32_t slot, const EdgeRecord& rec);
  /// First in-use slot matching (neighbor, dir); -1 if none.
  [[nodiscard]] int find_edge(DPtr neighbor, Dir dir) const;

  template <class F>
  void for_each_edge(F&& f) const {
    for (std::uint32_t s = 0; s < edge_slots(); ++s) {
      EdgeRecord r = edge_at(s);
      if (r.in_use) f(s, r);
    }
  }
  [[nodiscard]] std::uint32_t live_edge_count() const;

  // --- label / property entries ----------------------------------------------
  /// Append an entry; id must be kEntryLabel or a user ptype id.
  [[nodiscard]] Status add_entry(std::uint32_t id, std::span<const std::byte> payload);
  /// Tombstone the first entry with `id` (labels: matching payload too).
  bool remove_entry(std::uint32_t id, const std::byte* payload, std::size_t n);
  /// Tombstone all entries with `id`; returns how many were removed.
  int remove_entries(std::uint32_t id);
  /// Compact the property region (drops tombstones); returns bytes reclaimed.
  std::size_t compact_entries();

  template <class F>
  void for_each_entry(F&& f) const {  // f(id, span payload)
    const std::size_t base = prop_base();
    std::size_t off = 0;
    while (off + 8 <= prop_used()) {
      const std::uint32_t id = get32(base + off);
      const std::uint32_t len = get32(base + off + 4);
      if (len > prop_used() - off - 8) break;  // torn or foreign bytes
      if (id != kEntryFree)
        f(id, std::span<const std::byte>(buf_.data() + base + off + 8, len));
      off += entry_stride(len);
    }
  }

  // Label helpers (labels are entries with id kEntryLabel, payload = u32).
  [[nodiscard]] bool has_label(std::uint32_t label_id) const;
  [[nodiscard]] Status add_label(std::uint32_t label_id);
  bool remove_label(std::uint32_t label_id);
  [[nodiscard]] std::vector<std::uint32_t> labels() const;

  // Property helpers.
  [[nodiscard]] std::vector<std::vector<std::byte>> get_props(std::uint32_t ptype) const;
  [[nodiscard]] int count_props(std::uint32_t ptype) const;
  [[nodiscard]] std::vector<std::uint32_t> ptypes() const;

  // --- growth -----------------------------------------------------------------
  /// Reshape to new capacities (>= current usage); shifts the edge and
  /// property regions and resizes the buffer. Caller re-syncs block
  /// allocation afterwards (and must ensure `new_table_cap` still fits the
  /// primary block).
  [[nodiscard]] Status reshape(std::uint32_t new_table_cap, std::uint32_t new_edge_cap,
                               std::uint32_t new_prop_cap);

  // --- dirty-range tracking -----------------------------------------------------
  //
  // Two coalescing byte ranges instead of one: header/table mutations and
  // payload mutations usually sit far apart, and a single min/max interval
  // would force commit to rewrite every block in between. Two ranges keep
  // the paper's "track dirty blocks" guarantee for the common access shapes
  // (O(1) bookkeeping, write-back touches only genuinely dirty blocks).
  [[nodiscard]] std::array<DirtyRange, 2> dirty_ranges() const { return dirty_; }
  [[nodiscard]] std::size_t dirty_lo() const {
    return std::min(dirty_[0].lo, dirty_[1].lo);
  }
  [[nodiscard]] std::size_t dirty_hi() const {
    return std::max(dirty_[0].hi, dirty_[1].hi);
  }
  [[nodiscard]] bool is_dirty() const {
    return !dirty_[0].empty() || !dirty_[1].empty();
  }
  void reset_dirty() { dirty_ = {}; }
  void mark_all_dirty() { mark(0, buf_.size()); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  [[nodiscard]] std::size_t prop_base() const {
    return edge_base() + edge_capacity() * kEdgeRecSize;
  }
  [[nodiscard]] static std::size_t entry_stride(std::uint32_t len) {
    return 8 + ((len + 7) & ~7u);
  }

  [[nodiscard]] std::uint64_t get64(std::size_t off) const {
    std::uint64_t v;
    std::memcpy(&v, buf_.data() + off, 8);
    return v;
  }
  [[nodiscard]] std::uint32_t get32(std::size_t off) const {
    std::uint32_t v;
    std::memcpy(&v, buf_.data() + off, 4);
    return v;
  }
  void put64(std::size_t off, std::uint64_t v) {
    std::memcpy(buf_.data() + off, &v, 8);
    mark(off, off + 8);
  }
  void put32(std::size_t off, std::uint32_t v) {
    std::memcpy(buf_.data() + off, &v, 4);
    mark(off, off + 4);
  }
  void put_bytes(std::size_t off, const void* src, std::size_t n) {
    std::memcpy(buf_.data() + off, src, n);
    mark(off, off + n);
  }
  void mark(std::size_t lo, std::size_t hi) {
    auto grow = [&](DirtyRange& r) {
      r.lo = std::min(r.lo, lo);
      r.hi = std::max(r.hi, hi);
    };
    auto gap = [&](const DirtyRange& r) -> std::size_t {
      if (hi >= r.lo && lo <= r.hi) return 0;  // overlapping / adjacent
      return lo > r.hi ? lo - r.hi : r.lo - hi;
    };
    if (dirty_[0].empty()) return grow(dirty_[0]);
    if (gap(dirty_[0]) == 0) return grow(dirty_[0]);
    if (dirty_[1].empty()) return grow(dirty_[1]);
    return gap(dirty_[0]) <= gap(dirty_[1]) ? grow(dirty_[0]) : grow(dirty_[1]);
  }

  std::vector<std::byte>& buf_;
  std::array<DirtyRange, 2> dirty_{};
};

/// Codec over an edge holder's flat buffer (heavy edges only).
///
/// Layout: [0,48) header (origin, target, flags/blocks, prop bookkeeping),
/// [48,80) block table (4 x u64), [80, 80+P) property entries.
class EdgeView {
 public:
  static constexpr std::size_t kHeaderSize = 48;
  static constexpr std::size_t kMaxBlocks = 4;
  static constexpr std::size_t kBlockTableOff = kHeaderSize;
  static constexpr std::size_t kPropBase = kBlockTableOff + kMaxBlocks * 8;  // 80

  explicit EdgeView(std::vector<std::byte>& buf) : buf_(buf) {}

  static void init(std::vector<std::byte>& buf, DPtr origin, DPtr target,
                   std::size_t total_size);
  [[nodiscard]] static std::size_t required_size(std::uint32_t prop_bytes) {
    return kPropBase + ((std::size_t{prop_bytes} + 7) & ~std::size_t{7});
  }

  [[nodiscard]] DPtr origin() const { return DPtr{get64(0)}; }
  [[nodiscard]] DPtr target() const { return DPtr{get64(8)}; }
  void set_endpoints(DPtr origin, DPtr target);
  [[nodiscard]] bool valid() const { return (get32(16) & 1u) != 0; }
  void set_valid(bool v);
  [[nodiscard]] std::uint32_t num_blocks() const { return get32(20); }
  void set_num_blocks(std::uint32_t n);
  [[nodiscard]] std::uint32_t prop_used() const { return get32(24); }
  [[nodiscard]] std::uint32_t prop_capacity() const { return get32(28); }
  [[nodiscard]] DPtr block_addr(std::size_t i) const {
    return DPtr{get64(kBlockTableOff + i * 8)};
  }
  void set_block_addr(std::size_t i, DPtr p);

  [[nodiscard]] Status add_entry(std::uint32_t id, std::span<const std::byte> payload);
  bool remove_entry(std::uint32_t id, const std::byte* payload, std::size_t n);
  int remove_entries(std::uint32_t id);

  template <class F>
  void for_each_entry(F&& f) const {
    std::size_t off = 0;
    while (off + 8 <= prop_used()) {
      const std::uint32_t id = get32(kPropBase + off);
      const std::uint32_t len = get32(kPropBase + off + 4);
      if (len > prop_used() - off - 8) break;  // torn or foreign bytes
      if (id != kEntryFree)
        f(id, std::span<const std::byte>(buf_.data() + kPropBase + off + 8, len));
      off += 8 + ((len + 7) & ~7u);
    }
  }

  [[nodiscard]] bool has_label(std::uint32_t label_id) const;
  [[nodiscard]] Status add_label(std::uint32_t label_id);
  bool remove_label(std::uint32_t label_id);
  [[nodiscard]] std::vector<std::uint32_t> labels() const;
  [[nodiscard]] std::vector<std::vector<std::byte>> get_props(std::uint32_t ptype) const;
  [[nodiscard]] int count_props(std::uint32_t ptype) const;
  [[nodiscard]] std::vector<std::uint32_t> ptypes() const;

  [[nodiscard]] Status reshape(std::uint32_t new_prop_cap);

  /// One coalescing range (an edge holder has no far-apart regions); the
  /// second range is always empty, so writeback treats both views alike.
  [[nodiscard]] std::array<DirtyRange, 2> dirty_ranges() const { return {dirty_, {}}; }
  [[nodiscard]] bool is_dirty() const { return !dirty_.empty(); }
  void reset_dirty() { dirty_ = {}; }
  void mark_all_dirty() { mark(0, buf_.size()); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  [[nodiscard]] std::uint64_t get64(std::size_t off) const {
    std::uint64_t v;
    std::memcpy(&v, buf_.data() + off, 8);
    return v;
  }
  [[nodiscard]] std::uint32_t get32(std::size_t off) const {
    std::uint32_t v;
    std::memcpy(&v, buf_.data() + off, 4);
    return v;
  }
  void put64(std::size_t off, std::uint64_t v) {
    std::memcpy(buf_.data() + off, &v, 8);
    mark(off, off + 8);
  }
  void put32(std::size_t off, std::uint32_t v) {
    std::memcpy(buf_.data() + off, &v, 4);
    mark(off, off + 4);
  }
  void mark(std::size_t lo, std::size_t hi) {
    dirty_.lo = std::min(dirty_.lo, lo);
    dirty_.hi = std::max(dirty_.hi, hi);
  }

  std::vector<std::byte>& buf_;
  DirtyRange dirty_{};
};

}  // namespace gdi::layout
