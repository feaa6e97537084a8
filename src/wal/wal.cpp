#include "wal/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>

#include "rma/fault.hpp"

namespace gdi::wal {
namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kFrameMagic = 0x4757414cu;  // "GWAL"
constexpr std::uint32_t kCkptMagic = 0x47434b50u;   // "GCKP"
// Frame header: magic, rank, epoch seq, payload_len, payload_crc.
constexpr std::size_t kFrameHeader = 4 + 4 + 8 + 4 + 4;

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + 4);
}
void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + 8);
}

/// Write every byte of `parts` to `f`, flush stdio and fsync: true only if
/// each step reports success.
bool write_synced(std::FILE* f, std::initializer_list<std::span<const std::byte>> parts) {
  bool ok = true;
  for (const auto part : parts)
    ok = ok && std::fwrite(part.data(), 1, part.size(), f) == part.size();
  ok = std::fflush(f) == 0 && ok;
  return ::fsync(fileno(f)) == 0 && ok;
}

/// fsync a directory: makes the entries created or renamed in it durable.
bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

/// Count one failed log or checkpoint IO in wal_io_errors; the rank's first
/// one is also reported on stderr.
void io_error(rma::Rank& self, int rank, const std::string& what) {
  if (self.counters().wal_io_errors == 0)
    std::fprintf(stderr, "[wal] rank %d: %s; durability lost\n", rank, what.c_str());
  self.counters().wal_io_errors += 1;
}

/// Bounds-checked little cursor over a parsed buffer.
struct Cursor {
  const std::byte* p;
  std::size_t left;
  bool ok = true;

  template <class T>
  T take() {
    T v{};
    if (left < sizeof(T)) {
      ok = false;
      return v;
    }
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return v;
  }
  [[nodiscard]] const std::byte* take_bytes(std::size_t n) {
    if (left < n) {
      ok = false;
      return nullptr;
    }
    const std::byte* out = p;
    p += n;
    left -= n;
    return out;
  }
};

std::string segment_name(int rank, std::uint64_t first_epoch) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "wal-r%d-e%020llu.seg", rank,
                static_cast<unsigned long long>(first_epoch));
  return buf;
}

/// Parse one epoch payload into commit views. Ops reference `payload`.
bool parse_payload(std::span<const std::byte> payload, EpochView& ep) {
  Cursor c{payload.data(), payload.size()};
  while (c.ok && c.left > 0) {
    CommitView commit;
    commit.commit_id = c.take<std::uint64_t>();
    const auto op_count = c.take<std::uint32_t>();
    const auto rec_len = c.take<std::uint32_t>();
    if (!c.ok || c.left < rec_len) return false;
    Cursor rc{c.p, rec_len};
    (void)c.take_bytes(rec_len);
    commit.ops.reserve(op_count);
    for (std::uint32_t i = 0; i < op_count && rc.ok; ++i) {
      Op op;
      op.type = static_cast<OpType>(rc.take<std::uint8_t>());
      switch (op.type) {
        case OpType::kAcquire:
        case OpType::kRelease:
        case OpType::kLockBump:
          op.blk = DPtr{rc.take<std::uint64_t>()};
          break;
        case OpType::kImage: {
          op.blk = DPtr{rc.take<std::uint64_t>()};
          op.off = rc.take<std::uint32_t>();
          const auto len = rc.take<std::uint32_t>();
          const std::byte* data = rc.take_bytes(len);
          if (data != nullptr) op.data = {data, len};
          break;
        }
        case OpType::kDhtInsert:
          op.key = rc.take<std::uint64_t>();
          op.value = rc.take<std::uint64_t>();
          break;
        case OpType::kDhtErase:
          op.key = rc.take<std::uint64_t>();
          break;
        case OpType::kTenantAck:
          op.tenant = rc.take<std::uint64_t>();
          op.tag = rc.take<std::uint64_t>();
          op.ack_status = rc.take<std::uint8_t>();
          op.ack_v0 = static_cast<std::int64_t>(rc.take<std::uint64_t>());
          op.ack_v1 = static_cast<std::int64_t>(rc.take<std::uint64_t>());
          break;
        default:
          return false;
      }
      if (rc.ok) commit.ops.push_back(op);
    }
    if (!rc.ok || rc.left != 0 || commit.ops.size() != op_count) return false;
    ep.commits.push_back(std::move(commit));
  }
  return c.ok;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

// --- CommitRecord ----------------------------------------------------------

void CommitRecord::u8(std::uint8_t v) { bytes_.push_back(static_cast<std::byte>(v)); }
void CommitRecord::u32(std::uint32_t v) { put_u32(bytes_, v); }
void CommitRecord::u64(std::uint64_t v) { put_u64(bytes_, v); }

void CommitRecord::acquire(DPtr got) {
  u8(static_cast<std::uint8_t>(OpType::kAcquire));
  u64(got.raw());
  ops_ += 1;
}
void CommitRecord::release(DPtr blk) {
  u8(static_cast<std::uint8_t>(OpType::kRelease));
  u64(blk.raw());
  ops_ += 1;
}
void CommitRecord::image(DPtr blk, std::uint32_t off, std::span<const std::byte> bytes) {
  u8(static_cast<std::uint8_t>(OpType::kImage));
  u64(blk.raw());
  u32(off);
  u32(static_cast<std::uint32_t>(bytes.size()));
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  ops_ += 1;
}
void CommitRecord::dht_insert(std::uint64_t key, std::uint64_t value) {
  u8(static_cast<std::uint8_t>(OpType::kDhtInsert));
  u64(key);
  u64(value);
  ops_ += 1;
}
void CommitRecord::dht_erase(std::uint64_t key) {
  u8(static_cast<std::uint8_t>(OpType::kDhtErase));
  u64(key);
  ops_ += 1;
}
void CommitRecord::lock_bump(DPtr blk) {
  u8(static_cast<std::uint8_t>(OpType::kLockBump));
  u64(blk.raw());
  ops_ += 1;
}
void CommitRecord::tenant_ack(std::uint64_t tenant, std::uint64_t tag,
                              std::uint8_t status, std::int64_t v0,
                              std::int64_t v1) {
  u8(static_cast<std::uint8_t>(OpType::kTenantAck));
  u64(tenant);
  u64(tag);
  u8(status);
  u64(static_cast<std::uint64_t>(v0));
  u64(static_cast<std::uint64_t>(v1));
  ops_ += 1;
}

// --- WalWriter -------------------------------------------------------------

WalWriter::WalWriter(int rank, WalConfig cfg) : cfg_(std::move(cfg)), rank_(rank) {
  // Non-throwing: an uncreatable directory surfaces as a seal-time open
  // failure (wal_io_errors), not a constructor exception mid-collective.
  std::error_code ec;
  fs::create_directories(cfg_.dir, ec);
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

bool WalWriter::rank_killed(rma::Rank& self) const {
  const rma::FaultInjector* f = self.faults();
  return f != nullptr && f->killed();
}

void WalWriter::open_segment(std::uint64_t first_epoch) {
  cur_path_ = cfg_.dir + "/" + segment_name(rank_, first_epoch);
  // "wb" truncates: a name collision can only be a dead segment whose every
  // frame was torn (recovery never hands out an epoch seq a valid frame of an
  // existing segment still carries).
  file_ = std::fopen(cur_path_.c_str(), "wb");
  file_bytes_ = 0;
  seg_first_epoch_ = first_epoch;
  seg_last_epoch_ = 0;
  seg_entry_synced_ = false;
}

bool WalWriter::close_segment(bool cut_tail) {
  if (file_ == nullptr) return true;
  std::fclose(file_);
  file_ = nullptr;
  if (seg_last_epoch_ == 0) {
    std::error_code ec;
    fs::remove(cur_path_, ec);  // never held an intact frame
    return true;
  }
  closed_.push_back({seg_first_epoch_, seg_last_epoch_, cur_path_});
  return !cut_tail || ::truncate(cur_path_.c_str(), static_cast<off_t>(file_bytes_)) == 0;
}

void WalWriter::rotate(std::uint64_t next_first_epoch) {
  (void)close_segment(/*cut_tail=*/false);
  open_segment(next_first_epoch);
}

std::uint64_t WalWriter::append(rma::Rank& self, const CommitRecord& rec) {
  if (rec.empty() || rank_killed(self)) return 0;
  bound_ = &self;
  const std::uint64_t id = next_commit_++;
  const std::size_t before = open_.size();
  put_u64(open_, id);
  put_u32(open_, rec.op_count());
  put_u32(open_, static_cast<std::uint32_t>(rec.bytes().size()));
  open_.insert(open_.end(), rec.bytes().begin(), rec.bytes().end());
  self.charge(cfg_.append_ns_per_byte * static_cast<double>(open_.size() - before));
  self.counters().wal_appends += 1;
  return id;
}

void WalWriter::seal(rma::Rank& self, bool allow_kill) {
  if (open_.empty() || rank_killed(self)) return;
  bound_ = &self;
  const std::uint64_t seq = next_epoch_;
  if (file_ == nullptr)
    open_segment(seq);
  else if (file_bytes_ > 0 &&
           file_bytes_ + kFrameHeader + open_.size() > cfg_.segment_bytes)
    rotate(seq);
  if (file_ == nullptr) {
    // Filesystem failure: drop durability, not the run -- but *boundedly* and
    // *visibly*. The buffered epoch is discarded (its commits are already
    // applied in memory, only their redo is lost) so open_ cannot grow
    // without limit, and wal_io_errors records the loss so tests and benches
    // fail loudly instead of reporting a silently non-durable run. The next
    // seal retries open_segment.
    io_error(self, rank_, "cannot open segment " + cur_path_ + "; epoch dropped");
    open_.clear();
    return;
  }
  if (!seg_entry_synced_) {
    // The new segment's directory entry must be durable before any frame in
    // it can be: fsync the directory once per segment.
    if (!fsync_dir(cfg_.dir)) io_error(self, rank_, "cannot fsync log directory " + cfg_.dir);
    seg_entry_synced_ = true;
  }

  std::vector<std::byte> header;
  header.reserve(kFrameHeader);
  put_u32(header, kFrameMagic);
  put_u32(header, static_cast<std::uint32_t>(rank_));
  put_u64(header, seq);
  put_u32(header, static_cast<std::uint32_t>(open_.size()));
  put_u32(header, crc32(open_.data(), open_.size()));

  rma::FaultInjector* f = self.faults();
  if (allow_kill && f != nullptr && f->should_kill(rma::KillPoint::kMidAppend, seq)) {
    // Die with a genuinely torn frame on disk: full header, half the payload.
    std::fwrite(header.data(), 1, header.size(), file_);
    std::fwrite(open_.data(), 1, open_.size() / 2, file_);
    std::fflush(file_);
    ::fsync(fileno(file_));
    f->mark_killed();
    throw rma::FaultKill("wal mid-append kill");
  }

  if (!write_synced(file_, {header, open_})) {
    // The epoch's redo may not be on stable storage: drop it like an
    // unopenable segment's. Recovery stops at the first torn frame, so the
    // segment is cut back to its intact frames and closed; the next seal
    // starts a fresh one.
    io_error(self, rank_, "cannot write segment " + cur_path_ + "; epoch dropped");
    open_.clear();
    if (!close_segment(/*cut_tail=*/true))
      io_error(self, rank_, "cannot cut a torn frame from " + closed_.back().path);
    return;
  }
  file_bytes_ += header.size() + open_.size();
  seg_last_epoch_ = seq;
  next_epoch_ = seq + 1;
  sealed_since_ckpt_ += 1;
  self.charge(cfg_.append_ns_per_byte *
                  static_cast<double>(header.size() + open_.size()) +
              cfg_.fsync_ns);
  self.counters().wal_fsyncs += 1;
  open_.clear();

  if (allow_kill && f != nullptr && f->should_kill(rma::KillPoint::kEpochSeal, seq)) {
    f->mark_killed();
    throw rma::FaultKill("wal epoch-seal kill");
  }
}

void WalWriter::reset_hw(std::uint64_t epoch, std::uint64_t commit,
                         std::vector<SegmentInfo> existing) {
  assert(open_.empty() && file_ == nullptr);
  next_epoch_ = epoch + 1;
  next_commit_ = commit + 1;
  // Adopt the segments recovery scanned: they predate this writer, so they
  // are exactly the files truncate_through would otherwise never see.
  closed_.clear();
  for (SegmentInfo& s : existing)
    closed_.push_back({s.first_epoch, s.last_epoch, std::move(s.path)});
}

void WalWriter::truncate_through(std::uint64_t epoch) {
  if (file_ != nullptr && seg_last_epoch_ > 0) rotate(next_epoch_);
  std::erase_if(closed_, [&](const ClosedSeg& s) {
    if (s.last_epoch > epoch) return false;
    fs::remove(s.path);
    return true;
  });
  sealed_since_ckpt_ = 0;
}

// --- log reading -----------------------------------------------------------

RecoveredLog read_log(const std::string& dir, int rank,
                      std::uint64_t skip_through_epoch) {
  RecoveredLog out;
  const std::string prefix = "wal-r" + std::to_string(rank) + "-e";
  std::vector<std::pair<std::uint64_t, std::string>> segs;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    const std::string name = ent.path().filename().string();
    if (name.rfind(prefix, 0) != 0 || name.size() < prefix.size() + 4 ||
        name.substr(name.size() - 4) != ".seg")
      continue;
    const std::string digits = name.substr(prefix.size(), name.size() - prefix.size() - 4);
    segs.emplace_back(std::strtoull(digits.c_str(), nullptr, 10), ent.path().string());
  }
  std::sort(segs.begin(), segs.end());

  std::uint64_t last_seq = 0;
  for (const auto& [first_epoch, path] : segs) {
    (void)first_epoch;
    if (out.torn_tail) break;  // frames are written sequentially: nothing
                               // intact can follow a torn frame
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) continue;
    std::fseek(f, 0, SEEK_END);
    const long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::byte> buf(sz > 0 ? static_cast<std::size_t>(sz) : 0);
    if (!buf.empty() && std::fread(buf.data(), 1, buf.size(), f) != buf.size())
      buf.clear();
    std::fclose(f);

    SegmentInfo seg{0, 0, path};
    Cursor c{buf.data(), buf.size()};
    while (c.left > 0) {
      // Any torn detection below cuts at this frame's first byte.
      const std::uint64_t frame_off = buf.size() - c.left;
      const auto mark_torn = [&] {
        out.torn_tail = true;
        out.torn_path = path;
        out.torn_offset = frame_off;
      };
      if (c.left < kFrameHeader) {
        mark_torn();
        break;
      }
      const auto magic = c.take<std::uint32_t>();
      const auto frank = c.take<std::uint32_t>();
      const auto seq = c.take<std::uint64_t>();
      const auto len = c.take<std::uint32_t>();
      const auto crc = c.take<std::uint32_t>();
      if (magic != kFrameMagic || frank != static_cast<std::uint32_t>(rank) ||
          seq <= last_seq || c.left < len) {
        mark_torn();
        break;
      }
      const std::byte* payload = c.take_bytes(len);
      if (crc32(payload, len) != crc) {
        mark_torn();
        break;
      }
      EpochView ep;
      ep.seq = seq;
      out.payloads.emplace_back(payload, payload + len);
      if (!parse_payload(out.payloads.back(), ep)) {
        out.payloads.pop_back();
        mark_torn();
        break;
      }
      last_seq = seq;
      out.epoch_hw = seq;
      if (seg.first_epoch == 0) seg.first_epoch = seq;
      seg.last_epoch = seq;
      if (!ep.commits.empty()) out.commit_hw = ep.commits.back().commit_id;
      if (seq > skip_through_epoch)
        out.epochs.push_back(std::move(ep));
      else
        out.payloads.pop_back();  // covered by the checkpoint; drop the copy
    }
    // Segments with an intact frame (including a torn segment's intact
    // prefix) are reported so the writer can adopt them for truncation; a
    // wholly-torn file is left out -- truncate_torn_tail deletes it.
    if (seg.last_epoch > 0) out.segments.push_back(std::move(seg));
  }
  return out;
}

bool truncate_torn_tail(const RecoveredLog& log) {
  if (!log.torn_tail || log.torn_path.empty()) return true;
  std::error_code ec;
  if (log.torn_offset == 0) {
    // No intact frame precedes the cut: the whole file is dead weight.
    fs::remove(log.torn_path, ec);
    return !ec;
  }
  return ::truncate(log.torn_path.c_str(),
                    static_cast<off_t>(log.torn_offset)) == 0;
}

// --- checkpoint IO ---------------------------------------------------------

bool write_checkpoint(rma::Rank& self, const WalConfig& cfg, const Checkpoint& ck) {
  std::vector<std::byte> body;  // crc'd region: everything after the magic
  put_u32(body, static_cast<std::uint32_t>(ck.sections.size()));
  for (std::size_t r = 0; r < ck.sections.size(); ++r) {
    put_u64(body, ck.epoch_hw[r]);
    put_u64(body, ck.commit_hw[r]);
    put_u64(body, ck.sections[r].size());
    body.insert(body.end(), ck.sections[r].begin(), ck.sections[r].end());
  }
  // Listener replay state rides as a trailing block so checkpoints written
  // before it existed (or with net_listen off) parse identically: the reader
  // only looks for it when bytes remain past the per-rank loop.
  const bool any_net = std::any_of(ck.net_sections.begin(), ck.net_sections.end(),
                                   [](const auto& s) { return !s.empty(); });
  if (any_net) {
    put_u32(body, static_cast<std::uint32_t>(ck.net_sections.size()));
    for (const auto& s : ck.net_sections) {
      put_u64(body, s.size());
      body.insert(body.end(), s.begin(), s.end());
    }
  }
  std::vector<std::byte> file;
  file.reserve(4 + body.size() + 4);
  put_u32(file, kCkptMagic);
  file.insert(file.end(), body.begin(), body.end());
  put_u32(file, crc32(body.data(), body.size()));

  fs::create_directories(cfg.dir);
  const std::string tmp = cfg.dir + "/checkpoint.tmp";
  const std::string fin = cfg.dir + "/checkpoint.bin";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    io_error(self, self.id(), "cannot open checkpoint " + tmp);
    return false;
  }

  rma::FaultInjector* inj = self.faults();
  if (inj != nullptr && inj->should_kill(rma::KillPoint::kMidCheckpoint, 0)) {
    // Die with a partial temp file, before the atomic rename: the previous
    // checkpoint (if any) must stay authoritative.
    std::fwrite(file.data(), 1, file.size() / 2, f);
    std::fflush(f);
    ::fsync(fileno(f));
    std::fclose(f);
    inj->mark_killed();
    throw rma::FaultKill("wal mid-checkpoint kill");
  }

  const bool wrote = write_synced(f, {file});
  if (std::fclose(f) != 0 || !wrote) {
    io_error(self, self.id(), "cannot write checkpoint " + tmp);
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, fin, ec);
  if (ec) {
    io_error(self, self.id(), "cannot rename checkpoint " + tmp);
    return false;
  }
  if (!fsync_dir(cfg.dir)) {
    // The rename may not survive a power loss: report the checkpoint as not
    // durable, so no log behind it is truncated.
    io_error(self, self.id(), "cannot fsync checkpoint directory " + cfg.dir);
    return false;
  }
  self.charge(cfg.append_ns_per_byte * static_cast<double>(file.size()) + cfg.fsync_ns);
  self.counters().wal_fsyncs += 1;
  return true;
}

std::optional<Checkpoint> read_checkpoint(const std::string& dir) {
  std::FILE* f = std::fopen((dir + "/checkpoint.bin").c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::fseek(f, 0, SEEK_END);
  const long sz = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::byte> buf(sz > 0 ? static_cast<std::size_t>(sz) : 0);
  const bool read_ok =
      !buf.empty() && std::fread(buf.data(), 1, buf.size(), f) == buf.size();
  std::fclose(f);
  if (!read_ok || buf.size() < 4 + 4 + 4) return std::nullopt;

  Cursor c{buf.data(), buf.size()};
  if (c.take<std::uint32_t>() != kCkptMagic) return std::nullopt;
  const std::size_t body_len = buf.size() - 4 - 4;
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, buf.data() + buf.size() - 4, 4);
  if (crc32(buf.data() + 4, body_len) != stored_crc) return std::nullopt;

  c.left -= 4;  // exclude the trailing crc from parsing
  Checkpoint ck;
  const auto nranks = c.take<std::uint32_t>();
  for (std::uint32_t r = 0; r < nranks && c.ok; ++r) {
    ck.epoch_hw.push_back(c.take<std::uint64_t>());
    ck.commit_hw.push_back(c.take<std::uint64_t>());
    const auto len = c.take<std::uint64_t>();
    const std::byte* data = c.take_bytes(len);
    if (data != nullptr) ck.sections.emplace_back(data, data + len);
  }
  if (!c.ok || ck.sections.size() != nranks) return std::nullopt;
  if (c.left > 0) {  // optional listener replay-state trailer
    const auto nnet = c.take<std::uint32_t>();
    for (std::uint32_t r = 0; r < nnet && c.ok; ++r) {
      const auto len = c.take<std::uint64_t>();
      const std::byte* data = c.take_bytes(len);
      if (data != nullptr) ck.net_sections.emplace_back(data, data + len);
    }
    if (!c.ok || ck.net_sections.size() != nnet) return std::nullopt;
  }
  return ck;
}

}  // namespace gdi::wal
