#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace gdi::net {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

NetClient::NetClient(ClientConfig cfg) : cfg_(cfg), fault_(cfg.fault) {}

NetClient::~NetClient() { close_socket(); }

void NetClient::close_socket() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  rx_.clear();
  stash_.clear();
}

bool NetClient::write_all_(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd_, p + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Blocking socket: only hit under extreme kernel-buffer pressure.
      pollfd pf{fd_, POLLOUT, 0};
      ::poll(&pf, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

bool NetClient::send_raw(const void* data, std::size_t n) {
  if (fd_ < 0) return false;
  if (!write_all_(data, n)) {
    close_socket();
    return false;
  }
  return true;
}

Status NetClient::connect_handshake() {
  close_socket();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::kNoSpace;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::kNoSpace;
  }
  fd_ = fd;
  HelloBody hello{cfg_.auth_token, cfg_.tenant_id};
  std::vector<std::byte> f;
  encode_frame(f, FrameType::kHello, hello);
  if (!send_raw(f.data(), f.size())) return Status::kNoSpace;

  // Wait for HelloAck (or Bye). A reconnecting tenant's handshake is held by
  // the server until the previous session drains, so be patient up to the
  // io timeout rather than one poll round.
  const double deadline = now_ms() + cfg_.io_timeout_ms;
  while (now_ms() < deadline) {
    pollfd pf{fd_, POLLIN, 0};
    if (::poll(&pf, 1, 50) <= 0) continue;
    std::byte buf[1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      close_socket();
      return Status::kStale;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      close_socket();
      return Status::kNoSpace;
    }
    rx_.insert(rx_.end(), buf, buf + n);
    Frame fr;
    std::size_t consumed = 0;
    const DecodeResult dr = decode_frame(rx_, kMaxFrameLen, &fr, &consumed);
    if (dr == DecodeResult::kNeedMore) continue;
    if (dr == DecodeResult::kBad) {
      close_socket();
      return Status::kStale;
    }
    // fr.payload aliases rx_: parse the body BEFORE erasing the consumed
    // bytes, or the erase shifts the buffer out from under the span.
    if (fr.type == FrameType::kHelloAck) {
      HelloAckBody ack;
      if (!read_body(fr.payload, &ack)) {
        close_socket();
        return Status::kStale;
      }
      rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(consumed));
      credits_ = ack.credits;
      watermark_ = ack.last_acked_write_tag;
      return Status::kOk;
    }
    if (fr.type == FrameType::kBye) {
      ByeBody b;
      (void)read_body(fr.payload, &b);
      close_socket();
      switch (static_cast<ByeReason>(b.reason)) {
        case ByeReason::kCapacity:
          return Status::kOverloaded;
        case ByeReason::kDraining:
          return Status::kShutdown;
        case ByeReason::kAuthFailed:
          return Status::kInvalidArgument;
        default:
          return Status::kStale;
      }
    }
    close_socket();
    return Status::kStale;
  }
  close_socket();
  return Status::kStale;
}

Status NetClient::send_request(const server::Request& r) {
  if (fd_ < 0) return Status::kNoSpace;
  std::vector<std::byte> f;
  encode_frame(f, FrameType::kRequest, r);
  const NetFaultInjector::Action act = fault_.on_frame();
  if (act.stall)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        fault_.config().stall_ms));
  if (act.reorder && stash_.empty()) {
    // Hold this frame; it goes out right after the next one (a swapped pair).
    stash_ = std::move(f);
    return Status::kOk;
  }
  if (act.corrupt) {
    const std::size_t at = static_cast<std::size_t>(fault_.draw_below(f.size()));
    f[at] ^= std::byte{0x5a};
  }
  if (act.truncate) {
    // A strict prefix, then the connection dies: the torn-frame case.
    const std::size_t keep =
        1 + static_cast<std::size_t>(fault_.draw_below(f.size() - 1));
    f.resize(keep);
    (void)send_raw(f.data(), f.size());
    close_socket();
    return Status::kOk;
  }
  if (!send_raw(f.data(), f.size())) return Status::kNoSpace;
  if (!flush_stash_()) return Status::kNoSpace;
  if (act.disconnect) close_socket();
  return Status::kOk;
}

bool NetClient::flush_stash_() {
  if (stash_.empty() || fd_ < 0) return true;
  std::vector<std::byte> f = std::move(stash_);
  stash_.clear();
  return send_raw(f.data(), f.size());
}

bool NetClient::poll_frames(std::vector<server::Reply>* out, int timeout_ms,
                            ByeReason* bye) {
  if (fd_ < 0) return false;
  (void)flush_stash_();  // nothing else coming: release a reorder-held frame
  const double deadline = now_ms() + timeout_ms;
  bool waited = false;
  bool polled = false;  // a timeout under 1 ms still reads the socket once
  for (;;) {
    // Decode everything already buffered.
    for (;;) {
      Frame fr;
      std::size_t consumed = 0;
      const DecodeResult dr = decode_frame(rx_, kMaxFrameLen, &fr, &consumed);
      if (dr == DecodeResult::kNeedMore) break;
      if (dr == DecodeResult::kBad) {
        close_socket();
        return false;
      }
      // fr.payload aliases rx_: parse the body BEFORE erasing the consumed
      // bytes, or the erase shifts the buffer out from under the span.
      if (fr.type == FrameType::kReply) {
        server::Reply rep;
        const bool ok = read_body(fr.payload, &rep);
        rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(consumed));
        if (ok && out != nullptr) out->push_back(rep);
        waited = true;  // got something: return after draining the buffer
        continue;
      }
      if (fr.type == FrameType::kBye) {
        ByeBody b;
        if (read_body(fr.payload, &b) && bye != nullptr)
          *bye = static_cast<ByeReason>(b.reason);
        close_socket();
        return false;
      }
      close_socket();  // anything else is a server-side protocol violation
      return false;
    }
    if (waited) return true;
    const int remain = std::max(0, static_cast<int>(deadline - now_ms()));
    if (remain == 0 && polled) return true;  // silence; connection still fine
    polled = true;
    pollfd pf{fd_, POLLIN, 0};
    const int pr = ::poll(&pf, 1, std::min(remain, 50));
    if (pr < 0 && errno != EINTR) {
      close_socket();
      return false;
    }
    if (pr <= 0) continue;
    std::byte buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      close_socket();
      return false;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      close_socket();
      return false;
    }
    rx_.insert(rx_.end(), buf, buf + n);
  }
}

void NetClient::finish() {
  if (fd_ < 0) return;
  ByeBody b{static_cast<std::uint32_t>(ByeReason::kDone), 0};
  std::vector<std::byte> f;
  encode_frame(f, FrameType::kBye, b);
  (void)send_raw(f.data(), f.size());
  // Drain until the server's closing Bye (poll_frames returns false on it).
  std::vector<server::Reply> sink;
  const double deadline = now_ms() + cfg_.io_timeout_ms;
  while (fd_ >= 0 && now_ms() < deadline) (void)poll_frames(&sink, 50);
  close_socket();
}

StreamResult NetClient::run_stream(const std::vector<server::Request>& reqs) {
  StreamResult res;
  if (reqs.empty()) {
    res.finished = true;
    return res;
  }
  const std::size_t n = reqs.size();
  std::vector<bool> done(n, false);
  std::vector<bool> inflight(n, false);
  // tag -> index: tags are strictly increasing, so a binary search suffices.
  const auto index_of = [&](std::uint64_t tag) -> std::ptrdiff_t {
    const auto it = std::lower_bound(
        reqs.begin(), reqs.end(), tag,
        [](const server::Request& r, std::uint64_t t) { return r.client_tag < t; });
    if (it == reqs.end() || it->client_tag != tag) return -1;
    return it - reqs.begin();
  };
  server::RetryBackoff overload_backoff(cfg_.backoff);
  server::RetryBackoff reconnect_backoff(cfg_.backoff);
  std::size_t completed = 0;
  std::size_t window = 0;

  const auto absorb_watermark = [&](std::uint64_t w) {
    for (std::size_t i = 0; i < n && reqs[i].client_tag <= w; ++i) {
      if (!done[i]) {
        // Completed before the disconnect; the reply itself was lost. The
        // server's watermark is the durable acknowledgement.
        done[i] = true;
        ++completed;
        ++res.ok;
      }
    }
  };

  std::size_t connect_attempts = 0;
  while (completed < n) {
    if (!connected()) {
      if (res.reconnects >= cfg_.max_reconnects ||
          connect_attempts > cfg_.max_reconnects)
        break;
      ++connect_attempts;
      const Status st = connect_handshake();
      if (st != Status::kOk) {
        if (st == Status::kShutdown) break;  // draining: nothing more to do
        reconnect_backoff.backoff();
        continue;
      }
      reconnect_backoff.reset();
      ++res.reconnects;
      absorb_watermark(watermark_);
      std::fill(inflight.begin(), inflight.end(), false);
      window = 0;
    }
    // Fill the window with the lowest unfinished, un-inflight requests.
    const std::uint32_t cap = std::max<std::uint32_t>(credits_, 1);
    for (std::size_t i = 0; i < n && window < cap; ++i) {
      if (done[i] || inflight[i]) continue;
      if (send_request(reqs[i]) != Status::kOk) break;
      // Mark in flight even when the injector mangled or dropped the frame:
      // the reply timeout below funnels us into reconnect-and-replay.
      inflight[i] = true;
      ++window;
      if (!connected()) break;
    }
    if (!connected()) continue;

    std::vector<server::Reply> replies;
    const bool alive =
        poll_frames(&replies, static_cast<int>(cfg_.io_timeout_ms));
    bool progressed = false;
    double overload_hint_us = 0;
    for (const server::Reply& rep : replies) {
      const std::ptrdiff_t i = index_of(rep.client_tag);
      if (i < 0) {
        ++res.duplicate_replies;
        continue;
      }
      if (inflight[static_cast<std::size_t>(i)]) {
        inflight[static_cast<std::size_t>(i)] = false;
        if (window > 0) --window;
      }
      if (done[static_cast<std::size_t>(i)]) {
        ++res.duplicate_replies;
        continue;
      }
      progressed = true;
      switch (rep.status) {
        case Status::kOk:
          done[static_cast<std::size_t>(i)] = true;
          ++completed;
          ++res.ok;
          break;
        case Status::kNotFound:
          done[static_cast<std::size_t>(i)] = true;
          ++completed;
          ++res.not_found;
          break;
        case Status::kOverloaded:
          // Typed shed: not completed; re-send after backing off (the server
          // hint rides v1 in ns).
          ++res.overload_sheds;
          overload_hint_us =
              std::max(overload_hint_us, static_cast<double>(rep.v1) / 1000.0);
          break;
        case Status::kInvalidArgument:
          // In-flight duplicate answer; the original reply is still coming.
          ++res.duplicate_replies;
          break;
        default:
          done[static_cast<std::size_t>(i)] = true;
          ++completed;
          ++res.failed;
          break;
      }
    }
    if (overload_hint_us > 0 || (!replies.empty() && !progressed)) {
      if (overload_hint_us > 0) overload_backoff.backoff(overload_hint_us);
    } else if (progressed) {
      overload_backoff.reset();
    }
    if (!alive) {
      close_socket();
      continue;
    }
    if (replies.empty() && window > 0) {
      // Reply deadline expired with requests outstanding: a mangled frame
      // (or a stalled server) wedged this connection. Replay on a fresh one.
      close_socket();
    }
  }
  res.completed = completed;
  res.finished = completed == n;
  if (connected()) finish();
  return res;
}

}  // namespace gdi::net
