// Blocking socket client for the src/net/ front end. Used by tests and the
// socket bench; production clients would look the same.
//
// The client owns one nonblocking-at-the-server, blocking-here TCP
// connection and drives the wire.hpp conversation: Hello/HelloAck handshake,
// a credit-window of Request frames, Reply harvesting, Bye. Two layers:
//
//  * the raw layer (connect_handshake / send_request / poll_frames) is what
//    the robustness tests poke: send_request routes every encoded frame
//    through a NetFaultInjector (seeded, deterministic), which may corrupt a
//    byte, truncate the tail, stall, drop the connection afterwards, or swap
//    the frame with the next one (reorder) -- the client-side half of the
//    PR 6 fault-injection pattern, aimed at the server's decoder;
//
//  * run_stream is the exactly-once driver: it pushes a fixed request list
//    (strictly increasing client_tags) through the window, retries
//    kOverloaded sheds via server::RetryBackoff (honouring the server's
//    retry-after hint in Reply::v1), and on any disconnect -- injected,
//    server-initiated, or a reply timeout -- reconnects and replays the
//    unacknowledged tail. HelloAck's watermark marks everything at or below
//    it completed, and the server's reply cache guarantees a replayed
//    committed write is acknowledged, never re-applied, so the driver
//    terminates with every request completed exactly once no matter where
//    the faults landed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "net/fault.hpp"
#include "net/wire.hpp"
#include "server/retry.hpp"
#include "server/scheduler.hpp"

namespace gdi::net {

struct ClientConfig {
  std::uint16_t port = 0;
  std::uint64_t auth_token = 0;
  std::uint64_t tenant_id = 1;
  NetFaultConfig fault;          ///< client-send-side fault injection
  double io_timeout_ms = 5000;   ///< reply/handshake progress deadline
  std::size_t max_reconnects = 1000;  ///< run_stream gives up beyond this
  server::RetryBackoff::Config backoff;  ///< kOverloaded re-send policy
};

/// What run_stream did. `completed` counts distinct tags acknowledged
/// (directly or via a reconnect watermark); the driver succeeded iff
/// finished && completed == requests submitted.
struct StreamResult {
  std::uint64_t ok = 0;          ///< replies with kOk
  std::uint64_t not_found = 0;   ///< replies with kNotFound (missing reads)
  std::uint64_t failed = 0;      ///< other terminal statuses (incl. kShutdown)
  std::uint64_t overload_sheds = 0;   ///< kOverloaded replies (retried)
  std::uint64_t reconnects = 0;
  std::uint64_t duplicate_replies = 0;  ///< dedup'd or in-flight-dup answers
  std::uint64_t completed = 0;   ///< distinct tags done
  bool finished = false;         ///< all requests completed before the bounds
};

class NetClient {
 public:
  explicit NetClient(ClientConfig cfg);
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connect to 127.0.0.1:port and run the Hello/HelloAck handshake.
  /// kOk on success; kOverloaded (capacity Bye), kShutdown (draining Bye),
  /// kInvalidArgument (auth Bye), kNoSpace (socket/connect failure),
  /// kStale (timeout / malformed ack).
  Status connect_handshake();
  void close_socket();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  [[nodiscard]] std::uint32_t credits() const { return credits_; }
  /// The server's completed watermark from the latest HelloAck.
  [[nodiscard]] std::uint64_t watermark() const { return watermark_; }

  /// Encode + send one request frame through the fault injector. kOk also
  /// when the frame was deliberately mangled in flight (the caller cannot
  /// tell -- that is the point); kNoSpace on a real socket error.
  Status send_request(const server::Request& r);

  /// Send raw bytes verbatim (tests craft malformed frames with this).
  bool send_raw(const void* data, std::size_t n);

  /// Read frames until `timeout_ms` of silence or the buffer empties; the
  /// socket is read at least once, so a timeout of 0 collects what the
  /// kernel already holds. Replies are appended to `*out`. Returns false
  /// when the connection is over (EOF, error, or a Bye -- reason in *bye if
  /// non-null).
  bool poll_frames(std::vector<server::Reply>* out, int timeout_ms,
                   ByeReason* bye = nullptr);

  /// Orderly close: Bye(kDone), then wait for the server's closing Bye.
  void finish();

  /// Exactly-once driver over a fixed request list; see the header comment.
  /// Requests must carry strictly increasing client_tags starting at
  /// watermark+1 (assign 1..n for a fresh tenant).
  StreamResult run_stream(const std::vector<server::Request>& reqs);

 private:
  bool flush_stash_();
  bool write_all_(const void* data, std::size_t n);

  ClientConfig cfg_;
  NetFaultInjector fault_;
  int fd_ = -1;
  std::uint32_t credits_ = 0;
  std::uint64_t watermark_ = 0;
  std::vector<std::byte> rx_;
  std::vector<std::byte> stash_;  ///< reorder fault: frame held for one send
};

}  // namespace gdi::net
