#ifndef LEDGERDB_NET_SOCKET_FAULT_H_
#define LEDGERDB_NET_SOCKET_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/socket_util.h"

namespace ledgerdb {

/// Transport-layer faults a flaky network (or malicious middlebox) can
/// apply to one proxied connection. Mirrors FaultEnv / ByzantineTransport:
/// every cut point flows from the proxy seed, so a failing matrix cell
/// replays exactly. (Named like StorageFaultKind: FaultKind is the
/// ByzantineTransport taxonomy in net/byzantine_transport.h.)
enum class SocketFaultKind : uint8_t {
  kNone = 0,
  kReset,           ///< abrupt close after a seeded number of response bytes
  kStall,           ///< responses stop flowing; the client deadline must fire
  kShortChunks,     ///< 1-byte reads/writes both ways — must still succeed
  kMidFrameClose,   ///< half of one response frame delivered, then close
  kOversizedFrame,  ///< first request length prefix rewritten to 0xFFFFFFFF
};

const char* SocketFaultKindName(SocketFaultKind kind);

/// Seeded in-process proxy between a SocketTransport and a LedgerServer.
/// Each accepted connection gets a 0-based index; ScheduleFault(index,
/// kind) arms a fault for that connection, everything else forwards
/// honestly. One relay thread per connection — this is a test harness,
/// not a data plane.
class SocketFaultProxy {
 public:
  /// Listens on "unix:<listen_path>", forwards to `backend_address`
  /// (any address ParseAddress accepts).
  SocketFaultProxy(std::string listen_path, std::string backend_address,
                   uint64_t seed);
  ~SocketFaultProxy();

  SocketFaultProxy(const SocketFaultProxy&) = delete;
  SocketFaultProxy& operator=(const SocketFaultProxy&) = delete;

  Status Start();
  void Stop();

  /// Client-facing address ("unix:<listen_path>").
  const std::string& address() const { return address_; }

  /// Arms `kind` for the `conn_index`-th accepted connection.
  void ScheduleFault(uint64_t conn_index, SocketFaultKind kind);

  uint64_t connections() const;

 private:
  struct Relay;

  void AcceptLoop();
  void RelayLoop(Relay* relay);

  std::string listen_path_;
  std::string address_;
  net::Address backend_;
  uint64_t seed_;

  int listen_fd_ = -1;
  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::map<uint64_t, SocketFaultKind> schedule_;
  uint64_t accepted_ = 0;
  std::vector<std::unique_ptr<Relay>> relays_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_NET_SOCKET_FAULT_H_
