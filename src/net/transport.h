#ifndef LEDGERDB_NET_TRANSPORT_H_
#define LEDGERDB_NET_TRANSPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "ledger/ledger.h"
#include "ledger/service.h"
#include "net/rpc.h"

namespace ledgerdb {

/// Transport seam between LedgerClient / auditors and the LSP (§II-B: the
/// LSP is *distrusted*, so everything a client learns arrives through this
/// interface and must be independently verified). Implementations:
/// LocalTransport (honest, in-process, wire round-tripped), SocketTransport
/// (net/socket_transport.h) and ByzantineTransport (adversarial
/// decorator); client verification logic is the same over each.
class LedgerTransport {
 public:
  virtual ~LedgerTransport() = default;

  /// Submits a signed transaction; `jsn` receives the assigned sequence
  /// number. Safe to retry: the server deduplicates on (signer, nonce).
  virtual Status AppendTx(const ClientTransaction& tx, uint64_t* jsn) = 0;

  virtual Status GetReceipt(uint64_t jsn, Receipt* out) = 0;
  virtual Status GetJournal(uint64_t jsn, Journal* out) = 0;
  virtual Status GetProof(uint64_t jsn, FamProof* out) = 0;
  virtual Status GetClueProof(const std::string& clue, uint64_t begin,
                              uint64_t end, ClueProof* out) = 0;
  virtual Status ListTx(const std::string& clue,
                        std::vector<uint64_t>* jsns) = 0;
  virtual Status GetCommitment(SignedCommitment* out) = 0;
  virtual Status GetDelta(uint64_t from, uint64_t to,
                          std::vector<JournalDelta>* out) = 0;

  /// Batched fam existence proof for a journal set (one shared node set
  /// per epoch + one link chain; see FamBatchProof).
  virtual Status GetProofBatch(const std::vector<uint64_t>& jsns,
                               FamBatchProof* out) = 0;

  /// Batched range read: journals + clue proof + fam batch proof for every
  /// entry of `clue` with server_ts in [from, to). One round-trip replaces
  /// N GetJournal calls plus N GetProof calls.
  virtual Status ProveClueRange(const std::string& clue, Timestamp from,
                                Timestamp to, ClueRangeResult* out) = 0;

  virtual const std::string& uri() const = 0;

  /// Per-request deadline budget in microseconds (0 = unbounded). Every
  /// transport maps deadline expiry to Status::DeadlineExceeded — the
  /// distinct *retriable* timeout status — so retry loops and the
  /// byzantine matrix exercise timeout paths uniformly across local,
  /// adversarial and socket transports.
  void set_request_deadline_us(uint64_t us) { request_deadline_us_ = us; }
  uint64_t request_deadline_us() const { return request_deadline_us_; }

 protected:
  uint64_t request_deadline_us_ = 0;
};

/// A LedgerTransport whose typed methods are written once, over Call:
/// each encodes its request with the RPC table's body codec (net/rpc.h),
/// exchanges it through Call, and decodes the response body. A concrete
/// transport supplies only Call.
class WireTransport : public LedgerTransport {
 public:
  Status AppendTx(const ClientTransaction& tx, uint64_t* jsn) override;
  Status GetReceipt(uint64_t jsn, Receipt* out) override;
  Status GetJournal(uint64_t jsn, Journal* out) override;
  Status GetProof(uint64_t jsn, FamProof* out) override;
  Status GetClueProof(const std::string& clue, uint64_t begin, uint64_t end,
                      ClueProof* out) override;
  Status ListTx(const std::string& clue, std::vector<uint64_t>* jsns) override;
  Status GetCommitment(SignedCommitment* out) override;
  Status GetDelta(uint64_t from, uint64_t to,
                  std::vector<JournalDelta>* out) override;
  Status GetProofBatch(const std::vector<uint64_t>& jsns,
                       FamBatchProof* out) override;
  Status ProveClueRange(const std::string& clue, Timestamp from, Timestamp to,
                        ClueRangeResult* out) override;

  /// One request/response exchange: `body` is the request body for `op`;
  /// on OK, `*resp_body` receives the response body. A server-reported
  /// error comes back as its own Status.
  virtual Status Call(RpcOp op, const Bytes& body, Bytes* resp_body) = 0;

 private:
  template <typename R>
  Status Invoke(const typename R::Request& request,
                typename R::Response* out);
};

/// Honest in-process transport. Every exchange runs the full socket codec
/// — request frame encode/decode, the server's table dispatch with its
/// staged LedgerGate, response frame encode/decode — so clients exercise
/// exactly the byte surface and stages a remote deployment would expose: a
/// proof that survives LocalTransport has survived its codec.
class LocalTransport : public WireTransport {
 public:
  explicit LocalTransport(Ledger* ledger);

  /// Service-addressed variant: the ledger is resolved from `service` by
  /// uri on first use (so the transport can be built before the ledger).
  LocalTransport(LedgerService* service, std::string uri);

  Status Call(RpcOp op, const Bytes& body, Bytes* resp_body) override;

  const std::string& uri() const override { return uri_; }

  /// The LSP key clients verify receipts/commitments against. Exposed for
  /// convenience in tests; a real client configures this out-of-band.
  const PublicKey& lsp_key() const;

  /// Test hook: pretend every op takes this long. In-process calls are
  /// effectively instant, so this is how the deadline path gets exercised
  /// without real sleeps — an op whose simulated latency reaches the
  /// request deadline returns DeadlineExceeded without touching the ledger.
  void SetSimulatedLatencyUs(uint64_t us) { simulated_latency_us_ = us; }

 private:
  Status Resolve(Ledger** out);

  /// DeadlineExceeded if the simulated latency eats the request budget.
  Status CheckDeadline() const;

  uint64_t simulated_latency_us_ = 0;

  LedgerGate gate_;
  Ledger* ledger_ = nullptr;
  LedgerService* service_ = nullptr;
  std::string uri_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_NET_TRANSPORT_H_
