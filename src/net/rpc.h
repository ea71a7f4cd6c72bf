#ifndef LEDGERDB_NET_RPC_H_
#define LEDGERDB_NET_RPC_H_

#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ledger/ledger.h"

namespace ledgerdb {

/// The RPC operations a ledger client can issue. Fault injection schedules
/// against these (ByzantineTransport), so the enum is part of the net
/// plane's public surface. Each value indexes its row of kRpcTable.
enum class RpcOp : uint8_t {
  kAppendTx = 0,
  kGetReceipt,
  kGetJournal,
  kGetProof,
  kGetClueProof,
  kListTx,
  kGetCommitment,
  kGetDelta,
  kGetProofBatch,
  kProveClueRange,
};

namespace wire {

// ---------------------------------------------------------------------------
// Per-op body codecs (strict: truncation AND trailing bytes both fail)
// ---------------------------------------------------------------------------

Bytes EncodeJsnRequest(uint64_t jsn);
bool DecodeJsnRequest(const Bytes& body, uint64_t* jsn);

/// GetClueProof(begin, end) and ProveClueRange(from, to) — same shape,
/// [lp clue][u64][u64]; Timestamps travel as u64 two's complement.
Bytes EncodeClueWindowRequest(const std::string& clue, uint64_t begin,
                              uint64_t end);
bool DecodeClueWindowRequest(const Bytes& body, std::string* clue,
                             uint64_t* begin, uint64_t* end);

Bytes EncodeClueRequest(const std::string& clue);
bool DecodeClueRequest(const Bytes& body, std::string* clue);

Bytes EncodeRangeRequest(uint64_t from, uint64_t to);
bool DecodeRangeRequest(const Bytes& body, uint64_t* from, uint64_t* to);

/// GetProofBatch request and ListTx response: [u32 count][u64 jsn]*.
Bytes EncodeJsnList(const std::vector<uint64_t>& jsns);
bool DecodeJsnList(const Bytes& body, std::vector<uint64_t>* jsns);

/// GetDelta response: [u32 count][lp delta]*.
Bytes EncodeDeltas(const std::vector<JournalDelta>& deltas);
bool DecodeDeltas(const Bytes& body, std::vector<JournalDelta>* deltas);

/// Request bodies with more than one field (or none).
struct ClueWindow {
  std::string clue;
  uint64_t begin = 0;
  uint64_t end = 0;
};
struct Range {
  uint64_t from = 0;
  uint64_t to = 0;
};
struct NoArgs {};

/// The body codec for a request or response type. Both sides pick it by
/// type, so a client's encode and the server's decode cannot drift. The
/// default is the type's canonical Serialize()/Deserialize() bytes.
template <typename T>
struct Codec {
  static Bytes Encode(const T& value) { return value.Serialize(); }
  static bool Decode(const Bytes& body, T* out) {
    return T::Deserialize(body, out);
  }
};

template <>
struct Codec<uint64_t> {
  static Bytes Encode(uint64_t jsn) { return EncodeJsnRequest(jsn); }
  static bool Decode(const Bytes& body, uint64_t* jsn) {
    return DecodeJsnRequest(body, jsn);
  }
};

template <>
struct Codec<std::string> {
  static Bytes Encode(const std::string& clue) {
    return EncodeClueRequest(clue);
  }
  static bool Decode(const Bytes& body, std::string* clue) {
    return DecodeClueRequest(body, clue);
  }
};

template <>
struct Codec<std::vector<uint64_t>> {
  static Bytes Encode(const std::vector<uint64_t>& jsns) {
    return EncodeJsnList(jsns);
  }
  static bool Decode(const Bytes& body, std::vector<uint64_t>* jsns) {
    return DecodeJsnList(body, jsns);
  }
};

template <>
struct Codec<std::vector<JournalDelta>> {
  static Bytes Encode(const std::vector<JournalDelta>& deltas) {
    return EncodeDeltas(deltas);
  }
  static bool Decode(const Bytes& body, std::vector<JournalDelta>* deltas) {
    return DecodeDeltas(body, deltas);
  }
};

template <>
struct Codec<ClueWindow> {
  static Bytes Encode(const ClueWindow& w) {
    return EncodeClueWindowRequest(w.clue, w.begin, w.end);
  }
  static bool Decode(const Bytes& body, ClueWindow* w) {
    return DecodeClueWindowRequest(body, &w->clue, &w->begin, &w->end);
  }
};

template <>
struct Codec<Range> {
  static Bytes Encode(const Range& r) {
    return EncodeRangeRequest(r.from, r.to);
  }
  static bool Decode(const Bytes& body, Range* r) {
    return DecodeRangeRequest(body, &r->from, &r->to);
  }
};

template <>
struct Codec<NoArgs> {
  static Bytes Encode(NoArgs) { return Bytes(); }
  static bool Decode(const Bytes& body, NoArgs*) { return body.empty(); }
};

}  // namespace wire

/// The ledger's critical section, as wire::Dispatch enters it. Each RPC
/// runs in three stages: an unlocked Prepare, a locked Serve and an
/// unlocked Finish. Only Serve touches ledger state, so only Serve holds
/// the lock; signature checks and signing run beside other requests.
///
/// The gate also implements seal coalescing. An append counts as pending
/// from its decode until its Serve returns. A receipt whose
/// journal is still unsealed first waits, with the lock released, for the
/// appends pending when it looked; its seal then covers them too. The wait
/// ends when each of those appends commits or fails; it has no timer.
class LedgerGate {
 public:
  /// Where one request waited instead of working: for the lock and for
  /// coalesced appends. `start_us` is the start of its first wait.
  struct Waits {
    uint64_t start_us = 0;
    uint64_t total_us = 0;
    bool coalesced = false;

    void Add(uint64_t from_us, uint64_t to_us);
  };

  /// Marks one append pending for its lifetime.
  class PendingAppend {
   public:
    PendingAppend(LedgerGate* gate, bool active);
    ~PendingAppend();
    PendingAppend(const PendingAppend&) = delete;
    PendingAppend& operator=(const PendingAppend&) = delete;

   private:
    LedgerGate* gate_;
    uint64_t ticket_ = 0;
  };

  /// Every locked stage holds the lock at least `hold_us` (a test knob
  /// that makes overload deterministic; 0 in production).
  explicit LedgerGate(uint64_t hold_us = 0) : hold_us_(hold_us) {}

  LedgerGate(const LedgerGate&) = delete;
  LedgerGate& operator=(const LedgerGate&) = delete;

  /// Runs `serve` under the lock. If `await_appends` then returns true,
  /// first waits out the appends pending at that moment (see above).
  /// `waits` (optional) receives the time spent waiting.
  template <typename Await, typename Serve>
  Status Locked(Await&& await_appends, Serve&& serve, Waits* waits) {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    Acquire(&lock, waits);
    Hold();
    if (await_appends()) AwaitPendingAppends(&lock, waits);
    return serve();
  }

  /// Runs `fn` under the lock, with no hold and no coalescing: the
  /// server's admin hatch (LedgerServer::WithLedger).
  template <typename Fn>
  void WithLock(Fn&& fn) {
    std::lock_guard<std::mutex> lock(mu_);
    fn();
  }

 private:
  void Acquire(std::unique_lock<std::mutex>* lock, Waits* waits);
  void Hold() const;
  void AwaitPendingAppends(std::unique_lock<std::mutex>* lock, Waits* waits);

  const uint64_t hold_us_;
  std::mutex mu_;

  /// Pending appends by ticket; tickets rise in decode order.
  std::mutex appends_mu_;
  std::condition_variable appends_cv_;
  uint64_t next_ticket_ = 0;
  std::set<uint64_t> pending_tickets_;
};

namespace rpc {

/// What every RPC descriptor below declares: its op, and the request and
/// response types whose wire::Codec is the body codec on both sides. The
/// defaults make an RPC run wholly under the ledger lock; a descriptor
/// overrides them to move work out of it.
template <RpcOp Op, typename Req, typename Resp>
struct Rpc {
  static constexpr RpcOp kOp = Op;
  using Request = Req;
  using Response = Resp;

  /// What Prepare hands to Serve; by default the request itself.
  using Prepared = Req;
  /// Unlocked, before Serve. Must only read state that is immutable
  /// while the ledger serves (uri, member registry, LSP key).
  static Status Prepare(const Ledger&, Req&& req, Req* out) {
    *out = std::move(req);
    return Status::OK();
  }
  /// Unlocked, after Serve; same rule as Prepare.
  static Status Finish(const Ledger&, Resp*) { return Status::OK(); }
  /// Whether the request counts as a pending append from its decode until
  /// its Serve returns (LedgerGate seal coalescing).
  static constexpr bool kPendingAppend = false;
  /// Asked under the lock before Serve: true makes the request wait for
  /// the pending appends first (LedgerGate seal coalescing).
  template <typename P>
  static bool AwaitsPendingAppends(const Ledger&, const P&) {
    return false;
  }
};

// One descriptor per RPC. Serve answers a request from the ledger, under
// the lock; a descriptor that defines ServeBody instead writes the
// response body itself.

struct AppendTx : Rpc<RpcOp::kAppendTx, ClientTransaction, uint64_t> {
  static constexpr const char* kName = "AppendTx";
  /// π_c, membership and payload hashing run unlocked; the commit is a
  /// group of one under the lock.
  using Prepared = Ledger::PrevalidatedTx;
  static constexpr bool kPendingAppend = true;
  static Status Prepare(const Ledger& ledger, const Request& tx,
                        Prepared* out) {
    return ledger.Prevalidate(tx, out);
  }
  static Status Serve(Ledger& ledger, Prepared&& tx, uint64_t* jsn) {
    return ledger.CommitOne(std::move(tx), jsn);
  }
};

struct GetReceipt : Rpc<RpcOp::kGetReceipt, uint64_t, Receipt> {
  static constexpr const char* kName = "GetReceipt";
  /// An unsealed journal's receipt waits for the pending appends, so one
  /// seal covers them all; the π_s signature runs unlocked.
  static bool AwaitsPendingAppends(const Ledger& ledger, uint64_t jsn) {
    return ledger.AwaitingSeal(jsn);
  }
  static Status Serve(Ledger& ledger, uint64_t jsn, Receipt* out) {
    return ledger.FillReceipt(jsn, out);
  }
  static Status Finish(const Ledger& ledger, Receipt* out) {
    ledger.SignReceipt(out);
    return Status::OK();
  }
};

struct GetJournal : Rpc<RpcOp::kGetJournal, uint64_t, Journal> {
  static constexpr const char* kName = "GetJournal";
  static Status Serve(Ledger& ledger, uint64_t jsn, Journal* out) {
    return ledger.GetJournal(jsn, out);
  }
};

struct GetProof : Rpc<RpcOp::kGetProof, uint64_t, FamProof> {
  static constexpr const char* kName = "GetProof";
  static Status Serve(Ledger& ledger, uint64_t jsn, FamProof* out) {
    return ledger.GetProof(jsn, out);
  }
};

struct GetClueProof : Rpc<RpcOp::kGetClueProof, wire::ClueWindow, ClueProof> {
  static constexpr const char* kName = "GetClueProof";
  static Status Serve(Ledger& ledger, const Request& w, ClueProof* out) {
    return ledger.GetClueProof(w.clue, w.begin, w.end, out);
  }
};

struct ListTx : Rpc<RpcOp::kListTx, std::string, std::vector<uint64_t>> {
  static constexpr const char* kName = "ListTx";
  static Status Serve(Ledger& ledger, const std::string& clue,
                      std::vector<uint64_t>* out) {
    return ledger.ListTx(clue, out);
  }
};

struct GetCommitment
    : Rpc<RpcOp::kGetCommitment, wire::NoArgs, SignedCommitment> {
  static constexpr const char* kName = "GetCommitment";
  /// The roots are read under the lock; the signature runs unlocked.
  static Status Serve(Ledger& ledger, wire::NoArgs, SignedCommitment* out) {
    return ledger.FillCommitment(out);
  }
  static Status Finish(const Ledger& ledger, SignedCommitment* out) {
    ledger.SignCommitment(out);
    return Status::OK();
  }
};

struct GetDelta
    : Rpc<RpcOp::kGetDelta, wire::Range, std::vector<JournalDelta>> {
  static constexpr const char* kName = "GetDelta";
  static Status Serve(Ledger& ledger, const Request& r,
                      std::vector<JournalDelta>* out) {
    return ledger.GetDelta(r.from, r.to, out);
  }
};

struct GetProofBatch
    : Rpc<RpcOp::kGetProofBatch, std::vector<uint64_t>, FamBatchProof> {
  static constexpr const char* kName = "GetProofBatch";
  static Status Serve(Ledger& ledger, const Request& jsns,
                      FamBatchProof* out) {
    return ledger.GetProofBatch(jsns, out);
  }
};

struct ProveClueRange
    : Rpc<RpcOp::kProveClueRange, wire::ClueWindow, ClueRangeResult> {
  static constexpr const char* kName = "ProveClueRange";
  /// The ledger serves a repeated range read from its response memo,
  /// without rebuilding or re-serializing the proofs.
  static Status ServeBody(Ledger& ledger, const Request& w, Bytes* body) {
    return ledger.ProveClueRangeWire(w.clue, static_cast<Timestamp>(w.begin),
                                     static_cast<Timestamp>(w.end), body);
  }
};

/// Server side of descriptor R: strict request decode and Prepare
/// (unlocked), Serve under the gate's lock, then Finish (unlocked) and the
/// response encode. A body that does not decode is InvalidArgument and
/// never reaches the ledger.
template <typename R>
Status Handle(Ledger* ledger, LedgerGate* gate, LedgerGate::Waits* waits,
              const Bytes& request, Bytes* response) {
  typename R::Response resp{};
  {
    // An append is pending from its decode until its commit returns.
    LedgerGate::PendingAppend pending(gate, R::kPendingAppend);
    typename R::Request req{};
    if (!wire::Codec<typename R::Request>::Decode(request, &req)) {
      return Status::InvalidArgument(std::string("malformed ") + R::kName +
                                     " request body");
    }
    if constexpr (requires { &R::ServeBody; }) {
      return gate->Locked([] { return false; },
                          [&] { return R::ServeBody(*ledger, req, response); },
                          waits);
    } else {
      typename R::Prepared prepared{};
      LEDGERDB_RETURN_IF_ERROR(R::Prepare(*ledger, std::move(req), &prepared));
      LEDGERDB_RETURN_IF_ERROR(gate->Locked(
          [&] { return R::AwaitsPendingAppends(*ledger, prepared); },
          [&] { return R::Serve(*ledger, std::move(prepared), &resp); },
          waits));
    }
  }
  LEDGERDB_RETURN_IF_ERROR(R::Finish(*ledger, &resp));
  *response = wire::Codec<typename R::Response>::Encode(resp);
  return Status::OK();
}

}  // namespace rpc

/// One row of the RPC table: everything the server needs to dispatch an op.
struct RpcEntry {
  RpcOp op;
  const char* name;
  /// Decodes a request body, runs its stages against `ledger` through
  /// `gate`, and on OK fills `*response` with the response body.
  Status (*handler)(Ledger* ledger, LedgerGate* gate, LedgerGate::Waits* waits,
                    const Bytes& request, Bytes* response);
};

template <typename R>
constexpr RpcEntry MakeRpcEntry() {
  return {R::kOp, R::kName, &rpc::Handle<R>};
}

/// The RPC table, one row per descriptor, indexed by RpcOp. The server
/// dispatch (wire::Dispatch), the client stubs (WireTransport), RpcOpName
/// and wire::ValidOp all read it. Adding an RPC means one RpcOp value, one
/// descriptor and row here, and one typed LedgerTransport method.
inline constexpr RpcEntry kRpcTable[] = {
    MakeRpcEntry<rpc::AppendTx>(),      MakeRpcEntry<rpc::GetReceipt>(),
    MakeRpcEntry<rpc::GetJournal>(),    MakeRpcEntry<rpc::GetProof>(),
    MakeRpcEntry<rpc::GetClueProof>(),  MakeRpcEntry<rpc::ListTx>(),
    MakeRpcEntry<rpc::GetCommitment>(), MakeRpcEntry<rpc::GetDelta>(),
    MakeRpcEntry<rpc::GetProofBatch>(), MakeRpcEntry<rpc::ProveClueRange>(),
};

inline constexpr int kNumRpcOps = static_cast<int>(std::size(kRpcTable));

static_assert(
    [] {
      for (int i = 0; i < kNumRpcOps; ++i) {
        if (static_cast<int>(kRpcTable[i].op) != i) return false;
      }
      return true;
    }(),
    "kRpcTable rows must be in RpcOp order");

constexpr const char* RpcOpName(RpcOp op) {
  const auto i = static_cast<size_t>(op);
  return i < std::size(kRpcTable) ? kRpcTable[i].name : "Unknown";
}

}  // namespace ledgerdb

#endif  // LEDGERDB_NET_RPC_H_
