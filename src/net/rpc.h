#ifndef LEDGERDB_NET_RPC_H_
#define LEDGERDB_NET_RPC_H_

#include <cstdint>
#include <iterator>
#include <string>
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

namespace rpc {

/// What every RPC descriptor below declares: its op, and the request and
/// response types whose wire::Codec is the body codec on both sides.
template <RpcOp Op, typename Req, typename Resp>
struct Rpc {
  static constexpr RpcOp kOp = Op;
  using Request = Req;
  using Response = Resp;
};

// One descriptor per RPC. Serve answers a decoded request from the ledger;
// a descriptor that defines ServeBody instead writes the response body
// itself.

struct AppendTx : Rpc<RpcOp::kAppendTx, ClientTransaction, uint64_t> {
  static constexpr const char* kName = "AppendTx";
  static Status Serve(Ledger& ledger, const Request& tx, uint64_t* jsn) {
    return ledger.Append(tx, jsn);
  }
};

struct GetReceipt : Rpc<RpcOp::kGetReceipt, uint64_t, Receipt> {
  static constexpr const char* kName = "GetReceipt";
  static Status Serve(Ledger& ledger, uint64_t jsn, Receipt* out) {
    return ledger.GetReceipt(jsn, out);
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
  static Status Serve(Ledger& ledger, wire::NoArgs, SignedCommitment* out) {
    return ledger.GetCommitment(out);
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

/// Server side of descriptor R: strict request decode, the ledger call,
/// the response encode. A body that does not decode is InvalidArgument and
/// never reaches the ledger.
template <typename R>
Status Handle(Ledger* ledger, const Bytes& request, Bytes* response) {
  typename R::Request req{};
  if (!wire::Codec<typename R::Request>::Decode(request, &req)) {
    return Status::InvalidArgument(std::string("malformed ") + R::kName +
                                   " request body");
  }
  if constexpr (requires { &R::ServeBody; }) {
    return R::ServeBody(*ledger, req, response);
  } else {
    typename R::Response resp{};
    LEDGERDB_RETURN_IF_ERROR(R::Serve(*ledger, req, &resp));
    *response = wire::Codec<typename R::Response>::Encode(resp);
    return Status::OK();
  }
}

}  // namespace rpc

/// One row of the RPC table: everything the server needs to dispatch an op.
struct RpcEntry {
  RpcOp op;
  const char* name;
  /// Decodes a request body, runs it against `ledger`, and on OK fills
  /// `*response` with the response body.
  Status (*handler)(Ledger* ledger, const Bytes& request, Bytes* response);
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
