#include "net/transport.h"

#include "net/wire.h"

namespace ledgerdb {

template <typename R>
Status WireTransport::Invoke(const typename R::Request& request,
                             typename R::Response* out) {
  Bytes body;
  LEDGERDB_RETURN_IF_ERROR(
      Call(R::kOp, wire::Codec<typename R::Request>::Encode(request), &body));
  if (!wire::Codec<typename R::Response>::Decode(body, out)) {
    return Status::Corruption(std::string(R::kName) +
                              " response body undecodable");
  }
  return Status::OK();
}

Status WireTransport::AppendTx(const ClientTransaction& tx, uint64_t* jsn) {
  return Invoke<rpc::AppendTx>(tx, jsn);
}

Status WireTransport::GetReceipt(uint64_t jsn, Receipt* out) {
  return Invoke<rpc::GetReceipt>(jsn, out);
}

Status WireTransport::GetJournal(uint64_t jsn, Journal* out) {
  return Invoke<rpc::GetJournal>(jsn, out);
}

Status WireTransport::GetProof(uint64_t jsn, FamProof* out) {
  return Invoke<rpc::GetProof>(jsn, out);
}

Status WireTransport::GetClueProof(const std::string& clue, uint64_t begin,
                                   uint64_t end, ClueProof* out) {
  return Invoke<rpc::GetClueProof>({clue, begin, end}, out);
}

Status WireTransport::ListTx(const std::string& clue,
                             std::vector<uint64_t>* jsns) {
  return Invoke<rpc::ListTx>(clue, jsns);
}

Status WireTransport::GetCommitment(SignedCommitment* out) {
  return Invoke<rpc::GetCommitment>({}, out);
}

Status WireTransport::GetDelta(uint64_t from, uint64_t to,
                               std::vector<JournalDelta>* out) {
  return Invoke<rpc::GetDelta>({from, to}, out);
}

Status WireTransport::GetProofBatch(const std::vector<uint64_t>& jsns,
                                    FamBatchProof* out) {
  return Invoke<rpc::GetProofBatch>(jsns, out);
}

Status WireTransport::ProveClueRange(const std::string& clue, Timestamp from,
                                     Timestamp to, ClueRangeResult* out) {
  return Invoke<rpc::ProveClueRange>(
      {clue, static_cast<uint64_t>(from), static_cast<uint64_t>(to)}, out);
}

LocalTransport::LocalTransport(Ledger* ledger)
    : ledger_(ledger), uri_(ledger->uri()) {}

LocalTransport::LocalTransport(LedgerService* service, std::string uri)
    : service_(service), uri_(std::move(uri)) {}

Status LocalTransport::CheckDeadline() const {
  if (request_deadline_us_ > 0 &&
      simulated_latency_us_ >= request_deadline_us_) {
    return Status::DeadlineExceeded(
        "request deadline exceeded (" +
        std::to_string(simulated_latency_us_) + " us simulated >= " +
        std::to_string(request_deadline_us_) + " us budget)");
  }
  return Status::OK();
}

Status LocalTransport::Resolve(Ledger** out) {
  if (ledger_ == nullptr) {
    LEDGERDB_RETURN_IF_ERROR(service_->GetLedger(uri_, &ledger_));
  }
  *out = ledger_;
  return Status::OK();
}

const PublicKey& LocalTransport::lsp_key() const {
  // Resolve() has run by the time any verification needs this; fall back
  // to the service key for a not-yet-resolved service-addressed transport.
  if (ledger_ != nullptr) return ledger_->lsp_key();
  return service_->lsp_key();
}

Status LocalTransport::Call(RpcOp op, const Bytes& body, Bytes* resp_body) {
  LEDGERDB_RETURN_IF_ERROR(CheckDeadline());
  Ledger* ledger = nullptr;
  LEDGERDB_RETURN_IF_ERROR(Resolve(&ledger));
  // Both frames cross their codec: the dispatch only ever sees a decoded
  // request frame, and the caller only a decoded response frame.
  wire::RequestFrame request;
  request.op = op;
  request.body = body;
  wire::RequestFrame served;
  if (!wire::RequestFrame::Decode(request.Encode(), &served)) {
    return Status::Corruption("request frame round trip failed");
  }
  wire::ResponseFrame response;
  if (!wire::ResponseFrame::Decode(wire::Dispatch(ledger, served, &gate_).Encode(),
                                   &response)) {
    return Status::Corruption("response frame round trip failed");
  }
  Status st = response.ToStatus();
  if (st.ok()) *resp_body = std::move(response.body);
  return st;
}

}  // namespace ledgerdb
