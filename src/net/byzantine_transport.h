#ifndef LEDGERDB_NET_BYZANTINE_TRANSPORT_H_
#define LEDGERDB_NET_BYZANTINE_TRANSPORT_H_

#include <array>
#include <map>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/random.h"
#include "net/mirror.h"
#include "net/transport.h"

namespace ledgerdb {

/// The faults a Byzantine (or merely unreliable) service plane can inject
/// into one RPC exchange. The first five model an adversarial *network*
/// (fail-recover, maskable by retries); the rest model an adversarial
/// *LSP* mutating responses (must be detected by client verification).
enum class FaultKind : uint8_t {
  kNone = 0,
  kDrop,              ///< request never reaches the server; deadline fires
  kDelay,             ///< server executes, response misses the deadline
  kDuplicate,         ///< request delivered (and executed) twice
  kReorder,           ///< response stalls; delivered on the next same-op call
  kTransientError,    ///< transient network failure, nothing executed
  kForgeProof,        ///< seeded bit-flip somewhere in the wire response
  kTruncateProof,     ///< structurally valid response with elements removed
  kStaleRoot,         ///< an old commitment is replayed (freshness attack)
  kSubstituteReceipt, ///< receipt/journal for a *different* jsn is served
  kCorruptPayload,    ///< journal payload bytes tampered, digest kept
};

const char* FaultKindName(FaultKind kind);

/// Deterministic adversarial decorator over any LedgerTransport. Faults
/// are scheduled per (RPC op, nth occurrence of that op) and every random
/// choice flows from the constructor seed, so a failing matrix cell
/// replays exactly. Equivocation — the LSP maintaining a consistently
/// *forked* view for this client — is modal (EnableEquivocation): from the
/// fork point on, served deltas are mutated and commitments are re-signed
/// over the forked mirror's roots, which defeats single-client delta
/// auditing when the forger holds the real LSP key and is only caught by
/// cross-client gossip (CrossCheckCommitments).
class ByzantineTransport : public LedgerTransport {
 public:
  ByzantineTransport(LedgerTransport* inner, uint64_t seed)
      : inner_(inner), rng_(seed) {}

  /// Schedules `kind` for the nth (0-based) invocation of `op` on this
  /// transport. Unscheduled invocations pass through honestly.
  void InjectFault(RpcOp op, uint64_t nth, FaultKind kind) {
    schedule_[{static_cast<uint8_t>(op), nth}] = kind;
  }

  /// kDelay faults advance this clock past the deadline, modeling the
  /// adversary stalling the exchange (feeds the timestamp-attack window
  /// tests). Optional; without it kDelay only discards the response.
  void SetDelayClock(SimulatedClock* clock, Timestamp advance) {
    delay_clock_ = clock;
    delay_advance_ = advance;
  }

  /// Switches GetCommitment/GetDelta to the forked view: deltas at or
  /// after `fork_jsn` are mutated, and commitments are rebuilt from the
  /// forked mirror and signed with `forger`. Pass the real LSP key to
  /// model a malicious LSP (fork passes single-client audit); pass any
  /// other key to model a MITM (caught by the signature check).
  /// `fractal_height`/`mpt_cache_depth` must match the ledger's options.
  void EnableEquivocation(uint64_t fork_jsn, KeyPair forger,
                          int fractal_height, int mpt_cache_depth) {
    fork_jsn_ = fork_jsn;
    forger_ = std::make_unique<KeyPair>(std::move(forger));
    fork_mirror_ =
        std::make_unique<LedgerMirror>(fractal_height, mpt_cache_depth);
  }

  uint64_t ops() const { return ops_; }
  uint64_t faults_injected() const { return faults_injected_; }

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

  const std::string& uri() const override { return inner_->uri(); }

 private:
  static constexpr size_t Idx(RpcOp op) { return static_cast<size_t>(op); }

  /// Consumes the fault scheduled for this invocation (if any) and bumps
  /// the per-op occurrence counter.
  FaultKind TakeFault(RpcOp op);

  /// Flips one seeded bit somewhere in `raw`.
  void MutateBytes(Bytes* raw);

  /// Mutates a delta the forked view lies about.
  void ForkDelta(uint64_t global_jsn, JournalDelta* delta) const {
    if (global_jsn >= fork_jsn_) delta->tx_hash.bytes[0] ^= 0x80;
  }

  /// Generic network-plane fault handling for any response type, on the
  /// bytes of its RPC body codec (wire::Codec). Typed response mutations
  /// (truncate, substitute, corrupt, stale) are handled by the per-op
  /// overrides before calling this.
  template <typename T, typename CallFn>
  Status HandleWire(RpcOp op, FaultKind fault, T* out, CallFn call) {
    Bytes& stash = stash_[Idx(op)];
    if (!stash.empty() && fault == FaultKind::kNone) {
      // Reorder delivery: the stalled earlier response preempts this
      // exchange. Harmless when the retry repeats the same request;
      // a mismatched response is caught by the client's binding checks.
      Bytes raw = std::move(stash);
      stash.clear();
      if (!wire::Codec<T>::Decode(raw, out)) {
        return Status::Corruption("reordered response undecodable");
      }
      return Status::OK();
    }
    switch (fault) {
      case FaultKind::kNone:
        return call(out);
      case FaultKind::kDrop:
        return Status::DeadlineExceeded("injected: request dropped");
      case FaultKind::kTransientError:
        return Status::TransientIO("injected: transient network error");
      case FaultKind::kDelay: {
        T discarded;
        (void)call(&discarded);  // the server DID execute
        if (delay_clock_ != nullptr) delay_clock_->Advance(delay_advance_);
        return Status::DeadlineExceeded("injected: response past deadline");
      }
      case FaultKind::kDuplicate: {
        T first;
        (void)call(&first);  // delivered twice; idempotency must mask it
        return call(out);
      }
      case FaultKind::kReorder: {
        T resp;
        Status st = call(&resp);
        if (st.ok()) stash_[Idx(op)] = wire::Codec<T>::Encode(resp);
        return Status::DeadlineExceeded("injected: response reordered");
      }
      case FaultKind::kForgeProof: {
        LEDGERDB_RETURN_IF_ERROR(call(out));
        Bytes raw = wire::Codec<T>::Encode(*out);
        MutateBytes(&raw);
        if (!wire::Codec<T>::Decode(raw, out)) {
          return Status::Corruption("forged response undecodable");
        }
        return Status::OK();
      }
      default:
        // A typed fault not applicable to this op degrades to honest
        // passthrough — the matrix treats those cells as not-applicable.
        return call(out);
    }
  }

  LedgerTransport* inner_;
  Random rng_;
  std::map<std::pair<uint8_t, uint64_t>, FaultKind> schedule_;
  std::array<uint64_t, kNumRpcOps> op_counts_ = {};
  std::array<Bytes, kNumRpcOps> stash_;
  uint64_t ops_ = 0;
  uint64_t faults_injected_ = 0;

  SimulatedClock* delay_clock_ = nullptr;
  Timestamp delay_advance_ = 0;

  uint64_t fork_jsn_ = 0;
  std::unique_ptr<KeyPair> forger_;
  std::unique_ptr<LedgerMirror> fork_mirror_;

  std::vector<SignedCommitment> commitment_cache_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_NET_BYZANTINE_TRANSPORT_H_
