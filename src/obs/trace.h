#ifndef LEDGERDB_OBS_TRACE_H_
#define LEDGERDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ledgerdb::obs {

/// A named pipeline stage. `metric` is the always-on microsecond histogram
/// every span of this stage feeds; the ring-buffer record is the sampled
/// detailed layer on top.
struct Stage {
  const char* name;
  const char* metric;
};

/// Span stage taxonomy: an append decomposes into prevalidate → sig_batch
/// → commit → seal (plus proof_build on the read side); a Dasein audit
/// into its what / when / who phases. docs/observability.md documents the
/// mapping to metric names.
namespace stages {
inline constexpr Stage kPrevalidate{"prevalidate", names::kLedgerPrevalidateUs};
inline constexpr Stage kSigBatch{"sig_batch", names::kCryptoBatchVerifyUs};
inline constexpr Stage kCommit{"commit", names::kLedgerCommitUs};
inline constexpr Stage kSeal{"seal", names::kLedgerSealUs};
inline constexpr Stage kProofBuild{"proof_build", names::kLedgerProofBuildUs};
inline constexpr Stage kAuditWhat{"audit_what", names::kAuditWhatUs};
inline constexpr Stage kAuditWhen{"audit_when", names::kAuditWhenUs};
inline constexpr Stage kAuditWho{"audit_who", names::kAuditWhoUs};
// Cross-process request stages: a traced RPC decomposes into the
// client's end-to-end rpc span and the server-side queue-wait, lock-wait,
// execute, and outbox-flush spans, all stitched by a shared trace_id
// carried in the wire request frame (net/wire.h). Lock wait covers the
// wait for the ledger lock and a receipt's wait for coalesced appends.
inline constexpr Stage kClientRpc{"client_rpc", names::kNetRpcUs};
inline constexpr Stage kServerQueue{"server_queue", names::kServerQueueWaitUs};
inline constexpr Stage kServerLockWait{"server_lock_wait",
                                       names::kServerLockWaitUs};
inline constexpr Stage kServerExecute{"server_execute",
                                      names::kServerExecuteUs};
inline constexpr Stage kServerFlush{"server_flush", names::kServerFlushUs};
}  // namespace stages

/// One detailed span record captured in a thread's ring.
struct SpanRecord {
  const char* stage = nullptr;  ///< Stage::name (static storage)
  uint64_t start_us = 0;        ///< obs::NowUs() at span entry
  uint64_t dur_us = 0;
  uint32_t thread = 0;      ///< stable per-ring id
  uint64_t trace_id = 0;    ///< 0 = not part of a cross-process trace
  uint64_t parent_span = 0; ///< parent span id within the trace (0 = root)
};

/// Lightweight stage tracer. Every ObsSpan observes its stage histogram
/// (always-on, cheap); one span in every `sample_every` additionally
/// pushes a detailed SpanRecord into a per-thread ring buffer whose
/// snapshot `ledgerdb_cli stats` and tests can inspect. Rings are owned by
/// the tracer and survive thread exit (a finished thread's last records
/// stay visible; its ring is recycled for the next new thread).
class SpanTracer {
 public:
  static constexpr size_t kRingCapacity = 1024;

  SpanTracer();
  ~SpanTracer();

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  static SpanTracer& Default();

  /// 1 records every span, N records every Nth (per thread), 0 disables
  /// the detailed ring entirely (histograms stay on). Default: 16.
  void SetSampleEvery(uint32_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Called by ObsSpan: decides sampling and pushes into this thread's
  /// ring.
  void Record(const char* stage, uint64_t start_us, uint64_t dur_us);

  /// Records a span already selected for tracing (the client samples once
  /// per trace; every propagated stage of that trace must land, so this
  /// bypasses the per-thread sampling countdown). Direct API, not a macro:
  /// it stays live under LEDGERDB_OBS_OFF so cross-process traces remain
  /// testable in the instrumentation-free build.
  void RecordTraced(const char* stage, uint64_t trace_id, uint64_t parent_span,
                    uint64_t start_us, uint64_t dur_us);

  /// Most-recent records across all rings, oldest first.
  std::vector<SpanRecord> Snapshot() const;

  void Clear();

 private:
  struct Ring;
  struct State;
  struct ThreadSlot;

  Ring* RingForThisThread();

  std::atomic<uint32_t> sample_every_{16};

  // Rings live behind a shared State so a thread-exit destructor (or a
  // thread whose cached slot points at an already-destroyed tracer) can
  // tell a live tracer from a dead one via weak_ptr instead of comparing
  // raw addresses, which stack reuse can make collide.
  std::shared_ptr<State> state_;
};

/// One completed (or shed) request as the server saw it. `op` is a static
/// string (RpcOpName); status is the wire Status::Code byte — obs must not
/// depend on common/status.h for the full enum.
struct RequestRecord {
  const char* op = nullptr;
  uint64_t trace_id = 0;
  uint64_t start_us = 0;  ///< obs::NowUs() at admission (or shed decision)
  uint64_t queue_us = 0;  ///< admission -> worker pickup
  /// Waiting for the ledger lock, and a receipt's wait for coalesced
  /// appends (net/rpc.h LedgerGate).
  uint64_t lock_wait_us = 0;
  uint64_t exec_us = 0;   ///< the request's own stages, waits excluded
  uint8_t status = 0;     ///< Status::Code as u8
  bool shed = false;
  bool deadline_expired = false;
  /// queue_us + lock_wait_us + exec_us >= the log's slow threshold
  bool slow = false;
};

/// Bounded ring of per-request structured events, fed by LedgerServer and
/// surfaced through `ledgerdb_cli stats --slow`. Like SpanTracer, a direct
/// API (one mutex push per completed request, far off the byte-shoveling
/// hot path) that stays live under LEDGERDB_OBS_OFF.
class RequestLog {
 public:
  static constexpr size_t kCapacity = 1024;

  RequestLog() = default;
  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;

  static RequestLog& Default();

  /// Requests with queue_us + lock_wait_us + exec_us at or above this are
  /// flagged slow.
  /// 0 disables the flag. Default: 100 ms.
  void SetSlowThresholdUs(uint64_t us);
  uint64_t slow_threshold_us() const;

  /// Stamps `rec.slow` from the threshold and pushes into the ring.
  void Record(RequestRecord rec);

  /// Most-recent records, oldest first.
  std::vector<RequestRecord> Snapshot() const;
  /// Only the records flagged slow.
  std::vector<RequestRecord> SlowSnapshot() const;

  /// Total records ever pushed (ring overwrites do not decrement).
  uint64_t TotalRecorded() const;

  void Clear();

 private:
  mutable std::mutex mu_;
  uint64_t next_ = 0;  ///< total pushed; next_ % kCapacity is the slot
  uint64_t slow_threshold_us_ = 100'000;
  RequestRecord slots_[kCapacity];
};

/// JSON array exporters shared by `ledgerdb_cli stats --spans/--slow` and
/// anything else that wants the ring contents machine-readable.
std::string SpanRecordsToJson(const std::vector<SpanRecord>& records);
std::string RequestRecordsToJson(const std::vector<RequestRecord>& records);

/// RAII stage scope. Construction stamps the clock; destruction feeds the
/// stage histogram and (sampled) the detailed ring. Use through the
/// LEDGERDB_OBS_SPAN macro, which caches the histogram lookup in a
/// function-local static and compiles the site away under
/// LEDGERDB_OBS_OFF.
class ObsSpan {
 public:
  ObsSpan(const Stage& stage, Histogram* hist)
      : active_(Enabled()), stage_(stage.name), hist_(hist) {
    if (active_) start_us_ = NowUs();
  }

  ~ObsSpan() {
    if (!active_) return;
    uint64_t dur = NowUs() - start_us_;
    hist_->Observe(dur);
    SpanTracer::Default().Record(stage_, start_us_, dur);
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  bool active_;
  const char* stage_;
  Histogram* hist_;
  uint64_t start_us_ = 0;
};

}  // namespace ledgerdb::obs

#if defined(LEDGERDB_OBS_OFF)
#define LEDGERDB_OBS_SPAN(var, stage) \
  int var##_obs_off_unused [[maybe_unused]] = 0
#else
#define LEDGERDB_OBS_SPAN(var, stage)                                 \
  static ::ledgerdb::obs::Histogram* var##_hist =                     \
      ::ledgerdb::obs::MetricsRegistry::Default().GetHistogram(       \
          (stage).metric);                                            \
  ::ledgerdb::obs::ObsSpan var((stage), var##_hist)
#endif

#endif  // LEDGERDB_OBS_TRACE_H_
