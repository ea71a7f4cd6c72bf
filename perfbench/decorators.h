// Outside-in instrumentation for the served-ledger benchmark: a clock the
// benchmark drives, and decorators for the program's public seams (Env/File,
// StreamStore, LedgerTransport) that time or count the calls crossing them,
// so the per-layer figures need no instrumentation inside src/.

#ifndef LEDGERDB_PERFBENCH_DECORATORS_H_
#define LEDGERDB_PERFBENCH_DECORATORS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/transport.h"
#include "storage/env.h"
#include "storage/stream_store.h"

namespace perfbench {

using namespace ledgerdb;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Server clock the benchmark advances itself: one millisecond per
/// acknowledged append, so journal timestamps are a deterministic function
/// of the op sequence and time windows map onto journal counts. Atomic,
/// because server workers read it while client threads advance it.
class BenchClock : public Clock {
 public:
  explicit BenchClock(Timestamp start) : now_(start) {}
  Timestamp Now() override { return now_.load(std::memory_order_acquire); }
  void Advance(Timestamp delta) {
    now_.fetch_add(delta, std::memory_order_acq_rel);
  }

 private:
  std::atomic<Timestamp> now_;
};

/// Counters shared by every file a BenchEnv opens.
struct StorageCounters {
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> sync_ns{0};
  std::atomic<uint64_t> write_bytes{0};

  void Reset() {
    syncs = 0;
    sync_ns = 0;
    write_bytes = 0;
  }
};

/// File decorator over the production stdio file. Reads, writes, truncates
/// and sizes pass straight through. Sync() is counted and timed, and moves
/// the file's buffered bytes into the kernel page cache without the device
/// flush: the state tmpfs reaches after fsync(2). The benchmark measures
/// the program, not a virtual disk's flush queue; the fsync count it would
/// have paid is reported as storage.fsyncs_per_append.
class BenchFile : public File {
 public:
  BenchFile(std::unique_ptr<File> base, StorageCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  Status Read(uint64_t offset, size_t n, Bytes* out) const override {
    return base_->Read(offset, n, out);
  }
  Status Write(uint64_t offset, Slice data) override {
    counters_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Write(offset, data);
  }
  Status Sync() override {
    const uint64_t t0 = NowNs();
    uint64_t size = 0;
    Status st = base_->Size(&size);  // flushes libc buffers, no fsync
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    counters_->sync_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    return st;
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Size(uint64_t* out) const override { return base_->Size(out); }

 private:
  std::unique_ptr<File> base_;
  StorageCounters* counters_;
};

/// Env decorator over Env::Default() handing out BenchFiles.
class BenchEnv : public Env {
 public:
  Status OpenFile(const std::string& path,
                  std::unique_ptr<File>* out) override {
    std::unique_ptr<File> base;
    Status st = Env::Default()->OpenFile(path, &base);
    if (!st.ok()) return st;
    *out = std::make_unique<BenchFile>(std::move(base), &counters_);
    return Status::OK();
  }
  bool FileExists(const std::string& path) const override {
    return Env::Default()->FileExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return Env::Default()->DeleteFile(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return Env::Default()->Rename(from, to);
  }

  StorageCounters& counters() { return counters_; }

 private:
  StorageCounters counters_;
};

/// StreamStore decorator (traced runs only): counts write calls and the
/// records they carry, so records per call is the group-commit size.
class CountingStreamStore : public StreamStore {
 public:
  explicit CountingStreamStore(StreamStore* base) : base_(base) {}

  Status Append(Slice record, uint64_t* index) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    records_.fetch_add(1, std::memory_order_relaxed);
    return base_->Append(record, index);
  }
  Status AppendBatch(const std::vector<Slice>& records,
                     uint64_t* first_index) override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    records_.fetch_add(records.size(), std::memory_order_relaxed);
    return base_->AppendBatch(records, first_index);
  }
  Status Read(uint64_t index, Bytes* out) const override {
    return base_->Read(index, out);
  }
  Status Overwrite(uint64_t index, Slice record) override {
    return base_->Overwrite(index, record);
  }
  uint64_t Count() const override { return base_->Count(); }
  Status RecordCrc(uint64_t index, uint32_t* crc) const override {
    return base_->RecordCrc(index, crc);
  }
  Status Fsck() const override { return base_->Fsck(); }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t records() const { return records_.load(std::memory_order_relaxed); }
  void Reset() {
    calls_ = 0;
    records_ = 0;
  }

 private:
  StreamStore* base_;
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> records_{0};
};

/// LedgerTransport decorator (traced runs only, one per client thread):
/// records every RPC's round-trip time by op, and keeps a running total so
/// a client op's own time is its duration minus the transport time spent
/// inside it.
class TimedTransport : public LedgerTransport {
 public:
  explicit TimedTransport(LedgerTransport* base)
      : base_(base), rpc_us_(kNumRpcOps) {}

  Status AppendTx(const ClientTransaction& tx, uint64_t* jsn) override {
    return Timed(RpcOp::kAppendTx, [&] { return base_->AppendTx(tx, jsn); });
  }
  Status GetReceipt(uint64_t jsn, Receipt* out) override {
    return Timed(RpcOp::kGetReceipt,
                 [&] { return base_->GetReceipt(jsn, out); });
  }
  Status GetJournal(uint64_t jsn, Journal* out) override {
    return Timed(RpcOp::kGetJournal,
                 [&] { return base_->GetJournal(jsn, out); });
  }
  Status GetProof(uint64_t jsn, FamProof* out) override {
    return Timed(RpcOp::kGetProof, [&] { return base_->GetProof(jsn, out); });
  }
  Status GetClueProof(const std::string& clue, uint64_t begin, uint64_t end,
                      ClueProof* out) override {
    return Timed(RpcOp::kGetClueProof,
                 [&] { return base_->GetClueProof(clue, begin, end, out); });
  }
  Status ListTx(const std::string& clue,
                std::vector<uint64_t>* jsns) override {
    return Timed(RpcOp::kListTx, [&] { return base_->ListTx(clue, jsns); });
  }
  Status GetCommitment(SignedCommitment* out) override {
    return Timed(RpcOp::kGetCommitment,
                 [&] { return base_->GetCommitment(out); });
  }
  Status GetDelta(uint64_t from, uint64_t to,
                  std::vector<JournalDelta>* out) override {
    return Timed(RpcOp::kGetDelta,
                 [&] { return base_->GetDelta(from, to, out); });
  }
  Status GetProofBatch(const std::vector<uint64_t>& jsns,
                       FamBatchProof* out) override {
    return Timed(RpcOp::kGetProofBatch,
                 [&] { return base_->GetProofBatch(jsns, out); });
  }
  Status ProveClueRange(const std::string& clue, Timestamp from, Timestamp to,
                        ClueRangeResult* out) override {
    return Timed(RpcOp::kProveClueRange,
                 [&] { return base_->ProveClueRange(clue, from, to, out); });
  }
  const std::string& uri() const override { return base_->uri(); }

  /// Per-op round-trip samples in microseconds, indexed by RpcOp.
  const std::vector<std::vector<double>>& rpc_us() const { return rpc_us_; }
  uint64_t total_ns() const { return total_ns_; }
  uint64_t calls() const { return calls_; }
  void Clear() {
    for (auto& v : rpc_us_) v.clear();
  }

 private:
  template <typename Fn>
  Status Timed(RpcOp op, Fn&& fn) {
    const uint64_t t0 = NowNs();
    Status st = fn();
    const uint64_t dt = NowNs() - t0;
    total_ns_ += dt;
    ++calls_;
    rpc_us_[static_cast<size_t>(op)].push_back(static_cast<double>(dt) / 1e3);
    return st;
  }

  LedgerTransport* base_;
  std::vector<std::vector<double>> rpc_us_;
  uint64_t total_ns_ = 0;
  uint64_t calls_ = 0;
};

}  // namespace perfbench

#endif  // LEDGERDB_PERFBENCH_DECORATORS_H_
