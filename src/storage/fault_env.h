#ifndef LEDGERDB_STORAGE_FAULT_ENV_H_
#define LEDGERDB_STORAGE_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "storage/env.h"

namespace ledgerdb {

/// What to inject at a scheduled fault point. Every kind except
/// kTransientError ends in a simulated power cut: unsynced writes are
/// rolled back and all further operations fail.
enum class StorageFaultKind : uint8_t {
  /// Plain power cut: buffered (unsynced) writes are lost.
  kCrash = 0,
  /// The write at this point persists only a random prefix, then power cut.
  /// Models a torn sector/page write.
  kTornWrite,
  /// The sync at this point is acknowledged as OK but persists nothing;
  /// the power cut follows immediately. Models a lying disk cache.
  kDroppedSync,
  /// One random already-durable bit of the target file flips, then power
  /// cut. Models latent media corruption discovered after restart.
  kBitFlip,
  /// The target file is truncated to a random shorter length, then power
  /// cut. Models a lost file extent.
  kTruncate,
  /// The operation fails once with Status::TransientIO and no crash; the
  /// retry layer is expected to absorb it.
  kTransientError,
};

inline constexpr int kStorageFaultKindCount = 6;

/// Stable lower-case name of a fault kind: the `kind` label of the
/// injected-faults counter.
const char* StorageFaultName(StorageFaultKind kind);

/// Deterministic fault-injection environment. Wraps a base Env and counts
/// every mutating file operation (Write / Sync / Truncate) as a numbered
/// fault point. A fault scheduled at point N fires when the N-th mutating
/// op is issued. The crash model is write-through with an undo log: writes
/// land in the base env immediately but record undo information; Sync()
/// discards the undo records (the bytes are now durable); a simulated
/// crash rolls back every unsynced write, leaving exactly the bytes a real
/// power cut would leave. After a crash every operation fails with
/// IOError until the env is discarded; reopen the surviving image through
/// the base env to run recovery.
///
/// All randomness (torn-prefix length, flipped bit, truncation point)
/// comes from the seeded Random, so a given (seed, schedule) pair replays
/// bit-identically.
class FaultEnv : public Env {
 public:
  FaultEnv(Env* base, uint64_t seed);
  ~FaultEnv() override;

  /// Schedules `kind` to fire at mutating-op number `op` (0-based).
  void ScheduleFault(uint64_t op, StorageFaultKind kind);

  /// Number of mutating ops issued so far. Run a workload once with no
  /// schedule to learn how many fault points it exposes.
  uint64_t ops() const;

  bool crashed() const;

  /// Number of faults that have actually fired.
  int faults_injected() const;

  Status OpenFile(const std::string& path,
                  std::unique_ptr<File>* out) override;
  bool FileExists(const std::string& path) const override;
  Status DeleteFile(const std::string& path) override;

  /// Rename is a counted fault point like Write/Sync/Truncate. A crash
  /// scheduled here strikes *before* the rename takes effect (rename(2) is
  /// atomic, so the only crash outcomes are old-name or new-name — the
  /// undo model keeps the old name and rolls back the source's unsynced
  /// writes). A successful rename is treated as immediately durable, the
  /// common journaling-filesystem behaviour checkpoint publication
  /// assumes.
  Status Rename(const std::string& from, const std::string& to) override;

 private:
  friend class FaultFile;

  /// One unsynced write's undo record: the bytes (and file length) to
  /// restore if a crash strikes before the next Sync.
  struct PendingWrite {
    uint64_t offset;
    Bytes overwritten;  // previous contents of [offset, offset+overlap)
    uint64_t old_size;  // file size before the write
  };

  struct FileState {
    std::unique_ptr<File> base;
    std::vector<PendingWrite> unsynced;
  };

  // Op-counted entry points called by FaultFile. `mu_` is held throughout,
  // making fault-point numbering deterministic even under concurrency.
  Status DoRead(FileState* st, uint64_t offset, size_t n, Bytes* out);
  Status DoWrite(FileState* st, uint64_t offset, Slice data);
  Status DoSync(FileState* st);
  Status DoTruncate(FileState* st, uint64_t size);
  Status DoSize(FileState* st, uint64_t* out);

  /// Looks up (and consumes) a fault scheduled for the current op, then
  /// advances the counter. Caller holds mu_.
  bool NextFault(StorageFaultKind* kind);

  /// Rolls back all unsynced writes across every file and marks the env
  /// crashed. Caller holds mu_.
  void CrashLocked();

  mutable std::mutex mu_;
  Env* base_;
  Random rng_;
  std::map<uint64_t, StorageFaultKind> plan_;
  uint64_t op_counter_ = 0;
  bool crashed_ = false;
  int injected_ = 0;
  // Keyed by path so undo state survives handle close/reopen and crash
  // rollback can reach every file ever opened through this env.
  std::unordered_map<std::string, std::shared_ptr<FileState>> files_;
};

}  // namespace ledgerdb

#endif  // LEDGERDB_STORAGE_FAULT_ENV_H_
