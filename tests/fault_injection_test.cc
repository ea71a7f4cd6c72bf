#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/dasein_auditor.h"
#include "ledger/ledger.h"
#include "ledger/sharded.h"
#include "storage/fault_env.h"
#include "storage/stream_store.h"

namespace ledgerdb {
namespace {

constexpr char kUri[] = "lg://fault";
constexpr char kJournalPath[] = "journals.log";
constexpr char kBlockPath[] = "blocks.log";

// ---------------------------------------------------------------------------
// FaultEnv unit tests
// ---------------------------------------------------------------------------

Bytes FileContents(Env* env, const std::string& path) {
  std::unique_ptr<File> f;
  EXPECT_TRUE(env->OpenFile(path, &f).ok());
  uint64_t size = 0;
  EXPECT_TRUE(f->Size(&size).ok());
  Bytes out;
  if (size > 0) {
    EXPECT_TRUE(f->Read(0, size, &out).ok());
  }
  return out;
}

TEST(FaultEnvTest, CrashRollsBackUnsyncedWrites) {
  MemEnv base;
  FaultEnv env(&base, 1);
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("f", &f).ok());
  ASSERT_TRUE(f->Write(0, Slice(std::string_view("durable"))).ok());  // op 0
  ASSERT_TRUE(f->Sync().ok());                                        // op 1
  ASSERT_TRUE(f->Write(7, Slice(std::string_view("-volatile"))).ok());  // op 2
  ASSERT_TRUE(f->Write(0, Slice(std::string_view("DUR"))).ok());        // op 3
  env.ScheduleFault(4, StorageFaultKind::kCrash);
  EXPECT_TRUE(f->Sync().IsIOError());  // op 4: power cut instead of sync
  EXPECT_TRUE(env.crashed());
  EXPECT_EQ(env.faults_injected(), 1);
  // Every op after the crash fails...
  Bytes tmp;
  EXPECT_TRUE(f->Read(0, 1, &tmp).IsIOError());
  EXPECT_TRUE(f->Write(0, Slice(std::string_view("x"))).IsIOError());
  // ...and the base image is exactly the last synced state: the extension
  // is gone and the overwritten prefix is restored.
  EXPECT_EQ(FileContents(&base, "f"), StringToBytes("durable"));
}

TEST(FaultEnvTest, TornWritePersistsStrictPrefix) {
  MemEnv base;
  FaultEnv env(&base, 42);
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("f", &f).ok());
  ASSERT_TRUE(f->Write(0, Slice(std::string_view("base-"))).ok());  // op 0
  ASSERT_TRUE(f->Sync().ok());                                      // op 1
  env.ScheduleFault(2, StorageFaultKind::kTornWrite);
  EXPECT_TRUE(f->Write(5, Slice(std::string_view("torn-payload"))).IsIOError());
  EXPECT_TRUE(env.crashed());
  Bytes img = FileContents(&base, "f");
  // The synced prefix survives; the torn write persisted a strict prefix
  // of its 12 bytes (possibly zero).
  ASSERT_GE(img.size(), 5u);
  ASSERT_LT(img.size(), 5u + 12u);
  EXPECT_EQ(Bytes(img.begin(), img.begin() + 5), StringToBytes("base-"));
  std::string torn = "torn-payload";
  for (size_t i = 5; i < img.size(); ++i) {
    EXPECT_EQ(img[i], static_cast<uint8_t>(torn[i - 5]));
  }
}

TEST(FaultEnvTest, DroppedSyncAcknowledgesButPersistsNothing) {
  MemEnv base;
  FaultEnv env(&base, 7);
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("f", &f).ok());
  ASSERT_TRUE(f->Write(0, Slice(std::string_view("acked"))).ok());  // op 0
  env.ScheduleFault(1, StorageFaultKind::kDroppedSync);
  EXPECT_TRUE(f->Sync().ok());  // the lie: OK but nothing persisted
  EXPECT_TRUE(env.crashed());
  EXPECT_TRUE(FileContents(&base, "f").empty());
}

TEST(FaultEnvTest, TransientErrorFailsOnceThenSucceeds) {
  MemEnv base;
  FaultEnv env(&base, 3);
  std::unique_ptr<File> f;
  ASSERT_TRUE(env.OpenFile("f", &f).ok());
  env.ScheduleFault(0, StorageFaultKind::kTransientError);
  Status s = f->Write(0, Slice(std::string_view("retry-me")));
  EXPECT_TRUE(s.IsTransientIO());
  EXPECT_TRUE(s.IsRetriable());
  EXPECT_FALSE(env.crashed());
  // The exact same write goes through on retry.
  ASSERT_TRUE(f->Write(0, Slice(std::string_view("retry-me"))).ok());
  ASSERT_TRUE(f->Sync().ok());
  EXPECT_EQ(FileContents(&base, "f"), StringToBytes("retry-me"));
}

TEST(FaultEnvTest, OpCountingIsDeterministic) {
  auto run = [](uint64_t seed) {
    MemEnv base;
    FaultEnv env(&base, seed);
    std::unique_ptr<FileStreamStore> fs;
    EXPECT_TRUE(FileStreamStore::Open(&env, "s.log", &fs).ok());
    uint64_t idx;
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(
          fs->Append(Slice(std::string_view("record")), &idx).ok());
    }
    return env.ops();
  };
  uint64_t a = run(1);
  uint64_t b = run(999);  // seed feeds fault randomness only, not counting
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 10u);
}

// ---------------------------------------------------------------------------
// Crash-point matrix
// ---------------------------------------------------------------------------

struct Snapshot {
  Digest fam, clue, state;
};

class FaultMatrixTest : public ::testing::Test {
 protected:
  FaultMatrixTest()
      : ca_(KeyPair::FromSeedString("fi-ca")),
        lsp_(KeyPair::FromSeedString("fi-lsp")),
        alice_(KeyPair::FromSeedString("fi-alice")),
        dba_(KeyPair::FromSeedString("fi-dba")),
        regulator_(KeyPair::FromSeedString("fi-reg")),
        tsa_key_(KeyPair::FromSeedString("fi-tsa")),
        registry_(&ca_) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("dba", dba_.public_key(), Role::kDba));
    registry_.Register(
        ca_.Certify("reg", regulator_.public_key(), Role::kRegulator));
    options_.fractal_height = 3;
    options_.block_capacity = 4;
    // Deterministic op sequence: erase occult payloads inside the occult
    // operation instead of leaving it to a later reorganize pass.
    options_.sync_occult_erasure = true;
  }

  /// The canonical workload: signed appends across three clue lineages,
  /// a time anchor, an occult, a purge, trailing appends and a seal. Runs
  /// identically (RFC 6979 signatures + simulated clock) on every env and
  /// stops at the first failed operation.
  Status RunWorkload(Env* env, std::map<uint64_t, Snapshot>* trajectory) {
    SimulatedClock clock(1000 * kMicrosPerSecond);
    TsaService tsa(tsa_key_, &clock);
    std::unique_ptr<FileStreamStore> jf, bf;
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kJournalPath, &jf));
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kBlockPath, &bf));
    Ledger ledger(kUri, options_, &clock, lsp_, &registry_,
                  {jf.get(), bf.get()});
    LEDGERDB_RETURN_IF_ERROR(ledger.init_status());
    ledger.AttachDirectTsa(&tsa);
    uint64_t nonce = 0;
    auto append = [&](const std::string& payload, const std::string& clue) {
      ClientTransaction tx;
      tx.ledger_uri = kUri;
      tx.clues = {clue};
      tx.payload = StringToBytes(payload);
      tx.nonce = nonce++;
      tx.client_ts = clock.Now();
      tx.Sign(alice_);
      uint64_t jsn = 0;
      Status s = ledger.Append(tx, &jsn);
      clock.Advance(kMicrosPerSecond);
      return s;
    };
    auto snap = [&] {
      if (trajectory != nullptr) {
        (*trajectory)[ledger.NumJournals()] =
            Snapshot{ledger.FamRoot(), ledger.ClueRoot(), ledger.StateRoot()};
      }
    };
    snap();
    for (int i = 0; i < 10; ++i) {
      LEDGERDB_RETURN_IF_ERROR(
          append("pay-" + std::to_string(i), "acct-" + std::to_string(i % 3)));
      snap();
    }
    LEDGERDB_RETURN_IF_ERROR(ledger.AnchorTime(nullptr));
    snap();
    Digest oreq = Ledger::OccultRequestHash(kUri, 2);
    std::vector<Endorsement> osigs = {
        {dba_.public_key(), dba_.Sign(oreq)},
        {regulator_.public_key(), regulator_.Sign(oreq)}};
    LEDGERDB_RETURN_IF_ERROR(ledger.Occult(2, osigs, nullptr));
    snap();
    Digest preq = Ledger::PurgeRequestHash(kUri, 4);
    std::vector<Endorsement> psigs = {{dba_.public_key(), dba_.Sign(preq)},
                                      {alice_.public_key(), alice_.Sign(preq)}};
    LEDGERDB_RETURN_IF_ERROR(ledger.Purge(4, psigs, {}, nullptr));
    snap();
    LEDGERDB_RETURN_IF_ERROR(append("post-purge-0", "acct-0"));
    snap();
    LEDGERDB_RETURN_IF_ERROR(append("post-purge-1", "acct-1"));
    snap();
    LEDGERDB_RETURN_IF_ERROR(ledger.SealBlock());
    snap();
    return Status::OK();
  }

  /// Recovered state must both replay consistently and pass the external
  /// Dasein audit — "verifiable even after a crash".
  void ExpectAuditPasses(Ledger* ledger) {
    DaseinAuditor::Context context;
    context.ledger = ledger;
    context.members = &registry_;
    context.tsa_key = tsa_key_.public_key();
    Receipt receipt;
    ASSERT_TRUE(ledger->GetReceipt(ledger->NumJournals() - 1, &receipt).ok());
    AuditReport report;
    Status s = DaseinAuditor(context).Audit(receipt, {}, &report);
    EXPECT_TRUE(s.ok()) << s.ToString() << " — " << report.failure_reason;
    EXPECT_TRUE(report.passed) << report.failure_reason;
  }

  CertificateAuthority ca_;
  KeyPair lsp_, alice_, dba_, regulator_, tsa_key_;
  MemberRegistry registry_;
  LedgerOptions options_;
};

TEST_F(FaultMatrixTest, CrashAtEveryFaultPoint) {
  // Reference trajectory: roots after every workload step, keyed by
  // journal count, plus the fault-free op count.
  MemEnv ref_env;
  std::map<uint64_t, Snapshot> trajectory;
  {
    Status ref = RunWorkload(&ref_env, &trajectory);
    ASSERT_TRUE(ref.ok()) << ref.ToString();
  }
  uint64_t total_ops = 0;
  {
    MemEnv dry_base;
    FaultEnv dry(&dry_base, 7);
    Status s = RunWorkload(&dry, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    total_ops = dry.ops();
  }
  ASSERT_GT(total_ops, 40u);
  const Snapshot& final_snapshot = trajectory.rbegin()->second;

  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("fault point " + std::to_string(k));
    StorageFaultKind kind =
        static_cast<StorageFaultKind>(k % kStorageFaultKindCount);
    MemEnv base;
    FaultEnv env(&base, 1234 + k);
    env.ScheduleFault(k, kind);
    Status run = RunWorkload(&env, nullptr);
    ASSERT_EQ(env.faults_injected(), 1);

    if (kind == StorageFaultKind::kTransientError) {
      // The retry layer must absorb a one-shot transient error: the run
      // completes and ends bit-identical to the reference.
      ASSERT_TRUE(run.ok()) << run.ToString();
      EXPECT_FALSE(env.crashed());
      std::unique_ptr<FileStreamStore> jf, bf;
      ASSERT_TRUE(FileStreamStore::Open(&base, kJournalPath, &jf).ok());
      ASSERT_TRUE(FileStreamStore::Open(&base, kBlockPath, &bf).ok());
      SimulatedClock clock(1000 * kMicrosPerSecond);
      std::unique_ptr<Ledger> recovered;
      Status rs = Ledger::Recover(kUri, options_, &clock, lsp_, &registry_,
                                  {jf.get(), bf.get()}, &recovered);
      ASSERT_TRUE(rs.ok()) << rs.ToString();
      EXPECT_EQ(recovered->FamRoot(), final_snapshot.fam);
      EXPECT_EQ(recovered->ClueRoot(), final_snapshot.clue);
      continue;
    }

    // Power-cut kinds. The run fails at (or after) the fault — except a
    // dropped sync on the workload's final op, whose lying ack lets the
    // run "finish".
    EXPECT_TRUE(env.crashed());
    if (run.ok()) {
      EXPECT_EQ(kind, StorageFaultKind::kDroppedSync);
    }

    // Reopen the surviving image through the base env. Either the stores
    // refuse with explicit corruption (acknowledged bytes were damaged —
    // bit flips / truncation below the watermark) or recovery must
    // produce a state bit-identical to the reference trajectory.
    std::unique_ptr<FileStreamStore> jf, bf;
    Status jopen = FileStreamStore::Open(&base, kJournalPath, &jf);
    if (!jopen.ok()) {
      EXPECT_TRUE(jopen.IsCorruption()) << jopen.ToString();
      continue;
    }
    Status bopen = FileStreamStore::Open(&base, kBlockPath, &bf);
    if (!bopen.ok()) {
      EXPECT_TRUE(bopen.IsCorruption()) << bopen.ToString();
      continue;
    }
    SimulatedClock clock(1000 * kMicrosPerSecond);
    std::unique_ptr<Ledger> recovered;
    Status rs = Ledger::Recover(kUri, options_, &clock, lsp_, &registry_,
                                {jf.get(), bf.get()}, &recovered);
    if (!rs.ok()) {
      // No silent data loss: refusal must be an explicit corruption
      // verdict, never a crash or a half-recovered ledger.
      EXPECT_TRUE(rs.IsCorruption()) << rs.ToString();
      continue;
    }
    uint64_t count = recovered->NumJournals();
    ASSERT_GE(count, 1u);
    auto it = trajectory.find(count);
    if (it != trajectory.end()) {
      EXPECT_EQ(recovered->FamRoot(), it->second.fam);
      EXPECT_EQ(recovered->ClueRoot(), it->second.clue);
      EXPECT_EQ(recovered->StateRoot(), it->second.state);
    }
    ExpectAuditPasses(recovered.get());
  }
}

// ---------------------------------------------------------------------------
// Group-commit crash matrix
// ---------------------------------------------------------------------------

// Group durability at the stream layer: a crash anywhere between the
// group's buffered write and its fsync/watermark pair must recover to a
// whole-group prefix — the pre-group watermark with the torn tail
// quarantined — never a silent partial group.
TEST(GroupCommitFaultTest, CrashAtEveryAppendBatchFaultPoint) {
  auto record = [](size_t i) { return "group-record-" + std::to_string(i); };
  // Workload: two singles, a 4-record group, a 3-record group. The only
  // counts an honest recovery may report are the group boundaries.
  auto run_workload = [&](Env* env) -> Status {
    std::unique_ptr<FileStreamStore> store;
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, "gc.log", &store));
    uint64_t idx = 0;
    size_t next = 0;
    std::string a = record(next++);
    LEDGERDB_RETURN_IF_ERROR(store->Append(Slice(a), &idx));
    std::string b = record(next++);
    LEDGERDB_RETURN_IF_ERROR(store->Append(Slice(b), &idx));
    for (size_t n : {4u, 3u}) {
      std::vector<std::string> owned;
      std::vector<Slice> slices;
      for (size_t i = 0; i < n; ++i) owned.push_back(record(next++));
      for (const std::string& s : owned) slices.emplace_back(s);
      uint64_t first = 0;
      LEDGERDB_RETURN_IF_ERROR(store->AppendBatch(slices, &first));
    }
    return Status::OK();
  };

  uint64_t total_ops = 0;
  {
    MemEnv dry_base;
    FaultEnv dry(&dry_base, 11);
    Status s = run_workload(&dry);
    ASSERT_TRUE(s.ok()) << s.ToString();
    total_ops = dry.ops();
  }
  ASSERT_GT(total_ops, 10u);

  const std::vector<uint64_t> group_boundaries = {0, 1, 2, 6, 9};
  for (uint64_t k = 0; k < total_ops; ++k) {
    for (int f = 0; f < kStorageFaultKindCount; ++f) {
      StorageFaultKind kind = static_cast<StorageFaultKind>(f);
      // Absorbed by retry.
      if (kind == StorageFaultKind::kTransientError) continue;
      SCOPED_TRACE("fault point " + std::to_string(k) + " kind " +
                   std::to_string(f));
      MemEnv base;
      FaultEnv env(&base, 5000 + k * 16 + f);
      env.ScheduleFault(k, kind);
      (void)run_workload(&env);
      ASSERT_EQ(env.faults_injected(), 1);
      EXPECT_TRUE(env.crashed());

      std::unique_ptr<FileStreamStore> reopened;
      Status open = FileStreamStore::Open(&base, "gc.log", &reopened);
      if (!open.ok()) {
        // Acknowledged bytes were damaged — refusal must be explicit.
        EXPECT_TRUE(open.IsCorruption()) << open.ToString();
        continue;
      }
      uint64_t count = reopened->Count();
      EXPECT_NE(std::find(group_boundaries.begin(), group_boundaries.end(),
                          count),
                group_boundaries.end())
          << "recovered a partial group: count " << count;
      for (uint64_t i = 0; i < count; ++i) {
        Bytes payload;
        ASSERT_TRUE(reopened->Read(i, &payload).ok());
        EXPECT_EQ(payload, StringToBytes(record(i)));
      }
    }
  }
}

// Group durability at the ledger layer: CommitPrevalidatedGroup persists
// its journals through one AppendBatch, so a crash at any fault point must
// recover to a group boundary of the reference trajectory (with inline
// boundary seals included), never a state that splits a commit group.
TEST_F(FaultMatrixTest, GroupCommitCrashRecoversToGroupBoundary) {
  auto run_workload = [&](Env* env,
                          std::map<uint64_t, Snapshot>* trajectory) -> Status {
    SimulatedClock clock(1000 * kMicrosPerSecond);
    std::unique_ptr<FileStreamStore> jf, bf;
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kJournalPath, &jf));
    LEDGERDB_RETURN_IF_ERROR(FileStreamStore::Open(env, kBlockPath, &bf));
    Ledger ledger(kUri, options_, &clock, lsp_, &registry_,
                  {jf.get(), bf.get()});
    LEDGERDB_RETURN_IF_ERROR(ledger.init_status());
    uint64_t nonce = 0;
    auto make_tx = [&](const std::string& payload, const std::string& clue) {
      ClientTransaction tx;
      tx.ledger_uri = kUri;
      tx.clues = {clue};
      tx.payload = StringToBytes(payload);
      tx.nonce = nonce++;
      tx.client_ts = clock.Now();
      tx.Sign(alice_);
      return tx;
    };
    auto snap = [&] {
      if (trajectory != nullptr) {
        (*trajectory)[ledger.NumJournals()] =
            Snapshot{ledger.FamRoot(), ledger.ClueRoot(), ledger.StateRoot()};
      }
    };
    snap();
    // Three commit groups of three — with block_capacity 4, boundary
    // seals fire inside the group applies, exercising crash points that
    // interleave group persistence with block persistence.
    for (int g = 0; g < 3; ++g) {
      std::vector<Ledger::PrevalidatedTx> batch;
      for (int i = 0; i < 3; ++i) {
        ClientTransaction tx = make_tx(
            "g" + std::to_string(g) + "-p" + std::to_string(i),
            "acct-" + std::to_string(i));
        Ledger::PrevalidatedTx pre;
        LEDGERDB_RETURN_IF_ERROR(ledger.Prevalidate(tx, &pre));
        batch.push_back(std::move(pre));
      }
      std::vector<uint64_t> jsns;
      std::vector<Status> statuses;
      LEDGERDB_RETURN_IF_ERROR(
          ledger.CommitPrevalidatedGroup(std::move(batch), &jsns, &statuses));
      for (const Status& s : statuses) LEDGERDB_RETURN_IF_ERROR(s);
      clock.Advance(kMicrosPerSecond);
      snap();
    }
    LEDGERDB_RETURN_IF_ERROR(ledger.SealBlock());
    snap();
    return Status::OK();
  };

  MemEnv ref_env;
  std::map<uint64_t, Snapshot> trajectory;
  {
    Status ref = run_workload(&ref_env, &trajectory);
    ASSERT_TRUE(ref.ok()) << ref.ToString();
  }
  uint64_t total_ops = 0;
  {
    MemEnv dry_base;
    FaultEnv dry(&dry_base, 13);
    Status s = run_workload(&dry, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    total_ops = dry.ops();
  }
  ASSERT_GT(total_ops, 20u);

  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("fault point " + std::to_string(k));
    StorageFaultKind kind =
        static_cast<StorageFaultKind>(k % kStorageFaultKindCount);
    if (kind == StorageFaultKind::kTransientError) {
      kind = StorageFaultKind::kCrash;
    }
    MemEnv base;
    FaultEnv env(&base, 7000 + k);
    env.ScheduleFault(k, kind);
    (void)run_workload(&env, nullptr);
    ASSERT_EQ(env.faults_injected(), 1);
    EXPECT_TRUE(env.crashed());

    std::unique_ptr<FileStreamStore> jf, bf;
    Status jopen = FileStreamStore::Open(&base, kJournalPath, &jf);
    if (!jopen.ok()) {
      EXPECT_TRUE(jopen.IsCorruption()) << jopen.ToString();
      continue;
    }
    Status bopen = FileStreamStore::Open(&base, kBlockPath, &bf);
    if (!bopen.ok()) {
      EXPECT_TRUE(bopen.IsCorruption()) << bopen.ToString();
      continue;
    }
    SimulatedClock clock(1000 * kMicrosPerSecond);
    std::unique_ptr<Ledger> recovered;
    Status rs = Ledger::Recover(kUri, options_, &clock, lsp_, &registry_,
                                {jf.get(), bf.get()}, &recovered);
    if (!rs.ok()) {
      EXPECT_TRUE(rs.IsCorruption()) << rs.ToString();
      continue;
    }
    uint64_t count = recovered->NumJournals();
    auto it = trajectory.find(count);
    // The recovered count must be a commit-group boundary: journals of
    // one group are never split by a crash.
    ASSERT_NE(it, trajectory.end())
        << "recovered mid-group: " << count << " journals";
    EXPECT_EQ(recovered->FamRoot(), it->second.fam);
    EXPECT_EQ(recovered->ClueRoot(), it->second.clue);
    EXPECT_EQ(recovered->StateRoot(), it->second.state);
  }
}

// ---------------------------------------------------------------------------
// Shard quarantine
// ---------------------------------------------------------------------------

class ShardQuarantineTest : public ::testing::Test {
 protected:
  ShardQuarantineTest()
      : clock_(2000 * kMicrosPerSecond),
        ca_(KeyPair::FromSeedString("sq-ca")),
        lsp_(KeyPair::FromSeedString("sq-lsp")),
        alice_(KeyPair::FromSeedString("sq-alice")),
        registry_(&ca_) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser));
    options_.fractal_height = 3;
    options_.block_capacity = 4;
  }

  ClientTransaction MakeTx(const std::string& payload,
                           const std::string& clue) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://sq";
    tx.clues = {clue};
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(alice_);
    return tx;
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  KeyPair lsp_, alice_;
  MemberRegistry registry_;
  LedgerOptions options_;
  uint64_t nonce_ = 0;
};

TEST_F(ShardQuarantineTest, DamagedShardIsQuarantinedOthersKeepServing) {
  constexpr size_t kShards = 3;
  std::vector<MemoryStreamStore> jstreams(kShards), bstreams(kShards);
  std::vector<LedgerStorage> storage;
  for (size_t i = 0; i < kShards; ++i) {
    storage.push_back({&jstreams[i], &bstreams[i]});
  }
  {
    ShardedLedgerGroup group("lg://sq", kShards, options_, &clock_, lsp_,
                             &registry_, storage);
    for (int i = 0; i < 12; ++i) {
      ShardedLedgerGroup::Location loc;
      ASSERT_TRUE(group
                      .Append(MakeTx("v" + std::to_string(i),
                                     "k" + std::to_string(i)),
                              &loc)
                      .ok());
    }
  }
  // Every shard owns at least its genesis plus some journals. Tamper a
  // journal payload on shard 1 so its (frame-valid) stream fails ledger
  // replay.
  const size_t victim = 1;
  ASSERT_GE(jstreams[victim].Count(), 2u);
  Bytes raw;
  ASSERT_TRUE(jstreams[victim].Read(1, &raw).ok());
  raw[raw.size() / 2] ^= 0x01;
  ASSERT_TRUE(jstreams[victim].Overwrite(1, Slice(raw)).ok());

  std::unique_ptr<ShardedLedgerGroup> group;
  ShardedLedgerGroup::RecoverOutcome outcome;
  Status rs = ShardedLedgerGroup::Recover("lg://sq", kShards, options_, &clock_,
                                          lsp_, &registry_, storage, &group,
                                          &outcome);
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ(outcome.recovered, kShards - 1);
  EXPECT_EQ(outcome.quarantined, 1u);
  EXPECT_TRUE(group->IsQuarantined(victim));
  EXPECT_EQ(group->QuarantinedCount(), 1u);
  EXPECT_TRUE(group->ShardHealth(victim).IsCorruption())
      << group->ShardHealth(victim).ToString();
  EXPECT_TRUE(group->ShardHealth(0).ok());

  // Find clues owned by the dead shard and by a live one.
  std::string dead_clue, live_clue;
  for (int i = 0; dead_clue.empty() || live_clue.empty(); ++i) {
    ASSERT_LT(i, 64);
    std::string clue = "k" + std::to_string(i);
    if (group->ShardOfClue(clue) == victim) {
      if (dead_clue.empty()) dead_clue = clue;
    } else if (live_clue.empty()) {
      live_clue = clue;
    }
  }

  // Reads and writes routed to the quarantined shard fail loudly...
  std::vector<uint64_t> jsns;
  Status dead = group->ListTx(dead_clue, &jsns, nullptr);
  EXPECT_TRUE(dead.IsUnavailable()) << dead.ToString();
  ShardedLedgerGroup::Location loc;
  Status dead_append = group->Append(MakeTx("new", dead_clue), &loc);
  EXPECT_TRUE(dead_append.IsUnavailable()) << dead_append.ToString();
  Journal journal;
  EXPECT_TRUE(
      group->GetJournal({victim, 0}, &journal).IsUnavailable());

  // ...while healthy shards keep serving reads and writes.
  ASSERT_TRUE(group->Append(MakeTx("alive", live_clue), &loc).ok());
  EXPECT_NE(loc.shard, victim);
  ASSERT_TRUE(group->GetJournal(loc, &journal).ok());
  EXPECT_EQ(journal.payload, StringToBytes("alive"));

  // The group commitment stays position-stable: the dead shard's slot is
  // an explicit zero digest.
  GroupCommitment commitment = group->Commitment();
  ASSERT_EQ(commitment.shard_roots.size(), kShards);
  EXPECT_EQ(commitment.shard_roots[victim], Digest{});
  EXPECT_NE(commitment.shard_roots[loc.shard], Digest{});

  // The pipelined path rejects quarantined-shard traffic with the same
  // explicit status instead of crashing on a null shard.
  auto future = group->AppendAsync(MakeTx("pipelined", dead_clue));
  EXPECT_TRUE(future.get().status.IsUnavailable());
  group->StopParallelAppend();
}

TEST_F(ShardQuarantineTest, GroupRecoveryFailsWhenEveryShardIsDead) {
  constexpr size_t kShards = 2;
  std::vector<MemoryStreamStore> jstreams(kShards), bstreams(kShards);
  std::vector<LedgerStorage> storage;
  for (size_t i = 0; i < kShards; ++i) {
    storage.push_back({&jstreams[i], &bstreams[i]});
  }
  // Streams are empty: no shard has even a genesis journal to replay.
  std::unique_ptr<ShardedLedgerGroup> group;
  ShardedLedgerGroup::RecoverOutcome outcome;
  Status rs = ShardedLedgerGroup::Recover("lg://sq", kShards, options_, &clock_,
                                          lsp_, &registry_, storage, &group,
                                          &outcome);
  EXPECT_TRUE(rs.IsCorruption()) << rs.ToString();
  EXPECT_EQ(outcome.recovered, 0u);
  EXPECT_EQ(outcome.quarantined, kShards);
  EXPECT_EQ(group, nullptr);
}

}  // namespace
}  // namespace ledgerdb
