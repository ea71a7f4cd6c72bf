#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "audit/dasein_auditor.h"
#include "ledger/ledger.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "storage/stream_store.h"

namespace ledgerdb {
namespace {

/// Everything a ledger derives from its committed journal prefix. A
/// recovered ledger must derive exactly what the live one held.
struct DerivedState {
  Digest fam, clue, state;
  uint64_t journals = 0;
  uint64_t purged_boundary = 0;
  uint64_t occulted = 0;
  size_t pending_erasures = 0;
  std::vector<uint64_t> time_jsns;
  uint64_t latest_pseudo_genesis = ~0ULL;  // ~0: never purged
  std::vector<Digest> block_hashes;
  std::vector<Bytes> deltas;
  std::vector<Bytes> survivors;  // serialized bodies, in purge order

  static DerivedState Of(const Ledger& ledger) {
    DerivedState d;
    d.fam = ledger.FamRoot();
    d.clue = ledger.ClueRoot();
    d.state = ledger.StateRoot();
    d.journals = ledger.NumJournals();
    d.purged_boundary = ledger.PurgedBoundary();
    d.occulted = ledger.OccultedCount();
    d.pending_erasures = ledger.PendingOccultErasures();
    for (const TimeJournalInfo& info : ledger.time_journals()) {
      d.time_jsns.push_back(info.jsn);
    }
    (void)ledger.LatestPseudoGenesis(&d.latest_pseudo_genesis);
    for (const BlockHeader& header : ledger.blocks()) {
      d.block_hashes.push_back(header.Hash());
    }
    std::vector<JournalDelta> deltas;
    EXPECT_TRUE(ledger.GetDelta(0, d.journals, &deltas).ok());
    for (const JournalDelta& delta : deltas) {
      d.deltas.push_back(delta.Serialize());
    }
    for (uint64_t i = 0; i < ledger.SurvivorCount(); ++i) {
      Journal survivor;
      EXPECT_TRUE(ledger.ReadSurvivor(i, &survivor).ok());
      d.survivors.push_back(survivor.Serialize());
    }
    return d;
  }

  void ExpectEq(const DerivedState& live) const {
    EXPECT_EQ(fam, live.fam);
    EXPECT_EQ(clue, live.clue);
    EXPECT_EQ(state, live.state);
    EXPECT_EQ(journals, live.journals);
    EXPECT_EQ(purged_boundary, live.purged_boundary);
    EXPECT_EQ(occulted, live.occulted);
    EXPECT_EQ(pending_erasures, live.pending_erasures);
    EXPECT_EQ(time_jsns, live.time_jsns);
    EXPECT_EQ(latest_pseudo_genesis, live.latest_pseudo_genesis);
    EXPECT_EQ(block_hashes, live.block_hashes);
    EXPECT_EQ(deltas, live.deltas);
    EXPECT_EQ(survivors, live.survivors);
  }
};

/// Randomized state-machine test: applies a random operation sequence
/// (appends with clues, resubmitted appends, block seals, occults by jsn
/// and by clue, purges, time anchors, erasure reorganization, checkpoints,
/// and mid-sequence crash/recovery) to a persistent ledger, mirroring
/// every effect in a plain reference model. Recoveries alternate between
/// checkpoint + tail replay and full replay, and each must rebuild the
/// live ledger's whole derived state. After every operation a set of
/// invariants must hold; after the sequence, the full Dasein audit must
/// pass.
class StateMachineTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  struct ModelJournal {
    std::string payload;
    std::vector<std::string> clues;
    bool occulted = false;
    bool internal = false;  // LSP-authored (genesis/time/purge/...)
  };

  StateMachineTest()
      : rng_(GetParam()),
        clock_(0),
        ca_(KeyPair::FromSeedString("sm-ca")),
        registry_(&ca_),
        lsp_(KeyPair::FromSeedString("sm-lsp")),
        user_(KeyPair::FromSeedString("sm-user")),
        dba_(KeyPair::FromSeedString("sm-dba")),
        regulator_(KeyPair::FromSeedString("sm-reg")),
        tsa_(KeyPair::FromSeedString("sm-tsa"), &clock_) {
    registry_.Register(ca_.Certify("lsp", lsp_.public_key(), Role::kLsp));
    registry_.Register(ca_.Certify("user", user_.public_key(), Role::kUser));
    registry_.Register(ca_.Certify("dba", dba_.public_key(), Role::kDba));
    registry_.Register(ca_.Certify("reg", regulator_.public_key(), Role::kRegulator));
    options_.fractal_height = 3;
    options_.block_capacity = 5;
    OpenStreams();
    ledger_ = std::make_unique<Ledger>("lg://sm", options_, &clock_, lsp_,
                                       &registry_, Storage(true));
    ledger_->AttachDirectTsa(&tsa_);
    model_[0] = {"", {}, false, true};  // genesis
  }

  /// (Re)opens the durable streams over the in-memory env, as a restarted
  /// process would.
  void OpenStreams() {
    journal_stream_.reset();
    block_stream_.reset();
    ASSERT_TRUE(
        FileStreamStore::Open(&env_, "journals.log", &journal_stream_).ok());
    ASSERT_TRUE(FileStreamStore::Open(&env_, "blocks.log", &block_stream_).ok());
  }

  LedgerStorage Storage(bool with_checkpoints) {
    has_checkpoint_store_ = with_checkpoints;
    return {journal_stream_.get(), block_stream_.get(),
            with_checkpoints ? &checkpoints_ : nullptr};
  }

  void OpAppend() {
    ClientTransaction tx;
    tx.ledger_uri = "lg://sm";
    std::vector<std::string> clues;
    if (rng_.Uniform(2) == 0) {
      clues.push_back("clue-" + std::to_string(rng_.Uniform(5)));
    }
    tx.clues = clues;
    tx.payload = StringToBytes("payload-" + std::to_string(op_counter_));
    tx.nonce = op_counter_;
    tx.client_ts = clock_.Now();
    tx.Sign(user_);
    uint64_t jsn = 0;
    ASSERT_TRUE(ledger_->Append(tx, &jsn).ok());
    model_[jsn] = {"payload-" + std::to_string(op_counter_), clues, false, false};
    for (const std::string& clue : clues) clue_model_[clue].push_back(jsn);
    sent_[jsn] = tx;
  }

  void OpResubmit() {
    // A retried transaction converges on its original jsn (until a purge
    // ends the dedup horizon).
    std::vector<uint64_t> candidates;
    for (const auto& [jsn, tx] : sent_) {
      if (jsn >= purged_boundary_) candidates.push_back(jsn);
    }
    if (candidates.empty()) return;
    uint64_t original = candidates[rng_.Uniform(candidates.size())];
    uint64_t jsn = 0;
    ASSERT_TRUE(ledger_->Append(sent_[original], &jsn).ok());
    EXPECT_EQ(jsn, original);
  }

  void OpOccult() {
    // Pick a random live normal journal.
    std::vector<uint64_t> candidates;
    for (const auto& [jsn, mj] : model_) {
      if (!mj.internal && !mj.occulted && jsn >= purged_boundary_) {
        candidates.push_back(jsn);
      }
    }
    if (candidates.empty()) return;
    uint64_t target = candidates[rng_.Uniform(candidates.size())];
    Digest req = Ledger::OccultRequestHash("lg://sm", target);
    std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                     {regulator_.public_key(), regulator_.Sign(req)}};
    uint64_t oj = 0;
    ASSERT_TRUE(ledger_->Occult(target, sigs, &oj).ok());
    model_[target].occulted = true;
    model_[oj] = {"", {}, false, true};
  }

  void OpOccultByClue() {
    if (clue_model_.empty()) return;
    auto it = clue_model_.begin();
    std::advance(it, rng_.Uniform(clue_model_.size()));
    Digest req = Ledger::OccultClueRequestHash("lg://sm", it->first);
    std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                     {regulator_.public_key(), regulator_.Sign(req)}};
    size_t count = 0;
    uint64_t oj = 0;
    ASSERT_TRUE(ledger_->OccultByClue(it->first, sigs, &count, &oj).ok());
    size_t expected = 0;
    for (uint64_t jsn : it->second) {
      auto mj = model_.find(jsn);  // purged journals left the model
      if (mj == model_.end() || mj->second.occulted) continue;
      mj->second.occulted = true;
      ++expected;
    }
    EXPECT_EQ(count, expected);
    model_[oj] = {"", {}, false, true};
  }

  void OpCheckpoint() {
    if (!has_checkpoint_store_ || ledger_->blocks().empty()) return;
    ASSERT_TRUE(ledger_->WriteCheckpoint().ok());
    checkpointed_ = true;
  }

  void OpPurge() {
    uint64_t limit = ledger_->NumJournals();
    if (limit <= purged_boundary_ + 3) return;
    uint64_t point = purged_boundary_ + 1 + rng_.Uniform(limit - purged_boundary_ - 1);
    Digest req = Ledger::PurgeRequestHash("lg://sm", point);
    std::vector<Endorsement> sigs = {{dba_.public_key(), dba_.Sign(req)},
                                     {user_.public_key(), user_.Sign(req)}};
    // Keep up to two random journals of the purged range as survivors.
    std::vector<uint64_t> survivors;
    for (int i = 0; i < 2; ++i) {
      auto it = model_.lower_bound(
          purged_boundary_ + rng_.Uniform(point - purged_boundary_));
      if (it == model_.end() || it->first >= point) continue;
      if (std::find(survivors.begin(), survivors.end(), it->first) !=
          survivors.end()) {
        continue;
      }
      survivors.push_back(it->first);
    }
    Status s = ledger_->Purge(point, sigs, survivors, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    survivor_model_.insert(survivor_model_.end(), survivors.begin(),
                           survivors.end());
    for (uint64_t jsn = purged_boundary_; jsn < point; ++jsn) model_.erase(jsn);
    purged_boundary_ = point;
    // The purge appended a pseudo-genesis + purge journal.
    model_[ledger_->NumJournals() - 2] = {"", {}, false, true};
    model_[ledger_->NumJournals() - 1] = {"", {}, false, true};
  }

  void OpAnchor() {
    uint64_t tj = 0;
    ASSERT_TRUE(ledger_->AnchorTime(&tj).ok());
    model_[tj] = {"", {}, false, true};
  }

  void OpRecover() {
    ledger_->SealBlock();
    // Even recoveries go through a checkpoint plus tail replay, odd ones
    // through full replay.
    const bool via_checkpoint = recoveries_++ % 2 == 0;
    if (via_checkpoint && !checkpointed_) OpCheckpoint();
    const DerivedState live = DerivedState::Of(*ledger_);
    ledger_.reset();  // crash
    OpenStreams();
    std::unique_ptr<Ledger> recovered;
    RecoveryInfo info;
    Status s = Ledger::Recover("lg://sm", options_, &clock_, lsp_, &registry_,
                               Storage(via_checkpoint), &recovered, &info);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(info.used_checkpoint, via_checkpoint);
    ledger_ = std::move(recovered);
    ledger_->AttachDirectTsa(&tsa_);
    DerivedState::Of(*ledger_).ExpectEq(live);
  }

  void CheckInvariants() {
    // Model equivalence on a random sample of journals.
    for (int i = 0; i < 5; ++i) {
      if (ledger_->NumJournals() == 0) break;
      uint64_t jsn = rng_.Uniform(ledger_->NumJournals());
      Journal journal;
      Status s = ledger_->GetJournal(jsn, &journal);
      auto it = model_.find(jsn);
      if (it == model_.end()) {
        EXPECT_TRUE(s.IsNotFound()) << "jsn " << jsn << " should be purged";
        continue;
      }
      ASSERT_TRUE(s.ok()) << "jsn " << jsn << ": " << s.ToString();
      if (!it->second.internal) {
        EXPECT_EQ(journal.occulted, it->second.occulted) << jsn;
        if (!it->second.occulted) {
          EXPECT_EQ(journal.payload, StringToBytes(it->second.payload)) << jsn;
        } else {
          EXPECT_TRUE(journal.payload.empty()) << jsn;
        }
      }
      // Every resolvable journal proves against the live root.
      FamProof proof;
      ASSERT_TRUE(ledger_->GetProof(jsn, &proof).ok());
      EXPECT_TRUE(Ledger::VerifyJournalProof(journal, proof, ledger_->FamRoot()))
          << jsn;
    }
    // Survivors: the kept journals, in purge order.
    ASSERT_EQ(ledger_->SurvivorCount(), survivor_model_.size());
    for (size_t i = 0; i < survivor_model_.size(); ++i) {
      Journal survivor;
      ASSERT_TRUE(ledger_->ReadSurvivor(i, &survivor).ok());
      EXPECT_EQ(survivor.jsn, survivor_model_[i]);
    }
    // Clue postings match the model.
    for (const auto& [clue, jsns] : clue_model_) {
      std::vector<uint64_t> listed;
      ASSERT_TRUE(ledger_->ListTx(clue, &listed).ok()) << clue;
      EXPECT_EQ(listed, jsns) << clue;
    }
  }

  Random rng_;
  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_, user_, dba_, regulator_;
  TsaService tsa_;
  LedgerOptions options_;
  MemEnv env_;
  std::unique_ptr<FileStreamStore> journal_stream_, block_stream_;
  CheckpointStore checkpoints_{&env_, "sm"};
  bool has_checkpoint_store_ = false;  // the live ledger can checkpoint
  bool checkpointed_ = false;
  int recoveries_ = 0;
  std::unique_ptr<Ledger> ledger_;
  std::map<uint64_t, ModelJournal> model_;
  std::map<uint64_t, ClientTransaction> sent_;  // appended, by jsn
  std::map<std::string, std::vector<uint64_t>> clue_model_;
  std::vector<uint64_t> survivor_model_;  // jsns kept by purges, in order
  uint64_t purged_boundary_ = 0;
  uint64_t op_counter_ = 0;
};

TEST_P(StateMachineTest, RandomOperationSequenceHoldsInvariants) {
  const int kOps = 120;
  for (int op = 0; op < kOps; ++op) {
    ++op_counter_;
    clock_.Advance(rng_.Range(1, 2000) * kMicrosPerMilli);
    switch (rng_.Uniform(15)) {
      case 0:
        OpOccult();
        break;
      case 1:
        if (op > 20) OpPurge();
        break;
      case 2:
        OpAnchor();
        break;
      case 3:
        ledger_->SealBlock();
        break;
      case 4:
        ledger_->ReorganizeOcculted();
        break;
      case 5:
        if (op > 10) OpRecover();
        break;
      case 6:
        OpOccultByClue();
        break;
      case 7:
        OpResubmit();
        break;
      case 8:
        OpCheckpoint();
        break;
      default:
        OpAppend();
        break;
    }
    if (op % 10 == 0) CheckInvariants();
  }
  CheckInvariants();

  // The full Dasein audit passes at the end of every random history.
  ledger_->ReorganizeOcculted();
  Receipt receipt;
  ASSERT_TRUE(ledger_->GetReceipt(ledger_->NumJournals() - 1, &receipt).ok());
  DaseinAuditor::Context context;
  context.ledger = ledger_.get();
  context.members = &registry_;
  context.tsa_key = tsa_.public_key();
  AuditReport report;
  Status s = DaseinAuditor(context).Audit(receipt, {}, &report);
  ASSERT_TRUE(s.ok()) << report.failure_reason;
  EXPECT_TRUE(report.passed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateMachineTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace ledgerdb
