#include <gtest/gtest.h>

#include "ledger/ledger.h"

namespace ledgerdb {
namespace {

/// Shared fixture: a CA, a member registry with alice/bob/DBA/regulator,
/// a TSA, and a ledger with small blocks and a small fractal height so
/// epoch/block boundaries are exercised.
class LedgerTest : public ::testing::Test {
 protected:
  LedgerTest()
      : clock_(1700000000LL * kMicrosPerSecond),
        ca_(KeyPair::FromSeedString("ca")),
        registry_(&ca_),
        lsp_key_(KeyPair::FromSeedString("lsp")),
        alice_(KeyPair::FromSeedString("alice")),
        bob_(KeyPair::FromSeedString("bob")),
        dba_(KeyPair::FromSeedString("dba")),
        regulator_(KeyPair::FromSeedString("regulator")),
        tsa_key_(KeyPair::FromSeedString("tsa")),
        tsa_(tsa_key_, &clock_) {
    EXPECT_TRUE(registry_.Register(ca_.Certify("lsp", lsp_key_.public_key(), Role::kLsp)).ok());
    EXPECT_TRUE(registry_.Register(ca_.Certify("alice", alice_.public_key(), Role::kUser)).ok());
    EXPECT_TRUE(registry_.Register(ca_.Certify("bob", bob_.public_key(), Role::kUser)).ok());
    EXPECT_TRUE(registry_.Register(ca_.Certify("dba", dba_.public_key(), Role::kDba)).ok());
    EXPECT_TRUE(registry_.Register(
        ca_.Certify("regulator", regulator_.public_key(), Role::kRegulator)).ok());

    LedgerOptions options;
    options.fractal_height = 4;
    options.block_capacity = 8;
    ledger_ = std::make_unique<Ledger>("lg://test", options, &clock_,
                                       lsp_key_, &registry_);
  }

  ClientTransaction MakeTx(const KeyPair& signer, const std::string& payload,
                           std::vector<std::string> clues = {}) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://test";
    tx.clues = std::move(clues);
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce_++;
    tx.client_ts = clock_.Now();
    tx.Sign(signer);
    return tx;
  }

  uint64_t MustAppend(const KeyPair& signer, const std::string& payload,
                      std::vector<std::string> clues = {}) {
    uint64_t jsn = 0;
    EXPECT_TRUE(ledger_->Append(MakeTx(signer, payload, std::move(clues)), &jsn).ok());
    return jsn;
  }

  Endorsement Endorse(const KeyPair& key, const Digest& request) {
    return Endorsement{key.public_key(), key.Sign(request)};
  }

  SimulatedClock clock_;
  CertificateAuthority ca_;
  MemberRegistry registry_;
  KeyPair lsp_key_, alice_, bob_, dba_, regulator_, tsa_key_;
  TsaService tsa_;
  std::unique_ptr<Ledger> ledger_;
  uint64_t nonce_ = 0;
};

// ---------------------------------------------------------------------------
// Journal / serialization primitives
// ---------------------------------------------------------------------------

TEST_F(LedgerTest, ClientSignatureRoundTrip) {
  ClientTransaction tx = MakeTx(alice_, "hello");
  EXPECT_TRUE(tx.VerifyClientSignature());
  tx.payload = StringToBytes("tampered");
  EXPECT_FALSE(tx.VerifyClientSignature());
}

TEST_F(LedgerTest, JournalSerializationRoundTrip) {
  uint64_t jsn = MustAppend(alice_, "payload", {"clue-a", "clue-b"});
  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
  Journal back;
  ASSERT_TRUE(Journal::Deserialize(journal.Serialize(), &back));
  EXPECT_EQ(back.TxHash(), journal.TxHash());
  EXPECT_EQ(back.jsn, journal.jsn);
  EXPECT_EQ(back.clues, journal.clues);
  EXPECT_EQ(back.payload, journal.payload);
}

TEST_F(LedgerTest, TxHashStableUnderPayloadErasure) {
  // Protocol 2's foundation: tx-hash covers the payload digest, not the
  // payload, so occulting does not break the chain.
  uint64_t jsn = MustAppend(alice_, "secret");
  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
  Digest before = journal.TxHash();
  journal.payload.clear();
  EXPECT_EQ(journal.TxHash(), before);
}

TEST_F(LedgerTest, BlockHeaderSerializationRoundTrip) {
  MustAppend(alice_, "p");
  ledger_->SealBlock();
  const BlockHeader& header = ledger_->blocks().back();
  BlockHeader back;
  ASSERT_TRUE(BlockHeader::Deserialize(header.Serialize(), &back));
  EXPECT_EQ(back.Hash(), header.Hash());
}

// ---------------------------------------------------------------------------
// Members
// ---------------------------------------------------------------------------

TEST_F(LedgerTest, RegistryValidatesCertificates) {
  KeyPair mallory = KeyPair::FromSeedString("mallory");
  Member fake;
  fake.name = "mallory";
  fake.key = mallory.public_key();
  fake.role = Role::kDba;  // self-claimed role, no CA cert
  fake.ca_cert = mallory.Sign(fake.CertHash());
  EXPECT_TRUE(registry_.Register(fake).IsPermissionDenied());
  EXPECT_FALSE(registry_.IsRegistered(mallory.public_key()));
}

TEST_F(LedgerTest, RegistryRejectsDuplicates) {
  Member again = ca_.Certify("alice2", alice_.public_key(), Role::kUser);
  EXPECT_TRUE(registry_.Register(again).IsAlreadyExists());
}

TEST_F(LedgerTest, RolesAreQueryable) {
  EXPECT_TRUE(registry_.HasRole(dba_.public_key(), Role::kDba));
  EXPECT_FALSE(registry_.HasRole(alice_.public_key(), Role::kDba));
  EXPECT_EQ(registry_.MembersWithRole(Role::kUser).size(), 2u);
  Member m;
  ASSERT_TRUE(registry_.Lookup(bob_.public_key(), &m).ok());
  EXPECT_EQ(m.name, "bob");
}

// ---------------------------------------------------------------------------
// Append path (who verification at the door)
// ---------------------------------------------------------------------------

TEST_F(LedgerTest, AppendAssignsSequentialJsns) {
  // jsn 0 is the genesis journal.
  EXPECT_EQ(MustAppend(alice_, "a"), 1u);
  EXPECT_EQ(MustAppend(bob_, "b"), 2u);
  EXPECT_EQ(ledger_->NumJournals(), 3u);
}

TEST_F(LedgerTest, ResubmittedTransactionIsIdempotent) {
  // A client that never saw its response resubmits the SAME signed
  // transaction (same nonce). The server must converge on the original
  // journal instead of appending twice.
  ClientTransaction tx = MakeTx(alice_, "pay bob 5", {"acct"});
  uint64_t first = 0, second = 0;
  ASSERT_TRUE(ledger_->Append(tx, &first).ok());
  uint64_t count = ledger_->NumJournals();
  ASSERT_TRUE(ledger_->Append(tx, &second).ok());
  EXPECT_EQ(second, first);
  EXPECT_EQ(ledger_->NumJournals(), count);  // nothing was re-appended
  // The replay serves the ORIGINAL receipt.
  Receipt r1, r2;
  ASSERT_TRUE(ledger_->GetReceipt(first, &r1).ok());
  ASSERT_TRUE(ledger_->GetReceipt(second, &r2).ok());
  EXPECT_EQ(r1.Serialize(), r2.Serialize());
}

TEST_F(LedgerTest, NonceReuseWithDifferentContentRejected) {
  ClientTransaction tx = MakeTx(alice_, "pay bob 5");
  uint64_t jsn = 0;
  ASSERT_TRUE(ledger_->Append(tx, &jsn).ok());
  // Same signer, same nonce, different content: this is NOT a retry.
  ClientTransaction forged = tx;
  forged.payload = StringToBytes("pay mallory 500");
  forged.Sign(alice_);
  uint64_t other = 0;
  EXPECT_TRUE(ledger_->Append(forged, &other).IsAlreadyExists());
  // A different client may reuse the nonce value freely.
  ClientTransaction bobs = tx;
  bobs.payload = StringToBytes("bob's own");
  bobs.Sign(bob_);
  EXPECT_TRUE(ledger_->Append(bobs, &other).ok());
}

TEST_F(LedgerTest, AppendRejectsBadSignature) {
  ClientTransaction tx = MakeTx(alice_, "x");
  tx.payload = StringToBytes("tampered-in-flight");  // threat-A
  uint64_t jsn;
  EXPECT_TRUE(ledger_->Append(tx, &jsn).IsVerificationFailed());
}

TEST_F(LedgerTest, AppendRejectsUnregisteredClient) {
  KeyPair outsider = KeyPair::FromSeedString("outsider");
  uint64_t jsn;
  EXPECT_TRUE(ledger_->Append(MakeTx(outsider, "x"), &jsn).IsPermissionDenied());
}

TEST_F(LedgerTest, AppendRejectsWrongLedgerUri) {
  ClientTransaction tx = MakeTx(alice_, "x");
  tx.ledger_uri = "lg://other";
  tx.Sign(alice_);
  uint64_t jsn;
  EXPECT_TRUE(ledger_->Append(tx, &jsn).IsInvalidArgument());
}

TEST_F(LedgerTest, AppendRejectsPrivilegedTypes) {
  ClientTransaction tx = MakeTx(alice_, "x");
  tx.type = JournalType::kPurge;
  tx.Sign(alice_);
  uint64_t jsn;
  EXPECT_TRUE(ledger_->Append(tx, &jsn).IsPermissionDenied());
}

// ---------------------------------------------------------------------------
// Blocks and receipts
// ---------------------------------------------------------------------------

TEST_F(LedgerTest, BlocksSealAtCapacityAndChain) {
  for (int i = 0; i < 20; ++i) MustAppend(alice_, "p" + std::to_string(i));
  ledger_->SealBlock();
  const auto& blocks = ledger_->blocks();
  ASSERT_GE(blocks.size(), 2u);
  for (size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].prev_block_hash, blocks[i - 1].Hash());
    EXPECT_EQ(blocks[i].first_jsn,
              blocks[i - 1].first_jsn + blocks[i - 1].journal_count);
  }
}

TEST_F(LedgerTest, ReceiptVerifies) {
  uint64_t jsn = MustAppend(alice_, "notarize-me");
  Receipt receipt;
  ASSERT_TRUE(ledger_->GetReceipt(jsn, &receipt).ok());
  EXPECT_TRUE(receipt.Verify(ledger_->lsp_key()));
  EXPECT_EQ(receipt.jsn, jsn);

  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
  EXPECT_EQ(receipt.tx_hash, journal.TxHash());
  EXPECT_EQ(receipt.request_hash, journal.request_hash);

  // Any field tamper breaks π_s.
  Receipt forged = receipt;
  forged.block_hash.bytes[0] ^= 1;
  EXPECT_FALSE(forged.Verify(ledger_->lsp_key()));
}

TEST_F(LedgerTest, ReceiptSerializationRoundTrip) {
  uint64_t jsn = MustAppend(alice_, "r");
  Receipt receipt;
  ASSERT_TRUE(ledger_->GetReceipt(jsn, &receipt).ok());
  Receipt back;
  ASSERT_TRUE(Receipt::Deserialize(receipt.Serialize(), &back));
  EXPECT_TRUE(back.Verify(ledger_->lsp_key()));
}

// ---------------------------------------------------------------------------
// what: fam existence verification through the ledger API
// ---------------------------------------------------------------------------

TEST_F(LedgerTest, JournalProofsVerify) {
  std::vector<uint64_t> jsns;
  for (int i = 0; i < 40; ++i) jsns.push_back(MustAppend(alice_, "p" + std::to_string(i)));
  Digest root = ledger_->FamRoot();
  for (uint64_t jsn : jsns) {
    Journal journal;
    ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
    FamProof proof;
    ASSERT_TRUE(ledger_->GetProof(jsn, &proof).ok());
    EXPECT_TRUE(Ledger::VerifyJournalProof(journal, proof, root));
  }
}

TEST_F(LedgerTest, ProofRejectsForgedJournal) {
  uint64_t jsn = MustAppend(alice_, "foobar");
  FamProof proof;
  ASSERT_TRUE(ledger_->GetProof(jsn, &proof).ok());
  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
  // 'foopar' must fail (§III-A).
  journal.payload = StringToBytes("foopar");
  journal.payload_digest = Sha256::Hash(journal.payload);
  EXPECT_FALSE(Ledger::VerifyJournalProof(journal, proof, ledger_->FamRoot()));
}

TEST_F(LedgerTest, AnchoredProofsWork) {
  for (int i = 0; i < 40; ++i) MustAppend(alice_, "p" + std::to_string(i));
  TrustedAnchor anchor;
  ASSERT_TRUE(ledger_->MakeAnchor(&anchor).ok());
  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(1, &journal).ok());
  FamProof proof;
  ASSERT_TRUE(ledger_->GetProofAnchored(1, anchor, &proof).ok());
  EXPECT_TRUE(FamAccumulator::VerifyProofAnchored(journal.TxHash(), proof, anchor));
}

// ---------------------------------------------------------------------------
// Clue lineage through the ledger API
// ---------------------------------------------------------------------------

TEST_F(LedgerTest, ClueLineageRoundTrip) {
  std::vector<Digest> tx_hashes;
  for (int i = 0; i < 5; ++i) {
    uint64_t jsn = MustAppend(alice_, "artwork-event-" + std::to_string(i), {"DCI001"});
    Journal journal;
    ASSERT_TRUE(ledger_->GetJournal(jsn, &journal).ok());
    tx_hashes.push_back(journal.TxHash());
  }
  std::vector<uint64_t> jsns;
  ASSERT_TRUE(ledger_->ListTx("DCI001", &jsns).ok());
  EXPECT_EQ(jsns.size(), 5u);

  ClueProof proof;
  ASSERT_TRUE(ledger_->GetClueProof("DCI001", 0, 0, &proof).ok());
  EXPECT_TRUE(CmTree::VerifyClueProof(ledger_->ClueRoot(), tx_hashes, proof));
}

TEST_F(LedgerTest, WorldStateTracksClues) {
  MustAppend(alice_, "v1", {"asset-1"});
  MustAppend(alice_, "v2", {"asset-1"});
  EXPECT_EQ(ledger_->world_state().Version("asset-1"), 2u);
  Bytes latest;
  ASSERT_TRUE(ledger_->world_state().Get("asset-1", &latest).ok());
  EXPECT_EQ(latest, Sha256::Hash(std::string_view("v2")).ToBytes());
}

TEST_F(LedgerTest, BlockSnapshotsCaptureRoots) {
  MustAppend(alice_, "a", {"c1"});
  ledger_->SealBlock();
  Digest root_at_block = ledger_->blocks().back().clue_root;
  MustAppend(alice_, "b", {"c1"});
  ledger_->SealBlock();
  EXPECT_NE(ledger_->blocks().back().clue_root, root_at_block);
  EXPECT_EQ(ledger_->blocks().back().fam_root, ledger_->FamRoot());
}

// ---------------------------------------------------------------------------
// when: time anchoring
// ---------------------------------------------------------------------------

TEST_F(LedgerTest, DirectTsaTimeJournal) {
  ledger_->AttachDirectTsa(&tsa_);
  MustAppend(alice_, "before-anchor");
  uint64_t time_jsn = 0;
  ASSERT_TRUE(ledger_->AnchorTime(&time_jsn).ok());
  ASSERT_EQ(ledger_->time_journals().size(), 1u);
  const TimeEvidence& ev = ledger_->time_journals()[0].evidence;
  EXPECT_EQ(ev.mode, TimeNotaryMode::kDirectTsa);
  EXPECT_TRUE(ev.attestation.Verify(tsa_.public_key()));
  // The time journal itself is on the ledger.
  Journal tj;
  ASSERT_TRUE(ledger_->GetJournal(time_jsn, &tj).ok());
  EXPECT_EQ(tj.type, JournalType::kTime);
  TimeEvidence parsed;
  ASSERT_TRUE(TimeEvidence::Deserialize(tj.payload, &parsed));
  EXPECT_EQ(parsed.ledger_digest, ev.ledger_digest);
}

TEST_F(LedgerTest, TLedgerTimeJournal) {
  TLedger tledger(&tsa_, &clock_, KeyPair::FromSeedString("tl-lsp"), {});
  ledger_->AttachTLedger(&tledger);
  MustAppend(alice_, "x");
  uint64_t time_jsn = 0;
  ASSERT_TRUE(ledger_->AnchorTime(&time_jsn).ok());
  tledger.ForceFinalize();
  const TimeEvidence& ev = ledger_->time_journals()[0].evidence;
  EXPECT_EQ(ev.mode, TimeNotaryMode::kTLedger);
  EXPECT_TRUE(tledger.VerifyReceipt(ev.ledger_digest, ev.tledger_receipt));
  TimeProof proof;
  ASSERT_TRUE(tledger.GetTimeProof(ev.tledger_index, &proof).ok());
  EXPECT_TRUE(TLedger::VerifyTimeProof(ev.ledger_digest, proof, tsa_.public_key()));
}

TEST_F(LedgerTest, AnchorTimeRequiresNotary) {
  uint64_t jsn;
  EXPECT_TRUE(ledger_->AnchorTime(&jsn).IsInvalidArgument());
}

TEST_F(LedgerTest, TimeEvidenceSerializationRoundTrip) {
  ledger_->AttachDirectTsa(&tsa_);
  uint64_t time_jsn = 0;
  ASSERT_TRUE(ledger_->AnchorTime(&time_jsn).ok());
  const TimeEvidence& ev = ledger_->time_journals()[0].evidence;
  TimeEvidence back;
  ASSERT_TRUE(TimeEvidence::Deserialize(ev.Serialize(), &back));
  EXPECT_EQ(back.covered_jsn_count, ev.covered_jsn_count);
  EXPECT_TRUE(back.attestation.Verify(tsa_.public_key()));
}

// ---------------------------------------------------------------------------
// Purge
// ---------------------------------------------------------------------------

class PurgeTest : public LedgerTest {
 protected:
  std::vector<Endorsement> FullPurgeSigs(uint64_t purge_before) {
    Digest request = Ledger::PurgeRequestHash("lg://test", purge_before);
    return {Endorse(dba_, request), Endorse(alice_, request),
            Endorse(bob_, request)};
  }
};

TEST_F(PurgeTest, PurgeErasesAndCreatesPseudoGenesis) {
  for (int i = 0; i < 10; ++i) MustAppend(i % 2 ? alice_ : bob_, "p" + std::to_string(i));
  uint64_t purge_jsn = 0;
  ASSERT_TRUE(ledger_->Purge(8, FullPurgeSigs(8), {}, &purge_jsn).ok());
  EXPECT_EQ(ledger_->PurgedBoundary(), 8u);

  Journal journal;
  EXPECT_TRUE(ledger_->GetJournal(3, &journal).IsNotFound());
  EXPECT_TRUE(ledger_->GetJournal(9, &journal).ok());

  uint64_t pg_jsn = 0;
  ASSERT_TRUE(ledger_->LatestPseudoGenesis(&pg_jsn).ok());
  ASSERT_TRUE(ledger_->GetJournal(pg_jsn, &journal).ok());
  EXPECT_EQ(journal.type, JournalType::kPseudoGenesis);
  ASSERT_TRUE(ledger_->GetJournal(purge_jsn, &journal).ok());
  EXPECT_EQ(journal.type, JournalType::kPurge);
  EXPECT_FALSE(journal.endorsements.empty());
}

TEST_F(PurgeTest, ProofsStillVerifyAfterPurge) {
  // fam is retained, so surviving journals' proofs keep working.
  for (int i = 0; i < 10; ++i) MustAppend(alice_, "p" + std::to_string(i));
  ASSERT_TRUE(ledger_->Purge(5, FullPurgeSigs(5), {}, nullptr).ok());
  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(7, &journal).ok());
  FamProof proof;
  ASSERT_TRUE(ledger_->GetProof(7, &proof).ok());
  EXPECT_TRUE(Ledger::VerifyJournalProof(journal, proof, ledger_->FamRoot()));
}

TEST_F(PurgeTest, PurgeRequiresDba) {
  MustAppend(alice_, "p");
  Digest request = Ledger::PurgeRequestHash("lg://test", 2);
  std::vector<Endorsement> sigs = {Endorse(alice_, request)};
  EXPECT_TRUE(ledger_->Purge(2, sigs, {}, nullptr).IsPermissionDenied());
}

TEST_F(PurgeTest, PurgeRequiresAllAffectedMembers) {
  MustAppend(alice_, "pa");
  MustAppend(bob_, "pb");
  Digest request = Ledger::PurgeRequestHash("lg://test", 3);
  // bob's signature missing.
  std::vector<Endorsement> sigs = {Endorse(dba_, request), Endorse(alice_, request)};
  EXPECT_TRUE(ledger_->Purge(3, sigs, {}, nullptr).IsPermissionDenied());
}

TEST_F(PurgeTest, PurgeRejectsBadSignature) {
  MustAppend(alice_, "p");
  Digest wrong = Ledger::PurgeRequestHash("lg://test", 99);
  std::vector<Endorsement> sigs = {Endorse(dba_, wrong), Endorse(alice_, wrong)};
  EXPECT_TRUE(ledger_->Purge(2, sigs, {}, nullptr).IsVerificationFailed());
}

TEST_F(PurgeTest, SurvivorsOutliveThePurge) {
  uint64_t milestone = MustAppend(alice_, "block-trade-keep-me");
  for (int i = 0; i < 5; ++i) MustAppend(alice_, "noise" + std::to_string(i));
  ASSERT_TRUE(ledger_->Purge(5, FullPurgeSigs(5), {milestone}, nullptr).ok());
  ASSERT_EQ(ledger_->SurvivorCount(), 1u);
  Journal survivor;
  ASSERT_TRUE(ledger_->ReadSurvivor(0, &survivor).ok());
  EXPECT_EQ(survivor.payload, StringToBytes("block-trade-keep-me"));
  // And the survivor still proves against the retained fam tree.
  FamProof proof;
  ASSERT_TRUE(ledger_->GetProof(survivor.jsn, &proof).ok());
  EXPECT_TRUE(Ledger::VerifyJournalProof(survivor, proof, ledger_->FamRoot()));
}

TEST_F(PurgeTest, SurvivorsOutliveARestart) {
  LedgerOptions options;
  options.fractal_height = 4;
  options.block_capacity = 8;
  MemoryStreamStore journals, blocks;
  LedgerStorage storage{&journals, &blocks};
  ledger_ = std::make_unique<Ledger>("lg://test", options, &clock_, lsp_key_,
                                     &registry_, storage);
  for (int i = 0; i < 6; ++i) MustAppend(alice_, "p" + std::to_string(i));
  Journal kept;
  ASSERT_TRUE(ledger_->GetJournal(2, &kept).ok());
  ASSERT_TRUE(ledger_->Purge(5, FullPurgeSigs(5), {2}, nullptr).ok());
  ASSERT_EQ(ledger_->SurvivorCount(), 1u);

  std::unique_ptr<Ledger> recovered;
  ASSERT_TRUE(Ledger::Recover("lg://test", options, &clock_, lsp_key_,
                              &registry_, storage, &recovered)
                  .ok());
  ASSERT_EQ(recovered->SurvivorCount(), 1u);
  Journal survivor;
  ASSERT_TRUE(recovered->ReadSurvivor(0, &survivor).ok());
  EXPECT_EQ(survivor.Serialize(), kept.Serialize());
  FamProof proof;
  ASSERT_TRUE(recovered->GetProof(survivor.jsn, &proof).ok());
  EXPECT_TRUE(
      Ledger::VerifyJournalProof(survivor, proof, recovered->FamRoot()));
}

TEST_F(PurgeTest, RejectedPurgeCommitsNothing) {
  LedgerOptions options;
  options.fractal_height = 4;
  options.block_capacity = 8;
  MemoryStreamStore journals, blocks;
  LedgerStorage storage{&journals, &blocks};
  ledger_ = std::make_unique<Ledger>("lg://test", options, &clock_, lsp_key_,
                                     &registry_, storage);
  for (int i = 0; i < 6; ++i) MustAppend(alice_, "p" + std::to_string(i));
  const uint64_t journal_count = ledger_->NumJournals();
  const Digest fam_root = ledger_->FamRoot();

  // Survivor 6 lies past the purge point: the purge must fail before it
  // commits anything.
  EXPECT_TRUE(
      ledger_->Purge(5, FullPurgeSigs(5), {6}, nullptr).IsInvalidArgument());
  EXPECT_EQ(ledger_->NumJournals(), journal_count);
  EXPECT_EQ(ledger_->FamRoot(), fam_root);
  EXPECT_EQ(ledger_->SurvivorCount(), 0u);
  EXPECT_EQ(ledger_->PurgedBoundary(), 0u);

  std::unique_ptr<Ledger> recovered;
  ASSERT_TRUE(Ledger::Recover("lg://test", options, &clock_, lsp_key_,
                              &registry_, storage, &recovered)
                  .ok());
  EXPECT_EQ(recovered->NumJournals(), journal_count);
  EXPECT_EQ(recovered->FamRoot(), fam_root);
  EXPECT_EQ(recovered->PurgedBoundary(), 0u);
  Journal journal;
  EXPECT_TRUE(recovered->GetJournal(3, &journal).ok());
}

TEST_F(PurgeTest, InvalidPurgePoints) {
  MustAppend(alice_, "p");
  EXPECT_TRUE(ledger_->Purge(99, FullPurgeSigs(99), {}, nullptr).IsOutOfRange());
  ASSERT_TRUE(ledger_->Purge(2, FullPurgeSigs(2), {}, nullptr).ok());
  EXPECT_TRUE(ledger_->Purge(1, FullPurgeSigs(1), {}, nullptr).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Occult
// ---------------------------------------------------------------------------

class OccultTest : public LedgerTest {
 protected:
  std::vector<Endorsement> OccultSigs(uint64_t jsn) {
    Digest request = Ledger::OccultRequestHash("lg://test", jsn);
    return {Endorse(dba_, request), Endorse(regulator_, request)};
  }
};

TEST_F(OccultTest, OccultHidesPayloadKeepsVerifiability) {
  uint64_t target = MustAppend(alice_, "unauthorized-personal-data");
  FamProof proof_before;
  ASSERT_TRUE(ledger_->GetProof(target, &proof_before).ok());

  uint64_t occult_jsn = 0;
  ASSERT_TRUE(ledger_->Occult(target, OccultSigs(target), &occult_jsn).ok());

  Journal journal;
  ASSERT_TRUE(ledger_->GetJournal(target, &journal).ok());
  EXPECT_TRUE(journal.occulted);
  EXPECT_TRUE(journal.payload.empty());
  EXPECT_FALSE(journal.payload_digest.IsZero());

  // Protocol 2: the retained hash stands in — the proof still verifies.
  FamProof proof;
  ASSERT_TRUE(ledger_->GetProof(target, &proof).ok());
  EXPECT_TRUE(Ledger::VerifyJournalProof(journal, proof, ledger_->FamRoot()));

  Journal oj;
  ASSERT_TRUE(ledger_->GetJournal(occult_jsn, &oj).ok());
  EXPECT_EQ(oj.type, JournalType::kOccult);
}

TEST_F(OccultTest, AsyncErasureDeferred) {
  uint64_t target = MustAppend(alice_, "gdpr-violation");
  ASSERT_TRUE(ledger_->Occult(target, OccultSigs(target), nullptr).ok());
  EXPECT_EQ(ledger_->PendingOccultErasures(), 1u);
  EXPECT_EQ(ledger_->ReorganizeOcculted(), 1u);
  EXPECT_EQ(ledger_->PendingOccultErasures(), 0u);
}

TEST_F(OccultTest, SyncErasureImmediate) {
  LedgerOptions options;
  options.sync_occult_erasure = true;
  Ledger sync_ledger("lg://test", options, &clock_, lsp_key_, &registry_);
  uint64_t jsn;
  ASSERT_TRUE(sync_ledger.Append(MakeTx(alice_, "x"), &jsn).ok());
  Digest request = Ledger::OccultRequestHash("lg://test", jsn);
  std::vector<Endorsement> sigs = {Endorse(dba_, request), Endorse(regulator_, request)};
  ASSERT_TRUE(sync_ledger.Occult(jsn, sigs, nullptr).ok());
  EXPECT_EQ(sync_ledger.PendingOccultErasures(), 0u);
}

TEST_F(OccultTest, OccultRequiresBothRoles) {
  uint64_t target = MustAppend(alice_, "x");
  Digest request = Ledger::OccultRequestHash("lg://test", target);
  std::vector<Endorsement> only_dba = {Endorse(dba_, request)};
  EXPECT_TRUE(ledger_->Occult(target, only_dba, nullptr).IsPermissionDenied());
  std::vector<Endorsement> only_reg = {Endorse(regulator_, request)};
  EXPECT_TRUE(ledger_->Occult(target, only_reg, nullptr).IsPermissionDenied());
}

TEST_F(OccultTest, OccultRejectsDoubleAndSpecials) {
  uint64_t target = MustAppend(alice_, "x");
  ASSERT_TRUE(ledger_->Occult(target, OccultSigs(target), nullptr).ok());
  EXPECT_TRUE(ledger_->Occult(target, OccultSigs(target), nullptr).IsAlreadyExists());
  // Genesis (jsn 0) is not a normal journal.
  EXPECT_TRUE(ledger_->Occult(0, OccultSigs(0), nullptr).IsInvalidArgument());
}

TEST_F(OccultTest, OccultByClueStillVerifiable) {
  // "occult by clue is a common case": lineage survives an occult.
  std::vector<Digest> tx_hashes;
  for (int i = 0; i < 3; ++i) {
    uint64_t jsn = MustAppend(alice_, "life-" + std::to_string(i), {"asset"});
    Journal j;
    ASSERT_TRUE(ledger_->GetJournal(jsn, &j).ok());
    tx_hashes.push_back(j.TxHash());
  }
  std::vector<uint64_t> jsns;
  ASSERT_TRUE(ledger_->ListTx("asset", &jsns).ok());
  ASSERT_TRUE(ledger_->Occult(jsns[1], OccultSigs(jsns[1]), nullptr).ok());

  ClueProof proof;
  ASSERT_TRUE(ledger_->GetClueProof("asset", 0, 0, &proof).ok());
  EXPECT_TRUE(CmTree::VerifyClueProof(ledger_->ClueRoot(), tx_hashes, proof));
}

}  // namespace
}  // namespace ledgerdb
