#include <gtest/gtest.h>

#include "audit/dasein_auditor.h"
#include "ledger/service.h"

namespace ledgerdb {
namespace {

/// Full-lifecycle integration test: a hosted ledger goes through normal
/// business, clue lineage, time anchoring via a shared T-Ledger, an
/// occult, a purge with a survivor, a crash/recovery cycle — and must
/// still pass the complete Dasein audit at the end.
TEST(IntegrationTest, FullLifecycleSurvivesEverything) {
  SimulatedClock clock(0);
  CertificateAuthority ca(KeyPair::FromSeedString("int-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("int-lsp");
  KeyPair alice = KeyPair::FromSeedString("int-alice");
  KeyPair bob = KeyPair::FromSeedString("int-bob");
  KeyPair dba = KeyPair::FromSeedString("int-dba");
  KeyPair regulator = KeyPair::FromSeedString("int-reg");
  KeyPair tsa_key = KeyPair::FromSeedString("int-tsa");
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
  registry.Register(ca.Certify("alice", alice.public_key(), Role::kUser));
  registry.Register(ca.Certify("bob", bob.public_key(), Role::kUser));
  registry.Register(ca.Certify("dba", dba.public_key(), Role::kDba));
  registry.Register(ca.Certify("reg", regulator.public_key(), Role::kRegulator));
  TsaService tsa(tsa_key, &clock);

  TLedger::Options tlopt;
  tlopt.tau_delta = kMicrosPerSecond;
  tlopt.finalize_interval = kMicrosPerSecond;
  TLedger tledger(&tsa, &clock, lsp, tlopt);

  LedgerOptions options;
  options.fractal_height = 3;
  options.block_capacity = 4;
  MemoryStreamStore journal_stream, block_stream;
  LedgerStorage storage{&journal_stream, &block_stream};

  uint64_t nonce = 0;
  auto make_tx = [&](const KeyPair& signer, const std::string& payload,
                     std::vector<std::string> clues) {
    ClientTransaction tx;
    tx.ledger_uri = "lg://life";
    tx.clues = std::move(clues);
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce++;
    tx.client_ts = clock.Now();
    tx.Sign(signer);
    return tx;
  };

  uint64_t milestone = 0, privacy_violation = 0;
  Digest pre_crash_fam_root, pre_crash_clue_root;
  {
    Ledger ledger("lg://life", options, &clock, lsp, &registry, storage);
    ledger.AttachTLedger(&tledger);

    // Phase 1: business activity with lineage + periodic anchoring.
    for (int day = 0; day < 5; ++day) {
      for (int i = 0; i < 4; ++i) {
        const KeyPair& who = (i % 2 == 0) ? alice : bob;
        uint64_t jsn;
        ASSERT_TRUE(ledger
                        .Append(make_tx(who, "d" + std::to_string(day) +
                                                 "-r" + std::to_string(i),
                                        {"chain-" + std::to_string(i % 2)}),
                                &jsn)
                        .ok());
        if (day == 1 && i == 1) milestone = jsn;
        if (day == 3 && i == 2) privacy_violation = jsn;
        clock.Advance(200 * kMicrosPerMilli);
      }
      ASSERT_TRUE(ledger.AnchorTime(nullptr).ok());
      clock.Advance(kMicrosPerSecond);
      tledger.Tick();
    }

    // Phase 2: occult the privacy violation.
    Digest oreq = Ledger::OccultRequestHash("lg://life", privacy_violation);
    std::vector<Endorsement> osigs = {
        {dba.public_key(), dba.Sign(oreq)},
        {regulator.public_key(), regulator.Sign(oreq)}};
    ASSERT_TRUE(ledger.Occult(privacy_violation, osigs, nullptr).ok());
    ASSERT_EQ(ledger.ReorganizeOcculted(), 1u);

    // Phase 3: purge the first two days, keeping the milestone.
    Digest preq = Ledger::PurgeRequestHash("lg://life", 9);
    std::vector<Endorsement> psigs = {{dba.public_key(), dba.Sign(preq)},
                                      {alice.public_key(), alice.Sign(preq)},
                                      {bob.public_key(), bob.Sign(preq)}};
    ASSERT_TRUE(ledger.Purge(9, psigs, {milestone}, nullptr).ok());

    ledger.SealBlock();
    pre_crash_fam_root = ledger.FamRoot();
    pre_crash_clue_root = ledger.ClueRoot();
  }  // "crash"

  // Phase 4: recovery.
  std::unique_ptr<Ledger> ledger;
  ASSERT_TRUE(Ledger::Recover("lg://life", options, &clock, lsp, &registry,
                              storage, &ledger)
                  .ok());
  ledger->AttachTLedger(&tledger);
  EXPECT_EQ(ledger->FamRoot(), pre_crash_fam_root);
  EXPECT_EQ(ledger->ClueRoot(), pre_crash_clue_root);
  EXPECT_EQ(ledger->PurgedBoundary(), 9u);

  // The purge journal carries the survivor, so recovery rebuilds it; the
  // purged journal itself is gone but its fam slot still proves history.
  ASSERT_EQ(ledger->SurvivorCount(), 1u);
  Journal survivor;
  ASSERT_TRUE(ledger->ReadSurvivor(0, &survivor).ok());
  FamProof survivor_proof;
  ASSERT_TRUE(ledger->GetProof(survivor.jsn, &survivor_proof).ok());
  EXPECT_TRUE(
      Ledger::VerifyJournalProof(survivor, survivor_proof, ledger->FamRoot()));
  Journal occulted;
  ASSERT_TRUE(ledger->GetJournal(privacy_violation, &occulted).ok());
  EXPECT_TRUE(occulted.occulted);
  EXPECT_TRUE(occulted.payload.empty());

  // Phase 5: more business after recovery.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        ledger->Append(make_tx(alice, "post-crash-" + std::to_string(i),
                               {"chain-0"}),
                       nullptr)
            .ok());
    clock.Advance(200 * kMicrosPerMilli);
  }
  ASSERT_TRUE(ledger->AnchorTime(nullptr).ok());
  clock.Advance(kMicrosPerSecond);
  tledger.Tick();
  tledger.ForceFinalize();

  // Phase 6: lineage still verifies across occult + purge + recovery.
  std::vector<uint64_t> jsns;
  ASSERT_TRUE(ledger->ListTx("chain-0", &jsns).ok());
  std::vector<Digest> digests;
  uint64_t begin = 0;
  // Entries before the purge lost their journals; verify the suffix range.
  for (uint64_t i = 0; i < jsns.size(); ++i) {
    Journal j;
    if (!ledger->GetJournal(jsns[i], &j).ok()) {
      begin = i + 1;
      digests.clear();
      continue;
    }
    digests.push_back(j.TxHash());
  }
  ClueProof proof;
  ASSERT_TRUE(ledger->GetClueProof("chain-0", begin, 0, &proof).ok());
  EXPECT_TRUE(CmTree::VerifyClueProof(ledger->ClueRoot(), digests, proof));

  // Phase 7: the Dasein-complete audit still passes.
  Receipt receipt;
  ASSERT_TRUE(ledger->GetReceipt(ledger->NumJournals() - 1, &receipt).ok());
  DaseinAuditor::Context context;
  context.ledger = ledger.get();
  context.members = &registry;
  context.tsa_key = tsa.public_key();
  context.tledger = &tledger;
  AuditReport report;
  ASSERT_TRUE(DaseinAuditor(context).Audit(receipt, {}, &report).ok())
      << report.failure_reason;
  EXPECT_TRUE(report.passed);
  EXPECT_EQ(report.occult_journals, 1u);
  EXPECT_EQ(report.purge_journals, 1u);
  EXPECT_GT(report.time_journals_verified, 0u);
}

}  // namespace
}  // namespace ledgerdb
