// Verifiable mutations (§III-A2/A3): a ledger accumulates years of
// obsolete records, purges them (keeping one milestone trade as a
// survivor), and occults a journal that leaked personal data —
// all without breaking verifiability, and each gated by the required
// multi-signatures.
//
// Build & run:  ./build/examples/regulatory_mutation

#include <cstdio>

#include "ledger/ledger.h"

using namespace ledgerdb;

int main() {
  SimulatedClock clock(1600000000LL * kMicrosPerSecond);
  CertificateAuthority ca(KeyPair::FromSeedString("reg-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("reg-lsp");
  KeyPair trader = KeyPair::FromSeedString("trader");
  KeyPair dba = KeyPair::FromSeedString("reg-dba");
  KeyPair regulator = KeyPair::FromSeedString("regulator");
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
  registry.Register(ca.Certify("trader", trader.public_key(), Role::kUser));
  registry.Register(ca.Certify("dba", dba.public_key(), Role::kDba));
  registry.Register(ca.Certify("regulator", regulator.public_key(), Role::kRegulator));

  LedgerOptions options;
  options.fractal_height = 6;
  Ledger ledger("lg://bank", options, &clock, lsp, &registry);

  auto append = [&](const std::string& payload) {
    static uint64_t nonce = 0;
    ClientTransaction tx;
    tx.ledger_uri = "lg://bank";
    tx.payload = StringToBytes(payload);
    tx.nonce = nonce++;
    tx.client_ts = clock.Now();
    tx.Sign(trader);
    uint64_t jsn = 0;
    ledger.Append(tx, &jsn);
    clock.Advance(kMicrosPerSecond);
    return jsn;
  };

  // --- Ten years of bank statements --------------------------------------
  for (int i = 0; i < 30; ++i) append("obsolete statement #" + std::to_string(i));
  uint64_t milestone = append("milestone: block trade of 1M shares");
  for (int i = 0; i < 10; ++i) append("recent statement #" + std::to_string(i));
  uint64_t leaked = append("VIOLATION: customer passport 123456789");
  append("normal record after the leak");

  std::printf("before mutations: %llu journals\n",
              (unsigned long long)ledger.NumJournals());

  // --- Purge everything before jsn 35, keeping the milestone -------------
  // Prerequisite 1: DBA + every member owning journals before the point.
  Digest purge_req = Ledger::PurgeRequestHash("lg://bank", 35);
  std::vector<Endorsement> purge_sigs = {
      {dba.public_key(), dba.Sign(purge_req)},
      {trader.public_key(), trader.Sign(purge_req)},
  };
  uint64_t purge_jsn = 0;
  Status s = ledger.Purge(35, purge_sigs, {milestone}, &purge_jsn);
  std::printf("purge: %s (purge journal jsn=%llu, boundary=%llu)\n",
              s.ToString().c_str(), (unsigned long long)purge_jsn,
              (unsigned long long)ledger.PurgedBoundary());

  // The milestone survives the purge and still proves.
  Journal survivor;
  ledger.ReadSurvivor(0, &survivor);
  FamProof survivor_proof;
  ledger.GetProof(survivor.jsn, &survivor_proof);
  bool survivor_ok =
      Ledger::VerifyJournalProof(survivor, survivor_proof, ledger.FamRoot());
  std::printf("milestone survives purge and verifies: %s\n",
              survivor_ok ? "yes" : "NO");

  // --- Occult the privacy violation ---------------------------------------
  // Prerequisite 2: DBA + regulator.
  Digest occult_req = Ledger::OccultRequestHash("lg://bank", leaked);
  std::vector<Endorsement> occult_sigs = {
      {dba.public_key(), dba.Sign(occult_req)},
      {regulator.public_key(), regulator.Sign(occult_req)},
  };
  s = ledger.Occult(leaked, occult_sigs, nullptr);
  std::printf("occult: %s\n", s.ToString().c_str());
  std::printf("pending erasures before reorganization: %zu\n",
              ledger.PendingOccultErasures());
  ledger.ReorganizeOcculted();  // idle-time data reorganization utility

  Journal hidden;
  ledger.GetJournal(leaked, &hidden);
  std::printf("occulted payload retrievable: %s; retained digest: %s...\n",
              hidden.payload.empty() ? "no" : "YES (bug!)",
              hidden.payload_digest.ToHex().substr(0, 16).c_str());

  // Protocol 2: the ledger remains verifiable through the retained hash.
  FamProof occult_proof;
  ledger.GetProof(leaked, &occult_proof);
  bool still_verifiable =
      Ledger::VerifyJournalProof(hidden, occult_proof, ledger.FamRoot());
  std::printf("ledger verifiable after occult: %s\n",
              still_verifiable ? "yes" : "NO");

  // An insufficient signature set must be rejected.
  uint64_t another = 0;
  {
    ClientTransaction tx;
    tx.ledger_uri = "lg://bank";
    tx.payload = StringToBytes("another record");
    tx.nonce = 999;
    tx.client_ts = clock.Now();
    tx.Sign(trader);
    ledger.Append(tx, &another);
  }
  Digest weak_req = Ledger::OccultRequestHash("lg://bank", another);
  std::vector<Endorsement> weak = {{dba.public_key(), dba.Sign(weak_req)}};
  Status weak_status = ledger.Occult(another, weak, nullptr);
  std::printf("occult without regulator rejected: %s (%s)\n",
              weak_status.IsPermissionDenied() ? "yes" : "NO",
              weak_status.ToString().c_str());

  return (survivor_ok && still_verifiable && weak_status.IsPermissionDenied())
             ? 0
             : 1;
}
