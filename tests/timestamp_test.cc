#include <gtest/gtest.h>

#include "client/ledger_client.h"
#include "net/byzantine_transport.h"
#include "net/transport.h"
#include "timestamp/attacks.h"
#include "timestamp/pegging.h"
#include "timestamp/t_ledger.h"
#include "timestamp/tsa.h"

namespace ledgerdb {
namespace {

Digest D(const std::string& s) { return Sha256::Hash(s); }

class TimestampTest : public ::testing::Test {
 protected:
  TimestampTest()
      : clock_(1000000),
        tsa_key_(KeyPair::FromSeedString("tsa")),
        tsa_(tsa_key_, &clock_) {}

  SimulatedClock clock_;
  KeyPair tsa_key_;
  TsaService tsa_;
};

// ---------------------------------------------------------------------------
// TSA
// ---------------------------------------------------------------------------

TEST_F(TimestampTest, EndorsementCarriesClockTime) {
  clock_.SetTime(5000000);
  TimeAttestation att = tsa_.Endorse(D("doc"));
  EXPECT_EQ(att.timestamp, 5000000);
  EXPECT_EQ(att.digest, D("doc"));
  EXPECT_TRUE(att.Verify(tsa_.public_key()));
  EXPECT_EQ(tsa_.endorsement_count(), 1u);
}

TEST_F(TimestampTest, AttestationRejectsTamperedFields) {
  TimeAttestation att = tsa_.Endorse(D("doc"));
  TimeAttestation bad = att;
  bad.timestamp += 1;  // backdating/forward-dating breaks the signature
  EXPECT_FALSE(bad.Verify(tsa_.public_key()));
  bad = att;
  bad.digest = D("other");
  EXPECT_FALSE(bad.Verify(tsa_.public_key()));
}

TEST_F(TimestampTest, AttestationRejectsWrongAuthority) {
  TimeAttestation att = tsa_.Endorse(D("doc"));
  KeyPair impostor = KeyPair::FromSeedString("impostor");
  EXPECT_FALSE(att.Verify(impostor.public_key()));
}

TEST_F(TimestampTest, AttestationSerializationRoundTrip) {
  TimeAttestation att = tsa_.Endorse(D("doc"));
  TimeAttestation back;
  ASSERT_TRUE(TimeAttestation::Deserialize(att.Serialize(), &back));
  EXPECT_TRUE(back.Verify(tsa_.public_key()));
  EXPECT_EQ(back.timestamp, att.timestamp);
}

TEST_F(TimestampTest, TsaPoolRoundRobinAndVerifyAny) {
  KeyPair key2 = KeyPair::FromSeedString("tsa2");
  TsaService tsa2(key2, &clock_);
  TsaPool pool;
  pool.Add(&tsa_);
  pool.Add(&tsa2);
  TimeAttestation a1 = pool.Endorse(D("a"));
  TimeAttestation a2 = pool.Endorse(D("b"));
  EXPECT_EQ(tsa_.endorsement_count(), 1u);
  EXPECT_EQ(tsa2.endorsement_count(), 1u);
  EXPECT_TRUE(pool.VerifyAny(a1));
  EXPECT_TRUE(pool.VerifyAny(a2));
  TimeAttestation forged = a1;
  forged.timestamp += 7;
  EXPECT_FALSE(pool.VerifyAny(forged));
}

// ---------------------------------------------------------------------------
// Pegging protocols
// ---------------------------------------------------------------------------

TEST_F(TimestampTest, OneWayPeggingDelaysBinding) {
  OneWayPegging pegging(&tsa_, &clock_);
  pegging.Submit(D("j1"));
  EXPECT_EQ(pegging.PendingCount(), 1u);
  clock_.Advance(10 * kMicrosPerSecond);  // LSP stalls 10s
  auto flushed = pegging.Flush();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].anchored_at - flushed[0].created_at,
            10 * kMicrosPerSecond);
  EXPECT_TRUE(flushed[0].attestation.Verify(tsa_.public_key()));
}

TEST_F(TimestampTest, OneWayPreservesRelativeOrder) {
  OneWayPegging pegging(&tsa_, &clock_);
  pegging.Submit(D("first"));
  clock_.Advance(100);
  pegging.Submit(D("second"));
  clock_.Advance(kMicrosPerSecond);
  auto flushed = pegging.Flush();
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[0].digest, D("first"));
  EXPECT_EQ(flushed[1].digest, D("second"));
  EXPECT_LT(flushed[0].created_at, flushed[1].created_at);
}

TEST_F(TimestampTest, TwoWayPegAnchorsImmediately) {
  TwoWayPegging pegging(&tsa_, &clock_, kMicrosPerSecond);
  PeggedDigest record = pegging.Peg(D("ledger-root"));
  EXPECT_EQ(record.anchored_at, record.created_at);
  EXPECT_TRUE(record.attestation.Verify(tsa_.public_key()));
}

TEST_F(TimestampTest, TwoWayMaybePegRespectsInterval) {
  TwoWayPegging pegging(&tsa_, &clock_, kMicrosPerSecond);
  EXPECT_TRUE(pegging.MaybePeg(D("r1")));
  EXPECT_FALSE(pegging.MaybePeg(D("r2")));  // too soon
  clock_.Advance(kMicrosPerSecond);
  EXPECT_TRUE(pegging.MaybePeg(D("r3")));
  EXPECT_EQ(pegging.anchored().size(), 2u);
}

TEST_F(TimestampTest, TwoWayAnchorCallbackFires) {
  TwoWayPegging pegging(&tsa_, &clock_, kMicrosPerSecond);
  static int calls = 0;
  calls = 0;
  pegging.SetAnchorCallback(
      [](void*, const TimeAttestation&) { ++calls; }, nullptr);
  pegging.Peg(D("r"));
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// T-Ledger
// ---------------------------------------------------------------------------

class TLedgerTest : public TimestampTest {
 protected:
  TLedgerTest()
      : tledger_(&tsa_, &clock_, KeyPair::FromSeedString("tledger-lsp"), {}) {}

  TLedger tledger_;
};

TEST_F(TLedgerTest, AcceptsFreshSubmissions) {
  TLedgerReceipt receipt;
  ASSERT_TRUE(tledger_.Submit(D("d1"), clock_.Now(), &receipt).ok());
  EXPECT_EQ(receipt.index, 0u);
  EXPECT_TRUE(tledger_.VerifyReceipt(D("d1"), receipt));
  EXPECT_EQ(tledger_.submission_count(), 1u);
}

TEST_F(TLedgerTest, RejectsStaleSubmissions) {
  // Protocol 4: τ_t >= τ_c + τ_Δ is rejected — this is what removes the
  // amplification attack.
  Timestamp tau_c = clock_.Now();
  clock_.Advance(600 * kMicrosPerMilli);  // default tau_delta is 500ms
  TLedgerReceipt receipt;
  EXPECT_TRUE(tledger_.Submit(D("stale"), tau_c, &receipt).IsTimestampRejected());
  EXPECT_EQ(tledger_.rejected_count(), 1u);
}

TEST_F(TLedgerTest, ReceiptSignatureBindsAllFields) {
  TLedgerReceipt receipt;
  ASSERT_TRUE(tledger_.Submit(D("d"), clock_.Now(), &receipt).ok());
  EXPECT_FALSE(tledger_.VerifyReceipt(D("other"), receipt));
  TLedgerReceipt forged = receipt;
  forged.tledger_ts += 1;
  EXPECT_FALSE(tledger_.VerifyReceipt(D("d"), forged));
}

TEST_F(TLedgerTest, TickFinalizesAfterInterval) {
  TLedgerReceipt receipt;
  ASSERT_TRUE(tledger_.Submit(D("d"), clock_.Now(), &receipt).ok());
  EXPECT_FALSE(tledger_.Tick());  // interval not yet elapsed
  clock_.Advance(kMicrosPerSecond);
  EXPECT_TRUE(tledger_.Tick());
  EXPECT_EQ(tledger_.finalization_count(), 1u);
  // Nothing new: next tick is a no-op.
  clock_.Advance(kMicrosPerSecond);
  EXPECT_FALSE(tledger_.Tick());
}

TEST_F(TLedgerTest, TimeProofRoundTrip) {
  TLedgerReceipt receipt;
  ASSERT_TRUE(tledger_.Submit(D("doc"), clock_.Now(), &receipt).ok());
  TimeProof proof;
  EXPECT_TRUE(tledger_.GetTimeProof(receipt.index, &proof).IsNotFound());
  tledger_.ForceFinalize();
  ASSERT_TRUE(tledger_.GetTimeProof(receipt.index, &proof).ok());
  EXPECT_TRUE(TLedger::VerifyTimeProof(D("doc"), proof, tsa_.public_key()));
  EXPECT_FALSE(TLedger::VerifyTimeProof(D("forged"), proof, tsa_.public_key()));
}

TEST_F(TLedgerTest, TimeProofBindsToEarliestCoveringFinalization) {
  TLedgerReceipt r1, r2;
  ASSERT_TRUE(tledger_.Submit(D("early"), clock_.Now(), &r1).ok());
  tledger_.ForceFinalize();
  Timestamp first_fin_time = clock_.Now();
  clock_.Advance(5 * kMicrosPerSecond);
  ASSERT_TRUE(tledger_.Submit(D("late"), clock_.Now(), &r2).ok());
  tledger_.ForceFinalize();

  TimeProof proof;
  ASSERT_TRUE(tledger_.GetTimeProof(r1.index, &proof).ok());
  // The early digest's evidence is the first finalization — it proves
  // existence at the earlier time, not the later one.
  EXPECT_EQ(proof.finalization.timestamp, first_fin_time);
  EXPECT_TRUE(TLedger::VerifyTimeProof(D("early"), proof, tsa_.public_key()));
}

TEST_F(TLedgerTest, ManySubmissionsAllProvable) {
  std::vector<TLedgerReceipt> receipts(50);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        tledger_.Submit(D("d" + std::to_string(i)), clock_.Now(), &receipts[i])
            .ok());
    clock_.Advance(10 * kMicrosPerMilli);
    tledger_.Tick();
  }
  tledger_.ForceFinalize();
  for (int i = 0; i < 50; ++i) {
    TimeProof proof;
    ASSERT_TRUE(tledger_.GetTimeProof(receipts[i].index, &proof).ok()) << i;
    EXPECT_TRUE(TLedger::VerifyTimeProof(D("d" + std::to_string(i)), proof,
                                         tsa_.public_key()))
        << i;
  }
  // T-Ledger amortizes TSA traffic: far fewer endorsements than
  // submissions.
  EXPECT_LT(tsa_.endorsement_count(), 10u);
}

TEST_F(TLedgerTest, InterleavedClientsShareFinalizations) {
  // Two ledgers submit alternately; one finalization covers both, and each
  // submission's proof verifies independently.
  TLedgerReceipt ra, rb;
  ASSERT_TRUE(tledger_.Submit(D("ledger-a-root"), clock_.Now(), &ra).ok());
  clock_.Advance(100 * kMicrosPerMilli);
  ASSERT_TRUE(tledger_.Submit(D("ledger-b-root"), clock_.Now(), &rb).ok());
  tledger_.ForceFinalize();
  EXPECT_EQ(tledger_.finalization_count(), 1u);
  TimeProof pa, pb;
  ASSERT_TRUE(tledger_.GetTimeProof(ra.index, &pa).ok());
  ASSERT_TRUE(tledger_.GetTimeProof(rb.index, &pb).ok());
  EXPECT_TRUE(TLedger::VerifyTimeProof(D("ledger-a-root"), pa, tsa_.public_key()));
  EXPECT_TRUE(TLedger::VerifyTimeProof(D("ledger-b-root"), pb, tsa_.public_key()));
  // Cross-wiring digests fails.
  EXPECT_FALSE(TLedger::VerifyTimeProof(D("ledger-b-root"), pa, tsa_.public_key()));
}

TEST_F(TLedgerTest, ProofAgainstWrongFinalizationRejected) {
  TLedgerReceipt r1, r2;
  ASSERT_TRUE(tledger_.Submit(D("one"), clock_.Now(), &r1).ok());
  tledger_.ForceFinalize();
  ASSERT_TRUE(tledger_.Submit(D("two"), clock_.Now(), &r2).ok());
  tledger_.ForceFinalize();
  TimeProof p1, p2;
  ASSERT_TRUE(tledger_.GetTimeProof(r1.index, &p1).ok());
  ASSERT_TRUE(tledger_.GetTimeProof(r2.index, &p2).ok());
  // Splicing the newer attestation onto the older membership proof fails:
  // the proof's tree size must equal the attested finalized size.
  TimeProof spliced = p1;
  spliced.finalization = p2.finalization;
  spliced.finalized_size = p2.finalized_size;
  EXPECT_FALSE(TLedger::VerifyTimeProof(D("one"), spliced, tsa_.public_key()));
}

// ---------------------------------------------------------------------------
// Attack simulations (Figure 5 semantics)
// ---------------------------------------------------------------------------

TEST(AttackSimTest, OneWayWindowGrowsWithDelay) {
  Timestamp dt = kMicrosPerSecond;
  auto r1 = SimulateOneWayAttack(dt, 10 * kMicrosPerSecond);
  auto r2 = SimulateOneWayAttack(dt, 100 * kMicrosPerSecond);
  EXPECT_FALSE(r1.bounded);
  EXPECT_GT(r2.window, r1.window);            // amplification is unbounded
  EXPECT_GE(r1.window, 10 * kMicrosPerSecond);
}

TEST(AttackSimTest, TwoWayWindowSaturatesAtTwoDeltaTau) {
  Timestamp dt = kMicrosPerSecond;
  auto r1 = SimulateTwoWayAttack(dt, 10 * kMicrosPerSecond);
  auto r2 = SimulateTwoWayAttack(dt, 1000 * kMicrosPerSecond);
  EXPECT_TRUE(r1.bounded);
  EXPECT_EQ(r1.window, r2.window);  // saturated
  EXPECT_LE(r1.window, 2 * dt);
}

TEST(AttackSimTest, TwoWaySmallDelayNotAmplified) {
  Timestamp dt = kMicrosPerSecond;
  auto r = SimulateTwoWayAttack(dt, 100 * kMicrosPerMilli);
  EXPECT_EQ(r.window, 100 * kMicrosPerMilli);
}

TEST(AttackSimTest, TLedgerRejectsStallsAndBoundsWindow) {
  Timestamp dt = kMicrosPerSecond;
  Timestamp tau_delta = 500 * kMicrosPerMilli;
  auto r = SimulateTLedgerAttack(dt, tau_delta, 60 * kMicrosPerSecond);
  EXPECT_TRUE(r.bounded);
  EXPECT_GT(r.rejections, 0u);            // the stalled submission bounced
  EXPECT_LE(r.window, tau_delta + dt);    // ≈ τ_Δ + Δτ ≈ 1.5s < 2s
}

TEST(AttackSimTest, TLedgerHonestSubmissionUnaffected) {
  Timestamp dt = kMicrosPerSecond;
  auto r = SimulateTLedgerAttack(dt, 500 * kMicrosPerMilli, 0);
  EXPECT_TRUE(r.bounded);
  EXPECT_EQ(r.rejections, 0u);
  EXPECT_LE(r.window, dt + 500 * kMicrosPerMilli);
}

TEST(AttackSimTest, RejectionAccountingTracksStalling) {
  Timestamp dt = kMicrosPerSecond;
  Timestamp tau_delta = 500 * kMicrosPerMilli;
  // Inside τ_Δ nothing bounces; past it, exactly the stalled submission.
  auto fresh = SimulateTLedgerAttack(dt, tau_delta, tau_delta / 2);
  EXPECT_EQ(fresh.rejections, 0u);
  auto stalled = SimulateTLedgerAttack(dt, tau_delta, 2 * tau_delta);
  EXPECT_EQ(stalled.rejections, 1u);
  // Two-way pegging never rejects — it bounds the window by anchoring.
  auto twoway = SimulateTwoWayAttack(dt, 2 * tau_delta);
  EXPECT_EQ(twoway.rejections, 0u);
}

TEST(AttackSimTest, WindowSaturationSweepAsDelayGrows) {
  Timestamp dt = kMicrosPerSecond;
  Timestamp tau_delta = 500 * kMicrosPerMilli;
  Timestamp prev_twoway = 0;
  bool tledger_rejected_before = false;
  for (Timestamp delay = 0; delay <= 64 * kMicrosPerSecond;
       delay = delay == 0 ? kMicrosPerSecond : delay * 4) {
    auto twoway = SimulateTwoWayAttack(dt, delay);
    EXPECT_TRUE(twoway.bounded);
    EXPECT_GE(twoway.window, prev_twoway);  // monotone in the delay…
    EXPECT_LE(twoway.window, 2 * dt);       // …but saturated at 2·Δτ
    prev_twoway = twoway.window;

    auto tl = SimulateTLedgerAttack(dt, tau_delta, delay);
    EXPECT_TRUE(tl.bounded);
    EXPECT_LE(tl.window, tau_delta + dt);   // saturated at τ_Δ + Δτ
    // Once the delay exceeds τ_Δ the protocol starts bouncing, and keeps
    // bouncing for every longer stall (rejection is monotone).
    if (delay >= tau_delta) {
      EXPECT_GT(tl.rejections, 0u);
    }
    if (tledger_rejected_before) {
      EXPECT_GT(tl.rejections, 0u);
    }
    tledger_rejected_before = tl.rejections > 0;
  }
}

// The transport-level version of the stall: a Byzantine network delays the
// append exchange past τ_Δ. The client masks the delay by retrying (the
// server dedups the resubmission), but the LSP's attempt to peg the root
// at the journal's creation time is now stale and T-Ledger bounces it —
// the adversary cannot buy itself an unbounded tamper window.
TEST(AttackSimTest, TransportDelayInjectionIsBoundedByTLedger) {
  SimulatedClock clock(1000000);
  KeyPair tsa_key = KeyPair::FromSeedString("byz-time-tsa");
  TsaService tsa(tsa_key, &clock);
  TLedger::Options topt;
  topt.tau_delta = 500 * kMicrosPerMilli;
  topt.finalize_interval = kMicrosPerSecond;
  TLedger tledger(&tsa, &clock, KeyPair::FromSeedString("byz-time-tl"), topt);

  KeyPair lsp = KeyPair::FromSeedString("byz-time-lsp");
  KeyPair alice = KeyPair::FromSeedString("byz-time-alice");
  LedgerOptions lopt;
  lopt.fractal_height = 3;
  lopt.block_capacity = 4;
  Ledger ledger("lg://byz-time", lopt, &clock, lsp, nullptr);
  LocalTransport local(&ledger);
  ByzantineTransport byz(&local, 2026);
  byz.SetDelayClock(&clock, topt.tau_delta + 100 * kMicrosPerMilli);
  byz.InjectFault(RpcOp::kAppendTx, 0, FaultKind::kDelay);

  LedgerClient::Options copts;
  copts.lsp_key = lsp.public_key();
  copts.fractal_height = lopt.fractal_height;
  LedgerClient client(&byz, alice, copts);

  Timestamp tau_c = clock.Now();
  uint64_t jsn = 0;
  ASSERT_TRUE(client.AppendVerified(StringToBytes("doc"), {}, &jsn).ok());
  EXPECT_GT(byz.faults_injected(), 0u);
  // Pegging at the pre-delay creation time is rejected as stale…
  TLedgerReceipt receipt;
  EXPECT_TRUE(
      tledger.Submit(ledger.FamRoot(), tau_c, &receipt).IsTimestampRejected());
  EXPECT_EQ(tledger.rejected_count(), 1u);
  // …and re-pegging with a fresh τ_c succeeds, provably, within τ_Δ + Δτ.
  Timestamp retry_at = clock.Now();
  ASSERT_TRUE(tledger.Submit(ledger.FamRoot(), retry_at, &receipt).ok());
  clock.Advance(topt.finalize_interval);
  tledger.Tick();
  TimeProof proof;
  ASSERT_TRUE(tledger.GetTimeProof(receipt.index, &proof).ok());
  EXPECT_TRUE(
      TLedger::VerifyTimeProof(ledger.FamRoot(), proof, tsa.public_key()));
  EXPECT_LE(clock.Now() - retry_at, topt.tau_delta + topt.finalize_interval);
}

}  // namespace
}  // namespace ledgerdb
