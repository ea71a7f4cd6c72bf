// Metrics-name lint (tier-1): every metric this codebase registers must
// follow the `ledgerdb_{subsystem}_{name}_{unit}` convention, appear in the
// obs::names catalog, and register under exactly one kind. The test drives
// real code paths across the storage, retry, and net planes so the check
// covers what production sites actually register, not just the catalog
// constants.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "client/ledger_client.h"
#include "common/retry.h"
#include "net/byzantine_transport.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "net/transport.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "storage/stream_store.h"

namespace ledgerdb {
namespace {

bool IsLowerAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
}

/// ledgerdb_{subsystem}_{name}_{unit}; unit is one of the four the obs
/// subsystem documents. Subsystem and name segments are lowercase
/// alphanumeric words joined by single underscores.
bool MatchesNameConvention(std::string_view name) {
  constexpr std::string_view kPrefix = "ledgerdb_";
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  std::vector<std::string_view> segments;
  std::string_view rest = name.substr(kPrefix.size());
  while (true) {
    const size_t cut = rest.find('_');
    segments.push_back(rest.substr(0, cut));
    if (cut == std::string_view::npos) break;
    rest.remove_prefix(cut + 1);
  }
  for (std::string_view segment : segments) {
    if (segment.empty()) return false;
    for (char c : segment) {
      if (!IsLowerAlnum(c)) return false;
    }
  }
  const std::string_view unit = segments.back();
  return segments.size() >= 2 &&
         (unit == "total" || unit == "us" || unit == "bytes" ||
          unit == "count");
}

/// One {key="value"} clause; keys are lowercase identifiers, values may
/// carry the CamelCase enum names the net plane reports.
bool MatchesLabelConvention(std::string_view clause) {
  if (clause.size() < 2 || clause.front() != '{' || clause.back() != '}') {
    return false;
  }
  clause = clause.substr(1, clause.size() - 2);
  const size_t eq = clause.find("=\"");
  if (eq == std::string_view::npos) return false;
  const std::string_view key = clause.substr(0, eq);
  if (key.empty() || key[0] < 'a' || key[0] > 'z') return false;
  for (char c : key) {
    if (!IsLowerAlnum(c) && c != '_') return false;
  }
  std::string_view value = clause.substr(eq + 2);
  if (value.size() < 2 || value.back() != '"') return false;
  value.remove_suffix(1);
  for (char c : value) {
    const bool ok = (c >= 'A' && c <= 'Z') || IsLowerAlnum(c) || c == '_' ||
                    c == '.' || c == ':' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Splits a registered series into base name + optional label clause and
/// EXPECTs both halves to pass the convention.
void LintSeries(const std::string& series,
                const std::set<std::string>& catalog) {
  size_t brace = series.find('{');
  std::string base =
      brace == std::string::npos ? series : series.substr(0, brace);
  EXPECT_TRUE(MatchesNameConvention(base))
      << "series violates naming convention: " << series;
  EXPECT_TRUE(catalog.count(base) == 1)
      << "series not in obs::names catalog: " << series;
  if (brace != std::string::npos) {
    EXPECT_TRUE(MatchesLabelConvention(series.substr(brace)))
        << "series has malformed label clause: " << series;
  }
}

/// Honest no-op transport: enough surface for ByzantineTransport to count
/// RPCs and fire scheduled faults without standing up a full ledger.
class StubTransport : public LedgerTransport {
 public:
  Status AppendTx(const ClientTransaction&, uint64_t* jsn) override {
    *jsn = next_jsn_++;
    return Status::OK();
  }
  Status GetReceipt(uint64_t, Receipt*) override { return Status::OK(); }
  Status GetJournal(uint64_t, Journal*) override { return Status::OK(); }
  Status GetProof(uint64_t, FamProof*) override { return Status::OK(); }
  Status GetClueProof(const std::string&, uint64_t, uint64_t,
                      ClueProof*) override {
    return Status::OK();
  }
  Status ListTx(const std::string&, std::vector<uint64_t>*) override {
    return Status::OK();
  }
  Status GetCommitment(SignedCommitment*) override { return Status::OK(); }
  Status GetDelta(uint64_t, uint64_t, std::vector<JournalDelta>*) override {
    return Status::OK();
  }
  Status GetProofBatch(const std::vector<uint64_t>&,
                       FamBatchProof*) override {
    return Status::OK();
  }
  Status ProveClueRange(const std::string&, Timestamp, Timestamp,
                        ClueRangeResult*) override {
    return Status::OK();
  }
  const std::string& uri() const override { return uri_; }

 private:
  uint64_t next_jsn_ = 1;
  std::string uri_ = "lg://lint-stub";
};

/// Drives the storage plane far enough to register every
/// ledgerdb_storage_* series in the default registry: appends, fsyncs, an
/// overwrite, a reopen scan, and one injected transient fault (which also
/// registers the labeled fault counter and the retry series).
void ExerciseStorageObs() {
  MemEnv mem;
  {
    FaultEnv env(&mem, /*seed=*/0x11A7);
    env.ScheduleFault(5, StorageFaultKind::kTransientError);
    std::unique_ptr<FileStreamStore> store;
    if (!FileStreamStore::Open(&env, "lint-exercise.log", &store).ok()) {
      return;
    }
    uint64_t idx = 0;
    store->Append(Slice(std::string_view("lint-record-a")), &idx).ok();
    store->Append(Slice(std::string_view("lint-record-b")), &idx).ok();
    // One group commit so the ledgerdb_storage_group_commit_* series
    // register too.
    std::vector<Slice> group = {Slice(std::string_view("lint-group-a")),
                                Slice(std::string_view("lint-group-b"))};
    uint64_t first = 0;
    store->AppendBatch(group, &first).ok();
    store->Overwrite(idx, Slice(std::string_view("lint-redacted"))).ok();
  }
  // Reopen through the clean env so the recovery scan runs too.
  std::unique_ptr<FileStreamStore> reopened;
  FileStreamStore::Open(&mem, "lint-exercise.log", &reopened).ok();
}

/// Drives the net plane: a few RPCs through ByzantineTransport with two
/// scheduled faults, registering the per-op and per-kind labeled counters.
void ExerciseNetObs() {
  StubTransport stub;
  ByzantineTransport transport(&stub, /*seed=*/0x11A7);
  transport.InjectFault(RpcOp::kAppendTx, 1, FaultKind::kTransientError);
  transport.InjectFault(RpcOp::kGetReceipt, 0, FaultKind::kDrop);
  ClientTransaction tx;
  uint64_t jsn = 0;
  transport.AppendTx(tx, &jsn).ok();
  transport.AppendTx(tx, &jsn).ok();  // fault fires here
  Receipt receipt;
  transport.GetReceipt(1, &receipt).ok();  // dropped
  SignedCommitment commitment;
  transport.GetCommitment(&commitment).ok();
}

/// Drives the proof-cache plane end to end: a cache-enabled ledger serves
/// the same clue range twice through the batched proof path, registering
/// the proofcache hit/miss counters, the resident-bytes gauge, and the
/// ledger/client batch-proof series.
void ExerciseProofCacheObs() {
  SimulatedClock clock(0);
  CertificateAuthority ca(KeyPair::FromSeedString("lint-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("lint-lsp");
  KeyPair user = KeyPair::FromSeedString("lint-user");
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
  registry.Register(ca.Certify("user", user.public_key(), Role::kUser));
  LedgerOptions options;
  options.fractal_height = 2;  // seals quickly: sealed-epoch cache engages
  options.block_capacity = 4;
  Ledger ledger("lg://lint-cache", options, &clock, lsp, &registry);
  LocalTransport transport(&ledger);
  LedgerClient::Options copts;
  copts.lsp_key = lsp.public_key();
  copts.fractal_height = options.fractal_height;
  LedgerClient client(&transport, user, copts);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(client
                    .AppendVerified(StringToBytes("pc-" + std::to_string(i)),
                                    {"pc"}, nullptr)
                    .ok());
  }
  EXPECT_TRUE(client.RefreshTrustedRoots().ok());
  std::vector<Journal> journals;
  Timestamp to = clock.Now() + 1;
  EXPECT_TRUE(client.BatchAuditRange("pc", 0, to, &journals).ok());
  EXPECT_TRUE(client.BatchAuditRange("pc", 0, to, &journals).ok());  // hits
  EXPECT_GT(ledger.ProofCacheStats().hits, 0u);
}

/// Drives the socket service plane: a real LedgerServer and SocketTransport
/// exchange RPCs over a unix socket, registering the ledgerdb_server_*
/// gauges/counters/labeled histograms and the socket-side ledgerdb_net_*
/// series.
void ExerciseServerObs() {
  SimulatedClock clock(0);
  CertificateAuthority ca(KeyPair::FromSeedString("lint-srv-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("lint-srv-lsp");
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
  LedgerOptions options;
  options.fractal_height = 2;
  options.block_capacity = 4;
  Ledger ledger("lg://lint-srv", options, &clock, lsp, &registry);

  LedgerServer::Options sopts;
  sopts.unix_path = ::testing::TempDir() + "/lds_lint.sock";
  LedgerServer server(&ledger, sopts);
  ASSERT_TRUE(server.Start().ok());
  SocketTransport transport(server.address(), "lg://lint-srv");
  SignedCommitment commitment;
  EXPECT_TRUE(transport.GetCommitment(&commitment).ok());
  Journal journal;
  EXPECT_TRUE(transport.GetJournal(10'000, &journal).IsNotFound());
  server.Stop();
}

/// Drives RetryTransient through its three terminal shapes so every
/// ledgerdb_retry_* series registers.
void ExerciseRetryObs() {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int failures_left = 2;
  Status eventually_ok = RetryTransient(policy, [&] {
    return failures_left-- > 0 ? Status::TransientIO("lint") : Status::OK();
  });
  EXPECT_TRUE(eventually_ok.ok());
  Status exhausted =
      RetryTransient(policy, [] { return Status::TransientIO("lint"); });
  EXPECT_FALSE(exhausted.ok());
}

TEST(MetricNameLint, CatalogMatchesNamingConvention) {
  for (size_t i = 0; i < obs::names::kAllCount; ++i) {
    EXPECT_TRUE(MatchesNameConvention(obs::names::kAll[i]))
        << "catalog name violates convention: " << obs::names::kAll[i];
  }
}

TEST(MetricNameLint, ConventionMatchersAcceptAndReject) {
  for (const char* good :
       {"ledgerdb_server_lock_wait_us", "ledgerdb_a_total", "ledgerdb_x1_count",
        "ledgerdb_storage_write_bytes"}) {
    EXPECT_TRUE(MatchesNameConvention(good)) << good;
  }
  for (const char* bad :
       {"ledgerdb_us", "ledgerdb__a_us", "ledgerdb_a__us", "ledgerdb_a_us_",
        "ledgerdb_A_us", "ledgerdb_a_ms", "ledger_a_us", "xledgerdb_a_us",
        "ledgerdb_a-b_us", "ledgerdb_a_total{op=\"x\"}", ""}) {
    EXPECT_FALSE(MatchesNameConvention(bad)) << bad;
  }
  for (const char* good : {"{op=\"AppendTx\"}", "{kind_2=\"a.b:c-d_E\"}"}) {
    EXPECT_TRUE(MatchesLabelConvention(good)) << good;
  }
  for (const char* bad :
       {"{Op=\"x\"}", "{_op=\"x\"}", "{op=\"\"}", "{op=x}", "{op=\"x\"",
        "op=\"x\"}", "{op=\"a b\"}", "{=\"x\"}", "{op=\"x\"}{", "{}"}) {
    EXPECT_FALSE(MatchesLabelConvention(bad)) << bad;
  }
}

TEST(MetricNameLint, CatalogHasNoDuplicates) {
  std::set<std::string> seen;
  for (size_t i = 0; i < obs::names::kAllCount; ++i) {
    EXPECT_TRUE(seen.insert(obs::names::kAll[i]).second)
        << "duplicate catalog entry: " << obs::names::kAll[i];
  }
}

TEST(MetricNameLint, ExercisedSeriesPassLintAndRegisterOnce) {
#if defined(LEDGERDB_OBS_OFF)
  GTEST_SKIP() << "instrumentation compiled out: no series to lint";
#endif
  ExerciseStorageObs();
  ExerciseNetObs();
  ExerciseServerObs();
  ExerciseRetryObs();
  ExerciseProofCacheObs();

  std::set<std::string> catalog;
  for (size_t i = 0; i < obs::names::kAllCount; ++i) {
    catalog.insert(obs::names::kAll[i]);
  }

  obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  ASSERT_FALSE(snap.empty()) << "exercises registered no metrics";
  for (const auto& [name, value] : snap.counters) LintSeries(name, catalog);
  for (const auto& [name, value] : snap.gauges) LintSeries(name, catalog);
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    LintSeries(h.name, catalog);
  }

  // Double-registration check: no instrumentation site may have requested
  // an already-registered name under a different kind.
  EXPECT_TRUE(obs::MetricsRegistry::Default().Conflicts().empty());

  // The exercises must have reached all three planes.
  auto has_prefix = [&](const std::string& prefix) {
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_prefix("ledgerdb_storage_"));
  EXPECT_TRUE(has_prefix("ledgerdb_net_"));
  EXPECT_TRUE(has_prefix("ledgerdb_server_"));
  EXPECT_TRUE(has_prefix("ledgerdb_retry_"));
  EXPECT_TRUE(has_prefix("ledgerdb_proofcache_"));
  EXPECT_TRUE(has_prefix("ledgerdb_client_"));
}

// ---------------------------------------------------------------------------
// RetryStats accounting (satellite of the same PR; retry.h is already in
// this TU's include set)
// ---------------------------------------------------------------------------

TEST(RetryStatsTest, SuccessAfterRetriesCountsAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  RetryStats stats;
  int failures_left = 2;
  Status s = RetryTransient(
      policy,
      [&] {
        return failures_left-- > 0 ? Status::TransientIO("flaky")
                                   : Status::OK();
      },
      &stats);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_FALSE(stats.exhausted);
}

TEST(RetryStatsTest, FirstTrySuccessIsOneAttempt) {
  RetryStats stats;
  Status s = RetryTransient(RetryPolicy{}, [] { return Status::OK(); },
                            &stats);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.backoff_us, 0u);
}

TEST(RetryStatsTest, ExhaustionReportsAttemptsInError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryStats stats;
  Status s = RetryTransient(
      policy, [] { return Status::TransientIO("stuck"); }, &stats);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsRetriable()) << "transient must not escape the boundary";
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_NE(s.message().find("3 of 3 attempts"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("stuck"), std::string::npos) << s.message();
}

TEST(RetryStatsTest, NonRetriableErrorStopsImmediately) {
  RetryStats stats;
  Status s = RetryTransient(
      RetryPolicy{}, [] { return Status::Corruption("bad frame"); }, &stats);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_FALSE(stats.exhausted);
}

}  // namespace
}  // namespace ledgerdb
