// Served, durable ledger benchmark.
//
// One process hosts a real LedgerServer over a unix socket on a durable
// FileStreamStore image (journal + block streams through Env::Default(),
// every fsync the program issues counted) and drives it with four
// LedgerClients, one connection and thread each. Workloads:
//
//   notarize  closed loop, 100% AppendVerified (256 B payloads, Zipf(0.99)
//             clues over 1024). The write path: client sign, server
//             prevalidate, commit/seal, receipt round trip.
//   audit     closed loop, read-only on a 32k-journal preloaded image:
//             75% FetchAndVerifyJournal on uniform jsns, 25%
//             BatchAuditRange over a ~1024-journal time window anchored at
//             an existing entry of a Zipf clue. Proof build, proof cache,
//             client-side verification.
//
// ops_per_s, p50_ms and p99_ms come from the main phase, as medians over
// consecutive stretches of it (SteadyRate, SteadyPercentile).
//
// With --trace 1 the same run adds the outside-in decorators of
// decorators.h and reports per-layer metrics instead. Ops the workload's
// mix does not run (verifies and range audits on notarize, appends on
// audit, occult and purge on both) are then timed in a short closed-loop
// probe after the main phase, so their per-layer metrics are defined.
//
// The result is one JSON line on stdout; progress goes to stderr. Any
// integrity failure (VerificationFailed not explained by stale roots,
// Corruption, a recovered image that disagrees with the acknowledged
// appends or the signed commitment) makes the run report correct=false and
// exit non-zero.

#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/ledger_client.h"
#include "common/random.h"
#include "ledger/ledger.h"
#include "ledger/members.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench/decorators.h"

namespace perfbench {
namespace {

constexpr int kClients = 4;
constexpr uint64_t kNumClues = 1024;
constexpr size_t kPayloadBytes = 256;
constexpr Timestamp kTickUs = 1000;              // clock advance per append
constexpr Timestamp kWindowUs = 1024 * kTickUs;  // range-audit window
// fam epochs of 1024 journals: the audit image spans 32 sealed epochs, so
// its proof working set is about four times the default 8 MiB cache.
constexpr int kFractalHeight = 10;
constexpr uint64_t kPurgeStep = 4;  // journals erased per purge
// A verifying client re-pins and retries until one attempt's proof matches
// its pin; with appends every few milliseconds several attempts can lose
// the race, so it gives up only after this many.
constexpr int kMaxAuditAttempts = 32;
constexpr double kFailedLatencyUs = 5'000'000;  // = request deadline

enum Op : int { kAppend = 0, kVerify, kRange, kOccult, kPurge, kOps };
const char* const kOpNames[kOps] = {"append", "verify", "range", "occult",
                                    "purge"};

struct WorkloadSpec {
  const char* name;
  uint64_t preload;        // journals written in-process before serving
  uint64_t purge_reserve;  // oldest preload journals admin ops may purge
  double ops_per_second;   // op count = this x --seconds
  int weight[kOps];        // op mix in percent
  // Repetitions behind the medians of short measurements: set-ups, and
  // first pins and recoveries of the final image. Cheap ones repeat more;
  // a single-threaded timing of about a second varies by about 10% on a
  // shared host, so those take a median of seven.
  int setup_reps;
  int final_reps;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"notarize", 256, 256, 2048, {100, 0, 0, 0, 0}, 15, 7},
    {"audit", 32768, 256, 1792, {0, 75, 25, 0, 0}, 3, 7},
};

// Steady statistics (SteadyPercentile, SteadyRate): a phase is cut into
// at most this many consecutive stretches and the median over them is
// reported, so a burst of interference from the shared host moves one
// stretch rather than the result.
constexpr size_t kMaxChunks = 10;
constexpr size_t kChunkMin = 200;     // samples per percentile chunk
constexpr double kChunkTail = 10;     // samples beyond the percentile

// Ops timed in the probe phase when the mix lacks them.
constexpr uint64_t kProbeOps = 1024;
constexpr uint64_t kProbeAdminOps = 128;  // purges take 4 x 32 journals

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  bool proof_cache = true;
  uint64_t service_delay_us = 0;
  bool quick = false;  // small images and probes, for the smoke check
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "ledger_bench: %s\nusage: ledger_bench --workload "
               "notarize|audit --seed N --seconds S --trace 0|1 --data "
               "DIR [--no-proof-cache] [--service-delay-us N] [--quick]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      std::string w = val();
      for (const WorkloadSpec& s : kWorkloads) {
        if (w == s.name) a.spec = &s;
      }
      if (a.spec == nullptr) Usage(("unknown workload " + w).c_str());
    } else if (k == "--seed") {
      a.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(val().c_str());
    } else if (k == "--trace") {
      a.trace = val() == "1";
    } else if (k == "--data") {
      a.data_dir = val();
    } else if (k == "--no-proof-cache") {
      a.proof_cache = false;
    } else if (k == "--service-delay-us") {
      a.service_delay_us = std::strtoull(val().c_str(), nullptr, 10);
    } else if (k == "--quick") {
      a.quick = true;
    } else {
      Usage(("unknown argument " + k).c_str());
    }
  }
  if (a.spec == nullptr || a.data_dir.empty() || a.seconds <= 0) {
    Usage("--workload, --data and a positive --seconds are required");
  }
  return a;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Filesystem type of `path`, from statfs(2) magic numbers.
std::string FilesystemType(const std::string& path) {
  struct statfs st;
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

double SecondsSince(uint64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) / 1e9;
}

/// Appends to a named string rather than `"lit" + std::to_string(i)`,
/// which GCC 12 flags with a false -Wrestrict.
std::string Named(const char* prefix, uint64_t i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

std::string ClueName(uint64_t i) { return Named("c", i); }

// ---------------------------------------------------------------------------
// Identities: LSP, admin signers, the preload signers and one user per client.
// ---------------------------------------------------------------------------

struct Identities {
  CertificateAuthority ca{KeyPair::FromSeedString("perfbench-ca")};
  MemberRegistry registry{&ca};
  KeyPair lsp{KeyPair::FromSeedString("perfbench-lsp")};
  KeyPair dba{KeyPair::FromSeedString("perfbench-dba")};
  KeyPair regulator{KeyPair::FromSeedString("perfbench-regulator")};
  std::vector<KeyPair> loaders;  // sign the preloaded journals
  std::vector<KeyPair> users;    // one per client connection

  Identities() {
    registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
    registry.Register(ca.Certify("dba", dba.public_key(), Role::kDba));
    registry.Register(
        ca.Certify("regulator", regulator.public_key(), Role::kRegulator));
    for (int i = 0; i < kClients; ++i) {
      loaders.push_back(KeyPair::FromSeedString(Named("perfbench-l", i)));
      users.push_back(KeyPair::FromSeedString(Named("perfbench-u", i)));
      registry.Register(ca.Certify(Named("l", i), loaders.back().public_key(),
                                   Role::kUser));
      registry.Register(ca.Certify(Named("u", i), users.back().public_key(),
                                   Role::kUser));
    }
  }

  std::vector<Endorsement> OccultEndorsements(const std::string& uri,
                                              uint64_t jsn) const {
    Digest req = Ledger::OccultRequestHash(uri, jsn);
    return {{dba.public_key(), dba.Sign(req)},
            {regulator.public_key(), regulator.Sign(req)}};
  }

  /// DBA plus every signer that owns journals: satisfies "every owner in
  /// range" whoever appended what.
  std::vector<Endorsement> PurgeEndorsements(const std::string& uri,
                                             uint64_t before_jsn) const {
    Digest req = Ledger::PurgeRequestHash(uri, before_jsn);
    std::vector<Endorsement> out = {{dba.public_key(), dba.Sign(req)}};
    for (const auto* set : {&loaders, &users}) {
      for (const KeyPair& k : *set) out.push_back({k.public_key(), k.Sign(req)});
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Image: the durable ledger on its two stream files.
// ---------------------------------------------------------------------------

class Image {
 public:
  Image(const Identities* ids, LedgerOptions options, std::string dir,
        BenchClock* clock, bool count_streams)
      : ids_(ids),
        options_(options),
        dir_(std::move(dir)),
        clock_(clock),
        count_streams_(count_streams) {}

  Status Create() {
    LEDGERDB_RETURN_IF_ERROR(OpenStores());
    ledger_ = std::make_unique<Ledger>(kUri, options_, clock_, ids_->lsp,
                                       &ids_->registry, Storage());
    return ledger_->init_status();
  }

  /// Rebuilds the ledger from the stream files; `secs` gets the time spent
  /// in Ledger::Recover alone.
  Status Recover(double* secs) {
    LEDGERDB_RETURN_IF_ERROR(OpenStores());
    const uint64_t t0 = NowNs();
    Status st = Ledger::Recover(kUri, options_, clock_, ids_->lsp,
                                &ids_->registry, Storage(), &ledger_);
    if (secs != nullptr) *secs = SecondsSince(t0);
    return st;
  }

  void Close() {
    ledger_.reset();
    counting_journals_.reset();
    counting_blocks_.reset();
    journals_.reset();
    blocks_.reset();
  }

  uint64_t FileBytes() const {
    uint64_t total = 0;
    for (const char* f : {"/journals.log", "/blocks.log"}) {
      std::error_code ec;
      uint64_t n = std::filesystem::file_size(dir_ + f, ec);
      if (!ec) total += n;
    }
    return total;
  }

  Ledger* ledger() { return ledger_.get(); }
  BenchEnv& env() { return env_; }
  CountingStreamStore* counting_journals() { return counting_journals_.get(); }
  CountingStreamStore* counting_blocks() { return counting_blocks_.get(); }
  const LedgerOptions& options() const { return options_; }

  static constexpr const char* kUri = "ledger://perfbench";

 private:
  Status OpenStores() {
    Close();
    LEDGERDB_RETURN_IF_ERROR(
        FileStreamStore::Open(&env_, dir_ + "/journals.log", &journals_));
    LEDGERDB_RETURN_IF_ERROR(
        FileStreamStore::Open(&env_, dir_ + "/blocks.log", &blocks_));
    if (count_streams_) {
      counting_journals_ = std::make_unique<CountingStreamStore>(
          journals_.get());
      counting_blocks_ = std::make_unique<CountingStreamStore>(blocks_.get());
    }
    return Status::OK();
  }

  LedgerStorage Storage() {
    LedgerStorage s;
    s.journals = counting_journals_ ? static_cast<StreamStore*>(
                                          counting_journals_.get())
                                    : journals_.get();
    s.blocks = counting_blocks_
                   ? static_cast<StreamStore*>(counting_blocks_.get())
                   : blocks_.get();
    return s;
  }

  const Identities* ids_;
  LedgerOptions options_;
  std::string dir_;
  BenchClock* clock_;
  bool count_streams_;
  BenchEnv env_;
  std::unique_ptr<FileStreamStore> journals_;
  std::unique_ptr<FileStreamStore> blocks_;
  std::unique_ptr<CountingStreamStore> counting_journals_;
  std::unique_ptr<CountingStreamStore> counting_blocks_;
  std::unique_ptr<Ledger> ledger_;
};

// ---------------------------------------------------------------------------
// What the benchmark knows about the image: every normal journal it wrote,
// with its clue and a lower bound on its server timestamp.
// ---------------------------------------------------------------------------

struct Entry {
  uint64_t jsn = 0;
  uint32_t clue = 0;
  Timestamp ts = 0;
};

class Catalog {
 public:
  void Add(const Entry& e) {
    std::lock_guard<std::mutex> lock(mu_);
    by_clue_[e.clue].push_back(entries_.size());
    entries_.push_back(e);
    if (e.jsn >= first_readable_jsn_) occultable_.push_back(e.jsn);
  }

  /// Journals below `first_jsn` form the purge reserve: reads and occults
  /// pick only at or above it.
  void SetPurgeReserve(uint64_t first_jsn) {
    std::lock_guard<std::mutex> lock(mu_);
    first_readable_jsn_ = first_jsn;
    occultable_.clear();
    for (const Entry& e : entries_) {
      if (e.jsn >= first_jsn) occultable_.push_back(e.jsn);
    }
  }

  /// Uniform over entries at or above the purge reserve.
  bool PickJsn(Random* rng, uint64_t* jsn) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto first = std::lower_bound(
        entries_.begin(), entries_.end(), first_readable_jsn_,
        [](const Entry& e, uint64_t j) { return e.jsn < j; });
    size_t lo = static_cast<size_t>(first - entries_.begin());
    if (lo >= entries_.size()) return false;
    *jsn = entries_[lo + rng->Uniform(entries_.size() - lo)].jsn;
    return true;
  }

  /// A range-audit window for a Zipf clue, anchored at one of its entries
  /// above the purge reserve. Redraws clues that have no such entry.
  bool PickWindow(Random* rng, const ZipfSampler& zipf, uint32_t* clue,
                  Timestamp* from) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (int attempt = 0; attempt < 64; ++attempt) {
      uint32_t c = static_cast<uint32_t>(zipf.Next(rng));
      auto it = by_clue_.find(c);
      if (it == by_clue_.end()) continue;
      const std::vector<size_t>& idx = it->second;
      auto first = std::lower_bound(
          idx.begin(), idx.end(), first_readable_jsn_,
          [&](size_t i, uint64_t j) { return entries_[i].jsn < j; });
      size_t lo = static_cast<size_t>(first - idx.begin());
      if (lo >= idx.size()) continue;
      *clue = c;
      *from = entries_[idx[lo + rng->Uniform(idx.size() - lo)]].ts;
      return true;
    }
    return false;
  }

  /// Exact entry count of `clue` in [from, to); valid while no appends run.
  uint64_t CountInWindow(uint32_t clue, Timestamp from, Timestamp to) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_clue_.find(clue);
    if (it == by_clue_.end()) return 0;
    uint64_t n = 0;
    for (size_t i : it->second) {
      if (entries_[i].ts >= from && entries_[i].ts < to) ++n;
    }
    return n;
  }

  bool ClaimOccultable(Random* rng, uint64_t* jsn) {
    std::lock_guard<std::mutex> lock(mu_);
    if (occultable_.empty()) return false;
    size_t i = rng->Uniform(occultable_.size());
    *jsn = occultable_[i];
    occultable_[i] = occultable_.back();
    occultable_.pop_back();
    return true;
  }

 private:
  mutable std::mutex mu_;
  // Preload entries in jsn order, then acknowledged appends in ack order;
  // every entry below the purge reserve comes first, which is all the
  // lower_bound searches rely on.
  std::vector<Entry> entries_;
  std::map<uint32_t, std::vector<size_t>> by_clue_;
  std::vector<uint64_t> occultable_;
  uint64_t first_readable_jsn_ = 0;
};

/// Writes `n` signed journals straight into the ledger (no server): all
/// signing and π_c prevalidation fan out over the client threads, then
/// the journals commit in order in groups of one block, the clock
/// advancing one tick per journal.
Status Preload(Ledger* ledger, BenchClock* clock, const Identities& ids,
               uint64_t n, uint64_t seed, Catalog* catalog,
               uint64_t* payload_bytes) {
  Random rng(seed * 7919 + 17);
  ZipfSampler zipf(kNumClues);
  std::vector<ClientTransaction> txs(n);
  std::vector<uint32_t> clues(n);
  for (uint64_t i = 0; i < n; ++i) {
    clues[i] = static_cast<uint32_t>(zipf.Next(&rng));
    txs[i].ledger_uri = ledger->uri();
    txs[i].clues = {ClueName(clues[i])};
    txs[i].payload = rng.NextBytes(kPayloadBytes);
    txs[i].nonce = i / kClients;
  }
  std::vector<Ledger::PrevalidatedTx> pre(n);
  std::vector<Status> statuses(n);
  auto parallel = [](const std::function<void(uint64_t)>& fn) {
    std::vector<std::thread> threads;
    for (uint64_t t = 0; t < kClients; ++t) threads.emplace_back(fn, t);
    for (auto& th : threads) th.join();
  };
  parallel([&](uint64_t t) {
    for (uint64_t i = t; i < n; i += kClients) txs[i].Sign(ids.loaders[t]);
  });
  // Contiguous chunks of 64 so VerifyBatch amortizes its inversions.
  parallel([&](uint64_t t) {
    std::vector<const ClientTransaction*> chunk;
    for (uint64_t lo = t * 64; lo < n; lo += 64 * kClients) {
      const uint64_t hi = std::min<uint64_t>(lo + 64, n);
      chunk.clear();
      for (uint64_t i = lo; i < hi; ++i) chunk.push_back(&txs[i]);
      ledger->PrevalidateBatch(chunk, &pre[lo], &statuses[lo]);
    }
  });
  for (uint64_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return statuses[i];
  }
  const uint64_t group = 64;  // one block of journals per commit group
  for (uint64_t lo = 0; lo < n; lo += group) {
    const uint64_t hi = std::min(lo + group, n);
    clock->Advance(kTickUs * static_cast<Timestamp>(hi - lo));
    std::vector<Ledger::PrevalidatedTx> batch;
    for (uint64_t i = lo; i < hi; ++i) batch.push_back(std::move(pre[i]));
    std::vector<uint64_t> jsns;
    std::vector<Status> st;
    LEDGERDB_RETURN_IF_ERROR(
        ledger->CommitPrevalidatedGroup(std::move(batch), &jsns, &st));
    for (uint64_t i = lo; i < hi; ++i) {
      LEDGERDB_RETURN_IF_ERROR(st[i - lo]);
      Journal j;
      LEDGERDB_RETURN_IF_ERROR(ledger->GetJournal(jsns[i - lo], &j));
      catalog->Add({jsns[i - lo], clues[i], j.server_ts});
    }
  }
  *payload_bytes += n * kPayloadBytes;
  return ledger->SealBlock();
}

// ---------------------------------------------------------------------------
// Served clients and the ops they run.
// ---------------------------------------------------------------------------

struct Client {
  std::unique_ptr<SocketTransport> socket;
  std::unique_ptr<TimedTransport> timed;  // traced runs only
  std::unique_ptr<LedgerClient> client;
  LedgerTransport* transport = nullptr;
};

std::unique_ptr<Client> Connect(const std::string& address,
                                const KeyPair& user, const LedgerOptions& lo,
                                const PublicKey& lsp_key, bool trace) {
  auto c = std::make_unique<Client>();
  c->socket = std::make_unique<SocketTransport>(address, Image::kUri);
  c->transport = c->socket.get();
  if (trace) {
    c->timed = std::make_unique<TimedTransport>(c->socket.get());
    c->transport = c->timed.get();
  }
  LedgerClient::Options opts;
  opts.lsp_key = lsp_key;
  opts.fractal_height = lo.fractal_height;
  opts.mpt_cache_depth = lo.mpt_cache_depth;
  c->client = std::make_unique<LedgerClient>(c->transport, user, opts);
  return c;
}

/// Latency samples with their completion times, so that percentiles can
/// be taken over consecutive stretches of a phase.
struct Series {
  std::vector<uint64_t> end_ns;
  std::vector<double> us;

  void Add(uint64_t t_ns, double v_us) {
    end_ns.push_back(t_ns);
    us.push_back(v_us);
  }
  void Merge(const Series& o) {
    end_ns.insert(end_ns.end(), o.end_ns.begin(), o.end_ns.end());
    us.insert(us.end(), o.us.begin(), o.us.end());
  }
};

/// Percentile `p` of a series, steadied against bursts of interference
/// from the shared host: the samples, in completion order, are cut into
/// at most kMaxChunks consecutive chunks of at least kChunkMin samples,
/// each with at least kChunkTail samples beyond the percentile; the result
/// is the median of the chunks' percentiles. A series too short for two
/// chunks gives its plain percentile.
double SteadyPercentile(const Series& s, double p) {
  const size_t n = s.us.size();
  if (n == 0) return 0;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return s.end_ns[a] < s.end_ns[b];
  });
  const size_t per = std::max<size_t>(
      kChunkMin, static_cast<size_t>(std::ceil(kChunkTail / (1 - p / 100))));
  const size_t chunks = std::clamp<size_t>(n / per, 1, kMaxChunks);
  std::vector<double> at;
  for (size_t c = 0; c < chunks; ++c) {
    std::vector<double> v;
    for (size_t i = n * c / chunks; i < n * (c + 1) / chunks; ++i) {
      v.push_back(s.us[order[i]]);
    }
    at.push_back(Percentile(std::move(v), p));
  }
  return Percentile(std::move(at), 50);
}

/// Rate of the events at `end_ns` over a phase that started at `start_ns`
/// and lasted `seconds`: the median over kMaxChunks equal stretches of
/// time, steadied like SteadyPercentile.
double SteadyRate(const std::vector<uint64_t>& end_ns, uint64_t start_ns,
                  double seconds) {
  if (seconds <= 0) return 0;
  const double width_ns = seconds * 1e9 / kMaxChunks;
  std::vector<double> count(kMaxChunks, 0);
  for (uint64_t t : end_ns) {
    const double at = static_cast<double>(t - std::min(t, start_ns)) / width_ns;
    count[std::min(kMaxChunks - 1, static_cast<size_t>(at))] += 1;
  }
  for (double& c : count) c /= width_ns / 1e9;
  return Percentile(std::move(count), 50);
}

/// Samples of one op kind within one phase.
struct OpStats {
  std::vector<double> self_us;  // client time outside the transport
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rpcs = 0;
  std::vector<double> admin_inner_us;  // admin ops: time inside WithLedger
  std::vector<double> admin_wait_us;   // admin ops: call time minus inner

  void Merge(const OpStats& o) {
    self_us.insert(self_us.end(), o.self_us.begin(), o.self_us.end());
    admin_inner_us.insert(admin_inner_us.end(), o.admin_inner_us.begin(),
                          o.admin_inner_us.end());
    admin_wait_us.insert(admin_wait_us.end(), o.admin_wait_us.begin(),
                         o.admin_wait_us.end());
    attempted += o.attempted;
    failed += o.failed;
    rpcs += o.rpcs;
  }
};

struct PhaseStats {
  OpStats ops[kOps];
  Series all_latency;  // every attempt; failures at the deadline
  std::vector<uint64_t> ok_end_ns;  // completion times of successful ops
  uint64_t repins = 0;
  uint64_t stale = 0;
  uint64_t appended_payload_bytes = 0;
  uint64_t appends_ok = 0;
  uint64_t start_ns = 0;
  double seconds = 0;

  void Merge(const PhaseStats& o) {
    for (int k = 0; k < kOps; ++k) ops[k].Merge(o.ops[k]);
    all_latency.Merge(o.all_latency);
    ok_end_ns.insert(ok_end_ns.end(), o.ok_end_ns.begin(), o.ok_end_ns.end());
    repins += o.repins;
    stale += o.stale;
    appended_payload_bytes += o.appended_payload_bytes;
    appends_ok += o.appends_ok;
  }
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const OpStats& s : ops) n += s.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const OpStats& s : ops) n += s.failed;
    return n;
  }
};

/// Shared state of one benchmark run.
struct Run {
  Args args;
  Identities ids;
  BenchClock clock{1'000'000'000};
  std::unique_ptr<Image> image;
  std::unique_ptr<LedgerServer> server;
  Catalog catalog;
  ZipfSampler zipf{kNumClues};
  uint64_t payload_bytes = 0;
  uint64_t purge_limit = 0;  // purges stop below this jsn
  bool exact_ranges = false;  // no appends run: range counts are exact

  std::mutex error_mu;
  std::string integrity_error;  // first integrity failure seen
  std::atomic<bool> broken{false};

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (integrity_error.empty()) integrity_error = what;
    broken.store(true);
  }
};

/// Classifies a finished op: integrity failures stop the run, everything
/// else that is not OK counts as a failed attempt.
bool Settle(Run* run, Op op, const Status& st) {
  if (st.ok()) return true;
  if (st.IsCorruption() || st.IsVerificationFailed()) {
    run->Fail(std::string(kOpNames[op]) + ": " + st.ToString());
  } else {
    std::fprintf(stderr, "op %s failed: %s\n", kOpNames[op],
                 st.ToString().c_str());
  }
  return false;
}

/// Runs a client-side verification, telling stale pinned roots from
/// integrity breaches. Writers move the roots, so a proof can fail only
/// because the pin is behind: the client re-pins and retries. A failure is
/// a breach only if two consecutive refreshes find nothing new around it.
/// An audit that keeps losing the race is abandoned as stale (a failure,
/// not a breach).
Status Audited(Client* c, PhaseStats* ps, const std::function<Status()>& fn) {
  Status st = fn();
  int quiescent = 0;
  for (int attempt = 0; st.IsVerificationFailed(); ++attempt) {
    bool advanced = false;
    ++ps->repins;
    Status refresh = c->client->RefreshTrustedRoots(&advanced);
    if (!refresh.ok()) return refresh;
    if (!advanced) {
      if (++quiescent >= 2) return st;
    } else {
      quiescent = 0;
    }
    if (attempt >= kMaxAuditAttempts) {
      ++ps->stale;
      return Status::Unavailable("audit abandoned: roots kept moving");
    }
    st = fn();
  }
  return st;
}

/// Executes one op of kind `op` on client `c`; records into `ps`.
void RunOp(Run* run, Client* c, Random* rng, Op op, PhaseStats* ps) {
  OpStats& os = ps->ops[op];
  const uint64_t rpc_ns_before = c->timed ? c->timed->total_ns() : 0;
  const uint64_t rpc_calls_before = c->timed ? c->timed->calls() : 0;
  const uint64_t t0 = NowNs();
  Status st;
  double inner_us = -1;
  switch (op) {
    case kAppend: {
      const uint32_t clue = static_cast<uint32_t>(run->zipf.Next(rng));
      const Bytes payload = rng->NextBytes(kPayloadBytes);
      const Timestamp lo = run->clock.Now();
      uint64_t jsn = 0;
      st = c->client->AppendVerified(payload, {ClueName(clue)}, &jsn);
      if (st.ok()) {
        run->clock.Advance(kTickUs);
        run->catalog.Add({jsn, clue, lo});
        ps->appended_payload_bytes += kPayloadBytes;
        ++ps->appends_ok;
      }
      break;
    }
    case kVerify: {
      uint64_t jsn = 0;
      if (!run->catalog.PickJsn(rng, &jsn)) {
        st = Status::NotFound("no readable journal");
        break;
      }
      Journal j;
      st = Audited(c, ps, [&] {
        return c->client->FetchAndVerifyJournal(jsn, &j);
      });
      break;
    }
    case kRange: {
      uint32_t clue = 0;
      Timestamp from = 0;
      if (!run->catalog.PickWindow(rng, run->zipf, &clue, &from)) {
        st = Status::NotFound("no anchored window");
        break;
      }
      const Timestamp to = from + kWindowUs;
      std::vector<Journal> journals;
      st = Audited(c, ps, [&] {
        return c->client->BatchAuditRange(ClueName(clue), from, to,
                                          &journals);
      });
      if (st.ok() && journals.empty()) {
        st = Status::NotFound("anchored window came back empty");
      }
      if (st.ok() && run->exact_ranges &&
          journals.size() != run->catalog.CountInWindow(clue, from, to)) {
        st = Status::Corruption("range audit returned " +
                                std::to_string(journals.size()) +
                                " journals, expected " +
                                std::to_string(run->catalog.CountInWindow(
                                    clue, from, to)));
      }
      break;
    }
    case kOccult: {
      uint64_t jsn = 0;
      if (!run->catalog.ClaimOccultable(rng, &jsn)) {
        st = Status::NotFound("nothing left to occult");
        break;
      }
      auto endorsements = run->ids.OccultEndorsements(Image::kUri, jsn);
      run->server->WithLedger([&](Ledger* ledger) {
        const uint64_t i0 = NowNs();
        uint64_t occult_jsn = 0;
        st = ledger->Occult(jsn, endorsements, &occult_jsn);
        inner_us = static_cast<double>(NowNs() - i0) / 1e3;
      });
      break;
    }
    case kPurge: {
      run->server->WithLedger([&](Ledger* ledger) {
        const uint64_t i0 = NowNs();
        const uint64_t before = ledger->PurgedBoundary() + kPurgeStep;
        if (before > run->purge_limit) {
          st = Status::OutOfRange("purge reserve exhausted");
        } else {
          uint64_t purge_jsn = 0;
          st = ledger->Purge(before,
                             run->ids.PurgeEndorsements(Image::kUri, before),
                             {}, &purge_jsn);
        }
        inner_us = static_cast<double>(NowNs() - i0) / 1e3;
      });
      break;
    }
    default:
      break;
  }
  const uint64_t t1 = NowNs();
  const bool ok = Settle(run, op, st);
  const double lat = ok ? static_cast<double>(t1 - t0) / 1e3
                        : kFailedLatencyUs;
  ++os.attempted;
  if (!ok) ++os.failed;
  ps->all_latency.Add(t1, lat);
  if (ok) ps->ok_end_ns.push_back(t1);
  if (inner_us >= 0) {
    os.admin_inner_us.push_back(inner_us);
    os.admin_wait_us.push_back(
        std::max(0.0, static_cast<double>(t1 - t0) / 1e3 - inner_us));
  }
  if (c->timed && ok) {
    const uint64_t rpc_ns = c->timed->total_ns() - rpc_ns_before;
    os.self_us.push_back(static_cast<double>(t1 - t0 - rpc_ns) / 1e3);
    os.rpcs += c->timed->calls() - rpc_calls_before;
  }
}

Op PickOp(const int* weight, Random* rng) {
  int roll = static_cast<int>(rng->Uniform(100));
  for (int k = 0; k < kOps; ++k) {
    if (roll < weight[k]) return static_cast<Op>(k);
    roll -= weight[k];
  }
  return kAppend;
}

/// Closed loop: `total` ops dealt round-robin over the clients, each
/// client sending its next op when the previous one returns.
PhaseStats ClosedLoop(Run* run, std::vector<std::unique_ptr<Client>>& clients,
                      const int* weight, uint64_t total, uint64_t seed) {
  PhaseStats merged;
  std::mutex mu;
  std::vector<std::thread> threads;
  const uint64_t t0 = NowNs();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Random rng(seed * 1000 + static_cast<uint64_t>(c));
      PhaseStats local;
      for (uint64_t i = static_cast<uint64_t>(c); i < total; i += kClients) {
        if (run->broken.load()) break;
        RunOp(run, clients[static_cast<size_t>(c)].get(), &rng,
              PickOp(weight, &rng), &local);
      }
      std::lock_guard<std::mutex> lock(mu);
      merged.Merge(local);
    });
  }
  for (auto& th : threads) th.join();
  merged.start_ns = t0;
  merged.seconds = SecondsSince(t0);
  return merged;
}

// ---------------------------------------------------------------------------
// Set-up, teardown and the final image check.
// ---------------------------------------------------------------------------

LedgerServer::Options ServerOptions(const Args& a) {
  LedgerServer::Options o;
  o.unix_path = a.data_dir + "/ledger.sock";
  o.debug_service_delay_us = a.service_delay_us;
  return o;
}

/// Connects the client set in parallel; each pins the current roots.
Status ConnectClients(Run* run, std::vector<std::unique_ptr<Client>>* out) {
  out->clear();
  out->resize(kClients);
  std::vector<Status> st(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto cl = Connect(run->server->address(),
                        run->ids.users[static_cast<size_t>(c)],
                        run->image->options(), run->ids.lsp.public_key(),
                        run->args.trace);
      st[static_cast<size_t>(c)] = cl->client->RefreshTrustedRoots();
      (*out)[static_cast<size_t>(c)] = std::move(cl);
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& s : st) LEDGERDB_RETURN_IF_ERROR(s);
  return Status::OK();
}

void StopServing(Run* run, std::vector<std::unique_ptr<Client>>* clients) {
  clients->clear();
  if (run->server) run->server->Stop();
  run->server.reset();
}

/// One set-up: recover the image from disk, start the server, connect and
/// pin every client.
Status SetUp(Run* run, std::vector<std::unique_ptr<Client>>* clients) {
  LEDGERDB_RETURN_IF_ERROR(run->image->Recover(nullptr));
  run->server =
      std::make_unique<LedgerServer>(run->image->ledger(),
                                     ServerOptions(run->args));
  LEDGERDB_RETURN_IF_ERROR(run->server->Start());
  return ConnectClients(run, clients);
}

struct FinalCheck {
  double recover_s = 0;
  double first_pin_s = 0;
  uint64_t journals = 0;
};

/// Ends the run: pins fresh clients against the final image (timed), takes
/// the LSP-signed commitment, stops the server, recovers the image from
/// disk (timed; the last recovery is kept) and checks it against
/// everything acknowledged.
Status FinishAndCheck(Run* run, std::vector<std::unique_ptr<Client>>* clients,
                      FinalCheck* out) {
  std::vector<Receipt> receipts;
  for (const auto& c : *clients) {
    receipts.insert(receipts.end(), c->client->receipts().begin(),
                    c->client->receipts().end());
  }
  std::unique_ptr<Client> fresh;
  std::vector<double> pin_s;
  for (int rep = 0; rep < run->args.spec->final_reps; ++rep) {
    fresh = Connect(run->server->address(), run->ids.users[0],
                    run->image->options(), run->ids.lsp.public_key(), false);
    const uint64_t t0 = NowNs();
    LEDGERDB_RETURN_IF_ERROR(fresh->client->RefreshTrustedRoots());
    pin_s.push_back(SecondsSince(t0));
  }
  out->first_pin_s = Percentile(pin_s, 50);

  SignedCommitment commitment;
  LEDGERDB_RETURN_IF_ERROR(fresh->transport->GetCommitment(&commitment));
  if (!commitment.Verify(run->ids.lsp.public_key())) {
    return Status::VerificationFailed("final commitment signature invalid");
  }
  if (!(commitment.fam_root == fresh->client->trusted_fam_root())) {
    return Status::VerificationFailed(
        "final commitment disagrees with the audited pin");
  }
  fresh.reset();
  StopServing(run, clients);
  run->image->Close();

  std::vector<double> recover_s(
      static_cast<size_t>(run->args.spec->final_reps));
  for (double& secs : recover_s) {
    LEDGERDB_RETURN_IF_ERROR(run->image->Recover(&secs));
  }
  out->recover_s = Percentile(recover_s, 50);
  Ledger* ledger = run->image->ledger();
  out->journals = ledger->NumJournals();
  if (ledger->NumJournals() != commitment.journal_count ||
      !(ledger->FamRoot() == commitment.fam_root) ||
      !(ledger->ClueRoot() == commitment.clue_root) ||
      !(ledger->StateRoot() == commitment.state_root)) {
    return Status::Corruption(
        "recovered roots differ from the final signed commitment");
  }
  for (const Receipt& r : receipts) {
    Journal j;
    LEDGERDB_RETURN_IF_ERROR(ledger->GetJournal(r.jsn, &j));
    if (!(j.TxHash() == r.tx_hash)) {
      return Status::Corruption("acknowledged jsn " + std::to_string(r.jsn) +
                                " recovered with another tx hash");
    }
  }
  // A seeded sample of the retained receipts, verified offline against
  // the recovered fam root.
  Random rng(run->args.seed ^ 0x5eedULL);
  const size_t sample = std::min<size_t>(receipts.size(), 64);
  for (size_t k = 0; k < sample; ++k) {
    const Receipt& r = receipts[rng.Uniform(receipts.size())];
    Journal j;
    FamProof proof;
    LEDGERDB_RETURN_IF_ERROR(ledger->GetJournal(r.jsn, &j));
    LEDGERDB_RETURN_IF_ERROR(ledger->GetProof(r.jsn, &proof));
    LEDGERDB_RETURN_IF_ERROR(LedgerClient::VerifyReceiptOffline(
        r, j, proof, run->ids.lsp.public_key(), ledger->FamRoot()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Per-layer snapshots.
// ---------------------------------------------------------------------------

struct LayerSnapshot {
  ProofCache::Stats cache;
  uint64_t shed = 0;
  uint64_t deadline_expired = 0;
};

LayerSnapshot TakeLayerSnapshot(Run* run) {
  LayerSnapshot s;
  run->server->WithLedger(
      [&](Ledger* ledger) { s.cache = ledger->ProofCacheStats(); });
  s.shed = run->server->stats().shed.load();
  s.deadline_expired = run->server->stats().deadline_expired.load();
  return s;
}

const obs::HistogramSnapshot* FindHist(const obs::MetricsSnapshot& snap,
                                       const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

uint64_t FindCounter(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

double HistMean(const obs::MetricsSnapshot& snap, const std::string& name) {
  const obs::HistogramSnapshot* h = FindHist(snap, name);
  return h != nullptr ? Ratio(static_cast<double>(h->sum),
                              static_cast<double>(h->count))
                      : 0;
}

double HistQuantile(const obs::MetricsSnapshot& snap, const std::string& name,
                    double q) {
  const obs::HistogramSnapshot* h = FindHist(snap, name);
  return h != nullptr && h->count > 0 ? h->Quantile(q) : 0;
}

// RPCs the benchmark's clients issue; per-op net metrics cover these.
constexpr RpcOp kReportedRpcs[] = {
    RpcOp::kAppendTx,      RpcOp::kGetReceipt, RpcOp::kGetJournal,
    RpcOp::kGetProof,      RpcOp::kGetCommitment, RpcOp::kGetDelta,
    RpcOp::kProveClueRange};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    values_.push_back({name, value, unit});
  }
  std::string ToJson() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < values_.size(); ++i) {
      if (!std::isfinite(values_[i].value)) continue;
      std::snprintf(buf, sizeof(buf), "%.17g", values_[i].value);
      if (out.size() > 1) out += ", ";
      out += "\"" + values_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + values_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Value {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Value> values_;
};

/// Per-layer state captured when the main phase ends, before probes run.
struct Layers {
  LayerSnapshot before;
  LayerSnapshot after;
  obs::MetricsSnapshot registry;
  std::vector<obs::RequestRecord> request_log;
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;
  uint64_t write_bytes = 0;
  uint64_t journal_writes = 0;   // journal-stream write calls
  uint64_t journal_records = 0;  // records those calls carried
  uint64_t block_appends = 0;
  std::vector<std::vector<double>> rpc_us;  // by RpcOp, all clients
};

/// Zeroes every counter the per-layer figures read, just before the main
/// phase.
LayerSnapshot ResetLayers(Run* run, std::vector<std::unique_ptr<Client>>& clients) {
  obs::MetricsRegistry::Default().ResetAll();
  obs::RequestLog::Default().Clear();
  run->image->env().counters().Reset();
  if (run->image->counting_journals()) {
    run->image->counting_journals()->Reset();
    run->image->counting_blocks()->Reset();
  }
  for (auto& c : clients) {
    if (c->timed) c->timed->Clear();
  }
  return TakeLayerSnapshot(run);
}

Layers CaptureLayers(Run* run, std::vector<std::unique_ptr<Client>>& clients,
                     const LayerSnapshot& before) {
  Layers l;
  l.before = before;
  l.after = TakeLayerSnapshot(run);
  l.registry = obs::MetricsRegistry::Default().Snapshot();
  l.request_log = obs::RequestLog::Default().Snapshot();
  const StorageCounters& sc = run->image->env().counters();
  l.syncs = sc.syncs.load();
  l.sync_ns = sc.sync_ns.load();
  l.write_bytes = sc.write_bytes.load();
  if (run->image->counting_journals()) {
    l.journal_writes = run->image->counting_journals()->calls();
    l.journal_records = run->image->counting_journals()->records();
    l.block_appends = run->image->counting_blocks()->calls();
  }
  l.rpc_us.resize(kNumRpcOps);
  for (auto& c : clients) {
    if (!c->timed) continue;
    for (size_t op = 0; op < l.rpc_us.size(); ++op) {
      const auto& v = c->timed->rpc_us()[op];
      l.rpc_us[op].insert(l.rpc_us[op].end(), v.begin(), v.end());
    }
  }
  return l;
}

/// Times the ops the workload's mix lacks, closed loop on the same image,
/// so every per-layer metric is defined on every workload.
PhaseStats RunProbes(Run* run, std::vector<std::unique_ptr<Client>>& clients) {
  const WorkloadSpec& spec = *run->args.spec;
  const uint64_t seed = run->args.seed;
  const uint64_t n = run->args.quick ? kProbeOps / 8 : kProbeOps;
  PhaseStats probe;
  run->exact_ranges = false;
  if (spec.weight[kVerify] == 0 || spec.weight[kRange] == 0) {
    // Clients re-pin once, in parallel, so probe reads start from current
    // roots.
    std::vector<std::thread> threads;
    for (auto& c : clients) {
      threads.emplace_back([run, client = c.get()] {
        if (!client->client->RefreshTrustedRoots().ok()) {
          run->Fail("probe re-pin failed");
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  auto only = [&](Op op, uint64_t salt) {
    if (spec.weight[op] != 0 || run->broken.load()) return;
    int weight[kOps] = {};
    weight[op] = 100;
    probe.Merge(ClosedLoop(run, clients, weight, n, seed + salt));
  };
  only(kVerify, 101);
  only(kRange, 102);
  only(kAppend, 103);
  if (spec.weight[kOccult] == 0 && spec.weight[kPurge] == 0) {
    // Admin ops one at a time, every fourth a purge.
    Random rng(seed + 104);
    const uint64_t admin =
        run->args.quick ? kProbeAdminOps / 16 : kProbeAdminOps;
    for (uint64_t i = 0; i < admin && !run->broken.load(); ++i) {
      RunOp(run, clients[0].get(), &rng, i % 4 == 3 ? kPurge : kOccult,
            &probe);
    }
  }
  return probe;
}

/// Everything one run measured.
struct Outcome {
  PhaseStats main;
  PhaseStats probe;
  std::vector<double> setup_s;
  FinalCheck fin;
  uint64_t image_bytes = 0;

  /// An op's samples: from the main phase when the mix runs it, else from
  /// its probe.
  OpStats Samples(std::initializer_list<Op> ops) const {
    OpStats s;
    for (Op op : ops) {
      s.Merge(main.ops[op].attempted > 0 ? main.ops[op] : probe.ops[op]);
    }
    return s;
  }
  uint64_t attempted() const { return main.attempted() + probe.attempted(); }
  uint64_t failed() const { return main.failed() + probe.failed(); }
  double ops_per_s() const {
    return SteadyRate(main.ok_end_ns, main.start_ns, main.seconds);
  }
};

void AddEndToEnd(const Run& run, const Outcome& o, Metrics* m) {
  auto ms = [](const Series& s, double p) {
    return SteadyPercentile(s, p) / 1e3;
  };
  m->Set("setup_s", Percentile(o.setup_s, 50), "s");
  m->Set("ops_per_s", o.ops_per_s(), "1/s");
  m->Set("p50_ms", ms(o.main.all_latency, 50), "ms");
  m->Set("p99_ms", ms(o.main.all_latency, 99), "ms");
  m->Set("ok_ratio",
         Ratio(static_cast<double>(o.attempted() - o.failed()),
               static_cast<double>(o.attempted())),
         "ratio");
  m->Set("first_pin_s", o.fin.first_pin_s, "s");
  m->Set("recover_s", o.fin.recover_s, "s");
  m->Set("bytes_per_payload_byte",
         Ratio(static_cast<double>(o.image_bytes),
               static_cast<double>(run.payload_bytes)),
         "ratio");
}

void AddPerLayer(const Outcome& o, const Layers& l, Metrics* m) {
  const obs::MetricsSnapshot& reg = l.registry;
  const double appends = static_cast<double>(o.main.appends_ok);
  const OpStats append = o.Samples({kAppend});
  const OpStats admin = o.Samples({kOccult, kPurge});

  for (RpcOp op : kReportedRpcs) {
    const std::string n = RpcOpName(op);
    const auto& v = l.rpc_us[static_cast<size_t>(op)];
    const std::string series =
        std::string(obs::names::kServerRequestUs) + "{op=\"" + n + "\"}";
    m->Set("net.rpc_us." + n + ".p50", Percentile(v, 50), "us");
    m->Set("net.rpc_us." + n + ".p99", Percentile(v, 99), "us");
    m->Set("net.exec_us." + n + ".p50", HistQuantile(reg, series, 0.5), "us");
    m->Set("net.exec_us." + n + ".p99", HistQuantile(reg, series, 0.99), "us");
  }
  m->Set("net.rpcs_per_append",
         Ratio(static_cast<double>(append.rpcs),
               static_cast<double>(append.attempted - append.failed)),
         "count");
  m->Set("net.queue_us.p50",
         HistQuantile(reg, obs::names::kServerQueueWaitUs, 0.5), "us");
  m->Set("net.queue_us.p99",
         HistQuantile(reg, obs::names::kServerQueueWaitUs, 0.99), "us");
  m->Set("net.shed", static_cast<double>(l.after.shed - l.before.shed),
         "count");
  m->Set("net.deadline_expired",
         static_cast<double>(l.after.deadline_expired -
                             l.before.deadline_expired),
         "count");
  {
    // Of the slowest 1% of logged requests, the share of server time spent
    // executing (the rest waited in the admission queue).
    std::vector<double> totals;
    for (const auto& r : l.request_log) {
      totals.push_back(static_cast<double>(r.queue_us + r.exec_us));
    }
    const double cut = Percentile(totals, 99);
    double exec = 0;
    double total = 0;
    for (const auto& r : l.request_log) {
      if (static_cast<double>(r.queue_us + r.exec_us) < cut) continue;
      exec += static_cast<double>(r.exec_us);
      total += static_cast<double>(r.queue_us + r.exec_us);
    }
    m->Set("net.tail_exec_share", Ratio(exec, total), "ratio");
  }

  m->Set("ledger.prevalidate_us",
         HistMean(reg, obs::names::kLedgerPrevalidateUs), "us");
  m->Set("ledger.commit_us", HistMean(reg, obs::names::kLedgerCommitUs), "us");
  m->Set("ledger.seal_us", HistMean(reg, obs::names::kLedgerSealUs), "us");
  // GetReceipt seals a pending block inline, so blocks run small.
  m->Set("ledger.seals_per_append",
         Ratio(static_cast<double>(l.block_appends), appends), "count");
  m->Set("ledger.proof_build_us",
         HistMean(reg, obs::names::kLedgerProofBuildUs), "us");
  m->Set("ledger.admin_us", Percentile(admin.admin_inner_us, 50), "us");
  m->Set("ledger.admin_lock_wait_us", Percentile(admin.admin_wait_us, 50),
         "us");

  const double sigs = static_cast<double>(
      FindCounter(reg, obs::names::kCryptoBatchVerifySigsTotal));
  const obs::HistogramSnapshot* sig_batch =
      FindHist(reg, obs::names::kCryptoBatchVerifyUs);
  m->Set("crypto.verify_us",
         sig_batch != nullptr ? Ratio(static_cast<double>(sig_batch->sum), sigs)
                              : 0,
         "us");
  m->Set("crypto.sigs_per_append", Ratio(sigs, appends), "count");

  const double hits =
      static_cast<double>(l.after.cache.hits - l.before.cache.hits);
  const double misses =
      static_cast<double>(l.after.cache.misses - l.before.cache.misses);
  m->Set("accum.cache_hit_rate", Ratio(hits, hits + misses), "ratio");
  m->Set("accum.cache_evictions",
         static_cast<double>(l.after.cache.evictions -
                             l.before.cache.evictions),
         "count");
  m->Set("accum.cache_resident_bytes",
         static_cast<double>(l.after.cache.resident_bytes), "bytes");

  m->Set("storage.fsyncs_per_append",
         Ratio(static_cast<double>(l.syncs), appends), "count");
  m->Set("storage.fsync_us",
         Ratio(static_cast<double>(l.sync_ns) / 1e3,
               static_cast<double>(l.syncs)),
         "us");
  m->Set("storage.appends_per_group",
         Ratio(static_cast<double>(l.journal_records),
               static_cast<double>(l.journal_writes)),
         "count");
  m->Set("storage.write_bytes_per_payload_byte",
         Ratio(static_cast<double>(l.write_bytes),
               static_cast<double>(o.main.appended_payload_bytes)),
         "ratio");

  m->Set("client.self_us.append", Percentile(append.self_us, 50), "us");
  m->Set("client.self_us.verify", Percentile(o.Samples({kVerify}).self_us, 50),
         "us");
  m->Set("client.self_us.range_audit", Percentile(o.Samples({kRange}).self_us, 50),
         "us");
  m->Set("client.pin_journals_per_s",
         Ratio(static_cast<double>(o.fin.journals), o.fin.first_pin_s), "1/s");
  m->Set("trace.ops_per_s", o.ops_per_s(), "1/s");
}

int Main(int argc, char** argv) {
  auto run = std::make_unique<Run>();
  run->args = ParseArgs(argc, argv);
  const Args& args = run->args;
  const WorkloadSpec& spec = *args.spec;
  std::filesystem::create_directories(args.data_dir);
  std::fprintf(stderr, "%s: data dir %s on %s, nproc %u\n", spec.name,
               args.data_dir.c_str(), FilesystemType(args.data_dir).c_str(),
               std::thread::hardware_concurrency());

  LedgerOptions lopts;
  lopts.enable_proof_cache = args.proof_cache;
  lopts.fractal_height = kFractalHeight;
  const uint64_t preload = args.quick ? spec.preload / 16 : spec.preload;
  const uint64_t reserve =
      args.quick ? spec.purge_reserve / 16 : spec.purge_reserve;

  // Image creation: the preload, written once and closed.
  const uint64_t pre_t0 = NowNs();
  run->image = std::make_unique<Image>(&run->ids, lopts, args.data_dir,
                                       &run->clock, args.trace);
  Status st = run->image->Create();
  if (st.ok()) {
    st = Preload(run->image->ledger(), &run->clock, run->ids, preload,
                 args.seed, &run->catalog, &run->payload_bytes);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "preload failed: %s\n", st.ToString().c_str());
    return 1;
  }
  run->image->Close();
  const double preload_s = SecondsSince(pre_t0);
  // Journal 0 is genesis; preload journals are 1..preload.
  run->purge_limit = 1 + reserve;
  run->catalog.SetPurgeReserve(run->purge_limit);

  // Set-up, several times; the last one stays up for the measurement.
  Outcome o;
  std::vector<std::unique_ptr<Client>> clients;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    if (rep > 0) {
      StopServing(run.get(), &clients);
      run->image->Close();
    }
    const uint64_t t0 = NowNs();
    st = SetUp(run.get(), &clients);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    o.setup_s.push_back(SecondsSince(t0));
  }

  // Main phase.
  run->exact_ranges = spec.weight[kAppend] == 0 &&
                      spec.weight[kOccult] == 0 && spec.weight[kPurge] == 0;
  const LayerSnapshot before = ResetLayers(run.get(), clients);
  const uint64_t total = std::max<uint64_t>(
      static_cast<uint64_t>(spec.ops_per_second * args.seconds), kClients);
  o.main = ClosedLoop(run.get(), clients, spec.weight, total, args.seed);
  const Layers layers = CaptureLayers(run.get(), clients, before);

  const uint64_t probe_t0 = NowNs();
  if (args.trace && !run->broken.load()) {
    o.probe = RunProbes(run.get(), clients);
  }
  run->payload_bytes +=
      o.main.appended_payload_bytes + o.probe.appended_payload_bytes;
  const double probe_s = SecondsSince(probe_t0);

  const uint64_t final_t0 = NowNs();
  if (!run->broken.load()) {
    st = FinishAndCheck(run.get(), &clients, &o.fin);
    if (!st.ok()) run->Fail("final image check: " + st.ToString());
  } else {
    StopServing(run.get(), &clients);
  }
  o.image_bytes = run->image->FileBytes();
  run->image->Close();
  const double final_s = SecondsSince(final_t0);

  Metrics m;
  if (args.trace) {
    AddPerLayer(o, layers, &m);
  } else {
    AddEndToEnd(*run, o, &m);
  }

  double setup_total_s = 0;
  for (double v : o.setup_s) setup_total_s += v;
  std::fprintf(stderr,
               "%s seed=%" PRIu64 " trace=%d: preload %" PRIu64
               " journals %.2f s; set-up x%d %.2f s; main %" PRIu64
               " ops %.2f s (%.0f/s); probe %" PRIu64
               " ops %.2f s; final check %.2f s, %" PRIu64
               " journals, %" PRIu64 " bytes; repins %" PRIu64
               ", stale %" PRIu64 "\n",
               spec.name, args.seed, args.trace ? 1 : 0, preload, preload_s,
               spec.setup_reps, setup_total_s, o.main.attempted(),
               o.main.seconds, o.ops_per_s(), o.probe.attempted(), probe_s,
               final_s, o.fin.journals, o.image_bytes, o.main.repins,
               o.main.stale);
  const bool correct = !run->broken.load();
  if (!correct) {
    std::fprintf(stderr, "INTEGRITY FAILURE: %s\n",
                 run->integrity_error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", o.attempted(), o.failed(),
              m.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
