// Crash-recovery path benchmarks: how fast a file-backed ledger comes
// back after a restart. Stages are timed separately so regressions
// localize — the frame-by-frame reopen scan (FileStreamStore::Open), the
// full state replay (Ledger::Recover), the checkpoint write, tail replay
// through a verified checkpoint, and the offline integrity pass (Fsck).
// Population rate is reported too since the append path pays for the
// durability features (per-frame CRCs + watermark sidecar) that make
// recovery possible.
//
// Each timed stage runs kIters times and its rate is taken from the
// fastest run (min of k): neighbour load on a shared host only ever adds
// time, so the minimum is the steadiest estimate. Each row also records
// the within-run spread (`min_us`, `iqr_us`, `iters`) so a reader can
// tell whether two runs differ by more than their noise. Note that
// `tail_replay_speedup` is a ratio over full replay, so it falls whenever
// full replay gets faster.
//
//   ./bench_recover [--json BENCH_recover.json]
//   LEDGERDB_BENCH_SCALE=quick|default|full
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "ledger/ledger.h"
#include "storage/checkpoint.h"
#include "storage/stream_store.h"

namespace ledgerdb {
namespace {

using bench::Header;
using bench::JsonReporter;
using bench::LatencySampler;
using bench::ScaleShift;
using bench::TimeSeconds;
using bench::VolumeLabel;

constexpr char kJournalPath[] = "bench_recover_journals.log";
constexpr char kBlockPath[] = "bench_recover_blocks.log";
constexpr char kCkptBase[] = "bench_recover_ckpt";
constexpr size_t kPayloadBytes = 256;

void RemoveStream(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wm").c_str());
  std::remove((path + ".quarantine").c_str());
}

void RemoveCheckpoints(const std::string& base) {
  for (const char* suffix :
       {".ckpt.0", ".ckpt.1", ".snap.0", ".snap.1", ".ckpt.tmp", ".snap.tmp"}) {
    std::remove((base + suffix).c_str());
  }
}

/// Each timed stage's repetitions: enough for min-of-k to resolve a 5%
/// change on a shared host.
constexpr int kIters = 15;

/// Adds a stage row: the rate at the fastest run, with p50/p99 and the
/// within-run spread as extras.
void AddStage(JsonReporter* json, const std::string& name, double units,
              const LatencySampler& lat) {
  const double min_us = lat.PercentileUs(0.0);
  json->AddWithExtras(
      name, units / (min_us / 1e6), lat.PercentileUs(50.0),
      lat.PercentileUs(99.0),
      {{"min_us", min_us},
       {"iqr_us", lat.PercentileUs(75.0) - lat.PercentileUs(25.0)},
       {"iters", static_cast<double>(lat.count())}});
}

std::unique_ptr<FileStreamStore> MustOpen(const std::string& path) {
  std::unique_ptr<FileStreamStore> store;
  Status s = FileStreamStore::Open(path, &store);
  if (!s.ok()) {
    std::fprintf(stderr, "open %s: %s\n", path.c_str(), s.ToString().c_str());
    std::exit(1);
  }
  return store;
}

int Run(int argc, char** argv) {
  JsonReporter json(argc, argv);

  int shift = ScaleShift();
  uint64_t journals = 5000;
  journals = shift >= 0 ? journals << shift : journals >> -shift;
  json.SetMeta("journals", static_cast<double>(journals));
  json.SetMeta("payload_bytes", static_cast<double>(kPayloadBytes));
  json.SetMeta("clue_lineages", 4096.0);

  SimulatedClock clock(1000 * kMicrosPerSecond);
  CertificateAuthority ca(KeyPair::FromSeedString("br-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("br-lsp");
  KeyPair alice = KeyPair::FromSeedString("br-alice");
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
  registry.Register(ca.Certify("alice", alice.public_key(), Role::kUser));

  LedgerOptions options;
  options.fractal_height = 8;
  options.block_capacity = 256;

  Header("Recovery pipeline — " + std::to_string(journals) + " journals (" +
         VolumeLabel(journals, kPayloadBytes) + " payload)");

  // ---- Populate a durable image (every append = frame write + fsync +
  // watermark update; this is the cost recovery's guarantees are bought
  // with, so it is a benchmark row, not just setup).
  RemoveStream(kJournalPath);
  RemoveStream(kBlockPath);
  double populate_secs;
  uint64_t blocks_sealed = 0;
  {
    auto journal_stream = MustOpen(kJournalPath);
    auto block_stream = MustOpen(kBlockPath);
    Ledger ledger("lg://bench-recover", options, &clock, lsp, &registry,
                  LedgerStorage{journal_stream.get(), block_stream.get()});
    if (!ledger.init_status().ok()) {
      std::fprintf(stderr, "init: %s\n", ledger.init_status().ToString().c_str());
      return 1;
    }
    std::string payload(kPayloadBytes, 'x');
    uint64_t nonce = 0;
    populate_secs = TimeSeconds([&] {
      for (uint64_t i = 0; i < journals; ++i) {
        ClientTransaction tx;
        tx.ledger_uri = "lg://bench-recover";
        // Clue-rich regime: many distinct lineages, the realistic worst
        // case for replay (every journal grows some clue accumulator).
        tx.clues = {"acct-" + std::to_string(i % 4096)};
        tx.payload = StringToBytes(payload);
        tx.nonce = nonce++;
        tx.client_ts = clock.Now();
        tx.Sign(alice);
        uint64_t jsn = 0;
        Status s = ledger.Append(tx, &jsn);
        if (!s.ok()) {
          std::fprintf(stderr, "append %llu: %s\n",
                       static_cast<unsigned long long>(i),
                       s.ToString().c_str());
          std::exit(1);
        }
        clock.Advance(1000);
      }
    });
    ledger.SealBlock();
    blocks_sealed = ledger.blocks().size();
  }
  double populate_ops = static_cast<double>(journals) / populate_secs;
  std::printf("%-28s %12.0f journals/s  (%.2fs, %llu blocks)\n",
              "populate (append+fsync)", populate_ops, populate_secs,
              static_cast<unsigned long long>(blocks_sealed));
  json.Add("populate_append_fsync", populate_ops);

  // ---- Stage 1: frame scan. Reopen the journal log cold and rebuild the
  // offset index (header CRC + sequence + payload CRC per frame).
  {
    LatencySampler lat;
    uint64_t frames = 0;
    for (int i = 0; i < kIters; ++i) {
      lat.Time([&] {
        auto store = MustOpen(kJournalPath);
        frames = store->Count();
      });
    }
    double fps = static_cast<double>(frames) / (lat.PercentileUs(0.0) / 1e6);
    std::printf("%-28s %12.0f frames/s   (min %.1fms, p50 %.1fms, %llu "
                "frames)\n",
                "reopen scan (stream open)", fps, lat.PercentileUs(0.0) / 1e3,
                lat.PercentileUs(50.0) / 1e3,
                static_cast<unsigned long long>(frames));
    AddStage(&json, "stream_reopen_scan", static_cast<double>(frames), lat);
  }

  // ---- Stage 2: full recovery. Streams are opened outside the timer so
  // this row isolates Ledger::Recover — journal replay through the fam
  // tree / CM-Tree / world state plus block-header cross-checks.
  double full_replay_min_us = 0;
  {
    LatencySampler lat;
    uint64_t recovered_journals = 0;
    for (int i = 0; i < kIters; ++i) {
      auto journal_stream = MustOpen(kJournalPath);
      auto block_stream = MustOpen(kBlockPath);
      std::unique_ptr<Ledger> recovered;
      Status s;
      lat.Time([&] {
        s = Ledger::Recover(
            "lg://bench-recover", options, &clock, lsp, &registry,
            LedgerStorage{journal_stream.get(), block_stream.get()},
            &recovered);
      });
      if (!s.ok()) {
        std::fprintf(stderr, "recover: %s\n", s.ToString().c_str());
        return 1;
      }
      recovered_journals = recovered->NumJournals();
    }
    full_replay_min_us = lat.PercentileUs(0.0);
    double jps =
        static_cast<double>(recovered_journals) / (full_replay_min_us / 1e6);
    std::printf("%-28s %12.0f journals/s (min %.1fms, p50 %.1fms)\n",
                "Ledger::Recover (replay)", jps, full_replay_min_us / 1e3,
                lat.PercentileUs(50.0) / 1e3);
    AddStage(&json, "ledger_recover_replay",
             static_cast<double>(recovered_journals), lat);
  }

  // ---- Stage 3: checkpoint write — serialize the verified state
  // (journals, fam tree, CM-Tree, world state) into the two-slot store
  // with persist-before-publish, then a small tail of post-checkpoint
  // appends so the recovery row below replays a realistic tail.
  RemoveCheckpoints(kCkptBase);
  uint64_t tail = journals / 100 < 16 ? 16 : journals / 100;
  {
    auto journal_stream = MustOpen(kJournalPath);
    auto block_stream = MustOpen(kBlockPath);
    CheckpointStore ckpt(Env::Default(), kCkptBase);
    std::unique_ptr<Ledger> ledger;
    Status s = Ledger::Recover(
        "lg://bench-recover", options, &clock, lsp, &registry,
        LedgerStorage{journal_stream.get(), block_stream.get(), &ckpt},
        &ledger);
    if (!s.ok()) {
      std::fprintf(stderr, "recover for checkpoint: %s\n", s.ToString().c_str());
      return 1;
    }
    LatencySampler lat;
    for (int i = 0; i < kIters; ++i) {
      lat.Time([&] {
        Status ws = ledger->WriteCheckpoint(nullptr);
        if (!ws.ok()) {
          std::fprintf(stderr, "checkpoint: %s\n", ws.ToString().c_str());
          std::exit(1);
        }
      });
    }
    double jps = static_cast<double>(ledger->NumJournals()) /
                 (lat.PercentileUs(0.0) / 1e6);
    std::printf("%-28s %12.0f journals/s (min %.1fms, p50 %.1fms)\n",
                "checkpoint write", jps, lat.PercentileUs(0.0) / 1e3,
                lat.PercentileUs(50.0) / 1e3);
    AddStage(&json, "checkpoint_write",
             static_cast<double>(ledger->NumJournals()), lat);

    std::string payload(kPayloadBytes, 'x');
    for (uint64_t i = 0; i < tail; ++i) {
      ClientTransaction tx;
      tx.ledger_uri = "lg://bench-recover";
      tx.clues = {"acct-" + std::to_string(i % 4096)};
      tx.payload = StringToBytes(payload);
      tx.nonce = journals + i;
      tx.client_ts = clock.Now();
      tx.Sign(alice);
      Status as = ledger->Append(tx, nullptr);
      if (!as.ok()) {
        std::fprintf(stderr, "tail append: %s\n", as.ToString().c_str());
        return 1;
      }
      clock.Advance(1000);
    }
  }
  json.SetMeta("tail_journals", static_cast<double>(tail));

  // ---- Stage 4: tail replay. Recovery adopts the newest verified
  // checkpoint (commitment-bound, SHA-256-pinned snapshot) and replays
  // only the journals past its watermark — the headline restart-latency
  // win over full replay.
  {
    LatencySampler lat;
    uint64_t recovered_journals = 0;
    bool used_checkpoint = true;
    for (int i = 0; i < kIters; ++i) {
      auto journal_stream = MustOpen(kJournalPath);
      auto block_stream = MustOpen(kBlockPath);
      CheckpointStore ckpt(Env::Default(), kCkptBase);
      std::unique_ptr<Ledger> recovered;
      RecoveryInfo info;
      Status s;
      lat.Time([&] {
        s = Ledger::Recover(
            "lg://bench-recover", options, &clock, lsp, &registry,
            LedgerStorage{journal_stream.get(), block_stream.get(), &ckpt},
            &recovered, &info);
      });
      if (!s.ok()) {
        std::fprintf(stderr, "tail recover: %s\n", s.ToString().c_str());
        return 1;
      }
      used_checkpoint &= info.used_checkpoint;
      recovered_journals = recovered->NumJournals();
    }
    if (!used_checkpoint) {
      std::fprintf(stderr, "tail recover fell back to full replay\n");
      return 1;
    }
    double min_us = lat.PercentileUs(0.0);
    double jps = static_cast<double>(recovered_journals) / (min_us / 1e6);
    double speedup = full_replay_min_us / min_us;
    std::printf("%-28s %12.0f journals/s (min %.1fms, %.1fx vs full replay)\n",
                "checkpoint + tail replay", jps, min_us / 1e3, speedup);
    AddStage(&json, "checkpoint_tail_replay",
             static_cast<double>(recovered_journals), lat);
    json.SetMeta("tail_replay_speedup", speedup);
  }

  // ---- Stage 5: offline integrity sweep (what `ledgerdb_cli fsck` runs).
  {
    auto store = MustOpen(kJournalPath);
    uint64_t frames = store->Count();
    LatencySampler lat;
    for (int i = 0; i < kIters; ++i) {
      lat.Time([&] {
        Status s = store->Fsck();
        if (!s.ok()) {
          std::fprintf(stderr, "fsck: %s\n", s.ToString().c_str());
          std::exit(1);
        }
      });
    }
    double fps = static_cast<double>(frames) / (lat.PercentileUs(0.0) / 1e6);
    std::printf("%-28s %12.0f frames/s   (min %.1fms, p50 %.1fms)\n",
                "fsck (full CRC sweep)", fps, lat.PercentileUs(0.0) / 1e3,
                lat.PercentileUs(50.0) / 1e3);
    AddStage(&json, "fsck_crc_sweep", static_cast<double>(frames), lat);
  }

  RemoveStream(kJournalPath);
  RemoveStream(kBlockPath);
  RemoveCheckpoints(kCkptBase);
  return 0;
}

}  // namespace
}  // namespace ledgerdb

int main(int argc, char** argv) { return ledgerdb::Run(argc, argv); }
