// Range-sharded frontend (src/shard/, DESIGN.md §3): routing and split
// points, the global sequence watermark, shard_count=1 bit-equality with the
// plain engine, cross-shard snapshot & iterator consistency under concurrent
// writers, acknowledged writes staying visible while another shard commits,
// and parallel recovery after a simulated crash mid-write.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "env/fault_env.h"
#include "lsm/db.h"
#include "shard/sequence_allocator.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/sharded_db.h"
#include "util/random.h"
#include "workload/generator.h"

namespace talus {
namespace {

std::string Key(int i) { return workload::FormatKey(i, 16); }

// Split points matching the workload key space (shard i gets [i*per,
// (i+1)*per) of the index space).
std::vector<std::string> SplitPoints(int shards, int num_keys) {
  std::vector<std::string> points;
  for (int i = 1; i < shards; i++) {
    points.push_back(Key(num_keys * i / shards));
  }
  return points;
}

DbOptions Opts(Env* env, const std::string& path) {
  DbOptions opts;
  opts.env = env;
  opts.path = path;
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  return opts;
}

// ---- Router units ----------------------------------------------------------

TEST(ShardRouter, RoutesByUpperBound) {
  shard::ShardRouter router;
  ASSERT_TRUE(shard::ShardRouter::Create({"f", "m", "t"}, &router).ok());
  EXPECT_EQ(router.shard_count(), 4u);
  EXPECT_EQ(router.ShardFor("a"), 0u);
  EXPECT_EQ(router.ShardFor("e~"), 0u);
  EXPECT_EQ(router.ShardFor("f"), 1u);  // Boundary belongs to the right.
  EXPECT_EQ(router.ShardFor("g"), 1u);
  EXPECT_EQ(router.ShardFor("m"), 2u);
  EXPECT_EQ(router.ShardFor("s"), 2u);
  EXPECT_EQ(router.ShardFor("t"), 3u);
  EXPECT_EQ(router.ShardFor("zzz"), 3u);
}

TEST(ShardRouter, RejectsBadBoundaries) {
  shard::ShardRouter router;
  EXPECT_FALSE(shard::ShardRouter::Create({"m", "f"}, &router).ok());
  EXPECT_FALSE(shard::ShardRouter::Create({"f", "f"}, &router).ok());
  EXPECT_FALSE(shard::ShardRouter::Create({""}, &router).ok());
  EXPECT_TRUE(shard::ShardRouter::Create({}, &router).ok());
  EXPECT_EQ(router.shard_count(), 1u);
}

TEST(ShardRouter, DefaultBoundariesAreOrdered) {
  const auto b = shard::ShardRouter::DefaultBoundaries(8);
  ASSERT_EQ(b.size(), 7u);
  for (size_t i = 1; i < b.size(); i++) EXPECT_LT(b[i - 1], b[i]);
  shard::ShardRouter router;
  ASSERT_TRUE(shard::ShardRouter::Create(b, &router).ok());
  EXPECT_EQ(router.shard_count(), 8u);
}

// ---- Sequence allocator units ---------------------------------------------

TEST(SequenceAllocator, WatermarkWaitsForGaps) {
  shard::SequenceAllocator alloc;
  const SequenceNumber a = alloc.Claim(3);  // 1..3
  const SequenceNumber b = alloc.Claim(2);  // 4..5
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(alloc.visible(), 0u);
  alloc.Publish(b, 2);  // Out of order: blocked behind the hole at 1..3.
  EXPECT_EQ(alloc.visible(), 0u);
  alloc.Publish(a, 3);
  EXPECT_EQ(alloc.visible(), 5u);
}

TEST(SequenceAllocator, ResetRestartsAfterRecovery) {
  shard::SequenceAllocator alloc;
  alloc.Reset(41);
  EXPECT_EQ(alloc.visible(), 41u);
  const SequenceNumber base = alloc.Claim(1);
  EXPECT_EQ(base, 42u);
  alloc.Publish(base, 1);
  EXPECT_EQ(alloc.visible(), 42u);
}

// ---- Shard manifest --------------------------------------------------------

TEST(ShardManifest, RoundTripsAndPinsSplitPoints) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->CreateDirIfMissing("/sm").ok());
  shard::ShardManifest manifest;
  manifest.boundaries = {"g", "p"};
  ASSERT_TRUE(shard::WriteShardManifest(env.get(), "/sm", manifest).ok());
  shard::ShardManifest reloaded;
  ASSERT_TRUE(shard::ReadShardManifest(env.get(), "/sm", &reloaded).ok());
  EXPECT_EQ(reloaded.boundaries, manifest.boundaries);
  EXPECT_TRUE(
      shard::ReadShardManifest(env.get(), "/absent", &reloaded).IsNotFound());
}

TEST(ShardManifest, ReopenWithDifferentSplitPointsFails) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/resplit");
  opts.shard_count = 2;
  opts.shard_split_points = {Key(500)};
  {
    std::unique_ptr<shard::ShardedDB> db;
    ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
    ASSERT_TRUE(db->Put(Key(1), "v").ok());
  }
  // Same split points reopen fine; different ones must be refused.
  {
    std::unique_ptr<shard::ShardedDB> db;
    ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  }
  opts.shard_split_points = {Key(600)};
  std::unique_ptr<shard::ShardedDB> db;
  EXPECT_TRUE(shard::ShardedDB::Open(opts, &db).IsInvalidArgument());
}

// ---- shard_count=1 bit-equality -------------------------------------------

TEST(ShardedDB, SingleShardBitIdenticalToPlainDb) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> plain;
  ASSERT_TRUE(DB::Open(Opts(env.get(), "/plain"), &plain).ok());
  DbOptions sharded_opts = Opts(env.get(), "/sharded");
  sharded_opts.shard_count = 1;
  std::unique_ptr<shard::ShardedDB> sharded;
  ASSERT_TRUE(shard::ShardedDB::Open(sharded_opts, &sharded).ok());

  // A deterministic mixed workload (overwrites, deletes, batches) driven
  // through both engines. Inline mode: flushes/compactions happen at the
  // same points, so every observable output must match bit-for-bit.
  Random rnd(42);
  for (int i = 0; i < 2000; i++) {
    const std::string key = Key(rnd.Uniform(400));
    if (i % 11 == 3) {
      ASSERT_TRUE(plain->Delete(key).ok());
      ASSERT_TRUE(sharded->Delete(key).ok());
    } else if (i % 17 == 5) {
      WriteBatch batch;
      batch.Put(key, "batch-" + std::to_string(i));
      batch.Put(Key(rnd.Uniform(400)), "batch2-" + std::to_string(i));
      ASSERT_TRUE(plain->Write(batch).ok());
      ASSERT_TRUE(sharded->Write(batch).ok());
    } else {
      const std::string value = "v-" + std::to_string(i);
      ASSERT_TRUE(plain->Put(key, value).ok());
      ASSERT_TRUE(sharded->Put(key, value).ok());
    }
  }

  std::vector<std::pair<std::string, std::string>> plain_scan, sharded_scan;
  ASSERT_TRUE(plain->Scan(Slice(), 100000, &plain_scan).ok());
  ASSERT_TRUE(sharded->Scan(Slice(), 100000, &sharded_scan).ok());
  EXPECT_EQ(plain_scan, sharded_scan);

  std::string plain_stats, sharded_stats;
  ASSERT_TRUE(plain->GetProperty("talus.stats", &plain_stats));
  ASSERT_TRUE(sharded->GetProperty("talus.stats", &sharded_stats));
  EXPECT_EQ(plain_stats, sharded_stats);
  std::string plain_levels, sharded_levels;
  ASSERT_TRUE(plain->GetProperty("talus.levels", &plain_levels));
  ASSERT_TRUE(sharded->GetProperty("talus.levels", &sharded_levels));
  EXPECT_EQ(plain_levels, sharded_levels);
}

// ---- Routing and cross-shard reads ----------------------------------------

TEST(ShardedDB, RoutesAndScansAcrossShards) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/routed");
  opts.shard_count = 4;
  opts.shard_split_points = SplitPoints(4, 1000);
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(Key(i), "val-" + std::to_string(i)).ok());
  }
  // Every shard owns a quarter of the key space.
  for (size_t s = 0; s < 4; s++) {
    EXPECT_EQ(db->shard(s)->stats().puts, 250u) << "shard " << s;
  }
  // Point reads route back.
  for (int i = 0; i < 1000; i += 97) {
    std::string value;
    ASSERT_TRUE(db->Get(Key(i), &value).ok()) << i;
    EXPECT_EQ(value, "val-" + std::to_string(i));
  }
  // A full scan is ordered and complete across shard boundaries.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db->Scan(Slice(), 100000, &out).ok());
  ASSERT_EQ(out.size(), 1000u);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(out[i].first, Key(i));
  }
  // A mid-range scan starts in the right shard and crosses into the next.
  ASSERT_TRUE(db->Scan(Key(240), 20, &out).ok());
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; i++) EXPECT_EQ(out[i].first, Key(240 + i));

  std::string shards_prop;
  ASSERT_TRUE(db->GetProperty("talus.shards", &shards_prop));
  EXPECT_NE(shards_prop.find("shard=0"), std::string::npos);
  EXPECT_NE(shards_prop.find("shard=3"), std::string::npos);
  std::string agg;
  ASSERT_TRUE(db->GetProperty("talus.stats", &agg));
  EXPECT_NE(agg.find("shards=4"), std::string::npos);
  EXPECT_NE(agg.find("puts=1000"), std::string::npos);
}

TEST(ShardedDB, MultiShardBatchIsAtomicInSnapshots) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/atomic");
  opts.shard_count = 2;
  opts.shard_split_points = SplitPoints(2, 1000);
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  // Pairs (i, 500+i) always live in different shards and are written in
  // one batch; any snapshot must see both sides at the same round.
  for (int round = 0; round < 50; round++) {
    WriteBatch batch;
    batch.Put(Key(7), "r" + std::to_string(round));
    batch.Put(Key(507), "r" + std::to_string(round));
    ASSERT_TRUE(db->Write(batch).ok());
    const Snapshot* snap = db->GetSnapshot();
    std::string left, right;
    ASSERT_TRUE(db->Get(Key(7), &left, snap).ok());
    ASSERT_TRUE(db->Get(Key(507), &right, snap).ok());
    EXPECT_EQ(left, right) << "round " << round;
    db->ReleaseSnapshot(snap);
  }
}

// ---- Cross-shard snapshot consistency under concurrent writers -------------

TEST(ShardedDB, SnapshotConsistencyUnderConcurrentWriters) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/concurrent");
  opts.write_buffer_size = 16 << 10;
  opts.target_file_size = 16 << 10;
  opts.shard_count = 4;
  opts.shard_split_points = SplitPoints(4, 1000);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.num_background_threads = 3;
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  // 4 writers, each committing multi-shard batches that keep one invariant:
  // keys (w), (250+w), (500+w), (750+w) — one per shard — always carry the
  // same value. Readers snapshot/scan concurrently and must never see a
  // torn batch.
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; w++) {
    writers.emplace_back([&db, w] {
      for (int round = 0; round < 300; round++) {
        WriteBatch batch;
        const std::string value =
            "w" + std::to_string(w) + "-r" + std::to_string(round);
        for (int quarter = 0; quarter < 4; quarter++) {
          batch.Put(Key(quarter * 250 + w), value);
        }
        ASSERT_TRUE(db->Write(batch).ok());
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&db, &stop, &torn] {
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<std::pair<std::string, std::string>> out;
        if (!db->Scan(Slice(), 100000, &out).ok()) continue;
        std::map<std::string, std::string> by_key(out.begin(), out.end());
        for (int w = 0; w < 4; w++) {
          std::set<std::string> values;
          int present = 0;
          for (int quarter = 0; quarter < 4; quarter++) {
            auto it = by_key.find(Key(quarter * 250 + w));
            if (it == by_key.end()) continue;
            present++;
            values.insert(it->second);
          }
          // All four present with one value, or none yet written.
          if (present != 0 && (present != 4 || values.size() != 1)) {
            torn.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);

  // Quiesced end state: last round of each writer fully visible.
  ASSERT_TRUE(db->FlushMemTable().ok());
  for (int w = 0; w < 4; w++) {
    std::string value;
    ASSERT_TRUE(db->Get(Key(w), &value).ok());
    EXPECT_EQ(value, "w" + std::to_string(w) + "-r299");
  }
}

TEST(ShardedDB, IteratorPinsOneGlobalSequence) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/iterpin");
  opts.shard_count = 2;
  opts.shard_split_points = SplitPoints(2, 1000);
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(Key(i), "before").ok());
  }
  auto iter = db->NewIterator();
  // Writes landing after the pin — including cross-shard batches — must be
  // invisible to the already-created iterator.
  for (int i = 0; i < 1000; i += 3) {
    WriteBatch batch;
    batch.Put(Key(i), "after");
    batch.Put(Key(999 - i), "after");
    ASSERT_TRUE(db->Write(batch).ok());
  }
  size_t seen = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_EQ(iter->value().ToString(), "before");
    seen++;
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(seen, 1000u);
}

// ---- Acknowledged writes are visible ----------------------------------------

// Once armed, holds every WAL Sync of a path containing `fragment` until
// Release().
class SyncGateEnv : public FaultInjectionEnv {
 public:
  SyncGateEnv(Env* base, std::string fragment)
      : FaultInjectionEnv(base), fragment_(std::move(fragment)) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    Status s = FaultInjectionEnv::NewWritableFile(fname, result);
    if (s.ok() && fname.find(fragment_) != std::string::npos &&
        fname.size() > 4 && fname.compare(fname.size() - 4, 4, ".wal") == 0) {
      *result = std::make_unique<GatedFile>(std::move(*result), this);
    }
    return s;
  }
  void Arm() {
    std::lock_guard<std::mutex> l(mu_);
    armed_ = true;
  }
  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    armed_ = false;
    cv_.notify_all();
  }
  /// Blocks until a Sync is held at the gate.
  void AwaitHeld() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [this] { return held_ > 0; });
  }

 private:
  class GatedFile : public WritableFile {
   public:
    GatedFile(std::unique_ptr<WritableFile> base, SyncGateEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      env_->Pass();
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    SyncGateEnv* env_;
  };

  void Pass() {
    std::unique_lock<std::mutex> l(mu_);
    if (!armed_) return;
    held_++;
    cv_.notify_all();
    cv_.wait(l, [this] { return !armed_; });
  }

  const std::string fragment_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  int held_ = 0;
};

// Shard 0's commit claims a lower sequence and then sits in its WAL sync.
// A shard-1 write claimed above it is applied, but the watermark cannot
// cover it yet, so it must not be acknowledged: a Get issued after the ack
// would miss it.
TEST(ShardedDB, AckedWriteIsVisibleWhileAnEarlierShardCommitIsInFlight) {
  auto base = NewMemEnv();
  SyncGateEnv env(base.get(), "/shard-000/");
  DbOptions opts = Opts(&env, "/visible");
  opts.shard_count = 2;
  opts.shard_split_points = SplitPoints(2, 1000);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.wal_sync_mode = WalSyncMode::kPerGroup;
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());

  env.Arm();
  std::thread early([&db] { EXPECT_TRUE(db->Put(Key(1), "early").ok()); });
  env.AwaitHeld();
  std::atomic<bool> acked{false};
  Status get_after_ack;
  std::string value;
  std::thread late([&] {
    EXPECT_TRUE(db->Put(Key(600), "late").ok());
    acked = true;
    get_after_ack = db->Get(Key(600), &value);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(acked.load()) << "acknowledged before shard 0 published";
  env.Release();
  early.join();
  late.join();
  ASSERT_TRUE(get_after_ack.ok()) << get_after_ack.ToString();
  EXPECT_EQ(value, "late");
  ASSERT_TRUE(db->Get(Key(1), &value).ok());
  EXPECT_EQ(value, "early");
}

// ---- Parallel recovery after a simulated crash -----------------------------

TEST(ShardedDB, ParallelRecoveryAfterCrashMidWrite) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/crashed");
  opts.shard_count = 4;
  opts.shard_split_points = SplitPoints(4, 1000);
  {
    std::unique_ptr<shard::ShardedDB> db;
    ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(db->Put(Key(i), "durable-" + std::to_string(i)).ok());
    }
    // Crash: abandon the store with the memtables unflushed. MemEnv file
    // contents survive the DB objects, so reopening replays per-shard WALs
    // (in parallel on the shared pool).
  }
  std::unique_ptr<shard::ShardedDB> db;
  ASSERT_TRUE(shard::ShardedDB::Open(opts, &db).ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(db->Scan(Slice(), 100000, &out).ok());
  ASSERT_EQ(out.size(), 1000u);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(out[i].first, Key(i));
    EXPECT_EQ(out[i].second, "durable-" + std::to_string(i));
  }
  // The global sequence authority resumed past everything recovered: new
  // writes commit, become visible, and snapshot consistently.
  ASSERT_TRUE(db->Put(Key(1), "post-crash").ok());
  std::string value;
  ASSERT_TRUE(db->Get(Key(1), &value).ok());
  EXPECT_EQ(value, "post-crash");
  const Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Get(Key(1), &value, snap).ok());
  EXPECT_EQ(value, "post-crash");
  db->ReleaseSnapshot(snap);
}

}  // namespace
}  // namespace talus
