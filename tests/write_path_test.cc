// Group-commit write pipeline tests (DESIGN.md §2.9): writer-queue
// leadership handoff, N-writer group-commit vs. serial content equality,
// WAL-failure sequence rollback, per-writer status isolation (a poisoned
// batch never fails its group), recovery replay of group-committed records,
// wal_sync_mode accounting, and concurrent (CAS) skiplist inserts — the
// last two also run under TSan/ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/fault_env.h"
#include "lsm/db.h"
#include "mem/memtable.h"
#include "wal/log_writer.h"
#include "workload/generator.h"
#include "write/write_queue.h"

namespace talus {
namespace {

DbOptions Opts(Env* env, const std::string& path) {
  DbOptions opts;
  opts.env = env;
  opts.path = path;
  opts.write_buffer_size = 64 << 10;
  opts.target_file_size = 64 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  return opts;
}

std::string Key(uint64_t i) { return workload::FormatKey(i, 16); }

using ScanResult = std::vector<std::pair<std::string, std::string>>;

ScanResult FullScan(DB* db) {
  ScanResult out;
  EXPECT_TRUE(db->Scan("", 1 << 20, &out).ok());
  return out;
}

// ---------------------------------------------------------------- WriteQueue

TEST(WriteQueueTest, SingleWriterLeadsImmediately) {
  write::WriteQueue queue;
  WriteBatch batch;
  batch.Put("k", "v");
  write::Writer w(&batch);
  ASSERT_TRUE(queue.JoinAndAwaitLeadership(&w));
  write::WriteGroup group;
  queue.BuildGroup(&w, 1 << 20, &group);
  ASSERT_EQ(group.writers.size(), 1u);
  EXPECT_EQ(group.writers[0], &w);
  queue.ExitGroup(&group);
}

TEST(WriteQueueTest, LeaderCommitsQueuedFollower) {
  write::WriteQueue queue;
  WriteBatch lead_batch, follow_batch;
  lead_batch.Put("a", "1");
  follow_batch.Put("b", "2");

  write::Writer leader(&lead_batch);
  ASSERT_TRUE(queue.JoinAndAwaitLeadership(&leader));

  std::atomic<bool> follower_led{false};
  std::atomic<bool> follower_done{false};
  Status follower_status;
  std::thread follower([&] {
    write::Writer w(&follow_batch);
    follower_led = queue.JoinAndAwaitLeadership(&w);
    follower_status = w.status;
    follower_done = true;
  });

  // Wait until the follower is visible in the queue, then commit it as part
  // of the leader's group.
  write::WriteGroup group;
  for (int i = 0; i < 10000 && group.writers.size() < 2; i++) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    queue.BuildGroup(&leader, 1 << 20, &group);
  }
  ASSERT_EQ(group.writers.size(), 2u);
  group.writers[1]->status = Status::OK();
  queue.ExitGroup(&group);

  follower.join();
  EXPECT_FALSE(follower_led.load());
  EXPECT_TRUE(follower_done.load());
  EXPECT_TRUE(follower_status.ok());
}

TEST(WriteQueueTest, GroupRespectsByteBudget) {
  write::WriteQueue queue;
  WriteBatch big;
  big.Put("key-big", std::string(1024, 'x'));
  write::Writer leader(&big);
  ASSERT_TRUE(queue.JoinAndAwaitLeadership(&leader));

  std::vector<std::unique_ptr<std::thread>> threads;
  std::vector<std::unique_ptr<write::Writer>> writers;
  std::vector<std::unique_ptr<WriteBatch>> batches;
  for (int i = 0; i < 3; i++) {
    batches.push_back(std::make_unique<WriteBatch>());
    batches.back()->Put("k" + std::to_string(i), std::string(1024, 'y'));
    writers.push_back(std::make_unique<write::Writer>(batches.back().get()));
  }
  for (auto& w : writers) {
    threads.push_back(std::make_unique<std::thread>([&queue, &w] {
      // A follower that gets promoted to leader drains itself (and anything
      // still queued behind it), like the real write path does.
      if (queue.JoinAndAwaitLeadership(w.get())) {
        write::WriteGroup own;
        queue.BuildGroup(w.get(), 1 << 20, &own);
        for (size_t j = 1; j < own.writers.size(); j++) {
          own.writers[j]->status = Status::OK();
        }
        queue.ExitGroup(&own);
      }
    }));
  }
  // Wait for all three followers to queue up behind the leader.
  write::WriteGroup probe;
  for (int i = 0; i < 10000 && probe.writers.size() < 4; i++) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    queue.BuildGroup(&leader, 1 << 20, &probe);
  }
  ASSERT_EQ(probe.writers.size(), 4u);

  // A ~2.1 KB budget fits the leader plus one 1 KB follower only; the
  // writers left behind lead their own follow-up groups and drain.
  write::WriteGroup group;
  queue.BuildGroup(&leader, 2100, &group);
  ASSERT_EQ(group.writers.size(), 2u);
  group.writers[1]->status = Status::OK();
  queue.ExitGroup(&group);
  for (auto& t : threads) t->join();
}

// -------------------------------------------------------- DB write pipeline

TEST(GroupCommit, SingleWriterCountersAndContent) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get(), "/gc1"), &db).ok());
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->Delete(Key(7)).ok());

  const EngineStats& stats = db->stats();
  EXPECT_EQ(stats.puts, 100u);
  EXPECT_EQ(stats.deletes, 1u);

  const metrics::GroupCommitStats gc = db->GetGroupCommitStats();
  EXPECT_EQ(gc.group_commits, 101u);
  EXPECT_EQ(gc.batches_committed, 101u);
  EXPECT_DOUBLE_EQ(gc.group_size_avg, 1.0);

  std::string value;
  ASSERT_TRUE(db->Get(Key(42), &value).ok());
  EXPECT_EQ(value, "v42");
  EXPECT_TRUE(db->Get(Key(7), &value).IsNotFound());

  std::string props;
  ASSERT_TRUE(db->GetProperty("talus.stats", &props));
  EXPECT_NE(props.find("group_commits=101"), std::string::npos);
  EXPECT_NE(props.find("group_size_avg=1.00"), std::string::npos);
}

// The pre-pipeline engine counted every batch operation — deletes included —
// as a put. The split counters are part of the sequence/counter bugfix.
TEST(GroupCommit, BatchCountsSplitPutsAndDeletes) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(env.get(), "/gc2"), &db).ok());
  WriteBatch batch;
  batch.Put("alpha", "1");
  batch.Put("beta", "2");
  batch.Delete("alpha");
  ASSERT_TRUE(db->Write(batch).ok());
  EXPECT_EQ(db->stats().puts, 2u);
  EXPECT_EQ(db->stats().deletes, 1u);
}

// The pre-pipeline engine advanced last_sequence_ (and counters) before the
// WAL append could fail, leaking sequences on error. A failed group must
// claim nothing — and because the failed record may still have reached the
// log (sync-after-append failures), the error latches: further writes fail
// fast instead of re-claiming the range (which could put two WAL records
// with the same base_seq on disk). Reads and reopen keep working.
TEST(GroupCommit, WalFailureRollsBackSequencesAndLatches) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  DbOptions opts = Opts(&env, "/gc3");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  ASSERT_TRUE(db->Put(Key(1), "one").ok());

  const Snapshot* before = db->GetSnapshot();
  const SequenceNumber seq_before = before->sequence();
  const uint64_t puts_before = db->stats().puts;
  db->ReleaseSnapshot(before);

  env.FailAfterWrites(0);
  Status s = db->Put(Key(2), "two");
  EXPECT_FALSE(s.ok());
  env.Disarm();

  // The failed write claimed nothing: same sequence, same counters.
  const Snapshot* after = db->GetSnapshot();
  EXPECT_EQ(after->sequence(), seq_before);
  db->ReleaseSnapshot(after);
  EXPECT_EQ(db->stats().puts, puts_before);

  // The WAL error is latched: subsequent writes fail fast, reads serve the
  // committed state.
  EXPECT_FALSE(db->Put(Key(3), "three").ok());
  std::string value;
  ASSERT_TRUE(db->Get(Key(1), &value).ok());
  EXPECT_EQ(value, "one");
  EXPECT_TRUE(db->Get(Key(2), &value).IsNotFound());

  // Reopening recovers the pre-failure state and accepts writes again.
  db.reset();
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  ASSERT_TRUE(db->Get(Key(1), &value).ok());
  EXPECT_TRUE(db->Get(Key(2), &value).IsNotFound());
  ASSERT_TRUE(db->Put(Key(3), "three").ok());
  ASSERT_TRUE(db->Get(Key(3), &value).ok());
  EXPECT_EQ(value, "three");
}

// A batch naming an empty key fails with InvalidArgument on its own; the
// rest of its commit group lands normally.
TEST(GroupCommit, PoisonedBatchFailsAloneInGroup) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/gc4");
  opts.execution_mode = ExecutionMode::kBackground;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  constexpr int kGoodThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::atomic<int> poisoned_failures{0};
  std::atomic<int> good_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kGoodThreads; t++) {
    threads.emplace_back([&db, &good_failures, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        WriteBatch batch;
        batch.Put(Key(t * kOpsPerThread + i), "good");
        if (!db->Write(batch).ok()) good_failures++;
      }
    });
  }
  threads.emplace_back([&db, &poisoned_failures] {
    for (int i = 0; i < kOpsPerThread; i++) {
      WriteBatch batch;
      batch.Put("", "poison");
      Status s = db->Write(batch);
      if (s.IsInvalidArgument()) poisoned_failures++;
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(good_failures.load(), 0);
  EXPECT_EQ(poisoned_failures.load(), kOpsPerThread);
  ASSERT_TRUE(db->FlushMemTable().ok());
  EXPECT_EQ(FullScan(db.get()).size(),
            static_cast<size_t>(kGoodThreads * kOpsPerThread));
}

// N concurrent writers through the group-commit pipeline must produce
// exactly the content a serial single-writer run produces (threads own
// disjoint key ranges, so the final state is deterministic).
ScanResult RunConcurrentWorkload(int writers) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/gcw");
  opts.execution_mode = ExecutionMode::kBackground;
  std::unique_ptr<DB> db;
  EXPECT_TRUE(DB::Open(opts, &db).ok());

  constexpr int kKeysPerThread = 400;
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < writers; t++) {
    threads.emplace_back([&db, t] {
      for (int r = 0; r < kRounds; r++) {
        for (int i = 0; i < kKeysPerThread; i++) {
          const uint64_t k = static_cast<uint64_t>(t) * kKeysPerThread + i;
          if (r == 1 && i % 7 == 0) {
            EXPECT_TRUE(db->Delete(Key(k)).ok());
          } else {
            WriteBatch batch;
            batch.Put(Key(k), "r" + std::to_string(r) + "-" +
                                  std::to_string(k));
            EXPECT_TRUE(db->Write(batch).ok());
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(db->FlushMemTable().ok());
  return FullScan(db.get());
}

TEST(GroupCommit, ConcurrentWritersMatchSerialContent) {
  const ScanResult serial = RunConcurrentWorkload(1);
  // Sanity: a 1-writer serial run has every key at its round-2 value.
  ASSERT_EQ(serial.size(), 400u);
  const ScanResult concurrent = RunConcurrentWorkload(4);
  // 4 writers × the same per-thread workload over 4 disjoint ranges.
  ASSERT_EQ(concurrent.size(), 1600u);
  // Thread 0's range must be bit-identical to the serial run.
  for (size_t i = 0; i < serial.size(); i++) {
    EXPECT_EQ(concurrent[i].first, serial[i].first);
    EXPECT_EQ(concurrent[i].second, serial[i].second);
  }
}

// Un-flushed group-committed WAL records replay on Open: every acknowledged
// write survives an abrupt shutdown.
TEST(GroupCommit, RecoveryReplaysGroupCommittedRecords) {
  auto env = NewMemEnv();
  DbOptions opts = Opts(env.get(), "/gc5");
  opts.execution_mode = ExecutionMode::kBackground;
  opts.write_buffer_size = 8 << 20;  // Keep everything in the WAL + memtable.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 300;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&db, t] {
        for (int i = 0; i < kOpsPerThread; i++) {
          const uint64_t k = static_cast<uint64_t>(t) * kOpsPerThread + i;
          ASSERT_TRUE(db->Put(Key(k), "wal-" + std::to_string(k)).ok());
        }
      });
    }
    for (auto& t : threads) t.join();
    // Abrupt shutdown: no flush, recovery must come from the WAL.
  }
  DbOptions reopen = Opts(env.get(), "/gc5");
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(reopen, &db).ok());
  for (uint64_t k = 0; k < kThreads * kOpsPerThread; k++) {
    std::string value;
    ASSERT_TRUE(db->Get(Key(k), &value).ok()) << "lost key " << k;
    EXPECT_EQ(value, "wal-" + std::to_string(k));
  }
}

TEST(GroupCommit, WalSyncModeAccounting) {
  {  // kNone: the write path never syncs.
    auto env = NewMemEnv();
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(env.get(), "/gc6a"), &db).ok());
    for (int i = 0; i < 50; i++) ASSERT_TRUE(db->Put(Key(i), "v").ok());
    EXPECT_EQ(db->GetGroupCommitStats().wal_syncs, 0u);
  }
  {  // kPerGroup: one sync per commit group.
    auto env = NewMemEnv();
    DbOptions opts = Opts(env.get(), "/gc6b");
    opts.wal_sync_mode = WalSyncMode::kPerGroup;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    for (int i = 0; i < 50; i++) ASSERT_TRUE(db->Put(Key(i), "v").ok());
    const metrics::GroupCommitStats gc = db->GetGroupCommitStats();
    EXPECT_EQ(gc.wal_syncs, gc.group_commits);
  }
  {  // kInterval with a huge interval: at most the first sync fires.
    auto env = NewMemEnv();
    DbOptions opts = Opts(env.get(), "/gc6d");
    opts.wal_sync_mode = WalSyncMode::kInterval;
    opts.wal_sync_interval_micros = 60ull * 1000 * 1000;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    for (int i = 0; i < 50; i++) ASSERT_TRUE(db->Put(Key(i), "v").ok());
    EXPECT_LE(db->GetGroupCommitStats().wal_syncs, 1u);
  }
}

TEST(GroupCommit, LogWriterTracksUnsyncedBytes) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->CreateDirIfMissing("/wal").ok());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/wal/000001.wal", &file).ok());
  wal::LogWriter writer(std::move(file));
  EXPECT_EQ(writer.unsynced_bytes(), 0u);
  ASSERT_TRUE(writer.AddRecord("hello").ok());
  EXPECT_EQ(writer.unsynced_bytes(), wal::kHeaderSize + 5);
  ASSERT_TRUE(writer.AddRecord("x").ok());
  EXPECT_EQ(writer.unsynced_bytes(), 2 * wal::kHeaderSize + 6);
  ASSERT_TRUE(writer.Sync().ok());
  EXPECT_EQ(writer.unsynced_bytes(), 0u);
}

// Direct MemTable exercise of the CAS skiplist: concurrent inserters with
// disjoint sequence ranges must yield a complete, strictly ordered table.
TEST(GroupCommit, ConcurrentMemtableInsertsStayOrdered) {
  MemTable mem;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&mem, t] {
      for (int i = 0; i < kPerThread; i++) {
        const uint64_t k = static_cast<uint64_t>(t) * kPerThread + i;
        mem.Add(/*seq=*/1 + k, kTypeValue, Key(k), "v" + std::to_string(k));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(mem.num_entries(), static_cast<uint64_t>(kThreads * kPerThread));
  auto iter = mem.NewIterator();
  iter->SeekToFirst();
  InternalKeyComparator cmp;
  std::string prev;
  uint64_t count = 0;
  while (iter->Valid()) {
    if (count > 0) {
      EXPECT_LT(cmp.Compare(Slice(prev), iter->key()), 0);
    }
    prev.assign(iter->key().data(), iter->key().size());
    count++;
    iter->Next();
  }
  EXPECT_EQ(count, static_cast<uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace talus
