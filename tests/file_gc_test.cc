// Obsolete-file deletion in background mode: the reaper's workers unlink
// what flushes, compactions and view releases let go of, at most
// DB::kUnlinkThreads at a time, and FlushMemTable, CompactAll and ~DB drain
// them — so a quiesced directory holds exactly the live files.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "env/fault_env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/manifest.h"
#include "workload/generator.h"

namespace talus {
namespace {

constexpr char kPath[] = "/gc";

// Unlinks cost 2 ms, as on the benchmark's device model, so batches are
// still in flight when a test looks. Counts unlinks made on one watched
// thread, the most unlinks ever in flight at once, and how many were in
// flight when the first one failed.
class SlowUnlinkEnv : public FaultInjectionEnv {
 public:
  using FaultInjectionEnv::FaultInjectionEnv;
  Status RemoveFile(const std::string& fname) override {
    if (std::this_thread::get_id() == watched_.load()) watched_unlinks_++;
    const int in_flight = ++in_flight_;
    int peak = max_in_flight_.load();
    while (in_flight > peak &&
           !max_in_flight_.compare_exchange_weak(peak, in_flight)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Status s = FaultInjectionEnv::RemoveFile(fname);
    if (!s.ok()) {
      int none = 0;
      in_flight_at_failure_.compare_exchange_strong(none, in_flight_.load());
    }
    in_flight_--;
    return s;
  }
  void Watch(std::thread::id id) { watched_ = id; }
  int watched_unlinks() const { return watched_unlinks_; }
  int max_in_flight() const { return max_in_flight_; }
  int in_flight_at_failure() const { return in_flight_at_failure_; }

 private:
  std::atomic<std::thread::id> watched_{};
  std::atomic<int> watched_unlinks_{0};
  std::atomic<int> in_flight_{0};
  std::atomic<int> max_in_flight_{0};
  std::atomic<int> in_flight_at_failure_{0};
};

DbOptions Opts(Env* env) {
  DbOptions opts;
  opts.env = env;
  opts.path = kPath;
  opts.write_buffer_size = 8 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  opts.execution_mode = ExecutionMode::kBackground;
  opts.event_ring_size = 1 << 16;
  return opts;
}

std::string Key(int i) { return workload::FormatKey(i, 16); }

// 4 writers overwriting a shared key range: many flushes, compactions and
// obsolete files while the reaper runs.
void WriteConcurrently(DB* db, int per_writer) {
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; t++) {
    writers.emplace_back([db, t, per_writer] {
      for (int i = 0; i < per_writer; i++) {
        ASSERT_TRUE(db->Put(Key((i * 4 + t) % 2000),
                            std::string(64, static_cast<char>('a' + t)))
                        .ok());
      }
    });
  }
  for (auto& w : writers) w.join();
}

struct DirContents {
  std::set<uint64_t> ssts;
  std::set<uint64_t> wals;
  std::set<uint64_t> manifests;
  bool current = false;
  std::vector<std::string> other;
};

DirContents ListDir(Env* env) {
  DirContents d;
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(kPath, &children).ok());
  for (const auto& name : children) {
    uint64_t number = 0;
    std::string suffix;
    if (name == "CURRENT") {
      d.current = true;
    } else if (ParseFileName(name, &number, &suffix) && suffix == "sst") {
      d.ssts.insert(number);
    } else if (ParseFileName(name, &number, &suffix) && suffix == "wal") {
      d.wals.insert(number);
    } else if (ParseFileName(name, &number, &suffix) &&
               suffix == "manifest") {
      d.manifests.insert(number);
    } else {
      d.other.push_back(name);
    }
  }
  return d;
}

std::set<uint64_t> TablesOf(const Version& v) {
  std::set<uint64_t> out;
  for (const LevelState& level : v.levels) {
    for (const SortedRun& run : level.runs) {
      for (const FileMetaPtr& f : run.files) out.insert(f->number);
    }
  }
  return out;
}

// A quiesced background DB's directory holds exactly the version's SSTs,
// the live WAL, one MANIFEST (the one CURRENT names) and CURRENT.
void ExpectOnlyLiveFiles(Env* env, DB* db, const std::string& when) {
  ManifestData manifest;
  uint64_t manifest_number = 0;
  ASSERT_TRUE(
      ReadCurrentManifest(env, kPath, &manifest, &manifest_number).ok());
  const DirContents d = ListDir(env);
  EXPECT_EQ(d.ssts, TablesOf(db->current_version())) << when;
  EXPECT_EQ(d.ssts, TablesOf(manifest.version)) << when;
  EXPECT_EQ(d.wals, std::set<uint64_t>{manifest.wal_number}) << when;
  EXPECT_EQ(d.manifests, std::set<uint64_t>{manifest_number}) << when;
  EXPECT_TRUE(d.current) << when;
  EXPECT_TRUE(d.other.empty()) << when << ": " << d.other.size();
}

TEST(FileGc, FlushAndCompactAllDrainTheReaper) {
  auto base = NewMemEnv();
  SlowUnlinkEnv env(base.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
  WriteConcurrently(db.get(), 800);
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_GT(db->stats().obsolete_files_deleted, 0u);
  ExpectOnlyLiveFiles(&env, db.get(), "after FlushMemTable");

  WriteConcurrently(db.get(), 500);
  ASSERT_TRUE(db->CompactAll().ok());
  ExpectOnlyLiveFiles(&env, db.get(), "after CompactAll");
}

TEST(FileGc, DestructorDrainsQueuedBatches) {
  auto base = NewMemEnv();
  SlowUnlinkEnv env(base.get());
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
    WriteConcurrently(db.get(), 800);
    // No flush: jobs and reaper batches are still in flight here.
  }
  ManifestData manifest;
  ASSERT_TRUE(ReadCurrentManifest(&env, kPath, &manifest, nullptr).ok());
  const DirContents d = ListDir(&env);
  EXPECT_EQ(d.ssts, TablesOf(manifest.version));
  EXPECT_EQ(d.manifests.size(), 1u);
  ASSERT_FALSE(d.wals.empty());
  // WALs older than the manifest's oldest live one are gone.
  EXPECT_GE(*d.wals.begin(), manifest.wal_number);
  EXPECT_TRUE(d.other.empty());

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
  std::string value;
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Get(Key(i), &value).ok()) << i;
  }
}

// A reader that drops the last pin on obsolete files hands them to the
// reaper instead of unlinking them on its own thread.
TEST(FileGc, ViewReleasePostsToReaper) {
  auto base = NewMemEnv();
  SlowUnlinkEnv env(base.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
  WriteConcurrently(db.get(), 500);
  ASSERT_TRUE(db->FlushMemTable().ok());
  auto iter = db->NewIterator();
  ASSERT_TRUE(db->CompactAll().ok());  // Replaces every file the iterator pins.
  EXPECT_GT(ListDir(&env).ssts.size(), TablesOf(db->current_version()).size());

  env.Watch(std::this_thread::get_id());
  iter.reset();  // Drops the last pins.
  env.Watch(std::thread::id());
  EXPECT_EQ(env.watched_unlinks(), 0);

  ASSERT_TRUE(db->FlushMemTable().ok());  // Drains the reaper.
  ExpectOnlyLiveFiles(&env, db.get(), "after the view release");
}

// Manifest commits and reaper batches are visible in the event ring: bytes
// and micros per commit, files and micros per unlink batch.
TEST(FileGc, CommitAndUnlinkEventsCarryTimings) {
  auto base = NewMemEnv();
  SlowUnlinkEnv env(base.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
  WriteConcurrently(db.get(), 500);
  ASSERT_TRUE(db->FlushMemTable().ok());
  uint64_t commits = 0, unlinked = 0, unlink_us = 0;
  for (const obs::Event& e : db->event_ring()->Snapshot()) {
    if (e.type == obs::EventType::kManifestCommit) {
      commits++;
      EXPECT_GT(e.a, 0u);  // Record bytes.
    } else if (e.type == obs::EventType::kGcDelete) {
      unlinked += e.a;
      unlink_us += e.b;
    }
  }
  EXPECT_GE(commits, db->stats().flushes);
  EXPECT_GT(unlinked, 0u);
  EXPECT_GE(unlink_us, unlinked * 2000);  // 2 ms per unlink.
  std::string events;
  ASSERT_TRUE(db->GetProperty("talus.events", &events));
  EXPECT_NE(events.find("event=manifest_commit"), std::string::npos);
}

// The workers unlink a batch in parallel, never more files at once than
// there are workers.
TEST(FileGc, UnlinksRunInParallelUpToTheWorkerCount) {
  auto base = NewMemEnv();
  SlowUnlinkEnv env(base.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
  WriteConcurrently(db.get(), 800);
  ASSERT_TRUE(db->FlushMemTable().ok());
  EXPECT_GE(env.max_in_flight(), 2);
  EXPECT_LE(env.max_in_flight(), DB::kUnlinkThreads);
  ExpectOnlyLiveFiles(&env, db.get(), "after FlushMemTable");
}

// An unlink failing while others of its batch are in flight latches one
// background error, which writers then get; draining and closing still
// finish, and the next Open sweeps the files left behind.
TEST(FileGc, FailedParallelUnlinkLatchesTheBackgroundError) {
  auto base = NewMemEnv();
  SlowUnlinkEnv env(base.get());
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
    WriteConcurrently(db.get(), 800);
    ASSERT_TRUE(db->FlushMemTable().ok());
    ASSERT_GE(TablesOf(db->current_version()).size(), 8u);
    // CompactAll replaces every table and hands them over as one batch;
    // its third unlink fails, and so does every unlink after it. The
    // unlinks run after its install, so the failure reaches writers
    // through the background error, not through CompactAll's status.
    env.FailAt(FaultInjectionEnv::Op::kRemove, ".sst", 2);
    (void)db->CompactAll();  // Drains the reaper: the failure is latched.
    ASSERT_TRUE(env.failing());
    EXPECT_GE(env.in_flight_at_failure(), 2);

    const Status s = db->Put(Key(1), "after");
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_NE(s.ToString().find("injected remove failure"), std::string::npos)
        << s.ToString();
    EXPECT_EQ(db->Put(Key(2), "after").ToString(), s.ToString());
    EXPECT_EQ(db->FlushMemTable().ToString(), s.ToString());
  }  // ~DB drains and joins the workers with every unlink still failing.
  env.Disarm();

  const DirContents orphaned = ListDir(&env);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
  EXPECT_LT(TablesOf(db->current_version()).size(), orphaned.ssts.size());
  ExpectOnlyLiveFiles(&env, db.get(), "after reopen");
  std::string value;
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Get(Key(i), &value).ok()) << i;
  }
}

}  // namespace
}  // namespace talus
