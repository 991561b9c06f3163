// Obsolete-file deletion in background mode: the reaper's workers unlink
// what flushes, compactions and view releases let go of, at most
// DB::kUnlinkThreads at a time, and FlushMemTable, CompactAll and ~DB drain
// them — so a quiesced directory holds exactly the live files. Jobs wait for
// the workers only while more than DB::kMaxUnlinkDebt files are outstanding.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
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
// flight when the first one failed. Two latches order a test's steps: one
// holds every unlink (handed-over files stay outstanding), the other lets
// only a given number of table files be created.
class SlowUnlinkEnv : public FaultInjectionEnv {
 public:
  using FaultInjectionEnv::FaultInjectionEnv;
  Status RemoveFile(const std::string& fname) override {
    {
      std::unique_lock<std::mutex> l(latch_mu_);
      held_unlinks_++;
      latch_cv_.wait(l, [this] { return !hold_unlinks_; });
      held_unlinks_--;
    }
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
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (fname.size() > 4 && fname.compare(fname.size() - 4, 4, ".sst") == 0) {
      std::unique_lock<std::mutex> l(latch_mu_);
      waiting_tables_++;
      latch_cv_.wait(l, [this] { return tables_allowed_ > 0; });
      waiting_tables_--;
      tables_allowed_--;
    }
    return FaultInjectionEnv::NewWritableFile(fname, result);
  }

  void Watch(std::thread::id id) { watched_ = id; }
  int watched_unlinks() const { return watched_unlinks_; }
  int max_in_flight() const { return max_in_flight_; }
  int in_flight_at_failure() const { return in_flight_at_failure_; }

  /// While held, every RemoveFile waits for ReleaseUnlinks().
  void HoldUnlinks() { SetLatch([this] { hold_unlinks_ = true; }); }
  void ReleaseUnlinks() { SetLatch([this] { hold_unlinks_ = false; }); }
  /// Unlinks waiting on the hold.
  int held_unlinks() { return Read([this] { return held_unlinks_; }); }
  /// Lets `n` more table files be created; later creations wait.
  void AllowTables(int n) { SetLatch([this, n] { tables_allowed_ = n; }); }
  void OpenTables() { AllowTables(1 << 30); }
  /// Table creations waiting for AllowTables.
  int waiting_tables() { return Read([this] { return waiting_tables_; }); }

 private:
  void SetLatch(const std::function<void()>& set) {
    {
      std::lock_guard<std::mutex> l(latch_mu_);
      set();
    }
    latch_cv_.notify_all();
  }
  int Read(const std::function<int()>& get) {
    std::lock_guard<std::mutex> l(latch_mu_);
    return get();
  }

  std::mutex latch_mu_;
  std::condition_variable latch_cv_;
  bool hold_unlinks_ = false;
  int held_unlinks_ = 0;
  int tables_allowed_ = 1 << 30;
  int waiting_tables_ = 0;

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

// Polls `done` for up to 20 s; a step that never happens fails the test
// instead of hanging it.
bool Eventually(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// The counter `key`=N in a property, after the first `scope` ("" = from the
// start); e.g. Counter(db, "talus.exec", "flush{", "completed").
uint64_t Counter(DB* db, const std::string& property, const std::string& scope,
                 const std::string& key) {
  std::string text;
  EXPECT_TRUE(db->GetProperty(property, &text));
  const size_t from = text.find(scope);
  const size_t at = text.find(" " + key + "=", from == std::string::npos
                                                   ? text.size()
                                                   : from);
  if (from == std::string::npos || at == std::string::npos) {
    ADD_FAILURE() << key << " not in " << property << ": " << text;
    return 0;
  }
  return std::strtoull(text.c_str() + at + key.size() + 2, nullptr, 10);
}

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

// With every unlink held, jobs keep handing files over until more than
// kMaxUnlinkDebt are outstanding, and then wait. Each wait is one gc_wait
// event carrying the debt it found, which never exceeds the cap plus the
// batch being handed over.
TEST(FileGc, UnlinkDebtStaysUnderTheCap) {
  auto base = NewMemEnv();
  SlowUnlinkEnv env(base.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
  env.HoldUnlinks();
  std::thread writers([&db] { WriteConcurrently(db.get(), 1500); });
  // Files handed over and not yet unlinked (none are, while held). Past
  // the cap, the next job's hand-off waits.
  const bool over_cap = Eventually([&db] {
    return Counter(db.get(), "talus.stats", "", "gc_unlinking") >
           DB::kMaxUnlinkDebt;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  env.ReleaseUnlinks();
  writers.join();
  ASSERT_TRUE(over_cap);
  ASSERT_TRUE(db->FlushMemTable().ok());

  uint64_t waits = 0, largest_batch = 0;
  std::vector<uint64_t> debts;
  for (const obs::Event& e : db->event_ring()->Snapshot()) {
    if (e.type == obs::EventType::kGcWait) {
      waits++;
      debts.push_back(e.a);
    } else if (e.type == obs::EventType::kGcDelete) {
      largest_batch = std::max(largest_batch, e.a);
    }
  }
  EXPECT_GE(waits, 1u);
  for (uint64_t debt : debts) {
    EXPECT_GT(debt, DB::kMaxUnlinkDebt);
    EXPECT_LE(debt, DB::kMaxUnlinkDebt + largest_batch);
  }
  std::string events;
  ASSERT_TRUE(db->GetProperty("talus.events", &events));
  EXPECT_NE(events.find("event=gc_wait"), std::string::npos);
  ExpectOnlyLiveFiles(&env, db.get(), "after the held unlinks");
}

// A flush hands its retired WAL over without waiting while CompactAll's
// batch, under the cap, is still being unlinked: the flush job finishes
// long before those unlinks do.
TEST(FileGc, FlushDoesNotWaitForAnEarlierBatch) {
  auto base = NewMemEnv();
  SlowUnlinkEnv env(base.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env), &db).ok());
  WriteConcurrently(db.get(), 200);
  ASSERT_TRUE(db->FlushMemTable().ok());
  const size_t tables = TablesOf(db->current_version()).size();
  ASSERT_GE(tables, 2u * DB::kUnlinkThreads);
  ASSERT_LE(tables, DB::kMaxUnlinkDebt);

  env.HoldUnlinks();
  Status compacted;
  std::thread compact_all([&] { compacted = db->CompactAll(); });
  // Every worker holds one of CompactAll's files: the batch is handed over.
  ASSERT_TRUE(Eventually(
      [&env] { return env.held_unlinks() == DB::kUnlinkThreads; }));
  const uint64_t flushes =
      Counter(db.get(), "talus.exec", "flush{", "completed");
  const uint64_t switches = Counter(db.get(), "talus.stats", "", "switches");
  for (int i = 0; Counter(db.get(), "talus.stats", "", "switches") == switches;
       i++) {
    ASSERT_TRUE(db->Put(Key(i), std::string(64, 'f')).ok());
  }
  EXPECT_TRUE(Eventually([&db, flushes] {
    return Counter(db.get(), "talus.exec", "flush{", "completed") > flushes;
  })) << "the flush job waited for CompactAll's unlinks";
  EXPECT_EQ(env.held_unlinks(), DB::kUnlinkThreads);

  env.ReleaseUnlinks();
  compact_all.join();
  ASSERT_TRUE(compacted.ok()) << compacted.ToString();
  ASSERT_TRUE(db->FlushMemTable().ok());
  ExpectOnlyLiveFiles(&env, db.get(), "after CompactAll");
}

// The compaction chain's last pick found nothing to do, but its reap hands a
// retired WAL over with the mutex released. A flush installing in that
// window schedules a compaction that finds the chain still active and
// returns, so the chain must pick again before it exits. ApplyPolicyConfig
// runs the chain on the caller's thread, and the reap is held by unlinks
// held past the cap.
TEST(FileGc, FlushLandingInTheChainsLastReapIsPicked) {
  auto base = NewMemEnv();
  SlowUnlinkEnv env(base.get());
  DbOptions opts = Opts(&env);
  opts.target_file_size = 1 << 10;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    WriteConcurrently(db.get(), 800);
    ASSERT_TRUE(db->FlushMemTable().ok());
    ASSERT_GT(TablesOf(db->current_version()).size(), DB::kMaxUnlinkDebt);
  }
  // With large tables every flush writes exactly one; spare pool threads and
  // immutable memtables keep the jobs parked below from stalling the rest.
  opts.target_file_size = 1 << 20;
  opts.num_background_threads = 4;
  opts.max_immutable_memtables = 4;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());

  // 1. CompactAll hands every table over in one batch, past the cap.
  env.HoldUnlinks();
  Status compacted;
  std::thread compact_all([&] { compacted = db->CompactAll(); });
  ASSERT_TRUE(Eventually(
      [&env] { return env.held_unlinks() == DB::kUnlinkThreads; }));

  // 2. Two memtables are sealed while their flush job waits to write.
  env.AllowTables(0);
  const uint64_t switches = Counter(db.get(), "talus.stats", "", "switches");
  for (int i = 0;
       Counter(db.get(), "talus.stats", "", "switches") < switches + 2; i++) {
    ASSERT_TRUE(db->Put(Key(i), std::string(64, 'w')).ok());
  }

  // 3. The first one's flush installs and leaves its WAL for the next reap;
  //    the second one's table waits.
  env.AllowTables(1);
  ASSERT_TRUE(Eventually([&] {
    return Counter(db.get(), "talus.stats", "", "bg_flushes") == 1 &&
           env.waiting_tables() == 1;
  }));

  // 4. The chain: HR-Level has nothing to compact yet, so the chain reaps
  //    the WAL, and the hand-off waits on the held debt. The swap and the
  //    reap's unlock happen in one hold of the mutex, so once the new policy
  //    is visible the chain is in that reap.
  std::atomic<bool> applied{false};
  Status apply_status;
  std::thread apply([&] {
    apply_status = db->ApplyPolicyConfig(GrowthPolicyConfig::HRLevel(3));
    applied = true;
  });
  ASSERT_TRUE(Eventually([&db] {
    return db->CurrentPolicyConfig().scheme ==
           GrowthScheme::kHorizontalLeveling;
  }));

  // 5. The second flush lands in that window. It arms HR-Level's first
  //    cascade, levels [0..1] into level 2, and the compaction job it
  //    schedules finds the chain active and returns.
  env.OpenTables();
  ASSERT_TRUE(Eventually([&db] {
    return Counter(db.get(), "talus.exec", "compaction{", "completed") == 1;
  }));
  EXPECT_EQ(Counter(db.get(), "talus.stats", "", "bg_flushes"), 2u);
  EXPECT_FALSE(applied.load());

  // 6. Once the unlinks go, the chain must run that cascade before it exits.
  env.ReleaseUnlinks();
  apply.join();
  compact_all.join();
  ASSERT_TRUE(apply_status.ok()) << apply_status.ToString();
  ASSERT_TRUE(compacted.ok()) << compacted.ToString();
  ASSERT_TRUE(db->FlushMemTable().ok());  // Nothing left to flush: drains.
  const Version& v = db->current_version();
  EXPECT_TRUE(v.levels[0].empty()) << "the flush's cascade was never picked";
  EXPECT_TRUE(v.levels[1].empty());
  ExpectOnlyLiveFiles(&env, db.get(), "after the chain");
}

}  // namespace
}  // namespace talus
