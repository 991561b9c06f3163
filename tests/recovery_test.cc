// Crash-consistency tests: the WAL + manifest protocol must never lose
// acknowledged-durable writes or leave the store unopenable, under injected
// write failures and simulated power loss (FaultInjectionEnv).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "env/fault_env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "lsm/manifest.h"
#include "workload/generator.h"

namespace talus {
namespace {

DbOptions Opts(Env* env, bool wal_sync) {
  DbOptions opts;
  opts.env = env;
  opts.path = "/crash";
  opts.write_buffer_size = 4 << 10;
  opts.target_file_size = 4 << 10;
  opts.block_size = 1024;
  if (wal_sync) opts.wal_sync_mode = WalSyncMode::kPerGroup;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  return opts;
}

std::string Key(int i) { return workload::FormatKey(i, 16); }

TEST(CrashRecovery, SyncedWalLosesNothing) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, /*wal_sync=*/true), &db).ok());
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db->Put(Key(i), "value" + std::to_string(i)).ok());
    }
    // Power loss: drop everything unsynced, abandon the DB object.
    env.DropUnsyncedWrites();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok());
  for (int i = 0; i < 500; i++) {
    std::string value;
    ASSERT_TRUE(db->Get(Key(i), &value).ok()) << "lost key " << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
}

TEST(CrashRecovery, UnsyncedWalKeepsFlushedPrefix) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  int durable_upto = -1;  // Last key written before the last flush.
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, /*wal_sync=*/false), &db).ok());
    uint64_t flushes_seen = 0;
    for (int i = 0; i < 800; i++) {
      ASSERT_TRUE(db->Put(Key(i), std::string(200, 'v')).ok());
      if (db->stats().flushes > flushes_seen) {
        flushes_seen = db->stats().flushes;
        durable_upto = i;  // Everything up to i is now in synced SSTs.
      }
    }
    ASSERT_GE(durable_upto, 0);
    env.DropUnsyncedWrites();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, false), &db).ok());
  for (int i = 0; i <= durable_upto; i++) {
    std::string value;
    EXPECT_TRUE(db->Get(Key(i), &value).ok()) << "lost flushed key " << i;
  }
}

TEST(CrashRecovery, WriteFailuresSurfaceAndStoreStaysOpenable) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db->Put(Key(i), std::string(200, 'v')).ok());
    }
    env.FailAfterWrites(50);
    // Keep writing until the injected failure surfaces.
    bool failed = false;
    for (int i = 100; i < 2000; i++) {
      if (!db->Put(Key(i), std::string(200, 'v')).ok()) {
        failed = true;
        break;
      }
    }
    EXPECT_TRUE(failed);
    env.Disarm();
    env.DropUnsyncedWrites();
  }
  // The store must reopen cleanly after the failure + crash.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(Opts(&env, true), &db).ok());
  std::string value;
  // Everything acknowledged before the failure window is present (synced
  // WAL mode).
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(db->Get(Key(i), &value).ok()) << "lost key " << i;
  }
  // And the store accepts new writes.
  EXPECT_TRUE(db->Put(Key(9999), "after-recovery").ok());
  EXPECT_TRUE(db->Get(Key(9999), &value).ok());
}

// One crash position: how the fault is armed, in which execution mode, and
// whether the workload is guaranteed to reach it.
struct CrashPoint {
  std::string name;
  ExecutionMode mode;
  std::function<void(FaultInjectionEnv*)> arm;
  bool must_fire;
};

// The tables the durable manifest names all exist.
void ExpectManifestTablesExist(Env* env, const std::string& label) {
  ManifestData manifest;
  ASSERT_TRUE(ReadCurrentManifest(env, "/crash", &manifest, nullptr).ok())
      << label;
  for (const LevelState& level : manifest.version.levels) {
    for (const SortedRun& run : level.runs) {
      for (const FileMetaPtr& f : run.files) {
        EXPECT_TRUE(env->FileExists(SstFileName("/crash", f->number)))
            << label << " names missing table " << f->number;
      }
    }
  }
}

class CrashPointTest : public ::testing::TestWithParam<CrashPoint> {};

// Crash the store at one point — a position in the write stream, or one step
// of the manifest/unlink protocol — and keep every later mutation from
// landing, as power loss would. Whatever the position, the durable manifest
// names only existing tables, reopening succeeds, and every acknowledged
// write reads back.
TEST_P(CrashPointTest, RecoversConsistentState) {
  const CrashPoint& point = GetParam();
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());
  DbOptions opts = Opts(&env, /*wal_sync=*/true);
  opts.execution_mode = point.mode;
  std::map<std::string, std::string> acked;
  // The write that failed may still have reached the log.
  std::map<std::string, std::string> maybe;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    point.arm(&env);
    // ~100 flushes: enough installs for the MANIFEST log to roll.
    for (int i = 0; i < 3000; i++) {
      const std::string key = Key(i % 150);
      const std::string value = "v" + std::to_string(i) + std::string(100, 'x');
      if (db->Put(key, value).ok()) {
        acked[key] = value;
      } else {
        maybe[key] = value;
        break;  // Engine reported the failure: stop like a client would.
      }
    }
    if (point.must_fire) {
      ASSERT_TRUE(env.failing()) << point.name << " never reached";
    }
    // A fired fault stays armed through teardown: nothing the DB does
    // after the crash reaches the files.
  }
  env.DropUnsyncedWrites();
  env.Disarm();
  ExpectManifestTablesExist(&env, point.name);

  std::unique_ptr<DB> db;
  opts.execution_mode = ExecutionMode::kInline;
  ASSERT_TRUE(DB::Open(opts, &db).ok()) << point.name;
  // With synced WAL, acknowledged implies durable.
  for (const auto& [key, value] : acked) {
    std::string got;
    ASSERT_TRUE(db->Get(key, &got).ok()) << point.name << " lost " << key;
    auto m = maybe.find(key);
    EXPECT_TRUE(got == value || (m != maybe.end() && got == m->second))
        << point.name << " wrong value for " << key;
  }
  // Reopen swept everything the manifest does not name: one MANIFEST left.
  ExpectManifestTablesExist(&env, point.name + " after reopen");
  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("/crash", &children).ok());
  int manifests = 0;
  for (const auto& c : children) manifests += c.rfind("MANIFEST-", 0) == 0;
  EXPECT_EQ(manifests, 1) << point.name;
}

std::vector<CrashPoint> CrashPoints() {
  using Op = FaultInjectionEnv::Op;
  std::vector<CrashPoint> points;
  // A sweep across the write stream (every kind of mutating call).
  for (uint64_t n : {10, 60, 150, 400, 900, 2000, 5000}) {
    points.push_back({"writes" + std::to_string(n), ExecutionMode::kInline,
                      [n](FaultInjectionEnv* e) { e->FailAfterWrites(n); },
                      false});
  }
  // The steps of a manifest install and of the unlinks that follow it, in
  // both execution modes (background unlinks run on the reaper thread).
  for (ExecutionMode mode : {ExecutionMode::kInline,
                             ExecutionMode::kBackground}) {
    const std::string m =
        mode == ExecutionMode::kInline ? "_inline" : "_background";
    // After a record's append, before its sync.
    points.push_back({"manifest_append" + m, mode,
                      [](FaultInjectionEnv* e) {
                        e->FailAt(Op::kSync, "MANIFEST-", 5);
                      },
                      true});
    // After the sync, before the unlinks it allows.
    points.push_back({"unlink_wal" + m, mode,
                      [](FaultInjectionEnv* e) {
                        e->FailAt(Op::kRemove, ".wal", 3);
                      },
                      true});
    points.push_back({"unlink_sst" + m, mode,
                      [](FaultInjectionEnv* e) {
                        e->FailAt(Op::kRemove, ".sst", 3);
                      },
                      true});
    // Mid-roll: the new MANIFEST is synced, CURRENT not yet renamed.
    points.push_back({"roll_rename" + m, mode,
                      [](FaultInjectionEnv* e) {
                        e->FailAt(Op::kRename, "/CURRENT", 0);
                      },
                      true});
    // Mid-roll: CURRENT renamed, the old MANIFEST not yet unlinked.
    points.push_back({"roll_unlink" + m, mode,
                      [](FaultInjectionEnv* e) {
                        e->FailAt(Op::kRemove, "MANIFEST-", 0);
                      },
                      true});
  }
  return points;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashPointTest, ::testing::ValuesIn(CrashPoints()),
    [](const ::testing::TestParamInfo<CrashPoint>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace talus
