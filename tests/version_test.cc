#include "lsm/version.h"

#include <gtest/gtest.h>

#include "lsm/filename.h"
#include "lsm/manifest.h"
#include "env/env.h"

namespace talus {
namespace {

FileMetaPtr File(uint64_t number, const std::string& lo, const std::string& hi,
                 uint64_t size = 1000, uint64_t entries = 10) {
  auto f = std::make_shared<FileMeta>();
  f->number = number;
  f->file_size = size;
  f->num_entries = entries;
  f->payload_bytes = size * 9 / 10;
  f->smallest = InternalKey(lo, 100, kTypeValue);
  f->largest = InternalKey(hi, 1, kTypeValue);
  f->oldest_seq = 1;
  return f;
}

// Commits `data` to a fresh log for manifest number `number - 1`, which
// therefore rolls to MANIFEST-<number> and repoints CURRENT at it.
Status WriteSnapshot(Env* env, const std::string& dbpath, uint64_t number,
                     const ManifestData& data) {
  ManifestLog log(env, dbpath, number - 1);
  ManifestLog::CommitInfo info;
  return log.Commit(data, &info);
}

std::string ReadAll(Env* env, const std::string& fname) {
  std::unique_ptr<SequentialFile> in;
  EXPECT_TRUE(env->NewSequentialFile(fname, &in).ok());
  std::string contents;
  std::string scratch(1 << 16, '\0');
  Slice chunk;
  while (in->Read(scratch.size(), &chunk, scratch.data()).ok() &&
         !chunk.empty()) {
    contents.append(chunk.data(), chunk.size());
  }
  return contents;
}

void WriteAll(Env* env, const std::string& fname, const std::string& data) {
  std::unique_ptr<WritableFile> out;
  ASSERT_TRUE(env->NewWritableFile(fname, &out).ok());
  ASSERT_TRUE(out->Append(data).ok());
  ASSERT_TRUE(out->Close().ok());
}

TEST(SortedRun, Aggregates) {
  SortedRun run;
  run.run_id = 1;
  run.files = {File(1, "a", "c"), File(2, "d", "f", 2000, 20)};
  EXPECT_EQ(run.TotalBytes(), 3000u);
  EXPECT_EQ(run.TotalEntries(), 30u);
  EXPECT_EQ(run.PayloadBytes(), 900u + 1800u);
}

TEST(SortedRun, OverlappingFiles) {
  SortedRun run;
  run.files = {File(1, "b", "d"), File(2, "f", "h"), File(3, "j", "l")};

  EXPECT_TRUE(run.OverlappingFiles("m", "z").empty());
  EXPECT_TRUE(run.OverlappingFiles("a", "a").empty());
  EXPECT_TRUE(run.OverlappingFiles("e", "e").empty());

  auto all = run.OverlappingFiles("", "");
  EXPECT_EQ(all.size(), 3u);

  auto mid = run.OverlappingFiles("c", "g");
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0], 0u);
  EXPECT_EQ(mid[1], 1u);

  auto open_left = run.OverlappingFiles("", "e");
  EXPECT_EQ(open_left.size(), 1u);
  auto open_right = run.OverlappingFiles("g", "");
  EXPECT_EQ(open_right.size(), 2u);
}

TEST(Version, BottommostAndTotals) {
  Version v;
  v.EnsureLevels(5);
  EXPECT_EQ(v.BottommostNonEmptyLevel(), -1);
  SortedRun run;
  run.run_id = 7;
  run.files = {File(1, "a", "b")};
  v.levels[2].runs.push_back(run);
  EXPECT_EQ(v.BottommostNonEmptyLevel(), 2);
  EXPECT_EQ(v.TotalBytes(), 1000u);
  EXPECT_EQ(v.TotalRuns(), 1u);
  EXPECT_NE(v.levels[2].FindRun(7), nullptr);
  EXPECT_EQ(v.levels[2].FindRun(8), nullptr);
}

TEST(Manifest, SnapshotRoundTrip) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->CreateDirIfMissing("/m").ok());

  ManifestData data;
  data.next_file_number = 42;
  data.next_run_id = 17;
  data.last_sequence = 12345;
  data.flush_count = 9;
  data.wal_number = 41;
  data.policy_name = "vertiorizon";
  data.policy_state = std::string("\x01\x02\x00\x03", 4);
  data.version.EnsureLevels(3);
  SortedRun run;
  run.run_id = 5;
  run.files = {File(10, "aaa", "mmm"), File(11, "nnn", "zzz")};
  data.version.levels[1].runs.push_back(run);

  ASSERT_TRUE(WriteSnapshot(env.get(), "/m", 1, data).ok());

  ManifestData loaded;
  uint64_t number = 0;
  ASSERT_TRUE(ReadCurrentManifest(env.get(), "/m", &loaded, &number).ok());
  EXPECT_EQ(number, 1u);
  EXPECT_EQ(loaded.next_file_number, 42u);
  EXPECT_EQ(loaded.next_run_id, 17u);
  EXPECT_EQ(loaded.last_sequence, 12345u);
  EXPECT_EQ(loaded.flush_count, 9u);
  EXPECT_EQ(loaded.wal_number, 41u);
  EXPECT_EQ(loaded.policy_name, "vertiorizon");
  EXPECT_EQ(loaded.policy_state, data.policy_state);
  ASSERT_EQ(loaded.version.levels.size(), 3u);
  ASSERT_EQ(loaded.version.levels[1].runs.size(), 1u);
  const SortedRun& r = loaded.version.levels[1].runs[0];
  EXPECT_EQ(r.run_id, 5u);
  ASSERT_EQ(r.files.size(), 2u);
  EXPECT_EQ(r.files[0]->number, 10u);
  EXPECT_EQ(r.files[0]->smallest.user_key().ToString(), "aaa");
  EXPECT_EQ(r.files[1]->largest.user_key().ToString(), "zzz");
}

TEST(Manifest, CurrentRepointsAtomically) {
  auto env = NewMemEnv();
  ASSERT_TRUE(env->CreateDirIfMissing("/m").ok());
  ManifestData a, b;
  a.policy_name = "first";
  b.policy_name = "second";
  ASSERT_TRUE(WriteSnapshot(env.get(), "/m", 1, a).ok());
  ASSERT_TRUE(WriteSnapshot(env.get(), "/m", 2, b).ok());
  ManifestData loaded;
  uint64_t number;
  ASSERT_TRUE(ReadCurrentManifest(env.get(), "/m", &loaded, &number).ok());
  EXPECT_EQ(number, 2u);
  EXPECT_EQ(loaded.policy_name, "second");
}

// The log holds one record per commit; recovery takes the newest.
TEST(Manifest, NewestOfManyRecordsWins) {
  auto env = NewMemEnv();
  ManifestLog log(env.get(), "/m", 0);
  for (uint64_t i = 1; i <= 5; i++) {
    ManifestData d;
    d.last_sequence = i * 100;
    d.policy_name = "p";
    ManifestLog::CommitInfo info;
    ASSERT_TRUE(log.Commit(d, &info).ok());
    EXPECT_EQ(info.retired, 0u);  // One log throughout: no roll.
  }
  EXPECT_EQ(log.number(), 1u);
  ManifestData loaded;
  uint64_t number = 0;
  ASSERT_TRUE(ReadCurrentManifest(env.get(), "/m", &loaded, &number).ok());
  EXPECT_EQ(number, 1u);
  EXPECT_EQ(loaded.last_sequence, 500u);
}

// A crash between a record's append and its sync can leave the record cut
// short by EOF: recovery ignores it and uses the one before.
TEST(Manifest, TornTailFallsBackOneRecord) {
  auto env = NewMemEnv();
  ManifestLog log(env.get(), "/m", 0);
  for (uint64_t i = 1; i <= 3; i++) {
    ManifestData d;
    d.last_sequence = i;
    ManifestLog::CommitInfo info;
    ASSERT_TRUE(log.Commit(d, &info).ok());
  }
  const std::string fname = ManifestFileName("/m", 1);
  const std::string full = ReadAll(env.get(), fname);
  // Records are equal-sized here, so the third starts at 2/3 of the file.
  const size_t third = full.size() / 3 * 2;
  for (const size_t keep : {full.size() - 1, third + 5, third + 3}) {
    WriteAll(env.get(), fname, full.substr(0, keep));
    ManifestData loaded;
    ASSERT_TRUE(ReadCurrentManifest(env.get(), "/m", &loaded, nullptr).ok())
        << "kept " << keep;
    EXPECT_EQ(loaded.last_sequence, 2u) << "kept " << keep;
  }
}

// A checksum mismatch on a complete record is damage, not a torn write:
// silently rolling back to an older snapshot is never an option.
TEST(Manifest, CorruptCompleteRecordFails) {
  auto env = NewMemEnv();
  ManifestLog log(env.get(), "/m", 0);
  for (uint64_t i = 1; i <= 3; i++) {
    ManifestData d;
    d.last_sequence = i;
    d.policy_name = "policy";
    ManifestLog::CommitInfo info;
    ASSERT_TRUE(log.Commit(d, &info).ok());
  }
  const std::string fname = ManifestFileName("/m", 1);
  const std::string full = ReadAll(env.get(), fname);
  for (const size_t at : {full.size() / 6, full.size() / 2, full.size() - 2}) {
    std::string damaged = full;
    damaged[at] ^= 0x40;
    WriteAll(env.get(), fname, damaged);
    ManifestData loaded;
    EXPECT_TRUE(
        ReadCurrentManifest(env.get(), "/m", &loaded, nullptr).IsCorruption())
        << "damaged byte " << at;
  }
}

// Once the log holds enough records it rolls: the next record starts a new
// MANIFEST, CURRENT names it, and the old log is handed back for deletion.
TEST(Manifest, RollRepointsCurrent) {
  auto env = NewMemEnv();
  ManifestLog log(env.get(), "/m", 0);
  ManifestData d;
  d.policy_name = "policy";
  ManifestLog::CommitInfo info;
  ASSERT_TRUE(log.Commit(d, &info).ok());
  ASSERT_EQ(log.number(), 1u);
  uint64_t commits = 1;
  while (log.number() == 1 && commits < 1000) {
    d.last_sequence = ++commits;
    ASSERT_TRUE(log.Commit(d, &info).ok());
  }
  ASSERT_EQ(log.number(), 2u) << "no roll after " << commits << " commits";
  EXPECT_EQ(info.retired, 1u);
  EXPECT_GT(commits, 2u);  // Rolls are rare, not per commit.
  EXPECT_TRUE(env->FileExists(ManifestFileName("/m", 1)));  // Caller's job.
  ManifestData loaded;
  uint64_t number = 0;
  ASSERT_TRUE(ReadCurrentManifest(env.get(), "/m", &loaded, &number).ok());
  EXPECT_EQ(number, 2u);
  EXPECT_EQ(loaded.last_sequence, commits);
  // The new log starts with just the rolled record; later ones append.
  d.last_sequence = ++commits;
  ASSERT_TRUE(log.Commit(d, &info).ok());
  EXPECT_EQ(info.retired, 0u);
  ASSERT_TRUE(ReadCurrentManifest(env.get(), "/m", &loaded, &number).ok());
  EXPECT_EQ(number, 2u);
  EXPECT_EQ(loaded.last_sequence, commits);
}

TEST(Manifest, MissingCurrentIsNotFound) {
  auto env = NewMemEnv();
  ManifestData data;
  uint64_t number;
  EXPECT_TRUE(
      ReadCurrentManifest(env.get(), "/nodir", &data, &number).IsNotFound());
}

TEST(Filename, Formats) {
  EXPECT_EQ(SstFileName("/db", 7), "/db/000007.sst");
  EXPECT_EQ(WalFileName("/db", 123), "/db/000123.wal");
  EXPECT_EQ(ManifestFileName("/db", 5), "/db/MANIFEST-000005");
  EXPECT_EQ(CurrentFileName("/db"), "/db/CURRENT");
}

TEST(Filename, Parse) {
  uint64_t number;
  std::string suffix;
  ASSERT_TRUE(ParseFileName("000007.sst", &number, &suffix));
  EXPECT_EQ(number, 7u);
  EXPECT_EQ(suffix, "sst");
  ASSERT_TRUE(ParseFileName("MANIFEST-000012", &number, &suffix));
  EXPECT_EQ(number, 12u);
  EXPECT_EQ(suffix, "manifest");
  EXPECT_FALSE(ParseFileName("CURRENT", &number, &suffix));
  EXPECT_FALSE(ParseFileName(".sst", &number, &suffix));
  EXPECT_FALSE(ParseFileName("abc.sst", &number, &suffix));
}

}  // namespace
}  // namespace talus
