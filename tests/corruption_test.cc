// Corruption handling: damaged SSTs, manifests, and CURRENT files must
// surface Status::Corruption (or IOError), never crash or silently return
// wrong data.
#include <gtest/gtest.h>

#include <memory>

#include "env/env.h"
#include "format/block_builder.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "table/sst_builder.h"
#include "table/sst_reader.h"
#include "workload/generator.h"

namespace talus {
namespace {

// Rewrites `fname` with `mutate` applied to its contents.
void MutateFile(Env* env, const std::string& fname,
                const std::function<void(std::string*)>& mutate) {
  std::unique_ptr<SequentialFile> in;
  ASSERT_TRUE(env->NewSequentialFile(fname, &in).ok());
  std::string contents;
  std::string scratch(1 << 20, '\0');
  Slice chunk;
  while (in->Read(scratch.size(), &chunk, scratch.data()).ok() &&
         !chunk.empty()) {
    contents.append(chunk.data(), chunk.size());
  }
  mutate(&contents);
  std::unique_ptr<WritableFile> out;
  ASSERT_TRUE(env->NewWritableFile(fname, &out).ok());
  ASSERT_TRUE(out->Append(contents).ok());
  ASSERT_TRUE(out->Close().ok());
}

std::string BuildSst(Env* env, const std::string& fname, int entries) {
  SstBuilderOptions opts;
  std::unique_ptr<WritableFile> file;
  EXPECT_TRUE(env->NewWritableFile(fname, &file).ok());
  SstBuilder builder(opts, std::move(file));
  for (int i = 0; i < entries; i++) {
    builder.Add(InternalKey(workload::FormatKey(i, 16), i + 1, kTypeValue)
                    .Encode(),
                "value" + std::to_string(i));
  }
  EXPECT_TRUE(builder.Finish().ok());
  return fname;
}

TEST(SstCorruption, TruncatedFooterRejected) {
  auto env = NewMemEnv();
  BuildSst(env.get(), "/c1.sst", 500);
  MutateFile(env.get(), "/c1.sst",
             [](std::string* c) { c->resize(c->size() - 10); });
  std::unique_ptr<SstReader> reader;
  Status s = SstReader::Open(env.get(), "/c1.sst", 1, nullptr, &reader);
  EXPECT_FALSE(s.ok());
}

TEST(SstCorruption, BadMagicRejected) {
  auto env = NewMemEnv();
  BuildSst(env.get(), "/c2.sst", 100);
  MutateFile(env.get(), "/c2.sst",
             [](std::string* c) { (*c)[c->size() - 1] ^= 0xFF; });
  std::unique_ptr<SstReader> reader;
  Status s = SstReader::Open(env.get(), "/c2.sst", 1, nullptr, &reader);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(SstCorruption, TinyFileRejected) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env->NewWritableFile("/c3.sst", &f).ok());
  f->Append("not an sstable");
  f->Close();
  std::unique_ptr<SstReader> reader;
  Status s = SstReader::Open(env.get(), "/c3.sst", 1, nullptr, &reader);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(SstCorruption, GarbledIndexSurfacesOnOpenOrRead) {
  auto env = NewMemEnv();
  BuildSst(env.get(), "/c4.sst", 2000);
  // Flip bytes in the middle of the file (data/index region).
  MutateFile(env.get(), "/c4.sst", [](std::string* c) {
    for (size_t i = c->size() / 2; i < c->size() / 2 + 64 && i < c->size();
         i++) {
      (*c)[i] ^= 0xA5;
    }
  });
  std::unique_ptr<SstReader> reader;
  Status s = SstReader::Open(env.get(), "/c4.sst", 1, nullptr, &reader);
  if (s.ok()) {
    // Damage landed in a data block: lookups must either miss cleanly or
    // report corruption — and must not crash. (The iterator's status
    // surfaces the error when the bad block is touched.)
    auto iter = reader->NewIterator();
    iter->SeekToFirst();
    int steps = 0;
    while (iter->Valid() && steps < 5000) {
      iter->Next();
      steps++;
    }
    SUCCEED();
  } else {
    EXPECT_FALSE(s.ok());
  }
}

// Regression: a corrupt index entry used to read as "not found" (the seek
// died on CorruptionError but Get only checked Valid()). Get must surface
// Corruption for a key whose search touches the bad entry.
TEST(SstCorruption, CorruptIndexEntrySurfacesOnGet) {
  auto env = NewMemEnv();
  BuildSst(env.get(), "/c5.sst", 1000);
  MutateFile(env.get(), "/c5.sst", [](std::string* c) {
    Footer footer;
    ASSERT_TRUE(footer
                    .DecodeFrom(Slice(c->data() + c->size() -
                                          Footer::kEncodedLength,
                                      Footer::kEncodedLength))
                    .ok());
    // Garble the first index entry's header (truncated/invalid varints).
    // The block trailer stays intact, so Open still succeeds.
    for (size_t i = 0; i < 8; i++) {
      (*c)[static_cast<size_t>(footer.index_handle.offset) + i] = '\xff';
    }
  });
  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(SstReader::Open(env.get(), "/c5.sst", 1, nullptr, &reader).ok());
  // The smallest key binary-searches to restart 0 and scans into the
  // garbled entry.
  const std::string key = workload::FormatKey(0, 16);
  std::string value;
  Status s;
  ASSERT_TRUE(
      reader->Get(LookupKey(key, kMaxSequenceNumber), &value, &s, nullptr));
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(DbCorruption, ManifestDamageFailsOpen) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db";
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    for (int i = 0; i < 100; i++) {
      db->Put(workload::FormatKey(i, 16), "v");
    }
    db->FlushMemTable();
  }
  // Find and damage the live manifest.
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("/db", &children).ok());
  std::string manifest;
  for (const auto& c : children) {
    if (c.rfind("MANIFEST-", 0) == 0) manifest = "/db/" + c;
  }
  ASSERT_FALSE(manifest.empty());
  MutateFile(env.get(), manifest, [](std::string* c) {
    (*c)[c->size() / 2] ^= 0xFF;
  });
  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// The data-block handles of an SST's index block, in key order.
std::vector<std::pair<std::string, BlockHandle>> IndexEntries(
    const std::string& sst) {
  Footer footer;
  EXPECT_TRUE(footer
                  .DecodeFrom(Slice(sst.data() + sst.size() -
                                        Footer::kEncodedLength,
                                    Footer::kEncodedLength))
                  .ok());
  Block index(sst.substr(footer.index_handle.offset, footer.index_handle.size));
  std::vector<std::pair<std::string, BlockHandle>> entries;
  auto it = index.NewIterator(/*internal_key_order=*/true);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    BlockHandle handle;
    Slice v = it->value();
    EXPECT_TRUE(handle.DecodeFrom(&v));
    entries.emplace_back(it->key().ToString(), handle);
  }
  EXPECT_TRUE(it->status().ok());
  return entries;
}

// Rewrites the SST's index block (and footer) to hold `entries`.
void ReplaceIndex(std::string* sst,
                  const std::vector<std::pair<std::string, BlockHandle>>&
                      entries) {
  Footer footer;
  ASSERT_TRUE(footer
                  .DecodeFrom(Slice(sst->data() + sst->size() -
                                        Footer::kEncodedLength,
                                    Footer::kEncodedLength))
                  .ok());
  BlockBuilder builder(1, /*internal_key_order=*/true);
  for (const auto& [key, handle] : entries) {
    std::string encoded;
    handle.EncodeTo(&encoded);
    builder.Add(key, encoded);
  }
  const Slice index = builder.Finish();
  sst->resize(footer.index_handle.offset);
  footer.index_handle.size = index.size();
  sst->append(index.data(), index.size());
  footer.EncodeTo(sst);
}

// Merge inputs read data blocks straight from the file (BlockSource::kFile),
// not through the block cache; a damaged block must still fail the merge
// with Corruption rather than be skipped (its keys silently dropped).
class DamagedBlockCompactionTest
    : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(DamagedBlockCompactionTest, CompactAllReportsCorruption) {
  struct Damage {
    const char* message;  // The Corruption the merge must report.
    std::function<void(std::string*)> apply;
  };
  const std::vector<Damage> damages = {
      // The last data block's handle runs past the end of the file: the
      // read comes back short ("truncated data block").
      {"truncated data block",
       [](std::string* c) {
         auto entries = IndexEntries(*c);
         ASSERT_FALSE(entries.empty());
         entries.back().second.size += c->size();
         ReplaceIndex(c, entries);
       }},
      // The first data block's restart count is garbage: the block parses
      // as malformed ("bad block contents").
      {"bad block contents",
       [](std::string* c) {
         auto entries = IndexEntries(*c);
         ASSERT_FALSE(entries.empty());
         const BlockHandle& first = entries.front().second;
         for (size_t i = 0; i < sizeof(uint32_t); i++) {
           (*c)[first.offset + first.size - 1 - i] = '\xff';
         }
       }},
  };
  for (const Damage& damage : damages) {
    SCOPED_TRACE(damage.message);
    auto env = NewMemEnv();
    DbOptions opts;
    opts.env = env.get();
    opts.path = "/db";
    opts.write_buffer_size = 16 << 10;
    opts.block_size = 1024;
    opts.policy = GrowthPolicyConfig::VTTierFull(6);
    opts.execution_mode = GetParam();
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(opts, &db).ok());
      for (int run = 0; run < 3; run++) {
        for (int i = 0; i < 300; i++) {
          ASSERT_TRUE(db->Put(workload::FormatKey(i * 3 + run, 16),
                              "value" + std::to_string(i))
                          .ok());
        }
        ASSERT_TRUE(db->FlushMemTable().ok());
      }
    }
    std::vector<std::string> children;
    ASSERT_TRUE(env->GetChildren("/db", &children).ok());
    std::string sst;
    for (const auto& c : children) {
      if (c.size() > 4 && c.compare(c.size() - 4, 4, ".sst") == 0) {
        sst = "/db/" + c;
        break;
      }
    }
    ASSERT_FALSE(sst.empty());
    MutateFile(env.get(), sst, damage.apply);

    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    const Status s = db->CompactAll();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find(damage.message), std::string::npos)
        << s.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, DamagedBlockCompactionTest,
                         ::testing::Values(ExecutionMode::kInline,
                                           ExecutionMode::kBackground),
                         [](const auto& info) {
                           return info.param == ExecutionMode::kInline
                                      ? std::string("Inline")
                                      : std::string("Background");
                         });

TEST(DbCorruption, CurrentPointingNowhereFailsOpen) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db2";
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    db->Put("k", "v");
  }
  std::unique_ptr<WritableFile> cur;
  ASSERT_TRUE(env->NewWritableFile("/db2/CURRENT", &cur).ok());
  cur->Append("MANIFEST-999999");
  cur->Close();
  std::unique_ptr<DB> db;
  EXPECT_FALSE(DB::Open(opts, &db).ok());
}

TEST(DbCorruption, GarbageCurrentFailsOpen) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db3";
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    db->Put("k", "v");
  }
  std::unique_ptr<WritableFile> cur;
  ASSERT_TRUE(env->NewWritableFile("/db3/CURRENT", &cur).ok());
  cur->Append("definitely not a manifest name");
  cur->Close();
  std::unique_ptr<DB> db;
  Status s = DB::Open(opts, &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(DbCorruption, WalDamageKeepsFlushedDataReachable) {
  auto env = NewMemEnv();
  DbOptions opts;
  opts.env = env.get();
  opts.path = "/db4";
  opts.write_buffer_size = 4 << 10;
  opts.policy = GrowthPolicyConfig::VTLevelPart(3);
  uint64_t wal_number = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(opts, &db).ok());
    for (int i = 0; i < 200; i++) {
      db->Put(workload::FormatKey(i, 16), std::string(100, 'w'));
    }
    // Identify the live WAL.
    std::vector<std::string> children;
    env->GetChildren("/db4", &children);
    for (const auto& c : children) {
      uint64_t number;
      std::string suffix;
      if (ParseFileName(c, &number, &suffix) && suffix == "wal") {
        wal_number = std::max(wal_number, number);
      }
    }
  }
  ASSERT_GT(wal_number, 0u);
  // Corrupt the WAL tail: replay stops there; flushed data must survive.
  MutateFile(env.get(), WalFileName("/db4", wal_number),
             [](std::string* c) {
               if (!c->empty()) (*c)[c->size() - 1] ^= 0xFF;
             });
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(opts, &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get(workload::FormatKey(0, 16), &value).ok());
}

}  // namespace
}  // namespace talus
