// SstReader: read side of the SST format. The index and filter blocks are
// pinned in memory at open (the engine-wide assumption that fence pointers
// and Bloom filters are memory resident — at most one data-block I/O per run
// per point lookup). Point lookups and BlockSource::kCache iterators (user
// scans) read data blocks through the shared block cache; merge inputs
// (BlockSource::kFile) read each block once, straight from the file into a
// buffer the iterator reuses, and never touch the cache (DESIGN.md §2.7).
//
// Thread-safe after Open: Get() and NewIterator() only read the immutable
// index/filter state, pread the file, and touch the internally locked block
// cache, so any number of threads may use one reader concurrently
// (read/table_cache.h hands out shared pins).
#ifndef TALUS_TABLE_SST_READER_H_
#define TALUS_TABLE_SST_READER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cache/lru_cache.h"
#include "env/env.h"
#include "filter/bloom.h"
#include "format/block.h"
#include "lsm/dbformat.h"
#include "table/sst_format.h"

namespace talus {

/// Where an SST iterator gets its data blocks.
enum class BlockSource {
  /// The shared block cache (a miss reads the block and inserts it): reads
  /// that may revisit a block, such as user scans.
  kCache,
  /// The file, into one buffer the iterator reuses (on a mem env, the
  /// file's own bytes: no copy). Merge inputs read every block exactly once
  /// from a file the merge is about to make obsolete, so caching them only
  /// evicts blocks that foreground reads would hit.
  kFile,
};

class SstReader {
 public:
  /// Opens an SST. `block_cache` may be nullptr (no caching). file_number
  /// namespaces block-cache keys.
  static Status Open(Env* env, const std::string& fname, uint64_t file_number,
                     LruCache* block_cache, std::unique_ptr<SstReader>* reader);

  struct GetStats {
    bool filter_negative = false;  // Bloom filter excluded the run.
    bool block_read = false;       // A data block was fetched from disk.
    bool cache_hit = false;        // Served from block cache.
  };

  /// Point lookup for the newest entry visible at `lkey`. Returns true if
  /// this run decides the key (value found or tombstone). Sets *s to OK or
  /// NotFound accordingly. `fast_path` selects the allocation-free
  /// Block::PointGet search (DESIGN.md §7); false falls back to the
  /// two-iterator seek path. Results and GetStats are identical either way.
  bool Get(const LookupKey& lkey, std::string* value, Status* s,
           GetStats* stats = nullptr, bool fast_path = true);

  /// Iterator over the whole file (internal keys). Stops at the first
  /// damaged or unreadable block and reports it through status().
  std::unique_ptr<Iterator> NewIterator(
      BlockSource source = BlockSource::kCache);

  uint64_t num_data_blocks_read() const {
    return data_blocks_read_.load(std::memory_order_relaxed);
  }

 private:
  SstReader() = default;

  Status ReadDataBlock(const BlockHandle& handle,
                       std::shared_ptr<Block>* block, bool* cache_hit);
  /// Reads the block's bytes without the cache. *contents points at
  /// `scratch` or at memory the open file pins (a mem env hands back its
  /// own bytes).
  Status ReadBlockContents(const BlockHandle& handle, char* scratch,
                           Slice* contents);

  bool GetPointSearch(const LookupKey& lkey, std::string* value, Status* s,
                      GetStats* stats);
  bool GetViaIterators(const LookupKey& lkey, std::string* value, Status* s,
                       GetStats* stats);
  /// Shared tail: classify the entry PointGet/Seek positioned on.
  bool FinishGet(const LookupKey& lkey, const Slice& entry_key,
                 const Slice& entry_value, std::string* value, Status* s);

  class TwoLevelIterator;

  Env* env_ = nullptr;
  std::unique_ptr<RandomAccessFile> file_;
  uint64_t file_number_ = 0;
  LruCache* block_cache_ = nullptr;

  std::unique_ptr<Block> index_block_;
  std::string filter_data_;
  std::unique_ptr<BloomFilterReader> filter_;

  std::atomic<uint64_t> data_blocks_read_{0};
};

}  // namespace talus

#endif  // TALUS_TABLE_SST_READER_H_
