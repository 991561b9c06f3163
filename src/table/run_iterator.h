// RunIterator: iterates one sorted run — a sequence of key-disjoint,
// ordered SST files — as a single concatenated key space with lazy reader
// opening. Shared by the DB read path (pinned scans, BlockSource::kCache)
// and the merges (BlockSource::kFile: compaction inputs and the leveling
// flush's level-0 run), which read around the block cache. The run stops at
// the first file that fails to open or read and reports it in status().
#ifndef TALUS_TABLE_RUN_ITERATOR_H_
#define TALUS_TABLE_RUN_ITERATOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "lsm/version.h"
#include "table/iterator.h"
#include "table/sst_reader.h"

namespace talus {

// `open` returns a pinned handle; the iterator holds the pin for the file it
// is currently positioned in, so a table-cache eviction cannot close the
// reader mid-iteration.
class RunIterator final : public Iterator {
 public:
  RunIterator(std::vector<FileMetaPtr> files,
              std::function<std::shared_ptr<SstReader>(uint64_t)> open,
              BlockSource source = BlockSource::kCache);

  bool Valid() const override;
  void SeekToFirst() override;
  void SeekToLast() override;
  void Seek(const Slice& target) override;
  void Next() override;
  void Prev() override;
  Slice key() const override;
  Slice value() const override;
  Status status() const override;

 private:
  void InitFile();
  /// Latches the current file's error; true once the run has failed.
  bool Failed();
  void SkipForward();
  void SkipBackward();

  std::vector<FileMetaPtr> files_;
  std::function<std::shared_ptr<SstReader>(uint64_t)> open_;
  const BlockSource source_;
  size_t index_ = 0;
  // Declared before iter_ so the iterator (which points into the reader) is
  // destroyed first.
  std::shared_ptr<SstReader> reader_;
  std::unique_ptr<Iterator> iter_;
  Status status_;
};

}  // namespace talus

#endif  // TALUS_TABLE_RUN_ITERATOR_H_
