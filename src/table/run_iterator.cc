#include "table/run_iterator.h"

#include <cassert>

#include "lsm/dbformat.h"

namespace talus {

RunIterator::RunIterator(
    std::vector<FileMetaPtr> files,
    std::function<std::shared_ptr<SstReader>(uint64_t)> open,
    BlockSource source)
    : files_(std::move(files)), open_(std::move(open)), source_(source) {}

bool RunIterator::Valid() const {
  return iter_ != nullptr && iter_->Valid();
}

void RunIterator::SeekToFirst() {
  index_ = 0;
  InitFile();
  if (iter_ != nullptr) iter_->SeekToFirst();
  SkipForward();
}

void RunIterator::SeekToLast() {
  if (files_.empty()) {
    iter_.reset();
    return;
  }
  index_ = files_.size() - 1;
  InitFile();
  if (iter_ != nullptr) iter_->SeekToLast();
  SkipBackward();
}

void RunIterator::Seek(const Slice& target) {
  // Binary search for the first file whose largest key >= target.
  InternalKeyComparator cmp;
  size_t left = 0, right = files_.size();
  while (left < right) {
    size_t mid = (left + right) / 2;
    if (cmp.Compare(files_[mid]->largest.Encode(), target) < 0) {
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  index_ = left;
  InitFile();
  if (iter_ != nullptr) iter_->Seek(target);
  SkipForward();
}

void RunIterator::Next() {
  assert(Valid());
  iter_->Next();
  SkipForward();
}

void RunIterator::Prev() {
  assert(Valid());
  iter_->Prev();
  SkipBackward();
}

Slice RunIterator::key() const { return iter_->key(); }
Slice RunIterator::value() const { return iter_->value(); }

Status RunIterator::status() const {
  if (!status_.ok()) return status_;
  return iter_ != nullptr ? iter_->status() : Status::OK();
}

void RunIterator::InitFile() {
  iter_.reset();
  reader_.reset();
  if (index_ >= files_.size()) return;
  reader_ = open_(files_[index_]->number);
  if (reader_ == nullptr) {
    status_ = Status::IOError("cannot open sst reader");
    return;
  }
  iter_ = reader_->NewIterator(source_);
}

bool RunIterator::Failed() {
  if (status_.ok() && iter_ != nullptr) status_ = iter_->status();
  return !status_.ok();
}

void RunIterator::SkipForward() {
  while ((iter_ == nullptr || !iter_->Valid()) && !Failed() &&
         index_ + 1 < files_.size()) {
    index_++;
    InitFile();
    if (iter_ != nullptr) iter_->SeekToFirst();
  }
  if (iter_ != nullptr && !iter_->Valid()) iter_.reset();
}

void RunIterator::SkipBackward() {
  while ((iter_ == nullptr || !iter_->Valid()) && !Failed() && index_ > 0) {
    index_--;
    InitFile();
    if (iter_ != nullptr) iter_->SeekToLast();
  }
  if (iter_ != nullptr && !iter_->Valid()) iter_.reset();
}

}  // namespace talus
