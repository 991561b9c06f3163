#include "lsm/db.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <deque>
#include <set>
#include <thread>

#include "compaction/compaction_install.h"
#include "compaction/compaction_planner.h"
#include "compaction/sorted_output.h"
#include "lsm/filename.h"
#include "metrics/shard_stats.h"
#include "shard/backpressure.h"
#include "shard/sequence_allocator.h"
#include "table/merging_iterator.h"
#include "table/run_iterator.h"
#include "util/coding.h"
#include "util/wall_clock.h"
#include "wal/log_reader.h"

namespace talus {

namespace {

// WAL record: base_seq fixed64 | concatenated WriteBatch reps. The group
// leader emits one record per commit group (CommitGroup), so every batch in
// the group — and every multi-op batch — commits atomically.
bool DecodeWalRecord(Slice input, SequenceNumber* base_seq,
                     WriteBatch* batch) {
  uint64_t s;
  if (!GetFixed64(&input, &s)) return false;
  *base_seq = s;
  return WriteBatch::FromRep(input, batch).ok();
}

// Publishes a committed (or failed-and-burned) group's sequence ranges to
// the shared allocator: the group's own contiguous claim plus every
// preassigned writer that asked to be published. Used by both the success
// and the WAL-failure path of CommitWriter — the ranges must reach the
// allocator either way, or the global watermark wedges.
void PublishGroupSequences(shard::SequenceAllocator* alloc,
                           SequenceNumber base_seq, uint64_t claim_count,
                           const write::WriteGroup& group) {
  if (alloc == nullptr) return;
  if (claim_count > 0) alloc->Publish(base_seq, claim_count);
  for (write::Writer* wr : group.writers) {
    if (wr->preassigned && wr->publish_sequence && wr->batch->Count() > 0) {
      alloc->Publish(wr->base_seq, wr->batch->Count());
    }
  }
}

// The merge discipline the drift monitor's analytical model should price
// the active policy with: every scheme reduces to leveled or tiered merge
// behavior for cost purposes (the paper's W/R/Q formulas, DESIGN.md §6.7).
tuning::HorizontalMerge MergeForDriftModel(const GrowthPolicyConfig& config) {
  switch (config.scheme) {
    case GrowthScheme::kVertical:
      return config.merge == MergePolicy::kTiering
                 ? tuning::HorizontalMerge::kTiering
                 : tuning::HorizontalMerge::kLeveling;
    case GrowthScheme::kHorizontalTiering:
      return tuning::HorizontalMerge::kTiering;
    case GrowthScheme::kVertiorizon:
      return config.vrn_fixed_merge == MergePolicy::kTiering
                 ? tuning::HorizontalMerge::kTiering
                 : tuning::HorizontalMerge::kLeveling;
    case GrowthScheme::kHorizontalLeveling:
    case GrowthScheme::kLazyLeveling:
    case GrowthScheme::kUniversal:
      return tuning::HorizontalMerge::kLeveling;
  }
  return tuning::HorizontalMerge::kLeveling;
}

// Applies a batch to a memtable with sequences base, base+1, ...
class MemTableInserter : public WriteBatch::Handler {
 public:
  MemTableInserter(MemTable* mem, SequenceNumber base)
      : mem_(mem), seq_(base) {}
  void Put(const Slice& key, const Slice& value) override {
    mem_->Add(seq_++, kTypeValue, key, value);
  }
  void Delete(const Slice& key) override {
    mem_->Add(seq_++, kTypeDeletion, key, Slice());
  }
  SequenceNumber next_sequence() const { return seq_; }

 private:
  MemTable* mem_;
  SequenceNumber seq_;
};

// User-facing iterator: walks internal keys, surfacing only the newest
// version of each user key visible at the view's sequence and skipping
// tombstones. Forward only. Owns its ReadView, so the memtables and SST
// files it reads stay alive and the result set is a consistent snapshot no
// matter what flushes, compactions, or writes happen concurrently.
class DbIterator final : public Iterator {
 public:
  DbIterator(std::shared_ptr<const read::ReadView> view,
             std::unique_ptr<Iterator> internal,
             obs::LatencyRecorder* recorder)
      : view_(std::move(view)),
        internal_(std::move(internal)),
        recorder_(recorder),
        sequence_(view_->sequence) {}

  bool Valid() const override { return valid_; }
  void SeekToFirst() override {
    obs::ScopedOpTimer timer(recorder_, obs::OpType::kIterSeek);
    has_current_ = false;
    internal_->SeekToFirst();
    FindNextUserEntry();
  }
  void Seek(const Slice& user_key) override {
    obs::ScopedOpTimer timer(recorder_, obs::OpType::kIterSeek);
    has_current_ = false;
    std::string target;
    AppendInternalKey(&target, user_key, sequence_, kValueTypeForSeek);
    internal_->Seek(Slice(target));
    FindNextUserEntry();
  }
  void Next() override {
    assert(valid_);
    internal_->Next();
    FindNextUserEntry();
  }
  void SeekToLast() override { valid_ = false; }  // Forward-only.
  void Prev() override { assert(false); }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return Slice(value_); }
  Status status() const override { return internal_->status(); }

 private:
  void FindNextUserEntry() {
    valid_ = false;
    while (internal_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(internal_->key(), &parsed)) {
        internal_->Next();
        continue;
      }
      if (parsed.sequence > sequence_) {
        internal_->Next();  // Written after this view was pinned.
        continue;
      }
      if (has_current_ && parsed.user_key == Slice(key_)) {
        internal_->Next();  // Shadowed older version.
        continue;
      }
      key_.assign(parsed.user_key.data(), parsed.user_key.size());
      has_current_ = true;
      if (parsed.type == kTypeDeletion) {
        internal_->Next();  // Tombstone hides every older version too.
        continue;
      }
      value_.assign(internal_->value().data(), internal_->value().size());
      valid_ = true;
      return;
    }
  }

  // view_ is declared first so it is destroyed LAST: the internal iterator
  // (whose RunIterators hold FileMetaPtrs and reader pins) must release its
  // references before the view's deleter runs obsolete-file GC.
  std::shared_ptr<const read::ReadView> view_;
  std::unique_ptr<Iterator> internal_;
  obs::LatencyRecorder* recorder_ = nullptr;
  SequenceNumber sequence_ = 0;
  bool valid_ = false;
  bool has_current_ = false;
  std::string key_;
  std::string value_;
};

// One batch of unlinks, tallied for its kGcDelete event (a = files
// unlinked, b = micros summed over every RemoveFile). A file already gone is
// not a failure; the first other failure is kept, and the file is left for
// DB::Open to sweep.
struct UnlinkTally {
  uint64_t unlinked = 0;
  uint64_t micros = 0;
  Status status;

  /// Unlinks `fname` without touching the tally; `*micros` gets the time.
  static Status Remove(Env* env, const std::string& fname, uint64_t* micros) {
    const uint64_t t0 = NowMicros();
    Status s = env->RemoveFile(fname);
    *micros = NowMicros() - t0;
    return s;
  }
  void Record(const Status& s, uint64_t us) {
    micros += us;
    if (s.ok()) {
      unlinked++;
    } else if (!s.IsNotFound() && status.ok()) {
      status = s;
    }
  }
  void Emit(obs::EventRing* ring, uint16_t shard) const {
    ring->Emit(obs::EventType::kGcDelete, shard, unlinked, micros);
  }
};

// Unlinks `files` one after another as one batch; returns the first failure.
Status UnlinkFiles(Env* env, const std::vector<std::string>& files,
                   obs::EventRing* ring, uint16_t shard) {
  UnlinkTally tally;
  for (const std::string& fname : files) {
    uint64_t us = 0;
    const Status s = UnlinkTally::Remove(env, fname, &us);
    tally.Record(s, us);
  }
  tally.Emit(ring, shard);
  return tally.status;
}

}  // namespace

// kUnlinkThreads workers per background-mode DB that unlink the files jobs
// and view releases hand them, so no RemoveFile runs under DB::mutex_
// (DESIGN.md §2.7). Each worker takes one file at a time, so a batch is
// unlinked kUnlinkThreads files at a time; the worker that finishes a
// batch's last file emits its kGcDelete and latches its failure. The
// workers start with the first batch.
class DB::Reaper {
 public:
  Reaper(Env* env, obs::EventRing* ring, uint16_t shard,
         std::function<void(const Status&)> on_error)
      : env_(env), ring_(ring), shard_(shard), on_error_(std::move(on_error)) {}

  ~Reaper() {
    {
      std::lock_guard<std::mutex> l(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    // Workers finish the queue before they exit.
    for (std::thread& t : workers_) t.join();
  }

  /// Queues `files` as one batch. With `bounded`, first waits while more
  /// than kMaxUnlinkDebt files are outstanding, so deletion debt never
  /// exceeds the cap plus the batch being handed over; a wait emits one
  /// kGcWait (a = files outstanding on entry, b = micros waited).
  void Add(std::vector<std::string> files, bool bounded) {
    std::unique_lock<std::mutex> l(mu_);
    uint64_t debt = 0, waited_us = 0;
    if (bounded && outstanding_ > kMaxUnlinkDebt) {
      debt = outstanding_;
      const uint64_t t0 = NowMicros();
      done_cv_.wait(l, [this] { return outstanding_ <= kMaxUnlinkDebt; });
      waited_us = NowMicros() - t0;
    }
    if (workers_.empty()) {
      for (int i = 0; i < kUnlinkThreads; i++) {
        workers_.emplace_back([this] { Loop(); });
      }
    }
    auto batch = std::make_shared<Batch>();
    batch->left = files.size();
    outstanding_ += files.size();
    for (std::string& fname : files) {
      queue_.push_back(Unlink{std::move(fname), batch});
    }
    work_cv_.notify_all();
    l.unlock();
    if (debt > 0) ring_->Emit(obs::EventType::kGcWait, shard_, debt, waited_us);
  }

  /// Files handed over and not yet unlinked: the debt Add bounds.
  size_t Outstanding() {
    std::lock_guard<std::mutex> l(mu_);
    return outstanding_;
  }

  /// Blocks until everything handed over so far is unlinked.
  void Drain() {
    std::unique_lock<std::mutex> l(mu_);
    done_cv_.wait(l, [this] { return outstanding_ == 0; });
  }

 private:
  struct Batch {
    size_t left = 0;  // Files not yet unlinked.
    UnlinkTally tally;
  };
  struct Unlink {
    std::string fname;
    std::shared_ptr<Batch> batch;
  };

  void Loop() {
    std::unique_lock<std::mutex> l(mu_);
    while (true) {
      work_cv_.wait(l, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Stopping with nothing left to do.
      Unlink u = std::move(queue_.front());
      queue_.pop_front();
      l.unlock();
      uint64_t us = 0;
      const Status s = UnlinkTally::Remove(env_, u.fname, &us);
      l.lock();
      Batch& b = *u.batch;
      b.tally.Record(s, us);
      if (--b.left == 0) {
        // The batch's last file: no other worker touches it any more, and
        // on_error_ takes DB::mutex_, which must not nest inside mu_.
        l.unlock();
        b.tally.Emit(ring_, shard_);
        if (!b.tally.status.ok()) on_error_(b.tally.status);
        l.lock();
      }
      if (--outstanding_ == kMaxUnlinkDebt || outstanding_ == 0) {
        done_cv_.notify_all();
      }
    }
  }

  Env* const env_;
  obs::EventRing* const ring_;
  const uint16_t shard_;
  const std::function<void(const Status&)> on_error_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // Files queued, or stopping.
  // outstanding_ fell to kMaxUnlinkDebt (bounded hand-offs) or to zero.
  std::condition_variable done_cv_;
  std::deque<Unlink> queue_;
  size_t outstanding_ = 0;  // Files queued or being unlinked.
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

DB::DB(const DbOptions& options) : options_(options) {
  write_queue_ = std::make_unique<write::WriteQueue>();
  block_cache_ = std::make_unique<LruCache>(options_.block_cache_bytes);
  table_cache_ = std::make_unique<read::TableCache>(
      options_.env, options_.path, block_cache_.get(),
      options_.table_cache_open_files);
  compaction_exec_ = std::make_unique<compaction::CompactionExecutor>(
      OutputShapeForDb(), table_cache_.get());
  if (options_.enable_latency_stats) {
    latency_ = std::make_unique<obs::LatencyRecorder>();
  }
  if (options_.enable_amp_stats) {
    amp_ = std::make_unique<obs::AmpTracker>();
    obs::ModelDriftMonitor::Params drift_params;
    drift_params.merge = MergeForDriftModel(options_.policy);
    drift_params.size_ratio = options_.policy.size_ratio;
    // Optimal-k Bloom FPR for the configured bits/key: f = 2^(-bits·ln 2).
    drift_params.bloom_fpr =
        std::pow(2.0, -options_.bloom_bits_per_key * 0.6931471805599453);
    drift_params.drift_threshold = options_.model_drift_threshold;
    drift_params.mix_shift_threshold = options_.model_mix_shift_threshold;
    drift_ = std::make_unique<obs::ModelDriftMonitor>(drift_params);
  }
  if (options_.event_ring != nullptr) {
    // Borrowed ring (sharded store): its owner decides about tracing.
    ring_ = options_.event_ring;
  } else {
    owned_ring_ = std::make_unique<obs::EventRing>(options_.event_ring_size);
    ring_ = owned_ring_.get();
    if (!options_.trace_file_path.empty()) {
      ring_->OpenTraceFile(options_.trace_file_path);
    }
  }
  current_ = new Version();
  current_->Ref();
}

compaction::OutputShape DB::OutputShapeForDb() {
  compaction::OutputShape shape;
  shape.env = options_.env;
  shape.path = options_.path;
  shape.block_size = options_.block_size;
  shape.restart_interval = options_.block_restart_interval;
  shape.filter_variant = options_.filter_variant;
  shape.target_file_size = options_.target_file_size;
  shape.next_file_number = &next_file_number_;
  return shape;
}

DB::~DB() {
  // The tuner's tick and the snapshotter's samples read live engine state;
  // quiesce both before anything else is torn down.
  if (tuner_ != nullptr) tuner_->Stop();
  if (snapshotter_ != nullptr) snapshotter_->Stop();
  // Drain accepted background jobs, then the pool's task queue, before any
  // member is destroyed. Both calls are idempotent. A borrowed pool (shared
  // across shards) is the sharded store's to shut down, not ours.
  if (scheduler_ != nullptr) scheduler_->Shutdown();
  if (owned_pool_ != nullptr) owned_pool_->Shutdown();
  std::unique_lock<std::mutex> lock(mutex_);
  // Best effort: anything still pinned (stray iterator outliving the DB is
  // undefined behavior anyway) stays on disk and is swept at the next Open.
  ReapLocked(lock);
  lock.unlock();
  // The reaper may take the mutex to latch an unlink failure, so it is
  // drained and joined with the mutex released.
  reaper_.reset();
  if (current_ != nullptr && current_->Unref()) delete current_;
}

Status DB::Open(const DbOptions& options, std::unique_ptr<DB>* dbptr) {
  if (options.env == nullptr || options.path.empty()) {
    return Status::InvalidArgument("env and path are required");
  }
  auto db = std::unique_ptr<DB>(new DB(options));
  Env* env = options.env;
  Status s = env->CreateDirIfMissing(options.path);
  if (!s.ok()) return s;

  PolicyContext ctx;
  ctx.buffer_bytes = options.write_buffer_size;
  ctx.mix_tracker = &db->mix_tracker_;
  GrowthPolicyConfig policy_config = options.policy;
  policy_config.bloom_bits_per_key = options.bloom_bits_per_key;
  db->policy_ = CreateGrowthPolicy(policy_config, ctx);
  if (db->policy_ == nullptr) {
    return Status::InvalidArgument("unknown growth policy");
  }

  ManifestData manifest;
  uint64_t manifest_number = 0;
  uint64_t old_wal = 0;
  s = ReadCurrentManifest(env, options.path, &manifest, &manifest_number);
  if (s.ok()) {
    if (options.adaptive_tuning && !manifest.policy_config.empty()) {
      // Re-resolution (DESIGN.md §9): a tuned store's live design may have
      // moved away from the statically configured one. The manifest's
      // persisted config is authoritative — rebuild the policy from it so
      // the name check below compares like with like.
      GrowthPolicyConfig persisted;
      if (!DecodeGrowthPolicyConfig(manifest.policy_config, &persisted)) {
        return Status::Corruption("bad growth policy config in manifest");
      }
      persisted.bloom_bits_per_key = options.bloom_bits_per_key;
      db->options_.policy = persisted;
      db->policy_ = CreateGrowthPolicy(persisted, ctx);
      if (db->policy_ == nullptr) {
        return Status::Corruption("unresolvable growth policy in manifest");
      }
      if (db->drift_ != nullptr) {
        db->drift_->Reconfigure(MergeForDriftModel(persisted),
                                persisted.size_ratio);
      }
    }
    if (manifest.policy_name != db->policy_->name()) {
      return Status::InvalidArgument(
          "db was created with a different growth policy",
          manifest.policy_name);
    }
    db->InstallVersionLocked(
        std::make_unique<Version>(std::move(manifest.version)));
    db->next_file_number_.store(manifest.next_file_number,
                                std::memory_order_relaxed);
    db->next_run_id_ = manifest.next_run_id;
    db->last_sequence_ = manifest.last_sequence;
    db->flush_count_ = manifest.flush_count;
    old_wal = manifest.wal_number;
    if (!db->policy_->DecodeState(manifest.policy_state)) {
      return Status::Corruption("bad growth policy state in manifest");
    }
  } else if (s.IsNotFound()) {
    if (!options.create_if_missing) return s;
  } else {
    return s;
  }

  db->mem_ = std::make_shared<MemTable>();
  // The first commit rolls to a fresh log and retires the recovered one.
  db->manifest_ =
      std::make_unique<ManifestLog>(env, options.path, manifest_number);

  // Every table the recovered version names must exist: a missing one means
  // the manifest and the directory disagree, and opening would turn reads of
  // its keys into silent misses. Then sweep what the manifest does not
  // name: SSTs left by a crash between a manifest install and their unlink
  // (or by a shutdown with pinned iterators), and MANIFEST logs left by a
  // crash mid-roll. Nothing else runs yet, so all of it is garbage.
  {
    std::vector<std::string> children;
    s = env->GetChildren(options.path, &children);
    if (!s.ok()) return s;
    std::set<uint64_t> ssts;
    for (const auto& name : children) {
      uint64_t number = 0;
      std::string suffix;
      if (!ParseFileName(name, &number, &suffix)) continue;
      if (suffix == "sst") {
        ssts.insert(number);
        if (!db->current_->ReferencesFile(number)) {
          env->RemoveFile(SstFileName(options.path, number));
        }
      } else if (suffix == "manifest" && number != manifest_number) {
        env->RemoveFile(ManifestFileName(options.path, number));
      }
    }
    for (const LevelState& level : db->current_->levels) {
      for (const SortedRun& run : level.runs) {
        for (const FileMetaPtr& f : run.files) {
          if (ssts.count(f->number) == 0) {
            return Status::Corruption("manifest names a missing table",
                                      SstFileName(options.path, f->number));
          }
        }
      }
    }
  }

  // Recovery and the initial flush run inline (and under the mutex) even in
  // background mode: the exec subsystem starts only once the DB is
  // consistent.
  std::unique_lock<std::mutex> lock(db->mutex_);
  std::vector<uint64_t> replayed;
  if (old_wal != 0) {
    Status rs = db->RecoverWalsLocked(old_wal, &replayed);
    if (!rs.ok()) return rs;
  }

  if (db->mem_->num_entries() > 0) {
    // Recovered entries are only in memory and the old WALs; flush them so
    // the old WALs can be retired safely. DoFlushLocked performs the safe
    // new-WAL → manifest → delete-old-WAL sequence for the newest WAL; any
    // older replayed WALs are deleted once the manifest stopped naming them.
    db->wal_number_ = replayed.back();
    Status fs = db->DoFlushLocked(lock);
    if (!fs.ok()) return fs;
    replayed.pop_back();  // DoFlushLocked retired the newest one.
  } else {
    Status ws = db->NewWalLocked();
    if (!ws.ok()) return ws;
    ws = db->InstallManifestLocked();
    if (!ws.ok()) return ws;
  }
  for (uint64_t w : replayed) {
    db->unlink_batch_.push_back(WalFileName(options.path, w));
  }
  s = db->ReapLocked(lock);  // Synchronous: the reaper starts below.
  if (!s.ok()) return s;
  lock.unlock();

  if (db->is_background()) {
    if (options.shared_pool != nullptr) {
      db->pool_ = options.shared_pool;
    } else {
      db->owned_pool_ =
          std::make_unique<exec::ThreadPool>(options.num_background_threads);
      db->pool_ = db->owned_pool_.get();
    }
    db->scheduler_ = std::make_unique<exec::JobScheduler>(db->pool_);
    exec::StallConfig stall_config;
    stall_config.max_immutable_memtables = options.max_immutable_memtables;
    stall_config.l0_slowdown_runs = options.l0_slowdown_runs;
    stall_config.l0_stop_runs = options.l0_stop_runs;
    stall_config.slowdown_delay_micros = options.slowdown_delay_micros;
    db->stall_ = std::make_unique<exec::StallController>(stall_config);
    // Attach the pool so background compactions fan their subcompactions
    // out (bounded by DbOptions::max_subcompactions).
    db->compaction_exec_->SetPool(db->pool_);
    // A failed unlink keeps its meaning from the synchronous path: it is
    // latched as the background error (the file is swept at the next Open).
    DB* raw = db.get();
    db->reaper_ = std::make_unique<Reaper>(
        env, db->ring_, static_cast<uint16_t>(options.shard_index),
        [raw](const Status& us) {
          std::lock_guard<std::mutex> l(raw->mutex_);
          if (raw->bg_error_.ok()) raw->bg_error_ = us;
        });
  }

  if (options.stats_snapshot_interval_ms > 0) {
    obs::StatsSnapshotter::Options snap_opts;
    snap_opts.interval_ms = options.stats_snapshot_interval_ms;
    snap_opts.ring_capacity = options.stats_snapshot_ring;
    snap_opts.jsonl_path = options.stats_snapshot_path;
    DB* raw = db.get();
    db->snapshotter_ = std::make_unique<obs::StatsSnapshotter>(
        db->pool_, snap_opts, [raw] { return raw->BuildStatsSample(); });
    db->snapshotter_->Start();
  }

  // The tuner needs the measured windows (amp stats) and only tunes the
  // vertical family — the shapes the cost model solves and the only ones
  // with a cheap live-migration path between them.
  if (options.adaptive_tuning && db->amp_ != nullptr &&
      db->options_.policy.scheme == GrowthScheme::kVertical) {
    tune::TunerConfig tcfg;
    tcfg.hysteresis = options.tune_hysteresis;
    tcfg.min_window_ops = options.tune_min_window_ops;
    tcfg.cooldown_ticks = options.tune_cooldown_ticks;
    tcfg.interval_ms = options.tune_interval_ms;
    DB* raw = db.get();
    db->tuner_ = std::make_unique<tune::AdaptiveTuner>(
        tcfg, [raw] { raw->RetuneNow(); });
    db->tuner_->Start();
  }

  *dbptr = std::move(db);
  return Status::OK();
}

Status DB::RecoverWalsLocked(uint64_t oldest_wal,
                             std::vector<uint64_t>* replayed) {
  // The manifest names the oldest WAL that may hold unflushed data. In
  // background mode several WALs can be live at once (one per queued
  // immutable memtable plus the active one), so replay every WAL file at or
  // above that number, in order; sequence numbers keep replay idempotent
  // with respect to ordering.
  std::vector<std::string> children;
  Status s = options_.env->GetChildren(options_.path, &children);
  if (!s.ok()) return s;
  std::vector<uint64_t> wals;
  for (const auto& name : children) {
    uint64_t number = 0;
    std::string suffix;
    if (ParseFileName(name, &number, &suffix) && suffix == "wal" &&
        number >= oldest_wal) {
      wals.push_back(number);
    }
  }
  std::sort(wals.begin(), wals.end());

  for (uint64_t wal_number : wals) {
    const std::string fname = WalFileName(options_.path, wal_number);
    std::unique_ptr<SequentialFile> file;
    s = options_.env->NewSequentialFile(fname, &file);
    if (!s.ok()) return s;
    wal::LogReader reader(std::move(file));
    std::string record;
    while (reader.ReadRecord(&record)) {
      SequenceNumber base_seq;
      WriteBatch batch;
      if (!DecodeWalRecord(Slice(record), &base_seq, &batch)) {
        return Status::Corruption("bad WAL record", fname);
      }
      MemTableInserter inserter(mem_.get(), base_seq);
      Status bs = batch.Iterate(&inserter);
      if (!bs.ok()) return bs;
      const SequenceNumber last = base_seq + batch.Count() - 1;
      if (batch.Count() > 0 && last > last_sequence_) last_sequence_ = last;
    }
    // A torn tail is expected after a crash; everything before it is intact.
    replayed->push_back(wal_number);
  }
  return Status::OK();
}

Status DB::NewWalLocked() {
  if (!options_.enable_wal) {
    wal_number_ = 0;
    wal_.reset();
    return Status::OK();
  }
  wal_number_ = next_file_number_++;
  std::unique_ptr<WritableFile> file;
  Status s = options_.env->NewWritableFile(
      WalFileName(options_.path, wal_number_), &file);
  if (!s.ok()) return s;
  wal_ = std::make_unique<wal::LogWriter>(std::move(file));
  return Status::OK();
}

uint64_t DB::OldestLiveWalLocked() const {
  // WALs retire in order, so the oldest queued immutable memtable's WAL
  // bounds what recovery must replay.
  return imm_.empty() ? wal_number_ : imm_.front().wal_number;
}

Status DB::Put(const Slice& key, const Slice& value) {
  if (key.empty()) {
    return Status::InvalidArgument("empty keys are not supported");
  }
  WriteBatch batch;
  batch.Put(key, value);
  return CommitGroup(batch);
}

Status DB::Delete(const Slice& key) {
  if (key.empty()) {
    return Status::InvalidArgument("empty keys are not supported");
  }
  WriteBatch batch;
  batch.Delete(key);
  return CommitGroup(batch);
}

Status DB::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  return CommitGroup(batch);
}

Status DB::MaybeSyncWal(wal::LogWriter* wal, bool* synced) {
  switch (options_.wal_sync_mode) {
    case WalSyncMode::kNone:
      return Status::OK();
    case WalSyncMode::kPerGroup:
      *synced = true;
      return wal->Sync();
    case WalSyncMode::kInterval: {
      // The log is always dirty here (called right after a successful
      // append), so the only question is whether the interval elapsed.
      const uint64_t now = NowMicros();
      if (now - last_wal_sync_micros_ < options_.wal_sync_interval_micros) {
        return Status::OK();
      }
      last_wal_sync_micros_ = now;
      *synced = true;
      return wal->Sync();
    }
  }
  return Status::OK();
}

Status DB::CommitGroup(const WriteBatch& my_batch) {
  // kPut spans the whole call — queue wait, group commit, stall gate,
  // visibility wait — which is the latency the caller actually observed.
  obs::ScopedOpTimer put_timer(latency_.get(), obs::OpType::kPut);
  write::Writer w(&my_batch);
  const Status s = CommitWriter(&w);
  // Under a shared allocator the group's publish may sit above a range
  // another shard is still committing; ack only once the watermark covers
  // this write, so a Get issued after the ack sees it (DESIGN.md §3).
  if (s.ok() && options_.sequence_allocator != nullptr &&
      my_batch.Count() > 0) {
    options_.sequence_allocator->WaitVisible(w.base_seq + my_batch.Count() -
                                             1);
  }
  return s;
}

Status DB::WriteAt(const WriteBatch& batch, SequenceNumber base_seq) {
  if (batch.empty()) return Status::OK();
  if (batch.HasEmptyKey()) {
    return Status::InvalidArgument("empty keys are not supported");
  }
  write::Writer w(&batch);
  w.preassigned = true;
  w.publish_sequence = false;  // The sharding layer publishes the range.
  w.base_seq = base_seq;
  obs::ScopedOpTimer put_timer(latency_.get(), obs::OpType::kPut);
  return CommitWriter(&w);
}

Status DB::CommitWriter(write::Writer* writer) {
  write::Writer& w = *writer;
  if (!write_queue_->JoinAndAwaitLeadership(&w)) {
    // Committed (or failed) by another leader; join_micros is the time this
    // writer sat in the queue before its group's leader took it.
    if (latency_ != nullptr) {
      latency_->Record(obs::OpType::kGroupWait, w.join_micros);
    }
    return w.status;
  }
  if (latency_ != nullptr) {
    latency_->Record(obs::OpType::kGroupWait, w.join_micros);
  }

  // ---- Leader: gate + claim (first short mutex section). ----
  write::WriteGroup group;
  std::unique_lock<std::mutex> lock(mutex_);
  Status gate;
  if (!wal_error_.ok()) {
    gate = wal_error_;
  } else if (is_background()) {
    gate = bg_error_.ok() ? MaybeStallLocked(lock) : bg_error_;
  }
  // Build the group only after the stall gate: writers that queued up while
  // the leader was stalled amortize into this one commit.
  write_queue_->BuildGroup(&w, options_.max_write_group_bytes, &group);
  if (!gate.ok()) {
    lock.unlock();
    for (write::Writer* wr : group.writers) wr->status = gate;
    write_queue_->ExitGroup(&group);
    return w.status;
  }

  // Claim the group's sequence range privately, in queue order. Nothing is
  // published yet: readers pin views at the pre-group visibility bound, so
  // the whole group becomes visible atomically at publish time — and if the
  // WAL append fails below, the claim simply evaporates (the sequence-leak
  // fix; under a shared allocator the range is burned instead, see the
  // failure branch). Malformed batches (empty keys) fail alone, not their
  // group. Preassigned writers (WriteAt) carry ranges the sharding layer
  // already claimed, so they stay out of this group's contiguous claim.
  shard::SequenceAllocator* alloc = options_.sequence_allocator;
  uint64_t claim_count = 0;
  uint64_t total_count = 0;
  for (write::Writer* wr : group.writers) {
    if (wr->batch->HasEmptyKey()) {
      wr->status = Status::InvalidArgument("empty keys are not supported");
      continue;
    }
    total_count += wr->batch->Count();
    if (!wr->preassigned) claim_count += wr->batch->Count();
  }
  const SequenceNumber base_seq = alloc != nullptr && claim_count > 0
                                      ? alloc->Claim(claim_count)
                                      : last_sequence_ + 1;
  SequenceNumber next_seq = base_seq;
  SequenceNumber max_seq = last_sequence_;
  for (write::Writer* wr : group.writers) {
    if (!wr->status.ok()) continue;
    if (!wr->preassigned) {
      wr->base_seq = next_seq;
      next_seq += wr->batch->Count();
    }
    if (wr->batch->Count() > 0) {
      max_seq = std::max(max_seq, wr->base_seq + wr->batch->Count() - 1);
    }
  }
  const uint64_t group_count = total_count;
  std::shared_ptr<MemTable> mem = mem_;
  wal::LogWriter* wal = wal_.get();
  commit_in_flight_ = true;
  lock.unlock();

  // ---- WAL append + one amortized sync (no mutex). ----
  // One record covers the whole group: recovery decodes the concatenated
  // batch reps and replays them at base_seq onward, reproducing exactly the
  // per-writer sequence assignment above.
  Status s;
  bool synced = false;
  if (wal != nullptr && group_count > 0) {
    const uint64_t wal_t0 = latency_ != nullptr ? NowMicros() : 0;
    if (claim_count > 0) {
      std::string rec;
      PutFixed64(&rec, base_seq);
      for (write::Writer* wr : group.writers) {
        if (wr->status.ok() && !wr->preassigned) rec.append(wr->batch->rep());
      }
      s = wal->AddRecord(Slice(rec));
    }
    // Preassigned sub-batches get their own records: their ranges are
    // disjoint from the group's contiguous claim, and the record format
    // (base_seq + reps, replayed sequentially) already encodes that.
    for (write::Writer* wr : group.writers) {
      if (!s.ok()) break;
      if (!wr->status.ok() || !wr->preassigned) continue;
      std::string rec;
      PutFixed64(&rec, wr->base_seq);
      rec.append(wr->batch->rep());
      s = wal->AddRecord(Slice(rec));
    }
    if (latency_ != nullptr) {
      latency_->Record(obs::OpType::kWalAppend, NowMicros() - wal_t0);
    }
    if (s.ok()) {
      const uint64_t sync_t0 = latency_ != nullptr ? NowMicros() : 0;
      s = MaybeSyncWal(wal, &synced);
      // Only actual fsyncs are observations; skipped intervals would bury
      // the sync tail under zeros.
      if (latency_ != nullptr && synced) {
        latency_->Record(obs::OpType::kWalSync, NowMicros() - sync_t0);
      }
    }
  }

  // ---- Memtable inserts (no mutex). ----
  if (s.ok() && group_count > 0) {
    for (write::Writer* wr : group.writers) {
      if (!wr->status.ok()) continue;
      MemTableInserter inserter(mem.get(), wr->base_seq);
      wr->status = wr->batch->Iterate(&inserter);
    }
  }

  // ---- Publish (second short mutex section). ----
  lock.lock();
  commit_in_flight_ = false;
  if (!s.ok()) {
    // WAL failure: nothing was inserted and last_sequence_ never moved.
    // The error is latched — the append may have persisted its record even
    // though it reported failure (e.g. a sync failure after a successful
    // append), so letting a later group re-claim this range could put two
    // WAL records with the same base_seq on disk and make recovery replay
    // duplicate sequences. The whole group shares the error; the store
    // stays readable and reopens cleanly.
    if (wal_error_.ok()) wal_error_ = s;
    for (write::Writer* wr : group.writers) {
      if (wr->status.ok()) wr->status = s;
    }
    // Burn the claimed ranges: the latched error means they can never be
    // reused, and an unpublished hole would wedge the global watermark for
    // every other shard. Ranges the sharding layer claimed itself
    // (publish_sequence == false) are its to burn.
    PublishGroupSequences(alloc, base_seq, claim_count, group);
    bg_cv_.notify_all();
    lock.unlock();
    write_queue_->ExitGroup(&group);
    return w.status;
  }
  if (max_seq > last_sequence_) last_sequence_ = max_seq;
  // Publish once the inserts are complete: the global watermark may now
  // advance over this group, making it visible to cross-shard snapshots
  // atomically. Multi-shard sub-batches (publish_sequence == false) stay
  // pending until the sharding layer publishes their whole range.
  PublishGroupSequences(alloc, base_seq, claim_count, group);
  uint64_t committed = 0;
  for (write::Writer* wr : group.writers) {
    if (!wr->status.ok()) continue;
    committed++;
    stats_.puts += wr->batch->Puts();
    stats_.deletes += wr->batch->Deletes();
    stats_.user_payload_written += wr->batch->PayloadBytes();
    if (amp_ != nullptr) amp_->RecordUserPayload(wr->batch->PayloadBytes());
    mix_tracker_.RecordUpdate();
    options_.env->io_stats()->RecordCpu(options_.cpu_cost_per_write);
  }
  write_stats_.OnGroupCommitted(group.writers.size(), committed,
                                group.queue_wait_micros, synced);
  Status flush_status;
  if (mem_->payload_bytes() >= options_.write_buffer_size) {
    // The flush (inline) or switch (background) is attributed to the
    // leader: followers' data is already durable in the WAL and memtable.
    flush_status =
        is_background() ? SwitchMemTableLocked() : DoFlushLocked(lock);
  }
  bg_cv_.notify_all();
  lock.unlock();
  write_queue_->ExitGroup(&group);
  if (w.status.ok() && !flush_status.ok()) w.status = flush_status;
  return w.status;
}

Status DB::MaybeStallLocked(std::unique_lock<std::mutex>& lock) {
  bool already_slowed = false;
  bool already_agg_stopped = false;
  shard::ShardBackpressure* agg = options_.shard_backpressure;
  const uint16_t shard = static_cast<uint16_t>(options_.shard_index);
  while (true) {
    if (!bg_error_.ok()) return bg_error_;
    const size_t l0_runs =
        current_->levels.empty() ? 0 : current_->levels[0].runs.size();
    exec::StallCause cause = exec::StallCause::kNone;
    const exec::StallDecision decision =
        stall_->Decide(imm_.size(), l0_runs, &cause);
    const uint64_t cause_code = cause == exec::StallCause::kMemtable
                                    ? obs::kCauseMemtable
                                    : cause == exec::StallCause::kL0
                                          ? obs::kCauseL0
                                          : obs::kCauseNone;
    const exec::StallDecision agg_decision =
        agg != nullptr ? agg->Decide() : exec::StallDecision::kNone;
    if (decision != exec::StallDecision::kStop &&
        agg_decision == exec::StallDecision::kStop && !already_agg_stopped) {
      // Unified backpressure (DESIGN.md §3): the sharded store's aggregate
      // debt — possibly all on one hot shard — stops intake everywhere.
      // The wait is bounded (and taken at most once per write) because the
      // local controllers own unbounded stops; this layer only paces
      // intake while the shared pool catches up. The debt is remote, so it
      // counts toward stop time but not the local memtable/l0 causes.
      already_agg_stopped = true;
      stats_.stall_stops++;
      ring_->Emit(obs::EventType::kShardBackpressure, shard, 1, 0);
      const uint64_t start = NowMicros();
      lock.unlock();
      agg->WaitWhileStopped();
      lock.lock();
      const uint64_t waited = NowMicros() - start;
      stats_.stall_micros += waited;
      stats_.stall_stop_micros += waited;
      ring_->Emit(obs::EventType::kShardBackpressure, shard, 0, waited);
      continue;
    }
    if (decision == exec::StallDecision::kStop) {
      // Safety valve: if no background job is pending, no background
      // progress can clear the condition (the policy's stable shape exceeds
      // the configured threshold) — proceed instead of deadlocking.
      // bg_jobs_pending_ (not the scheduler's counters) is what makes this
      // wait sound: it is decremented under mutex_ together with a
      // bg_cv_.notify_all(), so the last job's completion is never missed.
      if (imm_.empty() && bg_jobs_pending_ == 0) return Status::OK();
      stats_.stall_stops++;
      if (cause == exec::StallCause::kMemtable) {
        stats_.stall_stops_memtable++;
      } else {
        stats_.stall_stops_l0++;
      }
      ring_->Emit(obs::EventType::kStallEnter, shard, cause_code, 1);
      const uint64_t start = NowMicros();
      bg_cv_.wait(lock, [this] {
        if (!bg_error_.ok()) return true;
        const size_t l0 =
            current_->levels.empty() ? 0 : current_->levels[0].runs.size();
        if (stall_->Decide(imm_.size(), l0) != exec::StallDecision::kStop) {
          return true;
        }
        return imm_.empty() && bg_jobs_pending_ == 0;
      });
      const uint64_t waited = NowMicros() - start;
      stats_.stall_micros += waited;
      stats_.stall_stop_micros += waited;
      ring_->Emit(obs::EventType::kStallExit, shard, cause_code, waited);
      continue;
    }
    if ((decision == exec::StallDecision::kSlowdown ||
         agg_decision == exec::StallDecision::kSlowdown) &&
        !already_slowed) {
      already_slowed = true;
      // An aggregate-only slowdown has no local cause; its event carries
      // cause=none and it stays out of the local cause counters.
      const uint64_t slow_cause =
          decision == exec::StallDecision::kSlowdown ? cause_code
                                                     : obs::kCauseNone;
      if (decision == exec::StallDecision::kSlowdown) {
        if (cause == exec::StallCause::kMemtable) {
          stats_.stall_slowdowns_memtable++;
        } else {
          stats_.stall_slowdowns_l0++;
        }
      }
      ring_->Emit(obs::EventType::kStallEnter, shard, slow_cause, 0);
      const uint64_t start = NowMicros();
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(
          stall_->config().slowdown_delay_micros));
      lock.lock();
      const uint64_t waited = NowMicros() - start;
      stats_.stall_slowdowns++;
      stats_.stall_micros += waited;
      stats_.stall_slowdown_micros += waited;
      ring_->Emit(obs::EventType::kStallExit, shard, slow_cause, waited);
      continue;
    }
    return Status::OK();
  }
}

Status DB::SwitchMemTableLocked() {
  ring_->Emit(obs::EventType::kMemtableSwitch,
              static_cast<uint16_t>(options_.shard_index),
              mem_->payload_bytes(), 0);
  imm_.push_back(ImmPartition{mem_, wal_number_});
  stats_.memtable_switches++;
  if (imm_.size() > stats_.max_imm_queue_depth) {
    stats_.max_imm_queue_depth = imm_.size();
  }
  mem_ = std::make_shared<MemTable>();
  ReportBackpressureLocked();
  Status s = NewWalLocked();
  if (!s.ok()) {
    bg_error_ = s;
    return s;
  }
  ScheduleFlushLocked();
  return Status::OK();
}

void DB::ScheduleFlushLocked() {
  if (scheduler_->Schedule(exec::JobType::kFlush, [this] {
        return BackgroundFlush();
      }) != exec::JobScheduler::kInvalidJobId) {
    bg_jobs_pending_++;
  }
}

void DB::ScheduleCompactionLocked() {
  if (scheduler_->Schedule(exec::JobType::kCompaction, [this] {
        return BackgroundCompaction();
      }) != exec::JobScheduler::kInvalidJobId) {
    bg_jobs_pending_++;
  }
}

Status DB::BackgroundFlush() {
  std::unique_lock<std::mutex> lock(mutex_);
  Status s = BackgroundFlushLocked(lock);
  bg_jobs_pending_--;
  bg_cv_.notify_all();
  return s;
}

Status DB::BackgroundFlushLocked(std::unique_lock<std::mutex>& lock) {
  if (flush_active_) return Status::OK();  // The active job drains the queue.
  flush_active_ = true;
  Status s;
  while (s.ok() && !imm_.empty()) {
    // The front partition stays visible to readers (and its WAL stays named
    // by the manifest) until the flush result is installed below.
    ImmPartition part = imm_.front();
    std::vector<FileMetaPtr> obsolete;
    s = FlushMemToL0Locked(part.mem.get(), lock, /*allow_unlock=*/true,
                           &obsolete);
    if (!s.ok()) break;
    imm_.pop_front();
    ReportBackpressureLocked();
    stats_.bg_flushes++;
    policy_->OnFlushCompleted(*current_);
    s = InstallManifestLocked();
    if (!s.ok()) break;
    MarkObsoleteLocked(std::move(obsolete));
    if (part.wal_number != 0) {
      unlink_batch_.push_back(WalFileName(options_.path, part.wal_number));
    }
    bg_cv_.notify_all();
  }
  if (!s.ok()) bg_error_ = s;
  flush_active_ = false;
  if (s.ok()) ScheduleCompactionLocked();
  bg_cv_.notify_all();
  // Reaped after giving up the flush slot: a memtable sealed meanwhile is
  // flushed by the next job instead of waiting behind this job's wait for
  // the reaper's previous batch. (Background mode: the hand-off never
  // fails.)
  ReapLocked(lock);
  return s;
}

Status DB::BackgroundCompaction() {
  std::unique_lock<std::mutex> lock(mutex_);
  Status s = Status::OK();
  if (!compaction_active_) {  // Otherwise the active chain picks the work up.
    compaction_active_ = true;
    s = RunCompactionLoopLocked(lock, /*background=*/true);
    if (!s.ok()) bg_error_ = s;
    compaction_active_ = false;
  }
  bg_jobs_pending_--;
  bg_cv_.notify_all();
  return s;
}

SequenceNumber DB::SmallestLiveSnapshotLocked() const {
  // Sharded stores read at the global watermark, not this shard's own last
  // sequence, so the tombstone-GC horizon must not outrun it: a future
  // cross-shard read pins at visible(t') >= visible(now) (monotonic), so
  // keeping versions needed at visible(now) keeps everything any such read
  // can still ask for (registered snapshots handle the rest via the min).
  const SequenceNumber horizon =
      options_.sequence_allocator != nullptr
          ? options_.sequence_allocator->visible()
          : last_sequence_;
  if (snapshot_seqs_.empty()) return horizon;
  return std::min(*snapshot_seqs_.begin(), horizon);
}

const Snapshot* DB::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot_seqs_.insert(last_sequence_);
  return new Snapshot(last_sequence_);
}

const Snapshot* DB::GetSnapshotAt(SequenceNumber sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot_seqs_.insert(sequence);
  return new Snapshot(sequence);
}

void DB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = snapshot_seqs_.find(snapshot->sequence());
  if (it != snapshot_seqs_.end()) snapshot_seqs_.erase(it);
  delete snapshot;
}

Status DB::FlushMemTable() {
  std::unique_lock<std::mutex> lock(mutex_);
  // A commit group may be inserting into mem_ with the mutex released;
  // switching or flushing mid-commit would flush a half-applied group.
  bg_cv_.wait(lock, [this] { return !commit_in_flight_; });
  if (!is_background()) {
    if (mem_->num_entries() == 0) return Status::OK();
    return DoFlushLocked(lock);
  }
  if (!bg_error_.ok()) return bg_error_;
  if (mem_->num_entries() > 0) {
    Status s = SwitchMemTableLocked();
    if (!s.ok()) return s;
  }
  lock.unlock();
  scheduler_->WaitIdle();
  DrainReaper();
  lock.lock();
  return bg_error_;
}

Status DB::DoFlushLocked(std::unique_lock<std::mutex>& lock) {
  const double stall_start = options_.env->io_stats()->clock();

  std::vector<FileMetaPtr> obsolete;
  Status s = FlushMemToL0Locked(mem_.get(), lock, /*allow_unlock=*/false,
                                &obsolete);
  if (!s.ok()) return s;
  mem_ = std::make_shared<MemTable>();

  policy_->OnFlushCompleted(*current_);
  s = RunCompactionLoopLocked(lock, /*background=*/false);
  if (!s.ok()) return s;

  // Safe WAL retirement: open the new WAL, persist the pointer, only then
  // drop the old log and the files consumed by the flush.
  const uint64_t old_wal = wal_number_;
  s = NewWalLocked();
  if (!s.ok()) return s;
  s = InstallManifestLocked();
  if (!s.ok()) return s;
  MarkObsoleteLocked(std::move(obsolete));
  if (old_wal != 0) {
    unlink_batch_.push_back(WalFileName(options_.path, old_wal));
  }
  s = ReapLocked(lock);
  if (!s.ok()) return s;

  const double stall = options_.env->io_stats()->clock() - stall_start;
  if (stall > stats_.max_stall_clock) stats_.max_stall_clock = stall;
  return Status::OK();
}

Status DB::FlushMemToL0Locked(MemTable* mem,
                              std::unique_lock<std::mutex>& lock,
                              bool allow_unlock,
                              std::vector<FileMetaPtr>* obsolete) {
  const uint16_t shard = static_cast<uint16_t>(options_.shard_index);
  const uint64_t flush_t0 = NowMicros();
  const uint64_t written_before = stats_.flush_bytes_written;
  ring_->Emit(obs::EventType::kFlushBegin, shard, mem->payload_bytes(), 0);
  EnsurePaddedLocked(
      static_cast<size_t>(std::max(1, policy_->RequiredLevels(*current_))));

  const MergeMode mode = policy_->FlushMode(*current_);
  uint64_t bytes_read = 0;
  std::vector<FileMetaPtr> outputs;

  bool leveling_merge =
      mode == MergeMode::kMergeIntoRun && !current_->levels[0].empty();
  if (leveling_merge && allow_unlock) {
    // Background mode: route through the compaction pipeline so the merge —
    // which reads existing SSTs and dominates the flush cost — runs with
    // the mutex released (the caller pins `mem` via its ImmPartition copy).
    // Falls back to the under-mutex merge below only if concurrent
    // compactions keep conflicting the install.
    bool merged = false;
    Status s = FlushMergeIntoRunPipelined(mem, lock, obsolete, &merged);
    if (!s.ok()) return s;
    if (merged) {
      stats_.flushes++;
      flush_count_++;
      if (amp_ != nullptr) {
        amp_->RecordFlushWrite(0,
                               stats_.flush_bytes_written - written_before);
      }
      const uint64_t dur = NowMicros() - flush_t0;
      ring_->Emit(obs::EventType::kFlushEnd, shard,
                  stats_.flush_bytes_written - written_before, dur);
      if (latency_ != nullptr) latency_->Record(obs::OpType::kFlush, dur);
      return Status::OK();
    }
    // The mutex was released: a concurrent compaction may have emptied
    // level 0, in which case the flush degrades to a plain new-run flush.
    leveling_merge = !current_->levels[0].empty();
  }

  if (leveling_merge) {
    // Leveling flush: merge the memtable with level 0's newest run under
    // the mutex (inline mode, or the background conflict fallback). The
    // edit is prepared on a successor copy and installed atomically; pinned
    // views keep reading the pre-flush version.
    auto next = std::make_unique<Version>(*current_);
    SortedRun& target = next->levels[0].runs[0];
    std::vector<std::unique_ptr<Iterator>> children;
    children.push_back(mem->NewIterator());
    children.push_back(std::make_unique<RunIterator>(
        target.files,
        [this](uint64_t n) { return table_cache_->GetReader(n); },
        BlockSource::kFile));
    auto merged = NewMergingIterator(InternalKeyComparator(),
                                     std::move(children));
    merged->SeekToFirst();
    compaction::OutputSpec spec;
    spec.output_level = 0;
    spec.drop_tombstones = next->BottommostNonEmptyLevel() <= 0 &&
                           next->levels[0].runs.size() == 1;
    spec.bits_per_key = BitsPerKeyForLevelLocked(0);
    spec.smallest_snapshot = SmallestLiveSnapshotLocked();
    Status s = compaction::WriteSortedOutput(OutputShapeForDb(), merged.get(),
                                             spec, &bytes_read, &outputs);
    if (!s.ok()) return s;
    for (const auto& f : target.files) obsolete->push_back(f);
    uint64_t written = 0;
    for (const auto& f : outputs) written += f->file_size;
    stats_.flush_bytes_written += written;
    target.files = std::move(outputs);
    if (target.files.empty()) {
      next->levels[0].runs.erase(next->levels[0].runs.begin());
    }
    InstallVersionLocked(std::move(next));
  } else {
    // Tiering flush (or empty level 0): new run at the front. The input is
    // the (immutable) memtable only, so in background mode the mutex is
    // released while SST files are built — the dominant flush cost overlaps
    // foreground traffic. Everything the pass needs is captured first;
    // file numbers come from an atomic counter.
    compaction::OutputSpec spec;
    spec.output_level = 0;
    spec.drop_tombstones = current_->BottommostNonEmptyLevel() < 0;
    spec.bits_per_key = BitsPerKeyForLevelLocked(0);
    spec.smallest_snapshot = SmallestLiveSnapshotLocked();
    auto iter = mem->NewIterator();
    iter->SeekToFirst();
    const compaction::OutputShape shape = OutputShapeForDb();
    Status s;
    if (allow_unlock) {
      lock.unlock();
      s = compaction::WriteSortedOutput(shape, iter.get(), spec, &bytes_read,
                                        &outputs);
      lock.lock();
    } else {
      s = compaction::WriteSortedOutput(shape, iter.get(), spec, &bytes_read,
                                        &outputs);
    }
    if (!s.ok()) return s;
    uint64_t written = 0;
    for (const auto& f : outputs) written += f->file_size;
    stats_.flush_bytes_written += written;
    if (!outputs.empty()) {
      // Copy the post-relock state: a concurrent compaction may have
      // reshaped level 0, but this run is still the newest data and belongs
      // at the front.
      auto next = std::make_unique<Version>(*current_);
      next->EnsureLevels(1);
      SortedRun run;
      run.run_id = next_run_id_++;
      run.files = std::move(outputs);
      next->levels[0].runs.insert(next->levels[0].runs.begin(),
                                  std::move(run));
      InstallVersionLocked(std::move(next));
    }
  }

  stats_.flushes++;
  // Existing-SST bytes read by the flush merge are flush work, not
  // compaction work: charging them to compaction_bytes_read (as the
  // pre-pipeline engine did) inflated the per-level compaction accounting.
  stats_.flush_bytes_read += bytes_read;
  flush_count_++;
  if (amp_ != nullptr) {
    amp_->RecordFlushWrite(0, stats_.flush_bytes_written - written_before);
  }
  const uint64_t dur = NowMicros() - flush_t0;
  ring_->Emit(obs::EventType::kFlushEnd, shard,
              stats_.flush_bytes_written - written_before, dur);
  if (latency_ != nullptr) latency_->Record(obs::OpType::kFlush, dur);
  return Status::OK();
}

Status DB::FlushMergeIntoRunPipelined(MemTable* mem,
                                      std::unique_lock<std::mutex>& lock,
                                      std::vector<FileMetaPtr>* obsolete,
                                      bool* merged) {
  *merged = false;
  // A handful of retries: each conflict means a compaction installed while
  // the merge ran, which is rare and self-limiting (one chain at a time).
  for (int attempt = 0; attempt < 8; attempt++) {
    if (current_->levels[0].empty()) return Status::OK();  // Caller re-checks.
    CompactionRequest req;
    req.inputs.push_back({0, current_->levels[0].runs[0].run_id, {}});
    req.output_level = 0;
    req.placement = CompactionRequest::Placement::kFront;
    req.reason = "leveling-flush-merge";
    compaction::CompactionPlan plan;
    Status s = PlanForRequestLocked(req, &plan);
    if (!s.ok()) return s;
    // The planner's general GC-admissibility rule reduces, for this plan
    // shape, to the flush rule: drop tombstones iff level 0's only run is
    // the merge target and no deeper level holds data.

    compaction::CompactionExecutor::Result result;
    bool installed = false;
    s = ExecutePlanLocked(
        plan, lock, /*allow_unlock=*/true,
        [mem] { return mem->NewIterator(); }, &result, obsolete, &installed);
    if (!s.ok()) return s;
    if (!installed) continue;  // Conflict: re-plan against the fresh tree.
    stats_.flush_bytes_written += result.bytes_written;
    stats_.flush_bytes_read += result.bytes_read;
    *merged = true;
    return Status::OK();
  }
  return Status::OK();  // Caller falls back to the under-mutex merge.
}

Status DB::RunCompactionLoopLocked(std::unique_lock<std::mutex>& lock,
                                   bool background) {
  // Bounded to catch policy bugs that would loop forever.
  int consecutive_conflicts = 0;
  for (int rounds = 0; rounds < 100000; rounds++) {
    EnsurePaddedLocked(
        static_cast<size_t>(std::max(1, policy_->RequiredLevels(*current_))));
    auto req = policy_->PickCompaction(*current_);
    if (!req.has_value()) {
      if (!background) return ReapLocked(lock);
      // Exit only from a pick made under the mutex the caller clears
      // compaction_active_ under. A reap hands its batch over with the
      // mutex released, and a flush installing in that window schedules a
      // compaction that sees this chain active and returns — so pick again
      // after it.
      CollectObsoleteLocked();
      if (unlink_batch_.empty()) return Status::OK();
      Status s = ReapLocked(lock);
      if (!s.ok()) return s;
      continue;
    }
    // Forward-progress valve: optimistic (off-mutex) merges can in
    // principle conflict every round under a hostile flush cadence. After
    // a few consecutive conflicts run one merge under the mutex — it
    // cannot conflict — then resume optimistically.
    const bool optimistic = background && consecutive_conflicts < 4;
    bool installed = false;
    Status s = RunCompactionRequestLocked(*req, lock, optimistic, &installed);
    if (!s.ok()) return s;
    if (installed) {
      consecutive_conflicts = 0;
      policy_->OnCompactionCompleted(*req, *current_);
    } else {
      consecutive_conflicts++;
    }
    // The merge stage has released its file references by now, so unpinned
    // inputs (and a conflicted merge's outputs) are unlinked here.
    s = ReapLocked(lock);
    if (!s.ok()) return s;
    // On a conflict (background only) the round re-picks against the fresh
    // version: the concurrent flush that caused it already reshaped the
    // tree the policy will now see.
    if (background) {
      if (installed) stats_.bg_compactions++;
      // Let stalled writers and readers interleave between rounds. The
      // yield matters: std::mutex permits barging, so without it the OS may
      // hand the relock straight back to this thread for the whole chain.
      bg_cv_.notify_all();
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
  }
  return Status::Corruption("compaction loop did not converge",
                            policy_->name());
}

Status DB::PlanForRequestLocked(const CompactionRequest& req,
                                compaction::CompactionPlan* plan) {
  compaction::PlannerContext ctx;
  ctx.max_subcompactions = std::max(1, options_.max_subcompactions);
  ctx.bits_per_key = BitsPerKeyForLevelLocked(req.output_level);
  ctx.smallest_snapshot = SmallestLiveSnapshotLocked();
  return compaction::PlanCompaction(*current_, req, ctx, plan);
}

void DB::DeleteUninstalledOutputs(const std::vector<FileMetaPtr>& outputs) {
  // These files never entered a version, so no reader can hold a pin
  // (anything half-written by a failed merge is swept as an orphan at the
  // next Open).
  for (const auto& f : outputs) {
    unlink_batch_.push_back(SstFileName(options_.path, f->number));
  }
}

Status DB::ExecutePlanLocked(
    const compaction::CompactionPlan& plan, std::unique_lock<std::mutex>& lock,
    bool allow_unlock,
    const compaction::CompactionExecutor::ExtraInputFactory& extra,
    compaction::CompactionExecutor::Result* result,
    std::vector<FileMetaPtr>* obsolete, bool* installed) {
  *installed = false;
  const uint16_t shard = static_cast<uint16_t>(options_.shard_index);
  const uint64_t t0 = NowMicros();

  // ---- Merge (mutex released in background mode). ----
  // The plan's FileMetaPtr references pin every input SST: deferred GC
  // never deletes a referenced file, so the merge reads a frozen snapshot
  // regardless of what installs concurrently.
  Status s;
  if (allow_unlock) {
    lock.unlock();
    s = compaction_exec_->Run(plan, extra, result);
    lock.lock();
  } else {
    s = compaction_exec_->Run(plan, extra, result);
  }
  if (!s.ok()) {
    DeleteUninstalledOutputs(result->outputs);
    return s;
  }
  ring_->Emit(obs::EventType::kCompactionMerge, shard,
              static_cast<uint64_t>(plan.output_level),
              result->bytes_written);

  // ---- Install (under mutex), conflict-checked. ----
  if (allow_unlock && !compaction::PlanStillValid(plan, *current_)) {
    // A concurrent flush reshaped an input while the merge ran: discard
    // the outputs and let the caller re-plan against the fresh version.
    stats_.compaction_conflicts++;
    ring_->Emit(obs::EventType::kCompactionConflict, shard,
                static_cast<uint64_t>(plan.output_level), 0);
    DeleteUninstalledOutputs(result->outputs);
    return Status::OK();
  }

  auto next = std::make_unique<Version>(*current_);
  compaction::ApplyCompactionPlan(plan, std::move(result->outputs),
                                  &next_run_id_, next.get(), obsolete);
  InstallVersionLocked(std::move(next));
  *installed = true;
  ring_->Emit(obs::EventType::kCompactionInstall, shard,
              static_cast<uint64_t>(plan.output_level), NowMicros() - t0);
  return Status::OK();
}

Status DB::RunCompactionRequestLocked(const CompactionRequest& req,
                                      std::unique_lock<std::mutex>& lock,
                                      bool allow_unlock, bool* installed) {
  *installed = false;

  // ---- Plan (under mutex). ----
  const uint64_t comp_t0 = latency_ != nullptr ? NowMicros() : 0;
  compaction::CompactionPlan plan;
  Status s = PlanForRequestLocked(req, &plan);
  if (!s.ok()) return s;
  if (plan.empty()) {
    *installed = true;  // Nothing to do counts as completed.
    return Status::OK();
  }
  ring_->Emit(obs::EventType::kCompactionPlan,
              static_cast<uint16_t>(options_.shard_index),
              static_cast<uint64_t>(req.output_level), plan.inputs.size());

  compaction::CompactionExecutor::Result result;
  std::vector<FileMetaPtr> obsolete;
  s = ExecutePlanLocked(plan, lock, allow_unlock, nullptr, &result, &obsolete,
                        installed);
  if (!s.ok() || !*installed) return s;

  stats_.compactions++;
  if (latency_ != nullptr) {
    latency_->Record(obs::OpType::kCompaction, NowMicros() - comp_t0);
  }
  stats_.compaction_bytes_read += result.bytes_read;
  stats_.compaction_bytes_written += result.bytes_written;
  if (stats_.level_stats.size() <= static_cast<size_t>(req.output_level)) {
    stats_.level_stats.resize(req.output_level + 1);
  }
  auto& ls = stats_.level_stats[req.output_level];
  ls.compactions++;
  ls.bytes_read += result.bytes_read;
  ls.bytes_written += result.bytes_written;
  if (amp_ != nullptr) {
    amp_->RecordCompactionWrite(req.output_level, result.bytes_read,
                                result.bytes_written);
  }

  // Persist the new structure before queueing the inputs for deletion
  // (crash safety); the caller runs ReapLocked once the merge stage has
  // dropped its file references.
  s = InstallManifestLocked();
  if (!s.ok()) return s;
  MarkObsoleteLocked(std::move(obsolete));
  return Status::OK();
}

Status DB::CompactAll() {
  Status s = FlushMemTable();
  if (!s.ok()) return s;

  std::unique_lock<std::mutex> lock(mutex_);
  // In background mode the merge stage runs off the mutex, so concurrent
  // writers can flush mid-compaction; a conflicted install rebuilds the
  // request from the fresh version and tries again. The final attempt
  // holds the mutex for the merge — it cannot conflict — so a sustained
  // flush storm degrades to the inline behavior instead of an error.
  constexpr int kOptimisticAttempts = 8;
  for (int attempt = 0; attempt <= kOptimisticAttempts; attempt++) {
    const int bottom = current_->BottommostNonEmptyLevel();
    if (bottom < 0) return Status::OK();

    CompactionRequest req;
    for (int level = 0; level <= bottom; level++) {
      for (const auto& run : current_->levels[level].runs) {
        req.inputs.push_back({level, run.run_id, {}});
      }
    }
    if (req.inputs.empty()) return Status::OK();
    req.output_level = bottom;
    req.placement = CompactionRequest::Placement::kReplaceInputs;
    req.reason = "manual-compact-all";
    // Planner hint: the bottommost run's file cuts are natural
    // subcompaction split points for a whole-tree merge.
    for (const auto& run : current_->levels[bottom].runs) {
      for (size_t i = 1; i < run.files.size(); i++) {
        req.boundary_hints.push_back(
            run.files[i]->smallest.user_key().ToString());
      }
    }
    bool installed = false;
    const bool optimistic = is_background() && attempt < kOptimisticAttempts;
    s = RunCompactionRequestLocked(req, lock, optimistic, &installed);
    if (!s.ok()) return s;
    if (installed) {
      policy_->OnCompactionCompleted(req, *current_);
      s = ReapLocked(lock);
      lock.unlock();
      DrainReaper();
      return s;
    }
  }
  // Unreachable: the final under-mutex attempt always installs.
  return Status::OK();
}

bool DB::GetProperty(const std::string& property, std::string* value) {
  value->clear();
  std::unique_lock<std::mutex> lock(mutex_);
  if (property == "talus.levels") {
    *value = current_->DebugString();
    return true;
  }
  if (property == "talus.num-runs") {
    *value = std::to_string(current_->TotalRuns());
    return true;
  }
  if (property == "talus.data-bytes") {
    *value = std::to_string(ApproximateDataBytesLocked());
    return true;
  }
  if (property == "talus.stats") {
    lock.unlock();
    *value = metrics::FormatCounters(GetCounters());
    return true;
  }
  if (property == "talus.cstats") {
    std::string out = "level compactions bytes_read bytes_written\n";
    for (size_t i = 0; i < stats_.level_stats.size(); i++) {
      const auto& ls = stats_.level_stats[i];
      out += "L" + std::to_string(i) + " " + std::to_string(ls.compactions) +
             " " + std::to_string(ls.bytes_read) + " " +
             std::to_string(ls.bytes_written) + "\n";
    }
    *value = out;
    return true;
  }
  if (property == "talus.exec") {
    if (!is_background()) {
      *value = "mode=inline";
      return true;
    }
    // Stall counters live in talus.stats; this is the executor's own view.
    *value = "mode=background threads=" +
             std::to_string(pool_->num_threads()) +
             " imm_queued=" + std::to_string(imm_.size()) +
             " max_imm_queue=" + std::to_string(stats_.max_imm_queue_depth) +
             " | " + scheduler_->GetStats().ToString() + " | " +
             compaction_exec_->GetStats().ToString();
    return true;
  }
  if (property == "talus.latency") {
    // Empty (but recognized) when latency stats are disabled.
    if (latency_ != nullptr) {
      lock.unlock();  // Snapshots only touch the recorder's own atomics.
      *value = latency_->ToString();
    }
    return true;
  }
  if (property == "talus.events") {
    lock.unlock();  // The ring has its own lock.
    *value = ring_->ToString();
    return true;
  }
  if (property == "talus.amp") {
    // Empty (but recognized) when amp accounting is disabled.
    if (amp_ != nullptr) {
      obs::AmpSnapshot cumulative = amp_->Snapshot();
      obs::AmpSnapshot window = amp_->WindowSnapshot();
      FillLiveSpaceLocked(&cumulative);
      FillLiveSpaceLocked(&window);
      lock.unlock();
      *value = "cumulative:\n" + cumulative.ToString() + "window:\n" +
               window.ToString();
    }
    return true;
  }
  if (property == "talus.model") {
    if (amp_ != nullptr) {
      lock.unlock();  // EvaluateModelDrift manages its own locking.
      *value = EvaluateModelDrift().ToString();
    }
    return true;
  }
  if (property == "talus.tune") {
    if (tuner_ == nullptr) {
      *value = "enabled=0";
      return true;
    }
    const std::string policy_name = policy_->name();
    const double size_ratio = options_.policy.size_ratio;
    lock.unlock();  // The tuner has its own lock.
    const tune::TunerStats ts = tuner_->GetStats();
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "enabled=1 policy=%s T=%.1f hysteresis=%.2f ticks=%llu "
        "retunes=%llu switches=%llu holds=%llu thin=%llu cooldown=%llu "
        "drift_events=%llu last_gain=%.3f last_cost_cur=%.4f "
        "last_cost_best=%.4f last_action=%s last_design=%s",
        policy_name.c_str(), size_ratio, tuner_->config().hysteresis,
        static_cast<unsigned long long>(ts.ticks),
        static_cast<unsigned long long>(ts.retunes),
        static_cast<unsigned long long>(ts.switches_applied),
        static_cast<unsigned long long>(ts.holds),
        static_cast<unsigned long long>(ts.thin_windows),
        static_cast<unsigned long long>(ts.cooldown_holds),
        static_cast<unsigned long long>(ts.drift_events), ts.last_gain,
        ts.last_current_cost, ts.last_best_cost,
        ts.last_action.empty() ? "none" : ts.last_action.c_str(),
        ts.last_design.empty() ? "none" : ts.last_design.c_str());
    *value = buf;
    return true;
  }
  if (property == "talus.snapshots") {
    if (snapshotter_ != nullptr) {
      lock.unlock();  // The snapshotter has its own lock.
      std::string out;
      for (const std::string& line : snapshotter_->RingContents()) {
        out += line;
        out += '\n';
      }
      *value = out;
    }
    return true;
  }
  return false;
}

Status DB::InstallManifestLocked() {
  ManifestData data;
  data.next_file_number = next_file_number_.load(std::memory_order_relaxed);
  data.next_run_id = next_run_id_;
  data.last_sequence = last_sequence_;
  data.flush_count = flush_count_;
  data.wal_number = OldestLiveWalLocked();
  data.policy_name = policy_->name();
  data.policy_state = policy_->EncodeState();
  // The live config (not the DbOptions one): under adaptive tuning the two
  // diverge, and reopen re-resolves from this field (DESIGN.md §9).
  data.policy_config = EncodeGrowthPolicyConfig(options_.policy);
  data.version = *current_;

  const uint64_t t0 = NowMicros();
  ManifestLog::CommitInfo info;
  Status s = manifest_->Commit(data, &info);
  if (!s.ok()) return s;
  if (info.retired != 0) {
    unlink_batch_.push_back(ManifestFileName(options_.path, info.retired));
  }
  ring_->Emit(obs::EventType::kManifestCommit,
              static_cast<uint16_t>(options_.shard_index), info.record_bytes,
              NowMicros() - t0);
  return Status::OK();
}

void DB::InstallVersionLocked(std::unique_ptr<Version> next) {
  next->Ref();
  Version* old = current_;
  current_ = next.release();
  if (old != nullptr && old->Unref()) delete old;
  ReportBackpressureLocked();  // L0 run count may have changed.
}

void DB::ReportBackpressureLocked() {
  if (options_.shard_backpressure == nullptr) return;
  const size_t l0_runs =
      current_->levels.empty() ? 0 : current_->levels[0].runs.size();
  options_.shard_backpressure->Report(options_.shard_index, imm_.size(),
                                      l0_runs);
}

void DB::EnsurePaddedLocked(size_t min_levels) {
  if (current_->levels.size() >= min_levels) return;
  auto padded = std::make_unique<Version>(*current_);
  padded->EnsureLevels(min_levels);
  InstallVersionLocked(std::move(padded));
}

void DB::MarkObsoleteLocked(std::vector<FileMetaPtr> files) {
  for (auto& f : files) gc_pending_.push_back(std::move(f));
  gc_pending_count_.store(gc_pending_.size(), std::memory_order_release);
}

void DB::CollectObsoleteLocked() {
  for (auto it = gc_pending_.begin(); it != gc_pending_.end();) {
    // use_count() == 1 means the queue's own reference is the last: every
    // version, view, and iterator has let go. A stale concurrent read can
    // only over-count, which defers (never corrupts) the deletion.
    if (it->use_count() > 1) {
      ++it;
      continue;
    }
    const uint64_t number = (*it)->number;
    table_cache_->Evict(number);
    unlink_batch_.push_back(SstFileName(options_.path, number));
    it = gc_pending_.erase(it);
    stats_.obsolete_files_deleted++;
  }
  gc_pending_count_.store(gc_pending_.size(), std::memory_order_release);
}

Status DB::ReapLocked(std::unique_lock<std::mutex>& lock, bool bounded) {
  CollectObsoleteLocked();
  if (unlink_batch_.empty()) return Status::OK();
  std::vector<std::string> batch;
  batch.swap(unlink_batch_);
  if (reaper_ == nullptr) {
    return UnlinkFiles(options_.env, batch, ring_,
                       static_cast<uint16_t>(options_.shard_index));
  }
  lock.unlock();
  reaper_->Add(std::move(batch), bounded);
  lock.lock();
  return Status::OK();
}

void DB::DrainReaper() {
  if (reaper_ != nullptr) reaper_->Drain();
}

std::shared_ptr<const read::ReadView> DB::AcquireReadView() {
  std::lock_guard<std::mutex> lock(mutex_);
  return AcquireReadViewLocked();
}

std::shared_ptr<const read::ReadView> DB::AcquireReadViewLocked() {
  // Under a shared sequence allocator the visibility bound is the global
  // watermark, not this shard's own last sequence: everything at or below
  // the watermark is fully applied in EVERY shard, so views pinned at it in
  // different shards compose into one consistent cross-shard snapshot.
  // (With one shard the two are always equal — claim and publish alternate
  // under queue leadership.)
  return AcquireReadViewAtLocked(options_.sequence_allocator != nullptr
                                     ? options_.sequence_allocator->visible()
                                     : last_sequence_);
}

std::shared_ptr<const read::ReadView> DB::AcquireReadViewAtLocked(
    SequenceNumber sequence) {
  auto* view = new read::ReadView;
  current_->Ref();
  view->version = current_;
  view->mem = mem_;
  view->imm.reserve(imm_.size());
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) {
    view->imm.push_back(it->mem);
  }
  view->sequence = sequence;
  return std::shared_ptr<const read::ReadView>(
      view, [this](const read::ReadView* v) { ReleaseReadView(v); });
}

void DB::ReleaseReadView(const read::ReadView* view) {
  std::unique_ptr<const read::ReadView> owned(view);
  const Version* version = view->version;
  // Fast path: no files awaiting GC and the version outlives this view (the
  // DB itself still references it) — pure refcount traffic, no mutex.
  if (gc_pending_count_.load(std::memory_order_acquire) == 0) {
    if (!version->Unref()) return;
    // Last reference to a replaced version; its files were either adopted
    // by successors or already collected (the GC queue is empty).
    delete version;
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (version->Unref()) delete version;
  // A reader dropping the last pin neither pays for the unlinks (in
  // background mode) nor waits for a job's batch. Inline, a failed unlink
  // only leaves the file behind for the next Open.
  ReapLocked(lock, /*bounded=*/false);
}

double DB::BitsPerKeyForLevelLocked(int level) const {
  auto allocator =
      NewFilterAllocator(options_.filter_layout, options_.bloom_bits_per_key);
  return allocator->BitsForLevel(policy_->FilterInfo(*current_), level);
}

Status DB::Get(const Slice& key, std::string* value) {
  return Get(key, value, nullptr);
}

Status DB::Get(const Slice& key, std::string* value,
               const Snapshot* snapshot) {
  obs::ScopedOpTimer timer(latency_.get(), obs::OpType::kGet);
  // The view pin is the only mutex acquisition on the lookup path; the
  // probe itself runs against immutable state and the lock-free memtables.
  auto view = AcquireReadView();
  options_.env->io_stats()->RecordCpu(options_.cpu_cost_per_read);
  LookupKey lkey(
      key, snapshot != nullptr ? snapshot->sequence() : view->sequence);

  ReadProbeStats probe;
  Status result = GetFromView(*view, lkey, value, &probe);

  // Read-path stats are relaxed atomics: no second mutex acquisition.
  stats_.gets += 1;
  if (result.ok()) stats_.gets_found += 1;
  stats_.runs_probed += probe.runs_probed;
  stats_.filter_negatives += probe.filter_negatives;
  stats_.data_block_reads += probe.block_reads;
  stats_.block_cache_hits += probe.cache_hits;
  if (amp_ != nullptr) amp_->RecordLookup(probe.amp);
  mix_tracker_.RecordPointLookup();
  return result;
}

Status DB::GetFromView(const read::ReadView& view, const LookupKey& lkey,
                       std::string* value, ReadProbeStats* probe) {
  Status s;
  if (view.mem->Get(lkey, value, &s)) {
    probe->amp.hit_level = obs::LookupProbe::kHitMemtable;
    return s;
  }
  // Immutable memtables, newest first.
  for (const auto& mem : view.imm) {
    if (mem->Get(lkey, value, &s)) {
      probe->amp.hit_level = obs::LookupProbe::kHitMemtable;
      return s;
    }
  }

  const Slice key = lkey.user_key();
  const auto& levels = view.version->levels;
  for (size_t level_idx = 0; level_idx < levels.size(); level_idx++) {
    const int slot = obs::AmpSlot(static_cast<int>(level_idx));
    for (const auto& run : levels[level_idx].runs) {
      // Locate the single file that may contain the key.
      const auto& files = run.files;
      size_t left = 0, right = files.size();
      while (left < right) {
        size_t mid = (left + right) / 2;
        if (files[mid]->largest.user_key().compare(key) < 0) {
          left = mid + 1;
        } else {
          right = mid;
        }
      }
      if (left == files.size()) continue;
      if (files[left]->smallest.user_key().compare(key) > 0) continue;

      probe->runs_probed++;
      std::shared_ptr<SstReader> reader =
          table_cache_->GetReader(files[left]->number);
      if (reader == nullptr) {
        return Status::IOError("cannot open sst for read");
      }
      SstReader::GetStats gs;
      bool decided = reader->Get(lkey, value, &s, &gs);
      if (gs.filter_negative) probe->filter_negatives++;
      if (gs.block_read) probe->block_reads++;
      if (gs.cache_hit) probe->cache_hits++;
      // Per-level attribution for the amp tracker. A probe whose filter
      // passed but that did not decide the key is a Bloom false positive —
      // exactly the per-lookup cost the model's R term prices.
      probe->amp.files_probed[slot]++;
      if (gs.filter_negative) probe->amp.filter_negatives[slot]++;
      if (gs.block_read) probe->amp.block_reads[slot]++;
      if (!decided && !gs.filter_negative) {
        probe->amp.bloom_false_positives[slot]++;
      }
      if (slot > probe->amp.deepest_slot) probe->amp.deepest_slot = slot;
      if (decided) {
        probe->amp.hit_level = static_cast<int>(level_idx);
        return s;
      }
    }
  }
  return Status::NotFound(Slice());
}

std::unique_ptr<Iterator> DB::NewIterator() {
  return NewPinnedIterator(AcquireReadView());
}

std::unique_ptr<Iterator> DB::NewIteratorAt(SequenceNumber sequence) {
  std::shared_ptr<const read::ReadView> view;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    view = AcquireReadViewAtLocked(sequence);
  }
  return NewPinnedIterator(std::move(view));
}

std::unique_ptr<Iterator> DB::NewPinnedIterator(
    std::shared_ptr<const read::ReadView> view) {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(view->mem->NewIterator());
  for (const auto& mem : view->imm) {
    children.push_back(mem->NewIterator());
  }
  auto open = [this](uint64_t n) { return table_cache_->GetReader(n); };
  for (const auto& level : view->version->levels) {
    for (const auto& run : level.runs) {
      children.push_back(std::make_unique<RunIterator>(run.files, open));
    }
  }
  auto merged =
      NewMergingIterator(InternalKeyComparator(), std::move(children));
  return std::make_unique<DbIterator>(std::move(view), std::move(merged),
                                      latency_.get());
}

Status DB::Scan(const Slice& start, size_t count,
                std::vector<std::pair<std::string, std::string>>* out) {
  obs::ScopedOpTimer timer(latency_.get(), obs::OpType::kScan);
  // Pin once, then iterate with no lock held: the view's sequence bound
  // makes the whole scan a consistent snapshot even while writers and
  // background maintenance proceed.
  auto iter = NewPinnedIterator(AcquireReadView());
  options_.env->io_stats()->RecordCpu(options_.cpu_cost_per_read);
  out->clear();
  iter->Seek(start);
  while (iter->Valid() && out->size() < count) {
    out->emplace_back(iter->key().ToString(), iter->value().ToString());
    iter->Next();
  }
  stats_.scans += 1;
  mix_tracker_.RecordRangeLookup();
  return iter->status();
}

metrics::GroupCommitStats DB::GetGroupCommitStats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return write_stats_.Snapshot();
}

metrics::CounterSnapshot DB::GetCounters() const {
  std::unique_lock<std::mutex> lock(mutex_);
  metrics::CounterSnapshot c;
  c.engine = stats_;
  c.group = write_stats_.Snapshot();
  c.bc_hits = block_cache_->hits();
  c.bc_misses = block_cache_->misses();
  c.bc_evictions = block_cache_->evictions();
  c.bc_usage = block_cache_->usage();
  c.bc_capacity = block_cache_->capacity();
  c.tc = table_cache_->GetStats();
  c.gc_pending = gc_pending_.size();
  c.gc_unlinking = reaper_ != nullptr ? reaper_->Outstanding() : 0;
  return c;
}

SequenceNumber DB::LastSequence() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return last_sequence_;
}

uint64_t DB::ApproximateDataBytes() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return ApproximateDataBytesLocked();
}

uint64_t DB::ApproximateDataBytesLocked() const {
  uint64_t total = mem_->payload_bytes();
  for (const auto& part : imm_) total += part.mem->payload_bytes();
  for (const auto& level : current_->levels) {
    total += level.PayloadBytes();
  }
  return total;
}

std::string DB::DebugString() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return current_->DebugString();
}

std::vector<Histogram> DB::GetLatencyHistograms() const {
  if (latency_ == nullptr) {
    return std::vector<Histogram>(obs::kNumOpTypes);  // All empty.
  }
  return latency_->SnapshotAll();
}

std::string DB::DumpPrometheus() const {
  uint64_t data_bytes = 0;
  obs::AmpSnapshot amp;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    data_bytes = ApproximateDataBytesLocked();
    if (amp_ != nullptr) {
      amp = amp_->Snapshot();
      FillLiveSpaceLocked(&amp);
    }
  }
  tune::TunerStats tune_stats;
  if (tuner_ != nullptr) tune_stats = tuner_->GetStats();
  return metrics::DumpPrometheusText(GetCounters(), ring_->TotalEmitted(),
                                     data_bytes, GetLatencyHistograms(),
                                     amp_ != nullptr ? &amp : nullptr,
                                     tuner_ != nullptr ? &tune_stats : nullptr);
}

void DB::FillLiveSpaceLocked(obs::AmpSnapshot* snap) const {
  const auto& levels = current_->levels;
  for (size_t i = 0; i < levels.size(); i++) {
    const int slot = obs::AmpSlot(static_cast<int>(i));
    for (const auto& run : levels[i].runs) {
      for (const auto& f : run.files) {
        snap->levels[slot].live_sst_bytes += f->file_size;
        snap->levels[slot].live_payload_bytes += f->payload_bytes;
        if (slot + 1 > snap->num_levels) snap->num_levels = slot + 1;
      }
    }
  }
}

obs::AmpSnapshot DB::GetAmpSnapshot() const {
  obs::AmpSnapshot snap;
  if (amp_ == nullptr) return snap;
  snap = amp_->Snapshot();
  std::unique_lock<std::mutex> lock(mutex_);
  FillLiveSpaceLocked(&snap);
  return snap;
}

GrowthPolicyConfig DB::CurrentPolicyConfig() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_.policy;
}

Status DB::ApplyPolicyConfig(const GrowthPolicyConfig& config) {
  GrowthPolicyConfig resolved = config;
  resolved.bloom_bits_per_key = options_.bloom_bits_per_key;
  PolicyContext ctx;
  ctx.buffer_bytes = options_.write_buffer_size;
  ctx.mix_tracker = &mix_tracker_;
  auto next = CreateGrowthPolicy(resolved, ctx);
  if (next == nullptr) {
    return Status::InvalidArgument("unknown growth policy");
  }

  std::unique_lock<std::mutex> lock(mutex_);
  {
    GrowthPolicyConfig current = options_.policy;
    current.bloom_bits_per_key = options_.bloom_bits_per_key;
    if (EncodeGrowthPolicyConfig(resolved) ==
        EncodeGrowthPolicyConfig(current)) {
      return Status::OK();  // Identical design; nothing to do.
    }
  }
  // The swap must not happen under an in-flight old-policy merge (its
  // install would follow shapes the new policy never planned), and the
  // catch-up below claims the single-chain guard. Chains always terminate
  // and clear the flag under this mutex, so the wait is bounded.
  bg_cv_.wait(lock, [this] { return !compaction_active_; });
  if (!bg_error_.ok()) return bg_error_;
  compaction_active_ = true;

  policy_ = std::move(next);
  options_.policy = resolved;
  if (drift_ != nullptr) {
    drift_->Reconfigure(MergeForDriftModel(resolved), resolved.size_ratio);
  }
  ring_->Emit(obs::EventType::kPolicyChange,
              static_cast<uint16_t>(options_.shard_index),
              MergeForDriftModel(resolved) ==
                      tuning::HorizontalMerge::kTiering
                  ? 1
                  : 0,
              static_cast<uint64_t>(resolved.size_ratio * 1000.0));

  // Persist the new design first: a crash after this point reopens under
  // the new policy with whatever layout the catch-up had reached.
  Status s = InstallManifestLocked();
  // Converge the layout, then let the new policy's own loop finish the
  // job. Writers keep running: in background mode both release the mutex
  // around merges exactly like policy-driven compactions.
  if (s.ok()) s = CatchUpCompactionsLocked(lock);
  if (s.ok()) s = RunCompactionLoopLocked(lock, is_background());
  compaction_active_ = false;
  if (!s.ok() && is_background()) bg_error_ = s;
  bg_cv_.notify_all();
  return s;
}

Status DB::CatchUpCompactionsLocked(std::unique_lock<std::mutex>& lock) {
  if (policy_->FlushMode(*current_) != MergeMode::kMergeIntoRun) {
    // Tiering-family target: any layout is a valid tiered layout; the
    // policy's run-count triggers take it from here.
    return Status::OK();
  }
  // A leveled target wants one run per level, but a previously tiered
  // level holds several and the leveling policy's byte triggers never
  // consolidate them. Merge each multi-run level into a single run in
  // place (the universal-compaction request shape), re-planning against
  // the fresh version after every install or conflict.
  int attempts = 0;
  const int max_attempts =
      8 + 4 * static_cast<int>(current_->levels.size());
  while (attempts < max_attempts) {
    int target = -1;
    for (size_t i = 0; i < current_->levels.size(); i++) {
      if (current_->levels[i].runs.size() > 1) {
        target = static_cast<int>(i);
        break;
      }
    }
    if (target < 0) return Status::OK();  // Converged: ≤1 run everywhere.
    CompactionRequest req;
    for (const SortedRun& run : current_->levels[target].runs) {
      CompactionRequest::Input in;
      in.level = target;
      in.run_id = run.run_id;
      req.inputs.push_back(in);
    }
    req.output_level = target;
    req.placement = CompactionRequest::Placement::kReplaceInputs;
    req.reason = "tune-catchup-L" + std::to_string(target);
    bool installed = false;
    attempts++;
    Status s =
        RunCompactionRequestLocked(req, lock, is_background(), &installed);
    if (!s.ok()) return s;
    s = ReapLocked(lock);
    if (!s.ok()) return s;
    if (is_background()) {
      // Same interleave point as the policy loop: let writers breathe.
      bg_cv_.notify_all();
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
  }
  // Conflict storm exhausted the budget; the remaining multi-run levels
  // are still a correct tree and converge under later flush traffic.
  return Status::OK();
}

tune::TuneDecision DB::RetuneNow() {
  tune::TuneDecision decision;
  if (tuner_ == nullptr) return decision;

  // Sense: consume one drift window (emits kAmpSample / kModelDrift).
  const obs::DriftSample drift = EvaluateModelDrift();
  if (drift.drifted) tuner_->NoteDrift();

  tune::TunerInputs in;
  in.mix = drift.mix;
  in.window_ops = drift.window_lookups + drift.window_updates;
  in.bloom_fpr = drift.bloom_fpr;
  in.page_entries = std::max(1.0, drift.page_entries);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    in.data_buffers = std::max<uint64_t>(
        1, ApproximateDataBytesLocked() /
               std::max<uint64_t>(1, options_.write_buffer_size));
    in.current_merge = MergeForDriftModel(options_.policy);
    in.current_size_ratio = options_.policy.size_ratio;
  }

  // Navigate: hysteresis-banded re-solve of the vertical cost model.
  decision = tuner_->Decide(in);
  if (!decision.retune()) return decision;

  // Act: install the winning design, keeping every non-design knob.
  GrowthPolicyConfig next = CurrentPolicyConfig();
  next.merge = decision.merge == tuning::HorizontalMerge::kTiering
                   ? MergePolicy::kTiering
                   : MergePolicy::kLeveling;
  next.size_ratio = decision.size_ratio;
  if (ApplyPolicyConfig(next).ok()) {
    tuner_->NoteSwitchApplied(next.Label());
  }
  return decision;
}

obs::DriftSample DB::EvaluateModelDrift() {
  obs::DriftSample sample;
  if (amp_ == nullptr || drift_ == nullptr) return sample;

  const obs::AmpSnapshot window = amp_->WindowSnapshot();
  const WorkloadMixTracker::RawCounts window_ops =
      mix_tracker_.WindowRawCounts();
  uint64_t data_bytes = 0;
  uint64_t ops = 0;
  uint64_t payload = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    data_bytes = ApproximateDataBytesLocked();
    ops = stats_.puts + stats_.deletes;
    payload = stats_.user_payload_written;
  }

  obs::ModelDriftMonitor::Measured m;
  m.mix = mix_tracker_.WindowEstimate();
  m.window_lookups = window.lookups;
  m.window_updates = window_ops.updates;
  if (window.lookups > 0) {
    m.found_fraction =
        static_cast<double>(window.lookups - window.misses) /
        static_cast<double>(window.lookups);
  }
  m.blocks_per_lookup = window.BlocksPerLookup();
  m.write_amp = window.WriteAmp();
  // P: entries per data block, from the observed mean entry size (the
  // model prices I/O in pages of P entries).
  const double avg_entry =
      ops > 0 ? static_cast<double>(payload) / static_cast<double>(ops)
              : 64.0;
  m.page_entries =
      std::max(1.0, static_cast<double>(options_.block_size) /
                        std::max(1.0, avg_entry));
  m.data_buffers = std::max<uint64_t>(
      1, data_bytes / std::max<uint64_t>(1, options_.write_buffer_size));

  sample = drift_->Evaluate(m);

  const uint16_t shard = static_cast<uint16_t>(options_.shard_index);
  ring_->Emit(obs::EventType::kAmpSample, shard,
              static_cast<uint64_t>(m.write_amp * 1000.0),
              static_cast<uint64_t>(m.blocks_per_lookup * 1000.0));
  if (sample.drifted) {
    ring_->Emit(obs::EventType::kModelDrift, shard,
                static_cast<uint64_t>(sample.drift_score * 1000.0),
                static_cast<uint64_t>(sample.mix_shift * 1000.0));
  }

  // The evaluated window is consumed; the next evaluation sees only newer
  // traffic.
  amp_->AdvanceWindow();
  mix_tracker_.AdvanceWindow();
  return sample;
}

std::string DB::BuildStatsSample() {
  const obs::AmpSnapshot amp = GetAmpSnapshot();
  const obs::DriftSample drift = EvaluateModelDrift();
  uint64_t data_bytes = ApproximateDataBytes();

  double put_p99 = 0;
  double get_p99 = 0;
  if (latency_ != nullptr) {
    put_p99 = latency_->SnapshotOp(obs::OpType::kPut).Percentile(99.0);
    get_p99 = latency_->SnapshotOp(obs::OpType::kGet).Percentile(99.0);
  }

  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"t_us\": %llu, \"shard\": %zu, \"write_amp\": %.4f, "
      "\"read_amp\": %.4f, \"space_amp\": %.4f, \"blocks_per_lookup\": %.4f, "
      "\"lookups\": %llu, \"user_payload\": %llu, \"data_bytes\": %llu, "
      "\"put_p99_us\": %.1f, \"get_p99_us\": %.1f, \"mix_w\": %.3f, "
      "\"mix_r\": %.3f, \"predicted_point\": %.4f, \"measured_point\": %.4f, "
      "\"drift_score\": %.3f, \"drifted\": %d}",
      static_cast<unsigned long long>(NowMicros()), options_.shard_index,
      amp.WriteAmp(), amp.ReadAmp(), amp.SpaceAmp(), amp.BlocksPerLookup(),
      static_cast<unsigned long long>(amp.lookups),
      static_cast<unsigned long long>(amp.user_payload_bytes),
      static_cast<unsigned long long>(data_bytes), put_p99, get_p99,
      drift.mix.updates, drift.mix.point_lookups, drift.predicted_point,
      drift.measured_point, drift.drift_score, drift.drifted ? 1 : 0);
  return buf;
}

}  // namespace talus
