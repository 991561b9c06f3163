#include "shard/sharded_db.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "metrics/shard_stats.h"
#include "shard/shard_iterator.h"
#include "shard/shard_manifest.h"
#include "util/wall_clock.h"

namespace talus {
namespace shard {

namespace {

// Routes a batch's operations into per-shard sub-batches, preserving each
// shard's op order (same-key ops always land in the same shard, so
// overwrite semantics survive the split).
class BatchSplitter : public WriteBatch::Handler {
 public:
  BatchSplitter(const ShardRouter* router, size_t shard_count)
      : router_(router), batches(shard_count) {}
  void Put(const Slice& key, const Slice& value) override {
    batches[router_->ShardFor(key)].Put(key, value);
  }
  void Delete(const Slice& key) override {
    batches[router_->ShardFor(key)].Delete(key);
  }

  size_t UsedShards() const {
    size_t used = 0;
    for (const auto& b : batches) used += b.empty() ? 0 : 1;
    return used;
  }

  const ShardRouter* router_;
  std::vector<WriteBatch> batches;
};

}  // namespace

Status ShardedDB::Open(const DbOptions& options,
                       std::unique_ptr<ShardedDB>* dbptr) {
  if (options.env == nullptr || options.path.empty()) {
    return Status::InvalidArgument("env and path are required");
  }
  if (options.shard_count < 1 || options.shard_count > 1024) {
    return Status::InvalidArgument("shard_count must be in [1, 1024]");
  }
  auto db = std::unique_ptr<ShardedDB>(new ShardedDB());
  db->options_ = options;
  Env* env = options.env;
  Status s = env->CreateDirIfMissing(options.path);
  if (!s.ok()) return s;

  // Fix the split points: the requested ones for a fresh store, the SHARD
  // manifest's for an existing one — and the two must agree, because the
  // shard directories are physical key ranges.
  std::vector<std::string> requested =
      options.shard_split_points.empty()
          ? ShardRouter::DefaultBoundaries(options.shard_count)
          : options.shard_split_points;
  if (requested.size() != static_cast<size_t>(options.shard_count) - 1) {
    return Status::InvalidArgument(
        "shard_split_points must name shard_count - 1 split keys");
  }
  ShardManifest manifest;
  s = ReadShardManifest(env, options.path, &manifest);
  if (s.ok()) {
    if (manifest.boundaries != requested) {
      return Status::InvalidArgument(
          "store was created with different shard split points", options.path);
    }
  } else if (s.IsNotFound()) {
    manifest.boundaries = std::move(requested);
    s = WriteShardManifest(env, options.path, manifest);
    if (!s.ok()) return s;
  } else {
    return s;
  }
  s = ShardRouter::Create(manifest.boundaries, &db->router_);
  if (!s.ok()) return s;

  const size_t n = db->router_.shard_count();
  // One shared event ring for the whole store: every shard emits into it,
  // so cross-shard causality (a hot shard's stall vs. another's flush)
  // lands in one ordered stream — and one JSONL trace file.
  if (options.event_ring != nullptr) {
    db->ring_ = options.event_ring;
  } else {
    db->owned_ring_ =
        std::make_unique<obs::EventRing>(options.event_ring_size);
    db->ring_ = db->owned_ring_.get();
    if (!options.trace_file_path.empty()) {
      db->ring_->OpenTraceFile(options.trace_file_path);
    }
  }
  db->pool_ =
      std::make_unique<exec::ThreadPool>(options.num_background_threads);
  if (options.execution_mode == ExecutionMode::kBackground) {
    exec::StallConfig stall_config;
    stall_config.max_immutable_memtables = options.max_immutable_memtables;
    stall_config.l0_slowdown_runs = options.l0_slowdown_runs;
    stall_config.l0_stop_runs = options.l0_stop_runs;
    stall_config.slowdown_delay_micros = options.slowdown_delay_micros;
    db->backpressure_ = std::make_unique<ShardBackpressure>(stall_config, n);
  }

  // Open the shards in parallel on the shared pool: recovery (WAL replay +
  // the recovered-memtable flush) dominates reopen time and the shards are
  // fully independent until the allocator is seeded below.
  db->shards_.resize(n);
  std::vector<Status> results(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = n;
  for (size_t i = 0; i < n; i++) {
    DbOptions shard_opts = options;
    shard_opts.path = ShardDirName(options.path, i);
    shard_opts.shard_count = 1;
    shard_opts.shard_split_points.clear();
    shard_opts.shard_index = i;
    shard_opts.sequence_allocator = &db->alloc_;
    shard_opts.shard_backpressure = db->backpressure_.get();
    shard_opts.shared_pool = db->pool_.get();
    shard_opts.event_ring = db->ring_;
    // One fleet-level snapshotter (created below) samples the whole store;
    // per-shard snapshotters would multiply timer threads and JSONL files.
    shard_opts.stats_snapshot_interval_ms = 0;
    shard_opts.stats_snapshot_path.clear();
    // Same single-timer rule for adaptive tuning: each shard keeps its own
    // tuner (decision state, counters), but interval 0 means no per-shard
    // timer thread — the fleet tuner below paces every shard's RetuneNow.
    shard_opts.tune_interval_ms = 0;
    auto open_one = [&db, &results, &mu, &cv, &remaining, i, shard_opts] {
      Status os = DB::Open(shard_opts, &db->shards_[i]);
      std::lock_guard<std::mutex> lock(mu);
      results[i] = std::move(os);
      if (--remaining == 0) cv.notify_all();
    };
    if (!db->pool_->Submit(open_one)) open_one();
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&remaining] { return remaining == 0; });
  }
  for (const Status& rs : results) {
    if (!rs.ok()) return rs;
  }

  // Seed the global sequence authority past everything any shard recovered.
  SequenceNumber last = 0;
  for (const auto& sh : db->shards_) {
    last = std::max(last, sh->LastSequence());
  }
  db->alloc_.Reset(last);

  if (options.stats_snapshot_interval_ms > 0) {
    obs::StatsSnapshotter::Options snap_opts;
    snap_opts.interval_ms = options.stats_snapshot_interval_ms;
    snap_opts.ring_capacity = options.stats_snapshot_ring;
    snap_opts.jsonl_path = options.stats_snapshot_path;
    ShardedDB* raw = db.get();
    db->snapshotter_ = std::make_unique<obs::StatsSnapshotter>(
        db->pool_.get(), snap_opts,
        [raw] { return raw->BuildStatsSample(); });
    db->snapshotter_->Start();
  }

  if (options.adaptive_tuning && options.tune_interval_ms > 0) {
    tune::TunerConfig tcfg;
    tcfg.interval_ms = options.tune_interval_ms;
    ShardedDB* raw = db.get();
    db->fleet_tuner_ = std::make_unique<tune::AdaptiveTuner>(
        tcfg, [raw] { raw->TuneNow(); });
    db->fleet_tuner_->Start();
  }

  *dbptr = std::move(db);
  return Status::OK();
}

void ShardedDB::TuneNow() {
  for (auto& sh : shards_) sh->RetuneNow();
}

ShardedDB::~ShardedDB() {
  // The fleet tuner's tick and the snapshotter's SampleFn walk every
  // shard; stop both before any shard (or the pool) goes away.
  if (fleet_tuner_ != nullptr) fleet_tuner_->Stop();
  if (snapshotter_ != nullptr) snapshotter_->Stop();
  // Stray snapshots (the caller should have released them) must drop their
  // per-shard registrations before the shards go away.
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    for (auto& entry : snapshot_children_) {
      for (size_t i = 0; i < entry.second.size(); i++) {
        shards_[i]->ReleaseSnapshot(entry.second[i]);
      }
      delete entry.first;
    }
    snapshot_children_.clear();
  }
  shards_.clear();  // Each shard drains its scheduler onto the pool.
  if (pool_ != nullptr) pool_->Shutdown();
}

Status ShardedDB::Put(const Slice& key, const Slice& value) {
  return Route(key)->Put(key, value);
}

Status ShardedDB::Delete(const Slice& key) { return Route(key)->Delete(key); }

Status ShardedDB::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  if (batch.HasEmptyKey()) {
    return Status::InvalidArgument("empty keys are not supported");
  }
  if (shards_.size() == 1) return shards_[0]->Write(batch);

  BatchSplitter splitter(&router_, shards_.size());
  Status s = batch.Iterate(&splitter);
  if (!s.ok()) return s;
  if (splitter.UsedShards() == 1) {
    // Single-shard batch: the shard's own group commit claims and
    // publishes normally.
    for (size_t i = 0; i < shards_.size(); i++) {
      if (!splitter.batches[i].empty()) return shards_[i]->Write(batch);
    }
  }

  // Multi-shard batch: claim ONE contiguous range for every sub-batch and
  // publish it once after all shards applied. The watermark cannot enter
  // the range until the publish, so a cross-shard snapshot sees the whole
  // batch or none of it. The sub-commits are independent until that
  // publish, so they are dispatched concurrently (dedicated threads, not
  // the shared pool — a commit can stall waiting for flushes that need
  // pool threads) and the batch pays the slowest shard's commit latency,
  // not the sum. On error the range is still published (burned): the
  // failing shard latched its error and an unpublished hole would wedge
  // the watermark — but the other shards' sub-batches ARE committed, so a
  // failed multi-shard Write can leave the batch partially applied (see
  // the header contract).
  const uint64_t total = batch.Count();
  const SequenceNumber base = alloc_.Claim(total);
  SequenceNumber next = base;
  std::vector<Status> results(shards_.size());
  std::vector<std::thread> commits;
  for (size_t i = 0; i < shards_.size(); i++) {
    const WriteBatch& sub = splitter.batches[i];
    if (sub.empty()) continue;
    const SequenceNumber sub_base = next;
    next += sub.Count();
    commits.emplace_back([this, i, &sub, sub_base, &results] {
      results[i] = shards_[i]->WriteAt(sub, sub_base);
    });
  }
  for (auto& t : commits) t.join();
  alloc_.Publish(base, total);
  for (const Status& ws : results) {
    if (!ws.ok()) return ws;
  }
  // Ranges claimed before `base` may still be committing in other shards.
  alloc_.WaitVisible(base + total - 1);
  return Status::OK();
}

Status ShardedDB::Get(const Slice& key, std::string* value) {
  return Route(key)->Get(key, value);
}

Status ShardedDB::Get(const Slice& key, std::string* value,
                      const Snapshot* snapshot) {
  return Route(key)->Get(key, value, snapshot);
}

void ShardedDB::PinAllShards(SequenceNumber sequence,
                             std::vector<const Snapshot*>* children) {
  children->reserve(shards_.size());
  for (auto& sh : shards_) {
    children->push_back(sh->GetSnapshotAt(sequence));
  }
}

void ShardedDB::ReleaseChildren(
    const std::vector<const Snapshot*>& children) {
  for (size_t i = 0; i < children.size(); i++) {
    shards_[i]->ReleaseSnapshot(children[i]);
  }
}

const Snapshot* ShardedDB::GetSnapshot() {
  // Two-phase pin (see NewIteratorAt for why the placeholder is needed).
  std::vector<const Snapshot*> placeholder;
  PinAllShards(0, &placeholder);
  const SequenceNumber seq = alloc_.visible();
  std::vector<const Snapshot*> children;
  PinAllShards(seq, &children);
  ReleaseChildren(placeholder);
  auto* snap = new Snapshot(seq);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_children_[snap] = std::move(children);
  return snap;
}

void ShardedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  std::vector<const Snapshot*> children;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    auto it = snapshot_children_.find(snapshot);
    if (it == snapshot_children_.end()) return;
    children = std::move(it->second);
    snapshot_children_.erase(it);
  }
  ReleaseChildren(children);
  delete snapshot;
}

std::unique_ptr<Iterator> ShardedDB::NewIteratorAt(SequenceNumber sequence) {
  // Guard the pin window: between choosing `sequence` and pinning a
  // shard's ReadView, a concurrent compaction in that shard could plan
  // with a GC horizon above `sequence` and drop shadowed versions the
  // chain is entitled to see. A placeholder snapshot at sequence 0 —
  // registered in every shard BEFORE `sequence` was chosen by the caller
  // (GetSnapshot) or here — forces every plan in the window to keep
  // everything; plans from before the placeholder use a horizon no larger
  // than the watermark at that earlier time, which monotonicity keeps at
  // or below `sequence`. Once every view is pinned the placeholder is
  // dropped: pinned views read immutable state.
  std::vector<const Snapshot*> pins;
  PinAllShards(sequence, &pins);
  std::vector<std::unique_ptr<Iterator>> children;
  children.reserve(shards_.size());
  for (auto& sh : shards_) {
    children.push_back(sh->NewIteratorAt(sequence));
  }
  ReleaseChildren(pins);
  return std::make_unique<ShardChainIterator>(&router_, std::move(children));
}

std::unique_ptr<Iterator> ShardedDB::NewIterator() {
  if (shards_.size() == 1) return shards_[0]->NewIterator();
  std::vector<const Snapshot*> placeholder;
  PinAllShards(0, &placeholder);
  const SequenceNumber seq = alloc_.visible();
  auto iter = NewIteratorAt(seq);
  ReleaseChildren(placeholder);
  return iter;
}

Status ShardedDB::Scan(const Slice& start, size_t count,
                       std::vector<std::pair<std::string, std::string>>* out) {
  if (shards_.size() == 1) return shards_[0]->Scan(start, count, out);
  auto iter = NewIterator();
  out->clear();
  iter->Seek(start);
  while (iter->Valid() && out->size() < count) {
    out->emplace_back(iter->key().ToString(), iter->value().ToString());
    iter->Next();
  }
  return iter->status();
}

Status ShardedDB::FlushMemTable() {
  // Sequential on the caller's thread: a shard's FlushMemTable blocks on
  // background jobs that need pool threads, so fanning the waits out over
  // the same pool could deadlock.
  Status result;
  for (auto& sh : shards_) {
    Status s = sh->FlushMemTable();
    if (!s.ok() && result.ok()) result = s;
  }
  return result;
}

Status ShardedDB::CompactAll() {
  Status result;
  for (auto& sh : shards_) {
    Status s = sh->CompactAll();
    if (!s.ok() && result.ok()) result = s;
  }
  return result;
}

metrics::CounterSnapshot ShardedDB::AggregatedCounters() const {
  std::vector<metrics::CounterSnapshot> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& sh : shards_) per_shard.push_back(sh->GetCounters());
  return metrics::AggregateCounters(per_shard);
}

bool ShardedDB::GetProperty(const std::string& property, std::string* value) {
  value->clear();
  if (property == "talus.shards") {
    for (size_t i = 0; i < shards_.size(); i++) {
      std::string runs;
      shards_[i]->GetProperty("talus.num-runs", &runs);
      *value += "shard=" + std::to_string(i) +
                " range=" + router_.RangeLabel(i) + " data_bytes=" +
                std::to_string(shards_[i]->ApproximateDataBytes()) +
                " runs=" + runs + " " +
                metrics::FormatCounters(shards_[i]->GetCounters()) + "\n";
    }
    return true;
  }
  if (property == "talus.snapshots") {
    // The fleet snapshotter's ring, not a shard's: per-shard snapshotters
    // are disabled at Open, so even with one shard this is the only ring
    // with samples in it.
    if (snapshotter_ != nullptr) {
      for (const std::string& line : snapshotter_->RingContents()) {
        *value += line;
        *value += '\n';
      }
    }
    return true;
  }
  // One shard: the engine's own output, bit-identical to a standalone DB.
  // (talus.latency and talus.events included: the shard's ring IS the
  // shared ring, and its recorder holds every observation.)
  if (shards_.size() == 1) return shards_[0]->GetProperty(property, value);

  if (property == "talus.latency") {
    // Exact fleet-wide percentiles: the shards share one bucket layout, so
    // merging their histograms is a sum of bucket counts (DESIGN.md §6.3).
    *value = obs::LatencyRecorder::Format(GetLatencyHistograms());
    return true;
  }
  if (property == "talus.events") {
    *value = ring_->ToString();
    return true;
  }

  if (property == "talus.num-runs" || property == "talus.data-bytes") {
    uint64_t total = 0;
    for (auto& sh : shards_) {
      std::string one;
      if (!sh->GetProperty(property, &one)) return false;
      total += std::strtoull(one.c_str(), nullptr, 10);
    }
    *value = std::to_string(total);
    return true;
  }
  if (property == "talus.amp" || property == "talus.levels" ||
      property == "talus.cstats" || property == "talus.exec" ||
      property == "talus.model" || property == "talus.tune") {
    // talus.amp leads with the fleet-wide merge (what a dashboard scrapes);
    // then every property lists each shard's own output.
    if (property == "talus.amp") {
      *value = "-- fleet cumulative --\n" + AggregatedAmpSnapshot().ToString();
    }
    for (size_t i = 0; i < shards_.size(); i++) {
      std::string one;
      if (!shards_[i]->GetProperty(property, &one)) return false;
      *value += "-- shard " + std::to_string(i) + " --\n" + one;
      if (!one.empty() && one.back() != '\n') *value += '\n';
    }
    return true;
  }
  if (property == "talus.stats") {
    *value = "shards=" + std::to_string(shards_.size()) + " " +
             metrics::FormatCounters(AggregatedCounters());
    return true;
  }
  return false;
}

uint64_t ShardedDB::ApproximateDataBytes() const {
  uint64_t total = 0;
  for (const auto& sh : shards_) total += sh->ApproximateDataBytes();
  return total;
}

std::vector<Histogram> ShardedDB::GetLatencyHistograms() const {
  std::vector<std::vector<Histogram>> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& sh : shards_) {
    per_shard.push_back(sh->GetLatencyHistograms());
  }
  return metrics::MergeLatencyHistograms(per_shard);
}

std::string ShardedDB::DumpPrometheus() const {
  const obs::AmpSnapshot amp = AggregatedAmpSnapshot();
  std::vector<tune::TunerStats> per_shard_tune;
  for (const auto& sh : shards_) {
    if (sh->adaptive_tuner() != nullptr) {
      per_shard_tune.push_back(sh->adaptive_tuner()->GetStats());
    }
  }
  const tune::TunerStats tune_agg =
      metrics::AggregateTunerStats(per_shard_tune);
  return metrics::DumpPrometheusText(
      AggregatedCounters(), ring_->TotalEmitted(), ApproximateDataBytes(),
      GetLatencyHistograms(), options_.enable_amp_stats ? &amp : nullptr,
      per_shard_tune.empty() ? nullptr : &tune_agg);
}

obs::AmpSnapshot ShardedDB::AggregatedAmpSnapshot() const {
  obs::AmpSnapshot out;
  for (const auto& sh : shards_) out.Add(sh->GetAmpSnapshot());
  return out;
}

std::string ShardedDB::BuildStatsSample() {
  const obs::AmpSnapshot amp = AggregatedAmpSnapshot();
  // Each shard's drift evaluation consumes its window and emits its own
  // kAmpSample/kModelDrift into the shared ring; the fleet sample keeps
  // the worst score.
  double max_drift = 0;
  int drifted = 0;
  for (auto& sh : shards_) {
    const obs::DriftSample d = sh->EvaluateModelDrift();
    max_drift = std::max(max_drift, d.drift_score);
    if (d.drifted) drifted = 1;
  }

  const std::vector<Histogram> lat = GetLatencyHistograms();
  double put_p99 = 0;
  double get_p99 = 0;
  const size_t put_op = static_cast<size_t>(obs::OpType::kPut);
  const size_t get_op = static_cast<size_t>(obs::OpType::kGet);
  if (put_op < lat.size()) put_p99 = lat[put_op].Percentile(99.0);
  if (get_op < lat.size()) get_p99 = lat[get_op].Percentile(99.0);

  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"t_us\": %llu, \"shards\": %zu, \"write_amp\": %.4f, "
      "\"read_amp\": %.4f, \"space_amp\": %.4f, \"blocks_per_lookup\": %.4f, "
      "\"lookups\": %llu, \"user_payload\": %llu, \"data_bytes\": %llu, "
      "\"put_p99_us\": %.1f, \"get_p99_us\": %.1f, "
      "\"drift_score\": %.3f, \"drifted\": %d}",
      static_cast<unsigned long long>(NowMicros()),
      shards_.size(), amp.WriteAmp(), amp.ReadAmp(), amp.SpaceAmp(),
      amp.BlocksPerLookup(), static_cast<unsigned long long>(amp.lookups),
      static_cast<unsigned long long>(amp.user_payload_bytes),
      static_cast<unsigned long long>(ApproximateDataBytes()), put_p99,
      get_p99, max_drift, drifted);
  return buf;
}

std::string ShardedDB::DebugString() const {
  std::string out;
  for (size_t i = 0; i < shards_.size(); i++) {
    out += "-- shard " + std::to_string(i) + " --\n" +
           shards_[i]->DebugString();
  }
  return out;
}

}  // namespace shard
}  // namespace talus
