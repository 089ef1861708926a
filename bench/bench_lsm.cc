// Microbenchmarks for the embedded LSM store (the RocksDB stand-in that
// Laser, ZippyDB, and Stylus local state build on): puts, gets, merges,
// scans, and WAL recovery.
//
// Besides the google-benchmark microbenches, `bench_lsm --mixed` runs the
// canonical multi-threaded mixed workload (94% skewed gets / 5% puts / 1%
// short scans, closed loop, plus a rate-limited ingest writer) and writes
// BENCH_LSM.json comparing the concurrent engine against the frozen
// numbers of the pre-rewrite single-mutex engine. `--smoke` shrinks the
// preload and phase durations for CI; `--out <path>` redirects the JSON.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>

#include "common/fs.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "storage/lsm/block_cache.h"
#include "storage/lsm/db.h"
#include "storage/lsm/merge_operator.h"

namespace fbstream::lsm {
namespace {

std::unique_ptr<Db> FreshDb(const std::string& dir, bool with_merge = false) {
  DbOptions options;
  if (with_merge) options.merge_operator = MakeInt64AddOperator();
  auto db = Db::Open(options, dir);
  return db.ok() ? std::move(db).value() : nullptr;
}

void BM_LsmPut(benchmark::State& state) {
  const std::string dir = MakeTempDir("lsmbench");
  auto db = FreshDb(dir + "/db");
  Rng rng(1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Put("key" + std::to_string(i++), "value-payload-64-bytes"));
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
  db.reset();
  (void)RemoveAll(dir);
}
BENCHMARK(BM_LsmPut);

void BM_LsmGetHit(benchmark::State& state) {
  const std::string dir = MakeTempDir("lsmbench");
  auto db = FreshDb(dir + "/db");
  constexpr int kKeys = 50000;
  for (int i = 0; i < kKeys; ++i) {
    (void)db->Put("key" + std::to_string(i), "value" + std::to_string(i));
  }
  (void)db->CompactAll();
  Rng rng(2);
  size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Get("key" + std::to_string(rng.Uniform(kKeys))));
    ++n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(n));
  db.reset();
  (void)RemoveAll(dir);
}
BENCHMARK(BM_LsmGetHit);

void BM_LsmGetMiss(benchmark::State& state) {
  const std::string dir = MakeTempDir("lsmbench");
  auto db = FreshDb(dir + "/db");
  for (int i = 0; i < 10000; ++i) {
    (void)db->Put("key" + std::to_string(i), "v");
  }
  (void)db->CompactAll();
  size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get("missing" + std::to_string(n++)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(n));
  db.reset();
  (void)RemoveAll(dir);
}
BENCHMARK(BM_LsmGetMiss);

void BM_LsmMergeCounter(benchmark::State& state) {
  // The append-only write path: no read before write.
  const std::string dir = MakeTempDir("lsmbench");
  auto db = FreshDb(dir + "/db", /*with_merge=*/true);
  Rng rng(3);
  size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Merge("counter" + std::to_string(rng.Uniform(256)), "1"));
    ++n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(n));
  db.reset();
  (void)RemoveAll(dir);
}
BENCHMARK(BM_LsmMergeCounter);

void BM_LsmReadModifyWriteCounter(benchmark::State& state) {
  // The pattern merge replaces: get, add, put.
  const std::string dir = MakeTempDir("lsmbench");
  auto db = FreshDb(dir + "/db");
  Rng rng(3);
  size_t n = 0;
  for (auto _ : state) {
    const std::string key = "counter" + std::to_string(rng.Uniform(256));
    auto existing = db->Get(key);
    const int64_t value =
        existing.ok() ? strtoll(existing->c_str(), nullptr, 10) : 0;
    benchmark::DoNotOptimize(db->Put(key, std::to_string(value + 1)));
    ++n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(n));
  db.reset();
  (void)RemoveAll(dir);
}
BENCHMARK(BM_LsmReadModifyWriteCounter);

void BM_LsmScan(benchmark::State& state) {
  const std::string dir = MakeTempDir("lsmbench");
  auto db = FreshDb(dir + "/db");
  for (int i = 0; i < 20000; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%08d", i);
    (void)db->Put(key, "value");
  }
  (void)db->CompactAll();
  size_t rows = 0;
  for (auto _ : state) {
    for (auto it = db->NewIterator(); it.Valid(); it.Next()) ++rows;
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  db.reset();
  (void)RemoveAll(dir);
}
BENCHMARK(BM_LsmScan);

void BM_LsmWalRecovery(benchmark::State& state) {
  // Reopen cost with an unflushed WAL of state.range(0) records.
  const std::string dir = MakeTempDir("lsmbench");
  {
    auto db = FreshDb(dir + "/db");
    for (int64_t i = 0; i < state.range(0); ++i) {
      (void)db->Put("key" + std::to_string(i), "value");
    }
  }
  for (auto _ : state) {
    auto db = Db::Open({}, dir + "/db");
    benchmark::DoNotOptimize(db);
  }
  state.counters["wal_records"] = static_cast<double>(state.range(0));
  (void)RemoveAll(dir);
}
BENCHMARK(BM_LsmWalRecovery)->Arg(1000)->Arg(10000);

// ---------------------------------------------------------------------------
// Canonical mixed workload (`--mixed`).
//
// The numbers in kBaseline below were measured by this exact harness against
// the pre-rewrite engine (one mutex across Get/Put/NewIterator, synchronous
// flush+compaction on the writer thread, whole-file SST decode) on the same
// class of machine, and are frozen here as the comparison baseline.
// ---------------------------------------------------------------------------

namespace mixed {

constexpr int kKeySpace = 200000;   // Distinct user keys.
constexpr int kHotKeys = 10000;     // 90% of point ops land here.
constexpr int kValueBytes = 128;
constexpr int kWriterOpsPerSec = 20000;  // Ingest writer rate target.
constexpr int kBurst = 64;          // Ops between stop-flag checks.
constexpr int kScanLength = 20;     // Next() calls per short scan.

std::string KeyOf(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

int SkewedKey(Rng* rng) {
  return rng->NextDouble() < 0.9 ? static_cast<int>(rng->Uniform(kHotKeys))
                                 : static_cast<int>(rng->Uniform(kKeySpace));
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Exact to the sample set; used for p50/p99 over per-op microsecond
// latencies.
uint64_t Percentile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0;
  const size_t idx =
      std::min(v->size() - 1, static_cast<size_t>(q * double(v->size())));
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(idx),
                   v->end());
  return (*v)[idx];
}

struct WorkerStats {
  uint64_t ops = 0;  // Point ops + scans.
  std::vector<uint64_t> point_latencies_us;
  std::vector<uint64_t> scan_latencies_us;
};

// Closed-loop mixed client: 94% skewed point gets, 5% uniform puts, 1%
// short scans (seek + 20 nexts through a fresh iterator).
void MixedWorker(Db* db, uint64_t seed, const std::atomic<bool>* stop,
                 WorkerStats* out) {
  Rng rng(seed);
  const std::string value(kValueBytes, 'v');
  while (!stop->load(std::memory_order_relaxed)) {
    for (int b = 0; b < kBurst; ++b) {
      const double p = rng.NextDouble();
      const uint64_t t0 = NowMicros();
      if (p < 0.94) {
        auto got = db->Get(KeyOf(SkewedKey(&rng)));
        benchmark::DoNotOptimize(got);
        out->point_latencies_us.push_back(NowMicros() - t0);
      } else if (p < 0.99) {
        (void)db->Put(KeyOf(static_cast<int>(rng.Uniform(kKeySpace))), value);
        out->point_latencies_us.push_back(NowMicros() - t0);
      } else {
        auto it = db->NewIterator();
        it.Seek(KeyOf(SkewedKey(&rng)));
        for (int k = 0; k < kScanLength && it.Valid(); ++k) it.Next();
        out->scan_latencies_us.push_back(NowMicros() - t0);
      }
      ++out->ops;
    }
  }
}

// Open-loop ingest: paces itself to kWriterOpsPerSec with 1ms sleeps, the
// shape of a Scribe tailer applying a bucket's stream.
void IngestWriter(Db* db, const std::atomic<bool>* stop, uint64_t* puts) {
  Rng rng(99);
  const std::string value(kValueBytes, 'w');
  const auto start = std::chrono::steady_clock::now();
  uint64_t n = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (double(n) < elapsed * kWriterOpsPerSec) {
      (void)db->Put(KeyOf(static_cast<int>(rng.Uniform(kKeySpace))), value);
      ++n;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  *puts = n;
}

struct PhaseResult {
  double seconds = 0;
  uint64_t ops = 0;
  double ops_per_sec = 0;
  uint64_t p50_us = 0, p99_us = 0;
  uint64_t scan_p50_us = 0, scan_p99_us = 0;
};

PhaseResult RunPhase(Db* db, int num_workers, bool with_ingest,
                     double seconds, uint64_t* ingest_puts,
                     double* ingest_puts_per_sec) {
  std::atomic<bool> stop{false};
  std::vector<WorkerStats> stats(static_cast<size_t>(num_workers));
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < num_workers; ++w) {
    threads.emplace_back(MixedWorker, db, 1000 + w, &stop, &stats[w]);
  }
  uint64_t puts = 0;
  std::thread ingest;
  if (with_ingest) ingest = std::thread(IngestWriter, db, &stop, &puts);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000)));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  if (ingest.joinable()) ingest.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  PhaseResult r;
  r.seconds = elapsed;
  std::vector<uint64_t> point, scan;
  for (auto& s : stats) {
    r.ops += s.ops;
    point.insert(point.end(), s.point_latencies_us.begin(),
                 s.point_latencies_us.end());
    scan.insert(scan.end(), s.scan_latencies_us.begin(),
                s.scan_latencies_us.end());
  }
  r.ops_per_sec = double(r.ops) / elapsed;
  r.p50_us = Percentile(&point, 0.5);
  r.p99_us = Percentile(&point, 0.99);
  r.scan_p50_us = Percentile(&scan, 0.5);
  r.scan_p99_us = Percentile(&scan, 0.99);
  if (ingest_puts != nullptr) *ingest_puts = puts;
  if (ingest_puts_per_sec != nullptr) *ingest_puts_per_sec = puts / elapsed;
  return r;
}

// Frozen measurements of the single-mutex engine under this harness.
struct Baseline {
  double serial_ops_per_sec = 10325;
  uint64_t serial_p50_us = 1, serial_p99_us = 22;
  uint64_t serial_scan_p50_us = 7090, serial_scan_p99_us = 10220;
  double readers4_ops_per_sec = 3827;  // 4 mixed workers, aggregate.
  uint64_t readers4_p50_us = 1, readers4_p99_us = 21237;
  uint64_t readers4_scan_p50_us = 20743, readers4_scan_p99_us = 42891;
  double ingest_puts_per_sec = 19753;
  double aggregate_ops_per_sec = 23580;  // Workers + ingest combined.
};
constexpr Baseline kBaseline;

void AppendPhaseJson(std::string* out, const char* name,
                     const PhaseResult& r) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "    \"%s\": {\"seconds\": %.2f, \"ops\": %llu, "
           "\"ops_per_sec\": %.0f, \"p50_us\": %llu, \"p99_us\": %llu, "
           "\"scan_p50_us\": %llu, \"scan_p99_us\": %llu}",
           name, r.seconds, static_cast<unsigned long long>(r.ops),
           r.ops_per_sec, static_cast<unsigned long long>(r.p50_us),
           static_cast<unsigned long long>(r.p99_us),
           static_cast<unsigned long long>(r.scan_p50_us),
           static_cast<unsigned long long>(r.scan_p99_us));
  *out += buf;
}

int RunMixedBench(bool smoke, const std::string& out_path) {
  const int preload = smoke ? 20000 : kKeySpace;
  const double serial_secs = smoke ? 1.0 : 5.0;
  const double concurrent_secs = smoke ? 1.0 : 8.0;

  const std::string dir = MakeTempDir("lsmmixed");
  // Cache counts are read as registry deltas over this run (the registry is
  // the one store; this Db is the only block-cache user in the process).
  MetricsRegistry* registry = MetricsRegistry::Global();
  Counter* cache_hits = registry->GetCounter("lsm.block_cache.hit");
  Counter* cache_misses = registry->GetCounter("lsm.block_cache.miss");
  Counter* cache_evictions = registry->GetCounter("lsm.block_cache.evict");
  const uint64_t hits0 = cache_hits->value();
  const uint64_t misses0 = cache_misses->value();
  const uint64_t evictions0 = cache_evictions->value();
  auto cache = std::make_shared<BlockCache>(64u << 20);
  DbOptions options;
  options.memtable_bytes = 512 << 10;
  options.block_cache = cache;
  auto db_or = Db::Open(options, dir + "/db");
  if (!db_or.ok()) {
    fprintf(stderr, "open failed: %s\n", db_or.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_or).value();

  fprintf(stderr, "preloading %d keys...\n", preload);
  {
    const std::string value(kValueBytes, 'p');
    for (int i = 0; i < preload; ++i) {
      (void)db->Put(KeyOf(i), value);
    }
    (void)db->CompactAll();
  }
  const Db::Stats stats0 = db->GetStats();

  fprintf(stderr, "serial mixed phase (%.0fs)...\n", serial_secs);
  const PhaseResult serial =
      RunPhase(db.get(), 1, /*with_ingest=*/false, serial_secs, nullptr,
               nullptr);

  fprintf(stderr, "concurrent phase: 4 mixed workers + ingest (%.0fs)...\n",
          concurrent_secs);
  uint64_t ingest_puts = 0;
  double ingest_rate = 0;
  const PhaseResult readers4 = RunPhase(db.get(), 4, /*with_ingest=*/true,
                                        concurrent_secs, &ingest_puts,
                                        &ingest_rate);
  const double aggregate_ops_per_sec =
      readers4.ops_per_sec + ingest_rate;

  const Db::Stats stats1 = db->GetStats();
  const uint64_t hits = cache_hits->value() - hits0;
  const uint64_t misses = cache_misses->value() - misses0;
  const uint64_t evictions = cache_evictions->value() - evictions0;
  const double lookups = double(hits + misses);
  const double hit_rate = lookups > 0 ? hits / lookups : 0;
  const double speedup =
      readers4.ops_per_sec / kBaseline.readers4_ops_per_sec;
  const double serial_ratio = serial.ops_per_sec / kBaseline.serial_ops_per_sec;

  const uint64_t write_stalls = stats1.write_stalls - stats0.write_stalls;
  const uint64_t write_stalls_l0 =
      stats1.write_stalls_l0 - stats0.write_stalls_l0;
  const uint64_t write_delays = stats1.write_delays - stats0.write_delays;
  // Write amplification over the measured window: physical bytes the engine
  // wrote (flushes + compaction outputs) per user payload byte accepted.
  const uint64_t user_bytes =
      stats1.user_bytes_written - stats0.user_bytes_written;
  const uint64_t engine_bytes =
      (stats1.bytes_flushed - stats0.bytes_flushed) +
      (stats1.compaction_bytes_written - stats0.compaction_bytes_written);
  const double write_amp =
      user_bytes > 0 ? double(engine_bytes) / double(user_bytes) : 0;
  // Space amplification at end of run: on-disk SST bytes per live logical
  // byte (full resolved sweep — tombstones and shadowed versions excluded).
  uint64_t live_bytes = 0;
  {
    auto it = db->NewIterator();
    for (it.SeekToFirst(); it.Valid(); it.Next()) {
      live_bytes += it.key().size() + it.value().size();
    }
  }
  const double space_amp =
      live_bytes > 0 ? double(stats1.total_sst_bytes) / double(live_bytes) : 0;

  fprintf(stderr,
          "serial: %.0f ops/s (baseline %.0f, ratio %.2f)\n"
          "readers4: %.0f ops/s aggregate (baseline %.0f, speedup %.2fx)\n"
          "ingest: %.0f puts/s (target %d)\n"
          "block cache hit rate: %.3f (%llu hits / %llu misses)\n"
          "flushes %llu, compactions %llu, write stalls %llu (l0 %llu), "
          "paced writes %llu\n"
          "write_amp %.2f, space_amp %.2f\n",
          serial.ops_per_sec, kBaseline.serial_ops_per_sec, serial_ratio,
          readers4.ops_per_sec, kBaseline.readers4_ops_per_sec, speedup,
          ingest_rate, kWriterOpsPerSec, hit_rate,
          static_cast<unsigned long long>(hits),
          static_cast<unsigned long long>(misses),
          static_cast<unsigned long long>(stats1.flushes - stats0.flushes),
          static_cast<unsigned long long>(stats1.compactions -
                                          stats0.compactions),
          static_cast<unsigned long long>(write_stalls),
          static_cast<unsigned long long>(write_stalls_l0),
          static_cast<unsigned long long>(write_delays), write_amp,
          space_amp);

  std::string json = "{\n  \"bench\": \"lsm_mixed\",\n";
  {
    char buf[1024];
    snprintf(buf, sizeof(buf),
             "  \"smoke\": %s,\n"
             "  \"config\": {\"key_space\": %d, \"hot_keys\": %d, "
             "\"value_bytes\": %d, \"writer_ops_per_sec\": %d, "
             "\"memtable_bytes\": %d, \"preload\": %d, "
             "\"serial_seconds\": %.0f, \"concurrent_seconds\": %.0f},\n",
             smoke ? "true" : "false", kKeySpace, kHotKeys, kValueBytes,
             kWriterOpsPerSec, 512 << 10, preload, serial_secs,
             concurrent_secs);
    json += buf;
    snprintf(
        buf, sizeof(buf),
        "  \"baseline_single_mutex\": {\n"
        "    \"serial_mixed\": {\"ops_per_sec\": %.0f, \"p50_us\": %llu, "
        "\"p99_us\": %llu, \"scan_p50_us\": %llu, \"scan_p99_us\": %llu},\n"
        "    \"readers4_mixed\": {\"ops_per_sec\": %.0f, \"p50_us\": %llu, "
        "\"p99_us\": %llu, \"scan_p50_us\": %llu, \"scan_p99_us\": %llu},\n"
        "    \"ingest_puts_per_sec\": %.0f,\n"
        "    \"aggregate_ops_per_sec\": %.0f\n"
        "  },\n",
        kBaseline.serial_ops_per_sec,
        static_cast<unsigned long long>(kBaseline.serial_p50_us),
        static_cast<unsigned long long>(kBaseline.serial_p99_us),
        static_cast<unsigned long long>(kBaseline.serial_scan_p50_us),
        static_cast<unsigned long long>(kBaseline.serial_scan_p99_us),
        kBaseline.readers4_ops_per_sec,
        static_cast<unsigned long long>(kBaseline.readers4_p50_us),
        static_cast<unsigned long long>(kBaseline.readers4_p99_us),
        static_cast<unsigned long long>(kBaseline.readers4_scan_p50_us),
        static_cast<unsigned long long>(kBaseline.readers4_scan_p99_us),
        kBaseline.ingest_puts_per_sec, kBaseline.aggregate_ops_per_sec);
    json += buf;
  }
  json += "  \"concurrent_lsm\": {\n";
  AppendPhaseJson(&json, "serial_mixed", serial);
  json += ",\n";
  AppendPhaseJson(&json, "readers4_mixed", readers4);
  json += ",\n";
  {
    char buf[1024];
    snprintf(
        buf, sizeof(buf),
        "    \"ingest_puts_per_sec\": %.0f,\n"
        "    \"aggregate_ops_per_sec\": %.0f,\n"
        "    \"block_cache\": {\"hits\": %llu, \"misses\": %llu, "
        "\"evictions\": %llu, \"hit_rate\": %.4f},\n"
        "    \"flushes\": %llu, \"compactions\": %llu, "
        "\"write_stalls\": %llu, \"write_stalls_l0\": %llu, "
        "\"write_delays\": %llu,\n"
        "    \"write_amp\": %.3f, \"space_amp\": %.3f\n  },\n",
        ingest_rate, aggregate_ops_per_sec,
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        static_cast<unsigned long long>(evictions), hit_rate,
        static_cast<unsigned long long>(stats1.flushes - stats0.flushes),
        static_cast<unsigned long long>(stats1.compactions -
                                        stats0.compactions),
        static_cast<unsigned long long>(write_stalls),
        static_cast<unsigned long long>(write_stalls_l0),
        static_cast<unsigned long long>(write_delays), write_amp,
        space_amp);
    json += buf;
    snprintf(buf, sizeof(buf),
             "  \"speedup_readers4_vs_baseline\": %.2f,\n"
             "  \"serial_ratio_vs_baseline\": %.2f\n}\n",
             speedup, serial_ratio);
    json += buf;
  }

  db.reset();
  (void)RemoveAll(dir);

  const Status write = WriteFileAtomic(out_path, json);
  if (!write.ok()) {
    fprintf(stderr, "writing %s: %s\n", out_path.c_str(),
            write.ToString().c_str());
    return 1;
  }
  fprintf(stderr, "wrote %s\n", out_path.c_str());

  // Non-smoke runs gate on the tentpole claim: sustained mixed ingest with
  // leveled compaction must never stall a write. (Smoke runs are too short
  // and too small for the claim to be meaningful either way.)
  if (!smoke && write_stalls != 0) {
    fprintf(stderr,
            "FAIL: %llu write stalls (l0 %llu) during mixed bench; leveled "
            "compaction promises zero\n",
            static_cast<unsigned long long>(write_stalls),
            static_cast<unsigned long long>(write_stalls_l0));
    return 1;
  }
  return 0;
}

}  // namespace mixed

}  // namespace
}  // namespace fbstream::lsm

int main(int argc, char** argv) {
  bool mixed = false;
  bool smoke = false;
  std::string out = "BENCH_LSM.json";
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--mixed") {
      mixed = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (mixed) return fbstream::lsm::mixed::RunMixedBench(smoke, out);
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
