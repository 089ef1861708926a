// Query-serving benchmark: how fast is the read side while the write side
// keeps ingesting? Three isolated measurements plus one combined "dashboard
// storm" (the workload behind §5.2's migration anecdote — many charts
// refreshing against live data):
//
//   1. Scuba: the block-parallel scan (resolved column indexes, one scan
//      task per block slice) against a seed-style baseline — a serial row
//      loop resolving every column by name per row, which is what the scan
//      looked like before the query-layer rework.
//   2. Puma: compiled expression closures vs the tree-walking interpreter
//      on the same parsed expression (per-event cost, §3 "optimized for
//      compiled queries").
//   3. Laser: point-read throughput through the lock-free Db::GetInto path,
//      single-threaded and with 4 reader threads.
//   4. Storm: one writer streams events into Scribe + Scuba while four
//      dashboard threads run Scuba queries, two threads hammer Laser gets,
//      and a Puma app tails the same stream. Reports query latency
//      percentiles under that load.
//
// `--smoke` shrinks everything for CI; `--out <path>` redirects the JSON
// (default BENCH_QUERY.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/workloads.h"
#include "common/fs.h"
#include "common/shard_executor.h"
#include "puma/app.h"
#include "puma/compiled_expr.h"
#include "puma/expr_parser.h"
#include "puma/parser.h"
#include "scribe/scribe.h"
#include "storage/laser/laser.h"
#include "storage/scuba/scuba.h"
#include "support/puma_interpreter.h"

namespace fbstream::bench {
namespace {

constexpr int kQueryThreads = 4;

double NowSeconds() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

scuba::Query DashboardQuery() {
  scuba::Query query;
  query.group_by = {"event_type"};
  query.time_column = "event_time";
  query.bucket_micros = 5 * kMicrosPerMinute;
  query.aggregates.push_back({scuba::AggKind::kCount, "", 0});
  query.aggregates.push_back({scuba::AggKind::kSum, "dim_id", 0});
  query.limit = 7;
  return query;
}

// The pre-rework scan, transcribed from the seed ScubaTable::Run: one
// serial pass, every column resolved by name per row, a fresh
// vector<string> group key built (and copied into the cell map) per row.
size_t SeedStyleScan(const std::vector<Row>& rows) {
  struct Cell {
    int64_t count = 0;
    double sum = 0;
  };
  std::map<std::pair<Micros, std::vector<std::string>>, Cell> cells;
  for (const Row& row : rows) {
    const Micros t = row.Get("event_time").CoerceInt64();
    const Micros bucket = t - (t % (5 * kMicrosPerMinute));
    std::vector<std::string> group;
    group.reserve(1);
    group.push_back(row.Get("event_type").ToString());
    Cell& cell = cells[{bucket, std::move(group)}];
    ++cell.count;
    cell.sum += row.Get("dim_id").CoerceDouble();
  }
  return cells.size();
}

struct ScubaNumbers {
  double seed_qps = 0;
  double serial_qps = 0;
  double parallel_qps = 0;
  double speedup = 0;  // parallel vs seed-style.
};

ScubaNumbers BenchScuba(bool smoke) {
  const size_t rows = smoke ? 40'000 : 400'000;
  const int reps = smoke ? 10 : 20;

  EventGenerator gen;
  std::vector<Row> raw;
  raw.reserve(rows);
  scuba::ScubaTable serial("events", EventsSchema());
  ShardExecutor pool(kQueryThreads);
  scuba::ScubaTable parallel("events", EventsSchema());
  parallel.set_query_pool(&pool);
  for (size_t i = 0; i < rows; ++i) {
    Row row = gen.NextRow();
    raw.push_back(row);
    serial.AddRow(row);
    parallel.AddRow(std::move(row));
  }

  const scuba::Query query = DashboardQuery();
  ScubaNumbers n;
  {
    const double t0 = NowSeconds();
    for (int i = 0; i < reps; ++i) (void)SeedStyleScan(raw);
    n.seed_qps = reps / (NowSeconds() - t0);
  }
  {
    const double t0 = NowSeconds();
    for (int i = 0; i < reps; ++i) (void)serial.Run(query);
    n.serial_qps = reps / (NowSeconds() - t0);
  }
  {
    const double t0 = NowSeconds();
    for (int i = 0; i < reps * 2; ++i) (void)parallel.Run(query);
    n.parallel_qps = reps * 2 / (NowSeconds() - t0);
  }
  n.speedup = n.parallel_qps / n.seed_qps;

  printf("--- Scuba: dashboard query over %zu rows ---\n", rows);
  printf("  seed-style serial scan:   %8.1f queries/s\n", n.seed_qps);
  printf("  block scan, serial:       %8.1f queries/s\n", n.serial_qps);
  printf("  block scan, %d threads:    %8.1f queries/s\n", kQueryThreads,
         n.parallel_qps);
  printf("%s\n\n",
         ReportLine("query throughput vs seed", ">= 4x",
                    std::to_string(n.speedup).substr(0, 4) + "x")
             .c_str());
  return n;
}

struct PumaNumbers {
  double interp_eps = 0;
  double compiled_eps = 0;
  double speedup = 0;
};

PumaNumbers BenchPuma(bool smoke) {
  // A dashboard-ish predicate: column references (name lookups in the
  // interpreter), builtin calls (per-call registry resolution + an argument
  // vector in the interpreter), arithmetic, short-circuit logic, and
  // conditionals whose branches the interpreter must evaluate eagerly.
  const std::string source =
      "IF(LENGTH(event_type) = 5, ABS(dim_id - 500), LENGTH(text)) > 100 "
      "OR IF(dim_id % 2 = 0, LENGTH(event_type), ROUND(event_time / 1000)) "
      "> 3";
  auto tokens = puma::Tokenize(source);
  puma::TokenCursor cursor(std::move(tokens).value());
  auto expr = puma::ParseExpression(&cursor);
  if (!expr.ok()) {
    fprintf(stderr, "parse: %s\n", expr.status().ToString().c_str());
    return {};
  }
  const puma::CompiledExpr compiled =
      puma::CompiledExpr::Compile(**expr, EventsSchema());

  EventGenerator gen;
  const size_t nrows = 4096;
  std::vector<Row> rows;
  rows.reserve(nrows);
  for (size_t i = 0; i < nrows; ++i) rows.push_back(gen.NextRow());

  const int reps = smoke ? 50 : 500;
  PumaNumbers n;
  uint64_t sink = 0;
  // Best-of-3 passes per side: single-pass timings on a loaded box swing
  // by tens of percent, and the ratio should reflect the code, not the
  // scheduler.
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = NowSeconds();
    for (int i = 0; i < reps; ++i) {
      for (const Row& row : rows) {
        sink += puma::EvalPredicate(**expr, row) ? 1 : 0;
      }
    }
    const double eps =
        static_cast<double>(reps) * nrows / (NowSeconds() - t0);
    n.interp_eps = std::max(n.interp_eps, eps);
  }
  for (int pass = 0; pass < 3; ++pass) {
    const double t0 = NowSeconds();
    for (int i = 0; i < reps; ++i) {
      for (const Row& row : rows) {
        sink += compiled.EvalBool(row) ? 1 : 0;
      }
    }
    const double eps =
        static_cast<double>(reps) * nrows / (NowSeconds() - t0);
    n.compiled_eps = std::max(n.compiled_eps, eps);
  }
  n.speedup = n.compiled_eps / n.interp_eps;

  printf("--- Puma: per-event expression evaluation ---\n");
  printf("  expr: %s\n", source.c_str());
  printf("  interpreter: %11.0f evals/s\n", n.interp_eps);
  printf("  compiled:    %11.0f evals/s   (checksum %llu)\n", n.compiled_eps,
         static_cast<unsigned long long>(sink));
  printf("%s\n\n",
         ReportLine("compiled vs interpreted", ">= 5x",
                    std::to_string(n.speedup).substr(0, 4) + "x")
             .c_str());
  return n;
}

struct LaserNumbers {
  double reads_1t = 0;
  double reads_4t = 0;
};

LaserNumbers BenchLaser(bool smoke) {
  const std::string dir = MakeTempDir("bench_query_laser");
  SimClock clock(1'000'000);
  laser::LaserAppConfig config;
  config.name = "dims";
  config.input_schema = EventsSchema();
  config.key_columns = {"dim_id"};
  config.value_columns = {"event_type", "text"};
  auto app_or = laser::LaserApp::Create(config, nullptr, &clock, dir);
  if (!app_or.ok()) {
    fprintf(stderr, "laser: %s\n", app_or.status().ToString().c_str());
    return {};
  }
  laser::LaserApp* app = app_or->get();

  constexpr int64_t kKeys = 1000;
  EventGenerator gen;
  std::vector<Row> rows;
  for (int64_t k = 0; k < kKeys; ++k) {
    Row row = gen.NextRow();
    row.Set("dim_id", Value(k));
    rows.push_back(std::move(row));
  }
  (void)app->LoadRows(rows);

  const uint64_t reads = smoke ? 50'000 : 500'000;
  LaserNumbers n;
  {
    Rng rng(1);
    const double t0 = NowSeconds();
    for (uint64_t i = 0; i < reads; ++i) {
      (void)app->Get(Value(static_cast<int64_t>(rng.Uniform(kKeys))));
    }
    n.reads_1t = static_cast<double>(reads) / (NowSeconds() - t0);
  }
  {
    std::vector<std::thread> threads;
    const double t0 = NowSeconds();
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(10 + t);
        for (uint64_t i = 0; i < reads; ++i) {
          (void)app->Get(Value(static_cast<int64_t>(rng.Uniform(kKeys))));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    n.reads_4t = static_cast<double>(reads) * 4 / (NowSeconds() - t0);
  }
  printf("--- Laser: point reads (%lld keys resident) ---\n",
         static_cast<long long>(kKeys));
  printf("  1 thread:  %11.0f reads/s\n", n.reads_1t);
  printf("  4 threads: %11.0f reads/s\n\n", n.reads_4t);
  app_or->reset();
  (void)RemoveAll(dir);
  return n;
}

constexpr char kDashboardApp[] = R"(
CREATE APPLICATION storm;
CREATE INPUT TABLE events (event_time BIGINT, event_type, dim_id BIGINT, text)
  FROM SCRIBE("events") TIME event_time;
CREATE TABLE by_type AS
  SELECT event_type, count(*) AS n, sum(dim_id) AS total
  FROM events [5 minutes];
)";

struct StormNumbers {
  uint64_t queries = 0;
  double qps = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  uint64_t rows_ingested = 0;
  uint64_t laser_reads = 0;
  uint64_t puma_rows = 0;
};

StormNumbers BenchStorm(bool smoke) {
  const double duration_s = smoke ? 0.4 : 2.0;

  SimClock clock(1);
  scribe::Scribe bus(&clock);
  scribe::CategoryConfig category;
  category.name = "events";
  (void)bus.CreateCategory(category);

  ShardExecutor pool(kQueryThreads);
  scuba::ScubaTable table("events", EventsSchema());
  table.set_query_pool(&pool);

  auto spec = puma::ParseApp(kDashboardApp);
  puma::PumaAppOptions options;
  auto app = puma::PumaApp::Create(std::move(spec).value(), &bus, &clock,
                                   options);
  if (!app.ok()) {
    fprintf(stderr, "puma: %s\n", app.status().ToString().c_str());
    return {};
  }

  const std::string laser_dir = MakeTempDir("bench_query_storm");
  laser::LaserAppConfig laser_config;
  laser_config.name = "dims";
  laser_config.input_schema = EventsSchema();
  laser_config.key_columns = {"dim_id"};
  laser_config.value_columns = {"event_type"};
  auto laser_app = laser::LaserApp::Create(laser_config, nullptr, &clock,
                                           laser_dir);
  {
    EventGenerator gen;
    std::vector<Row> seed_rows;
    for (int64_t k = 0; k < 1000; ++k) {
      Row row = gen.NextRow();
      row.Set("dim_id", Value(k));
      seed_rows.push_back(std::move(row));
    }
    (void)(*laser_app)->LoadRows(seed_rows);
  }

  std::atomic<bool> stop{false};
  StormNumbers n;

  // Live ingest: every event goes to the Scribe bus (feeding Puma) and
  // straight into the Scuba table.
  std::atomic<uint64_t> ingested{0};
  std::thread writer([&] {
    EventGenerator gen;
    TextRowCodec codec(EventsSchema());
    while (!stop.load(std::memory_order_relaxed)) {
      Row row = gen.NextRow();
      (void)bus.Write("events", 0, codec.Encode(row));
      table.AddRow(std::move(row));
      ingested.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::thread puma_thread([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)(*app)->PollOnce();
    }
  });
  std::atomic<uint64_t> laser_reads{0};
  std::vector<std::thread> laser_threads;
  for (int t = 0; t < 2; ++t) {
    laser_threads.emplace_back([&, t] {
      Rng rng(77 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        (void)(*laser_app)->Get(Value(static_cast<int64_t>(rng.Uniform(1000))));
        laser_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // The dashboards: four threads refreshing the same chart continuously.
  const scuba::Query query = DashboardQuery();
  std::vector<std::vector<double>> latencies(kQueryThreads);
  std::vector<std::thread> dashboards;
  for (int t = 0; t < kQueryThreads; ++t) {
    dashboards.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        const double t0 = NowSeconds();
        (void)table.Run(query);
        latencies[t].push_back((NowSeconds() - t0) * 1e6);
      }
    });
  }

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(duration_s * 1000)));
  stop.store(true);
  writer.join();
  puma_thread.join();
  for (std::thread& t : laser_threads) t.join();
  for (std::thread& t : dashboards) t.join();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  auto pct = [&](double p) {
    if (all.empty()) return 0.0;
    return all[static_cast<size_t>(p * (all.size() - 1))];
  };
  n.queries = all.size();
  n.qps = all.size() / duration_s;
  n.p50_us = pct(0.50);
  n.p95_us = pct(0.95);
  n.p99_us = pct(0.99);
  n.rows_ingested = ingested.load();
  n.laser_reads = laser_reads.load();
  n.puma_rows = (*app)->rows_processed();

  printf("--- Dashboard storm: %d query threads + ingest + Puma + Laser "
         "(%.1f s) ---\n",
         kQueryThreads, duration_s);
  printf("  scuba queries: %llu (%.0f/s)  latency p50 %.0f us  p95 %.0f us  "
         "p99 %.0f us\n",
         static_cast<unsigned long long>(n.queries), n.qps, n.p50_us,
         n.p95_us, n.p99_us);
  printf("  concurrent load: %llu rows ingested, %llu laser reads, %llu "
         "puma rows folded\n\n",
         static_cast<unsigned long long>(n.rows_ingested),
         static_cast<unsigned long long>(n.laser_reads),
         static_cast<unsigned long long>(n.puma_rows));
  laser_app->reset();
  (void)RemoveAll(laser_dir);
  return n;
}

int RunAll(bool smoke, const std::string& out_path) {
  printf("=== Query serving: parallel Scuba / compiled Puma / lock-free "
         "Laser ===\n\n");
  const ScubaNumbers s = BenchScuba(smoke);
  const PumaNumbers p = BenchPuma(smoke);
  const LaserNumbers l = BenchLaser(smoke);
  const StormNumbers storm = BenchStorm(smoke);

  char json[1536];
  snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"query_serving\",\n"
      "  \"smoke\": %s,\n"
      "  \"scuba\": {\n"
      "    \"seed_style_qps\": %.1f,\n"
      "    \"serial_qps\": %.1f,\n"
      "    \"parallel_qps\": %.1f,\n"
      "    \"query_threads\": %d,\n"
      "    \"scuba_query_speedup_x\": %.2f\n"
      "  },\n"
      "  \"puma\": {\n"
      "    \"interpreted_evals_per_sec\": %.0f,\n"
      "    \"compiled_evals_per_sec\": %.0f,\n"
      "    \"puma_eval_speedup_x\": %.2f\n"
      "  },\n"
      "  \"laser\": {\n"
      "    \"reads_per_sec_1t\": %.0f,\n"
      "    \"reads_per_sec_4t\": %.0f\n"
      "  },\n"
      "  \"storm\": {\n"
      "    \"queries\": %llu,\n"
      "    \"qps\": %.1f,\n"
      "    \"p50_us\": %.0f,\n"
      "    \"p95_us\": %.0f,\n"
      "    \"p99_us\": %.0f,\n"
      "    \"rows_ingested\": %llu,\n"
      "    \"laser_reads\": %llu,\n"
      "    \"puma_rows\": %llu\n"
      "  }\n"
      "}\n",
      smoke ? "true" : "false", s.seed_qps, s.serial_qps, s.parallel_qps,
      kQueryThreads, s.speedup, p.interp_eps, p.compiled_eps, p.speedup,
      l.reads_1t, l.reads_4t, static_cast<unsigned long long>(storm.queries),
      storm.qps, storm.p50_us, storm.p95_us, storm.p99_us,
      static_cast<unsigned long long>(storm.rows_ingested),
      static_cast<unsigned long long>(storm.laser_reads),
      static_cast<unsigned long long>(storm.puma_rows));
  const Status write = WriteFileAtomic(out_path, json);
  if (!write.ok()) {
    fprintf(stderr, "writing %s: %s\n", out_path.c_str(),
            write.ToString().c_str());
    return 1;
  }
  fprintf(stderr, "wrote %s\n", out_path.c_str());

  // The bench is its own acceptance gate on the full run; smoke runs are
  // too small/noisy to enforce ratios.
  if (!smoke && (s.speedup < 4.0 || p.speedup < 5.0)) {
    fprintf(stderr,
            "FAIL: speedups below target (scuba %.2fx < 4x or puma %.2fx "
            "< 5x)\n",
            s.speedup, p.speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fbstream::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_QUERY.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  return fbstream::bench::RunAll(smoke, out);
}
