// End-to-end benchmark of the Figure 3 trending pipeline. One binary, three
// workloads (see README.md for why each exists and what each metric moves):
//
//   pipeline_local   the DAG on the in-process Scribe bus
//   pipeline_remote  the same DAG with every bus call over RemoteScribe to a
//                    ScribeServer on loopback
//   serve_mixed      Laser point reads and Scuba dashboard queries against
//                    tables the DAG keeps ingesting into at a fixed rate
//
// Usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--corrupt none|drop|dup]
//
// Every run checks its sinks against a reference computed from the seed and
// prints, as its last stdout line, one JSON object: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.

#include <malloc.h>

#include <charconv>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <thread>

#include "common/clock.h"
#include "common/logging.h"
#include "core/node.h"
#include "core/pipeline.h"
#include "dag.h"
#include "puma/app.h"
#include "scribe/remote.h"
#include "storage/lsm/block_cache.h"
#include "trace.h"

namespace e2ebench {
namespace {

// ---------------------------------------------------------------------------
// Workloads. Rates and sizes are fixed constants: a later change is measured
// against the same offered load.

struct WorkloadSpec {
  const char* name;
  bool remote;             // Bus calls over RemoteScribe + loopback server.
  bool serve;              // Readers run beside the fixed-rate segments.
  int setups;              // setup_s is the median of this many set-ups.
  int64_t warm_events;     // Unpaced warm-up before anything is measured.
  int64_t drain_events;    // Backlog per drain round.
  double rate_eps;         // Fixed open-loop rate of the segments...
  int64_t burst_events;    // ...arriving as bursts of this many events.
  int64_t window_ms;       // e2e percentiles are taken per window.
  double rate_share;       // Share of --seconds in fixed-rate segments.
  double probe_share;      // Share of --seconds in read probes (no
                           // ingest); 0 when readers run beside ingest.
  int64_t laser_keys;      // Keys preloaded into the item_totals Laser app.
  size_t laser_cache_bytes;
  size_t laser_memtable_bytes;
  // Scuba retention, in events: at the start of each cycle the table keeps
  // the rows of the last this-many events (history rows preloaded at set-up
  // fill it from the first cycle on), so every cycle queries a table of the
  // same size.
  int64_t scuba_keep_events;
};

// Bursts arrive every 50 ms (100 ms remote), the way an upstream Scribe
// tier forwards batches. A burst keeps every shard busy while it drains,
// so the latency percentiles measure work, not idle-loop wakeups.
//
// e2e percentiles are taken per window of due times (as a dashboard plots
// them) and the median over the windows is reported. A window spans two
// bursts (five remote) and holds at least 1,000 scored rows, so its p99
// has ten rows beyond it. A stall that hits one window moves one value;
// work that every burst does (checkpoint commits, OFFSETS snapshots) moves
// the figure.
constexpr WorkloadSpec kWorkloads[] = {
    {"pipeline_local", false, false, 9, 40'000, 60'000, 40'000, 2'000, 100,
     0.5, 0.1, kItems, 8u << 20, 4u << 20, 200'000},
    {"pipeline_remote", true, false, 9, 8'000, 3'000, 2'500, 250, 500, 0.5,
     0.1, kItems, 8u << 20, 4u << 20, 200'000},
    {"serve_mixed", false, true, 7, 30'000, 50'000, 15'000, 750, 100, 0.5, 0,
     300'000, 4u << 20, 1u << 20, 250'000},
};
// Each cycle is a drain round, a fixed-rate segment and, for the pipeline
// workloads, a read probe. Figures are medians over the cycles (or over
// the windows and slices of all cycles), so the measured work is spread
// across the whole run and a few seconds of a busy host move a minority
// of the samples.
constexpr int kCycles = 10;
// Scribe retention of the DAG's categories. Trimmed only between phases,
// when every consumer has read everything, so no row is lost; it keeps the
// in-memory buckets (and the process) small however long the run.
constexpr Micros kBusRetentionMicros = 1'000'000;
constexpr int kReaderThreads = 1;  // Laser readers; plus one Scuba querier.
// Threads of each kind in the pipeline workloads' read probes, which run
// while the DAG is idle: one per core, so each probe samples every core.
constexpr int kProbeThreads = 4;
constexpr double kReadZipf = 0.99;
// serve_mixed's dashboard user pauses this long between queries, so the
// querier takes about half a core beside the reader and the ingest.
constexpr int kDashboardThinkMs = 10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;
  ScoredSink::Corrupt corrupt = ScoredSink::Corrupt::kNone;
};

// Times the Scorer's checkpoint commit through the shard's failure hook,
// which never fires: kAfterProcessing (shard thread) to kAfterCheckpoint
// (commit thread, state durable). The interval includes serializing the
// state and the hand-off to the commit pool; the serialize time is
// subtracted for the `lsm` self-time share. The commit is charged to the
// Meters active when its batch finished processing.
class CommitTimer {
 public:
  bool OnPoint(stylus::FailurePoint point) {
    std::lock_guard<std::mutex> lock(mu_);
    if (point == stylus::FailurePoint::kAfterProcessing) {
      starts_.push_back({ActiveMeters().load(), NowNs()});
    } else if (point == stylus::FailurePoint::kAfterCheckpoint &&
               !starts_.empty()) {
      const auto [meters, start] = starts_.front();
      starts_.pop_front();
      if (meters != nullptr) {
        const int64_t dur = NowNs() - start;
        meters->commit.Record(dur);
        meters->commit_ns.fetch_add(dur, std::memory_order_relaxed);
      }
    }
    return false;
  }

 private:
  std::mutex mu_;
  std::deque<std::pair<Meters*, int64_t>> starts_;
};

// ---------------------------------------------------------------------------
// One deployment of the DAG and its serving tier.

struct Env {
  std::string dir;
  std::unique_ptr<scribe::Scribe> bus;  // The broker's in-process bus.
  std::unique_ptr<scribe::ScribeServer> server;
  std::vector<std::unique_ptr<scribe::Scribe>> clients;
  std::vector<std::unique_ptr<TimedScribe>> timed;
  scribe::Scribe* gen_bus = nullptr;    // Generator's handle.
  scribe::Scribe* pipe_bus = nullptr;   // Pipeline's handle.
  scribe::Scribe* serve_bus = nullptr;  // Laser/Puma ingest handle.
  std::unique_ptr<laser::LaserApp> dims;
  std::unique_ptr<laser::LaserApp> items;
  std::unique_ptr<scuba::ScubaTable> table;
  std::unique_ptr<puma::PumaService> puma;
  std::unique_ptr<VisibilityLog> log;
  std::unique_ptr<CommitTimer> commit_timer;
  std::unique_ptr<stylus::Pipeline> pipeline;
  int64_t laser_rows_base = 0;  // item_totals rows_ingested after preload.

  ~Env() {
    if (pipeline != nullptr && pipeline->running()) (void)pipeline->Stop();
    pipeline.reset();
    puma.reset();
    items.reset();
    dims.reset();
    table.reset();
    timed.clear();
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    bus.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

StatusOr<std::unique_ptr<Env>> Setup(const WorkloadSpec& spec,
                                     const Options& opt, const Zipf& items,
                                     const std::string& dir,
                                     int64_t total_events) {
  auto env = std::make_unique<Env>();
  env->dir = dir;
  std::filesystem::create_directories(dir);
  Clock* clock = SystemClock::Get();
  env->bus = std::make_unique<scribe::Scribe>(clock);

  scribe::Scribe* gen = env->bus.get();
  scribe::Scribe* pipe = gen;
  scribe::Scribe* serve = gen;
  if (spec.remote) {
    env->server = std::make_unique<scribe::ScribeServer>(env->bus.get());
    FBSTREAM_RETURN_IF_ERROR(env->server->Start());
    const int port = env->server->port();
    for (const char* name : {"driver", "worker.pipeline", "worker.serving"}) {
      env->clients.push_back(std::make_unique<scribe::RemoteScribe>(
          clock, "127.0.0.1", port, name));
    }
    gen = env->clients[0].get();
    pipe = env->clients[1].get();
    serve = env->clients[2].get();
  }
  if (opt.trace) {
    std::map<scribe::Scribe*, scribe::Scribe*> wrapped;
    for (scribe::Scribe** handle : {&gen, &pipe, &serve}) {
      auto it = wrapped.find(*handle);
      if (it == wrapped.end()) {
        env->timed.push_back(std::make_unique<TimedScribe>(*handle));
        it = wrapped.emplace(*handle, env->timed.back().get()).first;
      }
      *handle = it->second;
    }
  }
  env->gen_bus = gen;
  env->pipe_bus = pipe;
  env->serve_bus = serve;

  for (const char* name : {"incoming", "filtered", "joined", "scored"}) {
    scribe::CategoryConfig config;
    config.name = name;
    config.num_buckets = 1;
    config.retention_micros = kBusRetentionMicros;
    FBSTREAM_RETURN_IF_ERROR(pipe->CreateCategory(config));
  }

  // Laser: the Joiner's dimension table, and item_totals over the Scorer's
  // output (preloaded so reads find every key).
  {
    laser::LaserAppConfig config;
    config.name = "dims";
    config.input_schema = DimSchema();
    config.key_columns = {"dim_id"};
    config.value_columns = {"language"};
    FBSTREAM_ASSIGN_OR_RETURN(
        env->dims, laser::LaserApp::Create(config, serve, clock,
                                           dir + "/laser/dims"));
    std::vector<Row> rows;
    for (int64_t d = 0; d < kDims; ++d) {
      rows.push_back(Row(DimSchema(), {Value(d), Value(kLanguages[d % 5])}));
    }
    FBSTREAM_RETURN_IF_ERROR(env->dims->LoadRows(rows));
  }
  {
    laser::LaserAppConfig config;
    config.name = "item_totals";
    config.scribe_category = "scored";
    config.input_schema = ScoredSchema();
    config.key_columns = {"item"};
    config.value_columns = {"total"};
    config.db_options.block_cache =
        std::make_shared<lsm::BlockCache>(spec.laser_cache_bytes);
    config.db_options.memtable_bytes = spec.laser_memtable_bytes;
    FBSTREAM_ASSIGN_OR_RETURN(
        env->items, laser::LaserApp::Create(config, serve, clock,
                                            dir + "/laser/item_totals"));
    std::vector<Row> rows;
    for (int64_t k = 0; k < spec.laser_keys; ++k) {
      Row row(ScoredSchema());
      row.Set(2, Value(k));
      row.Set(5, Value(int64_t{0}));
      rows.push_back(std::move(row));
      if (rows.size() == 8192 || k + 1 == spec.laser_keys) {
        FBSTREAM_RETURN_IF_ERROR(env->items->LoadRows(rows));
        rows.clear();
      }
    }
    env->laser_rows_base = static_cast<int64_t>(env->items->rows_ingested());
  }

  // Scuba: the per-event sink, preloaded with the rows of the events that
  // came before the run (negative seq, so the correctness query can tell
  // them apart), as many as the table's retention keeps.
  env->table = std::make_unique<scuba::ScubaTable>("trending", ScoredSchema());
  for (int64_t seq = -spec.scuba_keep_events; seq < 0; ++seq) {
    const EventSpec e = MakeEvent(opt.seed, seq, items);
    if (!e.post) continue;
    env->table->AddRow(
        Row(ScoredSchema(),
            {Value(EventTimeUs(seq)), Value(seq), Value(e.item),
             Value(TopicOfItem(e.item)), Value(kLanguages[e.dim % 5]),
             Value(static_cast<int64_t>(e.h % 97))}));
  }

  // Puma: the Ranker.
  env->puma = std::make_unique<puma::PumaService>(serve, clock,
                                                  puma::PumaAppOptions{});
  FBSTREAM_ASSIGN_OR_RETURN(int diff, env->puma->SubmitApp(kRankerApp));
  FBSTREAM_RETURN_IF_ERROR(env->puma->AcceptDiff(diff));

  // The Stylus DAG, continuous mode. One bucket per edge: three shard
  // loops plus one commit thread (see README.md "Thread budget").
  env->log = std::make_unique<VisibilityLog>(total_events);
  stylus::Pipeline::Options popt;
  popt.commit_threads = 1;
  env->pipeline = std::make_unique<stylus::Pipeline>(pipe, clock, popt);
  auto wrap = [&](std::shared_ptr<stylus::OutputSink> sink)
      -> std::shared_ptr<stylus::OutputSink> {
    if (!opt.trace) return sink;
    return std::make_shared<TimedSink>(std::move(sink));
  };
  {
    stylus::NodeConfig node;
    node.name = "filterer";
    node.input_category = "incoming";
    node.input_schema = IncomingSchema();
    node.stateless_factory = [] { return std::make_unique<Filterer>(); };
    node.backend = stylus::StateBackend::kNone;
    node.state_dir = dir + "/state";
    node.sink = wrap(std::make_shared<stylus::ScribeSink>(
        pipe, "filtered", IncomingSchema(),
        std::vector<std::string>{"dim_id"}));
    FBSTREAM_RETURN_IF_ERROR(env->pipeline->AddNode(node));
  }
  {
    stylus::NodeConfig node;
    node.name = "joiner";
    node.input_category = "filtered";
    node.input_schema = IncomingSchema();
    laser::LaserApp* dims = env->dims.get();
    node.stateless_factory = [dims] { return std::make_unique<Joiner>(dims); };
    node.backend = stylus::StateBackend::kNone;
    node.state_dir = dir + "/state";
    node.sink = wrap(std::make_shared<stylus::ScribeSink>(
        pipe, "joined", JoinedSchema(), std::vector<std::string>{"item"}));
    FBSTREAM_RETURN_IF_ERROR(env->pipeline->AddNode(node));
  }
  {
    stylus::NodeConfig node;
    node.name = "scorer";
    node.input_category = "joined";
    node.input_schema = JoinedSchema();
    node.stateful_factory = [] { return std::make_unique<Scorer>(); };
    node.state_semantics = stylus::StateSemantics::kExactlyOnce;
    node.output_semantics = stylus::OutputSemantics::kAtMostOnce;
    node.backend = stylus::StateBackend::kLocal;
    node.state_dir = dir + "/state";
    // A seq past the warm-up, so the corrupted row is one the run checks.
    const int64_t corrupt_seq = spec.warm_events + 7;
    node.sink = wrap(std::make_shared<ScoredSink>(
        env->table.get(),
        std::make_shared<stylus::ScribeSink>(pipe, "scored", ScoredSchema(),
                                             std::vector<std::string>{"item"}),
        env->log.get(), opt.corrupt, corrupt_seq));
    FBSTREAM_RETURN_IF_ERROR(env->pipeline->AddNode(node));
  }
  FBSTREAM_RETURN_IF_ERROR(env->pipeline->EnableManifest(dir + "/manifest"));
  if (opt.trace) {
    env->commit_timer = std::make_unique<CommitTimer>();
    CommitTimer* timer = env->commit_timer.get();
    for (stylus::NodeShard* shard : env->pipeline->Shards("scorer")) {
      shard->SetFailureInjector(
          [timer](stylus::FailurePoint p) { return timer->OnPoint(p); });
    }
  }
  FBSTREAM_RETURN_IF_ERROR(env->pipeline->Start());
  return env;
}

// ---------------------------------------------------------------------------
// Load generation: one thread, events appended to `incoming` either as fast
// as the bus takes them (a backlog) or on a fixed schedule (open loop).

struct GenResult {
  int64_t first_append_ns = 0;
  int64_t failed = 0;
  std::vector<int64_t> due_ns;   // Paced runs only.
  std::vector<int64_t> late_ns;  // Paced runs only.
};

// The encoded `incoming` rows of events [begin, end), made before a phase
// starts so that the generator's timed loop only appends.
std::vector<std::string> Payloads(uint64_t seed, const Zipf& items,
                                  int64_t begin, int64_t end) {
  TextRowCodec codec(IncomingSchema());
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(end - begin));
  for (int64_t seq = begin; seq < end; ++seq) {
    const EventSpec e = MakeEvent(seed, seq, items);
    out.push_back(codec.Encode(
        Row(IncomingSchema(),
            {Value(EventTimeUs(seq)), Value(seq),
             Value(e.post ? "post" : "like"), Value(e.dim), Value(e.item),
             Value(EventText(e))})));
  }
  return out;
}

void Generate(scribe::Scribe* bus, const std::vector<std::string>* payloads,
              double rate_eps, int64_t burst, int64_t t0_ns, GenResult* out) {
  const bool paced = rate_eps > 0;
  const int64_t n = static_cast<int64_t>(payloads->size());
  if (paced) {
    out->due_ns.resize(static_cast<size_t>(n));
    out->late_ns.resize(static_cast<size_t>(n));
  }
  const double period_ns = paced ? 1e9 / rate_eps : 0;
  for (int64_t i = 0; i < n; ++i) {
    if (paced) {
      const int64_t first_of_burst = i / burst * burst;
      const int64_t due =
          t0_ns + static_cast<int64_t>(static_cast<double>(first_of_burst) *
                                       period_ns);
      int64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      out->due_ns[static_cast<size_t>(i)] = due;
      out->late_ns[static_cast<size_t>(i)] = std::max<int64_t>(0, now - due);
    }
    if (i == 0) out->first_append_ns = NowNs();
    if (!bus->Write("incoming", 0, (*payloads)[static_cast<size_t>(i)]).ok()) {
      ++out->failed;
    }
  }
}

// ---------------------------------------------------------------------------
// Serving tier: the main thread drives Laser and Puma ingest.

size_t PollServing(Env& env) {
  size_t polled = 0;
  {
    Span span(Layer::kLaser);
    auto rows = env.items->PollOnce();
    if (rows.ok() && *rows > 0) {
      polled += *rows;
      if (Meters* m = span.meters(); m != nullptr) {
        m->laser_poll_ns.fetch_add(span.ElapsedNs());
        m->laser_poll_rows.fetch_add(static_cast<int64_t>(*rows));
      }
    }
  }
  {
    Span span(Layer::kPuma);
    auto rows = env.puma->PollAll();
    if (rows.ok() && *rows > 0) {
      polled += *rows;
      if (Meters* m = span.meters(); m != nullptr) {
        m->puma_poll_ns.fetch_add(span.ElapsedNs());
        m->puma_poll_rows.fetch_add(static_cast<int64_t>(*rows));
      }
    }
  }
  return polled;
}

// Polls the serving tier until `scored_rows` rows are visible in Scuba,
// Laser and Puma and `done()` holds. `tick` runs about every 5 ms. Returns
// false when no sink has gained a row for 5 s while rows are still due
// (a lost row never arrives; the run then fails).
bool ServeUntil(Env& env, int64_t scored_rows,
                const std::function<bool()>& done,
                const std::function<void()>& tick) {
  constexpr int64_t kStallNs = 5'000'000'000;
  puma::PumaApp* ranker = env.puma->GetApp("ranker");
  int64_t next_tick = NowNs();
  int64_t last_progress = -1, last_progress_ns = NowNs();
  for (;;) {
    const size_t polled = PollServing(env);
    const int64_t now = NowNs();
    if (tick && now >= next_tick) {
      tick();
      next_tick = now + 5'000'000;
    }
    const int64_t scuba = env.log->rows();
    const int64_t laser =
        static_cast<int64_t>(env.items->rows_ingested()) - env.laser_rows_base;
    const int64_t puma = static_cast<int64_t>(ranker->rows_processed());
    const bool generating = done && !done();
    if (scuba >= scored_rows && laser >= scored_rows && puma >= scored_rows &&
        !generating) {
      return true;
    }
    if (scuba + laser + puma != last_progress || generating) {
      last_progress = scuba + laser + puma;
      last_progress_ns = now;
    } else if (now - last_progress_ns > kStallNs) {
      fprintf(stderr, "stalled: want %lld rows; scuba %lld, laser %lld, "
              "puma %lld\n",
              static_cast<long long>(scored_rows),
              static_cast<long long>(scuba), static_cast<long long>(laser),
              static_cast<long long>(puma));
      return false;
    }
    if (polled == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Readers: closed-loop Laser point reads and Scuba dashboard queries.

// What the read periods measured: the read probes of the pipeline
// workloads, or serve_mixed's fixed-rate segments. Each period gives one
// value of each figure and the run reports the mean over the periods. The
// box's vCPUs switch between a fast and a slow mode every few seconds (a
// busy neighbour on the host core), so one period's figures are bimodal,
// and a median over a near-even mix of modes would jump between them from
// run to run; the mean moves with the mix.
struct ReadResult {
  std::atomic<int64_t> gets{0};
  std::atomic<int64_t> get_failed{0};
  std::vector<double> get_rate;  // Gets/s of each period, all threads.
  std::vector<double> get_p50_us, get_p99_us;
  std::vector<double> query_p50_ms;  // Median query time of each period.
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> query_failed{0};
  std::atomic<int64_t> rows_scanned{0};
};

scuba::Query DashboardQuery() {
  scuba::Query q;
  q.group_by = {"topic"};
  q.aggregates = {{scuba::AggKind::kCount, "", 0.5},
                  {scuba::AggKind::kAvg, "total", 0.5},
                  {scuba::AggKind::kMax, "total", 0.5}};
  q.limit = 7;
  return q;
}

// One read period of `seconds`: `readers` closed-loop Laser reader threads
// against `app` and `queriers` Scuba dashboard users against `table`, each
// user waiting `think_ms` after each result before asking again.
void RunReaders(laser::LaserApp* app, scuba::ScubaTable* table,
                const std::vector<std::vector<int64_t>>& keys, int readers,
                int queriers, int think_ms, double seconds, ReadResult* out) {
  LatencyHistogram get_ns;
  std::atomic<int64_t> gets{0};
  std::mutex query_mu;
  std::vector<double> query_ms;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      const std::vector<int64_t>& ks = keys[static_cast<size_t>(t)];
      const size_t mask = ks.size() - 1;
      int64_t n = 0, failed = 0;
      for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        Span span(Layer::kLaser);
        const int64_t t0 = NowNs();
        auto row = app->Get(Value(ks[i & mask]));
        get_ns.Record(NowNs() - t0);
        if (!row.ok()) ++failed;
        ++n;
      }
      gets.fetch_add(n);
      out->get_failed.fetch_add(failed);
    });
  }
  for (int t = 0; t < queriers; ++t) {
    threads.emplace_back([&] {
      const scuba::Query q = DashboardQuery();
      while (!stop.load(std::memory_order_relaxed)) {
        {
          Span span(Layer::kScuba);
          const int64_t t0 = NowNs();
          auto result = table->Run(q);
          const double ms = static_cast<double>(NowNs() - t0) / 1e6;
          {
            std::lock_guard<std::mutex> lock(query_mu);
            query_ms.push_back(ms);
          }
          out->queries.fetch_add(1);
          if (!result.ok()) {
            out->query_failed.fetch_add(1);
          } else {
            out->rows_scanned.fetch_add(
                static_cast<int64_t>(result->rows_scanned));
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(think_ms));
      }
    });
  }
  const int64_t t0 = NowNs();
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9)));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  out->gets.fetch_add(gets.load());
  if (get_ns.count() > 0) {
    out->get_rate.push_back(static_cast<double>(gets.load()) / elapsed_s);
    out->get_p50_us.push_back(get_ns.Quantile(0.5) / 1e3);
    out->get_p99_us.push_back(get_ns.Quantile(0.99) / 1e3);
  }
  if (!query_ms.empty()) out->query_p50_ms.push_back(Median(query_ms));
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  printf("%s\n", out.c_str());
  fflush(stdout);
}

// ---------------------------------------------------------------------------
// Correctness gate: the sinks against a reference built from the seed.

struct Reference {
  std::vector<int64_t> item_totals = std::vector<int64_t>(kItems, 0);
  std::map<std::string, int64_t> topic_rows;
  int64_t posts = 0;
};

// `topic_rows` counts the posts from `kept_from` on: the rows Scuba's
// retention still holds.
Reference BuildReference(uint64_t seed, const Zipf& items, int64_t events,
                         int64_t kept_from) {
  Reference ref;
  for (int64_t seq = 0; seq < events; ++seq) {
    const EventSpec e = MakeEvent(seed, seq, items);
    if (!e.post) continue;
    ++ref.posts;
    ++ref.item_totals[static_cast<size_t>(e.item)];
    if (seq >= kept_from) ++ref.topic_rows[TopicOfItem(e.item)];
  }
  return ref;
}

// posts[i] = post events among seq < i: the scored rows a phase must see.
std::vector<int64_t> PostPrefix(uint64_t seed, const Zipf& items,
                                int64_t events) {
  std::vector<int64_t> posts(static_cast<size_t>(events) + 1, 0);
  for (int64_t seq = 0; seq < events; ++seq) {
    posts[static_cast<size_t>(seq) + 1] =
        posts[static_cast<size_t>(seq)] +
        (MakeEvent(seed, seq, items).post ? 1 : 0);
  }
  return posts;
}

// Returns the list of violations (empty = correct).
std::vector<std::string> CheckSinks(Env& env, const WorkloadSpec& spec,
                                    const Options& opt, const Zipf& items,
                                    int64_t events, int64_t kept_from) {
  std::vector<std::string> errors;
  const Reference ref = BuildReference(opt.seed, items, events, kept_from);

  // Every post lands in Scuba exactly once; nothing else does.
  int64_t missing = 0, duplicated = 0, spurious = 0;
  const std::vector<uint8_t>& counts = env.log->counts();
  for (int64_t seq = 0; seq < events; ++seq) {
    const int want = MakeEvent(opt.seed, seq, items).post ? 1 : 0;
    const int got = counts[static_cast<size_t>(seq)];
    if (got < want) ++missing;
    if (want == 1 && got > 1) ++duplicated;
    if (want == 0 && got > 0) ++spurious;
  }
  if (env.log->out_of_range()) errors.push_back("sink saw an unknown seq");
  if (missing + duplicated + spurious > 0) {
    errors.push_back("scuba rows: " + std::to_string(missing) + " missing, " +
                     std::to_string(duplicated) + " duplicated, " +
                     std::to_string(spurious) + " spurious");
  }

  // Scuba per-topic row counts of the retained rows.
  scuba::Query q;
  q.filters = {{"seq", scuba::FilterOp::kGe, Value(kept_from)}};
  q.group_by = {"topic"};
  q.aggregates = {{scuba::AggKind::kCount, "", 0.5}};
  q.limit = 100;
  auto result = env.table->Run(q);
  if (!result.ok()) {
    errors.push_back("scuba query failed: " + result.status().ToString());
  } else {
    std::map<std::string, int64_t> got;
    for (const scuba::ResultRow& row : result->rows) {
      got[row.group[0].ToString()] =
          static_cast<int64_t>(row.aggregates[0]);
    }
    if (got != ref.topic_rows) {
      errors.push_back("scuba per-topic counts differ");
    }
  }

  // The Scorer's per-item totals (its checkpointed state).
  {
    std::lock_guard<std::mutex> lock(Scorer::LiveMu());
    if (Scorer::Live().size() != 1) {
      errors.push_back("expected one live scorer");
    } else if (Scorer::Live()[0]->totals() != ref.item_totals) {
      errors.push_back("scorer totals differ from the reference");
    }
  }

  // Laser values for sampled keys: the latest total, or the preloaded 0.
  Rng rng(opt.seed ^ 0x5eed);
  for (int i = 0; i < 512; ++i) {
    const int64_t key =
        i < 256 ? static_cast<int64_t>(rng.Uniform(kItems))
                : static_cast<int64_t>(rng.Uniform(
                      static_cast<uint64_t>(spec.laser_keys)));
    const int64_t want =
        key < kItems ? ref.item_totals[static_cast<size_t>(key)] : 0;
    auto row = env.items->Get(Value(key));
    if (!row.ok() || row->Get(0).CoerceInt64() != want) {
      errors.push_back("laser item_totals[" + std::to_string(key) +
                       "] != " + std::to_string(want));
      break;
    }
  }

  // Puma consumed every scored row once.
  puma::PumaApp* ranker = env.puma->GetApp("ranker");
  if (static_cast<int64_t>(ranker->rows_processed()) != ref.posts) {
    errors.push_back("puma processed " +
                     std::to_string(ranker->rows_processed()) + " rows, want " +
                     std::to_string(ref.posts));
  }
  return errors;
}

// ---------------------------------------------------------------------------

// Registry counters read as deltas over the phases of one kind.
class RegistryDeltas {
 public:
  void Begin() {
    for (const char* name : kNames) start_[name] = RegistryTotal(name);
  }
  void End() {
    for (const char* name : kNames) {
      total_[name] += RegistryTotal(name) - start_[name];
    }
  }
  double operator[](const std::string& name) const {
    auto it = total_.find(name);
    return it == total_.end() ? 0 : it->second;
  }

 private:
  static constexpr const char* kNames[] = {
      "lsm.flush.count",      "lsm.compaction.count",
      "lsm.write.stalls",     "lsm.write.delays",
      "lsm.wal.bytes",        "lsm.block_cache.hit",
      "lsm.block_cache.miss", "scribe.remote.rpcs",
      "scribe.remote.rpc_failures",
      "stylus.continuous.backpressure_stalls"};
  std::map<std::string, double> start_, total_;
};

double PerUnit(double total, double units) {
  return units > 0 ? total / units : 0;
}

// The per-layer table of a traced run (README.md lists what each metric
// should move). `drain` covers the traced drain rounds, `rate` the
// fixed-rate segments, `reads` wherever the readers ran.
std::vector<Metric> LayerMetrics(const Meters& drain, const Meters& rate,
                                 const RegistryDeltas& drain_reg,
                                 const RegistryDeltas& rate_reg,
                                 const RegistryDeltas& reads_reg,
                                 double drain_events, double drain_checkpoints,
                                 double rate_events, double overhead_pct,
                                 const ReadResult& reads, int read_threads,
                                 const ProcUsage& rate_usage, double threads,
                                 double steal, double lag_max,
                                 std::vector<double> late_ms) {
  auto us_per_event = [](const NodeTimes& t) {
    return PerUnit(static_cast<double>(t.ns.load()) / 1e3,
                   static_cast<double>(t.events.load()));
  };
  const double node_events =
      static_cast<double>(drain.filterer.events + drain.joiner.events +
                          drain.scorer.events);
  const double rate_reads = static_cast<double>(rate.reads.load());
  const double hits = reads_reg["lsm.block_cache.hit"];
  const double misses = reads_reg["lsm.block_cache.miss"];
  const double gets = static_cast<double>(reads.gets.load());
  std::vector<Metric> m = {
      {"scribe.append_calls_per_event",
       PerUnit(static_cast<double>(drain.appends.load()), drain_events),
       "count"},
      {"scribe.append_us_p50", drain.append.Quantile(0.5) / 1e3, "us"},
      {"scribe.append_us_p99", drain.append.Quantile(0.99) / 1e3, "us"},
      {"scribe.remote.rpcs_per_event",
       PerUnit(drain_reg["scribe.remote.rpcs"], drain_events), "count"},
      {"scribe.remote.rpc_failures", drain_reg["scribe.remote.rpc_failures"],
       "count"},
      {"scribe.read_empty_frac",
       PerUnit(static_cast<double>(rate.empty_reads.load()), rate_reads),
       "fraction"},
      {"scribe.read_msgs_per_call",
       PerUnit(static_cast<double>(rate.read_msgs.load()), rate_reads),
       "count"},
      {"scribe.lag_max_msgs", lag_max, "count"},
      {"core.filterer.process_us_per_event", us_per_event(drain.filterer),
       "us"},
      {"core.joiner.process_us_per_event", us_per_event(drain.joiner), "us"},
      {"core.scorer.process_us_per_event", us_per_event(drain.scorer), "us"},
      {"core.events_per_checkpoint", PerUnit(node_events, drain_checkpoints),
       "count"},
      {"core.backpressure_stalls",
       drain_reg["stylus.continuous.backpressure_stalls"], "count"},
      {"core.commit_us_p50", rate.commit.Quantile(0.5) / 1e3, "us"},
      {"core.commit_us_p99", rate.commit.Quantile(0.99) / 1e3, "us"},
      {"core.sink.emit_us_p50", drain.sink_emit.Quantile(0.5) / 1e3, "us"},
      {"lsm.flushes", rate_reg["lsm.flush.count"], "count"},
      {"lsm.compactions", rate_reg["lsm.compaction.count"], "count"},
      {"lsm.write_stalls", rate_reg["lsm.write.stalls"], "count"},
      {"lsm.write_delays", rate_reg["lsm.write.delays"], "count"},
      {"lsm.wal_bytes_per_event",
       PerUnit(rate_reg["lsm.wal.bytes"], rate_events), "bytes"},
      {"lsm.block_cache.hit_ratio", PerUnit(hits, hits + misses), "fraction"},
      {"laser.get_us_p50", Mean(reads.get_p50_us), "us"},
      {"laser.get_us_p99", Mean(reads.get_p99_us), "us"},
      {"laser.reads_per_s_per_thread", Mean(reads.get_rate) / read_threads,
       "1/s"},
      {"laser.miss_frac",
       PerUnit(static_cast<double>(reads.get_failed.load()), gets),
       "fraction"},
      {"laser.join_get_us_p50", drain.join_get.Quantile(0.5) / 1e3, "us"},
      {"laser.poll_us_per_row",
       PerUnit(static_cast<double>(rate.laser_poll_ns) / 1e3,
               static_cast<double>(rate.laser_poll_rows)),
       "us"},
      {"scuba.ingest_us_per_row",
       PerUnit(static_cast<double>(drain.scuba_ingest.sum_ns()) / 1e3,
               static_cast<double>(drain.scuba_ingest.count())),
       "us"},
      {"scuba.query_ms_p50", Mean(reads.query_p50_ms), "ms"},
      {"scuba.rows_scanned_per_query",
       PerUnit(static_cast<double>(reads.rows_scanned.load()),
               static_cast<double>(reads.queries.load())),
       "count"},
      {"puma.poll_us_per_row",
       PerUnit(static_cast<double>(drain.puma_poll_ns) / 1e3,
               static_cast<double>(drain.puma_poll_rows)),
       "us"},
      {"proc.cpu_user_s", rate_usage.user_s, "s"},
      {"proc.cpu_sys_s", rate_usage.sys_s, "s"},
      {"proc.ctx_switches_invol", rate_usage.invol_switches, "count"},
      {"proc.threads", threads, "count"},
      {"driver.late_ms_p99", Percentile(&late_ms, 0.99), "ms"},
      {"host.steal_frac", steal, "fraction"},
  };
  // Self-time share of the traced drain rounds. The lsm share is the
  // Scorer's checkpoint commit seen through the failure hook, less the
  // state serialization inside that interval (already charged to core).
  std::array<double, static_cast<int>(Layer::kCount)> self{};
  double total = 0;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    self[static_cast<size_t>(l)] =
        static_cast<double>(drain.layers.self_ns(Layer(l)));
  }
  self[static_cast<size_t>(Layer::kLsm)] += static_cast<double>(
      drain.commit_ns.load() - drain.scorer.serialize_ns.load());
  for (double v : self) total += v;
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    m.push_back({std::string("share.") + LayerName(Layer(l)),
                 PerUnit(self[static_cast<size_t>(l)], total), "fraction"});
  }
  m.push_back({"trace.overhead_pct", overhead_pct, "%"});
  return m;
}

int Run(const Options& opt) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }

  // Sequence layout: the warm-up, then per cycle one drain round followed
  // by one fixed-rate segment.
  const double segment_s = opt.seconds * spec->rate_share / kCycles;
  const double probe_s = opt.seconds * spec->probe_share / kCycles;
  const int64_t segment_events =
      static_cast<int64_t>(spec->rate_eps * segment_s) / spec->burst_events *
      spec->burst_events;
  const int64_t cycle_events = spec->drain_events + segment_events;
  const int64_t total_events = spec->warm_events + kCycles * cycle_events;
  auto drain_begin = [&](int k) {
    return spec->warm_events + k * cycle_events;
  };
  auto segment_begin = [&](int k) {
    return drain_begin(k) + spec->drain_events;
  };

  // Inputs from the seed, outside every timed section.
  const Zipf item_zipf(kItems, 1.0);
  const Zipf read_zipf(spec->serve ? spec->laser_keys : kDims, kReadZipf);
  const std::vector<int64_t> posts =
      PostPrefix(opt.seed, item_zipf, total_events);
  auto posts_before = [&](int64_t seq) {
    return posts[static_cast<size_t>(seq)];
  };
  std::vector<std::vector<int64_t>> read_keys(kProbeThreads);
  for (int t = 0; t < kProbeThreads; ++t) {
    Rng rng(opt.seed * 31 + static_cast<uint64_t>(t));
    read_keys[static_cast<size_t>(t)].resize(1 << 18);
    for (int64_t& k : read_keys[static_cast<size_t>(t)]) {
      k = read_zipf.Sample(rng.NextDouble());
    }
  }

  // Traced-run accumulators, one per phase kind. Declared before the
  // deployment so they outlive every commit that may still record into them.
  Meters drain_m, rate_m;

  // Set-up, several times; the last deployment is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < spec->setups; ++i) {
    env.reset();
    const int64_t t0 = NowNs();
    auto made = Setup(*spec, opt, item_zipf,
                      opt.work_dir + "/setup" + std::to_string(i),
                      total_events);
    if (!made.ok()) {
      fprintf(stderr, "setup failed: %s\n", made.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    env = std::move(made).value();
  }

  int64_t attempted = 0, failed = 0;
  // A phase that cannot finish fails the run with no numbers.
  auto fail = [&](const std::string& why) {
    fprintf(stderr, "INCORRECT: %s\n", why.c_str());
    PrintResult(false, attempted, failed, {});
    return 1;
  };
  auto generate = [&](const std::vector<std::string>& payloads, double rate,
                      int64_t burst, int64_t t0, GenResult* gen) {
    return std::thread(Generate, env->gen_bus, &payloads, rate, burst, t0,
                       gen);
  };
  // Retention, applied between phases while the DAG is idle: Scuba keeps
  // the rows of the last scuba_keep_events events before `next_seq`, and
  // the bus drops what every consumer has read. `kept_from` is the first
  // non-history seq whose row Scuba still holds.
  int64_t kept_from = 0;
  auto retain = [&](int64_t next_seq) {
    const int64_t cutoff = next_seq - spec->scuba_keep_events;
    env->table->ExpireBefore("ts_us", EventTimeUs(cutoff));
    kept_from = std::max<int64_t>(0, cutoff);
    env->bus->TrimExpired();
  };

  // Warm-up: let the LSM level shapes, caches and lazy set-up settle.
  {
    GenResult gen;
    const std::vector<std::string> payloads =
        Payloads(opt.seed, item_zipf, 0, spec->warm_events);
    generate(payloads, 0, 1, 0, &gen).join();
    attempted += spec->warm_events;
    failed += gen.failed;
    if (!ServeUntil(*env, posts_before(spec->warm_events), nullptr,
                    nullptr)) {
      return fail("warm-up rows never reached every sink");
    }
  }

  RegistryDeltas drain_reg, rate_reg, read_reg;
  double drain_traced_events = 0, drain_checkpoints = 0;
  std::vector<double> eps_traced, eps_untraced, lag_samples;
  auto checkpoints = [&] {
    double n = 0;
    for (const std::string& node : env->pipeline->NodeNames()) {
      for (stylus::NodeShard* s : env->pipeline->Shards(node)) {
        n += static_cast<double>(s->checkpoints_completed());
      }
    }
    return n;
  };

  // drain_eps and cpu_us_per_event are totals over the drain rounds.
  double drained_events = 0, drain_s = 0, drain_cpu_s = 0;
  std::vector<double> win_p50, win_p99, late_ms;
  const HostTicks host_start = HostTicks::Now();
  ProcUsage rate_usage;
  double threads_mid = 0;
  ReadResult reads;
  for (int k = 0; k < kCycles; ++k) {
    retain(drain_begin(k));
    // Drain round: a backlog appended unpaced, timed from its first append
    // until its last row is visible in every sink. A traced run alternates
    // untraced and traced rounds for the tracing-overhead figure.
    {
      const bool traced = opt.trace && k % 2 == 1;
      const int64_t begin = drain_begin(k);
      const int64_t end = begin + spec->drain_events;
      const std::vector<std::string> payloads =
          Payloads(opt.seed, item_zipf, begin, end);
      if (traced) drain_reg.Begin();
      const double ckpt_before = checkpoints();
      ActiveMeters().store(traced ? &drain_m : nullptr);
      const ProcUsage u0 = ProcUsage::Now();
      GenResult gen;
      std::thread g = generate(payloads, 0, 1, 0, &gen);
      const bool drained =
          ServeUntil(*env, posts_before(end), nullptr, nullptr);
      const int64_t t_end = NowNs();
      g.join();
      ActiveMeters().store(nullptr);
      const ProcUsage du = ProcUsage::Now() - u0;
      attempted += spec->drain_events;
      failed += gen.failed;
      if (!drained) {
        return fail("drain round " + std::to_string(k) +
                    ": rows never reached every sink");
      }
      const double events = static_cast<double>(spec->drain_events);
      const double eps =
          events / (static_cast<double>(t_end - gen.first_append_ns) / 1e9);
      drained_events += events;
      drain_s += events / eps;
      drain_cpu_s += du.cpu_s();
      (traced ? eps_traced : eps_untraced).push_back(eps);
      if (traced) {
        drain_reg.End();
        drain_traced_events += events;
        drain_checkpoints += checkpoints() - ckpt_before;
      }
    }

    // Fixed-rate segment: open loop, each event timed from its due time
    // until its row is visible in Scuba. serve_mixed readers run alongside.
    {
      const int64_t begin = segment_begin(k);
      const int64_t end = begin + segment_events;
      const std::vector<std::string> payloads =
          Payloads(opt.seed, item_zipf, begin, end);
      if (opt.trace) rate_reg.Begin();
      ActiveMeters().store(opt.trace ? &rate_m : nullptr);
      const ProcUsage u0 = ProcUsage::Now();
      GenResult gen;
      const int64_t t0 = NowNs() + 2'000'000;
      const int64_t mid = t0 + static_cast<int64_t>(segment_s * 0.5e9);
      std::thread g =
          generate(payloads, spec->rate_eps, spec->burst_events, t0, &gen);
      std::thread readers;
      if (spec->serve) {
        readers = std::thread(RunReaders, env->items.get(), env->table.get(),
                              std::cref(read_keys), kReaderThreads, 1,
                              kDashboardThinkMs, segment_s, &reads);
      }
      std::atomic<bool> gen_done{false};
      std::thread waiter([&] {
        g.join();
        gen_done.store(true);
      });
      const bool ok = ServeUntil(
          *env, posts_before(end), [&] { return gen_done.load(); },
          [&] {
            if (k == 0 && threads_mid == 0 && NowNs() >= mid) {
              threads_mid = ProcStatusField("Threads");
            }
            if (!opt.trace) return;
            uint64_t lag = 0;
            for (const auto& r : env->pipeline->GetProcessingLag()) {
              lag = std::max(lag, r.lag_messages);
            }
            lag_samples.push_back(static_cast<double>(lag));
          });
      waiter.join();
      if (readers.joinable()) readers.join();
      ActiveMeters().store(nullptr);
      const ProcUsage du = ProcUsage::Now() - u0;
      rate_usage = {rate_usage.user_s + du.user_s, rate_usage.sys_s + du.sys_s,
                    rate_usage.invol_switches + du.invol_switches};
      if (opt.trace) rate_reg.End();
      attempted += segment_events;
      failed += gen.failed;
      if (!ok) {
        return fail("fixed-rate segment " + std::to_string(k) +
                    ": rows never reached every sink");
      }
      // Percentiles per window of due times, as a dashboard plots them.
      std::map<int64_t, std::vector<double>> windows;
      for (int64_t seq = begin; seq < end; ++seq) {
        const int64_t visible =
            env->log->visible_ns()[static_cast<size_t>(seq)];
        if (visible == 0) continue;  // A like, or missing (the gate says).
        const int64_t due = gen.due_ns[static_cast<size_t>(seq - begin)];
        windows[(due - t0) / (spec->window_ms * 1'000'000)].push_back(
            static_cast<double>(visible - due) / 1e6);
      }
      for (auto& [w, e2e_ms] : windows) {
        win_p50.push_back(Percentile(&e2e_ms, 0.5));
        win_p99.push_back(Percentile(&e2e_ms, 0.99));
      }
      for (int64_t v : gen.late_ns) {
        late_ms.push_back(static_cast<double>(v) / 1e6);
      }
    }

    // Read probe for the pipeline workloads, so every workload reports the
    // read metrics: Laser reads of the Joiner's static dimension table,
    // then Scuba dashboard queries over the quiesced table.
    if (!spec->serve) {
      if (opt.trace) read_reg.Begin();
      RunReaders(env->dims.get(), nullptr, read_keys, kProbeThreads, 0, 0,
                 probe_s / 2, &reads);
      RunReaders(nullptr, env->table.get(), read_keys, 0, kProbeThreads, 0,
                 probe_s / 2, &reads);
      if (opt.trace) read_reg.End();
    }
  }
  attempted += reads.gets.load() + reads.queries.load();
  failed += reads.get_failed.load() + reads.query_failed.load();

  // Correctness gate.
  if (Status st = env->pipeline->Stop(); !st.ok()) {
    fprintf(stderr, "pipeline stop failed: %s\n", st.ToString().c_str());
    return 1;
  }
  (void)PollServing(*env);
  const std::vector<std::string> errors =
      CheckSinks(*env, *spec, opt, item_zipf, total_events, kept_from);
  for (const std::string& e : errors) {
    fprintf(stderr, "INCORRECT: %s\n", e.c_str());
  }
  const bool correct = errors.empty() && failed == 0;
  if (!correct) {
    PrintResult(false, attempted, failed, {});
    return 1;
  }
  const double peak_rss_mb = ProcStatusField("VmHWM") / 1024.0;
  const double steal = HostTicks::Now().StealSince(host_start);
  env.reset();
  // Not a metric of the system under test: a note on how much the box
  // itself got in the way.
  fprintf(stderr, "host cpu steal during the measured cycles: %.1f%%\n",
          100.0 * steal);

  if (opt.trace) {
    const std::vector<Metric> metrics = LayerMetrics(
        drain_m, rate_m, drain_reg, rate_reg, spec->serve ? rate_reg : read_reg,
        drain_traced_events, drain_checkpoints,
        static_cast<double>(kCycles * segment_events),
        100.0 * (Median(eps_untraced) / Median(eps_traced) - 1.0), reads,
        spec->serve ? kReaderThreads : kProbeThreads, rate_usage,
        threads_mid, steal,
        lag_samples.empty()
            ? 0
            : *std::max_element(lag_samples.begin(), lag_samples.end()),
        late_ms);
    printf("per-layer report, workload %s:\n", spec->name);
    for (const Metric& m : metrics) {
      printf("  %-38s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    PrintResult(true, attempted, failed, metrics);
    return 0;
  }
  PrintResult(true, attempted, failed,
              {
                  {"drain_eps", drained_events / drain_s, "events/s"},
                  {"e2e_p50_ms", Median(win_p50), "ms"},
                  {"e2e_p99_ms", Median(win_p99), "ms"},
                  {"reads_per_s", Mean(reads.get_rate), "1/s"},
                  {"read_p50_us", Mean(reads.get_p50_us), "us"},
                  {"read_p99_us", Mean(reads.get_p99_us), "us"},
                  {"query_p50_ms", Mean(reads.query_p50_ms), "ms"},
                  {"cpu_us_per_event", drain_cpu_s * 1e6 / drained_events,
                   "us"},
                  {"setup_s", Median(setup_s), "s"},
                  {"peak_rss_mb", peak_rss_mb, "MB"},
              });
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stoi(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--corrupt") {
      opt.corrupt = value == "drop"  ? e2ebench::ScoredSink::Corrupt::kDrop
                    : value == "dup" ? e2ebench::ScoredSink::Corrupt::kDup
                                     : e2ebench::ScoredSink::Corrupt::kNone;
    } else {
      fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty() || opt.seconds < 1) {
    fprintf(stderr,
            "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> --work-dir <dir> [--corrupt none|drop|dup]\n");
    return 2;
  }
  fbstream::SetMinLogLevel(fbstream::LogLevel::kError);
  // A fixed mmap threshold: blocks of 128 KiB and more (Scuba's column
  // arrays, bucket vectors) go back to the system when freed, instead of
  // glibc raising the threshold and growing the heap run by run.
  // peak_rss_mb then tracks what the process holds, not fragmentation.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  return e2ebench::Run(opt);
}
