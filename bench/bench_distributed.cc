// Distributed-mode costs, measured at the two seams the multi-process
// topology introduces:
//   * transport tax — appends through the socket Scribe transport
//     (RemoteScribe -> ScribeServer over localhost TCP, one RPC per append)
//     vs the same appends on the in-process Scribe the broker wraps; and
//     the same appends handed over in 256-row WriteShardedBatch calls (one
//     RPC per batch), the engine's default checkpoint interval.
//   * restart-to-caught-up — a worker pipeline over the remote bus is
//     stopped, a backlog accrues at the broker, and a successor recovers
//     from the durable manifest and drains back to lag zero; the paper's
//     operational question after every supervisor restart (§4.4, Fig 10).
// `--smoke` shrinks both phases for CI; `--out <path>` redirects the JSON
// (default BENCH_DISTRIBUTED.json in the working directory).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/workload.h"
#include "common/clock.h"
#include "common/fs.h"
#include "common/metrics.h"
#include "core/pipeline.h"
#include "core/recovery.h"
#include "scribe/remote.h"
#include "scribe/scribe.h"

namespace fbstream::bench {
namespace {

double NowSeconds() {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Run(bool smoke, const std::string& out_path) {
  const int appends = smoke ? 2'000 : 20'000;
  const size_t payload_bytes = 512;
  // NodeConfig::checkpoint_every_events: one engine batch.
  const int batch_rows = 256;
  const int warmup_events = smoke ? 200 : 2'000;
  const int backlog_events = smoke ? 400 : 4'000;

  printf("=== Distributed mode: transport tax and restart catch-up ===\n");
  printf("(%d appends x %zuB, %d-event backlog)\n\n", appends, payload_bytes,
         warmup_events + backlog_events);

  const std::string dir = MakeTempDir("bench_distributed");
  Clock* clock = SystemClock::Get();

  // -- Part 1: append throughput, in-process vs through the socket. Both
  // paths land in the same non-persisted category family, so the delta is
  // framing + syscalls + one round trip per append.
  scribe::Scribe bus(clock);
  scribe::CategoryConfig ingest;
  ingest.name = "ingest";
  ingest.num_buckets = 1;
  if (!bus.CreateCategory(ingest).ok()) return 1;
  const std::string payload(payload_bytes, 'x');

  double inproc_per_sec = 0;
  {
    const double t0 = NowSeconds();
    for (int i = 0; i < appends; ++i) {
      if (!bus.Write("ingest", 0, payload).ok()) return 1;
    }
    inproc_per_sec = appends / (NowSeconds() - t0);
  }

  scribe::ScribeServer server(&bus);
  if (!server.Start().ok()) return 1;
  double remote_per_sec = 0;
  {
    scribe::RemoteScribe remote(clock, "127.0.0.1", server.port(),
                                "bench.ingest");
    const double t0 = NowSeconds();
    for (int i = 0; i < appends; ++i) {
      if (!remote.Write("ingest", 0, payload).ok()) return 1;
    }
    remote_per_sec = appends / (NowSeconds() - t0);
  }
  const double transport_tax = inproc_per_sec / remote_per_sec;

  double remote_batched_per_sec = 0;
  {
    scribe::RemoteScribe remote(clock, "127.0.0.1", server.port(),
                                "bench.ingest.batched");
    std::vector<scribe::ShardedRecord> batch;
    for (int i = 0; i < batch_rows; ++i) {
      batch.push_back({"key" + std::to_string(i), payload});
    }
    const int batches = appends / batch_rows;
    const double t0 = NowSeconds();
    for (int i = 0; i < batches; ++i) {
      if (!remote.WriteShardedBatch("ingest", batch).ok()) return 1;
    }
    remote_batched_per_sec = batches * batch_rows / (NowSeconds() - t0);
  }
  const double batched_transport_tax = inproc_per_sec / remote_batched_per_sec;

  printf("  in-process append:  %10.0f appends/s (%7.1f MB/s)\n",
         inproc_per_sec, inproc_per_sec * payload_bytes / 1e6);
  printf("  remote append:      %10.0f appends/s (%7.1f MB/s)\n",
         remote_per_sec, remote_per_sec * payload_bytes / 1e6);
  printf("  transport tax:      %10.1fx per-append RPC overhead\n",
         transport_tax);
  printf("  remote batched:     %10.0f appends/s (%d-row batches)\n",
         remote_batched_per_sec, batch_rows);
  printf("  batched tax:        %10.1fx vs in-process per-append\n\n",
         batched_transport_tax);

  // -- Part 2: restart-to-caught-up. The at-least-once two-hop chain
  // (alpha: in -> mid, beta: mid -> out) runs over the remote bus exactly
  // as a noded worker does, is stopped, misses a backlog, and a successor
  // recovers through the manifest and drains to quiescence.
  using cluster::WorkloadMode;
  const WorkloadMode mode = WorkloadMode::kAtLeastOnce;
  const std::string root = dir + "/cluster";
  scribe::Scribe durable_bus(clock, root + "/bus");
  scribe::ScribeServer broker(&durable_bus);
  if (!broker.Start().ok()) return 1;
  scribe::RemoteScribe worker_bus(clock, "127.0.0.1", broker.port(),
                                  "worker.bench");
  if (!cluster::EnsureWorkloadCategories(&worker_bus, mode).ok()) return 1;
  if (!stylus::SaveManifest(root + "/manifest",
                            cluster::BuildWorkloadManifest(mode, root))
           .ok()) {
    return 1;
  }
  // The resolver owns the per-node HDFS handles the configs point into; it
  // must outlive every pipeline built from it.
  const auto resolver = cluster::MakeWorkloadResolver(mode, &worker_bus, root);
  stylus::Pipeline::Options options;
  options.idle_sleep_micros = 500;

  {  // First incarnation: process the warmup, then "die" (clean teardown —
     // the checkpoint state it leaves is what a SIGKILL leaves, minus WAL
     // tails, which recovery replays either way).
    stylus::Pipeline pipeline(&worker_bus, clock, options);
    if (!pipeline.Recover(root + "/manifest", resolver).ok()) return 1;
    if (!pipeline.Start().ok()) return 1;
    if (!cluster::AppendWorkloadInput(&worker_bus, 0, warmup_events).ok()) {
      return 1;
    }
    if (!pipeline.WaitUntilQuiescent(60'000).ok()) return 1;
    if (!pipeline.Stop().ok()) return 1;
  }

  // Backlog lands at the broker while no worker is running.
  if (!cluster::AppendWorkloadInput(&worker_bus, warmup_events,
                                    warmup_events + backlog_events)
           .ok()) {
    return 1;
  }

  double recover_ms = 0;
  double caught_up_ms = 0;
  // Every bus call of the catch-up is an RPC (appends, polls, lag probes):
  // per drained event, this is the transport work the batch path saves.
  Counter* rpcs = MetricsRegistry::Global()->GetCounter("scribe.remote.rpcs");
  const uint64_t rpcs_before = rpcs->value();
  {
    const double t0 = NowSeconds();
    stylus::Pipeline revived(&worker_bus, clock, options);
    if (!revived.Recover(root + "/manifest", resolver).ok()) return 1;
    recover_ms = (NowSeconds() - t0) * 1e3;
    if (!revived.Start().ok()) return 1;
    if (!revived.WaitUntilQuiescent(120'000).ok()) return 1;
    caught_up_ms = (NowSeconds() - t0) * 1e3;
    if (!revived.Stop().ok()) return 1;
  }
  const double catch_up_rpcs_per_event =
      static_cast<double>(rpcs->value() - rpcs_before) / backlog_events;

  printf("  recover (manifest + checkpoints): %8.1f ms\n", recover_ms);
  printf("  restart-to-caught-up (%4d-event backlog): %8.1f ms\n",
         backlog_events, caught_up_ms);
  printf("  catch-up RPCs per backlog event:          %8.2f\n",
         catch_up_rpcs_per_event);
  printf("\nshape check: the transport tax buys process isolation (a worker\n"
         "SIGKILL can no longer take the broker down), and catch-up stays\n"
         "bounded by backlog size — the paper's case that brokered\n"
         "persistence makes node restarts routine instead of scary.\n");

  char json[1024];
  snprintf(json, sizeof(json),
           "{\n"
           "  \"bench\": \"bench_distributed\",\n"
           "  \"smoke\": %s,\n"
           "  \"appends\": %d,\n"
           "  \"payload_bytes\": %zu,\n"
           "  \"inproc_appends_per_sec\": %.0f,\n"
           "  \"remote_appends_per_sec\": %.0f,\n"
           "  \"transport_tax_x\": %.2f,\n"
           "  \"batch_rows\": %d,\n"
           "  \"remote_batched_appends_per_sec\": %.0f,\n"
           "  \"batched_transport_tax_x\": %.2f,\n"
           "  \"backlog_events\": %d,\n"
           "  \"recover_ms\": %.3f,\n"
           "  \"restart_to_caught_up_ms\": %.3f,\n"
           "  \"catch_up_rpcs_per_event\": %.3f\n"
           "}\n",
           smoke ? "true" : "false", appends, payload_bytes, inproc_per_sec,
           remote_per_sec, transport_tax, batch_rows, remote_batched_per_sec,
           batched_transport_tax, backlog_events, recover_ms, caught_up_ms,
           catch_up_rpcs_per_event);
  const Status write = WriteFileAtomic(out_path, json);
  if (!write.ok()) {
    fprintf(stderr, "writing %s: %s\n", out_path.c_str(),
            write.ToString().c_str());
    return 1;
  }
  fprintf(stderr, "wrote %s\n", out_path.c_str());
  broker.Stop();
  server.Stop();
  (void)RemoveAll(dir);
  return 0;
}

}  // namespace
}  // namespace fbstream::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_DISTRIBUTED.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    }
  }
  return fbstream::bench::Run(smoke, out);
}
