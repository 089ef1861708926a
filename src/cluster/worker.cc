#include "cluster/worker.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cluster/heartbeat.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/shutdown.h"
#include "core/pipeline.h"
#include "scribe/remote.h"

namespace fbstream::cluster {

namespace {

using SteadyClock = std::chrono::steady_clock;

std::chrono::microseconds ToChrono(Micros micros) {
  return std::chrono::microseconds(micros);
}

// Sleep in small slices so shutdown and stop flags are honored promptly.
void SleepInterruptible(Micros micros, const std::atomic<bool>& stop) {
  const SteadyClock::time_point until = SteadyClock::now() + ToChrono(micros);
  while (SteadyClock::now() < until) {
    if (stop.load(std::memory_order_acquire) || ShutdownRequested()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

uint64_t TotalLag(stylus::Pipeline* pipeline) {
  uint64_t total = 0;
  for (const auto& report : pipeline->GetProcessingLag()) {
    total += report.lag_messages;
  }
  return total;
}

}  // namespace

int RunWorker(const WorkerOptions& options) {
  auto* faults = FaultRegistry::Global();
  faults->SetProcessName("worker." + options.name);
  faults->ArmKillFromEnvironment();
  InstallShutdownSignalHandlers();

  // Data path: generous RPC budget so shard batches ride out reconnect
  // storms. Heartbeat path: a second connection with fail-fast timeouts —
  // liveness reporting must not queue behind a stalled data RPC, and a
  // partition should surface as a missed beat within one interval, not
  // after a retry ladder.
  scribe::RemoteScribeOptions data_options;
  data_options.rpc_timeout_micros = 500'000;
  data_options.retry = {.max_attempts = 8,
                        .initial_backoff_micros = 2'000,
                        .max_backoff_micros = 100'000};
  scribe::RemoteScribe bus(SystemClock::Get(), options.broker_host,
                           options.broker_port, "worker." + options.name,
                           data_options);
  scribe::RemoteScribeOptions beat_options;
  beat_options.connect_timeout_micros = 200'000;
  beat_options.rpc_timeout_micros = 100'000;
  beat_options.retry = {.max_attempts = 1};
  scribe::RemoteScribe beat_bus(SystemClock::Get(), options.broker_host,
                                options.broker_port,
                                "worker." + options.name, beat_options);

  // The broker may still be coming up (a respawn can race its restart).
  const SteadyClock::time_point startup_deadline =
      SteadyClock::now() + ToChrono(options.startup_deadline_micros);
  while (!bus.Ping().ok()) {
    if (ShutdownRequested()) return 0;
    if (SteadyClock::now() > startup_deadline) {
      FBSTREAM_LOG(Error) << "worker " << options.name
                          << ": broker unreachable at " << options.broker_host
                          << ":" << options.broker_port;
      return 2;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (Status st = EnsureHeartbeatCategory(&bus); !st.ok()) {
    FBSTREAM_LOG(Error) << "worker " << options.name << ": " << st;
    return 2;
  }
  if (!options.heartbeat_only) {
    if (Status st = EnsureWorkloadCategories(&bus, options.mode); !st.ok()) {
      FBSTREAM_LOG(Error) << "worker " << options.name << ": " << st;
      return 2;
    }
  }

  stylus::Pipeline::Options pipeline_options;
  pipeline_options.commit_threads = 2;
  pipeline_options.idle_sleep_micros = 500;
  pipeline_options.snapshot_every_batches = 8;
  stylus::Pipeline pipeline(&bus, SystemClock::Get(), pipeline_options);

  std::atomic<int> state{static_cast<int>(WorkerState::kStarting)};
  std::atomic<bool> stop_heartbeat{false};

  // Started before Recover: the supervisor's startup grace is measured
  // against *some* beat arriving, and recovery (LSM replay, HDFS restore)
  // can take a while.
  std::thread heartbeat([&] {
    uint64_t seq = 1;
    bool failing = false;
    SteadyClock::time_point first_failure{};
    while (!stop_heartbeat.load(std::memory_order_acquire)) {
      Heartbeat hb;
      hb.worker = options.name;
      hb.pid = static_cast<int64_t>(::getpid());
      hb.seq = seq;
      hb.sent_micros = SystemClock::Get()->NowMicros();
      hb.events_processed = pipeline.events_processed();
      hb.total_lag = options.heartbeat_only ? 0 : TotalLag(&pipeline);
      hb.state = static_cast<WorkerState>(state.load(std::memory_order_acquire));
      if (AppendHeartbeat(&beat_bus, hb).ok()) {
        ++seq;
        failing = false;
      } else {
        const SteadyClock::time_point now = SteadyClock::now();
        if (!failing) {
          failing = true;
          first_failure = now;
        } else if (now - first_failure >
                   ToChrono(options.fence_timeout_micros)) {
          // Long enough that the supervisor has declared this worker dead
          // and may be starting a successor: die before two processes share
          // one shard directory. _exit — no destructors, same as SIGKILL.
          FBSTREAM_LOG(Warning)
              << "worker " << options.name
              << ": broker unreachable past fence timeout, self-fencing";
          ::_exit(kSelfFenceExitCode);
        }
      }
      SleepInterruptible(options.heartbeat_interval_micros, stop_heartbeat);
    }
  });

  int code = 0;
  if (options.heartbeat_only) {
    state.store(static_cast<int>(WorkerState::kRunning),
                std::memory_order_release);
    while (!ShutdownRequested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    state.store(static_cast<int>(WorkerState::kDraining),
                std::memory_order_release);
  } else {
    stylus::Pipeline::RecoverOptions recover_options;
    recover_options.node_filter = options.nodes;
    const auto resolver =
        MakeWorkloadResolver(options.mode, &bus, options.root);
    if (Status st = pipeline.Recover(options.manifest_dir, resolver,
                                     recover_options);
        !st.ok()) {
      // Leave the retry cadence to the supervisor's restart backoff: a
      // partial in-place retry would violate Recover's empty-pipeline
      // precondition anyway.
      FBSTREAM_LOG(Error) << "worker " << options.name
                          << ": recover failed: " << st;
      code = 3;
    } else if (Status st = pipeline.Start(); !st.ok()) {
      FBSTREAM_LOG(Error) << "worker " << options.name
                          << ": start failed: " << st;
      code = 3;
    } else {
      state.store(static_cast<int>(WorkerState::kRunning),
                  std::memory_order_release);
      SteadyClock::time_point last_recover = SteadyClock::now();
      while (!ShutdownRequested()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const SteadyClock::time_point now = SteadyClock::now();
        if (now - last_recover > ToChrono(options.recover_poll_micros)) {
          // Revive shards downed by injected crashes; loops for dead
          // shards idle, so this never races a running batch.
          (void)pipeline.RecoverAll();
          last_recover = now;
        }
      }
      state.store(static_cast<int>(WorkerState::kDraining),
                  std::memory_order_release);
      if (Status st = pipeline.Stop(); !st.ok()) {
        FBSTREAM_LOG(Error) << "worker " << options.name
                            << ": stop failed: " << st;
        code = 4;
      }
    }
  }

  stop_heartbeat.store(true, std::memory_order_release);
  heartbeat.join();
  return code;
}

}  // namespace fbstream::cluster
