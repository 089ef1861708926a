#ifndef FBSTREAM_STORAGE_LASER_LASER_H_
#define FBSTREAM_STORAGE_LASER_LASER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/value.h"
#include "scribe/scribe.h"
#include "storage/lsm/db.h"

namespace fbstream::hive {
class Hive;
}  // namespace fbstream::hive

namespace fbstream::laser {

// Laser (paper §2.5): "a high query throughput, low (millisecond) latency,
// key-value storage service built on top of RocksDB. Laser can read from any
// Scribe category in realtime or from any Hive table once a day. The key and
// value can each be any combination of columns in the (serialized) input
// stream."
//
// Deployment follows §6.3: "Laser apps are extremely easy to setup, deploy,
// and delete. There is a UI to configure the app: just choose an ordered set
// of columns from the input Scribe stream for each of the key and value, a
// lifetime for each key-value pair, and a set of data centers."
struct LaserAppConfig {
  std::string name;
  // Realtime source. Empty if the app is fed only by Hive loads.
  std::string scribe_category;
  // Schema of the serialized input stream (text rows).
  SchemaPtr input_schema;
  // Ordered column subsets forming the key and the value.
  std::vector<std::string> key_columns;
  std::vector<std::string> value_columns;
  // Lifetime for each key-value pair; 0 = no expiry.
  Micros ttl_micros = 0;
  // Redundant serving tiers (§4.2.2 "we can run multiple ... Laser tiers");
  // accounted for capacity, all served from the same store here.
  int num_datacenters = 1;
  // Storage tuning for the app's embedded lsm::Db. Apps on one node share
  // the default process-wide block cache unless db_options.block_cache is
  // set; merge_operator here would be overwritten per-app internals, so
  // callers only set storage knobs (memtable size, cache, block size).
  lsm::DbOptions db_options;
};

// One deployed Laser app: a KV view over a stream.
class LaserApp {
 public:
  static StatusOr<std::unique_ptr<LaserApp>> Create(
      const LaserAppConfig& config, scribe::Scribe* scribe, Clock* clock,
      const std::string& dir);

  const LaserAppConfig& config() const { return config_; }

  // Ingests all pending messages from the Scribe category (all buckets).
  // Returns the number of rows applied.
  StatusOr<size_t> PollOnce();

  // Point read by key column values. Returns the value row (value columns
  // only). Expired and absent keys are NotFound.
  //
  // Serving path (§2.5 "high query throughput, low (millisecond) latency"):
  // goes straight through the LSM's lock-free versioned read protocol via
  // Db::GetInto — no DB mutex, and key/value scratch buffers are
  // thread-local so a hot read loop does no per-call allocation. Safe to
  // call from many threads concurrently with ingestion.
  StatusOr<Row> Get(const std::vector<Value>& key) const;
  // Convenience for single-column keys.
  StatusOr<Row> Get(const Value& key) const;

  std::vector<StatusOr<Row>> MultiGet(
      const std::vector<std::vector<Value>>& keys) const;

  // Bulk-loads a day's partition of a Hive table (§2.5 "from any Hive table
  // once a day"), replacing matching keys.
  Status LoadFromHive(const hive::Hive& hive, const std::string& table,
                      const std::string& ds);

  // Bulk-loads rows directly (e.g., a Presto query result sent to Laser,
  // §2.7). Rows must carry the key/value columns by name.
  Status LoadRows(const std::vector<Row>& rows);

  uint64_t rows_ingested() const { return rows_ingested_; }

 private:
  LaserApp(LaserAppConfig config, Clock* clock);

  std::string EncodeKey(const std::vector<Value>& key) const;
  // Appends the encoded key to `*out` (which the caller has cleared) —
  // the Get path reuses a thread-local buffer instead of allocating.
  static void EncodeKeyInto(const std::vector<Value>& key, std::string* out);
  Status ApplyRow(const Row& row);

  LaserAppConfig config_;
  Clock* clock_;
  SchemaPtr value_schema_;
  BinaryRowCodec value_codec_;  // Stateless; shared by all reader threads.
  std::unique_ptr<lsm::Db> db_;
  std::vector<scribe::Tailer> tailers_;
  uint64_t rows_ingested_ = 0;
  // Read counts live only in the registry (label = app name).
  Counter* reads_;        // laser.read.queries
  Counter* read_misses_;  // laser.read.misses
};

// The Laser service: a registry of deployed apps with one-command deploy /
// delete (§6.3).
class Laser {
 public:
  Laser(scribe::Scribe* scribe, Clock* clock, std::string root_dir);

  Status DeployApp(const LaserAppConfig& config);
  Status DeleteApp(const std::string& name);
  LaserApp* GetApp(const std::string& name) const;
  std::vector<std::string> ListApps() const;

  // Drives realtime ingestion for every app.
  void PollAll();

 private:
  scribe::Scribe* scribe_;
  Clock* clock_;
  std::string root_;
  std::map<std::string, std::unique_ptr<LaserApp>> apps_;
};

}  // namespace fbstream::laser

#endif  // FBSTREAM_STORAGE_LASER_LASER_H_
