#ifndef FBSTREAM_CORE_SINK_H_
#define FBSTREAM_CORE_SINK_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "common/value.h"
#include "scribe/scribe.h"
#include "storage/lsm/write_batch.h"
#include "storage/scuba/scuba.h"
#include "storage/zippydb/zippydb.h"

namespace fbstream::stylus {

// Where a processor's output goes (§2.4: "the output can be another Scribe
// stream or a data store for serving the data"). Exactly-once output
// requires the sink to support transactions; Scribe (a transport) does not,
// data stores may.
class OutputSink {
 public:
  virtual ~OutputSink() = default;

  virtual Status Emit(const Row& row) = 0;
  // Emits a batch of rows in order. The default loops Emit, so a sink (or
  // a wrapper around another sink) that overrides only Emit still sees
  // every row; sinks with a cheaper bulk path override it.
  virtual Status EmitBatch(const std::vector<Row>& rows) {
    for (const Row& row : rows) FBSTREAM_RETURN_IF_ERROR(Emit(row));
    return Status::OK();
  }

  virtual bool SupportsTransactions() const { return false; }
  // For exactly-once output: translate rows into ops committed atomically
  // with the checkpoint.
  virtual Status AppendToTransaction(const std::vector<Row>& rows,
                                     lsm::WriteBatch* batch) {
    (void)rows;
    (void)batch;
    return Status::Unimplemented("sink does not support transactions");
  }
  // Scribe category this sink writes into, or "" for terminal sinks (data
  // stores). The continuous engine uses this to find a node's downstream
  // consumers: backpressure is the Scribe backlog between a producer and the
  // tailers of the category it feeds (§5.3 — the persistent bus *is* the
  // queue, so "full" means the slowest consumer is too far behind).
  virtual std::string OutputCategory() const { return ""; }
};

// Writes rows into a Scribe category, resharded by the given key columns
// (the mechanism behind the re-sharding edges of Figure 3).
class ScribeSink : public OutputSink {
 public:
  ScribeSink(scribe::Scribe* scribe, std::string category,
             SchemaPtr output_schema, std::vector<std::string> shard_columns);

  Status Emit(const Row& row) override;
  // One Scribe::WriteShardedBatch call for the whole batch.
  Status EmitBatch(const std::vector<Row>& rows) override;
  std::string OutputCategory() const override { return category_; }

 private:
  std::string ShardKeyOf(const Row& row) const;

  scribe::Scribe* scribe_;
  std::string category_;
  TextRowCodec codec_;
  std::vector<std::string> shard_columns_;
};

// Writes rows into a Scuba table (best-effort serving store; §4.3.2:
// "Exactly-once semantics are not possible because Scuba does not support
// transactions").
class ScubaSink : public OutputSink {
 public:
  explicit ScubaSink(scuba::ScubaTable* table) : table_(table) {}

  Status Emit(const Row& row) override;

 private:
  scuba::ScubaTable* table_;
};

// Writes (key, value) rows into ZippyDB; transactional, so exactly-once
// output is available.
class ZippyDbSink : public OutputSink {
 public:
  ZippyDbSink(zippydb::Cluster* cluster, std::string key_prefix,
              std::vector<std::string> key_columns,
              std::vector<std::string> value_columns);

  Status Emit(const Row& row) override;
  bool SupportsTransactions() const override { return true; }
  Status AppendToTransaction(const std::vector<Row>& rows,
                             lsm::WriteBatch* batch) override;

  zippydb::Cluster* cluster() const { return cluster_; }

 private:
  std::string KeyOf(const Row& row) const;
  std::string ValueOf(const Row& row) const;

  zippydb::Cluster* cluster_;
  std::string key_prefix_;
  std::vector<std::string> key_columns_;
  std::vector<std::string> value_columns_;
};

// Test sink: collects rows in memory (thread-safe).
class CollectingSink : public OutputSink {
 public:
  Status Emit(const Row& row) override {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(row);
    return Status::OK();
  }

  std::vector<Row> rows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rows_.size();
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    rows_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Row> rows_;
};

}  // namespace fbstream::stylus

#endif  // FBSTREAM_CORE_SINK_H_
