#include "core/sink.h"

namespace fbstream::stylus {

ScribeSink::ScribeSink(scribe::Scribe* scribe, std::string category,
                       SchemaPtr output_schema,
                       std::vector<std::string> shard_columns)
    : scribe_(scribe),
      category_(std::move(category)),
      codec_(std::move(output_schema)),
      shard_columns_(std::move(shard_columns)) {}

std::string ScribeSink::ShardKeyOf(const Row& row) const {
  std::string shard_key;
  for (const std::string& col : shard_columns_) {
    shard_key += row.Get(col).ToString();
    shard_key.push_back('\x01');
  }
  return shard_key;
}

Status ScribeSink::Emit(const Row& row) {
  return scribe_->WriteSharded(category_, ShardKeyOf(row), codec_.Encode(row));
}

Status ScribeSink::EmitBatch(const std::vector<Row>& rows) {
  if (rows.empty()) return Status::OK();
  std::vector<scribe::ShardedRecord> records;
  records.reserve(rows.size());
  for (const Row& row : rows) {
    records.push_back({ShardKeyOf(row), codec_.Encode(row)});
  }
  return scribe_->WriteShardedBatch(category_, records);
}

Status ScubaSink::Emit(const Row& row) {
  table_->AddRow(row);
  return Status::OK();
}

ZippyDbSink::ZippyDbSink(zippydb::Cluster* cluster, std::string key_prefix,
                         std::vector<std::string> key_columns,
                         std::vector<std::string> value_columns)
    : cluster_(cluster),
      key_prefix_(std::move(key_prefix)),
      key_columns_(std::move(key_columns)),
      value_columns_(std::move(value_columns)) {}

std::string ZippyDbSink::KeyOf(const Row& row) const {
  std::string key = key_prefix_;
  for (const std::string& col : key_columns_) {
    key.push_back('/');
    key += row.Get(col).ToString();
  }
  return key;
}

std::string ZippyDbSink::ValueOf(const Row& row) const {
  std::string value;
  for (size_t i = 0; i < value_columns_.size(); ++i) {
    if (i > 0) value.push_back('\t');
    value += row.Get(value_columns_[i]).ToString();
  }
  return value;
}

Status ZippyDbSink::Emit(const Row& row) {
  return cluster_->Put(KeyOf(row), ValueOf(row));
}

Status ZippyDbSink::AppendToTransaction(const std::vector<Row>& rows,
                                        lsm::WriteBatch* batch) {
  for (const Row& row : rows) {
    batch->Put(KeyOf(row), ValueOf(row));
  }
  return Status::OK();
}

}  // namespace fbstream::stylus
