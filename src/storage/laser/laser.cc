#include "storage/laser/laser.h"

#include "common/fs.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/serde.h"
#include "storage/hive/hive.h"

namespace fbstream::laser {

namespace {
constexpr char kKeySeparator = '\x01';
}  // namespace

LaserApp::LaserApp(LaserAppConfig config, Clock* clock)
    : config_(std::move(config)),
      clock_(clock),
      value_codec_(nullptr),
      reads_(MetricsRegistry::Global()->GetCounter("laser.read.queries",
                                                   config_.name)),
      read_misses_(MetricsRegistry::Global()->GetCounter("laser.read.misses",
                                                         config_.name)) {
  std::vector<Column> value_columns;
  for (const std::string& name : config_.value_columns) {
    const int i = config_.input_schema->IndexOf(name);
    value_columns.push_back(config_.input_schema->column(
        static_cast<size_t>(i < 0 ? 0 : i)));
  }
  value_schema_ = Schema::Make(std::move(value_columns));
  value_codec_ = BinaryRowCodec(value_schema_);
}

StatusOr<std::unique_ptr<LaserApp>> LaserApp::Create(
    const LaserAppConfig& config, scribe::Scribe* scribe, Clock* clock,
    const std::string& dir) {
  if (config.input_schema == nullptr) {
    return Status::InvalidArgument("laser app needs an input schema");
  }
  if (config.key_columns.empty()) {
    return Status::InvalidArgument("laser app needs key columns");
  }
  for (const std::string& col : config.key_columns) {
    if (!config.input_schema->Has(col)) {
      return Status::InvalidArgument("unknown key column " + col);
    }
  }
  for (const std::string& col : config.value_columns) {
    if (!config.input_schema->Has(col)) {
      return Status::InvalidArgument("unknown value column " + col);
    }
  }
  std::unique_ptr<LaserApp> app(new LaserApp(config, clock));
  FBSTREAM_ASSIGN_OR_RETURN(app->db_, lsm::Db::Open(config.db_options, dir));
  if (!config.scribe_category.empty()) {
    if (scribe == nullptr || !scribe->HasCategory(config.scribe_category)) {
      return Status::InvalidArgument("unknown scribe category " +
                                     config.scribe_category);
    }
    const int buckets = scribe->NumBuckets(config.scribe_category);
    for (int b = 0; b < buckets; ++b) {
      app->tailers_.emplace_back(scribe, config.scribe_category, b);
    }
  }
  return app;
}

std::string LaserApp::EncodeKey(const std::vector<Value>& key) const {
  std::string out;
  EncodeKeyInto(key, &out);
  return out;
}

void LaserApp::EncodeKeyInto(const std::vector<Value>& key,
                             std::string* out) {
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out->push_back(kKeySeparator);
    *out += key[i].ToString();
  }
}

Status LaserApp::ApplyRow(const Row& row) {
  std::vector<Value> key;
  key.reserve(config_.key_columns.size());
  for (const std::string& col : config_.key_columns) {
    key.push_back(row.Get(col));
  }
  Row value_row(value_schema_);
  for (size_t i = 0; i < config_.value_columns.size(); ++i) {
    value_row.Set(i, row.Get(config_.value_columns[i]));
  }
  // Stored value = expiry timestamp + encoded value row.
  std::string stored;
  const Micros expire_at =
      config_.ttl_micros > 0 ? clock_->NowMicros() + config_.ttl_micros : 0;
  PutVarint64(&stored, static_cast<uint64_t>(expire_at));
  BinaryRowCodec codec(value_schema_);
  stored += codec.Encode(value_row);
  ++rows_ingested_;
  return db_->Put(EncodeKey(key), stored);
}

StatusOr<size_t> LaserApp::PollOnce() {
  TextRowCodec codec(config_.input_schema);
  size_t applied = 0;
  for (scribe::Tailer& tailer : tailers_) {
    while (true) {
      auto messages = tailer.Poll();
      if (messages.empty()) break;
      for (const scribe::Message& m : messages) {
        auto row = codec.Decode(m.payload);
        if (!row.ok()) {
          FBSTREAM_LOG(Warning) << "laser " << config_.name
                                << ": bad row: " << row.status();
          continue;
        }
        FBSTREAM_RETURN_IF_ERROR(ApplyRow(*row));
        ++applied;
      }
    }
  }
  return applied;
}

StatusOr<Row> LaserApp::Get(const std::vector<Value>& key) const {
  reads_->Add(1);
  // Warm thread-local buffers: after the first call on a thread, encoding
  // the key and fetching the stored value allocate nothing.
  thread_local std::string key_buf;
  thread_local std::string value_buf;
  key_buf.clear();
  EncodeKeyInto(key, &key_buf);
  const Status st = db_->GetInto(key_buf, &value_buf);
  if (!st.ok()) {
    if (st.IsNotFound()) read_misses_->Add(1);
    return st;
  }
  std::string_view view(value_buf);
  uint64_t expire_at = 0;
  if (!GetVarint64(&view, &expire_at)) {
    return Status::Corruption("laser value header");
  }
  if (expire_at != 0 &&
      static_cast<Micros>(expire_at) <= clock_->NowMicros()) {
    read_misses_->Add(1);
    return Status::NotFound("expired");
  }
  return value_codec_.Decode(view);
}

StatusOr<Row> LaserApp::Get(const Value& key) const {
  return Get(std::vector<Value>{key});
}

std::vector<StatusOr<Row>> LaserApp::MultiGet(
    const std::vector<std::vector<Value>>& keys) const {
  std::vector<StatusOr<Row>> out;
  out.reserve(keys.size());
  for (const auto& key : keys) out.push_back(Get(key));
  return out;
}

Status LaserApp::LoadFromHive(const hive::Hive& hive, const std::string& table,
                              const std::string& ds) {
  FBSTREAM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                            hive.ReadPartition(table, ds));
  for (const Row& row : rows) {
    FBSTREAM_RETURN_IF_ERROR(ApplyRow(row));
  }
  return Status::OK();
}

Status LaserApp::LoadRows(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    FBSTREAM_RETURN_IF_ERROR(ApplyRow(row));
  }
  return Status::OK();
}

Laser::Laser(scribe::Scribe* scribe, Clock* clock, std::string root_dir)
    : scribe_(scribe), clock_(clock), root_(std::move(root_dir)) {}

Status Laser::DeployApp(const LaserAppConfig& config) {
  if (apps_.count(config.name) > 0) {
    return Status::AlreadyExists("laser app " + config.name);
  }
  FBSTREAM_ASSIGN_OR_RETURN(
      auto app,
      LaserApp::Create(config, scribe_, clock_, root_ + "/" + config.name));
  apps_.emplace(config.name, std::move(app));
  return Status::OK();
}

Status Laser::DeleteApp(const std::string& name) {
  auto it = apps_.find(name);
  if (it == apps_.end()) return Status::NotFound("laser app " + name);
  apps_.erase(it);
  return RemoveAll(root_ + "/" + name);
}

LaserApp* Laser::GetApp(const std::string& name) const {
  auto it = apps_.find(name);
  return it == apps_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Laser::ListApps() const {
  std::vector<std::string> names;
  for (const auto& [name, app] : apps_) names.push_back(name);
  return names;
}

void Laser::PollAll() {
  for (auto& [name, app] : apps_) {
    const auto result = app->PollOnce();
    if (!result.ok()) {
      FBSTREAM_LOG(Warning) << "laser poll " << name << ": "
                            << result.status();
    }
  }
}

}  // namespace fbstream::laser
