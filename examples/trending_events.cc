// The paper's Figure 3 example application: a four-node DAG that computes
// "trending" events.
//
//   Incoming -> [Filterer] -> [Joiner] -> [Scorer] -> [Ranker] -> queries
//      |  scribe   |   scribe    |  scribe   |  scribe   |
//                           Laser lookup   RPC classification
//
//   * Filterer  (Stylus, stateless): keeps only post events and reshards by
//     dimension id, "so that the processing for the next node can be done
//     in parallel on shards with disjoint sets of dimension ids".
//   * Joiner    (Stylus, stateless): queries Laser for dimension info and an
//     external RPC service for topic classification; sharded input keeps
//     its dimension cache hot. Output is resharded by (event, topic).
//   * Scorer    (Stylus, stateful): sliding-window counts per (event,
//     topic) plus long-term trend rates; emits a score.
//   * Ranker    (Puma): the Figure 2 app — top K events per topic per
//     5-minute window, queried by a consumer service.

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/clock.h"
#include "common/fs.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/node.h"
#include "core/pipeline.h"
#include "core/processor.h"
#include "core/sink.h"
#include "puma/app.h"
#include "scribe/scribe.h"
#include "storage/laser/laser.h"

using namespace fbstream;  // Example code; library code never does this.

namespace {

// --------------------------------------------------------------------------
// Schemas of the streams between the nodes.

SchemaPtr IncomingSchema() {
  return Schema::Make({{"event_time", ValueType::kInt64},
                       {"event_type", ValueType::kString},
                       {"dim_id", ValueType::kInt64},
                       {"text", ValueType::kString}});
}

SchemaPtr FilteredSchema() { return IncomingSchema(); }

SchemaPtr JoinedSchema() {
  return Schema::Make({{"event_time", ValueType::kInt64},
                       {"event", ValueType::kString},
                       {"topic", ValueType::kString},
                       {"language", ValueType::kString}});
}

SchemaPtr ScoredSchema() {
  return Schema::Make({{"event_time", ValueType::kInt64},
                       {"event", ValueType::kString},
                       {"category", ValueType::kString},
                       {"score", ValueType::kInt64}});
}

// --------------------------------------------------------------------------
// An external RPC classification service ("the Joiner node may need to
// query an arbitrary service for the Classifications, which Puma cannot
// do" — this is why the Joiner must be Stylus).

class ClassificationService {
 public:
  std::string Classify(const std::string& text) {
    ++calls_;
    static const char* kTopics[] = {"sports", "politics", "arts", "tech"};
    // A "model": hash of the first hashtag word.
    const size_t pos = text.find('#');
    const std::string token =
        pos == std::string::npos ? text : text.substr(pos + 1, 8);
    return kTopics[Fnv1a64(token) % 4];
  }
  uint64_t calls() const { return calls_; }

 private:
  uint64_t calls_ = 0;
};

// --------------------------------------------------------------------------
// Node 1: the Filterer.

class Filterer : public stylus::StatelessProcessor {
 public:
  void Process(const stylus::Event& event, std::vector<Row>* out) override {
    if (event.row.Get("event_type").ToString() != "post") return;
    out->push_back(event.row);  // Sink reshards by dim_id.
  }
};

// Node 2: the Joiner (Laser lookup join + RPC classification, with a
// per-shard dimension cache made effective by the dim_id resharding).
class Joiner : public stylus::StatelessProcessor {
 public:
  Joiner(laser::LaserApp* dimensions, ClassificationService* classifier)
      : dimensions_(dimensions), classifier_(classifier) {}

  void Process(const stylus::Event& event, std::vector<Row>* out) override {
    const int64_t dim_id = event.row.Get("dim_id").CoerceInt64();
    std::string language = "unknown";
    auto cached = cache_.find(dim_id);
    if (cached != cache_.end()) {
      language = cached->second;
    } else {
      auto dim = dimensions_->Get(Value(dim_id));
      if (dim.ok()) language = dim->Get("language").ToString();
      cache_.emplace(dim_id, language);  // Hot because input is sharded.
    }
    const std::string text = event.row.Get("text").ToString();
    const std::string topic = classifier_->Classify(text);
    // The "event" here is the content item; use the leading hashtag word.
    const size_t pos = text.find('#');
    std::string event_name = "post";
    if (pos != std::string::npos) {
      const size_t end = text.find(' ', pos);
      event_name = text.substr(pos, end == std::string::npos ? std::string::npos
                                                             : end - pos);
    }
    out->push_back(Row(JoinedSchema(),
                       {event.row.Get("event_time"), Value(event_name),
                        Value(topic), Value(language)}));
  }

 private:
  laser::LaserApp* dimensions_;
  ClassificationService* classifier_;
  std::map<int64_t, std::string> cache_;
};

// Node 3: the Scorer — "keeps a sliding window of the event counts per
// topic for recent history. It also keeps track of the long term trends
// for these counters."
class Scorer : public stylus::StatefulProcessor {
 public:
  void Process(const stylus::Event& event, std::vector<Row>* out) override {
    (void)out;
    const std::string key = event.row.Get("event").ToString() + "\x01" +
                            event.row.Get("topic").ToString();
    ++window_counts_[key];
    long_term_[key] += 0.1;  // Decayed long-term rate (simplified).
    last_event_time_ = std::max(last_event_time_,
                                event.row.Get("event_time").CoerceInt64());
  }

  void OnCheckpoint(Micros /*now*/, std::vector<Row>* out) override {
    for (const auto& [key, count] : window_counts_) {
      const size_t sep = key.find('\x01');
      const std::string event = key.substr(0, sep);
      const std::string topic = key.substr(sep + 1);
      // Score = burst relative to the long-term trend.
      const double long_term = std::max(1.0, long_term_[key]);
      const int64_t score =
          static_cast<int64_t>(100.0 * static_cast<double>(count) /
                               long_term);
      out->push_back(Row(ScoredSchema(), {Value(last_event_time_),
                                          Value(event), Value(topic),
                                          Value(score)}));
    }
    window_counts_.clear();  // The window slides.
  }

  std::string SerializeState() const override {
    std::string out;
    PutVarint64(&out, long_term_.size());
    for (const auto& [key, rate] : long_term_) {
      PutLengthPrefixed(&out, key);
      PutVarint64(&out, static_cast<uint64_t>(rate * 1000));
    }
    return out;
  }

  Status RestoreState(std::string_view data) override {
    uint64_t n = 0;
    if (!GetVarint64(&data, &n)) return Status::Corruption("scorer state");
    for (uint64_t i = 0; i < n; ++i) {
      std::string_view key;
      uint64_t milli = 0;
      if (!GetLengthPrefixed(&data, &key) || !GetVarint64(&data, &milli)) {
        return Status::Corruption("scorer state");
      }
      long_term_[std::string(key)] = static_cast<double>(milli) / 1000.0;
    }
    return Status::OK();
  }

 private:
  std::map<std::string, int64_t> window_counts_;
  std::map<std::string, double> long_term_;
  Micros last_event_time_ = 0;
};

// Node 4: the Ranker is the Figure 2 Puma app, reading the Scorer's output.
constexpr char kRankerApp[] = R"(
CREATE APPLICATION ranker;
CREATE INPUT TABLE events_score (event_time BIGINT, event, category,
                                 score BIGINT)
  FROM SCRIBE("scored") TIME event_time;
CREATE TABLE top_events_5min AS
  SELECT category, event, topk(score) AS score
  FROM events_score [5 minutes];
)";

}  // namespace

int main() {
  const std::string work_dir = MakeTempDir("trending");
  SimClock clock(kMicrosPerHour);  // Some morning.
  scribe::Scribe bus(&clock);

  // Categories: each edge of the DAG is a Scribe stream.
  for (const auto& [name, buckets] :
       std::map<std::string, int>{{"incoming", 4},
                                  {"filtered", 4},
                                  {"joined", 4},
                                  {"scored", 2},
                                  {"dim_updates", 1}}) {
    scribe::CategoryConfig config;
    config.name = name;
    config.num_buckets = buckets;
    if (!bus.CreateCategory(config).ok()) return 1;
  }

  // Laser serves the Dimensions table, fed from its own Scribe stream.
  auto dim_schema = Schema::Make({{"dim_id", ValueType::kInt64},
                                  {"language", ValueType::kString}});
  laser::LaserAppConfig dim_config;
  dim_config.name = "dimensions";
  dim_config.scribe_category = "dim_updates";
  dim_config.input_schema = dim_schema;
  dim_config.key_columns = {"dim_id"};
  dim_config.value_columns = {"language"};
  auto dimensions = laser::LaserApp::Create(dim_config, &bus, &clock,
                                            work_dir + "/laser");
  if (!dimensions.ok()) return 1;
  {
    TextRowCodec codec(dim_schema);
    const char* kLanguages[] = {"en", "es", "pt", "fr", "de"};
    for (int64_t id = 0; id < 50; ++id) {
      Row row(dim_schema, {Value(id), Value(kLanguages[id % 5])});
      (void)bus.Write("dim_updates", 0, codec.Encode(row));
    }
    if (!(*dimensions)->PollOnce().ok()) return 1;
  }

  ClassificationService classifier;

  // Wire the Stylus DAG.
  stylus::Pipeline pipeline(&bus, &clock);
  {
    stylus::NodeConfig filterer;
    filterer.name = "filterer";
    filterer.input_category = "incoming";
    filterer.input_schema = IncomingSchema();
    filterer.event_time_column = "event_time";
    filterer.stateless_factory = [] { return std::make_unique<Filterer>(); };
    filterer.backend = stylus::StateBackend::kNone;
    filterer.state_dir = work_dir + "/state";
    filterer.sink = std::make_shared<stylus::ScribeSink>(
        &bus, "filtered", FilteredSchema(),
        std::vector<std::string>{"dim_id"});
    if (!pipeline.AddNode(filterer).ok()) return 1;
  }
  {
    stylus::NodeConfig joiner;
    joiner.name = "joiner";
    joiner.input_category = "filtered";
    joiner.input_schema = FilteredSchema();
    joiner.event_time_column = "event_time";
    laser::LaserApp* dims = dimensions->get();
    ClassificationService* cls = &classifier;
    joiner.stateless_factory = [dims, cls] {
      return std::make_unique<Joiner>(dims, cls);
    };
    joiner.backend = stylus::StateBackend::kNone;
    joiner.state_dir = work_dir + "/state";
    joiner.sink = std::make_shared<stylus::ScribeSink>(
        &bus, "joined", JoinedSchema(),
        std::vector<std::string>{"event", "topic"});
    if (!pipeline.AddNode(joiner).ok()) return 1;
  }
  {
    stylus::NodeConfig scorer;
    scorer.name = "scorer";
    scorer.input_category = "joined";
    scorer.input_schema = JoinedSchema();
    scorer.event_time_column = "event_time";
    scorer.stateful_factory = [] { return std::make_unique<Scorer>(); };
    scorer.state_semantics = stylus::StateSemantics::kExactlyOnce;
    scorer.backend = stylus::StateBackend::kLocal;  // Fig 10: small state.
    scorer.state_dir = work_dir + "/state";
    scorer.sink = std::make_shared<stylus::ScribeSink>(
        &bus, "scored", ScoredSchema(), std::vector<std::string>{"topic"});
    if (!pipeline.AddNode(scorer).ok()) return 1;
  }

  // The Ranker: a Puma app over the scored stream.
  puma::PumaService puma_service(&bus, &clock, puma::PumaAppOptions{});
  auto diff = puma_service.SubmitApp(kRankerApp);
  if (!diff.ok() || !puma_service.AcceptDiff(*diff).ok()) return 1;
  puma::PumaApp* ranker = puma_service.GetApp("ranker");

  // Generate a morning of posts: #worldcup is bursting.
  {
    TextRowCodec codec(IncomingSchema());
    Rng rng(2016);
    const char* kTags[] = {"#worldcup", "#worldcup", "#worldcup",
                           "#election", "#oscars",   "#kernel",
                           "#worldcup", "#recipes"};
    for (int i = 0; i < 2000; ++i) {
      const bool is_post = rng.NextDouble() < 0.7;
      Row row(IncomingSchema(),
              {Value(clock.NowMicros()),
               Value(is_post ? "post" : "like"),
               Value(static_cast<int64_t>(rng.Uniform(50))),
               Value(std::string(kTags[rng.Uniform(8)]) + " " +
                     rng.NextString(24))});
      (void)bus.WriteSharded("incoming", std::to_string(i),
                             codec.Encode(row));
      clock.AdvanceMicros(200'000);  // 5 events/second.
    }
  }

  // Run the DAG to quiescence, then the Ranker.
  {
    auto drained = pipeline.RunUntilQuiescent();
    // Cancelled = a SIGTERM/SIGINT drain: a clean shutdown, not a failure.
    if (drained.status().IsCancelled()) return 0;
    if (!drained.ok()) return 1;
  }
  if (!puma_service.PollAll().ok()) return 1;

  // A consumer service queries the Ranker for the top events per topic.
  auto windows = ranker->Windows("top_events_5min");
  if (!windows.ok() || windows->empty()) return 1;
  printf("trending now (top 2 events per topic, last window):\n");
  auto top = ranker->QueryTopK("top_events_5min", windows->back(), 2);
  if (!top.ok()) return 1;
  for (const auto& row : *top) {
    printf("  %-10s %-14s score=%6.0f\n", row.group[0].ToString().c_str(),
           row.group[1].ToString().c_str(),
           row.aggregates[0].CoerceDouble());
  }

  // Operational color: lag monitoring and the external service load.
  printf("\nprocessing lag after quiescence:");
  for (const auto& report : pipeline.GetProcessingLag()) {
    printf(" %s/%d=%llu", report.node.c_str(), report.shard,
           static_cast<unsigned long long>(report.lag_messages));
  }
  printf("\nclassification RPCs: %llu, Laser queries: %llu (cache kept them "
         "low)\n",
         static_cast<unsigned long long>(classifier.calls()),
         static_cast<unsigned long long>(
             MetricsRegistry::Global()
                 ->GetCounter("laser.read.queries", dim_config.name)
                 ->value()));
  (void)RemoveAll(work_dir);
  return 0;
}
