// Tests for Puma: lexer, parser (including the paper's Figure 2 app),
// expression evaluation + UDFs, aggregate cells (monoid properties), the
// windowed aggregation engine, the streaming app with HBase checkpoints and
// crash recovery, filter streams, the query API, the review-gated deploy
// flow, and streaming-vs-batch equivalence.

#include <gtest/gtest.h>

#include <cmath>

#include "common/fs.h"
#include "common/rng.h"
#include "common/serde.h"
#include "puma/agg.h"
#include "puma/app.h"
#include "puma/batch.h"
#include "puma/compiled_expr.h"
#include "puma/lexer.h"
#include "puma/parser.h"
#include "storage/laser/laser.h"

namespace fbstream::puma {
namespace {

// The complete Puma app from the paper's Figure 2.
constexpr char kFigure2App[] = R"(
CREATE APPLICATION top_events;

CREATE INPUT TABLE events_score(
  event_time,
  event,
  category,
  score
)
FROM SCRIBE("events_stream")
TIME event_time;

CREATE TABLE top_events_5min AS
SELECT
  category,
  event,
  topk(score) AS score
FROM
  events_score [5 minutes]
)";

TEST(LexerTest, TokenKinds) {
  auto tokens = Tokenize("SELECT x, 42, 3.5, 'str' FROM t [5 minutes];");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[3].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[3].int_value, 42);
  EXPECT_EQ((*tokens)[5].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[5].double_value, 3.5);
  EXPECT_EQ((*tokens)[7].type, TokenType::kString);
  EXPECT_EQ((*tokens)[7].text, "str");
  EXPECT_EQ(tokens->back().type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("select Select SELECT");
  ASSERT_TRUE(tokens.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*tokens)[i].type, TokenType::kKeyword);
    EXPECT_EQ((*tokens)[i].text, "SELECT");
  }
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("x -- this is a comment\ny");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // x, y, end.
  EXPECT_EQ((*tokens)[1].text, "y");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("what@is").ok());
}

TEST(ParserTest, ParsesFigure2App) {
  auto spec = ParseApp(kFigure2App + std::string(";"));
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "top_events");
  ASSERT_EQ(spec->inputs.size(), 1u);
  EXPECT_EQ(spec->inputs[0].name, "events_score");
  EXPECT_EQ(spec->inputs[0].scribe_category, "events_stream");
  EXPECT_EQ(spec->inputs[0].time_column, "event_time");
  ASSERT_EQ(spec->inputs[0].columns.size(), 4u);

  ASSERT_EQ(spec->tables.size(), 1u);
  const CreateTableStmt& table = spec->tables[0];
  EXPECT_EQ(table.name, "top_events_5min");
  EXPECT_EQ(table.from, "events_score");
  EXPECT_EQ(table.window_micros, 5 * kMicrosPerMinute);
  ASSERT_EQ(table.items.size(), 3u);
  EXPECT_FALSE(table.items[0].is_aggregate);
  EXPECT_FALSE(table.items[1].is_aggregate);
  EXPECT_TRUE(table.items[2].is_aggregate);
  EXPECT_EQ(table.items[2].agg, AggFunction::kTopK);
  EXPECT_EQ(table.items[2].alias, "score");
  // Implicit group key from non-aggregate items.
  EXPECT_EQ(table.group_by, (std::vector<std::string>{"category", "event"}));
}

TEST(ParserTest, TypedColumnsAndWhereAndGroupBy) {
  auto spec = ParseApp(R"(
    CREATE APPLICATION app;
    CREATE INPUT TABLE t (ts BIGINT, name STRING, v DOUBLE)
      FROM SCRIBE("cat") TIME ts;
    CREATE TABLE agg AS
      SELECT name, count(*) AS n, sum(v) AS total
      FROM t [1 minutes]
      WHERE v > 0 AND NOT name = 'skip'
      GROUP BY name;
  )");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->inputs[0].columns[0].type, ValueType::kInt64);
  EXPECT_EQ(spec->inputs[0].columns[2].type, ValueType::kDouble);
  const CreateTableStmt& table = spec->tables[0];
  ASSERT_NE(table.where, nullptr);
  EXPECT_EQ(table.group_by, std::vector<std::string>{"name"});
  EXPECT_EQ(table.items[1].agg, AggFunction::kCount);
  EXPECT_EQ(table.items[2].agg, AggFunction::kSum);
}

TEST(ParserTest, StreamStatement) {
  auto spec = ParseApp(R"(
    CREATE APPLICATION filters;
    CREATE INPUT TABLE posts (ts, text) FROM SCRIBE("all_posts") TIME ts;
    CREATE STREAM superbowl AS
      SELECT ts, text FROM posts
      WHERE contains(text, '#superbowl') = 1
      EMIT TO SCRIBE("superbowl_posts");
  )");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->streams.size(), 1u);
  EXPECT_EQ(spec->streams[0].output_category, "superbowl_posts");
  ASSERT_NE(spec->streams[0].where, nullptr);
}

TEST(ParserTest, RejectsSemanticErrors) {
  // Unknown column.
  EXPECT_FALSE(ParseApp(R"(
    CREATE APPLICATION a;
    CREATE INPUT TABLE t (ts, x) FROM SCRIBE("c") TIME ts;
    CREATE TABLE out AS SELECT nosuch, count(*) AS n FROM t [1 minutes];
  )").ok());
  // TIME column missing from the input.
  EXPECT_FALSE(ParseApp(R"(
    CREATE APPLICATION a;
    CREATE INPUT TABLE t (x) FROM SCRIBE("c") TIME ts;
  )").ok());
  // Aggregates not allowed in streams.
  EXPECT_FALSE(ParseApp(R"(
    CREATE APPLICATION a;
    CREATE INPUT TABLE t (ts, x) FROM SCRIBE("c") TIME ts;
    CREATE STREAM s AS SELECT count(*) AS n FROM t EMIT TO SCRIBE("o");
  )").ok());
  // CREATE TABLE with no aggregate.
  EXPECT_FALSE(ParseApp(R"(
    CREATE APPLICATION a;
    CREATE INPUT TABLE t (ts, x) FROM SCRIBE("c") TIME ts;
    CREATE TABLE out AS SELECT x FROM t [1 minutes];
  )").ok());
  // Unknown source table.
  EXPECT_FALSE(ParseApp(R"(
    CREATE APPLICATION a;
    CREATE INPUT TABLE t (ts, x) FROM SCRIBE("c") TIME ts;
    CREATE TABLE out AS SELECT count(*) AS n FROM missing [1 minutes];
  )").ok());
}

TEST(ExprTest, ArithmeticAndComparison) {
  auto schema = Schema::Make({{"a", ValueType::kInt64},
                              {"b", ValueType::kDouble},
                              {"s", ValueType::kString}});
  Row row(schema, {Value(10), Value(2.5), Value("Hello")});

  auto eval = [&schema, &row](const std::string& source) {
    auto spec = ParseApp(
        "CREATE APPLICATION x; CREATE INPUT TABLE t (a, b, s) FROM "
        "SCRIBE(\"c\") TIME a; CREATE STREAM o AS SELECT " +
        source + " AS r FROM t EMIT TO SCRIBE(\"c\");");
    EXPECT_TRUE(spec.ok()) << spec.status();
    return CompiledExpr::Compile(*spec->streams[0].items[0].expr, schema)
        .Eval(row);
  };

  EXPECT_EQ(eval("a + 5").AsInt64(), 15);
  EXPECT_EQ(eval("a * 2 - 1").AsInt64(), 19);
  EXPECT_DOUBLE_EQ(eval("b * 4").AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(eval("a / 4").AsDouble(), 2.5);
  EXPECT_EQ(eval("a % 3").AsInt64(), 1);
  EXPECT_EQ(eval("a > 5").AsInt64(), 1);
  EXPECT_EQ(eval("a > 5 AND b < 2").AsInt64(), 0);
  EXPECT_EQ(eval("a > 5 OR b < 2").AsInt64(), 1);
  EXPECT_EQ(eval("NOT a > 5").AsInt64(), 0);
  EXPECT_EQ(eval("a != 10").AsInt64(), 0);
  EXPECT_EQ(eval("(a + 2) * 2").AsInt64(), 24);
}

TEST(ExprTest, BuiltinsAndUdfs) {
  auto schema = Schema::Make({{"s", ValueType::kString}});
  Row row(schema, {Value("Hello World")});

  Expr call;
  call.kind = ExprKind::kCall;
  call.function = "LOWER";
  auto col = std::make_shared<Expr>();
  col->kind = ExprKind::kColumn;
  col->column = "s";
  call.args.push_back(col);
  // Checked through the product evaluator: compiled once, then run per row.
  auto eval = [&schema, &row](const Expr& expr,
                              const UdfRegistry* udfs = nullptr) {
    return CompiledExpr::Compile(expr, schema, udfs).Eval(row);
  };
  EXPECT_EQ(eval(call).AsString(), "hello world");

  call.function = "LENGTH";
  EXPECT_EQ(eval(call).AsInt64(), 11);

  call.function = "CONTAINS";
  auto lit = std::make_shared<Expr>();
  lit->kind = ExprKind::kLiteral;
  lit->literal = Value("World");
  call.args.push_back(lit);
  EXPECT_EQ(eval(call).AsInt64(), 1);

  // User-defined function overrides.
  UdfRegistry registry;
  ASSERT_TRUE(registry
                  .Register("classify",
                            [](const std::vector<Value>& args) {
                              return Value(args[0].CoerceString().size() > 5
                                               ? "long"
                                               : "short");
                            })
                  .ok());
  Expr udf;
  udf.kind = ExprKind::kCall;
  udf.function = "CLASSIFY";
  udf.args.push_back(col);
  EXPECT_EQ(eval(udf, &registry).AsString(), "long");

  // UDFs cannot shadow aggregates.
  EXPECT_FALSE(registry.Register("sum", [](const std::vector<Value>&) {
    return Value();
  }).ok());
}

TEST(AggCellTest, FunctionsComputeCorrectly) {
  SelectItem item;
  AggCell count(AggFunction::kCount);
  AggCell sum(AggFunction::kSum);
  AggCell avg(AggFunction::kAvg);
  AggCell mn(AggFunction::kMin);
  AggCell mx(AggFunction::kMax);
  for (const double v : {3.0, 1.0, 4.0, 1.0, 5.0}) {
    count.UpdateCount();
    sum.Update(Value(v));
    avg.Update(Value(v));
    mn.Update(Value(v));
    mx.Update(Value(v));
  }
  EXPECT_EQ(count.Result(item).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(sum.Result(item).AsDouble(), 14.0);
  EXPECT_DOUBLE_EQ(avg.Result(item).AsDouble(), 2.8);
  EXPECT_DOUBLE_EQ(mn.Result(item).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(mx.Result(item).AsDouble(), 5.0);
}

TEST(AggCellTest, ApproxCountDistinct) {
  SelectItem item;
  AggCell uniques(AggFunction::kApproxCountDistinct);
  for (int i = 0; i < 10000; ++i) {
    uniques.Update(Value("user" + std::to_string(i % 2000)));
  }
  EXPECT_NEAR(uniques.Result(item).AsInt64(), 2000, 200);
}

TEST(AggCellTest, PercentileInterpolates) {
  SelectItem item;
  item.percentile = 0.5;
  AggCell p(AggFunction::kPercentile);
  for (int i = 1; i <= 99; ++i) p.Update(Value(double(i)));
  EXPECT_NEAR(p.Result(item).AsDouble(), 50.0, 0.01);
}

TEST(AggCellTest, MergeIsMonoid) {
  // Merging split streams equals processing the whole stream.
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.NextDouble() * 100);

  for (const AggFunction fn :
       {AggFunction::kCount, AggFunction::kSum, AggFunction::kMin,
        AggFunction::kMax, AggFunction::kAvg}) {
    AggCell whole(fn);
    AggCell left(fn);
    AggCell right(fn);
    for (size_t i = 0; i < values.size(); ++i) {
      whole.Update(Value(values[i]));
      (i < 100 ? left : right).Update(Value(values[i]));
    }
    left.Merge(right);
    SelectItem item;
    const double expected = whole.Result(item).CoerceDouble();
    // Summation order differs between the split and whole runs; allow
    // floating-point slack.
    EXPECT_NEAR(left.Result(item).CoerceDouble(), expected,
                1e-9 * std::max(1.0, std::abs(expected)))
        << static_cast<int>(fn);
  }
}

TEST(AggCellTest, SerializeRoundTrip) {
  AggCell cell(AggFunction::kSum);
  for (int i = 0; i < 10; ++i) cell.Update(Value(i * 1.5));
  std::string data;
  cell.Serialize(&data);
  std::string_view view(data);
  auto back = AggCell::Deserialize(&view);
  ASSERT_TRUE(back.ok());
  SelectItem item;
  EXPECT_DOUBLE_EQ(back->Result(item).AsDouble(),
                   cell.Result(item).AsDouble());
  EXPECT_TRUE(view.empty());
}

// ---------------------------------------------------------------------------
// End-to-end app tests.

class PumaAppTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("puma");
    scribe_ = std::make_unique<scribe::Scribe>(&clock_);
    scribe::CategoryConfig in;
    in.name = "events_stream";
    in.num_buckets = 2;
    ASSERT_TRUE(scribe_->CreateCategory(in).ok());
    zippydb::ClusterOptions zopt;
    zopt.simulate_latency = false;
    auto cluster = zippydb::Cluster::Open(zopt, dir_ + "/hbase");
    ASSERT_TRUE(cluster.ok());
    hbase_ = std::move(cluster).value();
  }
  void TearDown() override { ASSERT_TRUE(RemoveAll(dir_).ok()); }

  PumaAppOptions Options() {
    PumaAppOptions options;
    options.hbase = hbase_.get();
    return options;
  }

  // Writes an events_score row (schema of Figure 2).
  void WriteEvent(Micros event_time, const std::string& event,
                  const std::string& category, int64_t score) {
    auto schema = Schema::Make({{"event_time", ValueType::kInt64},
                                {"event", ValueType::kString},
                                {"category", ValueType::kString},
                                {"score", ValueType::kInt64}});
    TextRowCodec codec(schema);
    Row row(schema,
            {Value(event_time), Value(event), Value(category), Value(score)});
    ASSERT_TRUE(
        scribe_->WriteSharded("events_stream", event, codec.Encode(row)).ok());
  }

  SimClock clock_{1};
  std::string dir_;
  std::unique_ptr<scribe::Scribe> scribe_;
  std::unique_ptr<zippydb::Cluster> hbase_;
};

TEST_F(PumaAppTest, Figure2EndToEnd) {
  auto spec = ParseApp(kFigure2App + std::string(";"));
  ASSERT_TRUE(spec.ok());
  auto app = PumaApp::Create(std::move(spec).value(), scribe_.get(), &clock_,
                             Options());
  ASSERT_TRUE(app.ok()) << app.status();

  // Two 5-minute windows of scores.
  const Micros w0 = 0;
  const Micros w1 = 5 * kMicrosPerMinute;
  WriteEvent(w0 + 1, "game", "sports", 10);
  WriteEvent(w0 + 2, "game", "sports", 5);
  WriteEvent(w0 + 3, "election", "politics", 50);
  WriteEvent(w1 + 1, "movie", "arts", 7);

  auto n = (*app)->PollOnce();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);

  auto rows = (*app)->QueryWindow("top_events_5min", w0);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);  // (politics, election), (sports, game).
  auto windows = (*app)->Windows("top_events_5min");
  ASSERT_TRUE(windows.ok());
  EXPECT_EQ(*windows, (std::vector<Micros>{w0, w1}));

  // topk(score) accumulated per (category, event).
  for (const PumaResultRow& row : *rows) {
    if (row.group[1].ToString() == "game") {
      EXPECT_DOUBLE_EQ(row.aggregates[0].CoerceDouble(), 15.0);
    } else {
      EXPECT_DOUBLE_EQ(row.aggregates[0].CoerceDouble(), 50.0);
    }
  }
}

TEST_F(PumaAppTest, TopKRanksPerCategory) {
  auto spec = ParseApp(kFigure2App + std::string(";"));
  ASSERT_TRUE(spec.ok());
  auto app = PumaApp::Create(std::move(spec).value(), scribe_.get(), &clock_,
                             Options());
  ASSERT_TRUE(app.ok());
  for (int e = 0; e < 10; ++e) {
    WriteEvent(1, "event" + std::to_string(e), "sports", 10 * (e + 1));
    WriteEvent(2, "event" + std::to_string(e), "politics", 5 * (e + 1));
  }
  ASSERT_TRUE((*app)->PollOnce().ok());
  auto top = (*app)->QueryTopK("top_events_5min", 0, 3);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 6u);  // Top 3 per category.
  // Within each category the rows are score-descending.
  EXPECT_EQ((*top)[0].group[0].ToString(), "politics");
  EXPECT_EQ((*top)[0].group[1].ToString(), "event9");
  EXPECT_GE((*top)[0].aggregates[0].CoerceDouble(),
            (*top)[1].aggregates[0].CoerceDouble());
}

TEST_F(PumaAppTest, TopKUsesDeclaredK) {
  auto spec = ParseApp(R"(
    CREATE APPLICATION k2;
    CREATE INPUT TABLE events_score (event_time BIGINT, event, category,
                                     score BIGINT)
      FROM SCRIBE("events_stream") TIME event_time;
    CREATE TABLE top2 AS
      SELECT category, event, topk(score, 2) AS score
      FROM events_score [5 minutes];
  )");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->tables[0].items[2].topk_k, 2);
  auto app = PumaApp::Create(std::move(spec).value(), scribe_.get(), &clock_,
                             Options());
  ASSERT_TRUE(app.ok());
  for (int e = 0; e < 5; ++e) {
    WriteEvent(1, "e" + std::to_string(e), "cat", 10 * (e + 1));
  }
  ASSERT_TRUE((*app)->PollOnce().ok());
  auto top = (*app)->QueryTopK("top2", 0);  // K from the declaration.
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 2u);
  EXPECT_EQ((*top)[0].group[1].ToString(), "e4");
}

TEST_F(PumaAppTest, WindowFinality) {
  auto spec = ParseApp(kFigure2App + std::string(";"));
  ASSERT_TRUE(spec.ok());
  auto app = PumaApp::Create(std::move(spec).value(), scribe_.get(), &clock_,
                             Options());
  ASSERT_TRUE(app.ok());
  WriteEvent(1, "e", "c", 1);
  ASSERT_TRUE((*app)->PollOnce().ok());
  auto final0 = (*app)->IsWindowFinal("top_events_5min", 0);
  ASSERT_TRUE(final0.ok());
  EXPECT_FALSE(*final0);  // Event time has not passed the window end.
  WriteEvent(7 * kMicrosPerMinute, "e", "c", 1);
  ASSERT_TRUE((*app)->PollOnce().ok());
  final0 = (*app)->IsWindowFinal("top_events_5min", 0);
  ASSERT_TRUE(final0.ok());
  EXPECT_TRUE(*final0);
}

TEST_F(PumaAppTest, CrashRecoveryViaHBaseIsAtLeastOnce) {
  auto spec = ParseApp(kFigure2App + std::string(";"));
  ASSERT_TRUE(spec.ok());
  auto app = PumaApp::Create(std::move(spec).value(), scribe_.get(), &clock_,
                             Options());
  ASSERT_TRUE(app.ok());
  for (int i = 0; i < 100; ++i) WriteEvent(i, "e", "c", 1);
  ASSERT_TRUE((*app)->PollOnce().ok());

  (*app)->Crash();
  EXPECT_FALSE((*app)->alive());
  EXPECT_FALSE((*app)->PollOnce().ok());
  ASSERT_TRUE((*app)->Recover().ok());

  // State and offsets restored: no events lost, none double counted (the
  // checkpoint completed cleanly).
  auto rows = (*app)->QueryWindow("top_events_5min", 0);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_DOUBLE_EQ((*rows)[0].aggregates[0].CoerceDouble(), 100.0);

  // And processing continues from the checkpointed offsets.
  for (int i = 0; i < 50; ++i) WriteEvent(i, "e", "c", 1);
  ASSERT_TRUE((*app)->PollOnce().ok());
  rows = (*app)->QueryWindow("top_events_5min", 0);
  ASSERT_TRUE(rows.ok());
  EXPECT_DOUBLE_EQ((*rows)[0].aggregates[0].CoerceDouble(), 150.0);
}

TEST_F(PumaAppTest, FilterStreamEmitsToScribe) {
  scribe::CategoryConfig out;
  out.name = "superbowl_posts";
  ASSERT_TRUE(scribe_->CreateCategory(out).ok());
  auto spec = ParseApp(R"(
    CREATE APPLICATION filters;
    CREATE INPUT TABLE posts (event_time, event, category, score)
      FROM SCRIBE("events_stream") TIME event_time;
    CREATE STREAM superbowl AS
      SELECT event_time, event FROM posts
      WHERE contains(event, 'superbowl') = 1
      EMIT TO SCRIBE("superbowl_posts");
  )");
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto app = PumaApp::Create(std::move(spec).value(), scribe_.get(), &clock_,
                             Options());
  ASSERT_TRUE(app.ok()) << app.status();
  WriteEvent(1, "#superbowl party", "tv", 1);
  WriteEvent(2, "cats", "pets", 1);
  WriteEvent(3, "more #superbowl", "tv", 1);
  ASSERT_TRUE((*app)->PollOnce().ok());

  size_t emitted = 0;
  for (int b = 0; b < scribe_->NumBuckets("superbowl_posts"); ++b) {
    auto messages = scribe_->Read("superbowl_posts", b, 0, 100);
    ASSERT_TRUE(messages.ok());
    emitted += messages->size();
  }
  EXPECT_EQ(emitted, 2u);
}

TEST_F(PumaAppTest, ServiceReviewGateDeploysApps) {
  PumaService service(scribe_.get(), &clock_, Options());
  auto diff = service.SubmitApp(kFigure2App + std::string(";"));
  ASSERT_TRUE(diff.ok()) << diff.status();
  // Not deployed until the diff is accepted.
  EXPECT_EQ(service.GetApp("top_events"), nullptr);
  EXPECT_EQ(service.pending_diffs(), 1);

  ASSERT_TRUE(service.AcceptDiff(*diff).ok());
  ASSERT_NE(service.GetApp("top_events"), nullptr);
  EXPECT_EQ(service.pending_diffs(), 0);

  WriteEvent(1, "e", "c", 3);
  ASSERT_TRUE(service.PollAll().ok());
  auto rows = service.GetApp("top_events")->QueryWindow("top_events_5min", 0);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);

  // Rejection path.
  auto diff2 = service.SubmitApp(
      "CREATE APPLICATION other; CREATE INPUT TABLE t (ts) FROM "
      "SCRIBE(\"events_stream\") TIME ts;");
  ASSERT_TRUE(diff2.ok());
  ASSERT_TRUE(service.RejectDiff(*diff2).ok());
  EXPECT_EQ(service.GetApp("other"), nullptr);

  ASSERT_TRUE(service.DeleteApp("top_events").ok());
  EXPECT_EQ(service.GetApp("top_events"), nullptr);
}

TEST_F(PumaAppTest, BadQueriesReturnNotFound) {
  auto spec = ParseApp(kFigure2App + std::string(";"));
  ASSERT_TRUE(spec.ok());
  auto app = PumaApp::Create(std::move(spec).value(), scribe_.get(), &clock_,
                             Options());
  ASSERT_TRUE(app.ok());
  EXPECT_TRUE((*app)->QueryWindow("nope", 0).status().IsNotFound());
  EXPECT_TRUE((*app)->Windows("nope").status().IsNotFound());
}

TEST_F(PumaAppTest, StreamingAndBatchAgree) {
  // §4.5.2: the same app code runs over Hive for backfill; results match.
  auto spec = ParseApp(R"(
    CREATE APPLICATION counts;
    CREATE INPUT TABLE events_score (event_time, event, category, score)
      FROM SCRIBE("events_stream") TIME event_time;
    CREATE TABLE by_category AS
      SELECT category, count(*) AS n, sum(score) AS total
      FROM events_score [1 minutes];
  )");
  ASSERT_TRUE(spec.ok()) << spec.status();

  // Generate one dataset; send to Scribe and archive in Hive.
  hive::Hive hive(dir_ + "/hive");
  auto schema = Schema::Make({{"event_time", ValueType::kInt64},
                              {"event", ValueType::kString},
                              {"category", ValueType::kString},
                              {"score", ValueType::kInt64}});
  ASSERT_TRUE(hive.CreateTable("events_archive", schema).ok());
  Rng rng(99);
  std::vector<Row> archive;
  for (int i = 0; i < 500; ++i) {
    const Micros t = static_cast<Micros>(rng.Uniform(10)) * kMicrosPerMinute +
                     static_cast<Micros>(rng.Uniform(60)) * kMicrosPerSecond;
    Row row(schema, {Value(t), Value("e" + std::to_string(rng.Uniform(5))),
                     Value("cat" + std::to_string(rng.Uniform(4))),
                     Value(static_cast<int64_t>(rng.Uniform(100)))});
    archive.push_back(row);
    TextRowCodec codec(schema);
    ASSERT_TRUE(scribe_->WriteSharded("events_stream",
                                      row.Get("event").ToString(),
                                      codec.Encode(row))
                    .ok());
  }
  ASSERT_TRUE(hive.WritePartition("events_archive", "2016-01-01", archive)
                  .ok());
  ASSERT_TRUE(hive.LandPartition("events_archive", "2016-01-01").ok());

  // Streaming.
  AppSpec spec_copy = *spec;
  auto app = PumaApp::Create(std::move(spec_copy), scribe_.get(), &clock_,
                             Options());
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE((*app)->PollOnce().ok());

  // Batch over Hive (same spec).
  auto batch = RunAppOverHive(*spec, hive,
                              {{"events_score", "events_archive"}},
                              {"2016-01-01"});
  ASSERT_TRUE(batch.ok()) << batch.status();

  const auto& batch_rows = batch->tables.at("by_category");
  // Compare every (window, category) cell.
  size_t compared = 0;
  auto windows = (*app)->Windows("by_category");
  ASSERT_TRUE(windows.ok());
  for (const Micros w : *windows) {
    auto streaming_rows = (*app)->QueryWindow("by_category", w);
    ASSERT_TRUE(streaming_rows.ok());
    for (const PumaResultRow& srow : *streaming_rows) {
      bool found = false;
      for (const PumaResultRow& brow : batch_rows) {
        if (brow.window_start == srow.window_start &&
            brow.group == srow.group) {
          EXPECT_EQ(brow.aggregates[0].CoerceInt64(),
                    srow.aggregates[0].CoerceInt64());
          EXPECT_DOUBLE_EQ(brow.aggregates[1].CoerceDouble(),
                           srow.aggregates[1].CoerceDouble());
          found = true;
          ++compared;
          break;
        }
      }
      EXPECT_TRUE(found) << "missing batch cell";
    }
  }
  EXPECT_EQ(compared, batch_rows.size());
  EXPECT_GT(compared, 10u);
}


TEST_F(PumaAppTest, LaserLookupJoinEnrichesRows) {
  // §2.5: "Laser can also make the result of a complex Hive query or a
  // Scribe stream available to a Puma or Stylus app, usually for a lookup
  // join, such as identifying the topic for a given hashtag."
  scribe::CategoryConfig dim;
  dim.name = "hashtag_topics";
  ASSERT_TRUE(scribe_->CreateCategory(dim).ok());

  laser::Laser laser_service(scribe_.get(), &clock_, dir_ + "/laser");
  auto topic_schema = Schema::Make(
      {{"hashtag", ValueType::kString}, {"topic", ValueType::kString}});
  laser::LaserAppConfig laser_config;
  laser_config.name = "topics";
  laser_config.scribe_category = "hashtag_topics";
  laser_config.input_schema = topic_schema;
  laser_config.key_columns = {"hashtag"};
  laser_config.value_columns = {"topic"};
  ASSERT_TRUE(laser_service.DeployApp(laser_config).ok());
  {
    TextRowCodec codec(topic_schema);
    Row a(topic_schema, {Value("#worldcup"), Value("sports")});
    Row b(topic_schema, {Value("#oscars"), Value("arts")});
    ASSERT_TRUE(scribe_->Write("hashtag_topics", 0, codec.Encode(a)).ok());
    ASSERT_TRUE(scribe_->Write("hashtag_topics", 0, codec.Encode(b)).ok());
    laser_service.PollAll();
  }

  // The input declares the joined column `topic`; the raw stream only
  // carries the first three columns.
  auto spec = ParseApp(R"(
    CREATE APPLICATION joined;
    CREATE INPUT TABLE posts (event_time BIGINT, hashtag, score BIGINT,
                              topic)
      FROM SCRIBE("events_stream") TIME event_time
      JOIN LASER("topics") ON hashtag;
    CREATE TABLE per_topic AS
      SELECT topic, count(*) AS n, sum(score) AS total
      FROM posts [5 minutes];
  )");
  ASSERT_TRUE(spec.ok()) << spec.status();
  PumaAppOptions options = Options();
  options.laser = &laser_service;
  auto app = PumaApp::Create(std::move(spec).value(), scribe_.get(), &clock_,
                             options);
  ASSERT_TRUE(app.ok()) << app.status();

  auto post_schema = Schema::Make({{"event_time", ValueType::kInt64},
                                   {"hashtag", ValueType::kString},
                                   {"score", ValueType::kInt64}});
  TextRowCodec codec(post_schema);
  const std::pair<const char*, int> kPosts[] = {
      {"#worldcup", 10}, {"#worldcup", 20}, {"#oscars", 5}, {"#unknown", 7}};
  for (const auto& [hashtag, score] : kPosts) {
    Row row(post_schema, {Value(1), Value(hashtag), Value(score)});
    ASSERT_TRUE(
        scribe_->WriteSharded("events_stream", hashtag, codec.Encode(row))
            .ok());
  }
  ASSERT_TRUE((*app)->PollOnce().ok());

  auto rows = (*app)->QueryWindow("per_topic", 0);
  ASSERT_TRUE(rows.ok());
  std::map<std::string, std::pair<int64_t, double>> by_topic;
  for (const PumaResultRow& row : *rows) {
    by_topic[row.group[0].ToString()] = {row.aggregates[0].CoerceInt64(),
                                         row.aggregates[1].CoerceDouble()};
  }
  ASSERT_EQ(by_topic.count("sports"), 1u);
  EXPECT_EQ(by_topic["sports"].first, 2);
  EXPECT_DOUBLE_EQ(by_topic["sports"].second, 30.0);
  EXPECT_EQ(by_topic["arts"].first, 1);
  // Unmatched lookups keep a null topic (grouped under "NULL").
  ASSERT_EQ(by_topic.count("NULL"), 1u);
  EXPECT_DOUBLE_EQ(by_topic["NULL"].second, 7.0);
}

TEST_F(PumaAppTest, LaserJoinValidation) {
  // Key column must be declared.
  EXPECT_FALSE(ParseApp(R"(
    CREATE APPLICATION a;
    CREATE INPUT TABLE t (ts, x) FROM SCRIBE("c") TIME ts
      JOIN LASER("app") ON missing_col;
  )").ok());
  // Declared join needs a Laser service at create time.
  auto spec = ParseApp(R"(
    CREATE APPLICATION a;
    CREATE INPUT TABLE t (event_time, x) FROM SCRIBE("events_stream")
      TIME event_time JOIN LASER("nope") ON x;
  )");
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto app = PumaApp::Create(std::move(spec).value(), scribe_.get(), &clock_,
                             Options());
  EXPECT_FALSE(app.ok());
}

}  // namespace
}  // namespace fbstream::puma
