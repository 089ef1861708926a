// Tests for the parallel query/serving layer: block-parallel Scuba scans
// (parallel == serial, queries concurrent with ingest and retention),
// compiled Puma expressions (randomized differential against the
// interpreter), the Laser lock-free read path under compaction churn, and
// the query-layer bugfix sweep (percentile/TOPK validation, parser errors).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "common/fs.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/shard_executor.h"
#include "puma/compiled_expr.h"
#include "puma/expr_parser.h"
#include "puma/lexer.h"
#include "puma/parser.h"
#include "storage/laser/laser.h"
#include "storage/scuba/scuba.h"
#include "support/puma_interpreter.h"

namespace fbstream {
namespace {

// ---------------------------------------------------------------------------
// Scuba: block-parallel execution.

using scuba::AggKind;
using scuba::FilterOp;
using scuba::Query;
using scuba::QueryResult;
using scuba::ScubaTable;

SchemaPtr EventSchema() {
  return Schema::Make({{"time", ValueType::kInt64},
                       {"app", ValueType::kString},
                       {"metric", ValueType::kString},
                       {"value", ValueType::kDouble},
                       {"user", ValueType::kString}});
}

Row MakeEvent(const SchemaPtr& schema, int64_t time, const std::string& app,
              const std::string& metric, double value,
              const std::string& user = "u") {
  return Row(schema,
             {Value(time), Value(app), Value(metric), Value(value),
              Value(user)});
}

// Deterministic workload spanning many blocks (> kBlockRows rows). Values
// are integers (exactly representable), so parallel partial sums must be
// bit-equal to the serial fold.
void FillTable(ScubaTable* table, size_t rows) {
  Rng rng(7);
  const SchemaPtr& schema = table->schema();
  for (size_t i = 0; i < rows; ++i) {
    table->AddRow(MakeEvent(
        schema, static_cast<int64_t>(i * 1000),
        "app-" + std::to_string(rng.Uniform(5)),
        rng.Bernoulli(0.5) ? "load" : "crash",
        static_cast<double>(rng.Uniform(1000)),
        "user-" + std::to_string(rng.Uniform(200))));
  }
}

std::vector<Query> RepresentativeQueries() {
  std::vector<Query> queries;
  {
    Query q;  // Plain grouped count.
    q.group_by = {"app"};
    q.aggregates.push_back({AggKind::kCount, "", 0});
    queries.push_back(q);
  }
  {
    Query q;  // Filter + multi-aggregate.
    q.filters.push_back({"metric", FilterOp::kEq, Value("load")});
    q.group_by = {"app"};
    q.aggregates.push_back({AggKind::kSum, "value", 0});
    q.aggregates.push_back({AggKind::kMin, "value", 0});
    q.aggregates.push_back({AggKind::kMax, "value", 0});
    q.aggregates.push_back({AggKind::kAvg, "value", 0});
    queries.push_back(q);
  }
  {
    Query q;  // Time series with limit.
    q.time_column = "time";
    q.bucket_micros = 1'000'000;
    q.group_by = {"app"};
    q.aggregates.push_back({AggKind::kCount, "", 0});
    q.limit = 3;
    queries.push_back(q);
  }
  {
    Query q;  // Percentile (order-sensitive merge) and uniques (HLL merge).
    q.group_by = {"metric"};
    q.aggregates.push_back({AggKind::kPercentile, "value", 0.9});
    q.aggregates.push_back({AggKind::kUniques, "user", 0});
    queries.push_back(q);
  }
  return queries;
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].bucket, b.rows[i].bucket);
    ASSERT_EQ(a.rows[i].group.size(), b.rows[i].group.size());
    for (size_t g = 0; g < a.rows[i].group.size(); ++g) {
      EXPECT_EQ(a.rows[i].group[g].ToString(), b.rows[i].group[g].ToString());
    }
    ASSERT_EQ(a.rows[i].aggregates.size(), b.rows[i].aggregates.size());
    for (size_t v = 0; v < a.rows[i].aggregates.size(); ++v) {
      // Bit-equality, not approximate: the parallel merge must reproduce
      // the serial fold exactly on this integer-valued workload.
      EXPECT_EQ(a.rows[i].aggregates[v], b.rows[i].aggregates[v])
          << "row " << i << " aggregate " << v;
    }
  }
}

TEST(ScubaParallelTest, ParallelMatchesSerialExactly) {
  ShardExecutor pool(4);
  ScubaTable serial("events", EventSchema());
  ScubaTable parallel("events", EventSchema());
  parallel.set_query_pool(&pool);
  FillTable(&serial, 3 * ScubaTable::kBlockRows + 123);
  FillTable(&parallel, 3 * ScubaTable::kBlockRows + 123);

  for (const Query& q : RepresentativeQueries()) {
    auto a = serial.Run(q);
    auto b = parallel.Run(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ExpectSameResult(*a, *b);
  }
}

TEST(ScubaParallelTest, PoolSmallerThanBlockCount) {
  ShardExecutor pool(2);
  ScubaTable serial("events", EventSchema());
  ScubaTable parallel("events", EventSchema());
  parallel.set_query_pool(&pool);
  FillTable(&serial, 6 * ScubaTable::kBlockRows);
  FillTable(&parallel, 6 * ScubaTable::kBlockRows);
  Query q;
  q.group_by = {"app"};
  q.aggregates.push_back({AggKind::kSum, "value", 0});
  auto a = serial.Run(q);
  auto b = parallel.Run(q);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectSameResult(*a, *b);
}

TEST(ScubaParallelTest, QueriesDuringIngestSeeConsistentPrefix) {
  ShardExecutor pool(4);
  ScubaTable table("events", EventSchema());
  table.set_query_pool(&pool);
  const SchemaPtr schema = table.schema();

  constexpr size_t kRows = 20'000;
  std::atomic<size_t> published{0};
  std::thread writer([&] {
    for (size_t i = 0; i < kRows; ++i) {
      table.AddRow(MakeEvent(schema, static_cast<int64_t>(i), "app", "m", 1));
      published.store(i + 1, std::memory_order_release);
    }
  });

  Query q;
  q.aggregates.push_back({AggKind::kCount, "", 0});
  q.aggregates.push_back({AggKind::kSum, "value", 0});
  uint64_t last_count = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const size_t floor = published.load(std::memory_order_acquire);
    auto result = table.Run(q);
    ASSERT_TRUE(result.ok());
    if (result->rows.empty()) continue;
    const double count = result->rows[0].aggregates[0];
    const double sum = result->rows[0].aggregates[1];
    // Every row carries value 1, so sum == count exactly when the query saw
    // a consistent prefix of published rows.
    EXPECT_EQ(count, sum);
    // Monotone: a later query can't see fewer rows...
    EXPECT_GE(count, static_cast<double>(last_count));
    // ...and sees at least everything published before it started.
    EXPECT_GE(count, static_cast<double>(floor));
    last_count = static_cast<uint64_t>(count);
  }
  writer.join();
  auto final_result = table.Run(q);
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(final_result->rows[0].aggregates[0], static_cast<double>(kRows));
}

TEST(ScubaParallelTest, ExpireDuringQueriesKeepsSnapshots) {
  ShardExecutor pool(2);
  ScubaTable table("events", EventSchema());
  table.set_query_pool(&pool);
  FillTable(&table, 2 * ScubaTable::kBlockRows);
  const size_t total = table.num_rows();

  std::atomic<bool> stop{false};
  std::thread reaper([&] {
    Micros horizon = 0;
    while (!stop.load()) {
      horizon += 1000 * 200;  // 200 rows per sweep.
      table.ExpireBefore("time", horizon);
    }
  });

  Query q;
  q.aggregates.push_back({AggKind::kCount, "", 0});
  for (int iter = 0; iter < 100; ++iter) {
    auto result = table.Run(q);
    ASSERT_TRUE(result.ok());
    const double count =
        result->rows.empty() ? 0 : result->rows[0].aggregates[0];
    EXPECT_LE(count, static_cast<double>(total));
  }
  stop.store(true);
  reaper.join();
}

TEST(ScubaParallelTest, ExpireBeforeDropsOnlyOldRows) {
  ScubaTable table("events", EventSchema());
  for (int i = 0; i < 100; ++i) {
    table.AddRow(MakeEvent(table.schema(), i, "app", "m", 1));
  }
  EXPECT_EQ(table.ExpireBefore("time", 40), 40u);
  EXPECT_EQ(table.num_rows(), 60u);
  Query q;
  q.aggregates.push_back({AggKind::kMin, "time", 0});
  auto result = table.Run(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0].aggregates[0], 40.0);
}

TEST(ScubaParallelTest, PercentileBoundsAreValidated) {
  ScubaTable table("events", EventSchema());
  table.AddRow(MakeEvent(table.schema(), 1, "a", "m", 1));
  for (const double bad : {-0.1, 1.5}) {
    Query q;
    q.aggregates.push_back({AggKind::kPercentile, "value", bad});
    auto result = table.Run(q);
    EXPECT_FALSE(result.ok()) << "percentile " << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  // The boundaries themselves are legal.
  for (const double ok : {0.0, 1.0}) {
    Query q;
    q.aggregates.push_back({AggKind::kPercentile, "value", ok});
    EXPECT_TRUE(table.Run(q).ok());
  }
}

TEST(ScubaParallelTest, EmptyTableAndTypeMismatchedFilters) {
  ShardExecutor pool(2);
  ScubaTable table("events", EventSchema());
  table.set_query_pool(&pool);
  Query q;
  q.group_by = {"app"};
  q.aggregates.push_back({AggKind::kSum, "value", 0});
  auto empty = table.Run(q);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->rows.empty());
  EXPECT_EQ(empty->rows_scanned, 0u);

  // Comparing a string column against an int operand uses the total order
  // (numbers sort before strings) — not a crash, not a match.
  table.AddRow(MakeEvent(table.schema(), 1, "fb4a", "m", 1));
  Query mismatch;
  mismatch.filters.push_back({"app", FilterOp::kLt, Value(int64_t{42})});
  mismatch.aggregates.push_back({AggKind::kCount, "", 0});
  auto result = table.Run(mismatch);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());

  // Aggregating a string column coerces (non-numeric -> 0), like serial.
  Query strsum;
  strsum.aggregates.push_back({AggKind::kSum, "app", 0});
  auto sum = table.Run(strsum);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->rows[0].aggregates[0], 0.0);
}

// ---------------------------------------------------------------------------
// Puma: compiled expressions vs the interpreter.

namespace pexpr {

using puma::CompiledExpr;
using puma::Expr;
using puma::ExprKind;
using puma::ExprPtr;
using puma::BinaryOp;

ExprPtr Lit(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Col(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumn;
  e->column = std::move(name);
  return e;
}

ExprPtr Bin(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

ExprPtr Not(ExprPtr operand) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kUnaryNot;
  e->left = std::move(operand);
  return e;
}

ExprPtr Call(std::string fn, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCall;
  e->function = std::move(fn);
  e->args = std::move(args);
  return e;
}

// Bit-identical value equality: same type, and for doubles the same bits
// (operator== would call 1 == 1.0 equal, which is too weak here).
bool BitIdentical(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(double)) == 0;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

// Random expression over columns {i, d, s, n} (int, double, string, always-
// null) plus a sometimes-referenced missing column, all builtins, and an
// unknown function.
ExprPtr RandomExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->Bernoulli(0.3)) {
    switch (rng->Uniform(8)) {
      case 0:
        return Lit(Value(rng->UniformRange(-100, 100)));
      case 1:
        return Lit(Value(static_cast<double>(rng->UniformRange(-50, 50)) / 4));
      case 2:
        return Lit(Value(rng->NextString(3)));
      case 3:
        return Lit(Value());  // NULL literal.
      case 4:
        return Col("i");
      case 5:
        return Col("d");
      case 6:
        return Col("s");
      default:
        return rng->Bernoulli(0.5) ? Col("n") : Col("missing_col");
    }
  }
  switch (rng->Uniform(4)) {
    case 0: {
      static const BinaryOp kOps[] = {
          BinaryOp::kAnd, BinaryOp::kOr, BinaryOp::kEq, BinaryOp::kNe,
          BinaryOp::kLt,  BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe,
          BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
          BinaryOp::kMod};
      const BinaryOp op = kOps[rng->Uniform(std::size(kOps))];
      return Bin(op, RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
    }
    case 1:
      return Not(RandomExpr(rng, depth - 1));
    case 2: {
      struct Fn {
        const char* name;
        size_t arity;
      };
      static const Fn kFns[] = {{"LOWER", 1},    {"UPPER", 1},
                                {"LENGTH", 1},   {"CONCAT", 2},
                                {"CONTAINS", 2}, {"SUBSTR", 3},
                                {"IF", 3},       {"ABS", 1},
                                {"ROUND", 1},    {"NO_SUCH_FN", 2}};
      const Fn& fn = kFns[rng->Uniform(std::size(kFns))];
      std::vector<ExprPtr> args;
      for (size_t i = 0; i < fn.arity; ++i) {
        args.push_back(RandomExpr(rng, depth - 1));
      }
      return Call(fn.name, std::move(args));
    }
    default:
      return RandomExpr(rng, depth - 1);
  }
}

TEST(CompiledExprTest, RandomizedDifferentialAgainstInterpreter) {
  const SchemaPtr schema = Schema::Make({{"i", ValueType::kInt64},
                                         {"d", ValueType::kDouble},
                                         {"s", ValueType::kString},
                                         {"n", ValueType::kString}});
  Rng rng(20260809);
  for (int round = 0; round < 2000; ++round) {
    const ExprPtr expr = RandomExpr(&rng, 4);
    const CompiledExpr compiled = CompiledExpr::Compile(*expr, schema);
    for (int r = 0; r < 5; ++r) {
      Row row(schema, {Value(rng.UniformRange(-1000, 1000)),
                       Value(rng.NextDouble() * 100 - 50),
                       Value(rng.NextString(4)), Value()});
      const Value expect = puma::EvalExpr(*expr, row);
      const Value got = compiled.Eval(row);
      ASSERT_TRUE(BitIdentical(expect, got))
          << "expr " << expr->ToString() << " interp=" << expect.ToString()
          << " compiled=" << got.ToString();
      ASSERT_EQ(puma::EvalPredicate(*expr, row), compiled.EvalBool(row));
    }
  }
}

TEST(CompiledExprTest, RowWithForeignSchemaFallsBackToNameLookup) {
  const SchemaPtr declared = Schema::Make({{"a", ValueType::kInt64},
                                           {"b", ValueType::kInt64}});
  // Same column names, different order: index shortcuts would read the
  // wrong cell if the compiled closure ignored the row's actual schema.
  const SchemaPtr reordered = Schema::Make({{"b", ValueType::kInt64},
                                            {"a", ValueType::kInt64}});
  const ExprPtr expr =
      Bin(puma::BinaryOp::kSub, Col("a"), Col("b"));
  const CompiledExpr compiled = CompiledExpr::Compile(*expr, declared);
  Row row(reordered, {Value(int64_t{7}), Value(int64_t{100})});
  EXPECT_TRUE(BitIdentical(puma::EvalExpr(*expr, row), compiled.Eval(row)));
  EXPECT_EQ(compiled.Eval(row).AsInt64(), 93);  // a=100, b=7.
}

TEST(CompiledExprTest, ConstantFoldingIsPureOnly) {
  const SchemaPtr schema = Schema::Make({{"x", ValueType::kInt64}});
  // Pure builtin over constants folds.
  const ExprPtr folded = Call("LENGTH", {Lit(Value("hello"))});
  const CompiledExpr c1 = CompiledExpr::Compile(*folded, schema);
  EXPECT_TRUE(c1.is_constant());
  EXPECT_EQ(c1.Eval(Row(schema, {Value(int64_t{0})})).AsInt64(), 5);

  // A UDF call never folds, even over constants: it may be stateful.
  puma::UdfRegistry udfs;
  ASSERT_TRUE(udfs.Register("TICKER", [](const std::vector<Value>&) {
                     static int64_t calls = 0;
                     return Value(++calls);
                   })
                  .ok());
  const ExprPtr udf_call = Call("TICKER", {Lit(Value(int64_t{1}))});
  const CompiledExpr c2 = CompiledExpr::Compile(*udf_call, schema, &udfs);
  EXPECT_FALSE(c2.is_constant());
  const Row row(schema, {Value(int64_t{0})});
  const int64_t first = c2.Eval(row).AsInt64();
  EXPECT_EQ(c2.Eval(row).AsInt64(), first + 1);
}

TEST(CompiledExprTest, CompileOnceIgnoresLaterUdfRegistration) {
  const SchemaPtr schema = Schema::Make({{"x", ValueType::kInt64}});
  puma::UdfRegistry udfs;
  ASSERT_TRUE(
      udfs.Register("SCALE", [](const std::vector<Value>& args) {
             return Value(args[0].CoerceInt64() * 2);
           })
          .ok());
  const ExprPtr expr = Call("SCALE", {Col("x")});
  const CompiledExpr compiled = CompiledExpr::Compile(*expr, schema, &udfs);
  // Re-register with different behavior: the deployed app keeps the old one
  // (compile-once contract); the interpreter sees the new one.
  ASSERT_TRUE(
      udfs.Register("SCALE", [](const std::vector<Value>& args) {
             return Value(args[0].CoerceInt64() * 100);
           })
          .ok());
  const Row row(schema, {Value(int64_t{3})});
  EXPECT_EQ(compiled.Eval(row).AsInt64(), 6);
  EXPECT_EQ(puma::EvalExpr(*expr, row, &udfs).AsInt64(), 300);
}

TEST(CompiledExprTest, ShortCircuitSkipsRightHandUdf) {
  const SchemaPtr schema = Schema::Make({{"x", ValueType::kInt64}});
  puma::UdfRegistry udfs;
  int calls = 0;
  ASSERT_TRUE(udfs.Register("BOOM", [&calls](const std::vector<Value>&) {
                     ++calls;
                     return Value(int64_t{1});
                   })
                  .ok());
  const ExprPtr gate = Bin(puma::BinaryOp::kAnd, Col("x"),
                           Call("BOOM", std::vector<ExprPtr>{}));
  const CompiledExpr compiled = CompiledExpr::Compile(*gate, schema, &udfs);
  EXPECT_EQ(compiled.Eval(Row(schema, {Value(int64_t{0})})).AsInt64(), 0);
  EXPECT_EQ(calls, 0);  // Right side never ran.
  EXPECT_EQ(compiled.Eval(Row(schema, {Value(int64_t{1})})).AsInt64(), 1);
  EXPECT_EQ(calls, 1);
}

// Parser-level validation (bugfix sweep).

StatusOr<puma::ExprPtr> ParseOne(const std::string& text) {
  FBSTREAM_ASSIGN_OR_RETURN(std::vector<puma::Token> tokens,
                            puma::Tokenize(text));
  puma::TokenCursor cursor(std::move(tokens));
  return puma::ParseExpression(&cursor);
}

TEST(ExprParserTest, ErrorsNameTheOffendingToken) {
  auto result = ParseOne("LENGTH(name");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("at end of input"),
            std::string::npos)
      << result.status().message();

  auto bad = ParseOne("a + + b");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("near '+'"), std::string::npos)
      << bad.status().message();
}

puma::SelectItem MakeAggItem(const std::string& fn,
                             std::vector<ExprPtr> args) {
  puma::SelectItem item;
  item.expr = Call(fn, std::move(args));
  item.is_aggregate = true;
  return item;
}

TEST(ExprParserTest, ClassifyAggregateValidatesTopKAndPercentile) {
  auto bad_k = MakeAggItem("TOPK", {Col("score"), Lit(Value(int64_t{0}))});
  EXPECT_FALSE(puma::ClassifyAggregate(&bad_k).ok());

  auto nonlit_k = MakeAggItem("TOPK", {Col("score"), Col("k")});
  EXPECT_FALSE(puma::ClassifyAggregate(&nonlit_k).ok());

  auto good_k = MakeAggItem("TOPK", {Col("score"), Lit(Value(int64_t{5}))});
  ASSERT_TRUE(puma::ClassifyAggregate(&good_k).ok());
  EXPECT_EQ(good_k.topk_k, 5);

  auto bad_p = MakeAggItem("PERCENTILE", {Col("v"), Lit(Value(1.5))});
  EXPECT_FALSE(puma::ClassifyAggregate(&bad_p).ok());
  auto neg_p = MakeAggItem("PERCENTILE", {Col("v"), Lit(Value(-0.5))});
  EXPECT_FALSE(puma::ClassifyAggregate(&neg_p).ok());

  auto good_p = MakeAggItem("PERCENTILE", {Col("v"), Lit(Value(0.99))});
  ASSERT_TRUE(puma::ClassifyAggregate(&good_p).ok());
  EXPECT_DOUBLE_EQ(good_p.percentile, 0.99);
}

}  // namespace pexpr

// ---------------------------------------------------------------------------
// Laser: lock-free reads under compaction churn.

TEST(LaserReadPathTest, ConcurrentReadsDuringIngestAndCompaction) {
  const std::string dir = MakeTempDir("laser_read");
  SimClock clock(1'000'000);
  const SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64},
                                         {"payload", ValueType::kString}});
  laser::LaserAppConfig config;
  config.name = "churn";
  config.input_schema = schema;
  config.key_columns = {"k"};
  config.value_columns = {"payload"};
  // Tiny memtable so ingestion constantly flushes and compacts underneath
  // the readers.
  config.db_options.memtable_bytes = 16 << 10;
  config.db_options.l0_compaction_trigger = 2;

  auto app_or = laser::LaserApp::Create(config, nullptr, &clock, dir);
  ASSERT_TRUE(app_or.ok());
  laser::LaserApp* app = app_or->get();
  Counter* queries =
      MetricsRegistry::Global()->GetCounter("laser.read.queries", "churn");
  const uint64_t queries0 = queries->value();

  constexpr int64_t kKeys = 500;
  auto payload_for = [](int64_t k, int version) {
    return "v" + std::to_string(version) + "-" + std::to_string(k);
  };
  auto load_version = [&](int version) {
    std::vector<Row> rows;
    rows.reserve(kKeys);
    for (int64_t k = 0; k < kKeys; ++k) {
      rows.emplace_back(schema,
                        std::vector<Value>{Value(k),
                                           Value(payload_for(k, version))});
    }
    ASSERT_TRUE(app->LoadRows(rows).ok());
  };
  load_version(0);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t k = static_cast<int64_t>(rng.Uniform(kKeys));
        auto row = app->Get(Value(k));
        ASSERT_TRUE(row.ok()) << row.status();
        // The payload is always a complete version of this key — never a
        // torn mix — whatever flush/compaction is doing.
        const std::string& payload = row->Get(0).AsString();
        EXPECT_EQ(payload.substr(payload.find('-') + 1), std::to_string(k));
        ok_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int version = 1; version <= 20; ++version) {
    load_version(version);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(ok_reads.load(), 0u);
  EXPECT_GE(queries->value() - queries0, ok_reads.load());
  app_or->reset();  // Stop the DB's maintenance thread before deleting dir.
  ASSERT_TRUE(RemoveAll(dir).ok());
}

TEST(LaserReadPathTest, GetIntoMatchesGetSemantics) {
  const std::string dir = MakeTempDir("laser_getinto");
  SimClock clock(1'000'000);
  const SchemaPtr schema = Schema::Make({{"k", ValueType::kString},
                                         {"v", ValueType::kString}});
  laser::LaserAppConfig config;
  config.name = "basic";
  config.input_schema = schema;
  config.key_columns = {"k"};
  config.value_columns = {"v"};
  auto app_or = laser::LaserApp::Create(config, nullptr, &clock, dir);
  ASSERT_TRUE(app_or.ok());
  laser::LaserApp* app = app_or->get();
  ASSERT_TRUE(
      app->LoadRows({Row(schema, {Value("hello"), Value("world")})}).ok());

  auto hit = app->Get(Value("hello"));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->Get(0).AsString(), "world");
  auto miss = app->Get(Value("absent"));
  EXPECT_TRUE(miss.status().IsNotFound());
  // Mixed hit/miss sequences on one thread must not let the reused scratch
  // leak a previous value into a miss or vice versa.
  auto hit2 = app->Get(Value("hello"));
  ASSERT_TRUE(hit2.ok());
  EXPECT_EQ(hit2->Get(0).AsString(), "world");
  app_or->reset();
  ASSERT_TRUE(RemoveAll(dir).ok());
}

}  // namespace
}  // namespace fbstream
