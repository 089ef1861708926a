#include "puma/batch.h"

#include "puma/compiled_expr.h"

namespace fbstream::puma {

StatusOr<PumaBatchResult> RunAppOverHive(
    const AppSpec& spec, const hive::Hive& hive,
    const std::map<std::string, std::string>& input_to_hive_table,
    const std::vector<std::string>& partitions) {
  PumaBatchResult result;

  for (const CreateInputTableStmt& input : spec.inputs) {
    auto mapping = input_to_hive_table.find(input.name);
    if (mapping == input_to_hive_table.end()) {
      return Status::InvalidArgument("no Hive table mapped for input " +
                                     input.name);
    }
    SchemaPtr schema = Schema::Make(input.columns);

    // The same aggregation engine as the streaming app.
    std::vector<std::unique_ptr<TableAggregation>> aggs;
    std::vector<const CreateTableStmt*> table_stmts;
    for (const CreateTableStmt& table : spec.tables) {
      if (table.from != input.name) continue;
      aggs.push_back(std::make_unique<TableAggregation>(&table, schema,
                                                        input.time_column));
      table_stmts.push_back(&table);
    }
    // Stream expressions compile once per job against the Hive table's
    // schema — the same evaluator the streaming app runs per event.
    FBSTREAM_ASSIGN_OR_RETURN(SchemaPtr hive_schema,
                              hive.GetSchema(mapping->second));
    struct CompiledStream {
      const CreateStreamStmt* stmt;
      SchemaPtr out_schema;
      CompiledExpr where;  // Invalid when the stream has no WHERE.
      std::vector<CompiledExpr> items;
    };
    std::vector<CompiledStream> streams;
    for (const CreateStreamStmt& stream : spec.streams) {
      if (stream.from != input.name) continue;
      CompiledStream compiled{&stream, nullptr, {}, {}};
      std::vector<Column> columns;
      for (const SelectItem& item : stream.items) {
        columns.push_back(Column{item.alias, ValueType::kString});
        compiled.items.push_back(
            CompiledExpr::Compile(*item.expr, hive_schema));
      }
      compiled.out_schema = Schema::Make(std::move(columns));
      if (stream.where != nullptr) {
        compiled.where = CompiledExpr::Compile(*stream.where, hive_schema);
      }
      streams.push_back(std::move(compiled));
    }

    for (const std::string& ds : partitions) {
      FBSTREAM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                hive.ReadPartition(mapping->second, ds));
      for (const Row& row : rows) {
        ++result.input_rows;
        for (auto& agg : aggs) agg->ProcessRow(row);
        for (const CompiledStream& stream : streams) {
          if (stream.where.valid() && !stream.where.EvalBool(row)) continue;
          Row out(stream.out_schema);
          for (size_t i = 0; i < stream.items.size(); ++i) {
            out.Set(i, stream.items[i].Eval(row));
          }
          result.streams[stream.stmt->name].push_back(std::move(out));
        }
      }
    }

    for (size_t i = 0; i < aggs.size(); ++i) {
      std::vector<PumaResultRow>& out = result.tables[table_stmts[i]->name];
      for (const Micros window : aggs[i]->Windows()) {
        for (PumaResultRow& row : aggs[i]->QueryWindow(window)) {
          out.push_back(std::move(row));
        }
      }
    }
  }
  return result;
}

}  // namespace fbstream::puma
