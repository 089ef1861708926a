#include "presto/presto.h"

#include <algorithm>
#include <map>

#include "puma/agg.h"
#include "puma/compiled_expr.h"
#include "puma/expr_parser.h"
#include "puma/lexer.h"
#include "puma/parser.h"

namespace fbstream::presto {

namespace {

using puma::AggCell;
using puma::CompiledExpr;
using puma::Expr;
using puma::ExprKind;
using puma::ExprPtr;
using puma::SelectItem;
using puma::TokenCursor;

struct SelectStmt {
  std::vector<SelectItem> items;
  std::string from;
  ExprPtr where;
  std::vector<std::string> group_by;
  std::string order_by;  // Output column alias; empty = no ordering.
  bool order_desc = false;
  int64_t limit = -1;  // -1 = unlimited.
  bool has_aggregates = false;
};

Status CheckColumns(const Expr& expr, const Schema& schema, bool allow_agg) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return Status::OK();
    case ExprKind::kColumn:
      if (!schema.Has(expr.column)) {
        return Status::InvalidArgument("unknown column " + expr.column);
      }
      return Status::OK();
    case ExprKind::kUnaryNot:
      return CheckColumns(*expr.left, schema, allow_agg);
    case ExprKind::kBinary:
      FBSTREAM_RETURN_IF_ERROR(CheckColumns(*expr.left, schema, allow_agg));
      return CheckColumns(*expr.right, schema, allow_agg);
    case ExprKind::kCall: {
      if (!allow_agg && puma::IsAggregateFunctionName(expr.function)) {
        return Status::InvalidArgument("nested aggregate " + expr.function);
      }
      for (const ExprPtr& arg : expr.args) {
        FBSTREAM_RETURN_IF_ERROR(CheckColumns(*arg, schema, false));
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

StatusOr<SelectStmt> ParseSelect(const std::string& sql,
                                 const Schema& input_schema) {
  FBSTREAM_ASSIGN_OR_RETURN(auto tokens, puma::Tokenize(sql));
  TokenCursor cursor(std::move(tokens));
  SelectStmt stmt;
  FBSTREAM_RETURN_IF_ERROR(cursor.ExpectKeyword("SELECT"));
  FBSTREAM_RETURN_IF_ERROR(puma::ParseSelectList(&cursor, &stmt.items));
  FBSTREAM_RETURN_IF_ERROR(cursor.ExpectKeyword("FROM"));
  FBSTREAM_ASSIGN_OR_RETURN(stmt.from, cursor.ExpectIdentifier());
  if (cursor.AcceptKeyword("WHERE")) {
    FBSTREAM_ASSIGN_OR_RETURN(stmt.where, puma::ParseExpression(&cursor));
    FBSTREAM_RETURN_IF_ERROR(
        CheckColumns(*stmt.where, input_schema, /*allow_agg=*/false));
  }
  if (cursor.AcceptKeyword("GROUP")) {
    FBSTREAM_RETURN_IF_ERROR(cursor.ExpectKeyword("BY"));
    while (true) {
      FBSTREAM_ASSIGN_OR_RETURN(std::string col, cursor.ExpectIdentifier());
      stmt.group_by.push_back(std::move(col));
      if (!cursor.AcceptSymbol(",")) break;
    }
  }
  if (cursor.AcceptKeyword("ORDER")) {
    FBSTREAM_RETURN_IF_ERROR(cursor.ExpectKeyword("BY"));
    FBSTREAM_ASSIGN_OR_RETURN(stmt.order_by, cursor.ExpectIdentifier());
    if (cursor.AcceptKeyword("DESC")) {
      stmt.order_desc = true;
    } else {
      (void)cursor.AcceptKeyword("ASC");
    }
  }
  if (cursor.AcceptKeyword("LIMIT")) {
    if (cursor.Peek().type != puma::TokenType::kInteger) {
      return cursor.Error("expected LIMIT count");
    }
    stmt.limit = cursor.Advance().int_value;
  }
  (void)cursor.AcceptSymbol(";");
  if (!cursor.AtEnd()) return cursor.Error("trailing input");

  // Classify and validate select items.
  for (SelectItem& item : stmt.items) {
    if (item.expr->kind == ExprKind::kCall &&
        puma::IsAggregateFunctionName(item.expr->function)) {
      item.is_aggregate = true;
      stmt.has_aggregates = true;
      FBSTREAM_RETURN_IF_ERROR(puma::ClassifyAggregate(&item));
      if (item.agg_arg != nullptr) {
        FBSTREAM_RETURN_IF_ERROR(
            CheckColumns(*item.agg_arg, input_schema, false));
      }
    } else {
      FBSTREAM_RETURN_IF_ERROR(
          CheckColumns(*item.expr, input_schema, false));
    }
  }
  // Implicit group key: non-aggregate items of an aggregating query.
  if (stmt.has_aggregates && stmt.group_by.empty()) {
    for (const SelectItem& item : stmt.items) {
      if (!item.is_aggregate) stmt.group_by.push_back(item.alias);
    }
  }
  return stmt;
}

}  // namespace

StatusOr<PrestoResult> Presto::Execute(const std::string& sql) const {
  // Peek at the FROM table to enumerate its landed partitions.
  FBSTREAM_ASSIGN_OR_RETURN(auto tokens, puma::Tokenize(sql));
  TokenCursor cursor(std::move(tokens));
  std::string from;
  while (!cursor.AtEnd()) {
    if (cursor.AcceptKeyword("FROM")) {
      FBSTREAM_ASSIGN_OR_RETURN(from, cursor.ExpectIdentifier());
      break;
    }
    cursor.Advance();
  }
  if (from.empty()) return Status::InvalidArgument("missing FROM table");
  FBSTREAM_ASSIGN_OR_RETURN(std::vector<std::string> partitions,
                            hive_->ListPartitions(from));
  return ExecuteOnPartitions(sql, partitions);
}

StatusOr<PrestoResult> Presto::ExecuteOnPartitions(
    const std::string& sql, const std::vector<std::string>& partitions)
    const {
  // First pass: we need the table schema before full parse/validation. Find
  // FROM, fetch schema, then parse against it.
  FBSTREAM_ASSIGN_OR_RETURN(auto tokens, puma::Tokenize(sql));
  TokenCursor scan(std::move(tokens));
  std::string from;
  while (!scan.AtEnd()) {
    if (scan.AcceptKeyword("FROM")) {
      FBSTREAM_ASSIGN_OR_RETURN(from, scan.ExpectIdentifier());
      break;
    }
    scan.Advance();
  }
  if (from.empty()) return Status::InvalidArgument("missing FROM table");
  FBSTREAM_ASSIGN_OR_RETURN(SchemaPtr input_schema, hive_->GetSchema(from));
  FBSTREAM_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql, *input_schema));

  // Output schema: aliases; plain column items keep their input type.
  std::vector<Column> out_columns;
  for (const SelectItem& item : stmt.items) {
    Column c;
    c.name = item.alias;
    c.type = ValueType::kString;
    if (!item.is_aggregate && item.expr->kind == ExprKind::kColumn) {
      const int i = input_schema->IndexOf(item.expr->column);
      if (i >= 0) c.type = input_schema->column(static_cast<size_t>(i)).type;
    } else if (item.is_aggregate) {
      c.type = ValueType::kDouble;
    }
    out_columns.push_back(std::move(c));
  }
  PrestoResult result;
  result.schema = Schema::Make(std::move(out_columns));

  // Group-by expressions: aliases of non-agg items, else bare columns.
  std::vector<ExprPtr> group_exprs;
  for (const std::string& name : stmt.group_by) {
    ExprPtr expr;
    for (const SelectItem& item : stmt.items) {
      if (!item.is_aggregate && item.alias == name) {
        expr = item.expr;
        break;
      }
    }
    if (expr == nullptr) {
      expr = std::make_shared<Expr>();
      expr->kind = ExprKind::kColumn;
      expr->column = name;
    }
    group_exprs.push_back(std::move(expr));
  }

  // Every expression compiles once per query against the table schema —
  // the same evaluator streaming Puma runs per event. Invalid entries
  // stand for "absent" (no WHERE, COUNT(*), aggregate select items).
  const CompiledExpr where =
      stmt.where != nullptr ? CompiledExpr::Compile(*stmt.where, input_schema)
                            : CompiledExpr();
  std::vector<CompiledExpr> items;
  std::vector<CompiledExpr> agg_args;
  for (const SelectItem& item : stmt.items) {
    items.push_back(item.is_aggregate
                        ? CompiledExpr()
                        : CompiledExpr::Compile(*item.expr, input_schema));
    if (item.is_aggregate) {
      agg_args.push_back(
          item.agg_arg != nullptr
              ? CompiledExpr::Compile(*item.agg_arg, input_schema)
              : CompiledExpr());
    }
  }
  std::vector<CompiledExpr> group_keys;
  for (const ExprPtr& expr : group_exprs) {
    group_keys.push_back(CompiledExpr::Compile(*expr, input_schema));
  }

  using GroupKey = std::vector<std::string>;
  std::map<GroupKey, std::vector<AggCell>> cells;

  for (const std::string& ds : partitions) {
    FBSTREAM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                              hive_->ReadPartition(from, ds));
    ++result.partitions_scanned;
    for (const Row& row : rows) {
      ++result.rows_scanned;
      if (where.valid() && !where.EvalBool(row)) continue;
      if (!stmt.has_aggregates) {
        Row out(result.schema);
        for (size_t i = 0; i < items.size(); ++i) {
          out.Set(i, items[i].Eval(row));
        }
        result.rows.push_back(std::move(out));
        continue;
      }
      GroupKey key;
      key.reserve(group_keys.size());
      for (const CompiledExpr& expr : group_keys) {
        key.push_back(expr.Eval(row).ToString());
      }
      auto& group_cells = cells[key];
      if (group_cells.empty()) {
        for (const SelectItem& item : stmt.items) {
          if (item.is_aggregate) group_cells.emplace_back(item.agg);
        }
      }
      for (size_t a = 0; a < agg_args.size(); ++a) {
        if (agg_args[a].valid()) {
          group_cells[a].Update(agg_args[a].Eval(row));
        } else {
          group_cells[a].UpdateCount();
        }
      }
    }
  }

  if (stmt.has_aggregates) {
    for (const auto& [key, group_cells] : cells) {
      Row out(result.schema);
      size_t g = 0;
      size_t a = 0;
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (stmt.items[i].is_aggregate) {
          out.Set(i, group_cells[a].Result(stmt.items[i]));
          ++a;
        } else {
          // Non-aggregate items are the group key, in declaration order.
          if (g < key.size()) out.Set(i, Value(key[g]));
          ++g;
        }
      }
      result.rows.push_back(std::move(out));
    }
  }

  if (!stmt.order_by.empty()) {
    const int idx = result.schema->IndexOf(stmt.order_by);
    if (idx < 0) {
      return Status::InvalidArgument("ORDER BY unknown output column " +
                                     stmt.order_by);
    }
    const bool desc = stmt.order_desc;
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [idx, desc](const Row& a, const Row& b) {
                       const int c = a.Get(static_cast<size_t>(idx))
                                         .Compare(b.Get(
                                             static_cast<size_t>(idx)));
                       return desc ? c > 0 : c < 0;
                     });
  }
  if (stmt.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(stmt.limit)) {
    result.rows.resize(static_cast<size_t>(stmt.limit));
  }
  return result;
}

Status Presto::SendToLaser(const PrestoResult& result, laser::LaserApp* app) {
  if (app == nullptr) return Status::InvalidArgument("null laser app");
  return app->LoadRows(result.rows);
}

}  // namespace fbstream::presto
