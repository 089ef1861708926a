#include "support/puma_interpreter.h"

#include <vector>

namespace fbstream::puma {

namespace eval_detail {

Value BuiltinCall(const std::string& fn, const Value* const* args, size_t n) {
  const BuiltinFn impl = ResolveBuiltin(fn, n);
  return impl != nullptr ? impl(args, n) : Value();  // Unknown builtin: null.
}

}  // namespace eval_detail

Value EvalExpr(const Expr& expr, const Row& row, const UdfRegistry* udfs) {
  using eval_detail::Truthy;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumn:
      return row.Get(expr.column);
    case ExprKind::kUnaryNot:
      return Value(static_cast<int64_t>(
          !Truthy(EvalExpr(*expr.left, row, udfs))));
    case ExprKind::kBinary: {
      switch (expr.op) {
        case BinaryOp::kAnd:
          return Value(static_cast<int64_t>(
              Truthy(EvalExpr(*expr.left, row, udfs)) &&
              Truthy(EvalExpr(*expr.right, row, udfs))));
        case BinaryOp::kOr:
          return Value(static_cast<int64_t>(
              Truthy(EvalExpr(*expr.left, row, udfs)) ||
              Truthy(EvalExpr(*expr.right, row, udfs))));
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe: {
          const int c = EvalExpr(*expr.left, row, udfs)
                            .Compare(EvalExpr(*expr.right, row, udfs));
          bool result = false;
          switch (expr.op) {
            case BinaryOp::kEq:
              result = c == 0;
              break;
            case BinaryOp::kNe:
              result = c != 0;
              break;
            case BinaryOp::kLt:
              result = c < 0;
              break;
            case BinaryOp::kLe:
              result = c <= 0;
              break;
            case BinaryOp::kGt:
              result = c > 0;
              break;
            case BinaryOp::kGe:
              result = c >= 0;
              break;
            default:
              break;
          }
          return Value(static_cast<int64_t>(result));
        }
        default:
          return eval_detail::NumericBinary(
              expr.op, EvalExpr(*expr.left, row, udfs),
              EvalExpr(*expr.right, row, udfs));
      }
    }
    case ExprKind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const ExprPtr& arg : expr.args) {
        args.push_back(EvalExpr(*arg, row, udfs));
      }
      const UdfRegistry* registry =
          udfs != nullptr ? udfs : UdfRegistry::Global();
      const UdfRegistry::Udf* udf = registry->Find(expr.function);
      if (udf != nullptr) return (*udf)(args);
      const size_t n = args.size();
      const Value* stack_ptrs[8];
      std::vector<const Value*> heap_ptrs;
      const Value* const* argv = stack_ptrs;
      if (n <= 8) {
        for (size_t i = 0; i < n; ++i) stack_ptrs[i] = &args[i];
      } else {
        heap_ptrs.reserve(n);
        for (const Value& v : args) heap_ptrs.push_back(&v);
        argv = heap_ptrs.data();
      }
      return eval_detail::BuiltinCall(expr.function, argv, n);
    }
  }
  return Value();
}

bool EvalPredicate(const Expr& expr, const Row& row, const UdfRegistry* udfs) {
  return eval_detail::Truthy(EvalExpr(expr, row, udfs));
}

}  // namespace fbstream::puma
