#ifndef FBSTREAM_TESTS_SUPPORT_PUMA_INTERPRETER_H_
#define FBSTREAM_TESTS_SUPPORT_PUMA_INTERPRETER_H_

#include "common/value.h"
#include "puma/ast.h"
#include "puma/expr.h"

namespace fbstream::puma {

// The tree-walking Puma expression interpreter, kept as a reference oracle
// for tests and benches only. The product evaluates every expression
// through CompiledExpr (puma/compiled_expr.h); this walks the AST on every
// row, resolving names and functions each time, and shares the evaluation
// kernels in puma/expr.h's eval_detail so the two stay bit-identical — the
// randomized differential in query_serving_test.cc enforces that, and
// bench_query measures the compiled speedup against it.

// Evaluates a scalar expression against one row. Aggregate calls must not
// appear (the planner splits them out first); they evaluate to null.
Value EvalExpr(const Expr& expr, const Row& row,
               const UdfRegistry* udfs = nullptr);

// Convenience: truthiness of an expression (non-zero / non-empty).
bool EvalPredicate(const Expr& expr, const Row& row,
                   const UdfRegistry* udfs = nullptr);

namespace eval_detail {

// Interpreter entry point: resolve-then-call on every evaluation.
Value BuiltinCall(const std::string& fn, const Value* const* args, size_t n);

}  // namespace eval_detail

}  // namespace fbstream::puma

#endif  // FBSTREAM_TESTS_SUPPORT_PUMA_INTERPRETER_H_
