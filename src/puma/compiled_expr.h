#ifndef FBSTREAM_PUMA_COMPILED_EXPR_H_
#define FBSTREAM_PUMA_COMPILED_EXPR_H_

#include <functional>
#include <memory>
#include <string>

#include "common/value.h"
#include "puma/ast.h"
#include "puma/expr.h"

namespace fbstream::puma {

// Compile-once expression evaluation (§3: "Puma is optimized for compiled
// queries" — an app's expressions are fixed at deploy time, so nothing
// needs to be re-resolved per event).
//
// Compile() lowers an AST once into a closure tree:
//  - column references resolve to value indices against the declared input
//    schema (no per-event name -> index map lookup);
//  - UDF and builtin names resolve to callables at compile time (no
//    per-event registry lookup or name-compare chain);
//  - pure builtin subtrees whose arguments are all constants fold to
//    literals (UDFs are never folded: they may be stateful).
//
// Compile-once contract: a UDF (re)registered after Compile() does not
// affect an already-compiled expression; redeploy the app to pick it up.
//
// This is the only evaluator the product runs: streaming Puma, Puma batch
// over Hive and Presto all compile once per app, job or query. Semantics
// are exactly those of the tree-walking reference interpreter the tests
// keep as an oracle (tests/support/puma_interpreter.h) — both share the
// kernels in expr.h's eval_detail (same AND/OR short-circuit, same
// coercions, same div-by-zero -> 0), so Eval() is bit-identical to the
// interpreter on every row.
// The one liberty taken: a subtree proven pure (no UDFs anywhere below) may
// skip evaluating arguments whose value cannot affect the result — e.g. a
// pure IF() evaluates only the taken branch — which is unobservable
// precisely because pure evaluation has no side effects. query_serving_test.cc checks
// that on randomized expressions; OBSERVABILITY.md lists the
// puma.compile.* meters.
class CompiledExpr {
 public:
  // An empty (default) CompiledExpr is invalid; Eval returns null.
  CompiledExpr() = default;

  // Compiles against the declared input schema. `udfs` defaults to the
  // process-global registry.
  static CompiledExpr Compile(const Expr& expr, const SchemaPtr& schema,
                              const UdfRegistry* udfs = nullptr);

  bool valid() const { return fn_ != nullptr; }
  // True when the whole expression folded to a literal at compile time.
  bool is_constant() const { return constant_; }

  Value Eval(const Row& row) const {
    return fn_ != nullptr ? fn_(row) : Value();
  }
  // Truthiness (eval_detail::Truthy of the value).
  bool EvalBool(const Row& row) const {
    return eval_detail::Truthy(Eval(row));
  }

 private:
  std::function<Value(const Row&)> fn_;
  bool constant_ = false;
};

}  // namespace fbstream::puma

#endif  // FBSTREAM_PUMA_COMPILED_EXPR_H_
