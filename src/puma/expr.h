#ifndef FBSTREAM_PUMA_EXPR_H_
#define FBSTREAM_PUMA_EXPR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "puma/ast.h"

namespace fbstream::puma {

// User-defined functions (§2.2: "a SQL-like language with UDFs written in
// Java"; here the stand-ins are C++ callables). Names are case-insensitive.
class UdfRegistry {
 public:
  using Udf = std::function<Value(const std::vector<Value>&)>;

  // Process-wide registry for user functions. Built-ins (LOWER, UPPER,
  // LENGTH, CONCAT, CONTAINS, SUBSTR, IF, ABS, ROUND) resolve automatically
  // when a name is not registered.
  static UdfRegistry* Global();

  Status Register(const std::string& name, Udf udf);
  const Udf* Find(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Udf> udfs_;
};

// Evaluation kernels of the closure compiler (puma/compiled_expr.h). The
// tree-walking reference interpreter the tests keep as an oracle
// (tests/support/puma_interpreter.h) calls the same kernels, so the two stay
// bit-identical — the randomized differential test in query_serving_test.cc
// enforces that.
namespace eval_detail {

// SQL-ish truthiness: non-zero number / non-empty string; null is false.
bool Truthy(const Value& v);

// +,-,*,/,% with the int64 fast path (division always in double); division
// and modulo by zero yield 0 rather than erroring.
Value NumericBinary(BinaryOp op, const Value& a, const Value& b);

// A builtin resolved to a plain function: args are pre-evaluated, arity is
// pre-checked by ResolveBuiltin. Takes pointers to the evaluated arguments
// so callers pass references to values they already hold — the compiled
// path hands over fetched column storage without materializing a copy.
using BuiltinFn = Value (*)(const Value* const* args, size_t n);

// Resolves (uppercased name, arity) to the builtin implementation, or
// nullptr when unknown / wrong arity — such calls evaluate to null. All
// builtins are pure, which is what licenses compile-time constant folding.
BuiltinFn ResolveBuiltin(const std::string& fn, size_t arity);

}  // namespace eval_detail

}  // namespace fbstream::puma

#endif  // FBSTREAM_PUMA_EXPR_H_
