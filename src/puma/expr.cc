#include "puma/expr.h"

#include <cctype>
#include <cmath>

namespace fbstream::puma {

namespace {

std::string ToUpper(std::string s) {
  for (char& c : s) c = static_cast<char>(toupper(c));
  return s;
}

}  // namespace

namespace eval_detail {

bool Truthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return v.AsInt64() != 0;
    case ValueType::kDouble:
      return v.AsDouble() != 0;
    case ValueType::kString:
      return !v.AsString().empty();
  }
  return false;
}

Value NumericBinary(BinaryOp op, const Value& a, const Value& b) {
  const bool both_int = a.type() == ValueType::kInt64 &&
                        b.type() == ValueType::kInt64;
  if (both_int && op != BinaryOp::kDiv) {
    const int64_t x = a.AsInt64();
    const int64_t y = b.AsInt64();
    switch (op) {
      case BinaryOp::kAdd:
        return Value(x + y);
      case BinaryOp::kSub:
        return Value(x - y);
      case BinaryOp::kMul:
        return Value(x * y);
      case BinaryOp::kMod:
        return Value(y == 0 ? int64_t{0} : x % y);
      default:
        break;
    }
  }
  const double x = a.CoerceDouble();
  const double y = b.CoerceDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value(x + y);
    case BinaryOp::kSub:
      return Value(x - y);
    case BinaryOp::kMul:
      return Value(x * y);
    case BinaryOp::kDiv:
      return Value(y == 0 ? 0.0 : x / y);
    case BinaryOp::kMod:
      return Value(y == 0 ? 0.0 : std::fmod(x, y));
    default:
      return Value();
  }
}

namespace {

// Arity is checked by ResolveBuiltin before any of these run.

// The value's string content, without a copy when it already is a string;
// `scratch` backs the rendered form otherwise. Byte-identical to what
// CoerceString() returns.
const std::string& StringRef(const Value& v, std::string* scratch) {
  if (v.type() == ValueType::kString) return v.AsString();
  *scratch = v.CoerceString();
  return *scratch;
}

Value BuiltinLower(const Value* const* args, size_t /*n*/) {
  std::string s = (*args[0]).CoerceString();
  for (char& c : s) c = static_cast<char>(tolower(c));
  return Value(std::move(s));
}

Value BuiltinUpper(const Value* const* args, size_t /*n*/) {
  return Value(ToUpper((*args[0]).CoerceString()));
}

Value BuiltinLength(const Value* const* args, size_t /*n*/) {
  std::string scratch;
  return Value(static_cast<int64_t>(StringRef((*args[0]), &scratch).size()));
}

Value BuiltinConcat(const Value* const* args, size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) s += args[i]->CoerceString();
  return Value(std::move(s));
}

Value BuiltinContains(const Value* const* args, size_t /*n*/) {
  std::string hay_scratch, needle_scratch;
  return Value(static_cast<int64_t>(
      StringRef((*args[0]), &hay_scratch).find(
          StringRef((*args[1]), &needle_scratch)) != std::string::npos));
}

Value BuiltinSubstr(const Value* const* args, size_t n) {
  std::string scratch;
  const std::string& s = StringRef((*args[0]), &scratch);
  const size_t pos = std::min<size_t>(
      s.size(),
      static_cast<size_t>(std::max<int64_t>(0, (*args[1]).CoerceInt64())));
  const size_t len =
      n >= 3
          ? static_cast<size_t>(std::max<int64_t>(0, (*args[2]).CoerceInt64()))
          : std::string::npos;
  return Value(s.substr(pos, len));
}

Value BuiltinIf(const Value* const* args, size_t /*n*/) {
  return Truthy((*args[0])) ? (*args[1]) : (*args[2]);
}

Value BuiltinAbs(const Value* const* args, size_t /*n*/) {
  if ((*args[0]).type() == ValueType::kInt64) {
    return Value(std::abs((*args[0]).AsInt64()));
  }
  return Value(std::fabs((*args[0]).CoerceDouble()));
}

Value BuiltinRound(const Value* const* args, size_t /*n*/) {
  return Value(static_cast<int64_t>(std::llround((*args[0]).CoerceDouble())));
}

}  // namespace

BuiltinFn ResolveBuiltin(const std::string& fn, size_t arity) {
  if (fn == "LOWER" && arity == 1) return BuiltinLower;
  if (fn == "UPPER" && arity == 1) return BuiltinUpper;
  if (fn == "LENGTH" && arity == 1) return BuiltinLength;
  if (fn == "CONCAT") return BuiltinConcat;  // Any arity.
  if (fn == "CONTAINS" && arity == 2) return BuiltinContains;
  if (fn == "SUBSTR" && arity >= 2) return BuiltinSubstr;
  if (fn == "IF" && arity == 3) return BuiltinIf;
  if (fn == "ABS" && arity == 1) return BuiltinAbs;
  if (fn == "ROUND" && arity == 1) return BuiltinRound;
  return nullptr;
}

}  // namespace eval_detail

UdfRegistry* UdfRegistry::Global() {
  static UdfRegistry* registry = new UdfRegistry();
  return registry;
}

Status UdfRegistry::Register(const std::string& name, Udf udf) {
  const std::string key = ToUpper(name);
  if (IsAggregateFunctionName(key)) {
    return Status::InvalidArgument("cannot shadow aggregate " + key);
  }
  udfs_[key] = std::move(udf);
  return Status::OK();
}

const UdfRegistry::Udf* UdfRegistry::Find(const std::string& name) const {
  auto it = udfs_.find(ToUpper(name));
  return it == udfs_.end() ? nullptr : &it->second;
}

std::vector<std::string> UdfRegistry::Names() const {
  std::vector<std::string> names;
  for (const auto& [name, udf] : udfs_) names.push_back(name);
  return names;
}

}  // namespace fbstream::puma
