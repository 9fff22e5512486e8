#include "src/expr/compiled_expr.h"

#include <algorithm>
#include <cmath>

namespace pip {

namespace {

/// Records `e` as lane k's error unless an earlier instruction already
/// failed there (Eval stops at the first error of its walk).
inline void Fail(EvalError* err, size_t k, EvalError e) {
  if (err[k] == EvalError::kNone) err[k] = e;
}

}  // namespace

std::optional<CompiledExpr> CompiledExpr::Compile(
    const Expr& e, const std::vector<VarRef>& slots) {
  CompiledExpr program;
  if (!program.Emit(e, slots, 0)) return std::nullopt;
  return program;
}

std::optional<CompiledExpr> CompiledExpr::Compile(
    const ConstraintAtom& atom, const std::vector<VarRef>& slots) {
  if (atom.lhs()->IsConstant() && atom.rhs()->IsConstant()) {
    return std::nullopt;
  }
  CompiledExpr program;
  if (!program.Emit(*atom.lhs(), slots, 0) ||
      !program.Emit(*atom.rhs(), slots, 1)) {
    return std::nullopt;
  }
  Instr cmp{Op::kCmp};
  cmp.cmp = atom.op();
  program.code_.push_back(cmp);
  return program;
}

bool CompiledExpr::Emit(const Expr& e, const std::vector<VarRef>& slots,
                        uint32_t depth) {
  // Binary ops read register depth + 1 as well.
  if (depth + 2 > kMaxStack) return false;
  registers_ = std::max(registers_, depth + 1);
  Instr in{Op::kConst};
  in.dst = depth;
  switch (e.op()) {
    case ExprOp::kConst:
      if (!e.value().is_numeric()) return false;
      in.imm = e.value().AsDouble().value();
      code_.push_back(in);
      return true;
    case ExprOp::kVar: {
      auto it = std::find(slots.begin(), slots.end(), e.var());
      if (it == slots.end()) return false;
      in.op = Op::kLoad;
      in.slot = static_cast<uint32_t>(it - slots.begin());
      code_.push_back(in);
      return true;
    }
    case ExprOp::kNeg:
      in.op = Op::kNeg;
      break;
    case ExprOp::kAdd:
      in.op = Op::kAdd;
      break;
    case ExprOp::kSub:
      in.op = Op::kSub;
      break;
    case ExprOp::kMul:
      in.op = Op::kMul;
      break;
    case ExprOp::kDiv:
      in.op = Op::kDiv;
      break;
    case ExprOp::kFunc:
      switch (e.func()) {
        case FuncKind::kExp:
          in.op = Op::kExp;
          break;
        case FuncKind::kLog:
          in.op = Op::kLog;
          break;
        case FuncKind::kSqrt:
          in.op = Op::kSqrt;
          break;
        case FuncKind::kAbs:
          in.op = Op::kAbs;
          break;
        case FuncKind::kMin:
          in.op = Op::kMin;
          break;
        case FuncKind::kMax:
          in.op = Op::kMax;
          break;
        case FuncKind::kPow:
          in.op = Op::kPow;
          break;
      }
      break;
  }
  // Unary nodes read child 0 only (as Eval does); binary ones both.
  const bool binary = in.op == Op::kAdd || in.op == Op::kSub ||
                      in.op == Op::kMul || in.op == Op::kDiv ||
                      in.op == Op::kMin || in.op == Op::kMax ||
                      in.op == Op::kPow;
  const auto& kids = e.children();
  if (kids.size() < (binary ? 2u : 1u)) return false;
  if (!Emit(*kids[0], slots, depth)) return false;
  if (binary && !Emit(*kids[1], slots, depth + 1)) return false;
  code_.push_back(in);
  return true;
}

const double* CompiledExpr::Eval(const double* const* cols, size_t n,
                                 EvalError* err,
                                 std::vector<double>* scratch) const {
  if (scratch->size() < registers_ * n) scratch->resize(registers_ * n);
  // Register r's current values: its scratch row, or the column a load
  // put there (loads copy nothing).
  const double* src[kMaxStack] = {};
  for (const Instr& in : code_) {
    double* z = scratch->data() + in.dst * n;
    const double* x = src[in.dst];
    const double* y = src[in.dst + 1];  // Second operand of binary ops.
    switch (in.op) {
      case Op::kLoad:
        src[in.dst] = cols[in.slot];
        continue;
      case Op::kConst:
        std::fill(z, z + n, in.imm);
        break;
      case Op::kNeg:
        for (size_t k = 0; k < n; ++k) z[k] = -x[k];
        break;
      case Op::kAdd:
        for (size_t k = 0; k < n; ++k) z[k] = x[k] + y[k];
        break;
      case Op::kSub:
        for (size_t k = 0; k < n; ++k) z[k] = x[k] - y[k];
        break;
      case Op::kMul:
        for (size_t k = 0; k < n; ++k) z[k] = x[k] * y[k];
        break;
      case Op::kDiv:
        for (size_t k = 0; k < n; ++k) {
          if (y[k] == 0.0) {
            Fail(err, k, EvalError::kDivisionByZero);
            z[k] = 0.0;
          } else {
            z[k] = x[k] / y[k];
          }
        }
        break;
      case Op::kExp:
        for (size_t k = 0; k < n; ++k) z[k] = std::exp(x[k]);
        break;
      case Op::kLog:
        for (size_t k = 0; k < n; ++k) {
          if (x[k] <= 0.0) {
            Fail(err, k, EvalError::kLogDomain);
            z[k] = 0.0;
          } else {
            z[k] = std::log(x[k]);
          }
        }
        break;
      case Op::kSqrt:
        for (size_t k = 0; k < n; ++k) {
          if (x[k] < 0.0) {
            Fail(err, k, EvalError::kSqrtDomain);
            z[k] = 0.0;
          } else {
            z[k] = std::sqrt(x[k]);
          }
        }
        break;
      case Op::kAbs:
        for (size_t k = 0; k < n; ++k) z[k] = std::fabs(x[k]);
        break;
      case Op::kMin:
        for (size_t k = 0; k < n; ++k) z[k] = std::min(x[k], y[k]);
        break;
      case Op::kMax:
        for (size_t k = 0; k < n; ++k) z[k] = std::max(x[k], y[k]);
        break;
      case Op::kPow:
        for (size_t k = 0; k < n; ++k) z[k] = std::pow(x[k], y[k]);
        break;
      case Op::kCmp:
        // Value::Compare's three-way result (NaN compares equal),
        // folded through Decide's table.
        switch (in.cmp) {
          case CmpOp::kLt:
            for (size_t k = 0; k < n; ++k) z[k] = x[k] < y[k] ? 1.0 : 0.0;
            break;
          case CmpOp::kLe:
            for (size_t k = 0; k < n; ++k) z[k] = x[k] > y[k] ? 0.0 : 1.0;
            break;
          case CmpOp::kGt:
            for (size_t k = 0; k < n; ++k) z[k] = x[k] > y[k] ? 1.0 : 0.0;
            break;
          case CmpOp::kGe:
            for (size_t k = 0; k < n; ++k) z[k] = x[k] < y[k] ? 0.0 : 1.0;
            break;
          case CmpOp::kEq:
            for (size_t k = 0; k < n; ++k) {
              z[k] = x[k] < y[k] || x[k] > y[k] ? 0.0 : 1.0;
            }
            break;
          case CmpOp::kNe:
            for (size_t k = 0; k < n; ++k) {
              z[k] = x[k] < y[k] || x[k] > y[k] ? 1.0 : 0.0;
            }
            break;
        }
        break;
    }
    src[in.dst] = z;
  }
  return src[0];
}

}  // namespace pip
