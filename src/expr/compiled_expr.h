/// \file compiled_expr.h
/// \brief Column-wise evaluation of equations and constraint atoms.
///
/// The batched rejection sampler tests a whole round of draws at once:
/// every lane (one sample index) holds one value per variable, stored as
/// columns. CompiledExpr flattens an Expr tree (or an atom's two sides
/// plus its comparison) into a postfix program whose instructions each
/// sweep all lanes, so the per-draw cost is a few arithmetic loops
/// instead of a tree walk through Value and an Assignment hash map.
///
/// Semantics are Expr::Eval's, bit for bit: the same libm calls in the
/// same order, Value::Compare's rule that NaN compares equal, and the
/// same three domain errors, reported per lane as the first one Eval's
/// left-to-right walk would hit. Trees whose constants are not numeric
/// (strings, booleans, NULL — Value ordering and type errors apply to
/// those) and atoms comparing two constants do not compile; callers
/// evaluate those through an Assignment.

#ifndef PIP_EXPR_COMPILED_EXPR_H_
#define PIP_EXPR_COMPILED_EXPR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/expr/atom.h"
#include "src/expr/expr.h"

namespace pip {

/// \brief A flat, lane-parallel program compiled from an Expr or atom.
class CompiledExpr {
 public:
  /// Compiles `e`, reading each variable from the column at its index in
  /// `slots`. nullopt when a variable is missing from `slots` or the tree
  /// holds a non-numeric constant.
  static std::optional<CompiledExpr> Compile(const Expr& e,
                                             const std::vector<VarRef>& slots);

  /// Compiles an atom into a program whose result is 1.0 where the atom
  /// holds and 0.0 where it does not. Also nullopt when both sides are
  /// constants (Value::Compare orders two integers without a double
  /// round trip).
  static std::optional<CompiledExpr> Compile(const ConstraintAtom& atom,
                                             const std::vector<VarRef>& slots);

  /// Evaluates lanes [0, n), where cols[s][k] is lane k's value of the
  /// variable in slots[s], and returns the n results. They live in
  /// `*scratch` (or in `cols` itself) until either is next changed. A
  /// lane whose evaluation errs gets that error in err[k] unless err[k]
  /// already holds one; its result is then meaningless.
  const double* Eval(const double* const* cols, size_t n, EvalError* err,
                     std::vector<double>* scratch) const;

 private:
  enum class Op : uint8_t {
    kLoad,
    kConst,
    kNeg,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kExp,
    kLog,
    kSqrt,
    kAbs,
    kMin,
    kMax,
    kPow,
    kCmp,
  };
  /// Postfix instruction over a register stack: reads registers dst (and
  /// dst + 1 for binary ops), writes dst.
  struct Instr {
    Op op;
    CmpOp cmp = CmpOp::kEq;
    uint32_t dst = 0;
    uint32_t slot = 0;
    double imm = 0.0;
  };

  /// Register stack bound; deeper trees (beyond any realistic equation)
  /// do not compile.
  static constexpr uint32_t kMaxStack = 64;

  /// Appends the code of `e` with its result in register `depth`; false
  /// when `e` does not compile.
  bool Emit(const Expr& e, const std::vector<VarRef>& slots, uint32_t depth);

  std::vector<Instr> code_;
  uint32_t registers_ = 0;
};

}  // namespace pip

#endif  // PIP_EXPR_COMPILED_EXPR_H_
