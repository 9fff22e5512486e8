/// \file compiled_expr_test.cc
/// \brief CompiledExpr against the tree evaluators it stands in for: every
/// lane of a column-wise evaluation must equal Expr::EvalDouble (value
/// bits or the identical Status) and ConstraintAtom::Eval, over every
/// operator, function and comparison, at NaN, +-inf, -0.0 and integer
/// constants.

#include "src/expr/compiled_expr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace pip {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

class CompiledExprTest : public ::testing::Test {
 protected:
  CompiledExprTest() {
    // Every ordered pair of interesting values is one lane.
    const double values[] = {-2.5, -1.0, -0.0, 0.0, 0.5, 1.0,
                             3.0,  1e308, kInf, -kInf, kNan};
    for (double a : values) {
      for (double b : values) {
        xs_.push_back(a);
        ys_.push_back(b);
      }
    }
  }

  std::vector<const double*> Columns() const {
    return {xs_.data(), ys_.data()};
  }

  Assignment Lane(size_t k) const {
    Assignment a;
    a.Set(x_, xs_[k]);
    a.Set(y_, ys_[k]);
    return a;
  }

  /// Compiles `e` over (x, y) and checks every lane against EvalDouble.
  void ExpectMatchesEval(const ExprPtr& e) {
    SCOPED_TRACE(e->ToString());
    auto program = CompiledExpr::Compile(*e, {x_, y_});
    ASSERT_TRUE(program.has_value());
    const size_t n = xs_.size();
    std::vector<EvalError> err(n, EvalError::kNone);
    std::vector<double> scratch;
    std::vector<const double*> cols = Columns();
    const double* out = program->Eval(cols.data(), n, err.data(), &scratch);
    for (size_t k = 0; k < n; ++k) {
      SCOPED_TRACE("x=" + std::to_string(xs_[k]) +
                   " y=" + std::to_string(ys_[k]));
      auto expected = e->EvalDouble(Lane(k));
      if (expected.ok()) {
        EXPECT_EQ(err[k], EvalError::kNone);
        EXPECT_EQ(Bits(out[k]), Bits(expected.value()));
      } else {
        EXPECT_EQ(EvalErrorStatus(err[k]), expected.status());
      }
    }
  }

  /// The same for an atom against ConstraintAtom::Eval.
  void ExpectMatchesAtom(const ConstraintAtom& atom) {
    SCOPED_TRACE(atom.ToString());
    auto program = CompiledExpr::Compile(atom, {x_, y_});
    ASSERT_TRUE(program.has_value());
    const size_t n = xs_.size();
    std::vector<EvalError> err(n, EvalError::kNone);
    std::vector<double> scratch;
    std::vector<const double*> cols = Columns();
    const double* holds = program->Eval(cols.data(), n, err.data(), &scratch);
    for (size_t k = 0; k < n; ++k) {
      SCOPED_TRACE("x=" + std::to_string(xs_[k]) +
                   " y=" + std::to_string(ys_[k]));
      auto expected = atom.Eval(Lane(k));
      if (expected.ok()) {
        EXPECT_EQ(err[k], EvalError::kNone);
        EXPECT_EQ(holds[k], expected.value() ? 1.0 : 0.0);
      } else {
        EXPECT_EQ(EvalErrorStatus(err[k]), expected.status());
      }
    }
  }

  VarRef x_{1, 0};
  VarRef y_{2, 0};
  ExprPtr x = Expr::Var(x_);
  ExprPtr y = Expr::Var(y_);
  std::vector<double> xs_, ys_;
};

TEST_F(CompiledExprTest, EveryOperatorAndFunction) {
  ExpectMatchesEval(x + y);
  ExpectMatchesEval(x - y);
  ExpectMatchesEval(x * y);
  ExpectMatchesEval(x / y);
  ExpectMatchesEval(-x);
  for (FuncKind f : {FuncKind::kExp, FuncKind::kLog, FuncKind::kSqrt,
                     FuncKind::kAbs}) {
    ExpectMatchesEval(Expr::Func(f, x));
  }
  for (FuncKind f : {FuncKind::kMin, FuncKind::kMax, FuncKind::kPow}) {
    ExpectMatchesEval(Expr::Func(f, x, y));
  }
}

TEST_F(CompiledExprTest, ConstantsIncludingIntegers) {
  ExpectMatchesEval(x * Expr::ConstantInt(3) + Expr::ConstantInt(-7));
  ExpectMatchesEval((x + Expr::Constant(2.0)) / (y - Expr::ConstantInt(1)));
  ExpectMatchesEval(Expr::Func(FuncKind::kPow, Expr::Func(FuncKind::kAbs, x),
                               Expr::Constant(0.5)));
  ExpectMatchesEval(Expr::Constant(-0.0) * y);
  ExpectMatchesEval(Expr::Constant(kNan) + x);
  // A tree of constants only (the builders fold most of them).
  ExpectMatchesEval(Expr::Func(FuncKind::kLog, Expr::Constant(-1.0)));
}

TEST_F(CompiledExprTest, FirstErrorInEvaluationOrderWins) {
  // Each lane reports the error Eval's left-to-right walk meets first.
  ExpectMatchesEval(Expr::Func(FuncKind::kLog, x) / y);
  ExpectMatchesEval(x / y + Expr::Func(FuncKind::kSqrt, y));
  ExpectMatchesEval(Expr::Func(FuncKind::kSqrt, y) + x / y);
  ExpectMatchesEval(Expr::Func(FuncKind::kMin, Expr::Func(FuncKind::kLog, x),
                               Expr::Func(FuncKind::kSqrt, y)));
  ExpectMatchesEval(
      Expr::Func(FuncKind::kExp,
                 Expr::Func(FuncKind::kLog, x / (y - Expr::Constant(1.0)))));
}

TEST_F(CompiledExprTest, DomainErrorsMatchEvalStatus) {
  EXPECT_EQ(EvalErrorStatus(EvalError::kNone), Status::OK());
  auto div = (x / y)->EvalDouble([&] {
    Assignment a;
    a.Set(x_, 1.0);
    a.Set(y_, -0.0);
    return a;
  }());
  ASSERT_FALSE(div.ok());
  EXPECT_EQ(div.status(), EvalErrorStatus(EvalError::kDivisionByZero));
  EXPECT_EQ(EvalErrorStatus(EvalError::kLogDomain),
            Status::OutOfRange("log of non-positive value"));
  EXPECT_EQ(EvalErrorStatus(EvalError::kSqrtDomain),
            Status::OutOfRange("sqrt of negative value"));
}

TEST_F(CompiledExprTest, EveryComparisonWithNanComparingEqual) {
  for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe,
                   CmpOp::kEq, CmpOp::kNe}) {
    ExpectMatchesAtom(ConstraintAtom(x, op, y));
    ExpectMatchesAtom(ConstraintAtom(x * y, op, Expr::ConstantInt(0)));
    ExpectMatchesAtom(ConstraintAtom(Expr::Constant(kNan), op, x));
    ExpectMatchesAtom(
        ConstraintAtom(x / y, op, Expr::Func(FuncKind::kLog, y)));
  }
}

TEST_F(CompiledExprTest, NonNumericTreesDoNotCompile) {
  const std::vector<VarRef> slots = {x_, y_};
  // Value semantics (type-tag ordering, type errors) stay with Eval.
  EXPECT_FALSE(CompiledExpr::Compile(*(x + Expr::String("a")), slots));
  EXPECT_FALSE(
      CompiledExpr::Compile(*(x + Expr::Constant(Value(true))), slots));
  EXPECT_FALSE(CompiledExpr::Compile(*(x + Expr::Constant(Value())), slots));
  EXPECT_FALSE(CompiledExpr::Compile(x != Expr::String("a"), slots));
  // Two integer constants compare without a double round trip.
  EXPECT_FALSE(CompiledExpr::Compile(
      ConstraintAtom(Expr::ConstantInt(3), CmpOp::kLt, Expr::ConstantInt(4)),
      slots));
  // A variable without a column.
  EXPECT_FALSE(CompiledExpr::Compile(*(x + Expr::Var(VarRef{9, 0})), slots));
  EXPECT_TRUE(CompiledExpr::Compile(*(x + y), slots));
}

}  // namespace
}  // namespace pip
