//===- solver/TermPrinter.cpp - Human-readable term rendering ----------------===//

#include "solver/TermPrinter.h"

#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <charconv>

using namespace igdt;

// Every printer appends into one string: a path signature renders every
// node of every condition on every explored path, so per-node temporaries
// would dominate its cost.

namespace {

void appendTerm(std::string &Out, const ObjTerm *T);
void appendTerm(std::string &Out, const IntTerm *T);
void appendTerm(std::string &Out, const FloatTerm *T);
void appendTerm(std::string &Out, const BoolTerm *T);

template <typename IntT> void appendDecimal(std::string &Out, IntT Value) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Value).ptr);
}

void appendHex(std::string &Out, std::uint64_t Value) {
  char Buf[16];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Value, 16).ptr);
}

/// Appends "Fn(Arg)".
template <typename TermT>
void appendCall(std::string &Out, const char *Fn, const TermT *Arg) {
  Out += Fn;
  Out += '(';
  appendTerm(Out, Arg);
  Out += ')';
}

/// Appends "Fn(Arg, Offset)".
void appendCall(std::string &Out, const char *Fn, const ObjTerm *Arg,
                std::int64_t Offset) {
  Out += Fn;
  Out += '(';
  appendTerm(Out, Arg);
  Out += ", ";
  appendDecimal(Out, Offset);
  Out += ')';
}

/// Appends "Lhs Op Rhs".
template <typename TermT>
void appendInfix(std::string &Out, const TermT *Lhs, const char *Op,
                 const TermT *Rhs) {
  appendTerm(Out, Lhs);
  Out += ' ';
  Out += Op;
  Out += ' ';
  appendTerm(Out, Rhs);
}

/// Appends "(Lhs Op Rhs)".
template <typename TermT>
void appendBinary(std::string &Out, const TermT *T, const char *Op) {
  Out += '(';
  appendInfix(Out, T->Lhs, Op, T->Rhs);
  Out += ')';
}

const char *cmpOperator(CmpPred Pred) {
  return Pred == CmpPred::Lt ? "<" : Pred == CmpPred::Le ? "<=" : "==";
}

void appendTerm(std::string &Out, const ObjTerm *T) {
  switch (T->TermKind) {
  case ObjTerm::Kind::Var:
    switch (T->Role) {
    case VarRole::Receiver:
      Out += "receiver";
      return;
    case VarRole::StackSlot:
      Out += 's';
      appendDecimal(Out, T->Index);
      return;
    case VarRole::Local:
      Out += 't';
      appendDecimal(Out, T->Index);
      return;
    case VarRole::SlotOf:
      appendTerm(Out, T->Parent);
      Out += ".slot";
      appendDecimal(Out, T->Index);
      return;
    }
    igdt_unreachable("unhandled var role");
  case ObjTerm::Kind::Const:
    if (isSmallIntOop(T->ConstValue)) {
      appendDecimal(Out, smallIntValue(T->ConstValue));
    } else {
      Out += "const@";
      appendHex(Out, T->ConstValue);
    }
    return;
  case ObjTerm::Kind::IntObj:
    return appendCall(Out, "intObject", T->IntPayload);
  case ObjTerm::Kind::FloatObj:
    return appendCall(Out, "floatObject", T->FloatPayload);
  case ObjTerm::Kind::NewObj:
    Out += "new";
    appendDecimal(Out, T->AllocId);
    Out += "(class=";
    appendDecimal(Out, T->AllocClass);
    Out += ')';
    return;
  }
  igdt_unreachable("unhandled obj term kind");
}

void appendTerm(std::string &Out, const IntTerm *T) {
  switch (T->TermKind) {
  case IntTerm::Kind::Const:
    appendDecimal(Out, T->ConstValue);
    return;
  case IntTerm::Kind::ValueOf:
    return appendTerm(Out, T->Obj);
  case IntTerm::Kind::UncheckedValueOf:
    return appendCall(Out, "rawInt", T->Obj);
  case IntTerm::Kind::SlotCount:
    return appendCall(Out, "slotCount", T->Obj);
  case IntTerm::Kind::StackSize:
    Out += "operand_stack_size";
    return;
  case IntTerm::Kind::ByteAt:
    return appendCall(Out, "byteAt", T->Obj, T->Aux);
  case IntTerm::Kind::LoadLE:
    Out += T->SignExtend ? "loadInt" : "loadUInt";
    appendDecimal(Out, T->Width * 8);
    return appendCall(Out, "", T->Obj, T->Aux);
  case IntTerm::Kind::ClassIndexOf:
    return appendCall(Out, "classIndexOf", T->Obj);
  case IntTerm::Kind::IdentityHash:
    return appendCall(Out, "identityHash", T->Obj);
  case IntTerm::Kind::Add:
    return appendBinary(Out, T, "+");
  case IntTerm::Kind::Sub:
    return appendBinary(Out, T, "-");
  case IntTerm::Kind::Mul:
    return appendBinary(Out, T, "*");
  case IntTerm::Kind::Quo:
    return appendBinary(Out, T, "quo");
  case IntTerm::Kind::DivFloor:
    return appendBinary(Out, T, "//");
  case IntTerm::Kind::ModFloor:
    return appendBinary(Out, T, "\\\\");
  case IntTerm::Kind::Neg:
    Out += "(- ";
    appendTerm(Out, T->Lhs);
    Out += ')';
    return;
  case IntTerm::Kind::BitAnd:
    return appendBinary(Out, T, "bitAnd");
  case IntTerm::Kind::BitOr:
    return appendBinary(Out, T, "bitOr");
  case IntTerm::Kind::BitXor:
    return appendBinary(Out, T, "bitXor");
  case IntTerm::Kind::Shl:
    return appendBinary(Out, T, "<<");
  case IntTerm::Kind::Asr:
    return appendBinary(Out, T, ">>");
  case IntTerm::Kind::HighBit:
    return appendCall(Out, "highBit", T->Lhs);
  case IntTerm::Kind::TruncF:
    return appendCall(Out, "truncated", T->FloatOperand);
  }
  igdt_unreachable("unhandled int term kind");
}

void appendTerm(std::string &Out, const FloatTerm *T) {
  switch (T->TermKind) {
  case FloatTerm::Kind::Const:
    Out += formatString("%g", T->ConstValue);
    return;
  case FloatTerm::Kind::ValueOf:
    return appendCall(Out, "floatValue", T->Obj);
  case FloatTerm::Kind::UncheckedValueOf:
    return appendCall(Out, "rawFloat", T->Obj);
  case FloatTerm::Kind::LoadF64:
    return appendCall(Out, "loadFloat64", T->Obj, T->Aux);
  case FloatTerm::Kind::LoadF32:
    return appendCall(Out, "loadFloat32", T->Obj, T->Aux);
  case FloatTerm::Kind::OfInt:
    return appendCall(Out, "asFloat", T->IntOperand);
  case FloatTerm::Kind::Add:
    return appendBinary(Out, T, "+");
  case FloatTerm::Kind::Sub:
    return appendBinary(Out, T, "-");
  case FloatTerm::Kind::Mul:
    return appendBinary(Out, T, "*");
  case FloatTerm::Kind::Div:
    return appendBinary(Out, T, "/");
  case FloatTerm::Kind::Sqrt:
    return appendCall(Out, "sqrt", T->Lhs);
  case FloatTerm::Kind::Sin:
    return appendCall(Out, "sin", T->Lhs);
  case FloatTerm::Kind::Cos:
    return appendCall(Out, "cos", T->Lhs);
  case FloatTerm::Kind::Exp:
    return appendCall(Out, "exp", T->Lhs);
  case FloatTerm::Kind::Ln:
    return appendCall(Out, "ln", T->Lhs);
  case FloatTerm::Kind::ArcTan:
    return appendCall(Out, "arcTan", T->Lhs);
  case FloatTerm::Kind::Frac:
    return appendCall(Out, "fractionPart", T->Lhs);
  }
  igdt_unreachable("unhandled float term kind");
}

void appendTerm(std::string &Out, const BoolTerm *T) {
  switch (T->TermKind) {
  case BoolTerm::Kind::Const:
    Out += T->ConstValue ? "true" : "false";
    return;
  case BoolTerm::Kind::Not: {
    const BoolTerm *Inner = T->BLhs;
    // Pretty-print negated type predicates the way the paper does:
    // isNotInteger(v) instead of !(isInteger(v)).
    if (Inner->TermKind == BoolTerm::Kind::IsClass &&
        Inner->ClassIndex == SmallIntegerClass)
      return appendCall(Out, "isNotInteger", Inner->Obj);
    if (Inner->TermKind == BoolTerm::Kind::IsClass &&
        Inner->ClassIndex == BoxedFloatClass)
      return appendCall(Out, "isNotFloat", Inner->Obj);
    return appendCall(Out, "!", Inner);
  }
  case BoolTerm::Kind::And:
    Out += '(';
    appendInfix(Out, T->BLhs, "AND", T->BRhs);
    Out += ')';
    return;
  case BoolTerm::Kind::Or:
    Out += '(';
    appendInfix(Out, T->BLhs, "OR", T->BRhs);
    Out += ')';
    return;
  case BoolTerm::Kind::ICmp:
    return appendInfix(Out, T->ILhs, cmpOperator(T->Pred), T->IRhs);
  case BoolTerm::Kind::FCmp:
    return appendInfix(Out, T->FLhs, cmpOperator(T->Pred), T->FRhs);
  case BoolTerm::Kind::IsClass:
    if (T->ClassIndex == SmallIntegerClass)
      return appendCall(Out, "isInteger", T->Obj);
    if (T->ClassIndex == BoxedFloatClass)
      return appendCall(Out, "isFloat", T->Obj);
    if (T->ClassIndex == TrueClass)
      return appendCall(Out, "isTrue", T->Obj);
    if (T->ClassIndex == FalseClass)
      return appendCall(Out, "isFalse", T->Obj);
    if (T->ClassIndex == UndefinedObjectClass)
      return appendCall(Out, "isNil", T->Obj);
    appendCall(Out, "classOf", T->Obj);
    Out += " == ";
    appendDecimal(Out, T->ClassIndex);
    return;
  case BoolTerm::Kind::HasFormat:
    appendCall(Out, "formatOf", T->Obj);
    Out += " in 0x";
    appendHex(Out, T->FormatMask);
    return;
  case BoolTerm::Kind::ObjEq:
    return appendInfix(Out, T->Obj, "==", T->ObjRhs);
  case BoolTerm::Kind::IntFormatIs:
    appendCall(Out, "formatOfClass", T->ILhs);
    Out += " in 0x";
    appendHex(Out, T->FormatMask);
    return;
  }
  igdt_unreachable("unhandled bool term kind");
}

template <typename TermT> std::string printTerm(const TermT *T) {
  std::string Out;
  appendTerm(Out, T);
  return Out;
}

} // namespace

std::string igdt::printObjTerm(const ObjTerm *T) { return printTerm(T); }
std::string igdt::printIntTerm(const IntTerm *T) { return printTerm(T); }
std::string igdt::printFloatTerm(const FloatTerm *T) { return printTerm(T); }
std::string igdt::printBoolTerm(const BoolTerm *T) { return printTerm(T); }

void igdt::appendBoolTerm(std::string &Out, const BoolTerm *T) {
  appendTerm(Out, T);
}

std::string igdt::printPathCondition(
    const std::vector<const BoolTerm *> &Path) {
  std::string Out;
  for (std::size_t I = 0; I < Path.size(); ++I) {
    if (I)
      Out += '\n';
    appendTerm(Out, Path[I]);
  }
  return Out;
}
