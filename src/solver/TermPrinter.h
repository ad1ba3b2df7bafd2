//===- solver/TermPrinter.h - Human-readable term rendering -----------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders terms in the paper's notation: variables as receiver/s0/s1/t0,
/// predicates as isInteger(s0), isNotInteger(s0 + s1), and so on
/// (paper Table 1 and Figure 2).
///
//===----------------------------------------------------------------------===//

#ifndef IGDT_SOLVER_TERMPRINTER_H
#define IGDT_SOLVER_TERMPRINTER_H

#include "solver/Term.h"

#include <string>

namespace igdt {

std::string printObjTerm(const ObjTerm *T);
std::string printIntTerm(const IntTerm *T);
std::string printFloatTerm(const FloatTerm *T);
std::string printBoolTerm(const BoolTerm *T);

/// Appends printBoolTerm(\p T) to \p Out without building a temporary.
void appendBoolTerm(std::string &Out, const BoolTerm *T);

/// Renders a conjunction of path conditions, one per line.
std::string printPathCondition(const std::vector<const BoolTerm *> &Path);

} // namespace igdt

#endif // IGDT_SOLVER_TERMPRINTER_H
