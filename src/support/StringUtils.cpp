//===- support/StringUtils.cpp - Small string helpers ---------------------===//

#include "support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace igdt;

std::string igdt::formatString(const char *Fmt, ...) {
  // One pass into a stack buffer covers nearly every call; only longer
  // output pays a second pass into the sized string.
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  std::string Result;
  if (Needed > 0 && static_cast<std::size_t>(Needed) < sizeof(Buf)) {
    Result.assign(Buf, static_cast<std::size_t>(Needed));
  } else if (Needed > 0) {
    Result.resize(static_cast<std::size_t>(Needed));
    std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  }
  va_end(ArgsCopy);
  return Result;
}

std::string igdt::joinStrings(const std::vector<std::string> &Parts,
                              const std::string &Sep) {
  std::string Result;
  for (std::size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string igdt::toHex(std::uint64_t Value) {
  return formatString("0x%llx", static_cast<unsigned long long>(Value));
}

std::string igdt::formatPercent(double Fraction) {
  return formatString("%.2f%%", Fraction * 100.0);
}

std::uint64_t igdt::stableHash64(const std::string &Text) {
  std::uint64_t H = 0xCBF29CE484222325ull; // FNV offset basis
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001B3ull; // FNV prime
  }
  return H;
}
