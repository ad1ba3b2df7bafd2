//===- igdtbench/src/Calibration.cpp - Host speed calibration kernel ------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed piece of work that uses no program code. The benchmark runs it
/// after every timed pass and divides pass times by its time, so that the
/// speed of a shared host, which other tenants move by half within a
/// second and by a third between runs, cancels out of the end-to-end
/// metrics while a change to the program does not. Its mix follows the
/// program's: hashing and hash-map updates, an ordered map, string
/// building and sorting, a switch-dispatch interpreter loop, and random
/// reads from a table larger than a core's L2 cache.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <map>
#include <unordered_map>

using namespace igdtbench;

namespace {

std::uint64_t xorshift(std::uint64_t &X) {
  X ^= X << 13;
  X ^= X >> 7;
  X ^= X << 17;
  return X;
}

constexpr std::size_t TableWords = std::size_t(1) << 20; // 4 MiB

} // namespace

Calibration::Calibration() : Table(TableWords) {
  std::uint64_t X = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t &W : Table)
    W = static_cast<std::uint32_t>(xorshift(X));
}

double Calibration::tableMb() const {
  return static_cast<double>(Table.size() * sizeof(Table[0])) / (1 << 20);
}

double Calibration::run() {
  Clock::time_point T0 = Clock::now();
  std::uint64_t X = 88172645463325252ull;
  std::uint64_t Acc = 0;

  std::unordered_map<std::uint64_t, unsigned> Hash;
  std::map<unsigned, unsigned> Ordered;
  std::vector<std::string> Strings;
  for (unsigned I = 0; I < 2000; ++I) {
    std::uint64_t R = xorshift(X);
    Hash[R % 4096] += I;
    Ordered[static_cast<unsigned>(R >> 40) % 2048] ^= I;
    if (I % 8 == 0)
      Strings.push_back(std::to_string(R));
  }
  std::sort(Strings.begin(), Strings.end());

  unsigned char Code[64];
  for (unsigned I = 0; I < 64; ++I)
    Code[I] = static_cast<unsigned char>((X >> (I % 60)) % 6);
  std::int64_t R0 = 1, R1 = 2;
  for (unsigned Iter = 0; Iter < 7000; ++Iter)
    for (unsigned char Op : Code)
      switch (Op) {
      case 0: R0 += R1; break;
      case 1: R1 ^= R0 << 1; break;
      case 2: R0 = R0 * 3 + 1; break;
      case 3: R1 -= R0 >> 2; break;
      case 4: R1 += R0 & 1; break;
      default: R0 ^= R1; break;
      }

  std::uint32_t Index = static_cast<std::uint32_t>(X);
  for (unsigned I = 0; I < 4000; ++I)
    Index = Table[(Index ^ I) % TableWords];

  for (const auto &KV : Hash)
    Acc += KV.second;
  for (const auto &KV : Ordered)
    Acc += KV.second;
  Acc += Strings.size() + static_cast<std::uint64_t>(R0 ^ R1) + Index;
  Sink += Acc;
  return millisBetween(T0, Clock::now());
}
