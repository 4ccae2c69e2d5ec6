//===- Hashing.cpp - Stable hashing ---------------------------------------===//

#include "support/Hashing.h"

using namespace gadt;

uint64_t gadt::hashBytes(std::string_view S, uint64_t Seed) {
  uint64_t H = Seed;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL; // FNV-1a 64-bit prime
  }
  return H;
}

uint64_t gadt::hashCombine(uint64_t A, uint64_t B) {
  // Hash the 16-byte concatenation A||B. Seeding with A and folding only B
  // would make the first fold symmetric (A^b0 == B^a0 for small values);
  // hashing both operands' bytes in sequence keeps the combination
  // order-dependent and platform-stable.
  uint64_t H = FnvOffsetBasis;
  for (unsigned Shift = 0; Shift < 64; Shift += 8) {
    H ^= (A >> Shift) & 0xff;
    H *= 0x100000001b3ULL;
  }
  for (unsigned Shift = 0; Shift < 64; Shift += 8) {
    H ^= (B >> Shift) & 0xff;
    H *= 0x100000001b3ULL;
  }
  return H;
}

std::string gadt::hashHex(uint64_t H) {
  static const char Digits[] = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I) {
    Out[static_cast<size_t>(I)] = Digits[H & 0xf];
    H >>= 4;
  }
  return Out;
}
