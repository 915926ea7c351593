#pragma once

// GF(2^8) arithmetic for Reed-Solomon erasure coding.
//
// Field: polynomial basis mod x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the
// conventional choice for storage codes.  Scalar multiplication uses
// exp/log tables.  The bulk kernels (mul_acc, mul_row — the inner loops of
// encode/decode) use split-nibble tables and AVX2 byte shuffles when the
// host has AVX2, with the same results bit for bit.

#include <array>
#include <cstdint>
#include <span>

namespace gdedup::gf256 {

uint8_t mul(uint8_t a, uint8_t b);
uint8_t div(uint8_t a, uint8_t b);  // b != 0
uint8_t inv(uint8_t a);             // a != 0
uint8_t exp(int power);             // generator^power
uint8_t add(uint8_t a, uint8_t b);  // XOR, provided for symmetry

// dst[i] ^= c * src[i] for i in [0, n): the SpMV kernel of RS coding.
void mul_acc(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c);

// dst[i] = c * src[i].
void mul_row(uint8_t* dst, const uint8_t* src, size_t n, uint8_t c);

}  // namespace gdedup::gf256
