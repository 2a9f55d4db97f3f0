#include "util/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ckptfi {
namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 16>;

/// tables[0] is the classic byte-at-a-time table; tables[k][i] is the CRC
/// update of byte i followed by k zero bytes, so one 16-byte step is 16
/// independent lookups XORed together.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 16; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian u32 at p; compilers fold this into one load on LE hosts.
inline std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

/// Slice-by-16 over the raw (pre-inverted) CRC register.
std::uint32_t slice16_update(const unsigned char* p, std::size_t len,
                             std::uint32_t c) {
  const Tables& t = kTables;
  for (; len >= 16; p += 16, len -= 16) {
    const std::uint32_t a = c ^ load_le32(p);
    const std::uint32_t b = load_le32(p + 4);
    const std::uint32_t d = load_le32(p + 8);
    const std::uint32_t e = load_le32(p + 12);
    c = t[15][a & 0xffu] ^ t[14][(a >> 8) & 0xffu] ^
        t[13][(a >> 16) & 0xffu] ^ t[12][a >> 24] ^
        t[11][b & 0xffu] ^ t[10][(b >> 8) & 0xffu] ^
        t[9][(b >> 16) & 0xffu] ^ t[8][b >> 24] ^
        t[7][d & 0xffu] ^ t[6][(d >> 8) & 0xffu] ^
        t[5][(d >> 16) & 0xffu] ^ t[4][d >> 24] ^
        t[3][e & 0xffu] ^ t[2][(e >> 8) & 0xffu] ^
        t[1][(e >> 16) & 0xffu] ^ t[0][e >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)

inline __m128i load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// x * k (high and low 64-bit halves, carry-less) XORed into next.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// PCLMULQDQ folding over the raw CRC register, after Intel's "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction" (2009),
/// with the bit-reflected constants zlib uses. `len` must be a multiple of
/// 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t pclmul_update(
    const unsigned char* p, std::size_t len, std::uint32_t c) {
  // x^(4*128+32) mod P and x^(4*128-32) mod P (4-lane fold), the same for
  // one lane (x^(128+32), x^(128-32)), x^64 mod P, then the Barrett pair
  // P' and mu = x^64 / P, all bit-reflected.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold(x1, k1k2, load128(p));
    x2 = fold(x2, k1k2, load128(p + 16));
    x3 = fold(x3, k1k2, load128(p + 32));
    x4 = fold(x4, k1k2, load128(p + 48));
  }

  // Four lanes into one, then the remaining 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold(x1, k3k4, load128(p));

  // 128 -> 64 bits.
  const __m128i lo32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, lo32), k5k0, 0x00));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, lo32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, lo32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#endif

using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

Kernel pick_kernel() {
#if defined(__x86_64__)
  if (detail::crc32_pclmul_supported()) return detail::crc32_pclmul;
#endif
  return detail::crc32_slice16;
}

}  // namespace

namespace detail {

std::uint32_t crc32_slice16(const void* data, std::size_t len,
                            std::uint32_t crc) {
  return ~slice16_update(static_cast<const unsigned char*>(data), len, ~crc);
}

bool crc32_pclmul_supported() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

#if defined(__x86_64__)
std::uint32_t crc32_pclmul(const void* data, std::size_t len,
                           std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~crc;
  if (len >= 64) {
    const std::size_t bulk = len & ~std::size_t{15};
    c = pclmul_update(p, bulk, c);
    p += bulk;
    len -= bulk;
  }
  return ~slice16_update(p, len, c);
}
#endif

}  // namespace detail

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc) {
  static const Kernel kernel = pick_kernel();
  return kernel(data, len, crc);
}

}  // namespace ckptfi
