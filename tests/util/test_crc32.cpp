#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ckptfi {
namespace {

TEST(Crc32, KnownVectors) {
  // Standard IEEE CRC-32 check values.
  const std::string s1 = "123456789";
  EXPECT_EQ(crc32(s1.data(), s1.size()), 0xcbf43926u);
  const std::string s2 = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(s2.data(), s2.size()), 0x414fa339u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string s = "hello, incremental world";
  const auto full = crc32(s.data(), s.size());
  auto partial = crc32(s.data(), 5);
  partial = crc32(s.data() + 5, s.size() - 5, partial);
  EXPECT_EQ(partial, full);
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::string s = "checkpoint-bytes";
  const auto before = crc32(s.data(), s.size());
  s[4] = static_cast<char>(s[4] ^ 0x10);
  EXPECT_NE(crc32(s.data(), s.size()), before);
}

// --- kernel equivalence -----------------------------------------------------
// The byte-at-a-time Sarwate loop is the reference every kernel must match
// bit for bit: it is what util/crc32 computed before the table and
// carry-less-multiply kernels, and what every stored mh5/npz CRC holds.

std::uint32_t sarwate(const void* data, std::size_t len, std::uint32_t crc) {
  static const auto table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, n - i));
  }
  return out;
}

/// Every length 0..1024 at every start offset 0..15 (so each unaligned
/// head, 16-byte body and tail combination is hit), chained calls with a
/// nonzero incoming crc, and one 8 MiB buffer.
void expect_matches_sarwate(Kernel kernel) {
  const auto buf = random_bytes(1024 + 16, 7);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(kernel(buf.data() + off, len, 0),
                sarwate(buf.data() + off, len, 0))
          << "offset " << off << " length " << len;
    }
  }

  for (const std::uint32_t seed : {0x1u, 0xdeadbeefu, 0xffffffffu}) {
    for (const std::size_t split : {0u, 1u, 15u, 63u, 64u, 65u, 500u, 1040u}) {
      const std::uint32_t head = kernel(buf.data(), split, seed);
      EXPECT_EQ(head, sarwate(buf.data(), split, seed)) << "split " << split;
      EXPECT_EQ(kernel(buf.data() + split, buf.size() - split, head),
                sarwate(buf.data(), buf.size(), seed))
          << "seed " << seed << " split " << split;
    }
  }

  const auto big = random_bytes(8u << 20, 11);
  EXPECT_EQ(kernel(big.data(), big.size(), 0),
            sarwate(big.data(), big.size(), 0));
}

TEST(Crc32Kernels, Slice16MatchesSarwate) {
  expect_matches_sarwate(detail::crc32_slice16);
}

TEST(Crc32Kernels, PclmulMatchesSarwate) {
#if defined(__x86_64__)
  if (!detail::crc32_pclmul_supported()) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  expect_matches_sarwate(detail::crc32_pclmul);
#else
  GTEST_SKIP() << "PCLMULQDQ is an x86-64 instruction";
#endif
}

TEST(Crc32Kernels, DispatcherMatchesSarwate) {
  expect_matches_sarwate([](const void* d, std::size_t n, std::uint32_t c) {
    return crc32(d, n, c);
  });
}

TEST(Crc32Kernels, CheckValueOnEveryKernel) {
  const std::string s = "123456789";
  EXPECT_EQ(detail::crc32_slice16(s.data(), s.size()), 0xcbf43926u);
#if defined(__x86_64__)
  if (detail::crc32_pclmul_supported()) {
    // 64+ bytes so the fold path, not just its slice-by-16 tail, runs.
    const std::string r(64, 'a');
    EXPECT_EQ(detail::crc32_pclmul(r.data(), r.size()),
              sarwate(r.data(), r.size(), 0));
    EXPECT_EQ(detail::crc32_pclmul(s.data(), s.size()), 0xcbf43926u);
  }
#endif
}

}  // namespace
}  // namespace ckptfi
