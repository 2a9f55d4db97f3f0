// CRC-32 (IEEE 802.3 polynomial) for mh5 dataset integrity checks.
//
// Parameters: reflected polynomial 0xEDB88320, init and xorout 0xFFFFFFFF
// (folded into the incremental API below), check value 0xCBF43926 for
// "123456789" — the zlib/PNG/gzip CRC. Two kernels compute it; crc32()
// picks one once per process and both give identical values for every
// input (docs/MH5_FORMAT.md).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ckptfi {

/// Incremental CRC-32. Start from crc = 0.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t crc = 0);

namespace detail {

/// Portable table kernel: 16 input bytes per step through 16 lookup
/// tables. The fallback on every host. Same contract as crc32().
std::uint32_t crc32_slice16(const void* data, std::size_t len,
                            std::uint32_t crc = 0);

/// True when this CPU has PCLMULQDQ and SSE4.1 (always false off x86-64).
bool crc32_pclmul_supported();

#if defined(__x86_64__)
/// Carry-less multiply kernel: folds 4x128 bits per step, then Barrett-
/// reduces to 32 bits. Inputs under 64 bytes and the sub-16-byte tail go
/// through crc32_slice16. Requires crc32_pclmul_supported().
std::uint32_t crc32_pclmul(const void* data, std::size_t len,
                           std::uint32_t crc = 0);
#endif

}  // namespace detail
}  // namespace ckptfi
